"""Measure one workload: set-up and run time, memory, quality and failures.

Entered through run.py, which pins the BLAS thread count before numpy is
imported. One measurement makes, in this order:

1. an untimed reference run, whose artifact hashes every later run must match
   (for a threaded workload, also an untimed run of the same config at
   threads=1, the `--threads` invariant);
2. SETUPS_PER_RUN timed `prepare_problem` calls, then a timed `unfoldfed
   run`, repeated until the time budget is spent, at least MIN_RUNS runs;
3. with tracing on, a traced run after each timed run, under the layer
   wrappers of tracing.py. Per-layer metrics are medians over the traced
   runs; pairing each with a neighbouring untraced run keeps the tracing
   overhead estimate clear of drift in the host's speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from unfoldfed import cli, experiment
from unfoldfed.config import from_dict

from .tracing import LAYER_UNITS, Tracer, instrumented, layer_metrics, silent_layers
from .workloads import (
    TEST_PER_CLASS,
    TRAIN_PER_CLASS,
    WORKLOADS,
    ArtifactError,
    check_artifacts,
    experiment_config,
)

MIN_RUNS = 3
SETUPS_PER_RUN = 3  # set-up is short; more samples steady its median
ROOT_SPAN = "unfoldfed.run"

E2E_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_test_acc": "ratio",
    "success_frac": "ratio",
}
# The meta-loss is deterministic per seed but varies across seeds by more
# than any end-to-end bound allows, so it is reported with the layers.
PER_LAYER_UNITS = {
    **LAYER_UNITS,
    "trace.overhead_frac": "ratio",
    "unfolding.final_meta_loss": "nats",
}


def generate_dataset(out_dir: str, seed: int, src_dir: str) -> tuple[dict, float]:
    """Write the desk synthetic set for `seed` in a child process.

    A child process keeps the generator's memory out of this process's peak
    resident size. Returns the IDX path map and the wall time it took.
    """
    env = dict(os.environ, PYTHONPATH=src_dir)
    cmd = [sys.executable, "-m", "unfoldfed.cli", "synth", "--out", out_dir,
           "--train-per-class", str(TRAIN_PER_CLASS),
           "--test-per-class", str(TEST_PER_CLASS), "--seed", str(seed)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout), time.perf_counter() - t0


def environment(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pool_threads": threads,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
    }


@dataclass
class Runner:
    """Every call into the program for one workload, config and dataset."""

    raw: dict
    work_dir: str
    attempted: int = 0
    failures: list = field(default_factory=list)
    reference: dict | None = None  # check result of the first good run
    hashes: dict = field(default_factory=dict)  # run label -> artifact hashes

    def _fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")

    def run(self, label: str, tracer: Tracer | None = None, **overrides) -> float:
        """One `unfoldfed run` through cli.main; returns its wall time.

        Raising, a nonzero exit code, a failed artifact check or artifacts
        that differ from the reference run all count as a failed run.
        """
        raw = dict(self.raw, **overrides)
        out_dir = os.path.join(self.work_dir, "out")
        cfg_path = os.path.join(self.work_dir, "config.json")
        with open(cfg_path, "w") as f:
            json.dump(raw, f)
        argv = ["run", "--config", cfg_path, "--out", out_dir]
        self.attempted += 1
        code = None
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            if tracer is not None:
                stack.enter_context(instrumented(tracer))
                stack.enter_context(tracer.span(ROOT_SPAN))
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash in the program is a failed run
                self._fail(label, traceback.format_exc(limit=-3))
            elapsed = time.perf_counter() - t0
        if code is not None and code != 0:
            self._fail(label, f"exit code {code}")
        elif code == 0:
            try:
                result = check_artifacts(out_dir, raw)
            except ArtifactError as e:
                self._fail(label, f"artifact check: {e}")
            else:
                self.hashes[label] = result["hashes"]
                if self.reference is None:
                    self.reference = result
                elif result["hashes"] != self.reference["hashes"]:
                    self._fail(label, "artifacts differ from the reference run")
        shutil.rmtree(out_dir, ignore_errors=True)
        return elapsed

    def setup(self) -> float:
        """Wall time of one `experiment.prepare_problem` call."""
        cfg = from_dict(self.raw)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            problem = experiment.prepare_problem(cfg)
        except Exception:  # a crash in the program is a failed set-up
            self._fail("setup", traceback.format_exc(limit=-3))
        else:
            del problem
        return time.perf_counter() - t0


def measure(name: str, seed: int, seconds: float, trace: bool,
            data_paths: dict, work_dir: str, M: int | None = None,
            min_runs: int = MIN_RUNS) -> dict:
    """Measure workload `name` on the dataset at `data_paths`.

    `M` overrides the workload's meta-iterations (the tests use a tiny M).
    Returns the end-to-end metrics; when traced, the per-layer metrics and
    the tracer holding the spans of the last traced run; and the run record
    (hashes, samples, failures).
    """
    w = WORKLOADS[name]
    raw = experiment_config(w, data_paths, seed, **({"M": M} if M else {}))
    os.makedirs(work_dir, exist_ok=True)
    runner = Runner(raw, work_dir)

    runner.run("reference")
    # Peak memory of one run in a fresh process; later set-ups and runs only
    # move it by where the allocator happens to place their arrays.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if w.threads > 1:
        runner.run("threads=1", threads=1)
    run_s, setup_s, traced_s, traced = [], [], [], []
    tracer = None
    deadline = time.perf_counter() + seconds
    while len(run_s) < min_runs or time.perf_counter() < deadline:
        setup_s.extend(runner.setup() for _ in range(SETUPS_PER_RUN))
        run_s.append(runner.run(f"timed-{len(run_s)}"))
        if trace:
            tracer = Tracer()
            traced_s.append(runner.run(f"traced-{len(traced)}", tracer=tracer))
            root = next(s for s in tracer.spans if s.name == ROOT_SPAN)
            traced.append(layer_metrics(tracer.spans, root))

    ref = runner.reference or {"final_test_acc": 0.0, "final_meta_loss": 0.0}
    attempted, failed = runner.attempted, len(runner.failures)
    metrics = {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "final_test_acc": ref["final_test_acc"],
        "success_frac": (attempted - failed) / attempted,
    }
    record = {
        "workload": name, "seed": seed, "config": raw,
        "environment": environment(w.threads),
        "run_s_samples": run_s, "setup_s_samples": setup_s,
        "final_meta_loss": ref["final_meta_loss"],
    }
    layers = None
    if trace:
        # median_low keeps counts whole: it always returns one of the samples.
        values = {k: statistics.median_low([t[k] for t in traced]) for k in LAYER_UNITS}
        values["trace.overhead_frac"] = (statistics.median(traced_s)
                                         / statistics.median(run_s) - 1.0)
        values["unfolding.final_meta_loss"] = ref["final_meta_loss"]
        layers = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        record["silent_layers"] = silent_layers(tracer.spans)
        record["traced_s_samples"] = traced_s
    record.update(hashes=runner.hashes, failures=runner.failures)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
        "layers": layers,
        "tracer": tracer,  # of the last traced run
        "record": record,
    }
