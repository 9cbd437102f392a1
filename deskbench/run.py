"""Desk-run benchmark of unfoldfed: one workload, one seed, one process.

    python3 deskbench/run.py --workload stat-unfolded --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. Prints one line per metric with its unit, then, as the last line, a
JSON object with the keys correct, attempted, failed and metrics. With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, with
`--trace 1` the per-layer ones. Scratch files go under `.deskbench/`; the
spans of the last traced run and a record of every invocation are kept there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".deskbench")

# One BLAS thread: BLAS then runs on the calling thread and starts none of
# its own, so the 2-thread client pool of comp-unfolded-t2 stays within
# nproc and single-threaded workloads do not contend with hidden threads.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="deskbench", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds < 0:
        p.error("--seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "unfoldfed", "__init__.py")):
        print(f"deskbench: no unfoldfed sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before the first numpy import
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [SRC, ROOT]
    from deskbench import bench
    from deskbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"deskbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    work_dir = os.path.join(SCRATCH, f"{tag}-{os.getpid()}")
    try:
        data_paths, gen_s = bench.generate_dataset(
            os.path.join(work_dir, "data"), args.seed, SRC)
        result = bench.measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), data_paths, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = dict(result["record"], dataset_gen_s=gen_s)
    if result["tracer"] is not None:
        result["tracer"].dump(os.path.join(SCRATCH, f"spans-{tag}.jsonl"))
    with open(os.path.join(SCRATCH, f"record-{tag}.json"), "w") as f:
        json.dump(dict(record, metrics=result["metrics"], layers=result["layers"]),
                  f, indent=1)

    print(f"deskbench {tag}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"info dataset_gen_s = {gen_s:.3f} s (once per seed, not in setup_s)")
    runs_by_hashes = {}
    for label, hashes in record["hashes"].items():
        runs_by_hashes.setdefault(json.dumps(hashes, sort_keys=True), []).append(label)
    for hashes, labels in runs_by_hashes.items():
        print(f"hashes {hashes} runs={','.join(labels)}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"info failed_frac = {result['failed']}/{result['attempted']}")
    print(f"info final_meta_loss = {record['final_meta_loss']:.6g} nats "
          "(reported as unfolding.final_meta_loss with --trace 1)")
    print(f"samples run_s n={len(record['run_s_samples'])} "
          f"setup_s n={len(record['setup_s_samples'])}")
    shown = result["layers"] if args.trace else result["metrics"]
    for name, m in shown.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    if args.trace and record["silent_layers"]:
        print("info layers with no calls: " + ", ".join(record["silent_layers"]))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
