"""Tests of the desk-run benchmark itself.

A smoke run of every workload at M=1, a negative control that corrupts a
run's artifact, the span bookkeeping under a thread pool, and refusal to
run outside a source checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from deskbench import bench
from deskbench.tracing import Tracer, instrumented, layer_metrics
from deskbench.workloads import T, WORKLOADS
from unfoldfed import federation, nn, report, unfolding

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


@pytest.fixture(scope="module")
def desk_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("deskbench")
    paths, _ = bench.generate_dataset(str(out / "data"), 0, os.path.join(ROOT, "src"))
    return paths, out


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_benchmark_json_lists_what_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert units({m["name"]: m for m in SPEC["end_to_end"]}) == bench.E2E_UNITS
    assert units({m["name"]: m for m in SPEC["per_layer"]}) == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_reports_every_metric(desk_data, name):
    paths, tmp = desk_data
    result = bench.measure(name, 0, 0.0, True, paths, str(tmp / name),
                           M=1, min_runs=1)
    assert result["correct"], result["record"]["failures"]
    assert result["failed"] == 0
    assert units(result["metrics"]) == units({m["name"]: m for m in SPEC["end_to_end"]})
    assert units(result["layers"]) == units({m["name"]: m for m in SPEC["per_layer"]})
    assert all(m["value"] > 0 for m in result["metrics"].values())

    layers = {k: m["value"] for k, m in result["layers"].items()}
    assert layers["federation.client_update.calls"] == T * 5
    assert layers["nn.loss_and_grad.calls"] > layers["federation.client_update.calls"]
    assert layers["data.load_dataset.mb"] > 0 and layers["report.bytes_written"] > 0
    rows = 0 if WORKLOADS[name].mode == "fedavg" else T
    assert layers["unfolding.meta_gradient_row.calls"] == rows
    if name == "comp-unfolded-t2":
        assert "threads=1" in result["record"]["hashes"]


def _corrupt_history(kind):
    """A report.emit_csv that damages the file of the second run only."""
    emit, calls = report.emit_csv, []

    def emit_csv(history, path):
        emit(history, path)
        calls.append(path)
        if len(calls) != 2:
            return
        with open(path) as f:
            lines = f.read().split("\n")
        if kind == "malformed":
            lines.insert(2, "not,a,row")
        else:  # one digit of one loss changes; the file stays well formed
            fields = lines[1].split(",")
            fields[2] = fields[2][:-1] + str((int(fields[2][-1]) + 1) % 10)
            lines[1] = ",".join(fields)
        with open(path, "w") as f:
            f.write("\n".join(lines))

    return emit_csv


@pytest.mark.parametrize("kind", ["malformed", "one-digit"])
def test_corrupted_artifact_counts_as_failed(desk_data, monkeypatch, kind):
    paths, tmp = desk_data
    monkeypatch.setattr(report, "emit_csv", _corrupt_history(kind))
    result = bench.measure("comm-fedavg-b128", 0, 0.0, False, paths,
                           str(tmp / kind), M=1, min_runs=2)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["record"]["failures"][0].startswith("timed-0")
    attempted = result["attempted"]
    assert result["metrics"]["success_frac"]["value"] == (attempted - 1) / attempted


def test_pool_spans_attach_to_the_waiting_span_and_overlap_once():
    tracer = Tracer()

    def client(_):
        with tracer.span("federation.client_update"):
            time.sleep(0.2)

    with tracer.span(bench.ROOT_SPAN) as root:
        with tracer.span("federation.run_round") as rnd:
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(client, range(2)))
    clients = [s for s in tracer.spans if s.name == "federation.client_update"]
    assert [c.parent for c in clients] == [rnd.id, rnd.id]
    assert rnd.parent == root.id

    layers = layer_metrics(tracer.spans, root)
    assert 0.2 <= layers["federation.client_phase_s"] < 0.26
    assert layers["federation.client_parallelism"] > 1.5
    assert layers["trace.unattributed_s"] < 0.01


def test_instrumented_restores_the_program():
    originals = (unfolding.run_round, federation.client_update, nn.loss_and_grad)
    with instrumented(Tracer()):
        assert unfolding.run_round is not originals[0]
        assert unfolding.run_round.__wrapped__ is originals[0]
    assert (unfolding.run_round, federation.client_update, nn.loss_and_grad) == originals


def test_refuses_to_run_outside_a_source_checkout(tmp_path):
    shutil.copytree(os.path.join(ROOT, "deskbench"), tmp_path / "deskbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "deskbench/run.py", "--workload", "stat-unfolded",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
