"""Outside-in span tracing of the unfoldfed layers.

Each layer is timed by wrapping a public function at the module attribute
where its caller looks it up, so the program under test is not edited. A
function imported by name into another module is wrapped in the importing
module: `unfolding` imports `run_round` by name, so the span sits on
`unfolding.run_round`, while `federation` calls `nn.loss_and_grad` through
the module and the span sits on `nn.loss_and_grad`.

Spans are kept in memory; the benchmark writes them out after its runs.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int  # 0 for a root span
    name: str
    thread: int
    start: float
    end: float = 0.0
    size: int = 0  # bytes this call moved or wrote, where the layer defines it
    ok: bool = True  # False for a client that skipped the round

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe span recorder with one span stack per thread.

    A span opened on a thread whose stack is empty (a pool worker) takes as
    parent the innermost open span of the thread that created the tracer,
    which is the span blocked waiting on the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        outer = stack or self._owner_stack
        parent = outer[-1].id if outer else 0
        with self._lock:
            s = Span(next(self._ids), parent, name, threading.get_ident(), 0.0)
            self.spans.append(s)
        stack.append(s)
        s.start = time.perf_counter()
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn, note=None):
        """`fn` under a span; `note(span, args, result)` fills size and ok."""

        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if note is not None:
                note(s, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def _batch_bytes(span, args, result):
    span.size = args[2].features.nbytes  # loss_and_grad(spec, params, batch)


def _participated(span, args, result):
    span.ok = bool(result.participated)


def _delta_bytes(span, args, result):
    # aggregate(global_params, updates, ...): only participating deltas are read.
    span.size = sum(u.delta.nbytes for u in args[1] if u.participated)


def _dataset_bytes(span, args, result):
    span.size = result.images.nbytes + result.labels.nbytes


def _file_bytes_at(position):
    def note(span, args, result):
        span.size = os.path.getsize(args[position])
    return note


def _manifest_bytes(span, args, result):
    span.size = os.path.getsize(os.path.join(args[1], "manifest.json"))


# (module, attribute its caller looks up, span name, note)
LAYERS = (
    ("experiment", "prepare_problem", "experiment.prepare_problem", None),
    ("experiment", "load_dataset", "data.load_dataset", _dataset_bytes),
    ("experiment", "split_validation", "data.split_validation", None),
    ("experiment", "partition_for_setting", "data.partition_for_setting", None),
    ("experiment", "unfold_train", "unfolding.unfold_train", None),
    ("unfolding", "run_round", "federation.run_round", None),
    ("unfolding", "meta_gradient_row", "unfolding.meta_gradient_row", None),
    ("unfolding", "meta_step", "unfolding.meta_step", None),
    ("federation", "client_update", "federation.client_update", _participated),
    ("federation", "aggregate", "federation.aggregate", _delta_bytes),
    ("nn", "loss_and_grad", "nn.loss_and_grad", _batch_bytes),
    ("nn", "sgd_step", "nn.sgd_step", None),
    ("nn", "evaluate", "nn.evaluate", None),
    ("report", "emit_csv", "report.emit_csv", _file_bytes_at(1)),
    ("report", "emit_weights_json", "report.emit_weights_json", _file_bytes_at(2)),
    ("report", "render_svg", "report.render_svg", _file_bytes_at(2)),
    ("cli", "_write_manifest", "report.write_manifest", _manifest_bytes),
)
REPORT_SPANS = ("report.emit_csv", "report.emit_weights_json",
                "report.render_svg", "report.write_manifest")


@contextmanager
def instrumented(tracer: Tracer):
    """Install a span wrapper on every entry of LAYERS; restore on exit."""
    saved = []
    try:
        for module_name, attr, span_name, note in LAYERS:
            module = importlib.import_module(f"unfoldfed.{module_name}")
            original = getattr(module, attr)  # AttributeError: layer renamed
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, note))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def nearest_rank(values, q: float) -> float:
    """The q-quantile by the nearest-rank rule; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# Per-layer metric name -> unit, in the order they are reported.
LAYER_UNITS = {
    "nn.loss_and_grad.calls": "count",
    "nn.loss_and_grad.self_s": "s",
    "nn.loss_and_grad.p50_us": "us",
    "nn.loss_and_grad.p99_us": "us",
    "nn.sgd_step.calls": "count",
    "nn.sgd_step.self_s": "s",
    "federation.client_update.calls": "count",
    "federation.client_update.self_s": "s",
    "federation.client_update.p50_ms": "ms",
    "federation.client_update.p90_ms": "ms",
    "federation.client_update.participation": "ratio",
    "federation.client_update.gather_mb": "MB",
    "federation.run_round.p50_ms": "ms",
    "federation.run_round.p90_ms": "ms",
    "federation.client_phase_s": "s",
    "federation.client_parallelism": "ratio",
    "federation.aggregate.self_s": "s",
    "federation.aggregate.delta_mb": "MB",
    "unfolding.meta_gradient_row.calls": "count",
    "unfolding.meta_gradient_row.self_s": "s",
    "unfolding.meta_gradient_row.total_s": "s",
    "unfolding.meta_step.total_s": "s",
    "unfolding.unfold_train.self_s": "s",
    "nn.evaluate.calls": "count",
    "nn.evaluate.self_s": "s",
    "data.load_dataset.total_s": "s",
    "data.load_dataset.mb": "MB",
    "data.split_validation.total_s": "s",
    "data.partition_for_setting.total_s": "s",
    "report.write_s": "s",
    "report.bytes_written": "bytes",
    "trace.unattributed_s": "s",
}


def layer_metrics(spans: list[Span], root: Span) -> dict:
    """Values of the LAYER_UNITS metrics for one traced run whose outermost
    span is `root`."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def self_time(s: Span) -> float:
        return s.duration - _union_length((c.start, c.end) for c in children[s.id])

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_sum(name):
        return sum(self_time(s) for s in by_name[name])

    clients = by_name["federation.client_update"]
    worked = [c for c in clients if c.ok]
    client_ids = {c.id for c in clients}
    client_grads = [s for s in by_name["nn.loss_and_grad"] if s.parent in client_ids]
    phase = 0.0
    for rnd in by_name["federation.run_round"]:
        mine = [c for c in children[rnd.id] if c.name == "federation.client_update"]
        if mine:
            phase += max(c.end for c in mine) - min(c.start for c in mine)
    client_busy = sum(c.duration for c in clients)
    rounds_ms = [r.duration * 1e3 for r in by_name["federation.run_round"]]
    worked_ms = [c.duration * 1e3 for c in worked]
    grads_us = [g.duration * 1e6 for g in client_grads]

    values = {
        "nn.loss_and_grad.calls": calls("nn.loss_and_grad"),
        "nn.loss_and_grad.self_s": self_sum("nn.loss_and_grad"),
        "nn.loss_and_grad.p50_us": nearest_rank(grads_us, 0.50),
        "nn.loss_and_grad.p99_us": nearest_rank(grads_us, 0.99),
        "nn.sgd_step.calls": calls("nn.sgd_step"),
        "nn.sgd_step.self_s": self_sum("nn.sgd_step"),
        "federation.client_update.calls": len(clients),
        "federation.client_update.self_s": self_sum("federation.client_update"),
        "federation.client_update.p50_ms": nearest_rank(worked_ms, 0.50),
        "federation.client_update.p90_ms": nearest_rank(worked_ms, 0.90),
        "federation.client_update.participation": len(worked) / max(1, len(clients)),
        "federation.client_update.gather_mb": sum(g.size for g in client_grads) / 1e6,
        "federation.run_round.p50_ms": nearest_rank(rounds_ms, 0.50),
        "federation.run_round.p90_ms": nearest_rank(rounds_ms, 0.90),
        "federation.client_phase_s": phase,
        "federation.client_parallelism": client_busy / phase if phase > 0 else 0.0,
        "federation.aggregate.self_s": self_sum("federation.aggregate"),
        "federation.aggregate.delta_mb":
            sum(s.size for s in by_name["federation.aggregate"]) / 1e6,
        "unfolding.meta_gradient_row.calls": calls("unfolding.meta_gradient_row"),
        "unfolding.meta_gradient_row.self_s": self_sum("unfolding.meta_gradient_row"),
        "unfolding.meta_gradient_row.total_s": total("unfolding.meta_gradient_row"),
        "unfolding.meta_step.total_s": total("unfolding.meta_step"),
        "unfolding.unfold_train.self_s": self_sum("unfolding.unfold_train"),
        "nn.evaluate.calls": calls("nn.evaluate"),
        "nn.evaluate.self_s": self_sum("nn.evaluate"),
        "data.load_dataset.total_s": total("data.load_dataset"),
        "data.load_dataset.mb": sum(s.size for s in by_name["data.load_dataset"]) / 1e6,
        "data.split_validation.total_s": total("data.split_validation"),
        "data.partition_for_setting.total_s": total("data.partition_for_setting"),
        "report.write_s": sum(total(n) for n in REPORT_SPANS),
        "report.bytes_written": sum(s.size for n in REPORT_SPANS for s in by_name[n]),
        "trace.unattributed_s": self_time(root),
    }
    return values


def silent_layers(spans: list[Span]) -> list[str]:
    """Wrapped layers that recorded no call: a caller may have stopped
    looking the function up where the wrapper sits."""
    seen = {s.name for s in spans}
    return [name for _, _, name, _ in LAYERS if name not in seen]
