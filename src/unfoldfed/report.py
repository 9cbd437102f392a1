"""Run-history persistence and figure-shaped SVG rendering.

All emitters are pure functions of the history: emitting the same history
twice produces byte-identical files. Numbers are rendered with 9 significant
digits.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .data import IdxFormatError
from .federation import RoundRecord, check_simplex
from .unfolding import RunHistory, softmax_weights


def fmt(x: float) -> str:
    return f"{float(x):.9g}"


def csv_header(K: int) -> str:
    thetas = ",".join(f"theta_{k}" for k in range(K))
    return f"meta_iter,round,val_loss,test_acc,{thetas},participation_mask"


def emit_csv(history: RunHistory, path) -> None:
    """One row per round; deterministic bytes for a given history."""
    lines = [csv_header(history.K)]
    for meta_iter, rec in history.rounds:
        thetas = ",".join(fmt(t) for t in rec.theta)
        mask = "".join("1" if p else "0" for p in rec.participation)
        lines.append(
            f"{meta_iter},{rec.round},{fmt(rec.val_loss)},{fmt(rec.test_acc)},"
            f"{thetas},{mask}"
        )
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def read_csv(path) -> RunHistory:
    """Parse a history written by `emit_csv`.

    A file that is not such a history (text or not) or holds no rows raises
    IdxFormatError naming the file or line; so does a row that no run writes: a
    `val_loss` that is negative or not finite (a run that diverges raises
    instead), a `test_acc` outside [0, 1], weights off the simplex, or a
    row out of order. With T the number of leading rows of meta-iteration
    0, row i must be round i % T of meta-iteration i // T, and the last
    meta-iteration must have all T rounds.
    """
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except UnicodeDecodeError as e:
        raise IdxFormatError(f"{path}: not a text file: {e}") from e
    K = len(rows[0]) - 5 if rows else 0
    if not rows or rows[0] != csv_header(K).split(","):
        raise IdxFormatError(f"{path}: no history header")
    if len(rows) == 1:
        raise IdxFormatError(f"{path} line 2: no rows after the header")
    records = []
    T = 0  # rows per meta-iteration, known at the first row of meta-iteration 1
    for i, row in enumerate(rows[1:]):
        try:
            if len(row) != 5 + K:
                raise ValueError(f"{len(row)} fields, expected {5 + K}")
            mask = row[4 + K]
            if len(mask) != K or set(mask) - {"0", "1"}:
                raise ValueError(f"participation mask {mask!r}")
            val_loss, test_acc = float(row[2]), float(row[3])
            if not 0.0 <= val_loss < math.inf:
                raise ValueError(f"val_loss {row[2]!r} is negative or not finite")
            if not 0.0 <= test_acc <= 1.0:
                raise ValueError(f"test_acc {row[3]!r} is not in [0, 1]")
            theta = np.array([float(v) for v in row[4:4 + K]])
            check_simplex(theta)
            m, t = int(row[0]), int(row[1])
            if not T and m != 0:
                T = i
            expected = divmod(i, T) if T else (0, i)
            if (m, t) != expected:
                raise ValueError(f"(meta_iter, round) {(m, t)} out of order, "
                                 f"expected {expected}")
            records.append((m, RoundRecord(
                round=t,
                theta=theta,
                participation=np.array([c == "1" for c in mask]),
                val_loss=val_loss,
                test_acc=test_acc,
            )))
        except ValueError as e:
            raise IdxFormatError(f"{path} line {i + 2}: {e}") from e
    if T and len(records) % T:
        m, last = records[-1]
        raise IdxFormatError(f"{path} line {len(rows)}: meta-iteration {m} ends "
                             f"after {last.round + 1} of {T} rounds")
    return RunHistory(K=K, rounds=records)


def emit_weights_json(logits: np.ndarray, config_hash: str, path) -> None:
    """Persist the learned T x K logits and their row-softmax weights."""
    theta = np.stack([softmax_weights(row) for row in logits])
    T, K = np.shape(logits)
    doc = {
        "T": T,
        "K": K,
        "logits": [[float(v) for v in row] for row in logits],
        "theta": [[float(v) for v in row] for row in theta],
        "config_hash": config_hash,
    }
    with open(path, "w", newline="") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_weights_json(path) -> dict:
    with open(path) as f:
        doc = json.load(f)
    doc["logits"] = np.array(doc["logits"], dtype=np.float64)
    doc["theta"] = np.array(doc["theta"], dtype=np.float64)
    return doc


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

_W, _H = 640, 400
_MARGIN = 50
CHART_KINDS = ("accuracy", "loss", "weights")


def _scale(vals: np.ndarray, lo: float, hi: float, out_lo: float, out_hi: float):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (vals - lo) / span * (out_hi - out_lo)


def _polyline(xs, ys, color: str) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>')


def render_charts(history: RunHistory, out_dir) -> None:
    """Write `<kind>.svg` into `out_dir` for every chart kind."""
    for kind in CHART_KINDS:
        render_svg(history, kind, os.path.join(out_dir, f"{kind}.svg"))


def render_svg(history: RunHistory, kind: str, path) -> None:
    """Standalone line chart: accuracy/loss vs round, or per-client weights."""
    if not history.rounds:
        raise ValueError("cannot render an empty history")
    if kind not in CHART_KINDS:
        raise ValueError(f"unknown chart kind {kind!r}")
    x = np.arange(len(history.rounds), dtype=np.float64)
    if kind == "accuracy":
        series = [("test accuracy", np.array([r.test_acc for _, r in history.rounds]))]
        y_label = "accuracy"
    elif kind == "loss":
        series = [("validation loss", np.array([r.val_loss for _, r in history.rounds]))]
        y_label = "loss"
    else:
        thetas = np.array([r.theta for _, r in history.rounds])
        series = [(f"client {k}", thetas[:, k]) for k in range(history.K)]
        y_label = "aggregation weight"

    # Every label is a constant with no character that XML would escape.
    y_all = np.concatenate([s for _, s in series])
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - 10}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_MARGIN}" y2="10" '
        f'stroke="black"/>',
        f'<text x="{_W // 2}" y="{_H - 10}" text-anchor="middle" '
        f'font-size="13">round (all meta-iterations)</text>',
        f'<text x="15" y="{_H // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 15 {_H // 2})">{y_label}</text>',
        f'<text x="{_MARGIN}" y="{_H - _MARGIN + 16}" font-size="11">0</text>',
        f'<text x="{_W - 30}" y="{_H - _MARGIN + 16}" font-size="11">'
        f'{len(x) - 1}</text>',
        f'<text x="{_MARGIN - 45}" y="{_H - _MARGIN}" font-size="11">'
        f'{y_lo:.3g}</text>',
        f'<text x="{_MARGIN - 45}" y="20" font-size="11">{y_hi:.3g}</text>',
    ]
    px = _scale(x, 0.0, max(float(x[-1]), 1.0), _MARGIN, _W - 10)
    for i, (name, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        py = _scale(ys, y_lo, y_hi, _H - _MARGIN, 10)
        plot.append(_polyline(px, py, color))
        plot.append(
            f'<text x="{_W - 130}" y="{20 + 14 * i}" font-size="11" '
            f'fill="{color}">{name}</text>'
        )
    plot.append("</svg>")
    with open(path, "w", newline="") as f:
        f.write("\n".join(plot) + "\n")
