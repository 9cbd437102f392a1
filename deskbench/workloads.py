"""The benchmark's workloads, their configs, and the artifact check.

Every workload runs on the desk synthetic set (2200 train and 200 test
images per class) at the paper defaults K=5, T=10. Why each one is in the
benchmark, and which layers it loads, is recorded in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

TRAIN_PER_CLASS = 2200
TEST_PER_CLASS = 200
K = 5
T = 10


@dataclass(frozen=True)
class Workload:
    setting: str
    mode: str
    threads: int
    batch_size: int
    M: int  # meta-iterations per run; sized so one run takes a few seconds


WORKLOADS = {
    "stat-unfolded": Workload("statistical", "unfolded", 1, 32, M=3),
    "comp-unfolded-t2": Workload("computation", "unfolded", 2, 32, M=2),
    "comm-fedavg-b128": Workload("communication", "fedavg", 1, 128, M=10),
}


def experiment_config(w: Workload, data_paths: dict, seed: int, **overrides) -> dict:
    """The JSON config of one workload; `seed` drives every config seed."""
    raw = {
        **data_paths,
        "setting": w.setting,
        "mode": w.mode,
        "threads": w.threads,
        "batch_size": w.batch_size,
        "K": K,
        "M": w.M,
        "T": T,
        "seeds": {"model": seed, "data": seed + 1, "rounds": seed + 2},
    }
    raw.update(overrides)
    return raw


class ArtifactError(ValueError):
    """A run's output files are missing, malformed or inconsistent."""


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _softmax(row):
    top = max(row)
    e = [math.exp(v - top) for v in row]
    return [v / sum(e) for v in e]


def check_artifacts(out_dir: str, raw: dict) -> dict:
    """Validate one run's outputs; return their hashes and final metrics.

    Checked independently of the program's own writers: the history has one
    well-formed row per round in order, finite losses, accuracies in [0, 1]
    and simplex weights; unfolded runs write weights whose theta is the
    softmax of their logits; FedAvg runs write none; the manifest echoes M.
    """
    history = os.path.join(out_dir, "history.csv")
    weights = os.path.join(out_dir, "weights.json")
    manifest = os.path.join(out_dir, "manifest.json")
    k, m_total, t_total = raw["K"], raw["M"], raw["T"]
    header = ("meta_iter,round,val_loss,test_acc,"
              + "".join(f"theta_{j}," for j in range(k)) + "participation_mask")
    try:
        with open(history, newline="") as f:
            lines = f.read().split("\n")
        if lines[0] != header or lines[-1] != "":
            raise ArtifactError("history.csv header or line ending is wrong")
        rows = [line.split(",") for line in lines[1:-1]]
        if len(rows) != m_total * t_total:
            raise ArtifactError(f"history.csv has {len(rows)} rows, "
                                f"expected {m_total * t_total}")
        final_meta_loss = 0.0
        for i, row in enumerate(rows):
            if len(row) != 5 + k:
                raise ArtifactError(f"history.csv row {i} has {len(row)} fields")
            m, t = int(row[0]), int(row[1])
            val_loss, test_acc = float(row[2]), float(row[3])
            theta = [float(v) for v in row[4:4 + k]]
            mask = row[4 + k]
            if (m, t) != divmod(i, t_total):
                raise ArtifactError(f"history.csv row {i} is round {(m, t)}")
            if not (math.isfinite(val_loss) and val_loss > 0):
                raise ArtifactError(f"history.csv row {i}: val_loss {val_loss}")
            if not 0.0 <= test_acc <= 1.0:
                raise ArtifactError(f"history.csv row {i}: test_acc {test_acc}")
            if min(theta) < 0 or abs(sum(theta) - 1.0) > 1e-6:
                raise ArtifactError(f"history.csv row {i}: theta off the simplex")
            if len(mask) != k or set(mask) - {"0", "1"}:
                raise ArtifactError(f"history.csv row {i}: mask {mask!r}")
            if m == m_total - 1:
                final_meta_loss += val_loss
        hashes = {"history.csv": _sha256(history)}

        if raw["mode"] == "unfolded":
            with open(weights) as f:
                doc = json.load(f)
            logits, thetas = doc["logits"], doc["theta"]
            if ((doc["T"], doc["K"]) != (t_total, k)
                    or len(logits) != t_total or len(thetas) != t_total
                    or any(len(row) != k for row in logits + thetas)):
                raise ArtifactError("weights.json has the wrong shape")
            for z, theta in zip(logits, thetas):
                if any(abs(a - b) > 1e-9 for a, b in zip(_softmax(z), theta)):
                    raise ArtifactError("weights.json theta is not softmax(logits)")
            hashes["weights.json"] = _sha256(weights)
        elif os.path.exists(weights):
            raise ArtifactError(f"{raw['mode']} run wrote weights.json")

        with open(manifest) as f:
            if json.load(f)["config"]["M"] != m_total:
                raise ArtifactError("manifest.json does not echo the config")
    except ArtifactError:
        raise
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        raise ArtifactError(f"{type(e).__name__}: {e}") from e
    return {
        "hashes": hashes,
        "final_test_acc": float(rows[-1][3]),
        "final_meta_loss": final_meta_loss,
    }
