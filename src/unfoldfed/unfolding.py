"""Learning per-round aggregation weights by unrolling the federation loop.

Each meta-iteration replays the same T-round horizon from the same initial
model, accumulates an evaluation loss after every round, and applies one SGD
step with weight decay to a T x K matrix of free logits. Row-wise softmax
turns logits into simplex weights; the meta-gradient is truncated to each
round's immediate effect, with a finite-difference oracle alongside.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import nn
from .config import ExperimentConfig
from .data import ClientProfile, Dataset
from .federation import ClientUpdate, RoundRecord, aggregate, run_round


@dataclass(frozen=True)
class MetaIteration:
    m: int
    meta_loss: float
    logits: np.ndarray          # T x K, as applied this iteration
    records: list[RoundRecord]


@dataclass(frozen=True)
class MetaTrace:
    iterations: list[MetaIteration]

    def meta_losses(self) -> np.ndarray:
        return np.array([it.meta_loss for it in self.iterations])


def softmax_weights(z_row: np.ndarray) -> np.ndarray:
    """Row softmax with max-subtraction; always lands on the simplex."""
    z = np.asarray(z_row, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def meta_gradient_row(
    spec: nn.ModelSpec,
    z_row: np.ndarray,
    deltas: list[np.ndarray],
    w_next: np.ndarray,
    val: nn.Batch,
    eta_g: float,
) -> np.ndarray:
    """Truncated gradient of the post-round evaluation loss w.r.t. one row.

    With deltas held constant the round map is affine in theta, so with
    g = grad of the loss at w_next and a_k = eta_g * <g, delta_k>, the
    softmax chain rule gives d/dz_j = theta_j * (a_j - sum_k theta_k a_k).
    """
    z = np.asarray(z_row, dtype=np.float64)
    if len(deltas) != len(z):
        raise ValueError(f"{len(deltas)} deltas for {len(z)} logits")
    _, g = nn.loss_and_grad(spec, w_next, val)
    a = np.array([eta_g * float(g @ d) for d in deltas])
    theta = softmax_weights(z)
    return theta * (a - float(theta @ a))


def fd_meta_gradient_row(
    spec: nn.ModelSpec,
    z_row: np.ndarray,
    w: np.ndarray,
    deltas: list[np.ndarray],
    val: nn.Batch,
    eta_g: float,
    lambda_model: float,
    eps: float = 1e-3,
) -> np.ndarray:
    """Central-difference oracle for the one-round objective, deltas frozen."""
    if not (1e-6 <= eps <= 1e-2):
        raise ValueError(f"eps {eps} outside [1e-6, 1e-2]")
    z = np.asarray(z_row, dtype=np.float64)
    updates = [ClientUpdate(d, 0.0, True) for d in deltas]

    def objective(zq: np.ndarray) -> float:
        w_next = aggregate(w, updates, softmax_weights(zq), eta_g, lambda_model)
        loss, _ = nn.evaluate(spec, w_next, val)
        return loss

    grad = np.empty_like(z)
    for j in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[j] += eps
        zm[j] -= eps
        grad[j] = (objective(zp) - objective(zm)) / (2 * eps)
    return grad


def meta_step(
    z: np.ndarray,
    row_grads: np.ndarray,
    eta_meta: float,
    lambda_theta: float,
) -> np.ndarray:
    """One SGD-with-weight-decay update of the whole logits matrix."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != np.shape(row_grads):
        raise ValueError(f"shape mismatch: {z.shape} vs {np.shape(row_grads)}")
    return z - eta_meta * (row_grads + lambda_theta * z)


def rollout(
    cfg: ExperimentConfig,
    spec: nn.ModelSpec,
    dataset: Dataset,
    profiles: list[ClientProfile],
    val: nn.Batch,
    test: nn.Batch,
    w0: np.ndarray,
    thetas: list[np.ndarray],
    m: int,
) -> Iterator[tuple[np.ndarray, RoundRecord, list[np.ndarray]]]:
    """The T rounds of meta-iteration m from `w0`, round t weighted by thetas[t].

    `spec` is `cfg.model_spec()`, built once per run by the caller. Round t
    is seeded from (seeds["rounds"], m, t) only. Yields (w_next, record,
    deltas) round by round, so only one round's K client deltas are alive.
    """
    w = w0
    for t in range(cfg.T):
        w, rec, deltas = run_round(
            t, w, spec, dataset, profiles, thetas[t],
            cfg.eta_g, cfg.lambda_model,
            np.random.SeedSequence([cfg.seeds["rounds"], m, t]),
            val, test, threads=cfg.threads,
        )
        yield w, rec, deltas


def unfold_train(
    cfg: ExperimentConfig,
    dataset: Dataset,
    profiles: list[ClientProfile],
    val: nn.Batch,
    test: nn.Batch,
    fixed_theta: np.ndarray | None = None,
    start_logits: np.ndarray | None = None,
) -> tuple[np.ndarray, MetaTrace]:
    """Run M meta-iterations of T unrolled rounds each.

    Every meta-iteration restarts from the same seeded initial model so the
    round index t of each logits row keeps its meaning. With `fixed_theta`
    the loop degenerates to a fixed-weight baseline (FedAvg, uniform) on the
    exact same seeding path.

    The logits rows are kept canonical (row max zero). A uniform row shift
    never changes the softmax weights, and canonical form makes that
    invariance exact in floating point rather than approximate.
    """

    def canonical(zq: np.ndarray) -> np.ndarray:
        return zq - zq.max(axis=1, keepdims=True)

    if len(profiles) != cfg.K:
        raise ValueError(f"{len(profiles)} profiles for K={cfg.K}")
    spec = cfg.model_spec()
    w0 = nn.init_model(spec, cfg.seeds["model"])
    z = np.zeros((cfg.T, cfg.K)) if start_logits is None \
        else np.array(start_logits, dtype=np.float64)
    if z.shape != (cfg.T, cfg.K):
        raise ValueError(f"logits shape {z.shape}, expected {(cfg.T, cfg.K)}")
    z = canonical(z)

    iterations: list[MetaIteration] = []
    for m in range(cfg.M):
        thetas = [fixed_theta] * cfg.T if fixed_theta is not None \
            else [softmax_weights(row) for row in z]
        row_grads = np.zeros((cfg.T, cfg.K))
        meta_loss = 0.0
        records: list[RoundRecord] = []
        rounds = rollout(cfg, spec, dataset, profiles, val, test, w0, thetas, m)
        for w_next, rec, deltas in rounds:
            meta_loss += rec.val_loss
            if fixed_theta is None:
                row_grads[rec.round] = meta_gradient_row(
                    spec, z[rec.round], deltas, w_next, val, cfg.eta_g,
                )
            records.append(rec)
        if not np.isfinite(meta_loss):
            raise FloatingPointError(
                f"meta-loss diverged at meta-iteration {m}: {meta_loss}"
            )
        iterations.append(MetaIteration(m, meta_loss, z.copy(), records))
        if fixed_theta is None:
            z = canonical(meta_step(z, row_grads, cfg.eta_meta, cfg.lambda_theta))
    return z, MetaTrace(iterations)


def trajectory_meta_loss(
    cfg: ExperimentConfig,
    dataset: Dataset,
    profiles: list[ClientProfile],
    val: nn.Batch,
    test: nn.Batch,
    z: np.ndarray,
    m: int = 0,
) -> float:
    """Accumulated meta-loss of one T-round horizon under fixed logits.

    Finite differences over this function give the full (untruncated)
    meta-gradient; slow, used only as a diagnostic for the truncation gap.
    """
    spec = cfg.model_spec()
    w0 = nn.init_model(spec, cfg.seeds["model"])
    thetas = [softmax_weights(row) for row in z]
    rounds = rollout(cfg, spec, dataset, profiles, val, test, w0, thetas, m)
    return sum(rec.val_loss for _, rec, _ in rounds)
