"""Learning per-round aggregation weights by unrolling the federation loop.

Each meta-iteration replays the same T-round horizon from the same initial
model, accumulates an evaluation loss after every round, and applies one SGD
step with weight decay to a T x K matrix of free logits. Row-wise softmax
turns logits into simplex weights; the meta-gradient is truncated to each
round's immediate effect, with a finite-difference oracle alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .config import ExperimentConfig
from .data import ClientProfile
from .federation import (
    ClientDivergedError,
    ClientUpdate,
    RoundRecord,
    aggregate,
    client_pool,
    run_round,
)


@dataclass(frozen=True)
class RunHistory:
    """Everything a run produced, in meta-iteration order.

    `rounds` holds every round's record with its meta-iteration. Entry m of
    `meta_losses` is meta-iteration m's accumulated validation loss, and
    entry m of `logits` the T x K logits it applied. `final_logits` are the
    learned logits after the last meta-step, None for a fixed schedule. A
    history read back from `history.csv` has rounds only.
    """

    K: int
    rounds: list[tuple[int, RoundRecord]] = field(default_factory=list)
    meta_losses: list[float] = field(default_factory=list)
    logits: list[np.ndarray] = field(default_factory=list)
    final_logits: np.ndarray | None = None


def softmax_weights(z_row: np.ndarray) -> np.ndarray:
    """Row softmax with max-subtraction; always lands on the simplex."""
    z = np.asarray(z_row, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def meta_gradient_row(
    z_row: np.ndarray,
    deltas: list[np.ndarray],
    g: np.ndarray,
    eta_g: float,
) -> np.ndarray:
    """Truncated gradient of the post-round evaluation loss w.r.t. one row.

    `g` is the gradient of that loss at the round's new model, as
    `run_round(..., val_grad=True)` returns it. With deltas held constant
    the round map is affine in theta, so with a_k = eta_g * <g, delta_k>,
    the softmax chain rule gives d/dz_j = theta_j * (a_j - sum_k theta_k a_k).
    """
    z = np.asarray(z_row, dtype=np.float64)
    if len(deltas) != len(z):
        raise ValueError(f"{len(deltas)} deltas for {len(z)} logits")
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
    updates = [ClientUpdate(d, True) for d in deltas]

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


def unfold_train(
    cfg: ExperimentConfig,
    profiles: list[ClientProfile],
    val: nn.Batch,
    test: nn.Batch,
    fixed_theta: np.ndarray | None = None,
    start_logits: np.ndarray | None = None,
) -> RunHistory:
    """Run M meta-iterations of T unrolled rounds each; returns the run's
    RunHistory, whose `final_logits` are the logits after the last meta-step.

    Every meta-iteration restarts from the same seeded initial model so the
    round index t of each logits row keeps its meaning, and runs its T
    rounds through `run_round`, round t of meta-iteration m seeded from
    (seeds["rounds"], m, t) only. A client whose training diverges raises
    ClientDivergedError naming the meta-iteration, the round and the client.

    `fixed_theta` is a T x K weight schedule (FedAvg, uniform, a saved
    `weights.json` theta) run on the exact same seeding path: row t weights
    round t of every meta-iteration, and no logits are learned or recorded,
    so it cannot be given with `start_logits`. Under a seeds["rounds"] that
    training never used, it replays the schedule on fresh client draws from
    the same split and initial model.

    The logits rows are kept canonical (row max zero). A uniform row shift
    never changes the softmax weights, and canonical form makes that
    invariance exact in floating point rather than approximate.

    Clients train in a `client_pool` sized by `cfg.threads`, started for this
    call and closed before it returns or raises.
    """

    def canonical(zq: np.ndarray) -> np.ndarray:
        return zq - zq.max(axis=1, keepdims=True)

    if len(profiles) != cfg.K:
        raise ValueError(f"{len(profiles)} profiles for K={cfg.K}")
    if fixed_theta is not None and start_logits is not None:
        raise ValueError("fixed_theta and start_logits given together: a fixed "
                         "schedule applies no logits")
    spec = cfg.model_spec()
    w0 = nn.init_model(spec, cfg.seeds["model"])
    z = np.zeros((cfg.T, cfg.K)) if start_logits is None \
        else np.array(start_logits, dtype=np.float64)
    if z.shape != (cfg.T, cfg.K):
        raise ValueError(f"logits shape {z.shape}, expected {(cfg.T, cfg.K)}")
    z = canonical(z)
    if fixed_theta is not None and np.shape(fixed_theta) != z.shape:
        raise ValueError(f"fixed_theta shape {np.shape(fixed_theta)}, "
                         f"expected {z.shape}")

    history = RunHistory(cfg.K)
    with client_pool(spec, profiles, cfg.threads) as pool:
        for m in range(cfg.M):
            thetas = fixed_theta if fixed_theta is not None \
                else [softmax_weights(row) for row in z]
            row_grads = np.zeros((cfg.T, cfg.K))
            meta_loss = 0.0
            w = w0
            for t in range(cfg.T):
                try:
                    w, rec, deltas, g = run_round(
                        t, w, spec, profiles, thetas[t],
                        cfg.eta_g, cfg.lambda_model, (cfg.seeds["rounds"], m, t),
                        val, test, pool, val_grad=fixed_theta is None,
                    )
                except ClientDivergedError as e:
                    raise ClientDivergedError(
                        f"meta-iteration {m}, round {t}, {e}") from None
                meta_loss += rec.val_loss
                if fixed_theta is None:
                    row_grads[t] = meta_gradient_row(z[t], deltas, g, cfg.eta_g)
                del deltas, g  # the next round trains holding only its own
                history.rounds.append((m, rec))
            if not np.isfinite(meta_loss):
                raise FloatingPointError(
                    f"meta-loss diverged at meta-iteration {m}: {meta_loss}"
                )
            history.meta_losses.append(meta_loss)
            if fixed_theta is None:
                history.logits.append(z)  # rebound below, never written in place
                z = canonical(meta_step(z, row_grads, cfg.eta_meta,
                                        cfg.lambda_theta))
    return history if fixed_theta is not None else replace(history, final_logits=z)

