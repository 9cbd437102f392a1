"""One federated round: local client training plus weighted server aggregation.

The server update is w <- w + eta_g * sum_k theta_k * delta_k - lambda * w,
so the map from weights to the next model is affine in theta at fixed deltas.
Clients train one after another in index order on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import ClientProfile, Dataset, Shard

SIMPLEX_TOL = 1e-6


@dataclass(frozen=True)
class ClientUpdate:
    delta: np.ndarray
    local_loss: float
    participated: bool


@dataclass(frozen=True)
class RoundRecord:
    round: int
    theta: np.ndarray
    local_losses: np.ndarray
    participation: np.ndarray  # bool mask
    val_loss: float
    test_acc: float


def fedavg_weights(shards: list[Shard]) -> np.ndarray:
    """Data-proportional weights theta_k = |D_k| / sum_j |D_j|."""
    sizes = np.array([s.size for s in shards], dtype=np.float64)
    if np.any(sizes <= 0):
        raise ValueError("all shard sizes must be positive")
    return sizes / sizes.sum()


def check_simplex(theta: np.ndarray, tol: float = SIMPLEX_TOL) -> None:
    theta = np.asarray(theta)
    if np.any(theta < -tol) or abs(theta.sum() - 1.0) > tol:
        raise ValueError(
            f"weights off the simplex: sum={theta.sum():.9g}, min={theta.min():.9g}"
        )


def client_update(
    spec: nn.ModelSpec,
    global_params: np.ndarray,
    dataset: Dataset,
    profile: ClientProfile,
    rng: np.random.Generator,
) -> ClientUpdate:
    """Local training for one client.

    Draws participation first; an absent client returns a zero delta.
    Runs `epochs` passes of shuffled mini-batch SGD at the client rate and
    reports the mean training loss over the last epoch.
    """
    if profile.shard.size == 0:
        raise ValueError(f"client {profile.shard.owner} has an empty shard")
    participated = rng.uniform() < profile.participation
    if not participated:
        return ClientUpdate(np.zeros_like(global_params), float("nan"), False)

    idx = profile.shard.indices
    params = global_params.copy()  # trained in place by nn.sgd_step
    last_epoch_losses: list[float] = []
    for epoch in range(profile.epochs):
        order = rng.permutation(len(idx))
        losses = []
        for start in range(0, len(idx), profile.batch_size):
            rows = idx[order[start:start + profile.batch_size]]
            batch = nn.Batch(dataset.images[rows], dataset.labels[rows])
            loss, grad = nn.loss_and_grad(spec, params, batch)
            losses.append(loss)
            params = nn.sgd_step(params, grad, profile.local_lr)
        last_epoch_losses = losses
    return ClientUpdate(
        delta=params - global_params,
        local_loss=float(np.mean(last_epoch_losses)),
        participated=True,
    )


def aggregate(
    global_params: np.ndarray,
    updates: list[ClientUpdate],
    theta: np.ndarray,
    eta_g: float,
    lambda_model: float,
) -> np.ndarray:
    """Regularized weighted server update.

    Non-participating clients contribute nothing regardless of their theta
    entry (their mass is deliberately not renormalized onto the others).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if len(theta) != len(updates):
        raise ValueError(f"{len(theta)} weights for {len(updates)} updates")
    check_simplex(theta)
    step = np.zeros_like(global_params)
    for t_k, upd in zip(theta, updates):
        if upd.participated:
            if upd.delta.shape != global_params.shape:
                raise ValueError("client delta length does not match model")
            step += t_k * upd.delta
    return global_params + eta_g * step - lambda_model * global_params


def run_round(
    t: int,
    global_params: np.ndarray,
    spec: nn.ModelSpec,
    dataset: Dataset,
    profiles: list[ClientProfile],
    theta: np.ndarray,
    eta_g: float,
    lambda_model: float,
    seed_seq: np.random.SeedSequence,
    val: nn.Batch,
    test: nn.Batch,
) -> tuple[np.ndarray, RoundRecord, list[np.ndarray]]:
    """Execute one full round and evaluate the result.

    Clients train in index order, each with its own generator spawned from
    `seed_seq` by index. Returns the new model, the round record, and the
    per-client deltas (for the meta-gradient).
    """
    child_seeds = seed_seq.spawn(len(profiles))
    updates = [
        client_update(spec, global_params, dataset, profile, np.random.default_rng(s))
        for profile, s in zip(profiles, child_seeds)
    ]

    new_params = aggregate(global_params, updates, theta, eta_g, lambda_model)
    val_loss, _ = nn.evaluate(spec, new_params, val)
    _, test_acc = nn.evaluate(spec, new_params, test)
    record = RoundRecord(
        round=t,
        theta=np.array(theta, dtype=np.float64),
        local_losses=np.array([u.local_loss for u in updates]),
        participation=np.array([u.participated for u in updates]),
        val_loss=val_loss,
        test_acc=test_acc,
    )
    return new_params, record, [u.delta for u in updates]
