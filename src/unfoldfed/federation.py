"""One federated round: local client training plus weighted server aggregation.

The server update is w <- w + eta_g * sum_k theta_k * delta_k - lambda * w,
so the map from weights to the next model is affine in theta at fixed deltas.

Clients train in a `ClientPool` of min(threads, K, usable cores) processes.
The calling process is one of them and trains the heaviest share itself; the
others are forked once per run and inherit the dataset and the profiles
copy-on-write. Every client's update is one `client_update` call in the
calling process; only the local SGD of a worker's client runs in the
worker. Each client draws from its own generator and the server
reduces in client-index order, so every pool size gives the same bits.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

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


def local_sgd(
    spec: nn.ModelSpec,
    global_params: np.ndarray,
    dataset: Dataset,
    profile: ClientProfile,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """`epochs` passes of shuffled mini-batch SGD at the client rate from
    `global_params`; returns the trained params and the mean training loss
    over the last epoch."""
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
    return params, float(np.mean(last_epoch_losses))


def client_update(
    spec: nn.ModelSpec,
    global_params: np.ndarray,
    dataset: Dataset,
    profile: ClientProfile,
    rng: np.random.Generator,
    train=local_sgd,
) -> ClientUpdate:
    """Local training for one client.

    Draws participation first; an absent client returns a zero delta. A
    present one trains through `train`, which takes `local_sgd`'s arguments
    and returns what it does: a `ClientPool` passes one that runs
    `local_sgd` in the worker process holding the client.
    """
    if profile.shard.size == 0:
        raise ValueError(f"client {profile.shard.owner} has an empty shard")
    participated = rng.uniform() < profile.participation
    if not participated:
        return ClientUpdate(np.zeros_like(global_params), float("nan"), False)
    params, local_loss = train(spec, global_params, dataset, profile, rng)
    return ClientUpdate(
        delta=params - global_params,
        local_loss=local_loss,
        participated=True,
    )


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def split_clients(profiles: list[ClientProfile], n_shares: int) -> list[list[int]]:
    """Longest expected job first, each onto the least loaded share.

    A client's expected job is its expected local SGD steps per round.
    Returns the shares' client indices in index order, heaviest share first.
    """
    loads = [0.0] * n_shares
    shares: list[list[int]] = [[] for _ in range(n_shares)]
    costs = [p.participation * p.epochs * math.ceil(p.shard.size / p.batch_size)
             for p in profiles]
    for k in sorted(range(len(profiles)), key=lambda k: costs[k], reverse=True):
        j = loads.index(min(loads))
        shares[j].append(k)
        loads[j] += costs[k]
    order = sorted(range(n_shares), key=lambda j: loads[j], reverse=True)
    return [sorted(shares[j]) for j in order]


def _serve(conn, parent_end, spec, dataset, profiles) -> None:
    """Worker loop: one (global_params, [(k, seed)]) message per round, until
    a None message or EOF.

    Each client runs through `client_update` here as in the caller, so both
    draw the same participation. A client that trains sends the caller its
    `local_sgd` result, or the exception that raised; the share stops at the
    first client that raises, where the caller's `client_update` raises too.
    """
    parent_end.close()  # else the caller's exit would never reach us as EOF
    with np.errstate(all="ignore"):  # see ClientPool.train
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                return
            if msg is None:
                return
            global_params, jobs = msg
            for k, seed in jobs:
                outcome = []
                failed = False
                try:
                    client_update(spec, global_params, dataset, profiles[k],
                                  np.random.default_rng(seed),
                                  partial(_recorded, outcome))
                except Exception:  # raised for client k by the caller too
                    failed = True
                if outcome:  # client k trained; the caller waits for this
                    conn.send(outcome[0])
                if failed:
                    break


def _recorded(outcome: list, *args):
    """`local_sgd` that also appends its result, or the exception it
    raised, to `outcome`."""
    try:
        outcome.append(local_sgd(*args))
    except Exception as e:
        outcome.append(e)
        raise
    return outcome[0]


def _replies_from(proc, conn):
    """A `client_update` train step that takes the next reply of the worker
    `proc` at the other end of `conn` in place of training."""

    def train(*args):
        try:
            reply = conn.recv()
        except EOFError:
            raise RuntimeError(f"client worker {proc.pid} died") from None
        if isinstance(reply, Exception):
            raise reply
        return reply

    return train


class ClientPool:
    """The processes that train a run's clients; the caller is one of them.

    `ClientPool()` is the pool of size one: the caller trains every client
    and no process is started. `client_pool` forks the larger ones.
    """

    def __init__(self, workers=()):
        self._workers = list(workers)  # (process, connection, client indices)
        self._remote = {k for _, _, share in self._workers for k in share}

    def train(self, spec, global_params, dataset, profiles,
              child_seeds) -> list[ClientUpdate]:
        """Every client's update for one round, in client-index order.

        Each worker gets the weights and its clients' seeds and trains
        them with the spec, dataset and profiles it was forked with. Here,
        each share runs on a thread that calls the module's `client_update`
        for each of its clients in index order, while the calling thread
        waits (a pool of size one trains on the calling thread): so every
        client's update is one `client_update` call in this process, whose
        `train` step is a worker's reply for a worker's client. If clients
        raise, the lowest-index client's error is raised, as it would be
        with every client trained in order; the pool is not used again,
        since a worker may still be replying.

        Floating-point warnings are off while clients train: a worker would
        print its own out of order and without the caller's once-per-line
        filter, so stderr would depend on the pool size. A diverging client
        still fails the finite check in `nn.loss_and_grad` or the meta-loss
        check.
        """
        own = [k for k in range(len(profiles)) if k not in self._remote]
        results: dict[int, ClientUpdate | BaseException] = {}

        def run_share(share, train):
            with np.errstate(all="ignore"):
                for k in share:
                    try:
                        results[k] = client_update(
                            spec, global_params, dataset, profiles[k],
                            np.random.default_rng(child_seeds[k]), train)
                    except BaseException as e:  # raised by the caller below
                        results[k] = e
                        return

        for _, conn, share in self._workers:
            conn.send((global_params, [(k, child_seeds[k]) for k in share]))
        # The caller's share starts last: its thread would hold the GIL while
        # the others start, and each of those blocks at once on its worker.
        shares = [(share, _replies_from(proc, conn))
                  for proc, conn, share in self._workers] + [(own, local_sgd)]
        if len(shares) == 1:
            run_share(*shares[0])
        else:
            # Daemon threads: an interrupted caller does not wait for a share.
            threads = [threading.Thread(target=run_share, args=s, daemon=True)
                       for s in shares]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        failed = [k for k, r in results.items() if isinstance(r, BaseException)]
        if failed:
            raise results[min(failed)]
        return [results[k] for k in range(len(profiles))]


SERIAL = ClientPool()


@contextmanager
def client_pool(spec: nn.ModelSpec, dataset: Dataset,
                profiles: list[ClientProfile], threads: int) -> Iterator[ClientPool]:
    """A ClientPool of min(threads, K, usable cores) processes for one run.

    Workers are forked so that the dataset reaches them copy-on-write, before
    the pool starts any thread of its own that a fork could catch holding a
    lock. The pool is closed on every exit: joined after a clean run, and
    terminated first after an error, since a worker blocked writing its reply
    would never read the stop message.
    """
    shares = split_clients(profiles, min(threads, len(profiles), usable_cores()))
    workers = []
    clean = False
    try:
        for share in shares[1:]:
            ctx = mp.get_context("fork")
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve,
                               args=(theirs, mine, spec, dataset, profiles))
            proc.start()
            theirs.close()
            workers.append((proc, mine, share))
        yield ClientPool(workers)
        clean = True
    finally:
        for proc, conn, _ in workers:
            if clean:
                conn.send(None)
            else:
                proc.terminate()
            proc.join()
            conn.close()


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
    pool: ClientPool = SERIAL,
) -> tuple[np.ndarray, RoundRecord, list[np.ndarray]]:
    """Execute one full round and evaluate the result.

    Clients train in `pool`, client k on a generator seeded by the k-th
    child that `spawn` gives a fresh `seed_seq`. The children are built
    directly, leaving `seed_seq` unspawned, so equal arguments give an
    equal round. Returns the new model, the round record, and the
    per-client deltas (for the meta-gradient).
    """
    child_seeds = [
        np.random.SeedSequence(seed_seq.entropy,
                               spawn_key=seed_seq.spawn_key + (k,),
                               pool_size=seed_seq.pool_size)
        for k in range(len(profiles))
    ]
    updates = pool.train(spec, global_params, dataset, profiles, child_seeds)

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
