"""One federated round: local client training plus weighted server aggregation.

The server update is w <- w + eta_g * sum_k theta_k * delta_k - lambda * w,
so the map from weights to the next model is affine in theta at fixed deltas.

Clients train in a `ClientPool` of min(threads, K, usable cores) processes.
The calling process is one of them and trains the heaviest share itself; the
others are forked once per run and inherit the dataset and the profiles
copy-on-write. Each round, every worker trains its share and sends one
reply with the local SGD results, which the caller replays after training
its own share: so every client's update is one `client_update` call in the
calling process. Each client draws from its own generator and the server
reduces in client-index order, so every pool size gives the same bits.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
from collections.abc import Iterator
from contextlib import contextmanager
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
    and returns what it does: a `ClientPool` passes one that replays a
    worker's `local_sgd` result for the worker's clients.
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


def _train_share(spec, w, dataset, profiles, jobs, train) -> dict:
    """{k: update or error} for a share's (k, seed) jobs in order, each one
    `client_update` call with `train` as its train step. The share stops at
    the first client that raises."""
    out = {}
    with np.errstate(all="ignore"):  # see ClientPool.train
        for k, seed in jobs:
            try:
                out[k] = client_update(spec, w, dataset, profiles[k],
                                       np.random.default_rng(seed), train)
            except Exception as e:  # raised by ClientPool.train
                out[k] = e
                break
    return out


def _serve(conn, parent_end, spec, dataset, profiles) -> None:
    """Worker loop: one (global_params, [(k, seed)]) message per round, until
    a None message or EOF.

    The share trains as it would in the caller, so both draw the same
    participation. The one reply per round holds the `local_sgd` results of
    the clients that trained, in share order, then the error that stopped
    the share, if one did.
    """
    parent_end.close()  # else the caller's exit would never reach us as EOF
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg is None:
            return
        global_params, jobs = msg
        trained = []

        def train(*args):
            trained.append(local_sgd(*args))
            return trained[-1]

        out = _train_share(spec, global_params, dataset, profiles, jobs, train)
        conn.send(trained + [e for e in out.values() if isinstance(e, Exception)])


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

        Each worker gets the weights and its clients' seeds, trains them
        with the spec, dataset and profiles it was forked with, and replies
        once. Meanwhile the caller trains its own share. It then reads one
        reply from each worker, even a worker none of whose clients took
        part, and replays it through the module's `client_update`: so every
        client's update is one `client_update` call in this process. If
        clients raise, the lowest-index client's error is raised, as it
        would be with every client trained in order. A worker that died
        raises `ChildProcessError` naming it.

        Floating-point warnings are off while clients train: a worker would
        print its own out of order and without the caller's once-per-line
        filter, so stderr would depend on the pool size. A diverging client
        still fails the finite check in `nn.loss_and_grad` or the meta-loss
        check.
        """
        def jobs(share):
            return [(k, child_seeds[k]) for k in share]

        for proc, conn, share in self._workers:
            try:
                conn.send((global_params, jobs(share)))
            except ConnectionError:
                raise ChildProcessError(f"client worker {proc.pid} died") from None
        own = [k for k in range(len(profiles)) if k not in self._remote]
        results = _train_share(spec, global_params, dataset, profiles, jobs(own),
                               local_sgd)
        for proc, conn, share in self._workers:
            try:
                reply = iter(conn.recv())
            except (EOFError, ConnectionError):
                raise ChildProcessError(f"client worker {proc.pid} died") from None

            def replay(*args):
                r = next(reply)
                if isinstance(r, Exception):
                    raise r
                return r

            results.update(_train_share(spec, global_params, dataset, profiles,
                                        jobs(share), replay))
        failed = [k for k, r in results.items() if isinstance(r, Exception)]
        if failed:
            raise results[min(failed)]
        return [results[k] for k in range(len(profiles))]


SERIAL = ClientPool()


@contextmanager
def client_pool(spec: nn.ModelSpec, dataset: Dataset,
                profiles: list[ClientProfile], threads: int) -> Iterator[ClientPool]:
    """A ClientPool of min(threads, K, usable cores) processes for one run.

    Workers are forked so that the dataset reaches them copy-on-write. The
    pool is closed on every exit: joined after a clean run, and terminated
    first after an error, since a worker blocked writing its reply would
    never read the stop message.
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
