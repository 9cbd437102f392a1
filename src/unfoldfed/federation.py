"""One federated round: local client training plus weighted server aggregation.

The server update is w <- w + eta_g * sum_k theta_k * delta_k - lambda * w,
so the map from weights to the next model is affine in theta at fixed deltas.

A client is its profile: its own rows in, a delta out. A client holds its
rows as uint8 pixels and trains in float32, from the server's model rounded
to float32, scaling each minibatch it draws to float32 features. It
returns only the change it made, which the server widens to float64 and adds
to its own float64 model. Clients train in a `ClientPool` of
min(threads, K, usable cores) processes. The calling process is one of them
and trains the heaviest share itself; the others are forked once per run and
inherit the profiles, rows included, copy-on-write. Each round, every worker
trains its share and sends one reply with its clients' float32 changes,
which the caller replays after training its own share: so every client's
update is one `client_update` call in the calling process. Each client
draws from its own generator, spawned from the round's seed entropy, and
the server reduces in client-index order, so every pool size gives the
same bits.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import ClientProfile, scale_pixels

SIMPLEX_TOL = 1e-6


class ClientDivergedError(ValueError):
    """Local training left a client's parameters non-finite."""


@dataclass(frozen=True)
class ClientUpdate:
    delta: np.ndarray
    participated: bool


@dataclass(frozen=True)
class RoundRecord:
    round: int
    theta: np.ndarray
    participation: np.ndarray  # bool mask
    val_loss: float
    test_acc: float


def fedavg_weights(profiles: list[ClientProfile]) -> np.ndarray:
    """Data-proportional weights theta_k = |D_k| / sum_j |D_j|."""
    sizes = np.array([len(p.data) for p in profiles], dtype=np.float64)
    return sizes / sizes.sum()


def check_simplex(theta: np.ndarray) -> None:
    """Raise ValueError unless every weight is finite and together they lie
    on the simplex, within SIMPLEX_TOL."""
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"weights off the simplex: not finite: {theta}")
    if not (np.all(theta >= -SIMPLEX_TOL) and abs(theta.sum() - 1.0) <= SIMPLEX_TOL):
        raise ValueError(
            f"weights off the simplex: sum={theta.sum():.9g}, min={theta.min():.9g}"
        )


def local_sgd(
    spec: nn.ModelSpec,
    global_params: np.ndarray,
    profile: ClientProfile,
    rng: np.random.Generator,
) -> np.ndarray:
    """`epochs` passes of shuffled mini-batch SGD over the client's rows at
    the client rate, in float32 from `global_params` rounded to float32;
    returns the float32 change the training made to those parameters.

    Each minibatch's uint8 pixels are scaled to float32 features as it is
    drawn; `scale_pixels` gives a row the same bits whichever rows it is
    scaled with, so this equals scaling the whole shard first.

    Raises ClientDivergedError if the change is not all finite: float32
    overflows near 3.4e38. Non-finite entries never become finite again
    under SGD, so one check at the end sees any that arose on the way.
    """
    data = profile.data
    w32 = global_params.astype(np.float32)
    params = w32.copy()  # trained in place by nn.sgd_step
    for _ in range(profile.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), profile.batch_size):
            rows = order[start:start + profile.batch_size]
            batch = nn.Batch(scale_pixels(data.images[rows], np.float32),
                             data.labels[rows])
            _, grad = nn.loss_and_grad(spec, params, batch)
            params = nn.sgd_step(params, grad, profile.local_lr)
    params -= w32
    if not np.all(np.isfinite(params)):
        raise ClientDivergedError("non-finite parameters after local training")
    return params


def client_update(
    spec: nn.ModelSpec,
    global_params: np.ndarray,
    profile: ClientProfile,
    rng: np.random.Generator,
    train=local_sgd,
) -> ClientUpdate:
    """Local training for one client.

    Draws participation first; an absent client returns a zero delta. A
    present one trains through `train`, which takes `local_sgd`'s arguments
    and returns what it does: a `ClientPool` passes one that replays a
    worker's `local_sgd` result for the worker's clients. The float32
    change is widened to a float64 delta.
    """
    if rng.uniform() < profile.participation:
        return ClientUpdate(
            train(spec, global_params, profile, rng).astype(np.float64), True)
    return ClientUpdate(np.zeros_like(global_params), False)


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
    costs = [p.participation * p.epochs * math.ceil(len(p.data) / p.batch_size)
             for p in profiles]
    for k in sorted(range(len(profiles)), key=lambda k: costs[k], reverse=True):
        j = loads.index(min(loads))
        shares[j].append(k)
        loads[j] += costs[k]
    order = sorted(range(n_shares), key=lambda j: loads[j], reverse=True)
    return [sorted(shares[j]) for j in order]


def _train_share(spec, w, profiles, jobs, train) -> dict:
    """{k: update or error} for a share's (k, seed) jobs in order, each one
    `client_update` call with `train` as its train step. The share stops at
    the first client that raises."""
    out = {}
    with np.errstate(all="ignore"):  # see ClientPool.train
        for k, seed in jobs:
            try:
                out[k] = client_update(spec, w, profiles[k],
                                       np.random.default_rng(seed), train)
            except Exception as e:  # raised by ClientPool.train
                out[k] = e
                break
    return out


def _serve(conn, parent_end, spec, profiles) -> None:
    """Worker loop: one (global_params, [(k, seed)]) message per round, until
    a None message or EOF.

    The share trains as it would in the caller, so both draw the same
    participation. The one reply per round holds the float32 changes that
    `local_sgd` returned, in share order, then the error that stopped the
    share, if one did.
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

        out = _train_share(spec, global_params, profiles, jobs, train)
        conn.send(trained + [e for e in out.values() if isinstance(e, Exception)])


class ClientPool:
    """The processes that train a run's clients; the caller is one of them.

    `ClientPool()` is the pool of size one: the caller trains every client
    and no process is started. `client_pool` forks the larger ones.
    """

    def __init__(self, workers=()):
        self._workers = list(workers)  # (process, connection, client indices)
        self._remote = {k for _, _, share in self._workers for k in share}

    def train(self, spec, global_params, profiles, child_seeds) -> list[ClientUpdate]:
        """Every client's update for one round, in client-index order.

        Each worker gets the weights and its clients' seeds, trains them
        with the spec and profiles it was forked with, and replies once.
        Meanwhile the caller trains its own share. It then reads one
        reply from each worker, even a worker none of whose clients took
        part, and replays it through the module's `client_update`: so every
        client's update is one `client_update` call in this process. If
        clients raise, the lowest-index client's error is raised, as it
        would be with every client trained in order; a ClientDivergedError
        is raised again with the client's index. A worker that died raises
        `ChildProcessError` naming it.

        Floating-point warnings are off while clients train: a worker would
        print its own out of order and without the caller's once-per-line
        filter, so stderr would depend on the pool size. A diverging client
        still fails the finite check in `local_sgd` or the meta-loss check.
        """
        def jobs(share):
            return [(k, child_seeds[k]) for k in share]

        for proc, conn, share in self._workers:
            try:
                conn.send((global_params, jobs(share)))
            except ConnectionError:
                raise ChildProcessError(f"client worker {proc.pid} died") from None
        own = [k for k in range(len(profiles)) if k not in self._remote]
        results = _train_share(spec, global_params, profiles, jobs(own), local_sgd)
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

            results.update(_train_share(spec, global_params, profiles, jobs(share),
                                        replay))
        failed = [k for k, r in results.items() if isinstance(r, Exception)]
        if failed:
            k = min(failed)
            if isinstance(results[k], ClientDivergedError):
                raise ClientDivergedError(f"client {k}: {results[k]}") from None
            raise results[k]
        return [results[k] for k in range(len(profiles))]


SERIAL = ClientPool()


@contextmanager
def client_pool(spec: nn.ModelSpec, profiles: list[ClientProfile],
                threads: int) -> Iterator[ClientPool]:
    """A ClientPool of min(threads, K, usable cores) processes for one run.

    Workers are forked so that the clients' rows reach them copy-on-write. The
    pool is closed on every exit: joined after a clean run, and terminated
    first after an error, since a worker blocked writing its reply would
    never read the stop message. A worker that died after its last reply
    gets no stop message; the others are still stopped and joined.
    """
    shares = split_clients(profiles, min(threads, len(profiles), usable_cores()))
    workers = []
    clean = False
    try:
        for share in shares[1:]:
            import multiprocessing as mp  # a run that forks no worker never loads it
            ctx = mp.get_context("fork")
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve,
                               args=(theirs, mine, spec, profiles))
            proc.start()
            theirs.close()
            workers.append((proc, mine, share))
        yield ClientPool(workers)
        clean = True
    finally:
        for proc, conn, _ in workers:
            if clean:
                with suppress(ConnectionError):  # died after its last reply
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
    profiles: list[ClientProfile],
    theta: np.ndarray,
    eta_g: float,
    lambda_model: float,
    seed: int | tuple[int, ...],
    val: nn.Batch,
    test: nn.Batch,
    pool: ClientPool = SERIAL,
    val_grad: bool = False,
) -> tuple[np.ndarray, RoundRecord, list[np.ndarray], np.ndarray | None]:
    """Execute one full round and evaluate the result.

    `seed` is the round's seed entropy, such as (seeds["rounds"], m, t).
    Clients train in `pool`, client k on a generator seeded by child k of
    `np.random.SeedSequence(seed).spawn(K)`, so equal arguments give an
    equal round. Returns the new model, the round record, the per-client
    deltas and, with `val_grad`, the gradient of the validation loss at
    the new model (else None): the meta-gradient needs both, and one
    `nn.loss_and_grad` gives the loss bitwise as `nn.evaluate` does.
    """
    child_seeds = np.random.SeedSequence(seed).spawn(len(profiles))
    updates = pool.train(spec, global_params, profiles, child_seeds)

    new_params = aggregate(global_params, updates, theta, eta_g, lambda_model)
    g = None
    if val_grad:
        val_loss, g = nn.loss_and_grad(spec, new_params, val)
    else:
        val_loss, _ = nn.evaluate(spec, new_params, val)
    _, test_acc = nn.evaluate(spec, new_params, test)
    record = RoundRecord(
        round=t,
        theta=np.array(theta, dtype=np.float64),
        participation=np.array([u.participated for u in updates]),
        val_loss=val_loss,
        test_acc=test_acc,
    )
    return new_params, record, [u.delta for u in updates], g
