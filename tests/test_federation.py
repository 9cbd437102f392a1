import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from unfoldfed import federation, nn
from unfoldfed.config import ExperimentConfig
from unfoldfed.data import (ClientProfile, Dataset, make_profiles,
                            partition_balanced)
from unfoldfed.federation import (
    ClientDivergedError,
    ClientUpdate,
    aggregate,
    client_pool,
    client_update,
    fedavg_weights,
    run_round,
    split_clients,
)

SPEC = nn.ModelSpec((20, 8, 10))


def rows_of(dataset, shards):
    """Each shard's rows of `dataset`, one client's data per index array, as
    float32 features like the rows `prepare_problem` gives a client."""
    return [Dataset(dataset.images[idx].astype(np.float32), dataset.labels[idx])
            for idx in shards]


def profile_for(dataset, indices, epochs=1, lr=0.05, p=1.0, batch=16):
    (rows,) = rows_of(dataset, [np.asarray(indices, dtype=np.int64)])
    return ClientProfile(data=rows, epochs=epochs, local_lr=lr, participation=p,
                         batch_size=batch)


def sized_profiles(sizes):
    """One client per size, holding that many one-pixel rows."""
    return [ClientProfile(data=Dataset(np.zeros((n, 1)), np.zeros(n, dtype=np.int64)),
                          epochs=1, local_lr=0.05, participation=1.0, batch_size=16)
            for n in sizes]


class TestFedavgWeights:
    def test_proportional(self):
        profiles = sized_profiles([10, 30, 60])
        assert np.allclose(fedavg_weights(profiles), [0.1, 0.3, 0.6], atol=1e-15)

    def test_equal_sizes(self):
        profiles = sized_profiles([7] * 5)
        assert np.allclose(fedavg_weights(profiles), 0.2, atol=1e-15)

    def test_default_skew(self):
        profiles = sized_profiles([4000, 500, 500, 500, 500])
        expected = [2 / 3, 1 / 12, 1 / 12, 1 / 12, 1 / 12]
        assert np.allclose(fedavg_weights(profiles), expected, atol=1e-12)


class TestClientUpdate:
    def test_zero_lr_rejected(self, toy_dataset):
        # The config requires local_lr > 0, and sgd_step enforces it.
        params = nn.init_model(SPEC, 0)
        prof = profile_for(toy_dataset, np.arange(32), lr=0.0, batch=32)
        with pytest.raises(ValueError, match="learning rate must be positive"):
            client_update(SPEC, params, prof, np.random.default_rng(0))

    def test_single_batch_delta_is_one_sgd_step(self, toy_dataset):
        # One epoch over one full batch is one float32 step from the params
        # rounded to float32; its change, widened, is the delta, bit for bit.
        params = nn.init_model(SPEC, 1)
        prof = profile_for(toy_dataset, np.arange(24), lr=0.1, batch=24)
        upd = client_update(SPEC, params, prof, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        rng.uniform()  # participation draw
        order = rng.permutation(24)
        batch = nn.Batch(prof.data.images[order], prof.data.labels[order])
        w32 = params.astype(np.float32)
        _, g32 = nn.loss_and_grad(SPEC, w32, batch)
        assert g32.dtype == np.float32 and upd.delta.dtype == np.float64
        assert upd.delta.tobytes() == \
            (w32 - 0.1 * g32 - w32).astype(np.float64).tobytes()

    def test_near_optimal_params_near_zero_delta(self):
        # Overfit a 2-point toy first; further local training barely moves.
        spec = nn.ModelSpec((2, 4, 2))
        from unfoldfed.data import Dataset
        ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        params = nn.init_model(spec, 2)
        batch = nn.Batch(ds.images, ds.labels)
        for _ in range(3000):
            _, g = nn.loss_and_grad(spec, params, batch)
            params = nn.sgd_step(params, g, 1.0)
        prof = profile_for(ds, [0, 1], lr=0.1, batch=2)
        upd = client_update(spec, params, prof, np.random.default_rng(0))
        assert np.abs(upd.delta).max() < 1e-3

    def test_global_params_unchanged(self, toy_dataset):
        params = nn.init_model(SPEC, 6)
        before = params.copy()
        prof = profile_for(toy_dataset, np.arange(50), lr=0.1, batch=8)
        upd = client_update(SPEC, params, prof, np.random.default_rng(2))
        assert np.any(upd.delta != 0.0)
        assert np.array_equal(params, before)

    def test_non_participation(self, toy_dataset):
        params = nn.init_model(SPEC, 0)
        prof = profile_for(toy_dataset, np.arange(16), p=1e-12)
        upd = client_update(SPEC, params, prof, np.random.default_rng(0))
        assert not upd.participated
        assert np.all(upd.delta == 0.0)

    def test_client_with_no_rows_cannot_be_built(self, toy_dataset):
        with pytest.raises(ValueError, match="nonempty"):
            profile_for(toy_dataset, np.arange(0))


class TestAggregate:
    def _updates(self, deltas, participated=None):
        participated = participated or [True] * len(deltas)
        return [ClientUpdate(np.asarray(d, dtype=float), p)
                for d, p in zip(deltas, participated)]

    def test_zero_deltas_identity(self):
        w = np.array([1.0, -2.0, 3.0])
        out = aggregate(w, self._updates([np.zeros(3)] * 2),
                        np.array([0.5, 0.5]), 1.0, 0.0)
        assert np.array_equal(out, w)

    def test_identical_deltas_convex_identity(self):
        w = np.zeros(3)
        d = np.array([1.0, 2.0, 3.0])
        for theta in ([0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [1 / 3] * 3):
            out = aggregate(w, self._updates([d] * 3), np.array(theta), 0.7, 0.0)
            assert np.allclose(out, 0.7 * d, atol=1e-12)

    def test_pure_regularizer_step(self):
        w = np.array([1.0, -2.0])
        out = aggregate(w, self._updates([np.zeros(2)] * 2),
                        np.array([0.5, 0.5]), 1.0, 0.1)
        assert np.allclose(out, [0.9, -1.8], atol=1e-15)

    def test_off_simplex_rejected(self):
        w = np.zeros(2)
        with pytest.raises(ValueError, match="simplex"):
            aggregate(w, self._updates([np.zeros(2)] * 2),
                      np.array([0.6, 0.6]), 1.0, 0.0)

    def test_non_participant_contributes_nothing(self):
        w = np.zeros(2)
        d = np.array([1.0, 1.0])
        out = aggregate(
            w, self._updates([d, d], participated=[True, False]),
            np.array([0.5, 0.5]), 1.0, 0.0,
        )
        assert np.allclose(out, 0.5 * d, atol=1e-15)

    def test_affine_in_theta(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=4)
        updates = self._updates([rng.normal(size=4) for _ in range(3)])
        t1 = np.array([0.2, 0.3, 0.5])
        t2 = np.array([0.6, 0.1, 0.3])
        alpha = 0.37
        # The theta -> w_next map is affine, so it commutes with mixing.
        mixed = aggregate(w, updates, alpha * t1 + (1 - alpha) * t2, 1.0, 0.0)
        combo = (alpha * aggregate(w, updates, t1, 1.0, 0.0)
                 + (1 - alpha) * aggregate(w, updates, t2, 1.0, 0.0))
        assert np.allclose(mixed, combo, atol=1e-12)


def reference_fedavg_round(spec, w, profiles, theta, eta_g, seed_seq):
    """Independent FedAvg loop built straight from nn primitives: each client
    trains in float32 from w rounded to float32, and the server sums the
    float64 widening of each client's change."""
    children = seed_seq.spawn(len(profiles))
    step = np.zeros_like(w)
    w32 = w.astype(np.float32)
    for prof, child, t_k in zip(profiles, children, theta):
        rng = np.random.default_rng(child)
        assert rng.uniform() < prof.participation  # p=1 clients in this oracle
        local = w32
        for _ in range(prof.epochs):
            order = rng.permutation(len(prof.data))
            for start in range(0, len(order), prof.batch_size):
                rows = order[start:start + prof.batch_size]
                batch = nn.Batch(prof.data.images[rows], prof.data.labels[rows])
                _, g = nn.loss_and_grad(spec, local, batch)
                local = local - prof.local_lr * g
        step += t_k * (local - w32).astype(np.float64)
    return w + eta_g * step


class TestRunRound:
    def _setup(self, toy_dataset, K=3):
        shards = partition_balanced(toy_dataset, K=K, per_client=30, seed=2)
        cfg = ExperimentConfig(K=K, local_lr=0.05, batch_size=10)
        profiles = make_profiles(cfg, rows_of(toy_dataset, shards))
        eval_batch = nn.Batch(toy_dataset.images[:50], toy_dataset.labels[:50])
        return profiles, shards, eval_batch

    def test_matches_reference_fedavg_loop(self, toy_dataset):
        profiles, shards, eval_batch = self._setup(toy_dataset)
        w = nn.init_model(SPEC, 3)
        theta = fedavg_weights(profiles)
        seed = np.random.SeedSequence([99, 0, 0])
        w_next, _, _, _ = run_round(
            0, w, SPEC, profiles, theta, 1.0, 0.0,
            np.random.SeedSequence([99, 0, 0]), eval_batch, eval_batch,
        )
        ref = reference_fedavg_round(SPEC, w, profiles, theta, 1.0, seed)
        assert np.array_equal(w_next, ref)

    def test_seed_sequence_reused_gives_the_same_round(self, toy_dataset):
        profiles, _, eval_batch = self._setup(toy_dataset)
        args = (0, nn.init_model(SPEC, 3), SPEC, profiles,
                np.full(3, 1 / 3), 1.0, 1e-4, np.random.SeedSequence([5, 0, 0]),
                eval_batch, eval_batch)
        w1, rec1, deltas1, _ = run_round(*args)
        w2, rec2, deltas2, _ = run_round(*args)
        assert np.array_equal(w1, w2)
        assert all(np.array_equal(a, b) for a, b in zip(deltas1, deltas2))
        assert np.array_equal(rec1.participation, rec2.participation)
        assert (rec1.val_loss, rec1.test_acc) == (rec2.val_loss, rec2.test_acc)

    def test_global_params_unchanged(self, toy_dataset):
        profiles, _, eval_batch = self._setup(toy_dataset)
        w = nn.init_model(SPEC, 3)
        before = w.copy()
        run_round(0, w, SPEC, profiles, np.full(3, 1 / 3), 1.0, 1e-4,
                  np.random.SeedSequence([8, 0, 0]), eval_batch, eval_batch)
        assert np.array_equal(w, before)

    def test_single_client_equals_centralized_step(self, toy_dataset):
        prof = profile_for(toy_dataset, np.arange(40), lr=0.05, batch=40)
        w = nn.init_model(SPEC, 4)
        eval_batch = nn.Batch(toy_dataset.images[:30], toy_dataset.labels[:30])
        w_next, _, _, _ = run_round(
            0, w, SPEC, [prof], np.array([1.0]), 1.0, 0.0,
            np.random.SeedSequence(0), eval_batch, eval_batch,
        )
        # Single full-batch client with theta=1: one plain SGD step.
        rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
        rng.uniform()  # participation draw
        order = rng.permutation(40)
        batch = nn.Batch(toy_dataset.images[order], toy_dataset.labels[order])
        _, g = nn.loss_and_grad(SPEC, w, batch)
        assert np.allclose(w_next, w - 0.05 * g, atol=1e-12)

    def test_all_absent_regularizer_only(self, toy_dataset):
        shards = partition_balanced(toy_dataset, K=2, per_client=20, seed=0)
        profiles = [
            ClientProfile(data=d, epochs=1, local_lr=0.05,
                          participation=1e-12, batch_size=8)
            for d in rows_of(toy_dataset, shards)
        ]
        w = nn.init_model(SPEC, 5)
        eval_batch = nn.Batch(toy_dataset.images[:20], toy_dataset.labels[:20])
        w_next, rec, _, _ = run_round(
            0, w, SPEC, profiles, np.array([0.5, 0.5]), 1.0, 0.01,
            np.random.SeedSequence(1), eval_batch, eval_batch,
        )
        assert np.allclose(w_next, w - 0.01 * w, atol=1e-15)
        assert not rec.participation.any()


def setting_profiles(dataset, setting, K=5):
    """Balanced 30-sample shards, batch 10, with the setting's epochs and
    participation: computation has epochs (1, 1, 3, 3, 5), communication
    skips clients 2-4 at random."""
    cfg = ExperimentConfig(K=K, setting=setting, local_lr=0.05, batch_size=10)
    shards = partition_balanced(dataset, K=K, per_client=30, seed=2)
    return make_profiles(cfg, rows_of(dataset, shards))


def failing_profiles(dataset, bad):
    """Epochs (1, 2, 3, 4) on 30-sample shards, split over two processes into
    the caller's {0, 3} and a worker's {1, 2}. A client k in `bad` holds a
    row with the out-of-range label 10000 + k, so it raises an IndexError
    naming that label."""
    profiles = [profile_for(dataset, np.arange(30 * k, 30 * k + 30),
                            epochs=k + 1, batch=10) for k in range(4)]
    for k in bad:
        profiles[k].data.labels[-1] = 10_000 + k
    return profiles


class TestClientPool:
    def test_longest_job_first_split(self, toy_dataset):
        profiles = setting_profiles(toy_dataset, "computation")
        assert split_clients(profiles, 1) == [[0, 1, 2, 3, 4]]
        # Expected steps 3, 3, 9, 9, 15: the caller's share is 21 of 39.
        assert split_clients(profiles, 2) == [[0, 1, 4], [2, 3]]
        assert split_clients(profiles, 5) == [[4], [2], [3], [0], [1]]
        assert split_clients(failing_profiles(toy_dataset, ()), 2) == [[0, 3], [1, 2]]

    @pytest.mark.parametrize("setting,threads", [("computation", 2),
                                                 ("communication", 3),
                                                 ("communication", 4)])
    def test_rounds_bitwise_equal_to_one_process(self, toy_dataset, many_cores,
                                                 setting, threads):
        profiles = setting_profiles(toy_dataset, setting)
        eval_batch = nn.Batch(toy_dataset.images[:50], toy_dataset.labels[:50])
        theta = np.full(5, 0.2)
        w = nn.init_model(SPEC, 3)
        masks = []
        with client_pool(SPEC, profiles, threads) as pool:
            assert len(mp.active_children()) == threads - 1
            for t in range(4):
                head = (t, w, SPEC, profiles, theta, 1.0, 1e-4)
                w_pool, rec_pool, deltas_pool, _ = run_round(
                    *head, np.random.SeedSequence([7, 0, t]), eval_batch,
                    eval_batch, pool)
                w, rec, deltas, _ = run_round(
                    *head, np.random.SeedSequence([7, 0, t]), eval_batch, eval_batch)
                assert np.array_equal(w_pool, w)
                assert all(np.array_equal(a, b) for a, b in zip(deltas_pool, deltas))
                assert np.array_equal(rec_pool.participation, rec.participation)
                assert (rec_pool.val_loss, rec_pool.test_acc) == \
                    (rec.val_loss, rec.test_acc)
                masks.append(rec.participation)
        assert mp.active_children() == []
        if setting == "communication":
            assert not np.all(masks), "no client skipped a round"
        if threads == 4:  # a worker with no client to train still replies
            shares = split_clients(profiles, threads)[1:]
            assert any(not m[s].any() for m in masks for s in shares)

    def test_every_client_is_one_client_update_call_in_the_caller(
            self, toy_dataset, many_cores, monkeypatch):
        # The lookup that tracing wraps: one call per client and round in
        # this process, whichever process trains the client.
        profiles = setting_profiles(toy_dataset, "communication")
        calls = []

        def counted(*args):
            calls.append(next(k for k, p in enumerate(profiles) if p is args[2]))
            return client_update(*args)

        eval_batch = nn.Batch(toy_dataset.images[:20], toy_dataset.labels[:20])
        with client_pool(SPEC, profiles, 3) as pool:
            monkeypatch.setattr(federation, "client_update", counted)
            for t in range(3):
                run_round(t, nn.init_model(SPEC, 0), SPEC, profiles,
                          np.full(5, 0.2), 1.0, 0.0, np.random.SeedSequence(t),
                          eval_batch, eval_batch, pool)
        assert sorted(calls) == sorted(list(range(5)) * 3)
        assert mp.active_children() == []

    @pytest.mark.parametrize("bad", [{1}, {3}, {1, 3}, {0, 2}, {1, 2}])
    def test_lowest_failing_client_raised_as_in_one_process(
            self, toy_dataset, many_cores, bad):
        profiles = failing_profiles(toy_dataset, bad)
        eval_batch = nn.Batch(toy_dataset.images[:20], toy_dataset.labels[:20])
        head = (0, nn.init_model(SPEC, 0), SPEC, profiles, np.full(4, 0.25), 1.0, 0.0)
        with pytest.raises(IndexError) as serial:
            run_round(*head, np.random.SeedSequence(4), eval_batch, eval_batch)
        assert str(10_000 + min(bad)) in str(serial.value)
        with pytest.raises(IndexError) as pooled:
            with client_pool(SPEC, profiles, 2) as pool:
                run_round(*head, np.random.SeedSequence(4), eval_batch, eval_batch,
                          pool)
        assert str(pooled.value) == str(serial.value)
        assert mp.active_children() == []

    def test_nonfinite_params_raise_naming_the_client(self, toy_dataset,
                                                      many_cores):
        # local_sgd checks what it trained, in the caller and in a worker;
        # the lowest-index client is named whatever the pool size.
        profiles = setting_profiles(toy_dataset, "computation")
        w = nn.init_model(SPEC, 0)
        w[3] = np.nan
        seeds = [np.random.SeedSequence([4, k]) for k in range(5)]
        for threads in (1, 2):
            with client_pool(SPEC, profiles, threads) as pool:
                with pytest.raises(ClientDivergedError) as diverged:
                    pool.train(SPEC, w, profiles, seeds)
            assert str(diverged.value) == \
                "client 0: non-finite parameters after local training"
        assert mp.active_children() == []
        with pytest.raises(ValueError, match="non-finite"):
            federation.local_sgd(SPEC, w, profiles[2], np.random.default_rng(0))

    def test_pooled_rounds_start_no_thread(self, toy_dataset, many_cores,
                                           monkeypatch):
        profiles = setting_profiles(toy_dataset, "computation")
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        eval_batch = nn.Batch(toy_dataset.images[:20], toy_dataset.labels[:20])
        with client_pool(SPEC, profiles, 3) as pool, \
                monkeypatch.context() as m:
            m.setattr(threading.Thread, "start", counted)
            for t in range(2):
                run_round(t, nn.init_model(SPEC, 0), SPEC, profiles,
                          np.full(5, 0.2), 1.0, 0.0, np.random.SeedSequence(t),
                          eval_batch, eval_batch, pool)
        assert started == []
        assert mp.active_children() == []

    @pytest.mark.parametrize("when", ["between-rounds", "mid-round"])
    def test_dead_worker_raises_one_error_naming_it(
            self, toy_dataset, many_cores, monkeypatch, when):
        profiles = setting_profiles(toy_dataset, "computation")
        eval_batch = nn.Batch(toy_dataset.images[:20], toy_dataset.labels[:20])
        if when == "mid-round":  # the worker's clients 2 and 3 train in round 0
            caller, local_sgd = os.getpid(), federation.local_sgd

            def dies_in_a_worker(*args):
                if os.getpid() != caller:
                    os._exit(1)
                return local_sgd(*args)

            monkeypatch.setattr(federation, "local_sgd", dies_in_a_worker)
        with pytest.raises(ChildProcessError) as died:
            with client_pool(SPEC, profiles, 2) as pool:
                (worker,) = mp.active_children()
                for t in range(2):
                    if when == "between-rounds" and t == 1:
                        os.kill(worker.pid, signal.SIGKILL)
                        worker.join(timeout=10)
                        assert worker.exitcode == -signal.SIGKILL
                    run_round(t, nn.init_model(SPEC, 0), SPEC, profiles,
                              np.full(5, 0.2), 1.0, 0.0,
                              np.random.SeedSequence(t), eval_batch, eval_batch,
                              pool)
        assert str(died.value) == f"client worker {worker.pid} died"
        assert mp.active_children() == []

    def test_clean_exit_after_a_worker_died_stops_the_others(self):
        # The first worker dies after its reply; leaving the pool cleanly must
        # still stop, join and close the second, or the interpreter would
        # hang at exit. Run apart, so that a hang fails at the timeout.
        script = textwrap.dedent("""
            import multiprocessing as mp, os, signal
            import numpy as np
            from unfoldfed import federation, nn
            from unfoldfed.config import ExperimentConfig
            from unfoldfed.data import Dataset, make_profiles

            federation.usable_cores = lambda: 8
            rng = np.random.default_rng(0)
            data = [Dataset(rng.uniform(size=(30, 20)), rng.integers(10, size=30))
                    for _ in range(3)]
            profiles = make_profiles(ExperimentConfig(K=3, batch_size=10), data)
            batch = nn.Batch(data[0].images, data[0].labels)
            spec = nn.ModelSpec((20, 8, 10))
            with federation.client_pool(spec, profiles, 3) as pool:
                federation.run_round(0, nn.init_model(spec, 0), spec, profiles,
                                     np.full(3, 1 / 3), 1.0, 0.0,
                                     np.random.SeedSequence(0), batch, batch, pool)
                first = pool._workers[0][0]
                os.kill(first.pid, signal.SIGKILL)
                first.join(timeout=10)
            print(len(mp.active_children()))
        """)
        src = os.path.dirname(os.path.dirname(federation.__file__))
        proc = subprocess.Popen([sys.executable, "-c", script],
                                env=dict(os.environ, PYTHONPATH=src),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the process hung at exit after a worker died")
        assert proc.returncode == 0, err
        assert out.split() == ["0"]
