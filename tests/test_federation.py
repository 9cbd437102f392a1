import numpy as np
import pytest

from unfoldfed import nn
from unfoldfed.config import ExperimentConfig
from unfoldfed.data import ClientProfile, Shard, make_profiles, partition_balanced
from unfoldfed.federation import (
    ClientUpdate,
    aggregate,
    client_update,
    fedavg_weights,
    run_round,
)

SPEC = nn.ModelSpec((20, 8, 10))


def profile_for(dataset, indices, epochs=1, lr=0.05, p=1.0, batch=16, owner=0):
    return ClientProfile(
        shard=Shard(owner=owner, indices=np.asarray(indices, dtype=np.int64)),
        epochs=epochs, local_lr=lr, participation=p, batch_size=batch,
    )


class TestFedavgWeights:
    def test_proportional(self):
        shards = [Shard(k, np.arange(n)) for k, n in enumerate([10, 30, 60])]
        assert np.allclose(fedavg_weights(shards), [0.1, 0.3, 0.6], atol=1e-15)

    def test_equal_sizes(self):
        shards = [Shard(k, np.arange(7)) for k in range(5)]
        assert np.allclose(fedavg_weights(shards), 0.2, atol=1e-15)

    def test_default_skew(self):
        shards = [Shard(k, np.arange(n))
                  for k, n in enumerate([4000, 500, 500, 500, 500])]
        expected = [2 / 3, 1 / 12, 1 / 12, 1 / 12, 1 / 12]
        assert np.allclose(fedavg_weights(shards), expected, atol=1e-12)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            fedavg_weights([Shard(0, np.arange(0))])


class TestClientUpdate:
    def test_zero_lr_no_movement(self, toy_dataset):
        params = nn.init_model(SPEC, 0)
        prof = profile_for(toy_dataset, np.arange(32), lr=0.0, batch=32)
        upd = client_update(SPEC, params, toy_dataset, prof, np.random.default_rng(0))
        assert np.all(upd.delta == 0.0)
        batch = nn.Batch(toy_dataset.images[:32], toy_dataset.labels[:32])
        expected, _ = nn.loss_and_grad(SPEC, params, batch)
        assert upd.local_loss == pytest.approx(expected, abs=1e-12)

    def test_single_batch_delta_is_one_sgd_step(self, toy_dataset):
        # One epoch over one full batch composes to exactly -lr * grad.
        params = nn.init_model(SPEC, 1)
        idx = np.arange(24)
        prof = profile_for(toy_dataset, idx, lr=0.1, batch=24)
        upd = client_update(SPEC, params, toy_dataset, prof, np.random.default_rng(5))
        batch = nn.Batch(toy_dataset.images[idx], toy_dataset.labels[idx])
        _, grad = nn.loss_and_grad(SPEC, params, batch)
        assert np.allclose(upd.delta, -0.1 * grad, atol=1e-15)

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
        upd = client_update(spec, params, ds, prof, np.random.default_rng(0))
        assert np.abs(upd.delta).max() < 1e-3

    def test_global_params_unchanged(self, toy_dataset):
        params = nn.init_model(SPEC, 6)
        before = params.copy()
        prof = profile_for(toy_dataset, np.arange(50), lr=0.1, batch=8)
        upd = client_update(SPEC, params, toy_dataset, prof, np.random.default_rng(2))
        assert np.any(upd.delta != 0.0)
        assert np.array_equal(params, before)

    def test_non_participation(self, toy_dataset):
        params = nn.init_model(SPEC, 0)
        prof = profile_for(toy_dataset, np.arange(16), p=1e-12)
        upd = client_update(SPEC, params, toy_dataset, prof, np.random.default_rng(0))
        assert not upd.participated
        assert np.all(upd.delta == 0.0)

    def test_empty_shard_rejected(self, toy_dataset):
        prof = ClientProfile(
            shard=Shard(0, np.arange(0)), epochs=1, local_lr=0.1,
            participation=1.0, batch_size=8,
        )
        with pytest.raises(ValueError, match="empty shard"):
            client_update(SPEC, nn.init_model(SPEC, 0), toy_dataset, prof,
                          np.random.default_rng(0))


class TestAggregate:
    def _updates(self, deltas, participated=None):
        participated = participated or [True] * len(deltas)
        return [ClientUpdate(np.asarray(d, dtype=float), 0.0, p)
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


def reference_fedavg_round(spec, w, dataset, profiles, theta, eta_g, seed_seq):
    """Independent FedAvg loop built straight from nn primitives."""
    children = seed_seq.spawn(len(profiles))
    step = np.zeros_like(w)
    for prof, child, t_k in zip(profiles, children, theta):
        rng = np.random.default_rng(child)
        assert rng.uniform() < prof.participation  # p=1 clients in this oracle
        local = w
        for _ in range(prof.epochs):
            order = rng.permutation(prof.shard.size)
            idx = prof.shard.indices[order]
            for start in range(0, len(idx), prof.batch_size):
                rows = idx[start:start + prof.batch_size]
                batch = nn.Batch(dataset.images[rows], dataset.labels[rows])
                _, g = nn.loss_and_grad(spec, local, batch)
                local = local - prof.local_lr * g
        step += t_k * (local - w)
    return w + eta_g * step


class TestRunRound:
    def _setup(self, toy_dataset, K=3):
        shards = partition_balanced(toy_dataset, K=K, per_client=30, seed=2)
        cfg = ExperimentConfig(K=K, local_lr=0.05, batch_size=10)
        profiles = make_profiles(cfg, shards)
        eval_batch = nn.Batch(toy_dataset.images[:50], toy_dataset.labels[:50])
        return profiles, eval_batch

    def test_matches_reference_fedavg_loop(self, toy_dataset):
        profiles, eval_batch = self._setup(toy_dataset)
        w = nn.init_model(SPEC, 3)
        theta = fedavg_weights([p.shard for p in profiles])
        seed = np.random.SeedSequence([99, 0, 0])
        w_next, _, _ = run_round(
            0, w, SPEC, toy_dataset, profiles, theta, 1.0, 0.0,
            np.random.SeedSequence([99, 0, 0]), eval_batch, eval_batch,
        )
        ref = reference_fedavg_round(SPEC, w, toy_dataset, profiles, theta, 1.0, seed)
        assert np.array_equal(w_next, ref)

    def test_thread_count_does_not_change_result(self, toy_dataset):
        profiles, eval_batch = self._setup(toy_dataset)
        w = nn.init_model(SPEC, 3)
        theta = np.full(3, 1 / 3)
        results = []
        for threads in (1, 4):
            w_next, rec, _ = run_round(
                0, w, SPEC, toy_dataset, profiles, theta, 1.0, 1e-4,
                np.random.SeedSequence([7, 0, 0]), eval_batch, eval_batch,
                threads=threads,
            )
            results.append((w_next, rec.val_loss, rec.test_acc))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1:] == results[1][1:]

    def test_global_params_unchanged(self, toy_dataset):
        profiles, eval_batch = self._setup(toy_dataset)
        w = nn.init_model(SPEC, 3)
        before = w.copy()
        run_round(0, w, SPEC, toy_dataset, profiles, np.full(3, 1 / 3), 1.0, 1e-4,
                  np.random.SeedSequence([8, 0, 0]), eval_batch, eval_batch,
                  threads=2)
        assert np.array_equal(w, before)

    def test_single_client_equals_centralized_step(self, toy_dataset):
        shard = Shard(0, np.arange(40))
        prof = ClientProfile(shard=shard, epochs=1, local_lr=0.05,
                             participation=1.0, batch_size=40)
        w = nn.init_model(SPEC, 4)
        eval_batch = nn.Batch(toy_dataset.images[:30], toy_dataset.labels[:30])
        w_next, _, _ = run_round(
            0, w, SPEC, toy_dataset, [prof], np.array([1.0]), 1.0, 0.0,
            np.random.SeedSequence(0), eval_batch, eval_batch,
        )
        # Single full-batch client with theta=1: one plain SGD step.
        rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
        rng.uniform()  # participation draw
        order = rng.permutation(40)
        batch = nn.Batch(toy_dataset.images[shard.indices[order]],
                         toy_dataset.labels[shard.indices[order]])
        _, g = nn.loss_and_grad(SPEC, w, batch)
        assert np.allclose(w_next, w - 0.05 * g, atol=1e-12)

    def test_all_absent_regularizer_only(self, toy_dataset):
        shards = partition_balanced(toy_dataset, K=2, per_client=20, seed=0)
        profiles = [
            ClientProfile(shard=s, epochs=1, local_lr=0.05,
                          participation=1e-12, batch_size=8)
            for s in shards
        ]
        w = nn.init_model(SPEC, 5)
        eval_batch = nn.Batch(toy_dataset.images[:20], toy_dataset.labels[:20])
        w_next, rec, _ = run_round(
            0, w, SPEC, toy_dataset, profiles, np.array([0.5, 0.5]), 1.0, 0.01,
            np.random.SeedSequence(1), eval_batch, eval_batch,
        )
        assert np.allclose(w_next, w - 0.01 * w, atol=1e-15)
        assert not rec.participation.any()
