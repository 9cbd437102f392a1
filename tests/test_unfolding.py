import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unfoldfed import nn
from unfoldfed.config import ExperimentConfig
from unfoldfed.data import make_profiles, partition_balanced
from unfoldfed.unfolding import (
    fd_meta_gradient_row,
    meta_gradient_row,
    meta_step,
    rollout,
    softmax_weights,
    trajectory_meta_loss,
    unfold_train,
)
from unfoldfed.verify import run_gradcheck

SPEC = nn.ModelSpec((20, 8, 10))


def small_problem(toy_dataset, K=3, per_client=30):
    shards = partition_balanced(toy_dataset, K=K, per_client=per_client, seed=1)
    cfg = ExperimentConfig(K=K, local_lr=0.05, batch_size=10)
    profiles = make_profiles(cfg, shards)
    val = nn.Batch(toy_dataset.images[500:560], toy_dataset.labels[500:560])
    test = nn.Batch(toy_dataset.images[440:500], toy_dataset.labels[440:500])
    return profiles, val, test


class TestSoftmaxWeights:
    def test_equal_logits_uniform(self):
        assert np.allclose(softmax_weights(np.zeros(4)), 0.25, atol=1e-15)

    def test_closed_form(self):
        theta = softmax_weights(np.array([0.0, 0.0, math.log(3)]))
        assert np.allclose(theta, [0.2, 0.2, 0.6], atol=1e-12)

    @given(c=st.floats(-30, 30))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, c):
        z = np.array([0.3, -1.2, 2.0, 0.0])
        assert np.allclose(softmax_weights(z), softmax_weights(z + c), atol=1e-12)

    def test_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = softmax_weights(rng.normal(scale=5, size=6))
            assert theta.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(theta >= 0)


class TestMetaGradientRow:
    def test_identical_deltas_zero_gradient(self, tiny_batch):
        spec = nn.ModelSpec((4, 3, 2))
        w = nn.init_model(spec, 0)
        d = np.random.default_rng(1).normal(size=spec.num_params)
        grad = meta_gradient_row(spec, np.array([0.5, -0.3, 1.0]), [d, d, d],
                                 w, tiny_batch, 1.0)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_single_client_zero_gradient(self, tiny_batch):
        spec = nn.ModelSpec((4, 3, 2))
        w = nn.init_model(spec, 0)
        d = np.ones(spec.num_params)
        grad = meta_gradient_row(spec, np.array([0.7]), [d], w, tiny_batch, 1.0)
        assert np.allclose(grad, [0.0], atol=1e-15)

    def test_matches_fd_oracle(self):
        max_err, _ = run_gradcheck(n_instances=5, seed=0)
        assert max_err < 1e-4

    def test_dimension_mismatch_rejected(self, tiny_batch):
        spec = nn.ModelSpec((4, 3, 2))
        with pytest.raises(ValueError):
            meta_gradient_row(spec, np.zeros(3), [np.zeros(spec.num_params)],
                              nn.init_model(spec, 0), tiny_batch, 1.0)


class TestFdMetaGradientRow:
    def test_zero_deltas_zero_gradient(self, tiny_batch):
        spec = nn.ModelSpec((4, 3, 2))
        w = nn.init_model(spec, 1)
        deltas = [np.zeros(spec.num_params)] * 3
        fd = fd_meta_gradient_row(spec, np.zeros(3), w, deltas, tiny_batch,
                                  1.0, 0.0)
        assert np.allclose(fd, 0.0, atol=1e-10)

    def test_eps_refinement_stable(self, tiny_batch):
        spec = nn.ModelSpec((4, 3, 2))
        rng = np.random.default_rng(2)
        w = nn.init_model(spec, 2)
        deltas = [rng.normal(scale=0.05, size=spec.num_params) for _ in range(3)]
        z = rng.normal(size=3)
        a = fd_meta_gradient_row(spec, z, w, deltas, tiny_batch, 1.0, 0.0, 1e-3)
        b = fd_meta_gradient_row(spec, z, w, deltas, tiny_batch, 1.0, 0.0, 5e-4)
        assert np.abs(a - b).max() < 1e-6

    def test_eps_bounds(self, tiny_batch):
        spec = nn.ModelSpec((4, 3, 2))
        with pytest.raises(ValueError):
            fd_meta_gradient_row(spec, np.zeros(2), nn.init_model(spec, 0),
                                 [np.zeros(spec.num_params)] * 2, tiny_batch,
                                 1.0, 0.0, eps=0.5)


class TestMetaStep:
    def test_zero_grads_fixed_point(self):
        z = np.array([[1.0, -1.0]])
        assert np.array_equal(meta_step(z, np.zeros((1, 2)), 0.1, 0.0), z)

    def test_decay_shrinks_toward_uniform(self):
        z = np.array([[2.0, -2.0]])
        out = meta_step(z, np.zeros((1, 2)), 0.5, 0.1)
        assert np.all(np.abs(out) < np.abs(z))

    def test_arithmetic(self):
        out = meta_step(np.array([[1.0, -1.0]]), np.array([[0.5, -0.5]]), 0.1, 0.0)
        assert np.allclose(out, [[0.95, -0.95]], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            meta_step(np.zeros((2, 3)), np.zeros((3, 2)), 0.1, 0.0)


class TestUnfoldTrain:
    def _cfg(self, K=3, M=2, T=3, **kw):
        base = dict(K=K, M=M, T=T, layer_dims=list(SPEC.layer_dims),
                    eta_meta=0.5, lambda_model=0.0, lambda_theta=0.0,
                    seeds={"model": 1, "data": 2, "rounds": 3})
        base.update(kw)
        return ExperimentConfig(**base)

    def test_shape_contract(self, toy_dataset):
        profiles, val, test = small_problem(toy_dataset, K=5)
        cfg = self._cfg(K=5, M=1, T=10)
        logits, trace = unfold_train(cfg, toy_dataset, profiles, val, test)
        assert logits.shape == (10, 5)
        assert len(trace.iterations) == 1
        assert len(trace.iterations[0].records) == 10

    def test_zero_meta_lr_no_learning(self, toy_dataset):
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(eta_meta=0.0)
        logits, trace = unfold_train(cfg, toy_dataset, profiles, val, test)
        assert np.array_equal(logits, np.zeros((3, 3)))
        fixed = np.full(3, 1 / 3)
        _, trace_fixed = unfold_train(cfg, toy_dataset, profiles, val, test,
                                      fixed_theta=fixed)
        for a, b in zip(trace.iterations, trace_fixed.iterations):
            assert a.meta_loss == b.meta_loss
            for ra, rb in zip(a.records, b.records):
                assert ra.val_loss == rb.val_loss
                assert ra.test_acc == rb.test_acc

    def test_reproducible(self, toy_dataset):
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg()
        z1, t1 = unfold_train(cfg, toy_dataset, profiles, val, test)
        z2, t2 = unfold_train(cfg, toy_dataset, profiles, val, test)
        assert np.array_equal(z1, z2)
        assert np.array_equal(t1.meta_losses(), t2.meta_losses())
        for a, b in zip(t1.iterations, t2.iterations):
            assert np.array_equal(a.logits, b.logits)

    def test_applied_thetas_on_simplex(self, toy_dataset):
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(M=3, lambda_theta=1e-4)
        _, trace = unfold_train(cfg, toy_dataset, profiles, val, test)
        for it in trace.iterations:
            for rec in it.records:
                assert rec.theta.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all(rec.theta >= 0)

    def test_row_shift_leaves_trace_identical(self, toy_dataset):
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(M=3, lambda_theta=1e-4)
        start = np.zeros((3, 3))
        shifted = start.copy()
        shifted[1] += 7.3
        _, t1 = unfold_train(cfg, toy_dataset, profiles, val, test,
                             start_logits=start)
        _, t2 = unfold_train(cfg, toy_dataset, profiles, val, test,
                             start_logits=shifted)
        for a, b in zip(t1.iterations, t2.iterations):
            assert a.meta_loss == b.meta_loss
            for ra, rb in zip(a.records, b.records):
                assert np.array_equal(ra.theta, rb.theta)
                assert ra.val_loss == rb.val_loss

    def test_trajectory_meta_loss_matches_trace(self, toy_dataset):
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(M=1)
        logits, trace = unfold_train(cfg, toy_dataset, profiles, val, test)
        total = trajectory_meta_loss(cfg, toy_dataset, profiles, val, test,
                                     trace.iterations[0].logits, m=0)
        assert total == pytest.approx(trace.iterations[0].meta_loss, abs=1e-12)

    def test_truncated_gradient_tracks_full_fd(self, toy_dataset):
        # Diagnostic for the truncation gap: full-horizon FD over the first
        # round's logits should at least agree in sign with the truncated
        # analytic row on a short, smooth horizon.
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(M=1, T=2, eta_meta=0.0)
        logits, trace = unfold_train(cfg, toy_dataset, profiles, val, test)
        z = trace.iterations[0].logits
        w0 = nn.init_model(SPEC, cfg.seeds["model"])
        thetas = [softmax_weights(row) for row in z]
        w1, _, deltas = next(rollout(cfg, SPEC, toy_dataset, profiles, val, test,
                                     w0, thetas, m=0))
        row = meta_gradient_row(SPEC, z[0], deltas, w1, val, cfg.eta_g)
        eps = 1e-2
        fd_full = np.empty(3)
        for j in range(3):
            zp, zm = z.copy(), z.copy()
            zp[0, j] += eps
            zm[0, j] -= eps
            fd_full[j] = (
                trajectory_meta_loss(cfg, toy_dataset, profiles, val, test, zp)
                - trajectory_meta_loss(cfg, toy_dataset, profiles, val, test, zm)
            ) / (2 * eps)
        assert np.all(np.isfinite(fd_full))
        assert np.array_equal(np.sign(fd_full), np.sign(row)), (fd_full, row)

    def test_profile_count_checked(self, toy_dataset):
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(K=5)
        with pytest.raises(ValueError):
            unfold_train(cfg, toy_dataset, profiles, val, test)
