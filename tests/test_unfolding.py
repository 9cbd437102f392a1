import math
import multiprocessing as mp
import re
from dataclasses import replace

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
    unfold_train,
)
from unfoldfed.verify import run_gradcheck
from tests.test_federation import failing_profiles, rows_of, setting_profiles

SPEC = nn.ModelSpec((20, 8, 10))


def horizon_loss(cfg, profiles, val, test, z):
    """Meta-loss of meta-iteration 0 under the softmax rows of logits `z`."""
    schedule = np.stack([softmax_weights(row) for row in z])
    _, history = unfold_train(replace(cfg, M=1), profiles, val, test,
                              fixed_theta=schedule)
    return history.meta_losses[0]


def small_problem(toy_dataset, K=3, per_client=30):
    shards = partition_balanced(toy_dataset, K=K, per_client=per_client, seed=1)
    cfg = ExperimentConfig(K=K, local_lr=0.05, batch_size=10)
    profiles = make_profiles(cfg, rows_of(toy_dataset, shards))
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
        _, g = nn.loss_and_grad(spec, w, tiny_batch)
        grad = meta_gradient_row(np.array([0.5, -0.3, 1.0]), [d, d, d], g, 1.0)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_single_client_zero_gradient(self, tiny_batch):
        spec = nn.ModelSpec((4, 3, 2))
        w = nn.init_model(spec, 0)
        d = np.ones(spec.num_params)
        _, g = nn.loss_and_grad(spec, w, tiny_batch)
        grad = meta_gradient_row(np.array([0.7]), [d], g, 1.0)
        assert np.allclose(grad, [0.0], atol=1e-15)

    def test_matches_fd_oracle(self):
        max_err, _ = run_gradcheck(n_instances=5, seed=0)
        assert max_err < 1e-4

    def test_dimension_mismatch_rejected(self):
        spec = nn.ModelSpec((4, 3, 2))
        with pytest.raises(ValueError):
            meta_gradient_row(np.zeros(3), [np.zeros(spec.num_params)],
                              np.zeros(spec.num_params), 1.0)


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
        logits, history = unfold_train(cfg, profiles, val, test)
        assert logits.shape == (10, 5)
        assert len(history.meta_losses) == len(history.logits) == 1
        assert len(history.rounds) == 10

    def test_zero_meta_lr_no_learning(self, toy_dataset):
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(eta_meta=0.0)
        logits, history = unfold_train(cfg, profiles, val, test)
        assert np.array_equal(logits, np.zeros((3, 3)))
        fixed = np.full((3, 3), 1 / 3)
        _, history_fixed = unfold_train(cfg, profiles, val, test,
                                        fixed_theta=fixed)
        assert history.meta_losses == history_fixed.meta_losses
        assert len(history.rounds) == len(history_fixed.rounds)
        for (_, ra), (_, rb) in zip(history.rounds, history_fixed.rounds):
            assert ra.val_loss == rb.val_loss
            assert ra.test_acc == rb.test_acc

    def test_reproducible(self, toy_dataset):
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg()
        z1, h1 = unfold_train(cfg, profiles, val, test)
        z2, h2 = unfold_train(cfg, profiles, val, test)
        assert np.array_equal(z1, z2)
        assert np.array_equal(h1.meta_losses, h2.meta_losses)
        assert len(h1.logits) == len(h2.logits)
        for a, b in zip(h1.logits, h2.logits):
            assert np.array_equal(a, b)

    def test_applied_thetas_on_simplex(self, toy_dataset):
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(M=3, lambda_theta=1e-4)
        _, history = unfold_train(cfg, profiles, val, test)
        for _, rec in history.rounds:
            assert rec.theta.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(rec.theta >= 0)

    def test_row_shift_leaves_trace_identical(self, toy_dataset):
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(M=3, lambda_theta=1e-4)
        start = np.zeros((3, 3))
        shifted = start.copy()
        shifted[1] += 7.3
        _, h1 = unfold_train(cfg, profiles, val, test,
                             start_logits=start)
        _, h2 = unfold_train(cfg, profiles, val, test,
                             start_logits=shifted)
        assert h1.meta_losses == h2.meta_losses
        assert len(h1.rounds) == len(h2.rounds)
        for (_, ra), (_, rb) in zip(h1.rounds, h2.rounds):
            assert np.array_equal(ra.theta, rb.theta)
            assert ra.val_loss == rb.val_loss

    def test_fixed_schedule_meta_loss_matches_trace(self, toy_dataset):
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(M=1)
        logits, history = unfold_train(cfg, profiles, val, test)
        total = horizon_loss(cfg, profiles, val, test, history.logits[0])
        assert total == pytest.approx(history.meta_losses[0], abs=1e-12)

    def test_fixed_schedule_row_t_weights_round_t(self, toy_dataset):
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(M=2, T=3)
        schedule = np.stack([softmax_weights(row) for row in
                             np.random.default_rng(4).normal(size=(3, 3))])
        _, history = unfold_train(cfg, profiles, val, test,
                                  fixed_theta=schedule)
        assert [(m, rec.round) for m, rec in history.rounds] == \
            [(m, t) for m in range(2) for t in range(3)]
        for _, rec in history.rounds:
            assert rec.theta.tobytes() == schedule[rec.round].tobytes()
        assert len(history.meta_losses) == 2 and history.logits == []

    @pytest.mark.parametrize("name, shape", [
        ("fixed_theta", (3,)), ("fixed_theta", (3, 3)), ("start_logits", (2, 4)),
    ], ids=["K-vector", "T+1-rows", "start-logits"])
    def test_schedule_shape_checked(self, toy_dataset, name, shape):
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(T=2)
        with pytest.raises(ValueError,
                           match=re.escape(f"shape {shape}, expected (2, 3)")):
            unfold_train(cfg, profiles, val, test,
                         **{name: np.full(shape, 1 / 3)})

    def test_fixed_schedule_takes_no_start_logits(self, toy_dataset):
        # A fixed schedule applies no logits, so none may be passed with it.
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(T=2)
        with pytest.raises(ValueError, match="given together"):
            unfold_train(cfg, profiles, val, test,
                         fixed_theta=np.full((2, 3), 1 / 3),
                         start_logits=np.zeros((2, 3)))

    def test_truncated_gradient_tracks_full_fd(self, toy_dataset):
        # Diagnostic for the truncation gap: full-horizon FD over the first
        # round's logits should at least agree in sign with the truncated
        # analytic row on a short, smooth horizon.
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(M=1, T=2, eta_meta=0.0)
        logits, history = unfold_train(cfg, profiles, val, test)
        z = history.logits[0]
        w0 = nn.init_model(SPEC, cfg.seeds["model"])
        thetas = [softmax_weights(row) for row in z]
        _, _, deltas, g = next(rollout(cfg, SPEC, profiles, val, test,
                                       w0, thetas, m=0, val_grad=True))
        row = meta_gradient_row(z[0], deltas, g, cfg.eta_g)
        eps = 1e-2
        fd_full = np.empty(3)
        for j in range(3):
            zp, zm = z.copy(), z.copy()
            zp[0, j] += eps
            zm[0, j] -= eps
            fd_full[j] = (
                horizon_loss(cfg, profiles, val, test, zp)
                - horizon_loss(cfg, profiles, val, test, zm)
            ) / (2 * eps)
        assert np.all(np.isfinite(fd_full))
        assert np.array_equal(np.sign(fd_full), np.sign(row)), (fd_full, row)

    def test_merged_validation_pass_bitwise_equal_to_two_passes(self,
                                                               toy_dataset):
        # The learned path takes a round's val_loss and the meta-gradient's g
        # from one loss_and_grad: the loss is evaluate's, and the row is the
        # one a second validation pass at w_next gives, bit for bit.
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(T=4)
        w0 = nn.init_model(SPEC, cfg.seeds["model"])
        z = np.random.default_rng(0).normal(size=(cfg.T, cfg.K))
        thetas = [softmax_weights(row) for row in z]
        merged = rollout(cfg, SPEC, profiles, val, test, w0, thetas, m=1,
                         val_grad=True)
        plain = rollout(cfg, SPEC, profiles, val, test, w0, thetas, m=1)
        for (w, rec, deltas, g), (w_ref, rec_ref, _, no_g) in zip(merged, plain):
            assert no_g is None
            assert w.tobytes() == w_ref.tobytes()
            assert rec.val_loss == rec_ref.val_loss == nn.evaluate(SPEC, w, val)[0]
            assert rec.test_acc == rec_ref.test_acc
            _, g_two = nn.loss_and_grad(SPEC, w, val)
            assert g.tobytes() == g_two.tobytes()
            a = np.array([cfg.eta_g * float(g_two @ d) for d in deltas])
            theta = softmax_weights(z[rec.round])
            two_pass_row = theta * (a - float(theta @ a))
            row = meta_gradient_row(z[rec.round], deltas, g, cfg.eta_g)
            assert row.tobytes() == two_pass_row.tobytes()

    def test_diverged_client_named_alike_at_any_pool_size(self, toy_dataset,
                                                         many_cores):
        # Client 2 trains in the worker at threads=2 (shares [0, 1, 4] and
        # [2, 3]); a NaN pixel makes its parameters NaN in round 0.
        profiles = setting_profiles(toy_dataset, "computation")
        profiles[2].data.images[0, 0] = np.nan
        _, val, test = small_problem(toy_dataset)
        messages = []
        for threads in (1, 2):
            cfg = self._cfg(K=5, setting="computation", threads=threads)
            with pytest.raises(ValueError) as diverged:
                unfold_train(cfg, profiles, val, test)
            messages.append(str(diverged.value))
        assert mp.active_children() == []
        assert messages == ["meta-iteration 0, round 0, client 2: "
                            "non-finite parameters after local training"] * 2

    @pytest.mark.parametrize("setting", ["computation", "communication"])
    def test_pool_bitwise_equal_to_one_process(self, toy_dataset, many_cores,
                                               setting):
        profiles = setting_profiles(toy_dataset, setting)
        _, val, test = small_problem(toy_dataset)
        runs = [unfold_train(self._cfg(K=5, M=2, T=4, setting=setting,
                                       threads=threads),
                             profiles, val, test)
                for threads in (1, 2)]
        assert mp.active_children() == []
        (z1, h1), (z2, h2) = runs
        assert np.array_equal(z1, z2)
        assert np.array_equal(h1.meta_losses, h2.meta_losses)
        assert len(h1.logits) == len(h2.logits)
        for a, b in zip(h1.logits, h2.logits):
            assert np.array_equal(a, b)
        assert len(h1.rounds) == len(h2.rounds)
        for (_, ra), (_, rb) in zip(h1.rounds, h2.rounds):
            assert np.array_equal(ra.participation, rb.participation)
            assert (ra.val_loss, ra.test_acc) == (rb.val_loss, rb.test_acc)

    def test_pool_closed_after_a_client_fails(self, toy_dataset, many_cores):
        _, val, test = small_problem(toy_dataset)
        cfg = self._cfg(K=4, threads=2)
        with pytest.raises(IndexError, match="10001"):
            unfold_train(cfg, failing_profiles(toy_dataset, {1}), val, test)
        assert mp.active_children() == []

    def test_profile_count_checked(self, toy_dataset):
        profiles, val, test = small_problem(toy_dataset)
        cfg = self._cfg(K=5)
        with pytest.raises(ValueError):
            unfold_train(cfg, profiles, val, test)
