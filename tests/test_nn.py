import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unfoldfed import nn


def fd_gradient(spec, params, batch, eps=1e-5):
    """Central finite differences of the batch loss, the independent oracle."""
    grad = np.empty_like(params)
    for i in range(len(params)):
        up, down = params.copy(), params.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (
            nn.loss_and_grad(spec, up, batch)[0]
            - nn.loss_and_grad(spec, down, batch)[0]
        ) / (2 * eps)
    return grad


def naive_forward(spec, params, batch):
    """Per-sample pure-python re-evaluation used as a forward oracle."""
    layers = nn.unpack_params(spec, params)
    out = []
    for x in batch.features:
        h = x
        for i, (w, b) in enumerate(layers):
            z = np.array([sum(h[r] * w[r, c] for r in range(w.shape[0])) + b[c]
                          for c in range(w.shape[1])])
            if i < len(layers) - 1:
                h = np.maximum(z, 0.0)
            else:
                e = np.exp(z - z.max())
                h = e / e.sum()
        out.append(h)
    return np.array(out)


class TestModelSpec:
    def test_param_count_mnist_mlp(self):
        spec = nn.ModelSpec((784, 32, 10))
        assert spec.num_params == 784 * 32 + 32 + 32 * 10 + 10 == 25450
        assert len(nn.init_model(spec, 42)) == 25450

    def test_rejects_short_or_nonpositive_dims(self):
        with pytest.raises(ValueError):
            nn.ModelSpec((5,))
        with pytest.raises(ValueError):
            nn.ModelSpec((4, 0, 2))


class TestInitModel:
    def test_biases_zero(self):
        spec = nn.ModelSpec((2, 2))
        params = nn.init_model(spec, 123)
        assert np.all(params[-2:] == 0.0)

    def test_deterministic(self):
        spec = nn.ModelSpec((784, 32, 10))
        assert np.array_equal(nn.init_model(spec, 42), nn.init_model(spec, 42))
        assert not np.array_equal(nn.init_model(spec, 42), nn.init_model(spec, 43))

    def test_fan_based_bound(self):
        spec = nn.ModelSpec((10, 4))
        params = nn.init_model(spec, 0)
        a = math.sqrt(6.0 / 14)
        assert np.all(np.abs(params[:40]) <= a)


class TestForward:
    def test_zero_params_uniform_softmax(self):
        spec = nn.ModelSpec((784, 32, 10))
        batch = nn.Batch(np.random.default_rng(0).uniform(size=(3, 784)),
                         np.zeros(3, dtype=int))
        probs = nn.forward(spec, np.zeros(spec.num_params), batch)
        assert np.allclose(probs, 0.1, atol=1e-15)

    def test_large_identity_weights_pick_class_zero(self):
        spec = nn.ModelSpec((2, 2))
        params = np.array([50.0, 0.0, 0.0, 50.0, 0.0, 0.0])  # W=50*I, b=0
        batch = nn.Batch(np.array([[1.0, 0.0]]), np.array([0]))
        probs = nn.forward(spec, params, batch)
        assert probs[0].argmax() == 0
        assert probs[0, 0] > 0.999

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(9)
        spec = nn.ModelSpec((6, 5, 3))
        for _ in range(5):
            params = rng.normal(scale=0.5, size=spec.num_params)
            batch = nn.Batch(rng.uniform(size=(4, 6)), rng.integers(3, size=4))
            fast = nn.forward(spec, params, batch)
            assert np.allclose(fast, naive_forward(spec, params, batch), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        spec = nn.ModelSpec((5, 4, 3))
        params = rng.normal(size=spec.num_params)
        batch = nn.Batch(rng.uniform(size=(10, 5)), rng.integers(3, size=10))
        probs = nn.forward(spec, params, batch)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_dimension_mismatch_rejected(self):
        spec = nn.ModelSpec((4, 2))
        with pytest.raises(ValueError):
            nn.forward(spec, np.zeros(3), nn.Batch(np.ones((1, 4)), np.array([0])))


def reference_loss_and_grad(spec, params, batch):
    """Per-layer gradients joined by np.concatenate, on fresh arrays only."""
    layers = nn.unpack_params(spec, params)
    acts = [batch.features]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        if i < len(layers) - 1:
            acts.append(np.maximum(z, 0.0))
        else:
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            acts.append(e / e.sum(axis=1, keepdims=True))
    probs = acts[-1]
    n = len(batch)
    picked = probs[np.arange(n), batch.labels]
    loss = float(-np.mean(np.log(picked)))
    delta = probs.copy()
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        grads.append(delta.sum(axis=0))
        grads.append((acts[i].T @ delta).ravel())
        if i > 0:
            delta = delta @ layers[i][0].T
            delta[acts[i] <= 0.0] = 0.0
    grads.reverse()
    return loss, np.concatenate(grads)


class TestLossAndGrad:
    @pytest.mark.parametrize("n", [1, 32, 1000])
    def test_bitwise_equal_to_reference(self, n):
        rng = np.random.default_rng(n)
        spec = nn.ModelSpec((30, 16, 8, 10))
        params = rng.normal(scale=0.3, size=spec.num_params)
        batch = nn.Batch(rng.uniform(size=(n, 30)), rng.integers(10, size=n))
        before = params.copy()
        loss, grad = nn.loss_and_grad(spec, params, batch)
        ref_loss, ref_grad = reference_loss_and_grad(spec, params, batch)
        assert loss == ref_loss
        # Bytes, not values: np.array_equal takes -0.0 for +0.0.
        assert grad.tobytes() == ref_grad.tobytes()
        assert np.array_equal(params, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_computes_in_the_dtype_of_its_params(self, dtype):
        # Clients train in float32, the server's passes run in float64.
        rng = np.random.default_rng(7)
        spec = nn.ModelSpec((30, 16, 10))
        params = rng.normal(scale=0.3, size=spec.num_params).astype(dtype)
        batch = nn.Batch(rng.uniform(size=(32, 30)).astype(dtype),
                         rng.integers(10, size=32))
        loss, grad = nn.loss_and_grad(spec, params, batch)
        ref_loss, ref_grad = reference_loss_and_grad(spec, params, batch)
        assert grad.dtype == dtype and ref_grad.dtype == dtype
        assert loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()
        assert nn.sgd_step(params, grad, 0.1).dtype == dtype

    def test_zero_params_log_uniform_loss(self):
        spec = nn.ModelSpec((784, 16, 10))
        batch = nn.Batch(np.random.default_rng(2).uniform(size=(5, 784)),
                         np.arange(5) % 10)
        loss, _ = nn.loss_and_grad(spec, np.zeros(spec.num_params), batch)
        assert loss == pytest.approx(math.log(10), abs=1e-12)

    def test_gradient_matches_finite_differences(self, tiny_batch):
        spec = nn.ModelSpec((4, 3, 2))
        rng = np.random.default_rng(5)
        params = nn.init_model(spec, 5) + rng.normal(scale=0.1, size=spec.num_params)
        _, grad = nn.loss_and_grad(spec, params, tiny_batch)
        fd = fd_gradient(spec, params, tiny_batch)
        rel = np.abs(grad - fd).max() / np.abs(fd).max()
        assert rel < 1e-5

    def test_replication_invariance(self, tiny_batch):
        spec = nn.ModelSpec((4, 3, 2))
        params = nn.init_model(spec, 8)
        doubled = nn.Batch(
            np.concatenate([tiny_batch.features] * 2),
            np.concatenate([tiny_batch.labels] * 2),
        )
        l1, g1 = nn.loss_and_grad(spec, params, tiny_batch)
        l2, g2 = nn.loss_and_grad(spec, params, doubled)
        assert l1 == pytest.approx(l2, abs=1e-12)
        assert np.allclose(g1, g2, atol=1e-12)


class TestSgdStep:
    def test_arithmetic(self):
        out = nn.sgd_step(np.array([1.0, 2.0]), np.array([0.5, 0.5]), 0.1)
        assert np.allclose(out, [0.95, 1.95], atol=1e-15)

    def test_zero_gradient_fixed_point(self):
        p = np.array([3.0, -1.0])
        assert np.array_equal(nn.sgd_step(p, np.zeros(2), 0.1), p)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nn.sgd_step(np.zeros(3), np.zeros(2), 0.1)

    @given(lr=st.floats(1e-4, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_update_formula(self, lr):
        p = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, 0.1, -0.2])
        p0, g0 = p.copy(), g.copy()
        out = nn.sgd_step(p, g, lr)
        assert np.allclose(out, p0 - lr * g0, atol=1e-15)
        assert np.array_equal(g, g0)

    @pytest.mark.parametrize("g", [0.0, 0.5])
    def test_updates_params_in_place(self, g):
        p = np.array([1.0, -2.0])
        out = nn.sgd_step(p, np.full(2, g), 0.1)
        assert out is p
        assert np.allclose(p, [1.0 - 0.1 * g, -2.0 - 0.1 * g], atol=1e-15)


class TestEvaluate:
    def test_zero_params_ties_break_low(self):
        spec = nn.ModelSpec((20, 10))
        batch = nn.Batch(np.random.default_rng(0).uniform(size=(6, 20)),
                         np.zeros(6, dtype=int))
        loss, acc = nn.evaluate(spec, np.zeros(spec.num_params), batch)
        assert acc == 1.0
        assert loss == pytest.approx(math.log(10), abs=1e-12)

    def test_overfit_two_point_toy(self):
        spec = nn.ModelSpec((2, 4, 2))
        batch = nn.Batch(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        params = nn.init_model(spec, 1)
        for _ in range(500):
            _, grad = nn.loss_and_grad(spec, params, batch)
            params = nn.sgd_step(params, grad, 0.5)
        _, acc = nn.evaluate(spec, params, batch)
        assert acc == 1.0

    def test_accuracy_matches_recount(self):
        rng = np.random.default_rng(4)
        spec = nn.ModelSpec((5, 4, 3))
        batch = nn.Batch(rng.uniform(size=(30, 5)), rng.integers(3, size=30))
        for seed in range(3):
            params = nn.init_model(spec, seed)
            _, acc = nn.evaluate(spec, params, batch)
            probs = nn.forward(spec, params, batch)
            hits = sum(
                int(np.flatnonzero(p == p.max())[0] == y)
                for p, y in zip(probs, batch.labels)
            )
            assert acc == pytest.approx(hits / len(batch), abs=1e-15)


class TestBatch:
    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            nn.Batch(np.empty((0, 3)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            nn.Batch(np.ones((2, 3)), np.array([0]))
