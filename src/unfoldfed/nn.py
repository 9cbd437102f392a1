"""Minimal feed-forward classifier with exact analytic gradients.

The model is a plain MLP: rectifier hidden layers, softmax + cross-entropy
at the output. Parameters live in a single flat vector so they can be
shipped between simulated clients and the server as one unit: float64 on
the server, float32 while a client trains. Every function computes in the
dtype of the arrays it is given and returns arrays of that dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ModelSpec:
    """Layer sizes of the MLP, input first, class count last."""

    layer_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ValueError("ModelSpec needs at least input and output dims")
        if any(d < 1 for d in self.layer_dims):
            raise ValueError(f"layer dims must be positive, got {self.layer_dims}")
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))

    @cached_property
    def layer_slices(self) -> tuple[tuple[slice, tuple[int, int], slice], ...]:
        """(W slice, W shape, b slice) of each layer in the flat vector."""
        layers = []
        pos = 0
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            w_end = pos + fan_in * fan_out
            layers.append((slice(pos, w_end), (fan_in, fan_out),
                           slice(w_end, w_end + fan_out)))
            pos = w_end + fan_out
        return tuple(layers)

    @cached_property
    def num_params(self) -> int:
        return self.layer_slices[-1][2].stop


@dataclass(frozen=True)
class Batch:
    """Features in [0, 1], integer class labels."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n,)

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if len(self.features) != len(self.labels):
            raise ValueError(
                f"row mismatch: {len(self.features)} features vs "
                f"{len(self.labels)} labels"
            )
        if len(self.features) < 1:
            raise ValueError("batch must be nonempty")

    def __len__(self) -> int:
        return len(self.features)


def init_model(spec: ModelSpec, seed: int) -> np.ndarray:
    """Deterministic fan-based uniform init; biases zero.

    Each weight matrix is drawn from uniform(-a, a) with
    a = sqrt(6 / (fan_in + fan_out)).
    """
    rng = np.random.default_rng(seed)
    parts = []
    dims = spec.layer_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        parts.append(rng.uniform(-a, a, size=fan_in * fan_out))
        parts.append(np.zeros(fan_out))
    return np.concatenate(parts)


def unpack_params(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the flat vector into per-layer (W, b) views."""
    if params.shape != (spec.num_params,):
        raise ValueError(
            f"param vector length {params.shape} does not match spec "
            f"({spec.num_params},)"
        )
    return [(params[w].reshape(shape), params[b]) for w, shape, b in spec.layer_slices]


def _forward_pass(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray):
    """Returns (probabilities, list of post-activation values per layer).

    `layers` are the (W, b) views of `unpack_params`. Each activation is a
    fresh array; the bias, rectifier and softmax are applied to it in place.
    """
    activations = [x]
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ w
        h += b
        if i < len(layers) - 1:
            np.maximum(h, 0.0, out=h)
        else:
            h -= np.maximum.reduce(h, axis=1, keepdims=True)
            np.exp(h, out=h)
            h /= np.add.reduce(h, axis=1, keepdims=True)
        activations.append(h)
    return h, activations


def forward(spec: ModelSpec, params: np.ndarray, batch: Batch) -> np.ndarray:
    """Class probabilities, one row per sample; rows sum to 1."""
    probs, _ = _forward_pass(unpack_params(spec, params), batch.features)
    return probs


def _mean_nll(probs: np.ndarray, rows: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log of each row's probability of its label."""
    return float(-(np.add.reduce(np.log(probs[rows, labels])) / len(rows)))


def loss_and_grad(spec: ModelSpec, params: np.ndarray, batch: Batch) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its exact gradient.

    The loss is bitwise the one `evaluate` returns. The gradient is one new
    vector laid out like `params`, of its dtype; `params` is only read, and
    is not checked for non-finite entries (`federation.local_sgd` checks
    what it trains).
    """
    layers = unpack_params(spec, params)
    probs, acts = _forward_pass(layers, batch.features)
    n = len(batch)
    rows = np.arange(n)
    labels = np.asarray(batch.labels, dtype=np.intp)
    loss = _mean_nll(probs, rows, labels)

    # Backprop. delta starts as d(loss)/d(logits) of the softmax layer,
    # computed in place on probs, which nothing reads after this point.
    delta = probs
    delta[rows, labels] -= 1.0
    delta /= n

    grad = np.empty(spec.num_params, dtype=params.dtype)
    grad_layers = unpack_params(spec, grad)
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        np.add.reduce(delta, axis=0, out=gb)
        np.matmul(acts[i].T, delta, out=gw)
        if i > 0:
            delta = delta @ layers[i][0].T
            # Rectifier mask. It writes +0.0; a multiply by the mask would
            # write -0.0 where delta is negative.
            np.copyto(delta, 0.0, where=acts[i] <= 0.0)
    return loss, grad


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """One step of SGD, in place: p -= lr * g.

    `params` is overwritten with the new parameters and returned; `grad` is
    not changed. A caller that still needs the old parameters copies them
    before the call.
    """
    if params.shape != grad.shape:
        raise ValueError(f"shape mismatch: {params.shape} vs {grad.shape}")
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    params -= lr * grad
    return params


def evaluate(spec: ModelSpec, params: np.ndarray, data: Batch) -> tuple[float, float]:
    """Mean cross-entropy loss and top-1 accuracy on `data`.

    Argmax ties break toward the lowest class index.
    """
    probs, _ = _forward_pass(unpack_params(spec, params), data.features)
    labels = np.asarray(data.labels, dtype=np.intp)
    loss = _mean_nll(probs, np.arange(len(data)), labels)
    acc = float(np.mean(probs.argmax(axis=1) == labels))
    return loss, acc
