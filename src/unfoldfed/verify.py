"""Meta-gradient verification: analytic rows vs finite differences."""

from __future__ import annotations

import numpy as np

from . import nn
from .federation import ClientUpdate, aggregate
from .unfolding import fd_meta_gradient_row, meta_gradient_row, softmax_weights


def random_instance(rng: np.random.Generator, dims=(4, 3, 2), n_clients=3,
                    n_val=8):
    """One random (model, deltas, logits, val batch) verification case."""
    spec = nn.ModelSpec(dims)
    w = nn.init_model(spec, int(rng.integers(2**31)))
    deltas = [rng.normal(scale=0.1, size=spec.num_params) for _ in range(n_clients)]
    z = rng.normal(size=n_clients)
    val = nn.Batch(
        rng.uniform(size=(n_val, dims[0])),
        rng.integers(dims[-1], size=n_val),
    )
    return spec, w, deltas, z, val


def gradcheck_instance(rng, eps=1e-3, eta_g=1.0,
                       lambda_model=0.0) -> float | None:
    """Relative error between analytic and FD meta-gradient for one case.

    Returns None when some FD point z +/- eps*e_j changes a hidden rectifier
    mask on the validation batch: central differences across a kink do not
    estimate the gradient at z, so such a case cannot judge the analytic row.
    """
    spec, w, deltas, z, val = random_instance(rng)
    updates = [ClientUpdate(d, True) for d in deltas]

    def rectifier_masks(zq):
        w_q = aggregate(w, updates, softmax_weights(zq), eta_g, lambda_model)
        _, acts = nn._forward_pass(nn.unpack_params(spec, w_q), val.features)
        return np.hstack([a > 0 for a in acts[1:-1]])

    steps = eps * np.eye(len(z))
    at_z = rectifier_masks(z)
    if any(not np.array_equal(rectifier_masks(zq), at_z)
           for zq in np.vstack([z + steps, z - steps])):
        return None

    w_next = aggregate(w, updates, softmax_weights(z), eta_g, lambda_model)
    _, g = nn.loss_and_grad(spec, w_next, val)
    analytic = meta_gradient_row(z, deltas, g, eta_g)
    fd = fd_meta_gradient_row(spec, z, w, deltas, val, eta_g, lambda_model, eps)
    scale = max(float(np.abs(fd).max()), 1e-12)
    return float(np.abs(analytic - fd).max()) / scale


def run_gradcheck(n_instances: int = 20, eps: float = 1e-3,
                  seed: int = 0) -> tuple[float, int]:
    """Max relative error over `n_instances` kink-free random 3-client cases.

    Cases whose FD points cross a rectifier kink are redrawn from the same
    generator; returns (max relative error, number of redrawn cases).
    """
    rng = np.random.default_rng(seed)
    errors: list[float] = []
    redrawn = 0
    while len(errors) < n_instances:
        err = gradcheck_instance(rng, eps=eps)
        if err is None:
            redrawn += 1
        else:
            errors.append(err)
    return max(errors), redrawn
