"""Meta-gradient verification: analytic rows vs finite differences."""

from __future__ import annotations

import numpy as np

from . import nn
from .federation import ClientUpdate, aggregate
from .unfolding import fd_meta_gradient_row, meta_gradient_row, softmax_weights


# Every case: a 4-3-2 model, 3 clients, 8 validation rows, the server
# update at eta_g 1 without weight decay, and central differences of step EPS.
SPEC = nn.ModelSpec((4, 3, 2))
N_CLIENTS, N_VAL = 3, 8
ETA_G, LAMBDA_MODEL = 1.0, 0.0
EPS = 1e-3


def random_instance(rng: np.random.Generator):
    """One random (model, deltas, logits, val batch) verification case."""
    w = nn.init_model(SPEC, int(rng.integers(2**31)))
    deltas = [rng.normal(scale=0.1, size=SPEC.num_params) for _ in range(N_CLIENTS)]
    z = rng.normal(size=N_CLIENTS)
    val = nn.Batch(
        rng.uniform(size=(N_VAL, SPEC.layer_dims[0])),
        rng.integers(SPEC.layer_dims[-1], size=N_VAL),
    )
    return w, deltas, z, val


def gradcheck_instance(rng) -> float | None:
    """Relative error between analytic and FD meta-gradient for one case.

    Returns None when some FD point z +/- EPS*e_j changes a hidden rectifier
    mask on the validation batch: central differences across a kink do not
    estimate the gradient at z, so such a case cannot judge the analytic row.
    """
    w, deltas, z, val = random_instance(rng)
    updates = [ClientUpdate(d, True) for d in deltas]

    def rectifier_masks(zq):
        w_q = aggregate(w, updates, softmax_weights(zq), ETA_G, LAMBDA_MODEL)
        _, acts = nn._forward_pass(nn.unpack_params(SPEC, w_q), val.features)
        return np.hstack([a > 0 for a in acts[1:-1]])

    steps = EPS * np.eye(len(z))
    at_z = rectifier_masks(z)
    if any(not np.array_equal(rectifier_masks(zq), at_z)
           for zq in np.vstack([z + steps, z - steps])):
        return None

    w_next = aggregate(w, updates, softmax_weights(z), ETA_G, LAMBDA_MODEL)
    _, g = nn.loss_and_grad(SPEC, w_next, val)
    analytic = meta_gradient_row(z, deltas, g, ETA_G)
    fd = fd_meta_gradient_row(SPEC, z, w, deltas, val, ETA_G, LAMBDA_MODEL, EPS)
    scale = max(float(np.abs(fd).max()), 1e-12)
    return float(np.abs(analytic - fd).max()) / scale


def run_gradcheck(n_instances: int = 20, seed: int = 0) -> tuple[float, int]:
    """Max relative error over `n_instances` kink-free random 3-client cases.

    Cases whose FD points cross a rectifier kink are redrawn from the same
    generator; returns (max relative error, number of redrawn cases).
    """
    rng = np.random.default_rng(seed)
    errors: list[float] = []
    redrawn = 0
    while len(errors) < n_instances:
        err = gradcheck_instance(rng)
        if err is None:
            redrawn += 1
        else:
            errors.append(err)
    return max(errors), redrawn
