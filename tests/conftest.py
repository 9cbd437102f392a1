import numpy as np
import pytest

from unfoldfed import federation, nn, synth
from unfoldfed.data import Dataset


@pytest.fixture
def many_cores(monkeypatch):
    """Eight usable cores whatever the host has, so that `threads` alone sizes
    the client pool and pool tests fork workers on a one-core host too."""
    monkeypatch.setattr(federation, "usable_cores", lambda: 8)


@pytest.fixture(scope="session")
def synth_paths(tmp_path_factory):
    """Small synthetic IDX dataset on disk, shared across test modules."""
    out = tmp_path_factory.mktemp("synthdata")
    return synth.write_dataset(out, n_train_per_class=120, n_test_per_class=30, seed=0)


@pytest.fixture(scope="session")
def toy_dataset():
    """In-memory balanced 10-class dataset with structured features."""
    rng = np.random.default_rng(3)
    n_per_class = 60
    labels = np.repeat(np.arange(10), n_per_class)
    # Class-dependent mean so a small MLP can actually separate the classes.
    centers = rng.uniform(0.2, 0.8, size=(10, 20))
    images = np.clip(
        centers[labels] + rng.normal(scale=0.1, size=(len(labels), 20)), 0.0, 1.0
    )
    order = rng.permutation(len(labels))
    return Dataset(images[order], labels[order])


@pytest.fixture
def tiny_batch():
    rng = np.random.default_rng(0)
    return nn.Batch(rng.uniform(size=(8, 4)), rng.integers(2, size=8))
