"""Deterministic MNIST-format stand-in dataset.

This sandbox has no copy of the real MNIST files, so experiments run on a
seeded synthetic set written in the same IDX containers: each class is a
smoothed random 28x28 prototype, and samples are shifted, intensity-jittered,
noisy copies of it. The files parse through the normal `data` loaders.
"""

from __future__ import annotations

import struct

import numpy as np
from scipy import ndimage

from .data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC

IMAGE_SIDE = 28
NUM_CLASSES = 10
NOISE = 0.12  # std of the Gaussian pixel noise added to every sample
MAX_SHIFT = 2  # largest roll of a sample off its template, in pixels per axis


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a (count, rows, cols) uint8 array as an IDX3 file."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    count, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write a label vector as an IDX1 file."""
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, len(labels)))
        f.write(labels.tobytes())


def class_prototypes(seed: int) -> np.ndarray:
    """One smooth 28x28 template per class, values in [0, 1]."""
    rng = np.random.default_rng(seed)
    protos = np.empty((NUM_CLASSES, IMAGE_SIDE, IMAGE_SIDE))
    for c in range(NUM_CLASSES):
        field = rng.normal(size=(IMAGE_SIDE, IMAGE_SIDE))
        field = ndimage.gaussian_filter(field, sigma=2.5)
        field -= field.min()
        field /= field.max()
        # Zero the border so shifted copies stay in-frame.
        field[:2, :] = field[-2:, :] = 0.0
        field[:, :2] = field[:, -2:] = 0.0
        protos[c] = field
    return protos


def generate(n_per_class: int, seed: int,
             proto_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample `n_per_class` images per class; returns (uint8 images, labels).

    `proto_seed` fixes the class templates independently of the sample draw,
    so train and test splits can share classes while using distinct samples.
    """
    rng = np.random.default_rng(seed)
    protos = class_prototypes(proto_seed ^ 0x5EED)
    n = n_per_class * NUM_CLASSES
    labels = np.repeat(np.arange(NUM_CLASSES, dtype=np.uint8), n_per_class)
    images = np.empty((n, IMAGE_SIDE, IMAGE_SIDE))
    shifts = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=(n, 2))
    gains = rng.uniform(0.75, 1.0, size=n)
    for i in range(n):
        img = np.roll(protos[labels[i]], tuple(shifts[i]), axis=(0, 1)) * gains[i]
        img += rng.normal(scale=NOISE, size=(IMAGE_SIDE, IMAGE_SIDE))
        images[i] = np.clip(img, 0.0, 1.0)
    order = rng.permutation(n)
    return np.round(images[order] * 255).astype(np.uint8), labels[order]


def write_dataset(out_dir, n_train_per_class: int, n_test_per_class: int, seed: int) -> dict:
    """Write train/test IDX files under `out_dir`; returns the path map."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "train_images": os.path.join(out_dir, "train-images-idx3-ubyte"),
        "train_labels": os.path.join(out_dir, "train-labels-idx1-ubyte"),
        "test_images": os.path.join(out_dir, "t10k-images-idx3-ubyte"),
        "test_labels": os.path.join(out_dir, "t10k-labels-idx1-ubyte"),
    }
    train_x, train_y = generate(n_train_per_class, seed, proto_seed=seed)
    test_x, test_y = generate(n_test_per_class, seed + 1, proto_seed=seed)
    write_idx_images(paths["train_images"], train_x)
    write_idx_labels(paths["train_labels"], train_y)
    write_idx_images(paths["test_images"], test_x)
    write_idx_labels(paths["test_labels"], test_y)
    return paths
