"""MNIST-format ingestion and the client table.

Every client has the same columns in every setting: the size of its shard
of the training rows (`sizes`), its local epochs (`epoch_list`) and its
participation rate (`participation_list`). A heterogeneity setting only names
the partitioner and the column it fills by default (`CLIENT_DEFAULTS`):
statistical means label-skewed shards of unequal sizes, computation and
communication mean stratified shards with unequal epochs or participation.
Any list a config gives applies in any setting.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import ExperimentConfig

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

STATISTICAL = "statistical"
COMPUTATION = "computation"
COMMUNICATION = "communication"
SETTING_IDS = (STATISTICAL, COMPUTATION, COMMUNICATION)
NUM_CLASSES = 10

# The client-table columns each setting fills when the config gives no list,
# for K <= 5 clients. A column the setting does not fill takes its
# `COLUMN_FALLBACK` value for every client.
CLIENT_DEFAULTS = {
    STATISTICAL: {"sizes": (4000, 500, 500, 500, 500)},
    COMPUTATION: {"epoch_list": (1, 1, 3, 3, 5)},
    COMMUNICATION: {"participation_list": (1.0, 1.0, 0.8, 0.6, 0.4)},
}
COLUMN_FALLBACK = {"sizes": 1000, "epoch_list": 1, "participation_list": 1.0}


class IdxFormatError(ValueError):
    """Raised for malformed IDX data: bad magic, truncation, bad counts or labels."""


@dataclass(frozen=True)
class Dataset:
    """Images and their labels, row for row.

    `load_dataset` fills `images` with the file's uint8 pixels. The
    validation split and the client shards are row indices into that file.
    A client's rows are gathered from it once and stay uint8 pixels, which
    `federation.local_sgd` scales to float32 one minibatch at a time; the
    server's validation and test rows are scaled to float64 features once.
    """

    images: np.ndarray  # (N, 784) uint8 pixels
    labels: np.ndarray  # (N,) int64 in [0, 10)

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("images/labels length mismatch")
        if len(self.images) == 0:
            raise ValueError("dataset must be nonempty")

    def __len__(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class ClientProfile:
    """One client: its own rows, as uint8 pixels, and its training settings.

    `data.images` must be a 2-D uint8 array: `federation.local_sgd` scales
    each minibatch it draws, so rows that were scaled already would be
    scaled twice.
    """

    data: Dataset  # the client's own rows, (n, 784) uint8 pixels
    epochs: int
    local_lr: float
    participation: float
    batch_size: int

    def __post_init__(self):
        images = self.data.images
        if images.ndim != 2 or images.dtype != np.uint8:
            raise ValueError(
                f"client rows must be a 2-D uint8 pixel array, got a "
                f"{images.ndim}-D {images.dtype} array"
            )


def _read_be32(f, what: str) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise IdxFormatError(f"truncated header while reading {what}")
    return struct.unpack(">I", raw)[0]


def _read_idx(path, magic: int, dims: tuple[str, ...]) -> np.ndarray:
    """An IDX file's uint8 payload as a read-only array, shaped by the header
    counts named in `dims`, once its magic is checked.

    The payload is read straight into the one array that is returned; its
    length is the file's size past the header.
    """
    with open(path, "rb") as f:
        found = _read_be32(f, "magic")
        if found != magic:
            raise IdxFormatError(
                f"bad magic 0x{found:08x} in {path} (expected 0x{magic:08x})"
            )
        shape = [_read_be32(f, what) for what in dims]
        if 0 in shape:
            raise IdxFormatError(f"{dims[shape.index(0)]} of 0 in {path}")
        expected = math.prod(shape)
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size == expected:
            payload = np.empty(expected, dtype=np.uint8)
            size = f.readinto(payload)
    if size != expected:
        raise IdxFormatError(
            f"truncated payload in {path}: {size} bytes, expected {expected}"
        )
    payload.flags.writeable = False
    return payload.reshape(shape)


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX3 image file into a read-only (count, rows, cols) uint8
    array of the file's pixels."""
    return _read_idx(path, IDX_IMAGE_MAGIC, ("count", "rows", "cols"))


def load_idx_labels(path) -> np.ndarray:
    """Parse an IDX1 label file into an int64 vector of classes in [0, 10)."""
    labels = _read_idx(path, IDX_LABEL_MAGIC, ("count",)).astype(np.int64)
    if labels.size and labels.max() > 9:
        raise IdxFormatError(f"label out of range [0, 10) in {path}: {labels.max()}")
    return labels


def scale_pixels(pixels: np.ndarray, dtype=np.float64) -> np.ndarray:
    """uint8 pixels as features in [0, 1] of `dtype`, with no wider copy.

    Every uint8 value converts to `dtype` exactly and divides to one
    correctly rounded quotient, so a row's features are the same bits
    whichever rows are scaled with it. In float32 that quotient is also the
    float32 rounding of the float64 one, for each of the 256 values.
    """
    return np.divide(pixels, 255, dtype=dtype)


def load_dataset(images_path, labels_path) -> Dataset:
    """The image and label files as one Dataset of (N, rows * cols) uint8
    pixels and int64 labels."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(images) != len(labels):
        raise IdxFormatError(
            f"count mismatch: {len(images)} images vs {len(labels)} labels"
        )
    return Dataset(images.reshape(len(images), -1), labels)


def default_label_map(K: int) -> tuple[tuple[int, ...], ...]:
    """Two consecutive labels per client: {0,1} -> c0, {2,3} -> c1, ..."""
    return tuple(tuple(l % NUM_CLASSES for l in (2 * k, 2 * k + 1)) for k in range(K))


def partition_statistical(labels, sizes, label_map, seed: int) -> list[np.ndarray]:
    """Label-skew split: client k draws sizes[k] of the rows whose class in
    `labels` is one of label_map[k]."""
    rng = np.random.default_rng(seed)
    remaining = {c: rng.permutation(np.flatnonzero(labels == c))
                 for c in range(NUM_CLASSES)}
    shards = []
    for k in range(len(sizes)):
        classes = label_map[k]
        pool = np.concatenate([remaining[c] for c in classes])
        if len(pool) < sizes[k]:
            raise ValueError(
                f"client {k} requests {sizes[k]} samples from labels {classes}, "
                f"only {len(pool)} available"
            )
        take = rng.permutation(pool)[: sizes[k]]
        for c in classes:
            remaining[c] = remaining[c][~np.isin(remaining[c], take)]
        shards.append(np.sort(take))
    return shards


def partition_balanced(labels, sizes, seed: int) -> list[np.ndarray]:
    """Disjoint shards of the rows whose classes are `labels`, sizes[k] rows
    for client k, each a stratified (per-label) draw: within one row of
    sizes[k] / n_classes from every class."""
    if sum(sizes) > len(labels):
        raise ValueError(
            f"need {sum(sizes)} samples for {len(sizes)} shards, "
            f"dataset has {len(labels)}"
        )
    rng = np.random.default_rng(seed)
    classes = np.unique(labels)
    pools = {c: rng.permutation(np.flatnonzero(labels == c)) for c in classes}
    cursors = {c: 0 for c in classes}
    shards = []
    for k, size in enumerate(sizes):
        base, extra = divmod(size, len(classes))
        rows = []
        # The first `extra` classes (rotated by k) contribute one extra sample.
        for j, c in enumerate(classes):
            want = base + (1 if (j - k) % len(classes) < extra else 0)
            got = pools[c][cursors[c]:cursors[c] + want]
            if len(got) < want:
                raise ValueError(f"not enough samples of label {c} for stratified draw")
            cursors[c] += want
            rows.append(got)
        shards.append(np.sort(np.concatenate(rows)).astype(np.int64, copy=False))
    return shards


def client_column(cfg: ExperimentConfig, name: str) -> list:
    """Column `name` of the client table, one entry per client: the config's
    list if it gives one, else the setting's default, else the column's
    fallback for every client (1000 rows, one epoch, full participation)."""
    column = getattr(cfg, name)
    if column is None:
        column = CLIENT_DEFAULTS[cfg.setting].get(name, (COLUMN_FALLBACK[name],) * cfg.K)
    return list(column[:cfg.K])


def make_profiles(cfg: ExperimentConfig, data: list[Dataset]) -> list[ClientProfile]:
    """Attach each client's epochs and participation to its rows."""
    if len(data) != cfg.K:
        raise ValueError(f"{len(data)} clients for K={cfg.K}")
    epochs = client_column(cfg, "epoch_list")
    participation = client_column(cfg, "participation_list")
    return [
        ClientProfile(
            data=rows,
            epochs=epochs[k],
            local_lr=cfg.local_lr,
            participation=float(participation[k]),
            batch_size=cfg.batch_size,
        )
        for k, rows in enumerate(data)
    ]


def partition_for_setting(labels, cfg: ExperimentConfig) -> list[np.ndarray]:
    """Dispatch to the partitioner matching the setting. `labels` are the
    classes of the training rows; each partitioner returns one shard per
    client: its sorted int64 indices into `labels`."""
    seed, sizes = cfg.seeds["data"], client_column(cfg, "sizes")
    if cfg.setting == STATISTICAL:
        return partition_statistical(labels, sizes, default_label_map(cfg.K), seed)
    return partition_balanced(labels, sizes, seed)


def split_validation(n: int, n_val: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Reserve a server-held validation split of `n_val` of `n` rows before
    sharding. Returns the sorted (train_idx, val_idx) into those rows."""
    if not (0 < n_val < n):
        raise ValueError(f"validation size {n_val} out of range for N={n}")
    order = np.random.default_rng(seed).permutation(n)
    return np.sort(order[n_val:]), np.sort(order[:n_val])
