"""MNIST-format ingestion and client-shard construction.

Builds the three heterogeneity settings (statistical, computation,
communication) as index shards over a dataset plus per-client profiles.
"""

from __future__ import annotations

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

DEFAULT_SKEW_SIZES = (4000, 500, 500, 500, 500)
DEFAULT_EPOCH_LIST = (1, 1, 3, 3, 5)
DEFAULT_PARTICIPATION = (1.0, 1.0, 0.8, 0.6, 0.4)


class IdxFormatError(ValueError):
    """Raised for malformed IDX files (bad magic, truncation, bad counts)."""


class DataError(ValueError):
    """Raised for structurally valid files with out-of-range contents."""


@dataclass(frozen=True)
class Dataset:
    images: np.ndarray  # (N, 784) float64 in [0, 1]
    labels: np.ndarray  # (N,) int64 in [0, 10)

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("images/labels length mismatch")
        if len(self.images) == 0:
            raise ValueError("dataset must be nonempty")

    def __len__(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class Shard:
    """A client's slice of the parent dataset, by index."""

    owner: int
    indices: np.ndarray

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ClientProfile:
    shard: Shard
    epochs: int
    local_lr: float
    participation: float
    batch_size: int


def _read_be32(f, what: str) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise IdxFormatError(f"truncated header while reading {what}")
    return struct.unpack(">I", raw)[0]


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX3 image file into a (count, rows, cols) array in [0, 1]."""
    with open(path, "rb") as f:
        magic = _read_be32(f, "magic")
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(
                f"bad magic 0x{magic:08x} in {path} (expected 0x{IDX_IMAGE_MAGIC:08x})"
            )
        count = _read_be32(f, "count")
        rows = _read_be32(f, "rows")
        cols = _read_be32(f, "cols")
        payload = f.read()
    expected = count * rows * cols
    if len(payload) != expected:
        raise IdxFormatError(
            f"truncated payload in {path}: {len(payload)} bytes, expected {expected}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows, cols)
    return pixels.astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    """Parse an IDX1 label file into an int64 vector of classes in [0, 10)."""
    with open(path, "rb") as f:
        magic = _read_be32(f, "magic")
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(
                f"bad magic 0x{magic:08x} in {path} (expected 0x{IDX_LABEL_MAGIC:08x})"
            )
        count = _read_be32(f, "count")
        payload = f.read()
    if len(payload) != count:
        raise IdxFormatError(
            f"truncated payload in {path}: {len(payload)} bytes, expected {count}"
        )
    labels = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    if labels.size and labels.max() > 9:
        raise DataError(f"label out of range [0, 10) in {path}: {labels.max()}")
    return labels


def load_dataset(images_path, labels_path) -> Dataset:
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(images) != len(labels):
        raise DataError(
            f"count mismatch: {len(images)} images vs {len(labels)} labels"
        )
    return Dataset(images.reshape(len(images), -1), labels)


def default_label_map(K: int) -> tuple[tuple[int, ...], ...]:
    """Two consecutive labels per client: {0,1} -> c0, {2,3} -> c1, ..."""
    return tuple(tuple(l % NUM_CLASSES for l in (2 * k, 2 * k + 1)) for k in range(K))


def partition_statistical(data: Dataset, sizes, label_map, seed: int) -> list[Shard]:
    """Label-skew split: client k draws sizes[k] samples from label_map[k]."""
    rng = np.random.default_rng(seed)
    by_label = {c: np.flatnonzero(data.labels == c) for c in range(NUM_CLASSES)}
    remaining = {c: rng.permutation(idx) for c, idx in by_label.items()}
    shards = []
    for k in range(len(sizes)):
        labels = label_map[k]
        pool = np.concatenate([remaining[c] for c in labels])
        if len(pool) < sizes[k]:
            raise ValueError(
                f"client {k} requests {sizes[k]} samples from labels {labels}, "
                f"only {len(pool)} available"
            )
        take = rng.permutation(pool)[: sizes[k]]
        taken = set(take.tolist())
        for c in labels:
            remaining[c] = np.array(
                [i for i in remaining[c] if i not in taken], dtype=np.int64
            )
        shards.append(Shard(owner=k, indices=np.sort(take)))
    return shards


def partition_balanced(data: Dataset, K: int, per_client: int, seed: int) -> list[Shard]:
    """Disjoint equal-size shards with a stratified (per-label) draw."""
    if K * per_client > len(data):
        raise ValueError(
            f"need {K * per_client} samples for K={K} x {per_client}, "
            f"dataset has {len(data)}"
        )
    rng = np.random.default_rng(seed)
    classes = np.unique(data.labels)
    pools = {c: rng.permutation(np.flatnonzero(data.labels == c)) for c in classes}
    base, extra = divmod(per_client, len(classes))
    shards: list[list[int]] = [[] for _ in range(K)]
    cursors = {c: 0 for c in classes}
    for k in range(K):
        # The first `extra` classes (rotated by k) contribute one extra sample.
        for j, c in enumerate(classes):
            want = base + (1 if (j - k) % len(classes) < extra else 0)
            pool = pools[c]
            got = pool[cursors[c]:cursors[c] + want]
            if len(got) < want:
                raise ValueError(f"not enough samples of label {c} for stratified draw")
            cursors[c] += want
            shards[k].extend(got.tolist())
    return [
        Shard(owner=k, indices=np.sort(np.array(idx, dtype=np.int64)))
        for k, idx in enumerate(shards)
    ]


def make_profiles(cfg: ExperimentConfig, shards: list[Shard]) -> list[ClientProfile]:
    """Attach the setting's per-client epochs and participation to the shards."""
    if len(shards) != cfg.K:
        raise ValueError(f"{len(shards)} shards for K={cfg.K}")
    epochs = [cfg.epochs] * cfg.K
    participation = [1.0] * cfg.K
    if cfg.setting == COMPUTATION:
        epochs = cfg.epoch_list or DEFAULT_EPOCH_LIST
    elif cfg.setting == COMMUNICATION:
        participation = cfg.participation_list or DEFAULT_PARTICIPATION
    return [
        ClientProfile(
            shard=shard,
            epochs=epochs[k],
            local_lr=cfg.local_lr,
            participation=float(participation[k]),
            batch_size=cfg.batch_size,
        )
        for k, shard in enumerate(shards)
    ]


def partition_for_setting(data: Dataset, cfg: ExperimentConfig) -> list[Shard]:
    """Dispatch to the partitioner matching the setting."""
    seed = cfg.seeds["data"]
    if cfg.setting == STATISTICAL:
        return partition_statistical(
            data, cfg.sizes or DEFAULT_SKEW_SIZES[:cfg.K],
            cfg.label_map or default_label_map(cfg.K), seed,
        )
    return partition_balanced(data, cfg.K, cfg.per_client, seed)


def split_validation(data: Dataset, n_val: int, seed: int) -> tuple[Dataset, Dataset]:
    """Reserve a server-held validation split before sharding."""
    if not (0 < n_val < len(data)):
        raise ValueError(f"validation size {n_val} out of range for N={len(data)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data))
    val_idx, train_idx = np.sort(order[:n_val]), np.sort(order[n_val:])
    return (
        Dataset(data.images[train_idx], data.labels[train_idx]),
        Dataset(data.images[val_idx], data.labels[val_idx]),
    )
