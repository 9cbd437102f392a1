import struct

import numpy as np
import pytest

from unfoldfed import data, synth
from unfoldfed.config import ExperimentConfig
from unfoldfed.data import (
    COMMUNICATION,
    COMPUTATION,
    STATISTICAL,
    DataError,
    IdxFormatError,
    default_label_map,
    load_idx_images,
    load_idx_labels,
    make_profiles,
    partition_balanced,
    partition_statistical,
    split_validation,
)
from unfoldfed.federation import fedavg_weights


class TestIdxParsing:
    def test_image_header_round_trip(self, tmp_path):
        path = tmp_path / "imgs"
        pixels = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28)
        synth.write_idx_images(path, pixels)
        out = load_idx_images(path)
        assert out.shape == (2, 28, 28)
        assert np.allclose(out, pixels / 255.0)

    def test_image_magic_constant(self, tmp_path):
        path = tmp_path / "imgs"
        synth.write_idx_images(path, np.zeros((1, 2, 2), dtype=np.uint8))
        with open(path, "rb") as f:
            assert f.read(4) == b"\x00\x00\x08\x03"

    def test_label_magic_constant(self, tmp_path):
        path = tmp_path / "lbls"
        synth.write_idx_labels(path, np.array([9], dtype=np.uint8))
        with open(path, "rb") as f:
            assert f.read(4) == b"\x00\x00\x08\x01"
        assert load_idx_labels(path)[0] == 9

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(IdxFormatError, match="bad magic"):
            load_idx_images(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short"
        full = struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 2, 28, 28)
        path.write_bytes(full + b"\x00" * (2 * 28 * 28 - 5))
        with pytest.raises(IdxFormatError, match="truncated payload"):
            load_idx_images(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "hdr"
        path.write_bytes(b"\x00\x00\x08")
        with pytest.raises(IdxFormatError, match="truncated header"):
            load_idx_images(path)

    def test_out_of_range_label_rejected(self, tmp_path):
        path = tmp_path / "lbls"
        path.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, 1) + bytes([10]))
        with pytest.raises(DataError, match="out of range"):
            load_idx_labels(path)

    def test_count_mismatch_rejected(self, tmp_path):
        img, lbl = tmp_path / "i", tmp_path / "l"
        synth.write_idx_images(img, np.zeros((2, 2, 2), dtype=np.uint8))
        synth.write_idx_labels(lbl, np.zeros(3, dtype=np.uint8))
        with pytest.raises(DataError, match="count mismatch"):
            data.load_dataset(img, lbl)


class TestPartitionStatistical:
    def test_two_labels_per_client(self, toy_dataset):
        shards = partition_statistical(toy_dataset, (100,) * 5,
                                       default_label_map(5), seed=0)
        seen = set()
        for k, shard in enumerate(shards):
            assert shard.size == 100
            labels = set(toy_dataset.labels[shard.indices].tolist())
            assert labels == {2 * k, 2 * k + 1}
            assert not (set(shard.indices.tolist()) & seen)
            seen |= set(shard.indices.tolist())

    def test_default_skew_weights(self, synth_paths):
        ds = data.load_dataset(synth_paths["train_images"], synth_paths["train_labels"])
        shards = partition_statistical(ds, (200, 25, 25, 25, 25),
                                       default_label_map(5), seed=1)
        # Same 8:1 ratio as the default [4000, 500, 500, 500, 500] split.
        theta = fedavg_weights(shards)
        assert np.allclose(theta, [2 / 3, 1 / 12, 1 / 12, 1 / 12, 1 / 12], atol=1e-3)

    def test_deterministic(self, toy_dataset):
        a = partition_statistical(toy_dataset, (50,) * 5, default_label_map(5), 7)
        b = partition_statistical(toy_dataset, (50,) * 5, default_label_map(5), 7)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.indices, sb.indices)

    def test_oversized_request_rejected(self, toy_dataset):
        with pytest.raises(ValueError, match="available"):
            partition_statistical(toy_dataset, (10**6, 1, 1, 1, 1),
                                  default_label_map(5), seed=0)


class TestPartitionBalanced:
    def test_equal_sizes_and_disjoint(self, toy_dataset):
        shards = partition_balanced(toy_dataset, K=5, per_client=20, seed=0)
        all_idx = np.concatenate([s.indices for s in shards])
        assert all(s.size == 20 for s in shards)
        assert len(np.unique(all_idx)) == 100

    def test_stratified_within_one(self, toy_dataset):
        shards = partition_balanced(toy_dataset, K=5, per_client=20, seed=0)
        for shard in shards:
            counts = np.bincount(toy_dataset.labels[shard.indices], minlength=10)
            assert np.all(np.abs(counts - 2) <= 1)

    def test_insufficient_data_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            partition_balanced(toy_dataset, K=10, per_client=1000, seed=0)


class TestMakeProfiles:
    def _shards(self, dataset, K=5):
        return partition_balanced(dataset, K=K, per_client=20, seed=0)

    def test_computation_epoch_list(self, toy_dataset):
        cfg = ExperimentConfig(setting=COMPUTATION, epoch_list=[1, 1, 3, 3, 5])
        profiles = make_profiles(cfg, self._shards(toy_dataset))
        assert [p.epochs for p in profiles] == [1, 1, 3, 3, 5]
        assert all(p.participation == 1.0 for p in profiles)

    def test_statistical_full_participation(self, toy_dataset):
        cfg = ExperimentConfig(setting=STATISTICAL, sizes=[20] * 5)
        profiles = make_profiles(cfg, self._shards(toy_dataset))
        assert all(p.participation == 1.0 for p in profiles)
        assert len({p.epochs for p in profiles}) == 1

    def test_communication_participation_list(self, toy_dataset):
        cfg = ExperimentConfig(setting=COMMUNICATION,
                               participation_list=[1.0, 1.0, 0.8, 0.6, 0.4])
        profiles = make_profiles(cfg, self._shards(toy_dataset))
        assert [p.participation for p in profiles] == [1.0, 1.0, 0.8, 0.6, 0.4]

    def test_length_mismatch_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            make_profiles(ExperimentConfig(K=5), self._shards(toy_dataset)[:3])


class TestSplitValidation:
    def test_sizes_and_disjointness(self, toy_dataset):
        train, val = split_validation(toy_dataset, 100, seed=0)
        assert len(val) == 100
        assert len(train) == len(toy_dataset) - 100

    def test_deterministic(self, toy_dataset):
        a_train, a_val = split_validation(toy_dataset, 50, seed=9)
        b_train, b_val = split_validation(toy_dataset, 50, seed=9)
        assert np.array_equal(a_val.images, b_val.images)
        assert np.array_equal(a_train.labels, b_train.labels)

    def test_out_of_range_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            split_validation(toy_dataset, len(toy_dataset), seed=0)
