import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unfoldfed import data, synth
from unfoldfed.config import ExperimentConfig
from unfoldfed.data import (
    COMMUNICATION,
    COMPUTATION,
    SETTING_IDS,
    STATISTICAL,
    ClientProfile,
    Dataset,
    IdxFormatError,
    default_label_map,
    load_idx_images,
    load_idx_labels,
    make_profiles,
    partition_balanced,
    partition_statistical,
    scale_pixels,
    split_validation,
)
from unfoldfed.federation import fedavg_weights
from tests.test_federation import rows_of


class TestIdxParsing:
    def test_image_header_round_trip(self, tmp_path):
        path = tmp_path / "imgs"
        pixels = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28)
        synth.write_idx_images(path, pixels)
        out = load_idx_images(path)
        assert out.shape == (2, 28, 28)
        assert out.dtype == np.uint8
        assert np.array_equal(out, pixels)

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

    def test_over_long_payload_rejected(self, tmp_path):
        path = tmp_path / "long"
        full = struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 2, 28, 28)
        path.write_bytes(full + b"\x00" * (2 * 28 * 28 + 3))
        with pytest.raises(IdxFormatError,
                           match=f"truncated payload in {re.escape(str(path))}: "
                                 f"{2 * 28 * 28 + 3} bytes, expected {2 * 28 * 28}"):
            load_idx_images(path)

    def test_pixels_are_read_only(self, tmp_path):
        path = tmp_path / "imgs"
        synth.write_idx_images(path, np.ones((2, 3, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="read-only"):
            load_idx_images(path)[0, 0, 0] = 0

    def test_load_dataset_peaks_near_one_payload(self, tmp_path):
        # The pixels are read into the array that holds them; a read that
        # joined the file's bytes first would peak near two payloads.
        paths = synth.write_dataset(tmp_path, n_train_per_class=300,
                                    n_test_per_class=1, seed=0)
        args = (paths["train_images"], paths["train_labels"])
        data.load_dataset(*args)  # warm-up: first-call caches are not the call's own
        tracemalloc.start()
        try:
            ds = data.load_dataset(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.images.nbytes <= peak < 1.25 * ds.images.nbytes

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "hdr"
        path.write_bytes(b"\x00\x00\x08")
        with pytest.raises(IdxFormatError, match="truncated header"):
            load_idx_images(path)

    def test_out_of_range_label_rejected(self, tmp_path):
        path = tmp_path / "lbls"
        path.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, 1) + bytes([10]))
        with pytest.raises(IdxFormatError, match="out of range"):
            load_idx_labels(path)

    @pytest.mark.parametrize("shape,dim", [((0, 28, 28), "count"),
                                           ((2, 0, 28), "rows")])
    def test_zero_dimension_rejected(self, tmp_path, shape, dim):
        path = tmp_path / "imgs"
        synth.write_idx_images(path, np.zeros(shape, dtype=np.uint8))
        with pytest.raises(IdxFormatError, match=re.escape(f"{dim} of 0 in {path}")):
            load_idx_images(path)

    def test_count_mismatch_rejected(self, tmp_path):
        img, lbl = tmp_path / "i", tmp_path / "l"
        synth.write_idx_images(img, np.zeros((2, 2, 2), dtype=np.uint8))
        synth.write_idx_labels(lbl, np.zeros(3, dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="count mismatch"):
            data.load_dataset(img, lbl)


class TestPartitionStatistical:
    def test_two_labels_per_client(self, toy_dataset):
        shards = partition_statistical(toy_dataset.labels, (100,) * 5,
                                       default_label_map(5), seed=0)
        seen = set()
        for k, shard in enumerate(shards):
            assert shard.dtype == np.int64 and len(shard) == 100
            assert np.all(np.diff(shard) > 0)
            labels = set(toy_dataset.labels[shard].tolist())
            assert labels == {2 * k, 2 * k + 1}
            assert not (set(shard.tolist()) & seen)
            seen |= set(shard.tolist())

    def test_default_skew_weights(self, synth_paths):
        ds = data.load_dataset(synth_paths["train_images"], synth_paths["train_labels"])
        shards = partition_statistical(ds.labels, (200, 25, 25, 25, 25),
                                       default_label_map(5), seed=1)
        # Same 8:1 ratio as the default [4000, 500, 500, 500, 500] split.
        theta = fedavg_weights(make_profiles(ExperimentConfig(),
                                             rows_of(ds, shards)))
        assert np.allclose(theta, [2 / 3, 1 / 12, 1 / 12, 1 / 12, 1 / 12], atol=1e-3)

    def test_deterministic(self, toy_dataset):
        labels = toy_dataset.labels
        a = partition_statistical(labels, (50,) * 5, default_label_map(5), 7)
        b = partition_statistical(labels, (50,) * 5, default_label_map(5), 7)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa, sb)

    def test_oversized_request_rejected(self, toy_dataset):
        with pytest.raises(ValueError, match="available"):
            partition_statistical(toy_dataset.labels, (10**6, 1, 1, 1, 1),
                                  default_label_map(5), seed=0)


class TestPartitionBalanced:
    def test_equal_sizes_and_disjoint(self, toy_dataset):
        shards = partition_balanced(toy_dataset.labels, sizes=[20] * 5, seed=0)
        all_idx = np.concatenate(shards)
        assert all(s.dtype == np.int64 and len(s) == 20 for s in shards)
        assert all(np.all(np.diff(s) > 0) for s in shards)
        assert len(np.unique(all_idx)) == 100

    def test_stratified_within_one(self, toy_dataset):
        shards = partition_balanced(toy_dataset.labels, sizes=[20] * 5, seed=0)
        for shard in shards:
            counts = np.bincount(toy_dataset.labels[shard], minlength=10)
            assert np.all(np.abs(counts - 2) <= 1)

    # Any K <= 8 sizes of at most 60 rows fit the 60 rows of each class:
    # a class gives client k at most sizes[k] // 10 + 1 rows.
    @given(sizes=st.lists(st.integers(1, 60), min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_any_sizes_give_disjoint_stratified_shards(self, toy_dataset, sizes, seed):
        labels = toy_dataset.labels
        shards = partition_balanced(labels, sizes, seed)
        assert [len(s) for s in shards] == sizes
        assert all(s.dtype == np.int64 and np.all(np.diff(s) > 0) for s in shards)
        assert len(np.unique(np.concatenate(shards))) == sum(sizes)
        for size, shard in zip(sizes, shards):
            counts = np.bincount(labels[shard], minlength=10)
            assert np.all(np.abs(counts - size / 10) < 1), (size, counts)

    def test_insufficient_data_rejected(self, toy_dataset):
        with pytest.raises(ValueError, match="need 601 samples"):
            partition_balanced(toy_dataset.labels, sizes=[100] * 5 + [101], seed=0)
        with pytest.raises(ValueError, match="label 1"):
            partition_balanced(np.repeat([0, 1], [10, 2]), sizes=[6], seed=0)


class TestMakeProfiles:
    def _shards(self, dataset, K=5):
        return rows_of(dataset, partition_balanced(dataset.labels, sizes=[20] * K,
                                                   seed=0))

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

    def test_every_list_read_in_every_setting(self, toy_dataset):
        # A setting names only the partitioner and its default column.
        for setting in SETTING_IDS:
            cfg = ExperimentConfig(setting=setting, epoch_list=[5] * 5,
                                   participation_list=[0.1] * 5)
            profiles = make_profiles(cfg, self._shards(toy_dataset))
            assert [(p.epochs, p.participation) for p in profiles] == \
                [(5, 0.1)] * 5, setting

    def test_length_mismatch_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            make_profiles(ExperimentConfig(K=5), self._shards(toy_dataset)[:3])


class TestClientProfile:
    @pytest.mark.parametrize("images", [np.zeros((4, 3), dtype=np.float32),
                                        np.zeros((4, 3)),
                                        np.zeros((4, 3), dtype=np.int64),
                                        np.zeros(4, dtype=np.uint8)],
                             ids=["float32", "float64", "int64", "1-D"])
    def test_rows_must_be_uint8_pixels(self, images):
        # Scaled rows would be scaled again by every minibatch.
        rows = Dataset(images, np.zeros(len(images), dtype=np.int64))
        with pytest.raises(ValueError, match=f"uint8 pixel array, got a "
                                             f"{images.ndim}-D {images.dtype}"):
            ClientProfile(data=rows, epochs=1, local_lr=0.05, participation=1.0,
                          batch_size=2)


class TestSplitValidation:
    def test_sizes_and_disjointness(self, toy_dataset):
        train, val = split_validation(len(toy_dataset), 100, seed=0)
        assert len(val) == 100
        assert len(train) == len(toy_dataset) - 100
        assert all(idx.dtype == np.int64 and np.all(np.diff(idx) > 0)
                   for idx in (train, val))
        assert np.array_equal(np.union1d(train, val), np.arange(len(toy_dataset)))

    def test_deterministic(self, toy_dataset):
        a_train, a_val = split_validation(len(toy_dataset), 50, seed=9)
        b_train, b_val = split_validation(len(toy_dataset), 50, seed=9)
        assert np.array_equal(a_val, b_val)
        assert np.array_equal(a_train, b_train)

    def test_out_of_range_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            split_validation(len(toy_dataset), len(toy_dataset), seed=0)


class TestScalePixels:
    def test_every_uint8_value(self):
        # All 256 values: float64 is the plain quotient, and float32 is that
        # quotient rounded to float32.
        u = np.arange(256, dtype=np.uint8)
        f64 = scale_pixels(u)
        f32 = scale_pixels(u, np.float32)
        assert f64.dtype == np.float64 and f32.dtype == np.float32
        assert f64.tobytes() == (u / 255.0).tobytes()
        assert f32.tobytes() == (u / 255.0).astype(np.float32).tobytes()
        assert (f32[0], f32[255]) == (0.0, 1.0)
