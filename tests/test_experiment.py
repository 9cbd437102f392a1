import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from unfoldfed import experiment, federation, nn, synth
from unfoldfed.cli import write_artifacts
from unfoldfed.config import ExperimentConfig
from unfoldfed.data import (
    COMMUNICATION,
    COMPUTATION,
    STATISTICAL,
    Dataset,
    load_dataset,
    partition_for_setting,
    split_validation,
)
from unfoldfed.experiment import prepare_problem, run_experiment
from unfoldfed.report import load_weights_json
from unfoldfed.unfolding import unfold_train


def synth_config(synth_paths, setting: str) -> ExperimentConfig:
    """A setting on the 1200-image synthetic set: five shards of 200 or
    fewer rows and a 100-image validation split."""
    sizes = [100, 25, 25, 25, 25] if setting == STATISTICAL else [40] * 5
    return ExperimentConfig(**synth_paths, setting=setting, sizes=sizes,
                            val_size=100, seeds={"model": 1, "data": 2, "rounds": 3})


@pytest.mark.parametrize("setting", [STATISTICAL, COMPUTATION, COMMUNICATION])
def test_features_bitwise_equal_to_scaling_every_image_first(synth_paths, setting,
                                                             monkeypatch):
    cfg = synth_config(synth_paths, setting)

    def scaled_first(images, labels):
        ds = load_dataset(images, labels)
        return Dataset(ds.images.astype(np.float64) / 255.0, ds.labels)

    pixels = load_dataset(synth_paths["train_images"], synth_paths["train_labels"])
    full = scaled_first(synth_paths["train_images"], synth_paths["train_labels"])
    train_idx, val_idx = split_validation(len(full), cfg.val_size, cfg.seeds["data"])
    test = scaled_first(synth_paths["test_images"], synth_paths["test_labels"])
    shards = partition_for_setting(full.labels[train_idx], cfg)

    problem = prepare_problem(cfg)
    assert len(problem.profiles) == len(shards)
    for shard, profile in zip(shards, problem.profiles):
        rows = train_idx[shard]
        assert profile.data.images.dtype == np.uint8
        assert profile.data.images.tobytes() == pixels.images[rows].tobytes()
        assert np.array_equal(profile.data.labels, full.labels[rows])

    # Each minibatch a client trains on is its rows of the float64 quotient,
    # rounded to float32, bit for bit.
    batches = []
    loss_and_grad = nn.loss_and_grad

    def recorded(spec, params, batch):
        batches.append(batch)
        return loss_and_grad(spec, params, batch)

    monkeypatch.setattr(nn, "loss_and_grad", recorded)
    spec = nn.ModelSpec(cfg.layer_dims)
    params = nn.init_model(spec, 0)
    for k, (shard, profile) in enumerate(zip(shards, problem.profiles)):
        batches.clear()
        federation.local_sgd(spec, params, profile, np.random.default_rng(k))
        order = np.random.default_rng(k).permutation(len(shard))
        expected = np.array_split(train_idx[shard][order],
                                  range(cfg.batch_size, len(shard), cfg.batch_size))
        assert len(batches) == profile.epochs * len(expected)
        for batch, rows in zip(batches, expected):
            assert batch.features.dtype == np.float32
            assert batch.features.tobytes() == \
                full.images[rows].astype(np.float32).tobytes()
            assert np.array_equal(batch.labels, full.labels[rows])
    for batch in (problem.val_batch, problem.test_batch):
        assert batch.features.dtype == np.float64
    assert np.array_equal(problem.val_batch.features, full.images[val_idx])
    assert np.array_equal(problem.val_batch.labels, full.labels[val_idx])
    assert np.array_equal(problem.test_batch.features, test.images)
    assert np.array_equal(problem.test_batch.labels, test.labels)


def test_peak_memory_below_one_float_copy_of_the_training_images(synth_paths):
    cfg = synth_config(synth_paths, STATISTICAL)
    pixels = load_dataset(cfg.train_images, cfg.train_labels).images
    one_float_copy = pixels.size * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        prepare_problem(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_float_copy


def held_bytes(problem) -> int:
    """The bytes of every array a Problem holds."""
    held = sum(p.data.images.nbytes + p.data.labels.nbytes for p in problem.profiles)
    return held + sum(b.features.nbytes + b.labels.nbytes
                      for b in (problem.val_batch, problem.test_batch))


@pytest.mark.parametrize("setting", [STATISTICAL, COMPUTATION, COMMUNICATION])
def test_prepare_problem_keeps_no_copy_of_the_training_set(synth_paths, setting):
    # Beyond what the Problem holds, a call may hold the loaded files and the
    # rows it is scaling, but no second copy of the training pixels: that
    # copy alone would take the peak past 1.5 times their bytes.
    cfg = synth_config(synth_paths, setting)
    train_pixels = load_dataset(cfg.train_images, cfg.train_labels).images.nbytes
    prepare_problem(cfg)  # warm-up: first-call caches are not the call's own
    tracemalloc.start()
    try:
        problem = prepare_problem(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held_bytes(problem) < 1.5 * train_pixels


def test_training_file_released_before_the_test_set_loads(tmp_path):
    # Beyond what the Problem holds, the call may peak with the training file
    # or with the test file and its scaled batch, but never with both files.
    paths = synth.write_dataset(tmp_path, n_train_per_class=300,
                                n_test_per_class=100, seed=0)
    cfg = ExperimentConfig(**paths, sizes=[400] * 5, val_size=500)
    train_pixels = load_dataset(cfg.train_images, cfg.train_labels).images.nbytes
    prepare_problem(cfg)  # warm-up: first-call caches are not the call's own
    tracemalloc.start()
    try:
        problem = prepare_problem(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < held_bytes(problem) + train_pixels


def test_validation_features_written_after_the_training_file_is_released(
        synth_paths, monkeypatch):
    """No reference to the training images is left when the validation
    features are written.

    tracemalloc cannot pin this order: it counts an array when it is
    allocated, not when its pages are written, and the features are
    allocated while the file is still held. So weak references to the
    loaded image array are checked from a wrapper around the write.
    """
    cfg = synth_config(synth_paths, STATISTICAL)
    loaded, writes = [], []

    def load(images_path, labels_path):
        ds = load_dataset(images_path, labels_path)
        loaded.append([weakref.ref(a) for a in (ds.images, ds.images.base)
                       if a is not None])
        return ds

    divide = np.divide

    def watched(*args, **kwargs):
        if "out" in kwargs:
            writes.append((weakref.ref(kwargs["out"]),
                           [r() is None for r in loaded[0]]))
        return divide(*args, **kwargs)

    monkeypatch.setattr(experiment, "load_dataset", load)
    monkeypatch.setattr(np, "divide", watched)
    problem = prepare_problem(cfg)
    assert len(loaded) == 2  # the training file, then the test file
    [(written, released)] = writes
    assert written() is problem.val_batch.features
    assert released == [True] * len(loaded[0])


@pytest.mark.parametrize("mode", ["fedavg", "fixed-uniform"])
def test_fixed_weight_runs_record_no_logits(synth_paths, tmp_path, mode):
    cfg = replace(synth_config(synth_paths, STATISTICAL), mode=mode, M=2, T=2,
                  out_dir=str(tmp_path))
    history = run_experiment(cfg)
    assert history.final_logits is None
    assert history.logits == [] and len(history.meta_losses) == 2
    write_artifacts(cfg, history)
    assert (tmp_path / "history.csv").is_file()
    assert not (tmp_path / "weights.json").exists()


@pytest.mark.parametrize("setting", [STATISTICAL, COMPUTATION, COMMUNICATION])
def test_weights_json_replays_bitwise_as_a_fixed_schedule(synth_paths, tmp_path,
                                                          setting):
    cfg = replace(synth_config(synth_paths, setting), M=2, T=3,
                  out_dir=str(tmp_path))
    problem = prepare_problem(cfg)
    history = run_experiment(cfg, problem)
    write_artifacts(cfg, history)
    doc = load_weights_json(tmp_path / "weights.json")
    assert np.any(doc["logits"] != 0)
    assert doc["logits"].tobytes() == history.final_logits.tobytes()
    once = replace(cfg, M=1, eta_meta=0.0)
    args = (once, problem.profiles, problem.val_batch, problem.test_batch)
    replayed = unfold_train(*args, fixed_theta=doc["theta"])
    learned = unfold_train(*args, start_logits=doc["logits"])
    assert replayed.meta_losses == learned.meta_losses
    assert len(replayed.rounds) == len(learned.rounds) == cfg.T
    for (_, a), (_, b) in zip(replayed.rounds, learned.rounds):
        assert (a.round, a.val_loss, a.test_acc) == (b.round, b.val_loss, b.test_acc)
        assert a.theta.tobytes() == b.theta.tobytes()
        assert a.participation.tobytes() == b.participation.tobytes()
