import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

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
    return ExperimentConfig(**synth_paths, setting=setting, sizes=[100, 25, 25, 25, 25],
                            per_client=40, val_size=100,
                            seeds={"model": 1, "data": 2, "rounds": 3})


@pytest.mark.parametrize("setting", [STATISTICAL, COMPUTATION, COMMUNICATION])
def test_features_bitwise_equal_to_scaling_every_image_first(synth_paths, setting):
    cfg = synth_config(synth_paths, setting)

    def scaled_first(images, labels):
        ds = load_dataset(images, labels)
        return Dataset(ds.images.astype(np.float64) / 255.0, ds.labels)

    train, val = split_validation(
        scaled_first(synth_paths["train_images"], synth_paths["train_labels"]),
        cfg.val_size, cfg.seeds["data"])
    test = scaled_first(synth_paths["test_images"], synth_paths["test_labels"])
    shards = partition_for_setting(train, cfg)

    problem = prepare_problem(cfg)
    assert len(problem.profiles) == len(shards)
    for shard, profile in zip(shards, problem.profiles):
        assert profile.data.images.dtype == np.float32
        assert profile.data.images.tobytes() == \
            train.images[shard].astype(np.float32).tobytes()
        assert np.array_equal(profile.data.labels, train.labels[shard])
    for batch in (problem.val_batch, problem.test_batch):
        assert batch.features.dtype == np.float64
    assert np.array_equal(problem.val_batch.features, val.images)
    assert np.array_equal(problem.val_batch.labels, val.labels)
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


@pytest.mark.parametrize("mode", ["fedavg", "fixed-uniform"])
def test_fixed_weight_runs_record_no_logits(synth_paths, mode):
    cfg = replace(synth_config(synth_paths, STATISTICAL), mode=mode, M=2, T=2)
    history, logits, theta = run_experiment(cfg)
    assert logits is None and theta is None
    assert history.logits == [] and len(history.meta_losses) == 2


@pytest.mark.parametrize("setting", [STATISTICAL, COMPUTATION, COMMUNICATION])
def test_weights_json_replays_bitwise_as_a_fixed_schedule(synth_paths, tmp_path,
                                                          setting):
    cfg = replace(synth_config(synth_paths, setting), M=2, T=3,
                  out_dir=str(tmp_path))
    problem = prepare_problem(cfg)
    write_artifacts(cfg, *run_experiment(cfg, problem))
    doc = load_weights_json(tmp_path / "weights.json")
    assert np.any(doc["logits"] != 0)
    once = replace(cfg, M=1, eta_meta=0.0)
    args = (once, problem.profiles, problem.val_batch, problem.test_batch)
    _, replayed = unfold_train(*args, fixed_theta=doc["theta"])
    _, learned = unfold_train(*args, start_logits=doc["logits"])
    assert replayed.meta_losses == learned.meta_losses
    assert len(replayed.rounds) == len(learned.rounds) == cfg.T
    for (_, a), (_, b) in zip(replayed.rounds, learned.rounds):
        assert (a.round, a.val_loss, a.test_acc) == (b.round, b.val_loss, b.test_acc)
        assert a.theta.tobytes() == b.theta.tobytes()
        assert a.participation.tobytes() == b.participation.tobytes()
