"""End-to-end experiment driver shared by the CLI and the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .config import ConfigError, ExperimentConfig
from .data import (
    Dataset,
    load_dataset,
    make_profiles,
    partition_for_setting,
    scale_pixels,
    split_validation,
)
from .federation import fedavg_weights
from .unfolding import RunHistory, unfold_train


@dataclass
class Problem:
    """Prepared data and clients for one experiment.

    Client k is `profiles[k]`: its own rows of the training split, as the
    file's uint8 pixels, which also give its FedAvg weight and its entry in
    `partition.json`; `federation.local_sgd` scales each minibatch to
    float32 as it draws it. No other training row is kept. The validation
    and test batches, which the server evaluates, are float64 features.
    """

    val_batch: nn.Batch
    test_batch: nn.Batch
    profiles: list


def _load_checked(cfg: ExperimentConfig, images_path, labels_path) -> Dataset:
    ds = load_dataset(images_path, labels_path)
    if ds.images.shape[1] != cfg.layer_dims[0]:
        raise ConfigError(
            f"config field 'layer_dims': input width {cfg.layer_dims[0]} "
            f"does not match the {ds.images.shape[1]}-pixel images in {images_path}"
        )
    return ds


def prepare_problem(cfg: ExperimentConfig) -> Problem:
    full_train = _load_checked(cfg, cfg.train_images, cfg.train_labels)
    # A value the data cannot satisfy is an error in the field that asked for it.
    try:
        train_idx, val_idx = split_validation(len(full_train), cfg.val_size,
                                              cfg.seeds["data"])
    except ValueError as e:
        raise ConfigError(f"config field 'val_size': {e}") from e
    images, labels = full_train.images, full_train.labels
    try:
        shards = partition_for_setting(labels[train_idx], cfg)
    except ValueError as e:
        raise ConfigError(f"config field 'sizes': {e}") from e
    # The split and the shards are indices into the file: each row the model
    # reads is gathered once. A client keeps its rows' pixels.
    rows = [train_idx[shard] for shard in shards]
    profiles = make_profiles(cfg, [Dataset(images[r], labels[r]) for r in rows])
    val_pixels = images[val_idx]
    val_features = np.empty(val_pixels.shape)
    # Release the training file before the test file loads, so that the two
    # files and the float64 test batch are never in memory at once. The
    # validation features are allocated above but written only now: resident
    # memory counts written pages, so they never sit beside the file either.
    del full_train, images
    np.divide(val_pixels, 255, out=val_features)  # the quotient of scale_pixels
    del val_pixels
    test = _load_checked(cfg, cfg.test_images, cfg.test_labels)
    return Problem(
        val_batch=nn.Batch(val_features, labels[val_idx]),
        test_batch=nn.Batch(scale_pixels(test.images), test.labels),
        profiles=profiles,
    )


def run_experiment(cfg: ExperimentConfig, problem: Problem | None = None) -> RunHistory:
    """Run the configured mode; returns the RunHistory that `unfold_train`
    built, whose `final_logits` are None for the baseline modes."""
    if problem is None:
        problem = prepare_problem(cfg)
    fixed_theta = None
    if cfg.mode == "fedavg":
        fixed_theta = np.tile(fedavg_weights(problem.profiles), (cfg.T, 1))
    elif cfg.mode == "fixed-uniform":
        fixed_theta = np.full((cfg.T, cfg.K), 1.0 / cfg.K)
    return unfold_train(cfg, problem.profiles, problem.val_batch,
                        problem.test_batch, fixed_theta=fixed_theta)


def final_test_accuracy(history: RunHistory) -> float:
    return history.rounds[-1][1].test_acc
