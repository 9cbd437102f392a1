"""End-to-end experiment driver shared by the CLI and the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .config import ConfigError, ExperimentConfig
from .data import (
    STATISTICAL,
    Dataset,
    load_dataset,
    make_profiles,
    partition_for_setting,
    scale_pixels,
    split_validation,
)
from .federation import fedavg_weights
from .unfolding import RunHistory, softmax_weights, unfold_train


@dataclass
class Problem:
    """Prepared data and clients for one experiment.

    Client k is `profiles[k]`: its own rows of the training split, as
    float32 features in [0, 1], which also give its FedAvg weight and its
    entry in `partition.json`. No other training row is kept. The
    validation and test batches, which the server evaluates, are float64.
    """

    val_batch: nn.Batch
    test_batch: nn.Batch
    profiles: list


def prepare_problem(cfg: ExperimentConfig) -> Problem:
    full_train = load_dataset(cfg.train_images, cfg.train_labels)
    test = load_dataset(cfg.test_images, cfg.test_labels)
    for ds, path in ((full_train, cfg.train_images), (test, cfg.test_images)):
        if ds.images.shape[1] != cfg.layer_dims[0]:
            raise ConfigError(
                f"config field 'layer_dims': input width {cfg.layer_dims[0]} "
                f"does not match the {ds.images.shape[1]}-pixel images in {path}"
            )
    # A value the data cannot satisfy is an error in the field that asked for it.
    try:
        train, val = split_validation(full_train, cfg.val_size, cfg.seeds["data"])
    except ValueError as e:
        raise ConfigError(f"config field 'val_size': {e}") from e
    try:
        indices = partition_for_setting(train, cfg)
    except ValueError as e:
        name = "sizes" if cfg.setting == STATISTICAL else "per_client"
        raise ConfigError(f"config field {name!r}: {e}") from e
    profiles = make_profiles(cfg, [
        Dataset(scale_pixels(train.images[idx], np.float32), train.labels[idx])
        for idx in indices
    ])
    return Problem(
        val_batch=nn.Batch(scale_pixels(val.images), val.labels),
        test_batch=nn.Batch(scale_pixels(test.images), test.labels),
        profiles=profiles,
    )


def run_experiment(cfg: ExperimentConfig, problem: Problem | None = None):
    """Run the configured mode; returns (history, logits, theta_matrix).

    `history` is the RunHistory that `unfold_train` built. For the baseline
    modes `logits` and `theta_matrix` are None.
    """
    if problem is None:
        problem = prepare_problem(cfg)
    fixed_theta = None
    if cfg.mode == "fedavg":
        fixed_theta = np.tile(fedavg_weights(problem.profiles), (cfg.T, 1))
    elif cfg.mode == "fixed-uniform":
        fixed_theta = np.full((cfg.T, cfg.K), 1.0 / cfg.K)
    logits, history = unfold_train(
        cfg, problem.profiles, problem.val_batch, problem.test_batch,
        fixed_theta=fixed_theta,
    )
    if fixed_theta is not None:
        return history, None, None
    theta_matrix = np.stack([softmax_weights(row) for row in logits])
    return history, logits, theta_matrix


def final_test_accuracy(history: RunHistory) -> float:
    return history.rounds[-1][1].test_acc
