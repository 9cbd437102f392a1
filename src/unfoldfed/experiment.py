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
    split_validation,
)
from .federation import fedavg_weights
from .report import RunHistory
from .unfolding import softmax_weights, unfold_train


@dataclass
class Problem:
    """Prepared data and clients for one experiment."""

    train: Dataset
    val_batch: nn.Batch
    test_batch: nn.Batch
    shards: list
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
    train, val = split_validation(full_train, cfg.val_size, cfg.seeds["data"])
    shards = partition_for_setting(train, cfg)
    profiles = make_profiles(cfg, shards)
    return Problem(
        train=train,
        val_batch=nn.Batch(val.images, val.labels),
        test_batch=nn.Batch(test.images, test.labels),
        shards=shards,
        profiles=profiles,
    )


def run_experiment(cfg: ExperimentConfig, problem: Problem | None = None):
    """Run the configured mode; returns (history, logits, theta_matrix).

    For the baseline modes `logits` and `theta_matrix` are None.
    """
    if problem is None:
        problem = prepare_problem(cfg)
    fixed_theta = None
    if cfg.mode == "fedavg":
        fixed_theta = fedavg_weights(problem.shards)
    elif cfg.mode == "fixed-uniform":
        fixed_theta = np.full(cfg.K, 1.0 / cfg.K)
    logits, trace = unfold_train(
        cfg, problem.train, problem.profiles,
        problem.val_batch, problem.test_batch,
        fixed_theta=fixed_theta,
    )
    history = RunHistory.from_trace(cfg.K, trace)
    if fixed_theta is not None:
        return history, None, None
    theta_matrix = np.stack([softmax_weights(row) for row in logits])
    return history, logits, theta_matrix


def final_test_accuracy(history: RunHistory) -> float:
    return history.rounds[-1][1].test_acc
