"""End-to-end experiment driver shared by the CLI and the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .config import ExperimentConfig
from .data import (
    Dataset,
    SettingSpec,
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


def setting_spec(cfg: ExperimentConfig) -> SettingSpec:
    return SettingSpec(
        id=cfg.setting,
        K=cfg.K,
        seed=cfg.seeds["data"],
        sizes=tuple(cfg.sizes) if cfg.sizes is not None else None,
        label_map=tuple(tuple(m) for m in cfg.label_map)
        if cfg.label_map is not None else None,
        epoch_list=tuple(cfg.epoch_list) if cfg.epoch_list is not None else None,
        participation_list=tuple(cfg.participation_list)
        if cfg.participation_list is not None else None,
        per_client=cfg.per_client,
        epochs=cfg.epochs,
    )


def prepare_problem(cfg: ExperimentConfig) -> Problem:
    full_train = load_dataset(cfg.train_images, cfg.train_labels, "train")
    test = load_dataset(cfg.test_images, cfg.test_labels, "test")
    train, val = split_validation(full_train, cfg.val_size, cfg.seeds["data"])
    shards = partition_for_setting(train, setting_spec(cfg))
    profiles = make_profiles(setting_spec(cfg), shards, cfg.local_lr, cfg.batch_size)
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
    ucfg = cfg.unfold_config()
    fixed_theta = None
    if cfg.mode == "fedavg":
        fixed_theta = fedavg_weights(problem.shards)
    elif cfg.mode == "fixed-uniform":
        fixed_theta = np.full(cfg.K, 1.0 / cfg.K)
    logits, trace = unfold_train(
        ucfg, problem.train, problem.profiles,
        problem.val_batch, problem.test_batch,
        fixed_theta=fixed_theta,
    )
    history = RunHistory.from_trace(cfg.echo(), cfg.K, trace)
    if fixed_theta is not None:
        return history, None, None
    theta_matrix = np.stack([softmax_weights(row) for row in logits])
    return history, logits, theta_matrix


def final_test_accuracy(history: RunHistory) -> float:
    return history.rounds[-1][1].test_acc
