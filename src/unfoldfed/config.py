"""The experiment configuration: one object, checked on construction.

`ExperimentConfig` is the one configuration object. The CLI reads it from
strict JSON, library callers build it directly, and every layer reads its
fields. It runs `_check` when it is constructed, so a bad value raises the
same ConfigError whichever way it came in. Unknown JSON fields are rejected
outright: a silent typo in an experiment config is the main way a
reproduction goes wrong.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

from . import nn
from .data import (
    COMMUNICATION,
    COMPUTATION,
    DEFAULT_EPOCH_LIST,
    DEFAULT_PARTICIPATION,
    DEFAULT_SKEW_SIZES,
    NUM_CLASSES,
    SETTING_IDS,
    STATISTICAL,
)

MODES = ("fedavg", "fixed-uniform", "unfolded")

DATA_PATH_KEYS = ("train_images", "train_labels", "test_images", "test_labels")

SEED_DEFAULTS = {"model": 1, "data": 2, "rounds": 3}

# The per-client list each setting reads, and its default for K <= 5.
SETTING_LISTS = {
    STATISTICAL: ("sizes", DEFAULT_SKEW_SIZES),
    COMPUTATION: ("epoch_list", DEFAULT_EPOCH_LIST),
    COMMUNICATION: ("participation_list", DEFAULT_PARTICIPATION),
}


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration."""


@dataclass
class ExperimentConfig:
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    out_dir: str = "out"
    mode: str = "unfolded"
    setting: str = "statistical"
    K: int = 5
    M: int = 100
    T: int = 10
    eta_g: float = 1.0
    eta_meta: float = 0.5
    lambda_model: float = 1e-4
    lambda_theta: float = 1e-4
    local_lr: float = 0.05
    batch_size: int = 32
    epochs: int = 1
    sizes: list[int] | None = None
    label_map: list[list[int]] | None = None
    epoch_list: list[int] | None = None
    participation_list: list[float] | None = None
    per_client: int = 1000
    val_size: int = 1000
    layer_dims: list[int] = field(default_factory=lambda: [784, 32, 10])
    seeds: dict = field(default_factory=lambda: dict(SEED_DEFAULTS))
    threads: int = 1  # client pool size, capped at K and the usable cores

    def __post_init__(self):
        if isinstance(self.seeds, dict):  # absent seeds take their defaults
            self.seeds = {**SEED_DEFAULTS, **self.seeds}
        _check(self)

    def model_spec(self) -> nn.ModelSpec:
        return nn.ModelSpec(tuple(self.layer_dims))

    def echo(self) -> dict:
        out = {}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and math.isfinite(v)


def _is_list_of(v, ok) -> bool:
    return isinstance(v, list) and all(ok(x) for x in v)


def _check(cfg: ExperimentConfig) -> None:
    """Type and range checks on every field, before anything reads them."""
    def need(name, ok, what):
        value = getattr(cfg, name)
        if not ok(value):
            raise ConfigError(f"config field {name!r}: must be {what}, got {value!r}")

    def positive_int(v):
        return _is_int(v) and v >= 1

    for name in DATA_PATH_KEYS + ("out_dir",):
        need(name, lambda v: isinstance(v, str), "a string")
    need("mode", lambda v: v in MODES, f"one of {MODES}")
    need("setting", lambda v: v in SETTING_IDS, f"one of {SETTING_IDS}")
    for name in ("K", "M", "T", "batch_size", "epochs", "per_client",
                 "val_size", "threads"):
        need(name, positive_int, "a positive integer")
    for name in ("eta_g", "local_lr"):
        need(name, lambda v: _is_number(v) and v > 0, "a positive number")
    for name in ("eta_meta", "lambda_model", "lambda_theta"):
        need(name, lambda v: _is_number(v) and v >= 0, "a nonnegative number")
    need("layer_dims",
         lambda v: _is_list_of(v, positive_int) and len(v) >= 2
         and v[-1] >= NUM_CLASSES,
         f"a list of >= 2 positive integers, the last at least {NUM_CLASSES}")
    optional_lists = {
        "sizes": (positive_int, "positive integers"),
        "epoch_list": (positive_int, "positive integers"),
        "participation_list": (lambda p: _is_number(p) and 0 < p <= 1,
                               "numbers in (0, 1]"),
        "label_map": (lambda row: row and _is_list_of(
            row, lambda c: _is_int(c) and 0 <= c < NUM_CLASSES)
            and len(set(row)) == len(row),
            f"nonempty lists of distinct labels in [0, {NUM_CLASSES})"),
    }
    for name, (ok, what) in optional_lists.items():
        need(name, lambda v: v is None or _is_list_of(v, ok) and len(v) == cfg.K,
             f"null or a list of K={cfg.K} {what}")
    name, default = SETTING_LISTS[cfg.setting]
    need(name, lambda v: v is not None or cfg.K <= len(default),
         f"given for setting {cfg.setting!r} with K={cfg.K}: its default "
         f"covers only {len(default)} clients")
    need("seeds", lambda v: isinstance(v, dict) and set(v) <= set(SEED_DEFAULTS),
         "an object with keys among model, data, rounds")
    need("seeds", lambda v: all(_is_int(x) and x >= 0 for x in v.values()),
         "an object of nonnegative integers")


def resolve_data_path(path: str) -> str:
    """Fall back to $UNFOLDFED_DATA as dataset root for relative paths."""
    if os.path.isabs(path) or os.path.exists(path):
        return path
    root = os.environ.get("UNFOLDFED_DATA")
    if root:
        candidate = os.path.join(root, path)
        if os.path.exists(candidate):
            return candidate
    return path


def from_dict(raw: dict) -> ExperimentConfig:
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    cfg = ExperimentConfig(**raw)
    for key in DATA_PATH_KEYS:
        setattr(cfg, key, resolve_data_path(getattr(cfg, key)))
    return cfg


def parse_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config; `overrides` replace its fields before the checks."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"top-level config in {path} must be a JSON object")
    return from_dict({**raw, **(overrides or {})})
