"""Strict JSON experiment configuration.

Unknown fields are rejected outright: a silent typo in an experiment config
is the main way a reproduction goes wrong.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

from . import nn
from .data import SETTING_IDS
from .unfolding import Seeds, UnfoldConfig

MODES = ("fedavg", "fixed-uniform", "unfolded")

DATA_PATH_KEYS = ("train_images", "train_labels", "test_images", "test_labels")


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
    seeds: dict = field(default_factory=lambda: {"model": 1, "data": 2, "rounds": 3})
    threads: int = 1
    emit_svg: bool = True

    def model_spec(self) -> nn.ModelSpec:
        return nn.ModelSpec(tuple(self.layer_dims))

    def unfold_config(self) -> UnfoldConfig:
        return UnfoldConfig(
            K=self.K, M=self.M, T=self.T, model=self.model_spec(),
            eta_g=self.eta_g, eta_meta=self.eta_meta,
            lambda_model=self.lambda_model, lambda_theta=self.lambda_theta,
            seeds=Seeds(**self.seeds), threads=self.threads,
        )

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
    need("emit_svg", lambda v: isinstance(v, bool), "true or false")
    need("mode", lambda v: v in MODES, f"one of {MODES}")
    need("setting", lambda v: v in SETTING_IDS, f"one of {SETTING_IDS}")
    for name in ("K", "M", "T", "batch_size", "epochs", "per_client",
                 "val_size", "threads"):
        need(name, positive_int, "a positive integer")
    for name in ("eta_g", "local_lr"):
        need(name, lambda v: _is_number(v) and v > 0, "a positive number")
    for name in ("eta_meta", "lambda_model", "lambda_theta"):
        need(name, lambda v: _is_number(v) and v >= 0, "a nonnegative number")
    need("layer_dims", lambda v: _is_list_of(v, positive_int) and len(v) >= 2,
         "a list of >= 2 positive integers")
    optional_lists = {
        "sizes": (positive_int, "positive integers"),
        "epoch_list": (positive_int, "positive integers"),
        "participation_list": (lambda p: _is_number(p) and 0 < p <= 1,
                               "numbers in (0, 1]"),
        "label_map": (lambda row: _is_list_of(row, _is_int), "integer lists"),
    }
    for name, (ok, what) in optional_lists.items():
        need(name, lambda v: v is None or _is_list_of(v, ok) and len(v) == cfg.K,
             f"null or a list of K={cfg.K} {what}")
    need("seeds", lambda v: set(v) <= {"model", "data", "rounds"},
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
    merged = dict(raw)
    if "seeds" in merged:
        defaults = {"model": 1, "data": 2, "rounds": 3}
        if not isinstance(merged["seeds"], dict):
            raise ConfigError("config field 'seeds': must be an object")
        defaults.update(merged["seeds"])
        merged["seeds"] = defaults
    cfg = ExperimentConfig(**merged)
    _check(cfg)
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
