"""Acceptance suite: one test per criterion, printed pass lines.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report. The heterogeneity-benefit block (criteria 6-9) trains three seeded
full-scale runs and takes a few minutes on a laptop CPU.
"""

import json
import struct
import time

import numpy as np
import pytest

from unfoldfed import nn, synth
from unfoldfed.cli import EXIT_OK, main, write_artifacts
from unfoldfed.config import ExperimentConfig, from_dict
from unfoldfed.data import (
    Dataset,
    IdxFormatError,
    ClientProfile,
    load_idx_images,
    load_idx_labels,
    load_dataset,
    scale_pixels,
    split_validation,
)
from unfoldfed.experiment import final_test_accuracy, prepare_problem, run_experiment
from unfoldfed.report import load_weights_json
from unfoldfed.unfolding import softmax_weights, unfold_train
from unfoldfed.verify import run_gradcheck
from tests.test_nn import fd_gradient

SEEDS = (11, 21, 31)


def ok(num: int, text: str) -> None:
    print(f"\nCRITERION {num}: PASS — {text}")


@pytest.fixture(scope="module")
def desk_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("deskdata")
    return synth.write_dataset(out, n_train_per_class=2200,
                               n_test_per_class=200, seed=0)


def desk_config(desk_paths, seed: int, **overrides) -> dict:
    raw = {
        **{k: str(v) for k, v in desk_paths.items()},
        "setting": "statistical",
        "seeds": {"model": seed, "data": seed + 1, "rounds": seed + 2},
    }
    raw.update(overrides)
    return raw


@pytest.fixture(scope="module")
def desk_runs(desk_paths, tmp_path_factory):
    """Criterion-6 experiment block: 3 seeds of unfolded vs FedAvg.

    Each unfolded run also writes its artifacts into its "out" directory,
    as `unfoldfed run` would; criterion 9 compares its own runs with seed 11's.
    """
    t0 = time.perf_counter()
    runs = {}
    for seed in SEEDS:
        out = tmp_path_factory.mktemp(f"desk{seed}")
        cfg_u = from_dict(desk_config(desk_paths, seed, mode="unfolded",
                                      out_dir=str(out)))
        problem = prepare_problem(cfg_u)
        hist_u = run_experiment(cfg_u, problem)
        write_artifacts(cfg_u, hist_u)
        cfg_f = from_dict(desk_config(desk_paths, seed, mode="fedavg", M=1))
        hist_f = run_experiment(cfg_f, problem)
        runs[seed] = {
            "unfolded": hist_u, "fedavg": hist_f, "config": cfg_u, "out": out,
        }
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def test_criterion_1_meta_gradient_oracle():
    t0 = time.perf_counter()
    max_err, _ = run_gradcheck(n_instances=20, seed=0)
    elapsed = time.perf_counter() - t0
    assert max_err < 1e-4
    assert elapsed < 5.0
    ok(1, f"meta-gradient vs FD max rel err {max_err:.2e} in {elapsed:.2f}s")


def test_criterion_2_nn_gradient_exactness():
    t0 = time.perf_counter()
    spec = nn.ModelSpec((4, 3, 2))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        params = nn.init_model(spec, int(rng.integers(2**31)))
        params = params + rng.normal(scale=0.1, size=spec.num_params)
        batch = nn.Batch(rng.uniform(size=(8, 4)), rng.integers(2, size=8))
        _, grad = nn.loss_and_grad(spec, params, batch)
        fd = fd_gradient(spec, params, batch, eps=1e-5)
        worst = max(worst, np.abs(grad - fd).max() / np.abs(fd).max())
    elapsed = time.perf_counter() - t0
    assert worst < 1e-5
    assert elapsed < 5.0
    ok(2, f"loss gradient vs FD max rel err {worst:.2e} in {elapsed:.2f}s")


def test_criterion_3_fedavg_equivalence(desk_paths):
    # Balanced shards make the data-proportional weights exactly uniform,
    # which softmax reproduces bit-for-bit from equal logits.
    overrides = dict(M=1, T=10, eta_meta=0.0, lambda_model=0.0,
                     lambda_theta=0.0, setting="computation",
                     epoch_list=[1] * 5, sizes=[400] * 5, val_size=500)
    cfg_f = from_dict(desk_config(desk_paths, 11, mode="fedavg", **overrides))
    problem = prepare_problem(cfg_f)
    from unfoldfed.federation import fedavg_weights
    assert np.array_equal(fedavg_weights(problem.profiles),
                          softmax_weights(np.zeros(5)))
    hist_f = run_experiment(cfg_f, problem)
    cfg_u = from_dict(desk_config(desk_paths, 11, mode="unfolded", **overrides))
    hist_u = run_experiment(cfg_u, problem)
    assert len(hist_f.rounds) == len(hist_u.rounds) == 10
    for (mf, rf), (mu, ru) in zip(hist_f.rounds, hist_u.rounds):
        assert np.array_equal(rf.theta, ru.theta)
        assert rf.val_loss == ru.val_loss
        assert rf.test_acc == ru.test_acc
        assert np.array_equal(rf.participation, ru.participation)
    ok(3, "zero-meta-lr unfolded run is bit-identical to FedAvg over 10 rounds")


def test_criterion_4_simplex_and_shift_invariance(desk_paths, desk_runs):
    for seed in SEEDS:
        for _, rec in desk_runs[seed]["unfolded"].rounds:
            assert rec.theta.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(rec.theta >= 0)
    # Shifted-logits twin at reduced meta budget.
    cfg = from_dict(desk_config(desk_paths, 11, M=10))
    problem = prepare_problem(cfg)
    start = np.zeros((cfg.T, cfg.K))
    shifted = start.copy()
    shifted[3] += 7.3
    h1 = unfold_train(cfg, problem.profiles, problem.val_batch,
                      problem.test_batch, start_logits=start)
    h2 = unfold_train(cfg, problem.profiles, problem.val_batch,
                      problem.test_batch, start_logits=shifted)
    assert h1.meta_losses == h2.meta_losses
    assert np.array_equal(h1.final_logits, h2.final_logits)
    assert len(h1.logits) == len(h2.logits)
    for a, b in zip(h1.logits, h2.logits):
        assert np.array_equal(a, b)
    assert len(h1.rounds) == len(h2.rounds)
    for (_, ra), (_, rb) in zip(h1.rounds, h2.rounds):
        assert np.array_equal(ra.theta, rb.theta)
        assert ra.val_loss == rb.val_loss
        assert ra.test_acc == rb.test_acc
    ok(4, "all applied weight rows on the simplex; +7.3 row shift leaves the "
          "trace identical")


def test_criterion_5_homogeneity_yields_uniform_weights(desk_paths):
    full = load_dataset(desk_paths["train_images"], desk_paths["train_labels"])
    train_idx, val_idx = split_validation(len(full), 500, seed=0)
    test = load_dataset(desk_paths["test_images"], desk_paths["test_labels"])
    rows = train_idx[:300]
    # uint8 client rows and float64 server batches, as prepare_problem gives.
    shared = Dataset(full.images[rows], full.labels[rows])
    val_batch = nn.Batch(scale_pixels(full.images[val_idx]), full.labels[val_idx])
    test_batch = nn.Batch(scale_pixels(test.images[:500]), test.labels[:500])
    profiles = [
        ClientProfile(data=shared, epochs=1, local_lr=0.05, participation=1.0,
                      batch_size=32)
        for _ in range(5)
    ]
    for seed in SEEDS:
        cfg = ExperimentConfig(K=5, M=50, T=10, layer_dims=[784, 32, 10],
                               lambda_theta=1e-4,
                               seeds={"model": seed, "data": seed + 1,
                                      "rounds": seed + 2})
        history = unfold_train(cfg, profiles, val_batch, test_batch)
        for row in history.final_logits:
            theta = softmax_weights(row)
            assert np.abs(theta - 0.2).max() <= 0.05, (seed, theta)
    ok(5, "5 identical clients: final weight rows within L-inf 0.05 of uniform "
          "across 3 seeds")


def test_criterion_6_statistical_heterogeneity_benefit(desk_runs):
    accs_u = [final_test_accuracy(desk_runs[s]["unfolded"]) for s in SEEDS]
    accs_f = [final_test_accuracy(desk_runs[s]["fedavg"]) for s in SEEDS]
    assert all(desk_runs[s]["config"].M == 100 for s in SEEDS)
    assert np.mean(accs_u) >= np.mean(accs_f)
    assert desk_runs["elapsed"] < 900.0
    ok(6, f"unfolded mean acc {np.mean(accs_u):.3f} >= FedAvg "
          f"{np.mean(accs_f):.3f} over 3 seeds ({desk_runs['elapsed']:.0f}s)")


def test_criterion_7_meta_loss_descent(desk_runs):
    for seed in SEEDS:
        ml = np.array(desk_runs[seed]["unfolded"].meta_losses)
        assert len(ml) == 100
        assert ml[-10:].mean() <= ml[:10].mean(), seed
    ok(7, "mean meta-loss over last 10 meta-iterations <= first 10, each seed")


def test_criterion_8_iteration_budget(desk_runs):
    # The learned-weight runs that satisfied criteria 6-7 used exactly the
    # M = 100 meta-iteration budget; no extra iterations were granted.
    for seed in SEEDS:
        cfg = desk_runs[seed]["config"]
        assert cfg.M == 100 and cfg.T == 10 and cfg.K == 5
        assert len(desk_runs[seed]["unfolded"].meta_losses) == 100
    ok(8, "criteria 6-7 achieved within the fixed M=100 meta-iteration budget")


def test_criterion_9_determinism_and_threads(desk_paths, desk_runs, tmp_path):
    # The first run is desk_runs' seed-11 run, in-process at threads 1: the
    # same config apart from out_dir, which changes no artifact byte.
    raw = desk_config(desk_paths, 11, mode="unfolded")
    cfg_path = tmp_path / "cfg.json"
    outs = [desk_runs[11]["out"], tmp_path / "out1", tmp_path / "out2"]
    for out, threads in zip(outs[1:], (1, 8)):
        raw2 = dict(raw, out_dir=str(out), threads=threads)
        cfg_path.write_text(json.dumps(raw2))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    ref = (outs[0] / "history.csv").read_bytes()
    assert (outs[1] / "history.csv").read_bytes() == ref
    assert (outs[2] / "history.csv").read_bytes() == ref
    ref = (outs[0] / "weights.json").read_bytes()
    assert (outs[1] / "weights.json").read_bytes() == ref
    assert (outs[2] / "weights.json").read_bytes() == ref
    logits = load_weights_json(outs[0] / "weights.json")["logits"]
    assert logits.tobytes() == desk_runs[11]["unfolded"].final_logits.tobytes()
    ok(9, "byte-identical CSV and weights across repeated runs and across "
          "--threads 1 vs 8")


def test_criterion_10_idx_ingestion(tmp_path):
    img_path = tmp_path / "train-images-idx3-ubyte"
    lbl_path = tmp_path / "train-labels-idx1-ubyte"
    synth.write_idx_images(img_path, np.zeros((60000, 28, 28), dtype=np.uint8))
    synth.write_idx_labels(
        lbl_path, (np.arange(60000) % 10).astype(np.uint8))
    with open(img_path, "rb") as f:
        assert struct.unpack(">I", f.read(4))[0] == 0x00000803
    with open(lbl_path, "rb") as f:
        assert struct.unpack(">I", f.read(4))[0] == 0x00000801
    images = load_idx_images(img_path)
    labels = load_idx_labels(lbl_path)
    assert images.shape == (60000, 28, 28)
    assert len(labels) == 60000

    truncated = tmp_path / "trunc"
    truncated.write_bytes(img_path.read_bytes()[:-7])
    with pytest.raises(IdxFormatError, match="truncated payload"):
        load_idx_images(truncated)
    short_lbl = tmp_path / "trunc_lbl"
    short_lbl.write_bytes(lbl_path.read_bytes()[:-3])
    with pytest.raises(IdxFormatError, match="truncated payload"):
        load_idx_labels(short_lbl)
    ok(10, "60000x28x28 IDX files parse with correct magics; truncated files "
           "raise parse errors")
