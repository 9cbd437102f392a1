import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unfoldfed import data, synth, verify
from unfoldfed.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK,
                           EXIT_VERIFY, main)
from unfoldfed.config import ConfigError, ExperimentConfig, from_dict, parse_config
from unfoldfed.experiment import prepare_problem
from unfoldfed.report import csv_header

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
# A few fields of the config at a time, each any JSON value.
FUZZED_CONFIGS = st.dictionaries(
    st.sampled_from([f.name for f in fields(ExperimentConfig)]), JSON_VALUES,
    max_size=4)


def rejected(raw: dict) -> bool:
    """False if `raw` makes a config, True on a ConfigError; any other
    exception propagates."""
    try:
        from_dict(raw)
    except ConfigError:
        return True
    return False


@pytest.fixture
def small_config(tmp_path, synth_paths):
    cfg = {
        **{k: str(v) for k, v in synth_paths.items()},
        "out_dir": str(tmp_path / "out"),
        "setting": "statistical",
        "sizes": [200, 60, 60, 60, 60],
        "val_size": 120,
        "M": 2,
        "T": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestParseConfig:
    def test_defaults_applied(self, tmp_path, synth_paths):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            {**{k: str(v) for k, v in synth_paths.items()},
             "setting": "statistical"}
        ))
        cfg = parse_config(path)
        assert (cfg.K, cfg.M, cfg.T) == (5, 100, 10)
        assert cfg.layer_dims == [784, 32, 10]
        assert cfg.seeds == {"model": 1, "data": 2, "rounds": 3}

    def test_unknown_field_named_in_error(self):
        with pytest.raises(ConfigError, match="foo"):
            from_dict({"foo": 1})

    def test_range_errors(self):
        with pytest.raises(ConfigError, match="'M'"):
            from_dict({"M": 0})
        with pytest.raises(ConfigError, match="'mode'"):
            from_dict({"mode": "turbo"})
        with pytest.raises(ConfigError, match="participation_list"):
            from_dict({"participation_list": [1.0, 1.0, 2.0, 0.5, 0.5]})

    @given(raw=FUZZED_CONFIGS)
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_gives_a_config_or_a_config_error(self, raw):
        rejected(raw)

    @given(raw=FUZZED_CONFIGS)
    @settings(max_examples=15, deadline=None)
    def test_rejected_json_value_exits_2(self, tmp_path_factory, raw):
        assume(rejected(raw))
        path = tmp_path_factory.mktemp("fuzzed") / "c.json"
        path.write_text(json.dumps(raw))
        with redirect_stderr(io.StringIO()) as err:
            assert main(["partition", "--config", str(path)]) == EXIT_CONFIG
        assert err.getvalue().startswith("config error")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed JSON"):
            parse_config(path)

    @pytest.mark.parametrize("field,value", [
        ("eta_g", "1"),
        ("layer_dims", 5),
        ("participation_list", [1.0, 1.0, "0.5", 0.5, 0.5]),
        ("K", True),
        ("seeds", {"model": "x"}),
    ])
    def test_wrong_type_exit_2(self, tmp_path, capsys, field, value):
        with pytest.raises(ConfigError, match=repr(field)):
            from_dict({field: value})
        path = tmp_path / "c.json"
        path.write_text(json.dumps({field: value}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error")

    @pytest.mark.parametrize("raw,field", [
        ({"setting": "statistical", "K": 6}, "sizes"),
        ({"setting": "computation", "K": 6}, "epoch_list"),
        ({"setting": "communication", "K": 6}, "participation_list"),
        ({"label_map": [[0, 12], [2, 3], [4, 5], [6, 7], [8, 9]]}, "label_map"),
        ({"label_map": [[], [2, 3], [4, 5], [6, 7], [8, 9]]}, "label_map"),
        ({"label_map": [[0, 0], [2, 3], [4, 5], [6, 7], [8, 9]]}, "label_map"),
        ({"layer_dims": [784, 32, 5]}, "layer_dims"),
    ], ids=["stat-K6", "comp-K6", "comm-K6", "label-12", "empty-row",
            "repeated-label", "classes-5"])
    def test_unusable_value_exit_2(self, tmp_path, capsys, raw, field):
        with pytest.raises(ConfigError, match=repr(field)) as parsed:
            from_dict(raw)
        with pytest.raises(ConfigError) as built:
            ExperimentConfig(**raw)
        assert str(built.value) == str(parsed.value)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error")

    def test_input_width_mismatch_exit_2(self, tmp_path, small_config, capsys):
        raw = dict(json.loads(small_config.read_text()), layer_dims=[100, 32, 10])
        with pytest.raises(ConfigError, match="'layer_dims'"):
            prepare_problem(from_dict(raw))
        small_config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(small_config)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error")

    @pytest.mark.parametrize("command", ["run", "partition"])
    @pytest.mark.parametrize("raw,field", [
        ({"val_size": 100000}, "val_size"),
        ({"setting": "computation", "per_client": 1000}, "per_client"),
        ({"setting": "computation", "per_client": 216}, "per_client"),
        ({"sizes": [4000, 60, 60, 60, 60]}, "sizes"),
    ], ids=["val-above-N", "K-x-per-client-above-N", "label-short", "sizes-above-pool"])
    def test_value_the_data_cannot_satisfy_exit_2(self, small_config, capsys,
                                                  command, raw, field):
        raw = dict(json.loads(small_config.read_text()), **raw)
        with pytest.raises(ConfigError, match=repr(field)):
            prepare_problem(from_dict(raw))
        small_config.write_text(json.dumps(raw))
        assert main([command, "--config", str(small_config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and repr(field) in err

    def test_emit_svg_is_an_unknown_field(self, small_config, capsys):
        raw = dict(json.loads(small_config.read_text()), emit_svg=False)
        small_config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(small_config)]) == EXIT_CONFIG
        assert "emit_svg" in capsys.readouterr().err

    def test_env_root_fallback(self, tmp_path, synth_paths, monkeypatch):
        import os
        root = os.path.dirname(str(synth_paths["train_images"]))
        monkeypatch.setenv("UNFOLDFED_DATA", root)
        raw = {k: os.path.basename(str(v)) for k, v in synth_paths.items()}
        cfg = from_dict({**raw, "setting": "statistical"})
        assert os.path.isabs(cfg.train_images)
        assert os.path.exists(cfg.train_images)


class TestExperimentConfig:
    """Direct construction runs the same checks as a JSON config."""

    def test_bounds(self):
        with pytest.raises(ConfigError, match="'K'"):
            ExperimentConfig(K=0)
        with pytest.raises(ConfigError, match="'eta_g'"):
            ExperimentConfig(K=1, eta_g=0.0)

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError, match="'setting'"):
            ExperimentConfig(setting="weird")

    def test_list_length_checked(self):
        with pytest.raises(ConfigError, match="'epoch_list'"):
            ExperimentConfig(setting="computation", epoch_list=[1, 2])

    def test_partial_seeds_take_defaults(self):
        assert ExperimentConfig(seeds={"data": 7}).seeds == \
            {"model": 1, "data": 7, "rounds": 3}


class TestCmdRun:
    def test_run_writes_artifacts(self, tmp_path, small_config):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config)]) == EXIT_OK
        for name in ("history.csv", "weights.json", "manifest.json",
                     "accuracy.svg", "loss.svg", "weights.svg"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"].startswith("unfoldfed-")
        assert manifest["config"]["M"] == 2

    def test_deterministic_csv(self, tmp_path, small_config):
        out = tmp_path / "out"
        main(["run", "--config", str(small_config)])
        first = (out / "history.csv").read_bytes()
        main(["run", "--config", str(small_config)])
        assert (out / "history.csv").read_bytes() == first

    def test_baseline_mode_skips_weights_json(self, tmp_path, small_config):
        for mode in ("fedavg", "fixed-uniform"):
            out = tmp_path / mode
            assert main(["run", "--config", str(small_config), "--mode", mode,
                         "--out", str(out)]) == EXIT_OK
            assert (out / "history.csv").exists()
            assert not (out / "weights.json").exists()
        rows = (tmp_path / "fixed-uniform" / "history.csv").read_text().splitlines()
        for row in rows[1:]:
            assert [float(v) for v in row.split(",")[4:9]] == [0.2] * 5

    def test_weights_json_independent_of_data_dir(self, tmp_path, small_config,
                                                  synth_paths):
        raw = json.loads(small_config.read_text())
        outs = []
        for name in ("a", "b"):
            data_dir = tmp_path / f"data-{name}"
            data_dir.mkdir()
            for key, src in synth_paths.items():
                raw[key] = shutil.copy(src, data_dir)
            raw["out_dir"] = str(tmp_path / f"out-{name}")
            small_config.write_text(json.dumps(raw))
            assert main(["run", "--config", str(small_config)]) == EXIT_OK
            outs.append(tmp_path / f"out-{name}")
        for name in ("history.csv", "weights.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_missing_data_file_exit_3(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "train_images": "/nonexistent/a", "train_labels": "/nonexistent/b",
            "test_images": "/nonexistent/c", "test_labels": "/nonexistent/d",
        }))
        assert main(["run", "--config", cfg.as_posix()]) == EXIT_IO

    @pytest.mark.parametrize("case", ["label-12", "100-images-for-1200-labels"])
    def test_malformed_data_contents_exit_3(self, tmp_path, small_config, capsys,
                                            case):
        raw = json.loads(small_config.read_text())
        if case == "label-12":
            labels = data.load_idx_labels(raw["train_labels"])
            labels[0] = 12
            raw["train_labels"] = str(tmp_path / "labels")
            synth.write_idx_labels(raw["train_labels"], labels)
        else:
            raw["train_images"] = str(tmp_path / "images")
            synth.write_idx_images(raw["train_images"],
                                   np.zeros((100, 28, 28), dtype=np.uint8))
        small_config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(small_config)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o error")

    def test_threads_accepted_and_echoed(self, tmp_path, small_config):
        assert main(["run", "--config", str(small_config), "--threads", "2"]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["threads"] == 2
        assert "emit_svg" not in manifest["config"]

    @staticmethod
    def run_at_threads_1_and_2(config):
        # In a fresh interpreter, so that its warnings reach stderr as they
        # would for a user. Two processes train clients on a host with two or
        # more usable cores.
        env = dict(os.environ, PYTHONPATH=SRC)
        reports = []
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "unfoldfed.cli", "run", "--config",
                 str(config), "--threads", threads],
                env=env, capture_output=True, text=True, timeout=300)
            reports.append((done.returncode, done.stderr))
        return reports

    def test_divergence_reported_alike_at_any_threads(self, small_config):
        raw = json.loads(small_config.read_text())
        small_config.write_text(json.dumps(dict(raw, local_lr=30.0)))
        reports = self.run_at_threads_1_and_2(small_config)
        assert reports[0][0] == EXIT_DIVERGED
        assert "RuntimeWarning" in reports[0][1]
        assert reports[0][1].endswith("error: meta-loss diverged at meta-iteration 0: inf\n")
        assert reports[1] == reports[0]

    def test_client_divergence_reported_alike_at_any_threads(self, small_config):
        raw = json.loads(small_config.read_text())
        small_config.write_text(json.dumps(dict(raw, local_lr=1e200)))
        reports = self.run_at_threads_1_and_2(small_config)
        assert reports[0] == (EXIT_DIVERGED,
                              "error: meta-iteration 0, round 0, client 0: "
                              "non-finite parameters after local training\n")
        assert reports[1] == reports[0]

    def test_float32_client_overflow_is_client_divergence(self, small_config):
        # At this rate float64 clients stay finite and the meta-loss is what
        # diverges; float32 clients overflow near 3.4e38 and are caught first.
        raw = json.loads(small_config.read_text())
        small_config.write_text(json.dumps(dict(raw, local_lr=1e20)))
        reports = self.run_at_threads_1_and_2(small_config)
        assert reports[0] == (EXIT_DIVERGED,
                              "error: meta-iteration 0, round 0, client 0: "
                              "non-finite parameters after local training\n")
        assert reports[1] == reports[0]

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bogus_field": 1}))
        assert main(["run", "--config", cfg.as_posix()]) == EXIT_CONFIG

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--threads", "-2"),
                                            ("--threads", "0")])
    def test_bad_override_exit_2(self, tmp_path, small_config, capsys, flag, value):
        assert main(["run", "--config", str(small_config), flag, value]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "out").exists()


def corrupt_sign(monkeypatch):
    """Flip the sign of every analytic meta-gradient row gradcheck computes."""
    row = verify.meta_gradient_row
    monkeypatch.setattr(verify, "meta_gradient_row", lambda *args: -row(*args))


class TestCmdGradcheck:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--instances", "5"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_gradient_fails(self, capsys, monkeypatch):
        corrupt_sign(monkeypatch)
        assert main(["gradcheck", "--instances", "5"]) == EXIT_VERIFY
        assert "FAIL" in capsys.readouterr().out

    def test_every_seed_passes_and_sign_corruption_fails(self, capsys, monkeypatch):
        # At seeds 7, 16 and 98 one case has FD points that cross a
        # rectifier kink; it is redrawn instead of failing a correct gradient.
        for seed in range(100):
            assert main(["gradcheck", "--seed", str(seed)]) == EXIT_OK, seed
            line = capsys.readouterr().out
            assert (", 1 redrawn" if seed in (7, 16, 98) else ", 0 redrawn") in line
            with monkeypatch.context() as m:
                corrupt_sign(m)
                assert main(["gradcheck", "--seed", str(seed)]) == EXIT_VERIFY, seed
            assert "FAIL" in capsys.readouterr().out

    def test_eps_out_of_bounds_exit_2(self):
        assert main(["gradcheck", "--eps", "0.5"]) == EXIT_CONFIG

    def test_no_instances_exit_2(self, capsys):
        assert main(["gradcheck", "--instances", "0"]) == EXIT_CONFIG
        assert "instances" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, capsys):
        assert main(["gradcheck", "--seed", "-1", "--instances", "1"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --seed")


class TestCmdPartition:
    def test_summary(self, tmp_path, small_config, capsys):
        assert main(["partition", "--config", str(small_config),
                     "--out", str(tmp_path / "p")]) == EXIT_OK
        doc = json.loads((tmp_path / "p" / "partition.json").read_text())
        assert doc["K"] == 5
        assert [s["size"] for s in doc["shards"]] == [200, 60, 60, 60, 60]
        assert abs(sum(doc["fedavg_weights"]) - 1.0) < 1e-12


class TestCmdReport:
    @pytest.mark.parametrize("setting", ["statistical", "computation",
                                         "communication"])
    @pytest.mark.parametrize("mode", ["unfolded", "fedavg"])
    def test_rerender_from_csv(self, tmp_path, small_config, mode, setting):
        raw = json.loads(small_config.read_text())
        small_config.write_text(json.dumps(dict(raw, setting=setting,
                                                per_client=60)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config), "--mode", mode]) == EXIT_OK
        rep = tmp_path / "rep"
        assert main(["report", "--history", str(out / "history.csv"),
                     "--out", str(rep)]) == EXIT_OK
        assert (rep / "accuracy.svg").exists()

    @pytest.mark.parametrize("row", ["0,1", "0,1,x,0.5,0.2,0.2,0.2,0.2,0.2,11111",
                                     "0,1,1.0,0.5,0.2,0.2,0.2,0.2,0.2,1121", "",
                                     "0,1,inf,0.5,0.2,0.2,0.2,0.2,0.2,11111",
                                     "0,1,nan,0.5,0.2,0.2,0.2,0.2,0.2,11111",
                                     "0,1,1.0,1.5,0.2,0.2,0.2,0.2,0.2,11111",
                                     "0,1,1.0,nan,0.2,0.2,0.2,0.2,0.2,11111",
                                     "0,1,-1.0,0.5,0.2,0.2,0.2,0.2,0.2,11111",
                                     "0,1,1.0,0.5,0.9,0.9,0.9,0.9,0.9,11111"])
    def test_malformed_row_exit_3(self, tmp_path, capsys, row):
        path = tmp_path / "h.csv"
        # The empty row stands for a file that holds only the header.
        path.write_text("".join(line + "\n" for line in (csv_header(5), row) if line))
        assert main(["report", "--history", str(path),
                     "--out", str(tmp_path / "rep")]) == EXIT_IO
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("order,line", [
        ([(5, -3), (0, 0), (0, 0)], 2),
        ([(0, 0), (0, 0)], 3),
        ([(0, 0), (0, 2), (1, 0), (1, 2)], 3),
        ([(0, 0), (0, 1), (2, 0), (2, 1)], 4),
        ([(0, 0), (1, 0), (0, 0)], 4),
        ([(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)], 6),
    ], ids=["negative-round-then-repeated", "repeated-round", "skipped-round",
            "skipped-meta-iteration", "meta-iteration-back", "short-last-meta-iteration"])
    def test_rows_out_of_order_exit_3(self, tmp_path, capsys, order, line):
        path = tmp_path / "h.csv"
        path.write_text("".join(
            f"{row}\n" for row in [csv_header(5)] + [
                f"{m},{t},1.0,0.5,0.2,0.2,0.2,0.2,0.2,11111" for m, t in order]))
        assert main(["report", "--history", str(path),
                     "--out", str(tmp_path / "rep")]) == EXIT_IO
        assert f"line {line}:" in capsys.readouterr().err


class TestCmdSynth:
    @pytest.mark.parametrize("flag,value", [
        ("--train-per-class", "-1"), ("--train-per-class", "0"),
        ("--test-per-class", "0"), ("--seed", "-1"),
    ])
    def test_bad_argument_exit_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--train-per-class", "5",
                     "--test-per-class", "2", flag, value]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and flag in err
        assert not out.exists()

    def test_writes_parsable_files(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--train-per-class", "5",
                     "--test-per-class", "2"]) == EXIT_OK
        from unfoldfed.data import load_dataset
        ds = load_dataset(out / "train-images-idx3-ubyte",
                          out / "train-labels-idx1-ubyte")
        assert len(ds) == 50
