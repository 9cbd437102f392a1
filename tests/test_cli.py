import json
import shutil

import numpy as np
import pytest

from unfoldfed.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VERIFY, main
from unfoldfed.config import ConfigError, ExperimentConfig, from_dict, parse_config
from unfoldfed.experiment import prepare_problem
from unfoldfed.report import csv_header


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


class TestCmdGradcheck:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--instances", "5"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_gradient_fails(self, capsys):
        assert main(["gradcheck", "--instances", "5", "--corrupt-sign"]) == EXIT_VERIFY
        assert "FAIL" in capsys.readouterr().out

    def test_every_seed_passes_and_sign_corruption_fails(self, capsys):
        # At seeds 7, 16 and 98 one case has FD points that cross a
        # rectifier kink; it is redrawn instead of failing a correct gradient.
        for seed in range(100):
            assert main(["gradcheck", "--seed", str(seed)]) == EXIT_OK, seed
            line = capsys.readouterr().out
            assert (", 1 redrawn" if seed in (7, 16, 98) else ", 0 redrawn") in line
            assert main(["gradcheck", "--seed", str(seed),
                         "--corrupt-sign"]) == EXIT_VERIFY, seed
            assert "FAIL" in capsys.readouterr().out

    def test_eps_out_of_bounds_exit_2(self):
        assert main(["gradcheck", "--eps", "0.5"]) == EXIT_CONFIG

    def test_no_instances_exit_2(self, capsys):
        assert main(["gradcheck", "--instances", "0"]) == EXIT_CONFIG
        assert "instances" in capsys.readouterr().err


class TestCmdPartition:
    def test_summary(self, tmp_path, small_config, capsys):
        assert main(["partition", "--config", str(small_config),
                     "--out", str(tmp_path / "p")]) == EXIT_OK
        doc = json.loads((tmp_path / "p" / "partition.json").read_text())
        assert doc["K"] == 5
        assert [s["size"] for s in doc["shards"]] == [200, 60, 60, 60, 60]
        assert abs(sum(doc["fedavg_weights"]) - 1.0) < 1e-12


class TestCmdReport:
    def test_rerender_from_csv(self, tmp_path, small_config):
        out = tmp_path / "out"
        main(["run", "--config", str(small_config)])
        rep = tmp_path / "rep"
        assert main(["report", "--history", str(out / "history.csv"),
                     "--out", str(rep)]) == EXIT_OK
        assert (rep / "accuracy.svg").exists()

    @pytest.mark.parametrize("row", ["0,1", "0,1,x,0.5,0.2,0.2,0.2,0.2,0.2,11111",
                                     "0,1,1.0,0.5,0.2,0.2,0.2,0.2,0.2,1121", ""])
    def test_malformed_row_exit_3(self, tmp_path, capsys, row):
        path = tmp_path / "h.csv"
        # The empty row stands for a file that holds only the header.
        path.write_text("".join(line + "\n" for line in (csv_header(5), row) if line))
        assert main(["report", "--history", str(path),
                     "--out", str(tmp_path / "rep")]) == EXIT_IO
        assert "line 2" in capsys.readouterr().err


class TestCmdSynth:
    def test_writes_parsable_files(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--train-per-class", "5",
                     "--test-per-class", "2"]) == EXIT_OK
        from unfoldfed.data import load_dataset
        ds = load_dataset(out / "train-images-idx3-ubyte",
                          out / "train-labels-idx1-ubyte")
        assert len(ds) == 50
