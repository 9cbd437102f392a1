import json
from xml.dom import minidom

import numpy as np
import pytest

from unfoldfed.federation import RoundRecord
from unfoldfed.report import (
    RunHistory,
    csv_header,
    emit_csv,
    emit_weights_json,
    load_weights_json,
    read_csv,
    render_charts,
    render_svg,
)
from unfoldfed.unfolding import softmax_weights


def make_record(t, K=2, theta=None, val_loss=1.5, test_acc=0.5):
    return RoundRecord(
        round=t,
        theta=np.full(K, 1.0 / K) if theta is None else np.asarray(theta),
        participation=np.ones(K, dtype=bool),
        val_loss=val_loss,
        test_acc=test_acc,
    )


def make_history(n_meta=1, n_rounds=2, K=2):
    rounds = [
        (m, make_record(t, K, val_loss=1.5 - 0.1 * (m * n_rounds + t),
                        test_acc=0.5 + 0.01 * t))
        for m in range(n_meta) for t in range(n_rounds)
    ]
    return RunHistory(K=K, rounds=rounds)


class TestEmitCsv:
    def test_empty_history_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        emit_csv(RunHistory(K=3, rounds=[]), path)
        assert path.read_text() == csv_header(3) + "\n"

    def test_row_count(self, tmp_path):
        path = tmp_path / "h.csv"
        emit_csv(make_history(1, 2, K=2), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "meta_iter,round,val_loss,test_acc,theta_0,theta_1,participation_mask"

    def test_byte_deterministic(self, tmp_path):
        h = make_history(2, 3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(h, a)
        emit_csv(h, b)
        assert a.read_bytes() == b.read_bytes()

    def test_mask_column(self, tmp_path):
        rec = make_record(0, K=3)
        rec = RoundRecord(rec.round, rec.theta, np.array([True, False, True]),
                          rec.val_loss, rec.test_acc)
        path = tmp_path / "h.csv"
        emit_csv(RunHistory(K=3, rounds=[(0, rec)]), path)
        assert path.read_text().splitlines()[1].endswith(",101")

    def test_read_csv_round_trip(self, tmp_path):
        theta = np.array([0.125, 0.375, 0.5])
        mask = np.array([True, False, True])
        history = RunHistory(K=3, rounds=[
            (m, RoundRecord(t, theta, mask, 1.25, 0.875))
            for m in range(2) for t in range(2)
        ])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(history, a)
        back = read_csv(a)
        assert back.K == 3
        assert [(m, r.round) for m, r in back.rounds] == [(0, 0), (0, 1),
                                                          (1, 0), (1, 1)]
        assert back.meta_losses == [] and back.logits == []
        for _, r in back.rounds:
            assert np.array_equal(r.theta, theta)
            assert np.array_equal(r.participation, mask)
            assert (r.val_loss, r.test_acc) == (1.25, 0.875)
        emit_csv(back, b)
        assert b.read_bytes() == a.read_bytes()


class TestEmitWeightsJson:
    def test_uniform_logits(self, tmp_path):
        path = tmp_path / "w.json"
        logits = np.zeros((4, 5))
        emit_weights_json(logits, "", path)
        doc = json.loads(path.read_text())
        assert doc["T"] == 4 and doc["K"] == 5
        assert all(row == [0.2] * 5 for row in doc["theta"])
        for z, theta in zip(logits, doc["theta"]):
            assert np.array(theta).tobytes() == softmax_weights(z).tobytes()

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 4))
        path = tmp_path / "w.json"
        emit_weights_json(logits, "abc", path)
        doc = load_weights_json(path)
        assert doc["logits"].tobytes() == logits.tobytes()
        for z, theta in zip(logits, doc["theta"]):
            assert theta.tobytes() == softmax_weights(z).tobytes()
        assert doc["K"] == 4 and doc["config_hash"] == "abc"


class TestRenderSvg:
    def test_render_charts_writes_every_kind(self, tmp_path):
        history = make_history(2, 3, K=3)
        render_charts(history, tmp_path)
        for kind in ("accuracy", "loss", "weights"):
            render_svg(history, kind, tmp_path / "one.svg")
            assert (tmp_path / f"{kind}.svg").read_bytes() == \
                (tmp_path / "one.svg").read_bytes()

    def test_two_point_history_one_polyline(self, tmp_path):
        path = tmp_path / "acc.svg"
        render_svg(make_history(1, 2), "accuracy", path)
        text = path.read_text()
        assert text.count("<polyline") == 1

    def test_weights_has_k_series(self, tmp_path):
        path = tmp_path / "w.svg"
        render_svg(make_history(1, 4, K=5), "weights", path)
        assert path.read_text().count("<polyline") == 5

    def test_well_formed_xml(self, tmp_path):
        for kind in ("accuracy", "loss", "weights"):
            path = tmp_path / f"{kind}.svg"
            render_svg(make_history(2, 3, K=3), kind, path)
            minidom.parse(str(path))  # raises on malformed XML

    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            render_svg(RunHistory(K=2, rounds=[]), "loss",
                       tmp_path / "x.svg")

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            render_svg(make_history(), "pie", tmp_path / "x.svg")
