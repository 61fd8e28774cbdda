import json

import numpy as np
import pytest

from crl import (
    CompanionEvaluator,
    DataError,
    curve,
    load_model,
    mine_rules,
    model_from_training,
    resolve_rules,
    save_model,
)
from crl.model_io import model_from_obj, save_curve_csv, save_pool, save_trace_csv
from crl.search import SearchStep, SearchTrace

from oracles import read_curve_csv


def trained_doc(d4):
    data, preds, rl = d4
    c = curve(rl, data, preds)
    return model_from_training(rl, data.feature_names, c, training={"n_rows": 4}), c


class TestModelRoundTrip:
    def test_save_load_save_is_byte_identical(self, d4, tmp_path):
        doc, _ = trained_doc(d4)
        p1 = tmp_path / "m1.json"
        p2 = tmp_path / "m2.json"
        save_model(p1, doc)
        save_model(p2, load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_reloaded_model_predicts_identically(self, d4, tmp_path):
        data, preds, rl = d4
        doc, _ = trained_doc(d4)
        p = tmp_path / "m.json"
        save_model(p, doc)
        reloaded = resolve_rules(load_model(p), data)
        ev1 = CompanionEvaluator(rl, data, preds)
        ev2 = CompanionEvaluator(reloaded, data, preds)
        for m in range(len(rl) + 1):
            a, pa = ev1.level_predictions(m)
            b, pb = ev2.level_predictions(m)
            assert a.tolist() == b.tolist() and pa.tolist() == pb.tolist()

    def test_stats_carry_curve_values(self, d4):
        doc, c = trained_doc(d4)
        for m, rule in enumerate(doc.rules, start=1):
            assert rule.stats["transparency"] == c.points[m][0]
            assert rule.stats["accuracy"] == c.points[m][1]
            assert rule.stats["exclusive_support"] == c.exclusive_counts[m]
        assert doc.level_transparencies() == [p[0] for p in c.points]

    def test_unresolvable_name_is_reported(self, d4, tmp_path):
        data, _, _ = d4
        doc, _ = trained_doc(d4)
        obj = doc.to_obj()
        obj["rules"][0]["conditions"] = ["ghost=1"]
        bad = model_from_obj(obj)
        with pytest.raises(DataError, match="ghost=1"):
            resolve_rules(bad, data)

    def test_schema_violations_rejected(self, tmp_path):
        for broken in (
            {"format": "other", "version": 1, "rules": [], "training": None},
            {"format": "crl-model", "version": 99, "rules": [], "training": None},
            {"format": "crl-model", "version": 1, "rules": [{}], "training": None},
            {"format": "crl-model", "version": 1, "rules": [], "training": None, "x": 1},
        ):
            p = tmp_path / "bad.json"
            p.write_text(json.dumps(broken))
            with pytest.raises(DataError, match="schema|format|version"):
                load_model(p)

    def test_not_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(DataError, match="JSON"):
            load_model(p)


class TestCurveCsv:
    def test_round_trip_points(self, d4, tmp_path):
        data, preds, rl = d4
        c = curve(rl, data, preds)
        p = tmp_path / "curve.csv"
        save_curve_csv(p, c)
        points, support = read_curve_csv(p)
        assert points == c.points
        assert support == c.exclusive_counts

    def test_level_zero_has_blank_rule_accuracy(self, d4, tmp_path):
        data, preds, rl = d4
        p = tmp_path / "curve.csv"
        save_curve_csv(p, curve(rl, data, preds))
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "level,transparency,accuracy,exclusive_support,rule_part_accuracy"
        assert lines[1].split(",")[4] == ""


class TestTraceCsv:
    def test_written_rows(self, tmp_path):
        trace = SearchTrace(
            steps=[
                SearchStep(1, "add", 0.5, True, 0.5),
                SearchStep(2, "swap", 0.4, False, 0.5),
            ],
        )
        p = tmp_path / "trace.csv"
        save_trace_csv(p, trace)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "iteration,op,proposed_objective,accepted,best_objective"
        assert lines[1] == "1,add,0.5,1,0.5"
        assert lines[2] == "2,swap,0.4,0,0.5"


class TestPoolJson:
    def test_exported_fields(self, d4, tmp_path):
        data, _, _ = d4
        pool = mine_rules(data, gamma=0.4, max_cardinality=2)
        p = tmp_path / "pool.json"
        save_pool(p, pool, data.feature_names)
        obj = json.loads(p.read_text())
        assert obj["format"] == "crl-pool"
        assert obj["gamma"] == 0.4
        assert len(obj["rules"]) == len(pool)
        for rec in obj["rules"]:
            assert rec["output"] in (0, 1)
            assert 0.0 < rec["support"] <= 1.0
            assert all(isinstance(c, str) and "=" not in c[:0] for c in rec["conditions"])
