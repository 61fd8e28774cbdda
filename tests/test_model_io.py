import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crl import (
    BinarizationManifest,
    CompanionEvaluator,
    DataError,
    Rule,
    RuleList,
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
            assert a == b and pa == pb

    def test_stats_carry_curve_values(self, d4):
        doc, c = trained_doc(d4)
        for m, rule in enumerate(doc.rules, start=1):
            assert rule.stats["transparency"] == c.points[m][0]
            assert rule.stats["accuracy"] == c.points[m][1]
            assert rule.stats["exclusive_support"] == c.level_stats(m)[0]
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

    @pytest.mark.parametrize(
        "stat, value",
        [
            ("transparency", "x"),
            ("transparency", 1.5),
            ("transparency", -0.25),
            ("accuracy", True),
            ("exclusive_support", None),
            ("rule_accuracy", math.inf),
            ("rule_accuracy", -1),
            ("accuracy", 7),
            ("exclusive_support", 2.5),
            ("exclusive_support", -2),
            # a 400-digit integer no float holds: it raised OverflowError
            pytest.param("transparency", int("9" * 400), id="transparency-400-digits"),
            pytest.param("exclusive_support", int("9" * 400), id="exclusive_support-400-digits"),
        ],
    )
    def test_stat_values_checked(self, d4, stat, value):
        obj = trained_doc(d4)[0].to_obj()
        obj["rules"][0]["stats"][stat] = value
        with pytest.raises(DataError, match="model schema violation"):
            model_from_obj(obj)

    def test_descending_transparencies_rejected(self, d4):
        obj = trained_doc(d4)[0].to_obj()
        first, second = (r["stats"] for r in obj["rules"])
        first["transparency"], second["transparency"] = 0.75, 0.5
        with pytest.raises(DataError, match="ascend"):
            model_from_obj(obj)

    def test_null_rule_accuracy_loads(self, d4):
        # a rule whose exclusive cover is empty has no rule-part accuracy
        obj = trained_doc(d4)[0].to_obj()
        obj["rules"][1]["stats"].update(exclusive_support=0, rule_accuracy=None)
        assert model_from_obj(obj).rules[1].stats["rule_accuracy"] is None

    def test_schema_error_names_the_file(self, d4, tmp_path):
        obj = trained_doc(d4)[0].to_obj()
        obj["rules"][0]["stats"]["transparency"] = "x"
        p = tmp_path / "m.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: model schema violation"):
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
        covered = c.covered_counts
        assert support == (0, *(b - a for a, b in zip(covered, covered[1:])))

    def test_level_zero_has_blank_rule_accuracy(self, d4, tmp_path):
        data, preds, rl = d4
        p = tmp_path / "curve.csv"
        save_curve_csv(p, curve(rl, data, preds))
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "level,transparency,accuracy,exclusive_support,rule_part_accuracy"
        assert lines[1].split(",")[4] == ""

    def test_shadowed_rule_has_blank_rule_accuracy(self, d4, tmp_path):
        # the second rule repeats the first one's condition, so it answers no row
        data, preds, _ = d4
        rl = RuleList((Rule((0,), 1), Rule((0,), 0)))
        p = tmp_path / "curve.csv"
        save_curve_csv(p, curve(rl, data, preds))
        lines = p.read_text().strip().splitlines()
        assert lines[3].split(",")[3:] == ["0", ""]


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


# A valid model (the 4-row worked example) and a valid manifest with one
# numeric column, and the path of every field of each that holds a JSON number.
VALID_MODEL = {
    "format": "crl-model",
    "version": 1,
    "rules": [
        {
            "conditions": ["f0"],
            "output": 1,
            "stats": {
                "exclusive_support": 2, "rule_accuracy": 0.5, "transparency": 0.5, "accuracy": 0.25
            },
        },
        {
            "conditions": ["f1"],
            "output": 1,
            "stats": {
                "exclusive_support": 1, "rule_accuracy": 1.0, "transparency": 0.75, "accuracy": 0.5
            },
        },
    ],
    "training": None,
}
VALID_MANIFEST = {
    "format": "crl-manifest",
    "version": 1,
    "label_column": "y",
    "positive_value": "1",
    "quantiles": 7,
    "columns": [
        {"name": "a", "kind": "numeric", "categories": ["bin0", "bin1"], "edges": [0.0, 1.0]},
    ],
}
NUMBER_FIELDS = [
    (model_from_obj, VALID_MODEL, ("version",)),
    *(
        (model_from_obj, VALID_MODEL, ("rules", i, *field))
        for i in range(2)
        for field in [("output",), *(("stats", k) for k in VALID_MODEL["rules"][0]["stats"])]
    ),
    (BinarizationManifest.from_obj, VALID_MANIFEST, ("version",)),
    (BinarizationManifest.from_obj, VALID_MANIFEST, ("quantiles",)),
    (BinarizationManifest.from_obj, VALID_MANIFEST, ("columns", 0, "edges", 0)),
    (BinarizationManifest.from_obj, VALID_MANIFEST, ("columns", 0, "edges", 1)),
]
JSON_SCALARS = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.integers(),
    st.integers(min_value=2**1024, max_value=2**1100),
    st.integers(min_value=-(2**1100), max_value=-(2**1024)),
    st.floats(),
)


@pytest.mark.parametrize(
    "reader, valid",
    [(model_from_obj, VALID_MODEL), (BinarizationManifest.from_obj, VALID_MANIFEST)],
)
def test_valid_objects_load(reader, valid):
    reader(copy.deepcopy(valid))


@given(field=st.sampled_from(NUMBER_FIELDS), value=JSON_SCALARS)
@example(field=NUMBER_FIELDS[0], value=True)
@example(field=NUMBER_FIELDS[-1], value=10**400)
@settings(max_examples=300, deadline=None)
def test_any_json_scalar_in_a_number_field_loads_or_is_data_error(field, value):
    reader, valid, path = field
    obj = copy.deepcopy(valid)
    *parents, key = path
    target = obj
    for k in parents:
        target = target[k]
    target[key] = value
    try:
        reader(obj)
    except DataError:
        return
    # true/false and text are never a number, whatever the field
    assert not isinstance(value, (bool, str)), f"{path} accepted {value!r}"
