import argparse
import csv
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import re
import signal
import time
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crl import (
    BinarizationManifest,
    CompanionEvaluator,
    apply_manifest,
    autac_hat,
    binarize,
    SearchConfig,
    curve,
    load_model,
    load_predictions,
    load_table,
    mine_rules,
    planted_benchmark,
    resolve_rules,
    split_folds,
)
from crl import cli, search
from crl.cli import main
from crl.data import synth_oracle
from crl.errors import SearchError
from crl.model_io import ModelDocument, ModelRule, save_model
from crl.streams import child_seeds

from oracles import read_curve_csv, simulate_first_match


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    assert run("synth", "--rows", 400, "--seed", 3, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def heldout_dir(tmp_path_factory):
    """A second synth table, drawn with another seed, for held-out prediction."""
    out = tmp_path_factory.mktemp("heldout")
    assert run("synth", "--rows", 400, "--seed", 4, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, bench_dir):
    out = tmp_path_factory.mktemp("trained")
    code = run(
        "train",
        "--data", bench_dir / "data.csv",
        "--label-column", "label",
        "--preds", bench_dir / "preds.txt",
        "--gamma", 0.1,
        "--iters", 2000,
        "--seed", 1,
        "--out", out,
    )
    assert code == 0
    return out


def autac_from_stdout(capsys):
    text = capsys.readouterr().out
    match = re.search(r"autac=([0-9.e-]+)", text)
    assert match, text
    return float(match.group(1))


class TestSynth:
    def test_artifacts_exist(self, bench_dir):
        assert (bench_dir / "data.csv").exists()
        assert (bench_dir / "preds.txt").exists()
        assert (bench_dir / "planted_model.json").exists()

    def test_predictions_align(self, bench_dir):
        table = load_table(bench_dir / "data.csv", "label")
        pv = load_predictions(bench_dir / "preds.txt", table.n_rows)
        assert len(pv) == 400

    def test_planted_feature_never_one_is_data_error(self, tmp_path, capsys):
        # with one row some planted column is constant 0, so "x=1" has no bin
        assert run("synth", "--rows", 1, "--out", tmp_path) == 3
        assert "never 1" in one_error_line(capsys, "data error")

    @pytest.mark.parametrize("rows, seed", [(50, 3), (300, 4), (1000, 7)])
    def test_planted_model_names_the_planted_list(self, tmp_path, capsys, rows, seed):
        # GOLDEN_DIGESTS pins one (rows, seed); these check the planted model elsewhere
        assert run("synth", "--rows", rows, "--seed", seed, "--out", tmp_path) == 0
        bench = planted_benchmark(n_rows=rows, seed=seed)
        manifest = BinarizationManifest.load(tmp_path / "manifest.json")
        doc = load_model(tmp_path / "planted_model.json")
        names = set(manifest.feature_names())
        assert all(set(r.conditions) <= names for r in doc.rules)
        capsys.readouterr()
        code = run(
            "evaluate", "--data", tmp_path / "data.csv", "--label-column", "label",
            "--preds", tmp_path / "preds.txt", "--model", tmp_path / "planted_model.json",
            "--manifest", tmp_path / "manifest.json",
        )
        assert code == 0
        expected = autac_hat(curve(bench.planted, bench.data, bench.preds))
        assert autac_from_stdout(capsys) == expected


class TestTrain:
    def test_artifacts(self, trained_dir):
        for name in ("model.json", "curve.csv", "trace.csv", "manifest.json"):
            assert (trained_dir / name).exists()

    def test_curve_csv_matches_recomputed_points(self, bench_dir, trained_dir):
        table = load_table(bench_dir / "data.csv", "label")
        manifest = BinarizationManifest.load(trained_dir / "manifest.json")
        data = apply_manifest(table, manifest)
        preds = load_predictions(bench_dir / "preds.txt", data.n_rows)
        rules = resolve_rules(load_model(trained_dir / "model.json"), data)
        expected = curve(rules, data, preds)
        stored, _ = read_curve_csv(trained_dir / "curve.csv")
        assert stored == expected.points

    def test_perfect_oracle_endpoint(self, bench_dir, tmp_path):
        out = tmp_path / "perfect"
        code = run(
            "train",
            "--data", bench_dir / "data.csv",
            "--label-column", "label",
            "--oracle-accuracy", 1.0,
            "--gamma", 0.1,
            "--iters", 200,
            "--out", out,
        )
        assert code == 0
        stored, _ = read_curve_csv(out / "curve.csv")
        assert stored[0] == (0.0, 1.0)

    def test_missing_predictions_is_usage_error(self, bench_dir, tmp_path):
        code = run(
            "train",
            "--data", bench_dir / "data.csv",
            "--label-column", "label",
            "--out", tmp_path / "x",
        )
        assert code == 2

    def test_oversized_init_is_search_error(self, bench_dir, tmp_path):
        code = run(
            "train",
            "--data", bench_dir / "data.csv",
            "--label-column", "label",
            "--preds", bench_dir / "preds.txt",
            "--gamma", 0.45,
            "--max-card", 1,
            "--init-size", 500,
            "--iters", 10,
            "--out", tmp_path / "x",
        )
        assert code == 4

    def test_missing_file_is_data_error(self, tmp_path):
        code = run(
            "train",
            "--data", tmp_path / "nope.csv",
            "--label-column", "y",
            "--oracle-accuracy", 0.9,
            "--out", tmp_path / "x",
        )
        assert code == 3

    def test_config_file_supplies_knobs_flags_win(self, bench_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alpha": 0.01, "iters": 50, "gamma": 0.1}))
        out = tmp_path / "cfgrun"
        code = run(
            "train",
            "--data", bench_dir / "data.csv",
            "--label-column", "label",
            "--preds", bench_dir / "preds.txt",
            "--config", cfg_path,
            "--iters", 120,  # flag beats config
            "--out", out,
        )
        assert code == 0
        model = json.loads((out / "model.json").read_text())
        assert model["training"]["alpha"] == 0.01
        trace_rows = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace_rows) == 1 + 120

    def test_unknown_config_key_is_usage_error(self, bench_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"temperature": 1}))
        code = run(
            "train",
            "--data", bench_dir / "data.csv",
            "--label-column", "label",
            "--preds", bench_dir / "preds.txt",
            "--config", cfg_path,
            "--out", tmp_path / "x",
        )
        assert code == 2

    def test_worked_example_fixture_curve_is_rederivable(self, tmp_path):
        # 4-row fixture with a hand-checkable curve: train, then recompute the
        # emitted curve points from the stored model with the library alone
        data_path = tmp_path / "d4.csv"
        data_path.write_text("f0,f1,f2,y\n1,0,1,1\n1,1,0,0\n0,1,1,1\n0,0,0,0\n")
        preds_path = tmp_path / "b.txt"
        preds_path.write_text("1\n0\n0\n1\n")
        out = tmp_path / "d4run"
        code = run(
            "train",
            "--data", data_path,
            "--label-column", "y",
            "--preds", preds_path,
            "--alpha", 0.01,
            "--gamma", 0.25,
            "--iters", 400,
            "--seed", 2,
            "--out", out,
        )
        assert code == 0
        table = load_table(data_path, "y")
        manifest = BinarizationManifest.load(out / "manifest.json")
        data = apply_manifest(table, manifest)
        preds = load_predictions(preds_path, 4)
        rules = resolve_rules(load_model(out / "model.json"), data)
        assert read_curve_csv(out / "curve.csv")[0] == curve(rules, data, preds).points


class TestEvaluate:
    def test_training_data_reproduces_training_curve(
        self, bench_dir, trained_dir, tmp_path, capsys
    ):
        curve_out = tmp_path / "eval_curve.csv"
        code = run(
            "evaluate",
            "--data", bench_dir / "data.csv",
            "--label-column", "label",
            "--preds", bench_dir / "preds.txt",
            "--model", trained_dir / "model.json",
            "--manifest", trained_dir / "manifest.json",
            "--curve-out", curve_out,
        )
        assert code == 0
        assert curve_out.read_bytes() == (trained_dir / "curve.csv").read_bytes()

    def test_unresolvable_feature_named(self, bench_dir, trained_dir, tmp_path, capsys):
        from crl.model_io import ModelRule

        broken = ModelDocument(rules=(ModelRule(("ghost=1",), 1, None),), training=None)
        bad_path = tmp_path / "bad.json"
        save_model(bad_path, broken)
        code = run(
            "evaluate",
            "--data", bench_dir / "data.csv",
            "--label-column", "label",
            "--preds", bench_dir / "preds.txt",
            "--model", bad_path,
            "--manifest", trained_dir / "manifest.json",
        )
        assert code == 3
        assert "ghost=1" in capsys.readouterr().err


class TestPair:
    def test_same_autac_as_evaluate(self, bench_dir, trained_dir, capsys):
        args = (
            "--data", bench_dir / "data.csv",
            "--label-column", "label",
            "--preds", bench_dir / "preds.txt",
            "--model", trained_dir / "model.json",
            "--manifest", trained_dir / "manifest.json",
        )
        assert run("evaluate", *args) == 0
        a1 = autac_from_stdout(capsys)
        assert run("pair", *args) == 0
        a2 = autac_from_stdout(capsys)
        assert a1 == a2

    def test_empty_list_scores_zero(self, bench_dir, trained_dir, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        save_model(empty, ModelDocument(rules=(), training=None))
        code = run(
            "pair",
            "--data", bench_dir / "data.csv",
            "--label-column", "label",
            "--preds", bench_dir / "preds.txt",
            "--model", empty,
            "--manifest", trained_dir / "manifest.json",
        )
        assert code == 0
        assert autac_from_stdout(capsys) == 0.0

    def test_degraded_import_scores_lower(self, bench_dir, trained_dir, tmp_path, capsys):
        doc = load_model(trained_dir / "model.json")
        truncated = ModelDocument(rules=doc.rules[-1:], training=None)
        trunc_path = tmp_path / "trunc.json"
        save_model(trunc_path, truncated)
        common = (
            "--data", bench_dir / "data.csv",
            "--label-column", "label",
            "--preds", bench_dir / "preds.txt",
            "--manifest", trained_dir / "manifest.json",
        )
        assert run("pair", *common, "--model", trained_dir / "model.json") == 0
        full = autac_from_stdout(capsys)
        assert run("pair", *common, "--model", trunc_path) == 0
        degraded = autac_from_stdout(capsys)
        assert degraded < full


class TestPredict:
    def common(self, bench_dir, trained_dir, model=None):
        return (
            "--data", bench_dir / "data.csv",
            "--label-column", "label",
            "--preds", bench_dir / "preds.txt",
            "--model", model or trained_dir / "model.json",
            "--manifest", trained_dir / "manifest.json",
        )

    def read_preds(self, path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return [int(r["prediction"]) for r in rows], [r["provenance"] for r in rows]

    def test_level_zero_equals_predictions_file(self, bench_dir, trained_dir, tmp_path):
        out = tmp_path / "p.csv"
        assert run("predict", *self.common(bench_dir, trained_dir), "--level", 0, "--out", out) == 0
        preds, prov = self.read_preds(out)
        file_preds = [int(x) for x in (bench_dir / "preds.txt").read_text().split()]
        assert preds == file_preds
        assert set(prov) == {"blackbox"}

    def test_transparency_boundary_equals_level(self, bench_dir, trained_dir, tmp_path):
        stored, _ = read_curve_csv(trained_dir / "curve.csv")
        t1 = stored[1][0]
        out_level = tmp_path / "level.csv"
        out_stoch = tmp_path / "stoch.csv"
        common = self.common(bench_dir, trained_dir)
        assert run("predict", *common, "--level", 1, "--out", out_level) == 0
        assert run(
            "predict", *common, "--transparency", t1, "--seed", 9, "--out", out_stoch
        ) == 0
        assert self.read_preds(out_level) == self.read_preds(out_stoch)

    def test_provenance_counts_match_exclusive_covers(
        self, bench_dir, trained_dir, tmp_path
    ):
        out = tmp_path / "full.csv"
        assert run("predict", *self.common(bench_dir, trained_dir), "--all-rules", "--out", out) == 0
        _, prov = self.read_preds(out)
        table = load_table(bench_dir / "data.csv", "label")
        manifest = BinarizationManifest.load(trained_dir / "manifest.json")
        data = apply_manifest(table, manifest)
        rules = resolve_rules(load_model(trained_dir / "model.json"), data)
        match = simulate_first_match([(r.conditions, r.output) for r in rules], data.matrix)
        for k in range(len(rules)):
            assert prov.count(str(k + 1)) == int((match == k).sum())

    def test_all_blackbox_mode(self, bench_dir, trained_dir, tmp_path):
        out = tmp_path / "bb.csv"
        assert run("predict", *self.common(bench_dir, trained_dir), "--all-blackbox", "--out", out) == 0
        _, prov = self.read_preds(out)
        assert set(prov) == {"blackbox"}

    def test_mode_flags_mutually_exclusive(self, bench_dir, trained_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(
                "predict",
                *self.common(bench_dir, trained_dir),
                "--level", 0,
                "--all-rules",
                "--out", tmp_path / "x.csv",
            )
        assert exc.value.code == 2

    def test_transparency_out_of_range(self, bench_dir, trained_dir, tmp_path):
        code = run(
            "predict",
            *self.common(bench_dir, trained_dir),
            "--transparency", 1.5,
            "--out", tmp_path / "x.csv",
        )
        assert code == 3

    @pytest.mark.parametrize("t", [-0.5, float("nan")])
    def test_negative_or_nan_transparency_names_the_allowed_range(
        self, bench_dir, trained_dir, tmp_path, capsys, t
    ):
        # neither value exceeds the list's coverage, so the message must not say so
        coverage = load_model(trained_dir / "model.json").level_transparencies()[-1]
        common = self.common(bench_dir, trained_dir)
        capsys.readouterr()
        assert run("predict", *common, f"--transparency={t}", "--out", tmp_path / "x.csv") == 3
        line = one_error_line(capsys, "data error")
        assert line == f"data error: transparency {t} is not in [0, {coverage}]", line

    def test_transparency_boundary_equals_level_on_held_out_data(
        self, heldout_dir, trained_dir, tmp_path
    ):
        # t maps through the stored training-time levels, not the held-out curve
        ts = load_model(trained_dir / "model.json").level_transparencies()
        common = self.common(heldout_dir, trained_dir)
        curve_out = tmp_path / "heldout_curve.csv"
        assert run("evaluate", *common, "--curve-out", curve_out) == 0
        assert tuple(p[0] for p in read_curve_csv(curve_out)[0]) != tuple(ts)
        for m, t in enumerate(ts):
            last = max(k for k, u in enumerate(ts) if u == t)  # ties take the last level
            out_level, out_stoch = tmp_path / f"level{m}.csv", tmp_path / f"stoch{m}.csv"
            assert run("predict", *common, "--level", last, "--out", out_level) == 0
            assert run(
                "predict", *common, "--transparency", t, "--seed", 9, "--out", out_stoch
            ) == 0
            assert out_stoch.read_bytes() == out_level.read_bytes(), m

    def test_rows_answer_independently_of_their_batch(self, bench_dir, trained_dir, tmp_path):
        k = 150
        head = tmp_path / "head"
        head.mkdir()
        for name, keep in (("data.csv", k + 1), ("preds.txt", k)):
            lines = (bench_dir / name).read_bytes().splitlines(keepends=True)
            (head / name).write_bytes(b"".join(lines[:keep]))
        ts = load_model(trained_dir / "model.json").level_transparencies()
        for i, t in enumerate((a + b) / 2 for a, b in zip(ts, ts[1:])):
            full, part = tmp_path / f"full{i}.csv", tmp_path / f"part{i}.csv"
            for data_dir, out in ((bench_dir, full), (head, part)):
                common = self.common(data_dir, trained_dir)
                assert run("predict", *common, "--transparency", t, "--out", out) == 0
            want = full.read_bytes().splitlines(keepends=True)[: k + 1]
            assert part.read_bytes().splitlines(keepends=True) == want, t

    def test_model_without_statistics_refuses_transparency(
        self, bench_dir, trained_dir, tmp_path, capsys
    ):
        # an imported model (as `pair` scores) may carry "stats": null
        obj = json.loads((trained_dir / "model.json").read_text())
        for rule in obj["rules"]:
            rule["stats"] = None
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(obj))
        common = self.common(bench_dir, trained_dir, model=bare)
        capsys.readouterr()
        assert run("predict", *common, "--transparency", 0.1, "--out", tmp_path / "p.csv") == 3
        line = one_error_line(capsys, "data error")
        assert line.startswith(f"data error: {bare}: ") and "--level works" in line, line
        assert run("predict", *common, "--level", 1, "--out", tmp_path / "p.csv") == 0


class TestMineAndTune:
    def test_mine_writes_pool(self, bench_dir, tmp_path):
        out = tmp_path / "pool.json"
        code = run(
            "mine",
            "--data", bench_dir / "data.csv",
            "--label-column", "label",
            "--gamma", 0.1,
            "--out", out,
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["rules"]

    def test_repeated_candidate_is_usage_error(self, bench_dir, tmp_path, capsys):
        # the repeats would run chains that differ only in their seeds
        code = run(
            "tune",
            "--data", bench_dir / "data.csv",
            "--label-column", "label",
            "--preds", bench_dir / "preds.txt",
            "--iters", 20,
            "--candidates", "0.01,0.01,0.010",
            "--out", tmp_path / "tune.json",
        )
        assert code == 2
        line = one_error_line(capsys, "usage error")
        assert line == "usage error: --candidates: alpha candidate 0.01 is given more than once"
        assert not (tmp_path / "tune.json").exists()

    def test_tune_report(self, bench_dir, tmp_path):
        out = tmp_path / "tune.json"
        code = run(
            "tune",
            "--data", bench_dir / "data.csv",
            "--label-column", "label",
            "--preds", bench_dir / "preds.txt",
            "--gamma", 0.1,
            "--iters", 300,
            "--candidates", "0.01,0.001",
            "--out", out,
            "--model-out", tmp_path / "tuned.json",
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["chosen_alpha"] in (0.01, 0.001)
        assert len(obj["candidates"]) == 2
        assert (tmp_path / "tuned.json").exists()

    def test_worker_count_leaves_tune_output_byte_identical(self, worker_runs):
        runs = [worker_runs(n, "tune") for n in (1, 2)]
        assert [code for code, *_ in runs] == [0, 0]
        assert runs[0][1] == runs[1][1]
        trees = [output_tree(out) for *_, out in runs]
        assert trees[0] == trees[1]
        assert sorted(map(str, trees[0])) == ["model.json", "report.json"]


def write_random_csv(path, n_rows, seed):
    # balanced labels keep the stratified 5-fold split at exact 80/20 sizes
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c", "y"])
        for i in range(n_rows):
            writer.writerow(
                [
                    round(float(rng.random()), 4),
                    int(rng.integers(0, 3)),
                    round(float(rng.random()), 4),
                    i % 2,
                ]
            )


def planted_search_error():
    raise SearchError("planted failure")


def dead_worker(written):
    """End this worker with exit code 9 once the parent has written ``written``.

    The run fails only the chain a dead worker held, so waiting fixes the
    point of the run at which the worker dies, not which chains finish; the
    wait is bounded, so a parent that never writes the file still sees the
    worker die.
    """
    deadline = time.monotonic() + 30
    while not written.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    os._exit(9)


@pytest.fixture
def worker_runs(tmp_path, monkeypatch, capsys):
    """Run cv or tune with a given worker count; (exit code, stdout, stderr, out dir).

    cv writes its directory ``cv{workers}``; tune writes ``report.json`` and
    ``model.json`` into ``tune{workers}``. Both read the same table and seed.
    """
    data_path = tmp_path / "d.csv"
    write_random_csv(data_path, 100, seed=3)

    def run_with(workers, command="cv"):
        monkeypatch.setattr(search, "_usable_cpus", lambda: workers)
        out = tmp_path / f"{command}{workers}"
        common = (
            "--data", data_path, "--label-column", "y", "--oracle-accuracy", 0.8,
            "--oracle-seed", 17, "--seed", 5, "--gamma", 0.1, "--iters", 200,
        )
        if command == "cv":
            argv = ("cv", *common, "--folds", 5, "--out", out)
        else:
            out.mkdir()
            argv = (
                "tune", *common, "--out", out / "report.json", "--model-out", out / "model.json"
            )
        capsys.readouterr()
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)  # a run that waits forever on a lost chain fails instead
        try:
            code = run(*argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out

    def hung(signum, frame):
        pytest.fail("the run did not finish in 60 s")

    return run_with


def output_tree(out):
    """Every file under ``out`` by its relative path, with its bytes."""
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class TestCv:
    def run_cv(self, data_path, out, accuracy, seed=5):
        return run(
            "cv",
            "--data", data_path,
            "--label-column", "y",
            "--oracle-accuracy", accuracy,
            "--oracle-seed", 17,
            "--folds", 5,
            "--seed", seed,
            "--gamma", 0.1,
            "--iters", 200,
            "--out", out,
        )

    def test_report_and_fold_sizes(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_random_csv(data_path, 100, seed=0)
        out = tmp_path / "cv"
        assert self.run_cv(data_path, out, 0.9) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["folds"]) == 5
        for f in report["folds"]:
            assert f["n_rows_train"] == 80 and f["n_rows_test"] == 20
        # report arithmetic is recomputable from the per-fold curve files
        autacs = []
        for i in range(5):
            stored, _ = read_curve_csv(out / f"fold_{i}" / "curve_test.csv")
            s = 0.0
            for (t0, a0), (t1, a1) in zip(stored, stored[1:]):
                s += (a1 + a0) * (t1 - t0)
            autacs.append(0.5 * s)
        assert report["autac_mean"] == float(np.mean(autacs))
        assert report["autac_std"] == float(np.std(autacs, ddof=1))
        assert (out / "report.txt").exists()

    def test_deterministic_reports(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_random_csv(data_path, 100, seed=1)
        out1, out2 = tmp_path / "cv1", tmp_path / "cv2"
        assert self.run_cv(data_path, out1, 0.8) == 0
        assert self.run_cv(data_path, out2, 0.8) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_blackbox_accuracy_tracks_oracle(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_random_csv(data_path, 1000, seed=2)
        high, low = tmp_path / "hi", tmp_path / "lo"
        assert self.run_cv(data_path, high, 0.9) == 0
        assert self.run_cv(data_path, low, 0.7) == 0
        hi = json.loads((high / "report.json").read_text())["blackbox_accuracy_mean"]
        lo = json.loads((low / "report.json").read_text())["blackbox_accuracy_mean"]
        assert abs(hi - 0.9) <= 0.03
        assert abs(lo - 0.7) <= 0.03

    def test_worker_count_leaves_output_byte_identical(self, worker_runs):
        runs = [worker_runs(n) for n in (1, 2)]
        trees = []
        for code, stdout, _, out in runs:
            assert code == 0
            trees.append(output_tree(out))
        assert runs[0][1] == runs[1][1]
        assert trees[0] == trees[1]
        assert len(trees[0]) == 3 + 4 * 5  # manifest, report.json/txt; 4 files per fold

    def test_a_fold_reply_holds_its_trace_as_text(self, worker_runs, monkeypatch):
        # a reply crosses a worker's pipe: it carries trace.csv's text, not a
        # SearchTrace of one step object per iteration
        replies = []
        real = cli._run_chains

        def recording(job, n, noun):
            with closing(real(job, n, noun)) as chains:
                for reply in chains:
                    replies.append(reply)
                    yield reply

        monkeypatch.setattr(cli, "_run_chains", recording)
        code, _, _, out = worker_runs(2)
        assert code == 0
        assert len(replies) == 5
        for i, (result, _, trace_text) in enumerate(replies):
            assert result.trace is None
            assert trace_text.encode() == (out / f"fold_{i}" / "trace.csv").read_bytes()

    @pytest.mark.parametrize(
        "workers, fail, message",
        [
            (1, planted_search_error, "fold 2: planted failure"),
            (2, planted_search_error, "fold 2: planted failure"),
            # a dead worker fails only the fold it held, and no later fold starts;
            # fold 2's worker ends once fold 1 is written
            (2, dead_worker, "a worker process ended before fold 2 returned"),
        ],
        ids=["one-worker", "two-workers", "dead-worker"],
    )
    def test_failing_fold_stops_the_run(
        self, worker_runs, monkeypatch, tmp_path, workers, fail, message
    ):
        failing = child_seeds(5, 5)[2]  # fold 2 of worker_runs' seed
        real = cli.run_search
        if fail is dead_worker:
            fail = functools.partial(dead_worker, tmp_path / "cv2" / "fold_1" / "trace.csv")

        def run_search(data, preds, pool, config):
            if config.seed == failing:
                fail()
            return real(data, preds, pool, config)

        monkeypatch.setattr(cli, "run_search", run_search)
        code, _, err, out = worker_runs(workers)
        assert code == 4
        assert err.splitlines() == [f"search error: {message}"]
        assert [(out / f"fold_{i}").exists() for i in range(5)] == [True] * 2 + [False] * 3
        assert (out / "fold_1" / "trace.csv").exists()

    @pytest.mark.parametrize(
        "command, fail, code",
        [
            (command, fail, code)
            for command in ("cv", "tune")
            for fail, code in (
                (None, 0), (planted_search_error, 4), (functools.partial(os._exit, 9), 4)
            )
        ],
        ids=[
            "success", "failing-fold", "dead-worker",
            "tune-success", "tune-failing-candidate", "tune-dead-worker",
        ],
    )
    def test_no_worker_outlives_the_run(self, worker_runs, monkeypatch, command, fail, code):
        # fold 2 of cv, or candidate 2 of tune's 7, at worker_runs' seed
        failing = child_seeds(5, 5 if command == "cv" else 7)[2]
        owner = cli if command == "cv" else search  # the module whose run_search is called
        real_search, real_fork = owner.run_search, os.fork
        forked = []

        def run_search(data, preds, pool, config):
            if fail is not None and config.seed == failing:
                fail()
            return real_search(data, preds, pool, config)

        def fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(owner, "run_search", run_search)
        monkeypatch.setattr(os, "fork", fork)
        assert worker_runs(2, command)[0] == code
        assert len(forked) >= 2
        left = []  # children not yet reaped; WNOWAIT leaves them to their reaper
        for pid in forked:
            try:
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
            except ChildProcessError:  # the run has reaped it
                continue
            left.append(pid)
        assert left == []

    def test_unstratified_fallback_warns_in_one_line(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        data_path = tmp_path / "small.csv"
        positives = {7, 31, 52}
        rows = [
            f"{rng.integers(4)},{'xyz'[rng.integers(3)]},{int(i in positives)}" for i in range(60)
        ]
        data_path.write_text("a,b,y\n" + "\n".join(rows) + "\n")
        code = run(
            "cv",
            "--data", data_path,
            "--label-column", "y",
            "--oracle-accuracy", 0.8,
            "--folds", 5,
            "--gamma", 0.01,
            "--iters", 200,
            "--seed", 9,
            "--out", tmp_path / "cv",
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.splitlines() == [
            "warning: a label class has fewer members than folds; "
            "falling back to an unstratified split"
        ]
        assert captured.out.startswith("fold  rules  train_autac  test_autac\n")

    def test_search_knob_error_comes_before_the_output_directory(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        write_random_csv(data_path, 100, seed=0)
        out = tmp_path / "cv"
        code = run(
            "cv", "--data", data_path, "--label-column", "y", "--oracle-accuracy", 0.8,
            "--alpha", -1, "--out", out,
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "usage error: search options: alpha must be a finite number >= 0"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mining_knob_error_names_no_fold(self, tmp_path, capsys, monkeypatch, workers):
        # a bad flag is the run's error, not fold 0's
        monkeypatch.setattr(search, "_usable_cpus", lambda: workers)
        data_path = tmp_path / "d.csv"
        write_random_csv(data_path, 100, seed=0)
        code = run(
            "cv", "--data", data_path, "--label-column", "y", "--oracle-accuracy", 0.8,
            "--gamma", 2, "--iters", 20, "--out", tmp_path / "cv",
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "usage error: mining options: gamma must be in (0, 1]"
        ]


@pytest.mark.parametrize(
    "argv, code",
    [
        (("train", "--data", "missing.csv", "--oracle-accuracy", 0.8), 3),
        (("cv", "--data", "d.csv", "--preds", "missing.txt"), 3),
        (("synth", "--oracle-accuracy", 2), 2),
        (("train", "--data", "d.csv", "--oracle-accuracy", 0.8, "--init-size", 100_000), 4),
    ],
    ids=["train-missing-data", "cv-missing-preds", "synth-bad-accuracy", "train-search-error"],
)
def test_failed_run_creates_no_output_directory(tmp_path, capsys, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    write_random_csv(tmp_path / "d.csv", 100, seed=0)
    command, *rest = argv
    if command != "synth":
        rest += ["--label-column", "y", "--iters", 20]
    assert run(command, *rest, "--out", "out") == code
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_quantiles_cap_holds_for_a_config_value(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"quantiles": 1001}')
    code = run(
        "train", "--data", tmp_path / "absent.csv", "--label-column", "y",
        "--oracle-accuracy", 0.8, "--config", config, "--out", tmp_path / "out",
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["usage error: --quantiles must be <= 1000"]


def test_unseen_held_out_cells_are_counted_in_one_warning(tmp_path, capsys):
    rng = np.random.default_rng(8)
    rows = [(f"{rng.random():.4f}", "xyz"[rng.integers(3)], i % 2) for i in range(120)]
    data_path = tmp_path / "d.csv"
    data_path.write_text("n,a,y\n" + "".join(f"{n},{a},{y}\n" for n, a, y in rows))
    common = ("--label-column", "y", "--oracle-accuracy", 0.8)
    out = tmp_path / "model"
    assert run("train", "--data", data_path, *common, "--iters", 50, "--out", out) == 0
    # three cells of a in a new category, one blank n where training had none
    held_out = [
        ("" if i == 5 else n, "w" if i in (1, 2, 40) else a, y) for i, (n, a, y) in enumerate(rows)
    ]
    held_path = tmp_path / "held_out.csv"
    held_path.write_text("n,a,y\n" + "".join(f"{n},{a},{y}\n" for n, a, y in held_out))
    capsys.readouterr()
    code = run(
        "evaluate", "--data", held_path, *common, "--model", out / "model.json",
        "--manifest", out / "manifest.json",
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.splitlines() == [
        "warning: cells in a category unseen at fit set no bit: n 1, a 3"
    ]
    manifest = BinarizationManifest.load(out / "manifest.json")
    with pytest.warns(UserWarning):
        data = apply_manifest(load_table(held_path, "y"), manifest)
    preds = synth_oracle(data.labels, 0.8, 0)
    evaluator = CompanionEvaluator(resolve_rules(load_model(out / "model.json"), data), data, preds)
    assert captured.out == (
        f"autac={evaluator.autac()!r} coverage={evaluator.curve.coverage!r} "
        f"blackbox_accuracy={evaluator.curve.points[0][1]!r}\n"
    )


def one_error_line(capsys, kind):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{kind}: "), err
    return err[0]


class TestModelWithoutManifest:
    # Without --manifest a held-out table is binarized on its own rows. Its
    # ages are shifted by +15, so "age=binK" would name another range of ages
    # there: the run exited 0 with a wrong curve before it was refused.
    @pytest.fixture
    def shifted_age(self, tmp_path):
        rng = np.random.default_rng(12)

        def write(path, shift):
            age = rng.normal(40, 10, 600)
            color = rng.choice(["red", "green", "blue"], 600)
            y = (age > 45) ^ (rng.random(600) < 0.1)
            path.write_text(
                "age,color,y\n"
                + "".join(f"{a + shift:.1f},{c},{int(v)}\n" for a, c, v in zip(age, color, y))
            )

        write(tmp_path / "train.csv", 0)
        write(tmp_path / "held_out.csv", 15)
        common = ("--label-column", "y", "--oracle-accuracy", 0.8)
        out = tmp_path / "run"
        assert run("train", "--data", tmp_path / "train.csv", *common, "--out", out) == 0
        conditions = {c for r in load_model(out / "model.json").rules for c in r.conditions}
        assert any(c.startswith("age=bin") for c in conditions)
        return ("--data", tmp_path / "held_out.csv", *common), out

    @pytest.mark.parametrize(
        "command, mode",
        [("evaluate", ()), ("pair", ()), ("predict", ("--level", 1, "--out", "p.csv"))],
    )
    def test_binned_model_is_refused_without_the_training_manifest(
        self, shifted_age, tmp_path, capsys, command, mode
    ):
        common, out = shifted_age
        mode = tuple(tmp_path / m if m == "p.csv" else m for m in mode)
        argv = (command, *common, "--model", out / "model.json", *mode)
        capsys.readouterr()
        assert run(*argv) == 2
        assert re.fullmatch(
            r"usage error: model names 'age=bin\d+', a quantile bin fitted on the rows "
            r"being scored; pass the training --manifest",
            one_error_line(capsys, "usage error"),
        )
        assert not (tmp_path / "p.csv").exists()
        assert run(*argv, "--manifest", out / "manifest.json") == 0

    def test_categorical_model_runs_without_a_manifest(self, shifted_age, tmp_path, capsys):
        common, _ = shifted_age
        model = tmp_path / "red.json"
        save_model(model, ModelDocument((ModelRule(("color=red",), 1, None),), None))
        capsys.readouterr()
        assert run("evaluate", *common, "--model", model) == 0
        assert capsys.readouterr().out.startswith("autac=")


class TestManifestReuse:
    @pytest.fixture
    def yes_no_run(self, tmp_path):
        # label "no" is the positive class; the default mapping would pick "yes"
        rng = np.random.default_rng(4)
        a = rng.integers(0, 4, size=200)
        y = np.where(rng.random(200) < 0.2, a >= 2, a < 2)
        data_path = tmp_path / "d.csv"
        data_path.write_text(
            "a,y\n" + "".join(f"{v},{'no' if p else 'yes'}\n" for v, p in zip(a, y))
        )
        preds_path = tmp_path / "p.txt"
        preds_path.write_text("".join(f"{int(p)}\n" for p in rng.random(200) < 0.5))
        common = ("--data", data_path, "--label-column", "y", "--preds", preds_path)
        out = tmp_path / "run"
        assert run(
            "train", *common, "--positive-value", "no", "--gamma", 0.1, "--iters", 200,
            "--out", out,
        ) == 0
        reuse = (*common, "--model", out / "model.json", "--manifest", out / "manifest.json")
        return out, reuse

    def test_manifest_positive_value_is_applied(self, yes_no_run, capsys):
        out, reuse = yes_no_run
        trained = load_model(out / "model.json").training["autac"]
        capsys.readouterr()
        assert run("evaluate", *reuse) == 0
        assert autac_from_stdout(capsys) == trained

    @pytest.mark.parametrize(
        "flag, value", [("--positive-value", "yes"), ("--label-column", "a")]
    )
    def test_flag_disagreeing_with_manifest_is_usage_error(
        self, yes_no_run, capsys, flag, value
    ):
        _, reuse = yes_no_run
        capsys.readouterr()
        assert run("evaluate", *reuse, flag, value) == 2
        assert "manifest" in one_error_line(capsys, "usage error")

    def test_held_out_labels_without_positive_value_are_data_error(
        self, yes_no_run, tmp_path, capsys
    ):
        # the training rows relabelled 1/0 never name the manifest's "no"
        out, _ = yes_no_run
        lines = (tmp_path / "d.csv").read_text().splitlines()
        relabelled = [lines[0]] + [
            line.replace(",no", ",1").replace(",yes", ",0") for line in lines[1:]
        ]
        data_path = tmp_path / "relabelled.csv"
        data_path.write_text("\n".join(relabelled) + "\n")
        preds_path = tmp_path / "perfect.txt"
        preds_path.write_text("".join(line[-1] + "\n" for line in relabelled[1:]))
        capsys.readouterr()
        code = run(
            "evaluate", "--data", data_path, "--label-column", "y", "--preds", preds_path,
            "--model", out / "model.json", "--manifest", out / "manifest.json",
        )
        assert code == 3
        assert "'y'" in (line := one_error_line(capsys, "data error")) and "'no'" in line


    def test_numeric_positive_value_in_manifest_is_data_error(
        self, yes_no_run, tmp_path, capsys
    ):
        # read as the number 1, every "no" label of the held-out rows became 0
        out, _ = yes_no_run
        obj = json.loads((out / "manifest.json").read_text())
        obj["positive_value"] = 1
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(obj))
        data_path, preds_path = tmp_path / "held_out.csv", tmp_path / "held_out.txt"
        data_path.write_text("a,y\n0,no\n3,no\n")
        preds_path.write_text("1\n0\n")
        capsys.readouterr()
        code = run(
            "evaluate", "--data", data_path, "--label-column", "y", "--preds", preds_path,
            "--model", out / "model.json", "--manifest", bad,
        )
        assert code == 3
        line = one_error_line(capsys, "data error")
        assert line.startswith(f"data error: {bad}: ") and "positive_value 1" in line, line

    def test_non_string_category_in_manifest_is_data_error(self, yes_no_run, tmp_path, capsys):
        # a numeric category can never match a cell, so it silently set no bit
        out, reuse = yes_no_run
        obj = json.loads((out / "manifest.json").read_text())
        obj["columns"][0]["categories"][0] = 0
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        code = run("evaluate", *reuse[:-1], bad)  # the edited manifest in place of the trained one
        assert code == 3
        line = one_error_line(capsys, "data error")
        assert line.startswith(f"data error: {bad}: ") and "list of strings" in line, line

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.update(version=99), "unknown manifest version 99"),
            (lambda m: m.update(version=True), "unknown manifest version True"),
            (lambda m: m.update(quantiles="x"), "manifest quantiles 'x' is not an integer >= 2"),
            (lambda m: m.update(quantiles=1), "manifest quantiles 1 is not an integer >= 2"),
            (lambda m: m.update(quantiles=True), "manifest quantiles True is not an integer"),
            (
                lambda m: m["columns"][0]["categories"].append(m["columns"][0]["categories"][0]),
                "manifest column 'a': category 'bin0' is listed twice",
            ),
            (lambda m: m["columns"].append(m["columns"][0]), "manifest column 'a' is listed twice"),
            # edges (0.0, 1.0, 2.0, 3.0): a 400-digit edge raised OverflowError, true read as 1
            (
                lambda m: m["columns"][0]["edges"].__setitem__(3, int("9" * 400)),
                "manifest column 'a': numeric edges must be finite numbers",
            ),
            (
                lambda m: m["columns"][0]["edges"].__setitem__(1, True),
                "manifest column 'a': numeric edges must be finite numbers",
            ),
        ],
        ids=["version", "bool-version", "text-quantiles", "one-quantile", "bool-quantiles",
             "repeated-category", "repeated-column", "400-digit-edge", "bool-edge"],
    )
    def test_bad_manifest_field_is_data_error(self, yes_no_run, tmp_path, capsys, edit, message):
        # each was read as the clean manifest; a repeat gave two features one name
        out, reuse = yes_no_run
        obj = json.loads((out / "manifest.json").read_text())
        edit(obj)
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("evaluate", *reuse[:-1], bad) == 3
        line = one_error_line(capsys, "data error")
        assert line.startswith(f"data error: {bad}: ") and message in line, line


FIT_CSV = "a,b,y\n" + "".join(f"{i},{'pq'[i % 2]},{i % 2}\n" for i in range(1, 9))


@pytest.mark.parametrize(
    "fit_text, held_out_text, message",
    [
        ("a,a,y\n1,2,0\n3,4,1\n", None, "duplicate column name 'a'"),
        (
            "a,a=b,y\nb=c,c,0\nx,d,1\n",
            None,
            "columns 'a' and 'a=b' both give a feature named 'a=b=c'",
        ),
        (FIT_CSV.replace("\n3,", "\nnan,"), None, "non-finite value 'nan'"),
        (FIT_CSV, FIT_CSV.replace("\n3,", "\nfoo,"), "'foo'"),
        (FIT_CSV, FIT_CSV.replace("\n3,", "\ninf,"), "non-finite value 'inf'"),
    ],
    ids=["duplicate-header", "colliding-feature-names", "nan-at-fit", "text-under-numeric",
         "inf-held-out"],
)
def test_bad_cell_is_data_error(tmp_path, capsys, fit_text, held_out_text, message):
    fit_path = tmp_path / "fit.csv"
    fit_path.write_text(fit_text)
    out = tmp_path / "run"
    common = ("--label-column", "y", "--oracle-accuracy", 0.8)
    code = run("train", "--data", fit_path, *common, "--gamma", 0.1, "--iters", 20, "--out", out)
    if held_out_text is not None:
        assert code == 0
        capsys.readouterr()
        held_out_path = tmp_path / "held_out.csv"
        held_out_path.write_text(held_out_text)
        code = run(
            "evaluate", "--data", held_out_path, *common,
            "--model", out / "model.json", "--manifest", out / "manifest.json",
        )
    assert code == 3
    assert message in one_error_line(capsys, "data error")


KNOB_CASES = [
    ("train", "--iters", 0, 2, "usage error", "numeric"),
    ("train", "--alpha", -1, 2, "usage error", "numeric"),
    ("train", "--c0", 0, 2, "usage error", "numeric"),
    ("train", "--gamma", 0, 2, "usage error", "numeric"),
    ("train", "--quantiles", 1, 2, "usage error", "numeric"),
    ("train", "--mine-fraction", 0, 2, "usage error", "numeric"),
    ("train", "--max-rules", -1, 2, "usage error", "numeric"),
    ("cv", "--folds", 500, 3, "data error", "numeric"),
    ("tune", "--candidates", "0.1,x", 2, "usage error", "numeric"),
    ("tune", "--candidates", "-0.1", 2, "usage error", "numeric"),
    ("tune", "--i-max", 0, 2, "usage error", "numeric"),
    ("tune", "--i-max", -5, 2, "usage error", "numeric"),
    # --quantiles is checked even where no column gets quantile bins
    ("train", "--quantiles", 1, 2, "usage error", "categorical"),
    ("train", "--quantiles", 1, 2, "usage error", "manifest"),
    # NaN passes every `<` range check, so finiteness is checked on its own
    ("train", "--alpha", "nan", 2, "usage error", "numeric"),
    ("train", "--alpha", "inf", 2, "usage error", "numeric"),
    ("train", "--c0", "nan", 2, "usage error", "numeric"),
    ("cv", "--c0", "inf", 2, "usage error", "numeric"),
    ("tune", "--candidates", "nan,0.01", 2, "usage error", "numeric"),
    # an empty list is refused, not replaced by the default grid
    ("tune", "--candidates", "", 2, "usage error", "numeric"),
    # the candidate list is checked before any file is read or the pool is mined
    ("tune", "--candidates", "abc", 2, "usage error", "missing"),
    ("tune", "--candidates", "0.01,0.01", 2, "usage error", "missing"),
    # negative seeds are refused by flag name before any data loads
    ("train", "--seed", -1, 2, "usage error", "numeric"),
    ("cv", "--seed", -1, 2, "usage error", "numeric"),
    ("tune", "--seed", -1, 2, "usage error", "numeric"),
    ("predict", "--seed", -1, 2, "usage error", "numeric"),
    ("synth", "--seed", -1, 2, "usage error", "numeric"),
    ("train", "--oracle-seed", -1, 2, "usage error", "numeric"),
    # minimums are checked before the data file is even opened
    ("cv", "--folds", 1, 2, "usage error", "missing"),
    ("tune", "--i-max", 0, 2, "usage error", "missing"),
    ("train", "--quantiles", 1, 2, "usage error", "missing"),
    ("train", "--quantiles", 1001, 2, "usage error", "missing"),
    # so is every range SearchConfig checks: one config serves every chain of the run
    ("train", "--alpha", -1, 2, "usage error", "missing"),
    ("tune", "--c0", 0, 2, "usage error", "missing"),
    ("cv", "--iters", 0, 2, "usage error", "missing"),
    ("train", "--max-rules", -1, 2, "usage error", "missing"),
    ("synth", "--rows", -3, 2, "usage error", "numeric"),
    ("synth", "--rows", 0, 2, "usage error", "numeric"),
    ("synth", "--oracle-accuracy", "nan", 2, "usage error", "numeric"),
    ("synth", "--oracle-accuracy", 2, 2, "usage error", "numeric"),
    ("synth", "--covered-oracle-accuracy", "nan", 2, "usage error", "numeric"),
    ("train", "--delimiter", "", 2, "usage error", "numeric"),
    ("train", "--delimiter", "ab", 2, "usage error", "missing"),
    ("predict", "--transparency", "nan", 3, "data error", "numeric"),
]


@pytest.mark.parametrize(
    "command, knob, value, code, kind, table",
    KNOB_CASES,
    # cases on the default numeric table are named by their first five fields
    ids=["-".join(map(str, c[:-1] if c[-1] == "numeric" else c)) for c in KNOB_CASES],
)
def test_out_of_range_knob_exit_code(tmp_path, capsys, command, knob, value, code, kind, table):
    data_path = tmp_path / "d.csv"
    write_random_csv(data_path, 200, seed=0)
    extra = ()
    if table == "categorical":
        header, *rows = data_path.read_text().splitlines()
        rows = ["v" + row.replace(",", ",v", 2) for row in rows]
        data_path.write_text("\n".join([header, *rows]) + "\n")
    elif table == "manifest":
        _, manifest = binarize(load_table(data_path, "y"))
        manifest.save(tmp_path / "manifest.json")
        extra = ("--manifest", tmp_path / "manifest.json")
    elif table == "missing":
        data_path = tmp_path / "absent.csv"
    common = ("--data", data_path, "--label-column", "y", "--oracle-accuracy", 0.8)
    if command == "synth":
        common = ()
    elif command == "predict":
        assert run("train", *common, "--iters", 20, "--out", tmp_path / "model") == 0
        capsys.readouterr()
        model = tmp_path / "model"
        # the model names quantile bins, so it is scored with its training manifest
        extra = ("--model", model / "model.json", "--manifest", model / "manifest.json")
        extra = (*extra, "--transparency", 0)
    else:
        extra = ("--iters", 20, *extra)
    got = run(command, *common, *extra, knob, value, "--out", tmp_path / "out")
    err = capsys.readouterr().err.splitlines()
    assert got == code
    assert len(err) == 1 and err[0].startswith(f"{kind}: "), err
    if knob.endswith("seed") or knob in ("--rows", "--delimiter"):
        assert knob in err[0]


# sha256 of every artifact of a fixed synth -> train -> cv -> predict run.
# Any change to these digests is a behaviour change of the CLI, not a refactor.
GOLDEN_DIGESTS = {
    "train/model.json": (
        "f8dd8f4261dd10a466b881e65723510a5266b6333582a8fafd6808c531dcc64e"
    ),
    "train/curve.csv": (
        "da0af1e9dc91530dd1f0055f03cab8566a105ff94fed522347a26ef30be62c43"
    ),
    "train/trace.csv": (
        "f803932b5df5ae432f98659f28626a99ba062e7f43d4b6df586689ab5d5ec921"
    ),
    "cv/fold_1/trace.csv": (
        "b3e120cc0fb7fdaea2ea29e9131bb1357eff346dab11fa7c8e01e33eaa870548"
    ),
    "cv/report.json": (
        "a5ca89d3572b26951f2e6a46f2c70d3cc22254e9c457dc73ba53bd7242147981"
    ),
    "predict.csv": (
        "390fe72c3626254c0a8b30f08da803ff4068f060fd9bd929251c94817a3f23d5"
    ),
    "train/manifest.json": (
        "e61c54ff30d4691c242300c9f326d1a68120c8948bf9eb6d7e8d0a51d05bbcaf"
    ),
    "bench/manifest.json": (
        "e61c54ff30d4691c242300c9f326d1a68120c8948bf9eb6d7e8d0a51d05bbcaf"
    ),
    "bench/planted_model.json": (
        "c5e1dd6fbf43d42485f75a33ac1c513680c0c0049259395ba93bd3bb0fdbc11e"
    ),
}


def test_golden_artifact_digests(tmp_path, monkeypatch):
    # relative paths, because cv records the data path in report.json
    monkeypatch.chdir(tmp_path)
    assert run("synth", "--rows", 400, "--seed", 0, "--out", "bench") == 0
    common = (
        "--data", "bench/data.csv",
        "--label-column", "label",
        "--preds", "bench/preds.txt",
    )
    knobs = ("--gamma", 0.1, "--iters", 300, "--mine-fraction", 0.5, "--seed", 2)
    assert run("train", *common, *knobs, "--out", "train") == 0
    assert run("cv", *common, *knobs, "--folds", 3, "--out", "cv") == 0
    t = read_curve_csv("train/curve.csv")[0][1][0] / 2
    assert run(
        "predict", *common,
        "--model", "train/model.json",
        "--manifest", "train/manifest.json",
        "--transparency", t,
        "--seed", 4,
        "--out", "predict.csv",
    ) == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_DIGESTS
    }
    assert got == GOLDEN_DIGESTS


# The flag surface of every subcommand: each option string and the value it
# resolves to when only the required flags are given and no --config is read.
DATA_FLAGS = {
    "--data": "d.csv",
    "--label-column": "y",
    "--positive-value": None,
    "--delimiter": ",",
    "--quantiles": 7,
    "--manifest": None,
}
PREDS_FLAGS = {"--preds": None, "--pred-column": None, "--oracle-accuracy": None, "--oracle-seed": 0}
MINING_FLAGS = {"--gamma": 0.05, "--max-card": 2, "--mine-fraction": 1.0}
SEARCH_FLAGS = {
    "--alpha": 0.001,
    "--c0": 0.001,
    "--iters": 50000,
    "--seed": 0,
    "--init-size": 3,
    "--max-rules": None,
    "--config": None,
}
EVALUATE_FLAGS = {**DATA_FLAGS, **PREDS_FLAGS, "--model": "m.json", "--curve-out": None}
FLAG_SURFACE = {
    "train": {**DATA_FLAGS, **PREDS_FLAGS, **MINING_FLAGS, **SEARCH_FLAGS, "--out": "o"},
    "evaluate": EVALUATE_FLAGS,
    "pair": EVALUATE_FLAGS,
    "predict": {
        **DATA_FLAGS,
        **PREDS_FLAGS,
        "--model": "m.json",
        "--out": "o",
        "--seed": 0,
        "--level": 0,
        "--transparency": None,
        "--all-blackbox": False,
        "--all-rules": False,
    },
    "mine": {**DATA_FLAGS, **MINING_FLAGS, "--seed": 0, "--out": "o"},
    "tune": {
        **DATA_FLAGS,
        **PREDS_FLAGS,
        **MINING_FLAGS,
        **SEARCH_FLAGS,
        "--candidates": None,
        "--i-max": 20,
        "--out": "o",
        "--model-out": None,
    },
    "cv": {**DATA_FLAGS, **PREDS_FLAGS, **MINING_FLAGS, **SEARCH_FLAGS, "--folds": 5, "--out": "o"},
    "synth": {
        "--rows": 2000,
        "--seed": 0,
        "--oracle-accuracy": 0.85,
        "--covered-oracle-accuracy": 0.75,
        "--out": "o",
    },
}
CONFIG_KEYS = {
    "alpha": 0.01,
    "c0": 0.002,
    "iters": 10,
    "seed": 3,
    "init_size": 2,
    "max_rules": 5,
    "gamma": 0.1,
    "max_card": 1,
    "mine_fraction": 0.5,
    "quantiles": 4,
    "folds": 3,
}


def resolved_args(monkeypatch, command, *extra):
    """The namespace ``main`` hands to the subcommand's handler."""
    surface = FLAG_SURFACE[command]
    argv = [command]
    for flag in ("--data", "--label-column", "--model", "--out"):
        if flag in surface:
            argv += [flag, surface[flag]]
    if command == "predict":
        argv += ["--level", "0"]
    seen = []
    handler = "cmd_evaluate" if command == "pair" else f"cmd_{command}"
    monkeypatch.setattr(cli, handler, lambda args: seen.append(args) or 0)
    assert main([*argv, *map(str, extra)]) == 0
    return seen[0]


def typed(values):
    return {key: (type(v), v) for key, v in values.items()}


@pytest.mark.parametrize("command", sorted(FLAG_SURFACE))
def test_flag_surface_and_resolved_defaults(monkeypatch, command):
    args = resolved_args(monkeypatch, command)
    (subparsers,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    got = {
        flag: getattr(args, action.dest)
        for action in subparsers.choices[command]._actions
        for flag in action.option_strings
        if action.dest != "help"
    }
    assert typed(got) == typed(FLAG_SURFACE[command])


def test_every_config_key_is_applied(monkeypatch, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG_KEYS))
    args = resolved_args(monkeypatch, "cv", "--config", cfg)
    assert typed({key: getattr(args, key) for key in CONFIG_KEYS}) == typed(CONFIG_KEYS)


def test_cli_defaults_equal_library_defaults():
    search = {f.name: f.default for f in dataclasses.fields(SearchConfig)}

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    train, synth = FLAG_SURFACE["train"], FLAG_SURFACE["synth"]
    pairs = [
        (train["--c0"], search["c0"]),
        (train["--iters"], search["n_iters"]),
        (train["--seed"], search["seed"]),
        (train["--init-size"], search["init_size"]),
        (train["--max-rules"], search["max_rules_guard"]),
        (train["--gamma"], default(mine_rules, "gamma")),
        (train["--max-card"], default(mine_rules, "max_cardinality")),
        (train["--quantiles"], default(binarize, "quantiles")),
        (FLAG_SURFACE["cv"]["--folds"], default(split_folds, "k")),
        (synth["--rows"], default(planted_benchmark, "n_rows")),
        (synth["--oracle-accuracy"], default(planted_benchmark, "oracle_accuracy")),
        (
            synth["--covered-oracle-accuracy"],
            default(planted_benchmark, "covered_oracle_accuracy"),
        ),
    ]
    for cli_default, library_default in pairs:
        assert (type(cli_default), cli_default) == (type(library_default), library_default)


@pytest.mark.parametrize(
    "values",
    [
        {"seed": "1"},
        {"alpha": "0.01"},
        {"gamma": "0.1"},
        {"max_rules": "x"},
        {"alpha": None},
        {"iters": 2.5},
        {"quantiles": 7.0},
        {"iters": True},
        {"max_card": 1.5},
        {"mine_fraction": False},
        {"alpha": 10**400},
        {"alpha": 1e400},
        {"seed": 1e400},
    ],
    ids=lambda v: json.dumps(v)[:32],
)
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, values):
    data_path = tmp_path / "d.csv"
    write_random_csv(data_path, 200, seed=0)
    cfg = tmp_path / "cfg.json"
    # JSON has no infinity; the number literal 1e400 is what reads as one
    cfg.write_text(json.dumps({"iters": 20, **values}).replace("Infinity", "1e400"))
    code = run(
        "train", "--data", data_path, "--label-column", "y", "--oracle-accuracy", 0.8,
        "--config", cfg, "--out", tmp_path / "out",
    )
    assert code == 2
    (key,) = values
    line = one_error_line(capsys, "usage error")
    assert repr(key) in line
    assert "Infinity" not in line  # the file holds no such token


def test_config_integer_for_float_knob_resolves_as_the_flag_would(monkeypatch, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0, "mine_fraction": 1, "max_rules": None}))
    args = resolved_args(monkeypatch, "train", "--config", cfg)
    got = {"alpha": args.alpha, "mine_fraction": args.mine_fraction, "max_rules": args.max_rules}
    assert typed(got) == typed({"alpha": 0.0, "mine_fraction": 1.0, "max_rules": None})


def test_utf8_bom_is_not_part_of_the_first_column(bench_dir, tmp_path):
    # a BOM copy of the table and predictions trains the same model bytes
    plain = (bench_dir / "data.csv").read_bytes(), (bench_dir / "preds.txt").read_bytes()
    outs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        data_path, preds_path = tmp_path / f"d{len(prefix)}.csv", tmp_path / f"p{len(prefix)}.txt"
        data_path.write_bytes(prefix + plain[0])
        preds_path.write_bytes(prefix + plain[1])
        out = tmp_path / f"run{len(prefix)}"
        code = run(
            "train", "--data", data_path, "--label-column", "label", "--preds", preds_path,
            "--gamma", 0.1, "--iters", 200, "--out", out,
        )
        assert code == 0
        outs.append(out)
    for name in ("manifest.json", "model.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_short_row_in_prediction_column_file_is_data_error(tmp_path, capsys):
    data_path, preds_path = tmp_path / "t.csv", tmp_path / "p.csv"
    data_path.write_text("a,y\n1,0\n2,1\n3,0\n4,1\n")
    preds_path.write_text("id,p\n1,1\n2\n3,1\n4,0\n")
    code = run(
        "train", "--data", data_path, "--label-column", "y", "--preds", preds_path,
        "--pred-column", "p", "--iters", 10, "--out", tmp_path / "out",
    )
    assert code == 3
    line = one_error_line(capsys, "data error")
    assert line.endswith("ragged row at line 3 (1 fields, expected 2)"), line


@pytest.mark.parametrize("positive", [(), ("--positive-value", "1")], ids=["default", "declared"])
def test_blank_label_cell_is_data_error(tmp_path, capsys, positive):
    # a column of 1s and blanks has two distinct values, and each blank was read as class 0
    data_path = tmp_path / "t.csv"
    data_path.write_text("a,y\n1,1\n2,\n3, \n4,1\n")
    code = run(
        "train", "--data", data_path, "--label-column", "y", *positive,
        "--oracle-accuracy", 0.8, "--iters", 10, "--out", tmp_path / "out",
    )
    assert code == 3
    line = one_error_line(capsys, "data error")
    assert line == f"data error: {data_path}: label column 'y' has 2 blank cell(s)"


@pytest.mark.parametrize(
    "newline, last", [("\n", "4"), ("\r\n", "4"), ("\r\n", '"4"')], ids=["lf", "crlf", "quoted"]
)
@pytest.mark.parametrize("command", ["train", "mine", "pred-column"])
def test_cell_over_the_field_size_limit_is_data_error(tmp_path, capsys, command, newline, last):
    # csv.reader's field size limit escaped as a _csv.Error traceback (exit 1)
    long_cell = "x" * (csv.field_size_limit() + 1)
    table = ["a,y", "1,0", "2,1", "3,0", f"{last},1"]
    preds = ["id,p", "1,1", "2,0", "3,1", f"{last},0"]
    rows = preds if command == "pred-column" else table
    rows[2] = f"{long_cell},{rows[2][-1]}"
    data_path, preds_path = tmp_path / "t.csv", tmp_path / "p.csv"
    data_path.write_bytes(newline.join(table).encode() + newline.encode())
    preds_path.write_bytes(newline.join(preds).encode() + newline.encode())
    common = ("--data", data_path, "--label-column", "y")
    if command == "mine":
        argv = ("mine", *common, "--out", tmp_path / "pool.json")
    else:
        preds = ("--preds", preds_path, "--pred-column", "p")
        argv = ("train", *common, *preds, "--out", tmp_path / "out")
    assert run(*argv) == 3
    bad = preds_path if command == "pred-column" else data_path
    line = one_error_line(capsys, "data error")
    assert line == f"data error: {bad}: cell longer than {len(long_cell) - 1} characters at line 3"


def first_column(obj):
    return obj["columns"][0]


# Each edit of a trained 60-row run (column a numeric, b categorical) used to
# be read silently: evaluate and train exited 0.
@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("manifest.json", lambda m: first_column(m)["edges"].reverse(), "strictly ascending"),
        ("manifest.json", lambda m: first_column(m)["edges"].__setitem__(0, math.nan), "NaN"),
        ("manifest.json", lambda m: first_column(m).update(kind="text"), "unknown kind 'text'"),
        (
            "manifest.json",
            lambda m: m["columns"][1].update(edges="xyz"),
            "column 'b': categorical edges must be null, not 'xyz'",
        ),
        ("model.json", lambda m: m["rules"][0]["stats"].update(accuracy=math.nan), "NaN"),
        ("config.json", lambda c: c.update(alpha=math.nan), "NaN"),
        # each was read as a valid model: evaluate exited 0, or raised OverflowError
        ("model.json", lambda m: m.update(version=True), "unknown version True"),
        ("model.json", lambda m: m.update(version=1.0), "unknown version 1.0"),
        ("model.json", lambda m: m["rules"][0].update(output=True), "rule output must be 0 or 1"),
        ("model.json", lambda m: m["rules"][0].update(output=1.0), "rule output must be 0 or 1"),
        (
            "model.json",
            lambda m: m["rules"][0]["stats"].update(accuracy=int("9" * 400)),
            "rule stats must be finite numbers",
        ),
        # exited 3 with a Python message naming neither the column nor the field
        (
            "manifest.json",
            lambda m: first_column(m).update(edges=5),
            "manifest column 'a': edges must be a list or null, not 5",
        ),
    ],
    ids=["descending-edges", "nan-edge", "unknown-kind", "categorical-edges", "nan-stat",
         "nan-config", "bool-version", "float-version", "bool-output", "float-output",
         "400-digit-stat", "int-edges"],
)
def test_corrupted_json_input_is_data_error(tmp_path, capsys, name, edit, message):
    data_path = tmp_path / "d.csv"
    data_path.write_text("a,b,y\n" + "".join(f"{i},{'pqr'[i % 3]},{i % 2}\n" for i in range(60)))
    common = ("--data", data_path, "--label-column", "y", "--oracle-accuracy", 0.8)
    config, out = tmp_path / "config.json", tmp_path / "run"
    config.write_text('{"iters": 20, "gamma": 0.1}')
    assert run("train", *common, "--config", config, "--out", out) == 0
    path = config if name == "config.json" else out / name
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    if name == "config.json":
        code = run("train", *common, "--config", config, "--out", tmp_path / "again")
    else:
        reuse = ("--model", out / "model.json", "--manifest", out / "manifest.json")
        code = run("evaluate", *common, *reuse)
    assert code == 3
    line = one_error_line(capsys, "data error")
    assert line.startswith(f"data error: {path}: ") and message in line, line


# A schema error in one of two JSON inputs must say which file it is in.
@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("manifest.json", lambda m: first_column(m).update(kind="text"), "unknown kind 'text'"),
        ("model.json", lambda m: m["rules"][0]["stats"].pop("accuracy"), "unexpected stats keys"),
    ],
    ids=["manifest", "model"],
)
def test_schema_error_names_the_file(bench_dir, trained_dir, tmp_path, capsys, name, edit, message):
    files = {"model.json": trained_dir / "model.json", "manifest.json": trained_dir / "manifest.json"}
    obj = json.loads(files[name].read_text())
    edit(obj)
    files[name] = bad = tmp_path / name
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    code = run(
        "evaluate", "--data", bench_dir / "data.csv", "--label-column", "label",
        "--preds", bench_dir / "preds.txt",
        "--model", files["model.json"], "--manifest", files["manifest.json"],
    )
    assert code == 3
    line = one_error_line(capsys, "data error")
    assert line.startswith(f"data error: {bad}: ") and line.endswith(message), line


def test_non_numeric_rule_stat_is_data_error(bench_dir, trained_dir, tmp_path, capsys):
    # a transparency of "x" used to load, and predict --transparency exited 0
    obj = json.loads((trained_dir / "model.json").read_text())
    obj["rules"][0]["stats"]["transparency"] = "x"
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    code = run(
        "predict", "--data", bench_dir / "data.csv", "--label-column", "label",
        "--preds", bench_dir / "preds.txt",
        "--model", bad, "--manifest", trained_dir / "manifest.json",
        "--transparency", 0.1, "--out", tmp_path / "p.csv",
    )
    assert code == 3
    assert f"{bad}: model schema violation" in one_error_line(capsys, "data error")


@pytest.mark.parametrize("flag", ["--data", "--preds", "--model", "--manifest", "--config"])
def test_input_file_that_is_not_utf8_is_data_error(bench_dir, trained_dir, tmp_path, capsys, flag):
    # one latin-1 byte (\xe9) after the first byte of an otherwise valid file
    config = tmp_path / "config.json"
    config.write_text("{}")
    files = {
        "--data": bench_dir / "data.csv",
        "--preds": bench_dir / "preds.txt",
        "--model": trained_dir / "model.json",
        "--manifest": trained_dir / "manifest.json",
        "--config": config,
    }
    raw = files[flag].read_bytes()
    bad = tmp_path / f"bad{files[flag].suffix}"
    bad.write_bytes(raw[:1] + b"\xe9" + raw[1:])
    files[flag] = bad
    if flag == "--config":
        command = ("train", "--config", bad, "--iters", 10, "--out", tmp_path / "out")
    else:
        model_files = ("--model", files["--model"], "--manifest", files["--manifest"])
        command = ("predict", *model_files, "--level", 0, "--out", tmp_path / "p.csv")
    code = run(
        *command, "--data", files["--data"], "--label-column", "label", "--preds", files["--preds"]
    )
    assert code == 3
    line = one_error_line(capsys, "data error")
    assert f"{bad}: not valid UTF-8" in line


@given(
    values=st.lists(
        st.one_of(st.floats(0, 1), st.floats(-1e6, 1e6, allow_nan=False)), min_size=2, max_size=300
    )
)
@settings(max_examples=300, deadline=None)
def test_cv_mean_and_std_equal_numpy(values):
    # numpy sums float64 pairwise: a loop below 8 values, 8 partial sums up
    # to 128, halves above; the report's mean and std must match it bit for bit
    assert cli._mean(values).hex() == float(np.mean(values)).hex()
    assert cli._sample_std(values).hex() == float(np.std(values, ddof=1)).hex()
