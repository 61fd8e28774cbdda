"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines. The heavyweight criteria share one planted benchmark split via
module-scoped fixtures.
"""

import math
from operator import eq

import numpy as np
import pytest

from crl import (
    CompanionEvaluator,
    Rule,
    RuleList,
    SearchConfig,
    autac_hat,
    curve,
    mine_rules,
    objective,
    planted_benchmark,
    run_search,
    split_folds,
    train_indices,
)
from crl.cli import main
from crl.search import accept, temperature

from conftest import Twin, make_random_dataset, make_random_preds
from oracles import (
    brute_force_pool,
    exhaustive_best_autac,
    random_instance,
    simulate_autac,
    simulate_curve,
)


def verdict(k, label):
    print(f"\n[acceptance] criterion {k} ({label}): PASS")


@pytest.fixture(scope="module")
def bench_split():
    bench = planted_benchmark(n_rows=2000, seed=0, oracle_accuracy=0.85)
    folds = split_folds(bench.data, k=5, seed=0)
    tr = train_indices(folds, 0)
    te = folds[0]
    data_tr, preds_tr = bench.data.subset(tr), bench.preds.subset(tr)
    data_te, preds_te = bench.data.subset(te), bench.preds.subset(te)
    pool = mine_rules(data_tr, gamma=0.05, max_cardinality=2)
    return bench, data_tr, preds_tr, data_te, preds_te, pool


def test_criterion_1_trapezoid_exactness():
    points = ((0.0, 0.92), (0.4, 0.90), (0.7, 0.84), (1.0, 0.75))
    area = autac_hat(points)
    assert abs(area - 0.8635) < 1e-12
    verdict(1, "trapezoid exactness")


def test_criterion_2_estimator_oracle_equivalence():
    rng = np.random.default_rng(20240)
    from crl import BinaryDataset, PredictionVector

    for _ in range(500):
        matrix, labels, bb, specs = random_instance(
            rng, max_rows=64, max_features=8, max_rules=3
        )
        names = tuple(f"f{j}" for j in range(matrix.shape[1]))
        data = BinaryDataset.from_bool_matrix(matrix, labels, names)
        preds = PredictionVector(bb)
        rl = RuleList(tuple(Rule(c, z) for c, z in specs))
        got = curve(rl, data, preds)
        covered, corrects, bb_rest, points = simulate_curve(specs, matrix, labels, bb)
        assert list(got.covered_counts) == covered
        assert list(got.rule_correct_counts) == corrects
        assert got.points == tuple(points)
        assert autac_hat(got) == simulate_autac(points)
        alpha = 0.001
        val = objective(rl, data, preds, alpha)
        assert val.objective == simulate_autac(points) - alpha * len(specs)
    verdict(2, "estimator oracle equivalence, 500 instances")


def test_criterion_3_stochastic_consistency():
    data = make_random_dataset(77, n_rows=240, n_features=8, p=0.45)
    preds = make_random_preds(78, data, accuracy=0.8)
    rl = RuleList(
        (Rule((0, 1), 1), Rule((2, 3), 0), Rule((4,), 1), Rule((5,), 0), Rule((6,), 1))
    )
    ev = CompanionEvaluator(rl, data, preds)
    ts = ev.curve.transparency
    assert len(set(ts)) == 6  # five strictly increasing levels
    labels = data.labels
    draws = 100_000
    boundary = list(ts[1:])
    midpoints = [(a + b) / 2 for a, b in zip(ts, ts[1:])]
    targets = boundary + midpoints  # ten values of t
    assert len(targets) == 10
    rng = Twin(4242)
    for t in targets:
        trans_sum = 0.0
        acc_sum = 0.0
        for _ in range(draws):
            out, prov = ev.stochastic_predictions(t, rng, ts)
            trans_sum += (len(prov) - prov.count(-1)) / len(prov)
            acc_sum += sum(map(eq, out, labels)) / len(out)
        assert abs(trans_sum / draws - t) <= 0.01
        if t in ts:
            m = ts.index(t)
            assert abs(acc_sum / draws - ev.curve.points[m][1]) <= 0.01
    verdict(3, "stochastic transparency and accuracy consistency")


def test_criterion_4_annealing_semantics():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        delta = float(rng.random())
        assert accept(delta, int(rng.integers(1, 10_000)), 0.001, rng)
    hits = sum(accept(-0.001, 1, 0.001, rng) for _ in range(100_000))
    assert abs(hits / 100_000 - math.exp(-1)) <= 0.01
    assert temperature(3, 0.001) == 0.001 / 2
    verdict(4, "annealing acceptance semantics")


def test_criterion_5_search_soundness(bench_split):
    _, data_tr, preds_tr, _, _, pool = bench_split
    cfg = SearchConfig(alpha=0.001, n_iters=3000, seed=17)
    r1 = run_search(data_tr, preds_tr, pool, cfg)
    best = [s.best_objective for s in r1.trace.steps]
    assert all(b0 <= b1 for b0, b1 in zip(best, best[1:]))
    from crl.search import init_list

    state = init_list(pool, cfg.init_size, np.random.default_rng(cfg.seed))
    init = RuleList(tuple(pool.rules[i] for i in state))
    assert best[-1] >= objective(init, data_tr, preds_tr, cfg.alpha).objective
    r2 = run_search(data_tr, preds_tr, pool, cfg)
    assert r1.trace.steps == r2.trace.steps
    verdict(5, "search soundness and reproducibility")


def test_criterion_6_planted_rule_recovery(bench_split):
    bench, data_tr, preds_tr, data_te, preds_te, pool = bench_split
    cfg = SearchConfig(alpha=0.001, c0=0.001, n_iters=50_000, seed=1)
    result = run_search(data_tr, preds_tr, pool, cfg)
    search_autac = autac_hat(curve(result.best_list, data_te, preds_te))
    pool_specs = [(r.conditions, r.output) for r in pool.rules]
    optimum = exhaustive_best_autac(
        pool_specs, data_te.matrix, data_te.labels, preds_te.preds, max_len=3
    )
    assert search_autac >= 0.98 * optimum
    # the planted rules are recovered at the head of the list
    head = {(r.conditions, r.output) for r in result.best_list.rules[:2]}
    assert head == {((0, 1), 1), ((2,), 0)}
    print(
        f"\n  search test AUTAC {search_autac:.4f} vs exhaustive length-3 "
        f"optimum {optimum:.4f}"
    )
    verdict(6, "planted-rule recovery within 2% of exhaustive optimum")


def test_criterion_7_mining_oracle():
    rng = np.random.default_rng(555)
    from crl import BinaryDataset

    for trial in range(12):
        n = int(rng.integers(30, 201))
        d = int(rng.integers(3, 13))
        matrix = rng.random((n, d)) < rng.uniform(0.2, 0.7, size=d)
        labels = (rng.random(n) < 0.5).astype(np.uint8)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        names = tuple(f"f{j}" for j in range(d))
        data = BinaryDataset.from_bool_matrix(matrix, labels, names)
        pool = mine_rules(data, gamma=0.05, max_cardinality=2)
        got = {(r.conditions, r.output): s for r, s in zip(pool.rules, pool.supports)}
        expected = brute_force_pool(matrix, labels, 0.05, 2)
        assert got == expected
        singles = {(r.conditions[0], r.output) for r in pool.rules if len(r.conditions) == 1}
        for r in pool.rules:
            if len(r.conditions) == 2:
                assert (r.conditions[0], r.output) in singles
                assert (r.conditions[1], r.output) in singles
    verdict(7, "mining equals exhaustive enumeration; anti-monotone")


def test_criterion_8_penalty_semantics(d4):
    data, preds, rl = d4
    extended = RuleList(rl.rules + (Rule((0,), 0),))  # fully shadowed: zero cover
    assert autac_hat(curve(extended, data, preds)) == autac_hat(curve(rl, data, preds))
    alpha = 1.0 / 1024.0  # dyadic: the difference is floating-point exact
    before = objective(rl, data, preds, alpha).objective
    after = objective(extended, data, preds, alpha).objective
    assert before - after == alpha
    default_alpha = 0.001
    diff = (
        objective(rl, data, preds, default_alpha).objective
        - objective(extended, data, preds, default_alpha).objective
    )
    assert diff == pytest.approx(default_alpha, abs=1e-15)
    verdict(8, "zero-cover rule costs exactly alpha")


def test_criterion_9_naive_pairing_dominance(bench_split):
    _, data_tr, preds_tr, data_te, preds_te, pool = bench_split
    margins = []
    for seed in range(5):
        collab = run_search(
            data_tr, preds_tr, pool, SearchConfig(alpha=0.001, n_iters=50_000, seed=seed)
        )
        naive = run_search(
            data_tr,
            preds_tr,
            pool,
            SearchConfig(alpha=0.001, n_iters=50_000, seed=seed, scoring="rules_only"),
        )
        a_collab = autac_hat(curve(collab.best_list, data_te, preds_te))
        a_naive = autac_hat(curve(naive.best_list, data_te, preds_te))
        margins.append(a_collab - a_naive)
    assert min(margins) >= 0.01
    print(f"\n  margins over 5 seeds: {[round(m, 4) for m in margins]}")
    verdict(9, "collaborative training dominates naive pairing")


def test_criterion_10_full_protocol_runs_on_supplied_inputs(tmp_path):
    # Published dataset-level results need the original datasets plus trained
    # black-box prediction files, which are out of desk scope; this exercises
    # the cv and pair subcommands end to end so supplied inputs can rerun them.
    bench_out = tmp_path / "bench"
    assert main(["synth", "--rows", "300", "--seed", "4", "--out", str(bench_out)]) == 0
    cv_out = tmp_path / "cv"
    code = main(
        [
            "cv",
            "--data", str(bench_out / "data.csv"),
            "--label-column", "label",
            "--preds", str(bench_out / "preds.txt"),
            "--folds", "5",
            "--gamma", "0.1",
            "--iters", "300",
            "--seed", "0",
            "--out", str(cv_out),
        ]
    )
    assert code == 0
    assert (cv_out / "report.json").exists()
    code = main(
        [
            "pair",
            "--data", str(bench_out / "data.csv"),
            "--label-column", "label",
            "--preds", str(bench_out / "preds.txt"),
            "--model", str(bench_out / "planted_model.json"),
            "--manifest", str(cv_out / "manifest.json"),
        ]
    )
    assert code == 0
    verdict(10, "cv and pair protocol available for external inputs")
