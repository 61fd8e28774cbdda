import hashlib
import math
import multiprocessing
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crl import (
    DataError,
    PredictionVector,
    Rule,
    RuleList,
    SearchConfig,
    SearchError,
    autac_hat,
    curve,
    mine_rules,
    objective,
    run_search,
    tune_alpha,
)
from crl import search
from crl.mining import CandidatePool
from crl.objective import ChainScorer, cover_masks, sweep
from crl.search import (
    _run_chains,
    accept,
    init_list,
    propose,
    temperature,
)

from conftest import make_random_dataset, make_random_preds
from oracles import as_array, simulate_first_match


def small_problem(seed=0, n_rows=120):
    data = make_random_dataset(seed, n_rows=n_rows, n_features=6, p=0.45)
    preds = make_random_preds(seed + 1, data, accuracy=0.75)
    pool = mine_rules(data, gamma=0.05, max_cardinality=2)
    return data, preds, pool


def rules_only_oracle(data, rule_list, alpha):
    """Rules-only objective by per-row first match; the majority class answers the rest."""
    labels = as_array(data.labels).astype(int)
    majority = 1 if 2 * int(labels.sum()) >= data.n_rows else 0
    specs = [(r.conditions, r.output) for r in rule_list]
    match = simulate_first_match(specs, data.matrix)
    correct = 0
    for i in range(data.n_rows):
        z = majority if match[i] == -1 else specs[match[i]][1]
        correct += int(z == labels[i])
    return correct / data.n_rows - alpha * len(rule_list)


def pool_from_rules(rules):
    return CandidatePool(
        rules=tuple(rules), supports=tuple(1.0 for _ in rules), gamma=0.05, max_cardinality=2
    )


def as_state(pool, rule_list):
    """The search's index form of a rule list: the pool index of each rule."""
    index = {r: i for i, r in enumerate(pool.rules)}
    return tuple(index[r] for r in rule_list)


def as_list(pool, state):
    """The rule list a state of pool indices stands for."""
    return RuleList(tuple(pool.rules[i] for i in state))


def first_difference(old, new):
    """First position where two states differ; the shorter length if one extends the other."""
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b:
            return i
    return min(len(old), len(new))


class TestTemperature:
    def test_first_iteration_is_c0(self):
        assert temperature(1, 0.001) == 0.001

    def test_third_iteration_is_half_c0(self):
        assert temperature(3, 0.001) == 0.001 / 2


class TestAccept:
    def test_zero_delta_always_accepted(self):
        rng = np.random.default_rng(0)
        assert all(accept(0.0, n, 0.001, rng) for n in range(1, 200))

    def test_positive_delta_always_accepted(self):
        rng = np.random.default_rng(1)
        for n in (1, 10, 1000):
            assert accept(5.0, n, 0.001, rng)

    def test_negative_delta_rate_matches_closed_form(self):
        rng = np.random.default_rng(42)
        trials = 100_000
        hits = sum(accept(-0.001, 1, 0.001, rng) for _ in range(trials))
        assert abs(hits / trials - math.exp(-1)) <= 0.01

    def test_strongly_negative_delta_underflows_to_reject(self):
        rng = np.random.default_rng(2)
        assert not any(accept(-1.0, 50_000, 0.001, rng) for _ in range(50))


class TestInitList:
    def test_whole_pool_when_sizes_match(self):
        rules = [Rule((i,), 1) for i in range(3)]
        pool = pool_from_rules(rules)
        rl = as_list(pool, init_list(pool, 3, np.random.default_rng(0)))
        assert sorted(r.conditions for r in rl) == [(0,), (1,), (2,)]

    def test_deterministic(self):
        rules = [Rule((i,), i % 2) for i in range(10)]
        pool = pool_from_rules(rules)
        a = as_list(pool, init_list(pool, 3, np.random.default_rng(9)))
        b = as_list(pool, init_list(pool, 3, np.random.default_rng(9)))
        assert a.rules == b.rules

    def test_pool_too_small(self):
        with pytest.raises(SearchError, match="smaller"):
            init_list(pool_from_rules([Rule((0,), 1)]), 3, np.random.default_rng(0))

    def test_first_draw_uniform(self):
        rules = [Rule((i,), 1) for i in range(100)]
        pool = pool_from_rules(rules)
        rng = np.random.default_rng(1)
        counts = np.zeros(100)
        trials = 10_000
        for _ in range(trials):
            first = pool.rules[init_list(pool, 3, rng)[0]]
            counts[first.conditions[0]] += 1
        freq = counts / trials
        assert (np.abs(freq - 0.01) <= 0.003).all()


class _ScriptedRng:
    """Minimal generator stub with pre-scripted uniforms and integers."""

    def __init__(self, uniforms, integers=()):
        self._uniforms = list(uniforms)
        self._integers = list(integers)

    def random(self):
        return self._uniforms.pop(0)

    def integers(self, *args):
        return self._integers.pop(0)

    def choice(self, n, size, replace):
        raise AssertionError("swap should not be reachable in this script")


class TestPropose:
    def test_add_inserts_and_preserves_order(self):
        rules = [Rule((i,), 1) for i in range(6)]
        pool = pool_from_rules(rules)
        current = RuleList((rules[0], rules[1]))
        rng = _ScriptedRng(uniforms=[0.1], integers=[4, 1])
        new, op, k = propose(as_state(pool, current), pool, rng)
        assert op == "add" and k == 1
        assert as_list(pool, new).rules == (rules[0], rules[4], rules[1])

    def test_swap_infeasible_on_single_rule_list(self):
        rules = [Rule((i,), 1) for i in range(6)]
        pool = pool_from_rules(rules)
        current = RuleList((rules[0],))
        # scripted: swap requested, re-draw lands on remove
        rng = _ScriptedRng(uniforms=[0.6, 0.3], integers=[0])
        new, op, k = propose(as_state(pool, current), pool, rng)
        assert op == "remove" and k == 0
        assert len(new) == 0

    def test_identity_after_exhausted_attempts(self):
        rules = [Rule((0,), 1)]
        pool = pool_from_rules(rules)
        current = RuleList((rules[0],))
        # every attempt asks for add, which always duplicates the only rule
        rng = _ScriptedRng(uniforms=[0.1] * 16, integers=[0, 0] * 16)
        state = as_state(pool, current)
        new, op, k = propose(state, pool, rng)
        assert op == "identity" and k == 1
        assert new is state

    def test_remove_then_add_restores_list(self):
        rules = [Rule((i,), 1) for i in range(3)]
        current = RuleList(tuple(rules))
        removed = RuleList(current.rules[:1] + current.rules[2:])
        restored = RuleList(removed.rules[:1] + (rules[1],) + removed.rules[1:])
        assert restored.rules == current.rules

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_proposals_valid_and_sized(self, seed):
        rules = [Rule((i,), z) for i in range(5) for z in (0, 1)]
        pool = pool_from_rules(rules)
        current = RuleList((rules[0], rules[3], rules[5]))
        rng = np.random.default_rng(seed)
        state = as_state(pool, current)
        new, op, _k = propose(state, pool, rng)
        keys = [(r.conditions, r.output) for r in as_list(pool, new)]
        assert len(keys) == len(set(keys))
        if op == "add":
            assert len(new) == 4
        elif op == "remove":
            assert len(new) == 2
        elif op in ("swap", "replace"):
            assert len(new) == 3
        else:
            assert op == "identity" and new is state
        assert current.rules == (rules[0], rules[3], rules[5])  # input untouched

    @given(
        state=st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(0, n - 1), unique=True, max_size=8)
            )
        ),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_k_is_first_changed_position(self, state, seed):
        n_pool, indices = state
        pool = pool_from_rules([Rule((i,), 1) for i in range(n_pool)])
        old = tuple(indices)
        new, op, k = propose(old, pool, np.random.default_rng(seed))
        assert len(set(new)) == len(new)
        assert all(0 <= i < n_pool for i in new)
        if op == "identity":
            assert new is old and k == len(old)
        elif op == "replace" and new == old:
            assert 0 <= k < len(old)  # a rule replaced by itself changes nothing
        else:
            assert k == first_difference(old, new)


class TestRunSearch:
    def test_trace_monotone_and_final_at_least_initial(self):
        data, preds, pool = small_problem()
        cfg = SearchConfig(alpha=0.001, n_iters=2000, seed=5)
        result = run_search(data, preds, pool, cfg)
        best = [s.best_objective for s in result.trace.steps]
        assert all(b0 <= b1 for b0, b1 in zip(best, best[1:]))
        init = as_list(pool, init_list(pool, cfg.init_size, np.random.default_rng(cfg.seed)))
        init_obj = objective(init, data, preds, cfg.alpha).objective
        assert best[-1] >= init_obj
        assert result.objective.objective == best[-1]

    def test_bit_identical_reruns(self):
        data, preds, pool = small_problem(seed=3)
        cfg = SearchConfig(alpha=0.001, n_iters=1500, seed=11)
        r1 = run_search(data, preds, pool, cfg)
        r2 = run_search(data, preds, pool, cfg)
        assert r1.trace.steps == r2.trace.steps
        assert r1.best_list.rules == r2.best_list.rules
        assert r1.curve.points == r2.curve.points

    def test_scorer_matches_objective_module_bitwise(self):
        data, preds, pool = small_problem(seed=8)
        scorer = ChainScorer(data, preds, pool.rules, alpha=0.001, rules_only=False)
        rng = np.random.default_rng(0)
        current = init_list(pool, 3, rng)
        scorer.score(current, 0)
        scorer.commit()
        for _ in range(200):
            current, _op, k = propose(current, pool, rng)
            expected = objective(as_list(pool, current), data, preds, alpha=0.001).objective
            assert scorer.score(current, k) == expected
            scorer.commit()

    def test_guard_caps_accepted_length(self):
        data, preds, pool = small_problem(seed=2)
        cfg = SearchConfig(alpha=0.0, n_iters=3000, seed=1, max_rules_guard=4)
        result = run_search(data, preds, pool, cfg)
        assert len(result.best_list) <= 4
        current_len = 3
        for step in result.trace.steps:
            if step.accepted:
                if step.op == "add":
                    current_len += 1
                elif step.op == "remove":
                    current_len -= 1
                assert current_len <= 4

    def test_guard_disabled_matches_plain_run(self):
        data, preds, pool = small_problem(seed=4)
        cfg1 = SearchConfig(alpha=0.001, n_iters=800, seed=7)
        cfg2 = SearchConfig(alpha=0.001, n_iters=800, seed=7, max_rules_guard=None)
        assert run_search(data, preds, pool, cfg1).trace.steps == run_search(
            data, preds, pool, cfg2
        ).trace.steps

    def test_perfect_rule_is_kept(self):
        data = make_random_dataset(21, n_rows=100, n_features=4, p=0.5)
        labels = np.array(data.matrix)[:, 0].astype(np.uint8)  # label equals feature 0
        import crl

        data = crl.BinaryDataset.from_bool_matrix(data.matrix, labels, data.feature_names)
        preds = make_random_preds(5, data, accuracy=0.6)
        pool = mine_rules(data, gamma=0.05, max_cardinality=1)
        cfg = SearchConfig(alpha=0.001, n_iters=2000, seed=3)
        result = run_search(data, preds, pool, cfg)
        assert Rule((0,), 1) in result.best_list.rules

    def test_rules_only_scoring_matches_per_row_oracle_bitwise(self):
        data, preds, pool = small_problem(seed=13)
        alpha = 0.001
        scorer = ChainScorer(data, preds, pool.rules, alpha=alpha, rules_only=True)
        rng = np.random.default_rng(4)
        current = init_list(pool, 3, rng)
        scorer.score(current, 0)
        scorer.commit()
        for _ in range(200):
            current, _op, k = propose(current, pool, rng)
            expected = rules_only_oracle(data, as_list(pool, current), alpha)
            assert scorer.score(current, k) == expected
            scorer.commit()

    @given(
        seed=st.integers(0, 2**31),
        scoring=st.sampled_from(["companion", "rules_only"]),
        guard=st.integers(3, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_stateful_scorer_through_random_chains(self, seed, scoring, guard):
        data, preds, pool = small_problem(seed=seed % 7, n_rows=60)
        alpha = 0.001
        rules_only = scoring == "rules_only"
        scorer = ChainScorer(data, preds, pool.rules, alpha=alpha, rules_only=rules_only)
        masks = cover_masks(pool.rules, data, scorer.base_correct)

        def full_sweep(state):
            return sweep([masks[i] for i in state], scorer.base_correct, data.n_rows)

        rng = np.random.default_rng(seed)
        current = init_list(pool, 3, rng)
        scorer.score(current, 0)
        scorer.commit()
        for _ in range(60):
            if rng.random() < 0.1:
                proposal, k = current, len(current)  # an identity proposal
            else:
                proposal, _op, k = propose(current, pool, rng)
            committed = scorer.committed
            got = scorer.score(proposal, k)
            rule_list = as_list(pool, proposal)
            if scoring == "companion":
                expected = objective(rule_list, data, preds, alpha).objective
            else:
                expected = rules_only_oracle(data, rule_list, alpha)
            assert got == expected
            if len(proposal) <= guard and rng.random() < 0.5:
                scorer.commit()
                current = proposal
            else:  # rejected, by the guard or the coin
                assert scorer.committed is committed
            assert scorer.committed[0] == current
            assert scorer.committed[1] == full_sweep(current)

    def test_score_sweeps_no_state_twice_in_one_chain(self, monkeypatch):
        # the memo outlives commits: a state first scored against an earlier
        # committed list is not swept again either
        data, preds, pool = small_problem()
        swept = []

        def recording_sweep(masks, *args):
            levels = sweep(masks, *args)
            swept.append(len(levels))
            return levels

        # `crl.objective` names the objective function, so patch the module's globals
        monkeypatch.setitem(ChainScorer.score.__globals__, "sweep", recording_sweep)
        scorer = ChainScorer(data, preds, pool.rules, alpha=0.001, rules_only=False)
        rng = np.random.default_rng(3)
        current = init_list(pool, 3, rng)
        scorer.score(current, 0)
        scorer.commit()
        first_scored_at = {current: 0}  # state -> commits made before its first score
        commits = 1
        repeats_across_commits = 0
        for n in range(1, 1500):
            proposal, _op, k = propose(current, pool, rng)
            before = len(swept)
            scorer.score(proposal, k)
            if proposal in first_scored_at:
                assert len(swept) == before, proposal
                repeats_across_commits += first_scored_at[proposal] < commits
            else:
                assert len(swept) == before + 1, proposal
                first_scored_at[proposal] = commits
            if n % 20 == 0:
                scorer.commit()
                commits += 1
                current = proposal
        assert repeats_across_commits > 0

    def test_memo_hit_then_commit_sweeps_the_hit(self):
        data, preds, pool = small_problem()
        scorer = ChainScorer(data, preds, pool.rules, alpha=0.001, rules_only=False)
        masks = cover_masks(pool.rules, data, scorer.base_correct)

        def full_sweep(state):
            return sweep([masks[i] for i in state], scorer.base_correct, data.n_rows)

        a = (0, 1, 2)
        scorer.score(a, 0)
        scorer.commit()
        a_next, b_next = a + (3,), (0, 1, 3, 2)
        obj = scorer.score(a_next, 3)
        b_obj = scorer.score(b_next, 2)
        assert scorer.score(a_next, 3) == obj
        assert scorer._scored == (a_next, 3)  # a hit: no levels were swept
        scorer.commit()
        assert scorer.committed[0] == a_next
        assert scorer.committed[1] == full_sweep(a_next)
        # b_next was first scored against a, before a_next was committed
        assert scorer.score(b_next, 2) == b_obj
        assert scorer._scored == (b_next, 2)
        scorer.commit()
        assert scorer.committed[0] == b_next
        assert scorer.committed[1] == full_sweep(b_next)

    def test_empty_pool_rejected(self):
        data, preds, _ = small_problem()
        empty = CandidatePool(rules=(), supports=(), gamma=0.5, max_cardinality=2)
        with pytest.raises(SearchError):
            run_search(data, preds, empty, SearchConfig(alpha=0.001, n_iters=10))

    @pytest.mark.parametrize("n_preds", [5, 1])
    def test_misaligned_predictions_refused_before_the_chain(self, monkeypatch, n_preds):
        # refused before any draw, whether the length broadcasts against the labels (1) or not (5)
        data, _, pool = small_problem(n_rows=300)
        preds = PredictionVector(np.zeros(n_preds, dtype=np.uint8))
        proposed = []
        monkeypatch.setattr("crl.search.propose", lambda *a: proposed.append(a))
        with pytest.raises(DataError, match="does not align"):
            run_search(data, preds, pool, SearchConfig(alpha=0.001, n_iters=10))
        assert proposed == []


# sha256 over (op, accepted, float.hex of the proposed and best objectives) of
# every step of a fixed chain on small_problem(). Any change to these digests is
# a behaviour change of the search, not a speed-up. The "companion-short" chain
# starts empty and keeps lists of 0, 1 and 2 rules, where integers(1) and the
# first Floyd draw of choice(2, ...) consume no random bits.
TRACE_DIGESTS = {
    "rules_only": "bef5e52abb7b2f83f8bf482219b39bd227a3abaaeaca8695411d6c575e14c3bb",
    "companion-guard": "de81da5f2d3782a786994e604352b7d386b70c3e569719cafd45f8f563bf30ee",
    "companion-short": "4463f03d6ba7a157702e64b6e4665888d014b516108db5161619cf262ba84e20",
}


@pytest.mark.parametrize(
    "name, knobs",
    [
        ("rules_only", {"alpha": 0.001, "scoring": "rules_only"}),
        ("companion-guard", {"alpha": 0.0, "max_rules_guard": 4}),
        ("companion-short", {"alpha": 0.14, "init_size": 0}),
    ],
)
def test_search_trace_digest(name, knobs):
    data, preds, pool = small_problem()
    result = run_search(data, preds, pool, SearchConfig(n_iters=2000, seed=5, **knobs))
    h = hashlib.sha256()
    for s in result.trace.steps:
        h.update(
            f"{s.op},{s.accepted},{s.proposed_objective.hex()},{s.best_objective.hex()}\n".encode()
        )
    assert h.hexdigest() == TRACE_DIGESTS[name]


@pytest.mark.parametrize(
    "knobs",
    [
        {"alpha": math.nan},
        {"alpha": math.inf},
        {"alpha": 0.001, "c0": math.nan},
        {"alpha": 0.001, "c0": math.inf},
        {"alpha": 0.001, "seed": -1},
    ],
    ids=["alpha-nan", "alpha-inf", "c0-nan", "c0-inf", "seed-negative"],
)
def test_search_config_rejects_non_finite_and_negative_seed(knobs):
    with pytest.raises(ValueError):
        SearchConfig(**knobs)


class TestTuneAlpha:
    def test_every_candidate_checked_before_first_search(self, monkeypatch):
        data, preds, pool = small_problem(seed=6)
        searched = []
        monkeypatch.setattr("crl.search.run_search", lambda *a: searched.append(a))
        with pytest.raises(ValueError, match="alpha"):
            tune_alpha(data, preds, pool, candidates=(0.001, math.nan))
        assert searched == []

    def test_repeated_candidate_refused_before_first_search(self, monkeypatch):
        # repeats would run chains that differ only in their seeds
        data, preds, pool = small_problem(seed=6)
        searched = []
        monkeypatch.setattr("crl.search.run_search", lambda *a: searched.append(a))
        with pytest.raises(ValueError, match=r"^alpha candidate 0\.01 is given more than once$"):
            tune_alpha(data, preds, pool, candidates=(0.01, 0.001, 0.010))
        assert searched == []

    def test_single_admissible_candidate_chosen(self):
        data, preds, pool = small_problem(seed=6)
        base = SearchConfig(alpha=0.0, n_iters=400, seed=2)
        report = tune_alpha(data, preds, pool, candidates=(0.001,), base_config=base)
        assert report.chosen_alpha == 0.001
        assert report.candidates[0].admissible

    def test_inadmissible_candidates_marked_and_error_when_all(self):
        data, preds, pool = small_problem(seed=6)
        base = SearchConfig(alpha=0.0, n_iters=300, seed=2)
        with pytest.raises(SearchError, match="rule cap"):
            tune_alpha(data, preds, pool, candidates=(0.001, 0.0005), i_max=0, base_config=base)

    def test_argmax_on_training_autac(self):
        data, preds, pool = small_problem(seed=10)
        base = SearchConfig(alpha=0.0, n_iters=1200, seed=4)
        # a huge alpha forces an empty list (autac 0); a tiny one keeps rules
        report = tune_alpha(data, preds, pool, candidates=(0.8, 0.0001), base_config=base)
        assert report.chosen_alpha == 0.0001
        autacs = {c.alpha: c.train_autac for c in report.candidates}
        assert autacs[0.0001] > autacs[0.8]
        assert report.chosen_alpha in autacs

    def test_condition_count_reported(self):
        data, preds, pool = small_problem(seed=12)
        base = SearchConfig(alpha=0.0, n_iters=300, seed=1)
        report = tune_alpha(data, preds, pool, candidates=(0.001,), base_config=base)
        cand = report.candidates[0]
        assert cand.n_conditions == sum(len(r.conditions) for r in report.chosen.best_list)

    def test_chosen_autac_matches_curve(self):
        data, preds, pool = small_problem(seed=14)
        base = SearchConfig(alpha=0.0, n_iters=400, seed=9)
        report = tune_alpha(data, preds, pool, candidates=(0.005, 0.001), base_config=base)
        assert autac_hat(report.chosen.curve) == max(
            c.train_autac for c in report.candidates if c.admissible
        )


    @pytest.mark.parametrize("workers", [1, 2])
    def test_chosen_result_keeps_no_trace(self, monkeypatch, workers):
        # nothing reads a candidate's trace, so no worker pickles it to the parent
        monkeypatch.setattr(search, "_usable_cpus", lambda: workers)
        data, preds, pool = small_problem(seed=14)
        base = SearchConfig(alpha=0.0, n_iters=400, seed=9)
        report = tune_alpha(data, preds, pool, candidates=(0.005, 0.001), base_config=base)
        assert report.chosen.trace is None
        config = replace(base, alpha=report.chosen_alpha)
        seeds = dict(zip((0.005, 0.001), search.child_seeds(base.seed, 2)))
        alone = run_search(data, preds, pool, replace(config, seed=seeds[config.alpha]))
        assert report.chosen.best_list == alone.best_list
        assert report.chosen.curve.points == alone.curve.points


def assert_every_child_reaped():
    """The run left no child of this process behind, running or a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunChains:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_yields_each_job_result_in_order(self, monkeypatch, workers):
        monkeypatch.setattr(search, "_usable_cpus", lambda: workers)
        offset = 10
        # a closure does not pickle: workers inherit the job through the fork
        assert list(_run_chains(lambda i: i * i + offset, 5, "chain")) == [10, 11, 14, 19, 26]
        assert_every_child_reaped()

    def test_a_dead_worker_names_the_chain_waited_on(self, monkeypatch):
        # every chain ends its worker: the line names chain 0, the chain its
        # worker held when it ended and the first the run waits on
        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
        with pytest.raises(SearchError, match="^a worker process ended before chain 0 returned$"):
            list(_run_chains(lambda i: os._exit(9), 3, "chain"))

    def test_a_failed_chain_stops_the_chains_not_yet_started(self, monkeypatch, tmp_path):
        # chain 0 fails at once; the others take 0.5 s each. No chain starts
        # after the parent reads a failure, so only the chain each worker had
        # been handed before then may finish.
        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)

        def job(i):
            if i == 0:
                raise ValueError("chain 0 failed")
            time.sleep(0.5)
            (tmp_path / str(i)).touch()

        with pytest.raises(ValueError, match="chain 0 failed"):
            list(_run_chains(job, 8, "chain"))
        assert len(list(tmp_path.iterdir())) <= 2
        assert_every_child_reaped()

    def test_chains_go_to_whichever_worker_is_free(self, monkeypatch, tmp_path):
        # chain 0 runs until chains 1 and 2 have both run. Split up front over
        # 2 workers, chain 1 or chain 2 would wait behind chain 0 (0,1 | 2 or
        # 0,2 | 1) and the run would time out; handed out as workers free up,
        # chains 1 and 2 both run on the worker that chain 0 does not hold.
        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)

        def job(i):
            if i:
                (tmp_path / str(i)).touch()
                return i
            deadline = time.monotonic() + 30
            while not ((tmp_path / "1").exists() and (tmp_path / "2").exists()):
                if time.monotonic() > deadline:
                    raise TimeoutError("chains 1 and 2 did not run beside chain 0")
                time.sleep(0.01)
            return i

        assert list(_run_chains(job, 3, "chain")) == [0, 1, 2]
        assert_every_child_reaped()

    def test_large_results_arrive_whole_and_in_order(self, monkeypatch):
        # each result is many times a pipe's 64 KB, so each reply takes many reads
        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)

        def result(i):
            return random.Random(i).randbytes((1 << 20) + i)

        assert list(_run_chains(result, 4, "chain")) == [result(i) for i in range(4)]

    def test_forked_workers_write_each_line_once(self):
        # stdout is a pipe and buffered, so the parent's line sits unflushed
        # in its buffer when the workers are forked
        driver = (
            "import sys\n"
            "from crl import search\n"
            "search._usable_cpus = lambda: 2\n"
            "sys.stdout.write('parent line\\n')\n"
            "for _ in search._run_chains(lambda i: print(f'chain {i}'), 2, 'chain'):\n"
            "    pass\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(search.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", driver],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "parent line"
        assert sorted(lines[1:]) == ["chain 0", "chain 1"]

    def test_usable_cpus_is_one_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert search._usable_cpus() == 1

    @staticmethod
    def _affinity_calls(monkeypatch, fail: bool):
        """Fake the affinity calls of every process forked from here on.

        The parent's mask reads as CPUs 2, 5 and 7 whatever the host has; each
        process records its ``sched_setaffinity`` calls, and with ``fail``
        every call raises ``OSError`` as for a CPU taken offline. A job
        returns its worker's pid and calls; the two jobs wait for each other,
        so each runs in its own worker.
        """
        calls = []

        def setaffinity(pid, mask):
            calls.append((pid, set(mask)))
            if fail:
                raise OSError(22, "Invalid argument")

        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {7, 2, 5})
        monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
        both_running = multiprocessing.get_context("fork").Barrier(2)

        def job(i):
            both_running.wait(timeout=30)
            return os.getpid(), list(calls)

        return job

    def test_each_worker_moves_to_its_own_cpu_then_gets_its_mask_back(self, monkeypatch):
        job = self._affinity_calls(monkeypatch, fail=False)
        records = dict(_run_chains(job, 2, "chain"))
        # the first two CPUs of the parent's mask, one to each worker, then the whole mask
        calls = sorted(records.values(), key=lambda c: min(c[0][1]))
        assert calls == [[(0, {2}), (0, {2, 5, 7})], [(0, {5}), (0, {2, 5, 7})]]

    def test_a_failed_move_leaves_the_worker_running(self, monkeypatch):
        job = self._affinity_calls(monkeypatch, fail=True)
        results = list(_run_chains(lambda i: (i, job(i)), 2, "chain"))
        assert [i for i, _ in results] == [0, 1]
        # the first call failed, so the worker kept the mask it inherited
        assert all(len(calls) == 1 for _, (_, calls) in results)
