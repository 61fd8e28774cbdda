import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crl import (
    BinaryDataset,
    DataError,
    PredictionVector,
    Rule,
    RuleList,
    autac_hat,
    curve,
    objective,
)
from crl.data import pack_bool
from crl.objective import TradeoffCurve, cover_masks, level_for_t, sweep

from conftest import make_random_dataset, make_random_preds
from oracles import as_array, random_instance, simulate_autac, simulate_curve, simulate_first_match

FIG_POINTS = ((0.0, 0.92), (0.4, 0.90), (0.7, 0.84), (1.0, 0.75))
FIG_T = tuple(t for t, _ in FIG_POINTS)


class TestEstimatorsOnWorkedExample:
    def test_transparency_levels(self, d4):
        data, preds, rl = d4
        assert curve(rl, data, preds).points[0][0] == 0.0
        assert curve(rl, data, preds).points[1][0] == 0.5
        assert curve(rl, data, preds).points[2][0] == 0.75

    def test_accuracy_levels(self, d4):
        data, preds, rl = d4
        assert curve(rl, data, preds).points[0][1] == 0.5
        assert curve(rl, data, preds).points[1][1] == 0.25
        assert curve(rl, data, preds).points[2][1] == 0.5

    def test_curve_points(self, d4):
        data, preds, rl = d4
        assert curve(rl, data, preds).points == ((0.0, 0.5), (0.5, 0.25), (0.75, 0.5))

    def test_autac(self, d4):
        data, preds, rl = d4
        assert autac_hat(curve(rl, data, preds)) == 0.28125

    def test_objective_with_penalty(self, d4):
        data, preds, rl = d4
        val = objective(rl, data, preds, alpha=0.01)
        assert val.objective == pytest.approx(0.26125, abs=1e-15)
        assert val.objective == val.autac - val.penalty
        assert val.penalty == 0.01 * 2

    def test_zero_alpha_objective_is_autac(self, d4):
        data, preds, rl = d4
        val = objective(rl, data, preds, alpha=0.0)
        assert val.objective == val.autac == 0.28125

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf"), -0.5])
    def test_alpha_not_finite_and_non_negative_is_refused(self, d4, alpha):
        # the same check and message as SearchConfig
        data, preds, rl = d4
        with pytest.raises(ValueError, match=r"^alpha must be a finite number >= 0$"):
            objective(rl, data, preds, alpha)


class TestCurveEdges:
    def test_empty_list_single_point(self, d4):
        data, preds, _ = d4
        c = curve(RuleList(), data, preds)
        assert c.points == ((0.0, 0.5),)
        assert autac_hat(c) == 0.0

    def test_left_endpoint_is_blackbox_accuracy(self, d4):
        data, preds, rl = d4
        specs = [(r.conditions, r.output) for r in rl]
        *_, points = simulate_curve(specs, data.matrix, data.labels, preds.preds)
        assert curve(rl, data, preds).points[0][1] == points[0][1]

    def test_figure_curve_area(self):
        assert abs(autac_hat(FIG_POINTS) - 0.8635) < 1e-12

    def test_alignment_mismatch(self, d4):
        data, _, rl = d4
        short = PredictionVector(np.array([1, 0], dtype=np.uint8))
        with pytest.raises(DataError, match="align"):
            curve(rl, data, short)


class TestZeroCoverPenalty:
    def test_appending_shadowed_rule_costs_exactly_alpha(self, d4):
        data, preds, rl = d4
        # same antecedent as rule 1 with flipped output: empty exclusive cover
        extended = RuleList(rl.rules + (Rule((0,), 0),))
        alpha = 1.0 / 1024.0  # dyadic so the float arithmetic is exact
        before = objective(rl, data, preds, alpha)
        after = objective(extended, data, preds, alpha)
        assert autac_hat(curve(extended, data, preds)) == before.autac
        assert before.objective - after.objective == alpha


class TestLevelForT:
    def test_interpolation_between_levels(self):
        m, q = level_for_t(FIG_T, 0.55)
        assert m == 1
        assert q == pytest.approx(0.5, abs=1e-12)

    def test_boundary_has_zero_fraction(self):
        assert level_for_t(FIG_T, 0.7) == (2, 0.0)

    def test_zero_transparency(self):
        assert level_for_t(FIG_T, 0.0) == (0, 0.0)

    def test_beyond_coverage_raises(self):
        with pytest.raises(DataError, match="exceeds list coverage"):
            level_for_t((0.0, 0.6), 0.7)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_raises(self, t):
        expected = "exceeds list coverage" if t > 0 else r"is not in \[0, 1.0\]"
        with pytest.raises(DataError, match=expected):
            level_for_t(FIG_T, t)

    def test_duplicate_levels_skipped(self):
        t_values = (0.0, 0.4, 0.4, 0.8)
        m, q = level_for_t(t_values, 0.4)
        assert m == 2 and q == 0.0
        m, q = level_for_t(t_values, 0.6)
        assert m == 2
        assert q == pytest.approx(0.5, abs=1e-12)

    def test_full_coverage_endpoint(self):
        assert level_for_t(FIG_T, 1.0) == (3, 0.0)


class TestInvariants:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_monotone_bounded_transparency(self, seed):
        data = make_random_dataset(seed, n_rows=32, n_features=6)
        preds = make_random_preds(seed + 1, data)
        rl = RuleList((Rule((0,), 1), Rule((1, 2), 0), Rule((3,), 1)))
        c = curve(rl, data, preds)
        ts = c.transparency
        assert ts[0] == 0.0
        assert all(t0 <= t1 for t0, t1 in zip(ts, ts[1:]))
        assert all(0.0 <= t <= 1.0 for t in ts)
        assert all(0.0 <= a <= 1.0 for a in c.accuracy)
        assert 0.0 <= autac_hat(c) <= c.coverage <= 1.0

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed):
        data = make_random_dataset(seed, n_rows=24, n_features=5)
        preds = make_random_preds(seed + 1, data)
        rl = RuleList((Rule((0,), 1), Rule((1,), 0)))
        c1 = curve(rl, data, preds)
        perm = np.random.default_rng(seed).permutation(data.n_rows)
        data2 = BinaryDataset.from_bool_matrix(
            np.array(data.matrix)[perm], as_array(data.labels)[perm], data.feature_names
        )
        preds2 = PredictionVector(as_array(preds.preds)[perm])
        c2 = curve(rl, data2, preds2)
        assert c1.points == c2.points
        assert autac_hat(c1) == autac_hat(c2)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_sweep_matches_naive_recomputation_bitwise(self, seed):
        data = make_random_dataset(seed, n_rows=28, n_features=6)
        preds = make_random_preds(seed + 3, data)
        rl = RuleList((Rule((0, 1), 1), Rule((2,), 0), Rule((0,), 0)))
        c = curve(rl, data, preds)
        specs = [(r.conditions, r.output) for r in rl]
        *_, points = simulate_curve(specs, data.matrix, data.labels, preds.preds)
        for m in range(len(rl) + 1):
            assert points[m][0] == c.points[m][0]
            assert points[m][1] == c.points[m][1]

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_counts_match_per_row_oracle(self, seed):
        rng = np.random.default_rng(seed)
        matrix, labels, bb, specs = random_instance(rng)
        names = tuple(f"f{j}" for j in range(matrix.shape[1]))
        data = BinaryDataset.from_bool_matrix(matrix, labels, names)
        preds = PredictionVector(bb)
        rl = RuleList(tuple(Rule(c, z) for c, z in specs))
        c = curve(rl, data, preds)
        covered, corrects, bb_rest, points = simulate_curve(specs, matrix, labels, bb)
        assert list(c.covered_counts) == covered
        assert list(c.rule_correct_counts) == corrects
        assert c.points == tuple(points)
        assert autac_hat(c) == simulate_autac(points)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_level_stats_match_per_row_oracle(self, seed):
        # rule m's support and accuracy are counted on the rows whose first match is rule m
        rng = np.random.default_rng(seed)
        matrix, labels, bb, specs = random_instance(rng)
        names = tuple(f"f{j}" for j in range(matrix.shape[1]))
        data = BinaryDataset.from_bool_matrix(matrix, labels, names)
        c = curve(RuleList(tuple(Rule(cs, z) for cs, z in specs)), data, PredictionVector(bb))
        match = simulate_first_match(specs, matrix)
        assert c.level_stats(0) == (0, None, *c.points[0])
        for m, (_, output) in enumerate(specs, start=1):
            mine = match == m - 1
            support = int(mine.sum())
            right = int((mine & (labels == output)).sum())
            expected = (support, right / support if support else None, *c.points[m])
            assert c.level_stats(m) == expected
        for m in (-1, len(specs) + 1):
            with pytest.raises(IndexError):
                c.level_stats(m)

    @given(seed=st.integers(0, 2**31), base=st.sampled_from(["blackbox", "majority"]))
    @settings(max_examples=60, deadline=None)
    def test_level_state_matches_per_row_oracle(self, seed, base):
        # C_m is the rule's answer on rows the first m rules cover, the base's elsewhere
        rng = np.random.default_rng(seed)
        matrix, labels, bb, specs = random_instance(rng)
        n = matrix.shape[0]
        names = tuple(f"f{j}" for j in range(matrix.shape[1]))
        data = BinaryDataset.from_bool_matrix(matrix, labels, names)
        if base == "majority":  # the rules-only baseline's base
            bb = np.full(n, 1 if 2 * int(labels.sum()) >= n else 0, dtype=np.uint8)
        base_ok = bb == labels
        base_correct = pack_bool(base_ok)
        rl = RuleList(tuple(Rule(c, z) for c, z in specs))
        levels = sweep(cover_masks(rl, data, base_correct), base_correct, n)
        match = simulate_first_match(specs, matrix)
        assert len(levels) == len(specs) + 1
        for m, (covered, correct, n_covered, *_) in enumerate(levels):
            inside = (match != -1) & (match < m)
            rule_ok = np.array([j != -1 and specs[j][1] == y for j, y in zip(match, labels)])
            assert covered == pack_bool(inside)
            assert correct == pack_bool(np.where(inside, rule_ok, base_ok))
            assert n_covered == covered.bit_count()
        _, corrects, _, points = simulate_curve(specs, matrix, labels, bb)
        read = TradeoffCurve.from_sweep(levels)
        assert list(read.rule_correct_counts) == corrects
        assert read.points == tuple(points)
