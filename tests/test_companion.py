import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crl import (
    BinaryDataset,
    CompanionEvaluator,
    DataError,
    PredictionVector,
    Rule,
    RuleList,
)
from crl.objective import level_for_t
from crl.streams import Stream

from conftest import Twin, make_random_dataset, make_random_preds
from oracles import as_array, random_instance, simulate_first_match


def fixed_model(seed=11, n_rows=240):
    """A five-rule list with strictly increasing coverage on a fixed dataset."""
    data = make_random_dataset(seed, n_rows=n_rows, n_features=8, p=0.45)
    preds = make_random_preds(seed + 1, data, accuracy=0.8)
    rl = RuleList(
        (
            Rule((0, 1), 1),
            Rule((2, 3), 0),
            Rule((4,), 1),
            Rule((5,), 0),
            Rule((6,), 1),
        )
    )
    return CompanionEvaluator(rl, data, preds)


class TestLevelPredictions:
    def test_level_zero_is_blackbox_verbatim(self, d4):
        data, preds, rl = d4
        ev = CompanionEvaluator(rl, data, preds)
        out, prov = ev.level_predictions(0)
        assert out == preds.preds
        assert prov == [-1] * data.n_rows

    def test_full_level_uses_rules_with_fallback(self, d4):
        data, preds, rl = d4
        ev = CompanionEvaluator(rl, data, preds)
        out, prov = ev.level_predictions(2)
        # rows 0,1 match rule 0; row 2 matches rule 1; row 3 falls back
        assert prov == [0, 0, 1, -1]
        assert list(out) == [1, 1, 1, 1]

    def test_level_accuracy_matches_curve(self):
        ev = fixed_model()
        labels = as_array(ev.data.labels)
        for m in range(ev.n_levels + 1):
            out, _ = ev.level_predictions(m)
            assert (as_array(out) == labels).sum() / len(labels) == ev.curve.points[m][1]

    def test_provenance_counts_match_exclusive_covers(self):
        ev = fixed_model()
        specs = [(r.conditions, r.output) for r in ev.rule_list]
        match = simulate_first_match(specs, ev.data.matrix)
        _, prov = ev.level_predictions(ev.n_levels)
        prov = np.array(prov)
        for k in range(ev.n_levels):
            assert int((prov == k).sum()) == int((match == k).sum())

    def test_residual_fraction(self):
        ev = fixed_model()
        _, prov = ev.level_predictions(ev.n_levels)
        assert float((np.array(prov) == -1).mean()) == pytest.approx(ev.residual_fraction())

    def test_level_out_of_range(self):
        ev = fixed_model()
        with pytest.raises(DataError):
            ev.level_predictions(6)


    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_provenance_matches_per_row_oracle(self, seed):
        rng = np.random.default_rng(seed)
        matrix, labels, bb, specs = random_instance(rng)
        names = tuple(f"f{j}" for j in range(matrix.shape[1]))
        data = BinaryDataset.from_bool_matrix(matrix, labels, names)
        rl = RuleList(tuple(Rule(c, z) for c, z in specs))
        ev = CompanionEvaluator(rl, data, PredictionVector(bb))
        match = simulate_first_match(specs, matrix)
        for m in range(len(specs) + 1):
            out, prov = ev.level_predictions(m)
            expected = np.where((match >= 0) & (match < m), match, -1)
            assert prov == expected.tolist()
            for i in range(len(bb)):
                want = bb[i] if expected[i] == -1 else specs[expected[i]][1]
                assert out[i] == want


class TestStochasticPredictions:
    def test_boundary_equals_level_for_any_seed(self):
        ev = fixed_model()
        ts = ev.curve.transparency
        for m in range(ev.n_levels + 1):
            lvl_out, lvl_prov = ev.level_predictions(m)
            for seed in (0, 1, 99):
                out, prov = ev.stochastic_predictions(ts[m], Twin(seed), ts)
                assert out == lvl_out
                assert prov == lvl_prov

    def test_beyond_coverage_raises(self):
        ev = fixed_model()
        ts = ev.curve.transparency
        with pytest.raises(DataError, match="exceeds list coverage"):
            ev.stochastic_predictions(ev.curve.coverage + 0.01, Twin(0), ts)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_number_of_level_transparencies_refused(self, extra):
        ev = fixed_model()
        ts = ev.curve.transparency
        ts = ts[:extra] if extra < 0 else ts + (1.0,)
        with pytest.raises(DataError, match=rf"^{len(ts)} level transparencies .* \(need 6\)$"):
            ev.stochastic_predictions(0.0, Twin(0), ts)

    def test_descending_level_transparencies_refused(self):
        # a swapped pair of levels would send t to the wrong level
        ev = fixed_model()
        ts = list(ev.curve.transparency)
        ts[2], ts[3] = ts[3], ts[2]
        assert ts[2] > ts[3]
        with pytest.raises(DataError, match=r"^level transparencies must ascend"):
            ev.stochastic_predictions(ts[3], Twin(0), tuple(ts))

    def test_tied_level_transparencies_accepted(self):
        ev = fixed_model()
        ts = ev.curve.transparency
        tied = (ts[0], ts[1], ts[1], *ts[3:])
        out, _ = ev.stochastic_predictions(ts[1], Twin(0), tied)
        assert out == ev.level_predictions(2)[0]

    def test_expected_transparency_midpoint(self):
        ev = fixed_model()
        ts = ev.curve.transparency
        t = (ts[2] + ts[3]) / 2
        rng = Twin(123)
        draws = 20_000
        total = 0.0
        for _ in range(draws):
            _, prov = ev.stochastic_predictions(t, rng, ts)
            total += (np.array(prov) >= 0).mean()
        assert abs(total / draws - t) <= 0.01

    def test_matches_per_instance_reference(self):
        # the vectorized path must agree with a row-by-row reference that maps t
        # through the given levels and walks the rules on each row
        ev = fixed_model(n_rows=60)
        ts = ev.curve.transparency
        t = (ts[1] + ts[2]) / 2
        seed = 5
        out, prov = ev.stochastic_predictions(t, Twin(seed), ts)
        eps = np.random.default_rng(seed).random(ev.data.n_rows)
        specs = [(r.conditions, r.output) for r in ev.rule_list]
        match = simulate_first_match(specs, ev.data.matrix)
        m, q = level_for_t(ts, t)
        for i in range(ev.data.n_rows):
            k = int(match[i])
            adopt = 0 <= k < m or (k == m and eps[i] < q)
            assert prov[i] == (k if adopt else -1)
            assert out[i] == (specs[k][1] if adopt else ev.preds.preds[i])

    def test_levels_come_from_the_argument_not_the_batch(self):
        # the first k rows predicted alone answer as they do in the full table:
        # t maps through the given levels, and row i takes the i-th draw
        ev = fixed_model()
        ts = ev.curve.transparency
        t = (ts[2] + ts[3]) / 2
        full_out, full_prov = ev.stochastic_predictions(t, Twin(3), ts)
        rows = range(ev.data.n_rows // 3)
        head = CompanionEvaluator(ev.rule_list, ev.data.subset(rows), ev.preds.subset(rows))
        assert head.curve.transparency != ts
        out, prov = head.stochastic_predictions(t, Twin(3), ts)
        assert out == full_out[: len(rows)]
        assert prov == full_prov[: len(rows)]

    @given(
        seed=st.integers(0, 2**31),
        n_rows=st.integers(1, 60),
        where=st.floats(0.0, 1.0),
        draw_seed=st.integers(0, 2**63),
        kind=st.sampled_from(["stream", "numpy"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_band_only_equals_comparing_every_row(self, seed, n_rows, where, draw_seed, kind):
        # only the band's draws are compared; comparing every row's draw and
        # keeping the band's answers must give the same predictions
        data = make_random_dataset(seed, n_rows=n_rows, n_features=6, p=0.4)
        preds = make_random_preds(seed + 1, data)
        rl = RuleList((Rule((0,), 1), Rule((1, 2), 0), Rule((3,), 1), Rule((4,), 0)))
        ev = CompanionEvaluator(rl, data, preds)
        ts = ev.curve.transparency
        t = where * ts[-1]

        def rng():
            return Stream(draw_seed) if kind == "stream" else Twin(draw_seed)

        out, prov = ev.stochastic_predictions(t, rng(), ts)
        m, q = level_for_t(ts, t)
        below = [q > e for e in rng().random(n_rows)]  # every row's draw compared
        _, match = ev.level_predictions(ev.n_levels)
        want_prov = [k if 0 <= k < m or (k == m and b) else -1 for k, b in zip(match, below)]
        want_out = bytes(
            preds.preds[i] if k == -1 else rl[k].output for i, k in enumerate(want_prov)
        )
        assert (out, prov) == (want_out, want_prov)


class TestCompanionModel:
    # a row's answer read off a one-row batch whose black-box says 0
    @staticmethod
    def one_row(d4, i, level):
        data, _, rl = d4
        ev = CompanionEvaluator(rl, data.subset([i]), PredictionVector(np.zeros(1, np.uint8)))
        out, prov = ev.level_predictions(level)
        return int(out[0]), int(prov[0])

    def test_instance_level_prediction_with_callback(self, d4):
        # uncovered row 3 goes to the black-box
        assert self.one_row(d4, 3, 2) == (0, -1)
        assert self.one_row(d4, 0, 2) == (1, 0)
        assert self.one_row(d4, 0, 0) == (0, -1)

    @pytest.mark.parametrize("level", [-1, 3])
    def test_instance_level_out_of_range(self, d4, level):
        with pytest.raises(DataError, match=f"level {level} out of range 0..2"):
            self.one_row(d4, 0, level)


class TestAlignment:
    def test_misaligned_predictions_rejected(self, d4):
        data, _, rl = d4
        with pytest.raises(DataError, match="align"):
            CompanionEvaluator(rl, data, PredictionVector(np.array([1], dtype=np.uint8)))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_level_predictions_reproduce_accuracy_decomposition(self, seed):
        data = make_random_dataset(seed, n_rows=30, n_features=6)
        preds = make_random_preds(seed + 2, data)
        rl = RuleList((Rule((0,), 1), Rule((1,), 0), Rule((2, 3), 1)))
        ev = CompanionEvaluator(rl, data, preds)
        for m in range(len(rl) + 1):
            out, prov = ev.level_predictions(m)
            out, prov, labels = as_array(out), np.array(prov), as_array(data.labels)
            rule_part = int(((prov >= 0) & (out == labels)).sum())
            bb_part = int(((prov == -1) & (out == labels)).sum())
            assert rule_part == ev.curve.rule_correct_counts[m]
            total = ev.curve.points[m][1] * data.n_rows
            assert rule_part + bb_part == round(total)
