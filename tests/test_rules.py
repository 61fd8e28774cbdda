import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crl import BinaryDataset, Rule, RuleList
from crl.data import pack_bool
from crl.objective import FirstMatch, cover_masks, sweep
from crl.rules import raw_cover

from conftest import make_random_dataset
from oracles import simulate_first_match


def to_indices(bits):
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def match_of(rule_list, data):
    """Per-row first-match index, read off the list's prefix sweep."""
    levels = sweep(cover_masks(rule_list, data, 0), 0, data.n_rows)
    return FirstMatch.from_sweep(levels, data.n_rows).indices()


def dataset_from_columns(columns, n_rows):
    matrix = np.zeros((n_rows, len(columns)), dtype=bool)
    for j, rows in enumerate(columns):
        matrix[list(rows), j] = True
    labels = np.zeros(n_rows, dtype=np.uint8)
    labels[0] = 1
    names = tuple(f"f{j}" for j in range(len(columns)))
    return BinaryDataset.from_bool_matrix(matrix, labels, names)


class TestRawCover:
    def test_two_condition_intersection(self):
        # f0 holds on rows {0,1}, f1 on rows {1,2}; the conjunction on row 1
        data = dataset_from_columns([{0, 1}, {1, 2}], 4)
        cover = raw_cover(Rule((0, 1), 1), data)
        assert to_indices(cover) == [1]

    def test_empty_intersection(self):
        data = dataset_from_columns([{0}, {3}], 4)
        assert raw_cover(Rule((0, 1), 1), data) == 0

    def test_single_condition_is_column(self):
        data = dataset_from_columns([{0, 2}, {1}], 4)
        assert raw_cover(Rule((0,), 0), data) == data.feature_bits[0]

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_pair_cover_is_and_of_singles(self, seed):
        data = make_random_dataset(seed, n_rows=30, n_features=5)
        rng = np.random.default_rng(seed)
        i, j = rng.choice(5, size=2, replace=False)
        pair = raw_cover(Rule((int(i), int(j)), 1), data)
        single_and = raw_cover(Rule((int(i),), 1), data) & raw_cover(Rule((int(j),), 1), data)
        assert pair == single_and


class TestExclusiveCovers:
    # rule k's exclusive cover is the set of rows whose first-match index is k
    def test_hand_example(self):
        data = dataset_from_columns([{0, 1}, {1, 2}], 4)
        rl = RuleList((Rule((0,), 1), Rule((1,), 1)))
        assert match_of(rl, data) == [0, 0, 1, -1]

    def test_first_rule_keeps_raw_cover(self):
        data = dataset_from_columns([{0, 3}, {1}], 4)
        rl = RuleList((Rule((0,), 1), Rule((1,), 0)))
        assert pack_bool(k == 0 for k in match_of(rl, data)) == raw_cover(rl[0], data)

    def test_shadowed_rule_empty(self):
        data = dataset_from_columns([{0, 1}], 4)
        rl = RuleList((Rule((0,), 1), Rule((0,), 0)))
        assert match_of(rl, data) == [0, 0, -1, -1]

    @given(
        seed=st.integers(0, 2**31),
        n_rules=st.integers(0, 4),
        shadow=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_disjoint_union_and_first_match_agreement(self, seed, n_rules, shadow):
        data = make_random_dataset(seed, n_rows=40, n_features=6)
        rng = np.random.default_rng(seed)
        specs = []
        seen = set()
        while len(specs) < n_rules:
            conds = tuple(sorted(rng.choice(6, size=int(rng.integers(1, 3)), replace=False).tolist()))
            z = int(rng.integers(0, 2))
            if (conds, z) not in seen:
                seen.add((conds, z))
                specs.append((conds, z))
        # the first rule's antecedent with the other output catches no row
        shadowed = (specs[0][0], 1 - specs[0][1]) if specs else None
        shadow = shadow and shadowed is not None and shadowed not in seen
        if shadow:
            specs.append(shadowed)
        rl = RuleList(tuple(Rule(c, z) for c, z in specs))
        idx = match_of(rl, data)
        assert all(type(k) is int for k in idx)
        assert idx == simulate_first_match(specs, data.matrix).tolist()
        raw_union = 0
        for r in rl:
            raw_union |= raw_cover(r, data)
        assert pack_bool(k >= 0 for k in idx) == raw_union
        if shadow:
            assert len(rl) - 1 not in idx


@pytest.mark.parametrize("n_rules", [127, 128, 300])
def test_first_match_of_long_lists(n_rules):
    # an index takes two bytes once the list has 128 rules or more
    data = make_random_dataset(5, n_rows=200, n_features=30, p=0.1)
    pairs = [(i, j) for i in range(30) for j in range(i + 1, 30)]
    specs = [(pair, k % 2) for k, pair in enumerate(pairs[:n_rules])]
    rl = RuleList(tuple(Rule(c, z) for c, z in specs))
    assert match_of(rl, data) == simulate_first_match(specs, data.matrix).tolist()


def first_match_output(rule_list, instance):
    """The first matching rule's output for one instance; None when no rule fires."""
    names = tuple(f"f{j}" for j in range(len(instance)))
    data = BinaryDataset.from_bool_matrix([instance], np.zeros(1, np.uint8), names)
    k = match_of(rule_list, data)[0]
    return None if k < 0 else rule_list[k].output


class TestPredictRuleList:
    def test_first_match_wins(self):
        rl = RuleList((Rule((0,), 1), Rule((1,), 0)))
        assert first_match_output(rl, [1, 1]) == 1

    def test_second_rule_when_first_misses(self):
        rl = RuleList((Rule((0,), 1), Rule((1,), 0)))
        assert first_match_output(rl, [0, 1]) == 0

    def test_uncovered_is_none(self):
        rl = RuleList((Rule((0,), 1),))
        assert first_match_output(rl, [0, 1]) is None

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_rowwise_agreement_with_exclusive_assignment(self, seed):
        data = make_random_dataset(seed, n_rows=25, n_features=5)
        rl = RuleList((Rule((0, 1), 1), Rule((2,), 0), Rule((3,), 1)))
        idx = match_of(rl, data)
        for i in range(data.n_rows):
            expected = None if idx[i] == -1 else rl[int(idx[i])].output
            assert first_match_output(rl, data.matrix[i]) == expected


class TestRuleValidation:
    def test_conditions_canonicalized(self):
        assert Rule((3, 1, 3), 1).conditions == (1, 3)

    def test_empty_antecedent_rejected(self):
        with pytest.raises(ValueError):
            Rule((), 1)

    def test_bad_output_rejected(self):
        with pytest.raises(ValueError):
            Rule((0,), 2)

    def test_duplicate_rules_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RuleList((Rule((0,), 1), Rule((0,), 1)))

    def test_same_antecedent_different_output_allowed(self):
        rl = RuleList((Rule((0,), 1), Rule((0,), 0)))
        assert len(rl) == 2
