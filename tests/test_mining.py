import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crl import BinaryDataset, DataError, Rule, mine_rules
from crl.mining import CandidatePool, subsample_for_mining

from oracles import brute_force_pool


def tiny_dataset():
    # 4 rows; positives are rows 0 and 2, and f2 is set on exactly those
    matrix = np.array(
        [[1, 0, 1], [1, 1, 0], [0, 1, 1], [0, 0, 0]], dtype=bool
    )
    labels = np.array([1, 0, 1, 0], dtype=np.uint8)
    return BinaryDataset.from_bool_matrix(matrix, labels, ("f0", "f1", "f2"))


def random_dataset(seed, n_rows=120, n_features=8):
    rng = np.random.default_rng(seed)
    matrix = rng.random((n_rows, n_features)) < rng.uniform(0.2, 0.7, size=n_features)
    labels = (rng.random(n_rows) < 0.5).astype(np.uint8)
    names = tuple(f"f{i}" for i in range(n_features))
    return BinaryDataset.from_bool_matrix(matrix, labels, names)


class TestMineRules:
    def test_full_class_support_rule_found(self):
        pool = mine_rules(tiny_dataset(), gamma=0.5, max_cardinality=2)
        by_key = {(r.conditions, r.output): s for r, s in zip(pool.rules, pool.supports)}
        assert by_key[((2,), 1)] == 1.0

    def test_unreachable_threshold_raises(self):
        matrix = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=bool)
        labels = np.array([1, 1, 0, 0], dtype=np.uint8)
        data = BinaryDataset.from_bool_matrix(matrix, labels, ("a", "b"))
        with pytest.raises(DataError, match="lower gamma"):
            mine_rules(data, gamma=1.0, max_cardinality=1)

    def test_cardinality_one_pool_bounded(self):
        data = random_dataset(3)
        pool = mine_rules(data, gamma=0.05, max_cardinality=1)
        assert all(len(r.conditions) == 1 for r in pool.rules)
        assert len(pool) <= 2 * data.n_features

    def test_single_class_rejected(self):
        matrix = np.eye(4, 2, dtype=bool)
        data = BinaryDataset.from_bool_matrix(matrix, np.ones(4, dtype=np.uint8), ("a", "b"))
        with pytest.raises(DataError, match="both label classes"):
            mine_rules(data)

    def test_canonical_order_and_determinism(self):
        data = random_dataset(7)
        p1 = mine_rules(data, gamma=0.1)
        p2 = mine_rules(data, gamma=0.1)
        assert p1.rules == p2.rules
        keys = [(len(r.conditions), r.conditions, r.output) for r in p1.rules]
        assert keys == sorted(keys)

    def test_no_duplicate_rules(self):
        pool = mine_rules(random_dataset(9), gamma=0.05)
        keys = [(r.conditions, r.output) for r in pool.rules]
        assert len(keys) == len(set(keys))

    def test_same_antecedent_in_both_classes_kept(self):
        # a feature set on half of each class is frequent for both outputs
        matrix = np.array([[1], [1], [1], [1]], dtype=bool)
        labels = np.array([1, 1, 0, 0], dtype=np.uint8)
        data = BinaryDataset.from_bool_matrix(matrix, labels, ("a",))
        pool = mine_rules(data, gamma=0.5, max_cardinality=1)
        keys = {(r.conditions, r.output) for r in pool.rules}
        assert ((0,), 0) in keys and ((0,), 1) in keys

    @given(seed=st.integers(0, 2**31), gamma=st.sampled_from([0.05, 0.1, 0.3]))
    @settings(max_examples=25, deadline=None)
    def test_brute_force_equivalence(self, seed, gamma):
        data = random_dataset(seed, n_rows=80, n_features=7)
        expected = brute_force_pool(data.matrix, data.labels, gamma, 2)
        pool = mine_rules(data, gamma=gamma, max_cardinality=2)
        got = {(r.conditions, r.output): s for r, s in zip(pool.rules, pool.supports)}
        assert got == expected

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_anti_monotonicity(self, seed):
        data = random_dataset(seed, n_rows=100, n_features=8)
        pool = mine_rules(data, gamma=0.05, max_cardinality=2)
        singles = {
            (r.conditions[0], r.output) for r in pool.rules if len(r.conditions) == 1
        }
        for r in pool.rules:
            if len(r.conditions) == 2:
                assert (r.conditions[0], r.output) in singles
                assert (r.conditions[1], r.output) in singles

    def test_pool_rejects_equal_rules(self):
        # conditions are canonicalized, so these two rules are equal
        rules = (Rule((1, 0), 1), Rule((0, 1), 1))
        with pytest.raises(ValueError, match="distinct"):
            CandidatePool(rules=rules, supports=(1.0, 1.0), gamma=0.05, max_cardinality=2)


class TestSubsample:
    def test_identity_at_full_fraction(self):
        data = tiny_dataset()
        assert subsample_for_mining(data, 1.0, seed=0) is data

    def test_deterministic_and_sized(self):
        data = random_dataset(5, n_rows=1000)
        a = subsample_for_mining(data, 0.5, seed=4)
        b = subsample_for_mining(data, 0.5, seed=4)
        assert a.n_rows == b.n_rows == 500
        assert a.feature_bits == b.feature_bits

    def test_empty_subsample_rejected(self):
        data = tiny_dataset()
        with pytest.raises(ValueError):
            subsample_for_mining(data, 0.1, seed=0)

    def test_repeated_shrink_mimics_step_decay(self):
        data = random_dataset(8, n_rows=1000)
        once = subsample_for_mining(data, 0.9, seed=2)
        twice = subsample_for_mining(once, 0.9, seed=3)
        assert twice.n_rows == int(0.9 * int(0.9 * 1000))
