"""Twin properties: every :class:`Stream` draw equals the same call on a numpy
``Generator`` of the same seed, and leaves the two streams at the same place;
the seeds, raw outputs and permutations under it equal numpy's too."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crl.mining import CandidatePool
from crl.rules import Rule
from crl.search import init_list
from crl.streams import SeedSequence, Stream, _raw_outputs, child_seeds, permutations

_DRAW = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.sampled_from([1, 2, 3, 144, 380, 2**31 + 5])),
    st.integers(1, 40).flatmap(lambda m: st.tuples(st.just("choice"), st.just(m), st.integers(0, m))),
    st.tuples(st.just("batch"), st.sampled_from([0, 1, 7, 2000])),
)


def draw_both(stream, twin, draw):
    """One draw from each; the stream's result as a plain value, and the twin's."""
    if draw[0] == "random":
        return stream.random(), twin.random()
    if draw[0] == "integers":
        got = stream.integers(draw[1])
        assert type(got) is int
        return got, int(twin.integers(draw[1]))
    if draw[0] == "choice":
        _, m, k = draw
        return stream.choice(m, size=k, replace=False), twin.choice(m, size=k, replace=False).tolist()
    return stream.random(draw[1]), twin.random(draw[1]).tolist()


def loop_draws(stream, twin, n):
    """``n`` rounds of the draws a search loop makes, each checked against the twin."""
    for i in range(n):
        for draw in (("random",), ("integers", 7 + i), ("choice", 5, 2)):
            got, want = draw_both(stream, twin, draw)
            assert got == want, draw


class TestStream:
    @given(
        seed=st.integers(0, 2**63),
        init_size=st.integers(0, 4),
        draws=st.lists(_DRAW, max_size=120),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_draw_equals_the_generator(self, seed, init_size, draws):
        # the whole chain: the initial list, then the loop's draws, from one stream
        pool = CandidatePool(tuple(Rule((i,), 1) for i in range(40)), (1.0,) * 40, 0.05, 2)
        stream, twin = Stream(seed), np.random.default_rng(seed)
        assert init_list(pool, init_size, stream) == init_list(pool, init_size, twin)
        for draw in draws:
            got, want = draw_both(stream, twin, draw)
            assert got == want, draw

    @pytest.mark.parametrize(
        "m, k",
        [
            (1, 0), (1, 1), (2, 2), (13, 5), (100, 100), (10000, 10000),
            (10001, 200), (10001, 201), (12000, 240), (12000, 300), (20000, 401), (20000, 20000),
        ],
    )
    def test_choice_equals_the_generator_in_both_branches(self, m, k):
        # numpy shuffles a Floyd sample, or a tail of range(m) when m > 10000 and k > m // 50
        for seed in range(3):
            stream, twin = Stream(seed), np.random.default_rng(seed)
            got, want = draw_both(stream, twin, ("choice", m, k))
            assert got == want, seed
            loop_draws(stream, twin, 50)

    @pytest.mark.parametrize("size", [1, 20000, (300, 10)])
    @pytest.mark.parametrize("scalar_draws", [0, 1, 2, 1500])
    def test_batch_random_equals_the_generator(self, size, scalar_draws):
        # a batch drawn first, or after scalar draws that cache a half; a
        # 2-d batch of the Generator is the flat batch, row by row
        stream, twin = Stream(4), np.random.default_rng(4)
        loop_draws(stream, twin, scalar_draws)
        got = stream.random(int(np.prod(size)))
        assert all(type(x) is float for x in got)
        assert got == twin.random(size).ravel().tolist()
        loop_draws(stream, twin, 20)

    @given(
        seed=st.integers(0, 2**63),
        scalar_draws=st.integers(0, 3),
        size=st.integers(0, 300),
        picks=st.lists(st.booleans(), max_size=300),
    )
    @settings(max_examples=200, deadline=None)
    def test_draws_at_rows_equal_the_generator_batch_at_them(self, seed, scalar_draws, size, picks):
        # the rows' entries of one batch, the stream left past the whole batch
        rows = [i for i, pick in zip(range(size), picks) if pick]
        stream, twin = Stream(seed), np.random.default_rng(seed)
        loop_draws(stream, twin, scalar_draws)
        got = stream.random_at(rows, size)
        assert all(type(x) is float for x in got)
        assert got == twin.random(size)[rows].tolist()
        loop_draws(stream, twin, 5)

    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    def test_fold_permutations_equal_the_generator(self, seed):
        groups = [range(0, 7), range(7, 5000), range(0)]
        twin = np.random.default_rng(seed)
        got = permutations(seed, groups)
        assert len(got) == len(groups)
        for perm, group in zip(got, groups):
            assert perm == twin.permutation(np.array(group, dtype=np.intp)).tolist()

    @pytest.mark.parametrize("high", [2**32, 2**32 + 1, 2**40])
    def test_refuses_ranges_of_2_to_the_32_or_more(self, high):
        with pytest.raises(ValueError, match="32 bits"):
            Stream(0).integers(high)

    def test_choice_refuses_draws_with_replacement(self):
        with pytest.raises(ValueError, match="without replacement"):
            Stream(0).choice(5, size=2, replace=True)


# seeds whose entropy is one, one full, two and three 32-bit words
_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 1]


class TestSeedSequence:
    @pytest.mark.parametrize("seed", _SEEDS)
    @pytest.mark.parametrize("n_words", [1, 4, 8, 13])
    def test_state_equals_numpy(self, seed, n_words):
        want = np.random.SeedSequence(seed).generate_state(n_words).tolist()
        assert SeedSequence(seed).generate_state(n_words) == want

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_spawn_equals_numpy(self, seed):
        # a child's spawn key pads the run entropy to the pool size first
        twins = np.random.SeedSequence(seed).spawn(3)
        for child, twin in zip(SeedSequence(seed).spawn(3), twins):
            assert child.generate_state(8) == twin.generate_state(8).tolist()
            for grandchild, twin_grandchild in zip(child.spawn(2), twin.spawn(2)):
                assert grandchild.generate_state(4) == twin_grandchild.generate_state(4).tolist()
        want = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(5)]
        assert child_seeds(seed, 5) == want

    @given(seed=st.integers(0, 2**130))
    @settings(max_examples=100, deadline=None)
    def test_any_seed_equals_numpy(self, seed):
        assert SeedSequence(seed).generate_state(8) == (
            np.random.SeedSequence(seed).generate_state(8).tolist()
        )

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="negative"):
            SeedSequence(-1)


class TestRawOutputs:
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_first_1000_equal_pcg64(self, seed):
        want = np.random.PCG64(seed).random_raw(1000).tolist()
        assert list(islice(_raw_outputs(seed), 1000)) == want

    @given(seed=st.integers(0, 2**70))
    @settings(max_examples=100, deadline=None)
    def test_any_seed_equals_pcg64(self, seed):
        want = np.random.PCG64(seed).random_raw(20).tolist()
        assert list(islice(_raw_outputs(seed), 20)) == want


class TestPermutation:
    @pytest.mark.parametrize("size", [1, 2, 3, 255, 256, 257, 65537, 20000])
    def test_sizes_equal_the_generator(self, size):
        # each position i draws on [0, i] with the mask of i's bit length
        for seed in range(2):
            stream, twin = Stream(seed), np.random.default_rng(seed)
            assert stream.permutation(range(size)) == twin.permutation(size).tolist()
            loop_draws(stream, twin, 5)

    @given(
        seed=st.integers(0, 2**63),
        sizes=st.lists(st.integers(1, 20000), min_size=1, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_groups_in_turn_equal_the_generator(self, seed, sizes):
        groups = [range(start, start + size) for start, size in zip([0, 7, 40000], sizes)]
        twin = np.random.default_rng(seed)
        for perm, group in zip(permutations(seed, groups), groups):
            assert perm == twin.permutation(np.array(group, dtype=np.intp)).tolist()
