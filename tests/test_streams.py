"""Properties of the one random stream: every :class:`Stream` draw is the
documented reduction of ``random.Random(seed)``'s ``random()`` and
``getrandbits(32)``, and leaves the stream where that reduction does; bounded
draws are uniform; child seeds are distinct; the first draws of a few seeds
are pinned, so a change in the standard library's generator fails here."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crl.mining import CandidatePool
from crl.rules import Rule
from crl.search import init_list
from crl.streams import Stream, child_seeds, permutations


class Generator:
    """The draws a :class:`Stream` documents, spelled out on ``random.Random(seed)``."""

    def __init__(self, seed):
        self.generator = random.Random(seed)

    def random(self, size=None):
        if size is None:
            return self.generator.random()
        return [self.generator.random() for _ in range(size)]

    def integers(self, high):
        # Lemire: x * high, kept unless its low word is below 2**32 mod high
        while True:
            m = self.generator.getrandbits(32) * high
            if m % 2**32 >= 2**32 % high:
                return m // 2**32

    def swap_down(self, items, lowest):
        # each position from the last down to ``lowest`` swaps with one at or below it
        for i in range(len(items) - 1, lowest - 1, -1):
            j = self.integers(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def choice(self, m, size, replace):
        assert not replace
        return self.swap_down(list(range(m)), max(m - size, 1))[m - size :]

    def permutation(self, items):
        return self.swap_down(list(items), 1)


_DRAW = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.sampled_from([1, 2, 3, 144, 380, 2**31 + 5])),
    st.integers(1, 40).flatmap(lambda m: st.tuples(st.just("choice"), st.just(m), st.integers(0, m))),
    st.tuples(st.just("batch"), st.sampled_from([0, 1, 7, 2000])),
    st.tuples(st.just("pair"), st.integers(2, 40)),
)


def draw_both(stream, twin, draw):
    """One draw from each of a stream and its twin."""
    if draw[0] == "random":
        return stream.random(), twin.random()
    if draw[0] == "integers":
        got = stream.integers(draw[1])
        assert type(got) is int
        return got, twin.integers(draw[1])
    if draw[0] == "choice":
        _, m, k = draw
        return stream.choice(m, size=k, replace=False), twin.choice(m, size=k, replace=False)
    if draw[0] == "pair":
        return stream.pair(draw[1]), tuple(twin.choice(draw[1], size=2, replace=False))
    return stream.random(draw[1]), twin.random(draw[1])


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
        stream, twin = Stream(seed), Generator(seed)
        assert init_list(pool, init_size, stream) == init_list(pool, init_size, twin)
        for draw in draws:
            got, want = draw_both(stream, twin, draw)
            assert got == want, draw

    @pytest.mark.parametrize("size", [1, 20000, (300, 10)])
    @pytest.mark.parametrize("scalar_draws", [0, 1, 2, 1500])
    def test_batch_random_equals_the_generator(self, size, scalar_draws):
        # a batch is the next draws of random(), in turn, wherever the stream stands
        stream, twin = Stream(4), Generator(4)
        loop_draws(stream, twin, scalar_draws)
        got = stream.random(math.prod(size) if isinstance(size, tuple) else size)
        assert all(type(x) is float for x in got)
        assert got == twin.random(len(got))
        loop_draws(stream, twin, 20)

    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    def test_fold_permutations_equal_the_generator(self, seed):
        groups = [range(0, 7), range(7, 5000), range(0)]
        twin = Generator(seed)
        got = permutations(seed, groups)
        assert len(got) == len(groups)
        for perm, group in zip(got, groups):
            assert perm == twin.permutation(group)

    @pytest.mark.parametrize("high", [2**32, 2**32 + 1, 2**40])
    def test_refuses_ranges_of_2_to_the_32_or_more(self, high):
        with pytest.raises(ValueError, match="32 bits"):
            Stream(0).integers(high)

    def test_choice_refuses_draws_with_replacement(self):
        with pytest.raises(ValueError, match="without replacement"):
            Stream(0).choice(5, size=2, replace=True)

    @pytest.mark.parametrize("high", [0, -1, -5, -(2**40)])
    def test_refuses_empty_and_negative_ranges(self, high):
        with pytest.raises(ValueError, match="is empty"):
            Stream(0).integers(high)

    @pytest.mark.parametrize("size", [-1, -3])
    def test_choice_refuses_negative_sizes(self, size):
        with pytest.raises(ValueError, match="negative"):
            Stream(0).choice(3, size=size, replace=False)

    @pytest.mark.parametrize("m", [-1, 0, 1])
    def test_pair_refuses_ranges_of_fewer_than_two(self, m):
        with pytest.raises(ValueError, match="two distinct"):
            Stream(0).pair(m)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
    def test_pair_is_choice_of_two(self, seed):
        # the swap's two draws, read off without the shuffle, for every list
        # length the search reaches and far beyond; the twin stays in step
        stream, twin = Stream(seed), Generator(seed)
        for m in range(2, 301):
            assert stream.pair(m) == tuple(twin.choice(m, size=2, replace=False)), m
            assert Stream(seed + m).pair(m) == tuple(
                Stream(seed + m).choice(m, size=2, replace=False)
            ), m
            loop_draws(stream, twin, 1)

    # (high, buckets): a value v counts in bucket v % buckets. Without the
    # rejection step, v = x * high >> 32 would take the multiples of 3 twice
    # as often as the others for high = 3 * 2**30.
    @pytest.mark.parametrize("high, buckets", [(2, 2), (7, 7), (947, 947), (3 * 2**30, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_integers_are_uniform(self, seed, high, buckets):
        stream = Stream(seed)
        n = 40 * buckets + 20000
        counts = [0] * buckets
        for _ in range(n):
            v = stream.integers(high)
            assert 0 <= v < high
            counts[v % buckets] += 1
        expected = n / buckets
        chi2 = sum((c - expected) ** 2 for c in counts) / expected
        # the 0.999 quantile of chi-square, by the Wilson-Hilferty approximation
        df = buckets - 1
        bound = df * (1 - 2 / (9 * df) + 3.09 * math.sqrt(2 / (9 * df))) ** 3
        assert chi2 < bound

    @given(seed=st.integers(0, 2**63), m=st.integers(1, 300), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_choice_values_are_distinct(self, seed, m, data):
        k = data.draw(st.integers(0, m))
        got = Stream(seed).choice(m, size=k, replace=False)
        assert len(got) == k == len(set(got))
        assert all(type(x) is int and 0 <= x < m for x in got)


class TestPermutation:
    @pytest.mark.parametrize("size", [1, 2, 3, 255, 256, 257, 65537, 20000])
    def test_sizes_equal_the_generator(self, size):
        for seed in range(2):
            stream, twin = Stream(seed), Generator(seed)
            assert stream.permutation(range(size)) == twin.permutation(range(size))
            loop_draws(stream, twin, 5)

    @given(
        seed=st.integers(0, 2**63),
        sizes=st.lists(st.integers(1, 20000), min_size=1, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_groups_in_turn_equal_the_generator(self, seed, sizes):
        groups = [range(start, start + size) for start, size in zip([0, 7, 40000], sizes)]
        twin = Generator(seed)
        for perm, group in zip(permutations(seed, groups), groups):
            assert perm == twin.permutation(group)

    @given(seed=st.integers(0, 2**63), items=st.lists(st.integers()))
    @settings(max_examples=200, deadline=None)
    def test_permutation_is_a_permutation(self, seed, items):
        got = Stream(seed).permutation(items)
        assert sorted(got) == sorted(items)


class TestChildSeeds:
    @pytest.mark.parametrize("seed", [0, 1, 5, 2**40])
    def test_distinct_and_each_a_function_of_its_index(self, seed):
        seeds = child_seeds(seed, 200)
        assert len(set(seeds)) == 200
        assert all(type(s) is int and 0 <= s < 2**32 for s in seeds)
        # seed i depends on (seed, i) alone: not on how many are asked for,
        # and not on the draws of Stream(seed), which split_folds makes
        assert child_seeds(seed, 3) == seeds[:3]
        assert set(seeds).isdisjoint(child_seeds(seed + 1, 200))
        bits = random.Random(seed).getrandbits
        assert set(seeds).isdisjoint(bits(32) for _ in range(1000))

    def test_negative_seed_refused(self):
        for make in (Stream, lambda seed: child_seeds(seed, 2)):
            with pytest.raises(ValueError, match="negative"):
                make(-1)


# seed -> (two random(), two integers(947), one integers(2**31 + 5),
#          choice(20, size=3), permutation(range(8)), child_seeds(seed, 3))
PINNED = {
    0: (
        [0.8444218515250481, 0.7579544029403025],
        [398, 38, 2073320065],
        [7, 9, 10],
        [2, 0, 6, 3, 1, 4, 5, 7],
        [3245836172, 1017390288, 3347940529],
    ),
    1: (
        [0.13436424411240122, 0.8474337369372327],
        [723, 59, 1063938751],
        [18, 8, 15],
        [6, 3, 7, 0, 1, 4, 2, 5],
        [1270782280, 979083465, 2454714150],
    ),
    2**40: (
        [0.1036394562812375, 0.6705558677439764],
        [404, 46, 857154283],
        [1, 10, 12],
        [1, 6, 0, 7, 3, 2, 4, 5],
        [2681909791, 1354842915, 4122924956],
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_first_draws_are_pinned(seed):
    # every artifact's digest rests on these; they change only with the stream
    stream = Stream(seed)
    got = (
        [stream.random(), stream.random()],
        [stream.integers(947), stream.integers(947), stream.integers(2**31 + 5)],
        stream.choice(20, size=3, replace=False),
        stream.permutation(range(8)),
        child_seeds(seed, 3),
    )
    assert got == PINNED[seed]
