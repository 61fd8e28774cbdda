"""Every random draw of the package: seeded PCG64 streams and the seeds they start from.

A :class:`Stream` draws exactly what numpy's ``Generator`` of the same seed
(``numpy.random.default_rng(seed)``) would, in plain Python: numpy's
``SeedSequence`` turns the seed into the 128-bit state and increment of a
PCG64 generator (O'Neill 2014, XSL-RR 128/64), whose 64-bit outputs are the
``random_raw`` outputs of ``numpy.random.PCG64(seed)``; the stream rebuilds
from them, bit for bit, what the ``Generator``'s ``random``, ``integers``,
``choice`` and ``permutation`` return. A search chain, a mining subsample, a
synthetic oracle, a stochastic prediction and a fold split each draw from
one stream of their seed; :func:`child_seeds` derives the seeds of
independent chains.
"""

from __future__ import annotations

from itertools import cycle, islice

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# numpy's SeedSequence hash and mix constants, for a pool of four 32-bit words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first; 0 is one word."""
    if n < 0:
        raise ValueError(f"seed {n} is negative")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


class SeedSequence:
    """numpy's ``SeedSequence(entropy, spawn_key=spawn_key)`` for an int entropy.

    ``generate_state(n)`` returns the n 32-bit words numpy's
    ``generate_state(n)`` does, and ``spawn(n)`` the children a fresh numpy
    ``SeedSequence`` spawns first.
    """

    __slots__ = ("entropy", "spawn_key", "pool")

    def __init__(self, entropy: int, spawn_key: tuple[int, ...] = ()) -> None:
        self.entropy = entropy
        self.spawn_key = spawn_key
        run = _words(entropy)
        spawn = [w for key in spawn_key for w in _words(key)]
        if spawn:  # pad the run entropy, so that it and a spawn key cannot collide
            run += [0] * (_POOL_SIZE - len(run))
        self.pool = _mix_entropy(run + spawn)

    def generate_state(self, n_words: int) -> list[int]:
        state = []
        hash_const = _INIT_B
        for value in islice(cycle(self.pool), n_words):
            value ^= hash_const
            hash_const = hash_const * _MULT_B & _M32
            value = value * hash_const & _M32
            state.append(value ^ value >> 16)
        return state

    def spawn(self, n_children: int) -> list["SeedSequence"]:
        return [SeedSequence(self.entropy, (*self.spawn_key, i)) for i in range(n_children)]


def _mix_entropy(entropy: list[int]) -> list[int]:
    """numpy's ``SeedSequence.mix_entropy`` of the assembled entropy words into a pool."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _raw_outputs(seed: int):
    """The 64-bit outputs of ``numpy.random.PCG64(seed).random_raw()``, one at a time.

    The seed's ``SeedSequence`` gives four 64-bit words, each two 32-bit
    words low first: the first two are the initial state, the last two the
    stream selector. Each step advances the LCG and outputs the XOR of its
    halves rotated right by its top 6 bits.
    """
    w = SeedSequence(seed).generate_state(8)
    initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _M128 | 1
    state = ((inc + initstate) * _PCG_MULT + inc) & _M128  # numpy's seeding: two steps from 0
    mult, m64, m128, twice = _PCG_MULT, _M64, _M128, (1 << 64) + 1
    while True:
        state = (state * mult + inc) & m128
        # x * (2**64 + 1) holds x twice, so a right shift by r is x rotated by r
        yield ((state >> 64 ^ state) & m64) * twice >> (state >> 122) & m64


class Stream:
    """The draws of ``numpy.random.default_rng(seed)``, in plain Python.

    ``random``, ``integers(high)``, ``choice(m, size=k, replace=False)`` and
    ``permutation`` return exactly what the same calls on the ``Generator``
    would, in the same order:

    * ``random`` is numpy's double, ``(x >> 11) * 2**-53`` of one raw output;
      ``random(n)`` is a list of n of them;
    * ``integers`` is numpy's 32-bit Lemire draw on [0, high), fed by 32-bit
      halves the way PCG64 hands them out: the low half of a fresh output
      first, its upper half cached for the next 32-bit draw. A range of one
      value draws nothing;
    * ``choice`` is numpy's Floyd sampling (the draw for slot j is on [0, j],
      and a repeat takes j), then its Fisher-Yates shuffle of the sample. When
      m > 10000 and k > m // 50 numpy instead shuffles range(m) from the last
      position down only until k values are placed, and returns those last k;
    * ``permutation`` is numpy's shuffle of a 1-d array: each position, last
      down to 1, swaps with one drawn on [0, i] by masked rejection (a 32-bit
      half ANDed with the smallest all-ones mask covering i, redrawn while it
      exceeds i).

    Ranges of 2**32 values or more take other numpy algorithms: ``integers``
    and ``choice`` refuse them, and no candidate pool or table that size can
    be held in memory.
    """

    __slots__ = ("_raw", "_next64", "_half")

    def __init__(self, seed: int) -> None:
        self._raw = _raw_outputs(seed)
        self._next64 = self._raw.__next__
        self._half = None

    def random(self, size: int | None = None):
        if size is None:
            return (self._next64() >> 11) * 2.0**-53
        return [(x >> 11) * 2.0**-53 for x in islice(self._raw, size)]

    def _next32(self) -> int:
        half = self._half
        if half is None:
            x = self._next64()
            self._half = x >> 32
            return x & _M32
        self._half = None
        return half

    def integers(self, high: int) -> int:
        if high == 1:
            return 0
        m = self._next32() * high
        if (m & _M32) < high:
            # Every range of 2**32 values or more reaches this branch.
            if high > _M32:
                raise ValueError(f"range of {high} values exceeds 32 bits")
            threshold = (0x100000000 - high) % high
            while (m & _M32) < threshold:
                m = self._next32() * high
        return m >> 32

    def choice(self, m: int, size: int, replace: bool) -> list[int]:
        if replace or size > m:
            raise ValueError("only draws of at most m values without replacement are supported")
        if m > 10000 and size > m // 50:
            return self._shuffle(list(range(m)), max(m - size, 1))[m - size :]
        drawn = {}  # the sample in draw order; a dict is an ordered set
        for j in range(m - size, m):
            x = self.integers(j + 1)
            drawn[j if x in drawn else x] = None
        return self._shuffle(list(drawn), 1)

    def _shuffle(self, items: list, first: int) -> list:
        """``choice``'s shuffle: swap each position, last down to ``first``, with one at or below it."""
        for i in range(len(items) - 1, first - 1, -1):
            j = self.integers(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def permutation(self, items) -> list:
        """A shuffled list of ``items``, as ``Generator.permutation`` shuffles an array of them."""
        items = list(items)
        next32 = self._next32
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = next32() & mask
            while j > i:
                j = next32() & mask
            items[i], items[j] = items[j], items[i]
        return items


def child_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent seeds derived from ``seed``, one per fold, candidate or stream."""
    return [s.generate_state(1)[0] for s in SeedSequence(seed).spawn(n)]


def permutations(seed: int, groups) -> list[list]:
    """numpy's ``Generator.permutation`` of each group in turn, all from one stream of ``seed``."""
    stream = Stream(seed)
    return [stream.permutation(group) for group in groups]
