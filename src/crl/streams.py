"""Every random draw of the package: seeded PCG64 streams and the seeds they start from.

A :class:`Stream` draws exactly what numpy's PCG64 ``Generator`` of the same
seed would, without a numpy call per draw: it pulls raw 64-bit PCG64 outputs
in blocks and rebuilds from them, bit for bit, what the ``Generator``'s
``random``, ``integers`` and ``choice`` would have returned. One numpy call
costs far more than the arithmetic of a draw, and nothing reads a stream's bit
generator but the stream, so reading a block ahead changes no result. A search
chain, a mining subsample, a synthetic oracle and a stochastic prediction each
draw from one stream of their seed; :func:`child_seeds` derives the seeds of
independent chains, and :func:`permutations` shuffles the fold groups.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np


class Stream:
    """The draws of ``numpy.random.default_rng(seed)``, from raw outputs read ``block`` at a time.

    ``random``, ``integers(high)`` and ``choice(m, size=k, replace=False)``
    return exactly what the same calls on the ``Generator`` would, in the same
    order:

    * ``random`` is numpy's double, ``(x >> 11) * 2**-53`` of one raw output;
      ``random(size)`` is an array of them, one ``random_raw`` call when the
      stream has not drawn yet;
    * ``integers`` is numpy's 32-bit Lemire draw on [0, high), fed by 32-bit
      halves the way PCG64 hands them out: the low half of a fresh output
      first, its upper half cached for the next 32-bit draw. A range of one
      value draws nothing;
    * ``choice`` is numpy's Floyd sampling (the draw for slot j is on [0, j],
      and a repeat takes j), then its Fisher-Yates shuffle of the sample. When
      m > 10000 and k > m // 50 numpy instead shuffles range(m) from the last
      position down only until k values are placed, and returns those last k.

    Ranges of 2**32 values or more take other numpy algorithms and are
    refused; a candidate pool or table that size cannot be held in memory.
    """

    __slots__ = ("_bits", "_block", "_next64", "_half")

    def __init__(self, seed: int, block: int = 1024) -> None:
        self._bits = np.random.PCG64(seed)
        self._block = block
        self._half = None
        self._next64 = self._start  # replaced by the block reader on the first draw

    def _start(self) -> int:
        blocks = map(self._bits.random_raw, repeat(self._block))
        self._next64 = chain.from_iterable(map(np.ndarray.tolist, blocks)).__next__
        return self._next64()

    def random(self, size=None):
        if size is None:
            return (self._next64() >> 11) * 2.0**-53
        if self._next64 == self._start:  # nothing read ahead yet
            raw = self._bits.random_raw(size)
        else:
            raw = np.fromiter(iter(self._next64, None), np.uint64, np.prod(size))
        return (raw.reshape(size) >> np.uint64(11)) * 2.0**-53

    def _next32(self) -> int:
        half = self._half
        if half is None:
            x = self._next64()
            self._half = x >> 32
            return x & 0xFFFFFFFF
        self._half = None
        return half

    def integers(self, high: int) -> int:
        if high == 1:
            return 0
        m = self._next32() * high
        if (m & 0xFFFFFFFF) < high:
            # Every range of 2**32 values or more reaches this branch.
            if high > 0xFFFFFFFF:
                raise ValueError(f"range of {high} values exceeds 32 bits")
            threshold = (0x100000000 - high) % high
            while (m & 0xFFFFFFFF) < threshold:
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
        """numpy's shuffle: swap each position, last down to ``first``, with one at or below it."""
        for i in range(len(items) - 1, first - 1, -1):
            j = self.integers(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def child_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent seeds derived from ``seed``, one per fold, candidate or stream."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def permutations(seed: int, groups) -> list[np.ndarray]:
    """numpy's ``Generator.permutation`` of each group in turn, all from one stream of ``seed``."""
    rng = np.random.default_rng(seed)
    return [rng.permutation(group) for group in groups]
