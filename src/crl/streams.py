"""Every random draw of the package: seeded streams and the seeds they start from.

A :class:`Stream` of a seed draws from the standard library's Mersenne
Twister, ``random.Random(seed)``, and calls only its ``random`` and
``getrandbits``: Python keeps the seeding and ``random()`` stable across
versions, while ``randrange``, ``shuffle``, ``sample`` and ``choice`` may
change. A search chain, a mining subsample, a synthetic oracle, a stochastic
prediction and a fold split each draw from one stream of their seed;
:func:`child_seeds` derives the seeds of independent chains.
"""

from __future__ import annotations

from itertools import repeat
from random import Random

_M32 = 0xFFFFFFFF


class Stream:
    """The draws of one seed, in a fixed order.

    * ``random`` is one ``Random.random()`` double in [0, 1); ``random(n)``
      is a list of the next n of them;
    * ``integers(high)`` is Lemire's bounded draw on [0, high) (Lemire 2019):
      the high 32 bits of a 32-bit draw times ``high``, redrawn while the low
      32 bits fall below ``2**32 % high``;
    * ``choice(m, size=k, replace=False)`` and ``permutation`` are one
      Fisher-Yates shuffle from the back: position i swaps with one drawn by
      ``integers`` on [0, i], for the last k positions of ``range(m)``, which
      ``choice`` returns, or for every position of a permutation;
    * ``pair(m)`` is ``choice(m, size=2, replace=False)`` as a tuple, read
      off the shuffle's two draws without building ``range(m)``.

    ``integers`` and ``choice`` refuse ranges of 2**32 values or more; no
    candidate pool or table that size can be held in memory. They refuse an
    empty or negative range and a negative size as well.
    """

    __slots__ = ("_random", "_bits")

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed {seed} is negative")
        generator = Random(seed)
        self._random = generator.random
        self._bits = generator.getrandbits

    def random(self, size: int | None = None):
        if size is None:
            return self._random()
        return [draw() for draw in repeat(self._random, size)]

    def integers(self, high: int) -> int:
        if high < 1:
            raise ValueError(f"range [0, {high}) is empty")
        m = self._bits(32) * high
        if (m & _M32) < high:
            # Every range of 2**32 values or more reaches this branch.
            if high > _M32:
                raise ValueError(f"range of {high} values exceeds 32 bits")
            threshold = (0x100000000 - high) % high
            while (m & _M32) < threshold:
                m = self._bits(32) * high
        return m >> 32

    def choice(self, m: int, size: int, replace: bool) -> list[int]:
        if size < 0:
            raise ValueError(f"size {size} is negative")
        if replace or size > m:
            raise ValueError("only draws of at most m values without replacement are supported")
        return self._shuffle(list(range(m)), size)[m - size :]

    def pair(self, m: int) -> tuple[int, int]:
        """Two distinct values of ``range(m)``: ``choice(m, size=2, replace=False)``, m >= 2.

        The shuffle's last position draws j = ``integers(m)`` and takes the
        value j, and the value m - 1 goes to position j. Position m - 2 then
        draws i = ``integers(m - 1)`` (for m = 2 it draws nothing and reads 0)
        and takes the value at position i: m - 1 if i == j, else i.
        """
        if m < 2:
            raise ValueError(f"cannot draw two distinct values of range({m})")
        j = self.integers(m)
        i = self.integers(m - 1) if m > 2 else 0
        return (m - 1 if i == j else i), j

    def permutation(self, items) -> list:
        """A shuffled list of ``items``."""
        items = list(items)
        return self._shuffle(items, len(items))

    def _shuffle(self, items: list, k: int) -> list:
        """``items`` with its last ``k`` positions drawn, back to front, from those at or below.

        Position 0 has nothing left to swap with, so it draws nothing.
        """
        integers = self.integers
        for i in reversed(range(max(len(items) - k, 1), len(items))):
            j = integers(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def child_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent seeds derived from ``seed``, one per fold, candidate or stream.

    Seed i depends on ``(seed, i)`` alone and never on a draw of ``Stream(seed)``.
    """
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    return [Random(f"crl child {i} of {seed}").getrandbits(32) for i in range(n)]


def permutations(seed: int, groups) -> list[list]:
    """A shuffle of each group in turn, all from one stream of ``seed``."""
    stream = Stream(seed)
    return [stream.permutation(group) for group in groups]
