"""Transparency and accuracy estimators, the trade-off curve, and the objective.

For a rule list R = (r_1..r_M) over a dataset of N rows with black-box
predictions b:

* transparency at level m is the fraction of rows covered by the first m
  rules;
* accuracy at level m scores covered rows by their first-match rule and the
  rest by the black-box;
* the trade-off curve is the sequence of (transparency, accuracy) points for
  m = 0..M, starting at (0, black-box accuracy);
* the area under that curve (a trapezoid sum over consecutive points) is the
  quality measure, and the training objective subtracts a length penalty
  alpha * M.

One prefix sweep over the rules' bitset covers yields all of these, and also
each row's first-match rule: the rows first covered at level m.

Everything is counted with integer popcounts and only divided at the end, so
estimates are exact and invariant under row permutations.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass

from .data import BinaryDataset, PredictionVector, spread_bool
from .errors import DataError
from .rules import RuleList, raw_cover


@dataclass(frozen=True, eq=False)
class TradeoffCurve:
    """The transparency-accuracy curve of a rule list, one point per level.

    ``points[m]`` is (transparency, accuracy) after adopting the first m rules;
    the integer counts behind them make exact cross-checks possible.
    """

    points: tuple[tuple[float, float], ...]
    covered_counts: tuple[int, ...]  # cumulative |S_m|
    rule_correct_counts: tuple[int, ...]  # cumulative, rules part

    @property
    def n_levels(self) -> int:
        return len(self.points) - 1

    @property
    def transparency(self) -> tuple[float, ...]:
        return tuple(p[0] for p in self.points)

    @property
    def accuracy(self) -> tuple[float, ...]:
        return tuple(p[1] for p in self.points)

    @property
    def coverage(self) -> float:
        """Transparency of the full list (the curve's right endpoint)."""
        return self.points[-1][0]

    def level_stats(self, m: int) -> tuple[int, float | None, float, float]:
        """Level m's (exclusive support, rule accuracy, transparency, accuracy).

        The exclusive support |S_m| - |S_{m-1}| counts the rows rule m answers
        first, and the rule accuracy is the share of them it answers correctly,
        None when there are none. Level 0 has no rule: (0, None, t_0, a_0).
        """
        if not 0 <= m <= self.n_levels:
            raise IndexError("level out of range")
        if m == 0:
            return (0, None, *self.points[0])
        support = self.covered_counts[m] - self.covered_counts[m - 1]
        correct = self.rule_correct_counts[m] - self.rule_correct_counts[m - 1]
        return (support, correct / support if support else None, *self.points[m])

    @classmethod
    def from_sweep(cls, levels: SweepLevels) -> "TradeoffCurve":
        """The curve read off one :func:`sweep`."""
        covered_masks, correct_masks, covered, t, a, _ = zip(*levels)
        rule_correct = tuple(
            (s & c).bit_count() for s, c in zip(covered_masks, correct_masks)
        )
        return cls(
            points=tuple(zip(t, a)),
            covered_counts=covered,
            rule_correct_counts=rule_correct,
        )


@dataclass(frozen=True)
class ObjectiveValue:
    """Penalized curve area: objective = autac - alpha * n_rules."""

    autac: float
    alpha: float
    n_rules: int

    @property
    def penalty(self) -> float:
        return self.alpha * self.n_rules

    @property
    def objective(self) -> float:
        return self.autac - self.penalty


def _check_alignment(data: BinaryDataset, preds: PredictionVector) -> None:
    if len(preds) != data.n_rows:
        raise DataError(
            f"prediction vector of length {len(preds)} does not align with "
            f"{data.n_rows} dataset rows"
        )


# Per-level state of one prefix sweep, indexed by level m = 0..M. Level m is
# (S_m, the rows the first m rules cover, as a bitset; C_m, the rows the
# companion answers correctly at level m, as a bitset: the first-match rule's
# answer inside S_m, ``base_correct`` outside it; |S_m|; curve point m's
# transparency t = |S_m| / n and accuracy a = |C_m| / n; twice the trapezoid
# area over points 0..m).
SweepLevels = list[tuple[int, int, int, float, float, float]]


def cover_masks(rules, data: BinaryDataset, base_correct: int) -> list[tuple[int, int]]:
    """Per rule, its raw cover and the covered rows where it and the base disagree.

    The second mask, ``raw & (rows of the rule's class ^ base_correct)``, holds
    the rows whose correctness flips when this rule, rather than the base
    (``base_correct``, as passed to :func:`sweep`), answers them: the rows the
    rule gets right and the base wrong, and the other way round.
    """
    class_masks = data.class_masks
    masks = []
    for r in rules:
        raw = raw_cover(r, data)
        masks.append((raw, raw & (class_masks[r.output] ^ base_correct)))
    return masks


def sweep(
    masks,
    base_correct: int,
    n_rows: int,
    start: SweepLevels | None = None,
    level: int = 0,
) -> SweepLevels:
    """The prefix sweep: walk a list's :func:`cover_masks` entries level by level.

    Rows outside the first m covers are scored by ``base_correct`` (the
    black-box's correct rows for the curve, the majority class's for the
    rules-only baseline), which must be the base ``masks`` were made with.
    Every other estimate in the package reads these levels, one tuple per
    level (see ``SweepLevels``), and no other code divides a level's counts
    into its curve point (t, a).

    A level carries the covered rows S and the correctly answered rows C, so
    the next one is ``S' = S | raw`` and ``C' = C ^ (flip & (S' ^ S))``: the
    rows the rule covers first switch from the base's answer to the rule's.
    That costs two popcounts per level, |S'| and |C'|.

    Without ``start`` the walk begins at the empty list (level 0). With
    ``start``, the sweep of a list that shares its first ``level`` rules, it
    keeps levels 0..``level`` of ``start`` and walks only ``masks``, the rules
    after that shared prefix. Each level depends only on the level before it,
    and the trapezoid is summed left to right as in :func:`autac_hat`, so a
    resumed sweep is bit-identical to a full one.
    """
    if start is None:
        levels = [(0, base_correct, 0, 0.0, base_correct.bit_count() / n_rows, 0.0)]
    else:
        levels = start[: level + 1]
    covered, correct, _, t0, a0, area = levels[-1]
    append = levels.append
    for raw, flip in masks:
        grown = covered | raw
        correct ^= flip & (grown ^ covered)
        covered = grown
        cover_cnt = covered.bit_count()
        t1 = cover_cnt / n_rows
        a1 = correct.bit_count() / n_rows
        area += (a1 + a0) * (t1 - t0)
        t0, a0 = t1, a1
        append((covered, correct, cover_cnt, t1, a1, area))
    return levels


def list_sweep(
    rule_list: RuleList, data: BinaryDataset, preds: PredictionVector
) -> SweepLevels:
    """The :func:`sweep` of one evaluated list, rows outside it scored by the black-box."""
    _check_alignment(data, preds)
    base_correct = preds.correct_mask(data.labels)
    return sweep(cover_masks(rule_list, data, base_correct), base_correct, data.n_rows)


def curve(
    rule_list: RuleList, data: BinaryDataset, preds: PredictionVector
) -> TradeoffCurve:
    """All M+1 curve points, read off a single :func:`sweep`."""
    return TradeoffCurve.from_sweep(list_sweep(rule_list, data, preds))


@dataclass(frozen=True, eq=False)
class FirstMatch:
    """Each row's first-match rule, read off one :func:`sweep`.

    Rule m's exclusive cover is ``S_m ^ S_{m-1}``, and its rows get the
    0-based index m - 1; rows no rule covers get -1. The covers are
    disjoint, so the one int ``digits`` holds every row's index as a signed
    little-endian digit of ``array(typecode).itemsize`` bytes, all ones for
    -1, and :meth:`indices` reads them out at once.
    """

    digits: int
    typecode: str
    n_rows: int

    @classmethod
    def from_sweep(cls, levels: SweepLevels, n_rows: int) -> "FirstMatch":
        covered = [level[0] for level in levels]
        # the narrowest signed array type that holds -1..M-1
        typecode = next(t for t in "bhiq" if len(covered) <= 1 << 8 * array(t).itemsize - 1)
        width = array(typecode).itemsize
        uncovered = ~covered[-1] & ((1 << n_rows) - 1)
        digits = spread_bool(uncovered, n_rows, width) * ((1 << 8 * width) - 1)
        for k, (before, after) in enumerate(zip(covered[1:], covered[2:]), start=1):
            digits += k * spread_bool(after ^ before, n_rows, width)
        return cls(digits, typecode, n_rows)

    def indices(self, rows: int | None = None) -> list[int]:
        """Each row's index; with ``rows``, a bitset, -1 for every other row as well."""
        out = array(self.typecode)
        width, n = out.itemsize, self.n_rows
        digits = self.digits
        if rows is not None:  # all ones on every other row
            digits |= spread_bool(~rows & ((1 << n) - 1), n, width) * ((1 << 8 * width) - 1)
        out.frombytes(digits.to_bytes(n * width, "little"))
        if sys.byteorder == "big":
            out.byteswap()
        return out.tolist()


def autac_hat(curve_or_points) -> float:
    """Trapezoid area under the curve, over [0, coverage of the full list].

    A single-point curve (empty list) has area 0; nothing is extrapolated
    beyond the list's coverage.
    """
    points = (
        curve_or_points.points
        if isinstance(curve_or_points, TradeoffCurve)
        else tuple(curve_or_points)
    )
    s = 0.0
    for (t0, a0), (t1, a1) in zip(points, points[1:]):
        s += (a1 + a0) * (t1 - t0)
    return 0.5 * s


def objective(
    rule_list: RuleList,
    data: BinaryDataset,
    preds: PredictionVector,
    alpha: float,
) -> ObjectiveValue:
    """The training objective: curve area minus alpha per rule."""
    check_alpha(alpha)
    return ObjectiveValue(autac_hat(curve(rule_list, data, preds)), alpha, len(rule_list))


def check_alpha(alpha: float) -> None:
    """Refuse a length penalty that is not a finite number >= 0."""
    # NaN fails every comparison, so finiteness is checked on its own.
    if not math.isfinite(alpha) or alpha < 0:
        raise ValueError("alpha must be a finite number >= 0")


class ChainScorer:
    """The objective of each list one search chain proposes, each swept at most once.

    A list is a state: a tuple of indices into ``rules``, the chain's pool.
    Each rule's :func:`cover_masks` entry is made once against the training
    data and the base. The scorer keeps the per-level :func:`sweep` state of
    the committed list (the last one scored before :meth:`commit`).
    :meth:`score` takes a state and the level ``k`` up to which it agrees with
    the committed one, and sweeps only from there. A state that differs at
    its first rule (k = 0) resumes instead from level 1 of that rule's
    one-rule list, which the scorer keeps for every pool rule that has
    started a scored list: level 1 depends on the first rule alone. That
    costs one more bitset per such rule, its level's correct rows (the
    covered rows are the rule's cover, already held): at most 2.5 KB a rule
    at 20k rows, about 1 MB for the planted 380-rule pool. Its value is
    :func:`objective`'s, bit for bit, as both read the same :func:`sweep`.
    With ``rules_only``, the naive stand-alone baseline, uncovered rows are
    answered by the training majority class instead of the black-box, and the
    list is scored by its last level's accuracy instead of its curve area.

    The chain proposes the same few neighbours again and again, and returns
    to lists it has left, so the objective of every state it scores is
    memoized for the whole chain: an objective depends on the state alone,
    and a resumed sweep is bit-identical to a full one. A hit sweeps nothing,
    and :meth:`commit` sweeps a hit's levels only if it is the list being
    committed. The memo holds one float per distinct state scored, keyed by
    the state's tuple: at most one entry per iteration, of about 0.1-0.25 KB
    as lists grow from 3 to 17 rules, the same order as the step the search
    trace keeps per iteration. At the default 50k iterations (``crl train``,
    alpha 0.001) it held 6.8k entries, 0.9 MB, on a planted 20k-row table and
    40k entries, 9.3 MB, on a mixed 10k-row one.
    """

    def __init__(
        self,
        data: BinaryDataset,
        preds: PredictionVector,
        rules,
        alpha: float,
        rules_only: bool,
    ) -> None:
        self.n = data.n_rows
        self.alpha = alpha
        self.rules_only = rules_only
        if rules_only:
            negative, positive = data.class_masks
            self.base_correct = positive if 2 * positive.bit_count() >= self.n else negative
        else:
            self.base_correct = preds.correct_mask(data.labels)
        self.masks = cover_masks(rules, data, self.base_correct)
        self.committed = ((), sweep((), self.base_correct, self.n))
        # (state, its sweep levels), or (state, k) when the score was a memo hit
        self._scored = self.committed
        self._memo: dict[tuple[int, ...], float] = {}
        # pool index -> levels 0 and 1 of the one-rule list, filled as rules start a list
        self._first: dict[int, SweepLevels] = {}

    def score(self, state: tuple[int, ...], k: int) -> float:
        """Objective of ``state``, whose first ``k`` indices are the committed state's."""
        obj = self._memo.get(state)
        if obj is not None:
            self._scored = (state, k)
            return obj
        levels = self._sweep(state, k)
        self._scored = (state, levels)
        _, _, _, _, accuracy, area = levels[-1]
        quality = accuracy if self.rules_only else 0.5 * area
        obj = self._memo[state] = quality - self.alpha * len(state)
        return obj

    def commit(self) -> None:
        """Make the last scored list the one later proposals are swept against."""
        state, levels = self._scored
        if isinstance(levels, int):
            levels = self._sweep(state, levels)
        self.committed = self._scored = (state, levels)

    def _sweep(self, state: tuple[int, ...], k: int) -> SweepLevels:
        masks = self.masks
        start = self.committed[1]
        if k == 0 and state:
            first = self._first.get(state[0])
            if first is None:
                levels = sweep([masks[i] for i in state], self.base_correct, self.n, start, 0)
                # level 1 covers the rule's raw cover: keep that bitset, not an equal copy
                self._first[state[0]] = [levels[0], (masks[state[0]][0], *levels[1][1:])]
                return levels
            start, k = first, 1
        return sweep([masks[i] for i in state[k:]], self.base_correct, self.n, start, k)


def level_for_t(t_values, t: float) -> tuple[int, float]:
    """Map a target transparency t to (level, interpolation fraction).

    ``t_values`` are the level transparencies (a curve's ``transparency``).
    The result is the largest level whose transparency is <= t, and the
    fraction q in [0, 1) says how far t sits between that level and the next
    strictly larger one; q is 0 exactly at a level boundary. Duplicate
    transparency values (rules with empty exclusive cover) are skipped by
    always taking the last index among ties.
    """
    if t > t_values[-1]:
        raise DataError(
            f"transparency {t} exceeds list coverage {t_values[-1]} "
            "(no rule level reaches it)"
        )
    # written so that NaN, which fails every comparison, is refused too
    if not t >= 0.0:
        raise DataError(f"transparency {t} is not in [0, {t_values[-1]}]")
    m = bisect_right(t_values, t) - 1
    if m >= len(t_values) - 1:
        return len(t_values) - 1, 0.0
    q = (t - t_values[m]) / (t_values[m + 1] - t_values[m])
    return m, q
