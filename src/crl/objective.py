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
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .data import BinaryDataset, PredictionVector, unpack_bool
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
    exclusive_counts: tuple[int, ...]  # per level, [0] == 0
    exclusive_correct_counts: tuple[int, ...]  # per level, [0] == 0

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

    def rule_part_accuracy(self, m: int) -> float | None:
        """Accuracy of rule m on its exclusive cover; None when that cover is empty."""
        if m < 1 or m > self.n_levels:
            raise IndexError("level out of range")
        exc = self.exclusive_counts[m]
        if exc == 0:
            return None
        return self.exclusive_correct_counts[m] / exc

    @classmethod
    def from_sweep(cls, levels: SweepLevels, n_rows: int) -> "TradeoffCurve":
        """The curve read off one :func:`sweep` over ``n_rows`` rows."""
        _, covered, rule_correct, _, _ = zip(*levels)
        return cls(
            points=tuple((c / n_rows, (rc + rest) / n_rows) for _, c, rc, rest, _ in levels),
            covered_counts=covered,
            rule_correct_counts=rule_correct,
            exclusive_counts=_differences(covered),
            exclusive_correct_counts=_differences(rule_correct),
        )


def _differences(cumulative) -> tuple[int, ...]:
    return (0,) + tuple(b - a for a, b in zip(cumulative, cumulative[1:]))


@dataclass(frozen=True)
class ObjectiveValue:
    """Penalized curve area: objective = autac - alpha * n_rules."""

    autac: float
    alpha: float
    n_rules: int
    penalty: float
    objective: float


def _check_alignment(data: BinaryDataset, preds: PredictionVector) -> None:
    if len(preds) != data.n_rows:
        raise DataError(
            f"prediction vector of length {len(preds)} does not align with "
            f"{data.n_rows} dataset rows"
        )


# Per-level state of one prefix sweep, indexed by level m = 0..M. Level m is
# (S_m as a row bitset, |S_m|, rule-correct rows in S_m, base-correct rows
# outside S_m, twice the trapezoid area over points 0..m).
SweepLevels = list[tuple[int, int, int, int, float]]


def cover_masks(rules, data: BinaryDataset) -> list[tuple[int, int, int, int]]:
    """Per rule, its raw cover, the covered rows its output gets right, and both popcounts."""
    label_mask = data.label_mask
    neg_mask = ~label_mask & data.full_mask
    masks = []
    for r in rules:
        raw = raw_cover(r, data)
        hits = raw & (label_mask if r.output == 1 else neg_mask)
        masks.append((raw, hits, raw.bit_count(), hits.bit_count()))
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
    rules-only baseline). Every other estimate in the package reads these
    levels, one tuple per level (see ``SweepLevels``).

    Without ``start`` the walk begins at the empty list (level 0). With
    ``start``, the sweep of a list that shares its first ``level`` rules, it
    keeps levels 0..``level`` of ``start`` and walks only ``masks``, the rules
    after that shared prefix. Each level's counts depend only on the level
    before it, and the trapezoid is summed left to right as in
    :func:`autac_hat`, so a resumed sweep is bit-identical to a full one.
    """
    if start is None:
        levels = [(0, 0, 0, base_correct.bit_count(), 0.0)]
    else:
        levels = start[: level + 1]
    covered, cover_cnt, rule_correct, rest, area = levels[-1]
    base_total = levels[0][3]
    t0 = cover_cnt / n_rows
    a0 = (rule_correct + rest) / n_rows
    append = levels.append
    # |x \ S| is taken as |x| - |x & S|: ANDing with ~S costs more in CPython.
    for raw, hits, raw_n, hits_n in masks:
        cover_cnt += raw_n - (raw & covered).bit_count()
        rule_correct += hits_n - (hits & covered).bit_count()
        covered |= raw
        rest = base_total - (base_correct & covered).bit_count()
        t1 = cover_cnt / n_rows
        a1 = (rule_correct + rest) / n_rows
        area += (a1 + a0) * (t1 - t0)
        t0, a0 = t1, a1
        append((covered, cover_cnt, rule_correct, rest, area))
    return levels


def list_sweep(
    rule_list: RuleList, data: BinaryDataset, preds: PredictionVector
) -> SweepLevels:
    """The :func:`sweep` of one evaluated list, rows outside it scored by the black-box."""
    _check_alignment(data, preds)
    return sweep(
        cover_masks(rule_list, data), preds.correct_mask(data.labels), data.n_rows
    )


def curve(
    rule_list: RuleList, data: BinaryDataset, preds: PredictionVector
) -> TradeoffCurve:
    """All M+1 curve points, read off a single :func:`sweep`."""
    return TradeoffCurve.from_sweep(list_sweep(rule_list, data, preds), data.n_rows)


def first_match_indices(levels: SweepLevels, n_rows: int) -> np.ndarray:
    """Per-row 0-based index of the first matching rule, -1 when uncovered.

    Read off a :func:`sweep`'s covered masks: rule m's exclusive cover is
    ``S_m ^ S_{m-1}``, and its rows get index m - 1.
    """
    idx = np.full(n_rows, -1, dtype=np.int32)
    masks = [level[0] for level in levels]
    for k, (before, after) in enumerate(zip(masks, masks[1:])):
        idx[unpack_bool(after ^ before, n_rows)] = k
    return idx


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
    autac = autac_hat(curve(rule_list, data, preds))
    return make_objective(autac, alpha, len(rule_list))


def check_alpha(alpha: float) -> None:
    """Refuse a length penalty that is not a finite number >= 0."""
    # NaN fails every comparison, so finiteness is checked on its own.
    if not math.isfinite(alpha) or alpha < 0:
        raise ValueError("alpha must be a finite number >= 0")


def make_objective(autac: float, alpha: float, n_rules: int) -> ObjectiveValue:
    penalty = alpha * n_rules
    return ObjectiveValue(
        autac=autac,
        alpha=alpha,
        n_rules=n_rules,
        penalty=penalty,
        objective=autac - penalty,
    )


def level_for_t(t_values, t: float) -> tuple[int, float]:
    """Map a target transparency t to (level, interpolation fraction).

    ``t_values`` are the level transparencies (a curve's ``transparency``).
    The result is the largest level whose transparency is <= t, and the
    fraction q in [0, 1) says how far t sits between that level and the next
    strictly larger one; q is 0 exactly at a level boundary. Duplicate
    transparency values (rules with empty exclusive cover) are skipped by
    always taking the last index among ties.
    """
    # written so that NaN, which fails every comparison, is refused too
    if not 0.0 <= t <= t_values[-1]:
        raise DataError(
            f"transparency {t} exceeds list coverage {t_values[-1]} "
            "(no rule level reaches it)"
        )
    m = bisect_right(t_values, t) - 1
    if m >= len(t_values) - 1:
        return len(t_values) - 1, 0.0
    q = (t - t_values[m]) / (t_values[m + 1] - t_values[m])
    return m, q
