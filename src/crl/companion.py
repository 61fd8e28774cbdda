"""The companion model: a rule list collaborating with a black-box.

For every input the user may take the first-match rule prediction or the
black-box prediction. The prediction modes are:

* ``level m``: rows covered by the first m rules answer with their rule,
  everything else with the black-box (level 0 is all black-box, level M all
  rules with black-box fallback on uncovered rows);
* ``stochastic t``: a target transparency t between level boundaries is hit in
  expectation by letting the rows covered exactly by the next rule adopt it
  with probability q, where q is the fractional position of t between the two
  surrounding levels (each row draws its own uniform epsilon);
* ``all_blackbox`` / ``all_rules``: the two endpoints.
"""

from __future__ import annotations

import numpy as np

from .data import BinaryDataset, PredictionVector
from .errors import DataError
from .objective import (
    TradeoffCurve,
    autac_hat,
    first_match_indices,
    level_for_t,
    list_sweep,
)
from .rules import RuleList, first_match


def _check_level(m: int, n_levels: int) -> None:
    if m < 0 or m > n_levels:
        raise DataError(f"level {m} out of range 0..{n_levels}")


class CompanionEvaluator:
    """Dataset-aligned evaluation: curve and every prediction mode.

    One prefix sweep at construction gives the curve and each row's first-match
    index; each prediction mode is then a few vector comparisons against that
    index (level m adopts rows with ``0 <= index < m``, the stochastic band is
    ``index == m``), which keeps Monte Carlo studies of the stochastic mode cheap.
    """

    def __init__(
        self, rule_list: RuleList, data: BinaryDataset, preds: PredictionVector
    ) -> None:
        self.rule_list = rule_list
        self.data = data
        self.preds = preds
        levels = list_sweep(rule_list, data, preds)
        self.curve = TradeoffCurve.from_sweep(levels, data.n_rows)
        self._first_idx = first_match_indices(levels, data.n_rows)
        outputs = np.array([r.output for r in rule_list] + [0], dtype=np.uint8)
        self._rule_preds = outputs[self._first_idx]  # arbitrary where uncovered
        self._bb = preds.preds

    @property
    def n_levels(self) -> int:
        return len(self.rule_list)

    def autac(self) -> float:
        return autac_hat(self.curve)

    def residual_fraction(self) -> float:
        """Fraction of rows no rule covers (answered by the black-box even in
        all-rules mode)."""
        return 1.0 - self.curve.coverage

    def _adopted(self, m: int) -> np.ndarray:
        """Rows answered by a rule at level m."""
        return (self._first_idx >= 0) & (self._first_idx < m)

    def _assemble(self, adopt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        preds = np.where(adopt, self._rule_preds, self._bb).astype(np.uint8)
        provenance = np.where(adopt, self._first_idx, np.int32(-1))
        return preds, provenance

    def level_predictions(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Predictions and provenance at transparency level m.

        Provenance holds the 0-based index of the answering rule, or -1 for the
        black-box.
        """
        _check_level(m, self.n_levels)
        return self._assemble(self._adopted(m))

    def blackbox_predictions(self) -> tuple[np.ndarray, np.ndarray]:
        return self.level_predictions(0)

    def rule_predictions(self) -> tuple[np.ndarray, np.ndarray]:
        return self.level_predictions(self.n_levels)

    def stochastic_predictions(
        self, t: float, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """One draw of the stochastic companion at target transparency t.

        Each row draws one uniform epsilon from ``rng`` (exactly one batch of
        ``n_rows`` draws per call); rows covered exactly by the next rule adopt
        it when epsilon < q. The expected fraction of rule-answered rows equals
        t, and at a level boundary (q = 0) the draw coincides with that level's
        deterministic predictions for every seed.
        """
        m, q = level_for_t(self.curve.transparency, t)
        eps = rng.random(self.data.n_rows)
        band = (self._first_idx == m) & (eps < q)
        return self._assemble(self._adopted(m) | band)


def predict_companion_instance(
    rule_list: RuleList,
    instance,
    blackbox_value: int,
    *,
    level: int | None = None,
    transparency: float | None = None,
    level_transparencies=None,
    epsilon: float | None = None,
) -> tuple[int, int]:
    """Single-instance companion prediction; returns (prediction, provenance).

    Provenance is the 0-based index of the answering rule or -1 for the
    black-box. ``level`` selects the deterministic mode. ``transparency``
    selects the stochastic mode and additionally needs the level
    transparencies recorded at training time plus a uniform draw ``epsilon``.
    """
    first = first_match(rule_list, instance)
    if transparency is None:
        m = len(rule_list) if level is None else level
        _check_level(m, len(rule_list))
        adopt = 0 <= first < m
    else:
        if level_transparencies is None or epsilon is None:
            raise ValueError(
                "stochastic prediction needs level_transparencies and epsilon"
            )
        m, q = level_for_t(tuple(level_transparencies), transparency)
        adopt = 0 <= first < m or (first == m and epsilon < q)
    if adopt:
        return rule_list[first].output, first
    return blackbox_value, -1
