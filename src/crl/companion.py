"""The companion model: a rule list collaborating with a black-box.

For every input the user may take the first-match rule prediction or the
black-box prediction. The prediction modes are:

* ``level m``: rows covered by the first m rules answer with their rule,
  everything else with the black-box (level 0 is all black-box, level M all
  rules with black-box fallback on uncovered rows);
* ``stochastic t``: a target transparency t between level boundaries is hit in
  expectation by letting the rows covered exactly by the next rule adopt it
  with probability q, where q is the fractional position of t between the two
  surrounding levels of the training-time curve (each row draws its own
  uniform epsilon).

Each row's first-match rule is read off one prefix sweep of the evaluated
rows. That rule, the row's black-box value and, in the stochastic mode, the
row's own draw decide its answer; the other rows never do.
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
from .rules import RuleList


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
        if m < 0 or m > self.n_levels:
            raise DataError(f"level {m} out of range 0..{self.n_levels}")
        return self._assemble(self._adopted(m))

    def stochastic_predictions(
        self, t: float, rng: np.random.Generator, level_transparencies
    ) -> tuple[np.ndarray, np.ndarray]:
        """One draw of the stochastic companion at target transparency t.

        t is mapped to a level m and a fraction q through
        ``level_transparencies``, the training-time transparency of levels
        0..M (``ModelDocument.level_transparencies()`` or the training curve's
        ``transparency``), never through this dataset's curve. Row i takes the
        i-th of one batch of ``n_rows`` uniforms drawn from ``rng``; rows
        whose first match is rule index m adopt it when that draw is < q. On
        the training rows the expected fraction of rule-answered rows equals
        t; on any rows, t equal to level m's entry (q = 0) gives level m's
        predictions for every seed. Levels whose transparencies are given
        out of ascending order are a :class:`DataError`.
        """
        if len(level_transparencies) != self.n_levels + 1:
            raise DataError(
                f"{len(level_transparencies)} level transparencies given for "
                f"a list of {self.n_levels} rules (need {self.n_levels + 1})"
            )
        if any(b < a for a, b in zip(level_transparencies, level_transparencies[1:])):
            raise DataError(
                f"level transparencies must ascend, got {tuple(map(float, level_transparencies))}"
            )
        m, q = level_for_t(level_transparencies, t)
        eps = rng.random(self.data.n_rows)
        band = (self._first_idx == m) & (eps < q)
        return self._assemble(self._adopted(m) | band)
