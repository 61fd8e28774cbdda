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
  uniform epsilon, and only those rows' draws are made).

Each row's first-match rule is read off one prefix sweep of the evaluated
rows. That rule, the row's black-box value and, in the stochastic mode, the
row's own draw decide its answer; the other rows never do.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_

from .data import BinaryDataset, PredictionVector, unpack_bool
from .errors import DataError
from .objective import (
    FirstMatch,
    TradeoffCurve,
    autac_hat,
    level_for_t,
    list_sweep,
)
from .rules import RuleList
from .streams import Stream


class CompanionEvaluator:
    """Dataset-aligned evaluation: curve and every prediction mode.

    One prefix sweep at construction gives the curve and each rule's exclusive
    cover (the rows it matches first); each prediction mode is then a few
    bitset operations on those covers (level m adopts the rows the first m
    rules cover, the stochastic band is rule m's exclusive cover), which
    keeps Monte Carlo studies of the stochastic mode cheap. A mode returns
    its predictions as one 0/1 byte per row and its provenance as a list
    holding, per row, the 0-based index of the answering rule, or -1 for the
    black-box.
    """

    def __init__(
        self, rule_list: RuleList, data: BinaryDataset, preds: PredictionVector
    ) -> None:
        self.rule_list = rule_list
        self.data = data
        self.preds = preds
        levels = list_sweep(rule_list, data, preds)
        self.curve = TradeoffCurve.from_sweep(levels)
        self._first_match = FirstMatch.from_sweep(levels, data.n_rows)
        self._covered = [level[0] for level in levels]  # S_m, the rows of the first m rules
        exclusive = [after ^ before for before, after in zip(self._covered, self._covered[1:])]
        self._exclusive = exclusive + [0]  # no rule after the last
        self._bands: dict[int, list[int]] = {}  # see _band_rows
        # the rows whose first-match rule answers 1
        self._rule_positive = reduce(or_, (e for e, r in zip(exclusive, rule_list) if r.output), 0)

    @property
    def n_levels(self) -> int:
        return len(self.rule_list)

    def autac(self) -> float:
        return autac_hat(self.curve)

    def residual_fraction(self) -> float:
        """Fraction of rows no rule covers (answered by the black-box even in
        all-rules mode)."""
        return 1.0 - self.curve.coverage

    def _assemble(self, adopt: int) -> tuple[bytes, list[int]]:
        """Predictions and provenance when the rows of bitset ``adopt`` take their rule."""
        n = self.data.n_rows
        preds = self._rule_positive & adopt | self.preds.bits & ~adopt
        return unpack_bool(preds, n), self._first_match.indices(adopt)

    def level_predictions(self, m: int) -> tuple[bytes, list[int]]:
        """Predictions and provenance at transparency level m.

        Provenance holds the 0-based index of the answering rule, or -1 for the
        black-box.
        """
        if m < 0 or m > self.n_levels:
            raise DataError(f"level {m} out of range 0..{self.n_levels}")
        return self._assemble(self._covered[m])

    def stochastic_predictions(
        self, t: float, rng: Stream, level_transparencies
    ) -> tuple[bytes, list[int]]:
        """One draw of the stochastic companion at target transparency t.

        t is mapped to a level m and a fraction q through
        ``level_transparencies``, the training-time transparency of levels
        0..M (``ModelDocument.level_transparencies()`` or the training curve's
        ``transparency``), never through this dataset's curve. Row i takes the
        i-th of one batch of ``n_rows`` uniforms; rows whose first match is
        rule index m adopt it when that draw is < q. Only those rows' draws
        are made, by ``rng.random_at(rows, n_rows)`` (a
        :class:`~crl.streams.Stream`, or any object with that method); the
        other rows' draws only move the stream on. On the
        training rows the expected fraction of rule-answered rows equals t;
        on any rows, t equal to level m's entry (q = 0) gives level m's
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
        band = self._band_rows(m)
        adopted = compress(band, map(float(q).__gt__, rng.random_at(band, self.data.n_rows)))
        return self._assemble(self._covered[m] | sum(map((1).__lshift__, adopted)))

    def _band_rows(self, m: int) -> list[int]:
        """The rows of rule index m's exclusive cover, ascending; made once per m."""
        rows = self._bands.get(m)
        if rows is None:
            n = self.data.n_rows
            rows = self._bands[m] = list(compress(range(n), unpack_bool(self._exclusive[m], n)))
        return rows
