"""Rules, ordered rule lists, raw covers and single-row first match.

A rule pairs an antecedent (a conjunction of binary-feature conditions, each
"feature j is set") with an output class. An ordered rule list predicts by
first match. A rule's raw cover is the bitset of rows satisfying its
antecedent; the dataset-wide first match, and each rule's exclusive cover,
are read off the prefix sweep in :mod:`crl.objective`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BinaryDataset

# A condition is an index into the dataset's binary feature columns; the
# condition holds on a row when that bit is set. Negations are expressed
# through the complementary one-hot columns, never as an operator.
Condition = int


@dataclass(frozen=True)
class Rule:
    """An antecedent (sorted condition indices) with a predicted class."""

    conditions: tuple[Condition, ...]
    output: int

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.conditions)))
        if not canon:
            raise ValueError("a rule needs at least one condition")
        object.__setattr__(self, "conditions", canon)
        if self.output not in (0, 1):
            raise ValueError("rule output must be 0 or 1")


@dataclass(frozen=True)
class RuleList:
    """An ordered sequence of rules; the list length is always ``len(rules)``."""

    rules: tuple[Rule, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for r in self.rules:
            key = (r.conditions, r.output)
            if key in seen:
                raise ValueError(f"duplicate rule in list: {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __getitem__(self, i) -> Rule:
        return self.rules[i]

    def describe(self, feature_names) -> str:
        lines = []
        for i, r in enumerate(self.rules):
            head = "IF" if i == 0 else "ELSE IF"
            conds = " AND ".join(feature_names[c] for c in r.conditions)
            lines.append(f"{head} {conds} THEN {r.output}")
        return "\n".join(lines)


def raw_cover(rule: Rule, data: BinaryDataset) -> int:
    """Bitset of rows satisfying every condition of the rule."""
    mask = data.full_mask
    for c in rule.conditions:
        mask &= data.feature_bits[c]
    return mask


def first_match(rule_list: RuleList, instance) -> int:
    """0-based index of the first rule whose conditions all hold, -1 when none."""
    bits = np.asarray(instance, dtype=bool)
    for k, r in enumerate(rule_list):
        if all(bits[c] for c in r.conditions):
            return k
    return -1
