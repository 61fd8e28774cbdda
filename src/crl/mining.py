"""Candidate rule mining: frequent itemsets over class-conditional subsets.

Positive rules (output 1) come from itemsets frequent among the positive rows,
negative rules from itemsets frequent among the negative rows; support is the
fraction of that class subset the antecedent covers. The miner does a
depth-first tidset-intersection search over the class-restricted bit columns
(support is anti-monotone, so extensions of infrequent itemsets are pruned),
which enumerates exactly the itemsets of size <= max_cardinality with
class-conditional support >= gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BinaryDataset
from .errors import DataError
from .rules import Rule


@dataclass(frozen=True)
class CandidatePool:
    """The mined candidate rules, canonically ordered.

    Ordering is by (antecedent size, condition indices, output) so that random
    draws from the pool are reproducible under a fixed seed. ``supports[j]`` is
    the class-conditional support of ``rules[j]`` on the data it was mined
    from. The pool holds no covers: whoever scores the rules computes them
    against their own data.
    """

    rules: tuple[Rule, ...]
    supports: tuple[float, ...]
    gamma: float
    max_cardinality: int

    def __post_init__(self) -> None:
        # The search holds lists as pool indices, so equal rules would be two
        # different indices for one rule.
        if len(set(self.rules)) != len(self.rules):
            raise ValueError("candidate pool rules must be distinct")

    def __len__(self) -> int:
        return len(self.rules)


def _mine_class(cols_in_class: list[int], class_size: int, gamma: float, max_card: int):
    """Itemsets of size 1..max_card with in-class support >= gamma."""
    frequent1 = []
    for i, bits in enumerate(cols_in_class):
        c = bits.bit_count()
        if c / class_size >= gamma:
            frequent1.append((i, bits))
    found: list[tuple[tuple[int, ...], int]] = []

    def grow(items: tuple[int, ...], bits: int, start: int) -> None:
        for pos in range(start, len(frequent1)):
            j, jbits = frequent1[pos]
            inter = bits & jbits
            c = inter.bit_count()
            if c / class_size >= gamma:
                grown = items + (j,)
                found.append((grown, c))
                if len(grown) < max_card:
                    grow(grown, inter, pos + 1)

    for pos, (i, bits) in enumerate(frequent1):
        found.append(((i,), bits.bit_count()))
        if max_card > 1:
            grow((i,), bits, pos + 1)
    return found


def mine_rules(
    data: BinaryDataset, gamma: float = 0.05, max_cardinality: int = 2
) -> CandidatePool:
    """Mine the candidate pool from a binary dataset, counting supports on its rows.

    To bound mining cost, pass a row subsample (see
    :func:`subsample_for_mining`): it keeps the dataset's columns, so the pool's
    condition indices hold on the full dataset. Both label classes must be
    present; an empty result raises with a hint to lower gamma.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    if max_cardinality < 1:
        raise ValueError("max_cardinality must be >= 1")
    if not all(data.class_masks):
        raise DataError("mining needs both label classes present")

    entries: list[tuple[tuple[int, ...], int, float]] = []
    for output, class_mask in enumerate(data.class_masks):
        class_size = class_mask.bit_count()
        cols = [b & class_mask for b in data.feature_bits]
        for items, count in _mine_class(cols, class_size, gamma, max_cardinality):
            entries.append((items, output, count / class_size))
    if not entries:
        raise DataError(
            f"no itemset reaches class-conditional support {gamma}; lower gamma"
        )
    entries.sort(key=lambda e: (len(e[0]), e[0], e[1]))
    return CandidatePool(
        rules=tuple(Rule(conditions=items, output=output) for items, output, _ in entries),
        supports=tuple(support for _, _, support in entries),
        gamma=gamma,
        max_cardinality=max_cardinality,
    )


def subsample_for_mining(
    data: BinaryDataset, fraction: float, seed: int = 0
) -> BinaryDataset:
    """Seeded uniform row subsample used only to bound mining cost.

    Fraction 1.0 returns the dataset itself. Pass the result to
    :func:`mine_rules`: only supports are counted on the subsample, and the
    search scores the mined rules on the full dataset.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return data
    n_sub = int(fraction * data.n_rows)
    if n_sub < 1:
        raise ValueError("fraction yields an empty subsample")
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(data.n_rows, size=n_sub, replace=False))
    return data.subset(rows)
