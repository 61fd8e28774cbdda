"""Synthetic planted-rule benchmark.

Ten independent binary features; a known two-rule list deterministically
labels the rows it covers (about 60% of them) while the remaining rows get
feature-independent labels, positive with probability 0.75. The accompanying
black-box is a synthetic oracle that is strong off the planted region
(accuracy 0.85 by default) but weaker on it (0.75 by default), so a companion
list trained with knowledge of the black-box must recover the planted rules
and put them first, whereas their payoff is invisible to a black-box-blind
objective: on covered rows the rules are perfect, elsewhere no feature carries
signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .companion import CompanionEvaluator
from .data import BinaryDataset, PredictionVector, child_seeds, synth_oracle
from .rules import Rule, RuleList

FEATURE_PROBS = (0.6, 0.6, 0.375, 0.3, 0.5, 0.7, 0.4, 0.55, 0.45, 0.5)
ELSEWHERE_POSITIVE_RATE = 0.75
# Planted list: (x0 and x1 -> 1), (x2 -> 0). With the probabilities above the
# two rules cover 0.36 + 0.64 * 0.375 = 0.60 of the rows in expectation.
PLANTED = RuleList((Rule((0, 1), 1), Rule((2,), 0)))


@dataclass(eq=False)
class PlantedBenchmark:
    data: BinaryDataset
    preds: PredictionVector
    planted: RuleList


def planted_benchmark(
    n_rows: int = 2000,
    seed: int = 0,
    oracle_accuracy: float = 0.85,
    covered_oracle_accuracy: float = 0.75,
) -> PlantedBenchmark:
    """Generate the benchmark dataset, oracle predictions, and the true list.

    Deterministic given its arguments. The black-box is stitched from two
    seeded oracles: per-row accuracy ``covered_oracle_accuracy`` on rows the
    planted list covers and ``oracle_accuracy`` elsewhere.
    """
    feature_seed, label_seed, covered_seed, elsewhere_seed = child_seeds(seed, 4)

    rng = np.random.default_rng(feature_seed)
    matrix = rng.random((n_rows, len(FEATURE_PROBS))) < np.array(FEATURE_PROBS)
    names = tuple(f"x{i}" for i in range(len(FEATURE_PROBS)))

    label_rng = np.random.default_rng(label_seed)
    labels = (label_rng.random(n_rows) < ELSEWHERE_POSITIVE_RATE).astype(np.uint8)
    shell = BinaryDataset.from_bool_matrix(matrix, labels, names)
    # the planted list answers the rows it covers, the random labels the rest
    evaluator = CompanionEvaluator(PLANTED, shell, PredictionVector(labels))
    labels, provenance = evaluator.level_predictions(len(PLANTED))
    data = BinaryDataset.from_bool_matrix(matrix, labels, names)

    covered = provenance >= 0
    on_rules = synth_oracle(labels, covered_oracle_accuracy, covered_seed).preds
    elsewhere = synth_oracle(labels, oracle_accuracy, elsewhere_seed).preds
    preds = PredictionVector(np.where(covered, on_rules, elsewhere).astype(np.uint8))
    return PlantedBenchmark(data=data, preds=preds, planted=PLANTED)
