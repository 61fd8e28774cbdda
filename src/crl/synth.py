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

from .companion import CompanionEvaluator
from .data import BinaryDataset, PredictionVector, pack_bool, synth_oracle
from .rules import Rule, RuleList
from .streams import Stream, child_seeds

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

    Deterministic given its arguments. Row i's features are the i-th row of
    an ``n_rows`` x 10 row-major batch of uniforms, each below its feature's
    probability. The black-box is stitched from two seeded oracles: per-row
    accuracy ``covered_oracle_accuracy`` on rows the planted list covers and
    ``oracle_accuracy`` elsewhere.
    """
    feature_seed, label_seed, covered_seed, elsewhere_seed = child_seeds(seed, 4)

    d = len(FEATURE_PROBS)
    uniforms = Stream(feature_seed).random(n_rows * d)
    feature_bits = tuple(
        pack_bool(bytes(map(p.__gt__, uniforms[j::d]))) for j, p in enumerate(FEATURE_PROBS)
    )
    names = tuple(f"x{i}" for i in range(d))

    labels = bytes(map(ELSEWHERE_POSITIVE_RATE.__gt__, Stream(label_seed).random(n_rows)))
    shell = BinaryDataset(feature_bits, names, labels, n_rows)
    # the planted list answers the rows it covers, the random labels the rest
    evaluator = CompanionEvaluator(PLANTED, shell, PredictionVector(labels))
    labels, provenance = evaluator.level_predictions(len(PLANTED))
    data = BinaryDataset(feature_bits, names, labels, n_rows)

    on_rules = synth_oracle(labels, covered_oracle_accuracy, covered_seed).preds
    elsewhere = synth_oracle(labels, oracle_accuracy, elsewhere_seed).preds
    preds = bytes(a if k >= 0 else b for a, b, k in zip(on_rules, elsewhere, provenance))
    return PlantedBenchmark(data=data, preds=PredictionVector(preds), planted=PLANTED)
