"""Companion rule lists.

An interpretable, ordered rule list is trained alongside a pre-trained
black-box classifier (consumed purely as a vector of its predictions). For any
input the user can take the first-match rule answer or the black-box answer;
sliding how many leading rules are adopted trades transparency (fraction of
rows answered by rules) against accuracy. Training maximizes the area under
that transparency-accuracy curve, minus a penalty per rule, with annealed
stochastic local search over a pool of frequent rules.

This namespace holds the documented API (see README.md); every other name is
importable from its own module.
"""

from .companion import CompanionEvaluator
from .data import (
    BinarizationManifest,
    BinaryDataset,
    PredictionVector,
    apply_manifest,
    binarize,
    load_predictions,
    load_table,
    split_folds,
    train_indices,
)
from .errors import CrlError, DataError, SearchError
from .mining import mine_rules
from .model_io import load_model, model_from_training, resolve_rules, save_model
from .objective import autac_hat, curve, objective
from .rules import Rule, RuleList
from .search import SearchConfig, run_search, tune_alpha
from .synth import planted_benchmark

__version__ = "0.1.0"

__all__ = [
    "BinarizationManifest",
    "BinaryDataset",
    "CompanionEvaluator",
    "CrlError",
    "DataError",
    "PredictionVector",
    "Rule",
    "RuleList",
    "SearchConfig",
    "SearchError",
    "apply_manifest",
    "autac_hat",
    "binarize",
    "curve",
    "load_model",
    "load_predictions",
    "load_table",
    "mine_rules",
    "model_from_training",
    "objective",
    "planted_benchmark",
    "resolve_rules",
    "run_search",
    "save_model",
    "split_folds",
    "train_indices",
    "tune_alpha",
]
