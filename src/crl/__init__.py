"""Companion rule lists.

An interpretable, ordered rule list is trained alongside a pre-trained
black-box classifier (consumed purely as a vector of its predictions). For any
input the user can take the first-match rule answer or the black-box answer;
sliding how many leading rules are adopted trades transparency (fraction of
rows answered by rules) against accuracy. Training maximizes the area under
that transparency-accuracy curve, minus a penalty per rule, with annealed
stochastic local search over a pool of frequent rules.
"""

from .companion import CompanionEvaluator, CompanionModel, predict_companion_instance
from .data import (
    BinarizationManifest,
    BinaryDataset,
    PredictionVector,
    RawTable,
    apply_manifest,
    binarize,
    load_predictions,
    load_table,
    quantile_bin,
    quantile_edges,
    split_folds,
    synth_oracle,
    train_indices,
)
from .errors import CrlError, DataError, SearchError
from .mining import CandidatePool, mine_rules, subsample_for_mining
from .model_io import (
    ModelDocument,
    ModelRule,
    load_model,
    model_from_training,
    resolve_rules,
    save_curve_csv,
    save_model,
    save_pool,
    save_trace_csv,
)
from .objective import (
    ObjectiveValue,
    TradeoffCurve,
    accuracy_hat,
    autac_hat,
    blackbox_accuracy,
    curve,
    level_for_t,
    objective,
    transparency_hat,
)
from .rules import (
    Condition,
    Rule,
    RuleList,
    exclusive_covers,
    first_match_indices,
    predict_rule_list,
    raw_cover,
)
from .search import (
    ALPHA_CANDIDATES,
    AlphaCandidate,
    AlphaTuneReport,
    SearchConfig,
    SearchResult,
    SearchStep,
    SearchTrace,
    accept,
    init_list,
    propose,
    run_search,
    temperature,
    tune_alpha,
)
from .synth import PlantedBenchmark, planted_benchmark

__version__ = "0.1.0"

__all__ = [
    "ALPHA_CANDIDATES",
    "AlphaCandidate",
    "AlphaTuneReport",
    "BinarizationManifest",
    "BinaryDataset",
    "CandidatePool",
    "CompanionEvaluator",
    "CompanionModel",
    "Condition",
    "CrlError",
    "DataError",
    "ModelDocument",
    "ModelRule",
    "ObjectiveValue",
    "PlantedBenchmark",
    "PredictionVector",
    "RawTable",
    "Rule",
    "RuleList",
    "SearchConfig",
    "SearchError",
    "SearchResult",
    "SearchStep",
    "SearchTrace",
    "TradeoffCurve",
    "accept",
    "accuracy_hat",
    "apply_manifest",
    "autac_hat",
    "binarize",
    "blackbox_accuracy",
    "curve",
    "exclusive_covers",
    "first_match_indices",
    "init_list",
    "level_for_t",
    "load_model",
    "load_predictions",
    "load_table",
    "mine_rules",
    "model_from_training",
    "objective",
    "planted_benchmark",
    "predict_companion_instance",
    "predict_rule_list",
    "propose",
    "quantile_bin",
    "quantile_edges",
    "raw_cover",
    "resolve_rules",
    "run_search",
    "save_curve_csv",
    "save_model",
    "save_pool",
    "save_trace_csv",
    "split_folds",
    "subsample_for_mining",
    "synth_oracle",
    "temperature",
    "train_indices",
    "transparency_hat",
    "tune_alpha",
]
