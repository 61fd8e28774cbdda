"""File formats: model JSON, candidate-pool JSON, curve and trace CSV.

The model format is versioned and canonical: rules are stored with feature
names (never indices) plus optional training-time statistics, fields are
emitted in a fixed order, and loading then saving a valid file reproduces it
byte for byte.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .data import BinaryDataset, read_json, write_json
from .errors import DataError
from .mining import CandidatePool
from .objective import TradeoffCurve
from .rules import Rule, RuleList
from .search import SearchTrace

MODEL_FORMAT = "crl-model"
MODEL_VERSION = 1
POOL_FORMAT = "crl-pool"
POOL_VERSION = 1

CURVE_FIELDS = (
    "level",
    "transparency",
    "accuracy",
    "exclusive_support",
    "rule_part_accuracy",
)
TRACE_FIELDS = ("iteration", "op", "proposed_objective", "accepted", "best_objective")


@dataclass(frozen=True)
class ModelRule:
    conditions: tuple[str, ...]  # feature names, e.g. "age=bin3"
    output: int
    stats: dict | None  # exclusive_support, rule_accuracy, transparency, accuracy


@dataclass(frozen=True)
class ModelDocument:
    """A rule-list model as stored on disk, independent of any dataset."""

    rules: tuple[ModelRule, ...]
    training: dict | None

    def to_obj(self) -> dict:
        rules = []
        for r in self.rules:
            stats = None
            if r.stats is not None:
                stats = {
                    "exclusive_support": r.stats["exclusive_support"],
                    "rule_accuracy": r.stats["rule_accuracy"],
                    "transparency": r.stats["transparency"],
                    "accuracy": r.stats["accuracy"],
                }
            rules.append(
                {"conditions": list(r.conditions), "output": r.output, "stats": stats}
            )
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "rules": rules,
            "training": self.training,
        }

    def level_transparencies(self) -> list[float]:
        """Training-time transparency per level, for stochastic deployment."""
        ts = [0.0]
        for r in self.rules:
            if r.stats is None:
                raise DataError("model carries no training statistics")
            ts.append(float(r.stats["transparency"]))
        return ts


def model_from_training(
    rule_list: RuleList,
    feature_names,
    curve: TradeoffCurve,
    training: dict | None = None,
) -> ModelDocument:
    """Bind a trained list to feature names and its training-time curve."""
    rules = []
    for m, rule in enumerate(rule_list, start=1):
        stats = {
            "exclusive_support": curve.exclusive_counts[m],
            "rule_accuracy": curve.rule_part_accuracy(m),
            "transparency": curve.points[m][0],
            "accuracy": curve.points[m][1],
        }
        rules.append(
            ModelRule(
                conditions=tuple(feature_names[c] for c in rule.conditions),
                output=rule.output,
                stats=stats,
            )
        )
    return ModelDocument(rules=tuple(rules), training=training)


def save_model(path, doc: ModelDocument) -> None:
    write_json(path, doc.to_obj())


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DataError(f"model schema violation: {msg}")


def model_from_obj(obj) -> ModelDocument:
    _require(isinstance(obj, dict), "top level must be an object")
    _require(set(obj) == {"format", "version", "rules", "training"}, "unexpected keys")
    _require(obj["format"] == MODEL_FORMAT, f"unknown format {obj.get('format')!r}")
    _require(obj["version"] == MODEL_VERSION, f"unknown version {obj.get('version')!r}")
    _require(isinstance(obj["rules"], list), "rules must be a list")
    rules = []
    for r in obj["rules"]:
        _require(isinstance(r, dict), "each rule must be an object")
        _require(set(r) == {"conditions", "output", "stats"}, "unexpected rule keys")
        conds = r["conditions"]
        _require(
            isinstance(conds, list) and conds and all(isinstance(c, str) for c in conds),
            "conditions must be a nonempty list of feature names",
        )
        _require(r["output"] in (0, 1), "rule output must be 0 or 1")
        stats = r["stats"]
        if stats is not None:
            _require(
                isinstance(stats, dict)
                and set(stats)
                == {"exclusive_support", "rule_accuracy", "transparency", "accuracy"},
                "unexpected stats keys",
            )
        rules.append(ModelRule(conditions=tuple(conds), output=r["output"], stats=stats))
    training = obj["training"]
    _require(training is None or isinstance(training, dict), "training must be an object")
    return ModelDocument(rules=tuple(rules), training=training)


def load_model(path) -> ModelDocument:
    return model_from_obj(read_json(path))


def resolve_rules(doc: ModelDocument, data: BinaryDataset) -> RuleList:
    """Turn stored feature names back into dataset column indices."""
    index = data.name_index
    rules = []
    for r in doc.rules:
        conds = []
        for name in r.conditions:
            if name not in index:
                raise DataError(
                    f"cannot resolve feature name {name!r} against the dataset"
                )
            conds.append(index[name])
        rules.append(Rule(conditions=tuple(conds), output=r.output))
    try:
        return RuleList(tuple(rules))
    except ValueError as exc:
        raise DataError(f"model schema violation: {exc}") from exc


# ---------------------------------------------------------------------------
# Candidate pool JSON
# ---------------------------------------------------------------------------


def save_pool(path, pool: CandidatePool, feature_names) -> None:
    obj = {
        "format": POOL_FORMAT,
        "version": POOL_VERSION,
        "gamma": pool.gamma,
        "max_cardinality": pool.max_cardinality,
        "rules": [
            {
                "conditions": [feature_names[c] for c in r.conditions],
                "output": r.output,
                "support": s,
            }
            for r, s in zip(pool.rules, pool.supports)
        ],
    }
    write_json(path, obj)


# ---------------------------------------------------------------------------
# Curve and trace CSV
# ---------------------------------------------------------------------------


def save_curve_csv(path, curve: TradeoffCurve) -> None:
    """Write the curve as CSV, one row per level, full float precision."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_FIELDS)
        for m, (t, a) in enumerate(curve.points):
            exc = curve.exclusive_counts[m]
            racc = None if m == 0 else curve.rule_part_accuracy(m)
            writer.writerow(
                [m, repr(t), repr(a), exc, "" if racc is None else repr(racc)]
            )


def save_trace_csv(path, trace: SearchTrace) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for step in trace.steps:
            writer.writerow(
                [
                    step.iteration,
                    step.op,
                    repr(step.proposed_objective),
                    int(step.accepted),
                    repr(step.best_objective),
                ]
            )
