"""File formats: model JSON, candidate-pool JSON, curve and trace CSV.

The model format is versioned and canonical: rules are stored with feature
names (never indices) plus optional training-time statistics, fields are
emitted in a fixed order, and loading then saving a valid file reproduces it
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .data import BinaryDataset, json_int, json_number, read_json, write_json, write_rows
from .errors import DataError
from .mining import CandidatePool
from .objective import TradeoffCurve
from .rules import Rule, RuleList
from .search import SearchStep, SearchTrace

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
TRACE_FIELDS = SearchStep._fields
# Training-time statistics of rule m, in the order TradeoffCurve.level_stats
# gives them: its exclusive support and accuracy on the rows it answers, then
# curve point m (cumulative transparency and accuracy).
STATS_FIELDS = ("exclusive_support", "rule_accuracy", "transparency", "accuracy")


@dataclass(frozen=True)
class ModelRule:
    conditions: tuple[str, ...]  # feature names, e.g. "age=bin3"
    output: int
    stats: dict | None  # keyed by STATS_FIELDS


@dataclass(frozen=True)
class ModelDocument:
    """A rule-list model as stored on disk, independent of any dataset."""

    rules: tuple[ModelRule, ...]
    training: dict | None

    def to_obj(self) -> dict:
        rules = [
            {
                "conditions": list(r.conditions),
                "output": r.output,
                "stats": None if r.stats is None else {k: r.stats[k] for k in STATS_FIELDS},
            }
            for r in self.rules
        ]
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
        rules.append(
            ModelRule(
                conditions=tuple(feature_names[c] for c in rule.conditions),
                output=rule.output,
                stats=dict(zip(STATS_FIELDS, curve.level_stats(m))),
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
    version = obj["version"]
    _require(json_int(version) and version == MODEL_VERSION, f"unknown version {version!r}")
    _require(isinstance(obj["rules"], list), "rules must be a list")
    rules = []
    last_t = 0.0
    for r in obj["rules"]:
        _require(isinstance(r, dict), "each rule must be an object")
        _require(set(r) == {"conditions", "output", "stats"}, "unexpected rule keys")
        conds = r["conditions"]
        _require(
            isinstance(conds, list) and conds and all(isinstance(c, str) for c in conds),
            "conditions must be a nonempty list of feature names",
        )
        _require(json_int(r["output"]) and r["output"] in (0, 1), "rule output must be 0 or 1")
        stats = r["stats"]
        if stats is not None:
            _require(
                isinstance(stats, dict) and set(stats) == set(STATS_FIELDS),
                "unexpected stats keys",
            )
            _require(
                all(
                    json_number(v) or (k == "rule_accuracy" and v is None)
                    for k, v in stats.items()
                ),
                "rule stats must be finite numbers (rule_accuracy may be null)",
            )
            _require(
                json_int(stats["exclusive_support"])
                and stats["exclusive_support"] >= 0
                and all(
                    v is None or 0 <= v <= 1
                    for k, v in stats.items()
                    if k != "exclusive_support"
                ),
                "exclusive_support must be an integer >= 0, the other stats within [0, 1]",
            )
            _require(last_t <= stats["transparency"], "rule transparencies must ascend")
            last_t = stats["transparency"]
        rules.append(ModelRule(conditions=tuple(conds), output=r["output"], stats=stats))
    training = obj["training"]
    _require(training is None or isinstance(training, dict), "training must be an object")
    return ModelDocument(rules=tuple(rules), training=training)


def load_model(path) -> ModelDocument:
    """The model in a JSON file; a DataError names the file."""
    return read_json(path, model_from_obj)


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
    rows = []
    for m in range(curve.n_levels + 1):
        support, rule_accuracy, t, a = curve.level_stats(m)
        rows.append((m, t, a, support, rule_accuracy))
    write_rows(path, CURVE_FIELDS, rows)


class _Reprs(dict):
    """``repr`` of each float, computed once for each distinct nonzero value.

    Zeros are not stored: ``-0.0 == 0.0``, but their reprs differ.
    """

    def __missing__(self, x):
        text = repr(x)
        if x:
            self[x] = text
        return text


def trace_csv(trace: SearchTrace) -> str:
    """The text of ``trace.csv``: what ``write_rows(path, TRACE_FIELDS, rows)`` writes.

    Every cell is an int, a float or an op name, so none is ever quoted and
    each step is one f-string. A chain's objective memo hands the same
    floats back again and again (10k steps on a 20k-row planted table
    propose about 2.3k distinct objectives and hold 30 distinct bests), so
    ``repr`` runs once for each distinct value.
    """
    reprs = _Reprs()
    lines = [
        f"{n},{op},{reprs[proposed]},{1 if accepted else 0},{reprs[best]}\r\n"
        for n, op, proposed, accepted, best in trace.steps
    ]
    return ",".join(TRACE_FIELDS) + "\r\n" + "".join(lines)


def save_trace_text(path, text: str) -> None:
    """Write the text :func:`trace_csv` rendered, its ``\\r\\n`` line ends kept."""
    Path(path).write_text(text, encoding="utf-8", newline="")


def save_trace_csv(path, trace: SearchTrace) -> None:
    save_trace_text(path, trace_csv(trace))
