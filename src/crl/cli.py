"""Command-line entry point.

Subcommands cover the full workflow: ``synth`` emits the planted-rule
benchmark, ``mine`` exports a candidate pool, ``train`` fits a companion rule
list, ``tune`` sweeps the length penalty, ``evaluate``/``pair`` score a stored
(or externally produced) rule list on held-out data, ``predict`` emits per-row
predictions with provenance, and ``cv`` runs the k-fold protocol end to end.

Exit codes: 0 success, 2 usage error, 3 data error, 4 search error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

from .companion import CompanionEvaluator
from .data import (
    BinarizationManifest,
    BinaryDataset,
    PredictionVector,
    apply_manifest,
    binarize,
    encode_cells,
    json_int,
    json_number,
    load_predictions,
    load_table,
    read_json,
    split_folds,
    synth_oracle,
    train_indices,
    write_json,
    write_rows,
)
from .errors import CrlError, DataError, SearchError
from .mining import mine_rules, subsample_for_mining
from .model_io import (
    ModelDocument,
    load_model,
    model_from_training,
    resolve_rules,
    save_curve_csv,
    save_model,
    save_pool,
    save_trace_csv,
    save_trace_text,
    trace_csv,
)
from .objective import autac_hat, curve
from .search import ALPHA_CANDIDATES, SearchConfig, _run_chains, check_candidates
from .search import run_search, tune_alpha
from .streams import Stream, child_seeds
from .synth import planted_benchmark


class UsageError(CrlError):
    """Bad flag combination or value that argparse alone cannot express."""


@contextmanager
def _knob_errors(knobs: str, error: type[CrlError] = UsageError):
    """Report the library's ValueError for an out-of-range knob as a CLI error."""
    try:
        yield
    except ValueError as exc:
        raise error(f"{knobs}: {exc}") from exc


@contextmanager
def _warnings_to_stderr():
    """Print each library warning raised inside as one ``warning: ...`` stderr line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)


@dataclass(frozen=True)
class Knob:
    """A flag with a default, declared once for every subcommand that takes it.

    The parser leaves the flag ``None`` when it is not given; resolution then
    fills in the ``--config`` value (``config`` rows only) or ``default``, and
    checks ``minimum`` and ``maximum``. Every other range check stays in the library.
    """

    flag: str
    type: type
    default: object
    help: str
    commands: tuple[str, ...]
    minimum: int | None = None
    maximum: int | None = None
    config: bool = False

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


_DATA = ("train", "evaluate", "predict", "mine", "tune", "cv")
_PREDS = ("train", "evaluate", "predict", "tune", "cv")
_MINING = ("train", "mine", "tune", "cv")
_SEARCH = ("train", "tune", "cv")

KNOBS = (
    Knob("--delimiter", str, ",", "field delimiter of the input files", _DATA),
    Knob(
        "--quantiles", int, 7, "bins per numeric column", _DATA, minimum=2, maximum=1000, config=True
    ),
    Knob("--oracle-seed", int, 0, "seed of the --oracle-accuracy black-box", _PREDS, minimum=0),
    Knob("--gamma", float, 0.05, "min class support", _MINING, config=True),
    Knob("--max-card", int, 2, "max conditions per rule", _MINING, config=True),
    Knob(
        "--mine-fraction",
        float,
        1.0,
        "count supports on a row subsample of this fraction "
        "(the search still scores rules on every row)",
        _MINING,
        config=True,
    ),
    Knob("--alpha", float, 0.001, "rule-count penalty", _SEARCH, config=True),
    Knob("--c0", float, 0.001, "initial temperature", _SEARCH, config=True),
    Knob("--iters", int, 50_000, "search iterations", _SEARCH, config=True),
    Knob("--seed", int, 0, "seed of mining, search and folds", _SEARCH, minimum=0, config=True),
    Knob("--init-size", int, 3, "rules in the initial list", _SEARCH, config=True),
    Knob("--max-rules", int, None, "hard cap on accepted list length", _SEARCH, config=True),
    Knob("--i-max", int, 20, "rule-count admissibility cap", ("tune",), minimum=1),
    Knob("--folds", int, 5, "cross-validation folds", ("cv",), minimum=2, config=True),
    Knob("--seed", int, 0, "seed for --transparency draws", ("predict",), minimum=0),
    Knob("--rows", int, 2000, "rows to generate", ("synth",), minimum=1),
    Knob("--seed", int, 0, "random seed", ("mine", "synth"), minimum=0),
    Knob(
        "--oracle-accuracy", float, 0.85, "black-box accuracy off the planted region", ("synth",)
    ),
    Knob(
        "--covered-oracle-accuracy",
        float,
        0.75,
        "black-box accuracy on the planted region",
        ("synth",),
    ),
)
CONFIG_KNOBS = {k.dest: k for k in KNOBS if k.config}


def _read_config(path) -> dict:
    """A ``--config`` JSON object whose every value has its knob's type."""
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise DataError(f"{path}: config must be a JSON object")
    unknown = sorted(set(obj) - set(CONFIG_KNOBS))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in obj.items():
        knob = CONFIG_KNOBS[key]
        if value is None and knob.default is None:
            continue
        if (json_number if knob.type is float else json_int)(value):
            obj[key] = knob.type(value)  # the type the flag would parse to
            continue
        if isinstance(value, float) and not math.isfinite(value):  # read from, say, 1e400
            raise UsageError(f"config key {key!r} holds a number beyond the float range")
        kind = "a number" if knob.type is float else "an integer"
        if knob.default is None:
            kind += " or null"
        raise UsageError(f"config key {key!r} must be {kind}, not {json.dumps(value)}")
    return obj


def _resolve_knobs(args) -> None:
    """Give every unset knob its ``--config`` value or default, then check it.

    Runs before any data loads. An explicit flag always wins over the file,
    the file over the default. A search command also gets ``args.search``, the
    one :class:`SearchConfig` every chain of the run copies with its own seed,
    and ``tune`` gets ``args.alphas``, its checked alpha candidates.
    """
    config = _read_config(args.config) if getattr(args, "config", None) else {}
    for knob in args.knobs:
        if getattr(args, knob.dest) is None:
            value = config.get(knob.dest, knob.default) if knob.config else knob.default
            setattr(args, knob.dest, value)
        value = getattr(args, knob.dest)
        if knob.minimum is not None and value < knob.minimum:
            raise UsageError(f"{knob.flag} must be >= {knob.minimum}")
        if knob.maximum is not None and value > knob.maximum:
            raise UsageError(f"{knob.flag} must be <= {knob.maximum}")
    if len(getattr(args, "delimiter", ",")) != 1:
        raise UsageError("--delimiter must be exactly one character")
    if args.command in _SEARCH:
        with _knob_errors("search options"):
            args.search = SearchConfig(
                alpha=args.alpha,
                c0=args.c0,
                n_iters=args.iters,
                seed=args.seed,
                init_size=args.init_size,
                max_rules_guard=args.max_rules,
            )
    if args.command == "tune":
        with _knob_errors("--candidates"):
            listed = args.candidates
            args.alphas = check_candidates(
                ALPHA_CANDIDATES if listed is None else map(float, listed.split(","))
            )


def _load_dataset(args) -> tuple[BinaryDataset, BinarizationManifest]:
    manifest = BinarizationManifest.load(args.manifest) if args.manifest else None
    positive_value = args.positive_value
    if manifest is not None:
        for flag, given, fitted in (
            ("--label-column", args.label_column, manifest.label_column),
            ("--positive-value", args.positive_value, manifest.positive_value),
        ):
            if given is not None and given != fitted:
                raise UsageError(f"{flag} {given!r} disagrees with the manifest's {fitted!r}")
        positive_value = manifest.positive_value
    table = load_table(
        args.data, args.label_column, delimiter=args.delimiter, positive_value=positive_value
    )
    if manifest is not None:
        with _warnings_to_stderr():
            return apply_manifest(table, manifest), manifest
    return binarize(table, quantiles=args.quantiles)


def _load_preds(args, data: BinaryDataset) -> PredictionVector:
    if args.preds is not None and args.oracle_accuracy is not None:
        raise UsageError("--preds and --oracle-accuracy are mutually exclusive")
    if args.preds is not None:
        return load_predictions(
            args.preds, data.n_rows, column=args.pred_column, delimiter=args.delimiter
        )
    if args.oracle_accuracy is not None:
        with _knob_errors("--oracle-accuracy"):
            return synth_oracle(data.labels, args.oracle_accuracy, args.oracle_seed)
    raise UsageError("black-box predictions required: pass --preds or --oracle-accuracy")


def _mine(args, data: BinaryDataset, seed: int):
    with _knob_errors("mining options"):
        mining = subsample_for_mining(data, args.mine_fraction, seed=seed)
        return mine_rules(mining, gamma=args.gamma, max_cardinality=args.max_card)


def _fit(args, data: BinaryDataset, preds: PredictionVector, seed: int):
    """Mine a pool on ``data`` and run one search chain; ``seed`` drives both."""
    pool = _mine(args, data, seed)
    return run_search(data, preds, pool, replace(args.search, seed=seed))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    data, manifest = _load_dataset(args)
    preds = _load_preds(args, data)
    result = _fit(args, data, preds, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    doc = model_from_training(
        result.best_list,
        data.feature_names,
        result.curve,
        training={
            "n_rows": data.n_rows,
            "blackbox_accuracy": result.curve.points[0][1],
            "autac": result.objective.autac,
            "alpha": result.objective.alpha,
            "objective": result.objective.objective,
            "seed": args.seed,
        },
    )
    save_model(out / "model.json", doc)
    save_curve_csv(out / "curve.csv", result.curve)
    save_trace_csv(out / "trace.csv", result.trace)
    manifest.save(out / "manifest.json")
    print(
        f"trained {len(result.best_list)} rules: "
        f"objective={result.objective.objective:.6f} "
        f"autac={result.objective.autac:.6f} coverage={result.curve.coverage:.4f}"
    )
    print(f"artifacts written to {out}")
    return 0


def _refuse_fresh_bins(doc: ModelDocument, manifest: BinarizationManifest) -> None:
    """Refuse a model that names a feature of a numeric column of ``manifest``.

    ``manifest`` was fitted on the rows being scored, so its quantile bins
    need not cover the ranges the training bins of the same names covered.
    """
    binned = {
        name for c in manifest.columns if c.edges is not None for name in c.feature_names()
    }
    for r in doc.rules:
        for name in r.conditions:
            if name in binned:
                raise UsageError(
                    f"model names {name!r}, a quantile bin fitted on the rows being "
                    "scored; pass the training --manifest"
                )


def _evaluate_model(args) -> tuple[CompanionEvaluator, ModelDocument]:
    data, manifest = _load_dataset(args)
    preds = _load_preds(args, data)
    doc = load_model(args.model)
    if not args.manifest:
        _refuse_fresh_bins(doc, manifest)
    rules = resolve_rules(doc, data)
    return CompanionEvaluator(rules, data, preds), doc


def cmd_evaluate(args) -> int:
    evaluator, _ = _evaluate_model(args)
    if args.curve_out:
        save_curve_csv(args.curve_out, evaluator.curve)
    print(
        f"autac={evaluator.autac()!r} coverage={evaluator.curve.coverage!r} "
        f"blackbox_accuracy={evaluator.curve.points[0][1]!r}"
    )
    return 0


def cmd_predict(args) -> int:
    evaluator, doc = _evaluate_model(args)
    if args.level is not None:
        preds, prov = evaluator.level_predictions(args.level)
    elif args.transparency is not None:
        # t maps through the training-time levels, so no row depends on its batch
        try:
            levels = doc.level_transparencies()
        except DataError as exc:
            raise DataError(f"{args.model}: {exc}; --level works without them") from exc
        rng = Stream(args.seed)
        preds, prov = evaluator.stochastic_predictions(args.transparency, rng, levels)
    elif args.all_blackbox:
        preds, prov = evaluator.level_predictions(0)
    else:
        preds, prov = evaluator.level_predictions(evaluator.n_levels)
        print(
            f"residual coverage: {evaluator.residual_fraction():.4f} of rows fall "
            "through to the black-box"
        )
    # provenance k is written as names[k], and -1, the black-box, as names[-1]
    names = [*range(1, evaluator.n_levels + 1), "blackbox"]
    rows = zip(range(len(preds)), preds, map(names.__getitem__, prov))
    write_rows(args.out, ("row", "prediction", "provenance"), rows)
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def cmd_mine(args) -> int:
    data, _ = _load_dataset(args)
    pool = _mine(args, data, args.seed)
    save_pool(args.out, pool, data.feature_names)
    print(f"mined {len(pool)} candidate rules to {args.out}")
    return 0


def cmd_tune(args) -> int:
    data, _ = _load_dataset(args)
    preds = _load_preds(args, data)
    pool = _mine(args, data, args.seed)
    report = tune_alpha(
        data, preds, pool, candidates=args.alphas, i_max=args.i_max, base_config=args.search
    )
    obj = {
        "chosen_alpha": report.chosen_alpha,
        "tied_alphas": list(report.tied_alphas),
        "candidates": [asdict(c) for c in report.candidates],
    }
    write_json(args.out, obj)
    for c in report.candidates:
        print(c.summary())
    print(f"chosen alpha: {report.chosen_alpha}")
    if args.model_out:
        doc = model_from_training(
            report.chosen.best_list, data.feature_names, report.chosen.curve
        )
        save_model(args.model_out, doc)
    return 0


def _cv_fold(args, data, preds, folds, fold_seeds, i: int):
    """Fit fold ``i`` on the other folds; score it on its own rows.

    Returns the result without its trace, the test curve and the trace
    rendered as ``trace.csv`` text, so a worker sends the parent text, not
    one step object per iteration.
    """
    try:
        tr_idx = train_indices(folds, i)
        result = _fit(args, data.subset(tr_idx), preds.subset(tr_idx), fold_seeds[i])
        test_curve = curve(result.best_list, data.subset(folds[i]), preds.subset(folds[i]))
    except (DataError, SearchError) as exc:  # a UsageError is the run's, not the fold's
        raise type(exc)(f"fold {i}: {exc}") from exc
    return replace(result, trace=None), test_curve, trace_csv(result.trace)


def cmd_cv(args) -> int:
    data, manifest = _load_dataset(args)
    preds = _load_preds(args, data)
    with _knob_errors("--folds", DataError), _warnings_to_stderr():
        folds = split_folds(data, k=args.folds, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest.save(out / "manifest.json")

    fold = partial(_cv_fold, args, data, preds, folds, child_seeds(args.seed, len(folds)))
    fold_rows: list[dict] = []
    with closing(_run_chains(fold, len(folds), "fold")) as fitted:
        for i, (result, test_curve, trace_text) in enumerate(fitted):
            fold_dir = out / f"fold_{i}"
            fold_dir.mkdir(exist_ok=True)
            doc = model_from_training(result.best_list, data.feature_names, result.curve)
            save_model(fold_dir / "model.json", doc)
            save_curve_csv(fold_dir / "curve_train.csv", result.curve)
            save_curve_csv(fold_dir / "curve_test.csv", test_curve)
            save_trace_text(fold_dir / "trace.csv", trace_text)
            fold_rows.append(
                {
                    "fold": i,
                    "n_rows_train": data.n_rows - len(folds[i]),
                    "n_rows_test": len(folds[i]),
                    "n_rules": len(result.best_list),
                    "train_autac": result.objective.autac,
                    "test_autac": autac_hat(test_curve),
                    "test_blackbox_accuracy": test_curve.points[0][1],
                    "model": f"fold_{i}/model.json",
                }
            )

    test_autacs = [f["test_autac"] for f in fold_rows]
    report = {
        "config": {
            "data": str(args.data),
            "folds": args.folds,
            "seed": args.seed,
            "alpha": args.alpha,
            "c0": args.c0,
            "iters": args.iters,
            "gamma": args.gamma,
            "max_card": args.max_card,
            "quantiles": args.quantiles,
        },
        "folds": fold_rows,
        "autac_mean": _mean(test_autacs),
        "autac_std": _sample_std(test_autacs),
        "blackbox_accuracy_mean": _mean([f["test_blackbox_accuracy"] for f in fold_rows]),
    }
    write_json(out / "report.json", report)
    table = _cv_table(report)
    (out / "report.txt").write_text(table + "\n")
    print(table)
    return 0


def _pairwise_sum(values: list[float]) -> float:
    """numpy's float64 sum of ``values``, bit for bit: pairwise summation.

    Below 8 values a plain loop; up to 128, eight running sums over the
    values in steps of 8, combined pairwise, then the remainder added in
    turn; above, the sums of two halves, the first a multiple of 8 long.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        r = list(values[:8])
        tail = n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[tail:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _mean(values: list[float]) -> float:
    """``numpy.mean`` of ``values``, bit for bit."""
    return _pairwise_sum(values) / len(values)


def _sample_std(values: list[float]) -> float:
    """``numpy.std(values, ddof=1)``, bit for bit."""
    mean = _mean(values)
    squares = [(v - mean) * (v - mean) for v in values]
    return math.sqrt(_pairwise_sum(squares) / (len(values) - 1))


def _cv_table(report: dict) -> str:
    """The per-fold table and test AUTAC summary of a ``cv`` report."""
    lines = ["fold  rules  train_autac  test_autac"]
    for f in report["folds"]:
        lines.append(
            f"{f['fold']:>4}  {f['n_rules']:>5}  {f['train_autac']:>11.4f}  "
            f"{f['test_autac']:>10.4f}"
        )
    lines.append("")
    lines.append(
        f"test AUTAC (mean over {len(report['folds'])} folds, sample std in "
        f"parentheses): {report['autac_mean']:.3f} ({report['autac_std']:.3f})"
    )
    return "\n".join(lines)


def cmd_synth(args) -> int:
    with _knob_errors("--oracle-accuracy/--covered-oracle-accuracy"):
        bench = planted_benchmark(
            n_rows=args.rows,
            seed=args.seed,
            oracle_accuracy=args.oracle_accuracy,
            covered_oracle_accuracy=args.covered_oracle_accuracy,
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = map(tuple.__add__, bench.data.matrix, zip(bench.data.labels))
    write_rows(out / "data.csv", (*bench.data.feature_names, "label"), rows)
    (out / "preds.txt").write_text("\n".join(map(str, bench.preds.preds)) + "\n")

    # Re-load through the standard pipeline so the shipped planted model uses
    # the one-hot feature names any `train`/`evaluate` run on data.csv will see.
    _, manifest = binarize(load_table(out / "data.csv", "label"))
    manifest.save(out / "manifest.json")

    # a planted condition is "column i takes value 1"; name it as binarize did
    names = {}
    for rule in bench.planted:
        for i in rule.conditions:
            col = manifest.columns[i]
            k = int.from_bytes(col.codes(encode_cells(("1",))), "little")
            if k == len(col.categories):
                raise DataError(f"planted feature {col.name!r} is never 1 in {args.rows} rows")
            names[i] = col.feature_names()[k]
    planted_curve = curve(bench.planted, bench.data, bench.preds)
    doc = model_from_training(bench.planted, names, planted_curve)
    save_model(out / "planted_model.json", doc)
    print(
        f"wrote benchmark ({bench.data.n_rows} rows, "
        f"planted coverage {planted_curve.coverage:.3f}) to {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _subcommand(sub, name: str, handler, help: str, **kwargs) -> argparse.ArgumentParser:
    """Add subcommand ``name`` with the path flags of its groups and its knobs."""
    p = sub.add_parser(name, help=help, **kwargs)
    if name in _DATA:
        p.add_argument("--data", required=True, help="delimited text file with a header row")
        p.add_argument("--label-column", required=True, help="name of the label column")
        p.add_argument(
            "--positive-value",
            help="label value mapped to class 1 (default: lexicographically larger)",
        )
        p.add_argument(
            "--manifest",
            help="binarization manifest JSON; reuse training-time categories and edges",
        )
    if name in _PREDS:
        p.add_argument("--preds", help="black-box predictions, one 0/1 value per line")
        p.add_argument("--pred-column", help="read predictions from this CSV column")
        p.add_argument(
            "--oracle-accuracy",
            type=float,
            help="synthesize a black-box with this per-row accuracy instead of --preds",
        )
    if name in _SEARCH:
        p.add_argument(
            "--config",
            help="JSON file supplying any of the training/preprocessing knobs; "
            "explicit flags take precedence",
        )
    knobs = tuple(k for k in KNOBS if name in k.commands)
    for k in knobs:
        shown = k.help if k.default is None else f"{k.help} (default {k.default!r})"
        p.add_argument(k.flag, type=k.type, help=shown)
    p.set_defaults(handler=handler, knobs=knobs)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crl",
        description="Train and evaluate companion rule lists against a black-box.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "train", cmd_train, "mine a pool and fit a companion rule list")
    p.add_argument("--out", required=True, help="output directory")

    # `pair` scores an externally trained rule list, converted to the model
    # schema, as a naive companion under the same estimators.
    p = _subcommand(
        sub,
        "evaluate",
        cmd_evaluate,
        "score a stored or imported model on a dataset",
        aliases=["pair"],
    )
    p.add_argument("--model", required=True)
    p.add_argument("--curve-out")

    p = _subcommand(sub, "predict", cmd_predict, "per-row predictions with provenance")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--level", type=int)
    mode.add_argument("--transparency", type=float)
    mode.add_argument("--all-blackbox", action="store_true")
    mode.add_argument("--all-rules", action="store_true")

    p = _subcommand(sub, "mine", cmd_mine, "export the candidate rule pool as JSON")
    p.add_argument("--out", required=True)

    p = _subcommand(sub, "tune", cmd_tune, "sweep the length penalty alpha")
    p.add_argument("--candidates", help="comma-separated alpha values to try")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--model-out", help="save the chosen model here")

    p = _subcommand(sub, "cv", cmd_cv, "k-fold cross-validated training and evaluation")
    p.add_argument("--out", required=True, help="output directory")

    p = _subcommand(sub, "synth", cmd_synth, "emit the planted-rule benchmark")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_knobs(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SearchError as exc:
        print(f"search error: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
