"""In-process span tracing of ``crl`` layers, from outside the package.

:class:`Tracer` swaps timing wrappers onto the module-level names each layer
exposes (and a few class methods), so nothing under ``src/`` changes. Spans
are kept in memory as ``(name, start, end, parent, run_id)`` and written out
once the run ends; counts are taken from the wrapped calls' return values.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from pathlib import Path

# Per-layer metrics in reporting order: name -> unit.
LAYER_UNITS = {
    "search.us_per_iter": "us",
    "search.run_search_s": "s",
    "search.score_self_us_per_iter": "us",
    "search.propose_us_per_iter": "us",
    "search.accept_us_per_iter": "us",
    "search.accept_rate": "ratio",
    "search.identity_frac": "ratio",
    "search.mean_list_len": "count",
    "data.load_table_s": "s",
    "data.apply_manifest_s": "s",
    "data.load_predictions_s": "s",
    "data.binarize_s": "s",
    "data.subset_s": "s",
    "data.rows": "count",
    "data.binary_features": "count",
    "mining.mine_rules_s": "s",
    "mining.pool_size": "count",
    "objective.curve_s": "s",
    "companion.evaluator_init_s": "s",
    "companion.predictions_s": "s",
    "model_io.save_s": "s",
    "model_io.load_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Summed span time per metric: metric -> span name.
_SPAN_TOTALS = {
    "search.run_search_s": "search.run_search",
    "data.load_table_s": "data.load_table",
    "data.apply_manifest_s": "data.apply_manifest",
    "data.load_predictions_s": "data.load_predictions",
    "data.binarize_s": "data.binarize",
    "data.subset_s": "data.subset",
    "mining.mine_rules_s": "mining.mine_rules",
    "objective.curve_s": "objective.curve",
    "companion.evaluator_init_s": "companion.evaluator_init",
    "companion.predictions_s": "companion.predictions",
    "model_io.save_s": "model_io.save",
    "model_io.load_s": "model_io.load",
}


def _count_table(tracer: "Tracer", table) -> None:
    tracer.peak("data.rows", table.n_rows)


def _count_binarized(tracer: "Tracer", result) -> None:
    data = result[0] if isinstance(result, tuple) else result
    tracer.peak("data.binary_features", data.n_features)


def _count_pool(tracer: "Tracer", pool) -> None:
    tracer.counts["mining.pools"] += 1
    tracer.counts["mining.rules"] += len(pool)


def _count_proposal(tracer: "Tracer", result) -> None:
    tracer.counts["search.proposed_len"] += len(result[0])


def _count_search(tracer: "Tracer", result) -> None:
    steps = result.trace.steps
    tracer.counts["search.iterations"] += len(steps)
    tracer.counts["search.accepted"] += sum(1 for s in steps if s.accepted)
    tracer.counts["search.identity"] += sum(1 for s in steps if s.op == "identity")


class Tracer:
    """Span recorder that patches ``crl`` entry points while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.run_id = ""
        self._stack: list[int] = []
        self._undo: list = []

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts[key], value)

    def _wrap(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if on_return is not None:
                on_return(self, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, on_return=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, on_return))

    def install(self) -> None:
        """Wrap every layer entry point; :meth:`uninstall` restores them."""
        import crl.cli as cli
        import crl.search as search
        from crl.companion import CompanionEvaluator
        from crl.data import BinaryDataset

        for handler in ("cmd_train", "cmd_cv", "cmd_evaluate", "cmd_predict"):
            self._patch(cli, handler, "cli.handler")
        self._patch(cli, "load_table", "data.load_table", _count_table)
        self._patch(cli, "binarize", "data.binarize", _count_binarized)
        self._patch(cli, "apply_manifest", "data.apply_manifest", _count_binarized)
        self._patch(cli, "load_predictions", "data.load_predictions")
        self._patch(cli, "mine_rules", "mining.mine_rules", _count_pool)
        self._patch(cli, "run_search", "search.run_search", _count_search)
        self._patch(cli, "curve", "objective.curve")
        for saver in ("save_model", "save_curve_csv", "save_trace_csv"):
            self._patch(cli, saver, "model_io.save")
        for loader in ("load_model", "resolve_rules"):
            self._patch(cli, loader, "model_io.load")
        self._patch(search, "propose", "search.propose", _count_proposal)
        self._patch(search, "accept", "search.accept")
        self._patch(search, "curve", "objective.curve")
        self._patch(BinaryDataset, "subset", "data.subset")
        self._patch(CompanionEvaluator, "__init__", "companion.evaluator_init")
        # rule/blackbox predictions go through level_predictions.
        for mode in ("level_predictions", "stochastic_predictions"):
            self._patch(CompanionEvaluator, mode, "companion.predictions")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write the spans of several tracers to one CSV with run-wide ids."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name", "start", "end", "parent", "run_id"])
        offset = 0
        for tracer in tracers:
            for i, (name, start, end, parent, run_id) in enumerate(tracer.spans):
                parent_id = parent + offset if parent >= 0 else -1
                writer.writerow([i + offset, name, repr(start), repr(end), parent_id, run_id])
            offset += len(tracer.spans)


def layer_metrics(spans, counts) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac`` from one traced rep.

    A layer's self time is its spans' duration minus their direct children's.
    Metrics of a layer the workload never enters read 0.
    """
    total: defaultdict[str, float] = defaultdict(float)
    child: defaultdict[str, float] = defaultdict(float)
    child_by: defaultdict[tuple[str, str], float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        d = end - start
        total[name] += d
        if parent >= 0:
            pname = spans[parent][0]
            child[pname] += d
            child_by[(pname, name)] += d

    iters = counts.get("search.iterations", 0)
    per_iter = 1e6 / iters if iters else 0.0
    out = {metric: total[span] for metric, span in _SPAN_TOTALS.items()}
    out["search.us_per_iter"] = total["search.run_search"] * per_iter
    out["search.score_self_us_per_iter"] = (
        total["search.run_search"] - child["search.run_search"]
    ) * per_iter
    out["search.propose_us_per_iter"] = child_by[("search.run_search", "search.propose")] * per_iter
    out["search.accept_us_per_iter"] = child_by[("search.run_search", "search.accept")] * per_iter
    out["search.accept_rate"] = counts.get("search.accepted", 0) / iters if iters else 0.0
    out["search.identity_frac"] = counts.get("search.identity", 0) / iters if iters else 0.0
    out["search.mean_list_len"] = counts.get("search.proposed_len", 0) / iters if iters else 0.0
    out["data.rows"] = counts.get("data.rows", 0)
    out["data.binary_features"] = counts.get("data.binary_features", 0)
    pools = counts.get("mining.pools", 0)
    out["mining.pool_size"] = counts.get("mining.rules", 0) / pools if pools else 0.0
    out["cli.self_s"] = total["cli.handler"] - child["cli.handler"]
    return out
