"""Benchmark of the ``crl`` command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload cv-mixed --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35   # every workload, one table
    python3 perfbench/run.py --smoke                       # tiny inputs, self-test

Each workload runs real ``crl`` subcommands on inputs that ``gen.py`` makes
from ``--seed`` before any timing. Commands run one at a time, each in a fresh
process (a closed loop with one client), and the whole command sequence is
repeated until ``--seconds`` have passed. ``checks.py`` verifies every output.

On a shared virtual machine (measured on a 2-vCPU KVM guest of an Intel Xeon
host) the speed of one and the same command drifts by 30% and more over
minutes, far more than a change worth measuring. So every repeat of the
sequence is paired with a repeat of the same sequence, on the same inputs, by
``baseline/crl``: a frozen copy of the package as it stood when this
benchmark was defined, never to be edited. Each command runs on the two sides
back to back, alternating which goes first, and the ratio of their walls
cancels the host's drift. Each run starts with one untimed pair, which warms
byte-code and page caches.

``--trace 0`` reports the end-to-end metrics:

* ``wall_rel``: median over repeats of the summed wall time of the sequence
  divided by that of the baseline's paired repeat (1.0 = as fast as the
  baseline, 0.5 = twice as fast); the raw walls of both sides are recorded;
* ``setup_s``: median wall time of a fresh ``crl --help`` process, i.e.
  interpreter start, ``import crl`` and building the parser;
* ``peak_rss_mb``: the largest peak RSS of any single CLI process;
* ``autac``: output quality (training, mean test or held-out AUTAC).

``--trace 1`` runs the same sequence in this process through
``crl.cli.main``, alternately untraced and with the span wrappers of
``tracing.py`` installed, and reports the per-layer metrics (medians over
traced repeats) plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The failed share of
operations (``ops_failed_frac``), the determinism fingerprint, the input
descriptions and the environment are printed on the line before it and
written to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

# Start-up samples are spread over the run so one short slow spell of the
# host does not decide the median.
HELP_PER_REPEAT = 1
MIN_HELP_RUNS = 9
ALPHA = "0.001"

WORKLOADS = ("train-planted", "cv-mixed", "predict-heldout")
FULL_SIZES = {
    "train-planted": {"rows": 20_000, "iters": 10_000},
    "cv-mixed": {"rows": 10_000, "iters": 1_500, "folds": 5},
    "predict-heldout": {"train_rows": 20_000, "train_iters": 4_000, "rows": 20_000},
}
SMOKE_SIZES = {
    "train-planted": {"rows": 500, "iters": 300},
    "cv-mixed": {"rows": 800, "iters": 200, "folds": 5},
    "predict-heldout": {"train_rows": 800, "train_iters": 200, "rows": 3_000},
}

# Child processes see only one copy of the package: the checkout's (RUN) or
# the frozen baseline (BASE). Fixed hashing and single-threaded numeric
# libraries keep repeated runs comparable.
RUN, BASE = "run", "base"
_COMMON_ENV = {
    **os.environ,
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CHILD_ENV = {
    RUN: {**_COMMON_ENV, "PYTHONPATH": str(SRC)},
    BASE: {**_COMMON_ENV, "PYTHONPATH": str(BASELINE)},
}


@dataclass
class Op:
    """One CLI command of a workload and the check of its output."""

    name: str
    argv: list[str]
    check: Callable[[str], dict]
    out: Path | None = None  # removed before each run


@dataclass
class Workload:
    """Inputs, the checked commands of the package under test, and the same
    commands for the baseline (empty when no baseline is run)."""

    inputs: list[dict]
    ops: list[Op]
    base_ops: list[Op]
    fingerprint: dict = field(default_factory=dict)


@dataclass
class Tally:
    """Operations attempted and failed, plus what the checks returned."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    results: dict[str, dict] = field(default_factory=dict)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)

    def record(self, op: Op, code: int, output: str) -> None:
        self.attempted += 1
        if code != 0:
            self.fail(f"{op.name}: exit {code}: {output.strip()[-400:]}")
            return
        try:
            result = op.check(output)
        except Exception as exc:  # any broken output is a failed operation
            self.fail(f"{op.name}: {type(exc).__name__}: {exc}")
            return
        seen = self.results.setdefault(op.name, result)
        if seen != result:
            self.fail(f"{op.name}: output differs between repeats of one seed")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _seed_for(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _write_table(work: Path, stem: str, table) -> tuple[Path, Path, list[dict]]:
    header, cells, preds = table
    data, pred_file = work / f"{stem}.csv", work / f"{stem}_preds.txt"
    gen.write_csv(data, header, cells)
    gen.write_preds(pred_file, preds)
    n = len(preds)
    described = [gen.describe(data, n, len(header)), gen.describe(pred_file, n, 1)]
    return data, pred_file, described


def _train_argv(data: Path, label: str, preds: Path, iters: int, out: Path) -> list[str]:
    return [
        "train", "--data", str(data), "--label-column", label, "--preds", str(preds),
        "--alpha", ALPHA, "--iters", str(iters), "--seed", "0", "--out", str(out),
    ]


def _pair(work: Path, baseline: bool, ops: Callable[[str, Path], list[Op]]):
    """The commands of the package under test and, if ``baseline``, the same
    commands for the baseline, each side writing to its own directory."""
    sides = [RUN, BASE] if baseline else [RUN]
    for side in sides:
        (work / side).mkdir()
    built = [ops(side, work / side) for side in sides]
    return built[0], built[1] if baseline else []


def train_planted(work: Path, seed: int, size: dict, launch, baseline: bool) -> Workload:
    """``crl train`` on a planted-rule table: short lists, propose-heavy loop."""
    table = gen.planted_table(size["rows"], _seed_for(seed, 1))
    data, preds, inputs = _write_table(work, "planted", table)

    def ops(side: str, side_dir: Path) -> list[Op]:
        out = side_dir / "train"
        argv = _train_argv(data, "label", preds, size["iters"], out)
        return [Op("train", argv, lambda _: checks.check_train(out, size["iters"]), out)]

    return Workload(inputs, *_pair(work, baseline, ops))


def cv_mixed(work: Path, seed: int, size: dict, launch, baseline: bool) -> Workload:
    """``crl cv`` on an Adult-shaped mixed table: long lists, sweep-heavy loop."""
    table = gen.mixed_table(size["rows"], _seed_for(seed, 2))
    data, preds, inputs = _write_table(work, "mixed", table)

    def ops(side: str, side_dir: Path) -> list[Op]:
        out = side_dir / "cv"
        argv = [
            "cv", "--data", str(data), "--label-column", "income", "--preds", str(preds),
            "--folds", str(size["folds"]), "--alpha", ALPHA, "--iters", str(size["iters"]),
            "--max-card", "1", "--seed", "0", "--out", str(out),
        ]
        return [Op("cv", argv, lambda _: checks.check_cv(out, size["folds"]), out)]

    return Workload(inputs, *_pair(work, baseline, ops))


def predict_heldout(work: Path, seed: int, size: dict, launch, baseline: bool) -> Workload:
    """``crl evaluate`` then ``crl predict --transparency`` on a large held-out
    table, with a model that an untimed ``crl train`` of the same side fits
    during set-up."""
    train_table = gen.mixed_table(size["train_rows"], _seed_for(seed, 3))
    held_table = gen.mixed_table(size["rows"], _seed_for(seed, 4))
    tr_data, tr_preds, inputs = _write_table(work, "train", train_table)
    data, preds, held_inputs = _write_table(work, "heldout", held_table)
    inputs += held_inputs
    blackbox = held_table[2].tolist()
    fingerprint = {}

    def ops(side: str, side_dir: Path) -> list[Op]:
        fit = side_dir / "fit"
        argv = _train_argv(tr_data, "income", tr_preds, size["train_iters"], fit)
        code, _, _, output = launch(argv, side)
        if code != 0:
            raise RuntimeError(f"{side} set-up train failed with exit {code}: {output.strip()[-400:]}")
        model, manifest = fit / "model.json", fit / "manifest.json"
        doc = checks.read_model(model)
        outputs = [r["output"] for r in doc["rules"]]
        # Half the training coverage sits safely below the held-out coverage.
        t = 0.5 * doc["rules"][-1]["stats"]["transparency"]
        if side == RUN:
            fingerprint.update(models=[checks.sha256(model)], transparency=t.hex())
        common = [
            "--data", str(data), "--label-column", "income", "--preds", str(preds),
            "--model", str(model), "--manifest", str(manifest),
        ]
        curve_out, pred_out = side_dir / "eval_curve.csv", side_dir / "predictions.csv"
        return [
            Op(
                "evaluate",
                ["evaluate", *common, "--curve-out", str(curve_out)],
                lambda stdout: checks.check_evaluate(stdout, curve_out),
                curve_out,
            ),
            Op(
                "predict",
                ["predict", *common, "--transparency", repr(t), "--seed", "0", "--out", str(pred_out)],
                lambda _: checks.check_predict(pred_out, blackbox, outputs, t),
                pred_out,
            ),
        ]

    return Workload(inputs, *_pair(work, baseline, ops), fingerprint)


PREPARE = {"train-planted": train_planted, "cv-mixed": cv_mixed, "predict-heldout": predict_heldout}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


def _clear(path: Path | None) -> None:
    if path is None:
        return
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def run_process(argv: list[str], log: Path, side: str = RUN) -> tuple[int, float, float, str]:
    """Run ``crl`` of one side in a fresh process: (exit code, wall s, peak
    RSS MB, output)."""
    with log.open("w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "crl", *argv],
            cwd=ROOT, env=CHILD_ENV[side], stdout=fh, stderr=subprocess.STDOUT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, log.read_text()


def import_checkout_crl() -> None:
    """Import ``crl`` for in-process runs, from this checkout and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crl

    if Path(crl.__file__).resolve().parent != SRC / "crl":
        raise RuntimeError(f"crl imported from {crl.__file__}, not from {SRC}")


def run_inprocess(argv: list[str]) -> tuple[int, float, str]:
    """Call ``crl.cli.main`` here: (exit code, wall s, captured output)."""
    import crl.cli

    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = crl.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is one failed operation, not a failed benchmark
        code = 1
        buf.write(traceback.format_exc())
    return code, time.perf_counter() - start, buf.getvalue()


def repeat(seconds: float, body: Callable[[], None]) -> None:
    """Call ``body`` once, then again while one more call still fits in
    ``seconds``, so a run measures for about ``seconds`` and no longer."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        body()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def _check_help(output: str) -> dict:
    checks.require("usage: crl" in output, "--help printed no usage")
    return {}


HELP = Op("help", ["--help"], _check_help)


def measure_processes(wl: Workload, work: Path, seconds: float, tally: Tally):
    """Repeat the sequence in fresh processes on both sides, with ``crl
    --help`` start-ups spread between the repeats; returns repeat walls of
    both sides, start-up walls and the peak RSS of the package under test."""
    walls, base_walls, setup, peaks = [], [], [], [0.0]

    def start_up() -> None:
        code, wall, _, output = run_process(HELP.argv, work / "help.log")
        tally.record(HELP, code, output)
        setup.append(wall)

    def under_test(op: Op) -> float:
        _clear(op.out)
        code, wall, rss, output = run_process(op.argv, work / f"{op.name}.log")
        tally.record(op, code, output)
        peaks.append(rss)
        return wall

    def baseline(op: Op) -> float:
        # The baseline is frozen, so a failure here is the benchmark's own.
        _clear(op.out)
        code, wall, _, output = run_process(op.argv, work / f"base-{op.name}.log", BASE)
        if code != 0:
            raise RuntimeError(f"baseline {op.name} failed with exit {code}: {output.strip()[-400:]}")
        return wall

    def pair() -> tuple[float, float]:
        """One repeat on both sides. Each command runs on the two sides back
        to back, so both see the host in nearly the same state; which side
        goes first alternates."""
        total = base_total = 0.0
        for i, (op, base_op) in enumerate(zip(wl.ops, wl.base_ops)):
            if (len(walls) + i) % 2 == 0:
                total += under_test(op)
                base_total += baseline(base_op)
            else:
                base_total += baseline(base_op)
                total += under_test(op)
        return total, base_total

    def once() -> None:
        for _ in range(HELP_PER_REPEAT):
            start_up()
        total, base_total = pair()
        walls.append(total)
        base_walls.append(base_total)

    # One untimed pair first, so byte-code and page caches are warm.
    pair()
    repeat(seconds, once)
    while len(setup) < MIN_HELP_RUNS:
        start_up()
    return walls, base_walls, setup, max(peaks)


def measure_traced(wl: Workload, seconds: float, tally: Tally):
    """Alternate untraced and traced in-process repeats of the sequence."""
    plain, traced, layers, tracers = [], [], [], []

    def once() -> None:
        rep = len(traced)
        tracer = tracing.Tracer()
        for with_trace in ((False, True) if rep % 2 == 0 else (True, False)):
            total = 0.0
            if with_trace:
                tracer.install()
            try:
                for op in wl.ops:
                    _clear(op.out)
                    tracer.run_id = f"rep{rep}/{op.name}"
                    code, wall, output = run_inprocess(op.argv)
                    tally.record(op, code, output)
                    total += wall
            finally:
                tracer.uninstall()
            (traced if with_trace else plain).append(total)
        layers.append(tracing.layer_metrics(tracer.spans, tracer.counts))
        tracers.append(tracer)

    repeat(seconds, once)
    return plain, traced, layers, tracers


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict) -> dict:
    """Generate, set up, measure and check one workload; returns the record."""
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    _clear(work)
    work.mkdir()
    tally = Tally()
    try:
        def launch(argv, side):
            return run_process(argv, work / "setup.log", side)

        wl = PREPARE[name](work, seed, sizes[name], launch, baseline=not trace)
        if trace:
            import_checkout_crl()
            plain, traced, layers, tracers = measure_traced(wl, seconds, tally)
            metrics = {
                key: _metric(statistics.median(rep[key] for rep in layers), unit)
                for key, unit in tracing.LAYER_UNITS.items()
                if key != "trace.overhead_frac"
            }
            base = statistics.median(plain)
            metrics["trace.overhead_frac"] = _metric(
                (statistics.median(traced) - base) / base, "ratio"
            )
            samples = {"traced": traced, "untraced": plain}
            spans = OUT / "spans"
            spans.mkdir(exist_ok=True)
            tracing.write_spans(spans / f"{name}.csv", tracers)
        else:
            walls, base_walls, setup, peak = measure_processes(wl, work, seconds, tally)
            autac = next((r["autac"] for r in tally.results.values() if "autac" in r), 0.0)
            ratios = [w / b for w, b in zip(walls, base_walls)]
            metrics = {
                "wall_rel": _metric(statistics.median(ratios), "ratio"),
                "setup_s": _metric(statistics.median(setup), "s"),
                "peak_rss_mb": _metric(peak, "MB"),
                "autac": _metric(autac, "ratio"),
            }
            samples = {
                "wall_rel": ratios, "wall_s": walls, "baseline_wall_s": base_walls, "setup_s": setup,
            }
    finally:
        _clear(work)

    fingerprint = dict(wl.fingerprint)
    for op_name in sorted(tally.results):
        for key, values in tally.results[op_name].items():
            if key != "autac":
                fingerprint.setdefault(key, []).extend(values)
    fingerprint["digest"] = hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True).encode()
    ).hexdigest()
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "sizes": sizes[name],
        "samples": samples,
        "ops_failed_frac": tally.failed_frac,
        "errors": tally.errors,
        "fingerprint": fingerprint,
        "inputs": wl.inputs,
        "env": environment(),
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        },
    }


def print_table(records: list[dict]) -> None:
    for rec in records:
        res = rec["result"]
        print(
            f"{rec['workload']} seed={rec['seed']} trace={rec['trace']}: "
            f"{res['attempted']} operations, {res['failed']} failed, "
            f"ops_failed_frac={rec['ops_failed_frac']:.4g}, "
            f"samples={ {k: len(v) for k, v in rec['samples'].items()} }"
        )
        for key, m in res["metrics"].items():
            print(f"  {key:<32} {m['value']:>14.6g} {m['unit']}")
        for key in ("wall_s", "baseline_wall_s"):
            if rec["samples"].get(key):
                raw = statistics.median(rec["samples"][key])
                print(f"  {key + ' (unpaired median)':<32} {raw:>14.6g} s")
        for err in rec["errors"]:
            print(f"  error: {err}")


def save(rec: dict) -> None:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json"
    path.write_text(json.dumps(rec, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------


def smoke() -> bool:
    """Tiny inputs: every metric appears for every workload, and a corrupted
    output is counted as a failed operation."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            rec = run_workload(name, 0, 0.0, trace, SMOKE_SIZES)
            print_table([rec])
            metrics = rec["result"]["metrics"]
            for m in spec[section]:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    print(f"smoke: {name} trace={int(trace)} lacks {m['name']} [{m['unit']}]")
                    ok = False
            if not rec["result"]["correct"]:
                print(f"smoke: {name} trace={int(trace)} failed: {rec['errors']}")
                ok = False
    ok &= corrupted_output_is_counted()
    return ok


def corrupted_output_is_counted() -> bool:
    work = OUT / f"work-corrupt-{os.getpid()}"
    _clear(work)
    work.mkdir(parents=True)
    try:
        wl = predict_heldout(
            work, 0, SMOKE_SIZES["predict-heldout"],
            lambda argv, side: run_process(argv, work / "setup.log", side), baseline=False,
        )
        tally = Tally()
        for op in wl.ops:
            code, _, _, output = run_process(op.argv, work / f"{op.name}.log")
            tally.record(op, code, output)
        pred_op = wl.ops[-1]
        lines = pred_op.out.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.endswith(",blackbox"))
        row, pred, prov = lines[i].split(",")
        lines[i] = f"{row},{1 - int(pred)},{prov}"
        pred_op.out.write_text("\n".join(lines) + "\n")
        tally.record(pred_op, 0, "")
    finally:
        _clear(work)
    counted = tally.attempted == 3 and tally.failed == 1 and "black-box" in tally.errors[0]
    print(f"smoke: flipped black-box row counted as failed: {counted} "
          f"(ops_failed_frac={tally.failed_frac:.4g})")
    return counted


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny-input self-test")
    args = p.parse_args(argv)

    if not (SRC / "crl" / "__init__.py").is_file():
        print(f"perfbench: no crl package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        ok = smoke()
        print("smoke: ok" if ok else "smoke: FAILED")
        return 0 if ok else 1

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace), FULL_SIZES)
        save(rec)
        records.append(rec)
    print_table(records)
    if len(records) == 1:
        rec = records[0]
        print(json.dumps({k: v for k, v in rec.items() if k != "result"}))
        print(json.dumps(rec["result"]))
        return 0
    print(json.dumps({
        "correct": all(r["result"]["correct"] for r in records),
        "attempted": sum(r["result"]["attempted"] for r in records),
        "failed": sum(r["result"]["failed"] for r in records),
        "metrics": {
            f"{r['workload']}.{k}": m
            for r in records for k, m in r["result"]["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
