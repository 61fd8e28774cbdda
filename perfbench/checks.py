"""Output checks for the benchmark's CLI runs.

Every check recomputes what it verifies with its own arithmetic rather than
calling into ``crl``, so a defect in the package cannot vouch for itself. A
failed check raises :class:`CheckError`; the caller counts it as a failed
operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

# Curve areas are recomputed from the repr-precision CSV in the package's
# left-to-right order, so they agree to the last bit; the tolerance only
# absorbs a summation-order change, never a wrong curve.
AREA_TOL = 1e-12


class CheckError(Exception):
    """An output of a CLI run is missing or wrong."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def trapezoid(points) -> float:
    s = 0.0
    for (t0, a0), (t1, a1) in zip(points, points[1:]):
        s += (a1 + a0) * (t1 - t0)
    return 0.5 * s


def read_curve(path: Path) -> list[tuple[float, float]]:
    require(path.is_file(), f"{path.name} missing")
    with path.open(newline="") as fh:
        points = [(float(r["transparency"]), float(r["accuracy"])) for r in csv.DictReader(fh)]
    require(len(points) >= 1 and points[0][0] == 0.0, f"{path.name}: no black-box point")
    return points


def read_model(path: Path) -> dict:
    require(path.is_file(), f"{path.name} missing")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path}: not JSON: {exc}") from None
    require(isinstance(doc, dict) and isinstance(doc.get("rules"), list), f"{path}: no rule list")
    for r in doc["rules"]:
        require(r.get("output") in (0, 1) and r.get("conditions"), f"{path}: malformed rule")
    return doc


def same_area(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=AREA_TOL)


def check_train(out: Path, iters: int) -> dict:
    """model.json's AUTAC equals the trapezoid sum over curve.csv."""
    doc = read_model(out / "model.json")
    points = read_curve(out / "curve.csv")
    require(len(points) == len(doc["rules"]) + 1, "curve and model disagree on levels")
    training = doc.get("training") or {}
    autac = training.get("autac")
    require(isinstance(autac, float), "model.json records no training AUTAC")
    require(same_area(autac, trapezoid(points)), "recorded AUTAC != trapezoid over curve.csv")
    with (out / "trace.csv").open() as fh:
        steps = sum(1 for _ in fh) - 1
    require(steps == iters, f"trace.csv has {steps} steps, expected {iters}")
    return {
        "autac": autac,
        "models": [sha256(out / "model.json")],
        "objectives": [float(training["objective"]).hex()],
    }


def check_cv(out: Path, folds: int) -> dict:
    """Report has every fold; its mean is the mean of the fold test AUTACs."""
    require((out / "report.json").is_file(), "report.json missing")
    report = json.loads((out / "report.json").read_text())
    rows = report.get("folds", [])
    require(len(rows) == folds, f"report has {len(rows)} folds, expected {folds}")
    tests = []
    models = []
    objectives = []
    for i, row in enumerate(rows):
        fold = out / f"fold_{i}"
        doc = read_model(fold / "model.json")
        require(len(doc["rules"]) == row["n_rules"], f"fold {i}: rule count mismatch")
        for key, name in (("train_autac", "curve_train.csv"), ("test_autac", "curve_test.csv")):
            require(
                same_area(row[key], trapezoid(read_curve(fold / name))),
                f"fold {i}: {key} != trapezoid over {name}",
            )
        tests.append(row["test_autac"])
        models.append(sha256(fold / "model.json"))
        objectives += [float(row["train_autac"]).hex(), float(row["test_autac"]).hex()]
    mean = sum(tests) / len(tests)
    require(same_area(report["autac_mean"], mean), "autac_mean != mean of fold test AUTACs")
    return {"autac": mean, "models": models, "objectives": objectives}


_AUTAC = re.compile(r"autac=([^ ]+)")


def check_evaluate(stdout: str, curve_path: Path) -> dict:
    """The AUTAC ``evaluate`` prints equals the trapezoid over its curve."""
    match = _AUTAC.search(stdout)
    require(match is not None, "evaluate printed no AUTAC")
    autac = float(match.group(1))
    require(same_area(autac, trapezoid(read_curve(curve_path))), "printed AUTAC != trapezoid")
    return {"autac": autac, "objectives": [autac.hex()]}


def check_predict(out: Path, blackbox: list[int], outputs: list[int], t: float) -> dict:
    """Per-row predictions: shape, provenance, black-box rows, and adoption.

    ``outputs[k]`` is the output of rule k+1. Rows a rule answered must carry
    that rule's output, rows the black-box answered its prediction, and the
    share of rule-answered rows must lie within five binomial standard
    deviations of the target transparency ``t``.
    """
    require(out.is_file(), f"{out.name} missing")
    n = len(blackbox)
    adopted = 0
    with out.open(newline="") as fh:
        reader = csv.reader(fh)
        require(next(reader, None) == ["row", "prediction", "provenance"], "bad header")
        i = -1
        for i, (row, pred, prov) in enumerate(reader):
            require(row == str(i) and i < n, f"row {i}: unexpected index {row!r}")
            if prov == "blackbox":
                require(pred == str(blackbox[i]), f"row {i}: differs from the black-box")
                continue
            k = int(prov) if prov.isdigit() else 0
            require(1 <= k <= len(outputs), f"row {i}: bad provenance {prov!r}")
            require(pred == str(outputs[k - 1]), f"row {i}: differs from rule {k}")
            adopted += 1
    require(i + 1 == n, f"{i + 1} prediction rows for {n} input rows")
    tol = 5.0 * math.sqrt(t * (1.0 - t) / n) + 1.0 / n
    require(abs(adopted / n - t) <= tol, f"rule share {adopted / n:.4f} far from t={t:.4f}")
    return {"predictions": [sha256(out)]}
