"""Seeded input generators, independent of the package under test.

Every table and prediction file the benchmark feeds to ``crl`` comes from
here, so a change to ``src/crl`` cannot change a workload's inputs. The
concept behind each table (planted rules, column shapes, label weights) is a
fixed constant; the seed only drives the row draws, which keeps the amount of
work a workload does nearly the same from seed to seed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# Planted-rule table: ten binary columns. The planted list is (x4 -> 1),
# (x1 -> 0); it covers 0.35 + 0.65 * 0.40 = 0.61 of rows. Single-condition
# rules leave the search no equivalent longer list to get stuck in, so the
# best list, and with it the cost of an iteration, is the same for every seed.
PLANTED_PROBS = (0.55, 0.40, 0.6, 0.5, 0.35, 0.65, 0.6, 0.45, 0.5, 0.7)
PLANTED_ELSEWHERE_POSITIVE = 0.75
PLANTED_BB_ACCURACY_ON = 0.75
PLANTED_BB_ACCURACY_OFF = 0.85

# Mixed table shaped like the UCI Adult data: (name, low, high, kind).
NUMERIC_COLUMNS = (
    ("age", 17, 90, "int"),
    ("fnlwgt", 12_000, 1_500_000, "int"),
    ("education_num", 1, 16, "int"),
    ("capital_gain", 0, 99_999, "gain"),
    ("capital_loss", 0, 4_356, "gain"),
    ("hours_per_week", 1, 99, "int"),
)
CATEGORICAL_LEVELS = (
    ("workclass", 8),
    ("education", 16),
    ("marital_status", 7),
    ("occupation", 14),
    ("relationship", 6),
    ("race", 5),
    ("sex", 2),
    ("native_country", 40),
)
MISSING_RATE = 0.01
MIXED_BB_ACCURACY_ON = 0.60
MIXED_REGION_PURITY = 0.95
MIXED_REGIONS = 14
MIXED_BB_ACCURACY_OFF = 0.88


def _streams(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


# (header, cell columns as string arrays, black-box predictions)
Table = tuple[list[str], list[np.ndarray], np.ndarray]


def planted_table(n_rows: int, seed: int) -> Table:
    """Planted-rule table with its black-box predictions."""
    feat, lab, bb = _streams(seed, 3)
    x = feat.random((n_rows, len(PLANTED_PROBS))) < np.array(PLANTED_PROBS)
    labels = (lab.random(n_rows) < PLANTED_ELSEWHERE_POSITIVE).astype(np.uint8)
    first = x[:, 4]
    second = ~first & x[:, 1]
    labels[first] = 1
    labels[second] = 0
    covered = first | second
    accuracy = np.where(covered, PLANTED_BB_ACCURACY_ON, PLANTED_BB_ACCURACY_OFF)
    preds = np.where(bb.random(n_rows) < accuracy, labels, 1 - labels).astype(np.uint8)
    header = [f"x{j}" for j in range(x.shape[1])] + ["label"]
    cells = [np.where(x[:, j], "1", "0") for j in range(x.shape[1])]
    cells.append(labels.astype(str))
    return header, cells, preds


# Fixed concept for the mixed table: a logistic score over the columns,
# overridden on planted regions whose labels are nearly pure and where the
# black-box is weak, so that rules can beat it there.
_CAT_WEIGHT_SEED = 20200208


def _category_probs() -> list[np.ndarray]:
    rng = np.random.default_rng(_CAT_WEIGHT_SEED)
    out = []
    for _, k in CATEGORICAL_LEVELS:
        w = 1.0 / np.arange(1, k + 1) ** 1.1
        out.append(rng.permutation(w / w.sum()))
    return out


def _category_effects() -> list[np.ndarray]:
    rng = np.random.default_rng(_CAT_WEIGHT_SEED + 1)
    return [rng.normal(0.0, 0.8, size=k) for _, k in CATEGORICAL_LEVELS]


def _planted_regions() -> list[tuple[int, int, int]]:
    """(categorical column, level, output) of each planted region, in order.

    Levels holding 3.5% to 7.5% of rows are taken column by column, with
    alternating outputs, up to MIXED_REGIONS of them.
    """
    regions = []
    for col, probs in enumerate(_category_probs()):
        for level in np.flatnonzero((probs >= 0.035) & (probs <= 0.075)).tolist():
            regions.append((col, level, len(regions) % 2))
    return regions[:MIXED_REGIONS]


def mixed_table(n_rows: int, seed: int) -> Table:
    """Adult-like table with its black-box predictions.

    Six numeric columns carry about 1% empty cells; eight categorical columns
    have 2 to 40 levels; the label column holds ``yes``/``no``.
    """
    num, cat, miss, lab, bb = _streams(seed, 5)
    numeric = {}
    for name, lo, hi, kind in NUMERIC_COLUMNS:
        if kind == "gain":
            nonzero = num.random(n_rows) < 0.08
            vals = np.where(nonzero, num.integers(lo + 1, hi + 1, n_rows), 0)
        else:
            u = num.beta(2.0, 3.0, n_rows)
            vals = np.rint(lo + u * (hi - lo)).astype(np.int64)
        numeric[name] = vals
    codes = [
        cat.choice(k, size=n_rows, p=p)
        for (_, k), p in zip(CATEGORICAL_LEVELS, _category_probs())
    ]

    effects = _category_effects()
    z = 0.6 + sum(e[c] for e, c in zip(effects, codes))
    z = z + 0.04 * (numeric["age"] - 40) + 0.25 * (numeric["education_num"] - 10)
    z = z + 0.03 * (numeric["hours_per_week"] - 40) + 1.5 * (numeric["capital_gain"] > 0)
    labels = (lab.random(n_rows) < 1.0 / (1.0 + np.exp(-z))).astype(np.uint8)

    # The planted regions relabel the rows they cover, first match wins.
    covered = np.zeros(n_rows, dtype=bool)
    pure = lab.random(n_rows) < MIXED_REGION_PURITY
    for col, level, output in _planted_regions():
        hit = ~covered & (codes[col] == level)
        labels[hit] = np.where(pure[hit], output, 1 - output)
        covered |= hit
    accuracy = np.where(covered, MIXED_BB_ACCURACY_ON, MIXED_BB_ACCURACY_OFF)
    preds = np.where(bb.random(n_rows) < accuracy, labels, 1 - labels).astype(np.uint8)

    header = [c[0] for c in NUMERIC_COLUMNS] + [c[0] for c in CATEGORICAL_LEVELS]
    cells = []
    for name, *_ in NUMERIC_COLUMNS:
        col = numeric[name].astype(str)
        col[miss.random(n_rows) < MISSING_RATE] = ""
        cells.append(col)
    for (name, _), c in zip(CATEGORICAL_LEVELS, codes):
        cells.append(np.char.add(f"{name[:3]}_", c.astype(str)))
    header.append("income")
    cells.append(np.where(labels == 1, "yes", "no"))
    return header, cells, preds


def write_csv(path: Path, header: list[str], cells: list[np.ndarray]) -> None:
    rows = zip(*(c.tolist() for c in cells))
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(r) + "\n" for r in rows)


def write_preds(path: Path, preds: np.ndarray) -> None:
    path.write_text("".join("1\n" if p else "0\n" for p in preds.tolist()))


def describe(path: Path, rows: int, columns: int) -> dict:
    """Shape, size and content hash of one generated input file."""
    data = path.read_bytes()
    return {
        "file": path.name,
        "rows": rows,
        "columns": columns,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }
