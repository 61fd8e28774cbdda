"""Independent brute-force reference implementations used as test oracles.

Everything here works row by row on plain numpy arrays and python loops, with
no shared code path through the package's bitset sweeps, so agreement is
meaningful.
"""

from __future__ import annotations

import csv
import math
from array import array
from itertools import combinations

import numpy as np


def as_array(values) -> np.ndarray:
    """A package row vector (bytes, one value a row) or matrix (a tuple of
    rows) as a numpy array; any other sequence through ``np.asarray``."""
    if isinstance(values, bytes):
        return np.frombuffer(values, dtype=np.uint8)
    return np.asarray(values)


def simulate_first_match(rule_specs, matrix) -> np.ndarray:
    """Per-row index of the first rule whose conditions all hold, else -1.

    ``rule_specs`` is a sequence of (condition_indices, output) pairs.
    """
    matrix = np.asarray(matrix, dtype=bool)
    n = matrix.shape[0]
    out = np.full(n, -1, dtype=int)
    for i in range(n):
        for k, (conds, _z) in enumerate(rule_specs):
            if all(matrix[i, c] for c in conds):
                out[i] = k
                break
    return out


def simulate_curve(rule_specs, matrix, labels, bb_preds):
    """All curve quantities by direct per-row simulation.

    Returns (covered_counts, rule_correct_counts, bb_rest_counts, points),
    each indexed by level m = 0..M.
    """
    matrix = np.asarray(matrix, dtype=bool)
    n = matrix.shape[0]
    match = simulate_first_match(rule_specs, matrix)
    m_levels = len(rule_specs)
    covered_counts = []
    rule_corrects = []
    bb_rests = []
    points = []
    for m in range(m_levels + 1):
        covered = 0
        rule_correct = 0
        bb_rest = 0
        for i in range(n):
            j = match[i]
            if j != -1 and j < m:
                covered += 1
                if rule_specs[j][1] == labels[i]:
                    rule_correct += 1
            else:
                if bb_preds[i] == labels[i]:
                    bb_rest += 1
        covered_counts.append(covered)
        rule_corrects.append(rule_correct)
        bb_rests.append(bb_rest)
        points.append((covered / n, (rule_correct + bb_rest) / n))
    return covered_counts, rule_corrects, bb_rests, points


def simulate_autac(points) -> float:
    s = 0.0
    for (t0, a0), (t1, a1) in zip(points, points[1:]):
        s += (a1 + a0) * (t1 - t0)
    return 0.5 * s


def read_curve_csv(path):
    """A ``curve.csv`` file's (transparency, accuracy) points and exclusive supports."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    points = tuple((float(r["transparency"]), float(r["accuracy"])) for r in rows)
    return points, tuple(int(r["exclusive_support"]) for r in rows)


def brute_force_pool(matrix, labels, gamma: float, max_cardinality: int):
    """Exhaustive class-conditional frequent itemsets of size <= max_cardinality.

    Returns {(conditions, output): support} with support = in-class fraction,
    compared with >= gamma exactly as the miner does.
    """
    matrix = np.asarray(matrix, dtype=bool)
    labels = as_array(labels)
    d = matrix.shape[1]
    out = {}
    for z in (0, 1):
        rows = matrix[labels == z]
        size = len(rows)
        if size == 0:
            continue
        for k in range(1, max_cardinality + 1):
            for conds in combinations(range(d), k):
                count = int(np.all(rows[:, conds], axis=1).sum())
                if count / size >= gamma:
                    out[(tuple(conds), z)] = count / size
    return out


def exhaustive_best_autac(pool_rules, matrix, labels, bb_preds, max_len=3):
    """Max curve area over all ordered lists of length <= max_len from the pool.

    ``pool_rules`` is a sequence of (condition_indices, output) pairs. Scoring
    reuses prefix sums so the triple loop stays fast, but it is local to this
    module and never touches the package's scorer. ``max_len`` is 1, 2 or 3.
    """
    if max_len not in (1, 2, 3):
        raise ValueError(f"max_len must be 1, 2 or 3, not {max_len!r}")
    matrix = np.asarray(matrix, dtype=bool)
    labels = as_array(labels).astype(bool)
    bb_ok = as_array(bb_preds).astype(bool) == labels
    n = matrix.shape[0]
    covers = []
    hits = []
    for conds, z in pool_rules:
        cov = np.all(matrix[:, conds], axis=1)
        hit = cov & (labels if z == 1 else ~labels)
        covers.append(cov)
        hits.append(hit)
    bb_total = int(bb_ok.sum())
    j_all = range(len(pool_rules))
    best = 0.0
    a0 = bb_total / n
    for j1 in j_all:
        cov1 = covers[j1]
        c1 = int(cov1.sum())
        rc1 = int(hits[j1].sum())
        t1 = c1 / n
        a1 = (rc1 + int((bb_ok & ~cov1).sum())) / n
        s1 = (a1 + a0) * t1
        best = max(best, 0.5 * s1)
        if max_len < 2:
            continue
        for j2 in j_all:
            if j2 == j1:
                continue
            free2 = ~cov1
            c2 = c1 + int((covers[j2] & free2).sum())
            rc2 = rc1 + int((hits[j2] & free2).sum())
            m2 = cov1 | covers[j2]
            t2 = c2 / n
            a2 = (rc2 + int((bb_ok & ~m2).sum())) / n
            s2 = s1 + (a2 + a1) * (t2 - t1)
            best = max(best, 0.5 * s2)
            free3 = ~m2
            if max_len < 3:
                continue
            bb_free3 = bb_ok & free3
            for j3 in j_all:
                if j3 == j1 or j3 == j2:
                    continue
                c3 = c2 + int((covers[j3] & free3).sum())
                rc3 = rc2 + int((hits[j3] & free3).sum())
                t3 = c3 / n
                a3 = (rc3 + int((bb_free3 & ~covers[j3]).sum())) / n
                s3 = s2 + (a3 + a2) * (t3 - t2)
                if 0.5 * s3 > best:
                    best = 0.5 * s3
    return best


def random_instance(rng, max_rows=64, max_features=8, max_rules=3):
    """A random (matrix, labels, bb_preds, rule_specs) tuple for oracle tests."""
    n = int(rng.integers(4, max_rows + 1))
    d = int(rng.integers(2, max_features + 1))
    matrix = rng.random((n, d)) < rng.uniform(0.2, 0.8)
    labels = (rng.random(n) < 0.5).astype(np.uint8)
    bb = (rng.random(n) < 0.5).astype(np.uint8)
    m = int(rng.integers(0, max_rules + 1))
    specs = []
    seen = set()
    while len(specs) < m:
        card = int(rng.integers(1, min(2, d) + 1))
        conds = tuple(sorted(rng.choice(d, size=card, replace=False).tolist()))
        z = int(rng.integers(0, 2))
        if (conds, z) in seen:
            continue
        seen.add((conds, z))
        specs.append((conds, z))
    return matrix, labels, bb, specs


def _is_numeric(values) -> bool:
    cells = [v for v in values if v != ""]
    try:
        for v in cells:
            float(v)
    except ValueError:
        return False
    return bool(cells)


def reference_edges(values, quantiles: int):
    """The distinct (k/quantiles)-quantiles of a numeric column, in ascending
    order; None for a categorical column (blank cells are ignored)."""
    if not _is_numeric(values):
        return None
    floats = [float(v) for v in values if v != ""]
    edges = []
    for e in np.quantile(floats, [k / quantiles for k in range(1, quantiles)]):
        if not edges or e > edges[-1]:
            edges.append(float(e))
    return edges


def _reference_labels(values, edges):
    """Each cell's label: ``bin{k}`` with k the number of edges strictly below
    it (numeric), the cell itself (categorical), ``<missing>`` when blank."""
    if edges is None:
        return [v if v != "" else "<missing>" for v in values]
    return ["<missing>" if v == "" else f"bin{sum(e < float(v) for e in edges)}" for v in values]


def reference_apply(fit_columns, columns, quantiles: int):
    """One-hot matrix and feature names of ``columns`` by per-row labelling,
    under the kinds, edges and categories fitted on ``fit_columns``.

    Both are sequences of (name, values) with string cells, in the same column
    order; cells of ``columns`` are stripped first. A column is numeric when
    it has a non-blank cell and every non-blank cell parses as a float. The
    categories are the labels the fit cells take: numeric ones ordered by k
    with ``<missing>`` last, categorical ones by plain string sort. A cell
    whose label is not among them sets no bit.
    """
    names = []
    bit_columns = []
    for (name, fit_values), (_, values) in zip(fit_columns, columns):
        edges = reference_edges(fit_values, quantiles)
        seen = set(_reference_labels(fit_values, edges))
        if edges is None:
            order = sorted(seen)
        else:
            order = sorted((c for c in seen if c != "<missing>"), key=lambda c: int(c[3:]))
            if "<missing>" in seen:
                order.append("<missing>")
        labels = _reference_labels([v.strip() for v in values], edges)
        for cat in order:
            names.append(f"{name}={cat}")
            bit_columns.append([label == cat for label in labels])
    return np.array(bit_columns, dtype=bool).T, names


def reference_binarize(columns, quantiles: int):
    """One-hot matrix and feature names of ``columns`` fitted on themselves;
    see :func:`reference_apply`."""
    return reference_apply(columns, columns, quantiles)


def decode(column) -> tuple[str, ...]:
    """The cells of a column as the package's reader encodes it, one per row."""
    values, index = column
    return tuple(values[k] for k in index)


def decoded(read):
    """The header and decoded cell columns of what the package's reader returns."""
    header, columns = read
    return header, list(map(decode, columns))


def raw_columns(table) -> list[tuple[str, tuple[str, ...]]]:
    """Each (name, cells) pair of a ``RawTable``, its columns decoded."""
    return [(name, decode(column)) for name, column in table.columns.items()]


def encode(cells):
    """``cells`` as the package's reader encodes a column: the distinct
    stripped cells, first seen first, and an array of each row's index."""
    stripped = [c.strip() for c in cells]
    values = list(dict.fromkeys(stripped))
    return tuple(values), array("I", [values.index(c) for c in stripped])


def reference_read(path, delimiter: str = ","):
    """The header and cell columns of a UTF-8 delimited file: ``csv.reader``,
    then ``str.strip`` on every cell; blank records are skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh, delimiter=delimiter) if row]
    header = [h.strip() for h in rows[0]]
    return header, [[row[j].strip() for row in rows[1:]] for j in range(len(header))]


def reference_labels(path, cells, label: str, positive_value=None):
    """Each row's 0/1 label and the positive value, or the message of the
    DataError ``load_table`` raises for the label ``cells``."""
    if not cells:
        return f"{path}: no data rows"
    blank = sum(c == "" for c in cells)
    if blank:
        return f"{path}: label column {label!r} has {blank} blank cell(s)"
    distinct = sorted(set(cells))
    if positive_value is None:
        if set(distinct) <= {"0", "1"}:
            positive_value = "1"
        elif len(distinct) == 2:
            positive_value = distinct[-1]
        else:
            return (
                f"non-binary label: column {label!r} has {len(distinct)} distinct "
                "values; declare the positive class explicitly"
            )
    elif len(distinct) > 1 and positive_value not in distinct:
        return f"label column {label!r} never takes the positive value {positive_value!r}"
    return [int(c == positive_value) for c in cells], positive_value


def reference_numeric_error(name, cells):
    """The message of the DataError a column read as numeric raises, cell by
    cell in row order: the first non-blank cell that is not a number, else the
    first non-finite one; None when every non-blank cell is a finite number."""
    for c in cells:
        if c:
            try:
                float(c)
            except ValueError as exc:
                return f"numeric column {name!r}: {exc}"
    for c in cells:
        if c and not math.isfinite(float(c)):
            return f"numeric column {name!r}: non-finite value {c!r}"
    return None


def reference_fit_error(columns):
    """The message of the DataError binarizing ``columns``, (name, cells)
    pairs, raises: the first numeric column's non-finite cell; else None."""
    for name, cells in columns:
        if _is_numeric(cells):
            message = reference_numeric_error(name, cells)
            if message is not None:
                return message
    return None
