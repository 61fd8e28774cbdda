"""Tabular loading, binarization, black-box predictions, and fold splitting.

The pipeline is: delimited text file -> :class:`RawTable` (string columns plus a
0/1 label vector) -> :class:`BinaryDataset` (one bit column per
(source column, category) pair). Numeric columns are first discretized into
quantile bins; categorical columns (and the bins) are one-hot encoded. The
exact encoding is captured in a :class:`BinarizationManifest` so held-out data
can be transformed with the edges learned on training data.

Black-box classifiers never enter this package as models; they are consumed as
row-aligned 0/1 prediction vectors (:class:`PredictionVector`), either read
from a file or synthesized by :func:`synth_oracle` for experiments.

Each file format has one reader and one writer here: every delimited text
file (a table, or a prediction file read by column) is read by
:func:`_read_rows`, which returns it as columns of stripped cells, so that
labels, categories and numbers are mapped a column at a time. A file with
no quote (and no NUL) is split on its line ends and delimiter a block at a
time, and any other goes through ``csv.reader``, which quoted fields need;
both give the same columns and the same errors. Every CSV
artifact is written by :func:`write_rows`, and every JSON file goes through
:func:`read_json` and :func:`write_json`, which refuse NaN and infinite
numbers; :func:`json_int` and :func:`json_number` say what a JSON integer or
number is. Child seeds of one seed come from :func:`child_seeds`.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, repeat
from operator import eq, itemgetter
from pathlib import Path

import numpy as np

from .errors import DataError

MISSING_CATEGORY = "<missing>"

_KIND_NUMERIC = "numeric"
_KIND_CATEGORICAL = "categorical"
MANIFEST_VERSION = 1


def pack_bool(column: np.ndarray) -> int:
    """Pack a boolean row vector into an int bitset (bit i = row i)."""
    packed = np.packbits(np.asarray(column, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def unpack_bool(bits: int, n_rows: int) -> np.ndarray:
    """Inverse of :func:`pack_bool` for the first ``n_rows`` bits."""
    n_bytes = max(1, (n_rows + 7) // 8)
    raw = np.frombuffer(bits.to_bytes(n_bytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n_rows].astype(bool)


@dataclass(frozen=True, eq=False)
class RawTable:
    """A parsed table: feature columns plus an already-binarized label vector.

    ``columns`` maps each feature column's name to its raw string cells, in
    file order. A column's kind (numeric or categorical) is decided when a
    manifest is fitted to it, see :meth:`ManifestColumn.fit`.
    """

    columns: dict[str, tuple[str, ...]]
    label_column: str
    labels: np.ndarray  # uint8 in {0, 1}
    positive_value: str

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    def column(self, name: str) -> tuple[str, ...]:
        try:
            return self.columns[name]
        except KeyError:
            raise DataError(f"no column named {name!r}") from None


@dataclass(frozen=True, eq=False)
class BinaryDataset:
    """An immutable N x d' binary feature matrix with labels.

    Features are stored column-major as int bitsets (bit i = row i), which is
    what makes cover computation and all downstream counting cheap; counts
    come from ``int.bit_count`` and so stay exact integers.
    """

    feature_bits: tuple[int, ...]
    feature_names: tuple[str, ...]
    labels: np.ndarray  # uint8 in {0, 1}
    n_rows: int

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise DataError("dataset must contain at least one row")
        if len(self.feature_bits) < 1:
            raise DataError("dataset must contain at least one binary feature")
        if len(self.feature_bits) != len(self.feature_names):
            raise DataError("feature_bits and feature_names lengths differ")
        repeated = _first_repeat(self.feature_names)
        if repeated is not None:
            raise DataError(f"two features are named {repeated!r}")
        if len(self.labels) != self.n_rows:
            raise DataError("label vector length does not match row count")
        if not np.isin(self.labels, (0, 1)).all():
            raise DataError("labels must be 0/1")

    @property
    def n_features(self) -> int:
        return len(self.feature_bits)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n_rows) - 1

    @cached_property
    def class_masks(self) -> tuple[int, int]:
        """The rows labelled 0 and the rows labelled 1, indexed by class."""
        positive = pack_bool(self.labels.astype(bool))
        return ~positive & self.full_mask, positive

    @cached_property
    def matrix(self) -> np.ndarray:
        cols = [unpack_bool(b, self.n_rows) for b in self.feature_bits]
        return np.column_stack(cols)

    @cached_property
    def name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.feature_names)}

    def subset(self, rows) -> "BinaryDataset":
        idx = np.asarray(rows, dtype=int)
        return BinaryDataset.from_bool_matrix(
            self.matrix[idx], self.labels[idx], self.feature_names
        )

    @classmethod
    def from_bool_matrix(cls, matrix, labels, feature_names) -> "BinaryDataset":
        mat = np.asarray(matrix, dtype=bool)
        if mat.ndim != 2:
            raise DataError("feature matrix must be two-dimensional")
        bits = tuple(pack_bool(mat[:, j]) for j in range(mat.shape[1]))
        return cls(
            feature_bits=bits,
            feature_names=tuple(feature_names),
            labels=np.asarray(labels, dtype=np.uint8),
            n_rows=mat.shape[0],
        )


@dataclass(frozen=True, eq=False)
class PredictionVector:
    """Row-aligned 0/1 predictions of a black-box classifier."""

    preds: np.ndarray  # uint8 in {0, 1}

    def __post_init__(self) -> None:
        if not np.isin(self.preds, (0, 1)).all():
            raise DataError("predictions must be 0/1")

    def __len__(self) -> int:
        return len(self.preds)

    def correct_mask(self, labels: np.ndarray) -> int:
        """Bitset of rows where the black-box prediction equals the label."""
        return pack_bool(np.equal(self.preds, labels))

    def subset(self, rows) -> "PredictionVector":
        idx = np.asarray(rows, dtype=int)
        return PredictionVector(self.preds[idx])


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


@contextmanager
def _decoding(path):
    """Report text in ``path`` that is not valid UTF-8 as a DataError naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8: {exc}") from None


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def json_int(v) -> bool:
    """Whether a JSON value is an integer: JSON ``true``/``false`` are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def json_number(v) -> bool:
    """Whether a JSON value is a number a float holds finitely: not ``true``, not ``1e400``."""
    try:
        return (json_int(v) or isinstance(v, float)) and math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def read_json(path, parse=None):
    """The value of a UTF-8 JSON file, or ``parse`` of it.

    Bad bytes, bad JSON, the non-standard ``NaN``/``Infinity`` tokens and a
    DataError raised by ``parse`` are each a DataError naming the file.
    """
    with _decoding(path):
        text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text, parse_constant=_refuse_constant)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return obj if parse is None else parse(obj)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_json(path, obj) -> None:
    """Write ``obj`` as indented JSON; a NaN or infinite float is a ValueError."""
    Path(path).write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")


def write_rows(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` as CSV, the mirror of :func:`_read_rows`.

    Comma-delimited, ``\\r\\n`` line ends, fields quoted only where needed.
    ``rows`` may be a generator; it is written as it is consumed.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _first_repeat(values):
    """The first of ``values`` equal to an earlier one; None when all differ."""
    seen = set()
    for v in values:
        if v in seen:
            return v
        seen.add(v)
    return None


# characters read at a time: the strings and lists made from a block of an
# ordinary table stay under malloc's 128 KiB mmap threshold. Freeing a larger
# one (a copy of the whole text, say) raises that threshold, and the
# process's later mid-size blocks then stay on its heap, raising peak RSS.
_BLOCK = 32768


def _read_rows(path: Path, delimiter: str) -> tuple[list[str], list[tuple[str, ...]]]:
    """The stripped header and cell columns of a UTF-8 delimited text file.

    Blank lines are skipped. An empty file, a repeated column name, a row
    whose field count differs from the header's and a cell longer than
    ``csv.field_size_limit()`` are each a :class:`DataError`; a line in a
    message counts records, blank ones included. Each column is a tuple of
    stripped cells in file order; a header with no data rows gives one empty
    tuple per column.

    Unless the delimiter is ``"``, ``\\r`` or ``\\n``, the text is first
    scanned a block at a time. When it holds no ``"`` (no field can be
    quoted) and no NUL (which ``csv.reader`` refuses before Python 3.11), it
    is read again with universal newlines and split with ``str.split``
    (:func:`_split_columns`): there each ``\\n``, ``\\r\\n`` or lone ``\\r``
    ends a record and each delimiter ends a field, as ``csv.reader`` reads
    it, at a fraction of its cost per cell. Any other text is read by
    ``csv.reader`` (:func:`_csv_columns`).
    """
    with _decoding(path), path.open(encoding="utf-8-sig") as fh:
        blocks = iter(partial(fh.read, _BLOCK), "")
        plain = len(delimiter) == 1 and delimiter not in '"\r\n'
        plain = plain and not any('"' in block or "\0" in block for block in blocks)
        fh.seek(0)  # this resets the decoder too, so a BOM is skipped again
        if plain:
            return _split_columns(path, fh, delimiter)
        fh.reconfigure(newline="")  # csv.reader finds line ends in quoted fields itself
        return _csv_columns(path, fh, delimiter)


def _header(path: Path, fields: list[str]) -> list[str]:
    """The stripped names of a header record; a repeated name is a DataError."""
    header = [h.strip() for h in fields]
    dup = _first_repeat(header)
    if dup is not None:
        raise DataError(f"{path}: duplicate column name {dup!r}")
    return header


def _ragged(path: Path, lineno: int, n_fields: int, width: int) -> DataError:
    return DataError(
        f"{path}: ragged row at line {lineno} ({n_fields} fields, expected {width})"
    )


def _too_long(path: Path, lineno: int) -> DataError:
    return DataError(
        f"{path}: cell longer than {csv.field_size_limit()} characters at line {lineno}"
    )


def _csv_columns(path: Path, lines, delimiter: str):
    """:func:`_read_rows` of a text read from ``lines`` by ``csv.reader``.

    ``lines`` is a text file opened with ``newline=""`` or any iterable of
    its lines, line ends kept.
    """
    reader = csv.reader(lines, delimiter=delimiter)
    lineno = 0  # the records read so far
    try:
        header = _header(path, next(reader))
        lineno, width, rows = 1, len(header), []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                if not row:
                    continue
                raise _ragged(path, lineno, len(row), width)
            rows.append(row)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    except csv.Error as exc:
        if str(exc).startswith("field larger than field limit"):
            raise _too_long(path, lineno + 1) from None
        raise DataError(f"{path}: unreadable line {lineno + 1}: {exc}") from None
    # one C-level pass over the rows per column: zip(*rows) would hold an
    # iterator per row and every unstripped column at once, a higher peak
    return header, [tuple(map(str.strip, map(itemgetter(j), rows))) for j in range(width)]


def _split_columns(path: Path, fh, delimiter: str):
    """:func:`_read_rows` of a text file with no ``"``, opened with universal newlines, by ``str.split``.

    Each ``\\n`` ends a record, an empty line is a blank record, and the
    fields of a line are its pieces between delimiters, as ``csv.reader``
    reads such text; errors are raised in the order it would meet them.
    """
    limit = csv.field_size_limit()
    header, lineno, tail = None, 0, ""  # lineno: the records before this block
    while True:
        block = fh.read(_BLOCK)
        *lines, tail = (tail + block).split("\n")
        if not block:  # the end of the text: what follows its last line end is a line too
            if header is None and not tail:
                raise DataError(f"{path}: empty file")
            lines.append(tail)
        too_long = math.inf  # the first record holding a field over the limit
        if lines and max(map(len, lines)) > limit:  # no field is longer than its line
            fields = (line.split(delimiter) for line in lines)
            too_long = next(
                (n for n, f in enumerate(fields, lineno + 1) if max(map(len, f)) > limit),
                too_long,
            )
        if header is None:
            if not lines:  # the first line goes on past this block
                continue
            if too_long == 1:
                raise _too_long(path, 1)
            header = _header(path, lines[0].split(delimiter) if lines[0] else [])
            width, columns = len(header), [[] for _ in header]  # a column's cells per block
            lines[0] = ""  # still counted as a record, and skipped as a blank one
        rows = list(filter(None, lines))
        if not set(map(str.count, rows, repeat(delimiter))) <= {width - 1}:
            n, line = next(
                (n, line)
                for n, line in enumerate(lines, lineno + 1)
                if line and line.count(delimiter) != width - 1
            )
            if n < too_long:
                raise _ragged(path, n, line.count(delimiter) + 1, width)
        if too_long < math.inf:
            raise _too_long(path, too_long)
        lineno += len(lines)
        if rows:
            joined = delimiter.join(rows)
            # str.strip takes nothing off ASCII cells with no whitespace in
            # them, so such a block's cells are kept as split
            bare = joined.isascii() and not any(map(joined.__contains__, " \t\v\f\x1c\x1d\x1e\x1f"))
            cells = joined.split(delimiter)  # row i's cell j is cells[i * width + j]
            for j, pieces in enumerate(columns):
                pieces.append(cells[j::width] if bare else list(map(str.strip, cells[j::width])))
        if not block:
            return header, [tuple(chain.from_iterable(pieces)) for pieces in columns]


def load_table(
    path,
    label: str,
    *,
    delimiter: str = ",",
    positive_value: str | None = None,
) -> RawTable:
    """Parse a delimited text file with a header row into a :class:`RawTable`.

    Feature cells stay strings; empty cells are missing values. The file is
    read by :func:`_read_rows`, so header names and cells are trimmed.

    The label column is binarized: with ``positive_value`` given, rows equal to
    it map to 1 and everything else to 0 (a column of two or more distinct
    values none of which is ``positive_value`` is a :class:`DataError`);
    without it the column must have exactly two distinct values (the
    lexicographically larger one is positive), or already be 0/1.
    """
    path = Path(path)
    header, columns = _read_rows(path, delimiter)
    if label not in header:
        raise DataError(f"{path}: missing label column {label!r}")
    by_name = dict(zip(header, columns))
    label_cells = by_name.pop(label)
    if not label_cells:
        raise DataError(f"{path}: no data rows")
    labels, positive = _map_labels(label_cells, label, positive_value)

    return RawTable(
        columns=by_name,
        label_column=label,
        labels=labels,
        positive_value=positive,
    )


def _map_labels(values, label, positive_value):
    distinct = sorted(set(values))
    if positive_value is None:
        if set(distinct) <= {"0", "1"}:
            positive_value = "1"
        elif len(distinct) == 2:
            positive_value = distinct[-1]
        else:
            raise DataError(
                f"non-binary label: column {label!r} has {len(distinct)} distinct "
                "values; declare the positive class explicitly"
            )
    elif len(distinct) > 1 and positive_value not in distinct:
        raise DataError(
            f"label column {label!r} never takes the positive value {positive_value!r}"
        )
    # operator.eq, unlike str.__eq__, compares a non-string positive value as unequal
    is_positive = map(eq, values, repeat(positive_value))
    return np.fromiter(is_positive, dtype=np.uint8, count=len(values)), positive_value


# ---------------------------------------------------------------------------
# Quantile binning and one-hot encoding
# ---------------------------------------------------------------------------


def quantile_edges(values, q: int = 7) -> list[float]:
    """Empirical (k/q)-quantiles for k = 1..q-1, with duplicate edges merged."""
    if q < 2:
        raise ValueError("q must be >= 2")
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ValueError("column must be nonempty")
    raw = np.quantile(vals, [k / q for k in range(1, q)])
    edges: list[float] = []
    for e in raw:
        e = float(e)
        if not edges or e > edges[-1]:
            edges.append(e)
    return edges


def _numeric_cells(name: str, values) -> tuple[np.ndarray, np.ndarray]:
    """Presence mask and float values of the non-blank cells of a column.

    A cell that is not a number raises ``ValueError``; a non-finite one
    (``nan``, ``inf``) is a :class:`DataError`.
    """
    present = np.fromiter(map(bool, values), dtype=bool, count=len(values))
    n_cells = int(np.count_nonzero(present))
    floats = np.fromiter(map(float, filter(None, values)), dtype=float, count=n_cells)
    finite = np.isfinite(floats)
    if not finite.all():
        bad = [v for v in values if v][int(np.argmin(finite))]
        raise DataError(f"numeric column {name!r}: non-finite value {bad!r}")
    return present, floats


@dataclass(frozen=True)
class ManifestColumn:
    name: str
    kind: str
    categories: tuple[str, ...]
    edges: tuple[float, ...] | None  # quantile edges for numeric columns

    def indices(self, values) -> np.ndarray:
        """Index into ``categories`` of each raw cell; -1 for a category unseen at fit.

        Numeric cells are labelled ``bin{k}`` with k the number of edges
        strictly below the value; blank cells are ``<missing>``.
        """
        if self.kind != _KIND_NUMERIC:
            pos = {c: j for j, c in enumerate(self.categories)}
            pos[""] = pos.get(MISSING_CATEGORY, -1)
            return np.fromiter(map(pos.get, values, repeat(-1)), dtype=np.intp, count=len(values))
        try:
            present, floats = _numeric_cells(self.name, values)
        except ValueError as exc:
            raise DataError(f"numeric column {self.name!r}: {exc}") from None
        edges = np.asarray(self.edges, dtype=float)
        return self._bin_indices(present, np.searchsorted(edges, floats, side="left"))

    def _bin_indices(self, present: np.ndarray, bins: np.ndarray) -> np.ndarray:
        """:meth:`indices` of a numeric column from the bin of each non-blank cell."""
        pos = {c: j for j, c in enumerate(self.categories)}
        bin_index = np.array([pos.get(f"bin{k}", -1) for k in range(len(self.edges) + 1)])
        idx = np.full(len(present), pos.get(MISSING_CATEGORY, -1), dtype=np.intp)
        idx[present] = bin_index[bins]
        return idx

    def feature_names(self) -> list[str]:
        return [f"{self.name}={cat}" for cat in self.categories]

    @classmethod
    def fit(cls, name: str, values, quantiles: int) -> tuple["ManifestColumn", np.ndarray]:
        """The kind, categories (and numeric edges) seen in ``values``, in feature order.

        A column is numeric when it has a non-blank cell and every non-blank
        cell parses as a float, categorical otherwise. Numeric columns list
        ``bin{k}`` by ascending k with ``<missing>`` last; categorical columns
        list their values sorted by code point, with blank cells as
        ``<missing>`` sorted in. Returns the fitted column and the
        :meth:`indices` of the cells, labelled from the same parse.
        """
        try:
            present, floats = _numeric_cells(name, values)
        except ValueError:
            floats = None
        if floats is None or not floats.size:
            cats = sorted({v or MISSING_CATEGORY for v in values})
            fitted = cls(name, _KIND_CATEGORICAL, tuple(cats), None)
            return fitted, fitted.indices(values)
        edges = tuple(quantile_edges(floats, quantiles))
        bins = np.searchsorted(edges, floats, side="left")
        cats = [f"bin{k}" for k in np.unique(bins)] + [MISSING_CATEGORY] * (not present.all())
        fitted = cls(name, _KIND_NUMERIC, tuple(cats), edges)
        return fitted, fitted._bin_indices(present, bins)


def _manifest_column(c: dict) -> ManifestColumn:
    """A stored manifest column; numeric edges must be as :func:`quantile_edges` writes them.

    The name and every category must be strings: cells are strings, so a
    category of any other type could never match one and would set no bit.
    """
    name, kind, categories = c["name"], c["kind"], c["categories"]
    if not isinstance(name, str):
        raise DataError(f"manifest column name {name!r} is not a string")
    if not isinstance(categories, list) or not all(isinstance(v, str) for v in categories):
        raise DataError(f"manifest column {name!r}: categories must be a list of strings")
    repeated = _first_repeat(categories)
    if repeated is not None:
        raise DataError(f"manifest column {name!r}: category {repeated!r} is listed twice")
    edges = tuple(c["edges"]) if c["edges"] is not None else None
    if kind not in (_KIND_NUMERIC, _KIND_CATEGORICAL):
        raise DataError(f"manifest column {name!r}: unknown kind {kind!r}")
    if kind == _KIND_NUMERIC and (
        edges is None
        or not all(map(json_number, edges))
        or any(b <= a for a, b in zip(edges, edges[1:]))
    ):
        raise DataError(
            f"manifest column {name!r}: numeric edges must be finite numbers, strictly ascending"
        )
    return ManifestColumn(name, kind, tuple(categories), edges)


@dataclass(frozen=True)
class BinarizationManifest:
    """Everything needed to repeat a binarization on new data."""

    columns: tuple[ManifestColumn, ...]
    label_column: str
    positive_value: str
    quantiles: int

    def to_obj(self) -> dict:
        return {
            "format": "crl-manifest",
            "version": MANIFEST_VERSION,
            "label_column": self.label_column,
            "positive_value": self.positive_value,
            "quantiles": self.quantiles,
            "columns": [
                {
                    "name": c.name,
                    "kind": c.kind,
                    "categories": list(c.categories),
                    "edges": list(c.edges) if c.edges is not None else None,
                }
                for c in self.columns
            ],
        }

    def save(self, path) -> None:
        write_json(path, self.to_obj())

    @classmethod
    def from_obj(cls, obj: dict) -> "BinarizationManifest":
        try:
            if obj["format"] != "crl-manifest":
                raise DataError(f"not a binarization manifest: {obj.get('format')!r}")
            version, quantiles = obj["version"], obj["quantiles"]
            if not json_int(version) or version != MANIFEST_VERSION:
                raise DataError(f"unknown manifest version {version!r}")
            if not json_int(quantiles) or quantiles < 2:
                raise DataError(f"manifest quantiles {quantiles!r} is not an integer >= 2")
            columns = tuple(_manifest_column(c) for c in obj["columns"])
            repeated = _first_repeat(c.name for c in columns)
            if repeated is not None:
                raise DataError(f"manifest column {repeated!r} is listed twice")
            # a label of another type never equals a cell: every row would read 0
            for key in ("label_column", "positive_value"):
                if not isinstance(obj[key], str):
                    raise DataError(f"manifest {key} {obj[key]!r} is not a string")
            return cls(
                columns=columns,
                label_column=obj["label_column"],
                positive_value=obj["positive_value"],
                quantiles=quantiles,
            )
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed binarization manifest: {exc}") from exc

    @classmethod
    def load(cls, path) -> "BinarizationManifest":
        """The manifest in a JSON file; a DataError names the file."""
        return read_json(path, cls.from_obj)

    def feature_names(self) -> list[str]:
        return [name for c in self.columns for name in c.feature_names()]


def binarize(
    table: RawTable, quantiles: int = 7
) -> tuple[BinaryDataset, BinarizationManifest]:
    """One-hot encode a table into a :class:`BinaryDataset`.

    Numeric columns are quantile-binned first (``quantiles`` bins by default);
    every (column, category) pair becomes one bit column named
    ``"column=category"``. Missing values get their own category, so each row
    sets exactly one bit per source column. The encoding is fitted as a
    manifest, and rows are labelled as :func:`apply_manifest` labels them.
    """
    if quantiles < 2:  # checked here too when no column is numeric: the manifest records it
        raise ValueError("quantiles must be >= 2")
    fitted = [
        ManifestColumn.fit(name, values, quantiles) for name, values in table.columns.items()
    ]
    manifest = BinarizationManifest(
        columns=tuple(mcol for mcol, _ in fitted),
        label_column=table.label_column,
        positive_value=table.positive_value,
        quantiles=quantiles,
    )
    return _one_hot(table, manifest, [idx for _, idx in fitted]), manifest


def apply_manifest(table: RawTable, manifest: BinarizationManifest) -> BinaryDataset:
    """Binarize ``table`` with the categories and edges of a fitted manifest.

    Each column is read as the manifest's kind, so a non-numeric or non-finite
    cell under a numeric column is a :class:`DataError`. Values that fall into
    a category unseen at fit time (a new level, a numeric bin no training row
    fell in, a blank where training had none) set no bit in that column group;
    one ``UserWarning`` counts them per column, in manifest order.
    """
    column_indices = [mcol.indices(table.column(mcol.name)) for mcol in manifest.columns]
    unseen = [
        f"{mcol.name} {n}"
        for mcol, idx in zip(manifest.columns, column_indices)
        if (n := int(np.count_nonzero(idx < 0)))
    ]
    if unseen:
        warnings.warn(
            f"cells in a category unseen at fit set no bit: {', '.join(unseen)}", stacklevel=2
        )
    return _one_hot(table, manifest, column_indices)


def _one_hot(table: RawTable, manifest: BinarizationManifest, column_indices) -> BinaryDataset:
    """One bit column per manifest category, from each column's :meth:`ManifestColumn.indices`."""
    # a value holding "=" can spell another column's feature: a's b=c and a=b's c
    names = manifest.feature_names()
    repeated = _first_repeat(names)
    if repeated is not None:
        first, second = [c.name for c in manifest.columns if repeated in c.feature_names()][:2]
        raise DataError(f"columns {first!r} and {second!r} both give a feature named {repeated!r}")
    feature_bits = [
        pack_bool(idx == k)
        for mcol, idx in zip(manifest.columns, column_indices)
        for k in range(len(mcol.categories))
    ]
    if not feature_bits:
        raise DataError("zero usable feature columns after binarization")
    return BinaryDataset(
        feature_bits=tuple(feature_bits),
        feature_names=tuple(names),
        labels=table.labels,
        n_rows=table.n_rows,
    )


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------


def load_predictions(
    path,
    n: int,
    *,
    column: str | None = None,
    delimiter: str = ",",
) -> PredictionVector:
    """Read a black-box prediction vector from a file.

    Default format is one 0/1 value per line; with ``column`` the file is
    read as a table by :func:`_read_rows`, under the same checks as
    :func:`load_table`, and that column is used.
    """
    path = Path(path)
    if column is None:
        with _decoding(path):
            text = path.read_text(encoding="utf-8-sig")
        values = list(filter(None, map(str.strip, text.splitlines())))
    else:
        header, columns = _read_rows(path, delimiter)
        if column not in header:
            raise DataError(f"{path}: missing prediction column {column!r}")
        values = columns[header.index(column)]
    if not set(values) <= {"0", "1"}:
        i, bad = next((i, v) for i, v in enumerate(values) if v not in ("0", "1"))
        raise DataError(f"{path}: non-binary prediction {bad!r} at entry {i + 1}")
    preds = np.fromiter(map(eq, values, repeat("1")), dtype=np.uint8, count=len(values))
    if len(preds) != n:
        raise DataError(
            f"{path}: length mismatch: {len(preds)} predictions for {n} dataset rows"
        )
    return PredictionVector(preds)


def synth_oracle(labels: np.ndarray, accuracy: float, seed: int) -> PredictionVector:
    """Synthesize a black-box that agrees with each label with given probability.

    Deterministic given (labels, accuracy, seed); accuracy 1.0 reproduces the
    labels bit-exactly and 0.0 flips every one.
    """
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError("accuracy must be in [0, 1]")
    labels = np.asarray(labels, dtype=np.uint8)
    rng = np.random.default_rng(seed)
    keep = rng.random(len(labels)) < accuracy
    preds = np.where(keep, labels, 1 - labels).astype(np.uint8)
    return PredictionVector(preds)


# ---------------------------------------------------------------------------
# Seeds and fold splitting
# ---------------------------------------------------------------------------


def child_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent seeds derived from ``seed``, one per fold, candidate or stream."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def split_folds(data: BinaryDataset, k: int = 5, seed: int = 0) -> list[np.ndarray]:
    """Partition row indices into k folds, stratified by label.

    Folds are pairwise disjoint, their union covers every row, per-class fold
    sizes differ by at most one, and the split is repeatable under a fixed
    seed. If some label class has fewer than k members the split falls back to
    unstratified (with a warning).
    """
    if k < 2:
        raise ValueError("fold count must be >= 2")
    if data.n_rows < k:
        raise ValueError("dataset has fewer rows than folds")
    rng = np.random.default_rng(seed)
    labels = data.labels
    classes, counts = np.unique(labels, return_counts=True)
    groups = [np.flatnonzero(labels == c) for c in classes]
    if (counts < k).any():
        warnings.warn(
            "a label class has fewer members than folds; falling back to an "
            "unstratified split",
            stacklevel=2,
        )
        groups = [np.arange(data.n_rows)]
    folds: list[list[int]] = [[] for _ in range(k)]
    for group in groups:
        perm = rng.permutation(group)
        for f in range(k):
            folds[f].extend(perm[f::k].tolist())
    return [np.array(sorted(f), dtype=int) for f in folds]


def train_indices(folds: list[np.ndarray], test_fold: int) -> np.ndarray:
    """All row indices outside the given test fold, in ascending order."""
    rest = [f for i, f in enumerate(folds) if i != test_fold]
    return np.array(sorted(np.concatenate(rest).tolist()), dtype=int)
