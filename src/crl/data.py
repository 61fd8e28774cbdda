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
:func:`_read_rows`, which returns each column dictionary-encoded, so that
labels, categories and numbers are mapped once per distinct cell. A file with
no quote (and no NUL) is split on its line ends and delimiter a block at a
time, and any other goes through ``csv.reader``, which quoted fields need;
both give the same columns and the same errors. Every CSV
artifact is written by :func:`write_rows`, and every JSON file goes through
:func:`read_json` and :func:`write_json`, which refuse NaN and infinite
numbers; :func:`json_int` and :func:`json_number` say what a JSON integer or
number is.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import warnings
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, compress, repeat
from operator import and_, itemgetter
from pathlib import Path

from .errors import DataError
from .streams import Stream, permutations

MISSING_CATEGORY = "<missing>"

_KIND_NUMERIC = "numeric"
_KIND_CATEGORICAL = "categorical"
MANIFEST_VERSION = 1

# Row vectors are bytes, one value a row. A bitset is read from and written to
# binary digits, most significant first, so a vector is reversed on the way.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
# _HAS_BIT[j] translates a byte to the digit 1 when its bit j is set, else 0
_HAS_BIT = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]


def _equal_to(k: int) -> bytes:
    """The table translating byte ``k`` to the digit 1 and every other byte to 0."""
    return b"0" * k + b"1" + b"0" * (255 - k)


def _from_digits(digits: bytes) -> int:
    """The int of binary ``digits`` (b"0"/b"1"), most significant first; 0 for none."""
    return int(digits, 2) if digits else 0


def pack_bool(flags) -> int:
    """Pack a row vector into an int bitset (bit i = row i).

    ``flags`` is a bytes of 0/1 values, or any sequence of truth values.
    """
    if not isinstance(flags, bytes):
        flags = bytes(map(bool, flags))
    return _from_digits(flags[::-1].translate(_TO_DIGITS))


def unpack_bool(bits: int, n_rows: int) -> bytes:
    """Inverse of :func:`pack_bool`: the first ``n_rows`` bits, one 0/1 byte per row."""
    return format(bits, f"0{n_rows}b").encode()[::-1][:n_rows].translate(_FROM_DIGITS)


def spread_bool(bits: int, n_rows: int, width: int = 1) -> int:
    """``bits`` with row i's bit moved to the lowest bit of byte ``width * i``."""
    spaced = bytearray(n_rows * width)
    spaced[::width] = unpack_bool(bits, n_rows)
    return int.from_bytes(spaced, "little")


def _flags(values, what: str) -> bytes:
    """A row vector of 0/1 values as bytes; any other value is a DataError naming ``what``."""
    if isinstance(values, bytes):
        if values.translate(None, b"\x00\x01"):
            raise DataError(f"{what} must be 0/1")
        return values
    if not set(values) <= {0, 1}:
        raise DataError(f"{what} must be 0/1")
    return bytes(map(bool, values))


@dataclass(frozen=True, eq=False)
class RawTable:
    """A parsed table: feature columns plus an already-binarized label vector.

    ``columns`` maps each feature column's name to its cells, encoded as by
    :func:`encode_cells`. A column's kind (numeric or categorical) is decided
    when a manifest is fitted to it, see :meth:`ManifestColumn.fit`.
    """

    columns: dict[str, tuple[tuple[str, ...], array]]
    label_column: str
    labels: bytes  # one 0/1 byte per row
    positive_value: str

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    def column(self, name: str) -> tuple[tuple[str, ...], array]:
        try:
            return self.columns[name]
        except KeyError:
            raise DataError(f"no column named {name!r}") from None


@dataclass(frozen=True, eq=False)
class BinaryDataset:
    """An immutable N x d' binary feature matrix with labels.

    Features are stored column-major as int bitsets (bit i = row i), which is
    what makes cover computation and all downstream counting cheap; counts
    come from ``int.bit_count`` and so stay exact integers. ``labels`` holds
    one 0/1 byte per row; any other sequence of 0/1 values given is stored
    as such bytes.
    """

    feature_bits: tuple[int, ...]
    feature_names: tuple[str, ...]
    labels: bytes
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
        object.__setattr__(self, "labels", _flags(self.labels, "labels"))

    @property
    def n_features(self) -> int:
        return len(self.feature_bits)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n_rows) - 1

    @cached_property
    def class_masks(self) -> tuple[int, int]:
        """The rows labelled 0 and the rows labelled 1, indexed by class."""
        positive = pack_bool(self.labels)
        return ~positive & self.full_mask, positive

    @cached_property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The rows, each a tuple of one 0/1 value per feature."""
        return tuple(zip(*(unpack_bool(b, self.n_rows) for b in self.feature_bits)))

    @cached_property
    def name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.feature_names)}

    @cached_property
    def _records(self) -> list[bytes]:
        """Each row as bytes: its features eight to a byte (feature 8g + j is
        bit j of byte g), then its label."""
        n, width = self.n_rows, (self.n_features + 7) // 8 + 1
        packed = bytearray(n * width)
        for g in range(0, self.n_features, 8):
            group = 0
            for j, bits in enumerate(self.feature_bits[g : g + 8]):
                group |= spread_bool(bits, n) << j
            packed[g // 8 :: width] = group.to_bytes(n, "little")
        packed[width - 1 :: width] = self.labels
        packed = bytes(packed)
        return [packed[i : i + width] for i in range(0, n * width, width)]

    def subset(self, rows) -> "BinaryDataset":
        """The dataset of ``rows`` (row indices), in the order given.

        The rows are selected once, as whole records of packed features, and
        each feature's bitset is read back off its byte of the records.
        """
        records = self._records
        picked = b"".join(map(records.__getitem__, rows))
        width = len(records[0])
        feature_bits = []
        for g in range(width - 1):
            group = picked[g::width][::-1]
            n_bits = min(8, self.n_features - 8 * g)
            feature_bits += [_from_digits(group.translate(_HAS_BIT[j])) for j in range(n_bits)]
        return BinaryDataset(
            feature_bits=tuple(feature_bits),
            feature_names=self.feature_names,
            labels=picked[width - 1 :: width],
            n_rows=len(picked) // width,
        )

    @classmethod
    def from_bool_matrix(cls, matrix, labels, feature_names) -> "BinaryDataset":
        """The dataset of a row-major matrix (a sequence of rows of truth values)."""
        try:
            rows = [bytes(map(bool, row)) for row in matrix]
        except TypeError:
            raise DataError("feature matrix must be two-dimensional") from None
        if len(set(map(len, rows))) > 1:
            raise DataError("feature matrix rows differ in length")
        return cls(
            feature_bits=tuple(pack_bool(bytes(column)) for column in zip(*rows)),
            feature_names=tuple(feature_names),
            labels=labels,
            n_rows=len(rows),
        )


@dataclass(frozen=True, eq=False)
class PredictionVector:
    """Row-aligned 0/1 predictions of a black-box classifier.

    ``preds`` holds one 0/1 byte per row; any other sequence of 0/1 values
    given is stored as such bytes.
    """

    preds: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "preds", _flags(self.preds, "predictions"))

    def __len__(self) -> int:
        return len(self.preds)

    @cached_property
    def bits(self) -> int:
        """The rows predicted 1, as a bitset."""
        return pack_bool(self.preds)

    def correct_mask(self, labels: bytes) -> int:
        """Bitset of rows where the black-box prediction equals the label."""
        return ~(self.bits ^ pack_bool(labels)) & ((1 << len(self.preds)) - 1)

    def subset(self, rows) -> "PredictionVector":
        return PredictionVector(bytes(map(self.preds.__getitem__, rows)))


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


def _read_rows(path: Path, delimiter: str) -> tuple[list[str], list[tuple[tuple[str, ...], array]]]:
    """The stripped header and cell columns of a UTF-8 delimited text file.

    Blank lines are skipped. An empty file, a repeated column name, a row
    whose field count differs from the header's and a cell longer than
    ``csv.field_size_limit()`` are each a :class:`DataError`; a line in a
    message counts records, blank ones included. Each column is encoded as by
    :func:`encode_cells`; a header with no data rows gives empty columns.

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
    # iterator per row and every column's cells at once, a higher peak
    return header, [encode_cells(map(itemgetter(j), rows)) for j in range(width)]


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
            width, columns = len(header), [(_Coder(), array("I")) for _ in header]
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
            cells = delimiter.join(rows).split(delimiter)  # row i's cell j is cells[i * width + j]
            for j, (coder, index) in enumerate(columns):  # coded while the cells are in cache
                index.extend(map(coder.__getitem__, cells[j::width]))
        if not block:
            return header, [(tuple(coder.values), index) for coder, index in columns]


class _Coder(dict):
    """Each raw spelling's index into ``values``: the distinct stripped cells, first seen first."""

    def __init__(self) -> None:
        super().__init__()
        self.values: list[str] = []

    def __missing__(self, raw: str) -> int:  # stripped once; " a" and "a" share an index
        cell = raw.strip()
        if cell == raw:
            self.values.append(cell)
        k = self[raw] = len(self.values) - 1 if cell == raw else self[cell]
        return k


def encode_cells(cells) -> tuple[tuple[str, ...], array]:
    """Raw ``cells`` as :func:`_read_rows` encodes a column: its distinct
    stripped cells, in first-seen order, and each row's index into them."""
    coder = _Coder()
    index = array("I", map(coder.__getitem__, cells))
    return tuple(coder.values), index


def _low_bytes(index: array) -> bytes:
    """The low byte of each row's index: the index itself when there are at most 256 values."""
    return index.tobytes()[0 if sys.byteorder == "little" else index.itemsize - 1 :: index.itemsize]


def _gather(codes: list[bytes], index: array) -> bytes:
    """Each row's code, ``codes[k]`` for its index k, concatenated: up to 256
    one-byte codes, one ``bytes.translate`` of the indices' low bytes."""
    table = b"".join(codes)
    if len(codes) > 256 or len(table) != len(codes):
        return b"".join(map(codes.__getitem__, index))
    return _low_bytes(index).translate(table.ljust(256))


# The most distinct cells :func:`_cell_counts` counts with ``bytes.count``.
# One count scans every row, so a ``Counter``, which hashes every row once,
# is the faster from about 40 cells on (20k rows, CPython 3.11).
_BYTE_COUNT_CELLS = 32


def _cell_counts(n_values: int, index: array) -> list[int]:
    """How many rows hold each of a column's ``n_values`` distinct cells.

    Up to ``_BYTE_COUNT_CELLS`` cells, one ``bytes.count`` of the indices'
    low bytes per cell; more, one ``Counter`` of the rows.
    """
    if n_values > _BYTE_COUNT_CELLS:
        return list(map(Counter(index).__getitem__, range(n_values)))
    return list(map(_low_bytes(index).count, range(n_values)))


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

    The label column is binarized, and a blank cell in it is a
    :class:`DataError`: with ``positive_value`` given, rows equal to it map
    to 1 and everything else to 0 (a column of two or more distinct values
    none of which is ``positive_value`` is a :class:`DataError`); without it
    the column must have exactly two distinct values (the lexicographically
    larger one is positive), or already be 0/1.
    """
    path = Path(path)
    header, columns = _read_rows(path, delimiter)
    if label not in header:
        raise DataError(f"{path}: missing label column {label!r}")
    by_name = dict(zip(header, columns))
    values, index = by_name.pop(label)
    if not index:
        raise DataError(f"{path}: no data rows")
    # a blank cell is a missing value everywhere else, so it is no class here
    if "" in values:
        blank = index.count(values.index(""))
        raise DataError(f"{path}: label column {label!r} has {blank} blank cell(s)")
    labels, positive = _map_labels(values, index, label, positive_value)

    return RawTable(
        columns=by_name,
        label_column=label,
        labels=labels,
        positive_value=positive,
    )


def _map_labels(values, index, label, positive_value):
    distinct = sorted(values)
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
    return _gather([bytes((v == positive_value,)) for v in values], index), positive_value


# ---------------------------------------------------------------------------
# Quantile binning and one-hot encoding
# ---------------------------------------------------------------------------


def quantile_edges(value_counts, q: int = 7) -> list[float]:
    """Empirical (k/q)-quantiles for k = 1..q-1, with duplicate edges merged.

    ``value_counts`` holds (value, number of cells) pairs of a column; a
    value may come in more than one pair. The quantiles are numpy's
    ``np.quantile(values, [k / q, ...])`` (method "linear") of the cells,
    bit for bit: the quantile at k/q sits at the virtual index
    v = (n - 1) * (k / q) of the sorted cells, between the cells a and b at
    floor(v) and floor(v) + 1, or both at the last cell when v >= n - 1.
    With g the distance of v past a's index (v + 1 for the last cell, as
    numpy indexes it -1), it is ``a + (b - a) * g``, or
    ``b - (b - a) * (1 - g)`` when g >= 0.5. A zero edge is always +0.0:
    numpy's partial sort places equal zeros of either sign in no fixed
    order.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    pairs = sorted(value_counts, key=itemgetter(0))
    if not pairs:
        raise ValueError("column must be nonempty")
    values = [value for value, _ in pairs]
    ends = list(accumulate(count for _, count in pairs))  # the cells up to each pair
    n = ends[-1]
    edges: list[float] = []
    for k in range(1, q):
        virtual = (n - 1) * (k / q)
        if virtual >= n - 1:  # numpy's index -1: the last cell, and g past 1
            below = above = n - 1
            gamma = virtual + 1
        else:
            below = int(virtual)
            above = below + 1
            gamma = virtual - below
        a = values[bisect_right(ends, below)]
        b = values[bisect_right(ends, above)]
        diff = b - a
        e = (b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma) + 0.0
        if not edges or e > edges[-1]:
            edges.append(e)
    return edges


def _numbers(name: str, values) -> list[float]:
    """The floats of the non-blank ``values``, a column's distinct cells in first-seen order.

    A value that is not a number raises ``ValueError``, and a non-finite one
    (``nan``, ``inf``) is a :class:`DataError` once every value has parsed;
    either names the first such value: the first such cell in row order.
    """
    present = list(filter(None, values))
    floats = list(map(float, present))
    if not all(map(math.isfinite, floats)):
        bad = next(compress(present, [not math.isfinite(x) for x in floats]))
        raise DataError(f"numeric column {name!r}: non-finite value {bad!r}")
    return floats


@dataclass(frozen=True)
class ManifestColumn:
    """One source column's categories, in feature order, and a numeric column's edges.

    A column is coded a row at a time: a row's code is the index of its
    category, or ``len(categories)`` for a cell in none, in :attr:`width`
    little-endian bytes. Each distinct cell is coded once, then every row.
    """

    name: str
    kind: str
    categories: tuple[str, ...]
    edges: tuple[float, ...] | None  # quantile edges for numeric columns

    @property
    def width(self) -> int:
        """The bytes of a row's code: enough for the codes 0..len(categories)."""
        return max(1, (len(self.categories).bit_length() + 7) // 8)

    def _code_bytes(self) -> tuple[dict[str, bytes], bytes]:
        """Each category's code, and the code of a cell in none."""
        width = self.width
        codes = [k.to_bytes(width, "little") for k in range(len(self.categories) + 1)]
        return dict(zip(self.categories, codes)), codes[-1]

    def codes(self, column) -> bytes:
        """The row codes of a column encoded as :func:`encode_cells` gives it.

        Numeric cells are labelled ``bin{k}`` with k the number of edges
        strictly below the value, each distinct cell parsed once; blank cells
        are ``<missing>``. A non-numeric or non-finite cell under a numeric
        column is a :class:`DataError`.
        """
        values, index = column
        if self.kind == _KIND_NUMERIC:
            try:
                floats = _numbers(self.name, values)
            except ValueError as exc:
                raise DataError(f"numeric column {self.name!r}: {exc}") from None
            return _gather(self._bin_codes(values, floats), index)
        code_of, unseen = self._code_bytes()
        code_of[""] = code_of.get(MISSING_CATEGORY, unseen)
        return _gather(list(map(code_of.get, values, repeat(unseen))), index)

    def _bin_codes(self, values, floats: list[float]) -> list[bytes]:
        """The code of each of a numeric column's distinct ``values``, from non-blank ones' floats."""
        pos, unseen = self._code_bytes()
        bins = [pos.get(f"bin{k}", unseen) for k in range(len(self.edges) + 1)]
        codes = list(map(bins.__getitem__, map(bisect_left, repeat(self.edges), floats)))
        if "" in values:
            codes.insert(values.index(""), pos.get(MISSING_CATEGORY, unseen))
        return codes

    def one_hot(self, codes: bytes) -> list[int]:
        """The bitset of each category's rows, from the row codes: one per feature."""
        width = self.width
        planes = [codes[i::width][::-1] for i in range(width)]  # reversed: row 0 is bit 0
        return [
            reduce(
                and_,
                [
                    _from_digits(plane.translate(_equal_to(digit)))
                    for plane, digit in zip(planes, k.to_bytes(width, "little"))
                ],
            )
            for k in range(len(self.categories))
        ]

    def feature_names(self) -> list[str]:
        return [f"{self.name}={cat}" for cat in self.categories]

    @classmethod
    def fit(cls, name: str, column, quantiles: int) -> tuple["ManifestColumn", bytes]:
        """The kind, categories (and numeric edges) seen in an encoded ``column``, in feature order.

        A column is numeric when it has a non-blank cell and every non-blank
        cell parses as a float, categorical otherwise. Numeric columns list
        ``bin{k}`` by ascending k with ``<missing>`` last; categorical columns
        list their values sorted by code point, with blank cells as
        ``<missing>`` sorted in. Returns the fitted column and the
        :meth:`codes` of the cells, labelled from the same parse.
        """
        values, index = column
        try:
            floats = _numbers(name, values)
        except ValueError:
            floats = None
        if not floats:
            cats = sorted({v or MISSING_CATEGORY for v in values})
            fitted = cls(name, _KIND_CATEGORICAL, tuple(cats), None)
            return fitted, fitted.codes(column)
        counts = compress(_cell_counts(len(values), index), values)
        edges = tuple(quantile_edges(zip(floats, counts), quantiles))
        bins = sorted(set(map(bisect_left, repeat(edges), floats)))
        cats = [f"bin{k}" for k in bins] + [MISSING_CATEGORY] * ("" in values)
        fitted = cls(name, _KIND_NUMERIC, tuple(cats), edges)
        return fitted, _gather(fitted._bin_codes(values, floats), index)


def _manifest_column(c: dict) -> ManifestColumn:
    """A stored manifest column; numeric edges must be as :func:`quantile_edges` writes them.

    A categorical column has null edges, as :meth:`ManifestColumn.fit` writes it.

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
    if kind not in (_KIND_NUMERIC, _KIND_CATEGORICAL):
        raise DataError(f"manifest column {name!r}: unknown kind {kind!r}")
    edges = c["edges"]
    if kind == _KIND_CATEGORICAL and edges is not None:
        raise DataError(f"manifest column {name!r}: categorical edges must be null, not {edges!r}")
    if edges is not None and not isinstance(edges, list):
        raise DataError(f"manifest column {name!r}: edges must be a list or null, not {edges!r}")
    edges = tuple(edges) if edges is not None else None
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
        ManifestColumn.fit(name, column, quantiles) for name, column in table.columns.items()
    ]
    manifest = BinarizationManifest(
        columns=tuple(mcol for mcol, _ in fitted),
        label_column=table.label_column,
        positive_value=table.positive_value,
        quantiles=quantiles,
    )
    return _dataset(table, manifest, [mcol.one_hot(codes) for mcol, codes in fitted]), manifest


def apply_manifest(table: RawTable, manifest: BinarizationManifest) -> BinaryDataset:
    """Binarize ``table`` with the categories and edges of a fitted manifest.

    Each column is read as the manifest's kind, so a non-numeric or non-finite
    cell under a numeric column is a :class:`DataError`. Values that fall into
    a category unseen at fit time (a new level, a numeric bin no training row
    fell in, a blank where training had none) set no bit in that column group;
    one ``UserWarning`` counts them per column, in manifest order.
    """
    columns = [mcol.one_hot(mcol.codes(table.column(mcol.name))) for mcol in manifest.columns]
    unseen = [
        f"{mcol.name} {n}"
        for mcol, bits in zip(manifest.columns, columns)
        if (n := table.n_rows - sum(map(int.bit_count, bits)))
    ]
    if unseen:
        warnings.warn(
            f"cells in a category unseen at fit set no bit: {', '.join(unseen)}", stacklevel=2
        )
    return _dataset(table, manifest, columns)


def _dataset(table: RawTable, manifest: BinarizationManifest, columns) -> BinaryDataset:
    """The dataset of each manifest column's bit columns, from :meth:`ManifestColumn.one_hot`."""
    # a value holding "=" can spell another column's feature: a's b=c and a=b's c
    names = manifest.feature_names()
    repeated = _first_repeat(names)
    if repeated is not None:
        first, second = [c.name for c in manifest.columns if repeated in c.feature_names()][:2]
        raise DataError(f"columns {first!r} and {second!r} both give a feature named {repeated!r}")
    feature_bits = tuple(chain.from_iterable(columns))
    if not feature_bits:
        raise DataError("zero usable feature columns after binarization")
    return BinaryDataset(
        feature_bits=feature_bits,
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
        # universal newlines leave "\n" the only line end, as in _read_rows;
        # str.splitlines would also break at \f, \v, \x85, \u2028 and others
        values, index = encode_cells(filter(None, map(str.strip, text.split("\n"))))
    else:
        header, columns = _read_rows(path, delimiter)
        if column not in header:
            raise DataError(f"{path}: missing prediction column {column!r}")
        values, index = columns[header.index(column)]
    for k, v in enumerate(values):  # the first bad distinct value is the first bad entry
        if v not in ("0", "1"):
            raise DataError(f"{path}: non-binary prediction {v!r} at entry {index.index(k) + 1}")
    preds = _gather([bytes((v == "1",)) for v in values], index)
    if len(preds) != n:
        raise DataError(
            f"{path}: length mismatch: {len(preds)} predictions for {n} dataset rows"
        )
    return PredictionVector(preds)


def synth_oracle(labels, accuracy: float, seed: int) -> PredictionVector:
    """Synthesize a black-box that agrees with each label with given probability.

    Deterministic given (labels, accuracy, seed); accuracy 1.0 reproduces the
    labels bit-exactly and 0.0 flips every one. Row i keeps its label when
    the i-th of ``len(labels)`` uniforms of the seed's stream is below
    ``accuracy``.
    """
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError("accuracy must be in [0, 1]")
    labels = _flags(labels, "labels")
    n = len(labels)
    keep = pack_bool(bytes(map(float(accuracy).__gt__, Stream(seed).random(n))))
    return PredictionVector(unpack_bool(pack_bool(labels) ^ ~keep & ((1 << n) - 1), n))


# ---------------------------------------------------------------------------
# Fold splitting
# ---------------------------------------------------------------------------


def split_folds(data: BinaryDataset, k: int = 5, seed: int = 0) -> list[list[int]]:
    """Partition row indices into k folds, stratified by label.

    Each fold is an ascending list of row indices. Folds are pairwise
    disjoint, their union covers every row, per-class fold sizes differ by
    at most one, and the split is repeatable under a fixed seed. If some
    label class has fewer than k members the split falls back to
    unstratified (with a warning).
    """
    if k < 2:
        raise ValueError("fold count must be >= 2")
    if data.n_rows < k:
        raise ValueError("dataset has fewer rows than folds")
    n = data.n_rows
    groups = [
        list(compress(range(n), unpack_bool(rows, n))) for rows in data.class_masks if rows
    ]
    if any(len(group) < k for group in groups):
        warnings.warn(
            "a label class has fewer members than folds; falling back to an "
            "unstratified split",
            stacklevel=2,
        )
        groups = [range(n)]
    folds: list[list[int]] = [[] for _ in range(k)]
    for perm in permutations(seed, groups):
        for f in range(k):
            folds[f].extend(perm[f::k])
    return [sorted(f) for f in folds]


def train_indices(folds: list[list[int]], test_fold: int) -> list[int]:
    """All row indices outside the given test fold, in ascending order."""
    return sorted(chain.from_iterable(f for i, f in enumerate(folds) if i != test_fold))
