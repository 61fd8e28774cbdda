"""Bit-vector helpers.

Row sets are plain Python ints used as bitsets: bit i stands for row i.
Arbitrary-precision ints give cheap AND/OR/NOT plus exact popcounts via
``int.bit_count()``, which keeps every coverage and accuracy count integral.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


def pack_bool(column: np.ndarray) -> int:
    """Pack a boolean row vector into an int bitset (bit i = row i)."""
    packed = np.packbits(np.asarray(column, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def unpack_bool(bits: int, n_rows: int) -> np.ndarray:
    """Inverse of :func:`pack_bool` for the first ``n_rows`` bits."""
    n_bytes = max(1, (n_rows + 7) // 8)
    raw = np.frombuffer(bits.to_bytes(n_bytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n_rows].astype(bool)


def from_indices(indices: Iterable[int]) -> int:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


def to_indices(bits: int) -> list[int]:
    out = []
    i = 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return out


def all_rows_mask(n_rows: int) -> int:
    return (1 << n_rows) - 1
