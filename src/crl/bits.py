"""Bit-vector helpers.

Row sets are plain Python ints used as bitsets: bit i stands for row i.
Arbitrary-precision ints give cheap AND/OR/NOT plus exact popcounts via
``int.bit_count()``, which keeps every coverage and accuracy count integral.
"""

from __future__ import annotations

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
