"""Lookup tables for vectorized small-float processing.

Same role as :mod:`repro.posit.tables`: per-pattern decode arrays indexed by
bit pattern, used by the vectorized EMAC engine.  Reserved (all-ones
exponent) patterns are flagged and mapped to NaN in ``float_value``; the
Deep Positron datapath never produces them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codec import decode
from .format import FloatFormat

__all__ = ["FloatTables", "tables_for", "rounding_boundaries"]


@dataclass(frozen=True)
class FloatTables:
    """Per-pattern decode tables for a :class:`FloatFormat`.

    ``significand`` carries the hidden bit (``wf + 1`` bits, 0-hidden for
    subnormals); the magnitude of pattern ``p`` is
    ``significand[p] * 2**(scale[p] - wf)``.
    """

    fmt: FloatFormat
    sign: np.ndarray
    scale: np.ndarray
    significand: np.ndarray
    is_zero: np.ndarray
    is_reserved: np.ndarray
    float_value: np.ndarray
    relu: np.ndarray


def _build(fmt: FloatFormat) -> FloatTables:
    count = fmt.num_patterns
    sign = np.zeros(count, dtype=np.int8)
    scale = np.zeros(count, dtype=np.int32)
    significand = np.zeros(count, dtype=np.int64)
    is_zero = np.zeros(count, dtype=bool)
    is_reserved = np.zeros(count, dtype=bool)
    float_value = np.empty(count, dtype=np.float64)
    relu = np.zeros(count, dtype=np.uint32)

    for bits in fmt.all_patterns():
        d = decode(fmt, bits)
        if d.is_reserved:
            is_reserved[bits] = True
            float_value[bits] = np.nan
            relu[bits] = 0
            continue
        sign[bits] = d.sign
        scale[bits] = d.scale
        significand[bits] = d.significand
        is_zero[bits] = d.significand == 0
        value = float(d.to_fraction())
        if d.significand == 0 and d.sign:
            value = -0.0  # keep the sign of zero through decode
        float_value[bits] = value
        relu[bits] = 0 if d.sign else bits
    return FloatTables(
        fmt=fmt,
        sign=sign,
        scale=scale,
        significand=significand,
        is_zero=is_zero,
        is_reserved=is_reserved,
        float_value=float_value,
        relu=relu,
    )


@lru_cache(maxsize=32)
def tables_for(fmt: FloatFormat) -> FloatTables:
    """Build (or fetch cached) decode tables for ``fmt`` (n <= 16)."""
    if fmt.n > 16:
        raise ValueError(f"decode tables limited to n <= 16; {fmt} is too wide")
    return _build(fmt)


@lru_cache(maxsize=32)
def _sorted_value_table(fmt: FloatFormat):
    """(values, patterns) of every real pattern, sorted ascending by value.

    The stable sort keeps +0 (pattern 0) ahead of -0 among the equal keys.
    """
    t = tables_for(fmt)
    real = ~t.is_reserved
    patterns = np.nonzero(real)[0].astype(np.uint32)
    values = t.float_value[real]
    order = np.argsort(values, kind="stable")
    return values[order], patterns[order]


def rounding_boundaries(fmt: FloatFormat) -> tuple[np.ndarray, np.ndarray]:
    """:func:`quantize_array`'s breakpoints as ``(values, strict)``.

    One per pair of neighbouring values, at their midpoint: a tie rounds to
    the even pattern, so the least value rounding up is the midpoint
    itself, or the next float above it where the upper pattern is odd
    (``strict``).  Plus ``+0.0``, where ``-0`` gives way to ``+0``.
    """
    values, patterns = _sorted_value_table(fmt)
    distinct, first = np.unique(values, return_index=True)
    mids = (distinct[:-1] + distinct[1:]) / 2  # exact: one bit more
    strict = (patterns[first[1:]] & 1) == 1
    return np.append(mids, 0.0), np.append(strict, False)


def quantize_array(fmt: FloatFormat, values: np.ndarray) -> np.ndarray:
    """Round a float array to patterns of ``fmt`` (uint32), vectorized.

    Nearest-value search over the sorted pattern table with ties to the
    even pattern: consecutive same-sign patterns differ by one ULP, so this
    reproduces the scalar encoder's round-to-nearest-even bit for bit
    (including the signed-zero underflow results).
    """
    arr = np.asarray(values, dtype=np.float64)
    flat = arr.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("cannot quantize non-finite values")
    table_values, table_patterns = _sorted_value_table(fmt)
    idx = np.searchsorted(table_values, flat, side="left")
    idx = np.clip(idx, 1, len(table_values) - 1)
    left = table_values[idx - 1]
    right = table_values[idx]
    pick_right = (right - flat) < (flat - left)
    tie = (right - flat) == (flat - left)
    # On a tie pick the neighbor whose pattern is even (RNE in pattern space).
    right_even = (table_patterns[idx] & 1) == 0
    out_idx = np.where(pick_right | (tie & right_even), idx, idx - 1)
    # Saturate exact out-of-range values.
    out_idx = np.where(flat <= table_values[0], 0, out_idx)
    out_idx = np.where(flat >= table_values[-1], len(table_values) - 1, out_idx)
    result = table_patterns[out_idx]
    # The scalar encoder returns *signed* zero on underflow; the value table
    # cannot distinguish +-0, so patch magnitude-zero results by input sign
    # (signbit, so a -0.0 input keeps its sign and quantize stays idempotent
    # over decode).
    mag_zero = (result & np.uint32(fmt.mask & ~fmt.sign_mask)) == 0
    result = np.where(
        mag_zero,
        np.where(np.signbit(flat), np.uint32(fmt.sign_mask), np.uint32(0)),
        result,
    )
    return result.astype(np.uint32).reshape(arr.shape)


def dequantize_array(fmt: FloatFormat, patterns: np.ndarray) -> np.ndarray:
    """Map patterns back to float64 values via the tables."""
    t = tables_for(fmt)
    return t.float_value[np.asarray(patterns, dtype=np.int64)]
