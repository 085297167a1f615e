"""Lookup tables for vectorized small-float processing.

Same role as :mod:`repro.posit.tables`: per-pattern decode arrays indexed by
bit pattern, used by the vectorized EMAC engine.  Reserved (all-ones
exponent) patterns are flagged and mapped to NaN in ``float_value``; the
Deep Positron datapath never produces them.  :func:`rounding_boundaries`
gives the closed-form seeds of the round tables
(:mod:`repro.formats.rounding`), which are proven against the float
backend's vectorized encoder.
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


def rounding_boundaries(fmt: FloatFormat) -> tuple[np.ndarray, np.ndarray]:
    """Round-to-nearest breakpoints as ``(values, strict)``.

    One per pair of neighbouring values, at their midpoint: a tie rounds to
    the even pattern, so the least value rounding up is the midpoint
    itself, or the next float above it where the upper pattern is odd
    (``strict``).  Plus ``+0.0``, where ``-0`` gives way to ``+0``.
    """
    t = tables_for(fmt)
    real = np.flatnonzero(~t.is_reserved)
    # First occurrences in pattern order: the zero value's pattern is +0.
    distinct, first = np.unique(t.float_value[real], return_index=True)
    mids = (distinct[:-1] + distinct[1:]) / 2  # exact: one bit more
    strict = (real[first[1:]] & 1) == 1
    return np.append(mids, 0.0), np.append(strict, False)


def dequantize_array(fmt: FloatFormat, patterns: np.ndarray) -> np.ndarray:
    """Map patterns back to float64 values via the tables."""
    t = tables_for(fmt)
    return t.float_value[np.asarray(patterns, dtype=np.int64)]
