"""Vector helpers for fixed-point quantization and decoding.

Fixed-point needs no decode tables: patterns *are* scaled integers.  These
helpers quantize/dequantize whole numpy arrays, convert between patterns and
signed integers, and apply a ReLU to patterns.
"""

from __future__ import annotations

import numpy as np

from .format import FixedFormat

__all__ = [
    "quantize_array",
    "dequantize_array",
    "signed_array",
    "pattern_array",
    "relu_patterns",
]


def quantize_array(fmt: FixedFormat, values: np.ndarray) -> np.ndarray:
    """Round a float array to raw two's-complement patterns (uint32), RNE.

    numpy's ``rint`` implements round-half-to-even, matching the scalar
    :func:`repro.fixedpoint.value.quantize_rne` for values representable in
    float64 (all values at the widths this library targets).
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot quantize non-finite values")
    raw = np.rint(arr.ravel() * (1 << fmt.q))
    # Saturate in place: np.clip costs ~3x as much on small arrays.
    np.maximum(raw, fmt.int_min, out=raw)
    np.minimum(raw, fmt.int_max, out=raw)
    return ((raw.astype(np.int64) & fmt.mask).astype(np.uint32)).reshape(arr.shape)


def dequantize_array(fmt: FixedFormat, patterns: np.ndarray) -> np.ndarray:
    """Map patterns to float64 values."""
    return signed_array(fmt, patterns).astype(np.float64) / (1 << fmt.q)


def signed_array(fmt: FixedFormat, patterns: np.ndarray) -> np.ndarray:
    """Two's-complement interpretation of patterns, as int64."""
    p = np.asarray(patterns, dtype=np.int64)
    if p.size and (p.min() < 0 or p.max() > fmt.mask):
        raise ValueError("pattern out of range")
    return np.where(p & fmt.sign_mask, p - (1 << fmt.n), p)


def pattern_array(fmt: FixedFormat, signed: np.ndarray) -> np.ndarray:
    """Two's-complement patterns of signed integers (must be in range)."""
    s = np.asarray(signed, dtype=np.int64)
    if s.size and (s.min() < fmt.int_min or s.max() > fmt.int_max):
        raise ValueError("signed value out of range")
    return (s & fmt.mask).astype(np.uint32)


def relu_patterns(fmt: FixedFormat, patterns: np.ndarray) -> np.ndarray:
    """ReLU on patterns: negative values map to zero."""
    p = np.asarray(patterns, dtype=np.uint32)
    return np.where(p & fmt.sign_mask, np.uint32(0), p)
