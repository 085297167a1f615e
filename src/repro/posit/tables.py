"""Lookup tables for vectorized posit processing.

For the bit widths the paper studies (n <= 8) a posit format has at most 256
patterns, so decode and many unary operations become table lookups.  The
vectorized EMAC engine (:mod:`repro.core.vector`) indexes these numpy arrays
with whole tensors of bit patterns at once.

Tables are cached per format; building one costs a single pass over all
``2**n`` patterns with the scalar decoder, which also makes the tables a
faithful mirror of the reference implementation by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decode import decode
from .format import PositFormat

__all__ = ["PositTables", "tables_for", "MAX_TABLE_BITS", "rounding_boundaries"]

#: Largest n for which full decode tables are built (2**16 entries).
MAX_TABLE_BITS = 16


@dataclass(frozen=True)
class PositTables:
    """Per-format decode/operation tables, indexed by bit pattern.

    Attributes
    ----------
    fmt:
        The posit format.
    sign:
        int8; 1 where the pattern encodes a negative value.
    scale:
        int32; ``k * 2**es + e``.  Zero for the reserved patterns (mask with
        ``is_zero``/``is_nar`` before use).
    significand:
        int64; significand left-aligned to ``1 + max_fraction_bits`` bits
        (hidden bit included), i.e. exactly the EMAC multiplier input.
    is_zero / is_nar:
        bool masks for the reserved patterns.
    float_value:
        float64 value of each pattern (NaR maps to NaN).  Used for argmax
        readout and diagnostics, not for exact arithmetic.
    relu:
        uint32; pattern -> pattern after a ReLU (negatives and NaR to zero).
    """

    fmt: PositFormat
    sign: np.ndarray
    scale: np.ndarray
    significand: np.ndarray
    is_zero: np.ndarray
    is_nar: np.ndarray
    float_value: np.ndarray
    relu: np.ndarray


def _build(fmt: PositFormat) -> PositTables:
    count = fmt.num_patterns
    sign = np.zeros(count, dtype=np.int8)
    scale = np.zeros(count, dtype=np.int32)
    significand = np.zeros(count, dtype=np.int64)
    is_zero = np.zeros(count, dtype=bool)
    is_nar = np.zeros(count, dtype=bool)
    float_value = np.empty(count, dtype=np.float64)
    relu = np.zeros(count, dtype=np.uint32)

    for bits in fmt.all_patterns():
        d = decode(fmt, bits)
        if d.is_zero:
            float_value[bits] = 0.0
            relu[bits] = bits
            is_zero[bits] = True
            continue
        if d.is_nar:
            float_value[bits] = np.nan
            relu[bits] = fmt.zero_pattern
            is_nar[bits] = True
            continue
        sign[bits] = d.sign
        scale[bits] = d.scale
        significand[bits] = d.significand_fixed
        float_value[bits] = float(d.to_fraction())
        relu[bits] = fmt.zero_pattern if d.sign else bits
    return PositTables(
        fmt=fmt,
        sign=sign,
        scale=scale,
        significand=significand,
        is_zero=is_zero,
        is_nar=is_nar,
        float_value=float_value,
        relu=relu,
    )


@lru_cache(maxsize=32)
def tables_for(fmt: PositFormat) -> PositTables:
    """Build (or fetch cached) lookup tables for ``fmt``.

    Raises
    ------
    ValueError
        If ``fmt.n`` exceeds :data:`MAX_TABLE_BITS`; wider formats must use
        the scalar path.
    """
    if fmt.n > MAX_TABLE_BITS:
        raise ValueError(
            f"decode tables limited to n <= {MAX_TABLE_BITS}; {fmt} is too wide"
        )
    return _build(fmt)


@lru_cache(maxsize=32)
def _boundary_table(fmt: PositFormat):
    """Patterns in value order plus their pattern-space rounding boundaries.

    The boundary separating "round to pattern p" from "round to p+1" under
    the paper's Algorithm-2 guard/sticky rounding is exactly the value of
    the (n+1)-bit, same-es posit whose (signed) pattern is ``2p + 1`` — the
    classic posit interleaving property.  Representing boundaries this way
    makes the vectorized quantizer bit-identical to the scalar encoder even
    across regime-taper boundaries, where value-space "nearest" differs.
    The last entry holds :func:`quantize_array`'s saturation constants:
    ``maxpos``, ``minpos`` (floats) and the patterns of their negations.
    """
    from .format import standard_format

    wide = standard_format(fmt.n + 1, fmt.es)
    signed = np.arange(-(1 << (fmt.n - 1)) + 1, 1 << (fmt.n - 1), dtype=np.int64)
    patterns = (signed % (1 << fmt.n)).astype(np.uint32)
    mids = (2 * signed[:-1] + 1) % (1 << wide.n)
    boundaries = np.array(
        [float(decode(wide, int(m)).to_fraction()) for m in mids]
    )
    # A tie exactly on boundaries[i] resolves to whichever of patterns
    # i / i+1 has the even *magnitude* encoding (Algorithm 2: round = guard
    # & (lsb | sticky) with sticky == 0 keeps an even-lsb pattern).
    boundary_to_lower = (np.abs(signed[:-1]) % 2) == 0
    negated = (1 << fmt.n) - np.array([fmt.maxpos_pattern, fmt.minpos_pattern])
    neg_max, neg_min = (negated & fmt.mask).astype(np.uint32)
    saturation = (float(fmt.maxpos), float(fmt.minpos), neg_max, neg_min)
    return patterns, boundaries, boundary_to_lower, saturation


def rounding_boundaries(fmt: PositFormat) -> tuple[np.ndarray, np.ndarray]:
    """:func:`quantize_array`'s breakpoints as ``(values, strict)``.

    Breakpoint ``i`` separates the ``i``-th and ``(i+1)``-th patterns in
    value order: the least value rounding up is ``values[i]`` itself, or
    the next float above it where ``strict[i]`` (a tie there rounds down).
    These are :func:`_boundary_table`'s boundaries and tie directions,
    except around zero: rounding never reaches zero from a nonzero value,
    so zero's slot starts at ``-0.0`` and minpos's just above ``+0.0``.
    """
    patterns, boundaries, to_lower, _ = _boundary_table(fmt)
    values, strict = boundaries.copy(), to_lower.copy()
    z = int(np.flatnonzero(patterns == fmt.zero_pattern)[0])
    values[z - 1:z + 1] = (-0.0, 0.0)
    strict[z - 1:z + 1] = (False, True)
    return values, strict


def quantize_array(fmt: PositFormat, values: np.ndarray) -> np.ndarray:
    """Round a float array to posit patterns (uint32), vectorized.

    Bit-identical to the scalar RNE encoder (Algorithm 2's pattern-space
    rounding, via :func:`_boundary_table`).  Non-finite inputs raise;
    sanitize upstream.  The posit backend's ``quantize_batch`` looks inputs
    up in a round table built and tested against this reference.
    """
    arr = np.asarray(values, dtype=np.float64)
    flat = arr.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("cannot quantize non-finite values to posit")
    patterns, boundaries, to_lower, saturation = _boundary_table(fmt)
    idx = np.searchsorted(boundaries, flat, side="left")
    hit = np.minimum(idx, len(boundaries) - 1)
    tie = boundaries[hit] == flat
    out_idx = idx + np.where(tie & ~to_lower[hit], 1, 0)
    # out_idx >= 0 already; cap it in place (np.clip costs ~3x as much).
    np.minimum(out_idx, len(patterns) - 1, out=out_idx)
    result = patterns[out_idx]
    # Saturation and the never-round-to-zero rule.
    maxpos, minpos, neg_max, neg_min = saturation
    result = np.where(flat >= maxpos, np.uint32(fmt.maxpos_pattern), result)
    result = np.where(flat <= -maxpos, neg_max, result)
    result = np.where((flat > 0) & (flat < minpos), np.uint32(fmt.minpos_pattern), result)
    result = np.where((flat < 0) & (flat > -minpos), neg_min, result)
    result = np.where(flat == 0.0, np.uint32(fmt.zero_pattern), result)
    return result.astype(np.uint32).reshape(arr.shape)


def dequantize_array(fmt: PositFormat, patterns: np.ndarray) -> np.ndarray:
    """Map posit patterns back to float64 values via the tables."""
    t = tables_for(fmt)
    return t.float_value[np.asarray(patterns, dtype=np.int64)]
