"""Batched quire normalization for the vectorized round-once path.

The vector engines accumulate every (sample, neuron) dot product as
unnormalized base-``2**LIMB_BITS`` limbs (see :mod:`repro.core.accumulator`).
The seed implementation reconstituted each quire as a Python big integer and
rounded it with the scalar encoder — a per-(sample, neuron) Python loop that
dominated engine runtime.  This module replaces that loop with whole-tensor
numpy:

1. carry-propagate the limbs into canonical non-negative digits plus a final
   sign carry (the headroom limb guarantees the carry is 0 or -1);
2. two's-complement negative quires back to magnitudes, digit-wise;
3. extract the top three limbs around the highest nonzero digit into a
   single int64 ``top`` (<= 60 bits — more than any n <= 16 format needs to
   round correctly) plus an exact ``sticky`` flag for every bit below.

The resulting :class:`NormalizedQuire` carries everything a format backend
needs to finish round-to-nearest-even without ever leaving numpy: the value
of each quire is ``(-1)**sign * ((top << shift) + low) * 2**lsb_exponent``
with ``low != 0`` iff ``sticky``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LIMB_BITS",
    "ROUNDING_MODES",
    "NormalizedQuire",
    "arithmetic_shift_round",
    "check_rounding_mode",
    "normalize_quire_limbs",
    "round_kept_bits",
    "words_as_quire",
    "bit_length_int64",
]

#: Rounding modes of the round-once output stage.  ``"rne"`` is the paper's
#: recommended round-to-nearest-even (for fixed point it names the paper's
#: native Fig. 3 floor stage); ``"rtz"`` rounds toward zero — the truncated
#: EMAC of the Section III-A ablation.
ROUNDING_MODES = ("rne", "rtz")


def check_rounding_mode(mode: str) -> str:
    """Validate (and return) a rounding-mode string."""
    if mode not in ROUNDING_MODES:
        raise ValueError(
            f"unknown rounding mode {mode!r} (expected one of {ROUNDING_MODES})"
        )
    return mode


def arithmetic_shift_round(values, shift: int, mode: str = "rne"):
    """Fixed-point output shift of signed int64 ``values`` by ``shift`` bits.

    ``"rne"`` names the paper's native Fig. 3 stage — an arithmetic shift
    right, i.e. floor; ``"rtz"`` floors the magnitude instead (round
    toward zero).  The single definition keeps the fixed backend and its
    compiled plans bit-identical by construction.
    """
    check_rounding_mode(mode)
    if mode == "rne":
        return values >> shift
    return np.where(values < 0, -((-values) >> shift), values >> shift)


def round_kept_bits(kept, guard, sticky, mode: str = "rne"):
    """Batched final rounding of a truncated pattern-space magnitude.

    ``kept`` holds the magnitude bits that fit the output format, ``guard``
    the first dropped bit, and ``sticky`` whether any lower magnitude bit is
    set (int or bool arrays; all elementwise).  RNE applies the classic
    ``guard AND (lsb OR sticky)`` increment; RTZ keeps the truncation —
    round toward zero *is* dropping the guard/sticky tail of a magnitude.
    """
    check_rounding_mode(mode)
    if mode == "rtz":
        return kept
    return kept + (guard & ((kept & 1) | sticky))

#: Width of one vector-engine limb.  Terms are ``product << (shift % LIMB_BITS)``
#: with products below 2**12 at the paper's widths, so per-limb partial sums
#: stay far below 2**53 and remain exact even through float64 staging.
#: (Canonical definition; :mod:`repro.core.accumulator` re-exports it.)
LIMB_BITS = 20

_LIMB_MASK = (1 << LIMB_BITS) - 1

#: Limbs gathered into ``top``; 3 * LIMB_BITS = 60 bits fits int64 and
#: covers the widest rounding window any n <= 16 format requires.
_TOP_LIMBS = 3


@dataclass(frozen=True)
class NormalizedQuire:
    """Sign/magnitude view of a batch of exact quires.

    Each quire's magnitude is ``(top << shift) + low`` where ``low`` is a
    discarded tail below the top three limbs: ``low < 2**shift`` and
    ``low != 0`` iff ``sticky``.  All arrays share the batch shape.
    """

    sign: np.ndarray  # bool
    top: np.ndarray  # int64, < 2**60; 0 iff the quire is zero
    top_bits: np.ndarray  # int64, bit length of ``top``
    shift: np.ndarray  # int64, weight (in bits) of ``top``'s LSB
    sticky: np.ndarray  # bool, any magnitude bit below ``top``
    is_zero: np.ndarray  # bool

    @property
    def total_bits(self) -> np.ndarray:
        """Bit length of each quire magnitude."""
        return self.top_bits + self.shift


def bit_length_int64(x: np.ndarray) -> np.ndarray:
    """Elementwise ``int.bit_length`` for non-negative int64 arrays.

    ``frexp`` gives the bit length of the float64-rounded value; values just
    below a power of two can round up and report one bit too many, so the
    estimate is checked against the integer and corrected.
    """
    v = np.asarray(x, dtype=np.int64)
    _, e = np.frexp(v.astype(np.float64))
    e = e.astype(np.int64)
    over = (v >> np.clip(e - 1, 0, 63)) == 0
    return np.where(v > 0, e - over, 0)


def words_as_quire(words: np.ndarray) -> NormalizedQuire:
    """Sign/magnitude view of *single-word* exact quires.

    Each int64 ``word`` is a whole quire value in quire-LSB units
    (``|word| < 2**62`` so the magnitude keeps a headroom bit).  The
    single-word encoders use this for quires a plan proves fit one word:
    no limb normalization, no sticky tail — the magnitude *is* the exact
    ``top``.
    """
    w = np.asarray(words, dtype=np.int64)
    sign = w < 0
    mag = np.where(sign, -w, w)
    return NormalizedQuire(
        sign=sign,
        top=mag,
        top_bits=bit_length_int64(mag),
        shift=np.zeros(w.shape, dtype=np.int64),
        sticky=np.zeros(w.shape, dtype=bool),
        is_zero=w == 0,
    )


def normalize_quire_limbs(limbs: np.ndarray) -> NormalizedQuire:
    """Normalize unnormalized int64 limb vectors along the last axis.

    ``limbs[..., i]`` carries weight ``2**(i * LIMB_BITS)``; entries may be
    negative or exceed the limb radix.  The represented integers must fit in
    the given limbs with at least one limb of sign headroom (guaranteed by
    the engines' ``_num_limbs`` sizing).
    """
    digits = np.asarray(limbs, dtype=np.int64)
    if digits.shape[-1] < _TOP_LIMBS:
        pad = [(0, 0)] * (digits.ndim - 1) + [(0, _TOP_LIMBS - digits.shape[-1])]
        digits = np.pad(digits, pad)
    else:
        digits = digits.copy()
    num = digits.shape[-1]

    # Carry propagation: canonical digits in [0, 2**LIMB_BITS) + sign carry.
    carry = np.zeros(digits.shape[:-1], dtype=np.int64)
    for i in range(num):
        v = digits[..., i] + carry
        digits[..., i] = v & _LIMB_MASK
        carry = v >> LIMB_BITS
    if np.any((carry != 0) & (carry != -1)):
        raise OverflowError("quire exceeds its limb allocation")
    sign = carry < 0

    # Two's-complement negatives back to magnitude digits.
    if np.any(sign):
        inc = np.ones(digits.shape[:-1], dtype=np.int64)
        neg = np.empty_like(digits)
        for i in range(num):
            v = (_LIMB_MASK - digits[..., i]) + inc
            neg[..., i] = v & _LIMB_MASK
            inc = v >> LIMB_BITS
        digits = np.where(sign[..., None], neg, digits)

    nonzero = digits != 0
    is_zero = ~nonzero.any(axis=-1)
    # Highest nonzero digit; all-zero rows are pinned to 0 so every derived
    # field (top, shift, sticky) comes out canonical for them.
    high = (num - 1) - np.argmax(nonzero[..., ::-1], axis=-1)
    high = np.where(is_zero, 0, high)
    anchor = np.maximum(high, _TOP_LIMBS - 1)

    gather = anchor[..., None] - np.arange(_TOP_LIMBS - 1, -1, -1)
    window = np.take_along_axis(digits, gather, axis=-1)  # little-endian
    top = np.zeros(digits.shape[:-1], dtype=np.int64)
    for i in range(_TOP_LIMBS - 1, -1, -1):
        top = (top << LIMB_BITS) | window[..., i]

    # Sticky: any nonzero digit strictly below the gathered window.
    below = anchor - (_TOP_LIMBS - 1)
    counts = np.cumsum(nonzero, axis=-1)
    probe = np.clip(below - 1, 0, num - 1)
    low_counts = np.take_along_axis(counts, probe[..., None], axis=-1)[..., 0]
    sticky = (below > 0) & (low_counts > 0)

    return NormalizedQuire(
        sign=sign & ~is_zero,
        top=top,
        top_bits=bit_length_int64(top),
        shift=below * LIMB_BITS,
        sticky=sticky,
        is_zero=is_zero,
    )
