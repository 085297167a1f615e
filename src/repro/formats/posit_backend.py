"""Posit backend: decode tables + batched Algorithm-2 convergent rounding.

``encode_normalized`` is the vectorized mirror of
:func:`repro.posit.encode.encode_exact`: the magnitude's top bits are
normalized so the hidden bit sits at a fixed position, the regime /
exponent / fraction body is assembled in pattern space with a padded
fraction window, and the classic ``guard AND (lsb OR sticky)`` increment is
applied to the truncated pattern — bit-identical to the scalar encoder by
construction (and by the property tests).  It rounds wide quires, the word
round tables' single-word quires and the input round tables' float64
inputs alike (:mod:`repro.formats.base` derives those entry points).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..posit import tables as pt
from ..posit.decode import decode as posit_decode
from ..posit.encode import encode_exact, encode_fraction
from ..posit.format import PositFormat
from .base import LimbTables, NumericFormat
from .quire import NormalizedQuire, check_rounding_mode, round_kept_bits

__all__ = ["PositBackend"]

#: Fraction bits carried into the pattern-space body below the exponent
#: field.  Must exceed ``n - 1`` so every dropped bit lands in guard/sticky;
#: 32 keeps the widest body (regime + es + window) well inside int64.
_FRAC_WINDOW = 32


class PositBackend(NumericFormat):
    """Backend over a :class:`~repro.posit.format.PositFormat`."""

    family = "posit"

    def __init__(self, fmt: PositFormat):
        if not isinstance(fmt, PositFormat):
            raise TypeError(f"PositBackend needs a PositFormat, got {type(fmt).__name__}")
        super().__init__(fmt)

    @property
    def name(self) -> str:
        """Canonical registry name ``posit{n}_{es}``."""
        return f"posit{self.fmt.n}_{self.fmt.es}"

    @property
    def quire_lsb_exponent(self) -> int:
        """Product of two minimum-scale aligned significands."""
        return 2 * (self.fmt.min_scale - self.fmt.max_fraction_bits)

    # ------------------------------------------------------------------
    def limb_tables(self) -> LimbTables:
        return self._memo("_limb_tables", self._build_limb_tables)

    def _build_limb_tables(self) -> LimbTables:
        fmt = self.fmt
        t = pt.tables_for(fmt)
        sign = t.sign.astype(np.int64)
        signed_sig = np.where(sign == 1, -t.significand, t.significand)
        shift = (t.scale.astype(np.int64) - fmt.min_scale) * ~(t.is_zero | t.is_nar)
        return LimbTables(
            signed_sig=signed_sig,
            shift=shift,
            invalid=t.is_nar,
            relu=t.relu.astype(np.int64),
            # An input value sig * 2**(scale - max_frac) sits this far above
            # the quire LSB beyond its own ``shift``.
            bias_extra_shift=fmt.max_fraction_bits - fmt.min_scale,
        )

    def round_boundaries(self, mode: str = "rne"):
        if mode == "rne":
            return pt.rounding_boundaries(self.fmt)
        return super().round_boundaries(mode)

    def decode_batch(self, patterns: np.ndarray) -> np.ndarray:
        return pt.dequantize_array(self.fmt, self._patterns(patterns))

    def relu_batch(self, patterns: np.ndarray) -> np.ndarray:
        t = pt.tables_for(self.fmt)
        return t.relu[self._patterns(patterns)].astype(np.uint32)

    # ------------------------------------------------------------------
    def encode_normalized(
        self, q: NormalizedQuire, mode: str = "rne"
    ) -> np.ndarray:
        check_rounding_mode(mode)
        fmt = self.fmt
        scale = self.quire_lsb_exponent + q.total_bits - 1
        # Any magnitude bit below the leading one?
        leading = np.int64(1) << np.maximum(q.top_bits - 1, 0)
        frac_nonzero = q.sticky | (q.top != leading)

        # General path: hidden bit normalized to position 62.
        norm = q.top << (63 - np.maximum(q.top_bits, np.int64(1)))
        frac = norm & ((np.int64(1) << 62) - 1)
        frac_top = frac >> (62 - _FRAC_WINDOW)
        sticky = q.sticky | ((frac & ((np.int64(1) << (62 - _FRAC_WINDOW)) - 1)) != 0)

        # Regime / exponent fields in pattern space (paper Algorithm 2).
        if fmt.es:
            k = scale >> fmt.es
            e = scale - (k << fmt.es)
        else:
            k = scale
            e = np.zeros_like(scale)
        k_pos = np.clip(k, 0, fmt.n)  # clip keeps the dead branch's shift legal
        regime = np.where(k >= 0, ((np.int64(1) << (k_pos + 1)) - 1) << 1, np.int64(1))
        regime_width = np.where(k >= 0, k + 2, 1 - k)

        body = (((regime << fmt.es) | e) << _FRAC_WINDOW) | frac_top
        # Lanes with out-of-range scales are overwritten below; clipping just
        # keeps their dead-branch shift amounts legal for int64.
        cut = np.clip(regime_width + fmt.es + _FRAC_WINDOW - (fmt.n - 1), 1, 63)
        pattern = body >> cut
        guard = (body >> (cut - 1)) & 1
        sticky_bit = ((body & ((np.int64(1) << (cut - 1)) - 1)) != 0) | sticky
        pattern = round_kept_bits(pattern, guard, sticky_bit, mode)
        pattern = np.minimum(pattern, fmt.maxpos_pattern)

        if mode == "rne":
            # RNE never produces zero from a nonzero value (posit standard:
            # round-down saturates at minpos) ...
            pattern = np.where(
                pattern == 0, np.int64(fmt.minpos_pattern), pattern
            )
            # Saturation rules ahead of the general path.
            pattern = np.where(
                (scale == fmt.max_scale) & frac_nonzero,
                np.int64(fmt.maxpos_pattern),
                pattern,
            )
            pattern = np.where(
                scale > fmt.max_scale, np.int64(fmt.maxpos_pattern), pattern
            )
            pattern = np.where(
                scale < fmt.min_scale, np.int64(fmt.minpos_pattern), pattern
            )
        else:
            # ... while truncation toward zero *does*: |value| < minpos
            # floors to the zero pattern, |value| > maxpos to maxpos.
            pattern = np.where(
                scale > fmt.max_scale, np.int64(fmt.maxpos_pattern), pattern
            )
            pattern = np.where(scale < fmt.min_scale, np.int64(0), pattern)

        pattern = np.where(q.sign, ((1 << fmt.n) - pattern) & fmt.mask, pattern)
        pattern = np.where(q.is_zero, np.int64(fmt.zero_pattern), pattern)
        return pattern.astype(np.uint32)

    def encode_from_quire_scalar(self, quire: int) -> int:
        if quire == 0:
            return self.fmt.zero_pattern
        sign, mag = (1, -quire) if quire < 0 else (0, quire)
        return encode_exact(self.fmt, sign, mag, self.quire_lsb_exponent)

    def truncate_scalar(self, value: Fraction) -> int:
        """Round toward zero: walk the RNE result down one ULP if it overshot."""
        if value == 0:
            return self.fmt.zero_pattern
        fmt = self.fmt
        bits = encode_fraction(fmt, value)
        got = posit_decode(fmt, bits).to_fraction()
        if abs(got) > abs(value):
            signed = bits - (1 << fmt.n) if bits & fmt.sign_mask else bits
            signed += -1 if value > 0 else 1
            bits = signed % (1 << fmt.n)
            if bits == fmt.nar_pattern:
                bits = 0
        return bits

    # ------------------------------------------------------------------
    def make_scalar_emac(self):
        from ..core.emac_posit import PositEmac

        return PositEmac(self.fmt)
