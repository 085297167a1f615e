"""Small-float backend: decode tables + batched IEEE-style RNE rounding.

``encode_from_quire_batch`` mirrors :func:`repro.floatp.codec.encode_exact`
tensor-wide: the kept significand window (normal or subnormal) is sliced out
of the normalized quire top, guard/sticky rounding is applied, and the
carry-out / overflow / subnormal cases are resolved with ``np.where`` chains
— bit-identical to the scalar encoder, including signed-zero underflow.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..floatp import tables as ft
from ..floatp.codec import decode as float_decode, encode_exact, encode_fraction
from ..floatp.format import FloatFormat
from .base import LimbTables, NumericFormat
from .quire import (
    NormalizedQuire,
    bit_length_int64,
    check_rounding_mode,
    normalize_quire_limbs,
    round_kept_bits,
    words_as_quire,
)

__all__ = ["FloatBackend"]


class FloatBackend(NumericFormat):
    """Backend over a :class:`~repro.floatp.format.FloatFormat`."""

    family = "float"

    def __init__(self, fmt: FloatFormat):
        if not isinstance(fmt, FloatFormat):
            raise TypeError(f"FloatBackend needs a FloatFormat, got {type(fmt).__name__}")
        super().__init__(fmt)

    @property
    def name(self) -> str:
        """Canonical registry name ``float{we}_{wf}``."""
        return f"float{self.fmt.we}_{self.fmt.wf}"

    @property
    def quire_lsb_exponent(self) -> int:
        """Product of two subnormal LSBs, ``2**(2 * min_scale)``."""
        return 2 * self.fmt.min_scale

    # ------------------------------------------------------------------
    def limb_tables(self) -> LimbTables:
        return self._memo("_limb_tables", self._build_limb_tables)

    def _build_limb_tables(self) -> LimbTables:
        fmt = self.fmt
        t = ft.tables_for(fmt)
        sign = t.sign.astype(np.int64)
        signed_sig = np.where(sign == 1, -t.significand, t.significand)
        shift = (t.scale.astype(np.int64) - (1 - fmt.bias)).clip(min=0)
        return LimbTables(
            signed_sig=signed_sig,
            shift=shift,
            invalid=t.is_reserved,
            relu=t.relu.astype(np.int64),
            max_shift=2 * (fmt.max_scale - (1 - fmt.bias)),
            sig_bits=fmt.wf + 1,
            # Input value = sig * 2**(scale - wf); over the quire LSB:
            # (scale - (1-bias)) + ((1-bias) - wf - 2*min_scale).
            bias_extra_shift=(1 - fmt.bias) - fmt.wf - 2 * fmt.min_scale,
        )

    def quantize_reference(self, values: np.ndarray) -> np.ndarray:
        return ft.quantize_array(self.fmt, values)

    def round_boundaries(self, mode: str = "rne"):
        if mode == "rne":
            return ft.rounding_boundaries(self.fmt)
        return super().round_boundaries(mode)

    def decode_batch(self, patterns: np.ndarray) -> np.ndarray:
        return ft.dequantize_array(self.fmt, patterns)

    def relu_batch(self, patterns: np.ndarray) -> np.ndarray:
        t = ft.tables_for(self.fmt)
        return t.relu[np.asarray(patterns, dtype=np.int64)].astype(np.uint32)

    # ------------------------------------------------------------------
    def encode_from_quire_batch(
        self, limbs: np.ndarray, *, mode: str = "rne"
    ) -> np.ndarray:
        return self._encode_normalized(normalize_quire_limbs(limbs), mode)

    def encode_from_quire_words(
        self, words: np.ndarray, *, mode: str = "rne"
    ) -> np.ndarray:
        return self._encode_normalized(words_as_quire(words), mode)

    def _encode_normalized(
        self, q: NormalizedQuire, mode: str = "rne"
    ) -> np.ndarray:
        check_rounding_mode(mode)
        fmt = self.fmt
        one = np.int64(1)
        scale = self.quire_lsb_exponent + q.total_bits - 1
        sign_term = np.where(q.sign, one << (fmt.n - 1), np.int64(0))
        max_pattern = (fmt.expmax << fmt.wf) | ((1 << fmt.wf) - 1)

        # Hidden bit normalized to position 62 (63-bit magnitude window).
        norm = q.top << (63 - np.maximum(q.top_bits, one))

        # Kept significand width: wf+1 for normals, pinned at the subnormal
        # grid near the bottom; <= 0 means the value is below half an ULP of
        # the smallest subnormal's MSB position.
        lsb_exp = np.maximum(scale - fmt.wf, fmt.min_scale)
        kept_width = scale - lsb_exp + 1
        kept = np.where(kept_width >= 1, norm >> np.clip(63 - kept_width, 0, 63), one * 0)
        guard_pos = np.clip(62 - kept_width, 0, 63)
        guard = (norm >> guard_pos) & 1
        sticky = ((norm & ((one << np.clip(guard_pos, 0, 62)) - 1)) != 0) | q.sticky
        rounded = round_kept_bits(kept, guard, sticky, mode)

        rounded_bits = bit_length_int64(rounded)
        subnormal = (lsb_exp == fmt.min_scale) & (rounded_bits <= fmt.wf)
        # Normal result: renormalize (rounding may have carried out; the
        # narrowing shift is then exact because the low bits are zero).
        new_scale = lsb_exp + rounded_bits - 1
        align = rounded_bits - (fmt.wf + 1)
        sig = np.where(
            align > 0,
            rounded >> np.clip(align, 0, 63),
            rounded << np.clip(-align, 0, 63),
        )
        frac = sig & ((1 << fmt.wf) - 1)
        normal_pattern = ((new_scale + fmt.bias) << fmt.wf) | frac

        pattern = np.where(subnormal, rounded, normal_pattern)
        pattern = np.where(new_scale > fmt.max_scale, np.int64(max_pattern), pattern)
        pattern = np.where(scale > fmt.max_scale, np.int64(max_pattern), pattern)
        pattern = np.where(rounded == 0, np.int64(0), pattern)
        pattern = pattern + sign_term  # signed zero included, as in the scalar
        pattern = np.where(q.is_zero, np.int64(0), pattern)
        return pattern.astype(np.uint32)

    def encode_from_quire_scalar(self, quire: int) -> int:
        if quire == 0:
            return 0
        sign, mag = (1, -quire) if quire < 0 else (0, quire)
        return encode_exact(self.fmt, sign, mag, self.quire_lsb_exponent)

    def truncate_scalar(self, value: Fraction) -> int:
        """Round toward zero: step the RNE result's magnitude down if it overshot."""
        if value == 0:
            return 0
        fmt = self.fmt
        bits = encode_fraction(fmt, value)
        got = float_decode(fmt, bits).to_fraction()
        if abs(got) > abs(value):
            sign = bits & fmt.sign_mask
            mag = bits & ~fmt.sign_mask & fmt.mask
            mag = max(0, mag - 1)
            bits = sign | mag
        return bits

    # ------------------------------------------------------------------
    def make_engine(self):
        from ..core.vector import FloatVectorEngine

        return FloatVectorEngine(self.fmt)

    def make_scalar_emac(self):
        from ..core.emac_float import FloatEmac

        return FloatEmac(self.fmt)
