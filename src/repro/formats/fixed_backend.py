"""Fixed-point backend.

Fixed point needs no decode tables (patterns *are* scaled integers), so
``limb_tables`` returns ``None`` and every plan layer computes exact
float64 digit-plane GEMMs over the signed integers (``_FixedStep`` in
:mod:`repro.formats.network`).
``encode_from_quire_batch`` is still provided — it applies the paper's
Fig. 3 output stage (shift right by ``q`` with floor, then clip) to quires
expressed as limbs, so the backend protocol is uniform across families and
the round-off property tests cover all of them.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..fixedpoint import codec as fx
from ..fixedpoint.format import FixedFormat
from .base import NumericFormat
from .quire import arithmetic_shift_round, normalize_quire_limbs

__all__ = ["FixedBackend"]


class FixedBackend(NumericFormat):
    """Backend over a :class:`~repro.fixedpoint.format.FixedFormat`."""

    family = "fixed"

    def __init__(self, fmt: FixedFormat):
        if not isinstance(fmt, FixedFormat):
            raise TypeError(f"FixedBackend needs a FixedFormat, got {type(fmt).__name__}")
        super().__init__(fmt)

    @property
    def name(self) -> str:
        """Canonical registry name ``fixed{n}_{q}``."""
        return f"fixed{self.fmt.n}_{self.fmt.q}"

    @property
    def quire_lsb_exponent(self) -> int:
        """Product grid LSB: ``2**(-2q)``."""
        return -2 * self.fmt.q

    # ------------------------------------------------------------------
    def quantize_batch(self, values: np.ndarray) -> np.ndarray:
        # The arithmetic quantizer beats a round-table lookup here.
        return fx.quantize_array(self.fmt, values)

    def quantize_reference(self, values: np.ndarray) -> np.ndarray:
        return fx.quantize_array(self.fmt, values)

    def decode_batch(self, patterns: np.ndarray) -> np.ndarray:
        return fx.dequantize_array(self.fmt, patterns)

    def relu_batch(self, patterns: np.ndarray) -> np.ndarray:
        return fx.relu_patterns(self.fmt, patterns)

    # ------------------------------------------------------------------
    def encode_from_quire_batch(
        self, limbs: np.ndarray, *, mode: str = "rne"
    ) -> np.ndarray:
        fmt = self.fmt
        q = normalize_quire_limbs(limbs)
        # Quires small enough to matter fit entirely in ``top`` (< 2**60);
        # anything wider saturates after the >> q output shift anyway.
        # ("rne" names the paper's native Fig. 3 floor stage, keeping the
        # pipeline-wide default-mode contract uniform across families.)
        exact = arithmetic_shift_round(
            np.where(q.sign, -q.top, q.top), fmt.q, mode
        )
        saturated = np.where(q.sign, np.int64(fmt.int_min), np.int64(fmt.int_max))
        raw = np.where(q.shift > 0, saturated, np.clip(exact, fmt.int_min, fmt.int_max))
        return ((raw & fmt.mask)).astype(np.uint32)

    def encode_from_quire_scalar(self, quire: int) -> int:
        raw = quire >> self.fmt.q  # arithmetic shift == floor
        raw = max(self.fmt.int_min, min(self.fmt.int_max, raw))
        return raw & self.fmt.mask

    def truncate_scalar(self, value: Fraction) -> int:
        fmt = self.fmt
        if value == 0:
            return 0
        scaled = value * (1 << fmt.q)
        raw = scaled.numerator // scaled.denominator
        if value < 0 and scaled.denominator != 1 and scaled.numerator % scaled.denominator:
            raw += 1  # floor -> toward zero for negatives
        raw = max(fmt.int_min, min(fmt.int_max, raw))
        return raw & fmt.mask

    # ------------------------------------------------------------------
    def make_engine(self):
        from ..core.vector import FixedVectorEngine

        return FixedVectorEngine(self.fmt)

    def make_scalar_emac(self):
        from ..core.emac_fixed import FixedEmac

        return FixedEmac(self.fmt)
