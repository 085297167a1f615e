"""Wide exact accumulators and limb arithmetic.

The EMACs accumulate products in registers far wider than a machine word
(the paper's eq. (3) accumulator and eq. (4) quire).  Two representations
are used:

* scalar: :class:`ExactAccumulator`, a Python big integer with a fixed
  binary point — arbitrarily wide, used by the reference EMAC models;
* vector: base-``2**LIMB_BITS`` limbs held in numpy int64 arrays, which
  the compiled plans hand to the batched round-once stage for quires too
  wide for one int64 word (:mod:`repro.formats.network`).  Terms are
  bounded so that per-limb partial sums stay exactly representable, and
  :func:`combine_limbs` reconstitutes the exact Python integer.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..formats.quire import LIMB_BITS

__all__ = [
    "LIMB_BITS",
    "ExactAccumulator",
    "combine_limbs",
    "combine_limb_matrix",
]


class ExactAccumulator:
    """A fixed-point accumulator of unbounded width.

    The value is ``acc * 2**lsb_exponent`` where ``acc`` is a Python int.
    ``add_product`` accepts terms expressed at any binary position at or
    above the LSB.
    """

    __slots__ = ("lsb_exponent", "_acc", "_count")

    def __init__(self, lsb_exponent: int):
        self.lsb_exponent = lsb_exponent
        self._acc = 0
        self._count = 0

    @property
    def raw(self) -> int:
        """Integer contents (value = raw * 2**lsb_exponent)."""
        return self._acc

    @property
    def count(self) -> int:
        """Number of accumulated terms since the last reset."""
        return self._count

    def reset(self, raw: int = 0) -> None:
        """Clear (or preload, for a bias) the register."""
        self._acc = raw
        self._count = 0

    def add_term(self, signed_mantissa: int, exponent: int) -> None:
        """Accumulate ``signed_mantissa * 2**exponent`` exactly."""
        shift = exponent - self.lsb_exponent
        if shift < 0:
            raise ValueError(
                f"term exponent {exponent} below accumulator LSB {self.lsb_exponent}"
            )
        self._acc += signed_mantissa << shift
        self._count += 1

    def to_fraction(self) -> Fraction:
        """Exact rational value of the register."""
        if self.lsb_exponent >= 0:
            return Fraction(self._acc * (1 << self.lsb_exponent))
        return Fraction(self._acc, 1 << -self.lsb_exponent)

    def sign_and_magnitude(self) -> tuple[int, int]:
        """(sign, |raw|) of the register contents."""
        return (1, -self._acc) if self._acc < 0 else (0, self._acc)

    def bits_used(self) -> int:
        """Two's-complement width needed to hold the current contents."""
        mag = abs(self._acc)
        return mag.bit_length() + 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExactAccumulator(lsb=2**{self.lsb_exponent}, raw={self._acc})"


def combine_limbs(limbs: np.ndarray) -> int:
    """Exactly reconstruct the Python integer from int64 limbs.

    ``limbs[i]`` carries weight ``2**(i * LIMB_BITS)``; limbs may be negative
    or exceed the limb radix (they are *unnormalized* partial sums).
    """
    total = 0
    for i in range(len(limbs) - 1, -1, -1):
        total = (total << LIMB_BITS) + int(limbs[i])
    return total


def combine_limb_matrix(limbs: np.ndarray) -> list[int]:
    """Combine the trailing axis of an ``(..., L)`` limb array.

    Returns a flat list of Python ints in C order of the leading axes.
    """
    flat = limbs.reshape(-1, limbs.shape[-1])
    return [combine_limbs(row) for row in flat]
