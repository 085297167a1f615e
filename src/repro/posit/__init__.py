"""Posit (Type III unum) arithmetic.

Parametric ``(n, es)`` posits: format descriptors, bit-level decode
(paper Algorithm 1), round-to-nearest-even encode (paper Algorithm 2's
convergent rounding), a correctly rounded scalar :class:`Posit` value type,
the exact :class:`Quire` accumulator (paper eq. 4), and lookup tables for
vectorized processing.
"""

from .format import PositFormat, posit8, posit16, posit32, standard_format
from .decode import DecodedPosit, decode, regime_of_run, regime_run_length
from .encode import encode_exact, encode_float, encode_fraction
from .value import NaRError, Posit
from .quire import Quire
from .tables import (
    PositTables,
    dequantize_array,
    quantize_array,
    tables_for,
)

__all__ = [
    "PositFormat",
    "posit8",
    "posit16",
    "posit32",
    "standard_format",
    "DecodedPosit",
    "decode",
    "regime_of_run",
    "regime_run_length",
    "encode_exact",
    "encode_float",
    "encode_fraction",
    "NaRError",
    "Posit",
    "Quire",
    "PositTables",
    "tables_for",
    "quantize_array",
    "dequantize_array",
]
