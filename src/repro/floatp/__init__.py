"""Parametric IEEE-style small floats (1 sign, we exponent, wf fraction bits).

Subnormal-correct decode/encode with round-to-nearest-even, clamping at the
maximum magnitude (the EMAC datapath never overflows to infinity), a scalar
:class:`FloatP` value type, and lookup tables for vectorized processing.
"""

from .format import FloatFormat, binary16, float8_143, float8_152, float_format
from .codec import DecodedFloat, decode, encode_exact, encode_float, encode_fraction
from .value import FloatP
from .tables import FloatTables, dequantize_array, tables_for

__all__ = [
    "FloatFormat",
    "float_format",
    "float8_143",
    "float8_152",
    "binary16",
    "DecodedFloat",
    "decode",
    "encode_exact",
    "encode_float",
    "encode_fraction",
    "FloatP",
    "FloatTables",
    "tables_for",
    "dequantize_array",
]
