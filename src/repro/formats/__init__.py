"""Unified number-system backends for the EMAC architecture.

One :class:`NumericFormat` backend per number system (posit, small float,
fixed point), each bundling decode tables, bit-exact batched quantization,
the fully vectorized quire round-off stage, and the scalar EMAC factory —
plus a name-based registry so formats are addressed as ``posit8_1`` or
``posit<8,1>`` everywhere (CLI, sweeps, quantizers) instead of via
``isinstance`` chains.

    >>> from repro import formats
    >>> backend = formats.get("posit8_1")
    >>> engine = backend.engine()

Registering a new family (see :class:`~repro.formats.registry.FormatFamily`)
plugs it into the vector engine, scalar EMACs, quantizers, accuracy sweeps,
and the CLI with no further code changes.
"""

from .base import LimbTables, NumericFormat
from .network import (
    NetworkKernel,
    check_format_patterns,
    check_patterns,
    operand_values,
)
from .quire import (
    LIMB_BITS,
    ROUNDING_MODES,
    NormalizedQuire,
    arithmetic_shift_round,
    bit_length_int64,
    check_rounding_mode,
    floats_as_quire,
    normalize_quire_limbs,
    round_kept_bits,
    words_as_quire,
)
from .rounding import RoundTable, input_table, round_table
from .registry import (
    FormatFamily,
    available,
    backend_for,
    families,
    get,
    register_family,
    unregister_family,
)
from .fixed_backend import FixedBackend
from .float_backend import FloatBackend
from .posit_backend import PositBackend

__all__ = [
    "NumericFormat",
    "LimbTables",
    "check_patterns",
    "check_format_patterns",
    "NetworkKernel",
    "RoundTable",
    "round_table",
    "input_table",
    "operand_values",
    "LIMB_BITS",
    "ROUNDING_MODES",
    "NormalizedQuire",
    "arithmetic_shift_round",
    "check_rounding_mode",
    "floats_as_quire",
    "normalize_quire_limbs",
    "round_kept_bits",
    "words_as_quire",
    "bit_length_int64",
    "FormatFamily",
    "register_family",
    "unregister_family",
    "families",
    "get",
    "backend_for",
    "available",
    "PositBackend",
    "FloatBackend",
    "FixedBackend",
]
