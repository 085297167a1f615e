"""repro — a reproduction of "Deep Positron: A Deep Neural Network Using the
Posit Number System" (Carmichael et al., DATE 2019).

Subpackages
-----------
``repro.posit``
    Parametric posit arithmetic: decode/encode, scalar values, quire, tables.
``repro.floatp``
    Parametric IEEE-style small floats with subnormals.
``repro.fixedpoint``
    Q-format fixed point.
``repro.core``
    The paper's contribution: exact MAC (EMAC) soft cores for all three
    formats, a vectorized bit-identical engine, and the Deep Positron DNN
    inference architecture.
``repro.nn``
    From-scratch numpy MLP training substrate and format quantizers.
``repro.datasets``
    The three evaluation datasets (seeded generators; see DESIGN.md for the
    documented substitutions).
``repro.hw``
    Virtex-7-class structural synthesis model: LUTs, Fmax, power, EDP.
``repro.formats``
    The unified number-system backend registry: one ``NumericFormat`` per
    system (decode tables, batched quantize/round-off, compiled network
    plans, the scalar EMAC factory), addressed by name
    (``formats.get("posit8_1")``).
``repro.analysis``
    Experiment drivers reproducing every table and figure.
"""

from . import formats
from .core import (
    FixedEmac,
    FloatEmac,
    PositEmac,
    PositronNetwork,
    engine_for,
)
from .fixedpoint import Fixed, FixedFormat, fixed_format
from .floatp import FloatFormat, FloatP, float_format
from .posit import Posit, PositFormat, Quire, standard_format

__version__ = "1.0.0"

__all__ = [
    "formats",
    "Posit",
    "PositFormat",
    "Quire",
    "standard_format",
    "FloatP",
    "FloatFormat",
    "float_format",
    "Fixed",
    "FixedFormat",
    "fixed_format",
    "FixedEmac",
    "FloatEmac",
    "PositEmac",
    "PositronNetwork",
    "engine_for",
    "__version__",
]
