"""Deep Positron core: exact MAC units and the DNN inference architecture.

The paper's primary contribution: three precision-adaptable EMAC soft cores
(fixed, float, posit), the exact wide accumulators behind them, a vectorized
bit-identical engine for dataset-scale runs, and the Deep Positron network
(per-neuron EMACs, local parameter memories, streaming control FSM timing).
"""

from .accumulator import ExactAccumulator, LIMB_BITS, combine_limbs
from .emac_base import Emac
from .emac_fixed import FixedEmac
from .emac_float import FloatEmac
from .emac_posit import PositEmac
from .vector import VectorEngine, engine_for
from .control import InferenceTiming, layer_cycles, network_timing
from .memory import BRAM_KBITS, LayerMemory
from .positron import PositronLayer, PositronNetwork, scalar_emac_for

__all__ = [
    "ExactAccumulator",
    "LIMB_BITS",
    "combine_limbs",
    "Emac",
    "FixedEmac",
    "FloatEmac",
    "PositEmac",
    "VectorEngine",
    "engine_for",
    "InferenceTiming",
    "layer_cycles",
    "network_timing",
    "LayerMemory",
    "BRAM_KBITS",
    "PositronLayer",
    "PositronNetwork",
    "scalar_emac_for",
]
