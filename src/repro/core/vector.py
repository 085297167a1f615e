"""The vectorized exact EMAC engine.

Running Table II's experiments needs millions of exact MACs, far too many
for the scalar reference cores.  :class:`VectorEngine` computes them
*bit-identically* with numpy, for every registered family, by delegating
to its format backend: ``dot`` compiles ``(weights, bias)`` into a
one-layer fused plan (:meth:`~repro.formats.NumericFormat.compile_network`,
:mod:`repro.formats.network`) and runs it — the same production path a
whole network's forward takes, with its exact float64 digit-plane GEMMs —
and ``relu``, ``decode_values`` and ``quantize`` are the backend's batch
methods.

Engines are obtained from the format registry (``engine_for``, or a
backend's ``engine()``), which memoizes one per format key; the engine
itself knows nothing about concrete number systems.  Memoized engines are
shared process-wide and safe to use from multiple threads (plan scratch
buffers are per-thread, see :mod:`repro.formats.network`).  The
compile-then-run pipeline is described end to end in
``docs/architecture.md``.
"""

from __future__ import annotations

import numpy as np

from .. import formats

__all__ = ["VectorEngine", "engine_for"]


class VectorEngine:
    """Format-generic vectorized EMAC layer engine over one backend.

    All tensors of patterns are uint32 numpy arrays.  ``dot`` computes, for
    every (sample, output neuron) pair, the exact dot product of an input row
    with a weight row plus bias, rounded once — the same contract as running
    one scalar EMAC per output neuron.
    """

    def __init__(self, backend: formats.NumericFormat):
        #: The format backend whose plans and batch methods do the work.
        self.backend = backend

    @property
    def width(self) -> int:
        """Input pattern width in bits."""
        return self.backend.width

    def dot(
        self,
        weights: np.ndarray,
        activations: np.ndarray,
        bias: np.ndarray | None = None,
        *,
        rounding_mode: str = "rne",
    ) -> np.ndarray:
        """(out, in) weights x (batch, in) activations -> (batch, out).

        Runs a one-layer fused plan (identity activation).  Callers that
        reuse the same weights should compile once through
        ``backend.compile_network`` instead.  ``rounding_mode`` selects the
        round-once output stage: ``"rne"`` (default) or ``"rtz"`` (round
        toward zero, the truncated-EMAC ablation).
        """
        plan = self.backend.compile_network(
            [(weights, bias, "identity")], rounding_mode=rounding_mode
        )
        return plan.forward(activations)

    def relu(self, patterns: np.ndarray) -> np.ndarray:
        """Elementwise ReLU on patterns (negatives -> zero pattern)."""
        return self.backend.relu_batch(patterns)

    def decode_values(self, patterns: np.ndarray) -> np.ndarray:
        """Patterns -> float64 values (diagnostics / readout)."""
        return self.backend.decode_batch(patterns)

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """float array -> nearest patterns (uint32), bit-exact."""
        return self.backend.quantize_batch(values)


# The benchmark's span wrappers (``perfbench/layers.py``) patch ``quantize``
# on these two names, the engine classes that defined it before they were
# folded into one; they stay as aliases of that one class until the
# benchmark wraps ``VectorEngine.quantize`` itself.
FixedVectorEngine = TableVectorEngine = VectorEngine


def engine_for(fmt) -> VectorEngine:
    """The format's registered engine, memoized per format key.

    One shared instance per backend serves every consumer — sweeps,
    layers, and pool workers.
    """
    return formats.backend_for(fmt).engine()
