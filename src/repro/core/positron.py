"""Deep Positron — the paper's DNN inference architecture (Fig. 1).

A :class:`PositronNetwork` is a sequence of :class:`PositronLayer` objects.
A layer is its format, its local weight and bias memories holding *bit
patterns* of that format, and its activation.  Every neuron is an exact
multiply-and-accumulate: products of the low-precision inputs are
accumulated exactly and rounded once back to the ``n``-bit format.  Hidden
layers apply ReLU (exact on patterns: negative -> zero); the readout layer
is affine ("identity" activation), and classification argmaxes the readout
patterns directly through the format's monotone rank table (identical to
argmaxing the decoded values, without the float64 decode).

How the round-once output stage rounds is not layer state but an argument
of each run: ``"rne"`` (the paper's round-to-nearest-even, the default) or
``"rtz"`` (round toward zero, the truncated-EMAC ablation).

Building a layer only validates its parameters; nothing is compiled until
the first whole-network call.  ``forward_patterns`` / ``predict_patterns``
then ride a cached fused plan (:meth:`PositronNetwork.network_kernel`,
:mod:`repro.formats.network`) that chains the layers through fused
round-once / pattern-ReLU / operand-gather epilogues with a fixed words
path per layer.

Two execution paths produce identical bits, in either rounding mode:

* the fused plan — :meth:`PositronNetwork.network_kernel` (which
  :meth:`PositronNetwork.forward_patterns` runs in ``"rne"``), and
  :meth:`PositronLayer.forward` as a one-layer plan (production path);
* :meth:`PositronLayer.forward_scalar` — one scalar EMAC per neuron, the
  oracle the plans are tested against, emulating the hardware datapath
  one MAC per cycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import formats
from .control import InferenceTiming, network_timing
from .emac_base import Emac
from .memory import LayerMemory
from .vector import VectorEngine, engine_for

__all__ = ["PositronLayer", "PositronNetwork", "Activation", "scalar_emac_for"]

Activation = str  # "relu" | "identity"
_ACTIVATIONS = ("relu", "identity")

# Monotonic parameter stamps: every layer (re)compile takes a fresh epoch,
# so a network's cached fused plans can detect staleness by comparing epoch
# signatures (ids are unreliable — CPython reuses them after GC).
_EPOCHS = itertools.count(1)


def scalar_emac_for(fmt) -> Emac:
    """Reference scalar EMAC for any registered format."""
    return formats.backend_for(fmt).make_scalar_emac()


@dataclass
class PositronLayer:
    """One fully connected layer with per-neuron EMACs and local memories.

    Attributes
    ----------
    fmt:
        Numerical format shared by weights, bias, inputs, and outputs.
    weights:
        ``(out, in)`` uint32 array of weight patterns.
    bias:
        ``(out,)`` uint32 array of bias patterns.
    activation:
        ``"relu"`` for hidden layers, ``"identity"`` for the readout.
    """

    fmt: object
    weights: np.ndarray
    bias: np.ndarray
    activation: Activation

    def __post_init__(self) -> None:
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        self.recompile()

    def recompile(self) -> None:
        """Re-validate the parameters and invalidate cached plans.

        Checks the arrays as given, before storing them as uint32: rejects
        shapes other than ``(out, in)`` / ``(out,)`` and non-integer, NaR,
        reserved or out-of-range weight and bias patterns.  Call again
        after mutating ``weights``/``bias`` in place: the fresh epoch makes
        the network's cached fused plans recompile on next use.
        """
        backend = formats.backend_for(self.fmt)
        weights = formats.check_format_patterns(backend, self.weights, "weights")
        bias = formats.check_format_patterns(backend, self.bias, "bias")
        if weights.ndim != 2:
            raise ValueError("weights must be (out, in)")
        if bias.shape != (weights.shape[0],):
            raise ValueError("bias shape must match the output dimension")
        self.weights = np.asarray(self.weights, dtype=np.uint32)
        self.bias = np.asarray(self.bias, dtype=np.uint32)
        # Stamp the parameters so cached whole-network plans notice them.
        self._epoch = next(_EPOCHS)

    @property
    def engine(self) -> VectorEngine:
        """The format's shared vectorized engine."""
        return engine_for(self.fmt)

    @property
    def in_features(self) -> int:
        """Fan-in ``k`` of each neuron's EMAC."""
        return self.weights.shape[1]

    @property
    def out_features(self) -> int:
        """Number of neurons (EMAC units) in the layer."""
        return self.weights.shape[0]

    @property
    def memory(self) -> LayerMemory:
        """Local memory footprint of this layer's parameters."""
        return LayerMemory.for_layer(
            self.out_features, self.in_features, self.engine.width
        )

    # ------------------------------------------------------------------
    def forward(self, patterns: np.ndarray) -> np.ndarray:
        """Exact forward pass on ``(batch, in)`` patterns: a one-layer plan."""
        plan = formats.backend_for(self.fmt).compile_network(
            [(self.weights, self.bias, self.activation)]
        )
        return plan.forward(patterns)

    def forward_scalar(
        self, patterns: Sequence[int], rounding_mode: str = "rne"
    ) -> list[int]:
        """One-sample reference path: one scalar EMAC per neuron.

        Each EMAC accumulates its products exactly and rounds once: by its
        own output stage for ``"rne"``, by the backend's ``truncate_scalar``
        of the exact accumulator for ``"rtz"``.
        """
        backend = formats.backend_for(self.fmt)
        truncate = formats.check_rounding_mode(rounding_mode) == "rtz"
        activations = [int(p) for p in patterns]
        if len(activations) != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input patterns, "
                f"got {len(activations)}"
            )
        emac = backend.make_scalar_emac()
        outputs = []
        for weights, bias in zip(self.weights.tolist(), self.bias.tolist()):
            emac.reset(bias)
            for w, a in zip(weights, activations):
                emac.step(w, a)
            outputs.append(
                backend.truncate_scalar(emac.accumulator_value())
                if truncate
                else emac.result()
            )
        if self.activation == "relu":
            outputs = backend.relu_batch(np.asarray(outputs, np.uint32)).tolist()
        return outputs


class PositronNetwork:
    """A Deep Positron inference network.

    Build one with :meth:`from_arrays` (pattern arrays) or
    :meth:`from_float_params` (trained float parameters, quantized here).
    Every layer must be of the network's format ``fmt``.
    """

    def __init__(self, fmt, layers: Sequence[PositronLayer]):
        if not layers:
            raise ValueError("network needs at least one layer")
        for layer in layers:
            if layer.fmt != fmt:
                raise ValueError(
                    f"layer of format {layer.fmt} in a {fmt} network"
                )
        for first, second in zip(layers, layers[1:]):
            if first.out_features != second.in_features:
                raise ValueError(
                    f"layer size mismatch: {first.out_features} -> "
                    f"{second.in_features}"
                )
        self.fmt = fmt
        self.layers = list(layers)
        self.engine = engine_for(fmt)
        # Rounding mode -> (epoch signature, fused NetworkKernel).
        self._plans: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        fmt,
        weight_arrays: Sequence[np.ndarray],
        bias_arrays: Sequence[np.ndarray],
    ) -> "PositronNetwork":
        """Assemble from pattern arrays; last layer gets identity activation."""
        if len(weight_arrays) != len(bias_arrays):
            raise ValueError("need one bias array per weight array")
        layers = []
        last = len(weight_arrays) - 1
        for i, (w, b) in enumerate(zip(weight_arrays, bias_arrays)):
            activation = "identity" if i == last else "relu"
            layers.append(PositronLayer(fmt, w, b, activation))
        return cls(fmt, layers)

    @classmethod
    def from_float_params(
        cls,
        fmt,
        weight_arrays: Sequence[np.ndarray],
        bias_arrays: Sequence[np.ndarray],
    ) -> "PositronNetwork":
        """Quantize trained float parameters into a Deep Positron network."""
        engine = engine_for(fmt)
        weights = [engine.quantize(np.asarray(w)) for w in weight_arrays]
        biases = [engine.quantize(np.asarray(b)) for b in bias_arrays]
        return cls.from_arrays(fmt, weights, biases)

    # ------------------------------------------------------------------
    @property
    def topology(self) -> tuple[int, ...]:
        """(inputs, hidden..., outputs) neuron counts."""
        return (self.layers[0].in_features,) + tuple(
            layer.out_features for layer in self.layers
        )

    def recompile(self) -> None:
        """Recompile every layer in place.

        Call after mutating any layer's ``weights``/``bias``.  The fresh
        layer epochs invalidate every cached fused plan
        (:meth:`network_kernel`), so the next call recompiles it.
        """
        for layer in self.layers:
            layer.recompile()

    def network_kernel(self, rounding_mode: str = "rne"):
        """The whole network compiled into one fused plan, cached per mode.

        Chains every layer through fused round-once / pattern-space ReLU /
        operand-gather epilogues with a fixed words path per layer
        (see :mod:`repro.formats.network`); the round-once stage rounds in
        ``rounding_mode``.  The first call per mode is that mode's only
        compile.  The cache is keyed by the layers' epochs, so any
        :meth:`PositronLayer.recompile` invalidates it.
        """
        signature = tuple(layer._epoch for layer in self.layers)
        cached = self._plans.get(rounding_mode)
        if cached is not None and cached[0] == signature:
            return cached[1]
        plan = formats.backend_for(self.fmt).compile_network(
            [(l.weights, l.bias, l.activation) for l in self.layers],
            rounding_mode=rounding_mode,
        )
        self._plans[rounding_mode] = (signature, plan)
        return plan

    def forward_patterns(self, patterns: np.ndarray) -> np.ndarray:
        """Exact forward pass: ``(batch, in)`` patterns -> output patterns.

        Runs the fused network plan (:meth:`network_kernel`): intermediate
        activations never materialize beyond their patterns, and usually
        not even that — each epilogue hands the next layer its operands
        directly.  Bit-identical to :meth:`forward_scalar`, row by row.
        """
        out = np.asarray(patterns)
        if out.ndim == 1:
            out = out[None, :]
        return self.network_kernel().forward(out)

    def forward_scalar(
        self, patterns: Sequence[int], rounding_mode: str = "rne"
    ) -> list[int]:
        """Single-sample reference forward pass through scalar EMACs."""
        current = [int(p) for p in patterns]
        for layer in self.layers:
            current = layer.forward_scalar(current, rounding_mode)
        return current

    def forward_values(self, inputs: np.ndarray) -> np.ndarray:
        """Quantize float inputs, run exactly, decode outputs to float64."""
        patterns = self.engine.quantize(np.asarray(inputs, dtype=np.float64))
        return self.engine.decode_values(self.forward_patterns(patterns))

    def predict_patterns(self, patterns: np.ndarray) -> np.ndarray:
        """Class prediction from input *patterns*, argmaxed in pattern space.

        The readout rows are never decoded: the backend's monotone rank
        table (:meth:`repro.formats.NumericFormat.rank_table`) orders
        patterns exactly as their values do — equal values share a rank —
        so ``argmax(rank[out])`` is identical to argmaxing the decoded
        float64 activations, ties included.  The fused plan composes that
        rank gather straight into the last layer's round-once epilogue, so
        the readout never materializes output patterns either.
        """
        out = np.asarray(patterns)
        if out.ndim == 1:
            out = out[None, :]
        return self.network_kernel().predict(out)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Class prediction: pattern-space argmax of the exact readout."""
        patterns = self.engine.quantize(np.asarray(inputs, dtype=np.float64))
        return self.predict_patterns(patterns)

    def accuracy(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on float inputs."""
        labels = np.asarray(labels)
        return float(np.mean(self.predict(inputs) == labels))

    # ------------------------------------------------------------------
    def timing(self) -> InferenceTiming:
        """Streaming dataflow timing of one inference (cycles)."""
        emac = scalar_emac_for(self.fmt)
        return network_timing(
            [layer.in_features for layer in self.layers], emac.pipeline_depth
        )

    def total_memory_bits(self) -> int:
        """Sum of all layers' local parameter memories, in bits."""
        return sum(layer.memory.total_bits for layer in self.layers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        topo = "-".join(str(t) for t in self.topology)
        return f"PositronNetwork({self.fmt}, topology={topo})"
