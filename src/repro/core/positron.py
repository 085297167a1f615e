"""Deep Positron — the paper's DNN inference architecture (Fig. 1).

A :class:`PositronNetwork` is a sequence of :class:`PositronLayer` objects.
Each layer owns local weight and bias memories holding *bit patterns* of the
network's numerical format, and computes every neuron with an exact
multiply-and-accumulate: products of the low-precision inputs are
accumulated exactly and rounded once back to the ``n``-bit format.  Hidden
layers apply ReLU (exact on patterns: negative -> zero); the readout layer
is affine ("identity" activation), and classification argmaxes the readout
patterns directly through the format's monotone rank table (identical to
argmaxing the decoded values, without the float64 decode).

Building a layer only validates its parameters; nothing is compiled until
the first whole-network call.  ``forward_patterns`` / ``predict_patterns``
then ride a cached fused plan (:meth:`PositronNetwork.network_kernel`,
:mod:`repro.formats.network`) that chains the layers through fused
round-once / pattern-ReLU / operand-gather epilogues with a fixed words
path per layer.

Two execution paths produce identical bits:

* the fused plan — :meth:`PositronNetwork.forward_patterns`, and
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
# so a network's cached fused plan can detect staleness by comparing epoch
# signatures (ids are unreliable — CPython reuses them after GC).
_EPOCHS = itertools.count(1)


def _common_mode(layers, requested: str | None = None) -> str:
    """The one rounding mode of ``layers`` (and ``requested``); a mismatch
    is the caller's to resolve, never a silent recompile of their layers."""
    modes = {layer.rounding_mode for layer in layers} | {requested} - {None}
    if len(modes) != 1:
        raise ValueError(
            f"inconsistent rounding modes {sorted(modes)}; construct "
            "layers with the desired mode or use with_rounding_mode()"
        )
    return modes.pop()


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
    engine:
        The vectorized EMAC engine (shared across layers of one network).
    rounding_mode:
        Round-once output stage of every EMAC in the layer: ``"rne"``
        (default) or ``"rtz"`` (round toward zero, the truncated-EMAC
        ablation).  :meth:`forward` rounds in it, and so does the plan of
        a network whose layers all share it (see
        :attr:`PositronNetwork.rounding_mode`).
    """

    fmt: object
    weights: np.ndarray
    bias: np.ndarray
    activation: Activation
    engine: VectorEngine
    rounding_mode: str = "rne"

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.uint32)
        self.bias = np.asarray(self.bias, dtype=np.uint32)
        if self.weights.ndim != 2:
            raise ValueError("weights must be (out, in)")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError("bias shape must match the output dimension")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        self.recompile()

    def recompile(self) -> None:
        """Re-validate the parameters and invalidate cached plans.

        Rejects an unknown rounding mode and NaR, reserved or out-of-range
        weight and bias patterns.  Call again after mutating
        ``weights``/``bias``/``rounding_mode`` in place: the fresh epoch
        makes the network's cached fused plan recompile on next use.
        """
        formats.check_rounding_mode(self.rounding_mode)
        backend = formats.backend_for(self.fmt)
        formats.check_format_patterns(backend, self.weights, "weights")
        formats.check_format_patterns(backend, self.bias, "bias")
        # Stamp the parameters so cached whole-network plans notice them.
        self._epoch = next(_EPOCHS)

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
            [(self.weights, self.bias, self.activation)],
            rounding_mode=self.rounding_mode,
        )
        return plan.forward(np.asarray(patterns, dtype=np.uint32))

    def forward_scalar(self, patterns: Sequence[int]) -> list[int]:
        """One-sample reference path: one scalar EMAC per neuron."""
        emac = scalar_emac_for(self.fmt)
        outputs = []
        for o in range(self.out_features):
            bits = emac.dot(
                [int(w) for w in self.weights[o]],
                [int(p) for p in patterns],
                bias_bits=int(self.bias[o]),
            )
            outputs.append(bits)
        if self.activation == "relu":
            relu = self.engine.relu(np.asarray(outputs, dtype=np.uint32))
            outputs = [int(b) for b in relu]
        return outputs


class PositronNetwork:
    """A Deep Positron inference network.

    Build one with :meth:`from_arrays` (pattern arrays) or
    :meth:`from_float_params` (trained float parameters, quantized here).
    """

    def __init__(
        self,
        fmt,
        layers: Sequence[PositronLayer],
        rounding_mode: str | None = None,
    ):
        if not layers:
            raise ValueError("network needs at least one layer")
        for first, second in zip(layers, layers[1:]):
            if first.out_features != second.in_features:
                raise ValueError(
                    f"layer size mismatch: {first.out_features} -> "
                    f"{second.in_features}"
                )
        self.fmt = fmt
        self.layers = list(layers)
        self.engine = layers[0].engine
        if rounding_mode is not None:
            formats.check_rounding_mode(rounding_mode)
        _common_mode(self.layers, rounding_mode)
        self._mode_twins: dict[str, "PositronNetwork"] = {}
        self._network_plan = None  # (epoch signature, fused NetworkKernel)

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        fmt,
        weight_arrays: Sequence[np.ndarray],
        bias_arrays: Sequence[np.ndarray],
        engine: VectorEngine | None = None,
        rounding_mode: str = "rne",
    ) -> "PositronNetwork":
        """Assemble from pattern arrays; last layer gets identity activation."""
        if len(weight_arrays) != len(bias_arrays):
            raise ValueError("need one bias array per weight array")
        engine = engine or engine_for(fmt)
        layers = []
        last = len(weight_arrays) - 1
        for i, (w, b) in enumerate(zip(weight_arrays, bias_arrays)):
            activation = "identity" if i == last else "relu"
            layers.append(
                PositronLayer(fmt, w, b, activation, engine, rounding_mode)
            )
        return cls(fmt, layers)

    @classmethod
    def from_float_params(
        cls,
        fmt,
        weight_arrays: Sequence[np.ndarray],
        bias_arrays: Sequence[np.ndarray],
        rounding_mode: str = "rne",
    ) -> "PositronNetwork":
        """Quantize trained float parameters into a Deep Positron network."""
        engine = engine_for(fmt)
        weights = [engine.quantize(np.asarray(w)) for w in weight_arrays]
        biases = [engine.quantize(np.asarray(b)) for b in bias_arrays]
        return cls.from_arrays(
            fmt, weights, biases, engine=engine, rounding_mode=rounding_mode
        )

    def with_rounding_mode(self, rounding_mode: str) -> "PositronNetwork":
        """A sibling network on the *same* pattern arrays, re-rounded.

        The twin shares weight/bias arrays and the memoized engine; only
        the compiled plan differs (its round-once output stage).  The
        rounding-mode ablations use this to deploy one quantized model
        under both modes without re-quantizing.  Twins are cached per mode
        so repeated ablation passes compile once; like ``recompile()``,
        mutating parameter arrays in place afterwards requires recompiling
        the twin's layers too.
        """
        formats.check_rounding_mode(rounding_mode)
        if rounding_mode == self.rounding_mode:
            return self
        twin = self._mode_twins.get(rounding_mode)
        if twin is None or twin.rounding_mode != rounding_mode:
            layers = [
                PositronLayer(
                    self.fmt,
                    layer.weights,
                    layer.bias,
                    layer.activation,
                    layer.engine,
                    rounding_mode,
                )
                for layer in self.layers
            ]
            twin = self._mode_twins[rounding_mode] = type(self)(
                self.fmt, layers
            )
            # Seed the back-link so mode round-trips are free.
            twin._mode_twins[self.rounding_mode] = self
        return twin

    # ------------------------------------------------------------------
    @property
    def rounding_mode(self) -> str:
        """The layers' common round-once mode, which the plan compiles in."""
        return _common_mode(self.layers)

    @property
    def topology(self) -> tuple[int, ...]:
        """(inputs, hidden..., outputs) neuron counts."""
        return (self.layers[0].in_features,) + tuple(
            layer.out_features for layer in self.layers
        )

    def recompile(self) -> None:
        """Recompile every layer (and cached mode twins') in place.

        Call after mutating any layer's ``weights``/``bias``/``rounding_mode``
        (modes must still agree).  The fresh layer epochs invalidate the
        cached fused plans (:meth:`network_kernel`) of this network and its
        twins, so the next ``forward_patterns`` / ``predict_patterns``
        recompiles them.
        """
        for layer in self.layers:
            layer.recompile()
        for twin in self._mode_twins.values():
            for layer in twin.layers:
                layer.recompile()
        _common_mode(self.layers)

    def network_kernel(self):
        """The whole network compiled into one fused plan, cached.

        Chains every layer through fused round-once / pattern-space ReLU /
        operand-gather epilogues with a fixed words path per layer
        (see :mod:`repro.formats.network`).  The first call is the
        network's only compile.  The cache is keyed by the layers' epochs,
        so any :meth:`PositronLayer.recompile` — a weight mutation, a
        rounding-mode change — invalidates it.
        """
        signature = tuple(layer._epoch for layer in self.layers)
        cached = self._network_plan
        if cached is not None and cached[0] == signature:
            return cached[1]
        plan = formats.backend_for(self.fmt).compile_network(
            [(l.weights, l.bias, l.activation) for l in self.layers],
            rounding_mode=self.rounding_mode,
        )
        self._network_plan = (signature, plan)
        return plan

    def forward_patterns(self, patterns: np.ndarray) -> np.ndarray:
        """Exact forward pass: ``(batch, in)`` patterns -> output patterns.

        Runs the fused network plan (:meth:`network_kernel`): intermediate
        activations never materialize beyond their patterns, and usually
        not even that — each epilogue hands the next layer its operands
        directly.  Bit-identical to :meth:`forward_scalar`, row by row.
        """
        out = np.asarray(patterns, dtype=np.uint32)
        if out.ndim == 1:
            out = out[None, :]
        return self.network_kernel().forward(out)

    def forward_scalar(self, patterns: Sequence[int]) -> list[int]:
        """Single-sample reference forward pass through scalar EMACs."""
        current = [int(p) for p in patterns]
        for layer in self.layers:
            current = layer.forward_scalar(current)
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
        out = np.asarray(patterns, dtype=np.uint32)
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
