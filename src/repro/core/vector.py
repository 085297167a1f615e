"""Vectorized exact EMAC engines.

Running Table II's experiments needs millions of exact MACs, far too many
for the scalar reference cores.  These engines compute *bit-identical*
results with numpy:

* ``dot`` (one method on the base class, for every family) compiles
  ``(weights, bias)`` into a one-layer fused plan
  (:meth:`~repro.formats.NumericFormat.compile_network`,
  :mod:`repro.formats.network`) and runs it — the same production path a
  whole network's forward takes, with its exact float64 digit-plane GEMMs;
* ``TableVectorEngine.dot_reference`` retains the PR 1 path: every
  pattern's exact aligned value ``(-1)**sign * sig << shift`` decomposed
  into signed base-``2**LIMB_BITS`` digits, one float64 matmul per (l, m)
  digit-plane pair, ``limbs[b, o, k] = sum_{l+m=k} (A_m @ W_l.T)``, and the
  limb tensor rounded once by the backend's
  :meth:`~repro.formats.NumericFormat.encode_from_quire_batch` — an
  independent baseline for bit-identity tests and the throughput
  regression guard.

Engines are obtained from the format registry (``engine_for``); the engine
layer itself is format-agnostic and knows nothing about concrete number
systems.  Registry-memoized engines are shared process-wide and safe to
use from multiple threads (scratch buffers are per-thread, see
:mod:`repro.formats.kernels`).  The compile-then-run pipeline is described
end to end in ``docs/architecture.md``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .. import formats
from ..fixedpoint import codec as fx
from ..fixedpoint.format import FixedFormat
from .accumulator import LIMB_BITS

__all__ = [
    "VectorEngine",
    "FixedVectorEngine",
    "FloatVectorEngine",
    "PositVectorEngine",
    "TableVectorEngine",
    "digit_planes",
    "engine_for",
]

class VectorEngine(ABC):
    """Format-generic vectorized EMAC layer engine.

    All tensors of patterns are uint32 numpy arrays.  ``dot`` computes, for
    every (sample, output neuron) pair, the exact dot product of an input row
    with a weight row plus bias, rounded once — the same contract as running
    one scalar EMAC per output neuron.
    """

    #: The format backend whose plans compute ``dot``.
    backend: formats.NumericFormat

    @property
    @abstractmethod
    def width(self) -> int:
        """Input pattern width in bits."""

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
        return plan.forward(np.asarray(activations, dtype=np.uint32))

    @abstractmethod
    def relu(self, patterns: np.ndarray) -> np.ndarray:
        """Elementwise ReLU on patterns (negatives -> zero pattern)."""

    @abstractmethod
    def decode_values(self, patterns: np.ndarray) -> np.ndarray:
        """Patterns -> float64 values (diagnostics / readout)."""

    @abstractmethod
    def quantize(self, values: np.ndarray) -> np.ndarray:
        """float array -> nearest patterns (uint32)."""


def _validate_shapes(weights: np.ndarray, activations: np.ndarray, bias) -> None:
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D (out, in); got shape {weights.shape}")
    if activations.ndim != 2:
        raise ValueError(
            f"activations must be 2-D (batch, in); got shape {activations.shape}"
        )
    if weights.shape[1] != activations.shape[1]:
        raise ValueError(
            f"fan-in mismatch: weights {weights.shape} vs activations "
            f"{activations.shape}"
        )
    if bias is not None and bias.shape != (weights.shape[0],):
        raise ValueError(f"bias must have shape ({weights.shape[0]},)")


class FixedVectorEngine(VectorEngine):
    """Exact fixed-point dot products (Fig. 3 semantics) on one-layer plans."""

    def __init__(self, fmt: FixedFormat):
        if fmt.n > 16:
            raise ValueError("vector engine supports n <= 16")
        self.fmt = fmt
        self.backend = formats.backend_for(fmt)

    @property
    def width(self) -> int:
        """Input width ``n``."""
        return self.fmt.n

    def relu(self, patterns):
        """Negative patterns -> 0."""
        return fx.relu_patterns(self.fmt, patterns)

    def decode_values(self, patterns):
        """Patterns -> float64."""
        return fx.dequantize_array(self.fmt, patterns)

    def quantize(self, values):
        """float64 -> patterns (RNE, saturating)."""
        return fx.quantize_array(self.fmt, values)


def digit_planes(backend: formats.NumericFormat) -> np.ndarray:
    """The backend's signed base-``2**LIMB_BITS`` digit table, memoized.

    Entry ``[p, l]`` is pattern ``p``'s signed digit of weight
    ``2**(LIMB_BITS * l)`` in quire-LSB units of one *input*.  Digits are
    ``< 2**LIMB_BITS`` and stored as float64 (exactly representable) so the
    reference's digit-plane contractions run on BLAS.  Built once per
    backend; the registry caches backends per format key.
    """

    def build():
        tables = backend.limb_tables()
        if tables is None:
            raise TypeError(f"{backend.name} has no limb decode tables")
        sig = tables.signed_sig
        coarse, rem = np.divmod(tables.shift, LIMB_BITS)
        m = np.abs(sig) << rem  # < 2**(sig_bits + LIMB_BITS - 1), fits easily
        num = (tables.max_shift // 2 + tables.sig_bits) // LIMB_BITS + 2
        digits = np.zeros((sig.shape[0], num), dtype=np.int64)
        rows = np.arange(sig.shape[0])
        mask = (1 << LIMB_BITS) - 1
        for l in range((tables.sig_bits + LIMB_BITS - 1) // LIMB_BITS + 1):
            digits[rows, coarse + l] += (m >> (LIMB_BITS * l)) & mask
        digits *= np.sign(sig)[:, None]
        return digits.astype(np.float64)

    return backend._memo("_digit_planes", build)


class TableVectorEngine(VectorEngine):
    """Limb-accumulating engine over any table-driven format backend.

    The backend supplies the decode tables and the batched round-once
    output stage; this class only runs the exact accumulation.
    """

    def __init__(self, backend: formats.NumericFormat):
        tables = backend.limb_tables()
        if tables is None:
            raise TypeError(f"{backend.name} has no limb decode tables")
        self.backend = backend
        self.fmt = backend.fmt
        max_term_bits = 2 * tables.sig_bits + LIMB_BITS
        if max_term_bits > 62:
            raise ValueError("significand products too wide for int64 limbs")
        self._num_limbs = (tables.max_shift + max_term_bits) // LIMB_BITS + 2
        self._tables = tables
        # Shared per-backend signed digit table.
        self._digits = digit_planes(backend)

    @property
    def width(self) -> int:
        """Input width ``n``."""
        return self.fmt.n

    @property
    def num_limbs(self) -> int:
        """Limbs per quire in this engine's accumulation tensors."""
        return self._num_limbs

    # -- shared ---------------------------------------------------------
    def _check_patterns(self, patterns: np.ndarray, what: str) -> np.ndarray:
        # One validator serves this reference and the fused network plans
        # (which validate network inputs exactly once).
        return formats.check_patterns(self._tables, patterns, what)

    def dot_reference(self, weights, activations, bias=None, *, rounding_mode="rne"):
        """The PR 1 digit-plane-nest path, retained as the in-tree baseline
        for plan bit-identity tests and the throughput benchmark."""
        formats.check_rounding_mode(rounding_mode)
        weights = np.asarray(weights, dtype=np.uint32)
        activations = np.asarray(activations, dtype=np.uint32)
        _validate_shapes(weights, activations, bias)
        wp = self._check_patterns(weights, "weights")
        ap = self._check_patterns(activations, "activations")

        out_dim, in_dim = wp.shape
        batch = ap.shape[0]
        L = self._num_limbs
        planes = self._digits.shape[1]
        if in_dim > 1 << 20:
            raise ValueError(f"fan-in {in_dim} overflows int64 limb sums")
        # Digit products are < 2**(2*LIMB_BITS); each float64 matmul must
        # reduce few enough of them to stay exact, so huge fan-ins are fed
        # through in chunks and accumulated in int64.
        in_chunk = max(1, (1 << (53 - 2 * LIMB_BITS)) // max(1, planes))

        dig_w = self._digits[wp]  # (out, in, planes)
        dig_a = self._digits[ap]  # (batch, in, planes)
        w_live = [dig_w[:, :, l] for l in range(planes)]
        w_used = [w.any() for w in w_live]

        bias_limbs = self._bias_limbs(bias, out_dim)

        chunk = max(1, formats.kernels._CHUNK_ELEMENTS // max(1, out_dim * L))
        out = np.empty((batch, out_dim), dtype=np.uint32)
        for start in range(0, batch, chunk):
            stop = min(batch, start + chunk)
            limbs = np.zeros((stop - start, out_dim, L), dtype=np.int64)
            for istart in range(0, in_dim, in_chunk):
                istop = min(in_dim, istart + in_chunk)
                limbs_f = np.zeros((stop - start, out_dim, L), dtype=np.float64)
                for m in range(planes):
                    a_plane = dig_a[start:stop, istart:istop, m]
                    if not a_plane.any():
                        continue
                    for l in range(planes):
                        if w_used[l]:
                            limbs_f[:, :, l + m] += a_plane @ w_live[l][:, istart:istop].T
                limbs += limbs_f.astype(np.int64)
            if bias_limbs is not None:
                limbs += bias_limbs[None, :, :]
            out[start:stop] = self.backend.encode_from_quire_batch(
                limbs, mode=rounding_mode
            )
        return out

    def _bias_limbs(self, bias, out_dim: int) -> np.ndarray | None:
        """Each bias pattern as quire-aligned limbs, shape (out, L)."""
        if bias is None:
            return None
        t = self._tables
        bp = self._check_patterns(np.asarray(bias, dtype=np.uint32), "bias")
        sig = t.signed_sig[bp]
        total_shift = t.shift[bp] + t.bias_extra_shift
        idx = total_shift // LIMB_BITS
        rem = total_shift - idx * LIMB_BITS
        limbs = np.zeros((out_dim, self._num_limbs), dtype=np.int64)
        limbs[np.arange(out_dim), idx] = sig << rem
        return limbs

    def relu(self, patterns):
        """Table-driven ReLU (backend-delegated)."""
        return self.backend.relu_batch(patterns)

    def decode_values(self, patterns):
        """Table-driven decode to float64 (backend-delegated)."""
        return self.backend.decode_batch(patterns)

    def quantize(self, values):
        """float64 -> nearest patterns (backend-vectorized, bit-exact)."""
        return self.backend.quantize_batch(values)


class PositVectorEngine(TableVectorEngine):
    """Exact posit dot products (Fig. 5 / Algorithm 2 semantics)."""

    def __init__(self, fmt):
        backend = formats.backend_for(fmt)
        if not isinstance(backend, formats.PositBackend):
            raise TypeError(f"PositVectorEngine needs a posit format, got {fmt}")
        super().__init__(backend)


class FloatVectorEngine(TableVectorEngine):
    """Exact small-float dot products (Fig. 4 semantics)."""

    def __init__(self, fmt):
        backend = formats.backend_for(fmt)
        if not isinstance(backend, formats.FloatBackend):
            raise TypeError(f"FloatVectorEngine needs a float format, got {fmt}")
        super().__init__(backend)


def engine_for(fmt) -> VectorEngine:
    """The format's registered engine, memoized per format key.

    Engines are read-only once built, so one shared instance per backend
    serves every consumer — sweeps, layers, and pool workers stop
    rebuilding decode/digit tables per config.
    """
    return formats.backend_for(fmt).engine()
