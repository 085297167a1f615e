"""Fused-epilogue network plans: the one production path for exact dots.

Every exact dot product in the library — a whole network's forward, one
``PositronLayer.forward``, one ``VectorEngine.dot`` — runs through a
:class:`NetworkKernel` plan (a single layer is a one-layer plan).  Computed
layer by layer, a forward would pay a full generic epilogue at every layer
boundary: the quire words run through the ~30-operation
``encode_from_quire_words`` rounding chain, ReLU is a separate gather pass,
and the next layer re-validates every activation pattern.  Profiling a
paper-sized posit8 network shows that epilogue machinery — not the GEMMs —
dominates such a forward.

A :class:`NetworkKernel` compiles a whole layer stack into one chained
plan in which intermediate activations never materialize beyond their
patterns (and usually not even as patterns — see *operand fusion* below):

* **Round-table epilogue.** In single-word mode every layer output is an
  exact int64 quire ``word``, and rounding is a monotone step function of
  it.  At compile time the step function's breakpoints are found by binary
  search *against the backend's own encoder* (:func:`round_table`), so the
  whole round-once stage becomes one ``searchsorted`` over at most
  ``2**n + 1`` int64 thresholds plus one table gather — bit-identical to
  ``encode_from_quire_words`` by construction, for both rounding modes.
* **Operand fusion.** The gather does not produce patterns and stop: the
  slot table is pre-composed with this layer's pattern-space ReLU map and
  with whatever representation the *next* layer consumes (its exact
  operand values as float64, its pattern indices, or nothing but a rank
  for the readout).  Round-once -> ReLU -> next layer's operand gather is
  a single slot lookup + ``take`` into the next layer's preallocated
  activation buffer.
* **Fused readout.** ``predict`` composes the last layer's slot table with
  the format's monotone rank table, so classification is
  ``argmax(searchsorted(...))`` — no float64 decode, no pattern
  materialization for the readout rows.
* **Inputs are validated once** per forward call, not once per layer.

Per-layer words paths
---------------------
Each layer's *words computation* is a fixed function of the layer, chosen
at compile time with no timing, so every process builds the same plan for
the same network:

``plane``
    Exact integer products from float64 BLAS GEMMs, as in the Ozaki
    scheme (Ozaki, Ogita, Oishi & Rump, *Numer. Algorithms* 59, 2012):
    operands are exact integers (aligned values ``signed_sig << shift`` in
    quire-LSB units, or fixed point's signed integers) cut into signed
    digits of the widest width that keeps every GEMM sum exact
    (:class:`_PlaneWords`); the int64 casts of the plane GEMMs, shifted
    into place, add up to the quire word.  With one plane (every layer of
    the paper's trained models) the step is a single GEMM over operand
    values that the previous epilogue hands over as float64.  Taken by
    every single-word layer (quire bound below ``2**62``) that has such a
    digit width.
``layer``
    The one wide-quire fallback: the limb kernel
    (:class:`~repro.formats.kernels.TableLayerKernel`, one stacked
    digit-plane GEMM plus limb normalization) and a composed epilogue
    gather.  Used when the quire bound exceeds int64 (maxpos-heavy
    weights, 16-bit posits).

Fixed point computes its words the same way over its signed integers and
keeps the Fig. 3 shift-round-clip epilogue inline (its clipped signed
outputs *are* monotone ranks, so the fused readout is a plain argmax).  A
family must provide limb tables or be fixed point; compiling a plan for
any other backend raises ``TypeError``.

Exactness: ``plane`` and ``layer`` compute the same exact quire, and a
``plane`` word goes through the same oracle-derived round table as any
other int64 word — so every plan is bit-identical to the scalar EMACs
(property-tested across every registered format, both rounding modes,
single- and multi-plane layers, and every forced path in
``tests/formats/test_network_kernel.py``).

Obtain plans through :meth:`repro.formats.NumericFormat.compile_network`
(or ``PositronNetwork.network_kernel()``, which recompiles automatically
after ``recompile()``); ``explain()`` reports each layer's path, its
eligible paths, plane count, quire-bound bits and compiled-table
footprint — surfaced as ``python -m repro formats --explain
DATASET:FORMAT``.
"""

from __future__ import annotations

import numpy as np

from ..fixedpoint import codec as fx
from . import kernels as _kernels
from .base import NumericFormat
from .fixed_backend import FixedBackend
from .kernels import (
    TableLayerKernel,
    _check_weights,
    _scratch,
    check_format_patterns,
    check_patterns,
)
from .quire import arithmetic_shift_round, bit_length_int64, check_rounding_mode

__all__ = [
    "NetworkKernel",
    "RoundTable",
    "operand_values",
    "round_table",
    "NETWORK_PATHS",
]

#: Per-layer words-computation paths (``force_path`` values).
NETWORK_PATHS = ("plane", "layer")

#: Single-word quires are bounded by ``|word| < 2**62``; the round tables
#: cover exactly that window.
_WORD_CAP = np.int64(1) << 62

#: Every sum of a ``plane`` GEMM stays an integer below ``2**_EXACT_BITS``,
#: inside float64's exact-integer range (``2**53``).
_EXACT_BITS = 52

#: Mantissa-bit depth range of the round-table bucket grid: the smallest
#: ``m`` whose buckets separate all boundaries wins.  Adjacent boundaries
#: (format-value midpoints) differ relatively by >= ~2**-(fraction+2), so
#: ``m`` lands near the format width; the cap bounds the dense tables at
#: ``128 << m`` entries (~4 MiB) per backend and rounding mode.
_ROUND_KEY_MIN_M = 4
_ROUND_KEY_MAX_M = 18


# ----------------------------------------------------------------------
# Memoized exact integer tables
# ----------------------------------------------------------------------
def operand_values(backend: NumericFormat) -> np.ndarray:
    """Per-pattern exact integer operand value, as float64, memoized.

    Table formats: the aligned value ``signed_sig << shift`` (a product of
    two is its exact quire-word contribution); invalid patterns map to 0.
    Fixed point: the signed integer the pattern scales.
    """

    def build():
        t = backend.limb_tables()
        if t is None:
            signed = fx.signed_array(backend.fmt, np.arange(1 << backend.width))
            return signed.astype(np.float64)
        values = np.ldexp(t.signed_sig.astype(np.float64), t.shift)
        values[t.invalid] = 0.0
        return values

    return backend._memo("_operand_values", build)


class _PlaneWords:
    """Exact int64 words ``A @ W.T`` of integer operands, on float64 GEMMs.

    ``values`` (per pattern), ``w_vals`` (``(out, in)``) and ``b_vals`` (bias
    words or ``None``) are exact float64 integers.  ``quire_bits`` bounds
    every quire, ``S * max|a| + max|b|`` plus two guard bits, with
    ``S = max_o sum_i |w_oi|``.  Operands are cut into signed digits of
    ``digit_bits = 52 - bitlen(S)`` bits, so each plane's GEMM sums stay
    below ``S * 2**digit_bits < 2**52`` in any order (float64 ``S`` is exact
    below ``2**53``).  ``planes = ceil(a_bits / digit_bits)``, or 0 if the
    layer is not single-word or ``digit_bits < 1``.  With one plane the
    digit is the value, so the step consumes float64 values (``wants ==
    "value"``); with more it gathers each plane's digits by pattern.
    """

    def __init__(self, values, w_vals, b_vals):
        self.w_t = np.ascontiguousarray(w_vals.T)
        mag = np.abs(values)
        act_max = float(mag.max(initial=0.0))
        s = float(np.abs(w_vals).sum(axis=1).max(initial=0.0))
        b_max = 0.0 if b_vals is None else float(np.abs(b_vals).max(initial=0.0))
        bound = s * act_max + b_max
        self.quire_bits = int(np.frexp(bound)[1]) + 2 if bound else 1
        self.digit_bits = d = _EXACT_BITS - int(np.frexp(s)[1])
        self.planes = 0
        if self.quire_bits <= 62 and d >= 1:
            self.planes = max(1, -(-int(np.frexp(act_max)[1]) // d))
        self.tables = [values]
        if self.planes > 1:
            radix = 2.0**d
            self.tables = [
                np.copysign(np.fmod(np.floor(np.ldexp(mag, -d * m)), radix), values)
                for m in range(self.planes)
            ]
        self.wants = "value" if self.planes == 1 else "pattern"

    def __call__(self, ops, scratch, tag):
        rows, out_dim = ops.shape[0], self.w_t.shape[1]
        words = scratch.get((rows, out_dim), np.int64, tag + "w")
        # The GEMM output shares the step's float64 output buffer: the
        # products are dead once cast to words.
        prod = scratch.get((rows, out_dim), np.float64, tag + "o")
        if self.planes == 1:
            np.matmul(ops, self.w_t, out=prod)
            words[:] = prod  # exact: integers below 2**52
            return words
        words.fill(0)
        staged = scratch.get(ops.shape, np.float64, tag + "a")
        shifted = scratch.get((rows, out_dim), np.int64, tag + "s")
        for m, table in enumerate(self.tables):
            np.take(table, ops, out=staged)
            np.matmul(staged, self.w_t, out=prod)
            shifted[:] = prod
            shifted <<= self.digit_bits * m
            words += shifted
        return words

    def table_bytes(self) -> int:
        # One plane reuses the backend's memoized operand values.
        digits = 0 if self.planes == 1 else sum(t.nbytes for t in self.tables)
        return self.w_t.nbytes + digits


def _round_key(words: np.ndarray, m: int) -> np.ndarray:
    """Monotone bucket key of int64 quire words, ``|word| <= 2**62``.

    The word's float64 image (rounding to nearest is monotone, so order is
    preserved) is bucketed by sign, exponent, and its top ``m`` mantissa
    bits — a magnitude-logarithmic grid fine enough that consecutive round
    boundaries land in distinct buckets (checked at build time).  Keys lie
    in ``[0, 128 << m)``: exponents span only ``[2**0, 2**62]``, so 6 bits
    of (offset) exponent plus the sign fold the whole window into a dense,
    cache-resident table index.
    """
    f = words.astype(np.float64)
    expman = (f.view(np.uint64) >> np.uint64(52 - m)).astype(np.int64)
    mag = (expman & ((1 << (11 + m)) - 1)) - (1022 << m)
    # In place, and not np.clip, which costs ~3x as much on small arrays.
    np.minimum(np.maximum(mag, 0, out=mag), (64 << m) - 1, out=mag)
    center = 64 << m
    return np.where(words >= 0, center + mag, center - 1 - mag)


class RoundTable:
    """The round-once output stage as an O(1) indexed lookup on int64 words.

    ``slot_patterns[self.indices(word)]`` equals
    ``encode_from_quire_words(word, mode=mode)`` for every
    ``|word| <= 2**62`` — the whole single-word window the compiled
    kernels can produce.  ``boundaries`` are the breakpoints of the
    (monotone) word -> pattern step function, found by vectorized binary
    search with the backend's own batched encoder as the oracle, so
    agreement is by construction rather than by re-deriving each family's
    rounding rules.

    ``indices`` avoids a per-word binary search: the :func:`_round_key`
    grid is built (at the smallest mantissa depth ``m``) such that every
    bucket contains at most one boundary, so the slot index is one dense
    ``base`` gather plus one compare against the bucket's ``bnd`` entry
    (``INT64_MAX`` where the bucket has none) —
    ``base[k] + (word >= bnd[k])``.  Should no ``m`` up to
    ``_ROUND_KEY_MAX_M`` separate the boundaries (never for the built-in
    families), lookups fall back to ``searchsorted``, bit-identically.
    """

    __slots__ = ("boundaries", "slot_patterns", "_m", "_base", "_bnd")

    def __init__(self, boundaries: np.ndarray, slot_patterns: np.ndarray):
        self.boundaries = boundaries
        self.slot_patterns = slot_patterns
        self._m = None
        for m in range(_ROUND_KEY_MIN_M, _ROUND_KEY_MAX_M + 1):
            keys = _round_key(boundaries, m)
            if keys.size == np.unique(keys).size:
                counts = np.bincount(keys, minlength=128 << m)
                self._base = np.concatenate(
                    [[0], np.cumsum(counts)[:-1]]
                ).astype(np.int64)
                self._bnd = np.full(
                    128 << m, np.iinfo(np.int64).max, dtype=np.int64
                )
                self._bnd[keys] = boundaries
                self._m = m
                break

    def indices(self, words: np.ndarray) -> np.ndarray:
        """Slot index per word: ``#{boundaries <= word}``, flattened."""
        w = words.ravel()
        if self._m is None:
            return np.searchsorted(self.boundaries, w, side="right")
        # A boundary in a *lower* bucket is < word, in a *higher* bucket
        # > word (the key is monotone), so ``base`` counts every crossed
        # boundary except the bucket's own, resolved by one compare.
        k = _round_key(w, self._m)
        idx = self._base[k]
        idx += w >= self._bnd[k]
        return idx

    def lookup(self, words: np.ndarray) -> np.ndarray:
        """Round a tensor of int64 quire words to int64 patterns."""
        return self.slot_patterns[self.indices(words)].reshape(words.shape)


def _midpoint(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # floor((lo + hi) / 2) without int64 overflow (lo, hi span +-2**62).
    return (lo >> 1) + (hi >> 1) + ((lo & 1) & (hi & 1))


def round_table(backend: NumericFormat, mode: str = "rne") -> RoundTable:
    """The backend's memoized :class:`RoundTable` for ``mode``."""
    check_rounding_mode(mode)

    def build():
        t = backend.limb_tables()
        if t is None:
            raise TypeError(f"{backend.name} has no limb decode tables")

        def enc(words):
            return backend.encode_from_quire_words(
                np.asarray(words, dtype=np.int64), mode=mode
            ).astype(np.int64)

        # Anchors: every valid pattern's exact value in quire-LSB units
        # that fits int64, plus the +-2**62 window endpoints.  Values that
        # overflow int64 are necessarily beyond the window; rounding can
        # still *produce* their patterns near the window edge, which the
        # edge gaps' breakpoints capture.
        valid = ~t.invalid
        sig = t.signed_sig[valid]
        sh = (t.shift + t.bias_extra_shift)[valid]
        ok = (sig == 0) | (bit_length_int64(np.abs(sig)) + sh <= 62)
        words = sig[ok] << sh[ok]
        # -1 is anchored besides the representable values and the window
        # endpoints: formats with signed zero encode negative underflow to
        # -0 and word 0 to +0 — same value, distinct patterns — so the
        # sign flip at zero is a breakpoint between *equal* anchor values
        # that needs its own gap.
        anchors = np.unique(
            np.concatenate(
                [words, [-_WORD_CAP, -1, _WORD_CAP]]
            ).astype(np.int64)
        )

        # Between consecutive anchors the step function changes at most
        # once (only the two nearest representable values compete), so one
        # binary search per gap finds every breakpoint.
        lo, hi = anchors[:-1].copy(), anchors[1:].copy()
        p_anchor = enc(anchors)
        plo, phi = p_anchor[:-1], p_anchor[1:]
        active = plo != phi
        lo[~active] = hi[~active]
        while np.any(hi - lo > 1):
            mid = _midpoint(lo, hi)
            stay_low = enc(mid) == plo
            lo = np.where(stay_low, mid, lo)
            hi = np.where(stay_low, hi, mid)
        # hi[g] is the minimal word of gap g's upper slot.
        boundaries = hi[active]
        slot_patterns = np.concatenate([p_anchor[:1], phi[active]])
        table = RoundTable(boundaries, slot_patterns)
        # Self-check the one-breakpoint-per-gap premise at every edge the
        # construction produced (a family whose encoder switches patterns
        # twice between adjacent anchors would silently misround a band).
        probe = np.unique(
            np.concatenate([anchors, boundaries, boundaries - 1])
        )
        if not np.array_equal(table.lookup(probe), enc(probe)):
            raise AssertionError(
                f"round table for {backend.name}/{mode} disagrees with "
                "encode_from_quire_words; the format's rounding is not "
                "one-breakpoint-per-anchor-gap"
            )
        return table

    return backend._memo(f"_round_table_{mode}", build)


# ----------------------------------------------------------------------
# Per-layer steps
# ----------------------------------------------------------------------
class _TableStep:
    """One single-word table-format layer: plane words + fused epilogue.

    ``wants`` names the operand representation the step consumes (see
    :class:`_PlaneWords`).  The *previous* step's epilogue produces it
    directly; :meth:`finalize` composes this step's own epilogue table the
    same way for its consumer.
    """

    path = "plane"

    def __init__(self, backend, tables, words, bp, activation, mode):
        self.backend = backend
        self.tables = tables
        self.activation = activation
        self.words, self.wants = words, words.wants
        self.in_features, self.out_features = words.w_t.shape
        self.rt = round_table(backend, mode)
        self.bias_words = None
        if bp is not None:
            self.bias_words = tables.signed_sig[bp] << (
                tables.shift[bp] + tables.bias_extra_shift
            )

    # -- epilogue composition -------------------------------------------
    def _compose(self, wants: str | None) -> np.ndarray:
        slots = self.rt.slot_patterns
        if self.activation == "relu":
            slots = self.tables.relu[slots]
        if wants == "value":
            return operand_values(self.backend)[slots]
        if wants == "rank":
            return self.backend.rank_table()[slots]
        return np.ascontiguousarray(slots)  # "pattern" / final output

    def finalize(self, next_wants: str | None) -> None:
        self.slot_out = self._compose(next_wants)
        self.slot_rank = None  # readout variant, built for the last step

    def finalize_readout(self) -> None:
        self.slot_rank = self._compose("rank")

    # -- execution ------------------------------------------------------
    def run(self, ops, scratch, tag, readout=False):
        words = self.words(ops, scratch, tag)
        if self.bias_words is not None:
            words += self.bias_words
        # Fused epilogue: round-once + ReLU + the consumer's operand
        # gather, as one O(1) slot lookup and one table take.
        idx = self.rt.indices(words)
        table = self.slot_rank if readout else self.slot_out
        out = scratch.get(words.shape, table.dtype, tag + "o")
        np.take(table, idx, out=out.ravel())
        return out

    def table_bytes(self) -> int:
        rt_bytes = self.rt.boundaries.nbytes + self.slot_out.nbytes
        return rt_bytes + self.words.table_bytes()


class _FixedStep:
    """Fixed-point layer: plane words with the Fig. 3 epilogue inline.

    The words are those of the signed integers the patterns scale, so
    ReLU is ``max(v, 0)`` and the clipped outputs are already monotone in
    value — the fused readout argmaxes them directly, no rank table needed.
    """

    path = "plane"

    def __init__(self, backend, weights, bias, activation, mode):
        fmt = backend.fmt
        if fmt.n > 16:
            raise ValueError("fixed-point plans support n <= 16")
        self.fmt = fmt
        self.mode = mode
        self.activation = activation
        self.out_features, self.in_features = weights.shape
        self.bias_term = (
            None if bias is None else fx.signed_array(fmt, bias) << fmt.q
        )
        self.words = _PlaneWords(
            operand_values(backend),
            fx.signed_array(fmt, weights).astype(np.float64),
            None if bias is None else self.bias_term.astype(np.float64),
        )
        self.wants = self.words.wants
        # Clipping and ReLU in one pass: ReLU raises the floor to 0.
        self.floor = 0 if activation == "relu" else fmt.int_min

    def finalize(self, next_wants: str | None) -> None:
        self.next_wants = next_wants

    def finalize_readout(self) -> None:
        pass  # clipped signed values double as ranks

    def run(self, ops, scratch, tag, readout=False):
        fmt = self.fmt
        words = self.words(ops, scratch, tag)
        if self.bias_term is not None:
            words += self.bias_term
        v = arithmetic_shift_round(words, fmt.q, self.mode)
        np.maximum(v, self.floor, out=v)
        np.minimum(v, fmt.int_max, out=v)
        if readout:
            return v  # monotone in value: the clipped values are ranks
        if self.next_wants == "value":
            out = scratch.get(v.shape, np.float64, tag + "o")
            out[:] = v
            return out
        v &= fmt.mask  # patterns: a multi-plane consumer's or the output
        return v

    def table_bytes(self) -> int:
        return self.words.table_bytes()


class _LayerStep:
    """Wide-quire fallback: the limb kernel plus a composed epilogue LUT.

    Covers layers whose quire bound exceeds int64 (no single-word round
    table).  Still fuses ReLU-and-operand conversion into one
    pattern-indexed gather.
    """

    path = "layer"
    wants = "pattern"

    def __init__(self, backend, kernel, activation, words):
        self.backend = backend
        self.kernel = kernel
        self.activation = activation
        self.words = words  # reported by explain() only
        self.out_features = kernel.out_features
        self.in_features = kernel.in_features

    def _compose(self, wants: str | None) -> np.ndarray | None:
        lut = np.arange(1 << self.backend.width, dtype=np.int64)
        identity = True
        if self.activation == "relu":
            lut = self.backend.relu_batch(lut.astype(np.uint32)).astype(np.int64)
            identity = False
        if wants == "value":
            lut = operand_values(self.backend)[lut]
            identity = False
        elif wants == "rank":
            lut = self.backend.rank_table()[lut]
            identity = False
        return None if identity else lut

    def finalize(self, next_wants: str | None) -> None:
        self.out_lut = self._compose(next_wants)
        self.rank_lut = None

    def finalize_readout(self) -> None:
        self.rank_lut = self._compose("rank")

    def run(self, ops, scratch, tag, readout=False):
        out = self.kernel(ops).astype(np.int64)  # ops: validated patterns
        lut = self.rank_lut if readout else self.out_lut
        return out if lut is None else lut[out]

    def table_bytes(self) -> int:
        return 0 if self.out_lut is None else self.out_lut.nbytes


# ----------------------------------------------------------------------
# The compiled network plan
# ----------------------------------------------------------------------
class NetworkKernel:
    """A whole network compiled into one fused chained plan.

    ``layers`` is a sequence of ``(weights, bias, activation)`` triples
    (patterns as uint32 arrays; activation ``"relu"`` or ``"identity"``).
    :meth:`forward` returns the exact output patterns, bit-identical to
    one scalar EMAC per neuron with pattern ReLU between layers;
    :meth:`predict` returns rank-argmax class labels without materializing
    the readout.

    Each layer's words path is a fixed function of the layer (see the
    module docstring).  ``force_path`` pins every layer to one path
    instead (testing hook; raises if a layer is not eligible for it).
    """

    def __init__(
        self,
        backend: NumericFormat,
        layers,
        *,
        rounding_mode: str = "rne",
        force_path: str | None = None,
    ):
        if not layers:
            raise ValueError("network kernel needs at least one layer")
        if force_path is not None and force_path not in NETWORK_PATHS:
            raise ValueError(
                f"force_path must be one of {NETWORK_PATHS}, got {force_path!r}"
            )
        self.backend = backend
        self.rounding_mode = check_rounding_mode(rounding_mode)
        self._tables = backend.limb_tables()
        self.steps = []
        self._eligible = []
        prev_out = None
        for i, (weights, bias, activation) in enumerate(layers):
            weights, bias = _check_weights(weights, bias)
            if prev_out is not None and weights.shape[1] != prev_out:
                raise ValueError(
                    f"layer {i} fan-in {weights.shape[1]} != previous "
                    f"fan-out {prev_out}"
                )
            prev_out = weights.shape[0]
            step, eligible = self._plan_layer(
                weights, bias, activation, force_path
            )
            self.steps.append(step)
            self._eligible.append(eligible)

        # Compose every epilogue for its consumer; the last step gets the
        # rank-readout variant too.
        for step, nxt in zip(self.steps, self.steps[1:]):
            step.finalize(nxt.wants)
        self.steps[-1].finalize(None)
        self.steps[-1].finalize_readout()

        self.in_features = self.steps[0].in_features
        self.out_features = self.steps[-1].out_features

    # ------------------------------------------------------------------
    def _plan_layer(self, weights, bias, activation, force_path):
        """``(step, eligible paths)`` for one layer.

        The fixed rule: ``plane`` when :class:`_PlaneWords` finds the layer
        single-word with an exact digit width, ``layer`` otherwise.
        """
        backend, tables = self.backend, self._tables
        mode = self.rounding_mode
        if tables is None:
            if not isinstance(backend, FixedBackend):
                raise TypeError(
                    f"{backend.name} has no limb tables and is not fixed "
                    f"point; no plan can compute its dot products"
                )
            if force_path not in (None, "plane"):
                raise ValueError(
                    f"fixed point supports only the plane path, "
                    f"not {force_path!r}"
                )
            step = _FixedStep(backend, weights, bias, activation, mode)
            return step, ("plane",)

        wp = check_patterns(tables, weights, "weights")
        bp = None if bias is None else check_patterns(tables, bias, "bias")
        sig = tables.signed_sig.astype(np.float64)
        b_vals = None
        if bp is not None:
            b_vals = np.ldexp(sig[bp], tables.shift[bp] + tables.bias_extra_shift)
        words = _PlaneWords(
            operand_values(backend), np.ldexp(sig[wp], tables.shift[wp]), b_vals
        )
        eligible = ("plane", "layer") if words.planes else ("layer",)
        chosen = eligible[0] if force_path is None else force_path
        if chosen not in eligible:
            raise ValueError(
                f"layer shape {wp.shape} is not eligible for the "
                f"{force_path!r} path (eligible: {eligible})"
            )
        if chosen == "layer":
            kernel = TableLayerKernel(backend, tables, wp, bp, mode)
            step = _LayerStep(backend, kernel, activation, words)
        else:
            step = _TableStep(backend, tables, words, bp, activation, mode)
        return step, eligible

    # ------------------------------------------------------------------
    def _prepare(self, patterns) -> np.ndarray:
        p = np.asarray(patterns)
        if p.ndim != 2:
            raise ValueError(
                f"patterns must be 2-D (batch, in); got shape {p.shape}"
            )
        if p.shape[1] != self.in_features:
            raise ValueError(
                f"fan-in mismatch: network expects {self.in_features}, "
                f"inputs have {p.shape[1]}"
            )
        return check_format_patterns(self.backend, p, "activations")

    def _first_ops(self, p: np.ndarray) -> np.ndarray:
        if self.steps[0].wants == "value":
            return operand_values(self.backend)[p]
        return p  # "pattern"

    def _chunk_rows(self) -> int:
        cap = _kernels._CHUNK_ELEMENTS
        widest = max(s.in_features + 2 * s.out_features for s in self.steps)
        return max(1, cap // widest)

    def _run(self, patterns, readout: bool):
        p = self._prepare(patterns)
        batch = p.shape[0]
        if readout:
            out = np.empty(batch, dtype=np.int64)
        else:
            out = np.empty((batch, self.out_features), dtype=np.uint32)
        chunk = self._chunk_rows()
        scratch = _scratch()
        last = len(self.steps) - 1
        for start in range(0, batch, chunk):
            stop = min(batch, start + chunk)
            x = self._first_ops(p[start:stop])
            for i, step in enumerate(self.steps):
                x = step.run(
                    x, scratch, f"nk{i}-", readout=readout and i == last
                )
            if readout:
                out[start:stop] = np.argmax(x, axis=1)
            else:
                out[start:stop] = x
        return out

    def forward(self, patterns) -> np.ndarray:
        """Exact fused forward: ``(batch, in)`` -> ``(batch, out)`` patterns."""
        return self._run(patterns, readout=False)

    def predict(self, patterns) -> np.ndarray:
        """Fused rank-argmax class labels for ``(batch, in)`` patterns."""
        return self._run(patterns, readout=True)

    # ------------------------------------------------------------------
    def explain(self) -> list[dict]:
        """Per-layer path, eligible paths, planes, quire bits, table bytes."""
        return [
            {
                "layer": i,
                "in_features": step.in_features,
                "out_features": step.out_features,
                "activation": step.activation,
                "wants": step.wants,
                "path": step.path,
                "eligible": list(eligible),
                "planes": step.words.planes if step.path == "plane" else None,
                "quire_bits": step.words.quire_bits,
                "table_bytes": step.table_bytes(),
            }
            for i, (step, eligible) in enumerate(zip(self.steps, self._eligible))
        ]
