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

* **Round-table epilogue.** Every layer output is an exact quire, and
  rounding is a monotone step function of it.  The backend's memoized
  word :func:`~repro.formats.rounding.round_table` holds that function's
  breakpoints over the int64 window ``|word| <= 2**62``, each seeded in
  closed form and proven by one call of the backend's own encoder on
  either side, so the round-once stage becomes an O(1) bucket lookup plus
  one table gather — bit-identical to ``encode_from_quire_words``, for
  both rounding modes.
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

The words path
--------------
Every layer computes its quires the same way, fixed at compile time with
no timing, so every process builds the same plan for the same network:
exact integer products from float64 BLAS GEMMs, as in the Ozaki scheme
(Ozaki, Ogita, Oishi & Rump, *Numer. Algorithms* 59, 2012).  Operands are
exact integers (aligned values ``signed_sig << shift`` in quire-LSB units,
or fixed point's signed integers) cut into signed digits of the widest
width that keeps every GEMM sum an exact integer below ``2**52``; when the
weights alone leave no such digit (maxpos-heavy rows), the weights are cut
into digits too (:class:`_PlaneWords`).  The int64 casts of the plane
GEMMs, shifted into place, add up to the quire word.  With one plane
(every layer of the paper's served models) the step is a single GEMM over
operand values that the previous epilogue hands over as float64.

A *wide* layer — quire bound past 62 bits: posit7_2 and posit8_2 layers,
maxpos-heavy weights, 12-bit formats — adds its shifted plane sums modulo
``2**64``, which is exact for every quire inside the round table's window,
and keeps beside them the float64 bound ``sum |plane sum| * 2**shift +
|bias|``, whose terms are all non-negative so no cancellation can hide an
out-of-window quire.  Quires whose bound is below ``2**61`` take the round
table.  The rest are rounded by the backend's own
``encode_from_quire_batch`` from exact limbs assembled out of the same
plane sums, then pass through the same epilogue indexed by pattern — exact
at any quire width.

Fixed point computes its words the same way over its signed integers and
keeps the Fig. 3 shift-round-clip epilogue inline (its clipped signed
outputs *are* monotone ranks, so the fused readout is a plain argmax).  A
family must provide limb tables or be fixed point; compiling a plan for
any other backend raises ``TypeError``.

Exactness: every quire is computed exactly and goes through the
oracle-derived round table or the backend's own encoder, so every plan is
bit-identical to the scalar EMACs (property-tested across every registered
format, both rounding modes, single- and multi-plane layers and wide
quires on both sides of the table's window in
``tests/formats/test_network_kernel.py``).

Scratch: a forward runs in batch chunks of at most :data:`_CHUNK_ELEMENTS`
intermediate elements, and every step stages its operands, GEMM outputs,
words, a wide layer's kept plane sums and bound, and its epilogue output
in buffers from the calling thread's :class:`_ScratchPool`: one buffer per
``(tag, dtype)``, reused while the shape repeats and replaced when it
changes.  Because the pool is per thread, the registry-memoized backends
and engines and a network's cached plan are safe to share across threads
(the serving layer's executor runs batches for different models
concurrently); within a thread a plan call never yields, so asyncio tasks
cannot interleave mid-call either.

Obtain plans through :meth:`repro.formats.NumericFormat.compile_network`
(or ``PositronNetwork.network_kernel()``, which recompiles automatically
after ``recompile()``); ``explain()`` reports each layer's activation and
weight plane counts, quire-bound bits, whether it is wide, and its
compiled-table footprint — surfaced as ``python -m repro formats --explain
DATASET:FORMAT``.
"""

from __future__ import annotations

import threading

import numpy as np

from ..fixedpoint import codec as fx
from .base import LimbTables, NumericFormat
from .fixed_backend import FixedBackend
from .quire import LIMB_BITS, arithmetic_shift_round, check_rounding_mode
from .rounding import round_table

__all__ = [
    "NetworkKernel",
    "check_format_patterns",
    "check_patterns",
    "operand_values",
]

#: Soft cap on the size of per-chunk intermediate tensors (elements).
_CHUNK_ELEMENTS = 4_000_000

#: Every sum of a plane GEMM stays an integer below ``2**_EXACT_BITS``,
#: inside float64's exact-integer range (``2**53``).
_EXACT_BITS = 52

#: A wide quire whose float64 magnitude bound is below this takes the round
#: table: the bound's relative rounding error is far below the factor of
#: two left to the table's window.
_TABLE_BOUND = 2.0**61

_LIMB_MASK = (1 << LIMB_BITS) - 1


# ----------------------------------------------------------------------
# Scratch buffers and pattern checks
# ----------------------------------------------------------------------
class _ScratchPool:
    """One reusable buffer per ``(tag, dtype)``, replaced when its shape changes.

    A plan asks for the same word / staging / GEMM / plane-sum buffers on
    every chunk of every forward call of one batch size; handing back the
    same arrays keeps that hot path allocation-free.  A request for another
    shape replaces the pooled buffer (its earlier holder keeps the old
    array), so buffers of different shapes never alias and the pool holds
    one working set, not every shape it has seen.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}

    def get(self, shape: tuple[int, ...], dtype, tag: str) -> np.ndarray:
        # ``tag`` separates buffers that may be alive at the same time even
        # when their shapes coincide (e.g. a GEMM's input and output).
        key = (tag, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = self._buffers[key] = np.empty(shape, dtype=dtype)
        return buf


_SCRATCH_TLS = threading.local()


def _scratch() -> _ScratchPool:
    """The calling thread's scratch pool (created on first use)."""
    pool = getattr(_SCRATCH_TLS, "pool", None)
    if pool is None:
        pool = _SCRATCH_TLS.pool = _ScratchPool()
    return pool


def _integer_patterns(patterns, limit: int, what: str) -> np.ndarray:
    """The caller's patterns as int64, once they are integers in ``[0, limit)``.

    The checks run on the array as given, before any cast, so a float is
    rejected rather than truncated and an integer past ``limit`` rather than
    wrapped onto a valid pattern.
    """
    p = np.asarray(patterns)
    if p.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integer patterns, not {p.dtype}")
    if p.size and (p.min() < 0 or p.max() >= limit):
        raise ValueError(f"{what} pattern out of range")
    return p.astype(np.int64, copy=False)


def check_patterns(tables: LimbTables, patterns, what: str) -> np.ndarray:
    """Validate patterns against the decode tables; return them as int64."""
    p = _integer_patterns(patterns, tables.signed_sig.shape[0], what)
    if np.any(tables.invalid[p]):
        raise ValueError(f"{what} contains NaR/reserved patterns")
    return p


def check_format_patterns(backend: NumericFormat, patterns, what: str) -> np.ndarray:
    """Validate patterns of any registered family; return them as int64.

    Table-driven formats reject NaR/reserved patterns through their decode
    tables; fixed point (every pattern valid) rejects only patterns outside
    ``[0, 2**n)``.
    """
    tables = backend.limb_tables()
    if tables is not None:
        return check_patterns(tables, patterns, what)
    return _integer_patterns(patterns, 1 << backend.width, what)


def _check_weights(backend, weights, bias) -> tuple[np.ndarray, np.ndarray | None]:
    """One layer's validated weight and bias patterns, as int64."""
    weights = check_format_patterns(backend, weights, "weights")
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D (out, in); got shape {weights.shape}")
    if bias is not None:
        bias = check_format_patterns(backend, bias, "bias")
        if bias.shape != (weights.shape[0],):
            raise ValueError(f"bias must have shape ({weights.shape[0]},)")
    return weights, bias


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


def _bits(x: float) -> int:
    """Bit length of a non-negative float64 integer (0 for 0)."""
    return int(np.frexp(x)[1])


def _signed_digits(values: np.ndarray, bits: int, top: int) -> list[np.ndarray]:
    """Exact float64 integers below ``2**top`` as signed ``bits``-bit digits.

    Lowest digit first; ``values == sum_m digits[m] * 2**(bits * m)``, and
    every digit carries its value's sign.
    """
    mag = np.abs(values)
    radix = 2.0**bits
    return [
        np.copysign(np.fmod(np.floor(np.ldexp(mag, -bits * m)), radix), values)
        for m in range(max(1, -(-top // bits)))
    ]


class _PlaneWords:
    """Exact quire words ``A @ W.T + b`` of integer operands, on float64 GEMMs.

    ``values`` (per pattern), ``w_vals`` (``(out, in)``) and ``b_vals`` (bias
    words or ``None``) are exact float64 integers.  ``quire_bits`` bounds
    every quire, ``S * max|a| + max|b|`` plus two guard bits, with
    ``S = max_o sum_i |w_oi|``.  Activations are cut into ``planes`` signed
    digits of ``digit_bits = 52 - bitlen(S)`` bits, so each plane's GEMM sums
    stay below ``S * 2**digit_bits <= 2**52`` in any order (float64 ``S`` is
    exact below ``2**53``).  When that leaves no digit (``digit_bits < 1``)
    the weights are cut too, into signed digits of the width that fewest
    plane GEMMs need, and ``S`` becomes the largest weight plane's;
    all-zero weight planes are pruned.  The ``weight_planes`` stack along
    the GEMM's output axis, so each activation plane is one GEMM.  With one
    activation plane the digit is the value, so the step consumes float64
    values (``wants == "value"``); with more it gathers each plane's digits
    by pattern.

    A call returns ``(words, far)``.  The words are the exact quires when
    the layer is single-word (``quire_bits <= 62``, ``far`` is ``None``).
    A *wide* layer's words are the quires modulo ``2**64``; ``far`` then
    holds the flat indices and exact limbs of the quires whose float64
    magnitude bound reaches :data:`_TABLE_BOUND`, or is ``None`` if none
    does.
    """

    def __init__(self, values, w_vals, b_vals):
        self.out_features, self.in_features = w_vals.shape
        act_max = float(np.abs(values).max(initial=0.0))
        w_abs = np.abs(w_vals)
        s = float(w_abs.sum(axis=1).max(initial=0.0))
        b_max = 0.0 if b_vals is None else float(np.abs(b_vals).max(initial=0.0))
        bound = s * act_max + b_max
        self.quire_bits = _bits(bound) + 2 if bound else 1
        self.wide = self.quire_bits > 62
        a_top = _bits(act_max)

        w_planes, wb = [(0, w_vals)], 0
        d = _EXACT_BITS - _bits(s)
        if d < 1:
            # Two-sided: weight digits of ``wb`` bits sum to under
            # ``2**(bitlen(in) + wb)`` per row, leaving activation digits of
            # at least ``budget - wb`` bits.
            budget = _EXACT_BITS - self.in_features.bit_length()
            w_top = _bits(float(w_abs.max()))
            wb = min(
                range(1, budget),
                key=lambda b: -(-w_top // b) * -(-a_top // (budget - b)),
            )
            w_planes = [
                (l, p)
                for l, p in enumerate(_signed_digits(w_vals, wb, w_top))
                if p.any()
            ]
            s = max(float(np.abs(p).sum(axis=1).max()) for _, p in w_planes)
            d = _EXACT_BITS - _bits(s)
        self.digit_bits = d
        self.planes = max(1, -(-a_top // d))
        self.weight_planes = len(w_planes)
        self.w_t = np.ascontiguousarray(np.concatenate([p for _, p in w_planes]).T)
        # Bit position of each (activation plane, weight plane) GEMM block.
        self.shifts = [
            [d * m + wb * l for l, _ in w_planes]
            for m in range(self.planes)
        ]
        self.tables = [values]
        if self.planes > 1:
            self.tables = _signed_digits(values, d, a_top)
        self.wants = "value" if self.planes == 1 else "pattern"

        self.bias_words = self.bias_limbs = None
        if b_vals is not None:
            ints = [int(v) for v in b_vals.tolist()]
            # Modulo 2**64 like the words (exact for single-word layers).
            self.bias_words = np.array(
                [(v + (1 << 63)) % (1 << 64) - (1 << 63) for v in ints],
                dtype=np.int64,
            )
        if self.wide:
            top_shift = self.shifts[-1][-1]
            self.limb_count = L = (
                max(self.quire_bits, top_shift + 2 * LIMB_BITS) // LIMB_BITS + 1
            )
            self.bias_mag = None if b_vals is None else np.abs(b_vals)
            if b_vals is not None:
                # Canonical limbs below a signed top limb.
                self.bias_limbs = np.array(
                    [
                        [(v >> (LIMB_BITS * k)) & _LIMB_MASK for k in range(L - 1)]
                        + [v >> (LIMB_BITS * (L - 1))]
                        for v in ints
                    ],
                    dtype=np.int64,
                )

    def row_elements(self) -> int:
        """Scratch elements per batch row: staged operands, GEMM output,
        words, and a wide layer's kept plane sums and bound."""
        kept = self.planes * self.weight_planes if self.wide else self.weight_planes
        return self.in_features + (kept + 1 + self.wide) * self.out_features

    def __call__(self, ops, scratch, tag):
        rows, out_dim = ops.shape[0], self.out_features
        words = scratch.get((rows, out_dim), np.int64, tag + "w")
        if not self.wide and self.planes == self.weight_planes == 1:
            # One GEMM.  Its output shares the step's float64 output buffer:
            # the products are dead once cast to words.
            prod = scratch.get((rows, out_dim), np.float64, tag + "o")
            np.matmul(ops, self.w_t, out=prod)
            words[:] = prod  # exact: integers below 2**52
            if self.bias_words is not None:
                words += self.bias_words
            return words, None

        wide = self.wide
        cols = self.w_t.shape[1]
        if wide:
            # Kept plane sums (the limbs of far quires come from them) and
            # the magnitude bound, seeded with |bias|.
            sums = scratch.get((self.planes, rows, cols), np.float64, tag + "p")
            bound = scratch.get((rows, out_dim), np.float64, tag + "b")
            mag = scratch.get((rows, out_dim), np.float64, tag + "o")
            if self.bias_mag is None:
                bound.fill(0.0)
            else:
                bound[:] = self.bias_mag
        else:
            prod = scratch.get((rows, cols), np.float64, tag + "o")
        if self.bias_words is None:
            words.fill(0)
        else:
            words[:] = self.bias_words
        staged = scratch.get(ops.shape, np.float64, tag + "a")
        shifted = scratch.get((rows, out_dim), np.int64, tag + "s")
        # Shifts and sums on wrapping uint64 views: exact modulo 2**64.
        words_u, shifted_u = words.view(np.uint64), shifted.view(np.uint64)
        for m, (table, shifts) in enumerate(zip(self.tables, self.shifts)):
            a = ops if self.planes == 1 else np.take(table, ops, out=staged)
            gemm = sums[m] if wide else prod
            np.matmul(a, self.w_t, out=gemm)
            for j, shift in enumerate(shifts):
                plane = gemm[:, j * out_dim:(j + 1) * out_dim]
                if shift < 64:  # higher planes vanish modulo 2**64
                    shifted[:] = plane  # exact: integers below 2**52
                    shifted_u <<= shift
                    words_u += shifted_u
                if wide:
                    np.abs(plane, out=mag)
                    mag *= 2.0**shift
                    bound += mag
        if not wide:
            return words, None
        far = np.flatnonzero(bound >= _TABLE_BOUND)
        return words, ((far, self._limbs(sums, far)) if far.size else None)

    def _limbs(self, sums, far):
        """Exact unnormalized quire limbs at the flat indices ``far``."""
        out_dim = self.out_features
        rows, cols = np.divmod(far, out_dim)
        limbs = np.zeros((far.size, self.limb_count), dtype=np.int64)
        if self.bias_limbs is not None:
            limbs += self.bias_limbs[cols]
        for m, shifts in enumerate(self.shifts):
            for j, shift in enumerate(shifts):
                p = sums[m, rows, cols + j * out_dim].astype(np.int64)
                k, r = divmod(shift, LIMB_BITS)
                # p == low + high * 2**LIMB_BITS; both halves, shifted by
                # r < LIMB_BITS, stay far inside int64.
                limbs[:, k] += (p & _LIMB_MASK) << r
                limbs[:, k + 1] += (p >> LIMB_BITS) << r
        return limbs

    def table_bytes(self) -> int:
        # One plane reuses the backend's memoized operand values.
        digits = 0 if self.planes == 1 else sum(t.nbytes for t in self.tables)
        limbs = 0 if self.bias_limbs is None else self.bias_limbs.nbytes
        return self.w_t.nbytes + digits + limbs


# ----------------------------------------------------------------------
# Per-layer steps
# ----------------------------------------------------------------------
class _TableStep:
    """One table-format layer: plane words + fused epilogue.

    ``wants`` names the operand representation the step consumes (see
    :class:`_PlaneWords`).  The *previous* step's epilogue produces it
    directly; :meth:`finalize` composes this step's own epilogue tables the
    same way for its consumer: one indexed by round-table slot and, for a
    wide layer, one indexed by the pattern the encoder returns for quires
    past the table's window.
    """

    def __init__(self, backend, tables, words, activation, mode):
        self.backend = backend
        self.tables = tables
        self.activation = activation
        self.mode = mode
        self.words, self.wants = words, words.wants
        self.in_features = words.in_features
        self.out_features = words.out_features
        self.rt = round_table(backend, mode)

    # -- epilogue composition -------------------------------------------
    def _compose(self, wants: str | None, patterns: np.ndarray) -> np.ndarray:
        if self.activation == "relu":
            patterns = self.tables.relu[patterns]
        if wants == "value":
            return operand_values(self.backend)[patterns]
        if wants == "rank":
            return self.backend.rank_table()[patterns]
        return np.ascontiguousarray(patterns)  # "pattern" / final output

    def _epilogue(self, wants: str | None):
        """``(by slot, by pattern or None)`` epilogue tables for ``wants``."""
        by_pattern = None
        if self.words.wide:
            by_pattern = self._compose(wants, np.arange(self.tables.relu.size))
        return self._compose(wants, self.rt.slot_patterns), by_pattern

    def finalize(self, next_wants: str | None) -> None:
        self.out_tables = self._epilogue(next_wants)
        self.rank_tables = None  # readout variant, built for the last step

    def finalize_readout(self) -> None:
        self.rank_tables = self._epilogue("rank")

    # -- execution ------------------------------------------------------
    def run(self, ops, scratch, tag, readout=False):
        words, far = self.words(ops, scratch, tag)
        # Fused epilogue: round-once + ReLU + the consumer's operand
        # gather, as one O(1) slot lookup and one table take.
        idx = self.rt.indices(words)
        by_slot, by_pattern = self.rank_tables if readout else self.out_tables
        out = scratch.get(words.shape, by_slot.dtype, tag + "o")
        # Clipped: a far quire's modular word may index past the last
        # slot; its entry is replaced below.
        np.take(by_slot, idx, out=out.ravel(), mode="clip")
        if far is not None:
            flat, limbs = far
            patterns = self.backend.encode_from_quire_batch(limbs, mode=self.mode)
            out.ravel()[flat] = by_pattern[patterns]
        return out

    def table_bytes(self) -> int:
        by_slot, by_pattern = self.out_tables
        rt_bytes = self.rt.boundaries.nbytes + by_slot.nbytes
        if by_pattern is not None:
            rt_bytes += by_pattern.nbytes
        return rt_bytes + self.words.table_bytes()


class _FixedStep:
    """Fixed-point layer: plane words with the Fig. 3 epilogue inline.

    The words are those of the signed integers the patterns scale, so
    ReLU is ``max(v, 0)`` and the clipped outputs are already monotone in
    value — the fused readout argmaxes them directly, no rank table needed.
    Fixed-point quires (``n <= 16``) stay single-word at any real fan-in.
    """

    def __init__(self, backend, weights, bias, activation, mode):
        fmt = backend.fmt
        if fmt.n > 16:
            raise ValueError("fixed-point plans support n <= 16")
        self.fmt = fmt
        self.mode = mode
        self.activation = activation
        self.out_features, self.in_features = weights.shape
        self.words = _PlaneWords(
            operand_values(backend),
            fx.signed_array(fmt, weights).astype(np.float64),
            None
            if bias is None
            else (fx.signed_array(fmt, bias) << fmt.q).astype(np.float64),
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
        words, _ = self.words(ops, scratch, tag)
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


# ----------------------------------------------------------------------
# The compiled network plan
# ----------------------------------------------------------------------
class NetworkKernel:
    """A whole network compiled into one fused chained plan.

    ``layers`` is a sequence of ``(weights, bias, activation)`` triples
    (integer pattern arrays, ``bias`` may be ``None``; activation ``"relu"``
    or ``"identity"``).
    :meth:`forward` returns the exact output patterns, bit-identical to
    one scalar EMAC per neuron with pattern ReLU between layers;
    :meth:`predict` returns rank-argmax class labels without materializing
    the readout.  Every layer takes the one words path of the module
    docstring.
    """

    def __init__(
        self,
        backend: NumericFormat,
        layers,
        *,
        rounding_mode: str = "rne",
    ):
        if not layers:
            raise ValueError("network kernel needs at least one layer")
        self.backend = backend
        self.rounding_mode = check_rounding_mode(rounding_mode)
        self._tables = backend.limb_tables()
        self.steps = []
        prev_out = None
        for i, (weights, bias, activation) in enumerate(layers):
            weights, bias = _check_weights(backend, weights, bias)
            if prev_out is not None and weights.shape[1] != prev_out:
                raise ValueError(
                    f"layer {i} fan-in {weights.shape[1]} != previous "
                    f"fan-out {prev_out}"
                )
            prev_out = weights.shape[0]
            self.steps.append(self._plan_layer(weights, bias, activation))

        # Compose every epilogue for its consumer; the last step gets the
        # rank-readout variant too.
        for step, nxt in zip(self.steps, self.steps[1:]):
            step.finalize(nxt.wants)
        self.steps[-1].finalize(None)
        self.steps[-1].finalize_readout()

        self.in_features = self.steps[0].in_features
        self.out_features = self.steps[-1].out_features

    # ------------------------------------------------------------------
    def _plan_layer(self, weights, bias, activation):
        backend, tables = self.backend, self._tables
        mode = self.rounding_mode
        if tables is None:
            if not isinstance(backend, FixedBackend):
                raise TypeError(
                    f"{backend.name} has no limb tables and is not fixed "
                    f"point; no plan can compute its dot products"
                )
            return _FixedStep(backend, weights, bias, activation, mode)

        # ``weights`` and ``bias`` are validated int64 patterns.
        sig = tables.signed_sig.astype(np.float64)
        b_vals = None
        if bias is not None:
            b_vals = np.ldexp(sig[bias], tables.shift[bias] + tables.bias_extra_shift)
        words = _PlaneWords(
            operand_values(backend), np.ldexp(sig[weights], tables.shift[weights]), b_vals
        )
        return _TableStep(backend, tables, words, activation, mode)

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
        widest = max(s.words.row_elements() for s in self.steps)
        return max(1, _CHUNK_ELEMENTS // widest)

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
        """Per layer: shape, activation, consumed operand view, activation x
        weight plane counts, quire-bound bits, whether the quire is wide
        (past 62 bits) and compiled-table bytes.  ``path`` names the one
        words path, ``plane``."""
        return [
            {
                "layer": i,
                "in_features": step.in_features,
                "out_features": step.out_features,
                "activation": step.activation,
                "wants": step.wants,
                "path": "plane",
                "planes": step.words.planes,
                "weight_planes": step.words.weight_planes,
                "wide": step.words.wide,
                "quire_bits": step.words.quire_bits,
                "table_bytes": step.table_bytes(),
            }
            for i, step in enumerate(self.steps)
        ]
