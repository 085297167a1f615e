"""Compiled per-layer inference kernels: one stacked digit-plane GEMM.

The limb vector engine (:mod:`repro.core.vector`) computes every exact dot
product as a *digit-plane convolution*: each pattern's aligned value is a
handful of signed base-``2**LIMB_BITS`` digits, and the limb-``k``
contribution of a product is ``limbs[b, o, k] = sum_{l+m=k} (A_m @ W_l.T)``.
Executed naively that is up to ``planes**2`` small float64 matmuls per batch
chunk, and the weight digit tensor is re-gathered on every call.

A :class:`LayerKernel` compiles the *(weights, bias)* half of that
convolution once, so each forward call is a **single** float64 GEMM:

Memory layout
-------------
Let ``in`` be the fan-in, ``out`` the fan-out, ``L`` the number of quire
limbs, ``Ma`` the format's live *activation* digit planes (columns of the
digit table that are nonzero for any valid pattern) and ``Lw`` the live
*weight* digit planes of this particular weight matrix (all-zero planes are
pruned at compile time).  The kernel precomputes the stacked weight matrix

    K[m * in + i,  o * L + k]  =  Wdigits[o, i, k - m]      (0 otherwise)

of shape ``(Ma * in, out * L)`` — the limb convolution laid out as a plain
matrix product.  At run time the activations are staged once per chunk as

    A[b, m * in + i]  =  Adigits[b, i, m]                   (chunk, Ma * in)

and ``A @ K``, reshaped to ``(chunk, out, L)``, *is* the full unnormalized
limb tensor; the backend's batched ``encode_from_quire_batch`` rounds it
once, bit-identically to the scalar EMACs.  Bias patterns are precompiled to
quire-aligned limbs ``(out, L)`` and added per chunk.

Exactness bound and the no-chunk fast path
------------------------------------------
Every digit is ``< 2**LIMB_BITS`` so every digit product is
``< 2**(2 * LIMB_BITS)``, and at most ``Lw * in`` nonzero products land in
one output element of the GEMM (adding exact zeros costs nothing).  The
float64 staging is therefore exact — every partial sum is an integer below
``2**53`` — whenever

    2 * LIMB_BITS + ceil(log2(Lw * in))  <=  53,

i.e. ``Lw * in <= 2**(53 - 2 * LIMB_BITS)`` (8192 at the default 20-bit
limbs).  Every topology in the paper (largest fan-in 117, ``Lw <= 5``)
satisfies the bound, so the kernel runs the **no-chunk int64 fast path**:
one GEMM over the full fan-in, cast to int64 once.  Larger fan-ins fall
back to fan-in splits sized ``2**(53 - 2*LIMB_BITS) // Lw``, accumulated in
int64 — still one GEMM per split instead of ``planes**2``.

Single-word and plane-major modes
---------------------------------
Two further compile-time analyses exploit the *actual* weight patterns
(both decided from an exact upper bound ``max_o Σ_i |w_oi| · max|a| +
max|bias|`` on any reachable quire, with guard bits absorbing float64
summation error):

* **single-word** — when the bound fits int64 (``< 2**62``), the limb
  tensor is Horner-combined into one int64 word per quire (every prefix is
  bounded by the quire bound, so no overflow) and rounded by the backend's
  ``encode_from_quire_words`` — limb normalization, the most expensive
  stage of the generic path, is skipped entirely.  True for every trained
  paper model; pathological weights (e.g. maxpos-heavy posit8_2 rows) fall
  back to the stacked-GEMM + normalize path, bit-identically.
* **plane-major** — when additionally ``w_bits + LIMB_BITS + log2(in) <=
  53`` (the weights' full float64 values multiplied by a whole activation
  digit keep every GEMM partial sum exact), the weights are not
  digit-split at all: one ``(batch, in) @ (in, out)`` GEMM per live
  activation plane against the exact float64 weight values, shifted and
  summed into the word.  This is the steady-state path for all paper
  topologies: ~2 GEMMs per layer, no staging transpose, no limb tensor.

Scratch buffers (the staged activations, the GEMM output, and the int64
limb tensor) come from a grow-only *per-thread* pool keyed by shape, so
they are reused across batch chunks *and* across the layers of a network.
Because the pool is thread-local, the memoized backends/engines handed out
by the format registry are safe to share across threads (the serving
layer's executor runs batches for different models concurrently); within a
thread a kernel call never yields, so asyncio tasks cannot interleave
mid-call either.  Cross-process parallelism lives in the process-pool
runner.

Kernels are obtained through :meth:`repro.formats.NumericFormat.compile_layer`
(table-driven formats get the stacked GEMM; fixed point gets a precompiled
signed int64 matmul); ``TableVectorEngine.dot`` wraps a one-shot kernel so
the existing engine API is unchanged.
"""

from __future__ import annotations

import threading

import numpy as np

from .base import LimbTables, NumericFormat
from .quire import LIMB_BITS, arithmetic_shift_round, check_rounding_mode

__all__ = [
    "LayerKernel",
    "TableLayerKernel",
    "MatmulLayerKernel",
    "DotLayerKernel",
    "digit_planes",
    "check_patterns",
    "quire_bound_bits",
    "clear_scratch",
]

#: Soft cap on the size of per-chunk intermediate tensors (elements).
_CHUNK_ELEMENTS = 4_000_000

#: Scratch pool byte budget; least-recently-used buffers are evicted.
_SCRATCH_MAX_BYTES = 256 * 1024 * 1024


class _ScratchPool:
    """Grow-only pool of preallocated buffers keyed by (shape, dtype).

    Layer kernels request identically shaped staging / GEMM / limb buffers
    on every chunk of every forward call; handing back the same arrays
    keeps the hot path allocation-free.  One pool exists per thread (see
    :func:`_scratch`), so two kernels running on different threads can
    never hand out the same buffer.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}

    def get(self, shape: tuple[int, ...], dtype, tag: str = "") -> np.ndarray:
        # ``tag`` separates buffers that may be alive at the same time even
        # when their shapes coincide (e.g. a GEMM's input and output).
        key = (shape, np.dtype(dtype).str, tag)
        buf = self._buffers.pop(key, None)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._evict(buf.nbytes)
        self._buffers[key] = buf  # re-insert at the back: LRU order
        return buf

    def _evict(self, incoming: int) -> None:
        total = incoming + sum(b.nbytes for b in self._buffers.values())
        while total > _SCRATCH_MAX_BYTES and self._buffers:
            dropped = self._buffers.pop(next(iter(self._buffers)))
            total -= dropped.nbytes

    def clear(self) -> None:
        self._buffers.clear()


_SCRATCH_TLS = threading.local()


def _scratch() -> _ScratchPool:
    """The calling thread's scratch pool (created on first use).

    Keying the pool by thread is what makes the registry-memoized engines
    and compiled kernels shareable across executor threads: concurrent
    forward passes each stage into their own buffers, while the
    single-threaded hot path keeps its allocation-free reuse.
    """
    pool = getattr(_SCRATCH_TLS, "pool", None)
    if pool is None:
        pool = _SCRATCH_TLS.pool = _ScratchPool()
    return pool


def clear_scratch() -> None:
    """Drop this thread's pooled scratch buffers (tests / memory callers)."""
    _scratch().clear()


def digit_planes(backend: NumericFormat) -> np.ndarray:
    """The backend's signed base-``2**LIMB_BITS`` digit table, memoized.

    Entry ``[p, l]`` is pattern ``p``'s signed digit of weight
    ``2**(LIMB_BITS * l)`` in quire-LSB units of one *input*.  Digits are
    ``< 2**LIMB_BITS`` and stored as float64 (exactly representable) so the
    digit-plane contractions run on BLAS.  Built once per backend; the
    registry caches backends per format key, so every engine, kernel, and
    sweep worker in a process shares one table per format.
    """
    cached = backend.__dict__.get("_digit_planes")
    if cached is None:
        tables = backend.limb_tables()
        if tables is None:
            raise TypeError(f"{backend.name} has no limb decode tables")
        cached = _build_digit_planes(tables)
        backend.__dict__["_digit_planes"] = cached
    return cached


def _build_digit_planes(tables: LimbTables) -> np.ndarray:
    sig = tables.signed_sig
    mag = np.abs(sig)
    coarse, rem = np.divmod(tables.shift, LIMB_BITS)
    m = mag << rem  # < 2**(sig_bits + LIMB_BITS - 1), fits easily
    max_input_shift = tables.max_shift // 2
    num = (max_input_shift + tables.sig_bits) // LIMB_BITS + 2
    digits = np.zeros((sig.shape[0], num), dtype=np.int64)
    rows = np.arange(sig.shape[0])
    mask = (1 << LIMB_BITS) - 1
    for l in range((tables.sig_bits + LIMB_BITS - 1) // LIMB_BITS + 1):
        digits[rows, coarse + l] += (m >> (LIMB_BITS * l)) & mask
    digits *= np.sign(sig)[:, None]
    return digits.astype(np.float64)


def check_patterns(tables: LimbTables, patterns, what: str) -> np.ndarray:
    """Validate patterns against the decode tables; return them as int64.

    Shared by the layer kernels, the engines' ``dot_reference`` path, and
    the fused network kernels (which validate the *network* inputs once
    instead of re-validating at every layer boundary).
    """
    p = np.asarray(patterns, dtype=np.int64)
    if p.size and (p.min() < 0 or p.max() >= tables.signed_sig.shape[0]):
        raise ValueError(f"{what} pattern out of range")
    if np.any(tables.invalid[p]):
        raise ValueError(f"{what} contains NaR/reserved patterns")
    return p


_check_patterns = check_patterns


def quire_bound_bits(tables: LimbTables, wp, bp) -> int:
    """Bit length bounding any reachable |quire| for these weights.

    ``max_o sum_i |w_oi| * max_valid_a |a| + max_o |bias_o|`` in
    quire-LSB units, evaluated in float64 with two guard bits of
    safety margin — an over-estimate only ever costs a wider GEMM.
    """
    sig_abs = np.abs(tables.signed_sig).astype(np.float64)
    valid = ~tables.invalid
    act_max = 0.0
    if valid.any():
        act_max = float(np.ldexp(sig_abs[valid], tables.shift[valid]).max())
    row_max = 0.0
    if wp.size:
        w_vals = np.ldexp(sig_abs[wp], tables.shift[wp])
        row_max = float(w_vals.sum(axis=1).max())
    bias_max = 0.0
    if bp is not None and bp.size:
        bias_max = float(
            np.ldexp(
                sig_abs[bp], tables.shift[bp] + tables.bias_extra_shift
            ).max()
        )
    bound = row_max * act_max + bias_max
    if bound == 0.0:
        return 1
    return int(np.frexp(bound)[1]) + 2


def _check_weights(weights, bias) -> tuple[np.ndarray, np.ndarray | None]:
    weights = np.asarray(weights, dtype=np.uint32)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D (out, in); got shape {weights.shape}")
    if bias is not None:
        bias = np.asarray(bias, dtype=np.uint32)
        if bias.shape != (weights.shape[0],):
            raise ValueError(f"bias must have shape ({weights.shape[0]},)")
    return weights, bias


class LayerKernel:
    """A layer's ``(weights, bias)`` compiled against one backend.

    Calling the kernel on ``(batch, in)`` activation patterns returns the
    ``(batch, out)`` exact round-once dot products — the same contract as
    ``VectorEngine.dot(weights, activations, bias)``, with all per-call
    weight preparation hoisted into construction.  ``rounding_mode``
    selects the round-once output stage (``"rne"`` default, ``"rtz"``
    round toward zero) and is honoured by every fast path.
    """

    out_features: int
    in_features: int
    rounding_mode: str = "rne"

    def _check_activations(self, activations) -> np.ndarray:
        a = np.asarray(activations, dtype=np.uint32)
        if a.ndim != 2:
            raise ValueError(
                f"activations must be 2-D (batch, in); got shape {a.shape}"
            )
        if a.shape[1] != self.in_features:
            raise ValueError(
                f"fan-in mismatch: kernel expects {self.in_features}, "
                f"activations have {a.shape[1]}"
            )
        return a

    def __call__(self, activations: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class TableLayerKernel(LayerKernel):
    """Stacked digit-plane GEMM kernel for table-driven formats.

    See the module docstring for the memory layout and exactness bound.
    ``chunk_elements`` overrides the batch-chunk soft cap (``None`` reads
    the module default at call time, so tests can monkeypatch it).
    """

    def __init__(
        self,
        backend: NumericFormat,
        weights: np.ndarray,
        bias: np.ndarray | None = None,
        *,
        chunk_elements: int | None = None,
        rounding_mode: str = "rne",
    ):
        tables = backend.limb_tables()
        if tables is None:
            raise TypeError(f"{backend.name} has no limb decode tables")
        max_term_bits = 2 * tables.sig_bits + LIMB_BITS
        if max_term_bits > 62:
            raise ValueError("significand products too wide for int64 limbs")
        self.backend = backend
        self.rounding_mode = check_rounding_mode(rounding_mode)
        self._tables = tables
        self._chunk_elements = chunk_elements
        self._num_limbs = (tables.max_shift + max_term_bits) // LIMB_BITS + 2

        weights, bias = _check_weights(weights, bias)
        wp = _check_patterns(tables, weights, "weights")
        bp = None if bias is None else _check_patterns(tables, bias, "bias")
        self.out_features, self.in_features = wp.shape
        if self.in_features > 1 << 20:
            raise ValueError(f"fan-in {self.in_features} overflows int64 limb sums")

        digits = digit_planes(backend)
        planes = digits.shape[1]
        dig_w = digits[wp]  # (out, in, planes)
        live_w = [l for l in range(planes) if dig_w[:, :, l].any()]
        live_a = [m for m in range(planes) if digits[:, m].any()]
        # Activation digit gather table restricted to its live planes.
        self._act_digits = np.ascontiguousarray(digits[:, live_a])
        self._live_planes = len(live_a)

        # Single-word analysis: an exact upper bound (guard bits absorb the
        # float64 summation error) on any reachable |quire|.  When it fits
        # int64, the kernel skips limb normalization entirely.
        bound_bits = self._quire_bound_bits(tables, wp, bp)
        self._word_mode = bound_bits <= 62

        # Plane-major analysis: with |w| narrow enough that a full-fan-in
        # product row stays under 2**53 even against a whole activation
        # digit (w_bits + LIMB_BITS + log2(in) <= 53), the weights need no
        # digit split at all — one GEMM per live activation plane against
        # the exact float64 weight values.
        w_vals = np.ldexp(
            tables.signed_sig[wp].astype(np.float64), tables.shift[wp]
        )
        w_bits = 0 if not wp.size or not np.abs(w_vals).max() else int(
            np.frexp(np.abs(w_vals).max())[1]
        )
        in_bits = max(1, self.in_features).bit_length()
        self._plane_major = (
            self._word_mode and w_bits + LIMB_BITS + in_bits <= 53
        )

        out_dim = self.out_features
        self._bias_limbs = None
        self._bias_words = None
        if bp is not None and self._word_mode:
            t = tables
            self._bias_words = t.signed_sig[bp] << (
                t.shift[bp] + t.bias_extra_shift
            )
        if self._plane_major:
            self._w_t = np.ascontiguousarray(w_vals.T)  # (in, out) exact
            self._plane_tables = [
                np.ascontiguousarray(digits[:, m]) for m in live_a
            ]
            self._plane_shifts = [LIMB_BITS * m for m in live_a]
            self._splits = self._blocks = None
            self._gemm_limbs = 1
            return

        L = (
            max(1, -(-bound_bits // LIMB_BITS))
            if self._word_mode
            else self._num_limbs
        )
        self._gemm_limbs = L

        # Fan-in splits keeping every GEMM exact in float64 (module bound).
        max_products = max(1, (1 << (53 - 2 * LIMB_BITS)) // max(1, len(live_w)))
        if self.in_features <= max_products:
            splits = [(0, self.in_features)]  # no-chunk int64 fast path
        else:
            splits = [
                (i, min(self.in_features, i + max_products))
                for i in range(0, self.in_features, max_products)
            ]
        blocks = []
        for i0, i1 in splits:
            block = np.zeros(
                (self._live_planes, i1 - i0, out_dim, L), dtype=np.float64
            )
            for mi, m in enumerate(live_a):
                for l in live_w:
                    block[mi, :, :, l + m] += dig_w[:, i0:i1, l].T
            blocks.append(
                block.reshape(self._live_planes * (i1 - i0), out_dim * L)
            )
        self._splits = splits
        self._blocks = blocks
        if bp is not None and not self._word_mode:
            self._bias_limbs = self._compile_bias(bp)

    _quire_bound_bits = staticmethod(quire_bound_bits)

    def _compile_bias(self, bp: np.ndarray) -> np.ndarray:
        """Each bias pattern as quire-aligned limbs, shape (out, L)."""
        t = self._tables
        sig = t.signed_sig[bp]
        total_shift = t.shift[bp] + t.bias_extra_shift
        idx = total_shift // LIMB_BITS
        rem = total_shift - idx * LIMB_BITS
        limbs = np.zeros((self.out_features, self._num_limbs), dtype=np.int64)
        limbs[np.arange(self.out_features), idx] = sig << rem
        return limbs

    @property
    def num_limbs(self) -> int:
        """Limbs per quire in this kernel's accumulation tensors."""
        return self._num_limbs

    def __call__(self, activations: np.ndarray) -> np.ndarray:
        activations = self._check_activations(activations)
        ap = _check_patterns(self._tables, activations, "activations")
        batch = ap.shape[0]
        out_dim, L = self.out_features, self._gemm_limbs
        out = np.empty((batch, out_dim), dtype=np.uint32)
        if batch == 0:
            return out
        cap = (
            self._chunk_elements
            if self._chunk_elements is not None
            else _CHUNK_ELEMENTS
        )
        scratch = _scratch()
        if self._plane_major:
            chunk = max(1, cap // max(1, self.in_features + out_dim))
            for start in range(0, batch, chunk):
                stop = min(batch, start + chunk)
                rows = stop - start
                apc = ap[start:stop]
                words = scratch.get((rows, out_dim), np.int64, "words")
                words.fill(0)
                shifted = scratch.get((rows, out_dim), np.int64, "shifted")
                prod = scratch.get((rows, out_dim), np.float64, "prod")
                for table, shift in zip(self._plane_tables, self._plane_shifts):
                    np.matmul(table[apc], self._w_t, out=prod)
                    shifted[:] = prod  # exact: integers < 2**53
                    shifted <<= shift
                    words += shifted
                if self._bias_words is not None:
                    words += self._bias_words
                out[start:stop] = self.backend.encode_from_quire_words(
                    words, mode=self.rounding_mode
                )
            return out
        chunk = max(1, cap // max(1, out_dim * L))
        fast = len(self._splits) == 1
        for start in range(0, batch, chunk):
            stop = min(batch, start + chunk)
            rows = stop - start
            limbs = scratch.get((rows, out_dim * L), np.int64, "limbs")
            if not fast:
                limbs.fill(0)
            for (i0, i1), block in zip(self._splits, self._blocks):
                width = i1 - i0
                staged = scratch.get(
                    (rows, self._live_planes * width), np.float64, "staged"
                )
                staged.reshape(rows, self._live_planes, width)[:] = (
                    self._act_digits[ap[start:stop, i0:i1]].transpose(0, 2, 1)
                )
                prod = scratch.get((rows, out_dim * L), np.float64, "prod")
                np.matmul(staged, block, out=prod)
                if fast:
                    limbs[:] = prod  # exact: every entry is an integer < 2**53
                else:
                    # Cast before adding: accumulated limbs can exceed 2**53,
                    # where a float64-intermediate add would lose low bits.
                    limbs += prod.astype(np.int64)
            limb3 = limbs.reshape(rows, out_dim, L)
            if self._word_mode:
                # Horner-combine the limbs into one int64 word per quire;
                # every prefix is bounded by the compile-time |quire| bound.
                words = scratch.get((rows, out_dim), np.int64, "words")
                words[:] = limb3[..., L - 1]
                for k in range(L - 2, -1, -1):
                    words <<= LIMB_BITS
                    words += limb3[..., k]
                if self._bias_words is not None:
                    words += self._bias_words
                out[start:stop] = self.backend.encode_from_quire_words(
                    words, mode=self.rounding_mode
                )
            else:
                if self._bias_limbs is not None:
                    limb3 += self._bias_limbs
                out[start:stop] = self.backend.encode_from_quire_batch(
                    limb3, mode=self.rounding_mode
                )
        return out


class MatmulLayerKernel(LayerKernel):
    """Precompiled exact int64 matmul kernel (fixed point, Fig. 3).

    Fixed point needs no digit planes — patterns *are* scaled integers and
    an int64 matmul is exact at the supported widths — but compiling still
    hoists the signed reinterpretation of weights and the ``<< q`` bias
    alignment out of the per-call path.
    """

    def __init__(
        self,
        backend: NumericFormat,
        weights,
        bias=None,
        *,
        rounding_mode: str = "rne",
    ):
        from ..fixedpoint import codec as fx

        fmt = backend.fmt
        if fmt.n > 16:
            raise ValueError("vector engine supports n <= 16")
        self.backend = backend
        self.fmt = fmt
        self.rounding_mode = check_rounding_mode(rounding_mode)
        self._fx = fx
        weights, bias = _check_weights(weights, bias)
        self.out_features, self.in_features = weights.shape
        self._w_t = np.ascontiguousarray(fx.signed_array(fmt, weights).T)
        self._bias_term = (
            None if bias is None else fx.signed_array(fmt, bias) << fmt.q
        )

    def __call__(self, activations: np.ndarray) -> np.ndarray:
        activations = self._check_activations(activations)
        fmt = self.fmt
        a = self._fx.signed_array(fmt, activations)  # (batch, in)
        acc = a @ self._w_t  # exact: |terms| < 2**(2n-2), k < 2**20
        if self._bias_term is not None:
            acc = acc + self._bias_term[None, :]
        out = arithmetic_shift_round(acc, fmt.q, self.rounding_mode)
        out = np.clip(out, fmt.int_min, fmt.int_max)
        return (out & fmt.mask).astype(np.uint32)


class DotLayerKernel(LayerKernel):
    """Fallback kernel: defer to an engine's ``dot`` per call.

    Used only by custom registered families that neither expose limb
    tables nor override :meth:`NumericFormat.compile_layer`; it preserves
    the compile-then-run API without assuming anything about the engine.
    """

    def __init__(
        self,
        backend: NumericFormat,
        weights,
        bias=None,
        *,
        rounding_mode: str = "rne",
    ):
        self.backend = backend
        self.rounding_mode = check_rounding_mode(rounding_mode)
        weights, bias = _check_weights(weights, bias)
        self.out_features, self.in_features = weights.shape
        self._weights = weights
        self._bias = bias
        self._engine = backend.engine()

    def __call__(self, activations: np.ndarray) -> np.ndarray:
        activations = self._check_activations(activations)
        if self.rounding_mode == "rne":
            # Keep the default path compatible with custom engines whose
            # ``dot`` predates the rounding_mode keyword.
            return self._engine.dot(self._weights, activations, self._bias)
        return self._engine.dot(
            self._weights,
            activations,
            self._bias,
            rounding_mode=self.rounding_mode,
        )
