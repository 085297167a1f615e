"""The wide-quire layer kernel and the scratch pool shared by every plan.

Every exact dot product runs inside a fused network plan
(:mod:`repro.formats.network`).  Most layers keep each quire inside one
int64 word and take the plan's ``plane`` step; a layer whose quire bound
exceeds int64 (maxpos-heavy posit8_2 rows, 16-bit posits) takes the plan's
``layer`` step, which runs the :class:`TableLayerKernel` defined here: the
exact accumulation as a *digit-plane convolution*.  Each pattern's aligned
value is a handful of signed base-``2**LIMB_BITS`` digits, and the
limb-``k`` contribution of a product is
``limbs[b, o, k] = sum_{l+m=k} (A_m @ W_l.T)``.  The kernel
compiles the *(weights, bias)* half of that convolution once, so each call
is a **single** float64 GEMM per batch chunk.

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

Exactness bound and fan-in splits
---------------------------------
Every digit is ``< 2**LIMB_BITS`` so every digit product is
``< 2**(2 * LIMB_BITS)``, and at most ``Lw * in`` nonzero products land in
one output element of the GEMM (adding exact zeros costs nothing).  The
float64 staging is therefore exact — every partial sum is an integer below
``2**53`` — whenever

    2 * LIMB_BITS + ceil(log2(Lw * in))  <=  53,

i.e. ``Lw * in <= 2**(53 - 2 * LIMB_BITS)`` (8192 at the default 20-bit
limbs).  Every topology in the paper (largest fan-in 117, ``Lw <= 5``)
satisfies the bound, so the kernel runs one GEMM over the full fan-in,
cast to int64 once.  Larger fan-ins fall back to fan-in splits sized
``2**(53 - 2*LIMB_BITS) // Lw``, accumulated in int64 — still one GEMM per
split instead of ``planes**2``.

Scratch buffers (the staged activations, the GEMM output, the int64 limb
tensor and the plans' word and operand buffers) come from a grow-only
*per-thread* pool keyed by shape, so they are reused across batch chunks
*and* across the layers of a network.  Because the pool is thread-local,
the memoized backends/engines handed out by the format registry and a
network's cached plan are safe to share across threads (the serving
layer's executor runs batches for different models concurrently); within a
thread a plan call never yields, so asyncio tasks cannot interleave
mid-call either.  Cross-process parallelism lives in the process-pool
runner.
"""

from __future__ import annotations

import threading

import numpy as np

from .base import LimbTables, NumericFormat
from .quire import LIMB_BITS, check_rounding_mode

__all__ = [
    "TableLayerKernel",
    "digit_planes",
    "check_patterns",
    "check_format_patterns",
    "clear_scratch",
]

#: Soft cap on the size of per-chunk intermediate tensors (elements).
_CHUNK_ELEMENTS = 4_000_000

#: Scratch pool byte budget; least-recently-used buffers are evicted.
_SCRATCH_MAX_BYTES = 256 * 1024 * 1024


class _ScratchPool:
    """Grow-only pool of preallocated buffers keyed by (shape, dtype).

    Plans and the layer kernel request identically shaped word / staging /
    GEMM / limb buffers on every chunk of every forward call; handing back
    the same arrays keeps the hot path allocation-free.  One pool exists per
    thread (see :func:`_scratch`), so two plans running on different threads
    can never hand out the same buffer.
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
    and compiled plans shareable across executor threads: concurrent
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

    Shared by the engines' ``dot_reference`` path and the fused network
    plans (which validate the *network* inputs once instead of
    re-validating at every layer boundary).
    """
    p = np.asarray(patterns, dtype=np.int64)
    if p.size and (p.min() < 0 or p.max() >= tables.signed_sig.shape[0]):
        raise ValueError(f"{what} pattern out of range")
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
    p = np.asarray(patterns, dtype=np.int64)
    if p.size and (p.min() < 0 or p.max() >= 1 << backend.width):
        raise ValueError(f"{what} pattern out of range")
    return p


def _check_weights(weights, bias) -> tuple[np.ndarray, np.ndarray | None]:
    weights = np.asarray(weights, dtype=np.uint32)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D (out, in); got shape {weights.shape}")
    if bias is not None:
        bias = np.asarray(bias, dtype=np.uint32)
        if bias.shape != (weights.shape[0],):
            raise ValueError(f"bias must have shape ({weights.shape[0]},)")
    return weights, bias


class TableLayerKernel:
    """A wide-quire layer compiled to one stacked digit-plane GEMM.

    The fused plan's ``layer`` step (:mod:`repro.formats.network`) builds
    one for each layer whose quire bound exceeds int64; see the module
    docstring for the memory layout and exactness bound.  ``wp`` / ``bp``
    are the validated int64 weight and bias patterns (``bp`` may be
    ``None``).  Calling the kernel on validated ``(batch, in)`` int64
    activation patterns returns the ``(batch, out)`` uint32 patterns of the
    exact dot products, rounded once in ``rounding_mode``.
    """

    def __init__(
        self,
        backend: NumericFormat,
        tables: LimbTables,
        wp: np.ndarray,
        bp: np.ndarray | None,
        rounding_mode: str = "rne",
    ):
        max_term_bits = 2 * tables.sig_bits + LIMB_BITS
        if max_term_bits > 62:
            raise ValueError("significand products too wide for int64 limbs")
        self.backend = backend
        self.rounding_mode = check_rounding_mode(rounding_mode)
        self.out_features, self.in_features = wp.shape
        if self.in_features > 1 << 20:
            raise ValueError(f"fan-in {self.in_features} overflows int64 limb sums")
        L = self._num_limbs = (tables.max_shift + max_term_bits) // LIMB_BITS + 2

        digits = digit_planes(backend)
        planes = digits.shape[1]
        dig_w = digits[wp]  # (out, in, planes)
        live_w = [l for l in range(planes) if dig_w[:, :, l].any()]
        live_a = [m for m in range(planes) if digits[:, m].any()]
        # Activation digit gather table restricted to its live planes.
        self._act_digits = np.ascontiguousarray(digits[:, live_a])
        self._live_planes = len(live_a)

        # Fan-in splits keeping every GEMM exact in float64 (module bound).
        max_products = max(1, (1 << (53 - 2 * LIMB_BITS)) // max(1, len(live_w)))
        self._splits = [
            (i, min(self.in_features, i + max_products))
            for i in range(0, max(1, self.in_features), max_products)
        ]
        self._blocks = []
        for i0, i1 in self._splits:
            block = np.zeros(
                (self._live_planes, i1 - i0, self.out_features, L),
                dtype=np.float64,
            )
            for mi, m in enumerate(live_a):
                for l in live_w:
                    block[mi, :, :, l + m] += dig_w[:, i0:i1, l].T
            self._blocks.append(
                block.reshape(self._live_planes * (i1 - i0), self.out_features * L)
            )

        # Each bias pattern as quire-aligned limbs, shape (out, L).
        self._bias_limbs = None
        if bp is not None:
            total_shift = tables.shift[bp] + tables.bias_extra_shift
            idx = total_shift // LIMB_BITS
            self._bias_limbs = np.zeros((self.out_features, L), dtype=np.int64)
            self._bias_limbs[np.arange(self.out_features), idx] = (
                tables.signed_sig[bp] << (total_shift - idx * LIMB_BITS)
            )

    def __call__(self, ap: np.ndarray) -> np.ndarray:
        batch = ap.shape[0]
        out_dim, L = self.out_features, self._num_limbs
        out = np.empty((batch, out_dim), dtype=np.uint32)
        chunk = max(1, _CHUNK_ELEMENTS // max(1, out_dim * L))
        fast = len(self._splits) == 1
        scratch = _scratch()
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
            if self._bias_limbs is not None:
                limb3 += self._bias_limbs
            out[start:stop] = self.backend.encode_from_quire_batch(
                limb3, mode=self.rounding_mode
            )
        return out
