"""The scratch pool and the pattern checks shared by every plan.

Every exact dot product runs inside a fused network plan
(:mod:`repro.formats.network`).  Its scratch buffers (staged operands, GEMM
outputs, words, a wide layer's kept plane sums and bound) come from a
grow-only *per-thread* pool keyed by shape, so they are reused across batch
chunks *and* across the layers of a network.  Because the pool is
thread-local, the memoized backends/engines handed out by the format
registry and a network's cached plan are safe to share across threads (the
serving layer's executor runs batches for different models concurrently);
within a thread a plan call never yields, so asyncio tasks cannot
interleave mid-call either.  Cross-process parallelism lives in the
process-pool runner.
"""

from __future__ import annotations

import threading

import numpy as np

from .base import LimbTables, NumericFormat

__all__ = [
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

    Plans request identically shaped word / staging / GEMM / plane-sum
    buffers on every chunk of every forward call; handing back
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
