"""Micro-batching scheduler: coalesce requests into one GEMM.

The compiled network plans (:mod:`repro.formats.network`) amortize to one
GEMM per layer *per batch* — a batch-1 request pays the whole per-call
overhead for a single sample.  A :class:`MicroBatcher` turns concurrent
single requests into plan-sized batches:

* every served model owns one batcher and one bounded :class:`asyncio.Queue`
  (backpressure: when the queue is full, ``submit`` waits, which propagates
  to the HTTP handler and ultimately to TCP);
* the worker takes the first pending request, then keeps collecting until
  the stacked batch reaches ``max_batch`` rows or the coalescing deadline
  elapses since the batch opened — a lone request is flushed at the
  deadline, a burst fills the batch immediately;
* with ``adaptive_delay`` (the default) the deadline is not a fixed
  ``max_delay_ms`` but an **EWMA-tuned effective delay** in
  ``[0, max_delay_ms]``: the batcher tracks the exponentially weighted
  inter-arrival gap of submits, waits roughly the expected time to fill a
  batch when traffic is dense, and decays toward an immediate flush when
  the gap grows past the window (sparse traffic gains no batchmates by
  waiting, so it should not pay the latency).  A sparse window under
  1 ms is 0: the event loop cannot sleep for less, so the request flushes
  at once, and the zero-sleep drain below still coalesces a same-tick
  burst.  Timing only — no setting of the knob can change any served
  bit;
* with a ``shed_threshold`` a submit arriving at a queue that deep is
  refused at once (:class:`QueueSaturated`, the server's 503), and a
  request whose ``deadline`` passed while it queued is answered
  :class:`DeadlineExceeded` (504) at batch assembly, its rows never
  executed;
* the stacked pattern matrix is executed through
  :meth:`~repro.core.positron.PositronNetwork.predict_patterns` on an
  executor thread, in slices of at most ``max_batch`` rows (a multi-row
  request can overflow the batch; the overflow splits into further
  full-size slices).  That call rides the network's fused plan
  (:mod:`repro.formats.network`) — round-once, pattern-space ReLU, and
  the rank-argmax readout chained per layer, warmed at model load — and
  stays bit-identical to direct ``predict``, which runs the same plan.
  A failed coalesced batch is re-executed request by request, so one
  poison request fails alone.

The HTTP server — and so every process-pool worker — runs one batcher per
served model.  :class:`PendingRequest`, :func:`stack_batch` and
:func:`predict_in_slices` are looked up as module globals on every call,
so a profiler can wrap them by rebinding the module attributes.

**Bit-exactness.** Coalescing cannot change any answer: quantization is
elementwise (stacking quantized requests equals quantizing the stacked
batch), every GEMM partial sum is an exact integer so the result is
independent of batch composition, and the rank-table argmax is
per-row.  Served predictions are therefore bit-identical to calling
``predict`` on each request alone — property-tested under concurrent load
in ``tests/serve/``.
"""

from __future__ import annotations

import asyncio
import math
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Any

import numpy as np

from .. import faults
from .registry import ServedModel
from .stats import ServeStats

__all__ = [
    "MicroBatcher",
    "PendingRequest",
    "ServiceClosed",
    "QueueSaturated",
    "DeadlineExceeded",
    "check_knobs",
    "stack_batch",
    "predict_in_slices",
    "POINT_BATCH",
    "POINT_WORKER",
]

#: Fires once per micro-batch execution, on the executing thread, before
#: any kernel work; context is ``model=<key> rows=<n>``.  ``raise`` here
#: exercises the poison-isolation retry, ``stall`` simulates a slow
#: kernel (for deadline/shed scenarios), ``kill`` a worker-process death
#: mid-batch (the pool chaos suite).
POINT_BATCH = faults.register_point(
    "serve.batch", "one micro-batch execution on an executor thread"
)

#: Fires in whichever **process** is executing serving work — at
#: ``phase=batch`` here (every micro-batch), and at
#: ``phase=start`` / ``phase=ready`` / ``phase=drain`` in a pool worker's
#: lifecycle (:mod:`repro.serve.pool`).  ``kill:match=phase=batch``
#: drops a pool worker mid-batch; ``kill:match=phase=start`` kills it
#: during boot (the pool's restart machinery must recover from both).
#: Registered here because the batch-phase fire lives in the executor
#: body below; the pool only adds the lifecycle phases.
POINT_WORKER = faults.register_point(
    "pool.worker", "the process executing serving work (pool workers: "
    "start/ready/drain lifecycle phases plus every batch)"
)

#: EWMA smoothing factor for the inter-arrival gap estimator: ~the last
#: dozen arrivals dominate, so the effective delay tracks load shifts
#: within a few requests without chasing single-gap noise.
_EWMA_ALPHA = 0.25

#: The serving knobs checked before anything starts: name -> (valid?, why).
_KNOB_RULES = {
    "max_batch": (lambda v: v >= 1, "max_batch must be >= 1"),
    "max_delay_ms": (
        lambda v: math.isfinite(v) and v >= 0,
        "max_delay_ms must be a finite number >= 0",
    ),
    "queue_limit": (lambda v: v >= 1, "queue_limit must be >= 1"),
    "executor_workers": (lambda v: v >= 1, "executor_workers must be >= 1"),
    "submit_timeout_s": (
        lambda v: math.isfinite(v) and v > 0,
        "submit_timeout_s must be a finite number > 0",
    ),
    "canary_every": (lambda v: v >= 0, "canary_every must be >= 0"),
    "shed_threshold": (
        lambda v: v is None or 0.0 < v <= 1.0,
        "shed_threshold must be in (0, 1]",
    ),
    "rollback_after": (lambda v: v >= 0, "rollback_after must be >= 0"),
}


def check_knobs(knobs: dict) -> None:
    """Raise ``ValueError`` for the first serving knob outside its range.

    ``knobs`` maps :class:`MicroBatcher` or
    :class:`~repro.serve.server.InferenceServer` keyword names to values;
    names without a rule, and knobs left out (their defaults are valid),
    are not checked.  The batcher and the server run it at construction
    and the worker pool before it spawns a worker, so a bad knob fails at
    startup either way.
    """
    for name, value in knobs.items():
        rule = _KNOB_RULES.get(name)
        if rule is not None and not rule[0](value):
            raise ValueError(rule[1])


class ServiceClosed(RuntimeError):
    """Raised by ``submit`` once the batcher has begun shutting down."""


class QueueSaturated(RuntimeError):
    """Raised by ``submit`` when load shedding is on and the queue is at
    or past the shed threshold — the HTTP layer answers 503 +
    ``Retry-After`` instead of letting the request wait."""


class DeadlineExceeded(RuntimeError):
    """A request's deadline expired while it waited in the queue; it was
    answered 504 and its rows were never executed."""


@dataclass
class PendingRequest:
    """One enqueued request: quantized patterns plus its result future."""

    patterns: np.ndarray  # (rows, in) integer patterns
    rows: int
    future: Any  # the asyncio.Future ``submit`` awaits
    enqueued: float  # loop time, for queue+execute latency
    deadline: float | None = None  # absolute loop time; None = none


def stack_batch(batch: list[PendingRequest]) -> np.ndarray:
    """The stacked pattern matrix for one coalesced batch."""
    if len(batch) == 1:
        return batch[0].patterns
    return np.vstack([item.patterns for item in batch])


def predict_in_slices(
    model, stacked: np.ndarray, cap: int
) -> tuple[np.ndarray, list[int]]:
    """Predict a stacked matrix in ``cap``-row slices (kernel-side body).

    The injection point fires here, inside the error boundary, so an
    armed fault behaves exactly like a kernel failure.
    """
    faults.fire(POINT_BATCH, model=model.key, rows=int(stacked.shape[0]))
    faults.fire(POINT_WORKER, phase="batch", model=model.key,
                rows=int(stacked.shape[0]))
    network = model.network
    sizes, parts = [], []
    for start in range(0, stacked.shape[0], cap):
        chunk = stacked[start:start + cap]
        parts.append(network.predict_patterns(chunk))
        sizes.append(chunk.shape[0])
    if not parts:
        # Every coalesced request was zero-row: there is nothing to
        # predict, and ``np.concatenate([])`` would raise and fail the
        # whole batch.  Answer with an empty prediction array (each
        # zero-row caller slices an empty view).
        return np.zeros(0, dtype=np.int64), sizes
    return np.concatenate(parts), sizes


_CLOSE = object()  # queue sentinel; FIFO order makes it drain-then-exit


class MicroBatcher:
    """Coalesces requests for **one** served model (models never cross-batch:
    each model's batcher owns its own queue and worker)."""

    #: The shortest timed wait worth arming (seconds).  asyncio's epoll
    #: selector rounds every timeout up to whole milliseconds, so a
    #: shorter window still sleeps a full 1 ms; and a sparse window under
    #: it expects at most ``(max_delay / gap) ** 2`` batchmates (0.25 at
    #: the default 2 ms), which is not worth that sleep.
    MIN_TIMED_WAIT_S = 1e-3

    def __init__(
        self,
        model: ServedModel,
        *,
        max_batch: int = 32,
        max_delay_ms: float = 2.0,
        queue_limit: int = 256,
        executor: Executor | None = None,
        stats: ServeStats | None = None,
        adaptive_delay: bool = True,
        shed_threshold: float | None = None,
    ):
        check_knobs(dict(
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            queue_limit=queue_limit,
            shed_threshold=shed_threshold,
        ))
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay_ms) / 1000.0
        self.queue_limit = int(queue_limit)
        self.adaptive_delay = bool(adaptive_delay)
        # Load shedding is opt-in: None keeps the original backpressure
        # behavior (full queue = submitters wait).  With a threshold f,
        # submits are refused outright once qsize reaches
        # ceil(f * queue_limit), so the server can answer 503 fast
        # instead of stacking latency onto an already-saturated queue.
        self.shed_threshold = shed_threshold
        self.shed_at = (
            None
            if shed_threshold is None
            else max(1, math.ceil(shed_threshold * queue_limit))
        )
        self._arrival_gap_s: float | None = None  # EWMA inter-arrival gap
        self._last_arrival_s: float | None = None
        self.model = model
        self.stats = stats if stats is not None else ServeStats()
        self.generation = 1  # bumped by swap_model (observability only)
        self._executor = executor
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        self._task: asyncio.Task | None = None
        self._closing = False

    # -- adaptive coalescing delay --------------------------------------
    def _observe_arrival(self, now: float) -> None:
        if self._last_arrival_s is not None:
            gap = max(0.0, now - self._last_arrival_s)
            if self._arrival_gap_s is None:
                self._arrival_gap_s = gap
            else:
                self._arrival_gap_s += _EWMA_ALPHA * (
                    gap - self._arrival_gap_s
                )
        self._last_arrival_s = now

    @property
    def effective_delay(self) -> float:
        """The coalescing window (seconds) the next batch will wait.

        * no estimate yet (cold start) or adaptation disabled: the full
          ``max_delay`` — the conservative fixed-window behavior;
        * dense traffic (EWMA gap below the window): wait the expected
          time to *fill* the batch, ``gap * (max_batch - 1)``, capped at
          ``max_delay`` — a saturating burst closes the batch by count
          long before any deadline;
        * sparse traffic (EWMA gap beyond the window): batchmates are
          unlikely inside the window, so the wait decays as
          ``max_delay * (max_delay / gap)``, and is 0 (an immediate
          flush) once that falls under :attr:`MIN_TIMED_WAIT_S`: the
          event loop cannot sleep for less, and so few batchmates are
          expected that the sleep buys nothing.

        Always in ``[0, max_delay]``.  Continuous at ``gap == max_delay``
        when ``max_delay`` is at least :attr:`MIN_TIMED_WAIT_S`; below
        that the sparse branch is 0 throughout.  This is pure scheduling —
        it can change when a batch executes, never what it computes.
        """
        if not self.adaptive_delay or self._arrival_gap_s is None:
            return self.max_delay
        gap = self._arrival_gap_s
        if gap >= self.max_delay:
            if gap <= 0.0:  # max_delay == 0 and no observed spacing
                return 0.0
            window = self.max_delay * (self.max_delay / gap)
            return window if window >= self.MIN_TIMED_WAIT_S else 0.0
        return min(self.max_delay, gap * (self.max_batch - 1))

    @property
    def effective_delay_ms(self) -> float:
        """``effective_delay`` in milliseconds (for ``/models``/metrics)."""
        return self.effective_delay * 1000.0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker task (requires a running event loop)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def submit(
        self, patterns: np.ndarray, deadline: float | None = None
    ) -> np.ndarray:
        """Enqueue ``(rows, in)`` input patterns; await the predictions.

        Returns the ``(rows,)`` class predictions for exactly this
        request's rows.  Waits when the bounded queue is full; raises
        :class:`ServiceClosed` once shutdown has begun,
        :class:`QueueSaturated` when load shedding is active, and
        :class:`DeadlineExceeded` if ``deadline`` (absolute loop time)
        passes before the request's batch is assembled — expired rows
        are never executed.
        """
        if self._closing:
            raise ServiceClosed(f"batcher for {self.model.key} is shut down")
        if self.shedding:
            self.stats.record_shed()
            raise QueueSaturated(
                f"queue for {self.model.key} is saturated "
                f"({self._queue.qsize()}/{self.queue_limit}); shedding load"
            )
        # No cast: the plan checks the caller's patterns as given.
        patterns = np.asarray(patterns)
        if patterns.ndim != 2:
            raise ValueError("patterns must be 2-D (rows, features)")
        loop = asyncio.get_running_loop()
        self.start()
        now = loop.time()
        self._observe_arrival(now)
        item = PendingRequest(patterns, patterns.shape[0],
                              loop.create_future(), now, deadline)
        await self._queue.put(item)
        return await item.future

    async def close(self) -> None:
        """Stop accepting requests, drain everything queued, then exit.

        FIFO makes draining trivial: the sentinel is enqueued after the
        last accepted request, so by the time the worker sees it every
        pending batch has been executed and answered.
        """
        if not self._closing:
            self._closing = True
            await self._queue.put(_CLOSE)
        if self._task is not None:
            await self._task

    def swap_model(self, model: ServedModel) -> int:
        """Atomically replace the served model (hot-swap).

        The replacement must serve the same ``(dataset, format)`` key:
        requests already queued were quantized by the old model, and the
        per-format decode tables are registry-memoized, so same-key swaps
        keep every queued pattern meaningful.  The in-flight batch (if
        any) completes on the old network — ``_execute`` reads
        ``self.model`` once per batch — and every later batch runs the new
        one.  Returns the new generation number.
        """
        if model.key != self.model.key:
            raise ValueError(
                f"cannot swap {self.model.key} to {model.key}: "
                "a batcher serves exactly one (dataset, format) key"
            )
        self.model = model
        self.generation += 1
        return self.generation

    @property
    def pending(self) -> int:
        """Requests currently queued (excludes the in-flight batch)."""
        return self._queue.qsize()

    @property
    def shedding(self) -> bool:
        """Whether a submit arriving now would be shed (503)."""
        return self.shed_at is not None and self._queue.qsize() >= self.shed_at

    @property
    def saturated(self) -> bool:
        """Whether the queue is at its hard limit (submitters wait)."""
        return self._queue.qsize() >= self.queue_limit

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is _CLOSE:
                return
            batch = [item]
            rows = item.rows
            saw_close = False
            deadline = loop.time() + self.effective_delay
            while rows < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    # Deadline hit (possibly a near-zero adaptive window):
                    # still coalesce the backlog.  One zero-sleep lets
                    # already-scheduled submitters enqueue, then drain
                    # without waiting — a same-tick burst batches fully
                    # even when the window is microseconds.
                    await asyncio.sleep(0)
                    while rows < self.max_batch:
                        try:
                            nxt = self._queue.get_nowait()
                        except asyncio.QueueEmpty:
                            break
                        if nxt is _CLOSE:
                            saw_close = True
                            break
                        batch.append(nxt)
                        rows += nxt.rows
                    break
                try:
                    nxt = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    continue  # drain-then-flush via the deadline branch
                if nxt is _CLOSE:
                    saw_close = True
                    break
                batch.append(nxt)
                rows += nxt.rows
            await self._execute(batch, loop)
            if saw_close:
                return

    def _expire_deadlines(
        self, batch: list[PendingRequest], loop
    ) -> list[PendingRequest]:
        """Fail expired requests with 504 material; return the live rest.

        Expiry is judged once, at batch assembly: expired rows are
        answered without ever touching a kernel, and live rows keep
        their place in the batch.
        """
        now = loop.time()
        live = []
        for item in batch:
            if item.deadline is None or now <= item.deadline:
                live.append(item)
                continue
            self.stats.record_deadline_expired()
            if not item.future.done():
                exc = DeadlineExceeded(
                    f"deadline expired after "
                    f"{(now - item.enqueued) * 1000.0:.1f}ms in queue"
                )
                exc._repro_counted = True
                item.future.set_exception(exc)
        return live

    async def _execute(self, batch: list[PendingRequest], loop) -> None:
        batch = self._expire_deadlines(batch, loop)
        if not batch:
            return
        model = self.model  # read once per batch (swap atomicity)
        if await self._attempt(batch, model, loop) or len(batch) == 1:
            return
        # Poison isolation: one bad request (or one transient fault)
        # must not fail its batchmates.  Re-execute each request
        # alone; healthy ones succeed bit-identically (batch
        # composition cannot change any answer), the poison one
        # fails by itself.
        self.stats.record_batch_retry()
        for item in batch:
            await self._attempt([item], model, loop)

    async def _attempt(self, batch, model, loop) -> bool:
        """Run ``batch`` on the executor and answer it; ``False`` if the
        run raised.  A lone request's failure is its own: it is counted
        here and propagated to its caller."""

        def run() -> tuple[np.ndarray, list[int]]:
            # Stacking lives inside the error boundary too: a width
            # mismatch between coalesced requests (or a MemoryError) must
            # resolve the futures, never kill the worker task.
            return predict_in_slices(model, stack_batch(batch),
                                     self.max_batch)

        try:
            predictions, sizes = await loop.run_in_executor(
                self._executor, run
            )
        except Exception as exc:
            if len(batch) == 1:
                self.stats.record_error()
                # Mark as counted so the handler does not count this
                # failure a second time.
                exc._repro_counted = True
                if not batch[0].future.done():
                    batch[0].future.set_exception(exc)
            return False
        self._resolve(batch, predictions, sizes, loop)
        return True

    def _resolve(self, batch, predictions, sizes, loop) -> None:
        for size in sizes:
            self.stats.record_batch(self.model.key, size)
        offset = 0
        now = loop.time()
        for item in batch:
            result = predictions[offset:offset + item.rows]
            offset += item.rows
            if not item.future.done():  # caller cancelled/timed out: the
                item.future.set_result(result)  # request was not answered,
                self.stats.record_request(  # so it must not count as one
                    item.rows, (now - item.enqueued) * 1000.0
                )
