"""Micro-batching scheduler, asyncio binding: coalesce requests into one GEMM.

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
* the stacked pattern matrix is executed through
  :meth:`~repro.core.positron.PositronNetwork.predict_patterns` on an
  executor thread, in slices of at most ``max_batch`` rows (a multi-row
  request can overflow the batch; the overflow splits into further
  full-size slices).  That call rides the network's fused plan
  (:mod:`repro.formats.network`) — round-once, pattern-space ReLU, and
  the rank-argmax readout chained per layer, warmed at model load — and
  stays bit-identical to direct ``predict``, which runs the same plan.

Every scheduling *decision* — effective delay, shed threshold, deadline
expiry, slice caps, poison isolation — lives in
:class:`~repro.serve.scheduler.SchedulerPolicy` and the helpers in
:mod:`repro.serve.scheduler`.  This module is only the asyncio plumbing,
the one binding the HTTP server and every process-pool worker run.

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
from concurrent.futures import Executor

import numpy as np

from .registry import ServedModel
from .scheduler import (
    _CLOSE,
    POINT_BATCH,
    DeadlineExceeded,
    PendingRequest,
    QueueSaturated,
    SchedulerPolicy,
    ServiceClosed,
    predict_in_slices,
    stack_batch,
)
from .stats import ServeStats

__all__ = [
    "MicroBatcher",
    "ServiceClosed",
    "QueueSaturated",
    "DeadlineExceeded",
    "POINT_BATCH",
]

#: Back-compat alias — the pending-request record lives in
#: :mod:`repro.serve.scheduler`.
_Pending = PendingRequest


class MicroBatcher:
    """Coalesces requests for **one** served model (models never cross-batch:
    each model's batcher owns its own queue and worker)."""

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
        self.policy = SchedulerPolicy(
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            queue_limit=queue_limit,
            adaptive_delay=adaptive_delay,
            shed_threshold=shed_threshold,
        )
        self.model = model
        self.stats = stats if stats is not None else ServeStats()
        self.generation = 1  # bumped by swap_model (observability only)
        self._executor = executor
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        self._task: asyncio.Task | None = None
        self._closing = False

    # -- policy mirrors (the knobs and estimator live on the policy) ------
    @property
    def max_batch(self) -> int:
        return self.policy.max_batch

    @property
    def max_delay(self) -> float:
        return self.policy.max_delay

    @property
    def queue_limit(self) -> int:
        return self.policy.queue_limit

    @property
    def adaptive_delay(self) -> bool:
        return self.policy.adaptive_delay

    @property
    def shed_threshold(self) -> float | None:
        return self.policy.shed_threshold

    @property
    def _shed_at(self) -> int | None:
        return self.policy.shed_at

    @property
    def _arrival_gap_s(self) -> float | None:
        return self.policy._arrival_gap_s

    @_arrival_gap_s.setter
    def _arrival_gap_s(self, value: float | None) -> None:
        self.policy._arrival_gap_s = value

    def _observe_arrival(self, now: float) -> None:
        self.policy.observe_arrival(now)

    @property
    def effective_delay(self) -> float:
        """The coalescing window (seconds) the next batch will wait —
        see :meth:`repro.serve.scheduler.SchedulerPolicy.effective_delay`."""
        return self.policy.effective_delay

    @property
    def effective_delay_ms(self) -> float:
        """``effective_delay`` in milliseconds (for ``/models``/metrics)."""
        return self.policy.effective_delay * 1000.0

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
        if self.policy.should_shed(self._queue.qsize()):
            self.stats.record_shed()
            raise QueueSaturated(
                f"queue for {self.model.key} is saturated "
                f"({self._queue.qsize()}/{self.queue_limit}); shedding load"
            )
        patterns = self.policy.validate_patterns(patterns)
        loop = asyncio.get_running_loop()
        self.start()
        now = loop.time()
        self.policy.observe_arrival(now)
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
        return self.policy.should_shed(self._queue.qsize())

    @property
    def saturated(self) -> bool:
        """Whether the queue is at its hard limit (submitters wait)."""
        return self._queue.qsize() >= self.policy.queue_limit

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
            deadline = loop.time() + self.policy.effective_delay
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
        """Fail expired requests with 504 material; return the live rest."""
        now = loop.time()
        live, expired = self.policy.split_expired(batch, now)
        for item in expired:
            self.stats.record_deadline_expired()
            if not item.future.done():
                item.future.set_exception(self.policy.expiry_error(item, now))
        return live

    async def _execute(self, batch: list[PendingRequest], loop) -> None:
        batch = self._expire_deadlines(batch, loop)
        if not batch:
            return
        model = self.model  # read once per batch (swap atomicity)

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
                # A lone request's failure is its own: propagate it.
                self.stats.record_error()
                # Mark as counted so the fan-out deliveries of this one
                # failure are not re-counted per request by the handler.
                exc._repro_counted = True
                item = batch[0]
                if not item.future.done():
                    item.future.set_exception(exc)
                return
            # Poison isolation: one bad request (or one transient fault)
            # must not fail its batchmates.  Re-execute each request
            # alone; healthy ones succeed bit-identically (batch
            # composition cannot change any answer), the poison one
            # fails by itself.
            self.stats.record_batch_retry()
            await self._execute_singly(batch, model, loop)
            return
        self._resolve(batch, predictions, sizes, loop)

    async def _execute_singly(self, batch, model, loop) -> None:
        for item in batch:
            def run_one(item=item):
                return predict_in_slices(model, item.patterns,
                                         self.max_batch)

            try:
                predictions, sizes = await loop.run_in_executor(
                    self._executor, run_one
                )
            except Exception as exc:  # this request really is the poison
                self.stats.record_error()
                exc._repro_counted = True
                if not item.future.done():
                    item.future.set_exception(exc)
                continue
            self._resolve([item], predictions, sizes, loop)

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
