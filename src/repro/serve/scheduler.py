"""Transport-agnostic micro-batch scheduling core.

The micro-batching contract — coalesce until ``max_batch`` rows or an
(adaptively tuned) deadline, shed when saturated, expire per-request
deadlines before any kernel work, split oversized stacks, isolate poison
requests — is pure scheduling policy.  Nothing in it needs an event
loop, so this module holds the policy (:class:`SchedulerPolicy`: effective
delay, shed threshold, deadline expiry) and the executor-side helpers
(:func:`stack_batch`, :func:`predict_in_slices`), and the transport binds
them thinly: :class:`~repro.serve.batcher.MicroBatcher`, the asyncio
binding that the HTTP server — and so every process-pool worker — runs,
one worker task per served model.  ``tests/serve/test_scheduler.py``
tests the policy with no transport at all and the binding's contract
through one driver.

**Bit-exactness.**  Scheduling cannot change any answer: quantization is
elementwise, every kernel partial sum is an exact integer in float64, and
the rank-table argmax is per-row — so coalescing or splitting is
bit-identical to direct ``predict``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .. import faults

__all__ = [
    "SchedulerPolicy",
    "ServiceClosed",
    "QueueSaturated",
    "DeadlineExceeded",
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
#: Registered here because the batch-phase fire lives in the shared
#: executor body below; the pool only adds the lifecycle phases.
POINT_WORKER = faults.register_point(
    "pool.worker", "the process executing serving work (pool workers: "
    "start/ready/drain lifecycle phases plus every batch)"
)

#: EWMA smoothing factor for the inter-arrival gap estimator: ~the last
#: dozen arrivals dominate, so the effective delay tracks load shifts
#: within a few requests without chasing single-gap noise.
_EWMA_ALPHA = 0.25


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
    """One enqueued request: quantized patterns plus its result future.

    ``future`` is whatever the transport resolves (an
    :class:`asyncio.Future` under :class:`~repro.serve.batcher.MicroBatcher`);
    the shared code touches only ``done`` / ``set_result`` /
    ``set_exception``.
    """

    patterns: np.ndarray  # (rows, in) uint32
    rows: int
    future: Any
    enqueued: float  # transport clock time, for queue+execute latency
    deadline: float | None = None  # absolute clock time; None = none


class SchedulerPolicy:
    """Every micro-batching *decision*, transport-free.

    Owns the knobs (validated once, at construction) and the adaptive
    coalescing estimator; the binding asks it what to do and keeps only
    the plumbing (queue, futures, worker task) to itself.
    """

    #: The shortest timed wait worth arming (seconds).  asyncio's epoll
    #: selector rounds every timeout up to whole milliseconds, so a
    #: shorter window still sleeps a full 1 ms; and a sparse window under
    #: it expects at most ``(max_delay / gap) ** 2`` batchmates (0.25 at
    #: the default 2 ms), which is not worth that sleep.
    MIN_TIMED_WAIT_S = 1e-3

    def __init__(
        self,
        *,
        max_batch: int = 32,
        max_delay_ms: float = 2.0,
        queue_limit: int = 256,
        adaptive_delay: bool = True,
        shed_threshold: float | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if not (math.isfinite(max_delay_ms) and max_delay_ms >= 0):
            raise ValueError("max_delay_ms must be a finite number >= 0")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if shed_threshold is not None and not 0.0 < shed_threshold <= 1.0:
            raise ValueError("shed_threshold must be in (0, 1]")
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

    # -- adaptive coalescing delay --------------------------------------
    def observe_arrival(self, now: float) -> None:
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

    # -- per-submit decisions -------------------------------------------
    def should_shed(self, qsize: int) -> bool:
        """Whether a submit arriving at queue depth ``qsize`` is shed."""
        return self.shed_at is not None and qsize >= self.shed_at

    @staticmethod
    def validate_patterns(patterns) -> np.ndarray:
        patterns = np.asarray(patterns, dtype=np.uint32)
        if patterns.ndim != 2:
            raise ValueError("patterns must be 2-D (rows, features)")
        return patterns

    # -- batch-assembly decisions ---------------------------------------
    def split_expired(
        self, batch: list[PendingRequest], now: float
    ) -> tuple[list[PendingRequest], list[PendingRequest]]:
        """Partition an assembled batch into (live, expired) requests.

        Expiry is judged once, at batch assembly: expired rows are
        answered without ever touching a kernel, and live rows keep
        their place in the batch.
        """
        live, expired = [], []
        for item in batch:
            if item.deadline is not None and now > item.deadline:
                expired.append(item)
            else:
                live.append(item)
        return live, expired

    def expiry_error(self, item: PendingRequest, now: float) -> DeadlineExceeded:
        """The 504-material exception for one expired request."""
        exc = DeadlineExceeded(
            f"deadline expired after "
            f"{(now - item.enqueued) * 1000.0:.1f}ms in queue"
        )
        exc._repro_counted = True
        return exc


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
