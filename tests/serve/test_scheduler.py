"""The micro-batch scheduler: its policy, and the binding's contract.

``SchedulerPolicy`` owns every batching decision (coalescing window,
adaptive delay, shed threshold, deadline expiry) and is tested here with
no transport at all.  The asyncio :class:`MicroBatcher` is a thin
binding around it; the contract suite runs workloads through it via a
small driver and asserts the observable behavior: batch-size
histograms, shed decisions, deadline expiries, shutdown semantics, and
(always) bit-identity to direct ``predict``.
"""

from __future__ import annotations

import asyncio
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve.batcher import MicroBatcher
from repro.serve.scheduler import (
    DeadlineExceeded,
    QueueSaturated,
    SchedulerPolicy,
    ServiceClosed,
)
from repro.serve.stats import ServeStats

from .test_batcher import toy_model


class _GatedNetwork:
    """Blocks every forward until released (the batcher runs forwards on
    executor threads)."""

    def __init__(self):
        self.release = threading.Event()
        self.calls = 0

    def predict_patterns(self, patterns):
        self.calls += 1
        assert self.release.wait(timeout=30.0)
        return np.zeros(patterns.shape[0], dtype=np.int64)


def _gated_model():
    return SimpleNamespace(key="toy/gated", network=_GatedNetwork())


# ----------------------------------------------------------------------
# Driver: each workload definition run through the asyncio binding
# ----------------------------------------------------------------------
class _AsyncioDriver:
    def burst(self, model, patterns_list, stats=None, **knobs):
        """Enqueue every request before any batch executes; return the
        per-request outcomes (result array or exception)."""

        async def scenario():
            batcher = MicroBatcher(model, stats=stats, **knobs)
            futures = [
                asyncio.ensure_future(batcher.submit(p))
                for p in patterns_list
            ]
            await asyncio.sleep(0)  # let every submit enqueue
            await batcher.close()  # sentinel flushes the partial tail
            return await asyncio.gather(*futures, return_exceptions=True)

        return asyncio.run(scenario())

    def shed(self, model, patterns, **knobs):
        """Fill the queue behind a gated batch until the policy sheds;
        returns (accepted, outcomes-of-late-submits)."""

        async def scenario():
            batcher = MicroBatcher(model, **knobs)
            first = asyncio.ensure_future(batcher.submit(patterns))
            await _await_gated(model)
            late = []
            for _ in range(4):
                try:
                    late.append(
                        asyncio.ensure_future(batcher.submit(patterns))
                    )
                except QueueSaturated as exc:
                    late.append(exc)
            # submit() raises at await time, not ensure_future time.
            outcomes = []
            for item in late:
                if isinstance(item, Exception):
                    outcomes.append(item)
                    continue
                # Give shed rejections a beat to settle, then release.
                await asyncio.sleep(0.01)
                if item.done() and item.exception() is not None:
                    outcomes.append(item.exception())
                else:
                    outcomes.append(item)
            model.network.release.set()
            results = []
            for item in outcomes:
                if isinstance(item, Exception):
                    results.append(item)
                else:
                    try:
                        results.append(await item)
                    except Exception as exc:  # noqa: BLE001 - recorded
                        results.append(exc)
            await first
            await batcher.close()
            return results

        return asyncio.run(scenario())

    def expire(self, model, patterns, deadline_s, **knobs):
        """One request stuck behind a gated batch with a short deadline;
        returns its outcome."""

        async def scenario():
            batcher = MicroBatcher(model, **knobs)
            first = asyncio.ensure_future(batcher.submit(patterns))
            await _await_gated(model)
            loop = asyncio.get_running_loop()
            doomed = asyncio.ensure_future(
                batcher.submit(patterns, deadline=loop.time() + deadline_s)
            )
            await asyncio.sleep(deadline_s * 4)
            model.network.release.set()
            try:
                outcome = await doomed
            except Exception as exc:  # noqa: BLE001 - recorded
                outcome = exc
            await first
            await batcher.close()
            return outcome

        return asyncio.run(scenario())

    def closed_submit(self, model, patterns, **knobs):
        async def scenario():
            batcher = MicroBatcher(model, **knobs)
            await batcher.submit(patterns)
            await batcher.close()
            try:
                await batcher.submit(patterns)
            except Exception as exc:  # noqa: BLE001 - recorded
                return exc
            return None

        return asyncio.run(scenario())


async def _await_gated(model, timeout_s: float = 5.0):
    """Wait until the worker is inside the gated forward — i.e. the first
    request has been dequeued and the queue is empty again."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while (
        model.network.calls < 1
        and asyncio.get_running_loop().time() < deadline
    ):
        await asyncio.sleep(0.005)
    assert model.network.calls >= 1


@pytest.fixture(params=[_AsyncioDriver()], ids=["asyncio"])
def driver(request):
    return request.param


# ----------------------------------------------------------------------
# The binding's contract
# ----------------------------------------------------------------------
class TestBindingContract:
    def test_burst_coalesces_identically(self, driver, toy_inputs):
        """19 one-row requests at max_batch=8 -> batches of 8, 8, 3."""
        model = toy_model()
        stats = ServeStats()
        inputs = [toy_inputs(1) for _ in range(19)]
        results = driver.burst(
            model, [model.quantize(x) for x in inputs],
            stats=stats, max_batch=8, max_delay_ms=10_000.0,
        )
        assert dict(stats.batch_sizes) == {8: 2, 3: 1}
        for x, got in zip(inputs, results):
            np.testing.assert_array_equal(got, model.network.predict(x))

    def test_oversized_request_slices_identically(self, driver, toy_inputs):
        model = toy_model()
        stats = ServeStats()
        x = toy_inputs(11)
        (result,) = driver.burst(
            model, [model.quantize(x)],
            stats=stats, max_batch=4, max_delay_ms=1.0,
        )
        assert dict(stats.batch_sizes) == {4: 2, 3: 1}
        np.testing.assert_array_equal(result, model.network.predict(x))

    def test_bit_identity_to_direct_predict(self, driver, rng):
        model = toy_model("toy2", "float4_3")
        requests = [rng.normal(size=(rows, 5)) for rows in (1, 3, 2, 5, 1)]
        results = driver.burst(
            model, [model.quantize(x) for x in requests],
            max_batch=3, max_delay_ms=10_000.0,
        )
        for x, got in zip(requests, results):
            np.testing.assert_array_equal(got, model.network.predict(x))

    def test_shed_threshold_rejects_identically(self, driver):
        """queue_limit=4, shed_threshold=0.5 -> exactly 2 late requests
        queue behind a gated batch, the rest shed with QueueSaturated."""
        model = _gated_model()
        patterns = np.zeros((1, 4), dtype=np.uint32)
        outcomes = driver.shed(
            model, patterns,
            max_batch=1, max_delay_ms=0.0, queue_limit=4,
            shed_threshold=0.5,
        )
        accepted = [o for o in outcomes if isinstance(o, np.ndarray)]
        shed = [o for o in outcomes if isinstance(o, QueueSaturated)]
        assert len(accepted) == 2
        assert len(shed) == 2

    def test_deadline_expires_identically(self, driver):
        model = _gated_model()
        patterns = np.zeros((1, 4), dtype=np.uint32)
        outcome = driver.expire(
            model, patterns, deadline_s=0.05,
            max_batch=1, max_delay_ms=0.0,
        )
        assert isinstance(outcome, DeadlineExceeded)

    def test_submit_after_close_raises_identically(self, driver, toy_inputs):
        model = toy_model()
        outcome = driver.closed_submit(
            model, model.quantize(toy_inputs(1)),
            max_batch=4, max_delay_ms=1.0,
        )
        assert isinstance(outcome, ServiceClosed)

    def test_poisoned_batch_isolated_identically(self, driver, toy_inputs):
        """A wrong-width request coalesced with good ones fails alone;
        the batch survives and good requests still answer correctly."""
        model = toy_model()
        good = [model.quantize(toy_inputs(1)) for _ in range(2)]
        bad = np.zeros((1, 7), dtype=np.uint32)
        outcomes = driver.burst(
            model, [good[0], bad, good[1]],
            max_batch=8, max_delay_ms=10_000.0,
        )
        assert isinstance(outcomes[1], Exception)
        for patterns, got in ((good[0], outcomes[0]), (good[1], outcomes[2])):
            np.testing.assert_array_equal(
                got, model.network.predict_patterns(patterns)
            )


class TestSchedulerPolicy:
    """The shared brain in isolation (no transport at all)."""

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            SchedulerPolicy(max_batch=0)
        for bad_delay in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SchedulerPolicy(max_delay_ms=bad_delay)
        with pytest.raises(ValueError):
            SchedulerPolicy(queue_limit=0)
        with pytest.raises(ValueError):
            SchedulerPolicy(shed_threshold=1.5)

    def test_shed_math_matches_served_semantics(self):
        policy = SchedulerPolicy(queue_limit=4, shed_threshold=0.5)
        assert policy.shed_at == 2
        assert not policy.should_shed(1)
        assert policy.should_shed(2)
        assert SchedulerPolicy(shed_threshold=None).should_shed(10**6) is False

    def test_shed_at_floor_is_one(self):
        policy = SchedulerPolicy(queue_limit=100, shed_threshold=0.001)
        assert policy.shed_at == 1

    def test_split_expired_partitions_by_deadline(self):
        from repro.serve.scheduler import PendingRequest

        policy = SchedulerPolicy()

        def pending(deadline):
            return PendingRequest(
                patterns=np.zeros((1, 4), dtype=np.uint32), rows=1,
                future=None, enqueued=0.0, deadline=deadline,
            )

        batch = [pending(None), pending(5.0), pending(15.0)]
        live, expired = policy.split_expired(batch, now=10.0)
        assert [p.deadline for p in live] == [None, 15.0]
        assert [p.deadline for p in expired] == [5.0]
        error = policy.expiry_error(expired[0], now=10.0)
        assert isinstance(error, DeadlineExceeded)

    def test_effective_delay_branches(self):
        policy = SchedulerPolicy(max_batch=8, max_delay_ms=2.0)
        assert policy.effective_delay == pytest.approx(0.002)  # cold
        policy._arrival_gap_s = 0.0001  # dense: fill time 0.7ms < cap
        assert policy.effective_delay == pytest.approx(0.0007)
        policy._arrival_gap_s = 0.004  # sparse: decay quadratically
        assert policy.effective_delay == pytest.approx(0.001)
        off = SchedulerPolicy(max_delay_ms=2.0, adaptive_delay=False)
        off._arrival_gap_s = 1e-6
        assert off.effective_delay == pytest.approx(0.002)

    @pytest.mark.parametrize(
        "gap_s, expected_s",
        [
            (0.2, 0.0),  # window 0.02 ms: under the floor, flush at once
            (0.005, 0.0),  # window 0.8 ms: still under the floor
            (0.004, 0.001),  # window exactly 1 ms: kept
            (0.003, 0.002 * (0.002 / 0.003)),  # window 1.33 ms: kept
        ],
    )
    def test_sparse_window_under_one_ms_flushes_at_once(
        self, gap_s, expected_s
    ):
        policy = SchedulerPolicy(max_batch=8, max_delay_ms=2.0)
        policy._arrival_gap_s = gap_s
        assert policy.effective_delay == pytest.approx(expected_s)

    def test_sub_ms_max_delay_never_waits_on_sparse_traffic(self):
        policy = SchedulerPolicy(max_batch=8, max_delay_ms=0.5)
        for gap_s in (0.0005, 0.0006, 0.001, 0.01, 1.0, 1e3):
            policy._arrival_gap_s = gap_s
            assert policy.effective_delay == 0.0
        # Cold start and dense traffic keep their windows below 1 ms too.
        assert SchedulerPolicy(max_delay_ms=0.5).effective_delay == 0.0005
        policy._arrival_gap_s = 0.00005  # fill time 0.35 ms < 0.5 ms cap
        assert policy.effective_delay == pytest.approx(0.00035)

    def test_ewma_observes_arrivals(self):
        policy = SchedulerPolicy()
        policy.observe_arrival(10.0)
        assert policy._arrival_gap_s is None
        policy.observe_arrival(10.1)
        assert policy._arrival_gap_s == pytest.approx(0.1)
        policy.observe_arrival(10.3)
        assert policy._arrival_gap_s == pytest.approx(0.125)

