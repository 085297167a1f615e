"""Micro-batching scheduler edge cases (no HTTP involved).

Covers the contract pinned down in ``docs/serving.md``: deadline flush for
lone requests, ``max_batch`` overflow splitting, per-model batching (no
cross-batching), bit-identity to direct ``predict`` under concurrent load,
bounded-queue backpressure, load shedding, per-request deadline expiry,
knob validation, the adaptive coalescing window, and drain-on-shutdown.
"""

from __future__ import annotations

import asyncio
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import formats
from repro.serve.batcher import (
    DeadlineExceeded,
    MicroBatcher,
    PendingRequest,
    QueueSaturated,
    ServiceClosed,
)
from repro.serve.registry import build_served_model
from repro.serve.stats import ServeStats

from .conftest import tiny_loader


def toy_model(dataset="toy", format_name="posit8_1"):
    return build_served_model(dataset, format_name, tiny_loader)


async def _submit_burst(batcher, pattern_rows):
    """Enqueue every request before the worker wakes, then gather results.

    ``asyncio.gather`` schedules the submit tasks ahead of the worker's
    queue wake-up callback, so the whole burst is coalesced exactly as if
    it had arrived while a batch was executing.
    """
    return await asyncio.gather(*(batcher.submit(p) for p in pattern_rows))


class TestDeadlineFlush:
    def test_single_request_flushes_at_max_delay(self, toy_inputs):
        model = toy_model()
        delay_ms = 80.0
        x = toy_inputs(1)

        async def scenario():
            stats = ServeStats()
            batcher = MicroBatcher(
                model, max_batch=8, max_delay_ms=delay_ms, stats=stats
            )
            loop = asyncio.get_running_loop()
            patterns = model.quantize(x)
            start = loop.time()
            result = await batcher.submit(patterns)
            elapsed = loop.time() - start
            await batcher.close()
            return result, elapsed, stats

        result, elapsed, stats = asyncio.run(scenario())
        # The lone request waited for batchmates until the deadline, then
        # flushed as a batch of one.
        assert elapsed >= 0.5 * delay_ms / 1000.0
        assert elapsed < 5.0
        assert dict(stats.batch_sizes) == {1: 1}
        assert stats.requests == 1 and stats.samples == 1
        np.testing.assert_array_equal(result, model.network.predict(x))

    def test_zero_delay_still_answers(self, toy_inputs):
        model = toy_model()

        async def scenario():
            batcher = MicroBatcher(model, max_batch=8, max_delay_ms=0.0)
            result = await batcher.submit(model.quantize(toy_inputs(2)))
            await batcher.close()
            return result

        assert asyncio.run(scenario()).shape == (2,)


class TestBatchLimits:
    def test_burst_coalesces_to_max_batch_and_splits_overflow(self, toy_inputs):
        model = toy_model()
        stats = ServeStats()
        inputs = [toy_inputs(1) for _ in range(19)]

        async def scenario():
            batcher = MicroBatcher(
                model, max_batch=8, max_delay_ms=10_000.0, stats=stats
            )
            submits = [
                asyncio.ensure_future(
                    batcher.submit(model.quantize(x))
                ) for x in inputs
            ]
            await asyncio.sleep(0)  # let every submit enqueue
            await batcher.close()  # sentinel flushes the final partial batch
            return await asyncio.gather(*submits)

        results = asyncio.run(scenario())
        # 19 single-row requests at max_batch=8: two full batches + the
        # remainder flushed by shutdown — never a batch above the cap.
        assert sum(stats.batch_sizes.values()) == 3
        assert max(stats.batch_sizes) <= 8
        assert stats.batch_sizes[8] == 2 and stats.batch_sizes[3] == 1
        for x, got in zip(inputs, results):
            np.testing.assert_array_equal(got, model.network.predict(x))

    def test_oversized_request_splits_into_max_batch_slices(self, toy_inputs):
        model = toy_model()
        stats = ServeStats()
        x = toy_inputs(11)

        async def scenario():
            batcher = MicroBatcher(
                model, max_batch=4, max_delay_ms=1.0, stats=stats
            )
            result = await batcher.submit(model.quantize(x))
            await batcher.close()
            return result

        result = asyncio.run(scenario())
        # One 11-row request overflows max_batch=4: the kernel sees slices
        # of 4, 4, 3 and the caller still gets all 11 rows back in order.
        assert dict(stats.batch_sizes) == {4: 2, 3: 1}
        np.testing.assert_array_equal(result, model.network.predict(x))


class TestFusedServingIdentity:
    def test_served_answers_match_per_layer_oracle(self, toy_inputs):
        """Served predictions ride the fused network plan (warmed at model
        load) and must stay bit-identical to the rank-space argmax of the
        scalar EMAC oracle, run one layer at a time."""
        model = toy_model()
        # build_served_model compiled the fused plan off the request path.
        assert model.network._network_plan is not None
        x = toy_inputs(9)
        patterns = model.quantize(x)
        out = np.asarray(
            [model.network.forward_scalar(row) for row in patterns],
            dtype=np.uint32,
        )
        ranks = formats.backend_for(model.network.fmt).rank_table()
        expected = np.argmax(ranks[out.astype(np.int64)], axis=1)

        async def scenario():
            batcher = MicroBatcher(model, max_batch=4, max_delay_ms=1.0)
            result = await batcher.submit(patterns)
            await batcher.close()
            return result

        np.testing.assert_array_equal(asyncio.run(scenario()), expected)
        np.testing.assert_array_equal(model.network.predict(x), expected)


class TestModelIsolation:
    def test_concurrent_mixed_model_requests_do_not_cross_batch(self, rng):
        model_a = toy_model("toy")
        model_b = toy_model("toy2", "float4_3")
        stats = ServeStats()
        xs_a = [rng.normal(size=(2, 4)) for _ in range(6)]
        xs_b = [rng.normal(size=(3, 5)) for _ in range(6)]

        async def scenario():
            shared = dict(max_batch=8, max_delay_ms=20.0, stats=stats)
            batcher_a = MicroBatcher(model_a, **shared)
            batcher_b = MicroBatcher(model_b, **shared)
            interleaved = []
            for xa, xb in zip(xs_a, xs_b):
                interleaved.append(batcher_a.submit(model_a.quantize(xa)))
                interleaved.append(batcher_b.submit(model_b.quantize(xb)))
            results = await asyncio.gather(*interleaved)
            await asyncio.gather(batcher_a.close(), batcher_b.close())
            return results

        results = asyncio.run(scenario())
        for i, (xa, xb) in enumerate(zip(xs_a, xs_b)):
            np.testing.assert_array_equal(
                results[2 * i], model_a.network.predict(xa)
            )
            np.testing.assert_array_equal(
                results[2 * i + 1], model_b.network.predict(xb)
            )
        # Per-model accounting proves no samples crossed queues.
        assert stats.per_model[model_a.key] == 12
        assert stats.per_model[model_b.key] == 18


_FORMATS = ("posit8_1", "posit6_0", "float4_3", "float3_2", "fixed8_4")
_MODEL_CACHE: dict[str, object] = {}


def _cached_model(format_name):
    if format_name not in _MODEL_CACHE:
        _MODEL_CACHE[format_name] = toy_model("toy", format_name)
    return _MODEL_CACHE[format_name]


class TestBitIdentity:
    @settings(max_examples=12, deadline=None)
    @given(
        format_name=st.sampled_from(_FORMATS),
        row_counts=st.lists(st.integers(1, 9), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        max_batch=st.integers(1, 6),
    )
    def test_served_equals_direct_under_concurrent_load(
        self, format_name, row_counts, seed, max_batch
    ):
        """Property: any coalescing of any request mix changes no bits."""
        model = _cached_model(format_name)
        gen = np.random.default_rng(seed)
        requests = [gen.normal(scale=1.5, size=(rows, 4)) for rows in row_counts]

        async def scenario():
            batcher = MicroBatcher(
                model, max_batch=max_batch, max_delay_ms=1.0
            )
            results = await _submit_burst(
                batcher, [model.quantize(x) for x in requests]
            )
            await batcher.close()
            return results

        results = asyncio.run(scenario())
        for x, got in zip(requests, results):
            np.testing.assert_array_equal(got, model.network.predict(x))


class _GatedNetwork:
    """A stand-in network whose forward blocks until released."""

    def __init__(self):
        self.release = threading.Event()
        self.calls = 0

    def predict_patterns(self, patterns):
        self.calls += 1
        assert self.release.wait(timeout=30.0)
        return np.zeros(patterns.shape[0], dtype=np.int64)


def _gated_model():
    return SimpleNamespace(key="toy/gated", network=_GatedNetwork())


async def _await_gated(model, timeout_s: float = 5.0):
    """Wait until the worker is inside the gated forward — i.e. the first
    request has been dequeued and the queue is empty again."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while model.network.calls < 1 and loop.time() < deadline:
        await asyncio.sleep(0.005)
    assert model.network.calls >= 1


class TestBackpressure:
    def test_bounded_queue_blocks_submitters_until_capacity_frees(self):
        network = _GatedNetwork()
        model = SimpleNamespace(key="toy/stub", network=network)
        patterns = np.zeros((1, 4), dtype=np.uint32)

        async def scenario():
            batcher = MicroBatcher(
                model, max_batch=1, max_delay_ms=0.0, queue_limit=2
            )
            submits = [
                asyncio.ensure_future(batcher.submit(patterns))
                for _ in range(6)
            ]
            # Let the worker pick up the first request (it blocks in the
            # gated forward); the queue can then hold only queue_limit more.
            for _ in range(10):
                await asyncio.sleep(0.01)
            assert batcher.pending <= 2
            blocked = [s for s in submits if not s.done()]
            assert len(blocked) == 6  # nothing answered while gated
            network.release.set()
            results = await asyncio.gather(*submits)
            await batcher.close()
            return results

        results = asyncio.run(scenario())
        assert all(r.shape == (1,) for r in results)
        assert network.calls == 6  # max_batch=1: every request its own batch


class TestShedding:
    def test_shed_math_matches_served_semantics(self):
        model = toy_model()
        batcher = MicroBatcher(model, queue_limit=4, shed_threshold=0.5)
        unshed = MicroBatcher(model, queue_limit=4, shed_threshold=None)
        assert batcher.shed_at == 2  # ceil(0.5 * 4)
        shedding = []
        for _ in range(4):
            shedding.append((batcher.shedding, unshed.shedding))
            batcher._queue.put_nowait(None)
            unshed._queue.put_nowait(None)
        assert shedding == [(False, False), (False, False),
                            (True, False), (True, False)]

    def test_shed_at_floor_is_one(self):
        batcher = MicroBatcher(
            toy_model(), queue_limit=100, shed_threshold=0.001
        )
        assert batcher.shed_at == 1

    def test_shed_threshold_rejects_behind_a_gated_batch(self):
        """queue_limit=4, shed_threshold=0.5 -> exactly 2 late requests
        queue behind a gated batch, the other 2 shed with QueueSaturated."""
        model = _gated_model()
        patterns = np.zeros((1, 4), dtype=np.uint32)

        async def scenario():
            batcher = MicroBatcher(
                model, max_batch=1, max_delay_ms=0.0, queue_limit=4,
                shed_threshold=0.5,
            )
            first = asyncio.ensure_future(batcher.submit(patterns))
            await _await_gated(model)
            late = [
                asyncio.ensure_future(batcher.submit(patterns))
                for _ in range(4)
            ]
            await asyncio.sleep(0.01)  # the shed ones fail at once
            shed = [f.exception() for f in late if f.done()]
            model.network.release.set()
            outcomes = await asyncio.gather(*late, return_exceptions=True)
            await first
            await batcher.close()
            return shed, outcomes, batcher.stats

        shed, outcomes, stats = asyncio.run(scenario())
        assert len(shed) == 2
        assert all(isinstance(exc, QueueSaturated) for exc in shed)
        answered = [o for o in outcomes if isinstance(o, np.ndarray)]
        assert len(answered) == 2
        assert stats.shed == 2


class TestDeadlineExpiry:
    def test_expiry_partitions_a_batch_by_deadline(self):
        """Expiry is judged at batch assembly: expired requests are
        answered DeadlineExceeded, live ones keep their place."""

        async def scenario():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher(toy_model())
            now = loop.time()
            batch = [
                PendingRequest(
                    np.zeros((1, 4), dtype=np.uint32), 1,
                    loop.create_future(), now, deadline,
                )
                for deadline in (None, now - 1.0, now + 60.0)
            ]
            live = batcher._expire_deadlines(batch, loop)
            return batch, live, batcher.stats

        batch, live, stats = asyncio.run(scenario())
        assert [item.deadline for item in live] == [
            batch[0].deadline, batch[2].deadline,
        ]
        assert not batch[0].future.done() and not batch[2].future.done()
        assert isinstance(batch[1].future.exception(), DeadlineExceeded)
        assert stats.deadline_expired == 1

    def test_deadline_expires_while_queued_behind_a_batch(self):
        model = _gated_model()
        patterns = np.zeros((1, 4), dtype=np.uint32)

        async def scenario():
            batcher = MicroBatcher(model, max_batch=1, max_delay_ms=0.0)
            first = asyncio.ensure_future(batcher.submit(patterns))
            await _await_gated(model)
            loop = asyncio.get_running_loop()
            doomed = asyncio.ensure_future(
                batcher.submit(patterns, deadline=loop.time() + 0.05)
            )
            await asyncio.sleep(0.2)
            model.network.release.set()
            outcome = await asyncio.gather(doomed, return_exceptions=True)
            await first
            await batcher.close()
            return outcome[0]

        assert isinstance(asyncio.run(scenario()), DeadlineExceeded)
        assert model.network.calls == 1  # the expired rows never ran


class TestShutdown:
    def test_close_drains_pending_queue(self, toy_inputs):
        model = toy_model()
        stats = ServeStats()
        inputs = [toy_inputs(1) for _ in range(7)]

        async def scenario():
            batcher = MicroBatcher(
                model, max_batch=100, max_delay_ms=10_000.0, stats=stats
            )
            submits = [
                asyncio.ensure_future(batcher.submit(model.quantize(x)))
                for x in inputs
            ]
            await asyncio.sleep(0)
            await batcher.close()  # must flush the never-full batch
            results = await asyncio.gather(*submits)
            assert batcher.pending == 0
            with pytest.raises(ServiceClosed):
                await batcher.submit(model.quantize(inputs[0]))
            return results

        results = asyncio.run(scenario())
        assert stats.requests == 7
        for x, got in zip(inputs, results):
            np.testing.assert_array_equal(got, model.network.predict(x))

    def test_close_is_idempotent(self, toy_inputs):
        model = toy_model()

        async def scenario():
            batcher = MicroBatcher(model, max_delay_ms=1.0)
            await batcher.submit(model.quantize(toy_inputs(1)))
            await batcher.close()
            await batcher.close()

        asyncio.run(scenario())


class TestValidation:
    def test_rejects_bad_parameters(self):
        model = toy_model()
        with pytest.raises(ValueError):
            MicroBatcher(model, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(model, max_delay_ms=-1.0)

    def test_knob_validation(self):
        model = toy_model()
        for knobs in (
            {"max_batch": 0},
            {"max_delay_ms": -1.0},
            {"max_delay_ms": float("nan")},
            {"max_delay_ms": float("inf")},
            {"queue_limit": 0},
            {"shed_threshold": 1.5},
        ):
            with pytest.raises(ValueError):
                MicroBatcher(model, **knobs)

    def test_rejects_non_2d_patterns(self, toy_inputs):
        model = toy_model()

        async def scenario():
            batcher = MicroBatcher(model, max_delay_ms=1.0)
            with pytest.raises(ValueError):
                await batcher.submit(np.zeros(4, dtype=np.uint32))
            await batcher.close()

        asyncio.run(scenario())

    def test_mismatched_width_batch_fails_cleanly_and_batcher_survives(
        self, toy_inputs
    ):
        """Coalescing requests of different widths must resolve every
        future with the error — never kill the worker task."""
        model = toy_model()
        good = model.quantize(toy_inputs(1))  # (1, 4)
        bad = np.zeros((1, 5), dtype=np.uint32)  # wrong fan-in

        async def scenario():
            batcher = MicroBatcher(model, max_batch=8, max_delay_ms=50.0)
            mixed = await asyncio.gather(
                batcher.submit(good), batcher.submit(bad),
                return_exceptions=True,
            )
            # The batcher is still alive and serves correct requests.
            ok = await batcher.submit(good)
            await batcher.close()
            return mixed, ok

        mixed, ok = asyncio.run(scenario())
        assert any(isinstance(m, Exception) for m in mixed)
        np.testing.assert_array_equal(
            ok, model.network.predict_patterns(good)
        )

    def test_executor_failure_propagates_to_all_waiters(self):
        class ExplodingNetwork:
            def predict_patterns(self, patterns):
                raise RuntimeError("kernel exploded")

        model = SimpleNamespace(key="toy/boom", network=ExplodingNetwork())
        stats = ServeStats()
        patterns = np.zeros((1, 4), dtype=np.uint32)

        async def scenario():
            batcher = MicroBatcher(
                model, max_batch=4, max_delay_ms=50.0, stats=stats
            )
            submits = [
                asyncio.ensure_future(batcher.submit(patterns))
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            gathered = await asyncio.gather(*submits, return_exceptions=True)
            await batcher.close()
            return gathered

        outcomes = asyncio.run(scenario())
        assert all(isinstance(o, RuntimeError) for o in outcomes)
        assert stats.errors >= 1


class TestZeroRowRequests:
    """Regression: a (0, features) request used to produce an empty
    ``parts`` list in ``_execute`` — ``np.concatenate([])`` raised and
    failed the whole coalesced batch."""

    def test_lone_zero_row_request_gets_empty_predictions(self, toy_inputs):
        model = toy_model()

        async def scenario():
            stats = ServeStats()
            batcher = MicroBatcher(
                model, max_batch=8, max_delay_ms=1.0, stats=stats
            )
            result = await batcher.submit(model.quantize(toy_inputs(0)))
            await batcher.close()
            return result, stats

        result, stats = asyncio.run(scenario())
        assert result.shape == (0,)
        assert result.dtype == np.int64
        assert stats.errors == 0
        assert stats.requests == 1 and stats.samples == 0

    def test_zero_row_coalesced_with_normal_requests(self, toy_inputs):
        """A zero-row request batched alongside real ones must not poison
        the batch: everyone gets their own (possibly empty) slice."""
        model = toy_model()
        x = toy_inputs(3)

        async def scenario():
            stats = ServeStats()
            batcher = MicroBatcher(
                model, max_batch=8, max_delay_ms=200.0, stats=stats
            )
            empty, full = await _submit_burst(
                batcher, [model.quantize(toy_inputs(0)), model.quantize(x)]
            )
            await batcher.close()
            return empty, full, stats

        empty, full, stats = asyncio.run(scenario())
        assert empty.shape == (0,)
        np.testing.assert_array_equal(full, model.network.predict(x))
        assert stats.errors == 0

    def test_all_zero_row_burst(self, toy_inputs):
        model = toy_model()

        async def scenario():
            batcher = MicroBatcher(model, max_batch=8, max_delay_ms=200.0)
            results = await _submit_burst(
                batcher, [model.quantize(toy_inputs(0)) for _ in range(3)]
            )
            await batcher.close()
            return results

        for result in asyncio.run(scenario()):
            assert result.shape == (0,)


class TestAdaptiveDelay:
    """Unit tests for the EWMA-tuned effective coalescing window.  Pure
    scheduling: none of these change any served bit (the bit-identity
    suites above run with adaptation on, the default)."""

    def _batcher(self, **kw):
        kw.setdefault("max_batch", 8)
        kw.setdefault("max_delay_ms", 2.0)
        return MicroBatcher(toy_model(), **kw)

    def test_cold_start_uses_full_window(self):
        batcher = self._batcher()
        assert batcher.effective_delay == batcher.max_delay
        assert batcher.effective_delay_ms == 2.0

    def test_disabled_always_uses_full_window(self):
        batcher = self._batcher(adaptive_delay=False)
        batcher._arrival_gap_s = 1e-6  # would shrink the window if enabled
        assert batcher.effective_delay == batcher.max_delay

    def test_dense_traffic_waits_expected_fill_time(self):
        batcher = self._batcher()  # max_delay = 2ms, max_batch = 8
        batcher._arrival_gap_s = 0.0001  # 0.1ms gaps
        # expected fill: gap * (max_batch - 1) = 0.7ms < 2ms cap
        assert batcher.effective_delay == pytest.approx(0.0007)

    def test_dense_traffic_capped_at_max_delay(self):
        batcher = self._batcher()
        batcher._arrival_gap_s = 0.0015  # fill time 10.5ms > 2ms cap
        assert batcher.effective_delay == pytest.approx(0.002)

    def test_sparse_traffic_decays_toward_zero(self):
        batcher = self._batcher()  # max_delay = 2ms
        batcher._arrival_gap_s = 0.004  # 2x the window
        assert batcher.effective_delay == pytest.approx(0.001)
        batcher._arrival_gap_s = 0.2  # 100x the window: 0.02 ms < 1 ms
        assert batcher.effective_delay == 0.0

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
        batcher = self._batcher()  # max_delay = 2ms, max_batch = 8
        batcher._arrival_gap_s = gap_s
        assert batcher.effective_delay == pytest.approx(expected_s)

    def test_sub_ms_max_delay_never_waits_on_sparse_traffic(self):
        batcher = self._batcher(max_delay_ms=0.5)
        for gap_s in (0.0005, 0.0006, 0.001, 0.01, 1.0, 1e3):
            batcher._arrival_gap_s = gap_s
            assert batcher.effective_delay == 0.0
        # Cold start and dense traffic keep their windows below 1 ms too.
        assert self._batcher(max_delay_ms=0.5).effective_delay == 0.0005
        batcher._arrival_gap_s = 0.00005  # fill time 0.35 ms < 0.5 ms cap
        assert batcher.effective_delay == pytest.approx(0.00035)

    def test_sparse_lone_request_arms_no_timed_wait(
        self, toy_inputs, monkeypatch
    ):
        """A sub-millisecond sparse window flushes at once: the worker
        never arms a timed queue wait (epoll would sleep a full 1 ms)."""
        model = toy_model()
        x = toy_inputs(1)
        timed_waits = []
        real_wait_for = asyncio.wait_for

        def spy(awaitable, timeout):
            timed_waits.append(timeout)
            return real_wait_for(awaitable, timeout)

        monkeypatch.setattr(asyncio, "wait_for", spy)

        async def scenario():
            batcher = self._batcher()  # max_delay = 2ms
            batcher._arrival_gap_s = 0.005  # window 0.8 ms
            result = await batcher.submit(model.quantize(x))
            await batcher.close()
            return result

        np.testing.assert_array_equal(
            asyncio.run(scenario()), model.network.predict(x)
        )
        assert timed_waits == []

    def test_sparse_same_tick_burst_still_coalesces(self, toy_inputs):
        """The zero window still drains a burst that arrived in the same
        tick: five 1-row submits run as one batch of 5."""
        model = toy_model()
        inputs = [toy_inputs(1) for _ in range(5)]

        async def scenario():
            stats = ServeStats()
            batcher = self._batcher(stats=stats)
            # Sparse enough that the burst's own zero gaps leave the
            # window under 1 ms (gap 0.2 s * 0.75**4 = 63 ms: 0.06 ms).
            batcher._arrival_gap_s = 0.2
            results = await _submit_burst(
                batcher, [model.quantize(x) for x in inputs]
            )
            assert batcher.effective_delay == 0.0
            await batcher.close()
            return results, stats

        results, stats = asyncio.run(scenario())
        assert dict(stats.batch_sizes) == {5: 1}
        for x, got in zip(inputs, results):
            np.testing.assert_array_equal(got, model.network.predict(x))

    def test_continuous_at_the_window_boundary(self):
        batcher = self._batcher()
        batcher._arrival_gap_s = batcher.max_delay
        # Both branches give max_delay * 1 here (dense side caps at
        # max_delay since gap * 7 > max_delay).
        assert batcher.effective_delay == pytest.approx(batcher.max_delay)

    def test_bounded_in_zero_to_max_delay(self):
        batcher = self._batcher()
        for gap in (0.0, 1e-9, 1e-4, 2e-3, 5e-3, 1.0, 1e3):
            batcher._arrival_gap_s = gap
            assert 0.0 <= batcher.effective_delay <= batcher.max_delay

    def test_ewma_update_tracks_arrivals(self):
        batcher = self._batcher()
        batcher._observe_arrival(10.0)
        assert batcher._arrival_gap_s is None  # first arrival: no gap yet
        batcher._observe_arrival(10.1)
        assert batcher._arrival_gap_s == pytest.approx(0.1)
        batcher._observe_arrival(10.3)
        # gap 0.2, EWMA with alpha 0.25: 0.1 + 0.25 * (0.2 - 0.1)
        assert batcher._arrival_gap_s == pytest.approx(0.125)

    def test_ewma_clamps_clock_regression_to_zero_gap(self):
        batcher = self._batcher()
        batcher._observe_arrival(10.0)
        batcher._observe_arrival(9.0)  # loop.time() never regresses, but
        assert batcher._arrival_gap_s == 0.0  # the estimator shrugs it off

    def test_sparse_traffic_flushes_much_faster_than_the_window(
        self, toy_inputs
    ):
        """Integration: after sparse arrivals, a lone request should not
        pay anywhere near the full (long) coalescing window."""
        model = toy_model()
        window_ms = 500.0
        x = toy_inputs(1)

        async def scenario():
            batcher = MicroBatcher(
                model, max_batch=8, max_delay_ms=window_ms
            )
            # Seed the estimator with very sparse traffic: gaps 100x the
            # window -> effective delay 500ms * (500ms / 50s) = 5ms.
            batcher._arrival_gap_s = 50.0
            loop = asyncio.get_running_loop()
            start = loop.time()
            result = await batcher.submit(model.quantize(x))
            elapsed = loop.time() - start
            await batcher.close()
            return result, elapsed

        result, elapsed = asyncio.run(scenario())
        np.testing.assert_array_equal(result, model.network.predict(x))
        # Far below the fixed 500ms window a non-adaptive batcher pays.
        assert elapsed < 0.25

    def test_fixed_window_still_honored_when_disabled(self, toy_inputs):
        model = toy_model()

        async def scenario():
            batcher = MicroBatcher(
                model,
                max_batch=8,
                max_delay_ms=60.0,
                adaptive_delay=False,
            )
            patterns = model.quantize(toy_inputs(1))
            await batcher.submit(patterns)
            await asyncio.sleep(0.005)
            loop = asyncio.get_running_loop()
            start = loop.time()
            await batcher.submit(patterns)
            elapsed = loop.time() - start
            await batcher.close()
            return elapsed

        # With adaptation off, the lone request waits the full window.
        assert asyncio.run(scenario()) >= 0.03
