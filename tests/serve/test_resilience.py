"""Serving-tier resilience: deadlines, load shedding, poison isolation,
client retries, and automatic canary rollback.

The through-line is the bit-exactness invariant: every recovery path —
a re-executed batch, a retried request, a rolled-back generation — must
produce answers bit-identical to the fault-free path, so each test can
assert recovery by equality against a direct ``predict``.
"""

from __future__ import annotations

import asyncio
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro import faults
from repro.serve import (
    DeadlineExceeded,
    ModelRegistry,
    QueueSaturated,
    ServeClient,
    ServeError,
    start_in_thread,
)
from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.registry import build_served_model
from repro.serve.server import InferenceServer

from .conftest import TOY_SPECS, tiny_loader
from .test_swap import VersionedLoader


def _predict_body(dataset, inputs, format_name=None, deadline_ms=None):
    payload = {"dataset": dataset, "inputs": np.asarray(inputs).tolist()}
    if format_name is not None:
        payload["format"] = format_name
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    return json.dumps(payload).encode("utf-8")


def _stuff_queue(batcher: MicroBatcher, loop, count: int) -> None:
    """Park ``count`` dummy items in the queue without starting the worker."""
    for _ in range(count):
        batcher._queue.put_nowait(
            PendingRequest(np.zeros((1, 4), dtype=np.uint32), 1,
                           loop.create_future(), loop.time())
        )


class TestRegistryRollback:
    def test_rollback_without_prior_reload_is_none(self):
        registry = ModelRegistry(loader=tiny_loader)

        async def scenario():
            await registry.get("toy", "posit8_1")
            return await registry.rollback("toy", "posit8_1")

        assert asyncio.run(scenario()) is None

    def test_rollback_restores_the_displaced_generation(self):
        loader = VersionedLoader()
        registry = ModelRegistry(loader=loader)

        async def scenario():
            first = await registry.get("toy", "posit8_1")
            loader.version = 1
            second = await registry.reload("toy", "posit8_1")
            assert registry.previous_generation("toy", "posit8_1") is first
            restored = await registry.rollback("toy", "posit8_1")
            cached = await registry.get("toy", "posit8_1")
            return first, second, restored, cached

        first, second, restored, cached = asyncio.run(scenario())
        assert restored is first
        assert cached is first
        assert second is not first

    def test_double_rollback_cannot_reinstall_the_convicted_model(self):
        loader = VersionedLoader()
        registry = ModelRegistry(loader=loader)

        async def scenario():
            await registry.get("toy", "posit8_1")
            loader.version = 1
            await registry.reload("toy", "posit8_1")
            assert await registry.rollback("toy", "posit8_1") is not None
            # The bad generation was popped, not stashed: a second
            # rollback has nothing to restore.
            return await registry.rollback("toy", "posit8_1")

        assert asyncio.run(scenario()) is None


class TestDeadlines:
    def test_expired_deadline_is_504_material_and_never_executes(self):
        model = build_served_model("toy", "posit8_1", tiny_loader)

        async def scenario():
            batcher = MicroBatcher(model, max_batch=4, max_delay_ms=0.5)
            loop = asyncio.get_running_loop()
            with pytest.raises(DeadlineExceeded):
                await batcher.submit(
                    model.quantize(np.zeros((2, 4))),
                    deadline=loop.time() - 0.001,  # already expired
                )
            stats = batcher.stats
            await batcher.close()
            return stats

        stats = asyncio.run(scenario())
        assert stats.deadline_expired == 1
        assert stats.batches == 0  # the rows never reached a kernel
        assert stats.errors == 0

    def test_live_batchmates_unharmed_by_an_expired_request(self, rng):
        model = build_served_model("toy", "posit8_1", tiny_loader)
        x = rng.normal(size=(3, 4))

        async def scenario():
            batcher = MicroBatcher(model, max_batch=8, max_delay_ms=20.0)
            loop = asyncio.get_running_loop()
            expired, live = await asyncio.gather(
                batcher.submit(
                    model.quantize(np.zeros((1, 4))),
                    deadline=loop.time() - 0.001,
                ),
                batcher.submit(model.quantize(x)),
                return_exceptions=True,
            )
            await batcher.close()
            return expired, live

        expired, live = asyncio.run(scenario())
        assert isinstance(expired, DeadlineExceeded)
        np.testing.assert_array_equal(live, model.network.predict(x))

    def test_future_deadline_executes_normally(self, rng):
        model = build_served_model("toy", "posit8_1", tiny_loader)
        x = rng.normal(size=(2, 4))

        async def scenario():
            batcher = MicroBatcher(model, max_batch=4, max_delay_ms=0.5)
            loop = asyncio.get_running_loop()
            result = await batcher.submit(
                model.quantize(x), deadline=loop.time() + 30.0
            )
            await batcher.close()
            return result

        result = asyncio.run(scenario())
        np.testing.assert_array_equal(result, model.network.predict(x))

    def test_deadline_ms_over_http_504(self, rng):
        registry = ModelRegistry(loader=tiny_loader)
        x = rng.normal(size=(2, 4))
        with start_in_thread(registry=registry, port=0) as handle:
            with ServeClient(port=handle.server.port) as client:
                client.warmup("toy", "posit8_1")
                with pytest.raises(ServeError) as err:
                    client.predict(
                        "toy", "posit8_1", x, deadline_ms=1e-6
                    )
                stats = client.stats()
                health = client.health()
        assert err.value.status == 504
        assert stats["deadline_expired"] == 1
        assert stats["errors"] == 0  # 504 is the client's fault, not ours
        assert health["status"] == "ok"  # deadlines don't degrade health

    def test_bad_deadline_ms_is_400(self, rng):
        registry = ModelRegistry(loader=tiny_loader)
        x = rng.normal(size=(1, 4))
        with start_in_thread(registry=registry, port=0) as handle:
            with ServeClient(port=handle.server.port) as client:
                for bad in (0, -5, "soon", True, float("nan")):
                    with pytest.raises(ServeError) as err:
                        client.predict("toy", "posit8_1", x, deadline_ms=bad)
                    assert err.value.status == 400


class TestLoadShedding:
    def test_shed_threshold_validation(self):
        model = build_served_model("toy", "posit8_1", tiny_loader)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                MicroBatcher(model, shed_threshold=bad)
        with pytest.raises(ValueError):
            InferenceServer(shed_threshold=2.0)

    def test_submit_refused_at_threshold(self):
        model = build_served_model("toy", "posit8_1", tiny_loader)

        async def scenario():
            batcher = MicroBatcher(
                model, queue_limit=4, shed_threshold=0.5
            )
            loop = asyncio.get_running_loop()
            _stuff_queue(batcher, loop, 2)  # at ceil(0.5 * 4)
            assert batcher.shedding
            assert not batcher.saturated
            with pytest.raises(QueueSaturated):
                await batcher.submit(model.quantize(np.zeros((1, 4))))
            return batcher.stats

        stats = asyncio.run(scenario())
        assert stats.shed == 1
        assert stats.requests == 0

    def test_default_no_shedding_keeps_backpressure(self):
        model = build_served_model("toy", "posit8_1", tiny_loader)

        async def scenario():
            batcher = MicroBatcher(model, queue_limit=4)  # shed off
            loop = asyncio.get_running_loop()
            _stuff_queue(batcher, loop, 3)
            assert not batcher.shedding  # never sheds without a threshold
            assert not batcher.saturated

        asyncio.run(scenario())

    def test_health_reports_shed_and_saturation(self):
        async def scenario():
            server = InferenceServer(
                registry=ModelRegistry(loader=tiny_loader),
                queue_limit=4,
                shed_threshold=0.5,
            )
            model = await server.registry.get(
                "toy", "posit8_1", executor=server._executor
            )
            batcher = server.batcher_for(model)
            healthy = server._health()
            loop = asyncio.get_running_loop()
            _stuff_queue(batcher, loop, 4)  # past shed, at hard limit
            degraded = server._health()
            await server.close()
            return healthy, degraded

        healthy, degraded = asyncio.run(scenario())
        assert healthy["status"] == "ok"
        assert healthy["shed_mode"] is True
        assert healthy["degraded"] == {}
        assert degraded["status"] == "degraded"
        assert degraded["degraded"]["shedding"] == ["toy/posit8_1"]
        assert degraded["degraded"]["queue_saturated"] == ["toy/posit8_1"]

    def test_shed_is_503_with_retry_after_over_http(self, rng):
        registry = ModelRegistry(loader=tiny_loader)
        x = rng.normal(size=(1, 4))
        with start_in_thread(
            registry=registry, port=0, shed_threshold=0.5
        ) as handle:
            with ServeClient(port=handle.server.port) as client:
                client.predict("toy", "posit8_1", x)  # builds the batcher
                batcher = handle.server._batchers["toy/posit8_1"]

                async def refuse(patterns, deadline=None):
                    batcher.stats.record_shed()
                    raise QueueSaturated("queue for toy/posit8_1 saturated")

                batcher.submit = refuse
                with pytest.raises(ServeError) as err:
                    client.predict("toy", "posit8_1", x)
                stats = client.stats()
        assert err.value.status == 503
        assert err.value.retry_after == 1.0  # Retry-After header parsed
        assert stats["shed"] == 1


class TestPoisonIsolation:
    def test_transient_batch_fault_retried_request_by_request(self, rng):
        model = build_served_model("toy", "posit8_1", tiny_loader)
        xs = [rng.normal(size=(2, 4)) for _ in range(3)]

        async def scenario():
            batcher = MicroBatcher(model, max_batch=8, max_delay_ms=20.0)
            with faults.inject("serve.batch", "raise", times=1):
                results = await asyncio.gather(
                    *(batcher.submit(model.quantize(x)) for x in xs)
                )
            stats = batcher.stats
            await batcher.close()
            return results, stats

        results, stats = asyncio.run(scenario())
        # All requests answered bit-identically despite the failed batch.
        for x, served in zip(xs, results):
            np.testing.assert_array_equal(served, model.network.predict(x))
        assert stats.batch_retries == 1
        assert stats.errors == 0

    def test_poison_request_fails_alone_batchmates_succeed(self, rng):
        model = build_served_model("toy", "posit8_1", tiny_loader)
        good = rng.normal(size=(2, 4))
        poison = np.zeros((1, 7), dtype=np.uint32)  # wrong feature width

        async def scenario():
            batcher = MicroBatcher(model, max_batch=8, max_delay_ms=20.0)
            served, failed = await asyncio.gather(
                batcher.submit(model.quantize(good)),
                batcher.submit(poison),
                return_exceptions=True,
            )
            stats = batcher.stats
            await batcher.close()
            return served, failed, stats

        served, failed, stats = asyncio.run(scenario())
        np.testing.assert_array_equal(served, model.network.predict(good))
        assert isinstance(failed, Exception)
        assert not isinstance(failed, DeadlineExceeded)
        assert stats.batch_retries == 1
        assert stats.errors == 1  # only the poison request

    def test_lone_failed_request_is_its_own_error(self):
        model = build_served_model("toy", "posit8_1", tiny_loader)

        async def scenario():
            batcher = MicroBatcher(model, max_batch=4, max_delay_ms=0.5)
            with faults.inject("serve.batch", "raise", times=1):
                with pytest.raises(faults.InjectedFault):
                    await batcher.submit(
                        model.quantize(np.zeros((1, 4)))
                    )
            stats = batcher.stats
            await batcher.close()
            return stats

        stats = asyncio.run(scenario())
        assert stats.errors == 1
        assert stats.batch_retries == 0  # no batchmates to protect


class TestClientRetries:
    def test_retry_knob_validation(self):
        with pytest.raises(ValueError):
            ServeClient(retries=0)
        with pytest.raises(ValueError):
            ServeClient(retry_backoff_s=-0.1)

    def test_backoff_grows_exponentially_with_jitter(self):
        import random

        client = ServeClient(retry_backoff_s=0.1, rng=random.Random(5))
        for attempt in (1, 2, 3):
            base = 0.1 * 2 ** (attempt - 1)
            for _ in range(20):
                assert base <= client._backoff(attempt) < base * 2

    def test_connect_refused_retried_then_succeeds(self, rng):
        registry = ModelRegistry(loader=tiny_loader)
        x = rng.normal(size=(2, 4))
        with start_in_thread(registry=registry, port=0) as handle:
            with ServeClient(
                port=handle.server.port, retries=3, retry_backoff_s=0.0
            ) as client:
                sleeps = []
                client._sleep = sleeps.append
                with faults.inject(
                    "client.connect", "raise",
                    exc="ConnectionRefusedError", times=2,
                ) as injector:
                    response = client.predict("toy", "posit8_1", x)
        assert injector.fired() == 2
        assert len(sleeps) == 2  # one backoff per failed attempt
        direct = build_served_model("toy", "posit8_1", tiny_loader)
        assert response["predictions"] == direct.network.predict(x).tolist()

    def test_connect_refused_exhausts_attempts(self):
        client = ServeClient(port=1, retries=3, retry_backoff_s=0.0)
        client._sleep = lambda s: None
        with faults.inject(
            "client.connect", "raise",
            exc="ConnectionRefusedError", times=0,
        ) as injector:
            with pytest.raises(ConnectionRefusedError):
                client.health()
        assert injector.fired() == 3  # the configured attempt budget

    def test_dropped_connection_resent_bit_identical(self, rng):
        registry = ModelRegistry(loader=tiny_loader)
        x = rng.normal(size=(3, 4))
        with start_in_thread(registry=registry, port=0) as handle:
            with ServeClient(
                port=handle.server.port, retries=3, retry_backoff_s=0.0
            ) as client:
                client._sleep = lambda s: None
                client.warmup("toy", "posit8_1")
                with faults.inject(
                    "client.recv", "drop", times=1, trace=None
                ) as injector:
                    response = client.predict("toy", "posit8_1", x)
        assert injector.fired() == 1
        direct = build_served_model("toy", "posit8_1", tiny_loader)
        assert response["predictions"] == direct.network.predict(x).tolist()

    def test_timeout_is_never_retried(self):
        client = ServeClient(port=1, retries=3)
        attempts = []

        def fake_exchange(message, raw=False):
            attempts.append(1)
            raise TimeoutError("server still computing")

        client._sock = object()  # pretend connected
        client._exchange = fake_exchange
        client.close = lambda: None  # keep the fake socket out of close()
        with pytest.raises(TimeoutError):
            client._request("GET", "/health")
        assert len(attempts) == 1  # resending would double the work

    def test_retry_on_503_honors_retry_after(self, rng):
        registry = ModelRegistry(loader=tiny_loader)
        x = rng.normal(size=(1, 4))
        with start_in_thread(
            registry=registry, port=0, shed_threshold=0.5
        ) as handle:
            with ServeClient(
                port=handle.server.port, retries=3,
                retry_backoff_s=0.001, retry_on_503=True,
            ) as client:
                sleeps = []
                client._sleep = sleeps.append
                client.predict("toy", "posit8_1", x)
                batcher = handle.server._batchers["toy/posit8_1"]
                real_submit = batcher.submit
                calls = []

                async def flaky(patterns, deadline=None):
                    calls.append(1)
                    if len(calls) <= 2:
                        raise QueueSaturated("saturated")
                    return await real_submit(patterns, deadline)

                batcher.submit = flaky
                response = client.predict("toy", "posit8_1", x)
        assert len(calls) == 3
        assert sleeps == [1.0, 1.0]  # server's Retry-After beat the backoff
        direct = build_served_model("toy", "posit8_1", tiny_loader)
        assert response["predictions"] == direct.network.predict(x).tolist()

    def test_503_not_retried_by_default(self, rng):
        registry = ModelRegistry(loader=tiny_loader)
        x = rng.normal(size=(1, 4))
        with start_in_thread(
            registry=registry, port=0, shed_threshold=0.5
        ) as handle:
            with ServeClient(port=handle.server.port) as client:
                client.predict("toy", "posit8_1", x)
                batcher = handle.server._batchers["toy/posit8_1"]

                async def refuse(patterns, deadline=None):
                    raise QueueSaturated("saturated")

                batcher.submit = refuse
                with pytest.raises(ServeError) as err:
                    client.predict("toy", "posit8_1", x)
        assert err.value.status == 503


class _LyingNetwork:
    """Off by one class on every row: guaranteed to diverge from the
    direct recompute regardless of the input draw."""

    def __init__(self, real_network):
        self._real = real_network

    def predict_patterns(self, patterns):
        real = self._real.predict_patterns(patterns)
        return (np.asarray(real) + 1) % 3


class TestAutomaticRollback:
    @staticmethod
    def _sabotage(server, arm):
        batcher = server.batcher_for(arm)
        batcher.model = SimpleNamespace(
            key=arm.key, network=_LyingNetwork(arm.network)
        )
        return batcher

    def test_canary_divergence_rolls_back_to_last_known_good(self, rng):
        loader = VersionedLoader()
        x = rng.normal(size=(4, 4))

        async def scenario():
            server = InferenceServer(
                registry=ModelRegistry(loader=loader),
                max_batch=4, max_delay_ms=1.0,
                canary_every=1, rollback_after=1,
            )
            await server.configure_ab("toy", "posit8_1", "float4_3")
            good = server._experiments["toy"].arm_a
            await server._predict(_predict_body("toy", x))  # green warmup
            loader.version = 1
            await server._swap({"dataset": "toy", "format": "posit8_1"})
            self._sabotage(server, server._experiments["toy"].arm_a)
            tripped = await server._predict(_predict_body("toy", x))
            after = [
                await server._predict(_predict_body("toy", x))
                for _ in range(4)
            ]
            experiment = server._experiments["toy"]
            health = server._health()
            stats = server.stats.snapshot()
            events = list(server._rollback_events)
            await server.close()
            return good, tripped, after, experiment, health, stats, events

        (good, tripped, after, experiment, health, stats,
         events) = asyncio.run(scenario())
        # The tripping request reports the rollback it caused.
        (event,) = tripped["ab"]["canary_result"]["rollbacks"]
        assert event["rolled_back"] == "toy/posit8_1"
        assert event["arm"] == "posit8_1"
        assert events == [event]
        # The restored generation is the pre-swap one: arm-A responses
        # after rollback are bit-identical to the last-known-good network.
        for response in after:
            if response["ab"]["arm"] == "posit8_1":
                expected = good.network.predict(x).tolist()
                assert response["predictions"] == expected
            canary = response["ab"]["canary_result"]
            assert canary["diverged"] is False
            assert "rollbacks" not in canary
        assert experiment.rollbacks == 1
        assert experiment.divergences_per_arm["posit8_1"] == 0  # reset
        assert stats["rollbacks"] == 1
        # Sticky degradation: the rollback stays visible in /health.
        assert health["status"] == "degraded"
        assert health["degraded"]["rollbacks"] == 1

    def test_rollback_after_counts_divergences_per_arm(self, rng):
        loader = VersionedLoader()
        x = rng.normal(size=(3, 4))

        async def scenario():
            server = InferenceServer(
                registry=ModelRegistry(loader=loader),
                max_batch=4, max_delay_ms=1.0,
                canary_every=1, rollback_after=2,
            )
            await server.configure_ab("toy", "posit8_1", "float4_3")
            await server._predict(_predict_body("toy", x))
            loader.version = 1
            await server._swap({"dataset": "toy", "format": "posit8_1"})
            self._sabotage(server, server._experiments["toy"].arm_a)
            first = await server._predict(_predict_body("toy", x))
            second = await server._predict(_predict_body("toy", x))
            rollbacks = server.stats.rollbacks
            await server.close()
            return first, second, rollbacks

        first, second, rollbacks = asyncio.run(scenario())
        assert "rollbacks" not in first["ab"]["canary_result"]  # count 1 < 2
        assert second["ab"]["canary_result"]["rollbacks"]  # count 2 trips
        assert rollbacks == 1

    def test_no_previous_generation_means_no_rollback(self, rng):
        x = rng.normal(size=(3, 4))

        async def scenario():
            server = InferenceServer(
                registry=ModelRegistry(loader=tiny_loader),
                max_batch=4, max_delay_ms=1.0,
                canary_every=1, rollback_after=1,
            )
            await server.configure_ab("toy", "posit8_1", "float4_3")
            self._sabotage(server, server._experiments["toy"].arm_a)
            responses = [
                await server._predict(_predict_body("toy", x))
                for _ in range(3)
            ]
            experiment = server._experiments["toy"]
            stats = server.stats.snapshot()
            await server.close()
            return responses, experiment, stats

        responses, experiment, stats = asyncio.run(scenario())
        # Divergences keep accumulating, but with nothing to restore the
        # server keeps serving (degraded bits beat no bits) and never
        # reports a rollback.
        assert stats["rollbacks"] == 0
        assert experiment.rollbacks == 0
        assert experiment.divergences_per_arm["posit8_1"] == 3
        for response in responses:
            assert "rollbacks" not in response["ab"]["canary_result"]

    def test_rollback_zero_disables_automatic_rollback(self, rng):
        loader = VersionedLoader()
        x = rng.normal(size=(3, 4))

        async def scenario():
            server = InferenceServer(
                registry=ModelRegistry(loader=loader),
                max_batch=4, max_delay_ms=1.0,
                canary_every=1, rollback_after=0,
            )
            await server.configure_ab("toy", "posit8_1", "float4_3")
            await server._predict(_predict_body("toy", x))
            loader.version = 1
            await server._swap({"dataset": "toy", "format": "posit8_1"})
            self._sabotage(server, server._experiments["toy"].arm_a)
            for _ in range(3):
                await server._predict(_predict_body("toy", x))
            divergences = dict(
                server._experiments["toy"].divergences_per_arm
            )
            rollbacks = server.stats.rollbacks
            await server.close()
            return divergences, rollbacks

        divergences, rollbacks = asyncio.run(scenario())
        assert rollbacks == 0
        assert divergences["posit8_1"] == 3

    def test_ab_status_reports_per_arm_divergences_and_rollbacks(self, rng):
        loader = VersionedLoader()
        x = rng.normal(size=(2, 4))
        registry = ModelRegistry(loader=loader)
        with start_in_thread(
            registry=registry, port=0, canary_every=1, rollback_after=1,
            max_batch=4, max_delay_ms=1.0,
        ) as handle:
            with ServeClient(port=handle.server.port) as client:
                client.start_ab("toy", "posit8_1", "float4_3")
                client.predict("toy", None, x)
                loader.version = 1
                client.swap("toy", "posit8_1")
                arm = handle.server._experiments["toy"].arm_a
                self._sabotage(handle.server, arm)
                client.predict("toy", None, x)  # trips + rolls back
                status = client.ab_status()["toy"]
                metrics = client.metrics()
        assert status["rollbacks"] == 1
        assert status["canary"]["divergences_per_arm"] == {
            "posit8_1": 0,  # reset after the rollback
        }
        assert "repro_serve_rollbacks_total 1" in metrics
