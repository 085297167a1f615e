"""Multi-process worker-tier integration tests.

One shared 2-worker pool (module fixture) backs most tests; every
response that comes out of it is checked bit-identical to calling the
model's ``predict`` directly in this process — the pool adds processes,
sockets, and restarts, but never bits.  Gated to multi-core hosts
(``REPRO_POOL_TESTS=1`` forces a run on one core; everything still
passes, just without real parallelism).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.registry import build_served_model

from .conftest import TOY_SPECS, tiny_loader

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 and not os.environ.get("REPRO_POOL_TESTS"),
    reason="worker-pool tests want >= 2 cores "
           "(set REPRO_POOL_TESTS=1 to force)",
)

#: (dataset, format) keys served in the concurrency mix.
MODEL_KEYS = (
    ("toy", "posit8_1"),
    ("toy", "float4_3"),
    ("toy2", "posit6_0"),
)

_DIRECT: dict = {}


def direct_model(dataset, format_name):
    key = (dataset, format_name)
    if key not in _DIRECT:
        _DIRECT[key] = build_served_model(dataset, format_name, tiny_loader)
    return _DIRECT[key]


def _features(dataset):
    return TOY_SPECS[dataset][0][0]


def _post(port, path, payload, timeout=60):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _get(port, path, timeout=60):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as resp:
        body = resp.read()
        try:
            return resp.status, json.loads(body)
        except ValueError:
            return resp.status, body.decode()


def _predict(port, dataset, format_name, x, retries=2):
    """POST /predict with bounded connection-error retries.

    Retries are legitimate here: during drains and kills, a connection
    can land in a dying worker's accept backlog and get reset before
    it is served.  Bits may never be wrong; connections may bounce.
    """
    last = None
    for _ in range(retries + 1):
        try:
            return _post(port, "/predict", {
                "dataset": dataset, "format": format_name,
                "inputs": x.tolist(),
            })
        except (urllib.error.URLError, ConnectionError, OSError) as exc:
            last = exc
            time.sleep(0.05)
    raise AssertionError(f"predict kept failing: {last}")


class TestBitIdentityUnderConcurrentLoad:
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_pooled_responses_match_direct_predict(self, pool, data):
        """Property: any concurrent mix of models/formats/row-counts
        through the multi-worker pool is bit-identical to direct
        ``predict`` in this process — worker choice cannot matter."""
        mix = data.draw(st.lists(
            st.tuples(
                st.sampled_from(range(len(MODEL_KEYS))),
                st.integers(1, 6),
            ),
            min_size=1, max_size=10,
        ))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        jobs = []
        for key_index, rows in mix:
            dataset, format_name = MODEL_KEYS[key_index]
            jobs.append((
                dataset, format_name,
                rng.normal(scale=1.5, size=(rows, _features(dataset))),
            ))
        port = pool.pool.port
        with ThreadPoolExecutor(max_workers=8) as pool_exec:
            outcomes = list(pool_exec.map(
                lambda job: _predict(port, *job), jobs
            ))
        for (dataset, format_name, x), (status, body) in zip(jobs, outcomes):
            assert status == 200
            expected = direct_model(dataset, format_name)
            assert body["dataset"] == dataset
            assert body["format"] == format_name
            assert body["predictions"] == (
                expected.network.predict(x).tolist()
            )


class TestControlPlane:
    def test_swap_fans_out_to_every_worker(self, pool):
        status, body = _post(pool.pool.port, "/swap", {
            "dataset": "toy", "format": "posit8_1",
        })
        assert status == 200
        assert body["pool"]["applied"] == [0, 1]
        assert body["pool"]["unreachable"] == []
        assert body["pool"]["failed_status"] == {}
        # Both workers really applied it: pooled swap counter says two.
        status, stats = _get(pool.pool.port, "/stats")
        assert stats["swaps"] >= 2

    def test_stats_aggregate_across_workers(self, pool):
        port = pool.pool.port
        _, before = _get(port, "/stats")
        x = np.zeros((2, 4))
        for _ in range(8):
            _predict(port, "toy", "posit8_1", x)
        _, after = _get(port, "/stats")
        assert after["requests"] - before["requests"] == 8
        assert after["samples"] - before["samples"] == 16
        workers = after["workers"]
        assert [w["worker"] for w in workers] == [0, 1]
        # The pooled total is exactly the sum of the per-worker counts.
        assert sum(w["requests"] for w in workers) == after["requests"]
        assert after["pool"]["alive"] == 2

    def test_metrics_aggregate_across_workers(self, pool):
        status, text = _get(pool.pool.port, "/metrics")
        assert status == 200
        assert "repro_serve_requests_total" in text
        assert "repro_serve_batches_total" in text
        # Pooled totals agree with pooled /stats.
        _, stats = _get(pool.pool.port, "/stats")
        for line in text.splitlines():
            if line.startswith("repro_serve_requests_total"):
                assert float(line.split()[-1]) == stats["requests"]
                break
        else:  # pragma: no cover - metric disappeared
            pytest.fail("repro_serve_requests_total not rendered")

    def test_health_on_public_port_is_worker_local(self, pool):
        status, health = _get(pool.pool.port, "/health")
        assert status == 200
        assert health["status"] == "ok"
        assert health["worker"] in (0, 1)
        assert health["draining"] is False

    def test_manager_port_aggregates_control_plane(self, pool):
        """The manager's loopback control port fans a control request out
        to every worker itself, and its ``/health`` is the pool-wide
        aggregate, not one worker's view."""
        port = pool.pool.manager_port
        status, body = _post(port, "/swap", {
            "dataset": "toy", "format": "posit8_1",
        })
        assert status == 200
        assert body["pool"]["applied"] == [0, 1]
        status, health = _get(port, "/health")
        assert status == 200
        assert health["status"] == "ok"
        assert [w["worker"] for w in health["workers"]] == [0, 1]
        assert health["pool"]["alive"] == 2


class TestDrainAndRestart:
    def _hammer(self, port, stop, wrong, errors):
        x = np.linspace(-1.0, 1.0, 8).reshape(2, 4)
        expected = direct_model("toy", "posit8_1").network.predict(x).tolist()
        while not stop.is_set():
            try:
                _, body = _predict(port, "toy", "posit8_1", x, retries=3)
                if body["predictions"] != expected:
                    wrong.append(body["predictions"])
            except Exception as exc:  # noqa: BLE001 - recorded
                errors.append(exc)

    def test_sigterm_drains_worker_and_supervisor_restarts_it(self, pool):
        workers = pool.pool._workers
        pid0 = workers[0].pid
        stop, wrong, errors = threading.Event(), [], []
        threads = [
            threading.Thread(
                target=self._hammer,
                args=(pool.pool.port, stop, wrong, errors),
            )
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        try:
            os.kill(pid0, signal.SIGTERM)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if workers[0].alive and workers[0].pid != pid0:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("supervisor did not restart the worker")
        finally:
            stop.set()
            for t in threads:
                t.join(30.0)
        assert not errors, errors[:3]
        assert wrong == []  # bits never changed while a worker died
        assert workers[0].restarts >= 1
        # The pool is whole again and still serving.
        x = np.ones((1, 4))
        _, body = _predict(pool.pool.port, "toy", "posit8_1", x)
        assert body["predictions"] == (
            direct_model("toy", "posit8_1").network.predict(x).tolist()
        )

    def test_rolling_restart_replaces_all_workers_with_zero_downtime(
        self, pool
    ):
        workers = pool.pool._workers
        pids_before = [w.pid for w in workers]
        stop, wrong, errors = threading.Event(), [], []
        threads = [
            threading.Thread(
                target=self._hammer,
                args=(pool.pool.port, stop, wrong, errors),
            )
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        try:
            events = pool.rolling_restart(timeout=300.0)
        finally:
            stop.set()
            for t in threads:
                t.join(30.0)
        assert [e["worker"] for e in events] == [0, 1]
        # exit 0 = the SIGTERM path drained gracefully, not a crash.
        assert all(e["exit_code"] == 0 for e in events)
        pids_after = [w.pid for w in workers]
        assert set(pids_after).isdisjoint(pids_before)
        assert not errors, errors[:3]
        assert wrong == []


class TestStartupTimeout:
    def test_worker_past_its_ready_deadline_is_stopped(self, capfd):
        """A worker that misses ``ready_timeout_s`` is stopped before the
        retry and before ``start()`` gives up: none outlives ``start()``
        (it may already hold the shared port), and none dies later on its
        closed ready pipe."""
        from repro.serve.pool import WorkerPool

        pool = WorkerPool(
            port=0, workers=1,
            loader_spec="tests.serve.conftest:slow_loader",
            warmups=(("toy", "posit8_1"),),
            ready_timeout_s=0.2, max_restarts=1, restart_backoff_s=0.01,
            seed=3,
        )

        others = set(multiprocessing.active_children())  # e.g. `pool`'s

        async def start_then_list_workers():
            try:
                with pytest.raises(RuntimeError, match="after 2 attempts"):
                    await pool.start()
                return [
                    p.name for p in multiprocessing.active_children()
                    if p not in others
                ]
            finally:
                await pool.stop()

        assert asyncio.run(start_then_list_workers()) == []
        assert "BrokenPipeError" not in capfd.readouterr().err
