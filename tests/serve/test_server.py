"""End-to-end service tests: HTTP front end, registry, batching, stats.

A real server runs on a background thread (ephemeral port) with the tiny
synthetic-model loader injected, and the blocking ``ServeClient`` drives
it — the same embedding the example and the throughput benchmark use.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve import (
    InferenceServer,
    ModelRegistry,
    ServeClient,
    ServeError,
    start_in_thread,
)
from repro.serve.http import ROUTES, HttpError
from repro.serve.registry import build_served_model

from .conftest import tiny_loader

#: The package sources, for CLI subprocesses.
SRC = Path(__file__).resolve().parents[2] / "src"

#: A JSON integer past float64's range.
HUGE = int("1" + "0" * 400)

#: A long numeric string: float64 parses it (to 0.0), but it is text.
LONG = "0." + "0" * 4000 + "1"

_X = [[0.1, -0.2, 0.3, 0.4]]
_KEY = {"dataset": "toy", "format": "posit8_1"}

#: Every route -> the methods its 405 must name.
ALLOWED = {
    "/health": "GET", "/models": "GET", "/stats": "GET", "/metrics": "GET",
    "/warmup": "POST", "/predict": "POST", "/swap": "POST",
    "/rollback": "POST", "/ab": "GET or POST",
}

#: (method, path, body, status, fragment of the error message): every
#: malformed request a client can send.  None of them is a server fault.
CLIENT_ERRORS = [
    ("POST", "/predict", b"{not json", 400, "JSON object"),
    ("POST", "/predict", b"[1]", 400, "JSON object"),
    ("POST", "/predict", b"null", 400, "JSON object"),
    ("POST", "/warmup", b"[1]", 400, "JSON object"),
    ("POST", "/predict", {"format": "posit8_1", "inputs": _X}, 400,
     "'dataset' and 'format'"),
    ("POST", "/predict", {"dataset": "toy", "inputs": _X}, 400,
     "'dataset' and 'format'"),
    ("POST", "/predict", {"dataset": 7, "format": "posit8_1", "inputs": _X},
     400, "'dataset' and 'format'"),
    ("POST", "/predict", {"dataset": "toy", "format": 8, "inputs": _X}, 400,
     "'dataset' and 'format'"),
    ("POST", "/predict", {"dataset": "nope", "format": "posit8_1",
                          "inputs": _X}, 400, "nope"),
    ("POST", "/rollback", {"dataset": "toy", "format": "posit99_99"}, 400,
     "posit99_99"),
    ("POST", "/predict", dict(_KEY), 400, "missing 'inputs'"),
    ("POST", "/predict", {**_KEY, "inputs": [["x", 1, 2, 3]]}, 400,
     "numeric"),
    ("POST", "/predict", {**_KEY, "inputs": [["1.5", 1, 2, 3]]}, 400,
     "numeric"),
    ("POST", "/predict", {**_KEY, "inputs": [[True, False, True, True]]}, 400,
     "numeric"),
    ("POST", "/predict", {**_KEY, "inputs": [_X[0], [0.1, 0.2, 0.3, "0.4"]]},
     400, "numeric"),
    ("POST", "/predict", {**_KEY, "inputs": [[LONG, 1, 2, 3]]}, 400,
     "numeric"),
    ("POST", "/predict", {**_KEY, "inputs": [[HUGE, 1, 2, 3]]}, 400,
     "numeric"),
    ("POST", "/predict", {**_KEY, "inputs": [[float("nan"), 1, 2, 3]]}, 400,
     "finite"),
    ("POST", "/predict", {**_KEY, "inputs": [[float("inf"), 1, 2, 3]]}, 400,
     "finite"),
    ("POST", "/predict", {**_KEY, "inputs": []}, 400, "features"),
    ("POST", "/predict", {**_KEY, "inputs": [_X]}, 400, "rows >= 1"),
    ("POST", "/predict", {**_KEY, "inputs": [[0.1] * 7]}, 400,
     "expects 4 features"),
    ("POST", "/predict", {**_KEY, "inputs": _X, "deadline_ms": True}, 400,
     "'deadline_ms' must be a positive number"),
    ("POST", "/predict", {**_KEY, "inputs": _X, "deadline_ms": -5}, 400,
     "'deadline_ms' must be a positive number"),
    ("POST", "/predict", {**_KEY, "inputs": _X, "deadline_ms": HUGE}, 400,
     "'deadline_ms' must be a positive number"),
    ("GET", "/nope", b"", 404, "no route for /nope"),
] + [
    (method, path, b"", 405, f"use {allowed}")
    for path, allowed in ALLOWED.items()
    for method in ("GET", "POST", "PUT", "DELETE")
    if method not in allowed
]


def _send(port, method, path, body):
    """One request on a fresh connection: ``(status, error message)``."""
    import http.client

    if not isinstance(body, bytes):
        body = json.dumps(body).encode("utf-8")
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read()).get("error")
    finally:
        conn.close()


@pytest.fixture(scope="module")
def handle():
    registry = ModelRegistry(loader=tiny_loader)
    server = start_in_thread(
        registry=registry, port=0, max_batch=8, max_delay_ms=5.0
    )
    yield server
    server.stop()


@pytest.fixture
def client(handle):
    with ServeClient(port=handle.server.port) as c:
        yield c


class TestEndpoints:
    def test_health(self, client):
        body = client.health()
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0

    def test_warmup_then_models_lists_it(self, client):
        described = client.warmup("toy", "posit8_1")
        assert described["topology"] == [4, 6, 3]
        assert described["classes"] == ["setosa", "versicolor", "virginica"]
        listing = client.models()
        keys = {(m["dataset"], m["format"]) for m in listing["loaded"]}
        assert ("toy", "posit8_1") in keys
        assert listing["batching"]["max_batch"] == 8

    def test_format_name_is_canonicalized(self, client):
        # Label spelling and registry spelling resolve to one served model.
        a = client.warmup("toy", "posit<8,1>")
        b = client.warmup("toy", "posit8_1")
        assert a["format"] == b["format"] == "posit8_1"

    def test_predict_matches_direct_network(self, client, rng):
        x = rng.normal(size=(6, 4))
        body = client.predict("toy", "posit8_1", x)
        direct = build_served_model("toy", "posit8_1", tiny_loader)
        expected = direct.network.predict(x)
        assert body["predictions"] == expected.tolist()
        assert body["labels"] == [
            direct.class_names[c] for c in expected
        ]

    def test_predict_single_sample_1d(self, client, rng):
        body = client.predict("toy", "posit8_1", rng.normal(size=4))
        assert len(body["predictions"]) == 1

    def test_stats_surface(self, client, rng):
        client.predict("toy", "posit8_1", rng.normal(size=(3, 4)))
        stats = client.stats()
        assert stats["requests"] >= 1
        assert stats["samples"] >= 3
        hist = {int(k): v for k, v in stats["batch_size_histogram"].items()}
        assert sum(k * v for k, v in hist.items()) == stats["samples"]
        assert set(stats["latency_ms"]) == {"p50", "p99", "window"}
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]


class TestErrorPaths:
    def test_client_errors_never_count_as_server_errors(self):
        """Each malformed request gets its 4xx (every 405 naming the
        route's methods), and ``/stats`` counts no server error."""
        assert set(ALLOWED) == set(ROUTES)  # every route is covered
        registry = ModelRegistry(loader=tiny_loader)
        with start_in_thread(registry=registry, port=0) as server:
            port = server.server.port
            wrong = []
            for method, path, body, status, fragment in CLIENT_ERRORS:
                got = _send(port, method, path, body)
                if got[0] != status or fragment not in got[1]:
                    wrong.append((method, path, body, got))
            with ServeClient(port=port) as c:
                stats = c.stats()
        assert wrong == []
        assert stats["errors"] == 0

    def test_unknown_route_404(self, client):
        with pytest.raises(ServeError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServeError) as err:
            client._request("POST", "/health", {})
        assert err.value.status == 405

    def test_unknown_dataset_400(self, client, rng):
        with pytest.raises(ServeError) as err:
            client.predict("nope", "posit8_1", rng.normal(size=(1, 4)))
        assert err.value.status == 400
        assert "nope" in err.value.message

    def test_unknown_format_400(self, client, rng):
        with pytest.raises(ServeError) as err:
            client.predict("toy", "posit99_99", rng.normal(size=(1, 4)))
        assert err.value.status == 400

    def test_feature_mismatch_400(self, client, rng):
        with pytest.raises(ServeError) as err:
            client.predict("toy", "posit8_1", rng.normal(size=(1, 7)))
        assert err.value.status == 400
        assert "expects 4 features" in err.value.message

    def test_missing_inputs_400(self, client):
        with pytest.raises(ServeError) as err:
            client._request(
                "POST", "/predict", {"dataset": "toy", "format": "posit8_1"}
            )
        assert err.value.status == 400

    def test_non_numeric_inputs_400(self, client):
        with pytest.raises(ServeError) as err:
            client._request(
                "POST",
                "/predict",
                {"dataset": "toy", "format": "posit8_1", "inputs": ["x"]},
            )
        assert err.value.status == 400

    def test_string_cells_are_refused_in_bounded_memory(self):
        """A long string among many short ones is refused without an array
        sized by the longest: numpy's inferred dtype would hold every cell
        as 4003 characters, 1001 x 4003 x 4 bytes = 16 MB here."""
        model = build_served_model("toy", "posit8_1", tiny_loader)
        payload = {"inputs": [[LONG] + ["1"] * 1000]}
        tracemalloc.start()
        try:
            with pytest.raises(HttpError, match="numeric"):
                InferenceServer._quantize_inputs(model, payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("fmt", ["posit8_1", "float3_4", "fixed8_4"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_inputs_400_not_counted_as_errors(
        self, client, fmt, bad
    ):
        """NaN / Infinity parse as JSON but are client errors, not 500s."""
        errors = client.stats()["errors"]
        with pytest.raises(ServeError) as err:
            client._request(
                "POST",
                "/predict",
                {"dataset": "toy", "format": fmt,
                 "inputs": [[0.5, bad, 1.0, -1.0]]},
            )
        assert err.value.status == 400
        assert "finite" in err.value.message
        assert client.stats()["errors"] == errors

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_gets_400(self, handle, length):
        import socket

        with socket.create_connection(
            ("127.0.0.1", handle.server.port), timeout=10
        ) as sock:
            sock.sendall(
                f"GET /health HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
                .encode()
            )
            response = sock.recv(65536).decode()
        assert response.startswith("HTTP/1.1 400")
        assert "Content-Length" in response

    def test_malformed_json_400(self, handle):
        import http.client

        conn = http.client.HTTPConnection(
            "127.0.0.1", handle.server.port, timeout=10
        )
        try:
            conn.request(
                "POST", "/predict", body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert "JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()


BAD_KNOBS = [
    {"max_batch": 0},
    {"max_delay_ms": -1.0},
    {"max_delay_ms": float("nan")},
    {"max_delay_ms": float("inf")},
    {"queue_limit": 0},
    {"executor_workers": 0},
    {"submit_timeout_s": 0.0},
    {"submit_timeout_s": float("nan")},
    {"submit_timeout_s": float("inf")},
]


class TestConstruction:
    @pytest.mark.parametrize("kwargs", BAD_KNOBS)
    def test_bad_knobs_rejected_at_startup(self, kwargs):
        from repro.serve import InferenceServer

        with pytest.raises(ValueError):
            InferenceServer(**kwargs)

    @pytest.mark.parametrize("kwargs", BAD_KNOBS)
    def test_pool_rejects_bad_knobs_before_spawning(self, kwargs):
        """The worker pool runs the server's own knob check up front, so a
        bad knob never reaches a worker process."""
        from repro.serve.pool import WorkerPool

        before = multiprocessing.active_children()
        with pytest.raises(ValueError):
            WorkerPool(server_kwargs=kwargs)
        assert multiprocessing.active_children() == before

    def test_cli_pool_bad_knob_exits_cleanly(self):
        """``serve --workers-procs 2`` with a bad knob answers like the
        single-process mode: one ``error:`` line and exit 2, at once."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--workers-procs", "2",
             "--max-delay-ms", "nan", "--port", "0"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert "error: max_delay_ms must be a finite number >= 0" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestPoolHealth:
    """The pool manager's ``/health`` reports its worst worker slot, and a
    slot the supervisor gave up on counts as ``degraded``, not as a
    restart that never ends.  No process is spawned: the slots are fakes
    and each live slot's own ``/health`` answer is stubbed."""

    @pytest.mark.parametrize("slots, expected", [
        (("dead", "dead"), "degraded"),
        (("dead", "restarting"), "restarting"),
        (("restarting", "dead"), "restarting"),
        (("ok", "dead"), "degraded"),
        (("draining", "dead"), "draining"),
        (("restarting", "unreachable"), "restarting"),
        (("unreachable", "ok"), "degraded"),
        (("ok", "ok"), "ok"),
    ], ids=lambda v: "+".join(v) if isinstance(v, tuple) else v)
    def test_worst_slot_sets_pool_status(self, slots, expected):
        from repro.serve.pool import WorkerPool, _Worker

        pool = WorkerPool()
        answers = {}
        for index, state in enumerate(slots):
            worker = _Worker(index=index, dead=state == "dead")
            if state not in ("dead", "restarting"):
                worker.process = SimpleNamespace(exitcode=None)  # alive
                worker.admin_port = 1
                answers[index] = (
                    None if state == "unreachable"
                    else {"worker": index, "status": state}
                )
            pool._workers.append(worker)

        async def worker_health(worker):
            return answers[worker.index]

        pool._worker_health = worker_health
        health = asyncio.run(pool._aggregate_health())
        assert health["status"] == expected
        assert [w["status"] for w in health["workers"]] == list(slots)
        assert health["pool"]["alive"] == sum(
            state not in ("dead", "restarting") for state in slots
        )


class TestConcurrentLoad:
    def test_threaded_clients_get_bit_identical_answers(self, handle, rng):
        direct = build_served_model("toy", "posit8_1", tiny_loader)
        num_threads, per_thread = 8, 5
        requests = [
            [rng.normal(size=(rng.integers(1, 5), 4)) for _ in range(per_thread)]
            for _ in range(num_threads)
        ]
        barrier = threading.Barrier(num_threads)
        failures: list[str] = []

        def worker(batches):
            with ServeClient(port=handle.server.port) as c:
                barrier.wait()
                for x in batches:
                    got = c.predict("toy", "posit8_1", x)["predictions"]
                    want = direct.network.predict(x).tolist()
                    if got != want:
                        failures.append(f"{got} != {want}")

        threads = [
            threading.Thread(target=worker, args=(r,)) for r in requests
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures

    def test_concurrent_bursts_actually_coalesce(self, handle, rng):
        """The burst must produce at least one multi-request batch."""
        before = ServeClient(port=handle.server.port)
        baseline = before.stats()["batch_size_histogram"]
        before.close()

        num_threads = 8
        barrier = threading.Barrier(num_threads)

        def worker():
            with ServeClient(port=handle.server.port) as c:
                barrier.wait()
                for _ in range(4):
                    c.predict("toy", "posit8_1", [[0.1, -0.2, 0.3, 0.4]])

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        with ServeClient(port=handle.server.port) as c:
            after = c.stats()["batch_size_histogram"]
        grew = {
            int(size): count - baseline.get(size, 0)
            for size, count in after.items()
            if count != baseline.get(size, 0)
        }
        assert max(grew) > 1, f"no coalescing observed: {grew}"


class TestMetricsEndpoint:
    def test_metrics_is_valid_prometheus_text(self, client, rng):
        """GET /metrics serves the text exposition format with the right
        Content-Type, and the counters line up with /stats."""
        client.warmup("toy", "posit8_1")
        client.predict("toy", "posit8_1", rng.normal(size=(2, 4)))
        text = client.metrics()
        stats = client.stats()

        from .test_stats import parse_exposition

        families = parse_exposition(text)
        assert "# TYPE repro_serve_requests_total counter\n" in text
        requests = dict(families["repro_serve_requests_total"])
        assert requests[""] == float(stats["requests"])
        # The batch-size histogram is cumulative and +Inf == batch count.
        buckets = dict(families["repro_serve_batch_size"])
        assert buckets['le="+Inf"'] == float(stats["batches"])
        # Per-batcher gauges appear once a model has taken traffic.
        depth = dict(families["repro_serve_queue_depth"])
        assert 'model="toy/posit8_1"' in depth
        delays = dict(families["repro_serve_effective_delay_ms"])
        assert delays['model="toy/posit8_1"'] >= 0.0

    def test_metrics_content_type_is_prometheus_text(self, handle, client):
        client.predict("toy", "posit8_1", np.zeros((1, 4)))
        import socket

        with socket.create_connection(
            ("127.0.0.1", handle.server.port), timeout=10.0
        ) as sock:
            sock.sendall(
                b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 0\r\n\r\n"
            )
            head = b""
            while b"\r\n\r\n" not in head:
                head += sock.recv(65536)
        headers = head.decode("latin-1").lower()
        assert "200" in headers.split("\r\n", 1)[0]
        assert "content-type: text/plain; version=0.0.4" in headers

    def test_metrics_via_post_is_405(self, client):
        with pytest.raises(ServeError) as err:
            client._request("POST", "/metrics", {})
        assert err.value.status == 405


class TestAdaptiveKnobSurface:
    def test_models_reports_adaptive_delay_and_effective_windows(
        self, client, rng
    ):
        client.predict("toy", "posit8_1", rng.normal(size=(1, 4)))
        listing = client.models()
        batching = listing["batching"]
        assert batching["adaptive_delay"] is True
        assert "toy/posit8_1" in batching["effective_delay_ms"]
        assert (
            0.0
            <= batching["effective_delay_ms"]["toy/posit8_1"]
            <= batching["max_delay_ms"]
        )

    def test_adaptive_delay_off_is_reported(self):
        registry = ModelRegistry(loader=tiny_loader)
        with start_in_thread(
            registry=registry, port=0, adaptive_delay=False, max_delay_ms=3.0
        ) as off_handle:
            with ServeClient(port=off_handle.server.port) as c:
                c.predict("toy", "posit8_1", np.zeros((2, 4)))
                batching = c.models()["batching"]
        assert batching["adaptive_delay"] is False
        # Fixed window: the effective delay equals max_delay_ms.
        assert batching["effective_delay_ms"]["toy/posit8_1"] == 3.0
