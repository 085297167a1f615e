"""Chaos scenarios against the live multi-process worker pool.

Same contract as ``test_chaos.py``, aimed at the two new injection
points: ``pool.worker`` (a worker process dies mid-batch — the
supervisor must restart it and no surviving answer may change a bit)
and ``pool.route`` (the manager's control channel to a worker tears
mid-``/swap`` — the bounded retries must still converge every worker's
registry).  Results feed the same ``REPRO_CHAOS_JSON`` report via the
shared module fixture idiom.

Needs multi-core like ``tests/serve/test_pool.py`` (``REPRO_POOL_TESTS=1``
forces), and rides in the slow suite.
"""

from __future__ import annotations

import json
import os
import signal  # noqa: F401 - handy in pdb sessions against live pools
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import faults
from repro.serve import start_pool_in_thread
from repro.serve.registry import build_served_model

from tests.serve.conftest import tiny_loader

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        (os.cpu_count() or 1) < 2 and not os.environ.get("REPRO_POOL_TESTS"),
        reason="worker-pool chaos wants >= 2 cores "
               "(set REPRO_POOL_TESTS=1 to force)",
    ),
]

_RECORDS: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def chaos_report():
    """Append this module's scenarios to ``REPRO_CHAOS_JSON`` if set."""
    yield
    out = os.environ.get("REPRO_CHAOS_JSON")
    record = {
        "scenarios": _RECORDS,
        "total_injected": sum(r["injected"] for r in _RECORDS),
    }
    if out:
        path = out.replace(".json", ".pool.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    print("pool chaos:", json.dumps(record))


def _record(scenario: str, injected: int, recovered: bool,
            bit_identity_failures: int, **detail) -> dict:
    entry = {
        "scenario": scenario,
        "injected": injected,
        "recovered": recovered,
        "bit_identity_failures": bit_identity_failures,
        **detail,
    }
    _RECORDS.append(entry)
    return entry


def _post(port, path, payload, timeout=60):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _predict_retrying(port, x, attempts=5):
    """Predict with retries: a kill mid-batch resets that connection, and
    the retry must land on a sibling (or the restarted worker).  The
    answer itself is never allowed to vary."""
    last = None
    for _ in range(attempts):
        try:
            return _post(port, "/predict", {
                "dataset": "toy", "format": "posit8_1",
                "inputs": x.tolist(),
            })
        except (urllib.error.URLError, ConnectionError, OSError) as exc:
            last = exc
            time.sleep(0.1)
    raise AssertionError(f"predict never recovered: {last}")


def test_worker_killed_mid_batch_pool_recovers(monkeypatch, tmp_path):
    """A worker process dies *inside a batch execution* (``pool.worker``,
    phase=batch).  The supervisor restarts it, the retried request is
    served by a sibling, and every answer stays bit-identical."""
    trace = tmp_path / "pool_trace.jsonl"
    monkeypatch.setenv(
        faults.ENV_SPEC, "pool.worker=kill:times=1:match=phase=batch"
    )
    monkeypatch.setenv(faults.ENV_TRACE, str(trace))
    handle = start_pool_in_thread(
        port=0, workers=2,
        loader_spec="tests.serve.conftest:tiny_loader",
        server_kwargs={"max_delay_ms": 1.0},
        restart_backoff_s=0.1, seed=3,
    )
    direct = build_served_model("toy", "posit8_1", tiny_loader)
    mismatches = 0
    try:
        port = handle.pool.port
        rng = np.random.default_rng(42)
        for _ in range(30):
            x = rng.normal(size=(2, 4))
            status, body = _predict_retrying(port, x)
            assert status == 200
            if body["predictions"] != direct.network.predict(x).tolist():
                mismatches += 1
        events = [
            e for e in faults.read_trace(trace) if e.point == "pool.worker"
        ]
        # The kill demonstrably fired in a worker process (not ours).
        assert len(events) == 1
        assert events[0].pid != os.getpid()
        assert "phase=batch" in events[0].context
        # The supervisor brought the pool back to full strength.
        deadline = time.monotonic() + 60.0
        workers = handle.pool._workers
        while time.monotonic() < deadline:
            if all(w.alive for w in workers):
                break
            time.sleep(0.05)
        recovered = all(w.alive for w in workers)
        restarts = sum(w.restarts for w in workers)
    finally:
        monkeypatch.delenv(faults.ENV_SPEC)
        monkeypatch.delenv(faults.ENV_TRACE)
        handle.stop()
    entry = _record(
        "pool_worker_kill_mid_batch",
        injected=len(events),
        recovered=recovered,
        bit_identity_failures=mismatches,
        restarts=restarts,
    )
    assert entry["recovered"]
    assert entry["bit_identity_failures"] == 0
    assert restarts >= 1


def test_control_channel_drop_during_swap_converges(tmp_path):
    """The manager->worker control hop tears exactly once during a
    ``/swap`` fan-out (``pool.route``).  The bounded retries absorb it:
    the swap still reports applied on *every* worker and later answers
    are bit-identical."""
    handle = start_pool_in_thread(
        port=0, workers=2,
        loader_spec="tests.serve.conftest:tiny_loader",
        server_kwargs={"max_delay_ms": 1.0},
        restart_backoff_s=0.1, seed=5,
    )
    direct = build_served_model("toy", "posit8_1", tiny_loader)
    mismatches = 0
    try:
        port = handle.pool.port
        x = np.linspace(-2.0, 2.0, 8).reshape(2, 4)
        _predict_retrying(port, x)  # warm the model in some worker
        with faults.inject(
            "pool.route", "raise", times=1, match="path=/swap"
        ) as injector:
            status, body = _post(port, "/swap", {
                "dataset": "toy", "format": "posit8_1",
            })
        assert status == 200
        applied = body["pool"]["applied"]
        unreachable = body["pool"]["unreachable"]
        injected = injector.fired()
        # Swapped registries must still serve the exact same bits.
        for _ in range(10):
            _, after = _predict_retrying(port, x)
            if after["predictions"] != direct.network.predict(x).tolist():
                mismatches += 1
    finally:
        handle.stop()
    entry = _record(
        "pool_control_drop_during_swap",
        injected=injected,
        recovered=(applied == [0, 1] and unreachable == []),
        bit_identity_failures=mismatches,
    )
    assert entry["injected"] == 1
    assert entry["recovered"]
    assert entry["bit_identity_failures"] == 0
