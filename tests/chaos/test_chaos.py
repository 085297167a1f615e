"""Slow-suite chaos matrix: seeded faults against the live stack.

Each scenario arms the fault harness (``repro.faults``) against a real
component — the process-pool runner, the artifact store, a live server
with real sockets — and asserts the self-healing contract end to end:

* the fault demonstrably fired (``injected >= 1``, trace-backed where
  the victim is another process);
* the system recovered without operator intervention;
* every recovered answer is **bit-identical** to the fault-free path.

When ``REPRO_CHAOS_JSON`` names a path, a machine-readable report of
every scenario is written there for CI to archive and for
``python benchmarks/guard.py chaos=REPORT`` to check.  The fast deterministic slices
of the same behaviours live in ``tests/analysis/test_resilience.py``,
``tests/serve/test_resilience.py``, and ``tests/faults``.
"""

from __future__ import annotations

import json
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import faults
from repro.analysis.runner import SweepTask, run_sweeps
from repro.analysis.store import ArtifactStore
from repro.analysis.sweep import sweep_width, trained_model
from repro.nn.model import MLP
from repro.serve import ModelRegistry, ServeClient, ServeError, start_in_thread
from repro.serve.registry import build_served_model

pytestmark = pytest.mark.slow


def tiny_loader(dataset: str):
    """A ``TrainedModel``-shaped toy model (mirrors tests/serve/conftest)."""
    if dataset != "toy":
        raise KeyError(f"unknown dataset '{dataset}'")
    return SimpleNamespace(
        model=MLP((4, 6, 3), np.random.default_rng(3)),
        dataset=SimpleNamespace(
            class_names=("setosa", "versicolor", "virginica")
        ),
        float32_accuracy=0.9,
    )

_RECORDS: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def chaos_report():
    """Write the scenario matrix to ``REPRO_CHAOS_JSON`` after the run."""
    yield
    out = os.environ.get("REPRO_CHAOS_JSON")
    record = {
        "scenarios": _RECORDS,
        "total_injected": sum(r["injected"] for r in _RECORDS),
    }
    if out:
        with open(out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    print("chaos:", json.dumps(record))


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv(faults.ENV_SPEC, raising=False)
    monkeypatch.delenv(faults.ENV_TRACE, raising=False)
    trained_model.cache_clear()
    yield tmp_path
    trained_model.cache_clear()


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


def test_worker_kill_mid_grid(fresh_cache, monkeypatch, tmp_path):
    """A pool worker dies mid-task; the grid rebuilds the pool, retries,
    and finishes bit-identical to a fault-free serial run."""
    trace = tmp_path / "trace.jsonl"
    monkeypatch.setenv(faults.ENV_SPEC, "runner.task=kill:times=1")
    monkeypatch.setenv(faults.ENV_TRACE, str(trace))
    messages: list[str] = []
    survived = run_sweeps(
        ("iris",), (5, 6), jobs=2, progress=messages.append,
        retry_backoff_s=0.0,
    )
    events = faults.read_trace(trace)
    monkeypatch.delenv(faults.ENV_SPEC)
    trained_model.cache_clear()
    mismatches = sum(
        1 for width in (5, 6)
        if survived[SweepTask("iris", width)] != sweep_width("iris", width)
    )
    entry = _record(
        "worker_kill",
        injected=len(events),
        recovered=len(survived) == 2,
        bit_identity_failures=mismatches,
        pool_crashes=sum("pool crashed" in m for m in messages),
    )
    assert entry["injected"] == 1
    assert entry["recovered"] and entry["bit_identity_failures"] == 0


def test_corrupt_artifact_self_heals(tmp_path):
    """A publish corrupted on disk is detected, deleted, and the re-publish
    round-trips bit-identical."""
    store = ArtifactStore(tmp_path)
    arrays = {
        "w0": np.arange(20, dtype=np.float64).reshape(4, 5),
        "b0": np.linspace(-2.0, 2.0, 5),
    }
    meta = {"topology": [4, 5], "seed": 19}
    with faults.inject("store.publish", "corrupt") as injector:
        store.save_model("victim", arrays, meta)
    healed = store.load_model("victim") is None
    rebuilt_ok = False
    mismatches = 0
    if healed:
        store.save_model("victim", arrays, meta)
        loaded_arrays, loaded_meta = store.load_model("victim")
        rebuilt_ok = loaded_meta == meta
        mismatches = sum(
            1 for name in arrays
            if not np.array_equal(loaded_arrays[name], arrays[name])
        )
    entry = _record(
        "corrupt_artifact",
        injected=injector.fired(),
        recovered=healed and rebuilt_ok,
        bit_identity_failures=mismatches,
    )
    assert entry["injected"] == 1
    assert entry["recovered"] and entry["bit_identity_failures"] == 0


def test_socket_drop_retried_bit_identical(rng_factory=None):
    """Connections torn down mid-exchange; the bounded-retry client
    resends and every answer matches a direct predict."""
    registry = ModelRegistry(loader=tiny_loader)
    oracle = build_served_model("toy", "posit8_1", tiny_loader)
    gen = np.random.default_rng(19)
    mismatches = 0
    answered = 0
    with start_in_thread(registry=registry, port=0) as handle:
        with ServeClient(
            port=handle.server.port, retries=3, retry_backoff_s=0.001
        ) as client:
            client.warmup("toy", "posit8_1")
            with faults.inject(
                "client.recv", "drop", every=3, times=0
            ) as injector:
                for _ in range(12):
                    x = gen.normal(size=(int(gen.integers(1, 5)), 4))
                    body = client.predict("toy", "posit8_1", x)
                    answered += 1
                    expected = oracle.network.predict(x).tolist()
                    if body["predictions"] != expected:
                        mismatches += 1
    entry = _record(
        "socket_drop",
        injected=injector.fired(),
        recovered=answered == 12,
        bit_identity_failures=mismatches,
    )
    assert entry["injected"] >= 1
    assert entry["recovered"] and entry["bit_identity_failures"] == 0


def test_midbatch_exception_isolated():
    """A kernel fault poisons a coalesced batch; the batcher re-executes
    request-by-request so no caller ever sees the failure.  This scenario
    drives the real batcher directly (``asyncio.gather`` guarantees the
    wave coalesces into one batch) because over sockets the fault can
    land on a single-request batch, where propagating the error to that
    one caller is the *correct* poison-isolation behaviour."""
    import asyncio

    from repro.serve.batcher import MicroBatcher

    model = build_served_model("toy", "posit8_1", tiny_loader)
    gen = np.random.default_rng(19)
    waves = [
        [gen.normal(size=(2, 4)) for _ in range(8)] for _ in range(3)
    ]

    async def scenario():
        batcher = MicroBatcher(model, max_batch=16, max_delay_ms=20.0)
        served = []
        fired = 0
        for wave in waves:
            # One transient fault per wave: the first assembled batch
            # fails, every request in it is re-executed singly.
            with faults.inject("serve.batch", "raise", times=1) as injector:
                served.append(await asyncio.gather(
                    *(batcher.submit(model.quantize(x)) for x in wave),
                    return_exceptions=True,
                ))
            fired += injector.fired()
        stats = batcher.stats
        await batcher.close()
        return served, stats, fired

    served, stats, fired = asyncio.run(scenario())
    errors = sum(
        1 for wave in served for r in wave if isinstance(r, Exception)
    )
    mismatches = sum(
        1
        for wave, results in zip(waves, served)
        for x, r in zip(wave, results)
        if not isinstance(r, Exception)
        and not np.array_equal(r, model.network.predict(x))
    )
    entry = _record(
        "midbatch_exception",
        injected=fired,
        recovered=errors == 0,
        bit_identity_failures=mismatches,
        batch_retries=stats.batch_retries,
        client_visible_errors=errors,
    )
    assert entry["injected"] == 3
    assert entry["batch_retries"] == 3
    assert entry["recovered"] and entry["bit_identity_failures"] == 0


def test_deadline_and_shed_under_stall():
    """A stalling kernel backs the queue up; the server sheds (503) and
    expires deadlines (504) instead of piling on, and every request that
    *was* answered is bit-identical."""
    registry = ModelRegistry(loader=tiny_loader)
    oracle = build_served_model("toy", "posit8_1", tiny_loader)
    outcomes = {"ok": 0, "shed": 0, "expired": 0, "other": 0}
    mismatches = 0
    lock = threading.Lock()
    with start_in_thread(
        registry=registry, port=0, max_batch=1, max_delay_ms=0.1,
        queue_limit=4, shed_threshold=0.5,
    ) as handle:
        port = handle.server.port
        with ServeClient(port=port) as admin:
            admin.warmup("toy", "posit8_1")

        def worker(worker_id: int) -> None:
            gen = np.random.default_rng(200 + worker_id)
            nonlocal mismatches
            with ServeClient(port=port) as client:
                for i in range(3):
                    x = gen.normal(size=(1, 4))
                    deadline_ms = 1e-3 if (worker_id + i) % 2 else None
                    try:
                        body = client.predict(
                            "toy", "posit8_1", x, deadline_ms=deadline_ms
                        )
                    except ServeError as exc:
                        with lock:
                            if exc.status == 503:
                                outcomes["shed"] += 1
                            elif exc.status == 504:
                                outcomes["expired"] += 1
                            else:
                                outcomes["other"] += 1
                        continue
                    except Exception:
                        with lock:
                            outcomes["other"] += 1
                        continue
                    expected = oracle.network.predict(x).tolist()
                    with lock:
                        outcomes["ok"] += 1
                        if body["predictions"] != expected:
                            mismatches += 1

        with faults.inject(
            "serve.batch", "stall", stall_s=0.05, times=0
        ) as injector:
            threads = [
                threading.Thread(target=worker, args=(w,)) for w in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        with ServeClient(port=port) as admin:
            stats = admin.stats()
            health = admin.health()
    entry = _record(
        "deadline_shed",
        injected=injector.fired(),
        recovered=outcomes["other"] == 0,
        bit_identity_failures=mismatches,
        outcomes=outcomes,
        server_shed=stats["shed"],
        server_deadline_expired=stats["deadline_expired"],
    )
    assert entry["injected"] >= 1
    assert outcomes["other"] == 0
    # The protective machinery demonstrably engaged: every refusal the
    # clients saw is accounted for in the server's counters.
    assert outcomes["shed"] + outcomes["expired"] >= 1
    assert stats["shed"] >= outcomes["shed"]
    assert stats["deadline_expired"] >= outcomes["expired"]
    assert health["shed_mode"] is True
    assert entry["recovered"] and entry["bit_identity_failures"] == 0
