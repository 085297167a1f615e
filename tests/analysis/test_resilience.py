"""Self-healing runner and store under injected faults.

The recovery contract is stronger than "doesn't crash": because the
pipeline is bit-exact, a grid that survived worker deaths must produce
*bit-identical* results to a fault-free run, and a store artifact torn
mid-publish must be detected, deleted, and rebuilt to the same bytes.
The slow end-to-end fault matrix lives in ``tests/chaos``; these are the
fast deterministic pieces.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.analysis.runner import (
    GridQuarantine,
    SweepTask,
    _backoff_delay,
    _run_grid,
    run_sweeps,
)
from repro.analysis.store import ArtifactStore, artifact_store
from repro.analysis.sweep import sweep_task_key, sweep_width, trained_model


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv(faults.ENV_SPEC, raising=False)
    monkeypatch.delenv(faults.ENV_TRACE, raising=False)
    trained_model.cache_clear()
    yield tmp_path
    trained_model.cache_clear()


def _grid_serial(tasks, evaluate, **kwargs):
    """Drive the shared grid executor serially with a fake evaluate."""
    kwargs.setdefault("retry_backoff_s", 0.0)
    return _run_grid(
        tasks, evaluate, sweep_task_key, None, 1, lambda _: None, **kwargs
    )


class TestBackoff:
    def test_jittered_exponential_bounds(self):
        rng = random.Random(0)
        for attempt in (1, 2, 3, 4):
            base = 0.5 * 2 ** (attempt - 1)
            for _ in range(50):
                delay = _backoff_delay(rng, 0.5, attempt)
                assert base * 0.5 <= delay < base * 1.5

    def test_deterministic_for_a_seeded_rng(self):
        a = [_backoff_delay(random.Random(7), 0.1, n) for n in (1, 2, 3)]
        b = [_backoff_delay(random.Random(7), 0.1, n) for n in (1, 2, 3)]
        assert a == b


class TestSerialRetryPolicy:
    def test_transient_failure_retried_to_success(self, fresh_cache):
        task = SweepTask("iris", 5)
        calls = []

        def flaky(dataset, width):
            calls.append((dataset, width))
            if len(calls) < 3:
                raise RuntimeError("transient")
            return {"ok": True}

        results = _grid_serial([task], flaky, max_attempts=3)
        assert results == {task: {"ok": True}}
        assert len(calls) == 3

    def test_poison_task_quarantined_grid_completes(self, fresh_cache):
        poison, healthy = SweepTask("iris", 5), SweepTask("iris", 6)

        def evaluate(dataset, width):
            if width == 5:
                raise ValueError("always broken")
            return {"width": width}

        with pytest.raises(GridQuarantine) as excinfo:
            _grid_serial([poison, healthy], evaluate, max_attempts=2)
        exc = excinfo.value
        assert exc.results == {healthy: {"width": 6}}
        assert exc.report == [{
            "dataset": "iris", "width": 5, "attempts": 2,
            "error": "ValueError: always broken",
        }]

    def test_max_attempts_must_be_positive(self, fresh_cache):
        with pytest.raises(ValueError):
            _grid_serial([SweepTask("iris", 5)], lambda d, w: {},
                         max_attempts=0)

    def test_attempts_are_per_task(self, fresh_cache):
        tasks = [SweepTask("iris", 5), SweepTask("iris", 6)]
        failures = {5: 1, 6: 1}  # each fails once, then succeeds

        def evaluate(dataset, width):
            if failures[width] > 0:
                failures[width] -= 1
                raise RuntimeError("transient")
            return {"width": width}

        results = _grid_serial(tasks, evaluate, max_attempts=2)
        assert set(results) == set(tasks)


class TestParallelCrashRecovery:
    """Injected worker faults against the real process pool."""

    def test_worker_kill_recovers_bit_identical(
        self, fresh_cache, monkeypatch, tmp_path
    ):
        trace = tmp_path / "faults-trace.jsonl"
        monkeypatch.setenv(faults.ENV_SPEC, "runner.task=kill:times=1")
        monkeypatch.setenv(faults.ENV_TRACE, str(trace))
        messages = []
        survived = run_sweeps(
            ("iris",), (5,), jobs=2, progress=messages.append,
            retry_backoff_s=0.0,
        )
        # The kill fired exactly once (trace-bounded across respawns)...
        events = faults.read_trace(trace)
        assert [e.action for e in events] == ["kill"]
        assert any("pool crashed" in m for m in messages)
        # ...and the recovered grid is bit-identical to the serial path.
        monkeypatch.delenv(faults.ENV_SPEC)
        trained_model.cache_clear()
        assert survived[SweepTask("iris", 5)] == sweep_width("iris", 5)

    def test_repeat_killer_quarantined_not_respawned_forever(
        self, fresh_cache, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(faults.ENV_SPEC, "runner.task=kill:times=0")
        monkeypatch.setenv(
            faults.ENV_TRACE, str(tmp_path / "trace.jsonl")
        )
        with pytest.raises(GridQuarantine) as excinfo:
            run_sweeps(
                ("iris",), (5,), jobs=2, max_attempts=2,
                retry_backoff_s=0.0,
            )
        (failure,) = excinfo.value.failures
        assert failure.task == SweepTask("iris", 5)
        assert failure.attempts == 2
        assert "worker process died" in failure.error

    def test_poison_exception_quarantined_rest_of_grid_completes(
        self, fresh_cache, monkeypatch
    ):
        monkeypatch.setenv(
            faults.ENV_SPEC,
            "runner.task=raise:times=0:match=task=iris-5",
        )
        with pytest.raises(GridQuarantine) as excinfo:
            run_sweeps(("iris",), (5, 6), jobs=2, retry_backoff_s=0.0)
        exc = excinfo.value
        assert [f.as_dict()["width"] for f in exc.failures] == [5]
        assert exc.failures[0].attempts == 3
        assert "InjectedFault" in exc.failures[0].error
        # The healthy task completed, bit-identical to serial.
        monkeypatch.delenv(faults.ENV_SPEC)
        trained_model.cache_clear()
        assert exc.results[SweepTask("iris", 6)] == sweep_width("iris", 6)

    def test_transient_raise_retried_bit_identical(
        self, fresh_cache, monkeypatch, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        monkeypatch.setenv(faults.ENV_SPEC, "runner.task=raise:times=1")
        monkeypatch.setenv(faults.ENV_TRACE, str(trace))
        survived = run_sweeps(
            ("iris",), (5,), jobs=2, retry_backoff_s=0.0
        )
        assert len(faults.read_trace(trace)) == 1
        monkeypatch.delenv(faults.ENV_SPEC)
        trained_model.cache_clear()
        assert survived[SweepTask("iris", 5)] == sweep_width("iris", 5)


def _tiny_model_artifact(store: ArtifactStore) -> tuple[str, dict, dict]:
    arrays = {
        "w0": np.arange(12, dtype=np.float64).reshape(3, 4),
        "b0": np.linspace(-1.0, 1.0, 4),
    }
    meta = {"topology": [3, 4], "seed": 19}
    store.save_model("tiny", arrays, meta)
    return "tiny", arrays, meta


class TestStoreSelfHeal:
    """Property: a torn or corrupted artifact is detected, deleted, and
    rebuildable — never loaded as garbage, never a crash."""

    @settings(max_examples=25, deadline=None)
    @given(frac=st.floats(0.02, 0.98))
    def test_truncated_model_detected_deleted_rebuilt(
        self, tmp_path_factory, frac
    ):
        store = ArtifactStore(tmp_path_factory.mktemp("heal"))
        key, arrays, meta = _tiny_model_artifact(store)
        path = store.model_path(key)
        blob = path.read_bytes()
        path.write_bytes(blob[: max(1, int(len(blob) * frac))])
        assert store.load_model(key) is None
        assert not path.exists()  # healed: deleted for recompute
        store.save_model(key, arrays, meta)
        loaded_arrays, loaded_meta = store.load_model(key)
        assert loaded_meta == meta
        for name in arrays:
            np.testing.assert_array_equal(loaded_arrays[name], arrays[name])

    @settings(max_examples=25, deadline=None)
    @given(offset=st.integers(0, 10_000))
    def test_corrupt_model_byte_never_loads_garbage(
        self, tmp_path_factory, offset
    ):
        store = ArtifactStore(tmp_path_factory.mktemp("heal"))
        key, arrays, meta = _tiny_model_artifact(store)
        path = store.model_path(key)
        blob = bytearray(path.read_bytes())
        blob[offset % len(blob)] ^= 0xFF
        path.write_bytes(bytes(blob))
        loaded = store.load_model(key)
        if loaded is None:
            # Detected (CRC/parse failure) and healed for recompute.
            assert not path.exists()
        else:
            # The flip landed in zip metadata the reader never consults
            # (e.g. a skipped local-header field): payload must still be
            # bit-identical — a corrupt load may heal or pass through
            # unharmed, but never return garbage.
            loaded_arrays, loaded_meta = loaded
            assert loaded_meta == meta
            for name in arrays:
                np.testing.assert_array_equal(
                    loaded_arrays[name], arrays[name]
                )

    def test_every_model_byte_flip_heals_or_loads_intact(self, tmp_path):
        """Flip each byte of the artifact in turn, central directory
        included: every load either heals or returns the saved payload."""
        store = ArtifactStore(tmp_path)
        key, arrays, meta = _tiny_model_artifact(store)
        path = store.model_path(key)
        blob = path.read_bytes()
        for offset in range(len(blob)):
            flipped = bytearray(blob)
            flipped[offset] ^= 0xFF
            path.write_bytes(bytes(flipped))
            loaded = store.load_model(key)
            if loaded is None:
                assert not path.exists(), offset
                continue
            loaded_arrays, loaded_meta = loaded
            assert loaded_meta == meta, offset
            assert sorted(loaded_arrays) == sorted(arrays), offset
            for name in arrays:
                np.testing.assert_array_equal(
                    loaded_arrays[name], arrays[name], err_msg=str(offset)
                )

    def test_result_edited_to_other_valid_json_heals(self, tmp_path):
        """A result that still parses but no longer matches its digest is
        deleted, not returned."""
        store = ArtifactStore(tmp_path)
        store.save_result("task", {"accuracy": [0.25, 0.75]})
        path = store.result_path("task")
        path.write_text(path.read_text().replace("0.75", "0.95"))
        assert store.load_result("task") is None
        assert not path.exists()

    @settings(max_examples=25, deadline=None)
    @given(frac=st.floats(0.0, 0.98), flip=st.booleans())
    def test_result_json_truncation_and_corruption_heal(
        self, tmp_path_factory, frac, flip
    ):
        store = ArtifactStore(tmp_path_factory.mktemp("heal"))
        value = {"accuracy": [0.25, 0.75], "config": {"n": 8, "es": 1}}
        store.save_result("task", value)
        path = store.result_path("task")
        blob = bytearray(path.read_bytes())
        if flip:
            blob[int((len(blob) - 1) * frac)] ^= 0xFF  # invalid UTF-8
            path.write_bytes(bytes(blob))
        else:
            path.write_bytes(bytes(blob[: int(len(blob) * frac)]))
        assert store.load_result("task") is None
        assert not path.exists()
        store.save_result("task", value)
        assert store.load_result("task") == value


class TestDurablePublish:
    """Satellite: artifacts are fsynced (file then directory) around the
    rename, and a publish torn by the truncation fault self-heals."""

    def test_atomic_write_json_fsyncs_file(self, tmp_path, monkeypatch):
        from repro.analysis.cache import atomic_write_json

        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        atomic_write_json(tmp_path / "v.json", {"k": 1})
        assert synced  # file fd synced before rename, dir after
        assert json.loads((tmp_path / "v.json").read_text()) == {"k": 1}

    def test_save_model_fsyncs_file(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        store = ArtifactStore(tmp_path)
        store.save_model("k", {"w": np.ones(3)}, {"m": 1})
        assert synced

    def test_result_publish_truncated_by_fault_self_heals(self, tmp_path):
        store = ArtifactStore(tmp_path)
        value = {"rows": list(range(32))}
        with faults.inject("store.publish", "truncate") as injector:
            store.save_result("task", value)
        assert injector.fired() == 1
        # The published artifact is the torn temp file: detected, deleted,
        # and the re-publish round-trips.
        assert store.load_result("task") is None
        store.save_result("task", value)
        assert store.load_result("task") == value

    def test_model_publish_corrupted_by_fault_self_heals(self, tmp_path):
        store = ArtifactStore(tmp_path)
        arrays = {"w": np.arange(6, dtype=np.float64)}
        with faults.inject("store.publish", "corrupt") as injector:
            store.save_model("k", arrays, {"m": 2})
        assert injector.fired() == 1
        assert store.load_model("k") is None
        store.save_model("k", arrays, {"m": 2})
        loaded, meta = store.load_model("k")
        np.testing.assert_array_equal(loaded["w"], arrays["w"])
        assert meta == {"m": 2}

    def test_grid_resumes_after_torn_result(self, fresh_cache):
        # End-to-end: a result torn at publish is recomputed on resume,
        # bit-identical.
        with faults.inject("store.publish", "truncate", match="results"):
            first = run_sweeps(("iris",), (5,), jobs=1)
        store = artifact_store()
        assert store.load_result(sweep_task_key("iris", 5)) is None
        trained_model.cache_clear()
        resumed = run_sweeps(("iris",), (5,), jobs=1)
        assert resumed == first
