"""The benchmark guard (``benchmarks/guard.py``) on hand-made reports.

Every gate is pinned at its bound and just past it, and on each way a
report can break its contract.  Fast, so it runs in tier-1 (the benches
and the slow suites that write the real reports do not).
"""

from __future__ import annotations

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

_GUARD = Path(__file__).resolve().parents[1] / "benchmarks" / "guard.py"


def _load_guard():
    spec = importlib.util.spec_from_file_location("guard", _GUARD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


guard = _load_guard()
BOUNDS = guard.BOUNDS


def _verdict(tmp_path, gate, record, name="BENCH.json") -> int:
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return guard.main([f"{gate}={path}"])


def test_bounds_are_the_enforced_values():
    assert BOUNDS["engine_speedup"] == max(4.5, 0.7 * 9.35)
    assert BOUNDS["ablation_speedup"] == max(100.0, 0.5 * 1238.0) == 619.0
    assert BOUNDS["soak_p99_ms"] == 250.0
    assert (BOUNDS["scaling_workers"], BOUNDS["scaling_speedup"],
            BOUNDS["scaling_p99_ratio"]) == (4, 2.0, 2.0)


# --------------------------------------------------------------- speed gates

_SPEED = {
    "engine": ("engine_speedup", "test_network_inference_pr1_baseline",
               "test_network_inference_fused"),
    "ablation": ("ablation_speedup", "test_truncated_reference_wbc",
                 "test_truncated_vectorized_wbc"),
}


def _bench(means: dict, mins: dict | None = None) -> dict:
    mins = mins or means
    return {"benchmarks": [
        {"name": name, "stats": {"mean": mean, "min": mins[name]}}
        for name, mean in means.items()
    ]}


@pytest.mark.parametrize("gate", sorted(_SPEED))
@pytest.mark.parametrize("speedup, code", [
    ("bound", 0),
    ("just below", 1),
    ("twice", 0),
])
def test_speed_gate(tmp_path, gate, speedup, code):
    key, slow, fast = _SPEED[gate]
    bound = BOUNDS[key]
    ratio = {"bound": bound, "just below": math.nextafter(bound, 0),
             "twice": 2 * bound}[speedup]
    record = _bench({slow: ratio, fast: 1.0, "test_other": 5.0})
    assert _verdict(tmp_path, gate, record) == code


@pytest.mark.parametrize("gate", sorted(_SPEED))
def test_speed_gate_compares_means(tmp_path, gate):
    key, slow, fast = _SPEED[gate]
    bound = BOUNDS[key]
    means = {slow: 0.9 * bound, fast: 1.0}
    mins = {slow: 10 * bound, fast: 1.0}
    assert _verdict(tmp_path, gate, _bench(means, mins)) == 1
    assert _verdict(tmp_path, gate, _bench(mins, means)) == 0


def test_engine_gate_accepts_the_rounded_bound(tmp_path):
    _, slow, fast = _SPEED["engine"]
    assert _verdict(tmp_path, "engine", _bench({slow: 6.545, fast: 1.0})) == 0
    assert _verdict(tmp_path, "engine", _bench({slow: 6.5449, fast: 1.0})) == 1


@pytest.mark.parametrize("gate", sorted(_SPEED))
@pytest.mark.parametrize("missing", ["slow", "fast"])
def test_speed_gate_entry_missing(tmp_path, gate, missing):
    _, slow, fast = _SPEED[gate]
    kept = fast if missing == "slow" else slow
    assert _verdict(tmp_path, gate, _bench({kept: 1.0})) == 1


# ---------------------------------------------------------------------- soak

def _soak(**override) -> dict:
    return {
        "requests": 2400, "errors": 0, "rejected": 0, "mismatches": 0,
        "p50_ms": 8.0, "p99_ms": 40.0, "swaps": 1, "canary_checks": 30,
        "canary_divergences": 0, **override,
    }


@pytest.mark.parametrize("override, code", [
    ({}, 0),
    ({"p99_ms": 250.0}, 0),
    ({"p99_ms": math.nextafter(250.0, math.inf)}, 1),
    ({"errors": 1}, 1),
    ({"rejected": 1}, 1),
    ({"mismatches": 1}, 1),
    ({"canary_divergences": 1}, 1),
], ids=["clean", "p99-at-bound", "p99-above", "error", "rejection",
        "mismatch", "canary-divergence"])
def test_soak_gate(tmp_path, override, code):
    assert _verdict(tmp_path, "soak", _soak(**override)) == code


# ------------------------------------------------------------------- scaling

def _run(workers, rps, p99=10.0, **extra) -> dict:
    return {"workers": workers, "throughput_rps": rps, "p50_ms": p99 / 2,
            "p99_ms": p99, "mismatches": 0, "client_errors": 0, **extra}


def _scaling(runs, cores=8) -> dict:
    return {"cpu_count": cores, "threads": 8, "runs": runs}


@pytest.mark.parametrize("record, code", [
    ({"cpu_count": 1, "skipped": "single-core host"}, 0),
    (_scaling([_run(1, 100.0), _run(4, 200.0)]), 0),
    (_scaling([_run(1, 100.0), _run(2, 300.0), _run(4, 199.0)]), 1),
    (_scaling([_run(1, 100.0), _run(4, 199.0), _run(8, 250.0)]), 0),
    (_scaling([_run(1, 100.0), _run(4, 250.0, p99=20.0)]), 0),
    (_scaling([_run(1, 100.0), _run(4, 250.0, p99=20.001)]), 1),
    (_scaling([_run(1, 100.0), _run(4, 250.0, mismatches=1)]), 1),
    (_scaling([_run(1, 100.0, client_errors=1), _run(4, 250.0)]), 1),
    (_scaling([]), 1),
    (_scaling([_run(2, 100.0), _run(4, 250.0)]), 1),
    (_scaling([_run(1, 100.0), _run(2, 110.0)], cores=2), 0),
    (_scaling([_run(1, 100.0), _run(4, 100.0, p99=99.0)], cores=3), 0),
    (_scaling([_run(1, 100.0), _run(2, 110.0, mismatches=1)], cores=2), 1),
    (_scaling([_run(1, 100.0), _run(2, 110.0)]), 0),
], ids=["skipped", "2x", "1.99x", "best-of-multi", "p99-at-2x-base",
        "p99-above-2x-base", "mismatch", "client-error", "no-runs",
        "no-single-worker-run", "2-cores-not-enforced",
        "3-cores-not-enforced", "2-cores-mismatch", "no-4-worker-run"])
def test_scaling_gate(tmp_path, record, code):
    assert _verdict(tmp_path, "scaling", record) == code


# --------------------------------------------------------------------- chaos

def _chaos(names, **override) -> dict:
    scenarios = [
        {"scenario": name, "injected": 1, "recovered": True,
         "bit_identity_failures": 0, **override.get(name, {})}
        for name in names
    ]
    return {
        "scenarios": scenarios,
        "total_injected": sum(s["injected"] for s in scenarios),
    }


_POOL_KILL = "pool_worker_kill_mid_batch"


@pytest.mark.parametrize("pool, code", [
    ("complete", 0),
    ("missing", 1),
    ("without the kill scenario", 1),
    ({_POOL_KILL: {"injected": 0}}, 1),
    ({_POOL_KILL: {"recovered": False}}, 1),
    ({_POOL_KILL: {"bit_identity_failures": 2}}, 1),
], ids=["complete", "missing", "scenario-missing", "not-fired",
        "not-recovered", "bits-diverged"])
def test_pool_report_is_guarded(tmp_path, pool, code):
    main = tmp_path / "BENCH_chaos.json"
    main.write_text(json.dumps(_chaos(guard.CHAOS_SCENARIOS)))
    pool_names = guard.POOL_CHAOS_SCENARIOS
    if pool == "without the kill scenario":
        pool_names = [n for n in pool_names if n != _POOL_KILL]
    if pool != "missing":
        override = pool if isinstance(pool, dict) else {}
        (tmp_path / "BENCH_chaos.pool.json").write_text(
            json.dumps(_chaos(pool_names, **override))
        )
    assert guard.main([f"chaos={main}"]) == code


@pytest.mark.parametrize("override", [
    {"deadline_shed": {"injected": 0}},
    {"socket_drop": {"recovered": False}},
    {"worker_kill": {"bit_identity_failures": 1}},
    "midbatch_exception",
], ids=["not-fired", "not-recovered", "bits-diverged", "scenario-missing"])
def test_main_chaos_report_is_guarded(tmp_path, override):
    (tmp_path / "BENCH_chaos.pool.json").write_text(
        json.dumps(_chaos(guard.POOL_CHAOS_SCENARIOS))
    )
    names = guard.CHAOS_SCENARIOS
    if isinstance(override, str):
        names, override = [n for n in names if n != override], {}
    record = _chaos(names, **override)
    assert _verdict(tmp_path, "chaos", record, name="BENCH_chaos.json") == 1


# --------------------------------------------------------------- entry point

@pytest.mark.parametrize("gate", sorted(guard.GATES))
def test_missing_report_fails(tmp_path, gate):
    assert guard.main([f"{gate}={tmp_path / 'absent.json'}"]) == 1


@pytest.mark.parametrize("argv", [
    [], ["BENCH_engine.json"], ["speed=BENCH_engine.json"], ["engine="],
], ids=["no-pair", "no-gate", "unknown-gate", "no-report"])
def test_malformed_arguments_are_usage_errors(argv):
    assert guard.main(argv) == 2


def test_every_pair_is_checked(tmp_path, capsys):
    soak = tmp_path / "soak.json"
    soak.write_text(json.dumps(_soak()))
    missing = tmp_path / "engine.json"
    assert guard.main([f"engine={missing}", f"soak={soak}"]) == 1
    out = capsys.readouterr()
    assert "soak: OK" in out.out
    assert "engine: FAIL" in out.out
    assert f"report {missing} missing" in out.err


def test_command_line(tmp_path):
    soak = tmp_path / "soak.json"

    def run(record):
        soak.write_text(json.dumps(record))
        return subprocess.run([sys.executable, str(_GUARD), f"soak={soak}"],
                              capture_output=True, text=True, timeout=60)

    ok = run(_soak())
    assert ok.returncode == 0, ok.stderr
    failed = run(_soak(errors=3))
    assert failed.returncode == 1
    assert "errors = 3" in failed.stderr
