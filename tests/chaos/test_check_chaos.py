"""The chaos guard (``benchmarks/check_chaos.py``) on hand-made reports.

The guard reads the main report and, beside it, the pool report that
``test_pool_chaos.py`` writes; a run is green only when every required
scenario of both fired, recovered and stayed bit-identical.  Fast, so it
runs in tier-1 (the chaos matrix itself is in the slow suite).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_GUARD = Path(__file__).resolve().parents[2] / "benchmarks" / "check_chaos.py"


def _guard():
    spec = importlib.util.spec_from_file_location("check_chaos", _GUARD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(names, **override) -> dict:
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
    guard = _guard()
    main = tmp_path / "BENCH_chaos.json"
    main.write_text(json.dumps(_report(guard.REQUIRED_SCENARIOS)))
    pool_names = guard.REQUIRED_POOL_SCENARIOS
    if pool == "without the kill scenario":
        pool_names = [n for n in pool_names if n != _POOL_KILL]
    if pool != "missing":
        override = pool if isinstance(pool, dict) else {}
        (tmp_path / "BENCH_chaos.pool.json").write_text(
            json.dumps(_report(pool_names, **override))
        )
    assert guard.main(["check_chaos.py", str(main)]) == code
