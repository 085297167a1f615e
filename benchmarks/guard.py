#!/usr/bin/env python
"""CI's one benchmark guard: check recorded reports against fixed bounds.

Each gate reads the report one CI step writes and fails when the contract
it defends is broken:

* ``engine`` — ``BENCH_engine.json`` from ``bench_engine_throughput.py``:
  the fused network plan must stay fast over the PR 1 path
  (``pr1_reference.py``), both timed in the same run;
* ``ablation`` — ``BENCH_ablation.json`` from ``bench_ablation_rounding.py``:
  the vectorized truncated-EMAC pass must stay fast over the scalar
  ``Fraction`` reference on the full WBC test set;
* ``soak`` — ``BENCH_serve_soak.json`` from ``tests/serve/test_soak.py``:
  no error, rejection, bit mismatch or canary divergence, and a bounded
  p99;
* ``scaling`` — ``BENCH_serve_scaling.json`` from ``bench_serve_scaling.py``:
  every run bit-identical and error-free, and on a host with enough
  cores the best multi-worker run pays for itself without buying its
  throughput with latency (a ``skipped`` record passes);
* ``chaos`` — ``BENCH_chaos.json`` from ``tests/chaos``, plus the pool
  report beside it (``.json`` replaced by ``.pool.json``): every required
  scenario fired a fault, recovered, and stayed bit-identical.

The speed gates compare means measured in one run, so they do not depend
on the machine.  Usage::

    python benchmarks/guard.py GATE=REPORT [GATE=REPORT ...]

Exits 1 when any gate fails or a named report is missing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Every bound the gates enforce, each as the one value it takes.
BOUNDS = {
    # Fused plan over the PR 1 path: 70% of the 9.35x measured when the
    # gate was set, above the 4.5x acceptance floor.  The product is
    # 6.544999999999999, one ulp under 6.545.
    "engine_speedup": 0.7 * 9.35,
    # Truncated EMAC over its scalar reference: half the 1238x measured
    # when the gate was set, above the 100x acceptance floor.
    "ablation_speedup": 0.5 * 1238.0,
    # Generous: it catches a stalled batcher or a lost wakeup, not jitter.
    "soak_p99_ms": 250.0,
    # The best run of at least this many workers, on a host with at least
    # this many cores, reaches the speedup over one worker with its p99
    # within the ratio of one worker's.
    "scaling_workers": 4,
    "scaling_speedup": 2.0,
    "scaling_p99_ratio": 2.0,
}

CHAOS_SCENARIOS = (
    "worker_kill",
    "corrupt_artifact",
    "socket_drop",
    "midbatch_exception",
    "deadline_shed",
)

#: Scenarios of the worker-pool chaos module, in its ``.pool.json`` report.
POOL_CHAOS_SCENARIOS = (
    "pool_worker_kill_mid_batch",
    "pool_control_drop_during_swap",
)


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _speedup(path: str, slow: str, fast: str, what: str, bound: float) -> list[str]:
    """Mean of ``slow`` over mean of ``fast`` in one pytest-benchmark report."""
    means = {b["name"]: float(b["stats"]["mean"]) for b in _load(path)["benchmarks"]}
    missing = [name for name in (slow, fast) if name not in means]
    if missing:
        return [f"benchmark entries {missing} missing from {path}"]
    speedup = means[slow] / means[fast]
    print(f"{what}: {speedup:.2f}x (required >= {bound:.2f}x)")
    return [] if speedup >= bound else [f"{what} {speedup:.2f}x is below {bound:.2f}x"]


def check_engine(path: str) -> list[str]:
    return _speedup(
        path, "test_network_inference_pr1_baseline", "test_network_inference_fused",
        "fused-plan speedup over the PR 1 path", BOUNDS["engine_speedup"],
    )


def check_ablation(path: str) -> list[str]:
    return _speedup(
        path, "test_truncated_reference_wbc", "test_truncated_vectorized_wbc",
        "truncated-EMAC ablation speedup", BOUNDS["ablation_speedup"],
    )


def check_soak(path: str) -> list[str]:
    record = _load(path)
    bound = BOUNDS["soak_p99_ms"]
    print(
        f"soak: {record['requests']} requests, p50 {record['p50_ms']}ms, "
        f"p99 {record['p99_ms']}ms (bound {bound}ms)"
    )
    failures = [
        f"{key} = {record[key]}, must be 0"
        for key in ("errors", "rejected", "mismatches", "canary_divergences")
        if record[key] > 0
    ]
    if record["p99_ms"] > bound:
        failures.append(f"p99 {record['p99_ms']}ms exceeds {bound}ms")
    return failures


def check_scaling(path: str) -> list[str]:
    record = _load(path)
    if record.get("skipped"):
        print(f"scaling: skipped ({record['skipped']})")
        return []
    runs = record.get("runs", [])
    failures = [
        f"workers={run['workers']}: {run[key]} {key}"
        for run in runs
        for key in ("mismatches", "client_errors")
        if run.get(key, 0)
    ]

    workers = BOUNDS["scaling_workers"]
    base = next((r for r in runs if r.get("workers") == 1), None)
    multi = [r for r in runs if r.get("workers", 0) >= workers]
    if base is None:  # also the verdict on a record with no runs
        failures.append("no workers=1 run in record")
    elif record.get("cpu_count", 0) < workers or not multi:
        print(f"scaling: speedup needs {workers} cores and workers, not enforced")
    else:
        best = max(multi, key=lambda r: r["throughput_rps"])
        speedup = best["throughput_rps"] / base["throughput_rps"]
        p99_limit = base["p99_ms"] * BOUNDS["scaling_p99_ratio"]
        print(
            f"scaling: {speedup:.2f}x at {best['workers']} workers, "
            f"p99 {best['p99_ms']}ms (limit {p99_limit}ms)"
        )
        if speedup < BOUNDS["scaling_speedup"]:
            failures.append(
                f"speedup {speedup:.2f}x is below {BOUNDS['scaling_speedup']}x"
            )
        if best["p99_ms"] > p99_limit:
            failures.append(f"p99 {best['p99_ms']}ms exceeds {p99_limit}ms")
    return failures


def check_chaos(path: str) -> list[str]:
    failures = []
    for report, required in (
        (path, CHAOS_SCENARIOS),
        (path.replace(".json", ".pool.json"), POOL_CHAOS_SCENARIOS),
    ):
        if not Path(report).exists():
            failures.append(f"report {report} missing")
            continue
        scenarios = {s["scenario"]: s for s in _load(report).get("scenarios", [])}
        for name in required:
            entry = scenarios.get(name)
            if entry is None:
                failures.append(f"scenario '{name}' missing from {report}")
                continue
            print(
                f"{name}: injected={entry['injected']} recovered={entry['recovered']} "
                f"bit_identity_failures={entry['bit_identity_failures']}"
            )
            if entry["injected"] < 1:
                failures.append(f"{name} injected no faults")
            if not entry["recovered"]:
                failures.append(f"{name} did not recover")
            if entry["bit_identity_failures"] != 0:
                failures.append(
                    f"{name}: {entry['bit_identity_failures']} answers diverged"
                )
    return failures


GATES = {
    "engine": check_engine,
    "ablation": check_ablation,
    "soak": check_soak,
    "scaling": check_scaling,
    "chaos": check_chaos,
}


def main(argv: list[str] | None = None) -> int:
    pairs = [arg.partition("=") for arg in (sys.argv[1:] if argv is None else argv)]
    if not pairs or any(gate not in GATES or not path for gate, _, path in pairs):
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for gate, _, path in pairs:
        if Path(path).exists():
            failures = GATES[gate](path)
        else:
            failures = [f"report {path} missing"]
        for failure in failures:
            print(f"FAIL {gate}: {failure}", file=sys.stderr)
        print(f"{gate}: {'FAIL' if failures else 'OK'}")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
