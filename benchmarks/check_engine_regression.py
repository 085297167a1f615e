#!/usr/bin/env python
"""CI regression guard for the fused-plan throughput.

Reads a ``pytest-benchmark`` JSON produced by ``bench_engine_throughput.py``
and computes one full-network speedup from timings measured in the *same*
run, so the ratio is machine-independent: the fused whole-network plan
(the one production path) over the retained PR 1 engine path
(``dot_reference``).  The fused bench asserts bit-identity to
``dot_reference`` and the scalar oracle in-run, so this ratio can never be
bought with numerics.

Fails when the speedup drops below its acceptance floor or more than 30%
under its committed baseline entry.

Usage::

    python benchmarks/check_engine_regression.py BENCH_engine.json \
        [benchmarks/engine_baseline.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Acceptance floor: the fused plan must stay >= 4.5x the PR 1 path (the
#: product of the retired floors, compiled >= 3x PR 1 and fused >= 1.5x
#: compiled).
SPEEDUP_FLOOR = 4.5

#: Allowed fraction of the committed baseline speedup (30% drop tolerance).
BASELINE_FRACTION = 0.7

REFERENCE = "test_network_inference_pr1_baseline"
FUSED = "test_network_inference_fused"


def mean_seconds(report: dict, name: str) -> float:
    for bench in report["benchmarks"]:
        if bench["name"] == name:
            return float(bench["stats"]["mean"])
    raise SystemExit(f"benchmark entry '{name}' missing from the report")


def main(argv: list[str]) -> int:
    if not 2 <= len(argv) <= 3:
        print(__doc__)
        return 2
    report = json.loads(Path(argv[1]).read_text())
    baseline_path = Path(
        argv[2] if len(argv) == 3 else Path(__file__).parent / "engine_baseline.json"
    )
    baseline = json.loads(baseline_path.read_text())

    speedup = mean_seconds(report, REFERENCE) / mean_seconds(report, FUSED)
    committed = float(baseline["network_fused_over_pr1"])
    required = max(SPEEDUP_FLOOR, BASELINE_FRACTION * committed)
    print(
        f"fused-plan network speedup: {speedup:.2f}x over the PR 1 path "
        f"(committed baseline {committed:.2f}x, required >= {required:.2f}x)"
    )
    if speedup < required:
        print("FAIL: fused inference throughput regressed", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
