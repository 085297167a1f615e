#!/usr/bin/env python
"""CI guard for the chaos matrix's recorded scenario reports.

Reads the JSON the slow-suite chaos tests (``tests/chaos``) write when
``REPRO_CHAOS_JSON`` is set — ``test_chaos.py`` writes the named file and
``test_pool_chaos.py`` writes its pool scenarios beside it, ``.json``
replaced by ``.pool.json`` — and enforces the self-healing contract for
every required scenario of both:

* the scenario ran and its fault demonstrably fired (``injected >= 1``);
* the system recovered without operator intervention;
* zero bit-identity failures — every recovered answer matched the
  fault-free path exactly.

A chaos run where no fault fired is a broken harness, not a pass: the
guard fails on a missing scenario (or a missing pool report, as when
the pool chaos module was skipped) exactly as it fails on an
unrecovered one.

Usage::

    python benchmarks/check_chaos.py BENCH_chaos.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REQUIRED_SCENARIOS = (
    "worker_kill",
    "corrupt_artifact",
    "socket_drop",
    "midbatch_exception",
    "deadline_shed",
)

#: Scenarios of the worker-pool chaos module, in its ``.pool.json`` report.
REQUIRED_POOL_SCENARIOS = (
    "pool_worker_kill_mid_batch",
    "pool_control_drop_during_swap",
)


def check_report(path: Path, required: tuple[str, ...]) -> int | None:
    """Check one report; its injected-fault total, or ``None`` on failure."""
    if not path.exists():
        print(f"FAIL: report {path} missing", file=sys.stderr)
        return None
    record = json.loads(path.read_text())
    scenarios = {s["scenario"]: s for s in record.get("scenarios", [])}

    failed = False
    for name in required:
        entry = scenarios.get(name)
        if entry is None:
            print(f"FAIL: scenario '{name}' missing from {path}",
                  file=sys.stderr)
            failed = True
            continue
        print(
            f"{name}: injected={entry['injected']} "
            f"recovered={entry['recovered']} "
            f"bit_identity_failures={entry['bit_identity_failures']}"
        )
        if entry["injected"] < 1:
            print(f"FAIL: {name} injected no faults (harness broken?)",
                  file=sys.stderr)
            failed = True
        if not entry["recovered"]:
            print(f"FAIL: {name} did not recover", file=sys.stderr)
            failed = True
        if entry["bit_identity_failures"] != 0:
            print(
                f"FAIL: {name} produced "
                f"{entry['bit_identity_failures']} answers that diverged "
                "from the fault-free path",
                file=sys.stderr,
            )
            failed = True
    return None if failed else record["total_injected"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    totals = [
        check_report(Path(argv[1]), REQUIRED_SCENARIOS),
        check_report(
            Path(argv[1].replace(".json", ".pool.json")),
            REQUIRED_POOL_SCENARIOS,
        ),
    ]
    if None in totals:
        return 1
    print(f"OK ({sum(totals)} faults injected, all recovered)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
