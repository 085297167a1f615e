"""Self-test of the benchmark at tiny sizes (about two minutes).

    python3 perfbench/selftest.py        # from the repo root

Checks, for every workload, that ``run.py`` prints every end-to-end
metric of ``BENCHMARK.json`` with its unit (``--trace 0``) and every
per-layer metric with its unit (``--trace 1``); that a deliberately wrong
expected answer (``--corrupt-expected``) lands in ``failed`` and
``failed_share`` and makes the command exit non-zero; and that the
command refuses, without a result line, to run in a directory holding
only the benchmark.  Exits non-zero on the first check that fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BUILD = Path.cwd() / ".bench_build"


def bench(*args: str, root: Path | None = None):
    """Run the benchmark command from ``root`` (default: here)."""
    script = (root / "perfbench" if root else HERE) / "run.py"
    done = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def check(condition: bool, message: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {message}", flush=True)
    if not condition:
        sys.exit(1)


def expect_metrics(result: dict, spec_key: str, label: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == want, f"{label}: every {spec_key} metric with its unit")
    check(all(isinstance(m["value"], (int, float))
              for m in result["metrics"].values()),
          f"{label}: every value is a number")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            code, result, errors = bench(
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace),
            )
            ok = code == 0 and result is not None and result["correct"]
            check(ok, f"{label}: exit 0 and correct"
                      + ("" if ok else "\n" + errors[-2000:]))
            expect_metrics(result, key, label)
            if trace == 0:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      f"{label}: no end-to-end metric is 0")

    for workload in ("online", "sweep"):
        code, result, _ = bench("--workload", workload, "--seed", "7",
                                "--seconds", "1", "--corrupt-expected")
        record = json.loads(
            (BUILD / "runs" / f"{workload}-seed7-trace0.json").read_text()
        )
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1 and record["failed_share"] > 0,
              f"{workload}: a wrong expected answer lands in failed_share "
              f"({record['failed_share']:.4f}) and exits {code}")

    bare = BUILD / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    code, result, _ = bench("--workload", "online", "--seed", "7",
                            "--seconds", "1", root=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None,
          f"without the repo sources: exit {code}, no result line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
