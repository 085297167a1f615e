"""Slow-suite soak: replay a heavy multi-model trace through a live server.

This is the serving layer's endurance test — the shape of traffic a real
deployment sees, compressed: several client threads hammer three served
models (two formats of ``toy`` under an A/B experiment with a canary,
plus ``toy2``) with a deterministic seeded trace of mixed row counts,
while a hot-swap lands mid-soak.  The
assertions are the production invariants:

* **zero errors, zero rejections** — every request in the trace answers;
* **bit-identity end to end** — every response equals a direct
  ``predict`` of the network that served it, across coalescing, A/B
  routing, and the swap;
* **canary silence** — the sampled A/B bit-identity canary never trips;
* **bounded tail latency** — p99 stays under the benchmark guard's bound
  (``soak_p99_ms`` in ``benchmarks/guard.py``), with generous headroom so
  the bound catches pathologies (a stalled batcher, a lost wakeup), not
  CI-machine jitter.

When ``REPRO_SOAK_JSON`` names a path, the measured counters are written
there for CI to archive next to ``BENCH_serve.json`` and to check with
``python benchmarks/guard.py soak=BENCH_serve_soak.json``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve import ModelRegistry, ServeClient, start_in_thread
from repro.serve.registry import build_served_model
from repro.serve.stats import percentile

from .conftest import tiny_loader

pytestmark = pytest.mark.slow

#: (dataset, format) mix each worker draws from.  ``None`` format means
#: "route me": the request goes through the toy A/B experiment.
_TRACE_MODELS = [
    ("toy", None),
    ("toy", None),
    ("toy", "posit8_1"),
    ("toy", "float4_3"),
    ("toy2", "posit6_0"),
    ("toy2", "posit6_0"),
]

_WORKERS = 8
_REQUESTS_PER_WORKER = 60
_SWAP_AFTER = 0.25  # fraction of a worker's trace before the swap lands

#: Direct-prediction oracles, keyed like the server keys models.  The
#: ``toy/posit8_1`` oracle is replaced at swap time (same seed bump the
#: SwappingLoader applies), so bit-identity is asserted against whichever
#: network was live — responses carry the generation via the arm name.
_FEATURES = {"toy": 4, "toy2": 5}


def _guard_bounds() -> dict:
    """The benchmark guard's bound table (``benchmarks/guard.py``)."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "guard.py"
    spec = importlib.util.spec_from_file_location("guard", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDS


class SwappingLoader:
    """tiny_loader plus a version knob, like tests/serve/test_swap.py."""

    def __init__(self):
        self.version = 0

    def __call__(self, dataset: str):
        from repro.nn.model import MLP

        from .conftest import TOY_SPECS

        base = tiny_loader(dataset)
        if self.version and dataset == "toy":
            topology, _, seed = TOY_SPECS[dataset]
            base.model = MLP(
                topology, np.random.default_rng(seed + 1000 * self.version)
            )
        return base


def test_soak_multi_model_trace_zero_errors_bounded_p99():
    loader = SwappingLoader()
    registry = ModelRegistry(loader=loader)
    oracles = {
        ("toy", "posit8_1", 0): build_served_model(
            "toy", "posit8_1", tiny_loader
        ),
        ("toy", "float4_3", 0): build_served_model(
            "toy", "float4_3", tiny_loader
        ),
        ("toy2", "posit6_0", 0): build_served_model(
            "toy2", "posit6_0", tiny_loader
        ),
    }
    swapped_loader = SwappingLoader()
    swapped_loader.version = 1
    oracles[("toy", "posit8_1", 1)] = build_served_model(
        "toy", "posit8_1", swapped_loader
    )

    swap_done = threading.Event()
    mismatches: list[str] = []
    errors: list[str] = []
    latencies_ms: list[float] = []
    lock = threading.Lock()

    with start_in_thread(
        registry=registry, port=0, max_batch=16, max_delay_ms=2.0
    ) as handle:
        port = handle.server.port
        with ServeClient(port=port) as admin:
            admin.start_ab("toy", "posit8_1", "float4_3", canary_every=8)
            for dataset, fmt in {
                ("toy", "posit8_1"), ("toy", "float4_3"),
                ("toy2", "posit6_0"),
            }:
                admin.warmup(dataset, fmt)

            def worker(worker_id: int) -> None:
                gen = np.random.default_rng(1000 + worker_id)
                swap_at = int(_REQUESTS_PER_WORKER * _SWAP_AFTER)
                with ServeClient(port=port) as client:
                    for i in range(_REQUESTS_PER_WORKER):
                        if worker_id == 0 and i == swap_at:
                            loader.version = 1
                            client.swap("toy", "posit8_1")
                            swap_done.set()
                        dataset, fmt = _TRACE_MODELS[
                            int(gen.integers(len(_TRACE_MODELS)))
                        ]
                        rows = int(gen.integers(1, 9))
                        x = gen.normal(size=(rows, _FEATURES[dataset]))
                        start = time.perf_counter()
                        try:
                            body = client.predict(dataset, fmt, x)
                        except Exception as exc:  # any failure ends the soak red
                            with lock:
                                errors.append(f"worker {worker_id}: {exc!r}")
                            continue
                        elapsed_ms = (time.perf_counter() - start) * 1000.0
                        served_fmt = body.get("format", fmt)
                        version = (
                            1
                            if served_fmt == "posit8_1"
                            and dataset == "toy"
                            and swap_done.is_set()
                            else 0
                        )
                        oracle = oracles[(dataset, served_fmt, version)]
                        expected = oracle.network.predict(x).tolist()
                        with lock:
                            latencies_ms.append(elapsed_ms)
                            if body["predictions"] != expected:
                                # A prediction read during the swap window
                                # may match the *other* version — that is
                                # still bit-identical serving, just racing
                                # the observer.  Check the sibling before
                                # declaring a mismatch.
                                sibling = oracles.get(
                                    (dataset, served_fmt, 1 - version)
                                )
                                if (
                                    sibling is None
                                    or body["predictions"]
                                    != sibling.network.predict(x).tolist()
                                ):
                                    mismatches.append(
                                        f"worker {worker_id} request {i}: "
                                        f"{dataset}/{served_fmt} diverged"
                                    )

            threads = [
                threading.Thread(target=worker, args=(w,))
                for w in range(_WORKERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            stats = admin.stats()
            ab = admin.ab_status()["toy"]

    assert not errors, errors[:5]
    assert not mismatches, mismatches[:5]
    assert stats["errors"] == 0
    assert stats["rejected"] == 0
    assert stats["swaps"] == 1
    assert ab["canary"]["checks"] > 0
    assert ab["canary"]["divergences"] == 0
    total = _WORKERS * _REQUESTS_PER_WORKER
    assert len(latencies_ms) == total

    p50 = percentile(latencies_ms, 50)
    p99 = percentile(latencies_ms, 99)
    bound = _guard_bounds()["soak_p99_ms"]
    assert p99 <= bound, f"p99 {p99:.1f}ms exceeds the guard's bound {bound}ms"

    record = {
        "requests": total,
        "errors": len(errors) + stats["errors"],
        "rejected": stats["rejected"],
        "mismatches": len(mismatches),
        "p50_ms": round(p50, 3),
        "p99_ms": round(p99, 3),
        "swaps": stats["swaps"],
        "canary_checks": ab["canary"]["checks"],
        "canary_divergences": ab["canary"]["divergences"],
    }
    out = os.environ.get("REPRO_SOAK_JSON")
    if out:
        with open(out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    print("soak:", json.dumps(record))
