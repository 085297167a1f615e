#!/usr/bin/env python
"""Worker-pool scaling: closed-loop load vs ``--workers-procs N``.

Drives the multi-process serving tier (``repro.serve.pool``) with a raw
keep-alive HTTP load generator — pre-encoded request bytes, per-thread
sockets — so the client side stays cheap and the measured ceiling is the
*server's*: JSON parsing, quantization, and the exact-MAC kernels, which
one asyncio process serializes on the GIL no matter how well it batches.
For each worker count it records throughput and p50/p99 latency, checks
a parsed response against direct in-process ``predict`` (scaling may
never change bits), and derives scaling efficiency vs the single-worker
baseline into ``BENCH_serve_scaling.json`` for ``guard.py``'s
``scaling`` gate (floor: >= 2x throughput at >= 4 workers, at comparable
p99).

Run directly (CI slow job)::

    PYTHONPATH=src python benchmarks/bench_serve_scaling.py \
        --out BENCH_serve_scaling.json

On a single-core host it records ``{"skipped": ...}`` and the guard
passes vacuously.  This module is import-safe for pytest's bench
collection: everything happens under ``main()``.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np

DATASET = "scaling"
FORMAT = "posit8_1"
TOPOLOGY = (16, 32, 24, 10)
ROWS = 16  # rows per request: enough server-side work to measure


def _bench_loader(dataset: str):
    """Deterministic synthetic model, rebuilt identically in every worker
    process (resolved via loader spec ``benchmarks.bench_serve_scaling:
    _bench_loader``) and in this process for the bit-identity check."""
    from repro.nn.model import MLP

    if dataset != DATASET:
        raise KeyError(f"unknown dataset '{dataset}'")
    return SimpleNamespace(
        model=MLP(TOPOLOGY, np.random.default_rng(19)),
        dataset=SimpleNamespace(
            class_names=tuple(f"c{i}" for i in range(TOPOLOGY[-1]))
        ),
        float32_accuracy=0.9,
    )


def _request_bytes(x: np.ndarray) -> bytes:
    payload = json.dumps({
        "dataset": DATASET, "format": FORMAT, "inputs": x.tolist(),
    }).encode()
    return (
        b"POST /predict HTTP/1.1\r\n"
        b"Host: bench\r\n"
        + f"Content-Length: {len(payload)}\r\n".encode()
        + b"Connection: keep-alive\r\n\r\n"
        + payload
    )


def _read_response(stream) -> bytes:
    head = b""
    while b"\r\n\r\n" not in head:
        chunk = stream.readline()
        if not chunk:
            raise ConnectionError("server closed mid-response")
        head += chunk
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length"):
            length = int(line.split(b":")[1])
    return stream.read(length)


def _drive(port, request, expected, duration_s, threads):
    """Closed-loop load; returns (latencies_ms, mismatches, errors)."""
    stop_at = time.monotonic() + duration_s
    mismatches = []
    errors = []

    def worker(out):
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            stream = sock.makefile("rb")
        except OSError as exc:
            errors.append(repr(exc))
            return
        checked = False
        try:
            while time.monotonic() < stop_at:
                start = time.perf_counter()
                sock.sendall(request)
                body = _read_response(stream)
                out.append((time.perf_counter() - start) * 1000.0)
                if not checked:
                    # One full decode per thread: the bits must match
                    # direct predict no matter which worker answered.
                    got = json.loads(body)["predictions"]
                    if got != expected:
                        mismatches.append(got)
                    checked = True
        except (OSError, ConnectionError, ValueError) as exc:
            errors.append(repr(exc))
        finally:
            stream.close()
            sock.close()

    buckets = [[] for _ in range(threads)]
    pool = [
        threading.Thread(target=worker, args=(bucket,))
        for bucket in buckets
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    latencies = [ms for bucket in buckets for ms in bucket]
    return latencies, mismatches, errors


def _bench_one(workers: int, duration_s: float, threads: int) -> dict:
    from repro.serve import start_pool_in_thread
    from repro.serve.registry import build_served_model

    direct = build_served_model(DATASET, FORMAT, _bench_loader)
    rng = np.random.default_rng(5)
    x = rng.normal(scale=1.2, size=(ROWS, TOPOLOGY[0]))
    request = _request_bytes(x)
    expected = direct.network.predict(x).tolist()

    handle = start_pool_in_thread(
        port=0, workers=workers,
        loader_spec="benchmarks.bench_serve_scaling:_bench_loader",
        server_kwargs={"max_delay_ms": 1.0, "max_batch": 32},
        seed=workers,
    )
    try:
        port = handle.pool.port
        # Warm every worker's registry/batcher before measuring.
        warm_until = time.monotonic() + 1.0
        _drive(port, request, expected, 1.0, min(threads, 4))
        while time.monotonic() < warm_until:
            time.sleep(0.01)
        start = time.perf_counter()
        latencies, mismatches, errors = _drive(
            port, request, expected, duration_s, threads
        )
        elapsed = time.perf_counter() - start
    finally:
        handle.stop()
    if not latencies:
        raise RuntimeError(f"no completed requests at workers={workers}: "
                           f"{errors[:3]}")
    arr = np.asarray(latencies)
    return {
        "workers": workers,
        "requests": len(latencies),
        "rows_per_request": ROWS,
        "duration_s": round(elapsed, 3),
        "throughput_rps": round(len(latencies) / elapsed, 2),
        "p50_ms": round(float(np.percentile(arr, 50)), 3),
        "p99_ms": round(float(np.percentile(arr, 99)), 3),
        "mismatches": len(mismatches),
        "client_errors": len(errors),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_serve_scaling.json")
    parser.add_argument("--duration-s", type=float, default=5.0)
    parser.add_argument("--threads", type=int, default=16,
                        help="concurrent closed-loop client connections")
    parser.add_argument(
        "--workers-list", default=None,
        help="comma-separated worker counts (default: 1,2,4 capped to "
             "the core count)",
    )
    args = parser.parse_args(argv)

    # Spawned workers inherit this process's sys.path; when run as a
    # script, sys.path[0] is benchmarks/, so pin the repo root too or
    # the "benchmarks.bench_serve_scaling:_bench_loader" spec cannot
    # resolve inside the children.
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if repo_root not in sys.path:
        sys.path.insert(0, repo_root)

    cores = os.cpu_count() or 1
    record: dict = {"cpu_count": cores, "threads": args.threads}
    if cores < 2 and not os.environ.get("REPRO_POOL_TESTS"):
        record["skipped"] = (
            f"scaling bench needs >= 2 cores, found {cores} "
            "(set REPRO_POOL_TESTS=1 to force)"
        )
        print(json.dumps(record, indent=2))
    else:
        if args.workers_list:
            counts = [int(c) for c in args.workers_list.split(",")]
        else:
            counts = sorted({1, 2, min(4, max(2, cores))})
        runs = []
        for workers in counts:
            run = _bench_one(workers, args.duration_s, args.threads)
            runs.append(run)
            print(
                f"workers={workers}: {run['throughput_rps']} req/s, "
                f"p50 {run['p50_ms']}ms, p99 {run['p99_ms']}ms, "
                f"{run['mismatches']} mismatches"
            )
        record["runs"] = runs
        base = next((r for r in runs if r["workers"] == 1), None)
        best = max(runs, key=lambda r: r["throughput_rps"])
        if base is not None and best is not base:
            speedup = best["throughput_rps"] / base["throughput_rps"]
            record["scaling"] = {
                "baseline_workers": 1,
                "best_workers": best["workers"],
                "speedup": round(speedup, 3),
                "efficiency": round(speedup / best["workers"], 3),
            }
            print(
                f"speedup {speedup:.2f}x at {best['workers']} workers "
                f"(efficiency {record['scaling']['efficiency']:.2f})"
            )
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
