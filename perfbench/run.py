"""The repo benchmark: one command runs one workload and checks its answers.

    python3 perfbench/run.py --workload online|bulk|sweep --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout.  ``online`` and ``bulk`` start
``python -m repro serve`` (defaults, nine Table II deployments warmed up)
as its own process and drive it from this process over at most ``nproc``
connections; ``sweep`` runs the Table II + Fig. 9 grid through the serial
runner in fresh processes.  Every answer is checked: served predictions
bit for bit against in-process ``build_served_model(...).network.predict``
(and a few rows per model against the scalar EMAC oracle), sweep results
against ``tests/golden/golden_values.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  End-to-end timings are scaled to a reference speed of the
host by probe bursts run between segments of the load (``speed.py``).
The traced run measures the workload untraced first, then again under the
span wrappers of ``layers.py``; the difference between the two passes is
the tracing overhead.  A per-run record (seed, code digest, versions, BLAS
threads, generator lateness, words paths, raw metrics, probe bursts, both
passes) is written to ``.bench_build/runs/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from launch import DATASETS, WIDTHS, vmhwm_mb
from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "golden_values.json"
BUILD = ROOT / ".bench_build"
STORE = BUILD / "cache"  # REPRO_CACHE_DIR holding the trained parents
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: The nine Table II deployments: best 8-bit config per dataset x family.
SERVED = (
    ("wbc", "posit8_1"), ("iris", "posit8_1"), ("mushroom", "posit8_1"),
    ("wbc", "float3_4"), ("iris", "float3_4"), ("mushroom", "float2_5"),
    ("wbc", "fixed8_4"), ("iris", "fixed8_4"), ("mushroom", "fixed8_3"),
)
SWEEP_STEPS = 153  # candidate configs over DATASETS x WIDTHS

PACED_RATE = 200.0  # online paced phase, requests/s (about 1/3 capacity)
PACED_SHARE = 0.6  # of --seconds; the rest is the saturated phase
BULK_ROWS = 1024
BODIES_PER_MODEL = {"online": 512, "bulk": 2}
BULK_BODIES = BODIES_PER_MODEL["bulk"] * len(SERVED)  # one bulk cycle
BULK_CONNECTIONS = 1  # a lone 1024-row request at a time: per-row cost
TAIL_PERCENTILE = 90  # p99 swung by 0.5x-2x between runs on a shared host
ORACLE_ROWS = 3  # rows per served model checked against forward_scalar
SERVERS = 5  # server processes per pass, each driven in turn
#: Set-up-only launches after each driven server: set-up time swings
#: between about 0.5 and 0.8 s from one launch to the next, so setup_s
#: is the median over these and the driven launches together.
SETUP_ONLY = 2
SEGMENT_S = 0.25  # serving load between two probe bursts (speed.py)
MIN_SWEEP_PASSES = 3
REQUEST_TIMEOUT_S = 30.0
SETUP_TIMEOUT_S = 120.0
EDP_REL_TOL = 1e-9
DEGRADATION_REL_TOL = 1e-12  # as tests/analysis/test_golden.py
#: CPUs this process may use, read before pin_to_one_cpu() narrows them:
#: the serving workloads open this many connections.
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def pin_to_one_cpu() -> int:
    """Keep this process and every child it starts on one CPU.

    On a 2-vCPU host, a server whose threads wake each other across
    CPUs settled per process into a fast or a slow mode (capacity about
    800 or 500 req/s in probes), so runs could not be compared; on one
    CPU the server, its threads and the client share no cross-CPU
    wake-ups.  In one pair of five-run probes, the sweep's spread between
    runs also fell, from about 0.1 to about 0.05 of the median.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def tail(values) -> tuple[float, int]:
    """The TAIL_PERCENTILE of ``values`` (the server's own nearest-rank
    percentile) and the number of samples beyond it."""
    from repro.serve.stats import percentile

    beyond = len(values) - math.ceil(TAIL_PERCENTILE / 100.0 * len(values))
    return percentile(values, TAIL_PERCENTILE), beyond


def quantiles(values) -> dict:
    """The usual latency quantiles, for the run record."""
    from repro.serve.stats import percentile

    return {f"p{q}": percentile(values, q) for q in (50, 90, 95, 99)} | {
        "max": max(values)}


def child_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(BUILD / "tmp")
    for name in ("REPRO_NO_CACHE", "REPRO_FAULTS", "REPRO_FAULT_TRACE"):
        env.pop(name, None)
    return env


def stop(proc: subprocess.Popen, sig=signal.SIGINT, grace_s=15.0) -> None:
    """Signal a child, wait for it, and kill it if it will not exit."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def read_line(proc: subprocess.Popen, prefix: str, timeout_s: float) -> str:
    """The first stdout line of ``proc`` starting with ``prefix``."""
    deadline = time.monotonic() + timeout_s
    stream = proc.stdout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no {prefix!r} line within {timeout_s}s")
        ready, _, _ = select.select([stream], [], [], remaining)
        if ready:
            line = stream.readline()
            if not line:
                raise RuntimeError(
                    f"child exited with {proc.wait()} before {prefix!r}"
                )
            if line.startswith(prefix):
                return line


# ----------------------------------------------------------------------
# Set-up shared by every workload
# ----------------------------------------------------------------------
def prepare_store() -> None:
    """Train (first run in a checkout) or find the three parent models."""
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_CACHE_DIR"] = str(STORE)
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    from repro.analysis.store import artifact_store
    from repro.analysis.sweep import EXPERIMENTS, model_key

    store = artifact_store()
    if all(store.has_model(model_key(EXPERIMENTS[d])) for d in DATASETS):
        return
    log("training the three parent models (first run in this checkout)")
    subprocess.run(
        [sys.executable, str(HERE / "launch.py"), "prepare"],
        env=child_env(STORE), check=True, timeout=850,
    )


def run_facts(seed: int, workload: str, trace: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


# ----------------------------------------------------------------------
# Serving workloads: inputs, client, server lifecycle
# ----------------------------------------------------------------------
class Item:
    """One pre-encoded request and the answer it must get."""

    __slots__ = ("request", "expected", "rows", "model")

    def __init__(self, model, body: bytes, expected: list[int], rows: int):
        self.model = model
        self.request = (
            b"POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        self.expected = expected
        self.rows = rows


def build_items(workload: str, seed: int, corrupt: bool):
    """Seeded request bodies plus expected answers, all made before timing.

    Returns ``(items, oracle_checks, oracle_failed)``; the items are in
    send order.  ``online``: 1 row per body, model and row drawn by seed
    (rows with replacement from the test split).  ``bulk``: 1024 rows per
    body, two bodies per model, cycled over the nine models in a seeded
    order.
    """
    import numpy as np
    from repro.analysis.sweep import trained_model
    from repro.serve.registry import build_served_model

    rng = np.random.default_rng(seed)
    per_model = BODIES_PER_MODEL[workload]
    rows_per_body = 1 if workload == "online" else BULK_ROWS
    bodies: dict[int, list] = {}
    oracle_checks = oracle_failed = 0
    for index, (dataset, fmt) in enumerate(SERVED):
        served = build_served_model(dataset, fmt)
        test_x = np.asarray(trained_model(dataset).dataset.test_x,
                            dtype=np.float64)
        picks = rng.integers(0, len(test_x), size=(per_model, rows_per_body))
        expected = served.network.predict(test_x[picks.ravel()]).reshape(
            picks.shape
        )
        bodies[index] = [
            (json.dumps({"dataset": dataset, "format": fmt,
                         "inputs": test_x[row_ids].tolist()}).encode(),
             [int(c) for c in classes])
            for row_ids, classes in zip(picks, expected)
        ]
        # The scalar EMAC oracle, on a few of the rows served: the same
        # output patterns as the fused plan, and the expected class.
        engine = served.network.engine
        for row, want in zip(picks.ravel()[:ORACLE_ROWS],
                             expected.ravel()[:ORACLE_ROWS]):
            patterns = served.quantize(test_x[row][None, :])
            scalar = served.network.forward_scalar(patterns[0])
            fused = served.network.forward_patterns(patterns)[0]
            label = int(np.argmax(engine.decode_values(np.asarray(scalar))))
            oracle_checks += 1
            if list(map(int, fused)) != list(map(int, scalar)) or label != want:
                oracle_failed += 1
                log(f"scalar oracle mismatch on {dataset}/{fmt} row {row}")

    if workload == "online":
        models = rng.integers(0, len(SERVED), size=per_model * len(SERVED))
        cursors = dict.fromkeys(range(len(SERVED)), 0)
        order = []
        for model in models:
            pool = bodies[int(model)]
            order.append((int(model), pool[cursors[model] % len(pool)]))
            cursors[model] += 1
    else:
        order = []
        for variant in range(per_model):
            for model in rng.permutation(len(SERVED)):
                order.append((int(model), bodies[int(model)][variant]))
    items = [Item(model, body, expected, len(expected))
             for model, (body, expected) in order]
    if corrupt:  # self-test: the first request's expected answer is wrong
        items[0].expected = [1 - c for c in items[0].expected]
    return items, oracle_checks, oracle_failed


class Connection:
    """A keep-alive HTTP/1.1 connection that sends pre-encoded requests."""

    def __init__(self, port: int):
        self.port = port
        self.sock = None
        self.buf = bytearray()

    def connect(self) -> None:
        self.sock = socket.create_connection(("127.0.0.1", self.port),
                                             timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf.clear()

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        if self.sock is None:
            self.connect()
        self.sock.sendall(request)
        buf = self.buf
        while (end := buf.find(b"\r\n\r\n")) < 0:
            self._fill()
        head = bytes(buf[:end]).decode("latin-1").split("\r\n")
        status = int(head[0].split()[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = end + 4 + length
        while len(buf) < total:
            self._fill()
        body = bytes(buf[end + 4:total])
        del buf[:total]
        return status, body

    def check(self, item: Item) -> bool:
        """Send one request; True when it got exactly the expected answer."""
        try:
            status, body = self.exchange(item.request)
            return (status == 200
                    and json.loads(body)["predictions"] == item.expected)
        except (OSError, ValueError, KeyError):
            self.close()
            return False


def run_threads(target, conns: list[Connection]) -> None:
    """``target(conn)`` on one thread per connection."""
    threads = [threading.Thread(target=target, args=(conn,), daemon=True)
               for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")


def segmented(meter: Speedometer, seconds: float, run, more=lambda: False):
    """``run(index, length_s)`` over ``seconds`` in segments of about
    SEGMENT_S, with a probe burst before the first segment and after each
    one, and further segments while ``more()``.

    Returns ``[(result, factor)]``: each segment's result and the factor
    that scales its timings to the reference speed (see ``speed.py``).
    """
    count = max(1, round(seconds / SEGMENT_S))
    length = seconds / count
    parts, before = [], meter.burst()
    while len(parts) < count or more():
        result = run(len(parts), length)
        after = meter.burst()
        parts.append((result, meter.factor(before, after)))
        before = after
    return parts


def closed_loop(conns: list[Connection], items: list[Item], start: int,
                seconds: float) -> dict:
    """Each connection sends its next request as soon as the previous one
    is answered, for ``seconds``."""
    counter = itertools.count(start)
    samples = []  # (latency_s, rows, ok, done_s)
    t0 = time.perf_counter()
    end = t0 + seconds

    def worker(conn):
        while time.perf_counter() < end:
            item = items[next(counter) % len(items)]
            sent = time.perf_counter()
            ok = conn.check(item)
            done = time.perf_counter()
            samples.append((done - sent, item.rows, ok, done - t0))

    run_threads(worker, conns)
    return {"samples": samples, "elapsed_s": time.perf_counter() - t0,
            "next": start + len(samples)}


def paced(conns: list[Connection], items: list[Item], start: int,
          offsets: list[float]) -> dict:
    """Open loop over one segment: request ``i`` is due ``offsets[i]``
    seconds after the segment starts, and its latency is timed from then.

    A connection that is free takes the next due request, sleeps until
    it is due and sends it; a request due while every connection is busy
    waits, and that wait counts in its latency.  The generator's own
    lateness (send time minus the later of due time and pick-up time) is
    reported apart.
    """
    count = len(offsets)
    latency = [0.0] * count
    lateness = [0.0] * count
    good = [False] * count
    counter = itertools.count()
    t0 = time.perf_counter() + 0.005

    def worker(conn):
        while (i := next(counter)) < count:
            due = t0 + offsets[i]
            picked = time.perf_counter()
            if due > picked:
                time.sleep(due - picked)
            sent = time.perf_counter()
            good[i] = conn.check(items[(start + i) % len(items)])
            latency[i] = time.perf_counter() - due
            lateness[i] = sent - max(due, picked)

    run_threads(worker, conns)
    return {"latency": latency, "lateness": lateness, "good": good,
            "next": start + count}


class Server:
    """``python -m repro serve`` (defaults; nine warmups) via launch.py."""

    def __init__(self, tag: str, spans: Path | None):
        self.record = BUILD / "tmp" / f"{tag}.record.json"
        self.spans = spans
        self.log = open(BUILD / "logs" / f"{tag}.log", "w")
        argv = [sys.executable, str(HERE / "launch.py"), "serve",
                str(self.record)]
        if spans is not None:
            argv += ["--trace", str(spans)]
        argv += ["--", "--port", "0"]
        for dataset, fmt in SERVED:
            argv += ["--warmup", f"{dataset}:{fmt}"]
        launched = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(STORE), stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        try:
            banner = read_line(self.proc, "repro.serve listening on",
                               SETUP_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - launched
        self.port = int(banner.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])

    def get(self, path: str) -> dict:
        conn = Connection(self.port)
        try:
            status, body = conn.exchange(
                f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode()
            )
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}")
        return json.loads(body)

    def stop(self) -> None:
        stop(self.proc)
        self.proc.stdout.close()
        self.log.close()


def launch_timed(meter: Speedometer, tag: str, spans: Path | None):
    """A started Server and its set-up time, scaled and raw: the launch is
    bracketed by probe bursts, the second while the server idles."""
    before = meter.burst()
    server = Server(tag, spans)
    try:
        after = meter.burst()
    except BaseException:
        server.stop()
        raise
    return server, (server.setup_s * meter.factor(before, after),
                    server.setup_s)


def drive(server: Server, workload: str, items: list[Item], seconds: float,
          seed: int, launch: int, meter: Speedometer) -> dict:
    """Warm one server up, then run the workload's phases against it.

    Latency samples are ``(scaled_ms, raw_ms, ok)``; throughput samples
    (online saturated segments, bulk cycles) are ``(scaled, raw)`` rows
    per second.
    """
    import numpy as np

    # The first request per model creates its batcher: checked, not timed.
    seen, warm = set(), []
    for item in items:
        if item.model not in seen:
            seen.add(item.model)
            warm.append(item)
    conns = [Connection(server.port)
             for _ in range(NPROC if workload == "online" else
                            BULK_CONNECTIONS)]
    try:
        failed = sum(not conns[0].check(item) for item in warm)
        for conn in conns:
            if conn.sock is None:
                conn.connect()
        result = {"attempted": len(warm), "failed": failed}
        if workload == "online":
            # Each server starts further along the request sequence.
            position = [launch * int(PACED_RATE * seconds)]
            duration = seconds * PACED_SHARE
            rng = np.random.default_rng((seed * SERVERS + launch) ^ 0x5EED)
            offsets = np.cumsum(rng.exponential(
                1.0 / PACED_RATE, size=int(PACED_RATE * duration * 2) + 16))
            offsets = offsets[offsets < duration]

            def paced_segment(index, length):
                low = index * length
                due = offsets[(offsets >= low) & (offsets < low + length)]
                phase = paced(conns, items, position[0], (due - low).tolist())
                position[0] = phase["next"]
                return phase

            def saturated_segment(_index, length):
                loop = closed_loop(conns, items, position[0], length)
                position[0] = loop["next"]
                return loop

            paced_parts = segmented(meter, duration, paced_segment)
            sat_parts = segmented(meter, seconds - duration,
                                  saturated_segment)
            result["latency"] = [(s * f * 1e3, s * 1e3, ok)
                                 for phase, f in paced_parts
                                 for s, ok in zip(phase["latency"],
                                                  phase["good"])]
            result["lateness_ms"] = [s * 1e3 for phase, _ in paced_parts
                                     for s in phase["lateness"]]
            # Saturated throughput is reported raw, the median over the
            # segments: the batcher's coalescing window is wall-clock time,
            # and over 20 runs this rate moved with only about the 0.3
            # power of the probe's time, so scaling it by the whole ratio
            # doubled its spread.
            rates = [sum(s[1] for s in loop["samples"] if s[2])
                     / loop["elapsed_s"] for loop, _ in sat_parts]
            result["throughput"] = [(rate, rate) for rate in rates]
            sat = [s for loop, _ in sat_parts for s in loop["samples"]]
            result["attempted"] += len(result["latency"]) + len(sat)
            result["failed"] += (sum(not ok for *_, ok in result["latency"])
                                 + sum(not s[2] for s in sat))
        else:
            loops = []

            def bulk_segment(_index, length):
                start = loops[-1]["next"] if loops else 0
                loops.append(closed_loop(conns, items, start, length))
                return loops[-1]

            parts = segmented(
                meter, seconds, bulk_segment,
                more=lambda: sum(len(loop["samples"]) for loop in loops)
                < BULK_BODIES,
            )
            samples = [(s * f * 1e3, s * 1e3, ok, rows)
                       for loop, f in parts
                       for s, rows, ok, _ in loop["samples"]]
            # Whole passes over the bodies only, so every model counts
            # the same number of times; a cycle's rate is its rows over
            # the time its requests took.
            whole = samples[:len(samples) - len(samples) % BULK_BODIES]
            result["latency"] = [s[:3] for s in whole]
            result["throughput"] = [
                tuple(sum(s[3] for s in cycle if s[2])
                      / (sum(s[k] for s in cycle) / 1e3) for k in (0, 1))
                for cycle in (whole[i:i + BULK_BODIES]
                              for i in range(0, len(whole), BULK_BODIES))
            ]
            result["attempted"] += len(samples)
            result["failed"] += sum(not s[2] for s in samples)
    finally:
        for conn in conns:
            conn.close()
    stats = server.get("/stats")
    result["server_failed"] = sum(
        stats[k] for k in ("errors", "rejected", "shed", "deadline_expired",
                           "batch_retries")
    )
    result["peak_rss_mb"] = vmhwm_mb(server.proc.pid)
    return result


def serving_pass(workload: str, items: list[Item], seconds: float, seed: int,
                 traced: bool, meter: Speedometer) -> list[dict]:
    """SERVERS server processes in turn, each launched, warmed up,
    driven for an equal share of ``seconds`` and stopped, and each
    followed by SETUP_ONLY launches that are stopped at the banner.

    Every process picks its own words paths by timing and lands in its
    own memory and scheduling state, so a run reports medians across
    processes rather than the luck of one.
    """
    tag = f"{workload}-{seed}-{'traced' if traced else 'plain'}"
    results = []
    for launch in range(SERVERS):
        spans = (BUILD / "tmp" / f"{tag}-{launch}.spans.json"
                 if traced else None)
        server, setup = launch_timed(meter, f"{tag}-{launch}", spans)
        try:
            result = drive(server, workload, items, seconds / SERVERS,
                           seed, launch, meter)
        finally:
            server.stop()
        result["setups_s"] = [setup]
        result["paths"] = json.loads(server.record.read_text())["paths"]
        for extra in range(SETUP_ONLY):
            name = f"{tag}-{launch}-setup{extra}"
            probe, setup = launch_timed(
                meter, name,
                BUILD / "tmp" / f"{name}.spans.json" if traced else None)
            probe.stop()
            result["setups_s"].append(setup)
        if traced:
            from layers import layer_metrics

            result["layers"] = layer_metrics(
                json.loads(spans.read_text()), result["paths"],
                result["server_failed"],
            )
        results.append(result)
    return results


def serving_metrics(result: dict, k: int) -> dict:
    """End-to-end metrics of one server's share of the load, from the
    scaled (``k=0``) or raw (``k=1``) samples; set-up time is not among
    them (it is the median over every launch of the run)."""
    latency = [s[k] for s in result["latency"]]
    return {
        "p50_ms": statistics.median(latency),
        "tail_ms": tail(latency)[0],
        "rows_per_s": statistics.median(t[k] for t in result["throughput"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def medians(rows: list[dict]) -> dict:
    """Key-wise median of equally keyed metric dicts."""
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0]}


# ----------------------------------------------------------------------
# Sweep workload
# ----------------------------------------------------------------------
def sweep_pass(index: int, widths, traced: bool, tag: str) -> dict:
    """One cold sweep in a fresh process over a store holding only the
    trained parents."""
    cache = BUILD / "sweep" / f"{tag}-{index}"
    shutil.rmtree(cache, ignore_errors=True)
    shutil.copytree(STORE / "store" / "models", cache / "store" / "models")
    record = cache / "record.json"
    spans = cache / "spans.json"
    argv = [sys.executable, str(HERE / "launch.py"), "sweep", str(record),
            "--widths", ",".join(map(str, widths))]
    if traced:
        argv += ["--trace", str(spans)]
    with open(BUILD / "logs" / f"{tag}-{index}.log", "w") as errors:
        launched = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(cache),
                                stdout=subprocess.PIPE, stderr=errors,
                                text=True)
        try:
            read_line(proc, "READY", SETUP_TIMEOUT_S)
            setup_s = time.perf_counter() - launched
            # Peak RSS must be read while the process lives: it reports
            # its own VmHWM into the record just before exiting.
            code = proc.wait(170)
        finally:
            stop(proc, signal.SIGKILL)
            proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"sweep pass exited with {code}")
    result = json.loads(record.read_text())
    result["setup_s"] = setup_s
    if traced:
        from layers import layer_metrics

        result["layers"] = layer_metrics(json.loads(spans.read_text()),
                                         result["paths"])
    shutil.rmtree(cache, ignore_errors=True)
    return result


def check_sweep(result: dict, golden: dict) -> set[str]:
    """Tasks whose results are off the goldens: Table II accuracies must
    match exactly, Fig. 9 degradation and EDP within relative tolerance."""
    bad = {f"{f['dataset']}-{f['width']}" for f in result["failures"]}
    expected = {f"{d}-{w}" for d in DATASETS for w in WIDTHS}
    bad |= expected - set(result["tasks"])
    rows = {row["dataset"]: row for row in result["table2"]}
    for want in golden["table2"]:
        row = rows.get(want["dataset"])
        if row is None or any(row.get(k) != v for k, v in want.items()):
            bad.add(f"{want['dataset']}-8")
    series = result["figure9"] or {}
    for family, points in golden["figure9"].items():
        got = {p["n"]: p for p in series.get(family, [])}
        for want in points:
            point = got.get(want["n"])
            if point is None or not (
                math.isclose(point["avg_degradation_pct"],
                             want["avg_degradation_pct"],
                             rel_tol=DEGRADATION_REL_TOL)
                and math.isclose(point["avg_edp"], want["avg_edp"],
                                 rel_tol=EDP_REL_TOL)
            ):
                bad |= {f"{d}-{want['n']}" for d in DATASETS}
    if len(result["steps_s"]) != SWEEP_STEPS:
        bad |= expected
    return bad


def sweep_run(seed: int, seconds: float, traced: bool, corrupt: bool,
              meter: Speedometer) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    golden = json.loads(GOLDEN.read_text())
    if corrupt:  # self-test: one golden accuracy is wrong
        golden["table2"][0]["posit"] += 0.5
    tag = f"sweep-{seed}-{'traced' if traced else 'plain'}"
    passes = []
    started = time.perf_counter()
    while (len(passes) < MIN_SWEEP_PASSES
           or time.perf_counter() - started < seconds):
        # The seed permutes the width order of each pass.  The dataset
        # order stays the runner's: the grid is dataset-major, so the
        # first dataset's steps pay every format's one-off table and
        # path-probe costs, and a seeded dataset order moved those costs
        # between datasets and the step-time median by up to 2x.
        widths = [WIDTHS[i] for i in rng.permutation(len(WIDTHS))]
        before = meter.burst()
        result = sweep_pass(len(passes), widths, traced, tag)
        # The pass probed the host once at READY and after every step:
        # each step is scaled by the probes on either side of it, the
        # set-up by this process's burst and the READY probe, and the
        # pass time by its steps' time-weighted factor.
        probes = result["probes_s"]
        result["setup_factor"] = meter.factor(before, probes[0])
        result["step_factors"] = [meter.factor(a, b)
                                  for a, b in zip(probes, probes[1:])]
        result["factor"] = (
            sum(s * f for s, f in zip(result["steps_s"],
                                      result["step_factors"]))
            / sum(result["steps_s"])
        )
        result["widths"] = widths
        result["bad_tasks"] = sorted(check_sweep(result, golden))
        passes.append(result)
    return {"passes": passes}


def middle_half(values: list[float]) -> list[float]:
    """The values between the first and the third quartile, sorted."""
    ordered = sorted(values)
    return ordered[len(ordered) // 4:len(ordered) - len(ordered) // 4]


def sweep_metrics(passes: list[dict], scaled: bool) -> dict:
    """End-to-end metrics over the passes, scaled to the reference speed
    (``scaled``) or raw.

    ``p50_ms`` stands in for the median step time: it is the mean of the
    middle half of the configs' median step times over the passes.  A
    config's median over the passes leaves the one-off table and
    path-probe costs, which the seeded width order moves between configs,
    to ``tail_ms``.  The median itself sits on a gap: 77 of the 153
    configs form a cluster whose slowest member is the median (near 6 ms;
    the next config takes near 11 ms), so it read that one config's noise
    and jumped with the host's speed (spread 0.16 over ten runs, against
    0.06 for the middle half's mean).
    """
    by_config: dict[str, list[float]] = {}
    steps_ms = []
    for p in passes:
        factors = p["step_factors"] if scaled else [1.0] * len(p["steps_s"])
        for network, s, f in zip(p["paths"], p["steps_s"], factors):
            by_config.setdefault(network["network"], []).append(s * f * 1e3)
            steps_ms.append(s * f * 1e3)
    return {
        "setup_s": statistics.median(
            p["setup_s"] * (p["setup_factor"] if scaled else 1.0)
            for p in passes),
        "p50_ms": statistics.mean(middle_half(
            [statistics.median(times) for times in by_config.values()])),
        "tail_ms": tail(steps_ms)[0],
        "rows_per_s": statistics.median(
            p["rows"] / (p["sweep_s"] * (p["factor"] if scaled else 1.0))
            for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def sweep_facts(passes: list[dict]) -> dict:
    steps_ms = [s * f * 1e3 for p in passes
                for s, f in zip(p["steps_s"], p["step_factors"])]
    return {
        "passes": len(passes),
        "configs_per_s": statistics.median(
            len(p["steps_s"]) / (p["sweep_s"] * p["factor"]) for p in passes
        ),
        "tail_beyond": tail(steps_ms)[1],
        "tail_samples": len(steps_ms),
        "latency_ms": quantiles(steps_ms),
        "passes_detail": [
            {"widths": p["widths"], "bad_tasks": p["bad_tasks"],
             "factor": p["factor"], "setup_factor": p["setup_factor"],
             "setup_s": p["setup_s"], "sweep_s": p["sweep_s"],
             "rows": p["rows"], "peak_rss_mb": p["peak_rss_mb"],
             "probes_s": p["probes_s"],
             "steps": [[n["network"], s] for n, s in zip(p["paths"],
                                                          p["steps_s"])]}
            for p in passes
        ],
    }


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, traced: bool,
            corrupt: bool, items=None) -> dict:
    """One pass of a workload: metrics (scaled to the reference speed),
    facts (with the raw metrics), attempted, failed."""
    meter = Speedometer(workload)
    if workload == "sweep":
        passes = sweep_run(seed, seconds, traced, corrupt, meter)["passes"]
        metrics = sweep_metrics(passes, scaled=True)
        facts = sweep_facts(passes)
        facts["raw"] = sweep_metrics(passes, scaled=False)
        facts["generator_lateness_ms"] = None
        attempted = len(DATASETS) * len(WIDTHS) * len(passes)
        failed = sum(len(p["bad_tasks"]) for p in passes)
        paths = [p["paths"] for p in passes]
        layers = medians([p["layers"] for p in passes]) if traced else None
    else:
        results = serving_pass(workload, items, seconds, seed, traced, meter)
        setups = [s for r in results for s in r["setups_s"]]
        metrics = medians([serving_metrics(r, 0) for r in results])
        metrics["setup_s"] = statistics.median(s[0] for s in setups)
        raw = medians([serving_metrics(r, 1) for r in results])
        raw["setup_s"] = statistics.median(s[1] for s in setups)
        beyond = [tail([s[0] for s in r["latency"]])[1] for r in results]
        facts = {
            "raw": raw,
            "setups_s": setups,
            "per_server": [serving_metrics(r, 0) for r in results],
            "server_failed": [r["server_failed"] for r in results],
            "tail_beyond": min(beyond),
            "tail_samples": [len(r["latency"]) for r in results],
            "generator_lateness_ms": None,
        }
        if workload == "online":
            lateness = [x for r in results for x in r["lateness_ms"]]
            facts["generator_lateness_ms"] = {
                "median": statistics.median(lateness), "max": max(lateness)}
            facts["capacity_rps"] = metrics["rows_per_s"]  # 1 row/request
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        paths = [r["paths"] for r in results]
        layers = medians([r["layers"] for r in results]) if traced else None
    facts["tail_percentile"] = TAIL_PERCENTILE
    facts["speed"] = {"parts": meter.parts, "reference_s": meter.reference_s,
                      "bursts": meter.bursts}
    return {"metrics": metrics, "facts": facts, "attempted": attempted,
            "failed": failed, "paths": paths, "layers": layers}


def validity(facts: dict) -> list[str]:
    """Reasons this run's figures cannot be trusted (empty when valid)."""
    reasons = []
    if facts["tail_beyond"] < 10:
        reasons.append(
            f"only {facts['tail_beyond']} samples beyond "
            f"p{facts['tail_percentile']}"
        )
    lateness = facts.get("generator_lateness_ms")
    if lateness is not None:
        bound = next(m["bound"] for m in SPEC["end_to_end"]
                     if m["name"] == "p50_ms")
        if lateness["median"] > bound * facts["raw"]["p50_ms"]:
            reasons.append(
                f"generator median lateness {lateness['median']:.3f} ms "
                f"exceeds {bound} x the raw p50"
            )
    return reasons


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-expected", action="store_true",
        help="self-test: make one expected answer wrong (must fail)",
    )
    ns = parser.parse_args()
    # On SIGTERM, exit through the finally blocks that stop the server or
    # sweep process, as on every other way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file() or not GOLDEN.is_file():
        log(f"no repro sources under {ROOT}: run from the repo root")
        return 2
    for sub in ("tmp", "logs", "runs", "sweep"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    prepare_store()

    record = run_facts(ns.seed, ns.workload, ns.trace)
    record["cpu"] = pin_to_one_cpu()
    items, attempted, failed = None, 0, 0
    if ns.workload != "sweep":
        items, attempted, failed = build_items(ns.workload, ns.seed,
                                               ns.corrupt_expected)
    plain = measure(ns.workload, ns.seed, ns.seconds, False,
                    ns.corrupt_expected, items)
    attempted += plain["attempted"]
    failed += plain["failed"]
    record["untraced"] = plain
    record["invalid"] = validity(plain["facts"])
    metrics = plain["metrics"]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    if ns.trace:
        traced = measure(ns.workload, ns.seed, ns.seconds, True,
                         ns.corrupt_expected, items)
        attempted += traced["attempted"]
        failed += traced["failed"]
        record["traced"] = traced
        record["tracing_overhead"] = {
            name: traced["metrics"][name] / value - 1.0
            for name, value in plain["metrics"].items()
        }
        metrics = traced["layers"]
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name, share in record["tracing_overhead"].items():
            log(f"tracing overhead {name}: {share:+.1%}")
    record.update(attempted=attempted, failed=failed,
                  failed_share=failed / max(1, attempted))
    out = BUILD / "runs" / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for reason in record["invalid"]:
        log(f"INVALID RUN: {reason}")
    log(f"attempted {attempted}, failed {failed} "
        f"(failed_share {record['failed_share']:.6f}); record: {out}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
