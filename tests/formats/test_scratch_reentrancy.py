"""Scratch-pool reentrancy: plans shared across threads stay bit-exact.

The format registry memoizes backends and engines per format key, a
network caches its compiled plan, and the serving layer runs batches on
executor threads — so two forward passes through the *same* plan can be in
flight at once.  The scratch pool is per-thread (``kernels._scratch``);
these tests pin down that two interleaved plan runs never corrupt each
other's word/staging/GEMM buffers, which a process-global pool would allow.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import formats
from repro.formats import kernels


def _layer_case(backend, rng, out_dim=7, in_dim=11, batch=64):
    tables = backend.limb_tables()
    valid = np.flatnonzero(~tables.invalid).astype(np.uint32)
    weights = rng.choice(valid, size=(out_dim, in_dim))
    bias = rng.choice(valid, size=out_dim)
    acts = rng.choice(valid, size=(batch, in_dim))
    return weights, bias, acts


def _wide_case(rng):
    """A posit<8,2> plan past 62 quire bits, with maxpos activation rows
    whose quires leave the round table for the encoder."""
    backend = formats.get("posit8_2")
    weights, bias, acts = _layer_case(backend, rng)
    acts[::4] = backend.fmt.maxpos_pattern
    plan = backend.compile_network([(weights, bias, "identity")])
    assert plan.explain()[0]["wide"]
    return plan, acts


@pytest.mark.parametrize("names", [("posit8_1", "posit8_1"), ("posit8_1", "float4_3")])
def test_interleaved_kernel_runs_are_bit_identical(names, rng, monkeypatch):
    """Two threads hammering (one shared or two) plans match serial runs.

    Each name gets its format's default plan and a default wide plan, whose
    kept plane sums and bound come from the pool too; equal names share
    every plan object between the threads."""
    # Tiny chunk cap: many chunks per call widens the window in which a
    # shared pool would hand both threads the same buffer.
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 256)
    cases = {}
    for name in dict.fromkeys(names):
        backend = formats.get(name)
        weights, bias, acts = _layer_case(backend, rng)
        runs = [
            (backend.compile_network([(weights, bias, "identity")]), acts),
            _wide_case(rng),
        ]
        cases[name] = [(plan, x, plan.forward(x).copy()) for plan, x in runs]

    barrier = threading.Barrier(len(names))
    failures: list[str] = []

    def worker(runs, tag):
        barrier.wait()
        for _ in range(25):
            for plan, acts, expected in runs:
                if not np.array_equal(plan.forward(acts), expected):
                    failures.append(f"{tag}: interleaved run diverged")
                    return

    threads = [
        threading.Thread(target=worker, args=(cases[name], name))
        for name in names
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures, failures


def test_scratch_pool_is_per_thread():
    """Each thread gets its own pool object; clear_scratch is thread-local."""
    main_pool = kernels._scratch()
    assert kernels._scratch() is main_pool  # stable within a thread

    seen = {}

    def grab():
        seen["other"] = kernels._scratch()

    t = threading.Thread(target=grab)
    t.start()
    t.join()
    assert seen["other"] is not main_pool


def test_concurrent_network_forward_matches_serial(rng):
    """Full-network forwards on two threads reuse one memoized engine safely."""
    from repro.core import PositronNetwork

    backend = formats.get("posit8_1")
    engine = backend.engine()  # the shared, memoized instance
    w = [rng.normal(scale=0.6, size=(8, 6)), rng.normal(scale=0.4, size=(3, 8))]
    b = [rng.normal(scale=0.1, size=8), np.zeros(3)]
    net = PositronNetwork.from_float_params(backend.fmt, w, b)
    assert net.engine is engine

    x = rng.normal(size=(96, 6))
    patterns = engine.quantize(x)
    expected = net.forward_patterns(patterns).copy()

    barrier = threading.Barrier(2)
    results = [None, None]

    def run(slot):
        barrier.wait()
        outs = [net.forward_patterns(patterns) for _ in range(25)]
        results[slot] = outs

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for outs in results:
        for got in outs:
            np.testing.assert_array_equal(got, expected)
