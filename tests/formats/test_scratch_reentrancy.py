"""Scratch-pool reentrancy and footprint: plans shared across threads stay
bit-exact, and one thread's pool holds one buffer per ``(tag, dtype)``.

The format registry memoizes backends and engines per format key, a
network caches its compiled plan, and the serving layer runs batches on
executor threads — so two forward passes through the *same* plan can be in
flight at once.  The scratch pool is per-thread (``network._scratch``);
these tests pin down that two interleaved plan runs never corrupt each
other's word/staging/GEMM buffers, which a process-global pool would allow,
and that a thread running many networks and batch sizes keeps only the
buffers of the last shapes it asked for.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import formats
from repro.formats import network


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
    monkeypatch.setattr(network, "_CHUNK_ELEMENTS", 256)
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
    """Each thread gets its own pool object."""
    main_pool = network._scratch()
    assert network._scratch() is main_pool  # stable within a thread

    seen = {}

    def grab():
        seen["other"] = network._scratch()

    t = threading.Thread(target=grab)
    t.start()
    t.join()
    assert seen["other"] is not main_pool


def test_pool_keeps_one_buffer_per_tag_and_dtype():
    """Two networks of different shapes at several batch sizes, one wide:
    the thread's pool ends with one buffer per ``(tag, dtype)``, each of the
    last shape asked for, and every forward stays bit-identical."""
    from repro.core import PositronNetwork

    rng = np.random.default_rng(11)
    nets = []
    for name, topology in (("posit8_1", (6, 8, 3)), ("posit8_2", (5, 4, 4, 2))):
        backend = formats.get(name)
        shapes = list(zip(topology, topology[1:]))
        w = [rng.normal(scale=4.0, size=(o, i)) for i, o in shapes]
        b = [rng.normal(scale=0.5, size=o) for _, o in shapes]
        nets.append(PositronNetwork.from_float_params(backend.fmt, w, b))
    assert any(row["wide"] for row in nets[1].network_kernel().explain())
    inputs = {
        (k, rows): net.engine.quantize(
            rng.normal(size=(rows, net.layers[0].in_features))
        )
        for k, net in enumerate(nets)
        for rows in (1, 7, 64)
    }
    expected = {key: nets[key[0]].forward_patterns(x) for key, x in inputs.items()}

    def run():
        # A fresh thread starts from an empty pool.
        pool = network._scratch()
        get, last = pool.get, {}

        def recording_get(shape, dtype, tag):
            last[tag, np.dtype(dtype)] = tuple(shape)
            return get(shape, dtype, tag)

        pool.get = recording_get
        for rows in (64, 1, 7, 64, 7):
            for k, net in enumerate(nets):
                got = net.forward_patterns(inputs[k, rows])
                assert np.array_equal(got, expected[k, rows])
                net.predict_patterns(inputs[k, rows])
        held = {key: (buf.shape, buf.dtype) for key, buf in pool._buffers.items()}
        return held, last

    with ThreadPoolExecutor(1) as executor:
        held, last = executor.submit(run).result()
    assert held == {key: (shape, key[1]) for key, shape in last.items()}


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
