"""Microbenchmarks — exact-MAC throughput of the engine and scalar cores.

Not a paper figure; documents the cost of bit-exact emulation and the
speedup of the vectorized engine over the scalar soft-core models (what
makes the Table II sweeps tractable).

The ``network-inference`` group measures a full mushroom-sized posit8
network forward on the PR 1 engine path (``dot_reference`` in
``pr1_reference.py``); the ``network-fused`` group measures the same
forward through the fused whole-network plan
(``PositronNetwork.network_kernel()``), the one production path, asserting
bit-identity to ``dot_reference`` and the scalar EMAC oracle in-run.
``guard.py engine=BENCH_engine.json`` fails CI when the fused-over-PR 1
speedup, measured in one run, drops below its bound.
"""

import numpy as np
import pytest
from pr1_reference import reference_for

from repro import formats
from repro.core import PositronNetwork
from repro.posit import Posit, Quire
from repro.posit.format import standard_format

FORMAT_NAMES = ("posit8_1", "float4_3", "fixed8_4")

#: The paper's largest topology (mushroom) at a bench-sized batch.
NETWORK_TOPOLOGY = (117, 24, 12, 2)
NETWORK_BATCH = 512


def _layer_patterns(backend, rng, batch=64, fan_in=64, fan_out=16):
    hi = 1 << backend.width
    W = rng.integers(0, hi, size=(fan_out, fan_in), dtype=np.uint32)
    X = rng.integers(0, hi, size=(batch, fan_in), dtype=np.uint32)
    tables = backend.limb_tables()
    if tables is not None:
        W[tables.invalid[W]] = 0
        X[tables.invalid[X]] = 0
    return W, X


@pytest.mark.benchmark(group="throughput-vector")
@pytest.mark.parametrize("name", FORMAT_NAMES)
def test_vector_engine_throughput(benchmark, name):
    """Exact MACs/second of the vectorized engine (64x64 -> 16 layer)."""
    backend = formats.get(name)
    engine = backend.engine()
    rng = np.random.default_rng(1)
    W, X = _layer_patterns(backend, rng)
    result = benchmark(engine.dot, W, X)
    assert result.shape == (64, 16)
    macs = 64 * 64 * 16
    benchmark.extra_info["exact_macs_per_round"] = macs


@pytest.mark.benchmark(group="throughput-scalar")
@pytest.mark.parametrize("name", FORMAT_NAMES)
def test_scalar_emac_throughput(benchmark, name):
    """Reference scalar EMAC: one 64-MAC dot product."""
    backend = formats.get(name)
    emac = backend.make_scalar_emac()
    rng = np.random.default_rng(2)
    W, X = _layer_patterns(backend, rng, batch=1, fan_in=64, fan_out=1)
    ws = [int(w) for w in W[0]]
    xs = [int(x) for x in X[0]]
    benchmark(emac.dot, ws, xs)


@pytest.mark.benchmark(group="quire-roundoff")
def test_roundoff_seed_baseline(benchmark, quire_roundoff_case, roundoff_baseline):
    """Seed path: per-quire big-int combine + scalar encode (the old loop)."""
    backend, limbs = quire_roundoff_case
    result = benchmark(roundoff_baseline, backend, limbs)
    assert len(result) == limbs.shape[0] * limbs.shape[1]


@pytest.mark.benchmark(group="quire-roundoff")
def test_roundoff_vectorized(benchmark, quire_roundoff_case, roundoff_baseline):
    """New path: one batched encode_from_quire_batch call, bit-identical."""
    backend, limbs = quire_roundoff_case
    result = benchmark(backend.encode_from_quire_batch, limbs)
    assert [int(p) for p in result.ravel()] == roundoff_baseline(backend, limbs)


@pytest.fixture(scope="module")
def posit8_network():
    """(network, input patterns) of a seeded mushroom-sized posit8 model."""
    backend = formats.get("posit8_1")
    rng = np.random.default_rng(3)
    weights = [
        rng.normal(scale=0.8, size=(o, i))
        for i, o in zip(NETWORK_TOPOLOGY, NETWORK_TOPOLOGY[1:])
    ]
    biases = [rng.normal(scale=0.2, size=o) for o in NETWORK_TOPOLOGY[1:]]
    net = PositronNetwork.from_float_params(backend.fmt, weights, biases)
    X = net.engine.quantize(rng.normal(size=(NETWORK_BATCH, NETWORK_TOPOLOGY[0])))
    return net, X


def _pr1_forward(net, X):
    """The PR 1 engine path: per-layer dot_reference + relu."""
    reference = reference_for(net.engine.backend)
    out = X
    for layer in net.layers:
        out = reference.dot_reference(layer.weights, out, layer.bias)
        if layer.activation == "relu":
            out = net.engine.relu(out)
    return out


@pytest.mark.benchmark(group="network-fused")
def test_network_inference_fused(benchmark, posit8_network):
    """Full-network exact inference through the fused whole-network plan.

    Bit-identity is asserted in-run against the PR 1 ``dot_reference``
    path and (on a spot-checked slice) the scalar EMAC oracle, so the
    speedup the regression guard measures can never come from diverging
    numerics.
    """
    net, X = posit8_network
    plan = net.network_kernel()
    result = benchmark(plan.forward, X)
    assert result.shape == (NETWORK_BATCH, NETWORK_TOPOLOGY[-1])
    assert np.array_equal(result, _pr1_forward(net, X))
    for row in (0, NETWORK_BATCH // 2, NETWORK_BATCH - 1):
        assert list(result[row]) == net.forward_scalar([int(p) for p in X[row]])
    # The fused rank-argmax readout must agree with pattern-space argmax.
    ranks = formats.get("posit8_1").rank_table()
    expected = np.argmax(ranks[result.astype(np.int64)], axis=1)
    assert np.array_equal(plan.predict(X), expected)
    benchmark.extra_info["paths"] = [d["path"] for d in plan.explain()]
    macs = NETWORK_BATCH * sum(
        i * o for i, o in zip(NETWORK_TOPOLOGY, NETWORK_TOPOLOGY[1:])
    )
    benchmark.extra_info["exact_macs_per_round"] = macs


@pytest.mark.benchmark(group="network-inference")
def test_network_inference_pr1_baseline(benchmark, posit8_network):
    """The same forward on the PR 1 engine path (the baseline the
    regression guard compares the fused plan against)."""
    net, X = posit8_network
    result = benchmark(_pr1_forward, net, X)
    assert result.shape == (NETWORK_BATCH, NETWORK_TOPOLOGY[-1])


@pytest.mark.benchmark(group="throughput-scalar")
def test_posit_scalar_arithmetic(benchmark):
    """Correctly rounded scalar posit multiply-add chain."""
    fmt = standard_format(8, 1)
    values = [Posit.from_value(fmt, v) for v in (0.5, 1.25, -2.0, 0.125)]

    def chain():
        acc = Posit.zero(fmt)
        for a in values:
            for b in values:
                acc = acc + a * b
        return acc

    benchmark(chain)


@pytest.mark.benchmark(group="throughput-scalar")
def test_quire_fused_dot(benchmark):
    """Quire fused dot product (single rounding) throughput."""
    fmt = standard_format(8, 1)
    rng = np.random.default_rng(3)
    ws = [Posit.from_bits(fmt, int(b) if int(b) != fmt.nar_pattern else 0)
          for b in rng.integers(0, 256, size=64)]
    xs = [Posit.from_bits(fmt, int(b) if int(b) != fmt.nar_pattern else 0)
          for b in rng.integers(0, 256, size=64)]

    def fused():
        return Quire(fmt).dot(ws, xs)

    benchmark(fused)
