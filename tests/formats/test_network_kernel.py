"""Bit-identity of the fused network plans against the scalar oracle.

The fused :class:`~repro.formats.network.NetworkKernel` is the one
production path for exact dot products.  One differential property suite
pins it to the scalar EMACs (``forward_scalar`` for rne; the EMAC's exact
accumulation rounded by ``truncate_scalar`` for rtz, with pattern ReLU
between layers), bit for bit, over random 1-3-layer topologies, every
format of ``FORMATS``, both rounding modes, maxpos-heavy weights that overflow
the int64 quire, and every words path forced on.  Around it: the
oracle-built round table against ``encode_from_quire_words`` over the whole
single-word window, its O(1) bucket index against plain ``searchsorted``,
the pattern-space ReLU composition against ``engine.relu`` on every valid
pattern, shape edges per forced path, and input rejection.  The default
plan's path per layer is a fixed rule, the same in every process.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import formats
from repro.core import engine_for
from repro.core.positron import PositronNetwork
from repro.fixedpoint import fixed_format
from repro.floatp import float_format
from repro.formats.network import (
    NETWORK_PATHS,
    NetworkKernel,
    aligned_value_table,
    round_table,
)
from repro.posit.format import standard_format

FORMATS = [
    standard_format(6, 0),
    standard_format(7, 2),
    standard_format(8, 0),
    standard_format(8, 1),
    standard_format(8, 2),
    float_format(4, 3),
    float_format(3, 4),
    float_format(2, 5),
    fixed_format(8, 4),
    fixed_format(5, 3),
]

TABLE_FORMATS = [
    f for f in FORMATS if formats.backend_for(f).limb_tables() is not None
]


def scrub(fmt, patterns):
    backend = formats.backend_for(fmt)
    p = np.asarray(patterns, dtype=np.uint32) % (1 << fmt.n)
    tables = backend.limb_tables()
    if tables is not None:
        p[tables.invalid[p]] = 0
    return p


@pytest.fixture(params=range(len(FORMATS)), ids=lambda i: str(FORMATS[i]))
def any_fmt(request):
    return FORMATS[request.param]


@pytest.fixture(
    params=range(len(TABLE_FORMATS)), ids=lambda i: str(TABLE_FORMATS[i])
)
def table_fmt(request):
    return TABLE_FORMATS[request.param]


def random_network(fmt, rng, topo, batch, rounding_mode="rne", maxpos=False):
    """(layer triples, input patterns, PositronNetwork) on random params.

    ``maxpos`` sets about a fifth of the weights to the format's largest
    value, which pushes wide-range formats past the int64 quire bound.
    """
    hi = 1 << fmt.n
    largest = formats.backend_for(fmt).quantize_batch(np.asarray([1e30]))[0]
    weights, biases = [], []
    for i, o in zip(topo, topo[1:]):
        W = scrub(fmt, rng.integers(0, hi, size=(o, i), dtype=np.uint32))
        if maxpos:
            W[rng.random(size=W.shape) < 0.2] = largest
        weights.append(W)
        biases.append(
            scrub(fmt, rng.integers(0, hi, size=(o,), dtype=np.uint32))
        )
    net = PositronNetwork.from_arrays(
        fmt, weights, biases, rounding_mode=rounding_mode
    )
    layers = [(l.weights, l.bias, l.activation) for l in net.layers]
    X = scrub(fmt, rng.integers(0, hi, size=(batch, topo[0]), dtype=np.uint32))
    return layers, X, net


def maxpos_layer(backend, in_dim, out_dim):
    """A ReLU layer whose every weight is maxpos (no bias)."""
    maxpos = backend.quantize_batch(np.asarray([1e30]))[0]
    return np.full((out_dim, in_dim), maxpos, dtype=np.uint32), None, "relu"


def narrow_layer(backend, rng, in_dim, out_dim):
    """A ReLU layer of weights and biases quantized from [-1, 1]."""
    W = backend.quantize_batch(rng.uniform(-1, 1, size=(out_dim, in_dim)))
    B = backend.quantize_batch(rng.uniform(-1, 1, size=out_dim))
    return W, B, "relu"


#: The nine served Table II deployments: each dataset's best 8-bit config
#: per format family.
TABLE2_DEPLOYMENTS = (
    ("wbc", "posit8_1"), ("iris", "posit8_1"), ("mushroom", "posit8_1"),
    ("wbc", "float3_4"), ("iris", "float3_4"), ("mushroom", "float2_5"),
    ("wbc", "fixed8_4"), ("iris", "fixed8_4"), ("mushroom", "fixed8_3"),
)


def deployment_plans():
    """``explain()`` of every Table II deployment's served plan."""
    from repro.serve.registry import build_served_model

    return [
        build_served_model(dataset, fmt).network.network_kernel().explain()
        for dataset, fmt in TABLE2_DEPLOYMENTS
    ]


def forced_plans(backend, layers, rounding_mode):
    """Every constructible (path, plan) plus the unforced default plan."""
    plans = [(None, backend.compile_network(layers, rounding_mode=rounding_mode))]
    for path in NETWORK_PATHS:
        try:
            plans.append(
                (
                    path,
                    NetworkKernel(
                        backend, layers, rounding_mode=rounding_mode,
                        force_path=path,
                    ),
                )
            )
        except ValueError:
            continue  # path ineligible for this format/shape
    return plans


class TestRoundTable:
    def test_matches_encoder_over_window(self, table_fmt):
        """Lookup == encode_from_quire_words across the int64 word window."""
        backend = formats.backend_for(table_fmt)
        rng = np.random.default_rng(11)
        cap = np.int64(1) << 62
        for mode in formats.ROUNDING_MODES:
            rt = round_table(backend, mode)
            words = np.concatenate(
                [
                    np.arange(-4096, 4096, dtype=np.int64),
                    rng.integers(-cap, cap, size=50_000, dtype=np.int64),
                    rt.boundaries,
                    rt.boundaries - 1,
                    rt.boundaries + 1,
                    np.array([-cap, cap, -1, 0, 1], dtype=np.int64),
                ]
            )
            expected = backend.encode_from_quire_words(words, mode=mode)
            assert np.array_equal(rt.lookup(words), expected.astype(np.int64))

    def test_bucket_index_matches_searchsorted(self, table_fmt):
        """The O(1) bucket lookup == binary search on the same boundaries."""
        backend = formats.backend_for(table_fmt)
        rng = np.random.default_rng(12)
        cap = np.int64(1) << 62
        for mode in formats.ROUNDING_MODES:
            rt = round_table(backend, mode)
            assert rt._m is not None  # built-ins always get the fast grid
            words = np.concatenate(
                [
                    rng.integers(-cap, cap, size=50_000, dtype=np.int64),
                    rt.boundaries,
                    rt.boundaries - 1,
                ]
            )
            assert np.array_equal(
                rt.indices(words),
                np.searchsorted(rt.boundaries, words, side="right"),
            )

    def test_exact_tables_are_exact(self, table_fmt):
        """Aligned values agree with the decode tables."""
        backend = formats.backend_for(table_fmt)
        t = backend.limb_tables()
        valid = np.flatnonzero(~t.invalid)
        avals = aligned_value_table(backend)
        if avals is not None:
            assert np.array_equal(
                avals[valid], t.signed_sig[valid] << t.shift[valid]
            )
            dec = backend.decode_batch(valid.astype(np.uint32))
            assert np.array_equal(np.sign(avals[valid]), np.sign(dec))


class TestFusedBitIdentity:
    @pytest.mark.parametrize("fmt", FORMATS, ids=str)
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        topo=st.lists(st.integers(1, 14), min_size=2, max_size=4),
        batch=st.integers(0, 6),
        mode=st.sampled_from(formats.ROUNDING_MODES),
        maxpos=st.booleans(),
    )
    def test_plans_match_scalar_oracle(
        self, scalar_forward, fmt, seed, topo, batch, mode, maxpos
    ):
        """Every plan == the scalar oracle: each format, mode and path.

        The default plan and every path ``force_path`` can build run the
        same random network; outputs and rank-argmax readouts must equal
        the scalar EMACs'."""
        backend = formats.backend_for(fmt)
        rng = np.random.default_rng(seed)
        layers, X, net = random_network(
            fmt, rng, tuple(topo), batch, rounding_mode=mode, maxpos=maxpos
        )
        expected = scalar_forward(net, X)
        ranks = backend.rank_table()
        expected_pred = np.argmax(ranks[expected.astype(np.int64)], axis=1)
        for path, plan in forced_plans(backend, layers, mode):
            out = plan.forward(X)
            assert out.shape == (batch, topo[-1]), path
            assert np.array_equal(out, expected), (path, mode)
            pred = plan.predict(X)
            assert pred.shape == (batch,), path
            assert np.array_equal(pred, expected_pred), (path, mode)

    @settings(max_examples=10, deadline=None)
    @given(
        fmt_idx=st.integers(0, len(FORMATS) - 1),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_fused_equals_forward_scalar(self, fmt_idx, seed):
        """Fused plan == one scalar EMAC per neuron, per forced path.

        A fixed (5, 3, 2) topology under ``forward_scalar`` itself, the
        rne oracle; both modes and random topologies ride
        :meth:`test_plans_match_scalar_oracle` above.
        """
        fmt = FORMATS[fmt_idx]
        backend = formats.backend_for(fmt)
        rng = np.random.default_rng(seed)
        layers, X, net = random_network(fmt, rng, (5, 3, 2), 2)
        expected = np.asarray(
            [net.forward_scalar([int(p) for p in row]) for row in X],
            dtype=np.uint32,
        )
        for path, plan in forced_plans(backend, layers, "rne"):
            assert np.array_equal(plan.forward(X), expected), path

    def test_relu_table_matches_engine_on_every_valid_pattern(
        self, any_fmt, scalar_dot
    ):
        """Pattern-space ReLU composition == engine.relu, all valid patterns.

        Exercised through a 1x1 identity-weight layer whose quire holds the
        input exactly, so the fused epilogue's relu-composed slot table is
        probed at every valid activation pattern.
        """
        backend = formats.backend_for(any_fmt)
        engine = engine_for(any_fmt)
        hi = 1 << any_fmt.n
        valid = np.arange(hi, dtype=np.uint32)
        tables = backend.limb_tables()
        if tables is not None:
            valid = valid[~tables.invalid[valid]]
        one = backend.quantize_batch(np.asarray([1.0]))[0]
        zero = backend.quantize_batch(np.asarray([0.0]))[0]
        W = np.full((1, 1), one, dtype=np.uint32)
        B = np.full(1, zero, dtype=np.uint32)
        X = valid.reshape(-1, 1)
        expected = engine.relu(scalar_dot(any_fmt, W, X, B))
        for path, plan in forced_plans(backend, [(W, B, "relu")], "rne"):
            assert np.array_equal(plan.forward(X), expected), path

    def test_empty_and_single_row_every_path(self, any_fmt, scalar_forward):
        """(0, in) and (1, in) inputs keep exact shapes on every path."""
        backend = formats.backend_for(any_fmt)
        rng = np.random.default_rng(5)
        layers, _, net = random_network(any_fmt, rng, (4, 3, 2), 0)
        hi = 1 << any_fmt.n
        empty = np.empty((0, 4), dtype=np.uint32)
        single = scrub(any_fmt, rng.integers(0, hi, size=(1, 4), dtype=np.uint32))
        for path, plan in forced_plans(backend, layers, "rne"):
            out = plan.forward(empty)
            assert out.shape == (0, 2) and out.dtype == np.uint32, path
            assert plan.predict(empty).shape == (0,), path
            out1 = plan.forward(single)
            assert out1.shape == (1, 2), path
            assert np.array_equal(out1, scalar_forward(net, single)), path
            pred1 = plan.predict(single)
            assert pred1.shape == (1,), path


class TestPlanCompile:
    def test_force_path_rejects_ineligible(self):
        """Forcing a path a layer cannot take raises, never silently falls back."""
        backend = formats.backend_for(standard_format(8, 2))
        layers = [maxpos_layer(backend, 3, 2)]  # quire bound past int64
        for path in ("plane", "int64"):
            with pytest.raises(ValueError, match="not eligible"):
                NetworkKernel(backend, layers, force_path=path)
        for path in ("product", "warp"):
            with pytest.raises(ValueError, match="force_path"):
                NetworkKernel(backend, layers, force_path=path)

    def test_validates_network_inputs_once(self, table_fmt):
        """Invalid input patterns are rejected at the network boundary."""
        backend = formats.backend_for(table_fmt)
        tables = backend.limb_tables()
        bad = np.flatnonzero(tables.invalid)
        if bad.size == 0:
            pytest.skip("format has no invalid patterns")
        rng = np.random.default_rng(3)
        layers, X, _ = random_network(table_fmt, rng, (3, 2), 2)
        plan = backend.compile_network(layers)
        X = X.copy()
        X[0, 0] = bad[0]
        with pytest.raises(ValueError, match="activations"):
            plan.forward(X)

    def test_shape_mismatch_rejected(self, any_fmt):
        backend = formats.backend_for(any_fmt)
        rng = np.random.default_rng(4)
        layers, X, _ = random_network(any_fmt, rng, (4, 3, 2), 2)
        plan = backend.compile_network(layers)
        with pytest.raises(ValueError, match="fan-in mismatch"):
            plan.forward(X[:, :3])
        with pytest.raises(ValueError, match="2-D"):
            plan.forward(X[0])

    def test_explain_reports_every_layer(self, any_fmt):
        """explain() rows carry the decision, eligibility and footprint."""
        backend = formats.backend_for(any_fmt)
        rng = np.random.default_rng(6)
        layers, _, _ = random_network(any_fmt, rng, (4, 3, 2), 1)
        plan = backend.compile_network(layers)
        report = plan.explain()
        assert len(report) == 2
        for i, row in enumerate(report):
            assert row["layer"] == i
            assert row["path"] in NETWORK_PATHS
            assert row["path"] in row["eligible"]
            assert row["table_bytes"] >= 0
            assert row["activation"] in ("relu", "identity")

    def test_empty_layer_stack_rejected(self, any_fmt):
        backend = formats.backend_for(any_fmt)
        with pytest.raises(ValueError, match="at least one layer"):
            NetworkKernel(backend, [])

    def test_family_without_limb_tables_or_fixed_point_rejected(self):
        """A backend that is neither table-driven nor fixed point has no
        path for its dot products; compiling names it."""

        class TablelessBackend(formats.FloatBackend):
            def limb_tables(self):
                return None

        backend = TablelessBackend(float_format(4, 3))
        layers = [(np.zeros((2, 3), dtype=np.uint32), None, "identity")]
        with pytest.raises(TypeError, match=backend.name):
            backend.compile_network(layers)


class TestFixedRule:
    """Without ``force_path``, each layer's path is a fixed function of it."""

    def test_wide_fan_in_takes_plane(self):
        backend = formats.get("posit8_1")
        layer = narrow_layer(backend, np.random.default_rng(21), 117, 24)
        (row,) = backend.compile_network([layer]).explain()
        assert row["eligible"] == ["plane", "int64", "layer"]
        assert row["path"] == "plane"

    # posit<8,2> is left out: its maxpos activations overflow the
    # single-word quire at any fan-in, so it always takes ``layer``.
    @pytest.mark.parametrize("fan_in", [1, 4, 30])
    @pytest.mark.parametrize(
        "name", ["posit6_0", "posit8_0", "posit8_1", "float4_3", "float3_4",
                 "float2_5"],
    )
    def test_narrow_fan_in_takes_int64(self, name, fan_in):
        backend = formats.get(name)
        layer = narrow_layer(backend, np.random.default_rng(fan_in), fan_in, 8)
        (row,) = backend.compile_network([layer]).explain()
        assert "plane" in row["eligible"]
        assert row["path"] == "int64"

    def test_maxpos_heavy_posit8_2_takes_layer(self):
        backend = formats.get("posit8_2")
        (row,) = backend.compile_network([maxpos_layer(backend, 4, 3)]).explain()
        assert row["eligible"] == ["layer"]
        assert row["path"] == "layer"

    def test_explain_identical_across_processes(self, tmp_path, monkeypatch):
        """Two fresh interpreters build the same nine Table II plans."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spawn = multiprocessing.get_context("spawn")
        reports = []
        for _ in range(2):
            with ProcessPoolExecutor(1, mp_context=spawn) as pool:
                reports.append(pool.submit(deployment_plans).result(300))
        assert len(reports[0]) == len(TABLE2_DEPLOYMENTS)
        assert reports[0] == reports[1]
