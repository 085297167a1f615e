"""Bit-identity of the fused network plans against the scalar oracle.

The fused :class:`~repro.formats.network.NetworkKernel` is the one
production path for exact dot products.  One differential property suite
pins it to the scalar EMACs (``forward_scalar`` for rne; the EMAC's exact
accumulation rounded by ``truncate_scalar`` for rtz, with pattern ReLU
between layers), bit for bit, over random 1-3-layer topologies, every
format of ``FORMATS``, both rounding modes, maxpos-heavy weights that overflow
the int64 quire, multi-plane layers, and every words path forced on.
Around it: the oracle-built round table against ``encode_from_quire_words``
over the whole single-word window, its O(1) bucket index against plain
``searchsorted``, the pattern-space ReLU composition against ``engine.relu``
on every valid pattern, the one-plane/two-plane exactness boundary, shape
edges per forced path, and input rejection.  The default plan's path per
layer is a fixed rule, the same in every process.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import formats
from repro.core import engine_for
from repro.core.positron import PositronNetwork
from repro.fixedpoint import fixed_format
from repro.floatp import float_format
from repro.formats.network import (
    NETWORK_PATHS,
    NetworkKernel,
    operand_values,
    round_table,
)
from repro.posit.format import standard_format

#: posit<6,2>'s wide range (34-bit operand values) makes random weights
#: take two planes.
MULTI_PLANE_FMT = standard_format(6, 2)

FORMATS = [
    standard_format(6, 0),
    MULTI_PLANE_FMT,
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
        """Operand values are the exact aligned values of the decode tables."""
        backend = formats.backend_for(table_fmt)
        t = backend.limb_tables()
        valid = np.flatnonzero(~t.invalid)
        values = operand_values(backend)
        exact = [int(v) << int(sh) for v, sh in zip(t.signed_sig, t.shift)]
        assert [int(v) for v in values[valid]] == [exact[p] for p in valid]
        assert not values[t.invalid].any()
        dec = backend.decode_batch(valid.astype(np.uint32))
        assert np.array_equal(np.sign(values[valid]), np.sign(dec))


class TestFusedBitIdentity:
    @pytest.mark.parametrize("fmt", FORMATS, ids=str)
    def test_plans_match_scalar_oracle(self, scalar_forward, fmt):
        """Every plan == the scalar oracle: each format, mode and path.

        The default plan and every path ``force_path`` can build run the
        same random network; outputs and rank-argmax readouts must equal
        the scalar EMACs'.  The explicit examples pin a two-plane layer of
        ``MULTI_PLANE_FMT`` in both modes, and the run must draw one."""
        backend = formats.backend_for(fmt)
        ranks = backend.rank_table()
        planes = [0]

        @settings(max_examples=15, deadline=None)
        @given(
            seed=st.integers(0, 2**31 - 1),
            topo=st.lists(st.integers(1, 14), min_size=2, max_size=4),
            batch=st.integers(0, 6),
            mode=st.sampled_from(formats.ROUNDING_MODES),
            maxpos=st.booleans(),
        )
        @example(seed=3, topo=[6, 5, 3], batch=4, mode="rne", maxpos=False)
        @example(seed=3, topo=[6, 5, 3], batch=4, mode="rtz", maxpos=False)
        def check(seed, topo, batch, mode, maxpos):
            rng = np.random.default_rng(seed)
            layers, X, net = random_network(
                fmt, rng, tuple(topo), batch, rounding_mode=mode,
                maxpos=maxpos,
            )
            expected = scalar_forward(net, X)
            expected_pred = np.argmax(ranks[expected.astype(np.int64)], axis=1)
            for path, plan in forced_plans(backend, layers, mode):
                planes.extend(row["planes"] or 0 for row in plan.explain())
                out = plan.forward(X)
                assert out.shape == (batch, topo[-1]), path
                assert np.array_equal(out, expected), (path, mode)
                pred = plan.predict(X)
                assert pred.shape == (batch,), path
                assert np.array_equal(pred, expected_pred), (path, mode)

        check()
        if fmt == MULTI_PLANE_FMT:
            assert max(planes) >= 2

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
        with pytest.raises(ValueError, match="not eligible"):
            NetworkKernel(backend, layers, force_path="plane")
        for path in ("int64", "product", "warp"):
            with pytest.raises(ValueError, match="force_path"):
                NetworkKernel(backend, layers, force_path=path)
        fixed = formats.get("fixed8_4")
        with pytest.raises(ValueError, match="only the plane path"):
            NetworkKernel(fixed, [maxpos_layer(fixed, 3, 2)], force_path="layer")

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
            assert row["quire_bits"] >= 1
            if row["path"] == "plane":
                assert row["planes"] >= 1
                assert row["wants"] == ("value" if row["planes"] == 1 else "pattern")
            else:
                assert row["planes"] is None

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


class TestPlaneBoundary:
    """The widest exact digit ``d = 52 - bitlen(S)`` at its plane-count edge.

    posit<8,1> operands are integers of up to 29 bits (maxpos ``2**12`` is
    ``2**28`` quire-LSB units of one input, and one weight unit is
    ``2**-16``), so one plane holds them iff ``bitlen(S) <= 23``: weights
    whose magnitudes sum to under 128.  The weights ``2**6, 2**5, ...,
    2**-10`` (each exact in posit<8,1>) sum to ``128 - 2**-10``,
    ``S = 2**23 - 64``: one plane.  One more weight bit (``2**7`` on top)
    gives ``bitlen(S) = 24`` and two planes.  Rows of +-maxpos drive the
    plane GEMM sums towards ``S * 2**28``, and cancelling rows leave results
    whose low bits count.
    """

    @staticmethod
    def boundary_layer(backend, top):
        rng = np.random.default_rng(top)
        exponents = np.concatenate([[top], np.arange(5, -11, -1)])
        signs = rng.choice([-1.0, 1.0], size=(3, exponents.size))
        signs[0] = 1.0
        W = backend.quantize_batch(signs * np.exp2(exponents))
        B = backend.quantize_batch(rng.uniform(-4, 4, size=3))
        return W, B

    @staticmethod
    def boundary_rows(backend, rng, in_dim):
        fmt = backend.fmt
        maxpos = np.uint32(fmt.maxpos_pattern)
        neg_maxpos = np.uint32((1 << fmt.n) - fmt.maxpos_pattern)
        cancel = np.where(np.arange(in_dim) % 2, neg_maxpos, maxpos)
        cancel[-1] = np.uint32(fmt.minpos_pattern)
        rows = [np.full(in_dim, maxpos), np.full(in_dim, neg_maxpos), cancel]
        rows += list(scrub(fmt, rng.integers(0, 256, size=(13, in_dim))))
        return np.asarray(rows, dtype=np.uint32)

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    @pytest.mark.parametrize("top, planes", [(6, 1), (7, 2)])
    def test_one_plane_edge_and_one_more_weight_bit(
        self, scalar_dot, mode, top, planes
    ):
        backend = formats.get("posit8_1")
        W, B = self.boundary_layer(backend, top)
        X = self.boundary_rows(backend, np.random.default_rng(7), W.shape[1])
        plan = backend.compile_network([(W, B, "identity")], rounding_mode=mode)
        (row,) = plan.explain()
        assert (row["path"], row["planes"]) == ("plane", planes)
        assert row["quire_bits"] <= 62
        expected = scalar_dot(backend.fmt, W, X, B, mode)
        assert np.array_equal(plan.forward(X), expected)

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    def test_fixed_point_int_min_weights(self, scalar_dot, mode):
        """Every weight at ``int_min``: the widest fixed-point magnitude."""
        backend = formats.get("fixed8_4")
        fmt = backend.fmt
        W = np.full((3, 9), fmt.int_min & fmt.mask, dtype=np.uint32)
        rng = np.random.default_rng(8)
        X = rng.integers(0, 1 << fmt.n, size=(12, 9)).astype(np.uint32)
        X[0] = fmt.int_min & fmt.mask
        X[1] = fmt.int_max
        B = rng.integers(0, 1 << fmt.n, size=3).astype(np.uint32)
        plan = backend.compile_network([(W, B, "identity")], rounding_mode=mode)
        (row,) = plan.explain()
        assert (row["path"], row["planes"]) == ("plane", 1)
        assert np.array_equal(plan.forward(X), scalar_dot(fmt, W, X, B, mode))


class TestFixedRule:
    """Without ``force_path``, each layer's path is a fixed function of it:
    ``plane`` for every single-word layer, ``layer`` past 62 bits."""

    def test_wide_fan_in_takes_plane(self):
        backend = formats.get("posit8_1")
        layer = narrow_layer(backend, np.random.default_rng(21), 117, 24)
        (row,) = backend.compile_network([layer]).explain()
        assert row["eligible"] == ["plane", "layer"]
        assert (row["path"], row["planes"]) == ("plane", 1)

    # posit<8,2> is left out: its maxpos activations overflow the
    # single-word quire at any fan-in, so it always takes ``layer``.
    @pytest.mark.parametrize("fan_in", [1, 4, 30])
    @pytest.mark.parametrize(
        "name", ["posit6_0", "posit8_0", "posit8_1", "float4_3", "float3_4",
                 "float2_5"],
    )
    def test_narrow_fan_in_takes_plane(self, name, fan_in):
        backend = formats.get(name)
        layer = narrow_layer(backend, np.random.default_rng(fan_in), fan_in, 8)
        (row,) = backend.compile_network([layer]).explain()
        assert row["eligible"] == ["plane", "layer"]
        assert (row["path"], row["planes"]) == ("plane", 1)

    def test_maxpos_heavy_posit8_2_takes_layer(self):
        backend = formats.get("posit8_2")
        (row,) = backend.compile_network([maxpos_layer(backend, 4, 3)]).explain()
        assert row["quire_bits"] > 62
        assert row["eligible"] == ["layer"]
        assert (row["path"], row["planes"]) == ("layer", None)

    def test_table2_deployments_take_one_plane(self):
        """Every layer of the nine served deployments is one GEMM."""
        plans = deployment_plans()
        assert len(plans) == len(TABLE2_DEPLOYMENTS)
        for (dataset, fmt), report in zip(TABLE2_DEPLOYMENTS, plans):
            for row in report:
                assert (row["path"], row["planes"]) == ("plane", 1), (
                    dataset, fmt, row["layer"],
                )

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
