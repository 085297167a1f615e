"""Bit-identity of the fused network plans against the scalar oracle.

The fused :class:`~repro.formats.network.NetworkKernel` is the one
production path for exact dot products, and it has one words path.  One
differential suite pins it to the scalar EMACs (``forward_scalar`` in the
plan's rounding mode, with pattern ReLU between layers), bit for bit: a
network's ``network_kernel(mode)`` for every sweep candidate of widths 5-8
in both modes, and plans of random 1-3-layer topologies over every format
of ``FORMATS``, both rounding modes, maxpos-heavy weights that push the
quire past 62 bits, and multi-plane layers.  Around it: the oracle-built
round table against the encoder over the whole single-word window, its
O(1) bucket index against plain ``searchsorted``, the pattern-space ReLU
composition against ``engine.relu`` on every valid pattern, the
one-plane/two-plane exactness boundary, pinned wide quires on both sides
of the round table's window, shape edges, and input rejection.  Each
layer's planes are a fixed function of it, the same in every process, and
all 459 layers of the sweep grid take ``plane``.
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
from repro.formats import words_as_quire
from repro.formats.network import NetworkKernel, operand_values
from repro.formats.rounding import round_table
from repro.nn.quantize import candidate_configs
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


def random_network(fmt, rng, topo, batch, maxpos=False):
    """(layer triples, input patterns, PositronNetwork) on random params.

    ``maxpos`` sets about a fifth of the weights to the format's largest
    value, which pushes wide-range formats past 62 quire bits and leaves
    some quires past the round table's window.
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
    net = PositronNetwork.from_arrays(fmt, weights, biases)
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

#: The Table II + Fig. 9 sweep grid: every candidate config of each width.
GRID_DATASETS = ("wbc", "iris", "mushroom")
GRID_WIDTHS = (5, 6, 7, 8)
SWEEP_FORMATS = [c.fmt for n in GRID_WIDTHS for c in candidate_configs(n)]


def deployment_plans():
    """``{(dataset, format): explain()}`` of all 153 sweep-grid networks.

    Each is the dataset's parent model deployed at one candidate config,
    as the sweep and the server build it (the nine Table II deployments
    are among them).
    """
    from repro.analysis.sweep import trained_model
    from repro.nn.quantize import candidate_configs

    plans = {}
    for dataset in GRID_DATASETS:
        weights, biases = trained_model(dataset).model.export_params()
        for n in GRID_WIDTHS:
            for config in candidate_configs(n):
                net = PositronNetwork.from_float_params(
                    config.fmt, weights, biases
                )
                name = formats.backend_for(config.fmt).name
                plans[(dataset, name)] = net.network_kernel().explain()
    return plans


class TestRoundTable:
    def test_matches_encoder_over_window(self, table_fmt):
        """Lookup == the encoder across the int64 word window."""
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
            expected = backend.encode_normalized(words_as_quire(words), mode)
            assert np.array_equal(rt.lookup(words), expected.astype(np.int64))

    def test_bucket_index_matches_searchsorted(self, table_fmt):
        """The O(1) bucket lookup == binary search on the same boundaries."""
        backend = formats.backend_for(table_fmt)
        rng = np.random.default_rng(12)
        cap = np.int64(1) << 62
        for mode in formats.ROUNDING_MODES:
            rt = round_table(backend, mode)
            assert rt.m is not None  # built-ins always get the fast grid
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
        """The plan == the scalar oracle: each format and mode.

        Outputs and rank-argmax readouts of the plan of a random network
        must equal the scalar EMACs'.  The explicit examples pin a
        two-plane layer of ``MULTI_PLANE_FMT`` in both modes, and the run
        must draw one; the ``posit<8,2>`` maxpos draws must include a layer
        past 62 quire bits."""
        backend = formats.backend_for(fmt)
        ranks = backend.rank_table()
        planes, quire_bits = [0], [0]

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
                fmt, rng, tuple(topo), batch, maxpos=maxpos
            )
            expected = scalar_forward(net, X, mode)
            expected_pred = np.argmax(ranks[expected.astype(np.int64)], axis=1)
            plan = backend.compile_network(layers, rounding_mode=mode)
            for row in plan.explain():
                assert row["path"] == "plane"
                planes.append(row["planes"])
                quire_bits.append(row["quire_bits"])
            out = plan.forward(X)
            assert out.shape == (batch, topo[-1])
            assert np.array_equal(out, expected), mode
            pred = plan.predict(X)
            assert pred.shape == (batch,)
            assert np.array_equal(pred, expected_pred), mode

        check()
        if fmt == MULTI_PLANE_FMT:
            assert max(planes) >= 2
        if fmt == standard_format(8, 2):
            assert max(quire_bits) > 62

    @pytest.mark.parametrize(
        "fmt", SWEEP_FORMATS, ids=lambda f: formats.backend_for(f).name
    )
    def test_every_sweep_candidate_in_both_modes(self, scalar_forward, fmt):
        """``network_kernel(mode)`` == ``forward_scalar(row, mode)``.

        Every posit, float and fixed-point candidate of the sweep grid,
        widths 5-8: a random network's fused plan in each rounding mode
        gives the scalar oracle's output patterns in that mode, and
        ``predict`` their rank argmax."""
        ranks = formats.backend_for(fmt).rank_table()
        rng = np.random.default_rng(fmt.n)
        _, X, net = random_network(fmt, rng, (6, 5, 3), 8)
        for mode in formats.ROUNDING_MODES:
            expected = scalar_forward(net, X, mode)
            plan = net.network_kernel(mode)
            assert plan.rounding_mode == mode
            assert np.array_equal(plan.forward(X), expected), mode
            assert np.array_equal(
                plan.predict(X),
                np.argmax(ranks[expected.astype(np.int64)], axis=1),
            ), mode

    @settings(max_examples=10, deadline=None)
    @given(
        fmt_idx=st.integers(0, len(FORMATS) - 1),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_fused_equals_forward_scalar(self, fmt_idx, seed):
        """Fused plan == one scalar EMAC per neuron.

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
        assert np.array_equal(backend.compile_network(layers).forward(X), expected)

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
        plan = backend.compile_network([(W, B, "relu")])
        assert np.array_equal(plan.forward(X), expected)

    def test_empty_and_single_row_every_path(self, any_fmt, scalar_forward):
        """(0, in) and (1, in) inputs keep exact shapes."""
        backend = formats.backend_for(any_fmt)
        rng = np.random.default_rng(5)
        layers, _, net = random_network(any_fmt, rng, (4, 3, 2), 0)
        hi = 1 << any_fmt.n
        empty = np.empty((0, 4), dtype=np.uint32)
        single = scrub(any_fmt, rng.integers(0, hi, size=(1, 4), dtype=np.uint32))
        plan = backend.compile_network(layers)
        out = plan.forward(empty)
        assert out.shape == (0, 2) and out.dtype == np.uint32
        assert plan.predict(empty).shape == (0,)
        out1 = plan.forward(single)
        assert out1.shape == (1, 2)
        assert np.array_equal(out1, scalar_forward(net, single))
        assert plan.predict(single).shape == (1,)


class TestPlanCompile:
    def test_single_path_has_no_knob(self):
        """One words path: a plan takes no path argument, and layers that
        once needed a second path (a quire past int64) compile onto it."""
        backend = formats.backend_for(standard_format(8, 2))
        layers = [maxpos_layer(backend, 3, 2)]  # quire bound past int64
        with pytest.raises(TypeError, match="force_path"):
            NetworkKernel(backend, layers, force_path="plane")
        (row,) = NetworkKernel(backend, layers).explain()
        assert row["path"] == "plane" and row["quire_bits"] > 64
        fixed = formats.get("fixed8_4")
        (row,) = NetworkKernel(fixed, [maxpos_layer(fixed, 3, 2)]).explain()
        assert row["path"] == "plane" and not row["wide"]

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

    def test_float_inputs_rejected_not_truncated(self, any_fmt):
        """Float patterns are refused, not cast: 1.7 would run as 1."""
        backend = formats.backend_for(any_fmt)
        layers, X, _ = random_network(any_fmt, np.random.default_rng(3), (3, 2), 2)
        plan = backend.compile_network(layers)
        with pytest.raises(ValueError, match="activations must be integer"):
            plan.forward(X + 0.7)
        with pytest.raises(ValueError, match="activations must be integer"):
            plan.predict(X.astype(bool))

    @pytest.mark.parametrize(
        "bad", [1 << 32 | 24, 1.7], ids=["wrapping-int64", "float"]
    )
    @pytest.mark.parametrize("where", ["weights", "bias"])
    def test_layer_patterns_checked_before_any_cast(self, any_fmt, bad, where):
        """2**32 + 24 would wrap onto pattern 24 and 1.7 truncate to 1."""
        params = {"weights": np.zeros((2, 3), np.int64), "bias": np.zeros(2, np.int64)}
        params[where] = params[where].astype(np.asarray(bad).dtype)
        params[where][-1] = bad
        backend = formats.backend_for(any_fmt)
        with pytest.raises(ValueError, match=where):
            backend.compile_network([(params["weights"], params["bias"], "relu")])

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
        """explain() rows carry the planes, quire width and footprint."""
        backend = formats.backend_for(any_fmt)
        rng = np.random.default_rng(6)
        layers, _, _ = random_network(any_fmt, rng, (4, 3, 2), 1)
        plan = backend.compile_network(layers)
        report = plan.explain()
        assert len(report) == 2
        for i, row in enumerate(report):
            assert row["layer"] == i
            assert row["path"] == "plane"
            assert row["table_bytes"] >= 0
            assert row["activation"] in ("relu", "identity")
            assert row["quire_bits"] >= 1
            assert row["wide"] == (row["quire_bits"] > 62)
            assert row["planes"] >= 1 and row["weight_planes"] >= 1
            assert row["wants"] == ("value" if row["planes"] == 1 else "pattern")

    def test_cli_explain_prints_planes_and_width(self):
        """``python -m repro formats --explain`` shows activation x weight
        planes and whether each layer is wide, then the format's input and
        word round tables: breakpoints, bucket depth, index bytes and
        bisected gaps."""
        from repro.__main__ import _formats_explain

        lines = _formats_explain("iris:posit8_2").splitlines()
        assert "planes" in lines[1] and "wide" in lines[1]
        for line in lines[2:5]:
            assert line.split()[3:6:2] == ["3x1", "yes"]
        assert lines[5].startswith("total compiled-table footprint")
        assert lines[6].split() == [
            "round", "table", "breakpoints", "m", "index", "bisected"
        ]
        backend = formats.get("posit8_2")
        tables = {
            "input": formats.input_table(backend),
            "words/rne": round_table(backend, "rne"),
            "words/rtz": round_table(backend, "rtz"),
        }
        assert [line.split()[0] for line in lines[7:]] == list(tables)
        for line in lines[7:]:
            label, count, m, index, bisected = line.split()
            row = tables[label].describe()
            assert int(count) == row["breakpoints"]
            assert int(m) == row["m"]
            assert index == f"{row['index_bytes'] / 1024:.1f}KB"
            assert int(bisected) == row["bisected"] == 0

    def test_cli_explain_fixed_point_has_no_round_tables(self):
        from repro.__main__ import _formats_explain

        lines = _formats_explain("iris:fixed8_4").splitlines()
        assert lines[-1].startswith("round tables: none")

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


class TestWideQuires:
    """Wide layers (quire bound past 62 bits) against ``scalar_dot``.

    A wide layer adds its plane sums modulo ``2**64`` and rounds by table
    each quire whose magnitude bound is below ``2**61``; the backend's
    encoder rounds the rest from exact limbs.  posit<8,2>'s quire LSB is
    ``2**-54``, so the bound ``2**61`` is the value 128, and the round
    table's window ends at 256.
    """

    @staticmethod
    def check(backend, W, X, B, mode, scalar_dot):
        plan = backend.compile_network([(W, B, "identity")], rounding_mode=mode)
        (row,) = plan.explain()
        assert row["path"] == "plane" and row["wide"]
        expected = scalar_dot(backend.fmt, W, X, B, mode)
        assert np.array_equal(plan.forward(X), expected)
        return row

    @staticmethod
    def values(backend, W, X, B=None):
        """Each quire's value and its sum of product magnitudes."""
        x, w = backend.decode_batch(X), backend.decode_batch(W)
        q, mag = x @ w.T, np.abs(x) @ np.abs(w).T
        if B is not None:
            q, mag = q + backend.decode_batch(B), mag + np.abs(backend.decode_batch(B))
        return q, mag

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    def test_both_sides_of_the_table_bound(self, scalar_dot, mode):
        """Small activations stay under the bound; maxpos rows pass it."""
        backend = formats.get("posit8_2")
        fmt = backend.fmt
        rng = np.random.default_rng(31)
        W = backend.quantize_batch(rng.uniform(0.5, 2, size=(4, 8)))
        B = backend.quantize_batch(rng.uniform(-1, 1, size=4))
        small = backend.quantize_batch(rng.uniform(-1, 1, size=(12, 8)))
        maxpos = np.uint32(fmt.maxpos_pattern)
        neg_maxpos = np.uint32((1 << fmt.n) - fmt.maxpos_pattern)
        big = np.asarray([np.full(8, maxpos), np.full(8, neg_maxpos)])
        mixed = rng.choice([maxpos, neg_maxpos], size=(6, 8)).astype(np.uint32)
        X = np.concatenate([small, big, mixed])
        q, mag = self.values(backend, W, X, B)
        assert (mag[:12] < 64).all() and (np.abs(q[12:14]) > 256).all()
        self.check(backend, W, X, B, mode, scalar_dot)

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    def test_quire_between_2_62_and_2_63(self, scalar_dot, mode):
        """Quires that fit int64 but lie past the round table's window."""
        backend = formats.get("posit8_2")
        rng = np.random.default_rng(32)
        W = backend.quantize_batch(np.asarray([[16.0, 16.0, 2.0], [-16.0, -16.0, -2.0]]))
        X = backend.quantize_batch(rng.uniform(0, 16, size=(400, 3)))
        q, _ = self.values(backend, W, X)
        X = X[(np.abs(q[:, 0]) >= 256) & (np.abs(q[:, 0]) < 512)]
        assert len(X) >= 20
        self.check(backend, W, X, None, mode, scalar_dot)

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    def test_negative_quire_just_past_minus_2_61(self, scalar_dot, mode):
        """Quires a minpos past -128, and a row just inside the bound."""
        backend = formats.get("posit8_2")
        m = backend.decode_batch(np.asarray([backend.fmt.minpos_pattern]))[0]
        W = backend.quantize_batch(np.ones((1, 3)))
        rows = [
            [-128, -m, 0], [-128, m, 0], [-128, -m, -m], [-96, -32, -m],
            [-128, -0.5, -0.25], [-96, -24, -8], [-96, -24, -7.5],
        ]
        X = backend.quantize_batch(np.asarray(rows))
        q, mag = self.values(backend, W, X)
        assert (q[:6, 0] < -128 + 2 * m).all() and (mag[:6] >= 128).all()
        assert mag[6, 0] == 127.5
        self.check(backend, W, X, None, mode, scalar_dot)

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    def test_two_sided_maxpos_weights(self, scalar_dot, mode):
        """All-maxpos weights leave no exact activation digit: the weights
        are cut into digit planes too."""
        backend = formats.get("posit8_2")
        rng = np.random.default_rng(33)
        W, _, _ = maxpos_layer(backend, 6, 3)
        W[1, ::2] = backend.quantize_batch(np.asarray([-1.0]))[0]
        B = scrub(backend.fmt, rng.integers(0, 256, size=3))
        X = scrub(backend.fmt, rng.integers(0, 256, size=(16, 6)))
        X[0] = backend.fmt.maxpos_pattern
        row = self.check(backend, W, X, B, mode, scalar_dot)
        assert row["weight_planes"] > 1

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    @pytest.mark.parametrize("name", ["float8_3", "posit12_2"])
    def test_quire_of_three_words_or_more(self, scalar_dot, name, mode):
        """A quire wider than two int64 words, across the whole range."""
        backend = formats.get(name)
        rng = np.random.default_rng(34)
        hi = 1 << backend.width
        W = scrub(backend.fmt, rng.integers(0, hi, size=(3, 5)))
        B = scrub(backend.fmt, rng.integers(0, hi, size=3))
        X = scrub(backend.fmt, rng.integers(0, hi, size=(12, 5)))
        row = self.check(backend, W, X, B, mode, scalar_dot)
        assert row["quire_bits"] > 2 * 62


class TestFixedRule:
    """Each layer's planes are a fixed function of it: every layer takes
    ``plane``; a quire past 62 bits makes the layer wide."""

    def test_wide_fan_in_takes_plane(self):
        backend = formats.get("posit8_1")
        layer = narrow_layer(backend, np.random.default_rng(21), 117, 24)
        (row,) = backend.compile_network([layer]).explain()
        assert (row["path"], row["planes"], row["wide"]) == ("plane", 1, False)

    # posit<8,2> is left out: its maxpos activations overflow the
    # single-word quire at any fan-in, so its layers are always wide.
    @pytest.mark.parametrize("fan_in", [1, 4, 30])
    @pytest.mark.parametrize(
        "name", ["posit6_0", "posit8_0", "posit8_1", "float4_3", "float3_4",
                 "float2_5"],
    )
    def test_narrow_fan_in_takes_plane(self, name, fan_in):
        backend = formats.get(name)
        layer = narrow_layer(backend, np.random.default_rng(fan_in), fan_in, 8)
        (row,) = backend.compile_network([layer]).explain()
        assert (row["path"], row["planes"], row["wide"]) == ("plane", 1, False)

    def test_maxpos_heavy_posit8_2_takes_wide_plane(self):
        """Maxpos weights leave no exact activation digit, so the weights
        are cut into digit planes too: a 1.0 among them takes a second."""
        backend = formats.get("posit8_2")
        W, _, _ = maxpos_layer(backend, 4, 3)
        W[0, 0] = backend.quantize_batch(np.asarray([1.0]))[0]
        (row,) = backend.compile_network([(W, None, "relu")]).explain()
        assert row["path"] == "plane"
        assert row["quire_bits"] > 62 and row["wide"]
        assert row["weight_planes"] > 1

    def test_grid_layers_take_plane(self):
        """All 459 layers of the 153 sweep-grid networks take ``plane``;
        exactly the 18 posit<7,2> and posit<8,2> layers are wide."""
        plans = deployment_plans()
        assert len(plans) == 153
        rows = [
            (key, row) for key, report in plans.items() for row in report
        ]
        assert len(rows) == 459
        assert {row["path"] for _, row in rows} == {"plane"}
        wide = [(key, row) for key, row in rows if row["wide"]]
        assert len(wide) == 18
        assert {name for (_, name), _ in wide} == {"posit7_2", "posit8_2"}
        assert all(row["quire_bits"] > 62 for _, row in wide)
        assert all(
            row["quire_bits"] <= 62 for _, row in rows if not row["wide"]
        )

    def test_table2_deployments_take_one_plane(self):
        """Every layer of the nine served deployments is one GEMM."""
        plans = deployment_plans()
        for dataset, fmt in TABLE2_DEPLOYMENTS:
            for row in plans[(dataset, fmt)]:
                assert (row["path"], row["planes"], row["weight_planes"]) == (
                    "plane", 1, 1,
                ), (dataset, fmt, row["layer"])

    def test_explain_identical_across_processes(self, tmp_path, monkeypatch):
        """Two fresh interpreters build the same 153 grid plans."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spawn = multiprocessing.get_context("spawn")
        reports = []
        for _ in range(2):
            with ProcessPoolExecutor(1, mp_context=spawn) as pool:
                reports.append(pool.submit(deployment_plans).result(300))
        assert len(reports[0]) == 153
        assert reports[0] == reports[1]
