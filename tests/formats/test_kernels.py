"""Bit-identity of one-layer plans.

``VectorEngine.dot`` compiles a one-layer fused plan, the same code a whole
network's forward runs.  Every registered format's plan must reproduce the
scalar EMACs bit for bit, and ``dot_reference`` — the PR 1 digit-plane
nest the engine guard times, kept in ``benchmarks/pr1_reference.py`` —
must match the scalar EMACs in both rounding modes.  Explicit edge cases
pin what a random property rarely reaches: empty batches, fan-in 1,
batch-chunk boundaries, all-zero weights, maxpos-heavy weights whose
quires leave the round table for the encoder, fan-ins wide enough to
narrow the digit planes, and input rejection; plus a network-level check
against the golden-pinned iris parent model.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import formats
from repro.core import engine_for, scalar_emac_for
from repro.core.positron import PositronNetwork
from repro.fixedpoint import fixed_format
from repro.floatp import float_format
from repro.formats import network
from repro.formats.network import NetworkKernel
from repro.posit.format import standard_format

_PR1 = Path(__file__).resolve().parents[2] / "benchmarks" / "pr1_reference.py"


def _pr1_reference():
    """The engine guard's baseline module, loaded by path."""
    spec = importlib.util.spec_from_file_location("pr1_reference", _PR1)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pr1_reference = _pr1_reference()

FORMATS = [
    standard_format(6, 0),
    standard_format(8, 0),
    standard_format(8, 1),
    standard_format(8, 2),
    float_format(4, 3),
    float_format(3, 4),
    float_format(2, 5),
    fixed_format(8, 4),
    fixed_format(5, 3),
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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_layer(fmt, rng, out_dim, in_dim, batch, with_bias):
    hi = 1 << fmt.n
    W = scrub(fmt, rng.integers(0, hi, size=(out_dim, in_dim), dtype=np.uint32))
    X = scrub(fmt, rng.integers(0, hi, size=(batch, in_dim), dtype=np.uint32))
    B = (
        scrub(fmt, rng.integers(0, hi, size=(out_dim,), dtype=np.uint32))
        if with_bias
        else None
    )
    return W, X, B


TABLE_FORMATS = [
    f for f in FORMATS if formats.backend_for(f).limb_tables() is not None
]


def layer_plan(fmt, W, B, mode="rne"):
    """One identity layer compiled as a plan."""
    return NetworkKernel(
        formats.backend_for(fmt), [(W, B, "identity")], rounding_mode=mode
    )


class TestKernelBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        fmt_idx=st.integers(0, len(TABLE_FORMATS) - 1),
        seed=st.integers(0, 2**31 - 1),
        out_dim=st.integers(1, 5),
        in_dim=st.integers(1, 14),
        batch=st.integers(0, 5),
        with_bias=st.booleans(),
        mode=st.sampled_from(formats.ROUNDING_MODES),
    )
    def test_kernel_matches_reference(
        self, scalar_dot, fmt_idx, seed, out_dim, in_dim, batch, with_bias, mode
    ):
        """dot_reference == the scalar oracle == the plan, in both modes.

        The engine guard times ``dot_reference`` as its baseline, so it
        stays pinned to the scalar EMACs here."""
        fmt = TABLE_FORMATS[fmt_idx]
        rng = np.random.default_rng(seed)
        W, X, B = random_layer(fmt, rng, out_dim, in_dim, batch, with_bias)
        backend = formats.backend_for(fmt)
        reference = pr1_reference.reference_for(backend).dot_reference(
            W, X, B, rounding_mode=mode
        )
        assert np.array_equal(reference, scalar_dot(fmt, W, X, B, mode))
        out = engine_for(fmt).dot(W, X, B, rounding_mode=mode)
        assert out.shape == (batch, out_dim)
        assert out.dtype == np.uint32
        assert np.array_equal(out, reference)

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    @pytest.mark.parametrize(
        "name",
        [n for n in formats.available() if formats.get(n).limb_tables() is not None],
    )
    def test_reference_every_table_format(self, name, mode, scalar_dot):
        """dot_reference == the scalar oracle on every table format of the
        sweep grid, with a row of the largest value for wide quires."""
        backend = formats.get(name)
        rng = np.random.default_rng(backend.width)
        W, X, B = random_layer(backend.fmt, rng, 3, 9, 4, True)
        X[0] = W[0] = int(np.argmax(backend.rank_table()))
        reference = pr1_reference.reference_for(backend).dot_reference(
            W, X, B, rounding_mode=mode
        )
        assert np.array_equal(reference, scalar_dot(backend.fmt, W, X, B, mode))

    @settings(max_examples=20, deadline=None)
    @given(
        fmt_idx=st.integers(0, len(FORMATS) - 1),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_kernel_matches_scalar_emac(self, fmt_idx, seed):
        """One-layer plan == one scalar EMAC per (sample, neuron)."""
        fmt = FORMATS[fmt_idx]
        rng = np.random.default_rng(seed)
        W, X, B = random_layer(fmt, rng, 3, 7, 2, True)
        out = engine_for(fmt).dot(W, X, B)
        emac = scalar_emac_for(fmt)
        for i in range(X.shape[0]):
            for o in range(W.shape[0]):
                expect = emac.dot(
                    [int(w) for w in W[o]],
                    [int(x) for x in X[i]],
                    bias_bits=int(B[o]),
                )
                assert int(out[i, o]) == expect

    def test_empty_batch(self, any_fmt, rng):
        W, _, B = random_layer(any_fmt, rng, 3, 5, 1, True)
        out = engine_for(any_fmt).dot(W, np.empty((0, 5), dtype=np.uint32), B)
        assert out.shape == (0, 3)
        assert out.dtype == np.uint32

    def test_fan_in_one(self, any_fmt, rng, scalar_dot):
        W, X, B = random_layer(any_fmt, rng, 2, 1, 4, True)
        assert np.array_equal(
            engine_for(any_fmt).dot(W, X, B), scalar_dot(any_fmt, W, X, B)
        )

    def test_chunk_boundary_crossing(self, any_fmt, rng, monkeypatch):
        """Results must not depend on the batch-chunk size."""
        W, X, B = random_layer(any_fmt, rng, 3, 9, 23, True)
        plan = layer_plan(any_fmt, W, B)
        full = plan.forward(X)
        for cap in (1, 30, 100):
            monkeypatch.setattr(network, "_CHUNK_ELEMENTS", cap)
            assert np.array_equal(plan.forward(X), full), cap

    def test_chunk_cap_monkeypatched(self, rng, monkeypatch):
        """Plans read the module chunk cap at call time, wide ones too."""
        for fmt in (standard_format(8, 1), standard_format(8, 2)):
            W, X, B = random_layer(fmt, rng, 3, 9, 17, True)
            plan = layer_plan(fmt, W, B)
            full = plan.forward(X)
            monkeypatch.setattr(network, "_CHUNK_ELEMENTS", 25)
            assert np.array_equal(plan.forward(X), full), fmt
            monkeypatch.undo()

    def test_all_zero_weights(self, any_fmt, scalar_dot):
        """All-zero weights: output is the rounded bias alone."""
        W = np.zeros((3, 6), dtype=np.uint32)
        X = np.zeros((4, 6), dtype=np.uint32)
        B = np.zeros(3, dtype=np.uint32)
        expected = scalar_dot(any_fmt, W, X, B)
        assert np.array_equal(layer_plan(any_fmt, W, B).forward(X), expected)

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    def test_all_zero_weights_maxpos_bias(self, scalar_dot, mode):
        """One plane of each operand, yet the maxpos bias alone makes the
        quire wide: the single-GEMM step must not take it."""
        fmt = standard_format(8, 2)
        W = np.zeros((2, 4), dtype=np.uint32)
        B = np.asarray([fmt.maxpos_pattern, (1 << fmt.n) - fmt.maxpos_pattern])
        X = scrub(fmt, np.arange(0, 256, 8, dtype=np.uint32).reshape(8, 4))
        plan = layer_plan(fmt, W, B.astype(np.uint32), mode)
        (row,) = plan.explain()
        assert (row["planes"], row["weight_planes"], row["wide"]) == (1, 1, True)
        assert np.array_equal(plan.forward(X), scalar_dot(fmt, W, X, B, mode))

    def test_single_live_weight_plane(self, rng, scalar_dot):
        """Tiny weights: one plane holds the whole product range."""
        fmt = standard_format(8, 1)
        engine = engine_for(fmt)
        W = engine.quantize(rng.uniform(1e-6, 1e-5, size=(3, 8)))
        X = scrub(fmt, rng.integers(0, 256, size=(5, 8), dtype=np.uint32))
        B = engine.quantize(rng.uniform(-0.1, 0.1, size=3))
        plan = layer_plan(fmt, W, B)
        assert plan.explain()[0]["planes"] == 1
        assert np.array_equal(plan.forward(X), scalar_dot(fmt, W, X, B))

    def test_extreme_weights_fall_back_bit_identically(self, rng, scalar_dot):
        """A maxpos weight makes the quire wide; maxpos activations push
        quires past the round table, to the backend's encoder.  Both stay
        bit-identical."""
        fmt = standard_format(8, 2)
        hi = 1 << fmt.n
        W = scrub(fmt, rng.integers(0, hi, size=(4, 10), dtype=np.uint32))
        W[0, 0] = fmt.maxpos_pattern
        X = scrub(fmt, rng.integers(0, hi, size=(6, 10), dtype=np.uint32))
        X[0, 0] = fmt.maxpos_pattern  # a quire of about maxpos**2
        B = scrub(fmt, rng.integers(0, hi, size=(4,), dtype=np.uint32))
        plan = layer_plan(fmt, W, B)
        (row,) = plan.explain()
        assert (row["path"], row["wide"]) == ("plane", True)
        assert np.array_equal(plan.forward(X), scalar_dot(fmt, W, X, B))

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    def test_single_word_layer_takes_two_planes(self, scalar_dot, mode):
        """A maxpos posit8_1 weight (``S = 2**28``, so 23-bit digits) keeps
        the quire inside one int64 but splits the 29-bit activations into
        two digit planes."""
        fmt = standard_format(8, 1)
        W = np.zeros((2, 40), dtype=np.uint32)
        W[:, 0] = fmt.maxpos_pattern
        rng = np.random.default_rng(9)
        X = scrub(fmt, rng.integers(0, 256, size=(20, 40), dtype=np.uint32))
        X[0, 0] = fmt.maxpos_pattern
        plan = layer_plan(fmt, W, None, mode)
        (row,) = plan.explain()
        assert (row["path"], row["planes"], row["wide"]) == ("plane", 2, False)
        assert np.array_equal(plan.forward(X), scalar_dot(fmt, W, X, None, mode))

    def test_fan_in_split_accumulation(self, rng, scalar_dot):
        """A fan-in of 5000 grows ``S = max_o sum_i |w_oi|``, which narrows
        the exact digit: the activations split into more planes whose words
        accumulate in int64; still bit-identical."""
        fmt = standard_format(8, 1)
        in_dim = 5000
        W = scrub(fmt, rng.integers(0, 256, size=(2, in_dim), dtype=np.uint32))
        X = scrub(fmt, rng.integers(0, 256, size=(3, in_dim), dtype=np.uint32))
        B = scrub(fmt, rng.integers(0, 256, size=(2,), dtype=np.uint32))
        plan = layer_plan(fmt, W, B)
        narrow = layer_plan(fmt, W[:, :9], B)
        assert plan.steps[0].words.digit_bits < narrow.steps[0].words.digit_bits
        assert plan.explain()[0]["planes"] >= 2
        assert np.array_equal(plan.forward(X), scalar_dot(fmt, W, X, B))
        bad = np.full((1, 2), fmt.nar_pattern, dtype=np.uint32)
        good = np.zeros((1, 2), dtype=np.uint32)
        with pytest.raises(ValueError):
            layer_plan(fmt, bad, None)
        plan = layer_plan(fmt, good, None)
        with pytest.raises(ValueError):
            plan.forward(bad)

    def test_fan_in_mismatch_rejected(self, any_fmt):
        plan = layer_plan(any_fmt, np.zeros((2, 3), dtype=np.uint32), None)
        with pytest.raises(ValueError):
            plan.forward(np.zeros((2, 4), dtype=np.uint32))


class TestRankTable:
    def test_monotone_in_value(self, any_fmt):
        backend = formats.backend_for(any_fmt)
        ranks = backend.rank_table()
        values = backend.decode_batch(
            np.arange(1 << any_fmt.n, dtype=np.uint32)
        )
        finite = np.isfinite(values)
        v, r = values[finite], ranks[finite]
        order = np.argsort(v, kind="stable")
        assert np.all(np.diff(r[order]) >= 0)
        # strict where values differ, equal where they coincide
        dv = np.diff(v[order])
        dr = np.diff(r[order])
        assert np.all((dv > 0) == (dr > 0))

    def test_rank_argmax_matches_value_argmax(self, any_fmt, rng):
        backend = formats.backend_for(any_fmt)
        hi = 1 << any_fmt.n
        rows = scrub(any_fmt, rng.integers(0, hi, size=(64, 5), dtype=np.uint32))
        values = backend.decode_batch(rows)
        ranks = backend.rank_table()[rows.astype(np.int64)]
        assert np.array_equal(
            np.argmax(ranks, axis=1), np.argmax(values, axis=1)
        )


class TestNetworkLevel:
    @pytest.fixture(scope="class")
    def iris(self):
        from repro.analysis.sweep import trained_model

        return trained_model("iris")

    @pytest.mark.parametrize("name", ["posit8_1", "float4_3", "fixed8_4"])
    def test_compiled_network_matches_reference_paths(
        self, iris, name, scalar_forward
    ):
        """Full golden-pinned iris parent deployed at 8 bits: the compiled
        forward equals the scalar EMAC path sample-for-sample."""
        backend = formats.get(name)
        weights, biases = iris.model.export_params()
        net = PositronNetwork.from_float_params(backend.fmt, weights, biases)
        X = net.engine.quantize(np.asarray(iris.dataset.test_x, dtype=np.float64))

        compiled = net.forward_patterns(X)
        assert np.array_equal(compiled, scalar_forward(net, X))

    def test_predict_patterns_matches_decoded_argmax(self, iris):
        backend = formats.get("posit8_1")
        weights, biases = iris.model.export_params()
        net = PositronNetwork.from_float_params(backend.fmt, weights, biases)
        X = np.asarray(iris.dataset.test_x, dtype=np.float64)
        patterns = net.engine.quantize(X)
        decoded = np.argmax(net.engine.decode_values(net.forward_patterns(patterns)), axis=1)
        assert np.array_equal(net.predict_patterns(patterns), decoded)
        assert np.array_equal(net.predict(X), decoded)
