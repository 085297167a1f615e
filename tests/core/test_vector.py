"""The vector engine must be bit-identical to the scalar EMAC cores."""

import numpy as np
import pytest

from repro import formats
from repro.core import PositronNetwork, VectorEngine, engine_for, scalar_emac_for
from repro.fixedpoint import fixed_format
from repro.floatp import float_format, tables_for as float_tables
from repro.posit import tables_for as posit_tables
from repro.posit.format import standard_format

ALL_FORMATS = [
    standard_format(5, 0),
    standard_format(8, 0),
    standard_format(8, 1),
    standard_format(8, 2),
    float_format(2, 5),
    float_format(4, 3),
    float_format(5, 2),
    fixed_format(8, 2),
    fixed_format(8, 7),
    fixed_format(5, 3),
]


def scrub(fmt, patterns):
    """Replace datapath-invalid patterns with zero."""
    from repro.fixedpoint.format import FixedFormat
    from repro.floatp.format import FloatFormat
    from repro.posit.format import PositFormat

    p = np.asarray(patterns, dtype=np.uint32)
    if isinstance(fmt, PositFormat):
        p[p == fmt.nar_pattern] = 0
    elif isinstance(fmt, FloatFormat):
        p[float_tables(fmt).is_reserved[p]] = 0
    return p


@pytest.fixture(params=range(len(ALL_FORMATS)), ids=lambda i: str(ALL_FORMATS[i]))
def any_fmt(request):
    return ALL_FORMATS[request.param]


class TestEngineFactory:
    def test_dispatch(self):
        for fmt in (standard_format(8, 1), float_format(4, 3), fixed_format(8, 4)):
            engine = engine_for(fmt)
            assert type(engine) is VectorEngine
            assert engine.backend is formats.backend_for(fmt)

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            engine_for("posit8")

    def test_width(self, any_fmt):
        assert engine_for(any_fmt).width == any_fmt.n


class TestBitIdenticalToScalar:
    def test_random_layers(self, any_fmt, rng):
        engine = engine_for(any_fmt)
        emac = scalar_emac_for(any_fmt)
        hi = 1 << any_fmt.n
        W = scrub(any_fmt, rng.integers(0, hi, size=(4, 11), dtype=np.uint32))
        X = scrub(any_fmt, rng.integers(0, hi, size=(6, 11), dtype=np.uint32))
        B = scrub(any_fmt, rng.integers(0, hi, size=(4,), dtype=np.uint32))
        out = engine.dot(W, X, B)
        assert out.shape == (6, 4) and out.dtype == np.uint32
        for i in range(6):
            for o in range(4):
                expect = emac.dot(
                    [int(w) for w in W[o]],
                    [int(x) for x in X[i]],
                    bias_bits=int(B[o]),
                )
                assert int(out[i, o]) == expect, (any_fmt, i, o)

    def test_no_bias(self, any_fmt, rng):
        engine = engine_for(any_fmt)
        emac = scalar_emac_for(any_fmt)
        hi = 1 << any_fmt.n
        W = scrub(any_fmt, rng.integers(0, hi, size=(3, 7), dtype=np.uint32))
        X = scrub(any_fmt, rng.integers(0, hi, size=(2, 7), dtype=np.uint32))
        out = engine.dot(W, X)
        for i in range(2):
            for o in range(3):
                expect = emac.dot([int(w) for w in W[o]], [int(x) for x in X[i]])
                assert int(out[i, o]) == expect

    def test_fan_in_one(self, any_fmt, rng):
        engine = engine_for(any_fmt)
        emac = scalar_emac_for(any_fmt)
        hi = 1 << any_fmt.n
        W = scrub(any_fmt, rng.integers(0, hi, size=(2, 1), dtype=np.uint32))
        X = scrub(any_fmt, rng.integers(0, hi, size=(3, 1), dtype=np.uint32))
        out = engine.dot(W, X)
        for i in range(3):
            for o in range(2):
                assert int(out[i, o]) == emac.dot([int(W[o, 0])], [int(X[i, 0])])

    def test_chunking_boundary(self, rng, monkeypatch):
        """Results must not depend on the batch chunk size."""
        from repro.formats import network

        fmt = standard_format(8, 1)
        engine = engine_for(fmt)
        W = scrub(fmt, rng.integers(0, 256, size=(3, 9), dtype=np.uint32))
        X = scrub(fmt, rng.integers(0, 256, size=(10, 9), dtype=np.uint32))
        full = engine.dot(W, X)
        monkeypatch.setattr(network, "_CHUNK_ELEMENTS", 30)  # 2-row chunks
        chunked = engine.dot(W, X)
        assert np.array_equal(full, chunked)

    def test_all_zero_inputs(self, any_fmt):
        engine = engine_for(any_fmt)
        W = np.zeros((2, 4), dtype=np.uint32)
        X = np.zeros((3, 4), dtype=np.uint32)
        out = engine.dot(W, X)
        assert np.all(out == 0)

    def test_extreme_patterns(self, any_fmt):
        """All-maxpos inputs: saturation behaviour must match scalar."""
        engine = engine_for(any_fmt)
        emac = scalar_emac_for(any_fmt)
        from repro.posit.format import PositFormat

        mx = (
            any_fmt.maxpos_pattern
            if isinstance(any_fmt, PositFormat)
            else (1 << (any_fmt.n - 1)) - 1
        )
        W = np.full((1, 8), mx, dtype=np.uint32)
        X = np.full((1, 8), mx, dtype=np.uint32)
        W = scrub(any_fmt, W)
        X = scrub(any_fmt, X)
        out = engine.dot(W, X)
        assert int(out[0, 0]) == emac.dot(
            [int(w) for w in W[0]], [int(x) for x in X[0]]
        )


class TestValidation:
    def test_shape_checks(self):
        engine = engine_for(standard_format(8, 1))
        with pytest.raises(ValueError):
            engine.dot(np.zeros((2, 3), np.uint32), np.zeros((2, 4), np.uint32))
        with pytest.raises(ValueError):
            engine.dot(np.zeros(3, np.uint32), np.zeros((2, 3), np.uint32))
        with pytest.raises(ValueError):
            engine.dot(
                np.zeros((2, 3), np.uint32),
                np.zeros((2, 3), np.uint32),
                np.zeros(3, np.uint32),
            )

    def test_nar_rejected(self):
        fmt = standard_format(8, 1)
        engine = engine_for(fmt)
        bad = np.full((1, 2), fmt.nar_pattern, dtype=np.uint32)
        with pytest.raises(ValueError):
            engine.dot(bad, np.zeros((1, 2), np.uint32))

    def test_reserved_rejected(self):
        fmt = float_format(4, 3)
        engine = engine_for(fmt)
        inf_like = np.full((1, 2), 0b01111000, dtype=np.uint32)
        with pytest.raises(ValueError):
            engine.dot(inf_like, np.zeros((1, 2), np.uint32))

    def test_fixed_point_wider_than_16_bits_rejected(self, rng):
        """Fixed-point plans support ``n <= 16``: a 17-bit network builds,
        and its first forward raises."""
        fmt = fixed_format(17, 8)
        weights = [rng.normal(size=(3, 4)), rng.normal(size=(2, 3))]
        biases = [rng.normal(size=3), rng.normal(size=2)]
        net = PositronNetwork.from_float_params(fmt, weights, biases)
        x = rng.normal(size=(2, 4))
        with pytest.raises(ValueError, match="n <= 16"):
            net.predict(x)
        with pytest.raises(ValueError, match="n <= 16"):
            net.forward_patterns(net.engine.quantize(x))
        with pytest.raises(ValueError, match="n <= 16"):
            net.engine.dot(net.layers[0].weights, net.engine.quantize(x))

    def test_out_of_range_pattern_rejected(self):
        fmt = fixed_format(8, 4)
        engine = engine_for(fmt)
        with pytest.raises(ValueError):
            engine.dot(
                np.full((1, 2), 300, dtype=np.uint32), np.zeros((1, 2), np.uint32)
            )

    @pytest.mark.parametrize(
        "fmt", [standard_format(8, 1), fixed_format(8, 4)], ids=str
    )
    @pytest.mark.parametrize(
        "bad", [1 << 32 | 24, 1.7], ids=["wrapping-int64", "float"]
    )
    @pytest.mark.parametrize("where", ["weights", "activations"])
    def test_patterns_checked_before_any_cast(self, fmt, bad, where):
        """2**32 + 24 would wrap onto pattern 24 and 1.7 truncate to 1."""
        operands = {
            "weights": np.zeros((2, 3), np.int64),
            "activations": np.zeros((4, 3), np.int64),
        }
        operands[where] = operands[where].astype(np.asarray(bad).dtype)
        operands[where][1, 2] = bad
        with pytest.raises(ValueError, match=where):
            engine_for(fmt).dot(operands["weights"], operands["activations"])


class TestUnaryOps:
    def test_relu_matches_tables(self, rng):
        fmt = standard_format(8, 1)
        engine = engine_for(fmt)
        patterns = rng.integers(0, 256, size=37, dtype=np.uint32)
        out = engine.relu(patterns)
        expect = posit_tables(fmt).relu[patterns.astype(np.int64)]
        assert np.array_equal(out, expect.astype(np.uint32))

    def test_decode_values(self):
        fmt = fixed_format(8, 4)
        engine = engine_for(fmt)
        patterns = np.array([0, 16, 0xF0], dtype=np.uint32)  # 0, 1.0, -1.0
        assert np.allclose(engine.decode_values(patterns), [0.0, 1.0, -1.0])

    def test_quantize_decode_roundtrip(self, any_fmt, rng):
        engine = engine_for(any_fmt)
        values = rng.normal(size=16)
        patterns = engine.quantize(values)
        back = engine.decode_values(patterns)
        again = engine.quantize(back)
        assert np.array_equal(patterns, again)
