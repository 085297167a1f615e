"""Tests for the float lookup tables."""

import numpy as np
import pytest

from repro import formats
from repro.floatp import FloatP, dequantize_array, tables_for
from repro.floatp.codec import decode
from repro.floatp.format import FloatFormat, float_format

F43 = float_format(4, 3)
quantize = formats.backend_for(F43).quantize_reference


class TestTables:
    def test_cached(self):
        assert tables_for(F43) is tables_for(F43)

    def test_too_wide(self):
        with pytest.raises(ValueError):
            tables_for(FloatFormat(5, 12))

    def test_mirror_scalar_decode(self, float_fmt):
        t = tables_for(float_fmt)
        for bits in float_fmt.all_patterns():
            d = decode(float_fmt, bits)
            if d.is_reserved:
                assert t.is_reserved[bits]
                assert np.isnan(t.float_value[bits])
                continue
            assert t.sign[bits] == d.sign
            assert t.scale[bits] == d.scale
            assert t.significand[bits] == d.significand
            assert t.float_value[bits] == float(d.to_fraction())

    def test_relu_table(self, float_fmt):
        t = tables_for(float_fmt)
        for bits in float_fmt.all_patterns():
            d = decode(float_fmt, bits)
            if d.is_reserved:
                assert t.relu[bits] == 0
            elif d.sign:
                assert t.relu[bits] == 0
            else:
                assert t.relu[bits] == bits


class TestQuantizeReference:
    """The backend's encoder over float inputs, the input tables' oracle."""

    def test_matches_scalar(self, rng):
        values = rng.normal(size=64) * 10
        got = quantize(values)
        for v, bits in zip(values, got):
            assert int(bits) == FloatP.from_value(F43, float(v)).bits

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            quantize(np.array([1.0, bad]))

    def test_signed_zero_roundtrip_idempotent(self):
        """quantize(decode(p)) == p on both zero patterns; the scalar
        encoder agrees (regression: -0.0 used to re-quantize to +0)."""
        zeros = np.array([0, F43.sign_mask], dtype=np.uint32)
        back = dequantize_array(F43, zeros)
        assert np.array_equal(quantize(back), zeros)
        tiny = np.array([1e-9, -1e-9, 0.0, -0.0])
        got = quantize(tiny)
        assert np.array_equal(got, [0, F43.sign_mask, 0, F43.sign_mask])
        for v, bits in zip(tiny, got):
            assert FloatP.from_value(F43, float(v)).bits == int(bits)

    def test_dequantize_roundtrip(self, rng):
        values = rng.normal(size=32)
        patterns = quantize(values)
        back = dequantize_array(F43, patterns)
        assert np.array_equal(quantize(back), patterns)
