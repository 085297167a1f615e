"""Tests for the posit lookup tables."""

import numpy as np
import pytest

from repro.posit import (
    Posit,
    decode,
    dequantize_array,
    quantize_array,
    tables_for,
)
from repro.posit.format import PositFormat, standard_format
from repro.posit.tables import MAX_TABLE_BITS

P8 = standard_format(8, 1)


class TestTableConstruction:
    def test_cached(self):
        assert tables_for(P8) is tables_for(P8)

    def test_too_wide_rejected(self):
        with pytest.raises(ValueError):
            tables_for(PositFormat(MAX_TABLE_BITS + 1, 1))

    def test_tables_mirror_scalar_decode(self, posit_fmt):
        t = tables_for(posit_fmt)
        for bits in posit_fmt.all_patterns():
            d = decode(posit_fmt, bits)
            if d.is_nar:
                assert t.is_nar[bits]
                assert np.isnan(t.float_value[bits])
                continue
            if d.is_zero:
                assert t.is_zero[bits]
                assert t.float_value[bits] == 0.0
                continue
            assert t.sign[bits] == d.sign
            assert t.scale[bits] == d.scale
            assert t.significand[bits] == d.significand_fixed
            assert t.float_value[bits] == float(d.to_fraction())


class TestPatternMaps:
    def test_relu_table(self, posit_fmt):
        t = tables_for(posit_fmt)
        for bits in posit_fmt.all_patterns():
            out = int(t.relu[bits])
            if bits == posit_fmt.nar_pattern:
                assert out == posit_fmt.zero_pattern
                continue
            d = decode(posit_fmt, bits)
            if d.is_zero or d.sign:
                assert out == posit_fmt.zero_pattern
            else:
                assert out == bits


class TestQuantizeArrays:
    def test_quantize_matches_scalar(self, rng):
        values = rng.normal(size=50) * 3
        got = quantize_array(P8, values)
        for v, bits in zip(values, got):
            assert int(bits) == Posit.from_value(P8, float(v)).bits

    def test_quantize_rejects_nan(self):
        with pytest.raises(ValueError):
            quantize_array(P8, np.array([np.nan]))

    def test_quantize_preserves_shape(self, rng):
        values = rng.normal(size=(3, 4))
        assert quantize_array(P8, values).shape == (3, 4)

    def test_dequantize_roundtrip(self, rng):
        values = rng.normal(size=20)
        patterns = quantize_array(P8, values)
        back = dequantize_array(P8, patterns)
        again = quantize_array(P8, back)
        assert np.array_equal(patterns, again)
