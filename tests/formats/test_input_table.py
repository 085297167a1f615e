"""Round tables for float inputs, and the seeded build of every round table.

``quantize_batch`` of every posit and float format looks each float up in
the backend's input round table (:mod:`repro.formats.rounding`).  One
differential property test pins it to the family ``quantize_array`` (the
table's oracle) and to the scalar encoders, over every posit and float
sweep format plus a 12-bit posit and a 12-bit float.  Draws favour the
breakpoints and their float64 neighbours and cover float64 subnormals,
signed zero, magnitudes past maxpos, float32 and integer dtypes, and 0-d,
empty and non-contiguous arrays; non-finite inputs raise in any chunk.

The build guard: every built-in table format's input table and both word
tables are seeded in closed form and bisect no gap, and a family with no
(or wrong) seeds builds the same tables through the bisection fallback.
A table too wide for its bucket index looks up by binary search, with the
same results.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import formats
from repro.floatp import codec as float_codec
from repro.floatp import tables as float_tables
from repro.formats import rounding
from repro.formats.rounding import input_table, round_table
from repro.posit import encode as posit_encode
from repro.posit import tables as posit_tables

#: Every posit and float sweep format, plus one 12-bit posit and float.
TABLE_NAMES = [
    name
    for name in formats.available()
    if formats.get(name).family in ("posit", "float")
] + ["posit12_1", "float5_6"]

#: The build guard's formats: every table format of widths 3-10, and the
#: two 12-bit ones.
GUARD_NAMES = [
    name
    for name in formats.available(widths=range(3, 11))
    if formats.get(name).family in ("posit", "float")
] + ["posit12_1", "float5_6"]

_BIG = np.finfo(np.float64).max


def family_quantize(backend, x):
    module = posit_tables if backend.family == "posit" else float_tables
    return module.quantize_array(backend.fmt, x)


def scalar_quantize(backend, v: float) -> int:
    fmt = backend.fmt
    if backend.family == "posit":
        return posit_encode.encode_fraction(fmt, Fraction(v))
    if v == 0 and np.signbit(v):
        # Fraction has no -0; -0.0 keeps its sign (quantize stays
        # idempotent over decode).
        return fmt.sign_mask
    return float_codec.encode_fraction(fmt, Fraction(v))


@lru_cache(maxsize=None)
def interesting(name: str) -> tuple[float, ...]:
    """Every breakpoint and pattern value of ``name`` and their float64
    neighbours, saturation magnitudes, signed zero and subnormals."""
    backend = formats.get(name)
    values, _ = backend.round_boundaries("rne")
    table = rounding._key_floats(input_table(backend).boundaries)
    patterns = backend.decode_batch(np.arange(1 << backend.width, dtype=np.uint32))
    patterns = patterns[np.isfinite(patterns)]
    top = float(np.abs(patterns).max())
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, _BIG, -_BIG]
    special += [s * top * f for s in (1, -1) for f in (1, 1.5, 2, 1e30)]
    pool = np.concatenate([values, table, patterns, special])
    near = [pool]
    with np.errstate(over="ignore"):  # +-max steps to +-inf, dropped below
        for direction in (np.inf, -np.inf):
            step = pool
            for _ in range(2):
                step = np.nextafter(step, direction)
                near.append(step)
    out = np.concatenate(near)
    return tuple(float(v) for v in out[np.isfinite(out)])


@st.composite
def quantize_inputs(draw):
    name = draw(st.sampled_from(TABLE_NAMES))
    dtype = draw(st.sampled_from(["float64", "float32", "int64"]))
    if dtype == "int64":
        element = st.integers(-(2**62), 2**62)
    else:
        pool = interesting(name)
        if dtype == "float32":
            top = float(np.finfo(np.float32).max)
            pool = tuple(v for v in pool if abs(v) <= top)
        element = st.one_of(
            st.sampled_from(pool),
            st.floats(
                allow_nan=False,
                allow_infinity=False,
                width=32 if dtype == "float32" else 64,
            ),
        )
    items = draw(st.lists(element, max_size=40))
    x = np.asarray(items, dtype=dtype)
    layout = draw(st.sampled_from(["1d", "2d", "0d", "strided", "transposed"]))
    if layout == "0d":
        x = np.asarray(items[0] if items else 0, dtype=dtype).reshape(())
    elif layout == "2d" and x.size % 2 == 0:
        x = x.reshape(2, -1)
    elif layout == "strided":
        x = x[::2]
    elif layout == "transposed" and x.size % 2 == 0:
        x = x.reshape(-1, 2).T
    return name, x


class TestQuantizeByTable:
    @settings(max_examples=300, deadline=None)
    @given(case=quantize_inputs())
    def test_matches_family_quantizer_and_scalar_encoders(self, case):
        name, x = case
        backend = formats.get(name)
        got = backend.quantize_batch(x)
        assert got.dtype == np.uint32 and got.shape == x.shape
        assert np.array_equal(got, family_quantize(backend, x))
        flat = np.asarray(x, dtype=np.float64).ravel()
        assert [int(p) for p in got.ravel()] == [
            scalar_quantize(backend, float(v)) for v in flat
        ]

    @pytest.mark.parametrize("name", TABLE_NAMES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_in_any_chunk(self, name, bad):
        backend = formats.get(name)
        x = np.linspace(-3, 3, 3 * rounding._CHUNK)
        for at in (0, 2 * rounding._CHUNK + 5, x.size - 1):
            y = x.copy()
            y[at] = bad
            with pytest.raises(ValueError, match="non-finite"):
                backend.quantize_batch(y)


class _Unseeded:
    """No closed form: every gap falls back to bisection."""

    def round_boundaries(self, mode="rne"):
        return None


class _Misseeded:
    """Wrong seeds: confirmation rejects them, bisection recovers."""

    def round_boundaries(self, mode="rne"):
        values, strict = super().round_boundaries(mode)
        return values * 3.0, strict


def _variant(mixin, backend):
    base = type(backend)
    return type(f"{mixin.__name__}{base.__name__}", (mixin, base), {})(backend.fmt)


TABLE_BUILDS = {
    "input": input_table,
    "rne": lambda b: round_table(b, "rne"),
    "rtz": lambda b: round_table(b, "rtz"),
}


class TestSeededBuild:
    @pytest.mark.parametrize("name", GUARD_NAMES)
    def test_builtin_tables_bisect_no_gap(self, name):
        backend = formats.get(name)
        for kind, build in TABLE_BUILDS.items():
            table = build(backend)
            assert table.bisected == 0, (name, kind)
            assert table.m is not None, (name, kind)

    @pytest.mark.parametrize("name", ["posit6_1", "posit8_2", "float3_2", "float2_5"])
    @pytest.mark.parametrize("mixin", [_Unseeded, _Misseeded])
    def test_bisection_fallback_builds_identical_tables(self, name, mixin):
        seeded = formats.get(name)
        fallback = _variant(mixin, seeded)
        for kind, build in TABLE_BUILDS.items():
            want, got = build(seeded), build(fallback)
            assert np.array_equal(got.boundaries, want.boundaries), kind
            assert np.array_equal(got.slot_patterns, want.slot_patterns), kind
            if mixin is _Unseeded:
                assert got.bisected == got.boundaries.size > 0, kind
            else:
                assert got.bisected > 0, kind

    @pytest.mark.parametrize("name", ["posit8_1", "float2_5"])
    def test_binary_search_fallback_is_bit_identical(self, name, monkeypatch):
        """A table whose bucket index would not fit looks up by binary
        search, with the same results."""
        monkeypatch.setattr(rounding, "_MAX_BUCKETS", 16)
        seeded = formats.get(name)
        fresh = type(seeded)(seeded.fmt)
        rng = np.random.default_rng(5)
        x = np.concatenate([
            np.asarray(interesting(name)), rng.normal(0, 30, 5000),
        ])
        table = input_table(fresh)
        assert table.m is None and table.describe()["index_bytes"] == 0
        assert np.array_equal(table.quantize(x), seeded.quantize_reference(x))
        for mode in ("rne", "rtz"):
            words = round_table(fresh, mode)
            assert words.m is None
            w = np.concatenate([
                words.boundaries, words.boundaries - 1,
                rng.integers(-(2**40), 2**40, 5000),
            ])
            assert np.array_equal(
                words.lookup(w),
                seeded.encode_from_quire_words(w, mode=mode).astype(np.int64),
            )
