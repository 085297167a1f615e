"""Property tests for the batched round-toward-zero output stage.

``encode_from_quire_batch(..., mode="rtz")`` (and the single-word sibling)
must be bit-identical to ``truncate_scalar`` — the exact ``Fraction``
reference ``forward_scalar`` rounds with in ``"rtz"`` — for every registered
format: negatives, exact-boundary ties, signed zero, saturation, empty
batches, and both the limb and single-word entry points.  One-layer plans,
the engines and a network's ``network_kernel(mode)`` must carry the mode
through (every plan path is covered in both modes by the differential
suite in ``test_network_kernel.py``).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import formats
from repro.core import engine_for
from repro.core.accumulator import LIMB_BITS, combine_limbs
from repro.core.positron import PositronNetwork
from repro.fixedpoint import fixed_format
from repro.floatp import float_format
from repro.posit.format import standard_format

BACKENDS = [
    formats.backend_for(fmt)
    for fmt in (
        [standard_format(n, es) for n in (5, 6, 7, 8) for es in (0, 1, 2)]
        + [float_format(we, n - 1 - we) for n in (5, 6, 7, 8) for we in (2, 3, 4)]
        + [fixed_format(n, q) for n in (5, 6, 7, 8) for q in (0, n // 2, n - 1)]
    )
]


def truncate_reference(backend, limb_matrix):
    """Reference path: big-int quire + the ``Fraction`` toward-zero round."""
    lsb = Fraction(2) ** backend.quire_lsb_exponent
    return [
        backend.truncate_scalar(combine_limbs(row) * lsb)
        for row in limb_matrix.reshape(-1, limb_matrix.shape[-1])
    ]


def int_to_limbs(raw: int, num: int) -> list[int]:
    """One quire integer as ``num`` base-``2**LIMB_BITS`` limbs."""
    rest = raw if raw >= 0 else (1 << (num * LIMB_BITS)) + raw  # 2's compl.
    row = []
    for _ in range(num):
        row.append(rest & ((1 << LIMB_BITS) - 1))
        rest >>= LIMB_BITS
    if raw < 0:  # fold the sign back into the top limb
        row[-1] -= 1 << LIMB_BITS
    return row


def random_limbs(rng, rows, num_limbs, magnitude_bits):
    """Unnormalized limb rows spanning tiny to saturating quires."""
    lo = -(1 << magnitude_bits)
    limbs = rng.integers(lo, -lo, size=(rows, num_limbs), dtype=np.int64)
    limbs[:, -1] = 0  # sign-extension headroom, as the engines guarantee
    limbs[rng.random(size=rows) < 0.25, 1:] = 0
    limbs[rng.random(size=rows) < 0.1] = 0
    return limbs


@settings(max_examples=60, deadline=None)
@given(
    backend_idx=st.integers(0, len(BACKENDS) - 1),
    seed=st.integers(0, 2**31 - 1),
    num_limbs=st.integers(3, 8),
    magnitude_bits=st.integers(1, 40),
)
def test_batched_rtz_bit_identical(backend_idx, seed, num_limbs, magnitude_bits):
    backend = BACKENDS[backend_idx]
    rng = np.random.default_rng(seed)
    limbs = random_limbs(rng, rows=16, num_limbs=num_limbs, magnitude_bits=magnitude_bits)
    got = backend.encode_from_quire_batch(limbs, mode="rtz")
    assert [int(g) for g in got] == truncate_reference(backend, limbs)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_word_path_matches_limb_path_and_oracle(backend, rng):
    words = rng.integers(-(1 << 60), 1 << 60, size=64, dtype=np.int64)
    words[:6] = [0, 1, -1, 2, -(1 << 60), (1 << 60) - 1]
    got = backend.encode_from_quire_words(words, mode="rtz")
    limbs = np.array([int_to_limbs(int(w), 5) for w in words], dtype=np.int64)
    assert np.array_equal(got, backend.encode_from_quire_batch(limbs, mode="rtz"))
    lsb = Fraction(2) ** backend.quire_lsb_exponent
    assert [int(g) for g in got] == [
        backend.truncate_scalar(int(w) * lsb) for w in words
    ]


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_exact_values_idempotent_in_both_modes(backend):
    """A quire holding an exactly representable value rounds to its own
    pattern under RNE *and* RTZ (truncation of an exact value is a no-op)."""
    patterns = np.arange(1 << backend.width, dtype=np.uint32)
    values = backend.decode_batch(patterns)
    lsb = Fraction(2) ** backend.quire_lsb_exponent
    keep, quires = [], []
    for p, v in zip(patterns, values):
        if not np.isfinite(v):
            continue  # NaR / reserved
        if v == 0 and p != 0:
            continue  # float signed zero: canonicalizes to +0
        units = Fraction(float(v)) / lsb
        assert units.denominator == 1, "format value off the quire grid"
        keep.append(int(p))
        quires.append(int(units))
    num = max(5, max(abs(q).bit_length() for q in quires) // LIMB_BITS + 2)
    limbs = np.array([int_to_limbs(q, num) for q in quires], dtype=np.int64)
    for mode in ("rne", "rtz"):
        got = backend.encode_from_quire_batch(limbs, mode=mode)
        assert [int(g) for g in got] == keep


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_boundary_ties_match_oracle(backend):
    """Quires at (and one ULP either side of) exact midpoints between
    adjacent representable magnitudes: RNE and RTZ both match their scalar
    references, including the negated quires."""
    patterns = np.arange(1 << backend.width, dtype=np.uint32)
    values = backend.decode_batch(patterns)
    finite = values[np.isfinite(values)]
    mags = np.unique(np.abs(finite[finite != 0]))[:12]  # the dense bottom end
    lsb = Fraction(2) ** backend.quire_lsb_exponent
    quires = [0, 1, -1]
    for lo, hi in zip(mags, mags[1:]):
        mid2 = (Fraction(float(lo)) + Fraction(float(hi))) / lsb  # 2 * midpoint
        assert mid2.denominator == 1
        mid2 = int(mid2)
        if mid2 % 2 == 0:  # the midpoint sits on the quire grid: a real tie
            quires.extend([mid2 // 2, -(mid2 // 2)])
        for delta in (-1, 0, 1):  # straddle the boundary either way
            quires.extend([(mid2 + delta) // 2, -((mid2 + delta) // 2)])
    num = max(5, max(abs(q).bit_length() for q in quires) // LIMB_BITS + 2)
    limbs = np.array([int_to_limbs(q, num) for q in quires], dtype=np.int64)
    rtz = backend.encode_from_quire_batch(limbs, mode="rtz")
    assert [int(g) for g in rtz] == truncate_reference(backend, limbs)
    rne = backend.encode_from_quire_batch(limbs, mode="rne")
    assert [int(g) for g in rne] == [
        backend.encode_from_quire_scalar(int(q)) for q in quires
    ]


def test_posit_tie_truncates_down_where_rne_rounds_even():
    """posit8_0: the midpoint between two patterns truncates to the smaller
    magnitude while RNE picks the even pattern — the modes must diverge."""
    backend = formats.get("posit8_0")
    # Patterns 0x40 (1.0) and 0x41 (1.03125): midpoint 1.015625.
    lsb = Fraction(2) ** backend.quire_lsb_exponent
    mid = Fraction(65, 64) / lsb
    assert mid.denominator == 1
    limbs = np.array([int_to_limbs(int(mid), 6)], dtype=np.int64)
    assert int(backend.encode_from_quire_batch(limbs, mode="rtz")[0]) == 0x40
    assert int(backend.encode_from_quire_batch(limbs, mode="rne")[0]) == 0x40
    # One quire ULP above the midpoint rounds up under RNE, not under RTZ.
    limbs_up = np.array([int_to_limbs(int(mid) + 1, 6)], dtype=np.int64)
    assert int(backend.encode_from_quire_batch(limbs_up, mode="rtz")[0]) == 0x40
    assert int(backend.encode_from_quire_batch(limbs_up, mode="rne")[0]) == 0x41


def test_rtz_underflow_to_zero_and_posit_divergence():
    """|value| below the smallest representable truncates to zero — where
    posit RNE saturates at minpos (the standard forbids rounding to zero)."""
    posit = formats.get("posit8_1")
    limbs = np.array([int_to_limbs(1, 6), int_to_limbs(-1, 6)], dtype=np.int64)
    # quire LSB is far below minpos for posit8_1.
    assert [int(g) for g in posit.encode_from_quire_batch(limbs, mode="rtz")] == [0, 0]
    rne = posit.encode_from_quire_batch(limbs, mode="rne")
    assert int(rne[0]) == posit.fmt.minpos_pattern
    assert int(rne[1]) == (-posit.fmt.minpos_pattern) % (1 << posit.fmt.n)


def test_float_signed_zero_underflow():
    """Tiny negative quires truncate to *signed* zero for float formats."""
    backend = formats.get("float4_3")
    limbs = np.array([int_to_limbs(-1, 5), int_to_limbs(1, 5)], dtype=np.int64)
    got = backend.encode_from_quire_batch(limbs, mode="rtz")
    assert int(got[0]) == backend.fmt.sign_mask  # -0
    assert int(got[1]) == 0  # +0
    lsb = Fraction(2) ** backend.quire_lsb_exponent
    assert int(got[0]) == backend.truncate_scalar(-lsb)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_saturation(backend, rng):
    """Quires far beyond the format's range truncate to the extremes."""
    big = [(1 << 59) + 17, -(1 << 59) - 17]
    limbs = np.array([int_to_limbs(q, 5) for q in big], dtype=np.int64)
    got = backend.encode_from_quire_batch(limbs, mode="rtz")
    assert [int(g) for g in got] == truncate_reference(backend, limbs)


@pytest.mark.parametrize("backend", BACKENDS[:4], ids=lambda b: b.name)
def test_empty_batch(backend):
    empty = np.zeros((0, 5), dtype=np.int64)
    assert backend.encode_from_quire_batch(empty, mode="rtz").shape == (0,)
    words = np.zeros((0,), dtype=np.int64)
    assert backend.encode_from_quire_words(words, mode="rtz").shape == (0,)


def test_unknown_mode_rejected_everywhere():
    backend = formats.get("posit8_1")
    limbs = np.zeros((1, 5), dtype=np.int64)
    with pytest.raises(ValueError, match="rounding mode"):
        backend.encode_from_quire_batch(limbs, mode="up")
    with pytest.raises(ValueError, match="rounding mode"):
        backend.encode_from_quire_words(np.zeros(1, dtype=np.int64), mode="up")
    with pytest.raises(ValueError, match="rounding mode"):
        backend.compile_network(
            [(np.zeros((1, 1), dtype=np.uint32), None, "identity")],
            rounding_mode="tie",
        )
    with pytest.raises(ValueError, match="rounding mode"):
        engine_for(fixed_format(8, 4)).dot(
            np.zeros((1, 1), dtype=np.uint32),
            np.zeros((1, 1), dtype=np.uint32),
            rounding_mode="floor",
        )


# ----------------------------------------------------------------------
# One-layer plans and the engines carry the mode through
# ----------------------------------------------------------------------
def scrub(fmt, patterns):
    backend = formats.backend_for(fmt)
    p = np.asarray(patterns, dtype=np.uint32) % (1 << fmt.n)
    tables = backend.limb_tables()
    if tables is not None:
        p = np.where(tables.invalid[p.astype(np.int64)], 0, p)
    return p.astype(np.uint32)


@pytest.mark.parametrize(
    "fmt",
    [
        standard_format(6, 0),
        standard_format(8, 1),
        float_format(4, 3),
        fixed_format(8, 4),
        fixed_format(5, 0),
    ],
    ids=str,
)
def test_kernel_rtz_matches_scalar_oracle(fmt, rng, scalar_dot):
    backend = formats.backend_for(fmt)
    hi = 1 << fmt.n
    W = scrub(fmt, rng.integers(0, hi, size=(3, 7), dtype=np.uint32))
    X = scrub(fmt, rng.integers(0, hi, size=(5, 7), dtype=np.uint32))
    B = scrub(fmt, rng.integers(0, hi, size=(3,), dtype=np.uint32))
    plan = backend.compile_network([(W, B, "identity")], rounding_mode="rtz")
    assert plan.rounding_mode == "rtz"
    expected = scalar_dot(fmt, W, X, B, "rtz")
    assert np.array_equal(plan.forward(X), expected)
    engine = engine_for(fmt)
    assert np.array_equal(engine.dot(W, X, B, rounding_mode="rtz"), expected)


def test_network_rounding_mode_threads_through_layers(rng):
    fmt = standard_format(8, 0)
    engine = engine_for(fmt)
    weights = [rng.uniform(-1, 1, size=(4, 3)), rng.uniform(-1, 1, size=(2, 4))]
    biases = [rng.uniform(-1, 1, size=4), rng.uniform(-1, 1, size=2)]
    net = PositronNetwork.from_float_params(fmt, weights, biases)
    rtz = net.network_kernel("rtz")
    assert rtz.rounding_mode == "rtz"
    assert net.network_kernel().rounding_mode == "rne"
    # One plan per mode, cached: repeated ablation passes compile once.
    assert net.network_kernel("rtz") is rtz
    x = rng.uniform(-2, 2, size=(9, 3))
    patterns = engine.quantize(x)
    # The mode reaches every layer: the rtz plan is the rtz layer dots
    # chained through pattern ReLU.
    hidden, readout = net.layers
    expected = engine.dot(
        readout.weights,
        engine.relu(
            engine.dot(hidden.weights, patterns, hidden.bias, rounding_mode="rtz")
        ),
        readout.bias,
        rounding_mode="rtz",
    )
    assert np.array_equal(rtz.forward(patterns), expected)
    assert net.forward_patterns(patterns).shape == (9, 2)
    with pytest.raises(ValueError, match="rounding mode"):
        net.network_kernel("stochastic")
    with pytest.raises(ValueError, match="rounding mode"):
        hidden.forward_scalar(patterns[0], rounding_mode="up")
