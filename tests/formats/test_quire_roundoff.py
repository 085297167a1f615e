"""Property tests: the batched quire round-off is bit-identical to the
scalar encoders for random quires, across all three formats at n in 5..8."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import formats
from repro.core.accumulator import LIMB_BITS, combine_limbs
from repro.fixedpoint import fixed_format
from repro.floatp import codec as float_codec
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


def scalar_roundoff(backend, limb_matrix):
    """Reference path: big-int quire reconstruction + scalar encode."""
    return [
        backend.encode_from_quire_scalar(combine_limbs(row))
        for row in limb_matrix.reshape(-1, limb_matrix.shape[-1])
    ]


def random_limbs(rng, rows, num_limbs, magnitude_bits):
    """Unnormalized limb rows spanning tiny to saturating quires."""
    lo = -(1 << magnitude_bits)
    limbs = rng.integers(lo, -lo, size=(rows, num_limbs), dtype=np.int64)
    limbs[:, -1] = 0  # sign-extension headroom, as the engines guarantee
    # A few rows exercise the sparse/small cases.
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
def test_batched_roundoff_bit_identical(backend_idx, seed, num_limbs, magnitude_bits):
    backend = BACKENDS[backend_idx]
    rng = np.random.default_rng(seed)
    limbs = random_limbs(rng, rows=16, num_limbs=num_limbs, magnitude_bits=magnitude_bits)
    got = backend.encode_from_quire_batch(limbs)
    expect = scalar_roundoff(backend, limbs)
    assert [int(g) for g in got] == expect


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_multi_dim_shapes(backend, rng):
    """(batch, out, L) tensors round identically to their flattened rows."""
    limbs = rng.integers(-(1 << 30), 1 << 30, size=(4, 3, 5), dtype=np.int64)
    limbs[..., -1] = 0
    got = backend.encode_from_quire_batch(limbs)
    assert got.shape == (4, 3)
    assert [int(g) for g in got.ravel()] == scalar_roundoff(backend, limbs)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_edge_quires(backend):
    """Zero, +-1 ULP, and saturating quires round like the scalar encoder."""
    L = 4
    rows = []
    for raw in (0, 1, -1, 2, -3, (1 << 59) + 1, -(1 << 59) - 1):
        row = []
        rest = raw if raw >= 0 else (1 << (L * LIMB_BITS)) + raw  # 2's compl.
        for _ in range(L):
            row.append(rest & ((1 << LIMB_BITS) - 1))
            rest >>= LIMB_BITS
        if raw < 0:  # fold the sign back into the top limb
            row[-1] -= 1 << LIMB_BITS
        rows.append(row)
    limbs = np.array(rows, dtype=np.int64)
    got = backend.encode_from_quire_batch(limbs)
    assert [int(g) for g in got] == scalar_roundoff(backend, limbs)


@pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
def test_only_a_float_zero_carries_a_sign(mode):
    """The float encoder gives a -0.0 input the sign pattern, as
    ``encode_float(-0.0)`` does; zero words and zero limbs (a cancelling
    row included) carry no sign and round to +0."""
    backend = formats.get("float4_3")
    fmt = backend.fmt
    zeros = np.array([0.0, -0.0])
    floats = formats.floats_as_quire(zeros, backend.quire_lsb_exponent)
    got = backend.encode_normalized(floats, mode)
    assert got.tolist() == [0, fmt.sign_mask] == [
        float_codec.encode_float(fmt, v) for v in zeros
    ]
    words = formats.words_as_quire(np.zeros(2, dtype=np.int64))
    assert backend.encode_normalized(words, mode).tolist() == [0, 0]
    limbs = np.array([[0] * 4, [-(1 << LIMB_BITS), 1, 0, 0]], dtype=np.int64)
    assert backend.encode_from_quire_batch(limbs, mode=mode).tolist() == [0, 0]
