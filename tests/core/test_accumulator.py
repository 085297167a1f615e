"""Tests for the wide accumulator and limb arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.accumulator import (
    LIMB_BITS,
    ExactAccumulator,
    combine_limb_matrix,
    combine_limbs,
)


class TestExactAccumulator:
    def test_empty(self):
        acc = ExactAccumulator(-4)
        assert acc.raw == 0 and acc.count == 0
        assert acc.to_fraction() == 0

    def test_add_terms(self):
        acc = ExactAccumulator(-4)
        acc.add_term(3, -4)  # 3/16
        acc.add_term(1, 0)  # 1
        assert acc.to_fraction() == Fraction(3, 16) + 1
        assert acc.count == 2

    def test_negative_terms(self):
        acc = ExactAccumulator(-8)
        acc.add_term(-5, -8)
        assert acc.to_fraction() == Fraction(-5, 256)

    def test_term_below_lsb_rejected(self):
        acc = ExactAccumulator(-2)
        with pytest.raises(ValueError):
            acc.add_term(1, -3)

    def test_reset_preload(self):
        acc = ExactAccumulator(0)
        acc.reset(42)
        assert acc.raw == 42 and acc.count == 0

    def test_positive_lsb_exponent(self):
        acc = ExactAccumulator(3)
        acc.add_term(5, 3)
        assert acc.to_fraction() == 40

    def test_sign_and_magnitude(self):
        acc = ExactAccumulator(0)
        acc.add_term(-7, 0)
        assert acc.sign_and_magnitude() == (1, 7)
        acc.reset(9)
        assert acc.sign_and_magnitude() == (0, 9)

    def test_bits_used(self):
        acc = ExactAccumulator(0)
        acc.add_term(255, 0)
        assert acc.bits_used() == 9  # 8 magnitude bits + sign

    def test_huge_values(self):
        acc = ExactAccumulator(-100)
        acc.add_term(1, 100)  # raw becomes 1 << 200
        assert acc.raw == 1 << 200
        assert acc.to_fraction() == Fraction(2) ** 100


class TestLimbs:
    def test_combine_single(self):
        assert combine_limbs(np.array([7], dtype=np.int64)) == 7

    def test_combine_positional(self):
        limbs = np.array([1, 2, 3], dtype=np.int64)
        expected = 1 + (2 << LIMB_BITS) + (3 << (2 * LIMB_BITS))
        assert combine_limbs(limbs) == expected

    def test_combine_negative_limbs(self):
        limbs = np.array([-1, 5], dtype=np.int64)
        assert combine_limbs(limbs) == (5 << LIMB_BITS) - 1

    def test_combine_unnormalized(self):
        """Limbs may exceed the radix; combination must still be exact."""
        big = (1 << 40) + 123
        limbs = np.array([big, -big], dtype=np.int64)
        assert combine_limbs(limbs) == big - (big << LIMB_BITS)

    def test_combine_matches_python_reference(self, rng):
        for _ in range(100):
            limbs = rng.integers(-(2**45), 2**45, size=6)
            expected = sum(int(l) << (i * LIMB_BITS) for i, l in enumerate(limbs))
            assert combine_limbs(limbs) == expected

    def test_combine_matrix(self, rng):
        limbs = rng.integers(-(2**30), 2**30, size=(2, 3, 4))
        flat = combine_limb_matrix(limbs)
        assert len(flat) == 6
        assert flat[0] == combine_limbs(limbs[0, 0])
        assert flat[-1] == combine_limbs(limbs[1, 2])
