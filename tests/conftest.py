"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.fixedpoint import fixed_format
from repro.floatp import float_format
from repro.posit import standard_format

# Hypothesis profiles, chosen by HYPOTHESIS_PROFILE.  The default replays
# the same examples on every run, so a red property test reproduces; the
# slow CI job runs under "random" so exploration continues there.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("random", derandomize=False, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))


@pytest.fixture(scope="session")
def rng():
    """A session-wide deterministic RNG."""
    return np.random.default_rng(20190319)  # DATE 2019 conference date


@pytest.fixture(
    params=[(5, 0), (6, 0), (6, 1), (7, 1), (8, 0), (8, 1), (8, 2)],
    ids=lambda p: f"posit{p[0]}es{p[1]}",
    scope="session",
)
def posit_fmt(request):
    """Posit formats covering the paper's sweep range."""
    n, es = request.param
    return standard_format(n, es)


@pytest.fixture(
    params=[(2, 5), (3, 4), (4, 3), (5, 2)],
    ids=lambda p: f"float_we{p[0]}wf{p[1]}",
    scope="session",
)
def float_fmt(request):
    """8-bit float formats the paper sweeps."""
    we, wf = request.param
    return float_format(we, wf)


@pytest.fixture(
    params=[(8, 2), (8, 4), (8, 7), (6, 3), (5, 2)],
    ids=lambda p: f"fixed{p[0]}q{p[1]}",
    scope="session",
)
def fixed_fmt(request):
    """Fixed-point formats across the sweep range."""
    n, q = request.param
    return fixed_format(n, q)
