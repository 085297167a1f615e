"""Shared fixtures for the benchmark harness.

Heavy artifacts (trained parent models, accuracy sweeps) are built once per
session and shared; each bench regenerates its paper table/figure, writes
the text rendering under ``results/``, and asserts the paper's qualitative
claims (orderings, crossovers, gaps) so a regression in any subsystem fails
the bench rather than silently changing the story.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def seed_roundoff_baseline(backend, limbs):
    """The seed engine's round-off inner loop, kept as the speedup baseline.

    Before the vectorized ``encode_from_quire_batch`` path landed, every
    (sample, neuron) quire was reconstructed as a Python big integer
    (``combine_limb_matrix``) and rounded by the scalar encoder.  The
    ``quire-roundoff`` benchmark group measures the new batched path against
    this, so the engine speedup stays measurable against the seed.
    """
    from repro.core.accumulator import combine_limb_matrix

    return [backend.encode_from_quire_scalar(q) for q in combine_limb_matrix(limbs)]


@pytest.fixture(scope="session")
def roundoff_baseline():
    """The seed baseline callable, handed out via fixture so benches don't
    have to import conftest as a module (fragile under importlib mode)."""
    return seed_roundoff_baseline


@pytest.fixture(scope="session")
def quire_roundoff_case():
    """(backend, limb tensor) of one bench-sized posit8 layer's quires."""
    from pr1_reference import reference_for

    from repro import formats

    backend = formats.get("posit8_1")
    rng = np.random.default_rng(7)
    num_limbs = reference_for(backend).num_limbs
    limbs = rng.integers(-(1 << 36), 1 << 36, size=(64, 16, num_limbs), dtype=np.int64)
    limbs[..., -1] = 0  # sign-extension headroom, as the engine guarantees
    limbs[rng.random(size=(64, 16)) < 0.2, 1:] = 0  # some small quires
    return backend, limbs


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benches drop their regenerated tables/figures."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def write_result(results_dir):
    """Write (and echo) one regenerated artifact."""

    def _write(name: str, text: str) -> None:
        path = results_dir / name
        path.write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}\n")

    return _write


@pytest.fixture(scope="session")
def wbc_model():
    from repro.analysis import trained_model

    return trained_model("wbc")


@pytest.fixture(scope="session")
def iris_model():
    from repro.analysis import trained_model

    return trained_model("iris")


@pytest.fixture(scope="session")
def mushroom_model():
    from repro.analysis import trained_model

    return trained_model("mushroom")
