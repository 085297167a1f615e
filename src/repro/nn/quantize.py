"""Quantization of trained float parameters into EMAC formats.

The paper trains at 32-bit float and deploys at [5,8]-bit without
retraining; the only free knobs are the format parameters (``es`` for posit,
``we`` for float, ``q`` for fixed).  This module provides:

* fast exact-nearest quantization (:func:`quantize_nearest`), delegating to
  the registered :mod:`repro.formats` backend of any number system —
  bit-identical to the scalar RNE encoders, verified by tests;
* per-format configuration search (:func:`best_fixed_q`,
  :func:`candidate_configs`) used by the Table II / Fig. 9 sweeps.
  Candidate enumeration walks the format registry, so a newly registered
  family joins the sweeps automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import formats
from ..fixedpoint.format import FixedFormat, fixed_format

__all__ = [
    "FormatConfig",
    "quantize_nearest",
    "candidate_configs",
    "best_fixed_q",
    "quantization_mse",
]


@dataclass(frozen=True)
class FormatConfig:
    """A named numerical configuration used in the sweeps."""

    family: str  # registry family name, e.g. "posit" | "float" | "fixed"
    fmt: object

    @property
    def label(self) -> str:
        """Human-readable identifier (e.g. ``posit<8,1>``)."""
        return str(self.fmt)

    @property
    def name(self) -> str:
        """Canonical registry name (e.g. ``posit8_1``)."""
        return formats.backend_for(self.fmt).name

    @property
    def width(self) -> int:
        """Total bits."""
        return self.fmt.n


def quantize_nearest(fmt, values: np.ndarray) -> np.ndarray:
    """Quantize a float array to ``fmt`` patterns, vectorized.

    Bit-identical to the scalar encoders of every registered format family
    (floats use IEEE-style RNE, posits the paper's Algorithm-2 pattern-space
    rounding, fixed point RNE on the raw grid).  Non-finite values raise
    ``ValueError``.
    """
    return formats.backend_for(fmt).quantize_batch(values)


def quantization_mse(fmt, values: np.ndarray) -> float:
    """Mean squared error introduced by quantizing ``values`` to ``fmt``."""
    backend = formats.backend_for(fmt)
    arr = np.asarray(values, dtype=np.float64)
    back = backend.decode_batch(backend.quantize_batch(arr))
    return float(np.mean((arr - back) ** 2))


def best_fixed_q(n: int, sample_values: np.ndarray) -> FixedFormat:
    """Pick the fraction width minimizing quantization MSE on a sample.

    This mirrors the "precision-adaptable" knob of the paper's fixed-point
    EMAC: the deployment chooses the binary point that best covers the
    trained parameter distribution.
    """
    best: tuple[float, FixedFormat] | None = None
    for q in range(0, n):
        fmt = fixed_format(n, q)
        mse = quantization_mse(fmt, sample_values)
        if best is None or mse < best[0] - 1e-18:
            best = (mse, fmt)
    assert best is not None
    return best[1]


def candidate_configs(
    n: int,
    es_values: tuple[int, ...] = (0, 1, 2),
    we_values: tuple[int, ...] = (2, 3, 4, 5),
    q_values: tuple[int, ...] | None = None,
) -> list[FormatConfig]:
    """All format configurations of width ``n`` the sweeps consider.

    The paper reports best posit results at ``es in {0, 2}`` and best float
    results at ``we in {3, 4}``; the default candidate sets cover those.
    Families beyond the built-in three come straight from the registry's
    ``sweep_candidates`` hooks.
    """
    knobs = {"posit": (es_values,), "float": (we_values,), "fixed": (q_values,)}
    configs: list[FormatConfig] = []
    for family in formats.families():
        if family.sweep_candidates is None:
            continue
        args = knobs.get(family.name, ())
        configs.extend(
            FormatConfig(family.name, fmt)
            for fmt in family.sweep_candidates(n, *args)
        )
    return configs
