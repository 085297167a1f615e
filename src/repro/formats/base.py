"""The ``NumericFormat`` backend protocol.

Every number system the EMAC architecture supports is wrapped in one
:class:`NumericFormat` backend that bundles, behind a uniform interface,
everything the rest of the library needs:

* **metadata** — family string, canonical registry name, label, width;
* **decode tables** (:class:`LimbTables`) feeding the compiled plans, or
  ``None`` for fixed point, whose plans run the same exact float64 GEMMs
  over its signed integers;
* **batched kernels** — ``quantize_batch`` / ``decode_batch`` /
  ``relu_batch`` and the fully vectorized ``encode_from_quire_batch``
  round-once output stage;
* **the scalar reference EMAC factory** ``make_scalar_emac``, and the
  shared vectorized engine ``engine()`` that delegates to this backend
  (both imported lazily so ``repro.formats`` never depends on
  ``repro.core`` at import time);
* **scalar reference hooks** (``encode_from_quire_scalar``,
  ``truncate_scalar``) used by property tests, microbenchmark baselines,
  and the rounding-mode ablations.

Adding a number system to the library means implementing this class and
registering it once (:func:`repro.formats.register_family`); no call site
dispatches on concrete format types anymore.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = ["LimbTables", "NumericFormat"]


@dataclass(frozen=True)
class LimbTables:
    """Per-pattern decode tables consumed by the compiled network plans.

    Indexed by bit pattern.  ``signed_sig`` is the signed aligned
    significand (the EMAC multiplier input with its sign applied) and
    ``shift`` the non-negative alignment ``scale - min_scale``; a product
    term contributes ``signed_sig_w * signed_sig_a`` at quire bit position
    ``shift_w + shift_a``.
    """

    signed_sig: np.ndarray  # int64
    shift: np.ndarray  # int64, >= 0
    invalid: np.ndarray  # bool: patterns the datapath must never see
    relu: np.ndarray  # int64 pattern map
    bias_extra_shift: int  # aligns a single input (not product) to the quire


class NumericFormat(ABC):
    """Uniform backend over one concrete number-system format descriptor."""

    #: Family identifier, e.g. ``"posit"`` — shared by all widths/configs.
    family: str

    def __init__(self, fmt: object):
        self.fmt = fmt

    # -- metadata -------------------------------------------------------
    @property
    @abstractmethod
    def name(self) -> str:
        """Canonical registry name, e.g. ``posit8_1``."""

    @property
    def label(self) -> str:
        """Human-readable identifier, e.g. ``posit<8,1>``."""
        return str(self.fmt)

    @property
    def width(self) -> int:
        """Total pattern width in bits."""
        return self.fmt.n

    @property
    @abstractmethod
    def quire_lsb_exponent(self) -> int:
        """Power-of-two weight of the exact accumulator's LSB."""

    # -- memoization ----------------------------------------------------
    def _memo(self, key: str, build):
        """Instance-level memo: backends are registry-cached per format
        key, so anything stored here is shared by every consumer."""
        value = self.__dict__.get(key)
        if value is None:
            value = self.__dict__[key] = build()
        return value

    # -- vectorized kernels ---------------------------------------------
    def limb_tables(self) -> LimbTables | None:
        """Decode tables for the compiled plans; ``None`` if not table-driven."""
        return None

    def compile_network(self, layers, *, rounding_mode="rne"):
        """Compile a layer stack into one fused network plan.

        ``layers`` is a sequence of ``(weights, bias, activation)`` triples;
        the resulting :class:`~repro.formats.network.NetworkKernel` chains
        every layer through fused round-once / pattern-ReLU / operand-gather
        epilogues and takes a fixed words path per layer (see
        :mod:`repro.formats.network`).  ``rounding_mode`` selects the
        round-once output stage: ``"rne"`` (default) or ``"rtz"`` (round
        toward zero, the truncated-EMAC ablation).  This is the only
        compile step: every exact dot product runs through such a plan.
        """
        from .network import NetworkKernel

        return NetworkKernel(self, layers, rounding_mode=rounding_mode)

    def rank_table(self) -> np.ndarray:
        """Monotone int64 rank per pattern: ``rank[p] < rank[q]`` iff
        ``value[p] < value[q]`` and equal values share a rank.

        Lets readout argmax run in pattern space (no float64 decode of the
        readout rows) with results identical to argmaxing decoded values —
        equal ranks for equal values keep tie-breaking (first index wins)
        the same.  Invalid patterns rank lowest; the datapath never emits
        them.
        """

        def build():
            values = self.decode_batch(
                np.arange(1 << self.width, dtype=np.uint32)
            )
            vals = np.where(np.isfinite(values), values, -np.inf)
            return np.searchsorted(np.unique(vals), vals).astype(np.int64)

        return self._memo("_rank_table", build)

    def quantize_batch(self, values: np.ndarray) -> np.ndarray:
        """float64 array -> nearest patterns (uint32), bit-exact RNE.

        One gather and one compare per element through the memoized input
        round table (:func:`~repro.formats.rounding.input_table`), which is
        bit-identical to :meth:`quantize_reference`.  NaN and +-Inf raise
        ``ValueError``.
        """
        from .rounding import input_table

        return input_table(self).quantize(values)

    @abstractmethod
    def quantize_reference(self, values: np.ndarray) -> np.ndarray:
        """The family's own vectorized quantizer: the oracle input round
        tables are built against, and the reference tests pin them to."""

    def round_boundaries(self, mode: str = "rne"):
        """Closed-form breakpoints of this family's rounding, or ``None``.

        ``(values, strict)``: float64 values and bool flags, one per change
        of pattern.  The least input or quire word that takes the upper
        pattern is the least one at or above its value (above it where
        ``strict``).  The round tables (:mod:`repro.formats.rounding`)
        confirm each seed with one oracle call on either side and bisect
        only the gaps no seed resolves, so seeds only buy build time.  Truncation (``rtz``) changes pattern
        exactly at the representable values in any family, so they seed it
        here; ``rne`` needs the family's own rule.
        """
        if mode != "rtz":
            return None
        values = self.decode_batch(np.arange(1 << self.width, dtype=np.uint32))
        values = values[np.isfinite(values)]
        return values, values < 0

    @abstractmethod
    def decode_batch(self, patterns: np.ndarray) -> np.ndarray:
        """Patterns -> float64 values."""

    @abstractmethod
    def relu_batch(self, patterns: np.ndarray) -> np.ndarray:
        """Elementwise ReLU on patterns (negatives -> zero pattern)."""

    @abstractmethod
    def encode_from_quire_batch(
        self, limbs: np.ndarray, *, mode: str = "rne"
    ) -> np.ndarray:
        """Round a ``(..., L)`` tensor of exact quire limbs to patterns.

        Limbs are unnormalized int64 digits of weight ``2**(i * LIMB_BITS)``
        over a quire whose LSB weighs ``2**quire_lsb_exponent``.  Returns a
        ``(...)`` uint32 pattern array, bit-identical to rounding each quire
        once with the scalar reference of the requested ``mode``: the
        scalar encoder for ``"rne"``, ``truncate_scalar`` for ``"rtz"``.
        """

    def encode_from_quire_words(
        self, words: np.ndarray, *, mode: str = "rne"
    ) -> np.ndarray:
        """Round exact *single-word* quires (int64 ``words`` of quire LSBs).

        A plan proves, per weight matrix, when every possible quire fits
        one int64 (see :mod:`repro.formats.network`); such layers skip limb
        normalization, and their round-once stage is a round table proven
        once against this method (:func:`~repro.formats.rounding.round_table`).
        The default routes through :meth:`encode_from_quire_batch`; table
        backends override it with a direct sign/magnitude encode.
        """
        words = np.asarray(words, dtype=np.int64)
        # Four limbs: |word| < 2**62 leaves the top limb as pure sign
        # extension, as normalization requires.
        limbs = np.zeros(words.shape + (4,), dtype=np.int64)
        limbs[..., 0] = words
        return self.encode_from_quire_batch(limbs, mode=mode)

    # -- scalar reference hooks -----------------------------------------
    @abstractmethod
    def encode_from_quire_scalar(self, quire: int) -> int:
        """Round one exact quire integer to a pattern (reference path)."""

    @abstractmethod
    def truncate_scalar(self, value: Fraction) -> int:
        """Round ``value`` toward zero to a pattern (ablation reference)."""

    # -- factories (lazy core imports; formats must not import core) ----
    def engine(self):
        """The shared memoized :class:`~repro.core.vector.VectorEngine`.

        The engine only delegates to this backend's batch methods and
        compiled plans, so one instance per backend serves every consumer
        in a process.
        """
        from ..core.vector import VectorEngine

        return self._memo("_engine", lambda: VectorEngine(self))

    @abstractmethod
    def make_scalar_emac(self):
        """Reference scalar EMAC for this format."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.label})"
