"""The PR 1 exact dot product, kept as the engine guard's baseline.

Before the fused network plans (``repro.formats.network``), every exact dot
product of a table-driven format ran this nest: each pattern's exact
aligned value ``(-1)**sign * sig << shift`` is decomposed into signed
base-``2**LIMB_BITS`` digits, one float64 matmul runs per ``(l, m)``
digit-plane pair, ``limbs[b, o, k] = sum_{l+m=k} (A_m @ W_l.T)``, and the
limb tensor is rounded once by the backend's ``encode_from_quire_batch``.

``bench_engine_throughput.py`` times a network forward on it beside the
fused plan, and ``check_engine_regression.py`` guards the ratio of the
two.  ``tests/formats/test_kernels.py`` loads this file by path and pins
:meth:`PR1Reference.dot_reference` to the scalar EMAC oracle in both
rounding modes, so the baseline stays exact.

The benches import it as ``pr1_reference`` (pytest puts ``benchmarks/``
on ``sys.path`` for them); run with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import functools

import numpy as np

from repro import formats
from repro.formats import network
from repro.formats.quire import LIMB_BITS

__all__ = ["PR1Reference", "digit_planes", "reference_for"]


def _validate_shapes(weights: np.ndarray, activations: np.ndarray, bias) -> None:
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D (out, in); got shape {weights.shape}")
    if activations.ndim != 2:
        raise ValueError(
            f"activations must be 2-D (batch, in); got shape {activations.shape}"
        )
    if weights.shape[1] != activations.shape[1]:
        raise ValueError(
            f"fan-in mismatch: weights {weights.shape} vs activations "
            f"{activations.shape}"
        )
    if bias is not None and bias.shape != (weights.shape[0],):
        raise ValueError(f"bias must have shape ({weights.shape[0]},)")


def _limb_sizing(tables: formats.LimbTables) -> tuple[int, int]:
    """``(sig_bits, max_shift)`` of the valid patterns.

    ``sig_bits`` is the aligned significand width, the bit length of the
    largest ``|signed_sig|``; ``max_shift`` the largest product shift
    ``shift_w + shift_a``, twice the largest ``shift``.
    """
    valid = ~tables.invalid
    sig_bits = int(np.abs(tables.signed_sig[valid]).max()).bit_length()
    return sig_bits, 2 * int(tables.shift[valid].max())


def digit_planes(tables: formats.LimbTables) -> np.ndarray:
    """The signed base-``2**LIMB_BITS`` digit table of every pattern.

    Entry ``[p, l]`` is pattern ``p``'s signed digit of weight
    ``2**(LIMB_BITS * l)`` in quire-LSB units of one *input*.  Digits are
    ``< 2**LIMB_BITS`` and stored as float64 (exactly representable) so the
    digit-plane contractions run on BLAS.
    """
    sig_bits, max_shift = _limb_sizing(tables)
    sig = tables.signed_sig
    coarse, rem = np.divmod(tables.shift, LIMB_BITS)
    m = np.abs(sig) << rem  # < 2**(sig_bits + LIMB_BITS - 1), fits easily
    num = (max_shift // 2 + sig_bits) // LIMB_BITS + 2
    digits = np.zeros((sig.shape[0], num), dtype=np.int64)
    rows = np.arange(sig.shape[0])
    mask = (1 << LIMB_BITS) - 1
    for l in range((sig_bits + LIMB_BITS - 1) // LIMB_BITS + 1):
        digits[rows, coarse + l] += (m >> (LIMB_BITS * l)) & mask
    digits *= np.sign(sig)[:, None]
    return digits.astype(np.float64)


class PR1Reference:
    """The digit-plane nest over one table-driven format backend.

    The backend supplies the decode tables and the batched round-once
    output stage; this class only runs the exact limb accumulation.
    """

    def __init__(self, backend: formats.NumericFormat):
        tables = backend.limb_tables()
        if tables is None:
            raise TypeError(f"{backend.name} has no limb decode tables")
        self.backend = backend
        sig_bits, max_shift = _limb_sizing(tables)
        max_term_bits = 2 * sig_bits + LIMB_BITS
        if max_term_bits > 62:
            raise ValueError("significand products too wide for int64 limbs")
        #: Limbs per quire in the accumulation tensors.
        self.num_limbs = (max_shift + max_term_bits) // LIMB_BITS + 2
        self._tables = tables
        self._digits = digit_planes(tables)

    def _check_patterns(self, patterns: np.ndarray, what: str) -> np.ndarray:
        return formats.check_patterns(self._tables, patterns, what)

    def dot_reference(self, weights, activations, bias=None, *, rounding_mode="rne"):
        """(out, in) weights x (batch, in) activations -> (batch, out)
        patterns, each quire rounded once in ``rounding_mode``."""
        formats.check_rounding_mode(rounding_mode)
        weights = np.asarray(weights, dtype=np.uint32)
        activations = np.asarray(activations, dtype=np.uint32)
        _validate_shapes(weights, activations, bias)
        wp = self._check_patterns(weights, "weights")
        ap = self._check_patterns(activations, "activations")

        out_dim, in_dim = wp.shape
        batch = ap.shape[0]
        L = self.num_limbs
        planes = self._digits.shape[1]
        if in_dim > 1 << 20:
            raise ValueError(f"fan-in {in_dim} overflows int64 limb sums")
        # Digit products are < 2**(2*LIMB_BITS); each float64 matmul must
        # reduce few enough of them to stay exact, so huge fan-ins are fed
        # through in chunks and accumulated in int64.
        in_chunk = max(1, (1 << (53 - 2 * LIMB_BITS)) // max(1, planes))

        dig_w = self._digits[wp]  # (out, in, planes)
        dig_a = self._digits[ap]  # (batch, in, planes)
        w_live = [dig_w[:, :, l] for l in range(planes)]
        w_used = [w.any() for w in w_live]

        bias_limbs = self._bias_limbs(bias, out_dim)

        chunk = max(1, network._CHUNK_ELEMENTS // max(1, out_dim * L))
        out = np.empty((batch, out_dim), dtype=np.uint32)
        for start in range(0, batch, chunk):
            stop = min(batch, start + chunk)
            limbs = np.zeros((stop - start, out_dim, L), dtype=np.int64)
            for istart in range(0, in_dim, in_chunk):
                istop = min(in_dim, istart + in_chunk)
                limbs_f = np.zeros((stop - start, out_dim, L), dtype=np.float64)
                for m in range(planes):
                    a_plane = dig_a[start:stop, istart:istop, m]
                    if not a_plane.any():
                        continue
                    for l in range(planes):
                        if w_used[l]:
                            limbs_f[:, :, l + m] += a_plane @ w_live[l][:, istart:istop].T
                limbs += limbs_f.astype(np.int64)
            if bias_limbs is not None:
                limbs += bias_limbs[None, :, :]
            out[start:stop] = self.backend.encode_from_quire_batch(
                limbs, mode=rounding_mode
            )
        return out

    def _bias_limbs(self, bias, out_dim: int) -> np.ndarray | None:
        """Each bias pattern as quire-aligned limbs, shape (out, L)."""
        if bias is None:
            return None
        t = self._tables
        bp = self._check_patterns(np.asarray(bias, dtype=np.uint32), "bias")
        sig = t.signed_sig[bp]
        total_shift = t.shift[bp] + t.bias_extra_shift
        idx = total_shift // LIMB_BITS
        rem = total_shift - idx * LIMB_BITS
        limbs = np.zeros((out_dim, self.num_limbs), dtype=np.int64)
        limbs[np.arange(out_dim), idx] = sig << rem
        return limbs


@functools.cache
def reference_for(backend: formats.NumericFormat) -> PR1Reference:
    """The backend's :class:`PR1Reference`, built once per backend."""
    return PR1Reference(backend)
