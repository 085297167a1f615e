"""Round tables: the library's monotone roundings as O(1) step-table lookups.

Two roundings are monotone step functions of an int64 key:

* **inputs** — float64 -> pattern (:meth:`NumericFormat.quantize_batch`),
  keyed on the float's order-preserving int64 image (``-0.0`` sits just
  below ``+0.0``, at key ``-1``);
* **quire words** — an exact single-word quire -> pattern (the plans'
  round-once stage, :mod:`repro.formats.network`), keyed on the word itself
  over the window ``|word| <= 2**62``.

A :class:`RoundTable` holds such a function's breakpoints (the least key of
every slot but the first) and each slot's pattern.  Both kinds share one
bucket index: a key's float64 image is bucketed by sign, a clipped
exponent window and its top ``m`` mantissa bits, a grid fine enough that no
bucket holds two breakpoints, so the slot is ``base[k] + (key >= bnd[k])``
— one gather and one compare per element, no binary search.

Building a table
----------------
The *anchors* are every representable value's key plus the domain's ends
and ``-1`` (the key just below zero, which splits a signed zero's two
slots).  Between consecutive anchors a rounding to nearest or toward zero
changes pattern at most once, and where it does, the family seeds the
breakpoint in closed form (:meth:`NumericFormat.round_boundaries`: posit
and float midpoints with their tie directions for ``rne``; the
representable values themselves for ``rtz``).  One oracle call on either
side of each seed confirms it, and that *proves* its gap: the oracle is
the family's one vectorized rounding, ``encode_normalized``, over
:func:`~repro.formats.quire.floats_as_quire` for inputs
(``quantize_reference``) and :func:`~repro.formats.quire.words_as_quire`
for words.  It is monotone, so ``enc(c - 1) == lower`` and
``enc(c) == upper`` pin every key of the gap, and it shares no code with
the seeds.  A gap whose seed is missing or wrong is bisected against
the oracle and proven the same way (:attr:`RoundTable.bisected` counts
them), so a family without a closed form still builds — only slower.  The
built-in families bisect nothing.
"""

from __future__ import annotations

import numpy as np

from .quire import check_rounding_mode, words_as_quire

__all__ = ["RoundTable", "input_table", "round_table"]

#: The word tables cover the single-word window ``|word| <= 2**62``.
_WORD_CAP = 1 << 62

#: Magnitude bits of a float64 viewed as int64, and the exponent field of
#: its non-finite values (every finite magnitude lies below it).
_MAG = np.int64(np.iinfo(np.int64).max)
_NON_FINITE = np.int64(0x7FF << 52)

#: Bucket depth range: the smallest ``m`` whose grid separates all
#: breakpoints wins.  It grows with the fraction width: 4-5 for the 8-bit
#: formats, up to 12 for a 16-bit posit's input table.
_KEY_MIN_M = 4
_KEY_MAX_M = 18

#: Largest bucket index (entries of ``base`` plus ``bnd``: 16 bytes each).
#: A table needing more looks up by ``searchsorted``, bit-identically.
_MAX_BUCKETS = 1 << 20

#: Elements per quantize step: the lookup's int64/float64 temporaries stay
#: cache-sized whatever the batch.
_CHUNK = 1 << 14


def _order_keys(f: np.ndarray) -> np.ndarray:
    """Order-preserving int64 image of finite float64s (``-0.0`` -> -1)."""
    bits = np.ascontiguousarray(f, dtype=np.float64).view(np.int64)
    return bits ^ ((bits >> 63) & _MAG)


def _key_floats(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_order_keys`."""
    return (keys ^ ((keys >> 63) & _MAG)).view(np.float64)


def _bucket(mag, sign, m: int, lo: int, size: int) -> np.ndarray:
    """Bucket index in ``[0, 2 * size)`` of float64 images, in place on ``mag``.

    ``mag`` holds the images' magnitude bits and ``sign`` their sign (0 or
    -1).  The top ``m`` mantissa bits below the exponent, clipped to the
    window ``[lo, lo + size)``, count up from ``size`` for positive images
    and down from ``size - 1`` for negative ones, so the index is monotone
    in the image and each bucket holds one sign.
    """
    mag >>= 52 - m
    mag -= lo
    # In place, and not np.clip, which costs ~3x as much on small arrays.
    np.maximum(mag, 0, out=mag)
    np.minimum(mag, size - 1, out=mag)
    mag ^= sign  # negative side: -1 - mag
    mag += size
    return mag


def _window(t: np.ndarray, neg: np.ndarray) -> tuple[int, int]:
    """``(lo, size)`` of the bucket window over the breakpoints' grid cells
    ``t``: clipping merges at most the lowest and the highest breakpoint of
    each sign into an edge bucket."""
    lows, highs = [], []
    for side in (t[neg], t[~neg]):
        cells = np.unique(side)
        if cells.size > 1:
            lows.append(int(cells[1]) - 1)
            highs.append(int(cells[-2]) + 1)
    lo = min(lows, default=0)
    return lo, max(highs + [lo + 1]) - lo + 1


class RoundTable:
    """A monotone step function of int64 keys as an O(1) indexed lookup.

    ``boundaries`` are the breakpoints (sorted keys: the least key of every
    slot after the first) and ``slot_patterns`` each slot's pattern, so a
    key rounds to ``slot_patterns[#{boundaries <= key}]``.  Input tables
    (``inputs=True``) take float64 values and compare them as floats —
    within one bucket, which holds one sign, float order is key order;
    word tables take int64 words.  ``bisected`` counts the gaps the build
    bisected (0 for the built-in families).

    The bucket index (:func:`_bucket` at depth ``m``) holds at most one
    breakpoint per bucket: ``base[k]`` counts the breakpoints of lower
    buckets and ``bnd[k]`` is the bucket's own (never reached where it has
    none).  Should no ``m`` up to ``_KEY_MAX_M`` separate the breakpoints
    within ``_MAX_BUCKETS`` (wide formats of huge range, such as a 16-bit
    posit with ``es = 3``), ``m`` is ``None`` and lookups binary-search the
    keys, bit-identically.
    """

    __slots__ = (
        "boundaries", "slot_patterns", "bisected", "m", "_lo", "_size",
        "_base", "_bnd",
    )

    def __init__(self, boundaries, slot_patterns, *, bisected=0, inputs=False):
        self.boundaries = boundaries
        self.slot_patterns = slot_patterns
        self.bisected = bisected
        operands = _key_floats(boundaries) if inputs else boundaries
        images = operands if inputs else boundaries.astype(np.float64)
        bits = images.view(np.int64)
        sign = bits >> 63
        self.m = self._base = self._bnd = None
        for m in range(_KEY_MIN_M, _KEY_MAX_M + 1):
            lo, size = _window((bits & _MAG) >> (52 - m), sign < 0)
            if 2 * size > _MAX_BUCKETS:
                break
            keys = _bucket(bits & _MAG, sign, m, lo, size)
            if np.unique(keys).size == keys.size:
                counts = np.bincount(keys, minlength=2 * size)
                self._base = np.cumsum(counts) - counts
                # Unused entries: +inf / INT64_MAX, never reached by a
                # finite input; a word table's callers clip the index.
                fill = np.inf if inputs else np.iinfo(np.int64).max
                self._bnd = np.full(2 * size, fill, dtype=operands.dtype)
                self._bnd[keys] = operands
                self.m, self._lo, self._size = m, lo, size
                break

    def _slots(self, cmp, mag, sign, b=None, ge=None) -> np.ndarray:
        """Slot per element: ``mag``/``sign`` of its image (clobbered) and
        the operand ``cmp`` compared against its bucket's breakpoint."""
        k = _bucket(mag, sign, self.m, self._lo, self._size)
        # mode="clip" (``k`` is in range anyway): "raise" buffers ``out``.
        idx = np.take(self._base, k, out=sign, mode="clip")
        bnd = np.take(self._bnd, k, out=b, mode="clip")
        idx += np.greater_equal(cmp, bnd, out=ge)
        return idx

    def indices(self, words: np.ndarray) -> np.ndarray:
        """Slot index per int64 word (word tables): ``#{boundaries <= word}``,
        flattened."""
        w = words.ravel()
        if self.m is None:
            return np.searchsorted(self.boundaries, w, side="right")
        bits = w.astype(np.float64).view(np.int64)
        sign = bits >> 63
        return self._slots(w, np.bitwise_and(bits, _MAG, out=bits), sign)

    def lookup(self, words: np.ndarray) -> np.ndarray:
        """Round a tensor of int64 quire words to int64 patterns."""
        return self.slot_patterns[self.indices(words)].reshape(words.shape)

    def quantize(self, values) -> np.ndarray:
        """Round float inputs to uint32 patterns (input tables).

        Any shape and real dtype; NaN and +-Inf raise ``ValueError``.
        """
        x = np.asarray(values, dtype=np.float64)
        flat = x.ravel()
        out = np.empty(flat.size, dtype=np.uint32)
        n = min(flat.size, _CHUNK)
        mag, sign = np.empty(n, np.int64), np.empty(n, np.int64)
        b, ge = np.empty(n), np.empty(n, dtype=bool)
        for start in range(0, flat.size, _CHUNK):
            f = flat[start:start + _CHUNK]
            c = f.size
            bits = f.view(np.int64)
            fm = np.bitwise_and(bits, _MAG, out=mag[:c])
            if fm.max() >= _NON_FINITE:
                raise ValueError("cannot quantize non-finite values")
            fs = np.right_shift(bits, 63, out=sign[:c])
            if self.m is None:
                keys = bits ^ (fs & _MAG)
                idx = np.searchsorted(self.boundaries, keys, side="right")
            else:
                idx = self._slots(f, fm, fs, b[:c], ge[:c])
            np.take(self.slot_patterns, idx, out=out[start:start + c],
                    mode="clip")
        return out.reshape(x.shape)

    def describe(self) -> dict:
        """Breakpoint count, bucket depth ``m`` (``None``: binary search),
        index bytes and bisected gaps."""
        index = 0 if self.m is None else self._base.nbytes + self._bnd.nbytes
        return {
            "breakpoints": int(self.boundaries.size),
            "m": self.m,
            "index_bytes": index,
            "bisected": self.bisected,
        }


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
def _midpoint(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # floor((lo + hi) / 2) without int64 overflow.
    return (lo >> 1) + (hi >> 1) + (lo & hi & 1)


def _bisect(enc, lo, hi, plo, phi) -> np.ndarray:
    """Each gap's breakpoint by binary search against the oracle ``enc``.

    Keeps ``enc(lo) == plo != enc(hi)``; the gap is proven, as a confirmed
    seed is, once ``enc(hi) == phi`` at ``hi == lo + 1``.
    """
    p_hi = phi.copy()
    while np.any(hi - lo > 1):
        mid = _midpoint(lo, hi)
        p = enc(mid)
        stay = p == plo
        lo = np.where(stay, mid, lo)
        hi = np.where(stay, hi, mid)
        p_hi = np.where(stay, p_hi, p)
    if not np.array_equal(p_hi, phi):
        raise AssertionError(
            "rounding takes a third pattern between adjacent anchors: "
            "it is not monotone, or a representable value is missing"
        )
    return hi


def _breakpoints(enc, anchors: np.ndarray, seeds: np.ndarray):
    """``(boundaries, slot_patterns, bisected)`` of the step function ``enc``.

    ``anchors`` (sorted, unique) span the domain with at most one
    breakpoint between neighbours; ``seeds`` (sorted) are candidate
    breakpoints, each tried in the gap it falls in.
    """
    p = enc(anchors)
    gap = np.flatnonzero(p[:-1] != p[1:])
    lo, hi = anchors[gap], anchors[gap + 1]
    plo, phi = p[gap], p[gap + 1]
    cut = hi.copy()
    proven = np.zeros(gap.size, dtype=bool)
    if seeds.size:
        j = np.searchsorted(seeds, lo, side="right")
        seed = seeds[np.minimum(j, seeds.size - 1)]
        tried = np.flatnonzero((j < seeds.size) & (seed <= hi))
        c = seed[tried]
        below, at = np.split(enc(np.concatenate([c - 1, c])), 2)
        ok = (below == plo[tried]) & (at == phi[tried])
        cut[tried[ok]] = c[ok]
        proven[tried[ok]] = True
    todo = np.flatnonzero(~proven)
    if todo.size:
        cut[todo] = _bisect(enc, lo[todo], hi[todo], plo[todo], phi[todo])
    return cut, np.concatenate([p[:1], phi]), int(todo.size)


def _word_keys(values, strict, lsb_exponent: int) -> np.ndarray:
    """Least word at or above (``strict``: above) each value, in quire-LSB
    units; values past the ``2**62`` window are dropped."""
    w = np.ldexp(values, -lsb_exponent)
    keep = np.abs(w) <= _WORD_CAP
    w, strict = w[keep], np.broadcast_to(strict, keep.shape)[keep]
    up = np.ceil(w)
    return up.astype(np.int64) + ((up == w) & strict)


def _build(backend, mode, enc, to_keys, ends, *, inputs=False) -> RoundTable:
    """One round table: anchors at every finite pattern value's key and at
    ``ends``, breakpoints seeded by the family and proven against ``enc``.

    ``to_keys(values, strict)`` maps values to the least key at or above
    (``strict``: above) each.
    """
    values = backend.decode_batch(np.arange(1 << backend.width, dtype=np.uint32))
    values = values[np.isfinite(values)]
    anchors = np.unique(np.concatenate([to_keys(values, False), ends]))
    bounds = backend.round_boundaries(mode)
    seeds = np.empty(0, np.int64) if bounds is None else np.unique(to_keys(*bounds))
    boundaries, slots, bisected = _breakpoints(enc, anchors, seeds)
    return RoundTable(boundaries, slots, bisected=bisected, inputs=inputs)


def input_table(backend) -> RoundTable:
    """The backend's memoized float64 -> pattern :class:`RoundTable`.

    The oracle is the backend's ``quantize_reference`` (its encoder over
    each float's exact value: round to nearest, ties as the family rounds
    them), so the table's :meth:`~RoundTable.quantize` is bit-identical to
    it for every finite float64.
    """

    def build():
        big = np.finfo(np.float64).max
        return _build(
            backend, "rne",
            lambda keys: backend.quantize_reference(_key_floats(keys)),
            lambda v, strict: _order_keys(v) + strict,
            _order_keys(np.array([-big, -0.0, big])),
            inputs=True,
        )

    return backend._memo("_input_table", build)


def round_table(backend, mode: str = "rne") -> RoundTable:
    """The backend's memoized quire-word :class:`RoundTable` for ``mode``.

    ``slot_patterns[indices(word)]`` equals
    ``encode_normalized(words_as_quire(word), mode)`` for every
    ``|word| <= 2**62`` — the window in which the plans round by table.
    """
    check_rounding_mode(mode)

    def build():
        lsb = backend.quire_lsb_exponent

        def enc(words):
            patterns = backend.encode_normalized(words_as_quire(words), mode)
            return patterns.astype(np.int64)

        # Values past the window round to patterns the edge gaps'
        # breakpoints capture; -1 splits a signed zero's -0 and +0 slots.
        return _build(
            backend, mode, enc,
            lambda v, strict: _word_keys(v, strict, lsb),
            np.array([-_WORD_CAP, -1, _WORD_CAP], dtype=np.int64),
        )

    return backend._memo(f"_round_table_{mode}", build)
