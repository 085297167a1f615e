"""Name- and type-based registry of :class:`NumericFormat` backends.

The registry is the single dispatch point of the library: everything that
used to switch on concrete format classes (``engine_for``,
``scalar_emac_for``, the quantizers, the sweeps, the CLI) now asks the
registry instead.  A number system joins the whole stack — vector engine,
scalar EMAC, quantization, accuracy sweeps, CLI — with one
:func:`register_family` call:

    register_family(FormatFamily(
        name="posit",
        fmt_type=PositFormat,
        backend_cls=PositBackend,
        parse=_parse_posit,              # "posit8_1" / "posit<8,1>" -> fmt
        sweep_candidates=_posit_sweep,   # width -> candidate descriptors
    ))

Backends are cached per format descriptor (descriptors are frozen
dataclasses), so decode tables, digit planes, engines, and rank tables are
built once per process and shared by every consumer — sweep workers,
compiled network plans, and the serving layer's resident models alike
(safe across executor threads: plan scratch is per-thread).

``docs/formats.md`` is the authoring guide: the full backend protocol,
the small-float backend as the worked example, and what a single
``register_family`` call plugs into.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .base import NumericFormat
from .fixed_backend import FixedBackend
from .float_backend import FloatBackend
from .posit_backend import PositBackend

__all__ = [
    "FormatFamily",
    "register_family",
    "unregister_family",
    "families",
    "get",
    "backend_for",
    "available",
]


@dataclass(frozen=True)
class FormatFamily:
    """One registered number system.

    ``parse`` maps a registry name (or a human label) to a format
    descriptor, returning ``None`` when the name belongs to another family.
    ``sweep_candidates`` (optional) lists the descriptors of width ``n``
    the accuracy sweeps should consider.
    """

    name: str
    fmt_type: type
    backend_cls: type
    parse: Callable[[str], object | None]
    sweep_candidates: Callable[[int], Sequence[object]] | None = None


_FAMILIES: dict[str, FormatFamily] = {}
_BACKENDS: dict[object, NumericFormat] = {}
_BY_NAME: dict[str, NumericFormat] = {}


def register_family(family: FormatFamily) -> None:
    """Register (or replace) a number-system family."""
    if not issubclass(family.backend_cls, NumericFormat):
        raise TypeError("backend_cls must subclass NumericFormat")
    _FAMILIES[family.name] = family
    # Drop stale cached backends in case a family is being replaced.  The
    # name memo is order-sensitive (families parse in registration order),
    # so it is flushed wholesale.
    for fmt in [f for f, b in _BACKENDS.items() if b.family == family.name]:
        del _BACKENDS[fmt]
    _BY_NAME.clear()


def unregister_family(name: str) -> None:
    """Remove a family (used by tests registering throwaway formats)."""
    family = _FAMILIES.pop(name, None)
    if family is not None:
        for fmt in [f for f, b in _BACKENDS.items() if b.family == name]:
            del _BACKENDS[fmt]
        _BY_NAME.clear()


def families() -> tuple[FormatFamily, ...]:
    """All registered families, in registration order."""
    return tuple(_FAMILIES.values())


def backend_for(fmt: object) -> NumericFormat:
    """The (cached) backend wrapping a format descriptor."""
    backend = _BACKENDS.get(fmt)
    if backend is not None:
        return backend
    # Exact type match first so a family whose descriptor subclasses another
    # family's descriptor is not shadowed by its parent.
    chosen = None
    for family in _FAMILIES.values():
        if type(fmt) is family.fmt_type:
            chosen = family
            break
        if chosen is None and isinstance(fmt, family.fmt_type):
            chosen = family
    if chosen is not None:
        backend = chosen.backend_cls(fmt)
        _BACKENDS[fmt] = backend
        return backend
    known = ", ".join(_FAMILIES) or "<none>"
    raise TypeError(
        f"no registered format family for {type(fmt).__name__} "
        f"(registered: {known})"
    )


def get(name: str) -> NumericFormat:
    """Resolve a registry name (``posit8_1``) or label (``posit<8,1>``).

    Raises ``KeyError`` both for names no family recognizes and for names a
    family parses but whose parameters its descriptor rejects, so callers
    have a single error contract.  Resolutions are memoized per name key
    (on top of the per-descriptor backend cache), so hot by-name paths —
    sweep config enumeration, CLI, pool workers — skip re-parsing.
    """
    cached = _BY_NAME.get(name)
    if cached is not None:
        return cached
    for family in _FAMILIES.values():
        try:
            fmt = family.parse(name)
        except ValueError as exc:
            raise KeyError(f"invalid format name {name!r}: {exc}") from exc
        if fmt is not None:
            backend = backend_for(fmt)
            _BY_NAME[name] = backend
            return backend
    known = ", ".join(_FAMILIES) or "<none>"
    raise KeyError(f"unknown format name {name!r} (registered families: {known})")


def available(widths: Sequence[int] = (5, 6, 7, 8)) -> list[str]:
    """Canonical names of every sweep candidate at the given widths."""
    names = []
    for n in widths:
        for family in _FAMILIES.values():
            if family.sweep_candidates is None:
                continue
            names.extend(backend_for(fmt).name for fmt in family.sweep_candidates(n))
    return names


# ----------------------------------------------------------------------
# Built-in families
# ----------------------------------------------------------------------
def _two_int_parser(prefix: str) -> Callable[[str], tuple[int, int] | None]:
    pattern = re.compile(
        rf"^{prefix}(?:(\d+)_(\d+)|<(\d+),(\d+)>)$"
    )

    def parse(name: str) -> tuple[int, int] | None:
        m = pattern.match(name)
        if m is None:
            return None
        a, b = (g for g in m.groups() if g is not None)
        return int(a), int(b)

    return parse


_parse_posit_args = _two_int_parser("posit")
_parse_fixed_args = _two_int_parser("fixed")
_FLOAT_NAME = re.compile(r"^float(?:(\d+)_(\d+)|<1,(\d+),(\d+)>)$")


def _parse_posit(name: str):
    from ..posit.format import standard_format

    args = _parse_posit_args(name)
    return None if args is None else standard_format(*args)


def _parse_float(name: str):
    from ..floatp.format import float_format

    m = _FLOAT_NAME.match(name)
    if m is None:
        return None
    we, wf = (int(g) for g in m.groups() if g is not None)
    return float_format(we, wf)


def _parse_fixed(name: str):
    from ..fixedpoint.format import fixed_format

    args = _parse_fixed_args(name)
    return None if args is None else fixed_format(*args)


def _posit_sweep(n: int, es_values: tuple[int, ...] = (0, 1, 2)):
    from ..posit.format import standard_format

    return [standard_format(n, es) for es in es_values if n - 3 - es >= 0]


def _float_sweep(n: int, we_values: tuple[int, ...] = (2, 3, 4, 5)):
    from ..floatp.format import float_format

    return [
        float_format(we, n - 1 - we)
        for we in we_values
        if n - 1 - we >= 1 and we >= 2
    ]


def _fixed_sweep(n: int, q_values: tuple[int, ...] | None = None):
    from ..fixedpoint.format import fixed_format

    qs = q_values if q_values is not None else tuple(range(0, n))
    return [fixed_format(n, q) for q in qs if 0 <= q <= n - 1]


def _register_builtins() -> None:
    from ..fixedpoint.format import FixedFormat
    from ..floatp.format import FloatFormat
    from ..posit.format import PositFormat

    register_family(
        FormatFamily(
            name="posit",
            fmt_type=PositFormat,
            backend_cls=PositBackend,
            parse=_parse_posit,
            sweep_candidates=_posit_sweep,
        )
    )
    register_family(
        FormatFamily(
            name="float",
            fmt_type=FloatFormat,
            backend_cls=FloatBackend,
            parse=_parse_float,
            sweep_candidates=_float_sweep,
        )
    )
    register_family(
        FormatFamily(
            name="fixed",
            fmt_type=FixedFormat,
            backend_cls=FixedBackend,
            parse=_parse_fixed,
            sweep_candidates=_fixed_sweep,
        )
    )


_register_builtins()
