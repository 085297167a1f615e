"""Deterministic, seeded fault injection for the chaos harness.

Every resilience claim in this repo is testable because the pipeline is
bit-exact: a retried task, a re-executed batch, or a rolled-back model
must produce *bit-identical* answers, so a test can inject a fault and
assert recovery by simple equality.  This module is the injection
machinery: production code declares **injection points** by name
(:func:`register_point` + :func:`fire`), and tests or operators arm
**rules** that decide — deterministically — when a point actually fires
and what happens when it does.

Injection points currently registered across the codebase:

==================  =====================================================
``runner.task``     start of one grid task in a pool worker
``store.publish``   an artifact's temp file, fully written, pre-rename
``serve.batch``     one micro-batch execution on an executor thread
``serve.connection``  one accepted HTTP request, pre-dispatch
``client.connect``  a :class:`~repro.serve.client.ServeClient` connect
``client.send``     one client request write
``client.recv``     one client response read
``pool.worker``     a serve-pool worker process (start/ready/batch/drain)
``pool.route``      one pool manager→worker control fan-out hop
==================  =====================================================

Actions: ``kill`` (``os._exit`` — a hard process death), ``raise`` (an
exception, type named by ``exc``), ``stall`` (sleep ``stall_s``),
``truncate`` / ``corrupt`` (mutate the file named by the point's ``path``
context), ``drop`` (close the ``sock`` context if given, then raise
``ConnectionResetError``), ``half_close`` (shut down the write side of
``sock``).

Activation is either a context manager::

    with faults.inject("serve.batch", "raise", times=1):
        ...

or the ``REPRO_FAULTS`` environment variable, which is what reaches
runner pool workers through the inherited environment::

    REPRO_FAULTS='runner.task=kill:times=1:match=task=iris-5'

The spec grammar is ``point=action[:key=value]*`` clauses joined by
``;``.  Rule knobs: ``times`` (max fires, 0 = unlimited), ``after``
(skip the first N matching hits), ``every`` (then fire each Nth hit),
``p``/``seed`` (fire probability, deterministic RNG), ``match`` (a
substring the rendered context must contain), ``exc`` (exception type
for ``raise``), ``stall_s``.

Every fired fault is logged: in memory on the active injector, and — when
a trace path is configured (``REPRO_FAULT_TRACE`` or the context
manager's ``trace`` argument) — appended as a JSON line to that file.
The trace file is also how ``times`` stays bounded *across processes*: a
pool worker that killed itself cannot decrement an in-memory counter, so
the count of fires for a rule is recovered from the trace before firing
again, under an exclusive ``flock`` on the trace file held until the new
fire is appended.  See ``docs/fault-tolerance.md`` for the harness guide.
"""

from __future__ import annotations

import fcntl
import json
import os
import random
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterator, TextIO

__all__ = [
    "InjectedFault",
    "FaultRule",
    "FaultPlan",
    "FaultEvent",
    "FaultInjector",
    "register_point",
    "registered_points",
    "fire",
    "activate",
    "inject",
    "active_injector",
    "read_trace",
    "ENV_SPEC",
    "ENV_TRACE",
]

ENV_SPEC = "REPRO_FAULTS"
ENV_TRACE = "REPRO_FAULT_TRACE"


class InjectedFault(RuntimeError):
    """The default exception raised by an armed ``raise`` rule."""


#: Exception types a ``raise`` rule may name (``exc=...``); kept to a
#: closed set so a spec typo fails loudly instead of minting Exceptions.
_EXCEPTIONS: dict[str, type[BaseException]] = {
    "InjectedFault": InjectedFault,
    "RuntimeError": RuntimeError,
    "MemoryError": MemoryError,
    "OSError": OSError,
    "ConnectionError": ConnectionError,
    "ConnectionResetError": ConnectionResetError,
    "ConnectionRefusedError": ConnectionRefusedError,
    "BrokenPipeError": BrokenPipeError,
}

_ACTIONS = (
    "kill", "raise", "stall", "truncate", "corrupt", "drop", "half_close",
)

#: Injection-point registry: name -> one-line description.  ``fire`` on
#: an unregistered name raises, so a typo in production code cannot
#: silently arm nothing.
_POINTS: dict[str, str] = {}


def register_point(name: str, doc: str = "") -> str:
    """Declare an injection point (idempotent; returns the name)."""
    _POINTS[name] = doc or _POINTS.get(name, "")
    return name


def registered_points() -> dict[str, str]:
    """The registered injection points and their descriptions."""
    return dict(_POINTS)


@dataclass(frozen=True)
class FaultRule:
    """One armed fault: where it applies, when it fires, what it does."""

    point: str
    action: str
    times: int = 1  # max fires (0 = unlimited)
    after: int = 0  # skip the first ``after`` matching hits
    every: int = 1  # then fire on every ``every``-th hit
    p: float = 1.0  # fire probability per eligible hit
    seed: int = 0  # RNG seed for ``p`` (deterministic)
    match: str = ""  # substring the rendered context must contain
    exc: str = "InjectedFault"  # action=raise: exception type name
    stall_s: float = 0.05  # action=stall: sleep duration

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action '{self.action}'")
        if self.action == "raise" and self.exc not in _EXCEPTIONS:
            raise ValueError(f"unknown exception type '{self.exc}'")
        if self.times < 0 or self.after < 0 or self.every < 1:
            raise ValueError("times/after must be >= 0, every >= 1")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must be in (0, 1]")

    def render(self) -> str:
        """The spec-clause form of this rule (inverse of ``parse``)."""
        parts = [f"{self.point}={self.action}"]
        for f in fields(self):
            if f.name in ("point", "action"):
                continue
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value}")
        return ":".join(parts)


_INT_OPTIONS = {"times", "after", "every", "seed"}
_FLOAT_OPTIONS = {"p", "stall_s"}


def _parse_clause(clause: str) -> FaultRule:
    head, *options = clause.split(":")
    point, sep, action = head.partition("=")
    if not sep or not point or not action:
        raise ValueError(f"fault clause must be point=action[...]: {clause!r}")
    kwargs: dict[str, Any] = {}
    for option in options:
        key, sep, value = option.partition("=")
        if not sep:
            raise ValueError(f"fault option must be key=value: {option!r}")
        if key in _INT_OPTIONS:
            kwargs[key] = int(value)
        elif key in _FLOAT_OPTIONS:
            kwargs[key] = float(value)
        elif key in ("match", "exc"):
            kwargs[key] = value
        else:
            raise ValueError(f"unknown fault option '{key}'")
    return FaultRule(point=point, action=action, **kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of rules, parseable from a ``REPRO_FAULTS`` spec."""

    rules: tuple[FaultRule, ...]

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        clauses = [c.strip() for c in spec.split(";") if c.strip()]
        return cls(tuple(_parse_clause(c) for c in clauses))

    def render(self) -> str:
        return ";".join(rule.render() for rule in self.rules)


@dataclass
class FaultEvent:
    """One fired fault, as recorded in the injector's trace."""

    seq: int
    pid: int
    point: str
    action: str
    rule: str  # stable rule id (index:point:action within the plan)
    context: str

    def as_dict(self) -> dict:
        return {
            "seq": self.seq, "pid": self.pid, "point": self.point,
            "action": self.action, "rule": self.rule, "context": self.context,
        }


def _render_context(context: dict[str, Any]) -> str:
    """The matchable text form of a fire's context (sockets elided)."""
    return " ".join(
        f"{key}={value}"
        for key, value in sorted(context.items())
        if not isinstance(value, socket.socket)
    )


class FaultInjector:
    """Decides, per :func:`fire`, whether a rule triggers — and logs it."""

    def __init__(self, plan: FaultPlan, trace_path: str | None = None):
        self.plan = plan
        self.trace_path = trace_path
        self.events: list[FaultEvent] = []
        self._hits: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        self._rngs: dict[str, random.Random] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _rule_id(index: int, rule: FaultRule) -> str:
        return f"{index}:{rule.point}:{rule.action}"

    def fired(self, rule_id: str | None = None) -> int:
        """Fires recorded by this injector (optionally for one rule)."""
        with self._lock:
            if rule_id is None:
                return sum(self._fired.values())
            return self._fired.get(rule_id, 0)

    def _fired_everywhere(self, rule_id: str) -> int:
        """Fires for ``rule_id`` across processes sharing the trace file.

        Own fires are counted in memory; other processes' fires (e.g. a
        pool worker that ``kill``-ed itself) are recovered from the trace
        file they appended to before acting.
        """
        count = self._fired.get(rule_id, 0)
        if self.trace_path and os.path.exists(self.trace_path):
            try:
                for event in read_trace(self.trace_path):
                    if event.rule == rule_id and event.pid != os.getpid():
                        count += 1
            except OSError:
                pass
        return count

    @contextmanager
    def _trace_locked(self) -> Iterator[TextIO | None]:
        """The trace file, opened for appending under an exclusive
        ``flock`` (``None`` without a trace path).

        Held across a ``times`` budget check and the append that spends
        it: processes sharing the trace then see each other's fires, so
        two pool workers hitting a point together cannot both take the
        last fire.
        """
        if not self.trace_path:
            yield None
            return
        with open(self.trace_path, "a") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)  # released on close
            yield handle

    def decide(self, point: str, context: dict[str, Any]) -> tuple[FaultRule, str] | None:
        """The first rule that fires at this hit, if any.

        A fire is logged before it is returned, under the same trace lock
        as its ``times`` check.
        """
        text = _render_context(context)
        with self._lock:
            for index, rule in enumerate(self.plan.rules):
                if rule.point != point:
                    continue
                if rule.match and rule.match not in text:
                    continue
                rule_id = self._rule_id(index, rule)
                hits = self._hits.get(rule_id, 0) + 1
                self._hits[rule_id] = hits
                if hits <= rule.after:
                    continue
                if (hits - rule.after - 1) % rule.every != 0:
                    continue
                with self._trace_locked() as trace:
                    if (rule.times
                            and self._fired_everywhere(rule_id) >= rule.times):
                        continue
                    if rule.p < 1.0:
                        rng = self._rngs.setdefault(
                            rule_id, random.Random(rule.seed)
                        )
                        if rng.random() >= rule.p:
                            continue
                    self._fired[rule_id] = self._fired.get(rule_id, 0) + 1
                    self._log(rule_id, rule, text, trace)
                    return rule, rule_id
        return None

    def _log(self, rule_id: str, rule: FaultRule, context: str,
             trace: TextIO | None) -> FaultEvent:
        """Record a fire — durably *before* the action runs, so even an
        ``os._exit`` leaves evidence in the trace file."""
        event = FaultEvent(
            seq=len(self.events), pid=os.getpid(), point=rule.point,
            action=rule.action, rule=rule_id, context=context,
        )
        self.events.append(event)
        if trace is not None:
            trace.write(json.dumps(event.as_dict()) + "\n")
            trace.flush()
        return event


def read_trace(path: str | Path) -> list[FaultEvent]:
    """The fired-fault events appended to a trace file, in order."""
    events = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            events.append(FaultEvent(**json.loads(line)))
    return events


# ----------------------------------------------------------------------
# Activation: context-manager stack, else the environment spec.
# ----------------------------------------------------------------------
_stack: list[FaultInjector] = []
_env_injector: FaultInjector | None = None
_env_spec_seen: str | None = None


def active_injector() -> FaultInjector | None:
    """The injector ``fire`` consults: innermost context manager if any,
    else one parsed (and cached per spec string) from ``REPRO_FAULTS``."""
    global _env_injector, _env_spec_seen
    if _stack:
        return _stack[-1]
    spec = os.environ.get(ENV_SPEC)
    if not spec:
        _env_injector = None
        _env_spec_seen = None
        return None
    if spec != _env_spec_seen:
        _env_injector = FaultInjector(
            FaultPlan.parse(spec), trace_path=os.environ.get(ENV_TRACE)
        )
        _env_spec_seen = spec
    return _env_injector


@contextmanager
def activate(
    plan: FaultPlan | str, trace: str | Path | None = None
) -> Iterator[FaultInjector]:
    """Arm a plan (or spec string) for the dynamic extent of the block."""
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    injector = FaultInjector(plan, str(trace) if trace else None)
    _stack.append(injector)
    try:
        yield injector
    finally:
        _stack.remove(injector)


def inject(point: str, action: str, **options: Any):
    """Single-rule sugar: ``with faults.inject("serve.batch", "raise"):``"""
    trace = options.pop("trace", None)
    return activate(
        FaultPlan((FaultRule(point=point, action=action, **options),)),
        trace=trace,
    )


def _perform(rule: FaultRule, point: str, context: dict[str, Any]) -> None:
    if rule.action == "kill":
        os._exit(70)
    if rule.action == "raise":
        raise _EXCEPTIONS[rule.exc](f"injected fault at {point}")
    if rule.action == "stall":
        time.sleep(rule.stall_s)
        return
    if rule.action in ("truncate", "corrupt"):
        path = Path(str(context["path"]))
        data = path.read_bytes()
        if rule.action == "truncate":
            path.write_bytes(data[: len(data) // 2])
        elif data:
            # XOR a middle span so the change can never be a no-op.
            blob = bytearray(data)
            start = len(blob) // 3
            for i in range(start, min(len(blob), start + max(1, len(blob) // 8))):
                blob[i] ^= 0xFF
            path.write_bytes(bytes(blob))
        return
    sock = context.get("sock")
    if rule.action == "half_close":
        if sock is not None:
            sock.shutdown(socket.SHUT_WR)
        return
    # drop: sever the connection (if a socket was handed in) and surface
    # the reset the peer would have seen.
    if sock is not None:
        try:
            sock.close()
        except OSError:
            pass
    raise ConnectionResetError(f"injected socket drop at {point}")


def fire(point: str, **context: Any) -> None:
    """Hit an injection point.  A no-op unless an armed rule matches.

    Raises ``KeyError`` for unregistered points (typo safety).  When a
    rule fires, the event is traced first, then the action runs — so a
    ``kill`` still leaves its trace line behind for cross-process
    ``times`` accounting.
    """
    if point not in _POINTS:
        raise KeyError(f"unregistered fault injection point '{point}'")
    injector = active_injector()
    if injector is None:
        return
    decision = injector.decide(point, context)
    if decision is None:
        return
    rule, _ = decision
    _perform(rule, point, context)
