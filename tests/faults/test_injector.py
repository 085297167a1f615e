"""The chaos harness itself: spec grammar, determinism, and actions.

Everything here is about the *injection machinery*, not the systems it
breaks — those live in ``tests/analysis/test_resilience.py``,
``tests/serve/test_resilience.py``, and the slow ``tests/chaos`` suite.
The harness must be deterministic (same spec, same seed, same fire
pattern) or none of the recovery tests downstream mean anything.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import threading

import pytest

from repro import faults
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
)

POINT = faults.register_point("test.point", "a point for harness tests")
OTHER = faults.register_point("test.other", "a second point")


def _race_for_one_fire(trace_dir: str, rounds: int, barrier) -> None:
    """Worker body: each round, hit a ``times=1`` rule on that round's
    shared trace the moment every process is released together."""
    for round_index in range(rounds):
        trace = os.path.join(trace_dir, f"round-{round_index}.jsonl")
        with faults.inject(POINT, "stall", stall_s=0.0, times=1, trace=trace):
            barrier.wait(timeout=60.0)
            faults.fire(POINT)


class TestSpecGrammar:
    def test_single_clause(self):
        plan = FaultPlan.parse("runner.task=kill")
        assert plan.rules == (FaultRule(point="runner.task", action="kill"),)

    def test_options_are_typed(self):
        plan = FaultPlan.parse(
            "serve.batch=raise:times=2:after=1:every=3:p=0.5:seed=7"
            ":match=dataset=wbc:exc=MemoryError"
        )
        (rule,) = plan.rules
        assert rule.times == 2 and rule.after == 1 and rule.every == 3
        assert rule.p == 0.5 and rule.seed == 7
        assert rule.match == "dataset=wbc"
        assert rule.exc == "MemoryError"

    def test_multiple_clauses_split_on_semicolon(self):
        plan = FaultPlan.parse(
            "runner.task=kill:times=1; store.publish=truncate"
        )
        assert [r.point for r in plan.rules] == [
            "runner.task", "store.publish",
        ]

    def test_render_round_trips(self):
        spec = "serve.batch=raise:times=2:exc=OSError;client.recv=drop"
        plan = FaultPlan.parse(spec)
        assert FaultPlan.parse(plan.render()) == plan

    @pytest.mark.parametrize("bad", [
        "no-equals-sign",
        "point=unknownaction",
        "point=raise:exc=SystemExit",  # not in the closed exception set
        "point=kill:times=-1",
        "point=kill:every=0",
        "point=kill:p=0",
        "point=kill:p=1.5",
        "point=kill:bogus=1",
        "point=kill:times",  # option without a value
    ])
    def test_bad_specs_fail_loudly(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)


class TestRegistry:
    def test_fire_on_unregistered_point_is_a_typo_error(self):
        with pytest.raises(KeyError):
            faults.fire("no.such.point")

    def test_registered_points_include_production_points(self):
        # Importing the packages registers their points.
        import repro.analysis.runner  # noqa: F401
        import repro.serve.client  # noqa: F401
        points = faults.registered_points()
        for name in ("runner.task", "store.publish", "serve.batch",
                     "client.connect", "client.send", "client.recv"):
            assert name in points

    def test_fire_without_active_injector_is_a_noop(self):
        faults.fire(POINT, anything="goes")


class TestDecide:
    def test_times_bounds_fires(self):
        with faults.inject(POINT, "raise", times=2) as injector:
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    faults.fire(POINT)
            faults.fire(POINT)  # third hit: rule exhausted
        assert injector.fired() == 2

    def test_times_zero_is_unlimited(self):
        with faults.inject(POINT, "raise", times=0) as injector:
            for _ in range(5):
                with pytest.raises(InjectedFault):
                    faults.fire(POINT)
        assert injector.fired() == 5

    def test_after_skips_early_hits(self):
        with faults.inject(POINT, "raise", after=2, times=0) as injector:
            faults.fire(POINT)
            faults.fire(POINT)
            with pytest.raises(InjectedFault):
                faults.fire(POINT)
        assert injector.fired() == 1

    def test_every_fires_periodically(self):
        fired = []
        with faults.inject(POINT, "raise", every=3, times=0):
            for i in range(9):
                try:
                    faults.fire(POINT)
                except InjectedFault:
                    fired.append(i)
        assert fired == [0, 3, 6]

    def test_match_filters_on_rendered_context(self):
        with faults.inject(
            POINT, "raise", match="task=iris-5", times=0
        ) as injector:
            faults.fire(POINT, task="wbc-5")
            with pytest.raises(InjectedFault):
                faults.fire(POINT, task="iris-5")
        assert injector.fired() == 1

    def test_probability_is_deterministic_per_seed(self):
        def pattern():
            hits = []
            with faults.inject(POINT, "raise", p=0.5, seed=42, times=0):
                for i in range(20):
                    try:
                        faults.fire(POINT)
                    except InjectedFault:
                        hits.append(i)
            return hits

        first, second = pattern(), pattern()
        assert first == second
        assert 0 < len(first) < 20  # actually probabilistic

    def test_rules_scoped_to_their_point(self):
        with faults.inject(POINT, "raise", times=0):
            faults.fire(OTHER)  # armed for POINT only
            with pytest.raises(InjectedFault):
                faults.fire(POINT)

    def test_innermost_context_wins(self):
        with faults.inject(POINT, "raise", exc="OSError", times=0):
            with faults.inject(POINT, "raise", exc="MemoryError", times=0):
                with pytest.raises(MemoryError):
                    faults.fire(POINT)
            with pytest.raises(OSError):
                faults.fire(POINT)

    def test_thread_safety_times_never_overshoots(self):
        errors = []

        def hammer():
            for _ in range(50):
                try:
                    faults.fire(POINT)
                except InjectedFault as exc:
                    errors.append(exc)

        with faults.inject(POINT, "raise", times=10) as injector:
            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(errors) == 10
        assert injector.fired() == 10


class TestEnvActivation:
    def test_env_spec_arms_rules(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, f"{POINT}=raise:times=1")
        with pytest.raises(InjectedFault):
            faults.fire(POINT)

    def test_env_injector_cached_per_spec_string(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, f"{POINT}=raise:times=1")
        first = faults.active_injector()
        assert faults.active_injector() is first
        monkeypatch.setenv(faults.ENV_SPEC, f"{POINT}=raise:times=2")
        assert faults.active_injector() is not first

    def test_no_spec_no_injector(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_SPEC, raising=False)
        assert faults.active_injector() is None

    def test_context_manager_shadows_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, f"{POINT}=raise:times=0")
        with faults.inject(POINT, "stall", stall_s=0.0):
            faults.fire(POINT)  # stall(0), not raise


class TestTrace:
    def test_events_logged_in_memory_and_to_file(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with faults.inject(
            POINT, "raise", times=2, trace=trace
        ) as injector:
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    faults.fire(POINT, task="iris-5")
        assert [e.seq for e in injector.events] == [0, 1]
        events = faults.read_trace(trace)
        assert len(events) == 2
        assert events[0].point == POINT
        assert events[0].action == "raise"
        assert "task=iris-5" in events[0].context

    def test_trace_lines_are_json(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with faults.inject(POINT, "raise", trace=trace):
            with pytest.raises(InjectedFault):
                faults.fire(POINT)
        for line in trace.read_text().splitlines():
            record = json.loads(line)
            assert record["pid"] > 0
            assert record["rule"].endswith(f":{POINT}:raise")

    def test_cross_process_fires_counted_from_trace(self, tmp_path):
        # Simulate a pool worker that fired once (different pid) and
        # died: its trace line must count against our ``times`` budget.
        trace = tmp_path / "trace.jsonl"
        plan = FaultPlan.parse(f"{POINT}=raise:times=1")
        foreign = {
            "seq": 0, "pid": 999999999, "point": POINT, "action": "raise",
            "rule": f"0:{POINT}:raise", "context": "",
        }
        trace.write_text(json.dumps(foreign) + "\n")
        injector = FaultInjector(plan, trace_path=str(trace))
        assert injector.decide(POINT, {}) is None  # budget already spent

    def test_times_budget_is_atomic_across_processes(self, tmp_path):
        """More processes than cores hit one ``times=1`` rule at a barrier,
        round after round: each round's shared trace records exactly one
        fire (the budget check and the append hold one file lock)."""
        procs = min(8, 2 * (os.cpu_count() or 1))
        rounds = 20
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(procs)
        workers = [
            ctx.Process(target=_race_for_one_fire,
                        args=(str(tmp_path), rounds, barrier))
            for _ in range(procs)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120.0)
        assert [w.is_alive() for w in workers] == [False] * procs
        assert [w.exitcode for w in workers] == [0] * procs
        fires = [
            len(faults.read_trace(tmp_path / f"round-{i}.jsonl"))
            for i in range(rounds)
        ]
        assert fires == [1] * rounds


class TestActions:
    def test_raise_maps_exception_types(self):
        with faults.inject(POINT, "raise", exc="ConnectionRefusedError"):
            with pytest.raises(ConnectionRefusedError):
                faults.fire(POINT)

    def test_stall_sleeps_then_continues(self):
        with faults.inject(POINT, "stall", stall_s=0.001) as injector:
            faults.fire(POINT)  # must not raise
        assert injector.fired() == 1

    def test_truncate_halves_the_file(self, tmp_path):
        target = tmp_path / "artifact.bin"
        target.write_bytes(b"0123456789abcdef")
        with faults.inject(POINT, "truncate"):
            faults.fire(POINT, path=str(target))
        assert target.read_bytes() == b"01234567"

    def test_corrupt_changes_bytes_keeps_length(self, tmp_path):
        target = tmp_path / "artifact.bin"
        original = bytes(range(48))
        target.write_bytes(original)
        with faults.inject(POINT, "corrupt"):
            faults.fire(POINT, path=str(target))
        mutated = target.read_bytes()
        assert len(mutated) == len(original)
        assert mutated != original

    def test_corrupt_is_never_a_noop_even_one_byte(self, tmp_path):
        target = tmp_path / "tiny.bin"
        target.write_bytes(b"\x00")
        with faults.inject(POINT, "corrupt"):
            faults.fire(POINT, path=str(target))
        assert target.read_bytes() == b"\xff"

    def test_drop_closes_socket_and_raises_reset(self):
        a, b = socket.socketpair()
        try:
            with faults.inject(POINT, "drop"):
                with pytest.raises(ConnectionResetError):
                    faults.fire(POINT, sock=a)
            assert a.fileno() == -1  # closed
        finally:
            for s in (a, b):
                try:
                    s.close()
                except OSError:
                    pass

    def test_drop_without_socket_still_raises(self):
        with faults.inject(POINT, "drop"):
            with pytest.raises(ConnectionResetError):
                faults.fire(POINT)

    def test_half_close_shuts_write_side_only(self):
        a, b = socket.socketpair()
        try:
            with faults.inject(POINT, "half_close"):
                faults.fire(POINT, sock=a)  # no exception
            assert b.recv(16) == b""  # peer sees EOF
            b.sendall(b"ping")
            assert a.recv(16) == b"ping"  # read side still open
        finally:
            a.close()
            b.close()
