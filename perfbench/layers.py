"""Per-layer spans for the traced run, recorded from outside the program.

The traced launcher (``launch.py --trace``) wraps public functions of each
layer before it starts the server or the sweep.  Every wrapped call
records one span: name, start, end, parent span, request id, and a few
counts.  Spans stay in memory and are written as one JSON file when the
process ends.  :func:`layer_metrics` turns that file into the per-layer
metrics listed in ``BENCHMARK.json``.

Nothing under ``src/`` is edited; the wrappers replace module and class
attributes in the traced process only.
"""

from __future__ import annotations

import contextvars
import inspect
import itertools
import json
import threading
import time
import weakref
from statistics import median

_SPAN = contextvars.ContextVar("bench_span", default=None)
_REQUEST = contextvars.ContextVar("bench_request", default=None)

#: Compiled words paths a layer can take (``NetworkKernel.explain()``).
PATHS = ("plane", "int64", "product", "layer")


class Tracer:
    """Collects spans in memory, appended from any thread.

    A span is a tuple ``(id, name, start_ns, end_ns, parent, request,
    extra)`` of atoms (``extra`` at most a tuple of ints), so the garbage
    collector stops tracking it and a long run's spans add no collection
    pauses to the program under test.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def wrap(self, name, fn, extra=None, root=False, request=None):
        """``fn`` traced as span ``name``.

        ``extra(args, result)`` adds a count to the span; ``root`` starts a
        span with no parent; ``request`` (a callable of the span id) sets
        the request id seen by the span and everything it calls.
        """
        spans, ids = self.spans, self._ids
        clock = time.perf_counter_ns

        def enter():
            sid = next(ids)
            parent = None if root else _SPAN.get()
            tokens = [_SPAN.set(sid)]
            if request is not None:
                tokens.append(_REQUEST.set(request(sid)))
            return sid, parent, tokens

        def leave(sid, parent, tokens, start, args, result):
            end = clock()
            rid = _REQUEST.get()
            for token in reversed(tokens):
                token.var.reset(token)
            spans.append((sid, name, start, end, parent, rid,
                          extra(args, result) if extra else None))

        if inspect.iscoroutinefunction(fn):
            async def traced(*args, **kwargs):
                sid, parent, tokens = enter()
                start, result = clock(), None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    leave(sid, parent, tokens, start, args, result)
        else:
            def traced(*args, **kwargs):
                sid, parent, tokens = enter()
                start, result = clock(), None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    leave(sid, parent, tokens, start, args, result)
        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def install_tracing(tracer: Tracer) -> None:
    """Wrap every traced layer boundary in this process."""
    import asyncio.base_events as base_events

    from repro.analysis import runner, store, sweep
    from repro.core import positron, vector
    from repro.serve import batcher, registry, server

    # Executor hops keep the caller's span and request id, so work that
    # ``_predict`` offloads (bulk parse, quantize, render) stays a child
    # of its request.
    run_in_executor = base_events.BaseEventLoop.run_in_executor

    def run_in_executor_ctx(self, executor, func, *args):
        ctx = contextvars.copy_context()
        return run_in_executor(self, executor, ctx.run, func, *args)

    base_events.BaseEventLoop.run_in_executor = run_in_executor_ctx

    # -- serve.http: a request id starts when its head arrives ----------
    Server = server.InferenceServer
    read = tracer.wrap("serve.http.read", Server._read_request, root=True)
    requests = itertools.count(1)

    async def read_request(reader):
        # A keep-alive connection idles inside read_request between
        # requests; start the span when the first byte is buffered.
        if not reader._buffer and not reader.at_eof():
            await reader._wait_for_data("read_request")
        # Set in the connection task's context, so every later span of
        # this request (dispatch, submit, write) carries the id.
        _REQUEST.set(next(requests))
        return await read(reader)

    Server._read_request = staticmethod(read_request)
    Server._write_response = staticmethod(
        tracer.wrap("serve.http.write", Server._write_response)
    )

    # -- serve.server: the predict handler (decode, route, render) ------
    Server._predict = tracer.wrap("serve.server.request", Server._predict)

    # -- serve.registry ---------------------------------------------------
    registry.ServedModel.quantize = tracer.wrap(
        "serve.registry.quantize", registry.ServedModel.quantize
    )
    registry.build_served_model = tracer.wrap(
        "serve.registry.load", registry.build_served_model
    )

    # -- serve.batcher / serve.scheduler ----------------------------------
    batcher.MicroBatcher.submit = tracer.wrap(
        "serve.batcher.submit", batcher.MicroBatcher.submit
    )
    pending_request = batcher.PendingRequest

    def tagged_pending(*args, **kwargs):
        item = pending_request(*args, **kwargs)
        item.bench_request = _REQUEST.get()
        return item

    batcher.PendingRequest = tagged_pending
    stack_batch = batcher.stack_batch
    local = threading.local()

    def stack_batch_members(batch):
        local.members = tuple(getattr(i, "bench_request", 0) for i in batch)
        return stack_batch(batch)

    batcher.stack_batch = stack_batch_members

    def batch_extra(args, _result):
        # (rows, request ids of the coalesced requests); the members
        # were noted by stack_batch on this thread just before the call.
        members, local.members = getattr(local, "members", None), None
        return int(args[1].shape[0]), members or ()

    batcher.predict_in_slices = tracer.wrap(
        "serve.batcher.batch", batcher.predict_in_slices, extra=batch_extra,
        root=True, request=lambda sid: -sid,
    )

    # -- formats.network and formats compile -------------------------------
    Network = positron.PositronNetwork
    Network.predict_patterns = tracer.wrap(
        "formats.network.predict", Network.predict_patterns,
        extra=lambda args, _r: _rows(args[1]),
    )
    seen_plans: weakref.WeakSet = weakref.WeakSet()

    def plan_extra(_args, plan):
        compiled = plan is not None and plan not in seen_plans
        if compiled:
            seen_plans.add(plan)
        return compiled

    Network.network_kernel = tracer.wrap(
        "formats.compile.network", Network.network_kernel, extra=plan_extra
    )
    Network.from_float_params = classmethod(tracer.wrap(
        "formats.compile.layers", Network.from_float_params.__func__
    ))

    # -- core.vector: every engine class that defines quantize -------------
    for cls in (vector.FixedVectorEngine, vector.TableVectorEngine):
        cls.quantize = tracer.wrap(
            "core.vector.quantize", cls.quantize,
            extra=lambda args, _r: int(getattr(args[1], "size", 1)),
        )

    # -- analysis.sweep / analysis.runner -----------------------------------
    parent = sweep.trained_model
    hits = parent.cache_info().hits

    def parent_extra(_args, _result):
        # Sequential callers only (warmups, the serial runner): a call
        # that raised the lru hit count was served from memory.
        nonlocal hits
        before, hits = hits, parent.cache_info().hits
        return hits > before

    traced_parent = tracer.wrap("analysis.sweep.parent", parent,
                                extra=parent_extra)
    sweep.trained_model = runner.trained_model = traced_parent
    sweep.evaluate_configs_batch = tracer.wrap(
        "analysis.sweep.evaluate", sweep.evaluate_configs_batch
    )
    runner.sweep_width = tracer.wrap("analysis.runner.task", runner.sweep_width)
    runner.run_sweeps = tracer.wrap("analysis.runner.run", runner.run_sweeps)

    # -- analysis.store --------------------------------------------------------
    Store = store.ArtifactStore
    hit = lambda _args, result: result is not None  # noqa: E731
    Store.load_model = tracer.wrap("analysis.store.load", Store.load_model,
                                   extra=hit)
    Store.load_result = tracer.wrap("analysis.store.load", Store.load_result,
                                    extra=hit)
    Store.save_model = tracer.wrap("analysis.store.save", Store.save_model)
    Store.save_result = tracer.wrap("analysis.store.save", Store.save_result)


def _rows(patterns) -> int:
    shape = getattr(patterns, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


# ----------------------------------------------------------------------
# Aggregation: spans -> per-layer metrics
# ----------------------------------------------------------------------
def _self_ns(children, span) -> int:
    """Span duration minus the part of it its children cover."""
    start, end = span[2], span[3]
    covered, cursor = 0, start
    for child in sorted(children.get(span[0], ()), key=lambda s: s[2]):
        lo, hi = max(child[2], cursor), min(child[3], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return end - start - covered


def _med(values, scale=1.0) -> float:
    return median(values) / scale if values else 0.0


def layer_metrics(spans: list[list], paths: list[dict],
                  server_failed: int = 0) -> dict[str, float]:
    """The per-layer metrics of one traced process (0 where a layer saw
    no calls on this workload).

    Timings are medians over spans.  ``self`` metrics subtract child
    spans; the registry, sweep-evaluate and store metrics are inclusive,
    because those functions only sequence calls whose time other layers
    report.
    """
    by_name: dict[str, list[list]] = {}
    children: dict[int, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)

    def durations(name, scale, keep=lambda s: True):
        return _med([s[3] - s[2] for s in by_name.get(name, ()) if keep(s)],
                    scale)

    def self_times(name, scale):
        return _med([_self_ns(children, s) for s in by_name.get(name, ())],
                    scale)

    batches = by_name.get("serve.batcher.batch", [])
    batch_of = {}
    for batch in batches:
        for rid in batch[6][1]:
            batch_of[rid] = batch
    waits = [
        (s[3] - s[2]) - (batch_of[s[5]][3] - batch_of[s[5]][2])
        for s in by_name.get("serve.batcher.submit", ())
        if s[5] in batch_of
    ]
    predicts = by_name.get("formats.network.predict", [])
    per_row = [_self_ns(children, s) / s[6] for s in predicts if s[6]]
    batch_ids = {b[0] for b in batches}
    batch_calls = [s[6] for s in predicts if s[4] in batch_ids]
    # Kernel calls per unit of work, so that a faster server answering
    # more requests in the same time reads the same: per /predict request
    # in the server (calls inside coalesced batches), per deployed
    # network in the sweep.
    requests = by_name.get("serve.server.request", [])
    networks = by_name.get("formats.compile.layers", [])
    if requests:
        calls_per_request = len(batch_calls) / len(requests)
    else:
        calls_per_request = len(predicts) / len(networks) if networks else 0.0
    runs = by_name.get("analysis.runner.run", [])
    loads = by_name.get("analysis.store.load", [])
    path_counts = {p: 0 for p in PATHS}
    for network in paths:
        for path in network["paths"]:
            path_counts[path] = path_counts.get(path, 0) + 1

    metrics = {
        "serve.http.read_us": durations("serve.http.read", 1e3),
        "serve.http.write_us": durations("serve.http.write", 1e3),
        "serve.server.self_us": self_times("serve.server.request", 1e3),
        "serve.registry.quantize_us": durations("serve.registry.quantize", 1e3),
        "serve.registry.load_ms": durations("serve.registry.load", 1e6),
        "serve.batcher.wait_us": _med(waits, 1e3),
        "serve.batcher.requests_per_batch": (
            sum(len(b[6][1]) for b in batches) / len(batches)
            if batches else 0.0
        ),
        "serve.batcher.rows_per_call": (
            sum(batch_calls) / len(batch_calls) if batch_calls else 0.0
        ),
        "serve.batcher.failed": float(server_failed),
        "formats.network.us_per_row": _med(per_row, 1e3),
        "formats.network.calls": calls_per_request,
        "formats.compile.layer_ms": self_times("formats.compile.layers", 1e6),
        "formats.compile.network_ms": durations(
            "formats.compile.network", 1e6, lambda s: s[6]
        ),
        "core.vector.quantize_ns": _med([
            (s[3] - s[2]) / max(1, s[6])
            for s in by_name.get("core.vector.quantize", ())
        ]),
        "analysis.sweep.evaluate_ms": durations("analysis.sweep.evaluate", 1e6),
        "analysis.sweep.parent_ms": durations(
            "analysis.sweep.parent", 1e6, lambda s: not s[6]
        ),
        "analysis.runner.overhead_ms": self_times("analysis.runner.run", 1e6),
        "analysis.store.load_ms": durations("analysis.store.load", 1e6),
        "analysis.store.save_ms": durations("analysis.store.save", 1e6),
        "analysis.store.hit_ratio": (
            sum(1 for s in loads if s[6]) / len(loads) if loads else 0.0
        ),
    }
    for path in PATHS:
        metrics[f"formats.network.path.{path}"] = float(path_counts[path])
    return metrics
