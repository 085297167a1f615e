"""Always-on inference service over plain ``asyncio.start_server``.

Stdlib-only HTTP/1.1 (no ``http.server``): a connection handler parses
request line + headers + ``Content-Length`` body, dispatches, and writes a
JSON response, keeping the connection alive between requests.  Endpoints:

==========================  =================================================
``GET  /health``            liveness + loaded-model count
``GET  /models``            loaded models, batching knobs, effective delays
``POST /warmup``            ``{"dataset", "format"}`` — load/train eagerly
``POST /predict``           ``{"dataset", "format", "inputs": [[...], ...]}``
                            (omit ``format`` to route via an A/B experiment)
``GET  /stats``             counters, batch-size histogram, p50/p99 latency
``GET  /metrics``           the same counters in Prometheus text format
``POST /swap``              ``{"dataset", "format"}`` — hot-swap the model
``POST /rollback``          ``{"dataset", "format"}`` — restore the previous
                            generation (idempotent; no-op without one)
``POST /ab`` / ``GET /ab``  configure / inspect A/B serving experiments
==========================  =================================================

When the server runs as a **pool worker** (``repro.serve.pool``) the
control endpoints (swap/ab/rollback/stats/metrics) arriving on the shared
public port are forwarded to the pool manager, which fans out / merges
across all workers; the manager's own fan-out arrives on a loopback admin
listener and is answered locally.  ``drain()`` implements the graceful
half of a rolling restart: stop accepting, finish in-flight requests,
report ``"draining"`` from ``/health``.

One :class:`~repro.serve.batcher.MicroBatcher` per served model coalesces
concurrent predict requests into stacked batches (see ``docs/serving.md``);
blocking work (model loading/training, kernel execution) runs on a small
thread pool, which the thread-local kernel scratch pools make safe.

Embedding: :func:`start_in_thread` runs a server on a background thread
with its own event loop — used by ``examples/serve_demo.py``, the load
tests, and the throughput benchmark.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .. import faults
from .ab import ABExperiment
from .batcher import MicroBatcher, ServiceClosed, check_knobs
from .http import (
    CONTROL_PATHS,
    METRICS_CONTENT_TYPE,
    HttpError,
    fetch,
    read_request,
    route,
    serve_connection,
    write_response,
)
from .registry import ModelRegistry, ServedModel
from .stats import ServeStats

__all__ = [
    "InferenceServer",
    "ServerHandle",
    "start_in_thread",
    "serve_forever",
]

#: Fires once per accepted HTTP request, pre-dispatch; ``drop`` here
#: severs the connection mid-exchange the way a flaky network would.
POINT_CONNECTION = faults.register_point(
    "serve.connection", "one accepted HTTP request, pre-dispatch"
)

#: Bodies above this parse + quantize on the executor instead of the event
#: loop, so one bulk request cannot stall health checks and coalescing
#: deadlines for everyone else.  (Quantization is elementwise, so where it
#: runs cannot change any served bit.)
_INLINE_BODY_BYTES = 64 * 1024


class InferenceServer:
    """The service: registry + per-model micro-batchers + HTTP front end."""

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 8707,
        max_batch: int = 32,
        max_delay_ms: float = 2.0,
        queue_limit: int = 256,
        executor_workers: int = 2,
        submit_timeout_s: float = 60.0,
        adaptive_delay: bool = True,
        canary_every: int = 8,
        shed_threshold: float | None = None,
        rollback_after: int = 1,
        pool_manager_port: int | None = None,
        pool_worker_index: int | None = None,
    ):
        # Fail at construction, not on the first request: these values are
        # otherwise only exercised when a batcher is built or a queue fills.
        check_knobs(dict(
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            queue_limit=queue_limit,
            executor_workers=executor_workers,
            submit_timeout_s=submit_timeout_s,
            canary_every=canary_every,
            shed_threshold=shed_threshold,
            rollback_after=rollback_after,
        ))
        self.registry = registry if registry is not None else ModelRegistry()
        self.host = host
        self.port = port
        self.max_batch = max_batch
        self.max_delay_ms = max_delay_ms
        self.queue_limit = queue_limit
        self.submit_timeout_s = submit_timeout_s
        self.adaptive_delay = bool(adaptive_delay)
        self.canary_every = int(canary_every)
        self.shed_threshold = shed_threshold
        # Canary divergences on one A/B arm before that arm is rolled
        # back to its last-known-good generation (0 disables rollback).
        self.rollback_after = int(rollback_after)
        self.stats = ServeStats()
        self._batchers: dict[str, MicroBatcher] = {}
        self._experiments: dict[str, ABExperiment] = {}
        self._rollback_events: list[dict] = []
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.base_events.Server | None = None
        self._closing = False
        self._started_at = time.monotonic()
        # -- pool-worker wiring (all inert in single-process mode) -------
        # When pooled: the manager's loopback control port (forward
        # target) and this worker's index (observability).
        self.pool_manager_port = pool_manager_port
        self.pool_worker_index = pool_worker_index
        # The loopback admin listener (pooled workers only): the
        # manager's private door for control fan-out and stats scrapes.
        self._admin_server: asyncio.base_events.Server | None = None
        self.admin_port: int | None = None
        # -- graceful drain ----------------------------------------------
        self._draining = False
        self._active_requests = 0  # requests currently in dispatch
        self._conn_writers: set = set()  # open public connections
        self._control_tasks: set = set()  # in-flight pool notifications

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (``port=0`` picks a free
        port; ``self.port`` is updated to the bound one).

        A pooled worker (``pool_manager_port`` set) binds the public port
        with ``SO_REUSEPORT``, so its siblings share it and the kernel
        spreads accepts across them (see :mod:`repro.serve.pool`).  It
        also opens a loopback admin listener on an ephemeral port — the
        manager's private address for this worker, exempt from forwarding
        and from drain's stop-accepting (the manager must still reach a
        draining worker).
        """
        pooled = self.pool_manager_port is not None
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            reuse_port=pooled or None,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if pooled:
            self._admin_server = await asyncio.start_server(
                functools.partial(self._handle_connection, local=True),
                "127.0.0.1", 0,
            )
            self.admin_port = (
                self._admin_server.sockets[0].getsockname()[1]
            )

    async def drain(self, grace_s: float = 5.0) -> None:
        """Graceful shutdown, phase one: stop accepting, finish in-flight.

        * ``/health`` flips to ``"draining"`` immediately;
        * the public listener closes (new connections go to siblings —
          under SO_REUSEPORT the kernel only picks among live listeners);
        * requests already being dispatched complete and are answered;
        * keep-alive connections are told ``Connection: close`` on their
          next response, and idle ones are closed once in-flight work is
          done (or ``grace_s`` expires).

        The admin listener stays up so the manager can watch the drain.
        Call :meth:`close` afterwards for phase two (batcher + executor
        teardown).  No request is ever executed twice: a request either
        got its response before the connection closed, or was never
        dispatched at all.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + grace_s
        while self._active_requests and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        # Whatever is left holding a connection open is idle keep-alive
        # (or past its grace): close the transports so handlers exit.
        for writer in list(self._conn_writers):
            writer.close()

    async def close(self) -> None:
        """Stop accepting, drain every batcher queue, release the executor.

        Idempotent, and ordered so an in-flight request racing shutdown
        cannot create a fresh batcher on a dead executor: ``_closing``
        flips *before* the batchers drain, and :meth:`batcher_for`
        refuses (``ServiceClosed`` -> 503) from that point on.
        """
        if self._closing:
            return
        self._closing = True
        for listener in (self._server, self._admin_server):
            if listener is not None:
                listener.close()
                await listener.wait_closed()
        if self._batchers:
            await asyncio.gather(
                *(b.close() for b in self._batchers.values())
            )
        self._executor.shutdown(wait=True)

    def batcher_for(self, model: ServedModel) -> MicroBatcher:
        """This model's batcher, created (and started) on first use.

        Raises :class:`ServiceClosed` once shutdown has begun — a late
        request must get a 503, not a fresh undrained batcher whose
        executor is already shut down.
        """
        batcher = self._batchers.get(model.key)
        if batcher is None:
            if self._closing:
                raise ServiceClosed(
                    "server is shutting down; not accepting new work"
                )
            batcher = MicroBatcher(
                model,
                max_batch=self.max_batch,
                max_delay_ms=self.max_delay_ms,
                queue_limit=self.queue_limit,
                executor=self._executor,
                stats=self.stats,
                adaptive_delay=self.adaptive_delay,
                shed_threshold=self.shed_threshold,
            )
            batcher.start()
            self._batchers[model.key] = batcher
        return batcher

    # -- HTTP plumbing --------------------------------------------------
    async def _handle_connection(self, reader, writer,
                                 local: bool = False) -> None:
        """One connection on the public listener, or on the loopback admin
        listener (``local``: trusted, never forwarded, not drained)."""
        if not local:
            self._conn_writers.add(writer)
        try:
            await serve_connection(
                reader, writer,
                functools.partial(self._dispatch, local=local),
                read=self._read_request,
                write=self._write_response,
                on_request=functools.partial(self._on_request, local=local),
                on_fault=self._count_fault,
            )
        finally:
            self._conn_writers.discard(writer)

    def _on_request(self, target: str, local: bool) -> bool:
        """Pre-dispatch: fire the connection fault point; when draining,
        answer this request and then shut the connection so the client
        reconnects to a live worker."""
        faults.fire(POINT_CONNECTION, path=target)
        return self._draining and not local

    def _count_fault(self, exc: Exception) -> None:
        # Batch-execution failures were already counted (once per batch)
        # by the batcher; don't count them again for each of the N
        # coalesced requests they fan out to.
        if not getattr(exc, "_repro_counted", False):
            self.stats.record_error()

    # The HTTP parser/renderer is shared with the pool control plane
    # (``repro.serve.http``); the loop looks these class attributes up per
    # connection, so a profiler can wrap them.
    _read_request = staticmethod(read_request)
    _write_response = staticmethod(write_response)

    # -- routing --------------------------------------------------------
    async def _forward_to_manager(self, method: str, path: str, body: bytes):
        """Proxy one control request to the pool manager (pooled workers).

        Control traffic that lands on the shared public port reaches one
        arbitrary worker; answering locally would desynchronize the pool
        (a swap applied to 1 of N registries) or under-report (one
        worker's counters).  The manager fans out / merges and its
        response is passed through verbatim, status and all.
        """
        try:
            status, data = await fetch(
                "127.0.0.1", self.pool_manager_port, method, path, body,
                timeout_s=60.0,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise HttpError(
                502, f"pool manager unreachable: {type(exc).__name__}"
            ) from None
        content_type = (
            METRICS_CONTENT_TYPE if path == "/metrics" else "application/json"
        )
        return status, data, content_type

    async def _dispatch(self, method: str, target: str, body: bytes,
                        local: bool = False):
        self._active_requests += 1
        try:
            path = route(method, target)
            if (
                self.pool_manager_port is not None
                and not local
                and path in CONTROL_PATHS
            ):
                return await self._forward_to_manager(method, path, body)
            if path == "/predict":
                return 200, await self._predict(body)
            if path == "/health":
                return 200, self._health()
            if path == "/stats":
                if local and self.pool_manager_port is not None:
                    # The manager's scrape: raw mergeable state, not the
                    # rounded snapshot (percentiles cannot be averaged).
                    return 200, self._export_worker_state()
                return 200, self.stats.snapshot()
            if path == "/metrics":
                text = self.stats.render_prometheus(**self._batcher_gauges())
                return 200, text.encode("utf-8"), METRICS_CONTENT_TYPE
            if path == "/models":
                return 200, {
                    "loaded": [m.describe() for m in self.registry.loaded()],
                    "batching": {
                        "max_batch": self.max_batch,
                        "max_delay_ms": self.max_delay_ms,
                        "queue_limit": self.queue_limit,
                        "adaptive_delay": self.adaptive_delay,
                        "shed_threshold": self.shed_threshold,
                        "rollback_after": self.rollback_after,
                        "effective_delay_ms": {
                            key: round(batcher.effective_delay_ms, 3)
                            for key, batcher in sorted(self._batchers.items())
                        },
                    },
                    "ab": self._ab_report(),
                }
            if path == "/ab" and method == "GET":
                return 200, self._ab_report()
            payload = self._json_body(body)
            if path == "/warmup":
                return 200, (await self._resolve_model(payload)).describe()
            if path == "/swap":
                return 200, await self._swap(payload)
            if path == "/rollback":
                return 200, await self._rollback_endpoint(payload)
            return 200, await self._configure_ab(payload)  # POST /ab
        finally:
            self._active_requests -= 1

    def _ab_report(self) -> dict:
        return {
            dataset: exp.describe()
            for dataset, exp in sorted(self._experiments.items())
        }

    def _batcher_gauges(self) -> dict:
        """Per-batcher queue depths and effective delays, as ``/metrics``
        renders them and the admin ``/stats`` exports them."""
        return {
            "queue_depths": {
                key: batcher.pending
                for key, batcher in self._batchers.items()
            },
            "effective_delay_ms": {
                key: round(batcher.effective_delay_ms, 6)
                for key, batcher in self._batchers.items()
            },
        }

    def _health(self) -> dict:
        """The ``/health`` body, reporting degraded states honestly.

        A future load balancer (ROADMAP item 1) keys off ``status``:
        ``ok`` means fully healthy, ``degraded`` means alive but impaired
        — some queue at its hard limit, load shedding engaged, or an
        automatic rollback on record (sticky: a rollback means a bad
        generation served divergent bits until the canary caught it, so
        it stays visible until an operator restarts or investigates).
        """
        degraded: dict = {}
        saturated = sorted(
            key for key, b in self._batchers.items() if b.saturated
        )
        shedding = sorted(
            key for key, b in self._batchers.items() if b.shedding
        )
        if saturated:
            degraded["queue_saturated"] = saturated
        if shedding:
            degraded["shedding"] = shedding
        if self.stats.rollbacks:
            degraded["rollbacks"] = self.stats.rollbacks
        if self._draining:
            status = "draining"  # alive, finishing in-flight, not accepting
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        health = {
            "status": status,
            "models_loaded": len(self.registry.loaded()),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "shed_mode": self.shed_threshold is not None,
            "degraded": degraded,
        }
        if self.pool_worker_index is not None:
            health["worker"] = self.pool_worker_index
            health["draining"] = self._draining
        return health

    def _export_worker_state(self) -> dict:
        """The admin ``/stats`` body: everything the manager needs to
        merge this worker into the pooled view."""
        return {
            "worker": self.pool_worker_index,
            "draining": self._draining,
            "state": self.stats.export_state(),
            **self._batcher_gauges(),
            "models_loaded": len(self.registry.loaded()),
        }

    @staticmethod
    def _json_body(body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise HttpError(400, "body must be a JSON object") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        return payload

    async def _model_op(self, payload: dict, op):
        """``await op(dataset, format)`` on the payload's model key.

        The one ``(dataset, format)`` check that ``/predict``, ``/warmup``,
        ``/swap`` and ``/rollback`` share: missing or non-string names, and
        names the registry does not know (its ``KeyError``), are the
        client's 400.
        """
        dataset = payload.get("dataset")
        format_name = payload.get("format")
        if not isinstance(dataset, str) or not isinstance(format_name, str):
            raise HttpError(400, "need string fields 'dataset' and 'format'")
        try:
            return await op(dataset, format_name)
        except KeyError as exc:
            raise HttpError(400, str(exc.args[0])) from None

    async def _resolve_model(self, payload: dict) -> ServedModel:
        return await self._model_op(payload, functools.partial(
            self.registry.get, executor=self._executor
        ))

    @staticmethod
    def _quantize_inputs(model: ServedModel, payload: dict) -> np.ndarray:
        raw = payload.get("inputs")
        if raw is None:
            raise HttpError(400, "missing 'inputs'")
        try:
            inputs = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):  # or a huge integer
            raise HttpError(400, "'inputs' must be a numeric array") from None
        if not np.isfinite(inputs).all():
            # json.loads accepts NaN and Infinity; the quantizer does not.
            raise HttpError(400, "'inputs' must be finite numbers")
        if inputs.ndim == 1:
            inputs = inputs[None, :]
        if inputs.ndim != 2 or inputs.shape[0] == 0:
            raise HttpError(400, "'inputs' must be (rows, features), rows >= 1")
        if inputs.shape[1] != model.num_features:
            raise HttpError(
                400,
                f"{model.dataset} expects {model.num_features} features, "
                f"got {inputs.shape[1]}",
            )
        return model.quantize(inputs)

    # -- model lifecycle operations (hot-swap, A/B) ---------------------
    async def _swap(self, payload: dict) -> dict:
        """``POST /swap``: rebuild one served model and switch to it.

        The registry entry is replaced atomically, the live batcher (if
        one exists) flips to the new network between batches, and any A/B
        arm pointing at the key follows — so the canary keeps comparing
        served output against the network that actually serves.
        """
        if self._closing:
            raise ServiceClosed("server is shutting down; cannot swap")
        model = await self._model_op(payload, functools.partial(
            self.registry.reload, executor=self._executor
        ))
        # A key no batcher has served yet is on its first generation.
        generation = self._install(model) or 1
        self.stats.record_swap()
        return {
            "swapped": model.key,
            "generation": generation,
            "model": model.describe(),
        }

    def _install(self, model: ServedModel, rollback: bool = False):
        """Serve ``model`` as its key's current generation.

        The live batcher (if any) flips to it between batches, and an A/B
        arm on the key follows, so the canary keeps comparing served
        output against the network that actually serves.  That arm's
        divergence count resets: a fresh or restored generation is judged
        on its own, never on its predecessor's strikes.  Returns the
        batcher's new generation, or ``None`` when the key has no batcher.
        """
        batcher = self._batchers.get(model.key)
        generation = batcher.swap_model(model) if batcher is not None else None
        for experiment in self._experiments.values():
            if experiment.arm_a.key == model.key:
                experiment.arm_a = model
            elif experiment.arm_b.key == model.key:
                experiment.arm_b = model
            else:
                continue
            experiment.reset_arm_divergences(model.format_name)
            if rollback:
                experiment.rollbacks += 1
        return generation

    async def _configure_ab(self, payload: dict) -> dict:
        """``POST /ab``: :meth:`configure_ab` on a checked payload."""
        dataset = payload.get("dataset")
        format_a = payload.get("format_a")
        format_b = payload.get("format_b")
        canary_every = payload.get("canary_every", self.canary_every)
        if not (
            isinstance(dataset, str)
            and isinstance(format_a, str)
            and isinstance(format_b, str)
        ):
            raise HttpError(
                400, "need string fields 'dataset', 'format_a', 'format_b'"
            )
        if (
            isinstance(canary_every, bool)
            or not isinstance(canary_every, int)
            or canary_every < 0
        ):
            raise HttpError(400, "'canary_every' must be an integer >= 0")
        try:
            return await self.configure_ab(
                dataset, format_a, format_b, canary_every
            )
        except KeyError as exc:
            raise HttpError(400, str(exc.args[0])) from None
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None

    async def configure_ab(
        self,
        dataset: str,
        format_a: str,
        format_b: str,
        canary_every: int | None = None,
    ) -> dict:
        """Register (or replace) an A/B experiment — ``POST /ab`` and the
        CLI ``--ab`` path.  Raises ``KeyError`` for an unknown dataset or
        format and ``ValueError`` for an invalid pair."""
        arm_a = await self.registry.get(
            dataset, format_a, executor=self._executor
        )
        arm_b = await self.registry.get(
            dataset, format_b, executor=self._executor
        )
        experiment = ABExperiment(
            dataset, arm_a, arm_b,
            canary_every=(
                self.canary_every if canary_every is None else canary_every
            ),
        )
        self._experiments[dataset] = experiment
        return experiment.describe()

    # -- the predict path -----------------------------------------------
    async def _submit(
        self, model: ServedModel, patterns, deadline: float | None = None
    ) -> np.ndarray:
        """Submit patterns to the model's batcher with the 503 timeout.

        ``deadline`` (absolute loop time) rides into the batcher, which
        answers expired rows with :class:`DeadlineExceeded` (-> 504)
        instead of executing them.
        """
        batcher = self.batcher_for(model)
        try:
            return await asyncio.wait_for(
                batcher.submit(patterns, deadline=deadline),
                self.submit_timeout_s,
            )
        except asyncio.TimeoutError:
            self.stats.record_rejected()
            raise HttpError(503, "prediction queue saturated; retry") from None

    @staticmethod
    def _parse_deadline(payload: dict, loop) -> float | None:
        """``deadline_ms`` (a request-relative budget) -> absolute loop
        time, validated; ``None`` when the request sets no deadline."""
        raw = payload.get("deadline_ms")
        if raw is None:
            return None
        number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
        try:
            budget_ms = float(raw) if number else math.nan
        except OverflowError:  # a JSON integer past float64's range
            budget_ms = math.nan
        if not 0.0 < budget_ms < math.inf:
            raise HttpError(400, "'deadline_ms' must be a positive number")
        return loop.time() + budget_ms / 1000.0

    async def _run_canary(
        self,
        experiment: ABExperiment,
        model: ServedModel,
        patterns: np.ndarray,
        served: np.ndarray,
        payload: dict,
        offload: bool,
    ) -> dict:
        """One sampled bit-identity check: both arms, served vs direct.

        The other arm quantizes the same float inputs with its own engine
        and answers through its own (batched) path; each arm's served
        response is then compared against a standalone
        ``predict_patterns`` recompute of its own patterns.  A mismatch
        on either arm means the serving layer changed bits — counted as
        a divergence.  Cross-arm disagreement (two formats legitimately
        predicting different classes) is tracked separately.
        """
        other = experiment.other(model)
        loop = asyncio.get_running_loop()
        if offload:
            other_patterns = await loop.run_in_executor(
                self._executor, self._quantize_inputs, other, payload
            )
        else:
            other_patterns = self._quantize_inputs(other, payload)
        served_other = await self._submit(other, other_patterns)

        def recompute():
            return (
                model.network.predict_patterns(patterns),
                other.network.predict_patterns(other_patterns),
            )

        direct, direct_other = await loop.run_in_executor(
            self._executor, recompute
        )
        arm_diverged = not np.array_equal(served, direct)
        other_diverged = not np.array_equal(served_other, direct_other)
        diverged = arm_diverged or other_diverged
        rows_disagreed = int(np.count_nonzero(direct != direct_other))
        experiment.record_canary(diverged, len(direct), rows_disagreed)
        self.stats.record_canary(diverged)
        result = {
            "checked": True,
            "diverged": diverged,
            "rows_disagreed": rows_disagreed,
        }
        # Divergence is charged per arm so only the lying generation is
        # rolled back; healthy arms are left alone.
        rollbacks = []
        for arm, arm_hit in ((model, arm_diverged), (other, other_diverged)):
            if not arm_hit:
                continue
            count = experiment.record_arm_divergence(arm.format_name)
            if self.rollback_after and count >= self.rollback_after:
                # In a worker pool the rollback also fans out: siblings
                # serve the same convicted generation (swaps are
                # broadcast), and each sibling's own rollback is
                # idempotent (no previous generation left = no-op).
                event = await self._apply_rollback(
                    arm.dataset, arm.format_name, notify_pool=True
                )
                if event is not None:
                    rollbacks.append(event)
        if rollbacks:
            result["rollbacks"] = rollbacks
        return result

    async def _rollback_endpoint(self, payload: dict) -> dict:
        """``POST /rollback``: restore the previous generation of one
        model — the manual counterpart of the automatic canary rollback,
        and the fan-out target the pool manager broadcasts to.  Idempotent:
        with no stashed previous generation it reports a no-op."""
        event = await self._model_op(payload, self._apply_rollback)
        if event is None:
            return {
                "rolled_back": None,
                "reason": "no previous generation",
            }
        return event

    async def _apply_rollback(
        self, dataset: str, format_name: str, notify_pool: bool = False
    ) -> dict | None:
        """Restore one model's last-known-good generation locally.

        Runs under the registry's per-key lock (inside ``rollback``); the
        live batcher flips to the restored network between batches, every
        experiment arm pointing at the key follows, and the event lands
        in stats (``/metrics``), ``/health``, and the ``/ab`` report.
        Returns ``None`` when no previous generation exists to restore.
        """
        restored = await self.registry.rollback(dataset, format_name)
        if restored is None:
            return None
        generation = self._install(restored, rollback=True)
        self.stats.record_rollback()
        event = {
            "rolled_back": restored.key,
            "generation": generation,
            "dataset": restored.dataset,
            "arm": restored.format_name,
        }
        self._rollback_events.append(event)
        if notify_pool and self.pool_manager_port is not None:
            self._notify_pool_rollback(restored.dataset, restored.format_name)
        return event

    def _notify_pool_rollback(self, dataset: str, format_name: str) -> None:
        """Tell the manager to fan a canary rollback out to the siblings
        (fire-and-forget: the local rollback already applied, and a dead
        manager means a dying pool anyway)."""

        async def notify() -> None:
            try:
                await fetch(
                    "127.0.0.1", self.pool_manager_port, "POST",
                    "/rollback",
                    {"dataset": dataset, "format": format_name},
                    timeout_s=30.0,
                )
            except (OSError, asyncio.TimeoutError):
                pass

        task = asyncio.get_running_loop().create_task(notify())
        self._control_tasks.add(task)
        task.add_done_callback(self._control_tasks.discard)

    async def _predict(self, body: bytes) -> dict:
        offload = len(body) > _INLINE_BODY_BYTES
        loop = asyncio.get_running_loop()
        if offload:
            payload = await loop.run_in_executor(
                self._executor, self._json_body, body
            )
        else:
            payload = self._json_body(body)
        experiment = canary = None
        dataset = payload.get("dataset")
        if payload.get("format") is None and isinstance(dataset, str):
            experiment = self._experiments.get(dataset)
        if experiment is not None:
            model, canary = experiment.route()
        else:
            model = await self._resolve_model(payload)
        if offload:
            patterns = await loop.run_in_executor(
                self._executor, self._quantize_inputs, model, payload
            )
        else:
            patterns = self._quantize_inputs(model, payload)
        deadline = self._parse_deadline(payload, loop)
        predictions = await self._submit(model, patterns, deadline)
        ab_info = None
        if experiment is not None:
            ab_info = {"arm": model.format_name, "canary": bool(canary)}
            if canary:
                ab_info["canary_result"] = await self._run_canary(
                    experiment, model, patterns, predictions, payload,
                    offload,
                )

        def render():
            classes = [int(c) for c in predictions]
            payload = {
                "dataset": model.dataset,
                "format": model.format_name,
                "predictions": classes,
                "labels": [model.class_names[c] for c in classes],
            }
            if ab_info is not None:
                payload["ab"] = ab_info
            return json.dumps(payload).encode("utf-8") if offload else payload

        if offload:
            # Bulk responses (hundreds of thousands of labels + a multi-MB
            # dumps) are built and serialized off the event loop too.
            return await loop.run_in_executor(self._executor, render)
        return render()


# ----------------------------------------------------------------------
# Embedding and CLI entry points
# ----------------------------------------------------------------------
class ServerHandle:
    """A server running on a background thread, with a blocking ``stop``.

    :class:`~repro.serve.pool.PoolHandle` reuses it for a worker pool,
    whose ``server`` is then the :class:`~repro.serve.pool.WorkerPool`.
    """

    def __init__(self, server, loop, thread, stop_event):
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stop_event = stop_event

    @property
    def address(self) -> tuple[str, int]:
        return (self.server.host, self.server.port)

    def stop(self, timeout: float = 30.0) -> None:
        """Signal shutdown (drains batcher queues) and join the thread."""
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _start_on_thread(make, close, name: str) -> tuple:
    """Run ``make()`` on a daemon thread with its own event loop.

    Waits until the service's ``start()`` returns and gives back
    ``(service, loop, thread, stop_event)``; setting ``stop_event`` runs
    ``close(service)`` and ends the thread.  A construction or start error
    (a bind error, a bad knob) is raised here, after ``close(service)``
    released whatever the service had started.
    """
    ready = threading.Event()
    holder: dict = {}

    async def main() -> None:
        service = make()
        try:
            await service.start()
        except Exception as exc:
            holder["error"] = exc
            ready.set()
            await close(service)
            return
        stop_event = asyncio.Event()
        holder["started"] = (service, asyncio.get_running_loop(), stop_event)
        ready.set()
        try:
            await stop_event.wait()
        finally:
            await close(service)

    def run() -> None:
        try:
            asyncio.run(main())
        except Exception as exc:  # surface constructor errors to the caller
            holder.setdefault("error", exc)
            ready.set()

    thread = threading.Thread(target=run, name=name, daemon=True)
    thread.start()
    ready.wait()
    if "error" in holder:
        raise holder["error"]
    service, loop, stop_event = holder["started"]
    return service, loop, thread, stop_event


def start_in_thread(**server_kwargs) -> ServerHandle:
    """Start an :class:`InferenceServer` on a daemon thread; wait until it
    is accepting connections (``port=0`` resolves to the bound port)."""
    return ServerHandle(*_start_on_thread(
        lambda: InferenceServer(**server_kwargs), InferenceServer.close,
        "repro-serve",
    ))


async def serve_forever(warmups=(), ab_experiments=(), **server_kwargs) -> None:
    """Run a server in the current event loop until cancelled (CLI path).

    ``warmups`` is a sequence of ``(dataset, format_name)`` pairs to load
    before the listening banner is printed; ``ab_experiments`` is a
    sequence of ``(dataset, format_a, format_b)`` triples to serve A/B.
    """
    server = InferenceServer(**server_kwargs)
    await server.start()
    for dataset, format_name in warmups:
        model = await server.registry.get(
            dataset, format_name, executor=server._executor
        )
        print(f"warmed up {model.key}", file=sys.stderr, flush=True)
    for dataset, format_a, format_b in ab_experiments:
        described = await server.configure_ab(dataset, format_a, format_b)
        print(
            f"A/B serving {dataset}: {'/'.join(described['arms'])} "
            f"(canary every {described['canary_every']})",
            file=sys.stderr, flush=True,
        )
    print(
        f"repro.serve listening on http://{server.host}:{server.port} "
        f"(max_batch={server.max_batch}, max_delay_ms={server.max_delay_ms})",
        flush=True,
    )
    try:
        await asyncio.Event().wait()
    finally:
        await server.close()
