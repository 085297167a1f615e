"""Serving counters: requests, batch-size histogram, latency percentiles.

One :class:`ServeStats` instance lives on the server; every micro-batcher
reports into it.  Everything is O(1) per event — the latency percentiles
come from a bounded ring of the most recent samples, so ``/stats`` stays
cheap no matter how long the server has been up.  All mutation happens on
the event loop (batchers run there), so no locking is needed; the executor
threads never touch this module.

Two read-side renderings share the same counters: :meth:`ServeStats.
snapshot` (the JSON ``/stats`` body) and :meth:`ServeStats.
render_prometheus` (the ``/metrics`` text exposition — counters,
the batch-size histogram as cumulative ``_bucket`` series, per-model
gauges, and latency quantiles as a summary).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

__all__ = ["ServeStats", "percentile", "merge_states"]

#: Latency ring size: enough for stable p99 without unbounded growth.
_LATENCY_WINDOW = 4096

#: Cumulative ``le`` bucket bounds for the /metrics batch-size histogram.
#: Powers of two cover every sane ``max_batch``; +Inf is appended on render.
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: The scalar event counters, which sum across worker processes.
_COUNTERS = (
    "requests", "samples", "batches", "errors", "rejected", "shed",
    "deadline_expired", "swaps", "rollbacks", "batch_retries",
    "canary_checks", "canary_divergences",
)


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by nearest-rank, 0.0 when empty.

    True nearest-rank: the value at rank ``ceil(q/100 * N)`` (1-based,
    clamped to ``[1, N]``), so ``percentile([1, 2, 3, 4, 5], 50)`` is the
    median 3.  Banker's ``round()`` here would report one rank low for
    every half-way quantile — the seed bug that skewed p50/p99.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def _escape_label(value: str) -> str:
    """Escape a Prometheus label value (backslash, quote, newline)."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _fmt(value: float) -> str:
    """Render a sample value: integers stay integral, floats stay short."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        value = int(value)
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


@dataclass
class ServeStats:
    """Aggregate counters for one server (with a per-model breakdown)."""

    requests: int = 0
    samples: int = 0
    batches: int = 0
    errors: int = 0
    rejected: int = 0  # backpressure: queue-full rejections
    shed: int = 0  # load-shed refusals (503 + Retry-After)
    deadline_expired: int = 0  # requests answered 504, never executed
    swaps: int = 0  # successful POST /swap model replacements
    rollbacks: int = 0  # automatic canary rollbacks to last-known-good
    batch_retries: int = 0  # poison-isolation single-request re-executions
    canary_checks: int = 0  # sampled A/B bit-identity comparisons
    canary_divergences: int = 0  # served != direct — a real serve bug
    batch_sizes: Counter = field(default_factory=Counter)
    per_model: Counter = field(default_factory=Counter)
    _latencies_ms: list[float] = field(default_factory=list)
    _latency_pos: int = 0
    _latency_sum_ms: float = 0.0  # cumulative, for the /metrics summary

    # -- event hooks (called by batchers / the request handlers) --------
    def record_batch(self, model_key: str, size: int) -> None:
        """One executed micro-batch of ``size`` stacked samples."""
        self.batches += 1
        self.batch_sizes[size] += 1
        self.per_model[model_key] += size

    def record_request(self, samples: int, latency_ms: float) -> None:
        """One completed predict request (``samples`` rows)."""
        self.requests += 1
        self.samples += samples
        self._latency_sum_ms += latency_ms
        if len(self._latencies_ms) < _LATENCY_WINDOW:
            self._latencies_ms.append(latency_ms)
        else:
            self._latencies_ms[self._latency_pos] = latency_ms
            self._latency_pos = (self._latency_pos + 1) % _LATENCY_WINDOW

    def record_error(self) -> None:
        self.errors += 1

    def record_rejected(self) -> None:
        self.rejected += 1

    def record_shed(self) -> None:
        self.shed += 1

    def record_deadline_expired(self) -> None:
        self.deadline_expired += 1

    def record_swap(self) -> None:
        self.swaps += 1

    def record_rollback(self) -> None:
        self.rollbacks += 1

    def record_batch_retry(self) -> None:
        """One failed batch re-executed request-by-request (isolation)."""
        self.batch_retries += 1

    def record_canary(self, diverged: bool) -> None:
        """One sampled canary comparison; ``diverged`` means served output
        differed from the direct recompute — always a compile/serve bug."""
        self.canary_checks += 1
        if diverged:
            self.canary_divergences += 1

    # -- reporting ------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        total = sum(self.batch_sizes.values())
        if not total:
            return 0.0
        return sum(s * c for s, c in self.batch_sizes.items()) / total

    def snapshot(self) -> dict:
        """JSON-ready view served by ``GET /stats``."""
        return {
            "requests": self.requests,
            "samples": self.samples,
            "batches": self.batches,
            "errors": self.errors,
            "rejected": self.rejected,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "swaps": self.swaps,
            "rollbacks": self.rollbacks,
            "batch_retries": self.batch_retries,
            "canary": {
                "checks": self.canary_checks,
                "divergences": self.canary_divergences,
            },
            "mean_batch_size": round(self.mean_batch_size, 3),
            "batch_size_histogram": {
                str(size): count
                for size, count in sorted(self.batch_sizes.items())
            },
            "samples_per_model": dict(sorted(self.per_model.items())),
            "latency_ms": {
                "p50": round(percentile(self._latencies_ms, 50), 3),
                "p99": round(percentile(self._latencies_ms, 99), 3),
                "window": len(self._latencies_ms),
            },
        }

    def export_state(self) -> dict:
        """The raw, lossless counter state (JSON-ready).

        The pool manager aggregates ``/stats`` and ``/metrics`` across
        worker processes; the rendered :meth:`snapshot` is lossy (rounded
        percentiles cannot be merged), so workers export this instead and
        the manager rebuilds a pooled :class:`ServeStats` via
        :func:`merge_states` — pooled percentiles are then computed over
        the concatenated windows, not averaged per worker.
        """
        return {
            **{name: getattr(self, name) for name in _COUNTERS},
            "batch_sizes": {str(k): v for k, v in self.batch_sizes.items()},
            "per_model": dict(self.per_model),
            "latencies_ms": list(self._latencies_ms),
            "latency_sum_ms": self._latency_sum_ms,
        }

    def render_prometheus(
        self,
        queue_depths: dict[str, int] | None = None,
        effective_delay_ms: dict[str, float] | None = None,
    ) -> str:
        """The ``GET /metrics`` body: Prometheus text exposition format.

        ``queue_depths`` / ``effective_delay_ms`` are per-model gauges the
        server reads off its live batchers at scrape time (they are state,
        not events, so they don't live in the counters).
        """
        lines: list[str] = []

        def counter(name: str, help_text: str, value: float) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_fmt(value)}")

        def gauge_family(
            name: str, help_text: str, values: dict[str, float]
        ) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            for model, value in sorted(values.items()):
                lines.append(
                    f'{name}{{model="{_escape_label(model)}"}} {_fmt(value)}'
                )

        counter("repro_serve_requests_total",
                "Completed predict requests.", self.requests)
        counter("repro_serve_samples_total",
                "Predicted rows across all requests.", self.samples)
        counter("repro_serve_batches_total",
                "Executed micro-batches.", self.batches)
        counter("repro_serve_errors_total",
                "Failed requests (batch execution or handler errors).",
                self.errors)
        counter("repro_serve_rejected_total",
                "Requests rejected by backpressure (queue saturated).",
                self.rejected)
        counter("repro_serve_shed_total",
                "Requests refused by load shedding (503 + Retry-After).",
                self.shed)
        counter("repro_serve_deadline_expired_total",
                "Requests whose deadline expired in queue (504, never "
                "executed).",
                self.deadline_expired)
        counter("repro_serve_swaps_total",
                "Model hot-swaps applied via POST /swap.", self.swaps)
        counter("repro_serve_rollbacks_total",
                "Automatic canary rollbacks to the last-known-good "
                "generation.",
                self.rollbacks)
        counter("repro_serve_batch_retries_total",
                "Failed micro-batches re-executed request-by-request "
                "(poison isolation).",
                self.batch_retries)
        counter("repro_serve_canary_checks_total",
                "Sampled A/B canary bit-identity comparisons.",
                self.canary_checks)
        counter("repro_serve_canary_divergences_total",
                "Canary comparisons where served output differed from the "
                "direct recompute (any nonzero value is a serve bug).",
                self.canary_divergences)

        # Batch-size histogram: cumulative le-buckets over executed batches.
        name = "repro_serve_batch_size"
        lines.append(f"# HELP {name} Rows per executed micro-batch.")
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bound in _BATCH_BUCKETS:
            cumulative = sum(
                count for size, count in self.batch_sizes.items()
                if size <= bound
            )
            lines.append(f'{name}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {self.batches}')
        lines.append(
            f"{name}_sum "
            f"{_fmt(sum(s * c for s, c in self.batch_sizes.items()))}"
        )
        lines.append(f"{name}_count {self.batches}")

        # Latency: recent-window quantiles as a summary; sum/count are
        # cumulative over the server's whole life.
        name = "repro_serve_latency_ms"
        lines.append(
            f"# HELP {name} Request latency in milliseconds "
            "(quantiles over the recent window)."
        )
        lines.append(f"# TYPE {name} summary")
        for q in (50, 99):
            lines.append(
                f'{name}{{quantile="{q / 100}"}} '
                f"{_fmt(round(percentile(self._latencies_ms, q), 6))}"
            )
        lines.append(f"{name}_sum {_fmt(round(self._latency_sum_ms, 6))}")
        lines.append(f"{name}_count {self.requests}")

        if self.per_model:
            model_name = "repro_serve_model_samples_total"
            lines.append(
                f"# HELP {model_name} Predicted rows per served model."
            )
            lines.append(f"# TYPE {model_name} counter")
            for model, count in sorted(self.per_model.items()):
                lines.append(
                    f'{model_name}{{model="{_escape_label(model)}"}} {count}'
                )
        if queue_depths:
            gauge_family(
                "repro_serve_queue_depth",
                "Requests queued per model (excludes the in-flight batch).",
                queue_depths,
            )
        if effective_delay_ms:
            gauge_family(
                "repro_serve_effective_delay_ms",
                "Adaptive coalescing delay currently in effect per model.",
                effective_delay_ms,
            )
        return "\n".join(lines) + "\n"


def merge_states(states: list[dict]) -> ServeStats:
    """Rebuild one pooled :class:`ServeStats` from worker
    :meth:`~ServeStats.export_state` dicts.

    Scalars and histograms sum; the latency windows concatenate (clipped
    to the ring size), so pooled p50/p99 are true percentiles over the
    combined recent samples rather than an average of per-worker
    percentiles — averaging quantiles is the classic aggregation bug this
    function exists to avoid.
    """
    merged = ServeStats()
    for state in states:
        for name in _COUNTERS:
            setattr(merged, name, getattr(merged, name) + int(
                state.get(name, 0)
            ))
        for size, count in state.get("batch_sizes", {}).items():
            merged.batch_sizes[int(size)] += int(count)
        for model, count in state.get("per_model", {}).items():
            merged.per_model[model] += int(count)
        merged._latencies_ms.extend(state.get("latencies_ms", ()))
        merged._latency_sum_ms += float(state.get("latency_sum_ms", 0.0))
    if len(merged._latencies_ms) > _LATENCY_WINDOW:
        merged._latencies_ms = merged._latencies_ms[-_LATENCY_WINDOW:]
    return merged
