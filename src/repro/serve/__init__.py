"""Micro-batching inference service for the exact-MAC stack.

``repro.serve`` turns the offline reproduction into an always-on service:
a stdlib-only asyncio HTTP server whose per-model micro-batchers coalesce
concurrent requests into the stacked batches the compiled network plans
are built for, with responses **bit-identical** to calling
:meth:`repro.core.positron.PositronNetwork.predict` directly.

    python -m repro serve --port 8707 --max-batch 32 --max-delay-ms 2

:mod:`~repro.serve.batcher` coalesces each model's requests (one
:class:`MicroBatcher` per model), :mod:`~repro.serve.server` answers HTTP
through the one keep-alive loop, route table and exception table of
:mod:`~repro.serve.http`, and :mod:`~repro.serve.pool` runs N servers as
worker processes behind one control plane.  See ``docs/serving.md`` for
the API, the batching knobs, and the bit-exactness argument.
"""

from .ab import ABExperiment
from .batcher import (
    DeadlineExceeded,
    MicroBatcher,
    QueueSaturated,
    ServiceClosed,
)
from .client import ServeClient, ServeError
from .pool import PoolHandle, WorkerPool, run_pool_forever, start_pool_in_thread
from .registry import ModelRegistry, ServedModel, build_served_model
from .server import InferenceServer, ServerHandle, serve_forever, start_in_thread
from .stats import ServeStats, merge_states, percentile

__all__ = [
    "ABExperiment",
    "MicroBatcher",
    "ServiceClosed",
    "QueueSaturated",
    "DeadlineExceeded",
    "ServeClient",
    "ServeError",
    "ModelRegistry",
    "ServedModel",
    "build_served_model",
    "InferenceServer",
    "ServerHandle",
    "serve_forever",
    "start_in_thread",
    "WorkerPool",
    "PoolHandle",
    "start_pool_in_thread",
    "run_pool_forever",
    "ServeStats",
    "merge_states",
    "percentile",
]
