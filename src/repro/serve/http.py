"""Shared stdlib-only HTTP/1.1 plumbing for the serving tier.

One hand-rolled HTTP surface serves every listener and hop: the
:class:`~repro.serve.server.InferenceServer`'s public and loopback admin
listeners, the pool manager's control listener (:mod:`repro.serve.pool`),
and the in-process async client (:func:`fetch`) those use to talk to each
other — worker → manager forwarding and manager → worker control fan-out.
All three listeners run :func:`serve_connection`, answer errors from
:func:`error_response`, and check methods against :data:`ROUTES`, so
every hop speaks byte-identical HTTP and a framing or status fix lands
everywhere at once.
"""

from __future__ import annotations

import asyncio
import json

from .batcher import DeadlineExceeded, QueueSaturated, ServiceClosed

__all__ = [
    "HttpError",
    "STATUS_TEXT",
    "MAX_BODY_BYTES",
    "METRICS_CONTENT_TYPE",
    "ROUTES",
    "CONTROL_PATHS",
    "route",
    "error_response",
    "read_request",
    "write_response",
    "serve_connection",
    "fetch",
]

#: Reject request bodies larger than this (a predict batch of millions of
#: rows should be sharded by the client, not buffered in one read).
MAX_BODY_BYTES = 32 * 1024 * 1024

STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: ``/metrics`` answers in the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The Retry-After hint (seconds) sent with load-shed 503s.  Shedding
#: clears as soon as the queue drains below the threshold, which at
#: micro-batch latencies is well under a second.
RETRY_AFTER_S = 1

#: Every serving route -> the methods it allows (a 405 names them).
ROUTES = {
    "/health": ("GET",),
    "/models": ("GET",),
    "/stats": ("GET",),
    "/metrics": ("GET",),
    "/warmup": ("POST",),
    "/predict": ("POST",),
    "/swap": ("POST",),
    "/rollback": ("POST",),
    "/ab": ("GET", "POST"),
}

#: Control endpoints a pooled worker must not answer alone: one of these
#: on the *public* (shared) port reaches one arbitrary worker, so the
#: worker forwards it to the pool manager, which fans out / merges
#: across every worker (see :mod:`repro.serve.pool`).
CONTROL_PATHS = frozenset({"/swap", "/ab", "/rollback", "/stats", "/metrics"})


class HttpError(Exception):
    """A handled request failure, rendered as a JSON error response."""

    def __init__(self, status: int, message: str,
                 headers: dict[str, str] | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


def route(method: str, target: str, paths=ROUTES,
          name: str = "route") -> str:
    """``target``'s path without its query, if ``method`` may call it.

    A path outside ``paths`` is a 404 (``no <name> for <path>``); a method
    its :data:`ROUTES` entry does not list is a 405 naming the methods
    that are.  The serving API never reads a query string.
    """
    path = target.partition("?")[0]
    if path not in paths:
        raise HttpError(404, f"no {name} for {path}")
    methods = ROUTES[path]
    if method not in methods:
        raise HttpError(405, f"use {' or '.join(methods)}")
    return path


def error_response(exc: Exception) -> tuple[int, dict, dict[str, str]]:
    """``(status, body, headers)`` for a request that raised ``exc``.

    The one exception table every listener answers from:

    ======================  ========================================
    :class:`HttpError`      its own status (and headers)
    ``QueueSaturated``      503 + ``Retry-After``: load shedding
                            refuses fast instead of stacking latency
                            onto a saturated queue
    ``DeadlineExceeded``    504: the request's own deadline expired
                            while it queued; its rows never ran
    ``ServiceClosed``       503: shutting down
    anything else           500: a server fault
    ======================  ========================================
    """
    if isinstance(exc, HttpError):
        return exc.status, {"error": exc.message}, exc.headers
    if isinstance(exc, QueueSaturated):
        return (
            503,
            {"error": str(exc), "retry_after_s": RETRY_AFTER_S},
            {"Retry-After": str(RETRY_AFTER_S)},
        )
    if isinstance(exc, DeadlineExceeded):
        return 504, {"error": str(exc)}, {}
    if isinstance(exc, ServiceClosed):
        return 503, {"error": str(exc)}, {}
    return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}


async def read_request(reader):
    """Parse one request; ``(method, path, headers, body)`` or ``None`` on
    clean EOF between keep-alive requests.  Raises :class:`HttpError` for
    malformed framing (the caller answers and closes)."""
    # One read for the whole head (request line + headers): requests are
    # small, and a single ``readuntil`` keeps the per-request event loop
    # work minimal on the hot path.
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise
    except asyncio.LimitOverrunError:
        raise HttpError(400, "header block too large") from None
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, _version = lines[0].split()
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    headers: dict[str, str] = {}
    for raw in lines[1:]:
        if raw:
            name, _, value = raw.partition(":")
            headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise HttpError(400, "malformed Content-Length") from None
    if length < 0:
        raise HttpError(400, "malformed Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, headers, body


async def write_response(
    writer, status, payload, close_conn,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
) -> None:
    """Serialize + write one response (``payload`` may be pre-encoded
    bytes: bulk predict bodies and /metrics text arrive rendered)."""
    body = (
        payload
        if isinstance(payload, bytes)
        else json.dumps(payload).encode("utf-8")
    )
    extras = "".join(
        f"{name}: {value}\r\n"
        for name, value in (extra_headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close_conn else 'keep-alive'}\r\n"
        f"{extras}"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


async def serve_connection(
    reader, writer, dispatch, *,
    read=None, write=None, on_request=None, on_fault=None,
) -> None:
    """The keep-alive loop every listener runs on each connection.

    ``dispatch(method, target, body)`` returns ``(status, payload)`` or
    ``(status, payload, content_type)``; whatever it raises is answered
    from :func:`error_response`, so a failed request never tears the
    connection down.  ``read`` / ``write`` replace :func:`read_request` /
    :func:`write_response` (the server passes its class attributes, which
    a profiler may wrap).  ``on_request(target)`` runs before each
    dispatch, outside the error table, and returns whether to close the
    connection after answering; ``on_fault(exc)`` sees every exception
    answered 500.
    """
    read = read or read_request
    write = write or write_response
    try:
        while True:
            try:
                request = await read(reader)
            except HttpError as exc:
                await write(writer, exc.status, {"error": exc.message}, True)
                break
            if request is None:
                break
            method, target, headers, body = request
            close_conn = headers.get("connection", "").lower() == "close"
            if on_request is not None and on_request(target):
                close_conn = True
            content_type = "application/json"
            extra_headers: dict[str, str] = {}
            try:
                result = await dispatch(method, target, body)
                status, payload = result[0], result[1]
                if len(result) > 2:  # /metrics and proxied bodies
                    content_type = result[2]
            except Exception as exc:
                status, payload, extra_headers = error_response(exc)
                if status == 500 and on_fault is not None:
                    on_fault(exc)
            await write(writer, status, payload, close_conn, content_type,
                        extra_headers)
            if close_conn:
                break
    except (asyncio.IncompleteReadError, ConnectionError):
        # Abrupt client disconnects (reset mid-read, EPIPE mid-write)
        # are normal churn, not server errors.
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def fetch(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes | dict | None = None,
    timeout_s: float = 30.0,
) -> tuple[int, bytes]:
    """One-shot async HTTP exchange; ``(status, body_bytes)``.

    The control plane's transport: worker → manager forwarding and
    manager → worker fan-out both go through here.
    Connections are deliberately not reused — control traffic is rare and
    a fresh connection per exchange sidesteps stale-socket failure modes
    across process restarts.  Raises ``OSError`` / ``TimeoutError`` on
    connect/framing failures (callers decide retry policy).
    """
    if isinstance(body, dict):
        body = json.dumps(body).encode("utf-8")
    payload = body or b""
    request = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1") + payload

    async def exchange() -> tuple[int, bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(request)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split()
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(
                    f"malformed status line from {host}:{port}: "
                    f"{status_line!r}"
                )
            status = int(parts[1])
            length = None
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            if length is None:  # Connection: close framing
                data = await reader.read()
            else:
                data = await reader.readexactly(length)
            return status, data
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    return await asyncio.wait_for(exchange(), timeout_s)
