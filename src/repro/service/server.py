"""Concurrent HTTP server over an :class:`ArrayStore`.

A stdlib-only (``http.server.ThreadingHTTPServer``) serving layer: one
thread per connection — with the keep-alive :class:`ArrayClient`, one
per client — all requests sharing one store, one decoded-tile cache and
one long-lived container reader per dataset.  JSON for metadata, raw
``.npy`` bodies for array payloads.

Connections are HTTP/1.1 keep-alive.  The server closes one only from
the idle state (``IDLE_TIMEOUT_S`` without a request, or
``server_close()``) or after a response that said ``Connection:
close`` — every error that may leave a request body unread, and every
response once draining — so a client never finds a request it already
sent silently discarded.

Endpoints (all under ``/v1``)::

    GET    /v1/health                        liveness + dataset count
                                             + connection counters
    GET    /v1/datasets                      list datasets (manifest)
    PUT    /v1/datasets/{name}?eb=...        compress .npy body into store
    GET    /v1/datasets/{name}               stat (manifest + container)
    GET    /v1/datasets/{name}/region?slab=  decode hyperslab -> .npy
    GET    /v1/datasets/{name}/range?slab=&t0=&t1=
                                             hyperslab over a version
                                             range -> stacked .npy
    DELETE /v1/datasets/{name}               remove dataset
    GET    /v1/cache/stats                   decoded-tile cache counters

``PUT`` query parameters, default in brackets; the first six are
spelled by :data:`repro.compressor.config.CONFIG_TEXT`, as are the CLI
flags of the same names::

    eb           error bound, e.g. 0.001                    [required]
    predictor    lorenzo | interpolation | regression        [lorenzo]
    mode         abs | rel | pw_rel                              [abs]
    lossless     zstd_like | gzip_like | rle | none (None) [zstd_like]
    tile         tile shape, e.g. 64,64       [one whole-array tile]
    adaptive     0 | 1: per-tile planned configs                   [0]
    overwrite    0 | 1: replace an existing dataset                [0]
    snapshot     1: append as one version of the snapshot chain    [0]
    keyframe_interval  with snapshot=1: cadence, on the first append
    token        the idempotency token a retried put repeats

``region`` accepts
``version=N`` to address one chain snapshot (default: latest), and
``stat`` accepts the same.  The ``region`` response carries the read's
accounting in ``X-Tiles-Touched``, ``X-Cache-Hits`` and
``X-Cache-Misses`` headers plus ``X-Version`` / ``X-Chain-Depth``;
``range`` responses stack the versions along a new leading axis and
aggregate the accounting across the range.

Errors map to JSON bodies ``{"error": ...}``: 404 for unknown datasets
or routes, 400 for malformed input, 409 for conflicts (dataset exists).
"""

from __future__ import annotations

import io
import json
import logging
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

import numpy as np

from repro.compressor import CompressionConfig
from repro.compressor.config import parse_config_text, parse_flag
from repro.compressor.tiled_geometry import parse_region_text
from repro.service.client import NPY_CONTENT_TYPE, load_npy
from repro.service.faults import FaultInjector
from repro.service.store import ArrayStore, DatasetCorruptError

__all__ = ["ArrayServer", "serve"]

logger = logging.getLogger("repro.service")

#: request bodies larger than this are rejected up front (512 MiB)
MAX_BODY_BYTES = 512 << 20

#: a kept-alive connection with no request for this long is closed;
#: longer than any pause inside a client's working loop, short enough
#: that abandoned clients do not pin handler threads for good
IDLE_TIMEOUT_S = 120.0

#: how often ``serve_forever`` looks for ``shutdown()``: a stop (SIGTERM
#: drain, teardown) waits up to one poll, and the stdlib polls at 0.5 s
POLL_INTERVAL_S = 0.05


class _ServiceError(Exception):
    """An error with a definite HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _parse_bool(query: dict, key: str, default: bool = False) -> bool:
    try:
        return parse_flag(query[key][-1]) if key in query else default
    except ValueError as exc:
        raise _ServiceError(400, f"{key}: {exc}") from None


def _config_from_query(query: dict) -> CompressionConfig:
    """The compression config a PUT's query string spells (a
    ``ValueError`` naming the bad value answers 400)."""
    if "eb" not in query:
        raise _ServiceError(400, "missing required parameter 'eb'")
    return parse_config_text(
        {key: values[-1] for key, values in query.items()}
    )


def _parse_int(query: dict, key: str) -> int | None:
    if key not in query:
        return None
    raw = query[key][-1]
    try:
        return int(raw)
    except ValueError:
        raise _ServiceError(
            400, f"invalid integer for {key!r}: {raw!r}"
        ) from None


class _Handler(BaseHTTPRequestHandler):
    """Routes ``/v1`` requests onto the shared store."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    #: headers and body leave as two small writes; on a warm connection
    #: Nagle holds the second until the client's delayed ACK (~40 ms)
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------------

    @property
    def store(self) -> ArrayStore:
        return self.server.store  # type: ignore[attr-defined]

    def setup(self) -> None:
        super().setup()
        self.server.connection_opened(self.connection)

    def finish(self) -> None:
        self.server.connection_closed(self.connection)
        super().finish()

    def log_message(self, fmt: str, *args: object) -> None:
        # called for every response: format only if someone listens
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("%s %s", self.address_string(), fmt % args)

    def _transmit(
        self,
        status: int,
        content_type: str,
        body: bytes,
        extra_headers: dict | None = None,
        close: bool = False,
    ) -> None:
        """Write one response — through the fault seam when armed.

        An armed :class:`FaultInjector` may drop the connection before
        any bytes, truncate the body mid-stream, or stall before
        answering; this is how the chaos suite exercises the client's
        retry policy against a real socket.
        """
        fault = None
        injector: FaultInjector | None = getattr(
            self.server, "faults", None
        )
        if injector is not None:
            fault = injector.http_response_fault()
        if fault is not None and fault[0] == "drop":
            self.close_connection = True
            return
        if fault is not None and fault[0] == "delay":
            time.sleep(fault[1])
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, str(value))
        if close or self.server.draining.is_set():
            # send_header("Connection", "close") also flips
            # self.close_connection, so the socket really drops
            self.send_header("Connection", "close")
        self.end_headers()
        if fault is not None and fault[0] == "truncate":
            self.wfile.write(body[: max(1, len(body) // 2)])
            self.close_connection = True
            return
        self.wfile.write(body)

    def _send_json(
        self, payload: dict, status: int = 200, close: bool = False
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self._transmit(
            status, "application/json", body, close=close
        )

    def _send_error_json(self, status: int, message: str) -> None:
        # an error may be sent before a request body was consumed
        # (e.g. a PUT rejected on its query string); under HTTP/1.1
        # keep-alive the unread body would then be parsed as the next
        # request, so drop the connection after the response
        self._send_json({"error": message}, status=status, close=True)

    def _send_npy(
        self, data: np.ndarray, extra_headers: dict | None = None
    ) -> None:
        buf = io.BytesIO()
        np.save(buf, np.ascontiguousarray(data), allow_pickle=False)
        self._transmit(
            200, NPY_CONTENT_TYPE, buf.getvalue(), extra_headers
        )

    def _read_body_array(self) -> np.ndarray:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise _ServiceError(400, "missing request body")
        if length > MAX_BODY_BYTES:
            raise _ServiceError(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        body = self.rfile.read(length)
        if len(body) != length:
            raise _ServiceError(400, "truncated request body")
        try:
            return load_npy(body)
        except ValueError as exc:
            raise _ServiceError(
                400, f"body is not a valid .npy payload: {exc}"
            ) from None

    # -- routing ---------------------------------------------------------------

    def _route(self, method: str) -> None:
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        parts = [unquote(p) for p in parsed.path.strip("/").split("/")]
        if parts in (["healthz"], ["v1", "healthz"]):
            # liveness probe: always answered, never gated on
            # saturation, reports draining with a non-200 so load
            # balancers stop routing here during shutdown
            self._handle_healthz(method)
            return
        server: ArrayServer = self.server  # type: ignore[assignment]
        if server.draining.is_set():
            self._send_busy("shutting down: draining in-flight requests")
            return
        if not server.try_acquire_slot():
            self._send_busy(
                "server saturated: too many concurrent requests"
            )
            return
        try:
            self._guarded_dispatch(method, parts, query)
        finally:
            server.release_slot()

    def _send_busy(self, message: str) -> None:
        body = json.dumps({"error": message}, sort_keys=True).encode()
        self.send_response(503)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Retry-After", "1")
        # sent before any request body was read, like
        # _send_error_json — and the one response a draining server
        # gives, which always announces the close
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _handle_healthz(self, method: str) -> None:
        if method != "GET":
            self._send_error_json(404, "healthz only answers GET")
            return
        server: ArrayServer = self.server  # type: ignore[assignment]
        if server.draining.is_set():
            self._send_busy("draining")
            return
        self._send_json({"status": "ok"})

    def _guarded_dispatch(
        self, method: str, parts: list[str], query: dict
    ) -> None:
        try:
            self._dispatch(method, parts, query)
        except _ServiceError as exc:
            self._send_error_json(exc.status, str(exc))
        except KeyError as exc:
            # the store raises KeyError("no dataset named ...");
            # str(KeyError) is the repr of its argument, so unwrap it
            message = exc.args[0] if exc.args else str(exc)
            self._send_error_json(404, str(message))
        except DatasetCorruptError as exc:
            # damaged stored data is a server fault, not a bad request
            logger.error("corrupt dataset serving %s: %s", self.path, exc)
            self._send_error_json(500, str(exc))
        except (ValueError, IndexError) as exc:
            self._send_error_json(400, str(exc))
        except BrokenPipeError:
            pass  # client went away mid-response
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("unhandled error serving %s", self.path)
            self._send_error_json(500, f"internal error: {exc}")

    def _dispatch(
        self, method: str, parts: list[str], query: dict
    ) -> None:
        if parts and parts[0] == "v1":
            parts = parts[1:]
        if parts == ["health"] and method == "GET":
            server: ArrayServer = self.server  # type: ignore[assignment]
            self._send_json(
                {
                    "status": "ok",
                    "datasets": len(self.store.names()),
                    "connections": {
                        "accepted": server.connections_accepted,
                        "open": server.connections_open,
                    },
                }
            )
            return
        if parts == ["cache", "stats"] and method == "GET":
            self._send_json(self.store.cache.stats().to_json())
            return
        if parts == ["datasets"] and method == "GET":
            self._send_json({"datasets": self.store.list_datasets()})
            return
        if len(parts) == 2 and parts[0] == "datasets":
            name = parts[1]
            if method == "GET":
                self._send_json(
                    self.store.stat(
                        name, version=_parse_int(query, "version")
                    )
                )
                return
            if method == "PUT":
                self._handle_put(name, query)
                return
            if method == "DELETE":
                self.store.delete(name)
                self._send_json({"deleted": name})
                return
        if (
            len(parts) == 3
            and parts[0] == "datasets"
            and parts[2] == "region"
            and method == "GET"
        ):
            self._handle_region(parts[1], query)
            return
        if (
            len(parts) == 3
            and parts[0] == "datasets"
            and parts[2] == "range"
            and method == "GET"
        ):
            self._handle_range(parts[1], query)
            return
        raise _ServiceError(
            404, f"no route for {method} /{'/'.join(parts)}"
        )

    # -- handlers --------------------------------------------------------------

    def _handle_put(self, name: str, query: dict) -> None:
        config = _config_from_query(query)
        overwrite = _parse_bool(query, "overwrite")
        # the idempotency token (a uuid4 the client mints once per
        # logical put and repeats on every resend of it) lets a retried
        # PUT whose first attempt committed converge on the recorded
        # entry instead of appending/conflicting twice
        token = query.get("token", [None])[-1] or None
        data = self._read_body_array()
        if _parse_bool(query, "snapshot"):
            # a refused append (shape, dtype, cadence) is a ValueError: 400
            entry = self.store.put_snapshot(
                name,
                data,
                config,
                keyframe_interval=_parse_int(query, "keyframe_interval"),
                put_token=token,
            )
        else:
            try:
                entry = self.store.create(
                    name, data, config, overwrite=overwrite, put_token=token
                )
            except ValueError as exc:
                status = 409 if "already exists" in str(exc) else 400
                raise _ServiceError(status, str(exc)) from None
        self._send_json(entry, status=200 if entry.get("duplicate") else 201)

    def _handle_region(self, name: str, query: dict) -> None:
        if "slab" not in query:
            raise _ServiceError(
                400, "missing required parameter 'slab'"
            )
        region = parse_region_text(query["slab"][-1])
        result = self.store.read_region(
            name,
            region,
            version=_parse_int(query, "version"),
            allow_degraded=_parse_bool(query, "degraded", True),
        )
        self._send_npy(
            result.data,
            extra_headers={
                "X-Tiles-Touched": result.tiles_touched,
                "X-Cache-Hits": result.cache_hits,
                "X-Cache-Misses": result.cache_misses,
                "X-Version": result.version,
                "X-Chain-Depth": result.chain_depth,
                "X-Degraded": int(result.degraded),
            },
        )

    def _handle_range(self, name: str, query: dict) -> None:
        if "slab" not in query:
            raise _ServiceError(
                400, "missing required parameter 'slab'"
            )
        t0 = _parse_int(query, "t0")
        t1 = _parse_int(query, "t1")
        if t0 is None or t1 is None:
            raise _ServiceError(
                400, "missing required parameters 't0'/'t1'"
            )
        region = parse_region_text(query["slab"][-1])
        results = self.store.read_range(
            name,
            region,
            t0,
            t1,
            allow_degraded=_parse_bool(query, "degraded", True),
        )
        stacked = np.stack([r.data for r in results])
        degraded = [
            str(t0 + i) for i, r in enumerate(results) if r.degraded
        ]
        self._send_npy(
            stacked,
            extra_headers={
                "X-Tiles-Touched": sum(
                    r.tiles_touched for r in results
                ),
                "X-Cache-Hits": sum(r.cache_hits for r in results),
                "X-Cache-Misses": sum(
                    r.cache_misses for r in results
                ),
                "X-Versions": f"{results[0].version}:"
                f"{results[-1].version}",
                "X-Chain-Depth": max(
                    r.chain_depth for r in results
                ),
                "X-Degraded": int(any(r.degraded for r in results)),
                # which requested versions were served by a keyframe
                # fallback (comma-separated, empty when none)
                "X-Degraded-Versions": ",".join(degraded),
            },
        )

    # -- HTTP verbs ------------------------------------------------------------

    def _serve(self, method: str) -> None:
        server: ArrayServer = self.server  # type: ignore[assignment]
        if not server.request_begins(self.connection):
            # server_close() ran while this request was on the wire:
            # hang up rather than answer from a store that may be gone
            self.close_connection = True
            return
        try:
            self._route(method)
        finally:
            server.request_ends(self.connection)

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._serve("GET")

    def do_PUT(self) -> None:  # noqa: N802
        self._serve("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._serve("DELETE")


class ArrayServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ArrayStore`.

    Usage (tests and embedders)::

        server = ArrayServer(store, ("127.0.0.1", 0))
        thread = server.serve_in_background()
        ... requests against server.url ...
        server.shutdown()
    """

    daemon_threads = True

    def __init__(
        self,
        store: ArrayStore,
        address: tuple[str, int] = ("127.0.0.1", 0),
        max_inflight: int | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.store = store
        #: cap on concurrently dispatched requests; beyond it new
        #: requests get 503 + Retry-After instead of queuing threads
        self.max_inflight = max_inflight
        #: test seam: armed injector perturbs responses in _transmit
        self.faults = faults
        #: once set, every non-healthz request is refused with 503
        #: and every response announces ``Connection: close``
        self.draining = threading.Event()
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        #: connections ever accepted (a keep-alive client costs one)
        self.connections_accepted = 0
        #: open connection -> whether a request is being served on it
        self._connections: dict[socket.socket, bool] = {}
        self._connections_lock = threading.Lock()
        self._closed = False

    @property
    def url(self) -> str:
        """Base URL of the bound socket."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread; returns it."""
        thread = threading.Thread(
            target=self.serve_forever,
            args=(POLL_INTERVAL_S,),
            name="repro-serve",
            daemon=True,
        )
        thread.start()
        return thread

    # -- connection registry ---------------------------------------------------

    @property
    def connections_open(self) -> int:
        """Connections currently held by handler threads."""
        return len(self._connections)

    def connection_opened(self, connection: socket.socket) -> None:
        with self._connections_lock:
            self.connections_accepted += 1
            self._connections[connection] = False

    def connection_closed(self, connection: socket.socket) -> None:
        with self._connections_lock:
            self._connections.pop(connection, None)

    def request_begins(self, connection: socket.socket) -> bool:
        """Mark *connection* busy; ``False`` once the server closed."""
        with self._connections_lock:
            if self._closed:
                return False
            self._connections[connection] = True
            return True

    def request_ends(self, connection: socket.socket) -> None:
        with self._connections_lock:
            self._connections[connection] = False

    def server_close(self) -> None:
        """Close the listener and every idle kept-alive connection.

        A handler thread blocked on an idle connection would otherwise
        outlive ``shutdown()`` and answer its client's next request
        from a store the embedder has since closed.  Connections with
        a request in flight are left to finish: ``draining`` makes
        that response announce ``Connection: close``.
        """
        self.draining.set()
        super().server_close()
        with self._connections_lock:
            self._closed = True
            idle = [
                connection
                for connection, busy in self._connections.items()
                if not busy
            ]
        for connection in idle:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer already hung up

    # -- saturation + drain accounting -----------------------------------------

    def try_acquire_slot(self) -> bool:
        """Claim a dispatch slot; ``False`` means answer 503-busy."""
        with self._inflight_cond:
            if (
                self.max_inflight is not None
                and self._inflight >= self.max_inflight
            ):
                return False
            self._inflight += 1
            return True

    def release_slot(self) -> None:
        with self._inflight_cond:
            self._inflight = max(0, self._inflight - 1)
            self._inflight_cond.notify_all()

    def begin_drain(self) -> None:
        """Stop accepting work; in-flight requests keep running."""
        self.draining.set()

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until in-flight requests finish (or *timeout*)."""
        with self._inflight_cond:
            return self._inflight_cond.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )


def serve(
    root: str,
    host: str = "127.0.0.1",
    port: int = 8765,
    cache_bytes: int | None = None,
    workers: int | None = None,
    parallel_backend: str | None = None,
    max_inflight: int | None = None,
    drain_timeout: float = 10.0,
) -> None:
    """Blocking entry point behind ``repro serve``.

    ``parallel_backend`` selects the codec executor for dataset puts
    and cache-miss tile decodes (``"process"`` keeps slow decodes off
    the serving threads; see :mod:`repro.compressor.executor`).

    SIGTERM (and Ctrl-C) triggers a graceful drain: the listener stops
    accepting work (new requests get 503 + Retry-After and
    ``Connection: close``), in-flight requests run to completion (up
    to ``drain_timeout`` seconds), idle kept-alive connections are
    closed with the listener, the manifest is flushed, and only then
    does the process exit.
    """
    from repro.service.cache import TileLRUCache

    cache = (
        TileLRUCache(byte_budget=cache_bytes)
        if cache_bytes is not None
        else None
    )
    store = ArrayStore(
        root,
        cache=cache,
        workers=workers,
        parallel_backend=parallel_backend,
    )
    server = ArrayServer(store, (host, port), max_inflight=max_inflight)

    def _terminate(signum: int, _frame: object) -> None:
        print(f"signal {signum}: draining", flush=True)
        server.begin_drain()
        # serve_forever runs on *this* thread — shutdown() must be
        # called from another one or it deadlocks waiting for the loop
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = signal.signal(signal.SIGTERM, _terminate)
    print(
        f"serving store {root!r} ({len(store.names())} datasets) "
        f"on {server.url}"
    )
    try:
        server.serve_forever(POLL_INTERVAL_S)
    except KeyboardInterrupt:
        server.begin_drain()
        print("shutting down")
    finally:
        signal.signal(signal.SIGTERM, previous)
        if not server.wait_drained(timeout=drain_timeout):
            print("drain timeout: abandoning in-flight requests")
        server.server_close()
        store.flush()
        store.close()
