"""Python client for the compressed-array server.

Stdlib-only (``http.client``) counterpart of
:mod:`repro.service.server`: arrays travel as ``.npy`` bodies, metadata
as JSON.  Regions may be given as slice tuples (``(slice(0, 32),
slice(16, 48))``) or the CLI's textual form (``"0:32,16:48"``).

Usage::

    with ArrayClient("http://127.0.0.1:8765") as client:
        client.put("pressure", field, eb=1e-3, tile=(64, 64))
        roi = client.read_region("pressure", "0:32,16:48")
        print(client.stat("pressure")["container"]["tile_map"]["n_tiles"])

Connections
-----------

Calls travel over persistent connections kept in an idle pool on the
client, so a sequential caller talks to the server over one TCP
connection for its whole life.  A connection goes back to the pool only
after its response was read to the end and did not say ``Connection:
close``; any exception closes it.  Three rules make the reuse safe:

1. *Poll before reuse.*  An idle socket that is readable was closed (or
   spoken on) by the server: it is dropped and a fresh one opened; no
   request is ever written to it.
2. *One uncounted resend, narrowly.*  When a **reused** connection
   fails before the first response byte (the server closed it between
   the poll and the send) and the call is replay-safe, the request is
   sent once more on a fresh connection without consuming a retry
   attempt.  A failure on a fresh connection, or after any response
   byte, is a counted attempt.  ``delete`` is not replay-safe and
   always travels on a fresh connection of its own, closed afterwards
   (the pooled one stays for the next call).
3. *The pool makes a shared client thread-safe.*  A connection is owned
   by one in-flight call, so N threads on one client hold at most N
   connections.

:meth:`ArrayClient.close` (or leaving the ``with`` block) closes the
pool; the client stays usable and reconnects on the next call.

Resilience
----------

Pass a :class:`RetryPolicy` to opt into transparent retries::

    client = ArrayClient(url, retry=RetryPolicy(max_attempts=5))

Retries use capped exponential backoff with jitter, honour the
server's ``Retry-After`` on 503, and respect an overall ``deadline``.
Transport failures (connection refused/reset, truncated responses,
timeouts) and retryable statuses are retried for idempotent requests.
Writes are safe to retry too: every ``put``/``put_snapshot`` carries a
per-call idempotency token, so a retry whose first attempt actually
committed converges on the recorded entry (the server answers 200 with
``duplicate: true``) instead of double-appending.  The accounting of
the most recent call lands in ``last_retry_stats``.
"""

from __future__ import annotations

import http.client
import io
import json
import random
import select
import time
import urllib.parse
import uuid
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.compressor.tiled_geometry import format_region

__all__ = ["ArrayClient", "RetryPolicy", "ServiceError"]

NPY_CONTENT_TYPE = "application/x-npy"


class ServiceError(Exception):
    """Server-reported failure (HTTP status + server message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.message = message


@dataclass(frozen=True)
class RetryPolicy:
    """Retry schedule for transient transport/server failures.

    Attempt *n* (0-based) sleeps ``base_delay * multiplier**n`` before
    retrying, capped at ``max_delay``, plus up to ``jitter`` of itself
    drawn uniformly at random (decorrelates clients hammering a
    recovering server).  A 503's ``Retry-After`` header raises the
    floor of that sleep.  ``deadline`` bounds the *total* time spent
    across attempts and sleeps; exceeding it surfaces the last error
    rather than sleeping again.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    deadline: float | None = None
    retry_statuses: tuple = (503,)
    #: seeding the jitter RNG makes a chaos run's timing reproducible
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")

    def delay_for(self, retry_index: int, rng: random.Random) -> float:
        """Backoff before the ``retry_index``-th retry (0-based)."""
        delay = min(
            self.max_delay,
            self.base_delay * self.multiplier**retry_index,
        )
        if self.jitter:
            delay += rng.random() * self.jitter * delay
        return delay


def _parse_retry_after(headers) -> float | None:
    raw = headers.get("Retry-After") if headers is not None else None
    if raw is None:
        return None
    try:
        return max(0.0, float(raw))
    except ValueError:
        return None


def _readable(sock) -> bool:
    """Whether *sock* has bytes (or an EOF) waiting, without blocking."""
    # poll, not select: no FD_SETSIZE limit on the descriptor's value
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class ArrayClient:
    """HTTP client over pooled keep-alive connections; one per server.

    Holds idle connections between calls (see the module docstring for
    the reuse rules; :meth:`close` or a ``with`` block releases them),
    plus ``last_read_stats`` (accounting headers of the most recent
    read) and ``last_retry_stats`` (attempt/backoff accounting of the
    most recent request).  Safe to share between threads: every
    in-flight call owns its connection.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry
        self._rng = random.Random(retry.seed if retry else None)
        self.last_read_stats: dict = {}
        self.last_retry_stats: dict = {}
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http(s) URL: {base_url!r}")
        self._connection_class = (
            http.client.HTTPSConnection
            if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._address = (parts.hostname, parts.port)
        self._path_prefix = parts.path
        #: connections whose last response was read to the end; a call
        #: pops one and owns it until it appends it back
        self._idle: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close every pooled connection (the next call reconnects)."""
        while True:
            try:
                self._idle.pop().close()
            except IndexError:
                return

    def __enter__(self) -> "ArrayClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- transport -------------------------------------------------------------

    def _take_idle(self) -> http.client.HTTPConnection | None:
        """A pooled connection the server has left alone, or ``None``.

        Rule (1): a readable idle socket holds the server's FIN (idle
        timeout, drain, restart) or stray bytes; either way it is dead
        to us, so it is closed here and never written to.
        """
        while True:
            try:
                conn = self._idle.pop()
            except IndexError:
                return None
            if not _readable(conn.sock):
                return conn
            conn.close()

    def _exchange(
        self, request: tuple, replay_safe: bool
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """Send ``(method, target, body, headers)``; read the answer.

        Returns the response and its fully read body.  The connection
        is pooled again only if that response was read to the end and
        did not announce ``Connection: close``; any exception closes
        it, because a connection with unread bytes would hand them to
        the next call as its answer.
        """

        def send(conn) -> http.client.HTTPResponse:
            conn.request(*request)
            return conn.getresponse()

        # a request that must not be sent twice never rides a connection
        # that may already be dead: it gets one of its own, closed
        # afterwards so the pool keeps its one warm connection
        conn = self._take_idle() if replay_safe else None
        try:
            if conn is not None:
                try:
                    response = send(conn)
                except (ConnectionResetError, BrokenPipeError):
                    # (RemoteDisconnected is a ConnectionResetError.)
                    # Rule (2): no response byte arrived, and on a
                    # reused connection that means the server closed it
                    # after the poll — no fault of this request, so it
                    # is resent below without charging the retry policy
                    conn.close()
                    conn = None
            if conn is None:
                # connects on first use; http.client sets TCP_NODELAY
                conn = self._connection_class(
                    *self._address, timeout=self.timeout
                )
                response = send(conn)
            payload = response.read()
        except BaseException:
            if conn is not None:
                conn.close()
            raise
        if response.will_close or not replay_safe:
            conn.close()
        else:
            self._idle.append(conn)
        return response, payload

    def _perform(
        self,
        method: str,
        path: str,
        params: dict | None = None,
        body: bytes | None = None,
        content_type: str | None = None,
        idempotent: bool = True,
    ) -> tuple[int, object, bytes]:
        """One request through the retry loop.

        Returns ``(status, headers, payload)`` with the body fully
        read, so a mid-body truncation (``IncompleteRead``) is caught
        here and retried like any other transport failure.  Only
        *idempotent* requests retry — PUTs qualify because they carry
        an idempotency token (see :meth:`put`).
        """
        target = f"{self._path_prefix}{path}"
        if params:
            target += "?" + urllib.parse.urlencode(params)
        request = (
            method,
            target,
            body,
            {"Content-Type": content_type} if content_type else {},
        )
        policy = self.retry
        max_attempts = (
            policy.max_attempts if policy and idempotent else 1
        )
        attempts = 0
        slept = 0.0
        started = time.monotonic()

        def _record() -> None:
            self.last_retry_stats = {
                "attempts": attempts,
                "retries": attempts - 1,
                "slept": slept,
            }

        while True:
            attempts += 1
            retry_after = None
            try:
                response, payload = self._exchange(
                    request, idempotent
                )
            except (http.client.HTTPException, OSError) as exc:
                # connection refused/reset, dropped sockets, timeouts,
                # truncated bodies (IncompleteRead) all land here
                error: Exception = exc
                retryable = True
            else:
                if 200 <= response.status < 300:
                    _record()
                    return response.status, response.headers, payload
                retry_after = _parse_retry_after(response.headers)
                try:
                    message = json.loads(payload.decode()).get(
                        "error", response.reason
                    )
                except (json.JSONDecodeError, UnicodeDecodeError):
                    message = str(response.reason)
                error = ServiceError(response.status, message)
                retryable = (
                    policy is not None
                    and response.status in policy.retry_statuses
                )

            if not retryable or attempts >= max_attempts:
                _record()
                raise error from None
            delay = policy.delay_for(attempts - 1, self._rng)
            if retry_after is not None:
                delay = max(delay, retry_after)
            elapsed = time.monotonic() - started
            if (
                policy.deadline is not None
                and elapsed + delay > policy.deadline
            ):
                _record()
                raise error from None
            time.sleep(delay)
            slept += delay

    def _json(
        self, method: str, path: str, idempotent: bool = True, **kwargs
    ) -> dict:
        _status, _headers, payload = self._perform(
            method, path, idempotent=idempotent, **kwargs
        )
        return json.loads(payload.decode())

    @staticmethod
    def _fresh_token() -> str:
        # one token per *logical* write, minted before the retry loop:
        # retries of the same call repeat it (the server deduplicates),
        # while a genuinely new call never collides with an old one
        return uuid.uuid4().hex

    # -- API -------------------------------------------------------------------

    def health(self) -> dict:
        """Server liveness probe (dataset count included)."""
        return self._json("GET", "/v1/health")

    def healthz(self) -> dict:
        """Bare liveness probe; 503 while the server is draining."""
        return self._json("GET", "/healthz")

    def list_datasets(self) -> list[dict]:
        """Metadata of every stored dataset."""
        return self._json("GET", "/v1/datasets")["datasets"]

    def put(
        self,
        name: str,
        data: np.ndarray,
        eb: float,
        predictor: str = "lorenzo",
        mode: str = "abs",
        lossless: str = "zstd_like",
        tile: Sequence[int] | None = None,
        adaptive: bool = False,
        overwrite: bool = False,
    ) -> dict:
        """Upload *data* for server-side compression into the store."""
        buf = io.BytesIO()
        np.save(buf, np.ascontiguousarray(data), allow_pickle=False)
        params = {
            "eb": repr(float(eb)),
            "predictor": predictor,
            "mode": mode,
            "lossless": lossless,
            "adaptive": int(bool(adaptive)),
            "overwrite": int(bool(overwrite)),
            "token": self._fresh_token(),
        }
        if tile is not None:
            params["tile"] = ",".join(str(int(t)) for t in tile)
        return self._json(
            "PUT",
            f"/v1/datasets/{urllib.parse.quote(name)}",
            params=params,
            body=buf.getvalue(),
            content_type=NPY_CONTENT_TYPE,
        )

    def put_snapshot(
        self,
        name: str,
        data: np.ndarray,
        eb: float,
        predictor: str = "lorenzo",
        mode: str = "abs",
        lossless: str = "zstd_like",
        tile: Sequence[int] | None = None,
        keyframe_interval: int | None = None,
    ) -> dict:
        """Append *data* as one version of *name*'s snapshot chain.

        The first append creates the chain (version 0, a keyframe);
        later appends become temporal deltas except every
        ``keyframe_interval``-th version.  Returns the new snapshot's
        manifest record (``version``, ``keyframe``, byte accounting,
        temporal/spatial tile counts).
        """
        buf = io.BytesIO()
        np.save(buf, np.ascontiguousarray(data), allow_pickle=False)
        params = {
            "eb": repr(float(eb)),
            "predictor": predictor,
            "mode": mode,
            "lossless": lossless,
            "snapshot": 1,
            "token": self._fresh_token(),
        }
        if tile is not None:
            params["tile"] = ",".join(str(int(t)) for t in tile)
        if keyframe_interval is not None:
            params["keyframe_interval"] = int(keyframe_interval)
        return self._json(
            "PUT",
            f"/v1/datasets/{urllib.parse.quote(name)}",
            params=params,
            body=buf.getvalue(),
            content_type=NPY_CONTENT_TYPE,
        )

    def stat(self, name: str, version: int | None = None) -> dict:
        """Dataset metadata + full container description.

        ``version`` picks one chain snapshot (default: the latest).
        """
        params = (
            {"version": int(version)} if version is not None else None
        )
        return self._json(
            "GET",
            f"/v1/datasets/{urllib.parse.quote(name)}",
            params=params,
        )

    def read_region(
        self,
        name: str,
        region: str | Sequence[slice | int] | slice | int,
        version: int | None = None,
        allow_degraded: bool = True,
    ) -> np.ndarray:
        """Fetch a decoded hyperslab of dataset *name*.

        ``version`` addresses one snapshot of the dataset's chain
        (default: the latest).  With ``allow_degraded`` (the default),
        a corrupt snapshot is served from the nearest intact keyframe
        at or below it and ``last_read_stats["degraded"]`` is set;
        pass ``False`` to make corruption fail the read instead.
        Read accounting (tiles touched, cache hits/misses, version,
        chain depth) lands in ``self.last_read_stats``.
        """
        slab = (
            region if isinstance(region, str) else format_region(region)
        )
        params = {"slab": slab}
        if version is not None:
            params["version"] = int(version)
        if not allow_degraded:
            params["degraded"] = 0
        path = f"/v1/datasets/{urllib.parse.quote(name)}/region"
        _status, headers, payload = self._perform(
            "GET", path, params=params
        )
        self.last_read_stats = {
            "tiles_touched": int(headers.get("X-Tiles-Touched", 0)),
            "cache_hits": int(headers.get("X-Cache-Hits", 0)),
            "cache_misses": int(headers.get("X-Cache-Misses", 0)),
            "version": int(headers.get("X-Version", 0)),
            "chain_depth": int(headers.get("X-Chain-Depth", 1)),
            "degraded": bool(int(headers.get("X-Degraded", 0))),
        }
        return np.load(io.BytesIO(payload), allow_pickle=False)

    def read_range(
        self,
        name: str,
        region: str | Sequence[slice | int] | slice | int,
        start_version: int,
        stop_version: int,
        allow_degraded: bool = True,
    ) -> np.ndarray:
        """Fetch a hyperslab across a version range, stacked on axis 0.

        The result's leading axis runs over versions ``start..stop``
        inclusive; aggregate accounting lands in
        ``self.last_read_stats`` (``degraded_versions`` lists the
        requested versions that were served by keyframe fallback).
        """
        slab = (
            region if isinstance(region, str) else format_region(region)
        )
        path = f"/v1/datasets/{urllib.parse.quote(name)}/range"
        params = {
            "slab": slab,
            "t0": int(start_version),
            "t1": int(stop_version),
        }
        if not allow_degraded:
            params["degraded"] = 0
        _status, headers, payload = self._perform(
            "GET", path, params=params
        )
        raw_degraded = headers.get("X-Degraded-Versions", "")
        self.last_read_stats = {
            "tiles_touched": int(headers.get("X-Tiles-Touched", 0)),
            "cache_hits": int(headers.get("X-Cache-Hits", 0)),
            "cache_misses": int(headers.get("X-Cache-Misses", 0)),
            "versions": headers.get("X-Versions", ""),
            "chain_depth": int(headers.get("X-Chain-Depth", 1)),
            "degraded": bool(int(headers.get("X-Degraded", 0))),
            "degraded_versions": [
                int(v) for v in raw_degraded.split(",") if v
            ],
        }
        return np.load(io.BytesIO(payload), allow_pickle=False)

    def delete(self, name: str) -> dict:
        """Remove dataset *name* from the store."""
        return self._json(
            "DELETE",
            f"/v1/datasets/{urllib.parse.quote(name)}",
            idempotent=False,
        )

    def cache_stats(self) -> dict:
        """Decoded-tile cache counters of the server."""
        return self._json("GET", "/v1/cache/stats")
