"""Fault injection, client retries, saturation and graceful drain.

The serving half of the detected-or-correct guarantee: under injected
HTTP faults (dropped, truncated, delayed responses) a retrying client
either receives exactly the right bytes or a clean error — never
silently wrong data — and the server's backpressure (503 + Retry-After)
and drain states are visible and survivable.
"""

import http.client
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.compressor import CompressionConfig
from repro.service import (
    ArrayClient,
    ArrayServer,
    ArrayStore,
    ServiceError,
)
from repro.service.client import RetryPolicy
from repro.service.faults import FaultInjector, SimulatedCrash
from tests.conftest import assert_error_bounded, smooth_field

EB = 1e-3


class _ScriptedInjector(FaultInjector):
    """Faults the first *n* responses, then behaves (deterministic)."""

    def __init__(self, script):
        super().__init__()
        self._script = list(script)

    def http_response_fault(self):
        if self._script:
            return self._script.pop(0)
        return None


def _serve(tmp_path, **kwargs):
    store = ArrayStore(tmp_path / "store")
    server = ArrayServer(store, **kwargs)
    server.serve_in_background()
    return server, store


def _shutdown(server, store):
    server.shutdown()
    server.server_close()
    store.close()


class TestFaultInjector:
    def test_equal_seeds_give_equal_schedules(self):
        blob = bytes(range(256)) * 4
        a = FaultInjector(seed=9, http_failure_rate=0.5)
        b = FaultInjector(seed=9, http_failure_rate=0.5)
        assert a.corrupt_blob(blob, nbits=4) == b.corrupt_blob(
            blob, nbits=4
        )
        schedule = [a.http_response_fault() for _ in range(20)]
        assert schedule == [b.http_response_fault() for _ in range(20)]
        assert any(fault is not None for fault in schedule)

    def test_corrupt_blob_flips_requested_bits(self):
        blob = b"\x00" * 64
        damaged = FaultInjector(seed=3).corrupt_blob(blob, nbits=3)
        flipped = sum(bin(byte).count("1") for byte in damaged)
        assert flipped == 3

    def test_nth_hit_crash_point(self):
        injector = FaultInjector(crash_points={"manifest_renamed": 2})
        injector.crash("manifest_renamed")  # first pass survives
        with pytest.raises(SimulatedCrash):
            injector.crash("manifest_renamed")
        assert injector.fired("crash") == 1


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.delay_for(i, rng) for i in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_bounded(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=1.0, max_delay=1.0, jitter=0.5
        )
        rng = random.Random(1)
        for _ in range(50):
            delay = policy.delay_for(0, rng)
            assert 0.1 <= delay <= 0.15

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


class TestClientRetries:
    @pytest.mark.parametrize("mode", ["drop", "truncate"])
    def test_single_fault_recovers(self, tmp_path, mode):
        field = smooth_field((32, 32), seed=4)
        injector = _ScriptedInjector([(mode,)])
        server, store = _serve(tmp_path, faults=injector)
        try:
            store.create(
                "press",
                field,
                CompressionConfig(error_bound=EB, tile_shape=(16, 16)),
            )
            retrying = ArrayClient(
                server.url,
                retry=RetryPolicy(base_delay=0.01, seed=0),
            )
            roi = retrying.read_region("press", ":")
            assert_error_bounded(field, roi, EB)
            assert retrying.last_retry_stats["retries"] == 1
            assert retrying.last_retry_stats["slept"] > 0
        finally:
            _shutdown(server, store)

    def test_no_policy_means_single_attempt(self, tmp_path):
        injector = _ScriptedInjector([("drop",)])
        server, store = _serve(tmp_path, faults=injector)
        try:
            bare = ArrayClient(server.url)
            with pytest.raises(Exception):
                bare.health()
            assert bare.last_retry_stats["attempts"] == 1
        finally:
            _shutdown(server, store)

    def test_deadline_stops_retrying(self, tmp_path):
        # every response dropped: the deadline must cut losses early
        injector = _ScriptedInjector([("drop",)] * 100)
        server, store = _serve(tmp_path, faults=injector)
        try:
            client = ArrayClient(
                server.url,
                retry=RetryPolicy(
                    max_attempts=50,
                    base_delay=0.2,
                    deadline=0.3,
                    seed=0,
                ),
            )
            with pytest.raises(Exception):
                client.health()
            assert client.last_retry_stats["attempts"] < 50
        finally:
            _shutdown(server, store)

    def test_503_honours_retry_after(self, tmp_path):
        field = smooth_field((24, 24), seed=6)
        server, store = _serve(tmp_path, max_inflight=4)
        try:
            client = ArrayClient(
                server.url,
                retry=RetryPolicy(base_delay=0.0, seed=0),
            )
            client.put("press", field, eb=EB, tile=(12, 12))
            # exhaust every dispatch slot, then watch a retrying read
            # wait out the busy window and succeed once slots free up
            # (the put's handler frees its own slot just *after* the
            # response this thread already has: wait for it)
            deadline = time.monotonic() + 2.0
            for _ in range(4):
                while not server.try_acquire_slot():
                    assert time.monotonic() < deadline
                    time.sleep(0.005)

            def _free_later():
                time.sleep(0.15)
                for _ in range(4):
                    server.release_slot()

            threading.Thread(target=_free_later).start()
            roi = client.read_region("press", ":")
            assert_error_bounded(field, roi, EB)
            assert client.last_retry_stats["retries"] >= 1
            # base_delay is 0, so any sleep this long proves the
            # server's Retry-After: 1 floored the backoff
            assert client.last_retry_stats["slept"] >= 1.0
        finally:
            _shutdown(server, store)

    def test_saturated_server_answers_503(self, tmp_path):
        server, store = _serve(tmp_path, max_inflight=1)
        try:
            assert server.try_acquire_slot()
            bare = ArrayClient(server.url)
            with pytest.raises(ServiceError) as excinfo:
                bare.health()
            assert excinfo.value.status == 503
            assert "saturated" in excinfo.value.message
            server.release_slot()
            assert bare.health()["status"] == "ok"
        finally:
            _shutdown(server, store)


def _hang_up_idle(server):
    """Close every idle connection from the server's side, as the idle
    timeout would, and wait until its handler threads let go."""
    for connection in list(server._connections):
        connection.shutdown(socket.SHUT_RDWR)
    deadline = time.monotonic() + 5.0
    while server.connections_open:
        assert time.monotonic() < deadline
        time.sleep(0.001)


class TestKeepAliveUnderFaults:
    """Detected-or-correct on pooled connections: a connection is
    reused only after a fully read response, and the accounting of
    rule (2) — one uncounted resend when a *reused* connection dies
    before the first response byte — is pinned both ways."""

    @pytest.fixture
    def warm(self, tmp_path):
        """(server, store, field, injector); faults armed by the test."""
        field = smooth_field((32, 32), seed=11)
        injector = _ScriptedInjector([])
        server, store = _serve(tmp_path, faults=injector)
        store.create(
            "press",
            field,
            CompressionConfig(error_bound=EB, tile_shape=(16, 16)),
        )
        try:
            yield server, store, field, injector
        finally:
            _shutdown(server, store)

    def test_truncated_connection_is_discarded(self, warm):
        server, store, field, injector = warm
        client = ArrayClient(server.url)
        small = client.read_region("press", "0:4,0:4")
        injector._script.append(("truncate",))
        with pytest.raises(http.client.IncompleteRead):
            client.read_region("press", ":")
        assert client.last_retry_stats["attempts"] == 1
        assert client._idle == []  # half a body is still in that socket
        again = client.read_region("press", "0:4,0:4")
        assert again.tobytes() == small.tobytes()
        assert server.connections_accepted == 2

    def test_drop_on_warm_connection_is_resent_uncounted(self, warm):
        server, store, field, injector = warm
        for retry in (None, RetryPolicy(base_delay=0.01, seed=0)):
            client = ArrayClient(server.url, retry=retry)
            client.health()  # warm: the next call reuses this socket
            injector._script.append(("drop",))
            roi = client.read_region("press", ":")
            assert_error_bounded(field, roi, EB)
            assert client.last_retry_stats == {
                "attempts": 1,
                "retries": 0,
                "slept": 0.0,
            }
            client.close()

    def test_second_drop_is_a_counted_attempt(self, warm):
        # the resend travels on a fresh connection, and a failure
        # there is a real one: fatal without a policy, one retry with
        server, store, field, injector = warm
        bare = ArrayClient(server.url)
        bare.health()
        injector._script.extend([("drop",), ("drop",)])
        with pytest.raises(http.client.RemoteDisconnected):
            bare.read_region("press", ":")
        assert bare.last_retry_stats["attempts"] == 1
        assert bare._idle == []

        retrying = ArrayClient(
            server.url, retry=RetryPolicy(base_delay=0.01, seed=0)
        )
        retrying.health()
        injector._script.extend([("drop",), ("drop",)])
        roi = retrying.read_region("press", ":")
        assert_error_bounded(field, roi, EB)
        assert retrying.last_retry_stats["attempts"] == 2
        assert retrying.last_retry_stats["slept"] > 0
        retrying.close()

    def test_server_side_idle_close_is_invisible(self, warm):
        """Rule (1): the server's FIN makes the idle socket readable,
        so it is dropped at the poll and never written to."""
        server, store, field, injector = warm
        client = ArrayClient(server.url)
        client.health()
        _hang_up_idle(server)
        roi = client.read_region("press", ":")
        assert_error_bounded(field, roi, EB)
        assert client.last_retry_stats["attempts"] == 1
        assert server.connections_accepted == 2
        _hang_up_idle(server)
        assert client._take_idle() is None
        assert client._idle == []

    def test_delete_never_rides_a_pooled_connection(self, warm):
        server, store, field, injector = warm
        client = ArrayClient(server.url)
        client.health()
        (warm,) = client._idle
        assert client.delete("press") == {"deleted": "press"}
        # it took a connection of its own and gave it up; the warm
        # one is still pooled for the next replay-safe call ...
        assert server.connections_accepted == 2
        assert client._idle == [warm]
        assert client.health()["connections"]["accepted"] == 2
        # ... and after a server-side close the delete still goes out
        # exactly once, on a third
        store.create(
            "press",
            field,
            CompressionConfig(error_bound=EB, tile_shape=(16, 16)),
        )
        _hang_up_idle(server)
        assert client.delete("press") == {"deleted": "press"}
        assert client.last_retry_stats["attempts"] == 1
        assert server.connections_accepted == 3
        assert store.names() == []
        client.close()


class TestPutIdempotency:
    class _FixedTokenClient(ArrayClient):
        @staticmethod
        def _fresh_token():
            return "deadbeef"

    def test_repeated_token_converges(self, tmp_path):
        field = smooth_field((24, 24), seed=7)
        server, store = _serve(tmp_path)
        try:
            client = self._FixedTokenClient(server.url)
            first = client.put_snapshot(
                "wave", field, eb=EB, tile=(12, 12)
            )
            again = client.put_snapshot(
                "wave", field, eb=EB, tile=(12, 12)
            )
            assert first["version"] == 0
            assert again["duplicate"] is True
            assert again["version"] == 0
            assert int(store.info("wave")["latest_version"]) == 0
        finally:
            _shutdown(server, store)

    def test_truncated_put_response_retries_safely(self, tmp_path):
        # the dangerous case: the server COMMITS the write but the
        # client never sees the response; the retry must not append a
        # second copy
        field = smooth_field((24, 24), seed=8)
        injector = _ScriptedInjector([("truncate",)])
        server, store = _serve(tmp_path, faults=injector)
        try:
            client = ArrayClient(
                server.url,
                retry=RetryPolicy(base_delay=0.01, seed=0),
            )
            entry = client.put_snapshot(
                "wave", field, eb=EB, tile=(12, 12)
            )
            assert entry["version"] == 0
            assert entry.get("duplicate") is True
            assert client.last_retry_stats["retries"] == 1
            assert int(store.info("wave")["latest_version"]) == 0
        finally:
            _shutdown(server, store)

    def test_uncounted_resend_repeats_the_token(self, tmp_path):
        # a committed put whose response is dropped on a *warm*
        # connection is resent outside the retry policy — with the
        # same token, or it would append twice
        field = smooth_field((24, 24), seed=8)
        injector = _ScriptedInjector([])
        server, store = _serve(tmp_path, faults=injector)
        try:
            client = ArrayClient(server.url)
            client.health()
            injector._script.append(("drop",))
            entry = client.put_snapshot(
                "wave", field, eb=EB, tile=(12, 12)
            )
            assert entry["version"] == 0
            assert entry.get("duplicate") is True
            assert client.last_retry_stats["attempts"] == 1
            assert int(store.info("wave")["latest_version"]) == 0
        finally:
            _shutdown(server, store)

    def test_distinct_calls_never_collide(self, tmp_path):
        # identical payloads appended twice ARE two versions: tokens
        # are per-call, not content hashes
        field = smooth_field((24, 24), seed=9)
        server, store = _serve(tmp_path)
        try:
            client = ArrayClient(server.url)
            a = client.put_snapshot("wave", field, eb=EB, tile=(12, 12))
            b = client.put_snapshot("wave", field, eb=EB, tile=(12, 12))
            assert (a["version"], b["version"]) == (0, 1)
            assert not b.get("duplicate")
        finally:
            _shutdown(server, store)


class TestHealthAndDrain:
    def test_healthz_and_drain_states(self, tmp_path):
        server, store = _serve(tmp_path)
        try:
            client = ArrayClient(server.url)
            assert client.healthz() == {"status": "ok"}
            server.begin_drain()
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 503
            with pytest.raises(ServiceError) as excinfo:
                client.health()
            assert excinfo.value.status == 503
            assert "draining" in excinfo.value.message
        finally:
            _shutdown(server, store)

    def test_inflight_response_announces_the_close(self, tmp_path):
        # a request already being served when the drain begins is
        # answered in full, but its response says Connection: close —
        # the server never hangs up on a client that was not told
        field = smooth_field((24, 24), seed=12)
        injector = FaultInjector(
            http_failure_rate=1.0,
            http_modes=("delay",),
            delay_seconds=0.3,
        )
        server, store = _serve(tmp_path, faults=injector)
        try:
            store.create(
                "press",
                field,
                CompressionConfig(error_bound=EB, tile_shape=(12, 12)),
            )
            client = ArrayClient(server.url)
            got = []
            reader = threading.Thread(
                target=lambda: got.append(
                    client.read_region("press", ":")
                )
            )
            reader.start()
            deadline = time.monotonic() + 5.0
            while not injector.fired("http"):  # the handler is stalling
                assert time.monotonic() < deadline
                time.sleep(0.001)
            server.begin_drain()
            reader.join(timeout=10.0)
            assert not reader.is_alive()
            assert_error_bounded(field, got[0], EB)
            assert client._idle == []
        finally:
            _shutdown(server, store)

    def test_wait_drained_tracks_inflight(self, tmp_path):
        server, store = _serve(tmp_path)
        try:
            assert server.wait_drained(timeout=0.1)
            assert server.try_acquire_slot()
            assert not server.wait_drained(timeout=0.05)
            threading.Thread(target=server.release_slot).start()
            assert server.wait_drained(timeout=2.0)
        finally:
            _shutdown(server, store)

    def test_sigterm_drains_gracefully(self, tmp_path):
        # the real satellite: `repro serve` must catch SIGTERM, stop
        # accepting, flush and exit 0
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                str(tmp_path / "store"),
                "--port",
                "0",
                "--cache-mb",
                "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": "src",
                "PYTHONUNBUFFERED": "1",
            },
        )
        try:
            line = proc.stdout.readline()
            assert "serving store" in line
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        assert "draining" in out


class TestChaosZeroWrongBytes:
    def test_reads_under_fault_storm_are_exact_or_errors(
        self, tmp_path
    ):
        """30 reads against a server faulting ~40% of responses: every
        read that *returns* must be byte-identical to a fault-free
        read.  Detection (a raised error) is acceptable; silent
        corruption is not."""
        field = smooth_field((32, 32), seed=10)
        injector = FaultInjector(
            seed=42,
            http_failure_rate=0.4,
            delay_seconds=0.005,
        )
        server, store = _serve(tmp_path, faults=injector)
        try:
            store.create(
                "press",
                field,
                CompressionConfig(error_bound=EB, tile_shape=(16, 16)),
            )
            # the injector faults the HTTP layer from the start, so
            # ground truth comes straight from the store
            truth = store.read_region(
                "press", (slice(None), slice(None))
            ).data
            client = ArrayClient(
                server.url,
                retry=RetryPolicy(
                    max_attempts=8, base_delay=0.005, seed=1
                ),
            )
            served = errors = 0
            for _ in range(30):
                try:
                    roi = client.read_region("press", ":")
                except Exception:
                    errors += 1
                    continue
                served += 1
                assert np.array_equal(roi, truth)
            assert served >= 27  # retries keep availability >= 0.9
            assert injector.fired("http") > 0
        finally:
            _shutdown(server, store)
