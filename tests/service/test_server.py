"""HTTP server + client tests, including the concurrency acceptance."""

import http.client
import logging
import socket
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.service import (
    ArrayClient,
    ArrayServer,
    ArrayStore,
    ServiceError,
    TileLRUCache,
)
from tests.conftest import assert_error_bounded, smooth_field

EB = 1e-3
N_CLIENTS = 8


@pytest.fixture
def live(tmp_path):
    """A live server over a fresh store; yields (client, server)."""
    store = ArrayStore(
        tmp_path / "store", cache=TileLRUCache(byte_budget=32 << 20)
    )
    server = ArrayServer(store)
    server.serve_in_background()
    try:
        yield ArrayClient(server.url), server
    finally:
        server.shutdown()
        server.server_close()
        store.close()


@pytest.fixture
def served(live):
    """The same, for tests that look at the store: (client, store)."""
    client, server = live
    return client, server.store


@pytest.fixture
def field():
    return smooth_field((48, 48), seed=5)


class TestEndpoints:
    def test_health(self, served):
        client, _ = served
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["datasets"] == 0

    def test_put_read_stat_roundtrip(self, served, field):
        client, _ = served
        entry = client.put("press", field, eb=EB, tile=(16, 16))
        assert entry["n_tiles"] == 9
        assert entry["shape"] == [48, 48]

        roi = client.read_region("press", (slice(8, 40), slice(8, 40)))
        assert roi.shape == (32, 32)
        assert roi.dtype == field.dtype
        assert_error_bounded(field[8:40, 8:40], roi, EB)
        assert client.last_read_stats["tiles_touched"] == 9

        stat = client.stat("press")
        assert stat["container"]["container_version"] == 7
        assert stat["container"]["tile_map"]["n_tiles"] == 9

        listed = client.list_datasets()
        assert [d["name"] for d in listed] == ["press"]

    def test_string_region_and_full_read(self, served, field):
        client, _ = served
        client.put("press", field, eb=EB, tile=(16, 16))
        roi = client.read_region("press", "8:40,8:40")
        assert roi.shape == (32, 32)
        full = client.read_region("press", ":")
        assert full.shape == field.shape

    def test_warm_read_hits_cache(self, served, field):
        client, store = served
        client.put("press", field, eb=EB, tile=(16, 16))
        store.cache.clear()  # drop the tiles the put wrote through
        client.read_region("press", "0:16,0:16")
        assert client.last_read_stats["cache_misses"] == 1
        client.read_region("press", "0:16,0:16")
        assert client.last_read_stats["cache_hits"] == 1
        assert client.last_read_stats["cache_misses"] == 0
        stats = client.cache_stats()
        assert stats["hits"] >= 1
        assert stats["entries"] >= 1

    def test_delete(self, served, field):
        client, _ = served
        client.put("press", field, eb=EB, tile=(16, 16))
        assert client.delete("press") == {"deleted": "press"}
        assert client.list_datasets() == []
        with pytest.raises(ServiceError) as err:
            client.stat("press")
        assert err.value.status == 404

    def test_adaptive_put(self, served, field):
        client, _ = served
        entry = client.put(
            "ada", field, eb=0.05, tile=(12, 12), adaptive=True
        )
        assert entry["config"]["adaptive"] is True
        stat = client.stat("ada")
        assert stat["container"]["container_version"] == 7
        assert "adaptive" in stat["container"]["tile_map"]


def _snaps(field, n, drift=0.01):
    snaps = [np.asarray(field, dtype=np.float64)]
    for i in range(1, n):
        bump = smooth_field(field.shape, seed=200 + i, noise=0.0)
        snaps.append(snaps[-1] + drift * bump.astype(np.float64))
    return snaps


class TestSnapshotChains:
    def test_put_snapshot_chain_and_versioned_reads(
        self, served, field
    ):
        client, _ = served
        snaps = _snaps(field, 5)
        for i, snap in enumerate(snaps):
            record = client.put_snapshot(
                "wave", snap, eb=EB, tile=(16, 16), keyframe_interval=4
            )
            assert record["version"] == i
            assert record["keyframe"] == (i % 4 == 0)
        for v, snap in enumerate(snaps):
            roi = client.read_region("wave", ":,:", version=v)
            assert_error_bounded(snap, roi, EB)
            assert client.last_read_stats["version"] == v
            assert client.last_read_stats["chain_depth"] == v % 4 + 1

    def test_stat_versioned(self, served, field):
        client, _ = served
        snaps = _snaps(field, 2)
        for snap in snaps:
            client.put_snapshot("wave", snap, eb=EB, tile=(16, 16))
        stat = client.stat("wave")  # latest = the delta
        assert stat["version"] == 1
        assert stat["chain_depth"] == 2
        assert stat["container"]["temporal"] is True
        assert "temporal" in stat["container"]["tile_map"]
        kf = client.stat("wave", version=0)
        assert kf["version"] == 0
        assert kf["container"]["container_version"] == 7

    def test_read_range_stacks_versions(self, served, field):
        client, _ = served
        snaps = _snaps(field, 4)
        for snap in snaps:
            client.put_snapshot("wave", snap, eb=EB, tile=(16, 16))
        stack = client.read_range("wave", "0:16,0:16", 0, 3)
        assert stack.shape == (4, 16, 16)
        for snap, plane in zip(snaps, stack):
            assert_error_bounded(snap[0:16, 0:16], plane, EB)
        assert client.last_read_stats["versions"] == "0:3"
        assert client.last_read_stats["chain_depth"] >= 1
        assert client.last_read_stats["tiles_touched"] == 4

    def test_unknown_version_404(self, served, field):
        client, _ = served
        client.put_snapshot("wave", field, eb=EB, tile=(16, 16))
        with pytest.raises(ServiceError) as err:
            client.read_region("wave", ":", version=7)
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.read_range("wave", ":", 0, 7)
        assert err.value.status == 404

    def test_bad_range_params_400(self, served, field):
        client, _ = served
        snaps = _snaps(field, 2)
        for snap in snaps:
            client.put_snapshot("wave", snap, eb=EB, tile=(16, 16))
        with pytest.raises(ServiceError) as err:
            client.read_range("wave", ":", 1, 0)
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client._json("GET", "/v1/datasets/wave/range",
                         params={"slab": ":", "t0": "x", "t1": "1"})
        assert err.value.status == 400


class TestErrors:
    def test_unknown_dataset_404(self, served):
        client, _ = served
        with pytest.raises(ServiceError) as err:
            client.read_region("ghost", "0:4")
        assert err.value.status == 404
        assert "no dataset named" in err.value.message

    def test_duplicate_put_conflict(self, served, field):
        client, _ = served
        client.put("press", field, eb=EB)
        with pytest.raises(ServiceError) as err:
            client.put("press", field, eb=EB)
        assert err.value.status == 409
        client.put("press", field, eb=EB, overwrite=True)

    def test_bad_region_400(self, served, field):
        client, _ = served
        client.put("press", field, eb=EB, tile=(16, 16))
        for slab in ("0:a", "0:4,0:4,0:4", "-3:4"):
            with pytest.raises(ServiceError) as err:
                client.read_region("press", slab)
            assert err.value.status == 400

    def test_missing_eb_400(self, served, field):
        client, _ = served
        with pytest.raises(ServiceError) as err:
            client._json(
                "PUT", "/v1/datasets/x", body=b"zz", content_type="a/b"
            )
        assert err.value.status == 400
        assert "eb" in err.value.message

    def test_nonfinite_eb_400_and_nothing_stored(self, served, field):
        client, _ = served
        for eb in (float("inf"), float("nan")):  # ?eb=inf, ?eb=nan
            with pytest.raises(ServiceError) as err:
                client.put("x", field, eb=eb)
            assert err.value.status == 400
            assert "error_bound" in err.value.message
        assert client.list_datasets() == []

    def test_bad_body_400(self, served):
        client, _ = served
        with pytest.raises(ServiceError) as err:
            client._json(
                "PUT",
                "/v1/datasets/x",
                params={"eb": "0.01"},
                body=b"not an npy payload",
                content_type="application/x-npy",
            )
        assert err.value.status == 400

    def test_unknown_route_404(self, served):
        client, _ = served
        with pytest.raises(ServiceError) as err:
            client._json("GET", "/v1/nope")
        assert err.value.status == 404

    def test_invalid_name_400(self, served, field):
        client, _ = served
        with pytest.raises(ServiceError) as err:
            client.put("..evil", field, eb=EB)
        assert err.value.status == 400

    def test_error_before_body_read_closes_connection(
        self, served, field
    ):
        """A PUT rejected on its query string leaves its body unread;
        the server must drop the keep-alive connection so the body is
        not parsed as the next request."""
        import io as _io
        from urllib.parse import urlparse

        client, _ = served
        parsed = urlparse(client.base_url)
        buf = _io.BytesIO()
        np.save(buf, field, allow_pickle=False)
        body = buf.getvalue()
        request = (
            b"PUT /v1/datasets/x HTTP/1.1\r\n"  # no eb -> 400
            + f"Host: {parsed.hostname}\r\n".encode()
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        with socket.create_connection(
            (parsed.hostname, parsed.port), timeout=10
        ) as sock:
            sock.sendall(request)
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # server closed: body was not re-parsed
                response = response + chunk
        head = response.split(b"\r\n\r\n", 1)[0].lower()
        assert b"400" in head.split(b"\r\n", 1)[0]
        assert b"connection: close" in head
        # exactly one response: the unread body must not have been
        # parsed as a second request ("Bad request version ..." HTML)
        assert response.count(b"HTTP/1.1") == 1
        assert response.rstrip().endswith(b"}")

    def test_corrupt_stored_container_500_not_400(
        self, served, field, tmp_path
    ):
        import os

        client, store = served
        client.put("press", field, eb=EB, tile=(16, 16))
        store.close()  # drop the open reader so the damage is seen
        with open(os.path.join(store.root, "press.rqsz"), "wb") as fh:
            fh.write(b"garbage")
        with pytest.raises(ServiceError) as err:
            client.read_region("press", "0:4,0:4")
        assert err.value.status == 500
        assert "unreadable" in err.value.message


class TestConcurrentClients:
    def test_eight_threads_byte_identical_with_cache_hits(
        self, served, field
    ):
        """Acceptance: >= 8 concurrent clients, byte-identical regions,
        cache hit counters > 0."""
        client, store = served
        client.put("press", field, eb=EB, tile=(16, 16))
        store.cache.clear()  # drop the tiles the put wrote through

        regions = [
            "0:16,0:16",
            "8:40,8:40",
            "0:48,16:32",
            "30:48,30:48",
            "5:6,0:48",
            "0:48,0:48",
            "17:31,2:44",
            "40:48,0:8",
        ]
        reference = {
            slab: client.read_region("press", slab).tobytes()
            for slab in regions
        }

        def worker(seed: int) -> list:
            local = ArrayClient(client.base_url)
            order = np.random.default_rng(seed).permutation(
                len(regions)
            )
            out = []
            for _ in range(3):
                for index in order:
                    slab = regions[int(index)]
                    data = local.read_region("press", slab)
                    out.append((slab, data.tobytes()))
            return out

        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            batches = list(pool.map(worker, range(N_CLIENTS)))

        for batch in batches:
            assert len(batch) == 3 * len(regions)
            for slab, payload in batch:
                assert payload == reference[slab], (
                    f"region {slab} differed across threads"
                )
        stats = store.cache.stats()
        assert stats.hits > 0, "hot tiles must be served from cache"
        assert stats.misses > 0

    def test_concurrent_cold_misses_coalesce(self, served, field):
        client, store = served
        client.put("press", field, eb=EB, tile=(48, 48))  # one tile
        store.cache.clear()  # drop the tile the put wrote through

        def worker(_):
            return ArrayClient(client.base_url).read_region(
                "press", "0:48,0:48"
            )

        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            results = list(pool.map(worker, range(N_CLIENTS)))
        first = results[0].tobytes()
        assert all(r.tobytes() == first for r in results)
        stats = store.cache.stats()
        # the tile decodes exactly once; every other request either
        # waited on the in-flight decode or hit the cache afterwards
        assert stats.misses == 1
        assert stats.hits + stats.coalesced == N_CLIENTS - 1


def _connections(client):
    return client.health()["connections"]


class TestKeepAlive:
    """One connection per client, by count — no timers anywhere."""

    def test_one_client_is_one_connection(self, served, field):
        client, _ = served
        snaps = _snaps(field, 2)
        for snap in snaps:
            client.put_snapshot("wave", snap, eb=EB, tile=(16, 16))
        calls = [
            lambda i: client.put(
                f"d{i}", field[:16, :16], eb=EB, tile=(16, 16)
            ),
            lambda i: client.read_region("wave", "8:40,8:40"),
            lambda i: client.stat("wave"),
            lambda i: client.read_range("wave", "0:16,0:16", 0, 1),
            lambda i: client.cache_stats(),
        ]
        for i in range(200):
            calls[i % len(calls)](i)
        report = _connections(client)
        assert report == {"accepted": 1, "open": 1}

    def test_rejected_put_costs_one_reconnect(self, served, field):
        """A PUT refused on its query string leaves its body unread, so
        the server announces the close and the client must not pool
        that connection: the next call opens a second one and reads
        its own answer, not the leftovers."""
        client, _ = served
        client.put("press", field, eb=EB, tile=(16, 16))
        expected = client.read_region("press", "8:40,8:40")
        with pytest.raises(ServiceError) as err:
            client._json(
                "PUT", "/v1/datasets/x", body=b"zz", content_type="a/b"
            )
        assert err.value.status == 400
        assert client._idle == []
        again = client.read_region("press", "8:40,8:40")
        assert again.tobytes() == expected.tobytes()
        assert _connections(client)["accepted"] == 2

    def test_shared_client_across_threads(self, served, field):
        """Rule (3): the pool hands a connection to one call at a time,
        so 8 threads on ONE client get their own bytes back and never
        hold more than 8 connections."""
        client, _ = served
        client.put("press", field, eb=EB, tile=(16, 16))
        regions = ["0:16,0:16", "8:40,8:40", "0:48,16:32", "5:6,0:48"]
        reference = {
            slab: client.read_region("press", slab).tobytes()
            for slab in regions
        }

        def worker(seed: int) -> list:
            order = np.random.default_rng(seed).integers(
                0, len(regions), size=24
            )
            return [
                (
                    regions[index],
                    client.read_region("press", regions[index]).tobytes(),
                )
                for index in order
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleaving on the pool
        try:
            with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
                batches = list(pool.map(worker, range(N_CLIENTS)))
        finally:
            sys.setswitchinterval(interval)
        for batch in batches:
            assert len(batch) == 24
            for slab, payload in batch:
                assert payload == reference[slab]
        report = _connections(client)
        assert report["accepted"] <= N_CLIENTS
        assert report["open"] == report["accepted"]
        assert len(client._idle) == report["open"]

    def test_close_releases_the_pool_and_client_stays_usable(
        self, served
    ):
        client, _ = served
        with client:
            client.health()
            assert len(client._idle) == 1
        assert client._idle == []
        assert _connections(client)["accepted"] == 2

    def test_both_ends_disable_nagle(self, live):
        """The structural guard for the 40 ms stall: headers and body
        are two small writes, and on a warm connection Nagle would
        hold the second until the peer's delayed ACK."""
        client, server = live
        client.health()
        (server_side,) = server._connections
        for sock in (client._idle[0].sock, server_side):
            assert sock.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )

    def test_drain_announces_close(self, live):
        client, server = live
        client.health()
        assert len(client._idle) == 1
        server.begin_drain()
        with pytest.raises(ServiceError) as err:
            client.healthz()  # rides the warm connection
        assert err.value.status == 503
        assert client._idle == []  # it said Connection: close

    def test_no_answer_after_server_close(self, tmp_path, field):
        """A handler thread parked on a kept-alive socket must not go
        on serving once the embedder shut the server down."""
        store = ArrayStore(tmp_path / "zombie")
        server = ArrayServer(store)
        server.serve_in_background()
        client = ArrayClient(server.url)
        try:
            client.put("press", field, eb=EB, tile=(16, 16))
            assert len(client._idle) == 1
        finally:
            server.shutdown()
            server.server_close()
        try:
            with pytest.raises((OSError, http.client.HTTPException)):
                client.read_region("press", "0:16,0:16")
        finally:
            store.close()
            client.close()



class TestAccessLog:
    class _Hostile:
        def __str__(self):
            raise AssertionError("formatted an access line nobody reads")

    @staticmethod
    def _handler():
        from repro.service.server import _Handler

        handler = _Handler.__new__(_Handler)  # no socket needed
        handler.client_address = ("127.0.0.1", 4242)
        return handler

    def test_nothing_is_formatted_at_the_default_level(self):
        self._handler().log_message("%s", self._Hostile())

    def test_debug_line_is_unchanged(self, caplog):
        handler = self._handler()
        with caplog.at_level(logging.DEBUG, logger="repro.service"):
            handler.log_message(
                '"%s" %s %s', "GET /v1/health HTTP/1.1", "200", "-"
            )
            with pytest.raises(AssertionError):
                handler.log_message("%s", self._Hostile())
        assert [r.getMessage() for r in caplog.records] == [
            '127.0.0.1 "GET /v1/health HTTP/1.1" 200 -'
        ]
