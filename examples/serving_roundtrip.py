"""Serving round-trip: start `repro serve`, then compress -> read -> stat.

Launches the HTTP server as a subprocess over a temporary store (the
way a deployment would run it), uploads a synthetic field for
server-side tiled compression, reads a hyperslab back twice (both
served from the decoded tiles the put wrote through to the cache),
checks the error bound and the cache counters, prints the dataset's
container stat, then appends a 3-version snapshot chain and checks from
the server's cache stats that the delta puts and the read-after-writes
decoded nothing, and from its connection counters that the one client
did all of it over one kept-alive connection.  Exits non-zero on any
failure — CI runs this as the serving smoke job.

Usage::

    python examples/serving_roundtrip.py [port]
"""

import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.service import ArrayClient, ServiceError

EB = 1e-3
PORT = int(sys.argv[1]) if len(sys.argv) > 1 else 18742


def wait_for_server(client: ArrayClient, timeout_s: float = 15.0) -> None:
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        try:
            if client.health()["status"] == "ok":
                return
        except (OSError, ServiceError):
            time.sleep(0.2)
    raise SystemExit("server did not come up in time")


def round_trip(client: ArrayClient) -> None:
    rng = np.random.default_rng(0)
    field = np.cumsum(
        rng.standard_normal((128, 128)), axis=0
    ).astype(np.float32)

    entry = client.put("demo", field, eb=EB, tile=(32, 32))
    print(
        f"put: {entry['raw_bytes']} -> {entry['compressed_bytes']} "
        f"bytes ({entry['ratio']:.2f}x, {entry['n_tiles']} tiles)"
    )
    assert entry["n_tiles"] == 16

    # the put wrote its decoded tiles through to the cache, so
    # even the first read decodes nothing
    roi = client.read_region("demo", "32:96,32:96")
    first = dict(client.last_read_stats)
    assert roi.shape == (64, 64)
    assert np.max(np.abs(roi - field[32:96, 32:96])) <= EB * (
        1 + 1e-5
    )
    roi_again = client.read_region("demo", "32:96,32:96")
    again = dict(client.last_read_stats)
    assert np.array_equal(roi, roi_again)
    assert first["cache_misses"] == 0, first
    assert again["cache_hits"] == again["tiles_touched"], again
    print(f"read: first {first} -> again {again}")

    stat = client.stat("demo")
    assert stat["container"]["container_version"] == 7
    assert stat["container"]["tile_map"]["n_tiles"] == 16
    print(
        "stat: v4 container, "
        f"{stat['container']['tile_map']['payload_bytes']} payload "
        "bytes"
    )

    cache = client.cache_stats()
    assert cache["hits"] > 0
    print(f"cache: {cache}")

    # a snapshot chain: keyframe, delta, delta.  Each delta put
    # reads the previous version as its reference, each read comes
    # right after its write — all from seeded tiles, zero misses
    misses = cache["misses"]
    for version in range(3):
        step = field + np.float32(0.01 * version)
        record = client.put_snapshot(
            "chain", step, eb=EB, tile=(32, 32), keyframe_interval=4
        )
        assert record["version"] == version
        assert record["keyframe"] is (version == 0)
        back = client.read_region("chain", "0:128,0:128", version=version)
        assert client.last_read_stats["cache_misses"] == 0
        assert np.max(np.abs(back - step)) <= EB * (1 + 1e-5)
    cache = client.cache_stats()
    assert cache["misses"] == misses, (misses, cache)
    print(f"chain: 3 versions, {cache['misses'] - misses} new misses")

    # everything above went through one client, so over one connection
    # (wait_for_server's polls before the listener was up were refused,
    # not accepted): the keep-alive, checked by the server's own count
    connections = client.health()["connections"]
    assert connections["accepted"] == 1, connections
    print(f"connections: {connections}")


def main() -> int:
    store_dir = tempfile.mkdtemp(prefix="repro-store-")
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            store_dir,
            "--port",
            str(PORT),
            "--cache-mb",
            "64",
        ]
    )
    try:
        with ArrayClient(f"http://127.0.0.1:{PORT}") as client:
            wait_for_server(client)
            round_trip(client)
        print("serving round-trip OK")
        return 0
    finally:
        server.terminate()
        server.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
