"""ArrayStore cache-miss fan-out across executor backends.

The store's read path must stay correct (and its counters coherent)
when misses of one request are fetched concurrently and the decodes
run on the process executor, including under concurrent readers where
request coalescing kicks in.
"""

import threading

import numpy as np
import pytest

from repro.compressor import CompressionConfig
from repro.service.cache import TileLRUCache
from repro.service.store import ArrayStore


def _field() -> np.ndarray:
    rng = np.random.default_rng(5)
    return np.cumsum(rng.standard_normal((64, 64)), axis=1).astype(
        np.float32
    )


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_read_region_matches_across_backends(tmp_path, backend):
    data = _field()
    store = ArrayStore(
        str(tmp_path / f"store-{backend}"),
        cache=TileLRUCache(byte_budget=8 << 20),
        workers=2,
        parallel_backend=backend,
    )
    with store:
        store.create(
            "field",
            data,
            CompressionConfig(error_bound=1e-2, tile_shape=(16, 16)),
        )
        store.cache.clear()  # drop the tiles the put wrote through
        result = store.read_region(
            "field", (slice(8, 40), slice(10, 60))
        )
        assert result.tiles_touched == 12
        assert result.cache_misses == 12
        assert result.cache_hits == 0
        baseline = ArrayStore(
            str(tmp_path / "store-base"),
            workers=None,
        )
        with baseline:
            baseline.create(
                "field",
                data,
                CompressionConfig(error_bound=1e-2, tile_shape=(16, 16)),
            )
            expected = baseline.read_region(
                "field", (slice(8, 40), slice(10, 60))
            ).data
        np.testing.assert_array_equal(result.data, expected)

        warm = store.read_region("field", (slice(8, 40), slice(10, 60)))
        assert warm.cache_hits == 12
        assert warm.cache_misses == 0
        np.testing.assert_array_equal(warm.data, expected)


def test_concurrent_cold_reads_coalesce_and_agree(tmp_path):
    data = _field()
    store = ArrayStore(
        str(tmp_path / "store"),
        cache=TileLRUCache(byte_budget=8 << 20),
        workers=2,
        parallel_backend="process",
    )
    with store:
        store.create(
            "field",
            data,
            CompressionConfig(error_bound=1e-2, tile_shape=(16, 16)),
        )
        store.cache.clear()  # drop the tiles the put wrote through
        region = (slice(0, 64), slice(0, 64))
        results: list = []
        errors: list = []

        def reader() -> None:
            try:
                results.append(store.read_region("field", region).data)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 6
        for out in results[1:]:
            np.testing.assert_array_equal(out, results[0])
        stats = store.cache.stats()
        # 16 tiles total; every one decoded at most once thanks to
        # request coalescing across the six concurrent readers
        assert stats.misses == 16
        assert stats.hits + stats.coalesced == 6 * 16 - 16
