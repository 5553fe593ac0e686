"""Unit tests for the sharded decoded-tile LRU cache."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.service.cache import TileLRUCache


def _arr(n_bytes: int, fill: float = 1.0) -> np.ndarray:
    return np.full(n_bytes // 8, fill, dtype=np.float64)


class TestBasics:
    def test_get_miss_then_hit(self):
        cache = TileLRUCache(byte_budget=1 << 20, shards=2)
        assert cache.get("k") is None
        cache.put("k", _arr(64))
        value = cache.get("k")
        assert value is not None and value.size == 8
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.entries == 1
        assert stats.bytes_cached == 64

    def test_cached_arrays_are_read_only(self):
        cache = TileLRUCache(byte_budget=1 << 20)
        cache.put("k", _arr(64))
        with pytest.raises(ValueError):
            cache.get("k")[0] = 7.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TileLRUCache(byte_budget=-1)
        with pytest.raises(ValueError):
            TileLRUCache(shards=0)

    def test_zero_budget_disables_caching(self):
        cache = TileLRUCache(byte_budget=0)
        cache.put("k", _arr(64))
        assert cache.get("k") is None
        value, hit = cache.get_or_load("k", lambda: _arr(64))
        assert not hit and value.size == 8
        assert cache.stats().entries == 0
        assert cache.stats().bytes_cached == 0

    def test_hit_rate_idle_is_zero(self):
        assert TileLRUCache().stats().hit_rate == 0.0


class TestEviction:
    def test_lru_eviction_under_budget(self):
        # one shard so the LRU order is global and deterministic
        cache = TileLRUCache(byte_budget=256, shards=1)
        cache.put("a", _arr(128))
        cache.put("b", _arr(128))
        assert cache.get("a") is not None  # refresh: b is now LRU
        cache.put("c", _arr(128))  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.stats().evictions == 1
        assert cache.stats().bytes_cached <= 256

    def test_oversize_value_not_cached(self):
        cache = TileLRUCache(byte_budget=64, shards=1)
        cache.put("big", _arr(1024))
        assert cache.get("big") is None
        assert cache.stats().entries == 0

    def test_replacement_updates_byte_accounting(self):
        cache = TileLRUCache(byte_budget=1024, shards=1)
        cache.put("k", _arr(512))
        cache.put("k", _arr(256))
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.bytes_cached == 256

    def test_invalidate_where(self):
        cache = TileLRUCache(byte_budget=1 << 20, shards=4)
        for i in range(8):
            cache.put(("ds1", i), _arr(64))
            cache.put(("ds2", i), _arr(64))
        dropped = cache.invalidate_where(lambda key: key[0] == "ds1")
        assert dropped == 8
        assert all(cache.get(("ds1", i)) is None for i in range(8))
        # the surviving dataset is intact (these count as hits)
        assert all(
            cache.get(("ds2", i)) is not None for i in range(8)
        )

    def test_clear(self):
        cache = TileLRUCache(byte_budget=1 << 20)
        for i in range(10):
            cache.put(i, _arr(64))
        cache.clear()
        assert cache.stats().entries == 0
        assert cache.stats().bytes_cached == 0
        assert not list(cache.keys())


class TestCoalescing:
    def test_get_or_load_loads_once(self):
        cache = TileLRUCache(byte_budget=1 << 20)
        calls = []
        value, hit = cache.get_or_load(
            "k", lambda: calls.append(1) or _arr(64)
        )
        assert not hit and len(calls) == 1
        value2, hit2 = cache.get_or_load(
            "k", lambda: calls.append(1) or _arr(64)
        )
        assert hit2 and len(calls) == 1
        assert value2.tobytes() == value.tobytes()

    def test_concurrent_misses_coalesce_to_one_decode(self):
        cache = TileLRUCache(byte_budget=1 << 20)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        calls = []
        lock = threading.Lock()

        def loader():
            with lock:
                calls.append(threading.get_ident())
            time.sleep(0.05)  # hold the flight open so others pile up
            return _arr(64, fill=3.0)

        def worker(_):
            barrier.wait()
            value, hit = cache.get_or_load("tile", loader)
            return value

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(worker, range(n_threads)))
        assert len(calls) == 1, "concurrent misses must decode once"
        for value in results:
            assert value.tobytes() == _arr(64, fill=3.0).tobytes()
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.coalesced == n_threads - 1

    def test_loader_error_propagates_and_caches_nothing(self):
        cache = TileLRUCache(byte_budget=1 << 20)

        def boom():
            raise RuntimeError("decode failed")

        with pytest.raises(RuntimeError):
            cache.get_or_load("k", boom)
        assert cache.get("k") is None
        # a later good load works (no stuck in-flight entry)
        value, hit = cache.get_or_load("k", lambda: _arr(64))
        assert not hit and value is not None

    def test_loader_error_reaches_waiters(self):
        cache = TileLRUCache(byte_budget=1 << 20)
        n_threads = 4
        barrier = threading.Barrier(n_threads)

        def loader():
            time.sleep(0.05)
            raise RuntimeError("decode failed")

        def worker(_):
            barrier.wait()
            try:
                cache.get_or_load("k", loader)
                return None
            except RuntimeError as exc:
                return str(exc)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(worker, range(n_threads)))
        assert results == ["decode failed"] * n_threads


class TestSharding:
    def test_budget_split_across_shards(self):
        cache = TileLRUCache(byte_budget=1024, shards=4)
        assert cache.stats().byte_budget == 1024
        assert cache.stats().shards == 4

    def test_tiny_budget_clamps_shard_count(self):
        cache = TileLRUCache(byte_budget=2, shards=8)
        assert cache.stats().shards == 2

    def test_concurrent_mixed_workload_consistent(self):
        cache = TileLRUCache(byte_budget=1 << 16, shards=4)
        n_threads = 8

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(200):
                key = int(rng.integers(32))
                value, _ = cache.get_or_load(
                    key, lambda k=key: _arr(256, fill=float(k))
                )
                assert float(value[0]) == float(key)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(worker, range(n_threads)))
        stats = cache.stats()
        assert stats.hits + stats.misses + stats.coalesced >= (
            n_threads * 200
        )
        assert stats.bytes_cached <= 1 << 16


class TestGetOrLoadMany:
    @staticmethod
    def _filled(budget: int) -> TileLRUCache:
        # one shard: one LRU order, so evictions are deterministic
        cache = TileLRUCache(byte_budget=budget, shards=1)
        for key in "abcd":
            cache.put(key, _arr(64, fill=ord(key)))
        return cache

    @staticmethod
    def _value(key) -> np.ndarray:
        if key == "boom":
            raise RuntimeError("boom failed")
        return _arr(64, fill=ord(key[0]))

    def test_counters_equal_per_key_get_or_load(self):
        # hits first: a batch refreshes all its hits before it inserts,
        # where per-key calls could evict a key they look up later
        keys = ["c", "d", "x", "y", "boom", "z"]
        one_by_one = self._filled(256)
        for key in keys:
            try:
                one_by_one.get_or_load(key, lambda key=key: self._value(key))
            except RuntimeError:
                pass
        batched = self._filled(256)
        loads = []

        def load_many(leaders):
            loads.append(list(leaders))
            out = []
            for key in leaders:
                try:
                    out.append(self._value(key))
                except RuntimeError as exc:
                    out.append(exc)
            return out

        with pytest.raises(RuntimeError, match="boom failed"):
            batched.get_or_load_many(keys, load_many)
        assert loads == [["x", "y", "boom", "z"]]
        expected = one_by_one.stats()
        assert (expected.hits, expected.misses, expected.evictions) == (2, 4, 3)
        assert expected.load_failures == 1
        assert batched.stats() == expected
        assert sorted(batched.keys()) == sorted(one_by_one.keys())

    def test_values_and_hit_flags_follow_the_keys(self):
        cache = self._filled(1 << 20)
        got = cache.get_or_load_many(
            ["b", "q", "a"], lambda keys: [self._value(k) for k in keys]
        )
        assert [hit for _, hit in got] == [True, False, True]
        assert [float(value[0]) for value, _ in got] == [
            ord("b"), ord("q"), ord("a")
        ]
        assert not got[1][0].flags.writeable

    def test_a_key_listed_twice_loads_once(self):
        cache = TileLRUCache(byte_budget=0)  # nothing is ever cached
        loads = []

        def load_many(keys):
            loads.append(list(keys))
            return [_arr(64, fill=2.0) for _ in keys]

        got = cache.get_or_load_many(["k", "j", "k"], load_many)
        assert loads == [["k", "j"]]
        assert got[0][0] is got[2][0]
        assert cache.stats().misses == 2

    def test_overlapping_threads_load_each_key_once(self):
        cache = TileLRUCache(byte_budget=1 << 20)
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        loaded = []
        lock = threading.Lock()

        def load_many(keys):
            with lock:
                loaded.extend(keys)
            time.sleep(0.02)  # hold the flights open so others pile up
            return [_arr(64, fill=float(k)) for k in keys]

        def worker(t):
            keys = list(range(2 * t, 2 * t + 5))
            barrier.wait()
            got = cache.get_or_load_many(keys, load_many)
            return keys, got

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(worker, range(n_threads)))
        distinct = {k for keys, _ in results for k in keys}
        assert sorted(loaded) == sorted(distinct)
        for keys, got in results:
            assert [float(v[0]) for v, _ in got] == [float(k) for k in keys]
        stats = cache.stats()
        assert stats.misses == len(distinct)
        assert stats.hits + stats.coalesced == n_threads * 5 - len(distinct)

    def test_leaders_are_published_before_followed_keys_are_waited_on(
        self,
    ):
        cache = TileLRUCache(byte_budget=1 << 20)
        entered, release = threading.Event(), threading.Event()

        def slow(keys):
            entered.set()
            release.wait(10)
            return [_arr(64)]

        other = threading.Thread(
            target=cache.get_or_load_many, args=(["y"], slow)
        )
        other.start()
        assert entered.wait(10)
        # leads "x", follows "y", which the other call is still loading
        reader = threading.Thread(
            target=cache.get_or_load_many,
            args=(["x", "y"], lambda keys: [_arr(64)]),
        )
        reader.start()
        deadline = time.monotonic() + 10
        while "x" not in cache.keys() and time.monotonic() < deadline:
            time.sleep(0.001)
        published = "x" in cache.keys()
        waiting = reader.is_alive()
        release.set()
        other.join(10)
        reader.join(10)
        assert published and waiting

    def test_a_failed_key_fails_only_itself_and_its_waiters(self):
        cache = TileLRUCache(byte_budget=1 << 20)
        follower: list = []

        def follow():
            try:
                cache.get_or_load_many(["bad"], lambda keys: 1 / 0)
            except Exception as exc:
                follower.append(exc)

        def load_many(keys):
            # another read claims "bad" while this one loads it
            thread = threading.Thread(target=follow)
            thread.start()
            while cache.stats().coalesced == 0:
                time.sleep(0.001)
            load_many.thread = thread
            return [
                RuntimeError("bad tile") if k == "bad" else _arr(64)
                for k in keys
            ]

        with pytest.raises(RuntimeError, match="bad tile"):
            cache.get_or_load_many(["good1", "bad", "good2"], load_many)
        load_many.thread.join(timeout=10)
        assert [str(exc) for exc in follower] == ["bad tile"]
        assert cache.get("good1") is not None
        assert cache.get("good2") is not None
        assert cache.get("bad") is None
        assert cache.stats().load_failures == 1

    def test_a_raising_load_many_fails_every_leader(self):
        cache = TileLRUCache(byte_budget=1 << 20)
        cache.put("held", _arr(64))

        def load_many(keys):
            raise RuntimeError("batch failed")

        with pytest.raises(RuntimeError, match="batch failed"):
            cache.get_or_load_many(["held", "a", "b"], load_many)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.load_failures) == (1, 2, 2)
        # nothing is left in flight: the keys load again
        got = cache.get_or_load_many(["a", "b"], lambda keys: [_arr(64)] * 2)
        assert [hit for _, hit in got] == [False, False]

    def test_threaded_chain_range_reads_finish(self, tmp_path):
        """Overlapping windows of a temporal chain, read as ranges by
        racing threads through a cache too small to hold them: every
        load waits only on older versions, so no read waits forever,
        and each one reads what a lone reader does."""
        from repro.compressor import CompressionConfig
        from repro.service.store import ArrayStore

        base = np.cumsum(
            np.random.default_rng(3).standard_normal((32, 48)), axis=1
        )
        config = CompressionConfig(error_bound=1e-3, tile_shape=(8, 8))
        cache = TileLRUCache(byte_budget=4096, shards=2)
        windows = [
            (slice(4 * t, 4 * t + 20), slice(6 * t, 6 * t + 30))
            for t in range(4)
        ]
        with ArrayStore(tmp_path / "store", cache=cache) as store:
            for v in range(5):
                store.put_snapshot(
                    "wave", base + 0.01 * v, config, keyframe_interval=5
                )
            expected = [
                [r.data for r in store.read_range("wave", w, 0, 4)]
                for w in windows
            ]
            cache.clear()
            failures: list = []

            def reader(t):
                try:
                    for _ in range(2):
                        got = store.read_range("wave", windows[t], 0, 4)
                        for want, result in zip(expected[t], got):
                            if result.data.tobytes() != want.tobytes():
                                failures.append(t)
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(exc)

            threads = [
                threading.Thread(target=reader, args=(t,), daemon=True)
                for t in range(len(windows))
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
