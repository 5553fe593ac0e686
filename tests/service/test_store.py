"""Tests for the multi-dataset compressed-array store."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.compressor import CompressionConfig, ErrorBoundMode
from repro.service.cache import TileLRUCache
from repro.service.store import ArrayStore
from tests.conftest import assert_error_bounded, smooth_field

EB = 1e-3


@pytest.fixture
def field():
    return smooth_field((40, 48), seed=11)


@pytest.fixture
def store(tmp_path):
    with ArrayStore(tmp_path / "store") as s:
        yield s


def _config(**overrides):
    base = dict(error_bound=EB, tile_shape=(16, 16))
    base.update(overrides)
    return CompressionConfig(**base)


class TestCreate:
    def test_create_and_read_full(self, store, field):
        entry = store.create("press", field, _config())
        assert entry["name"] == "press"
        assert entry["shape"] == [40, 48]
        assert entry["n_tiles"] == 9
        back = store.read_full("press")
        assert back.dtype == field.dtype
        assert_error_bounded(field, back, EB)

    def test_container_on_disk_is_plain_rqsz(self, store, field):
        store.create("press", field, _config())
        path = os.path.join(store.root, "press.rqsz")
        assert os.path.exists(path)
        from repro.compressor import TiledCompressor

        back = TiledCompressor().decompress(path)
        assert_error_bounded(field, back, EB)

    def test_duplicate_create_rejected(self, store, field):
        store.create("press", field, _config())
        with pytest.raises(ValueError, match="already exists"):
            store.create("press", field, _config())

    def test_overwrite_replaces(self, store, field):
        store.create("press", field, _config())
        store.create("press", field * 2.0, _config(), overwrite=True)
        back = store.read_full("press")
        assert_error_bounded(field * 2.0, back, EB)

    def test_invalid_names_rejected(self, store, field):
        for bad in ("", "../evil", "a/b", ".hidden", "a" * 200):
            with pytest.raises(ValueError, match="invalid dataset name"):
                store.create(bad, field, _config())

    def test_adaptive_dataset_round_trips(self, store, field):
        entry = store.create(
            "ada", field, _config(adaptive=True, tile_shape=(10, 12))
        )
        assert entry["config"]["adaptive"] is True
        stat = store.stat("ada")
        assert stat["container"]["container_version"] == 7
        back = store.read_full("ada")
        assert back.shape == field.shape


class TestMetadata:
    def test_names_and_list(self, store, field):
        store.create("b", field, _config())
        store.create("a", field, _config())
        assert store.names() == ["a", "b"]
        listed = store.list_datasets()
        assert [d["name"] for d in listed] == ["a", "b"]
        assert all("ratio" in d for d in listed)

    def test_info_missing_dataset(self, store):
        with pytest.raises(KeyError, match="no dataset named"):
            store.info("ghost")

    def test_stat_includes_container_description(self, store, field):
        store.create("press", field, _config())
        stat = store.stat("press")
        assert stat["container"]["container_version"] == 7
        assert stat["container"]["tile_map"]["n_tiles"] == 9

    def test_persistence_across_instances(self, tmp_path, field):
        root = tmp_path / "store"
        with ArrayStore(root) as first:
            first.create("press", field, _config())
        with ArrayStore(root) as second:
            assert second.names() == ["press"]
            back = second.read_full("press")
            assert_error_bounded(field, back, EB)

    def test_corrupt_manifest_rejected(self, tmp_path):
        root = tmp_path / "store"
        os.makedirs(root)
        (root / "store.json").write_text("[]")
        with pytest.raises(ValueError, match="corrupt store manifest"):
            ArrayStore(root)


class TestRegionReads:
    def test_region_decodes_only_intersecting_tiles(self, store, field):
        store.create("press", field, _config())
        store.cache.clear()  # drop the tiles the put wrote through
        result = store.read_region(
            "press", (slice(0, 16), slice(0, 16))
        )
        assert result.tiles_touched == 1
        assert result.cache_misses == 1
        np.testing.assert_array_equal(
            result.data, store.read_full("press")[0:16, 0:16]
        )

    def test_second_read_hits_cache(self, store, field):
        store.create("press", field, _config())
        store.cache.clear()  # drop the tiles the put wrote through
        region = (slice(4, 30), slice(10, 44))
        cold = store.read_region("press", region)
        warm = store.read_region("press", region)
        assert cold.cache_misses == cold.tiles_touched
        assert warm.cache_hits == warm.tiles_touched
        assert warm.cache_misses == 0
        assert warm.data.tobytes() == cold.data.tobytes()

    def test_region_text_forms_match(self, store, field):
        store.create("press", field, _config())
        a = store.read_region("press", (slice(0, 8), slice(0, 8)))
        b = store.read_region("press", (slice(0, 8), slice(0, 8)))
        assert a.data.tobytes() == b.data.tobytes()

    def test_read_missing_dataset(self, store):
        with pytest.raises(KeyError, match="no dataset named"):
            store.read_region("ghost", (slice(0, 4),))

    def test_cache_not_polluted_across_datasets(self, store, field):
        store.create("a", field, _config())
        store.create("b", field * -1.0, _config())
        full_a = store.read_full("a")
        full_b = store.read_full("b")
        assert not np.array_equal(full_a, full_b)
        assert_error_bounded(field, full_a, EB)
        assert_error_bounded(field * -1.0, full_b, EB)


class TestDelete:
    def test_delete_removes_file_entry_and_cache(self, store, field):
        store.create("press", field, _config())
        store.read_full("press")  # populate the cache
        assert any(
            key[0] == "press" for key in store.cache.keys()
        )
        store.delete("press")
        assert store.names() == []
        assert not os.path.exists(
            os.path.join(store.root, "press.rqsz")
        )
        assert not any(
            key[0] == "press" for key in store.cache.keys()
        )

    def test_delete_missing_dataset(self, store):
        with pytest.raises(KeyError, match="no dataset named"):
            store.delete("ghost")

    def test_recreate_after_delete_serves_new_data(self, store, field):
        store.create("press", field, _config())
        store.read_full("press")
        store.delete("press")
        store.create("press", field + 5.0, _config())
        back = store.read_full("press")
        assert_error_bounded(field + 5.0, back, EB)


class TestOverwriteRaces:
    def test_inflight_decode_cannot_poison_overwritten_dataset(
        self, store, field
    ):
        """A tile decoded against generation N must never be served
        for the generation-N+1 dataset at the same byte offset."""
        store.create("press", field, _config())
        reader, gen_before, _, _ = store._reader("press")
        record = reader.tiles[0]
        stale_tile = np.full(record.shape, 1234.5, dtype=field.dtype)

        # simulate the race: a leader thread finishes its decode
        # *after* the overwrite and inserts under the old generation
        store.create("press", field + 9.0, _config(), overwrite=True)
        store.cache.put(
            ("press", gen_before, 0, record.offset), stale_tile
        )

        result = store.read_region(
            "press", tuple(slice(a, b) for a, b in
                           zip(record.start, record.stop))
        )
        assert not np.array_equal(result.data, stale_tile)
        assert_error_bounded(
            (field + 9.0)[tuple(
                slice(a, b) for a, b in zip(record.start, record.stop)
            )],
            result.data,
            EB,
        )

    def test_generation_bumps_across_create_delete_create(
        self, store, field
    ):
        store.create("press", field, _config())
        _, g1, _, _ = store._reader("press")
        store.delete("press")
        store.create("press", field, _config())
        _, g2, _, _ = store._reader("press")
        assert g2 > g1


class TestCorruptContainers:
    def test_unreadable_container_raises_dataset_corrupt(
        self, store, field
    ):
        from repro.service.store import DatasetCorruptError

        store.create("press", field, _config())
        store.close()  # drop the open reader so the damage is seen
        path = os.path.join(store.root, "press.rqsz")
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        with pytest.raises(DatasetCorruptError, match="unreadable"):
            store.read_region("press", (slice(0, 4), slice(0, 4)))
        with pytest.raises(DatasetCorruptError, match="unreadable"):
            store.stat("press")

    def test_one_bad_tile_fails_only_itself(self, tmp_path, field):
        from repro.compressor.container import TiledReader
        from repro.service.store import DatasetCorruptError

        root = tmp_path / "store"
        snaps = _drifting_snaps(field, 2)
        with ArrayStore(root) as writer:
            for snap in snaps:
                writer.put_snapshot("wave", snap, _config())
        path = root / "wave@v1.rqsz"
        with TiledReader(str(path)) as reader:
            bad = reader.tiles[4]  # the middle tile of the 3 x 3 grid
        blob = bytearray(path.read_bytes())
        blob[bad.offset + bad.size // 2] ^= 0x10
        path.write_bytes(bytes(blob))
        with ArrayStore(root) as store:
            with pytest.raises(
                DatasetCorruptError,
                match=f"tile at offset {bad.offset} of dataset 'wave' "
                "version 1 failed to decode",
            ):
                store.read_full("wave", version=1)
            assert store.cache.stats().load_failures == 1
            # the read's eight good tiles were cached
            good = store.read_region("wave", (slice(0, 16),), version=1)
            assert (good.cache_hits, good.cache_misses) == (3, 0)
            assert_error_bounded(snaps[1][:16], good.data, EB)
            degraded = store.read_region(
                "wave", (), version=1, allow_degraded=True
            )
            assert degraded.degraded and degraded.version == 0
            assert_error_bounded(snaps[0], degraded.data, EB)

    def test_corrupt_manifest_json_clean_error(self, tmp_path):
        root = tmp_path / "store"
        os.makedirs(root)
        (root / "store.json").write_text('{"datasets": ')  # truncated
        with pytest.raises(ValueError, match="corrupt store manifest"):
            ArrayStore(root)

    def test_inflight_reader_survives_delete(self, store, field):
        """A read that started before delete() finishes against the
        old file instead of crashing on a closed handle."""
        from tests.oracle import decode_alone

        def decoded():
            return decode_alone(
                reader.read_tile(record),
                record.shape,
                field.dtype,
                params=record.params,
            )

        store.create("press", field, _config())
        reader, _, _, _ = store._reader("press")
        record = reader.tiles[0]
        expected = decoded()
        store.delete("press")
        # the popped reader is still open; the unlinked file serves it
        np.testing.assert_array_equal(decoded(), expected)


class TestSharedCache:
    def test_injected_cache_is_used(self, tmp_path, field):
        cache = TileLRUCache(byte_budget=8 << 20)
        with ArrayStore(tmp_path / "store", cache=cache) as store:
            store.create("press", field, _config())
            store.read_full("press")
            assert cache.stats().entries > 0

    def test_rel_mode_dataset(self, store, field):
        store.create(
            "rel",
            field,
            _config(mode=ErrorBoundMode.REL, error_bound=1e-3),
        )
        back = store.read_full("rel")
        rng = float(field.max() - field.min())
        assert_error_bounded(field, back, 1e-3 * rng)


def _drifting_snaps(field, n, drift=0.01):
    snaps = [np.asarray(field, dtype=np.float64)]
    for i in range(1, n):
        bump = smooth_field(field.shape, seed=100 + i, noise=0.0)
        snaps.append(snaps[-1] + drift * bump.astype(np.float64))
    return snaps


class TestSnapshotChains:
    def test_chain_append_and_versioned_reads(self, store, field):
        snaps = _drifting_snaps(field, 6)
        for snap in snaps:
            store.put_snapshot(
                "wave", snap, _config(), keyframe_interval=4
            )
        chain = store.versions("wave")
        assert [s["version"] for s in chain] == list(range(6))
        assert [s["keyframe"] for s in chain] == [
            True, False, False, False, True, False,
        ]
        for v, snap in enumerate(snaps):
            back = store.read_full("wave", version=v)
            assert_error_bounded(snap, back, EB)

    def test_first_put_creates_keyframe_chain(self, store, field):
        record = store.put_snapshot("wave", field, _config())
        assert record["version"] == 0
        assert record["keyframe"] is True
        assert store.info("wave")["latest_version"] == 0

    def test_deltas_record_temporal_tiles(self, store, field):
        snaps = _drifting_snaps(field, 2)
        store.put_snapshot("wave", snaps[0], _config())
        record = store.put_snapshot("wave", snaps[1], _config())
        assert record["keyframe"] is False
        assert record["ref_version"] == 0
        assert record["temporal_tiles"] > 0
        assert (
            record["temporal_tiles"] + record["spatial_tiles"] == 9
        )

    def test_chain_depth_bounded_by_keyframe_interval(
        self, store, field
    ):
        snaps = _drifting_snaps(field, 7)
        for snap in snaps:
            store.put_snapshot(
                "wave", snap, _config(), keyframe_interval=3
            )
        for v in range(7):
            depth = store.stat("wave", version=v)["chain_depth"]
            assert depth == v % 3 + 1
            assert depth <= 3

    def test_region_read_of_delta_version(self, store, field):
        snaps = _drifting_snaps(field, 3)
        for snap in snaps:
            store.put_snapshot("wave", snap, _config())
        region = (slice(4, 28), slice(10, 40))
        result = store.read_region("wave", region, version=2)
        assert result.version == 2
        assert result.chain_depth == 3
        full = store.read_full("wave", version=2)
        np.testing.assert_array_equal(result.data, full[region])

    def test_read_range_stacks_versions_and_shares_tiles(
        self, store, field
    ):
        snaps = _drifting_snaps(field, 4)
        for snap in snaps:
            store.put_snapshot("wave", snap, _config())
        region = (slice(0, 16), slice(0, 16))
        results = store.read_range("wave", region, 0, 3)
        assert [r.version for r in results] == [0, 1, 2, 3]
        for snap, result in zip(snaps, results):
            assert_error_bounded(snap[region], result.data, EB)
        # ascending walk: each chain tile decoded at most once, so a
        # re-read of the range is all hits
        warm = store.read_range("wave", region, 0, 3)
        assert all(r.cache_misses == 0 for r in warm)

    def test_shape_and_dtype_mismatch_rejected(self, store, field):
        store.put_snapshot("wave", field, _config())
        with pytest.raises(ValueError, match="shape"):
            store.put_snapshot("wave", field[:-1], _config())
        with pytest.raises(ValueError, match="dtype"):
            store.put_snapshot(
                "wave", field.astype(np.float64), _config()
            )

    def test_unknown_version_rejected(self, store, field):
        snaps = _drifting_snaps(field, 2)
        for snap in snaps:
            store.put_snapshot("wave", snap, _config())
        with pytest.raises(KeyError, match="no snapshot version"):
            store.read_full("wave", version=3)
        with pytest.raises(KeyError, match="no snapshot version"):
            store.read_range("wave", (slice(0, 8), slice(0, 8)), 0, -1)
        with pytest.raises(ValueError, match="empty version range"):
            store.read_range("wave", (slice(0, 8), slice(0, 8)), 1, 0)

    def test_delete_removes_every_chain_file(self, store, field):
        snaps = _drifting_snaps(field, 3)
        for snap in snaps:
            store.put_snapshot("wave", snap, _config())
        files = [
            os.path.join(store.root, s["file"])
            for s in store.versions("wave")
        ]
        assert all(os.path.exists(f) for f in files)
        store.delete("wave")
        assert not any(os.path.exists(f) for f in files)
        assert not any(
            key[0] == "wave" for key in store.cache.keys()
        )

    def test_chain_persists_across_instances(self, tmp_path, field):
        snaps = _drifting_snaps(field, 3)
        root = tmp_path / "store"
        with ArrayStore(root) as first:
            for snap in snaps:
                first.put_snapshot("wave", snap, _config())
        with ArrayStore(root) as second:
            for v, snap in enumerate(snaps):
                assert_error_bounded(
                    snap, second.read_full("wave", version=v), EB
                )

    def test_total_compressed_bytes_accumulates(self, store, field):
        snaps = _drifting_snaps(field, 3)
        for snap in snaps:
            store.put_snapshot("wave", snap, _config())
        entry = store.info("wave")
        assert entry["total_compressed_bytes"] == sum(
            s["compressed_bytes"] for s in store.versions("wave")
        )

    def test_legacy_created_dataset_accepts_appends(self, store, field):
        """create() then put_snapshot() continues the chain at v1."""
        field = np.asarray(field, dtype=np.float64)
        store.create("press", field, _config())
        snaps = _drifting_snaps(field, 2)
        record = store.put_snapshot("press", snaps[1], _config())
        assert record["version"] == 1
        assert record["keyframe"] is False
        assert_error_bounded(
            snaps[1], store.read_full("press", version=1), EB
        )
        # version 0 still reads as before
        assert_error_bounded(field, store.read_full("press", version=0), EB)


#: puts and reads a chain of argv[2] versions under an open-file limit of
#: argv[1]; prints the versions that did not read back exactly
_LONG_CHAIN = """
import resource, sys, tempfile
import numpy as np
from repro.compressor import CompressionConfig
from repro.service.cache import TileLRUCache
from repro.service.store import ArrayStore

limit, n = map(int, sys.argv[1:])
hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
field = np.cumsum(np.random.default_rng(0).standard_normal((8, 8)), axis=1)
config = CompressionConfig(error_bound=1e-3)
bad = []
with tempfile.TemporaryDirectory() as root:
    with ArrayStore(root, cache=TileLRUCache(0)) as store:
        for v in range(n):
            store.put_snapshot("wave", field + v, config)
        for v in range(n):
            got = store.read_region("wave", (), version=v, allow_degraded=True)
            if got.degraded or np.max(np.abs(got.data - field - v)) > 1e-3:
                bad.append(v)
print(bad)
"""


class TestOpenFiles:
    def test_a_chain_longer_than_the_open_file_limit_reads_exactly(self):
        """A store holds a bounded number of versions open, so a chain
        longer than the process's open-file limit still puts, and every
        version reads back exact, never degraded to a keyframe."""
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", _LONG_CHAIN, "32", "40"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"


class TestSnapshotAppendRaces:
    def test_read_racing_put_snapshot_serves_consistent_version(
        self, store, field
    ):
        """A read that resolved version N before an append finishes
        must keep serving version N's bytes: appends never bump the
        generation or invalidate existing cache entries."""
        snaps = _drifting_snaps(field, 2)
        store.put_snapshot("wave", snaps[0], _config())

        # the read starts: resolves the latest version (0) and decodes
        reader, generation, resolved, _ = store._reader("wave")
        assert resolved == 0
        before = store.read_region(
            "wave", (slice(0, 16), slice(0, 16)), version=resolved
        )

        # an append lands mid-read
        store.put_snapshot("wave", snaps[1], _config())

        # the in-flight read's version is untouched: same generation,
        # same cache entries, byte-identical data
        _, gen_after, _, _ = store._reader("wave", version=0)
        assert gen_after == generation
        after = store.read_region(
            "wave", (slice(0, 16), slice(0, 16)), version=0
        )
        assert after.cache_hits == after.tiles_touched
        assert after.data.tobytes() == before.data.tobytes()

        # and the new version is distinct in the cache: reading it
        # serves its own tiles rather than reusing version 0's
        fresh = store.read_region(
            "wave", (slice(0, 16), slice(0, 16)), version=1
        )
        assert fresh.data.tobytes() != before.data.tobytes()
        assert_error_bounded(
            snaps[1][(slice(0, 16), slice(0, 16))], fresh.data, EB
        )

    def test_cache_keys_distinguish_versions_at_equal_offsets(
        self, store, field
    ):
        """Chain versions share byte offsets; only the version
        component keeps their cache entries apart."""
        snaps = _drifting_snaps(field, 5, drift=0.05)
        for snap in snaps:
            store.put_snapshot(
                "wave", snap, _config(), keyframe_interval=4
            )
        # versions 0 and 4 are both keyframes with identical layouts
        r0, _, _, _ = store._reader("wave", version=0)
        r4, _, _, _ = store._reader("wave", version=4)
        assert r0.tiles[0].offset == r4.tiles[0].offset
        a = store.read_full("wave", version=0)
        b = store.read_full("wave", version=4)
        assert not np.array_equal(a, b)
        assert_error_bounded(snaps[0], a, EB)
        assert_error_bounded(snaps[4], b, EB)

    def test_concurrent_append_conflict_detected(
        self, store, field, monkeypatch
    ):
        """Two writers resolve the same next version; the loser's
        commit is rejected instead of silently clobbering the chain."""
        snaps = _drifting_snaps(field, 3)
        store.put_snapshot("wave", snaps[0], _config())
        original = ArrayStore.read_full
        fired = []

        def sneaky(self_, name, version=None):
            if not fired:
                fired.append(True)
                # a competing writer lands its append in the window
                # between this writer's version resolution (inside
                # the lock) and its commit (encode runs unlocked)
                store.put_snapshot("wave", snaps[1], _config())
            return original(self_, name, version=version)

        monkeypatch.setattr(ArrayStore, "read_full", sneaky)
        with pytest.raises(ValueError, match="concurrent append"):
            store.put_snapshot("wave", snaps[2], _config())
        monkeypatch.setattr(ArrayStore, "read_full", original)
        # the winner's append is intact and every version still decodes
        assert store.info("wave")["latest_version"] == 1
        assert_error_bounded(
            snaps[1], store.read_full("wave", version=1), EB
        )


class TestOneWritePath:
    """create and put_snapshot are one path: same compressor, same cleanup."""

    @pytest.fixture
    def planned(self, monkeypatch):
        """Every ``AdaptivePlanner.plan`` call: settings in, plan out."""
        from repro.compressor import AdaptivePlanner

        calls = []
        real = AdaptivePlanner.plan

        def spy(planner, data, config, tile_shape, **kwargs):
            plan = real(planner, data, config, tile_shape, **kwargs)
            calls.append(
                dict(
                    sample_rate=planner.sample_rate,
                    seed=planner.seed,
                    dataset=kwargs.get("dataset"),
                    cache=kwargs.get("cache"),
                    outcome=plan.stats.cache,
                )
            )
            return plan

        monkeypatch.setattr(AdaptivePlanner, "plan", spy)
        return calls

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_every_keyframe_plans_like_version_zero(
        self, tmp_path, field, planned, backend
    ):
        """Keyframes of later versions keep the planner's sampling
        settings, the plan cache and the dataset name that keys it."""
        from repro.compressor import PlannerCache

        plans = PlannerCache()
        store = ArrayStore(
            tmp_path / "s",
            workers=2,
            parallel_backend=backend,
            plan_cache=plans,
            keyframe_interval=2,
        )
        with store:
            for version in range(5):  # a statistically unchanged stream
                record = store.put_snapshot(
                    "wave", field, _config(adaptive=True)
                )
                assert record["keyframe"] is (version % 2 == 0)
        assert len(planned) == 3  # v0, v2, v4: deltas are never planned
        for call in planned:
            assert call["dataset"] == "wave"
            assert call["cache"] is plans
            assert call["sample_rate"] == 0.05
            assert call["seed"] == 0
        assert [call["outcome"] for call in planned] == ["miss", "hit", "hit"]

    @pytest.mark.parametrize(
        "put", ["create", "overwrite", "first", "delta", "keyframe"]
    )
    def test_failed_encode_leaves_nothing_behind(
        self, store, field, monkeypatch, put
    ):
        """Temp file removed, nothing committed, nothing seeded."""
        from repro.compressor.container import TiledWriter

        config = _config()
        if put not in ("create", "first"):
            store.put_snapshot("wave", field, config, keyframe_interval=2)
        if put == "keyframe":
            store.put_snapshot("wave", field, config)
        before = (
            sorted(os.listdir(store.root)),
            store.list_datasets(),
            store.cache.stats().entries,
        )

        def failing(writer):
            raise RuntimeError("disk full")

        monkeypatch.setattr(TiledWriter, "finish", failing)
        with pytest.raises(RuntimeError, match="disk full"):
            if put in ("create", "overwrite"):
                store.create("wave", field * 2, config, overwrite=True)
            else:
                store.put_snapshot("wave", field * 2, config)
        assert before == (
            sorted(os.listdir(store.root)),
            store.list_datasets(),
            store.cache.stats().entries,
        )


class TestStoreWrittenByThePreviousFormat:
    """``tests/data/pr22_store``: a chain the parent of PR 23 wrote — a
    v4 keyframe and two v6 deltas — with what it decoded them to."""

    SOURCE = os.path.join(os.path.dirname(__file__), "..", "data", "pr22_store")

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_it_is_served_and_extended_with_v7_deltas(self, tmp_path, backend):
        import shutil

        root = str(tmp_path / "store")
        shutil.copytree(self.SOURCE, root)
        expected = np.load(os.path.join(root, "expected.npy"))
        step = np.load(os.path.join(root, "next_step.npy"))
        window = (slice(3, 21), slice(5, 24))
        with ArrayStore(root, workers=2, parallel_backend=backend) as store:
            versions = [
                store.stat("wave", version=v)["container"]["container_version"]
                for v in range(3)
            ]
            assert versions == [4, 6, 6]
            # a delta against a v6 delta's decode, then the next keyframe
            for _ in range(2):
                record = store.put_snapshot(
                    "wave", step, CompressionConfig(error_bound=1e-3, tile_shape=(8, 8))
                )
            assert record["version"] == 4 and record["keyframe"]
            stat = store.stat("wave", version=3)
            assert stat["container"]["container_version"] == 7
            assert stat["container"]["temporal"] and stat["chain_depth"] == 4
        # a fresh process, a cold cache: the v7 delta decodes through the
        # v6 -> v6 -> v4 chain under it
        with ArrayStore(root, workers=2, parallel_backend=backend) as store:
            results = store.read_range("wave", window, 0, 4)
            assert [r.version for r in results] == [0, 1, 2, 3, 4]
            for result, want in zip(results[:3], expected):
                assert result.data.tobytes() == want[window].tobytes()
            for result in results[3:]:
                assert_error_bounded(step[window], result.data, 1e-3)
            np.testing.assert_array_equal(
                store.read_full("wave", version=2), expected[2]
            )
