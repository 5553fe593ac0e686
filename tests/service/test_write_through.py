"""Decoded-tile write-through and the single commit of every put.

Counts, not timers: a put seeds the tile cache with what its encode
reconstructed, so the next delta put's reference and the
read-after-write decode nothing — and the seeded tiles are exactly
what a cold store decodes from the same files, only ever reachable
for a version that committed, under the generation it committed in.
"""

import json
import os

import numpy as np
import pytest

from repro.compressor import CompressionConfig
from repro.service.cache import TileLRUCache
from repro.service.faults import FaultInjector, SimulatedCrash
from repro.service.store import MANIFEST_NAME, ArrayStore
from tests.conftest import assert_error_bounded, smooth_field

EB = 1e-3
WINDOW = (slice(4, 30), slice(10, 44))


def _config(**overrides):
    base = dict(error_bound=EB, tile_shape=(16, 16))
    base.update(overrides)
    return CompressionConfig(**base)


def _snaps(n, shape=(40, 48), drift=0.01):
    snaps = [smooth_field(shape, seed=11).astype(np.float64)]
    for i in range(1, n):
        bump = smooth_field(shape, seed=100 + i, noise=0.0)
        snaps.append(snaps[-1] + drift * bump.astype(np.float64))
    return snaps


@pytest.fixture
def store(tmp_path):
    with ArrayStore(tmp_path / "store") as s:
        yield s


@pytest.fixture
def decodes(monkeypatch):
    """Every tile payload any store decodes, counted at the one seam."""
    calls = []
    original = ArrayStore._decode_tile_blob

    def counting(self, executor, blob, rec, dtype):
        calls.append(rec.shape)
        return original(self, executor, blob, rec, dtype)

    monkeypatch.setattr(ArrayStore, "_decode_tile_blob", counting)
    return calls


class TestChainWriteThrough:
    def test_delta_puts_and_reads_after_write_decode_nothing(
        self, store, decodes
    ):
        for version, snap in enumerate(_snaps(5)):
            record = store.put_snapshot(
                "wave", snap, _config(), keyframe_interval=4
            )
            assert record["keyframe"] is (version % 4 == 0)
            # the put read its reference (all 9 tiles of the previous
            # version) out of the cache: no miss, no decode
            assert store.cache.stats().misses == 0
            assert decodes == []
            after_write = store.read_region("wave", WINDOW, version=version)
            assert after_write.cache_misses == 0
            assert after_write.cache_hits == after_write.tiles_touched == 6
            assert_error_bounded(snap[WINDOW], after_write.data, EB)
        stats = store.cache.stats()
        assert (stats.misses, stats.entries) == (0, 5 * 9)
        # 3 delta puts x 9 reference tiles + 5 reads x 6 tiles
        assert stats.hits == 3 * 9 + 5 * 6
        assert decodes == []

    @pytest.mark.filterwarnings(
        "ignore:the entropy stage cannot release the GIL"
    )
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_seeded_versions_equal_a_cold_store(self, tmp_path, backend):
        """Every version of a chain that crosses a keyframe boundary,
        served from seeded tiles, is what a second store decodes from
        the same files."""
        snaps = _snaps(6)
        root = tmp_path / f"store-{backend}"
        with ArrayStore(root, workers=2, parallel_backend=backend) as warm:
            for snap in snaps:
                warm.put_snapshot(
                    "wave", snap, _config(), keyframe_interval=4
                )
            assert warm.cache.stats().misses == 0
            with ArrayStore(root) as cold:
                for version, snap in enumerate(snaps):
                    seeded = warm.read_full("wave", version=version)
                    decoded = cold.read_full("wave", version=version)
                    assert seeded.dtype == decoded.dtype
                    assert seeded.tobytes() == decoded.tobytes()
                    assert_error_bounded(snap, decoded, EB)
                assert cold.cache.stats().misses == 6 * 9
            assert warm.cache.stats().misses == 0

    def test_adaptive_keyframes_are_seeded_too(self, store, decodes):
        field = _snaps(1)[0]
        store.create("ada", field, _config(adaptive=True, tile_shape=(10, 12)))
        assert store.stat("ada")["container"]["container_version"] == 7
        read = store.read_region("ada", WINDOW)
        assert read.cache_misses == 0 and decodes == []
        with ArrayStore(store.root) as cold:
            assert cold.read_region("ada", WINDOW).data.tobytes() == (
                read.data.tobytes()
            )


class TestWriteThroughIsSkippedByWhatItSees:
    def test_cache_smaller_than_a_snapshot_seeds_nothing(self, tmp_path):
        snaps = _snaps(3)  # 15 360 B each, tiles of 2 048 B
        cache = TileLRUCache(byte_budget=8192, shards=1)
        with ArrayStore(tmp_path / "store", cache=cache) as store:
            store.create("plain", snaps[0], _config())
            assert cache.stats().entries == 0
            for snap in snaps:
                store.put_snapshot("wave", snap, _config())
                # nothing but what the put's own reference read left
                assert all(key[0] == "wave" for key in cache.keys())
                assert cache.stats().bytes_cached <= 8192
            assert not any(key[2] == 2 for key in cache.keys())
            for version, snap in enumerate(snaps):
                assert_error_bounded(
                    snap, store.read_full("wave", version=version), EB
                )
            with ArrayStore(store.root) as cold:
                assert (
                    store.read_full("wave").tobytes()
                    == cold.read_full("wave").tobytes()
                )

    def test_a_codec_that_surfaces_nothing_seeds_nothing(
        self, store, monkeypatch
    ):
        from repro.compressor.stages import PredictorStage

        original = PredictorStage.decompose

        def opaque(self, work, config, abs_eb, reconstruct=False):
            return original(self, work, config, abs_eb)

        monkeypatch.setattr(PredictorStage, "decompose", opaque)
        snaps = _snaps(2)
        for snap in snaps:
            store.put_snapshot("wave", snap, _config())
        # the delta put decoded its reference into the cache; nothing
        # of the version it wrote is there
        assert {key[2] for key in store.cache.keys()} == {0}
        assert store.read_region("wave", WINDOW).cache_misses == 6
        assert_error_bounded(snaps[1], store.read_full("wave"), EB)


class TestSeedsFollowCommits:
    def test_overwrite_and_recreate_never_serve_the_old_generation(
        self, store, decodes
    ):
        first, second = _snaps(2, drift=0.5)
        store.create("press", first, _config())
        old_keys = set(store.cache.keys())
        assert len(old_keys) == 9
        store.create("press", second, _config(), overwrite=True)
        assert old_keys.isdisjoint(store.cache.keys())
        assert_error_bounded(second, store.read_full("press"), EB)
        store.delete("press")
        assert list(store.cache.keys()) == []
        store.create("press", first, _config())
        generations = {key[1] for key in store.cache.keys()}
        assert generations == {store.info("press")["generation"]}
        assert generations.isdisjoint(key[1] for key in old_keys)
        assert_error_bounded(first, store.read_full("press"), EB)
        assert decodes == []

    def test_the_loser_of_a_concurrent_append_seeds_nothing(
        self, store, monkeypatch
    ):
        snaps = _snaps(3, drift=0.2)
        store.put_snapshot("wave", snaps[0], _config())
        original = ArrayStore.read_full
        fired = []

        def sneaky(self_, name, version=None):
            if not fired:
                fired.append(True)
                store.put_snapshot("wave", snaps[1], _config())
            return original(self_, name, version=version)

        monkeypatch.setattr(ArrayStore, "read_full", sneaky)
        with pytest.raises(ValueError, match="concurrent append"):
            store.put_snapshot("wave", snaps[2], _config())
        monkeypatch.setattr(ArrayStore, "read_full", original)
        # the winner's version 1 is seeded; the loser (who encoded
        # snaps[2] as a version 1 of its own) left nothing behind
        assert {key[2] for key in store.cache.keys()} == {0, 1}
        served = store.read_full("wave", version=1)
        assert_error_bounded(snaps[1], served, EB)
        with ArrayStore(store.root) as cold:
            assert cold.read_full("wave").tobytes() == served.tobytes()

    @pytest.mark.parametrize(
        "point",
        [
            "intent_written",
            "version_tmp_written",
            "version_file_synced",
            "version_renamed",
            "manifest_tmp_written",
        ],
    )
    def test_a_put_that_crashed_before_its_commit_seeded_nothing(
        self, tmp_path, point
    ):
        snaps = _snaps(2)
        # the first put passes every point once; the second dies there
        faults = FaultInjector(crash_points={point: 2})
        with ArrayStore(tmp_path / "store", faults=faults) as store:
            store.put_snapshot("wave", snaps[0], _config())
            with pytest.raises(SimulatedCrash):
                store.put_snapshot("wave", snaps[1], _config())
            assert {key[2] for key in store.cache.keys()} == {0}


class TestSingleManifestCommit:
    def test_chain_creation_commits_the_manifest_once(
        self, store, monkeypatch
    ):
        persists = []
        original = ArrayStore._persist

        def counting(self):
            persists.append(
                self._manifest["datasets"]["wave"]["keyframe_interval"]
            )
            return original(self)

        monkeypatch.setattr(ArrayStore, "_persist", counting)
        store.put_snapshot("wave", _snaps(1)[0], _config(), keyframe_interval=7)
        # one rewrite, and it already carries the chain's interval
        assert persists == [7]
        with ArrayStore(store.root) as reopened:
            assert reopened.info("wave")["keyframe_interval"] == 7

    def test_every_put_is_one_intent_one_rename_one_manifest(
        self, tmp_path
    ):
        faults = FaultInjector()
        with ArrayStore(tmp_path / "store", faults=faults) as store:
            for puts, snap in enumerate(_snaps(2), start=1):
                store.put_snapshot("wave", snap, _config())
                assert faults.hits == dict.fromkeys(
                    [
                        "intent_written",
                        "version_tmp_written",
                        "version_file_synced",
                        "version_renamed",
                        "manifest_tmp_written",
                        "manifest_renamed",
                        "intent_cleared",
                    ],
                    puts,
                )

    def test_manifest_is_compact_sorted_json(self, store):
        store.create("b", _snaps(1)[0], _config())
        store.create("a", _snaps(1)[0], _config())
        with open(os.path.join(store.root, MANIFEST_NAME)) as fh:
            text = fh.read()
        assert text.endswith("\n") and text.count("\n") == 1
        manifest = json.loads(text)
        assert text == json.dumps(manifest, sort_keys=True) + "\n"
        assert list(manifest["datasets"]) == ["a", "b"]

    def test_an_indented_manifest_still_opens(self, tmp_path):
        field = _snaps(1)[0]
        root = tmp_path / "store"
        with ArrayStore(root) as store:
            store.create("press", field, _config())
        path = os.path.join(root, MANIFEST_NAME)
        with open(path) as fh:
            manifest = json.load(fh)
        with open(path, "w") as fh:  # as earlier revisions wrote it
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with ArrayStore(root) as reopened:
            assert reopened.names() == ["press"]
            assert_error_bounded(field, reopened.read_full("press"), EB)
            reopened.put_snapshot("press", field, _config())
        with ArrayStore(root) as again:
            assert again.info("press")["latest_version"] == 1
