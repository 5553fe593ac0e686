"""Golden-fixture compatibility: released blobs decode byte-identically.

``tests/data`` holds containers generated by earlier revisions of the
codec (v2 from the seed, v3 from the pre-refactor chunked pipeline, v4
from the PR-2 tiled subsystem, v5 from the PR-3 adaptive subsystem and
the PR-8 clustered planner, v6 from the PR-9 temporal snapshot stream
mode) next to ``*_expected.npy`` snapshots of what those revisions
decoded them to.  The current pipeline must reproduce those arrays *exactly* —
not merely within the error bound — or silent decode drift has crept
into a released format.  The v7 fixtures (PR 23) are the same inputs
and configs as the v4 / v5-clustered / v6 ones in the frame written
today, and must decode to *their* expected arrays: the format moved
framing, not values.  ``pr23_v7_uniform`` records the v4 twin's
``chunk_size``, which no config sets any more: it is frozen, and
``pr26_v7_uniform`` is the same container without it.
``v7_long_code`` holds a Huffman code longer than 16 bits, which only
files written before codes were length-limited carry.
``tests/data/make_tiled_fixtures.py`` documents the regeneration policy
(format-version bumps only).
"""

import hashlib
import importlib.util
import json
import os

import numpy as np
import pytest

from repro.compressor import (
    CompressionConfig,
    TemporalCompressor,
    TiledCompressor,
)
from repro.compressor.container import TiledReader, unpack_tile
from repro.compressor.executor import BACKENDS
from repro.compressor.tiled_geometry import extent_slices, normalize_region
from repro.service.store import ArrayStore
from tests.conftest import adopt_container
from tests.oracle import assert_same_verdict, tile_routes

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "data")

GOLDEN_BLOBS = [
    "seed_v2_zstd",
    "seed_v2_none",
    "seed_v2_rle",
    "seed_v3_zstd",
]

GOLDEN_TILED_BLOBS = [
    "pr2_v4_tiled_zstd",
    "pr3_v5_adaptive",
    "pr8_v5_clustered",
]


def _load(name: str) -> tuple[bytes, np.ndarray]:
    with open(os.path.join(DATA_DIR, f"{name}.rqsz"), "rb") as fh:
        blob = fh.read()
    expected = np.load(os.path.join(DATA_DIR, f"{name}_expected.npy"))
    return blob, expected


#: where a fixture is read in part, by container version: a flat blob's
#: one tile, the v6 snapshot's grid, and the 3x3 grid of all the others
FLAT, GRID = (slice(3, 17), slice(10, 25)), (slice(5, 18), slice(3, 16))
PARTIAL = {2: FLAT, 3: FLAT, 6: (slice(5, 30), slice(12, 37))}


def test_v3_golden_blob_is_chunked():
    blob, _ = _load("seed_v3_zstd")
    assert blob[4] == 3


def test_golden_v4_container_version_and_toc():
    blob, _ = _load("pr2_v4_tiled_zstd")
    assert blob[4] == 4
    with TiledReader(blob) as reader:
        assert all(t.config is None for t in reader.tiles)


def test_golden_v5_records_per_tile_configs():
    blob, _ = _load("pr3_v5_adaptive")
    assert blob[4] == 5
    with TiledReader(blob) as reader:
        assert reader.header["adaptive"] is True
        assert len(reader.tiles) == 9
        for record in reader.tiles:
            assert set(record.config) == {
                "predictor",
                "error_bound",
                "quant_radius",
            }
        # heterogeneous field -> heterogeneous recorded bounds
        bounds = {record.config["error_bound"] for record in reader.tiles}
        assert len(bounds) > 1


def test_golden_v5_clustered_records_planner_stats():
    """The PR-8 fixture pins the clustered planner's header schema."""
    blob, _ = _load("pr8_v5_clustered")
    assert blob[4] == 5
    with TiledReader(blob) as reader:
        stats = reader.header["planner_stats"]
        assert stats["tiles_planned"] == 16
        # fit reuse: fewer fits than tiles, refit guard engaged
        assert stats["fits_performed"] < stats["tiles_planned"]
        assert stats["clusters"] == 4
        assert stats["refits"] > 0
        assert stats["cache"] == "disabled"


def test_pre_planner_v5_fixture_has_no_planner_stats():
    """Frozen pr3 container predates the planner_stats header field."""
    blob, _ = _load("pr3_v5_adaptive")
    with TiledReader(blob) as reader:
        assert "planner_stats" not in reader.header


def _load_temporal() -> tuple[bytes, np.ndarray, np.ndarray]:
    blob, expected = _load("pr9_v6_temporal")
    ref = np.load(os.path.join(DATA_DIR, "pr9_v6_temporal_ref.npy"))
    return blob, expected, ref


def test_golden_v6_header_and_toc_schema():
    """The PR-9 fixture pins the v6 container/header byte schema."""
    blob, _, _ = _load_temporal()
    assert blob[4] == 6
    with TiledReader(blob) as reader:
        header = reader.header
        assert header["temporal"] is True
        assert header["ref_snapshot"] == "pr9@v0"
        assert header["snapshot_index"] == 1
        assert header["abs_eb"] == pytest.approx(1e-3)
        stats = header["temporal_stats"]
        assert set(stats) == {
            "tiles",
            "temporal_tiles",
            "spatial_tiles",
            "trivial_tiles",
            "model_decisions",
            "measured_decisions",
        }
        modes = [record.temporal for record in reader.tiles]
        assert len(modes) == 9
        # the fixture field mixes both per-tile choices on purpose
        assert any(modes) and not all(modes)
        assert sum(modes) == stats["temporal_tiles"]


def test_golden_v6_requires_its_reference():
    blob, _, ref = _load_temporal()
    with pytest.raises(ValueError):
        TemporalCompressor().decompress(blob)
    with pytest.raises(ValueError):
        TemporalCompressor().decompress(blob, reference=ref[:-1])
    # the plain tiled front-end must refuse v6 rather than mis-decode
    with pytest.raises(ValueError):
        TiledCompressor().decompress(blob)


def _store_serving(
    root, blob: bytes, ref: np.ndarray | None, backend: str
) -> ArrayStore:
    """A store whose dataset ``gold`` is *blob*, read at its latest version.

    A v6 blob becomes version 1 of a chain whose version 0 decodes to
    exactly *ref*: the stand-in keyframe only lends its tile grid, its
    decoded tiles are seeded into the cache as the fixture's reference.
    """
    if ref is None:
        adopt_container(root, "gold", blob)
        return ArrayStore(root, workers=2, parallel_backend=backend)
    keyframe = TiledCompressor().compress(
        ref, CompressionConfig(error_bound=1e-3, tile_shape=(16, 16))
    )
    adopt_container(root, "gold", keyframe.blob)
    with open(os.path.join(root, "gold@v1.rqsz"), "wb") as fh:
        fh.write(blob)
    manifest_path = os.path.join(root, "store.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["datasets"]["gold"].update(
        latest_version=1,
        snapshots=[
            dict(version=0, file="gold.rqsz", keyframe=True, ref_version=None),
            dict(version=1, file="gold@v1.rqsz", keyframe=False, ref_version=0),
        ],
    )
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    store = ArrayStore(root, workers=2, parallel_backend=backend)
    for tile in keyframe.tiles:
        store.cache.put(
            ("gold", 0, 0, tile.offset),
            ref[extent_slices(tile.start, tile.stop)].copy(),
        )
    return store


# -- v7: same inputs, same configs, same decoded arrays, a smaller frame ---------

#: v7 fixture -> the frozen fixture whose input, config, expected array
#: (and, for the temporal one, reference) it shares
GOLDEN_V7_TWINS = {
    "pr23_v7_uniform": "pr2_v4_tiled_zstd",
    "pr26_v7_uniform": "pr2_v4_tiled_zstd",
    "pr23_v7_adaptive": "pr8_v5_clustered",
    "pr23_v7_temporal": "pr9_v6_temporal",
}


def _load_v7(name: str) -> tuple[bytes, np.ndarray, np.ndarray | None]:
    with open(os.path.join(DATA_DIR, f"{name}.rqsz"), "rb") as fh:
        blob = fh.read()
    twin = GOLDEN_V7_TWINS[name]
    ref = _load_temporal()[2] if twin == "pr9_v6_temporal" else None
    return blob, _load(twin)[1], ref


#: v2-v6 and the v7 successors of the frozen fixtures
ALL_GOLDEN = (
    GOLDEN_BLOBS
    + GOLDEN_TILED_BLOBS
    + ["pr9_v6_temporal"]
    + sorted(GOLDEN_V7_TWINS)
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("part", [False, True], ids=["whole", "part"])
@pytest.mark.parametrize("name", ALL_GOLDEN)
def test_every_route_decodes_every_golden_blob_to_its_array(
    name, part, backend, tmp_path
):
    """Whole or in part, every route of the oracle on *backend* — and,
    a temporal blob reaching the store as version 1 of a chain
    (``_store_serving``) — decodes to the very
    array the fixture pins, not merely one within its bound.  A part
    decodes only the tiles it meets."""
    if name in GOLDEN_V7_TWINS:
        blob, expected, ref = _load_v7(name)
    else:
        blob, expected = _load(name)
        ref = _load_temporal()[2] if blob[4] == 6 else None
    region = PARTIAL.get(blob[4], GRID) if part else ()
    routes = tile_routes(blob, region, ref, tmp_path, backends=[backend])
    window = normalize_region(region, expected.shape)
    routes["pinned"] = lambda: expected[window]
    if ref is not None:
        routes[f"chain/{backend}"] = lambda: _chain_read(
            tmp_path / "chain", blob, ref, backend, region
        )
    assert_same_verdict(routes)
    if part and blob[4] >= 4:
        tiled = TiledCompressor(workers=2, backend=backend)
        tiled.decompress_region(blob, region, reference=ref)
        assert tiled.last_tiles_decoded < len(TiledReader(blob).tiles)


def _chain_read(root, blob, ref, backend, region) -> np.ndarray:
    with _store_serving(str(root), blob, ref, backend) as store:
        return store.read_region("gold", region).data


@pytest.mark.parametrize("part", [False, True], ids=["whole", "part"])
def test_long_code_fixture_decodes_through_the_long_code_walk(
    part, long_code_walks, tmp_path
):
    """``v7_long_code`` holds a 17-bit code, which writers no longer
    emit: whole or in part, every route on every backend decodes it to
    its pinned array, and the decode resolves the long code by the
    per-bit walk past the 16-bit primary table."""
    blob, expected = _load("v7_long_code")
    region = (slice(1000, 5000),) if part else ()
    routes = tile_routes(blob, region, None, tmp_path)
    window = normalize_region(region, expected.shape)
    routes["pinned"] = lambda: expected[window]
    assert_same_verdict(routes)
    assert long_code_walks


def test_golden_v7_layout_is_pinned():
    """What is stored and what is derived, per kind of container."""
    common = {"sizes", "shared", "crcs", "header_crc"}
    toc_keys = {
        "pr23_v7_uniform": common,
        "pr26_v7_uniform": common,
        "pr23_v7_adaptive": common | {"configs", "tile_configs"},
        "pr23_v7_temporal": common | {"tile_modes"},
    }
    for name, keys in toc_keys.items():
        blob, _, _ = _load_v7(name)
        header_len = int.from_bytes(blob[5:9], "little")
        toc_len = int.from_bytes(blob[-8:], "little")
        toc = json.loads(blob[-12 - toc_len : -12])
        assert set(toc) == keys, name
        with TiledReader(blob) as reader:
            twin = TiledReader(_load(GOLDEN_V7_TWINS[name])[0])
            # offsets: the running sum of sizes from the end of the header
            offsets = [t.offset for t in reader.tiles]
            assert offsets[0] == 9 + header_len
            assert offsets[1:] == [t.offset + t.size for t in reader.tiles[:-1]]
            assert offsets[-1] + reader.tiles[-1].size == len(blob) - 12 - toc_len
            # extents, configs, modes: what the legacy TOC spelled out
            assert len(reader.tiles) == len(twin.tiles)
            for new, old in zip(reader.tiles, twin.tiles):
                assert (new.start, new.stop) == (old.start, old.stop)
                assert new.config == old.config
                assert new.temporal == old.temporal
                # ... around the very bytes the legacy tile wrapped
                assert reader.read_sections(new) == twin.read_sections(old)
            # the first tile of a kind has no meta by construction (what
            # it adds to the header is the TOC's shared record): a kind
            # is a predictor's spatial tiles, or the temporal residuals
            assert unpack_tile(reader.read_tile(reader.tiles[0]))[0] == {}
            assert set(toc["shared"]) == {
                "temporal"
                if t.temporal
                else (t.config or reader.header)["predictor"]
                for t in reader.tiles
            }
    # the uniform fixtures: interior tiles are 7 bytes of framing each
    for name in ("pr23_v7_uniform", "pr26_v7_uniform"):
        blob, _, _ = _load_v7(name)
        with TiledReader(blob) as reader:
            for record in reader.tiles:
                meta, sections = unpack_tile(reader.read_tile(record))
                if record.shape == (8, 8):
                    assert meta == {}
                    assert record.size - sum(map(len, sections)) <= 7


def test_uniform_successor_differs_from_its_frozen_twin_in_chunk_size_only():
    """``pr26_v7_uniform`` is ``pr23_v7_uniform`` written by a codec
    without ``chunk_size``: the same tiles, byte for byte, under a
    header that no longer records it."""
    frozen, _, _ = _load_v7("pr23_v7_uniform")
    successor, _, _ = _load_v7("pr26_v7_uniform")
    with TiledReader(frozen) as old, TiledReader(successor) as new:
        assert len(new.tiles) == len(old.tiles)
        for a, b in zip(new.tiles, old.tiles):
            assert new.read_tile(a) == old.read_tile(b)
        assert old.header.pop("chunk_size") == 128
        assert new.header.pop("chunk_size") is None
        assert new.header == old.header


# -- byte identity of what the current revision *writes* ------------------------

#: name -> (sha256 of the generator's input array, sha256 of the
#: container the codec wrote for it when the pins were taken).  The
#: stored fixtures above pin decoding; these pin encoding — a change to
#: the entropy path that alters one output byte shows up here.
#: Re-taken in PR 23, re-keyed from the now frozen pr2 / pr8 / pr9: the
#: writer frames the same stage sections, tile for tile, as v7 (shown
#: by ``test_golden_v7_layout_is_pinned`` against the frozen fixtures).
REENCODED_SHA256 = {
    # pr23_v7_uniform's successor, taken when chunk_size was retired
    "pr26_v7_uniform": (
        "86d9e97268afe6a5d10049d5d327957b56db4c624350ff3b8828bb7d7fe6ca6c",
        "c8dc85c885d0ce6bab0fa89bdae10510fe83862cb3627bba2daee2d132d431fc",
    ),
    "pr23_v7_adaptive": (
        "3ddb4e5940d7ef981a42cd0ee737e5f2ec9f1435c849f4c9fd2ac0832ea4f5dc",
        "77154af39378a753b653fca6fe56f481230d41cb631f510a2aad2d17ff850f33",
    ),
    "pr23_v7_temporal": (
        "8723621414aee059102e6f789097ca7aade905c5b15814ef8b5a8204af195b68",
        "e5152758464a4e9fbd3f7031dc996222621a39abd027962d00efffbf801721eb",
    ),
}

#: a 9-tile container of 32x32 tiles — the small-stream entropy path
#: (no sync table, raw lossless escapes) — over a stored input array.
#: Re-taken in PR 23 (v7 framing; the stage sections are the ones the
#: previous pin covered, see ``tests/compressor/test_container_v7.py``)
SMALL_TILE_SHA256 = (
    "7aac03855fb61543ea5b1f2e169854c793e3cb5889ffbd23ca13a86e8856e798"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_reencoding_fixture_inputs_reproduces_pinned_bytes():
    spec = importlib.util.spec_from_file_location(
        "make_tiled_fixtures",
        os.path.join(DATA_DIR, "make_tiled_fixtures.py"),
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    compared = 0
    for name, data, blob, _, _ in generator.build():
        input_sha, blob_sha = REENCODED_SHA256[name]
        if _sha256(np.ascontiguousarray(data).tobytes()) != input_sha:
            # the generators lean on FFT/libm: another NumPy build may
            # synthesise a last-bit-different input, which pins nothing
            continue
        assert _sha256(blob) == blob_sha, name
        compared += 1
    if not compared:
        pytest.skip("fixture inputs differ on this NumPy build")


def test_small_tile_container_bytes_are_pinned():
    field = np.load(os.path.join(DATA_DIR, "pr3_v5_adaptive_expected.npy"))
    config = CompressionConfig(error_bound=0.05, tile_shape=(32, 32))
    tc = TiledCompressor()
    blob = tc.compress(field, config).blob
    with TiledReader(blob) as reader:
        assert len(reader.tiles) == 9
    assert _sha256(blob) == SMALL_TILE_SHA256
    assert np.max(np.abs(tc.decompress(blob) - field)) <= 0.05
