"""Tests for the HDF5-like chunked container."""

import json
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro.compressor import (
    CompressionConfig,
    ErrorBoundMode,
    SZCompressor,
    TiledCompressor,
)
from repro.compressor.container import ContainerFormatError, TiledReader
from repro.compressor.tiled_geometry import extent_slices, iter_tiles
from repro.storage.hdf5sim import H5LikeFile
from tests.conftest import (
    assert_error_bounded,
    forge_rqh5,
    forge_v2,
    rqh5_toc,
    smooth_field,
    with_rqh5_toc,
)


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "store.rqh5")


class TestBasicIO:
    def test_write_read_raw(self, path):
        data = smooth_field((20, 30))
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", data)
        with H5LikeFile(path, "r") as f:
            np.testing.assert_array_equal(f.read_dataset("x"), data)

    def test_write_read_compressed(self, path):
        data = smooth_field((24, 24))
        cfg = CompressionConfig(error_bound=1e-3)
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", data, cfg)
        with H5LikeFile(path, "r") as f:
            back = f.read_dataset("x")
        assert back.dtype == data.dtype
        assert_error_bounded(data, back, 1e-3)

    def test_multiple_datasets(self, path):
        a = smooth_field((16, 16))
        b = smooth_field((8, 8, 8), seed=3)
        with H5LikeFile(path, "w") as f:
            f.create_dataset("a", a)
            f.create_dataset("b", b, CompressionConfig(error_bound=1e-2))
        with H5LikeFile(path, "r") as f:
            assert f.dataset_names() == ["a", "b"]
            np.testing.assert_array_equal(f.read_dataset("a"), a)
            assert_error_bounded(b, f.read_dataset("b"), 1e-2)

    def test_chunked_roundtrip(self, path):
        data = smooth_field((30, 40))
        cfg = CompressionConfig(error_bound=1e-3)
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", data, cfg, chunk_shape=(8, 16))
        with H5LikeFile(path, "r") as f:
            assert_error_bounded(data, f.read_dataset("x"), 1e-3)

    def test_attrs(self, path):
        data = smooth_field((8, 8))
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", data, attrs={"step": 5, "tag": "rtm"})
        with H5LikeFile(path, "r") as f:
            assert f.attrs("x") == {"step": 5, "tag": "rtm"}

    def test_adaptive_filter_per_chunk_configs(self, path):
        # heterogeneous data: the adaptive filter assigns per-chunk
        # configs, records them in the TOC, and reads stay transparent
        rng = np.random.default_rng(0)
        data = smooth_field((64, 64)).astype(np.float64)
        data[:32, :32] += 40.0 * rng.standard_normal((32, 32))
        cfg = CompressionConfig(
            error_bound=0.05, tile_shape=(32, 32), adaptive=True
        )
        with H5LikeFile(path, "w") as f:
            info = f.create_dataset("x", data, cfg)
        assert info.filter_config["adaptive"] is True
        with H5LikeFile(path, "r") as f:
            back = f.read_dataset("x")
            # partial reads work identically on adaptive datasets
            np.testing.assert_array_equal(
                f.read_region("x", (slice(10, 50), slice(20, 40))),
                back[10:50, 20:40],
            )
        with TiledReader(_stored(path, "x")) as reader:
            tiles = reader.tiles
        assert len(tiles) == 4
        assert all(
            set(t.config) == {"predictor", "error_bound", "quant_radius"}
            for t in tiles
        )
        # heterogeneous chunks, distinct bounds
        assert len({t.config["error_bound"] for t in tiles}) > 1
        # reconstruction honours each chunk's own recorded bound
        for t in tiles:
            slc = extent_slices(t.start, t.stop)
            assert_error_bounded(data[slc], back[slc], t.config["error_bound"])


class TestMetadata:
    def test_info_fields(self, path):
        data = smooth_field((24, 24))
        cfg = CompressionConfig(error_bound=1e-2)
        with H5LikeFile(path, "w") as f:
            info = f.create_dataset("x", data, cfg)
        assert info.shape == (24, 24)
        assert info.ratio > 1.0
        assert info.filter_config["error_bound"] == 1e-2

    def test_raw_ratio_is_one(self, path):
        data = smooth_field((16, 16))
        with H5LikeFile(path, "w") as f:
            info = f.create_dataset("x", data)
        assert info.ratio == pytest.approx(1.0)

    def test_compression_reduces_file_size(self, path, tmp_path):
        data = smooth_field((48, 48))
        raw_path = str(tmp_path / "raw.rqh5")
        with H5LikeFile(raw_path, "w") as f:
            f.create_dataset("x", data)
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", data, CompressionConfig(error_bound=1e-2))
        assert os.path.getsize(path) < os.path.getsize(raw_path)


class TestReadRegion:
    def test_region_matches_full_read_compressed(self, path):
        data = smooth_field((30, 40))
        cfg = CompressionConfig(error_bound=1e-3)
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", data, cfg, chunk_shape=(8, 16))
        with H5LikeFile(path, "r") as f:
            full = f.read_dataset("x")
            region = (slice(5, 20), slice(10, 33))
            np.testing.assert_array_equal(
                f.read_region("x", region), full[region]
            )

    def test_region_matches_full_read_raw(self, path):
        data = smooth_field((16, 16))
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", data, chunk_shape=(4, 8))
        with H5LikeFile(path, "r") as f:
            np.testing.assert_array_equal(
                f.read_region("x", (slice(3, 9), slice(12, 16))),
                data[3:9, 12:16],
            )

    def test_region_decompresses_only_intersecting_chunks(
        self, path, monkeypatch
    ):
        data = smooth_field((32, 32))
        cfg = CompressionConfig(error_bound=1e-3)
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", data, cfg, chunk_shape=(8, 8))
        calls = []
        original = SZCompressor.decode_stack
        monkeypatch.setattr(
            SZCompressor,
            "decode_stack",
            lambda self, tiles: calls.extend(tiles) or original(self, tiles),
        )
        with H5LikeFile(path, "r") as f:
            f.read_region("x", (slice(1, 7), slice(9, 15)))
        assert len(calls) == 1  # one of 16 chunks touched

    def test_region_partial_spec_and_empty(self, path):
        data = smooth_field((12, 10))
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", data, chunk_shape=(4, 4))
        with H5LikeFile(path, "r") as f:
            np.testing.assert_array_equal(
                f.read_region("x", (slice(2, 5),)), data[2:5]
            )
            assert f.read_region("x", (slice(3, 3),)).shape == (0, 10)

    def test_config_tile_shape_becomes_default_chunk_grid(self, path):
        data = smooth_field((20, 20))
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=(8, 8))
        with H5LikeFile(path, "w") as f:
            info = f.create_dataset("x", data, cfg)
        assert info.chunk_shape == (8, 8)
        assert info.filter_config["tile_shape"] == [8, 8]
        with H5LikeFile(path, "r") as f:
            assert_error_bounded(data, f.read_dataset("x"), 1e-3)


class TestErrors:
    def test_duplicate_name(self, path):
        data = smooth_field((8, 8))
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", data)
            with pytest.raises(ValueError):
                f.create_dataset("x", data)

    def test_read_only_write_raises(self, path):
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", smooth_field((4, 4)))
        with H5LikeFile(path, "r") as f:
            with pytest.raises(IOError):
                f.create_dataset("y", smooth_field((4, 4)))

    def test_missing_dataset(self, path):
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", smooth_field((4, 4)))
        with H5LikeFile(path, "r") as f:
            with pytest.raises(KeyError):
                f.read_dataset("nope")

    def test_read_region_missing_dataset_clean_error(self, path):
        # a clean named-dataset error, not a raw dict KeyError
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", smooth_field((4, 4)))
        with H5LikeFile(path, "r") as f:
            with pytest.raises(KeyError, match="no dataset named 'nope'"):
                f.read_region("nope", (slice(0, 2), slice(0, 2)))

    def test_bad_mode(self, path):
        with pytest.raises(ValueError):
            H5LikeFile(path, "a")

    def test_bad_magic(self, tmp_path):
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            H5LikeFile(str(bogus), "r")

    def test_bad_chunk_shape(self, path):
        with H5LikeFile(path, "w") as f:
            with pytest.raises(ValueError):
                f.create_dataset(
                    "x", smooth_field((8, 8)), chunk_shape=(8,)
                )

    def test_double_close_is_safe(self, path):
        f = H5LikeFile(path, "w")
        f.create_dataset("x", smooth_field((4, 4)))
        f.close()
        f.close()


def _stored(path, name) -> bytes:
    """The bytes a v2 file stores for dataset *name*."""
    with open(path, "rb") as fh:
        raw = fh.read()
    entry = rqh5_toc(raw)[0]["datasets"][name]
    return raw[entry["offset"] : entry["offset"] + entry["compressed_bytes"]]


def _read_all(path) -> None:
    """Open *path* and read every dataset in it."""
    with H5LikeFile(path, "r") as f:
        for name in f.dataset_names():
            f.read_dataset(name)


DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "data")
#: written by the last revision that wrote version 1, and its reads
#: saved beside it as ``pr34_rqh5_v1_<name>_expected.npy``
V1_FIXTURE = os.path.join(DATA_DIR, "pr34_rqh5_v1.rqh5")
#: the fixture's datasets in file order: (filter config, chunk grid)
V1_DATASETS = {
    "raw": (None, (8, 8)),
    "uniform": (CompressionConfig(error_bound=1e-3), (8, 8)),
    "rel": (
        CompressionConfig(error_bound=1e-3, mode=ErrorBoundMode.REL),
        (16, 16),
    ),
    "adaptive": (
        CompressionConfig(error_bound=0.05, tile_shape=(16, 16), adaptive=True),
        None,
    ),
}


def _v1_expected(name: str) -> np.ndarray:
    return np.load(os.path.join(DATA_DIR, f"pr34_rqh5_v1_{name}_expected.npy"))


@pytest.fixture(scope="module")
def v2_twin(tmp_path_factory) -> bytes:
    """The v1 fixture's datasets (its reads as the inputs) as a v2 file."""
    path = str(tmp_path_factory.mktemp("twin") / "twin.rqh5")
    with H5LikeFile(path, "w") as f:
        for step, (name, (config, chunks)) in enumerate(V1_DATASETS.items()):
            f.create_dataset(
                name, _v1_expected(name), config, chunks, attrs={"step": step}
            )
    with open(path, "rb") as fh:
        return fh.read()


class TestVersion1Fixture:
    def test_every_dataset_reads_as_the_last_v1_writer_read_it(self):
        with H5LikeFile(V1_FIXTURE, "r") as f:
            assert f.dataset_names() == sorted(V1_DATASETS)
            for step, name in enumerate(V1_DATASETS):
                expected = _v1_expected(name)
                back = f.read_dataset(name)
                assert back.dtype == expected.dtype
                assert back.shape == expected.shape
                assert back.tobytes() == expected.tobytes()
                np.testing.assert_array_equal(
                    f.read_region(name, (slice(3, 13), 5)), expected[3:13, 5:6]
                )
                assert f.attrs(name)["step"] == step
                info = f.info(name)
                assert info.raw_bytes == expected.nbytes
                assert info.chunk_shape == (V1_DATASETS[name][1] or (16, 16))

    def test_a_v1_dataset_is_refiled_on_its_first_read_not_at_open(
        self, path
    ):
        shutil.copy(V1_FIXTURE, path)
        forge_rqh5(path, lambda datasets: datasets["rel"].update(chunks=7))
        with H5LikeFile(path, "r") as f:
            np.testing.assert_array_equal(
                f.read_dataset("uniform"), _v1_expected("uniform")
            )
            with pytest.raises(ContainerFormatError, match="'rel'"):
                f.read_dataset("rel")


class TestOneFrontEnd:
    """A filtered v2 dataset is the container :class:`TiledCompressor`
    writes for it, so it has that container's bound and checksums."""

    @pytest.mark.parametrize(
        "config",
        [
            CompressionConfig(error_bound=1e-3),
            CompressionConfig(error_bound=1e-3, mode=ErrorBoundMode.REL),
            CompressionConfig(error_bound=0.05, adaptive=True),
        ],
        ids=["abs", "rel", "adaptive"],
    )
    def test_a_dataset_is_the_tiled_compressor_container(self, path, config):
        data = smooth_field((64, 48)).astype(np.float64)
        data[:16, :16] += np.random.default_rng(0).standard_normal((16, 16))
        with H5LikeFile(path, "w") as f:
            f.create_dataset("pad", smooth_field((4, 4)))
            f.create_dataset("x", data, config, chunk_shape=(16, 16))
        expected = TiledCompressor().compress(
            data, replace(config, tile_shape=(16, 16))
        )
        assert _stored(path, "x") == expected.blob
        with H5LikeFile(path, "r") as f:
            back = f.read_dataset("x")
            assert f.info("x").compressed_bytes == expected.compressed_bytes
        np.testing.assert_array_equal(
            back, TiledCompressor().decompress(expected.blob)
        )

    def test_a_bit_flip_in_a_dataset_is_refused_or_harmless(self, path):
        data = smooth_field((12, 12)).astype(np.float64)
        with H5LikeFile(path, "w") as f:
            f.create_dataset(
                "x", data, CompressionConfig(error_bound=1e-3), (12, 6)
            )
        with open(path, "rb") as fh:
            entry = rqh5_toc(fh.read())[0]["datasets"]["x"]
        start = entry["offset"]
        silent = []
        # one bit of every byte of the container, flipped in place
        with open(path, "r+b") as fh:
            for at in range(start, start + entry["compressed_bytes"]):
                fh.seek(at)
                byte = fh.read(1)[0]
                fh.seek(at)
                fh.write(bytes([byte ^ 1 << at % 8]))
                fh.flush()
                try:
                    with H5LikeFile(path, "r") as f:
                        back = f.read_dataset("x")
                    if not np.max(np.abs(back - data)) <= 1e-3:
                        silent.append(at - start)
                except ContainerFormatError:
                    pass
                fh.seek(at)
                fh.write(bytes([byte]))
        assert silent == []

    def test_a_v2_toc_that_fails_its_checksum_is_refused(self, path, v2_twin):
        damaged = bytearray(v2_twin)
        damaged[rqh5_toc(v2_twin)[1] + 3] ^= 0x10
        with open(path, "wb") as fh:
            fh.write(damaged)
        with pytest.raises(ContainerFormatError, match="checksum mismatch"):
            H5LikeFile(path, "r")

    def test_an_unknown_version_is_refused(self, path, v2_twin):
        with open(path, "wb") as fh:
            fh.write(v2_twin[:4] + b"\x03" + v2_twin[5:])
        with pytest.raises(ContainerFormatError, match="version 3"):
            H5LikeFile(path, "r")


class _DamageCases:
    """A damaged file is a structured error — at open, or at the first
    read of the damaged dataset — never an OSError, a read outside the
    payload region or wrong samples.  Every case here damages a copy of
    the ``raw`` file of its subclass: one of each version."""

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[:6],  # shorter than magic + TOC length
            lambda raw: raw[:-3],  # truncated: the TOC length is garbage
            lambda raw: raw[:5] + bytes(range(200, 256)) * 2,  # garbage
            lambda raw: with_rqh5_toc(raw, [1, 2]),  # not an object
            lambda raw: with_rqh5_toc(raw, {"datasets": {"x": {"chunks": 7}}}),
        ],
        ids=["6-bytes", "truncated-toc", "garbage", "toc-list", "chunks-int"],
    )
    def test_damage_is_a_container_format_error(self, raw, path, damage):
        with open(path, "wb") as fh:
            fh.write(damage(raw))
        with pytest.raises(ContainerFormatError):
            _read_all(path)

    @pytest.mark.parametrize("overrun", [1 << 20, 1])
    def test_a_chunk_record_past_the_payload_region_is_refused(
        self, raw, path, overrun
    ):
        # the last bytes before the TOC are the adaptive dataset's
        def edit(datasets):
            entry = datasets["adaptive"]
            record = entry["chunks"][-1] if raw[4] == 1 else entry
            record["size" if raw[4] == 1 else "compressed_bytes"] += overrun

        forge_rqh5(path, edit)
        with pytest.raises(ContainerFormatError, match="outside the payload"):
            _read_all(path)

    @pytest.mark.parametrize("error", [-4, 1])
    def test_a_raw_chunk_of_the_wrong_size_is_refused(self, raw, path, error):
        def edit(datasets):
            entry = datasets["raw"]
            if raw[4] == 1:
                entry["chunks"][0]["size"] += error
            else:
                entry["compressed_bytes"] += error

        forge_rqh5(path, edit)
        with pytest.raises(ContainerFormatError, match="raw (chunk|samples)"):
            _read_all(path)

    def test_a_chunk_record_over_its_neighbour_is_refused(self, raw, path):
        def edit(datasets):
            entry = datasets["uniform"]
            if raw[4] == 1:
                entry["chunks"][0]["size"] += 1
            else:
                entry["compressed_bytes"] += 1

        forge_rqh5(path, edit)
        with H5LikeFile(path, "r") as f:
            with pytest.raises(ContainerFormatError, match="corrupt tile"):
                f.read_dataset("uniform")


class TestDamagedFiles(_DamageCases):
    """Copies of the version-1 fixture, and what only its chunk records
    can get wrong."""

    @pytest.fixture
    def raw(self, path):
        shutil.copy(V1_FIXTURE, path)
        with open(path, "rb") as fh:
            return fh.read()

    @pytest.mark.parametrize("filtered", [True, False], ids=["tile", "raw"])
    @pytest.mark.parametrize(
        "damage",
        [
            lambda entry: entry["chunks"].pop(1),
            lambda entry: entry["chunks"][0]["start"].__setitem__(1, 1),
            lambda entry: entry["chunks"][0]["stop"].__setitem__(0, 9),
            lambda entry: entry.__setitem__("dtype", "<zz9"),
            lambda entry: entry.__setitem__("chunk_shape", [8, 4]),
            # refused by count, before a 10^18-tile grid is listed
            lambda entry: entry.update(shape=[10**9] * 2, chunk_shape=[1, 1]),
        ],
        ids=[
            "dropped", "start-shifted", "stop-shifted", "dtype", "grid", "huge"
        ],
    )
    def test_records_must_tile_the_shape_once(
        self, raw, path, filtered, damage
    ):
        name = "uniform" if filtered else "raw"
        forge_rqh5(path, lambda datasets: damage(datasets[name]))
        with pytest.raises(ContainerFormatError):
            _read_all(path)


class TestDamagedV2Files(_DamageCases):
    """Copies of the version-2 twin of the v1 fixture, and what only its
    one entry per dataset can get wrong."""

    @pytest.fixture
    def raw(self, path, v2_twin):
        with open(path, "wb") as fh:
            fh.write(v2_twin)
        return v2_twin

    @pytest.mark.parametrize("filtered", [True, False], ids=["tile", "raw"])
    @pytest.mark.parametrize(
        "damage",
        [
            lambda entry: entry.update(shape=[n + 8 for n in entry["shape"]]),
            lambda entry: entry.update(shape=[n - 4 for n in entry["shape"]]),
            lambda entry: entry.__setitem__("dtype", "<zz9"),
            lambda entry: entry.__setitem__("dtype", "<f8"),
            lambda entry: entry.update(shape=[10**9] * 2),
        ],
        ids=["larger", "smaller", "dtype", "itemsize", "huge"],
    )
    def test_an_entry_must_describe_its_bytes(
        self, raw, path, filtered, damage
    ):
        name = "uniform" if filtered else "raw"
        forge_rqh5(path, lambda datasets: damage(datasets[name]))
        with H5LikeFile(path, "r") as f:
            f.read_dataset("rel")  # the others still read
            with pytest.raises(ContainerFormatError, match="corrupt RQH5"):
                f.read_dataset(name)


class TestLegacyFlatChunks:
    """Files of earlier revisions store each chunk as a flat container
    (kind ``"sz"``): they still decode, as the flat containers they are,
    and a record whose size overran into the next chunk is refused, not
    silently decoded."""

    @pytest.fixture
    def legacy(self, path):
        data = smooth_field((16, 12))
        raw = bytearray(b"RQH5\x01")
        chunks, blobs = [], []
        for start, stop in iter_tiles(data.shape, (8, 12)):
            blob = forge_v2(data[extent_slices(start, stop)], CompressionConfig())
            chunks.append(
                {
                    "offset": len(raw),
                    "size": len(blob),
                    "kind": "sz",
                    "start": list(start),
                    "stop": list(stop),
                }
            )
            raw += blob
            blobs.append(blob)
        entry = {"shape": [16, 12], "dtype": data.dtype.str, "chunks": chunks}
        toc = json.dumps({"datasets": {"x": entry}}).encode()
        with open(path, "wb") as fh:
            fh.write(bytes(raw) + toc + len(toc).to_bytes(8, "little"))
        return data, blobs

    def test_flat_chunks_still_decode(self, legacy, path):
        data, blobs = legacy
        with H5LikeFile(path, "r") as f:
            back = f.read_dataset("x")
            np.testing.assert_array_equal(
                f.read_region("x", (slice(9, 12),)), back[9:12]
            )
        assert_error_bounded(data, back, 1e-3)
        whole = np.concatenate([TiledCompressor().decompress(b) for b in blobs])
        assert back.tobytes() == whole.tobytes()

    def test_a_flat_chunk_record_over_its_neighbour_is_refused(self, legacy, path):
        forge_rqh5(path, lambda datasets: datasets["x"]["chunks"][0].update(
            size=datasets["x"]["chunks"][0]["size"] + 1
        ))
        with H5LikeFile(path, "r") as f:
            with pytest.raises(ContainerFormatError, match="follow the last"):
                f.read_dataset("x")
