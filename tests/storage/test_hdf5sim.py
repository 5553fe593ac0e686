"""Tests for the HDF5-like chunked container."""

import json
import os

import numpy as np
import pytest

from repro.compressor import CompressionConfig
from repro.compressor.container import ContainerFormatError
from repro.compressor.tiled_geometry import extent_slices, iter_tiles
from repro.storage.hdf5sim import H5LikeFile
from tests.conftest import assert_error_bounded, forge_v2, smooth_field


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
            chunks = f._entry("x")["chunks"]
            assert len(chunks) == 4
            bounds = {c["config"]["error_bound"] for c in chunks}
            assert all(
                set(c["config"])
                == {"predictor", "error_bound", "quant_radius"}
                for c in chunks
            )
            assert len(bounds) > 1  # heterogeneous chunks, distinct bounds
            # reconstruction honours each chunk's own recorded bound
            for c in chunks:
                slc = tuple(
                    slice(a, b) for a, b in zip(c["start"], c["stop"])
                )
                assert_error_bounded(
                    data[slc], back[slc], c["config"]["error_bound"]
                )
            # partial reads work identically on adaptive datasets
            np.testing.assert_array_equal(
                f.read_region("x", (slice(10, 50), slice(20, 40))),
                back[10:50, 20:40],
            )


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

    def test_region_decompresses_only_intersecting_chunks(self, path):
        data = smooth_field((32, 32))
        cfg = CompressionConfig(error_bound=1e-3)
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", data, cfg, chunk_shape=(8, 8))
        with H5LikeFile(path, "r") as f:
            calls = []
            original = f._sz.decode_stages
            f._sz.decode_stages = lambda *a: calls.append(1) or original(*a)
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


def _toc(raw: bytes) -> tuple[dict, int]:
    toc_len = int.from_bytes(raw[-8:], "little")
    return json.loads(raw[-8 - toc_len : -8]), len(raw) - 8 - toc_len


def _with_toc(raw: bytes, toc) -> bytes:
    body = json.dumps(toc).encode()
    return raw[: _toc(raw)[1]] + body + len(body).to_bytes(8, "little")


class TestDamagedFiles:
    """A damaged file is a structured error at open, never an OSError or
    a read outside the payload region."""

    @pytest.fixture
    def raw(self, path):
        with H5LikeFile(path, "w") as f:
            f.create_dataset(
                "x", smooth_field((16, 16)), CompressionConfig(), chunk_shape=(8, 8)
            )
        with open(path, "rb") as fh:
            return fh.read()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[:6],  # shorter than magic + TOC length
            lambda raw: raw[:-3],  # truncated: the TOC length is garbage
            lambda raw: raw[:5] + bytes(range(200, 256)) * 2,  # garbage
            lambda raw: _with_toc(raw, [1, 2]),  # not an object
            lambda raw: _with_toc(raw, {"datasets": {"x": {"chunks": 7}}}),
        ],
        ids=["6-bytes", "truncated-toc", "garbage", "toc-list", "chunks-int"],
    )
    def test_damage_is_a_container_format_error(self, raw, path, damage):
        with open(path, "wb") as fh:
            fh.write(damage(raw))
        with pytest.raises(ContainerFormatError):
            H5LikeFile(path, "r")

    @pytest.mark.parametrize("overrun", [1 << 20, 1])
    def test_a_chunk_record_past_the_payload_region_is_refused(
        self, raw, path, overrun
    ):
        toc, toc_start = _toc(raw)
        toc["datasets"]["x"]["chunks"][-1]["size"] += overrun
        with open(path, "wb") as fh:
            fh.write(_with_toc(raw, toc))
        with pytest.raises(ContainerFormatError, match="outside the payload"):
            H5LikeFile(path, "r")

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
        self, path, filtered, damage
    ):
        config = CompressionConfig() if filtered else None
        with H5LikeFile(path, "w") as f:
            f.create_dataset("a", smooth_field((4, 4)), config)
            f.create_dataset("x", smooth_field((16, 16)), config, (8, 8))
        with open(path, "rb") as fh:
            raw = fh.read()
        toc, _ = _toc(raw)
        damage(toc["datasets"]["x"])
        with open(path, "wb") as fh:
            fh.write(_with_toc(raw, toc))
        with pytest.raises(ContainerFormatError):
            H5LikeFile(path, "r")

    @pytest.mark.parametrize("error", [-4, 1])
    def test_a_raw_chunk_of_the_wrong_size_is_refused(self, path, error):
        with H5LikeFile(path, "w") as f:
            f.create_dataset("x", smooth_field((16, 16)), chunk_shape=(8, 8))
        with open(path, "rb") as fh:
            raw = fh.read()
        toc, _ = _toc(raw)
        toc["datasets"]["x"]["chunks"][0]["size"] += error
        with open(path, "wb") as fh:
            fh.write(_with_toc(raw, toc))
        with pytest.raises(ContainerFormatError, match="raw chunk"):
            H5LikeFile(path, "r")

    def test_a_chunk_record_over_its_neighbour_is_refused(self, raw, path):
        toc, _ = _toc(raw)
        toc["datasets"]["x"]["chunks"][0]["size"] += 1
        with open(path, "wb") as fh:
            fh.write(_with_toc(raw, toc))
        with H5LikeFile(path, "r") as f:
            with pytest.raises(ContainerFormatError, match="corrupt tile"):
                f.read_dataset("x")


class TestLegacyFlatChunks:
    """Files of earlier revisions store each chunk as a flat container
    (kind ``"sz"``): they still decode, and a record whose size overran
    into the next chunk is refused, not silently decoded."""

    @pytest.fixture
    def legacy(self, path):
        data = smooth_field((16, 12))
        raw = bytearray(b"RQH5\x01")
        chunks = []
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
        entry = {"shape": [16, 12], "dtype": data.dtype.str, "chunks": chunks}
        toc = json.dumps({"datasets": {"x": entry}}).encode()
        with open(path, "wb") as fh:
            fh.write(bytes(raw) + toc + len(toc).to_bytes(8, "little"))
        return data

    def test_flat_chunks_still_decode(self, legacy, path):
        with H5LikeFile(path, "r") as f:
            assert_error_bounded(legacy, f.read_dataset("x"), 1e-3)
            np.testing.assert_array_equal(
                f.read_region("x", (slice(9, 12),)), f.read_dataset("x")[9:12]
            )

    def test_a_flat_chunk_record_over_its_neighbour_is_refused(self, legacy, path):
        with open(path, "rb") as fh:
            raw = fh.read()
        toc, _ = _toc(raw)
        toc["datasets"]["x"]["chunks"][0]["size"] += 1
        with open(path, "wb") as fh:
            fh.write(_with_toc(raw, toc))
        with H5LikeFile(path, "r") as f:
            with pytest.raises(ContainerFormatError, match="follow the last"):
                f.read_dataset("x")
