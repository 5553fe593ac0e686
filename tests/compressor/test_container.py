"""Container layer: flat/chunked/tiled formats and derived accounting."""

import io

import numpy as np
import pytest

from repro.compressor import container
from repro.compressor import CompressionConfig, SZCompressor
from repro.compressor.container import TiledReader, TiledWriter, TileRecord
from tests.conftest import smooth_field


class TestFlat:
    def test_write_read_roundtrip(self):
        header = {"shape": [3], "dtype": "<f8", "x": 1}
        sections = [b"codes", b"", b"vals", b"side", b"signs!"]
        blob, header_len = container.write_flat(
            header, sections, container.VERSION_SINGLE
        )
        back_header, back_sections = container.read_flat(blob)
        assert back_header.pop("container_version") == 2
        assert back_header == header
        assert back_sections == sections
        assert header_len > 0

    def test_blob_size_matches_derived_overhead(self):
        header = {"k": "v"}
        sections = [b"a" * 10, b"b" * 3, b"", b"c", b"dd"]
        blob, header_len = container.write_flat(
            header, sections, container.VERSION_CHUNKED
        )
        expected = container.flat_overhead(header_len) + sum(
            len(s) for s in sections
        )
        assert len(blob) == expected

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            container.read_flat(b"NOPE" + b"\x00" * 32)

    def test_tiled_version_rejected_by_flat_reader(self):
        header = {"shape": [0], "tile_shape": [1], "dtype": "<f8"}
        sink = io.BytesIO()
        with TiledWriter(sink, header):
            pass
        with pytest.raises(ValueError):
            container.read_flat(sink.getvalue())

    def test_non_flat_version_rejected_by_writer(self):
        with pytest.raises(ValueError):
            container.write_flat({}, [b""] * 5, container.VERSION_TILED)


class TestStageSizesDerived:
    """StageSizes.total must equal the real container size, with the
    overhead derived from the writer's layout constants."""

    @pytest.mark.parametrize(
        "config",
        [
            CompressionConfig(error_bound=1e-3),
            CompressionConfig(error_bound=1e-3, lossless=None),
            CompressionConfig(error_bound=1e-3, chunk_size=300),
            CompressionConfig(
                predictor="regression", error_bound=1e-2
            ),
        ],
    )
    def test_total_matches_blob(self, config):
        data = smooth_field((40, 40))
        result = SZCompressor().compress(data, config)
        assert result.sizes.total == len(result.blob)

    def test_total_matches_for_trivial_containers(self):
        result = SZCompressor().compress(
            np.zeros((0, 2)), CompressionConfig()
        )
        assert result.sizes.total == len(result.blob)


class TestChunkedFraming:
    def test_roundtrip(self):
        payloads = [b"one", b"", b"three" * 100]
        framed = container.write_chunked_codes(payloads)
        assert container.read_chunked_codes(framed) == payloads

    @pytest.mark.parametrize(
        "corrupt",
        [
            b"",
            b"\x00\x00\x00\x00",  # zero chunks
            b"\x02\x00\x00\x00" + b"\x00" * 8,  # truncated table
        ],
    )
    def test_corrupt_rejected(self, corrupt):
        with pytest.raises(ValueError):
            container.read_chunked_codes(corrupt)

    def test_trailing_garbage_rejected(self):
        framed = container.write_chunked_codes([b"abc"]) + b"junk"
        with pytest.raises(ValueError):
            container.read_chunked_codes(framed)


class TestTiledFormat:
    def _write(self, sink, version=container.VERSION_FRAME):
        header = {"shape": [4, 4], "dtype": "<f4", "tile_shape": [2, 4]}
        with TiledWriter(sink, header, version=version) as writer:
            writer.add_tile((0, 0), (2, 4), b"payload-a")
            writer.add_tile((2, 0), (4, 4), b"payload-bb")
        return header

    @pytest.mark.parametrize("version", [4, 7])
    def test_writer_reader_roundtrip_bytes(self, version):
        sink = io.BytesIO()
        header = self._write(sink, version)
        reader = TiledReader(sink.getvalue())
        assert reader.header["shape"] == header["shape"]
        assert reader.header["container_version"] == version
        assert [t.size for t in reader.tiles] == [9, 10]
        # stored in the legacy TOC, derived from sizes and grid in v7
        assert [t.offset for t in reader.tiles] == [
            sink.getvalue().index(b"payload-a"),
            sink.getvalue().index(b"payload-bb"),
        ]
        assert [(t.start, t.stop) for t in reader.tiles] == [
            ((0, 0), (2, 4)),
            ((2, 0), (4, 4)),
        ]
        assert reader.read_tile(reader.tiles[0]) == b"payload-a"
        assert reader.read_tile(reader.tiles[1]) == b"payload-bb"

    def test_writer_reader_roundtrip_file(self, tmp_path):
        path = tmp_path / "t.rqsz"
        with open(path, "wb") as fh:
            self._write(fh)
        with TiledReader(str(path)) as reader:
            assert reader.read_tile(reader.tiles[1]) == b"payload-bb"

    def test_tile_record_geometry(self):
        record = TileRecord(offset=0, size=1, start=(2, 0), stop=(4, 3))
        assert record.shape == (2, 3)
        assert TileRecord.from_json(record.to_json()) == record

    def test_add_after_finish_rejected(self):
        sink = io.BytesIO()
        writer = TiledWriter(sink, {"shape": [0], "tile_shape": [1]})
        writer.finish()
        with pytest.raises(ValueError, match="already finished"):
            writer.add_tile((0,), (1,), b"x")

    def test_finish_total_matches_container_size(self):
        sink = io.BytesIO()
        writer = TiledWriter(sink, {"shape": [2], "tile_shape": [2]})
        writer.add_tile((0,), (2,), b"xy")
        total = writer.finish()
        assert total == len(sink.getvalue())

    def test_flat_blob_rejected_by_tiled_reader(self):
        blob = SZCompressor().compress(
            smooth_field((10,)), CompressionConfig()
        ).blob
        with pytest.raises(ValueError):
            TiledReader(blob)

    def test_truncated_rejected(self):
        sink = io.BytesIO()
        self._write(sink)
        blob = sink.getvalue()
        with pytest.raises(ValueError):
            TiledReader(blob[: len(blob) - 6])
        with pytest.raises(ValueError):
            TiledReader(blob[:10])

    def test_container_version_helper(self):
        sink = io.BytesIO()
        self._write(sink)
        assert (
            container.container_version(sink.getvalue())
            == container.VERSION_FRAME
        )

    def test_peek_version_sniffs_every_source_kind(self, tmp_path):
        sink = io.BytesIO()
        self._write(sink)
        tiled = sink.getvalue()
        flat = SZCompressor().compress(
            smooth_field((64,)), CompressionConfig(error_bound=1e-3)
        ).blob
        for blob, version in ((tiled, 7), (flat, 2)):
            path = tmp_path / f"v{version}.rqsz"
            path.write_bytes(blob)
            with open(path, "rb") as fh:
                for source in (blob, bytearray(blob), str(path), path, fh):
                    assert container.peek_version(source) == version
                    assert container.read_blob(source) == blob
        for junk in (b"", b"RQSZ", b"NOPE\x04" + bytes(32)):
            with pytest.raises(container.ContainerFormatError):
                container.peek_version(junk)

    def _write_adaptive(self, sink):
        header = {"shape": [4, 4], "dtype": "<f4", "adaptive": True}
        cfg_a = {"predictor": "lorenzo", "error_bound": 0.5,
                 "quant_radius": 256}
        cfg_b = {"predictor": "interpolation", "error_bound": 2.0,
                 "quant_radius": 1024}
        with TiledWriter(
            sink, header, version=container.VERSION_ADAPTIVE
        ) as writer:
            writer.add_tile((0, 0), (2, 4), b"payload-a", config=cfg_a)
            writer.add_tile((2, 0), (4, 4), b"payload-bb", config=cfg_b)
            writer.add_tile((4, 0), (6, 4), b"payload-c", config=cfg_a)
        return cfg_a, cfg_b

    def test_v5_palette_roundtrip(self):
        sink = io.BytesIO()
        cfg_a, cfg_b = self._write_adaptive(sink)
        blob = sink.getvalue()
        assert container.container_version(blob) == 5
        reader = TiledReader(blob)
        assert reader.version == container.VERSION_ADAPTIVE
        assert [t.config for t in reader.tiles] == [cfg_a, cfg_b, cfg_a]
        # two distinct configs palettized once despite three tiles
        # (checksummed containers carry a 4-byte TOC crc before the
        # trailing length word)
        import json as _json

        toc_len = int.from_bytes(blob[-8:], "little")
        toc = _json.loads(blob[-12 - toc_len : -12])
        assert len(toc["configs"]) == 2
        assert toc["tile_configs"] == [0, 1, 0]
        assert len(toc["tile_crcs"]) == 3

    @pytest.mark.parametrize("keep", [1, 0])
    def test_v5_mismatched_tile_configs_rejected(self, keep):
        # a tile_configs array shorter than tiles (including empty,
        # which must not fall back to the no-configs path) must not
        # silently drop trailing tiles
        import json as _json

        from repro.compressor.integrity import checksum

        sink = io.BytesIO()
        self._write_adaptive(sink)
        blob = sink.getvalue()
        toc_len = int.from_bytes(blob[-8:], "little")
        toc = _json.loads(blob[-12 - toc_len : -12])
        toc["tile_configs"] = toc["tile_configs"][:keep]
        bad_toc = _json.dumps(toc).encode()
        # recompute the TOC crc so structural validation (not the
        # checksum) is what rejects the mismatched tile_configs
        bad = (
            blob[: -12 - toc_len]
            + bad_toc
            + checksum(bad_toc).to_bytes(4, "little")
            + len(bad_toc).to_bytes(8, "little")
        )
        with pytest.raises(ValueError, match="corrupt tile TOC"):
            TiledReader(bad)

    def test_invalid_writer_version_rejected(self):
        with pytest.raises(ValueError):
            TiledWriter(io.BytesIO(), {"shape": [1]}, version=3)
