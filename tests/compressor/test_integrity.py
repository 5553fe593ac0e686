"""Container integrity: checksums detect corruption, never lie.

The detected-or-correct guarantee starts here: a checksummed container
either round-trips byte-identically or raises a structured error naming
what failed.  Containers without checksums (legacy blobs) verify as
*unknown* — never as failures.
"""

import io

import numpy as np
import pytest

from repro.compressor import CompressionConfig, TiledCompressor
from repro.compressor.container import (
    ContainerFormatError,
    TileCorruptError,
    TiledReader,
    TiledWriter,
    pack_tile,
)
from repro.compressor.inspect import describe_container
from repro.compressor.integrity import (
    CHECKSUM_ALGORITHM,
    checksum,
    checksum_named,
    supported_algorithms,
)
from tests.conftest import LegacyTiledWriter, forge_v2, smooth_field


PAYLOAD_A = pack_tile({}, [b"payload-a", b"", b"", b"", b""])
PAYLOAD_B = pack_tile({}, [b"payload-bb", b"", b"", b"", b""])


def _tiled_blob(note: str = "aaaaaaaa") -> bytes:
    sink = io.BytesIO()
    header = {
        "shape": [4, 4],
        "tile_shape": [2, 4],
        "dtype": "<f4",
        "note": note,
    }
    with TiledWriter(sink, header) as writer:
        writer.add_tile((0, 0), (2, 4), PAYLOAD_A)
        writer.add_tile((2, 0), (4, 4), PAYLOAD_B)
    return sink.getvalue()


class TestAlgorithms:
    def test_default_algorithm_is_supported(self):
        assert CHECKSUM_ALGORITHM in supported_algorithms()

    def test_checksum_deterministic(self):
        assert checksum(b"abc") == checksum(b"abc")
        assert checksum(b"abc") != checksum(b"abd")
        assert 0 <= checksum(b"") < 2**32

    def test_unknown_algorithm_returns_none(self):
        assert checksum_named("xxh3-is-not-a-thing", b"abc") is None
        assert checksum_named(CHECKSUM_ALGORITHM, b"abc") == checksum(
            b"abc"
        )


class TestWriterReaderChecksums:
    def test_fresh_container_verifies(self):
        blob = _tiled_blob()
        reader = TiledReader(blob)
        assert reader.checksum_algorithm == CHECKSUM_ALGORITHM
        assert reader.checksum_state == "verified"
        assert all(t.crc is not None for t in reader.tiles)
        assert reader.read_tile(reader.tiles[0]) == PAYLOAD_A
        assert reader.verify_tiles() == "verified"

    def test_checksums_off_reads_as_unknown(self):
        sink = io.BytesIO()
        with TiledWriter(
            sink,
            {"shape": [2], "tile_shape": [2], "dtype": "<f4"},
            checksums=False,
        ) as writer:
            writer.add_tile((0,), (2,), b"xy")
        reader = TiledReader(sink.getvalue())
        assert reader.checksum_algorithm is None
        assert reader.checksum_state == "unknown"
        assert reader.verify_tiles() == "unknown"
        assert reader.read_tile(reader.tiles[0]) == b"xy"

    def test_flipped_tile_byte_raises_tile_corrupt(self):
        blob = bytearray(_tiled_blob())
        reader = TiledReader(bytes(blob))
        record = reader.tiles[1]
        blob[record.offset] ^= 0x40
        corrupt = TiledReader(bytes(blob))  # header+TOC still intact
        assert corrupt.checksum_state == "verified"
        with pytest.raises(TileCorruptError) as excinfo:
            corrupt.read_tile(corrupt.tiles[1])
        err = excinfo.value
        assert err.tile_index == 1
        assert err.offset == record.offset
        assert err.version == corrupt.version
        assert "tile 1" in str(err)
        # the sibling tile is untouched and still readable
        assert corrupt.read_tile(corrupt.tiles[0]) == PAYLOAD_A

    def test_flipped_legacy_tile_byte_names_that_tile(self):
        """A checksummed v5's tile CRC is checked before the tile is
        re-framed: the damaged tile is named, its siblings still read."""
        data = smooth_field((24, 24)).astype(np.float64)
        header = {"shape": [24, 24], "dtype": "<f8", "tile_shape": [8, 24]}
        sink = io.BytesIO()
        with LegacyTiledWriter(sink, header, version=5) as writer:
            for lo, eb in ((0, 1e-2), (8, 1e-3), (16, 1e-4)):
                config = CompressionConfig(error_bound=eb)
                writer.add_tile(
                    (lo, 0), (lo + 8, 24),
                    forge_v2(data[lo : lo + 8], config), config.to_json(),
                )
        intact = sink.getvalue()
        blob = bytearray(intact)
        blob[TiledReader(intact).tiles[1].offset + 40] ^= 0x08
        blob = bytes(blob)
        with TiledReader(blob) as reader, TiledReader(intact) as good:
            assert reader.checksum_state == "verified"
            for index in (0, 2):
                assert reader.read_tile(reader.tiles[index]) == good.read_tile(
                    good.tiles[index]
                )
            with pytest.raises(TileCorruptError, match="tile 1 of v5") as caught:
                reader.read_tile(reader.tiles[1])
        assert caught.value.tile_index == 1
        region = (slice(0, 8), slice(0, 24))
        tc = TiledCompressor()
        np.testing.assert_array_equal(
            tc.decompress_region(blob, region),
            tc.decompress_region(intact, region),
        )

    def test_verify_tiles_names_first_corrupt_tile(self):
        blob = bytearray(_tiled_blob())
        record = TiledReader(bytes(blob)).tiles[0]
        blob[record.offset + 2] ^= 0x80
        with pytest.raises(TileCorruptError) as excinfo:
            TiledReader(bytes(blob)).verify_tiles()
        assert excinfo.value.tile_index == 0

    def test_flipped_toc_byte_rejected_at_open(self):
        blob = bytearray(_tiled_blob())
        toc_len = int.from_bytes(blob[-8:], "little")
        # flip inside the TOC JSON, between the tiles and the trailer
        blob[-12 - toc_len + 5] ^= 0x01
        with pytest.raises(
            ContainerFormatError, match="corrupt tile TOC"
        ):
            TiledReader(bytes(blob))

    def test_flipped_header_byte_rejected_at_open(self):
        # flip inside a header string value so the JSON still parses
        # and only the header checksum can catch it
        blob = _tiled_blob(note="aaaaaaaa")
        assert blob.count(b"aaaaaaaa") == 1
        bad = blob.replace(b"aaaaaaaa", b"aaabaaaa")
        with pytest.raises(
            ContainerFormatError, match="corrupt container header"
        ):
            TiledReader(bad)

    def test_tile_corrupt_error_is_value_error(self):
        # existing handlers catch ValueError; the structured errors
        # must flow through them unchanged
        assert issubclass(ContainerFormatError, ValueError)
        assert issubclass(TileCorruptError, ContainerFormatError)


class TestTruncation:
    """Truncated/garbage containers give clean structured errors."""

    @pytest.mark.parametrize("keep", [0, 3, 5, 10, 40])
    def test_truncated_tiled_container(self, keep):
        blob = _tiled_blob()
        with pytest.raises(ContainerFormatError):
            TiledReader(blob[:keep])

    def test_truncated_tail(self):
        blob = _tiled_blob()
        with pytest.raises(ContainerFormatError):
            TiledReader(blob[:-3])

    def test_garbage_rejected(self):
        with pytest.raises(ContainerFormatError):
            TiledReader(b"\x00" * 64)

    def test_garbage_inspect_rejected(self):
        with pytest.raises(ValueError):
            describe_container(b"RQSZ\x04" + b"\xff" * 9)


class TestEndToEnd:
    def test_compressed_array_verifies_and_roundtrips(self):
        data = smooth_field((16, 16))
        config = CompressionConfig(error_bound=1e-3, tile_shape=(8, 8))
        compressor = TiledCompressor()
        result = compressor.compress(data, config)
        reader = TiledReader(result.blob)
        assert reader.checksum_state == "verified"
        assert reader.verify_tiles() == "verified"
        back = compressor.decompress(result.blob)
        assert np.max(np.abs(back - data)) <= 1e-3

    def test_bit_flip_in_payload_fails_decode(self):
        data = smooth_field((16, 16))
        config = CompressionConfig(error_bound=1e-3, tile_shape=(8, 8))
        compressor = TiledCompressor()
        blob = bytearray(compressor.compress(data, config).blob)
        record = TiledReader(bytes(blob)).tiles[0]
        blob[record.offset + record.size // 2] ^= 0x10
        with pytest.raises(TileCorruptError):
            compressor.decompress(bytes(blob))

    def test_describe_container_reports_integrity(self):
        blob = _tiled_blob()
        info = describe_container(blob)
        assert info["integrity"] == {
            "checksums": CHECKSUM_ALGORITHM,
            "state": "verified",
            "deep": False,
        }
        deep = describe_container(blob, verify=True)
        assert deep["integrity"]["state"] == "verified"
        assert deep["integrity"]["deep"] is True

    def test_describe_deep_verify_catches_payload_flip(self):
        blob = bytearray(_tiled_blob())
        record = TiledReader(bytes(blob)).tiles[0]
        blob[record.offset] ^= 0x02
        # shallow describe is header+TOC only and does not notice
        assert (
            describe_container(bytes(blob))["integrity"]["state"]
            == "verified"
        )
        with pytest.raises(TileCorruptError):
            describe_container(bytes(blob), verify=True)

    def test_checksum_overhead_below_one_percent(self):
        data = smooth_field((128, 128))
        config = CompressionConfig(error_bound=1e-5, tile_shape=(32, 32))
        compressor = TiledCompressor()
        blob = compressor.compress(data, config).blob
        with_sums = len(blob)
        reader = TiledReader(blob)
        assert reader.checksum_state == "verified"
        # rebuild the same container without checksums for comparison
        plain = io.BytesIO()
        with TiledWriter(
            plain,
            {
                k: v
                for k, v in reader.header.items()
                if k not in ("checksums", "container_version")
            },
            checksums=False,
        ) as writer:
            for t in reader.tiles:
                writer.copy_tile(reader, t)
        without = len(plain.getvalue())
        # the copy is the container, minus what checksums add
        np.testing.assert_array_equal(
            compressor.decompress(plain.getvalue()), compressor.decompress(blob)
        )
        assert (with_sums - without) / without <= 0.01
