"""Tiled containers: out-of-core streaming and region-of-interest decode."""

import io
import tracemalloc

import numpy as np
import pytest

from repro.compressor import (
    CompressionConfig,
    ErrorBoundMode,
    SZCompressor,
    TiledCompressor,
)
from repro.compressor.tiled import (
    intersect_extent,
    iter_tiles,
    normalize_region,
    tile_grid,
)
from tests.conftest import assert_error_bounded, smooth_field


class TestGeometry:
    def test_tile_grid_ceiling(self):
        assert tile_grid((10, 4), (4, 4)) == (3, 1)

    def test_tile_grid_rank_mismatch(self):
        with pytest.raises(ValueError):
            tile_grid((10, 4), (4,))

    def test_iter_tiles_covers_every_point_once(self):
        shape, tile = (7, 5, 3), (3, 2, 3)
        counts = np.zeros(shape, dtype=int)
        for start, stop in iter_tiles(shape, tile):
            counts[tuple(slice(a, b) for a, b in zip(start, stop))] += 1
        assert np.all(counts == 1)

    def test_normalize_region_defaults_and_negative_ints(self):
        shape = (10, 8)
        assert normalize_region((slice(None),), shape) == (
            slice(0, 10),
            slice(0, 8),
        )
        # negative *integers* index from the end, numpy style
        assert normalize_region((slice(7, None), -1), shape) == (
            slice(7, 10),
            slice(7, 8),
        )

    def test_normalize_region_rejects_steps_and_rank(self):
        with pytest.raises(ValueError):
            normalize_region((slice(0, 4, 2),), (10,))
        with pytest.raises(ValueError):
            normalize_region((slice(None),) * 3, (10,))
        with pytest.raises(IndexError):
            normalize_region((99,), (10,))

    @pytest.mark.parametrize(
        "bad",
        [
            slice(-3, None),
            slice(None, -1),
            slice(-5, -2),
            slice(None, None, 2),
            slice(None, None, -1),
            slice(8, 0, -1),
            slice(0.5, 3),
            "0:3",
        ],
    )
    def test_normalize_region_rejects_invalid_slices(self, bad):
        """Negative endpoints, steps and non-int slices raise cleanly."""
        with pytest.raises(ValueError):
            normalize_region((bad,), (10,))

    def test_decompress_region_rejects_invalid_slices(self):
        # regression: the decode entry points themselves must raise a
        # clean ValueError instead of mis-decoding odd regions
        data = smooth_field((16, 16))
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=(8, 8))
        tc = TiledCompressor()
        result = tc.compress(data, cfg)
        for region in (
            (slice(-4, None), slice(None)),
            (slice(None), slice(0, 16, 2)),
            (slice(None, None, -1),),
        ):
            with pytest.raises(ValueError):
                tc.decompress_region(result.blob, region)
        # flat blobs go through the same validation
        flat = SZCompressor().compress(data, CompressionConfig(error_bound=1e-3))
        with pytest.raises(ValueError):
            tc.decompress_region(flat.blob, (slice(-4, None),))

    def test_intersect_extent(self):
        region = (slice(2, 6),)
        assert intersect_extent((0,), (4,), region) == (slice(2, 4),)
        assert intersect_extent((6,), (9,), region) is None


class TestRoundtrip:
    @pytest.mark.parametrize("workers", [None, 3])
    def test_full_roundtrip(self, workers):
        data = smooth_field((30, 41))
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=(16, 16))
        tc = TiledCompressor(workers=workers)
        result = tc.compress(data, cfg)
        assert result.n_tiles == 6
        assert result.blob[4] == 7  # the tiled frame
        recon = tc.decompress(result.blob)
        assert recon.dtype == data.dtype
        assert_error_bounded(data, recon, 1e-3)

    def test_parallel_encode_is_deterministic(self):
        data = smooth_field((40, 40))
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=(13, 13))
        serial = TiledCompressor().compress(data, cfg)
        parallel = TiledCompressor(workers=4).compress(data, cfg)
        assert serial.blob == parallel.blob

    def test_result_accounting(self):
        data = smooth_field((30, 30))
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=(16, 16))
        result = TiledCompressor().compress(data, cfg)
        assert result.compressed_bytes == len(result.blob)
        assert result.original_bytes == data.nbytes
        assert sum(t.size for t in result.tiles) < result.compressed_bytes
        assert result.ratio > 1.0

    def test_default_tile_shape_is_whole_array(self):
        data = smooth_field((20, 20))
        result = TiledCompressor().compress(
            data, CompressionConfig(error_bound=1e-3)
        )
        assert result.n_tiles == 1
        assert result.tile_shape == (20, 20)

    def test_rel_mode_uses_global_range(self):
        # a gradient along axis 0 makes per-tile ranges much smaller
        # than the global one; the bound must follow the global range
        data = np.linspace(0, 100, 64 * 16).reshape(64, 16)
        eb_rel = 1e-3
        cfg = CompressionConfig(
            mode=ErrorBoundMode.REL, error_bound=eb_rel, tile_shape=(8, 8)
        )
        result = TiledCompressor().compress(data, cfg)
        recon = TiledCompressor().decompress(result.blob)
        vrange = float(data.max() - data.min())
        assert_error_bounded(data, recon, eb_rel * vrange)
        # every tile must carry the bound derived from the GLOBAL range,
        # not from its own (much smaller) local range
        from repro.compressor.container import TiledReader, unpack_tile

        with TiledReader(result.blob) as reader:
            assert reader.header["value_range"] == [0.0, 100.0]
            for record in reader.tiles:
                meta, _ = unpack_tile(reader.read_tile(record))
                header = {**record.params, **meta}
                assert header["abs_eb"] == pytest.approx(eb_rel * vrange)

    def test_rel_mode_constant_field_exact(self):
        data = np.full((20, 12), 7.25)
        cfg = CompressionConfig(
            mode=ErrorBoundMode.REL, error_bound=1e-3, tile_shape=(8, 8)
        )
        result = TiledCompressor().compress(data, cfg)
        np.testing.assert_array_equal(
            TiledCompressor().decompress(result.blob), data
        )

    def test_pw_rel_mode(self):
        data = smooth_field((24, 24)).astype(np.float64) + 2.0
        cfg = CompressionConfig(
            mode=ErrorBoundMode.PW_REL, error_bound=1e-3, tile_shape=(10, 10)
        )
        result = TiledCompressor().compress(data, cfg)
        recon = TiledCompressor().decompress(result.blob)
        rel = np.abs(recon.astype(np.float64) / data - 1.0)
        assert np.max(rel) <= 1e-3 * (1 + 1e-4)

    def test_empty_array(self):
        data = np.zeros((0, 4), dtype=np.float32)
        result = TiledCompressor().compress(
            data, CompressionConfig(tile_shape=(2, 2))
        )
        assert result.n_tiles == 0
        out = TiledCompressor().decompress(result.blob)
        assert out.shape == (0, 4) and out.dtype == np.float32

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            TiledCompressor().compress(
                np.float64(3.0), CompressionConfig()
            )

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            TiledCompressor(workers=0)


class TestRegionDecodeProperty:
    """Property-style sweep: random tile shapes, dtypes, modes and
    hyperslabs must always decode to exactly the full reconstruction's
    slice, touching only the intersecting tiles."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_regions_match_full_decode(self, seed):
        rng = np.random.default_rng(seed)
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(4, 28)) for _ in range(ndim))
        tile_shape = tuple(int(rng.integers(2, 12)) for _ in range(ndim))
        dtype = rng.choice([np.float32, np.float64])
        mode = rng.choice(list(ErrorBoundMode))
        data = (smooth_field(shape, seed=seed) + 2.0).astype(dtype)
        cfg = CompressionConfig(
            mode=mode,
            error_bound=1e-3,
            tile_shape=tile_shape,
            chunk_size=int(rng.integers(200, 2000))
            if rng.random() < 0.5
            else None,
        )
        tc = TiledCompressor()
        result = tc.compress(data, cfg)
        full = tc.decompress(result.blob)
        for _ in range(4):
            region = tuple(
                slice(lo, int(rng.integers(lo, n + 1)))
                for n, lo in (
                    (n, int(rng.integers(0, n))) for n in shape
                )
            )
            roi = tc.decompress_region(result.blob, region)
            np.testing.assert_array_equal(roi, full[region])
            n_hit = sum(
                intersect_extent(t.start, t.stop, normalize_region(region, shape))
                is not None
                for t in result.tiles
            )
            assert tc.last_tiles_decoded == n_hit

    def test_edge_tile_region(self):
        # region hugging the clipped edge tiles
        data = smooth_field((21, 19))
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=(8, 8))
        tc = TiledCompressor()
        result = tc.compress(data, cfg)
        full = tc.decompress(result.blob)
        roi = tc.decompress_region(result.blob, (slice(16, 21), slice(16, 19)))
        np.testing.assert_array_equal(roi, full[16:21, 16:19])
        assert tc.last_tiles_decoded == 1

    def test_empty_intersection(self):
        data = smooth_field((16, 16))
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=(8, 8))
        tc = TiledCompressor()
        result = tc.compress(data, cfg)
        roi = tc.decompress_region(result.blob, (slice(5, 5), slice(0, 16)))
        assert roi.shape == (0, 16)
        assert tc.last_tiles_decoded == 0

    def test_single_tile_region_decodes_one_tile(self):
        data = smooth_field((32, 32))
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=(8, 8))
        tc = TiledCompressor()
        result = tc.compress(data, cfg)
        assert result.n_tiles == 16
        tc.decompress_region(result.blob, (slice(9, 15), slice(17, 23)))
        assert tc.last_tiles_decoded == 1
        assert tc.tiles_decoded == 1  # cumulative counter

    def test_int_indices_keep_dimensionality(self):
        data = smooth_field((12, 12))
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=(6, 6))
        tc = TiledCompressor()
        result = tc.compress(data, cfg)
        roi = tc.decompress_region(result.blob, (3, slice(None)))
        assert roi.shape == (1, 12)


class TestOutOfCoreStreaming:
    def test_memmap_to_file_roundtrip(self, tmp_path):
        data = smooth_field((40, 30)).astype(np.float64)
        src = tmp_path / "field.npy"
        np.save(src, data)
        mm = np.load(src, mmap_mode="r")
        out = str(tmp_path / "field.rqsz")
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=(16, 16))
        result = TiledCompressor(workers=2).compress(mm, cfg, out=out)
        assert result.blob is None  # streamed, not materialized
        import os

        assert os.path.getsize(out) == result.compressed_bytes
        tc = TiledCompressor()
        assert_error_bounded(data, tc.decompress(out), 1e-3)
        roi = tc.decompress_region(out, (slice(10, 20), slice(5, 9)))
        np.testing.assert_array_equal(
            roi, tc.decompress(out)[10:20, 5:9]
        )

    def test_streamed_compress_holds_tiles_not_the_field(self, tmp_path):
        # memmap -> file in eight 64x512 tiles against the flat compress
        # of the same 2 MB array: what streaming is for, by allocation
        # count (2.6 MB against 11.6 MB), at near ratio parity (0.99)
        data = smooth_field((512, 512)).astype(np.float64)
        src = tmp_path / "field.npy"
        np.save(src, data)
        mm = np.load(src, mmap_mode="r")

        def traced(compress):
            tracemalloc.start()
            try:
                return compress(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        tiled, tiled_peak = traced(
            lambda: TiledCompressor().compress(
                mm,
                CompressionConfig(error_bound=1e-3, tile_shape=(64, 512)),
                out=str(tmp_path / "field.rqsz"),
            )
        )
        flat, flat_peak = traced(
            lambda: SZCompressor().compress(
                mm, CompressionConfig(error_bound=1e-3)
            )
        )
        assert tiled_peak < 0.5 * flat_peak
        assert tiled.ratio >= 0.9 * flat.ratio

    def test_file_object_sources(self, tmp_path):
        data = smooth_field((20, 20))
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=(8, 8))
        sink = io.BytesIO()
        TiledCompressor().compress(data, cfg, out=sink)
        sink.seek(0)
        recon = TiledCompressor().decompress(sink)
        assert_error_bounded(data, recon, 1e-3)

    def test_parallel_decode_from_file_is_race_free(self, tmp_path):
        # regression: concurrent tile decodes share one file handle;
        # the seek+read pair must be atomic or threads corrupt each
        # other's reads (failed ~70% of the time before the lock)
        data = smooth_field((64, 64, 64)).astype(np.float64)
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=(8, 8, 8))
        out = str(tmp_path / "many_tiles.rqsz")
        TiledCompressor(workers=4).compress(data, cfg, out=out)
        tc = TiledCompressor(workers=8)
        for _ in range(5):
            assert_error_bounded(data, tc.decompress(out), 1e-3)

    def test_writer_records_true_offsets_at_nonzero_start(self, tmp_path):
        # a sink positioned past 0 (e.g. appending) must record TOC
        # offsets that seek to the true file positions, and report the
        # container's size rather than the sink's end offset
        data = smooth_field((16, 16))
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=(8, 8))
        plain = TiledCompressor().compress(data, cfg)
        path = tmp_path / "offset.rqsz"
        prefix = b"#" * 37
        with open(path, "wb") as fh:
            fh.write(prefix)
            result = TiledCompressor().compress(data, cfg, out=fh)
        assert result.compressed_bytes == len(plain.blob)
        with open(path, "rb") as fh:
            raw = fh.read()
        for record, plain_record in zip(result.tiles, plain.tiles):
            assert record.offset == plain_record.offset + len(prefix)
            assert (
                raw[record.offset : record.offset + record.size]
                == plain.blob[
                    plain_record.offset : plain_record.offset
                    + plain_record.size
                ]
            )

    def test_streamed_and_in_memory_bytes_identical(self, tmp_path):
        data = smooth_field((25, 25))
        cfg = CompressionConfig(error_bound=1e-3, tile_shape=(9, 9))
        in_memory = TiledCompressor().compress(data, cfg).blob
        out = str(tmp_path / "x.rqsz")
        TiledCompressor().compress(data, cfg, out=out)
        with open(out, "rb") as fh:
            assert fh.read() == in_memory
