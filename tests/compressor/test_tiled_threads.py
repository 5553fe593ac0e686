"""Thread-safety of tiled region decoding.

One :class:`TiledReader` (and one :class:`TiledCompressor`) must serve
concurrent decodes with byte-identical results: the serving subsystem
keeps a single long-lived reader per dataset and hits it from every
request thread.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.compressor import CompressionConfig, SZCompressor, TiledCompressor
from repro.compressor.container import TiledReader
from repro.compressor.tiled import decode_tile
from tests.conftest import smooth_field

N_THREADS = 8
ROUNDS = 4


@pytest.fixture(scope="module")
def tiled_path(tmp_path_factory):
    data = smooth_field((48, 48), seed=77)
    path = tmp_path_factory.mktemp("tiledmt") / "field.rqsz"
    TiledCompressor().compress(
        data,
        CompressionConfig(error_bound=1e-3, tile_shape=(16, 16)),
        out=str(path),
    )
    return str(path)


def _regions():
    return [
        (slice(0, 48), slice(0, 48)),
        (slice(5, 29), slice(11, 43)),
        (slice(16, 17), slice(0, 48)),
        (slice(40, 48), slice(40, 48)),
        (slice(0, 8), slice(30, 31)),
        (slice(7, 41), slice(7, 41)),
        (slice(32, 48), slice(0, 16)),
        (slice(1, 2), slice(3, 4)),
    ]


def test_shared_compressor_hammered_from_threads(tiled_path):
    tc = TiledCompressor(workers=2)
    regions = _regions()
    reference = [tc.decompress_region(tiled_path, r) for r in regions]

    def worker(seed: int):
        order = np.random.default_rng(seed).permutation(len(regions))
        results = []
        for _ in range(ROUNDS):
            for i in order:
                results.append((int(i), tc.decompress_region(tiled_path, regions[i])))
        return results

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        outputs = list(pool.map(worker, range(N_THREADS)))
    for batch in outputs:
        for i, got in batch:
            assert got.tobytes() == reference[i].tobytes()
    assert tc.tiles_decoded > 0


def test_shared_reader_hammered_from_threads(tiled_path):
    """One TiledReader + one stateless codec, eight decode threads."""
    codec = SZCompressor()
    with TiledReader(tiled_path) as reader:
        dtype = np.dtype(reader.header["dtype"])

        def decode(record):
            return decode_tile(
                reader.read_tile(record),
                record.shape,
                dtype,
                codec,
                params=record.params,
            )

        reference = [decode(record).tobytes() for record in reader.tiles]

        def worker(seed: int):
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(ROUNDS * len(reader.tiles)):
                i = int(rng.integers(len(reader.tiles)))
                tile = decode(reader.tiles[i])
                out.append((i, tile.tobytes()))
            return out

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            outputs = list(pool.map(worker, range(N_THREADS)))
    for batch in outputs:
        for i, got in batch:
            assert got == reference[i]


def test_tile_counters_exact_under_concurrency(tiled_path):
    """tiles_decoded increments are lock-protected (no lost updates)."""
    tc = TiledCompressor()
    region = (slice(0, 16), slice(0, 16))  # exactly one tile
    n_calls = N_THREADS * 25

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(
            pool.map(
                lambda _: tc.decompress_region(tiled_path, region),
                range(n_calls),
            )
        )
    assert tc.tiles_decoded == n_calls
    assert tc.last_tiles_decoded == 1
