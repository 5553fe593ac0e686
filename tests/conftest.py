"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

SEED = 1234


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(SEED)


def smooth_field(shape: tuple[int, ...], seed: int = SEED, noise: float = 0.05):
    """A smooth sinusoidal field plus mild noise (compresses well)."""
    rng = np.random.default_rng(seed)
    axes = [np.linspace(0, 3 * np.pi, n) for n in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    field = np.ones(shape)
    for g in grids:
        field = field * np.sin(g + 0.3)
    field = field + noise * rng.standard_normal(shape)
    return field.astype(np.float32)


@pytest.fixture
def field_1d() -> np.ndarray:
    return smooth_field((4096,))


@pytest.fixture
def field_2d() -> np.ndarray:
    return smooth_field((48, 64))


@pytest.fixture
def field_3d() -> np.ndarray:
    return smooth_field((24, 24, 24))


def assert_error_bounded(
    original: np.ndarray, reconstructed: np.ndarray, error_bound: float
) -> None:
    """Assert the point-wise bound holds, allowing dtype-cast slack.

    The compressor guarantees the bound in float64; casting the
    reconstruction back to the original dtype may add up to one ULP of
    the stored values.
    """
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    ulp = 0.0
    if np.asarray(reconstructed).dtype == np.float32:
        ulp = float(np.max(np.abs(b))) * float(np.finfo(np.float32).eps)
    max_err = float(np.max(np.abs(a - b))) if a.size else 0.0
    tolerance = error_bound * (1 + 1e-9) + ulp
    assert max_err <= tolerance, (
        f"error bound violated: max err {max_err:.3e} > "
        f"eb {error_bound:.3e} (+ulp {ulp:.3e})"
    )


def adopt_container(root, name: str, blob: bytes) -> None:
    """Make *blob* dataset *name* of the store directory *root*.

    Writes the container file and a minimal (pre-chain style) manifest
    entry, so an :class:`repro.service.store.ArrayStore` opened on
    *root* serves a container it did not encode — a golden fixture, or
    one crafted to be wrong.
    """
    import json
    import os

    from repro.compressor.container import TiledReader

    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, f"{name}.rqsz"), "wb") as fh:
        fh.write(blob)
    with TiledReader(blob) as reader:
        entry = {
            "file": f"{name}.rqsz",
            "shape": reader.header["shape"],
            "dtype": reader.header["dtype"],
            "tile_shape": reader.header["tile_shape"],
        }
    with open(os.path.join(root, "store.json"), "w") as fh:
        json.dump({"datasets": {name: entry}}, fh)


def rewrite_container(blob: bytes, header=None, toc=None, resum=True) -> bytes:
    """Tiled *blob* with its header and/or TOC passed through a function.

    With *resum* the checksums a container declares are recomputed, so
    what a reader then objects to is structure, not a CRC (a forgery);
    without, they are left as they were (a corruption).
    """
    import json

    from repro.compressor.integrity import checksum

    header_len = int.from_bytes(blob[5:9], "little")
    new_header = json.loads(blob[9 : 9 + header_len])
    sums = bool(new_header.get("checksums"))
    toc_len = int.from_bytes(blob[-8:], "little")
    toc_start = len(blob) - 8 - 4 * sums - toc_len
    new_toc = json.loads(blob[toc_start : toc_start + toc_len])
    if header is not None:
        new_header = header(new_header) or new_header
    header_bytes = json.dumps(new_header).encode()
    if sums and resum and "header_crc" in new_toc:
        new_toc["header_crc"] = checksum(header_bytes)
    if toc is not None:
        new_toc = toc(new_toc) or new_toc
    toc_bytes = json.dumps(new_toc).encode()
    toc_crc = b""
    if sums:
        toc_crc = (
            checksum(toc_bytes).to_bytes(4, "little")
            if resum
            else blob[toc_start + toc_len : -8]
        )
    return b"".join(
        [
            blob[:5],
            len(header_bytes).to_bytes(4, "little"),
            header_bytes,
            blob[9 + header_len : toc_start],
            toc_bytes,
            toc_crc,
            len(toc_bytes).to_bytes(8, "little"),
        ]
    )


def replace_tile(blob: bytes, index: int, payload: bytes, resum=True) -> bytes:
    """v7 *blob* with tile *index* replaced by *payload*, the TOC's
    ``sizes`` following and — with *resum* — its checksums too."""
    from repro.compressor.container import TiledReader
    from repro.compressor.integrity import checksum

    with TiledReader(blob) as reader:
        record = reader.tiles[index]

    def refile(toc):
        toc["sizes"][index] = len(payload)
        if resum and "crcs" in toc:
            toc["crcs"][index] = checksum(payload)

    out = blob[: record.offset] + payload + blob[record.offset + record.size :]
    if len(payload) != record.size or resum:
        out = rewrite_container(out, toc=refile, resum=resum)
    return out


def write_chunked_codes(payloads) -> bytes:
    """Frame independently coded blocks into one v3 codes section.

    The codec only reads this framing now; earlier revisions wrote it
    for ``chunk_size``, and the tests forge it to keep such files
    decoding.
    """
    parts = [len(payloads).to_bytes(4, "little")]
    parts.extend(len(p).to_bytes(8, "little") for p in payloads)
    parts.extend(payloads)
    return b"".join(parts)


def chunk_codes(params: dict, sections, chunk: int) -> tuple[dict, list]:
    """An ``encode_stages`` output with its codes section in blocks.

    *params* and *sections* come back as the chunked writer made them
    for ``chunk_size=chunk``: the code stream in blocks of *chunk*
    symbols, each Huffman(+lossless) coded on its own.
    """
    from repro.compressor.encoders.huffman import HuffmanEncoder
    from repro.compressor.encoders.lossless import get_lossless_backend
    from repro.compressor.stages import HuffmanEntropyStage
    from repro.compressor.sz import SZCompressor

    config = SZCompressor._config_from_header(params)
    codes = HuffmanEntropyStage().decode(sections[0], config, chunked=False)
    blocks = []
    for lo in range(0, codes.size, chunk):
        block = HuffmanEncoder().encode(codes[lo : lo + chunk])
        if config.lossless is not None:
            block = get_lossless_backend(config.lossless).compress(block)
        blocks.append(block)
    return (
        dict(params, chunk_size=chunk, chunked=True),
        [write_chunked_codes(blocks), *sections[1:]],
    )


def forge_v3(data, config, chunk: int) -> bytes:
    """The flat v3 container the chunked writer made of *data* under
    *config* with ``chunk_size=chunk`` (it wrote v3 for streams of more
    than *chunk* codes)."""
    from repro.compressor import container
    from repro.compressor.sz import SZCompressor

    params, sections, _, _ = SZCompressor().encode_stages(data, config)
    params, sections = chunk_codes(params, sections, chunk)
    del params["chunked"]  # the version byte says it
    return container.write_flat(params, sections, container.VERSION_CHUNKED)[0]


def forge_chunked_v7(data, config, chunk: int) -> bytes:
    """The v7 container of *data* under *config* whose tiles of more
    than *chunk* codes the chunked writer split into blocks, with
    ``chunked`` in their parameters."""
    from repro.compressor.sz import SZCompressor
    from repro.compressor.tiled import TiledCompressor

    class ChunkingCodec(SZCompressor):
        def encode_stages(self, data, config, reconstruct=False, times=None):
            params, sections, recon, measures = super().encode_stages(
                data, config, reconstruct, times
            )
            if data.size > chunk:
                params, sections = chunk_codes(params, sections, chunk)
            return params, sections, recon, measures

    return TiledCompressor(codec=ChunkingCodec()).compress(data, config).blob


def without_checksums(blob: bytes) -> bytes:
    """The v7 container *blob*, written again with ``checksums=False``."""
    import io

    from repro.compressor.container import TiledReader, TiledWriter

    sink = io.BytesIO()
    with TiledReader(blob) as reader:
        header = {
            k: v
            for k, v in reader.header.items()
            if k not in ("checksums", "container_version")
        }
        with TiledWriter(sink, header, checksums=False) as writer:
            for t in reader.tiles:
                writer.copy_tile(reader, t)
    return sink.getvalue()
