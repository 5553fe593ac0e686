"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import settings

from repro.compressor.encoders import huffman

SEED = 1234

#: every ``@given`` test draws the same examples on every run, so a
#: tier-1 failure reproduces; a test's own ``@settings`` keeps its
#: ``max_examples`` and inherits the rest from here
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


@pytest.fixture
def long_code_walks(monkeypatch) -> list:
    """The bit position of every symbol the test's decodes resolve by
    the per-bit walk for codes past the 16-bit primary table."""
    walks = []
    walk = huffman.HuffmanEncoder._decode_long_bytes

    def counted(window, pos, total_bits, long_codes):
        walks.append(pos)
        return walk(window, pos, total_bits, long_codes)

    monkeypatch.setattr(
        huffman.HuffmanEncoder, "_decode_long_bytes", staticmethod(counted)
    )
    return walks


@pytest.fixture
def unlimited_codes(monkeypatch) -> None:
    """Writers build Huffman codes with no length limit: the test's
    compresses write what v7 writers wrote before codes fit 16 bits."""
    lengths = huffman.huffman_code_lengths

    def unlimited(counts, limit=None):
        return lengths(counts)

    monkeypatch.setattr(huffman, "huffman_code_lengths", unlimited)


@contextlib.contextmanager
def case(**labels):
    """One input of a family that one test loops over: a failure inside
    names the input (its seed, say) that reproduces it."""
    try:
        yield
    except Exception as exc:
        raise AssertionError(f"fails at {labels}: {exc}") from exc


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
            # a flat (v2/v3) blob is one tile covering its array
            "tile_shape": reader.header.get("tile_shape", reader.header["shape"]),
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


def rqh5_toc(raw: bytes) -> tuple[dict, int]:
    """The TOC of an RQH5 file's bytes and where it starts (from
    version 2 a CRC-32 of it follows)."""
    import json

    crc_bytes = 4 if raw[4] >= 2 else 0
    toc_len = int.from_bytes(raw[-8:], "little")
    start = len(raw) - 8 - crc_bytes - toc_len
    return json.loads(raw[start : start + toc_len]), start


def with_rqh5_toc(raw: bytes, toc) -> bytes:
    """RQH5 file bytes *raw* under another TOC, a v2 TOC's CRC
    recomputed: a forged entry, not a damaged TOC."""
    import json
    import zlib

    body = json.dumps(toc).encode()
    crc = zlib.crc32(body).to_bytes(4, "little") if raw[4] >= 2 else b""
    start = rqh5_toc(raw)[1]
    return raw[:start] + body + crc + len(body).to_bytes(8, "little")


def forge_rqh5(path, edit) -> None:
    """Rewrite the RQH5 file at *path* with ``edit(datasets)`` applied
    to its TOC (see :func:`with_rqh5_toc`)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    toc, _ = rqh5_toc(raw)
    edit(toc["datasets"])
    with open(path, "wb") as fh:
        fh.write(with_rqh5_toc(raw, toc))


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


def roundtrip(data, config):
    """``(result, decoded)``: *data* through the one front end and back."""
    from repro.compressor import TiledCompressor

    tiled = TiledCompressor()
    result = tiled.compress(data, config)
    return result, tiled.decompress(result.blob)


def one_tile_params(blob: bytes) -> dict:
    """What the one tile of the container *blob* decodes under: header,
    TOC and palette resolved, completed by its ``meta``."""
    from repro.compressor.container import TiledReader, unpack_tile

    with TiledReader(blob) as reader:
        (record,) = reader.tiles
        meta, _ = unpack_tile(reader.read_tile(record))
    return {**record.params, **meta}


def forge_flat(header: dict, sections, version: int = 2) -> bytes:
    """*header* and the five stage *sections* framed as the retired flat
    writer framed them: v2, or v3 around a chunked codes section."""
    import json

    header_bytes = json.dumps(header, sort_keys=True).encode()
    parts = [b"RQSZ", bytes([version])]
    parts += [len(header_bytes).to_bytes(4, "little"), header_bytes]
    for section in sections:
        parts += [len(section).to_bytes(8, "little"), section]
    return b"".join(parts)


def forge_v2(data, config) -> bytes:
    """The flat v2 container the retired writer made of *data* under
    *config* — the one-tile v7 container's sections, flat-framed."""
    from tests.oracle import encode_alone

    params, sections, _, _ = encode_alone(data, config)
    return forge_flat(params, sections)


class LegacyTiledWriter:
    """Forges a v4/v5/v6 frame as the retired legacy writer did.

    Tiles are ready payloads — flat containers in the released files —
    filed in any order: the legacy TOC stores each one's ``offset``,
    ``size``, ``start`` and ``stop``, v5 adds the ``configs`` palette
    and ``tile_configs``, v6 the ``tile_modes``, and with *checksums*
    the ``tile_crcs`` and ``header_crc``.
    """

    def __init__(self, sink, header: dict, version: int = 4, checksums=True):
        from repro.compressor.integrity import CHECKSUM_ALGORITHM, checksum

        assert version in (4, 5, 6), version
        self._fh, self._version, self._checksums = sink, version, checksums
        if checksums:
            header = dict(header, checksums=CHECKSUM_ALGORITHM)
        header_bytes = _compact_json(header)
        self._header_crc = checksum(header_bytes)
        prelude = b"RQSZ" + bytes([version])
        prelude += len(header_bytes).to_bytes(4, "little") + header_bytes
        self._pos = sink.tell() + len(prelude)
        sink.write(prelude)
        self._rows: list[tuple] = []

    def add_tile(self, start, stop, payload, config=None, temporal=False):
        from repro.compressor.integrity import checksum

        assert self._version == 6 or not temporal
        self._rows.append(
            (self._pos, payload, start, stop, config, temporal, checksum(payload))
        )
        self._fh.write(payload)
        self._pos += len(payload)

    def copy_tile(self, reader, record) -> None:
        """Re-file *record* of a legacy *reader*, payload as it is."""
        payload = reader.read_tile(record)
        self.add_tile(record.start, record.stop, payload, record.config, record.temporal)

    def finish(self) -> None:
        from repro.compressor.integrity import checksum

        body: dict = {
            "tiles": [
                {"offset": o, "size": len(p), "start": list(a), "stop": list(b)}
                for o, p, a, b, *_ in self._rows
            ]
        }
        palette: list = []
        entries = [
            None
            if config is None
            else [config.get(k) for k in ("predictor", "error_bound", "quant_radius")]
            for *_, config, _, _ in self._rows
        ]
        for entry in entries:
            if entry is not None and entry not in palette:
                palette.append(entry)
        if palette:
            body["configs"] = palette
            body["tile_configs"] = [
                None if e is None else palette.index(e) for e in entries
            ]
        if self._version == 6:
            body["tile_modes"] = [int(row[5]) for row in self._rows]
        if self._checksums:
            body["tile_crcs"] = [row[6] for row in self._rows]
            body["header_crc"] = self._header_crc
        toc = _compact_json(body)
        crc = checksum(toc).to_bytes(4, "little") if self._checksums else b""
        self._fh.write(toc + crc + len(toc).to_bytes(8, "little"))

    def __enter__(self) -> "LegacyTiledWriter":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is None:
            self.finish()


def _compact_json(obj) -> bytes:
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


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
    """An ``encode_alone`` output with its codes section in blocks.

    *params* and *sections* come back as the chunked writer made them
    for ``chunk_size=chunk``: the code stream in blocks of *chunk*
    symbols, each Huffman(+lossless) coded on its own.
    """
    from repro.compressor.encoders.huffman import HuffmanEncoder
    from repro.compressor.encoders.lossless import get_lossless_backend
    from repro.compressor.stages import HuffmanEntropyStage
    from repro.compressor.sz import SZCompressor

    config = SZCompressor._config_from_header(params)
    codes = HuffmanEntropyStage().decode_stack(
        [(sections[0], config, False)], [math.prod(params["shape"])]
    )[0]
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
    from tests.oracle import encode_alone

    params, sections, _, _ = encode_alone(data, config)
    params, sections = chunk_codes(params, sections, chunk)
    del params["chunked"]  # the version byte says it
    return forge_flat(params, sections, 3)


def forge_chunked_v7(data, config, chunk: int) -> bytes:
    """The v7 container of *data* under *config* whose tiles of more
    than *chunk* codes the chunked writer split into blocks, with
    ``chunked`` in their parameters."""
    from repro.compressor.sz import SZCompressor
    from repro.compressor.tiled import TiledCompressor

    class ChunkingCodec(SZCompressor):
        def encode_stack(self, tiles, config, reconstruct=False):
            out = []
            for data, (params, sections, recon, measures) in zip(
                tiles, super().encode_stack(tiles, config, reconstruct)
            ):
                if data.size > chunk:
                    params, sections = chunk_codes(params, sections, chunk)
                out.append((params, sections, recon, measures))
            return out

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
