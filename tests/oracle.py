"""One decode-verdict oracle: do all routes to an array give the same
array, or the same refusal?  (The detected-or-correct rule: a decode
gives the right bytes or a structured error, on every path.)

A route is a zero-argument callable; :func:`huffman_routes` and
:func:`tile_routes` name every route to a Huffman blob's symbols and to
a container region.  A route that raises anything but a ``ValueError``
(:class:`~repro.compressor.container.ContainerFormatError` is one)
fails the test: no other exception is a verdict.

The stacked coders are held to one parity check,
:func:`assert_stack_as_alone`: a stack gives each member what that
member gets alone.
"""

from __future__ import annotations

import dataclasses
import json
import re
import zlib
from typing import Callable, Iterable

import numpy as np

from repro.compressor import TemporalCompressor, TiledCompressor
from repro.compressor.bitstream import pack_codes
from repro.compressor.container import TiledReader
from repro.compressor.encoders.huffman import (
    _NO_SYNC,
    HuffmanCode,
    HuffmanEncoder,
    _canonical_codes,
    _Stream,
    huffman_code_lengths,
)
from repro.compressor.executor import BACKENDS
from repro.compressor.sz import SZCompressor
from repro.compressor.tiled import combine, decode_tiles
from repro.compressor.tiled_geometry import extent_slices, normalize_region

#: what a route may raise and still have reached a verdict
REFUSALS = (ValueError,)


def _outcome(route: Callable) -> tuple:
    """``(array, None)`` or ``(None, error)`` of one route."""
    try:
        return np.asarray(route()), None
    except REFUSALS as exc:
        return None, exc


def assert_same_verdict(
    routes: dict[str, Callable],
    *,
    messages: Iterable[str] = (),
    match: str | None = None,
):
    """Every route gives the same dtype, shape and bytes (``-0.0`` is not
    ``0.0``), or raises the same error type — and the same message, of
    the routes named in *messages*; with *match*, every route refuses
    with a message it matches.  Returns the array, or the first error.
    """
    if len(routes) < 2:
        raise AssertionError(f"a verdict needs two routes: {list(routes)}")
    outcomes = {name: _outcome(route) for name, route in routes.items()}
    (first, (array, error)), *others = outcomes.items()
    for name, (other, other_error) in others:
        if error is None and other_error is None:
            assert (other.dtype, other.shape) == (array.dtype, array.shape), (
                f"{name} gives {other.dtype} {other.shape}, "
                f"{first} {array.dtype} {array.shape}"
            )
            assert other.tobytes() == array.tobytes(), (
                f"{name} and {first} give different bytes"
            )
        else:
            assert type(other_error) is type(error), (
                f"{name}: {other_error!r}; {first}: {error!r}"
            )
    said = {n: str(outcomes[n][1]) for n in messages if n in outcomes}
    assert len(set(said.values())) <= 1, said
    if match is not None:
        for name, (_, refusal) in outcomes.items():
            assert refusal is not None, f"{name} returned, {match!r} expected"
            assert re.search(match, str(refusal)), f"{name}: {refusal!r}"
    return array if error is None else error


# -- Huffman streams ---------------------------------------------------------


def with_codes(code: HuffmanCode) -> HuffmanCode:
    """*code* completed with the canonical codewords the references
    index (a plan's code, and most parsed ones, carry lengths only)."""
    return HuffmanCode(
        code.symbols, code.lengths, _canonical_codes(code.lengths)
    )


def deserialize(enc: HuffmanEncoder, blob: bytes):
    """The one-blob header parse, its code :func:`with_codes`."""
    stream = enc._parse([blob])[0]
    return stream._replace(code=with_codes(stream.code))


def serialize(
    enc: HuffmanEncoder,
    code: HuffmanCode,
    n_data: int,
    payload: bytes,
    total_bits: int,
    interval: int = 0,
    sync: np.ndarray = _NO_SYNC,
) -> bytes:
    """One blob with any header a forger writes: a stack of one through
    the encoder's header writer."""
    stream = _Stream(code, n_data, payload, total_bits, interval, sync)
    return enc._serialize([stream])[0]


def payload_bits(enc: HuffmanEncoder, stream: np.ndarray) -> int:
    """The payload bits of *stream*'s plan, the header excluded as in
    the paper's bit-rate accounting (0 for an empty stream)."""
    plan = enc.plan(stream)
    return plan.total_bits if plan is not None else 0


def unlimited_code(stream: np.ndarray) -> tuple[HuffmanCode, np.ndarray]:
    """The Huffman code of *stream* with no length limit, codewords
    and all, and the stream's dense indices under it: the code of a v7
    file whose writer let rare symbols take more than 16 bits."""
    symbols, dense, counts = np.unique(
        stream, return_inverse=True, return_counts=True
    )
    code = HuffmanCode(symbols, huffman_code_lengths(counts))
    return with_codes(code), dense.ravel()


def unlimited_blob(enc: HuffmanEncoder, stream: np.ndarray) -> bytes:
    """*stream* under :func:`unlimited_code`, framed with the sync table
    the encoder picks for its size: what such a writer's ``encode``
    wrote."""
    code, dense = unlimited_code(stream)
    lengths = code.lengths[dense]
    interval, sync, total_bits = enc._sync_offsets(lengths)
    payload, packed_bits = pack_codes(code.codes[dense], lengths)
    assert packed_bits == total_bits
    return serialize(
        enc, code, dense.size, payload, total_bits, interval, sync
    )


def reference_primary_tables(
    code: HuffmanCode,
) -> tuple[np.ndarray, np.ndarray]:
    """The 16-bit decode tables filled one symbol at a time: every code
    of length <= 16 writes its dense index and length over the
    ``2**(16 - length)`` prefixes that start with it."""
    sym_table = np.zeros(1 << 16, dtype=np.int64)
    len_table = np.zeros(1 << 16, dtype=np.uint8)
    for dense in range(code.lengths.size):
        ln = int(code.lengths[dense])
        if ln == 0 or ln > 16:
            continue
        base = int(code.codes[dense]) << (16 - ln)
        span = 1 << (16 - ln)
        sym_table[base : base + span] = dense
        len_table[base : base + span] = ln
    return sym_table, len_table


def reference_long_code_index(code: HuffmanCode) -> dict:
    """``(length, codeword) -> dense index`` over the whole alphabet."""
    index = {}
    for dense in range(code.lengths.size):
        ln = int(code.lengths[dense])
        if ln > 16:
            index[(ln, int(code.codes[dense]))] = dense
    return index


def scalar_walk(
    code: HuffmanCode, n_data: int, payload: bytes, total_bits: int
) -> np.ndarray:
    """One Python iteration per symbol over the sliding 16-bit window,
    through tables built by the loops above."""
    from tests.compressor.test_bitstream import _reference_window16

    window = _reference_window16(payload, total_bits)
    sym_table, len_table = reference_primary_tables(code)
    long_codes = reference_long_code_index(code)
    out = np.empty(n_data, dtype=np.int64)
    pos = 0
    for i in range(n_data):
        if pos >= window.size:
            raise ValueError("Huffman payload truncated")
        prefix = int(window[pos])
        ln = int(len_table[prefix])
        if ln:
            out[i] = sym_table[prefix]
        else:
            value = prefix
            ln = 16
            while True:
                if ln == 57:
                    raise ValueError("no code matched")
                ln += 1
                nxt = pos + ln - 1
                bit = int(window[nxt]) >> 15 if nxt < window.size else 0
                value = (value << 1) | bit
                if (ln, value) in long_codes:
                    out[i] = long_codes[(ln, value)]
                    break
        pos += ln
    if pos > total_bits:
        raise ValueError("Huffman payload truncated")
    return out


def reference_decode(enc: HuffmanEncoder, blob: bytes) -> np.ndarray:
    """What a sync-free *blob* decodes to by the scalar walk."""
    code, n_data, payload, total_bits, interval, _ = deserialize(enc, blob)
    assert not interval or n_data <= interval, "a sync-table stream"
    if n_data == 0:
        return np.zeros(0, dtype=np.int64)
    if 8 * len(payload) < total_bits or n_data > total_bits:
        raise ValueError("corrupt Huffman container")
    return code.symbols[scalar_walk(code, n_data, payload, total_bits)]


def huffman_routes(
    enc: HuffmanEncoder, blob: bytes, intact=(), at: int = 0
) -> dict[str, Callable]:
    """Every route to the symbols of *blob*.

    ``decode`` — ``decode_stack`` of the blob alone, which is what
    ``decode`` calls — and, given *intact* ``(blob, symbols)`` pairs,
    ``decode_stack`` among them at index *at* (each intact blob must
    still give its own symbols); the cursor walk ``_decode_payload`` of
    a sync-free stream (``_decode_alone``, which holds it to its end, of
    a sync table's one block), or the stack walk seeded at the marks
    (where no code passes the primary table) and the batched rounds of
    sync blocks; and the scalar walk for a stream of one block and no
    marks, held to end on ``total_bits`` if a sync table names it (or
    whose header does not parse: the reference refuses it as ``decode``
    must).  The kernels run only on what ``decode`` hands them, a parsed
    header whose counts fit the payload; for any other the header's
    counts are the verdict.
    """
    routes = {"decode": lambda: enc.decode(blob)}
    if intact:
        blobs, streams = zip(*intact)

        def among():
            got = enc.decode_stack([*blobs[:at], blob, *blobs[at:]])
            mine = got.pop(at)
            for array, stream in zip(got, streams):
                np.testing.assert_array_equal(array, stream)
            return mine

        routes["decode_stack among intact"] = among
    try:
        parts = deserialize(enc, blob)
    except ValueError:
        routes["scalar walk"] = lambda: reference_decode(enc, blob)
        return routes
    code, n_data, payload, total_bits, interval, sync = parts

    def scalar():
        symbols = reference_decode(enc, blob)
        # a sync table holds its one block to end on total_bits
        ends = code.lengths[np.searchsorted(code.symbols, symbols)].sum()
        if interval and symbols.size and ends != total_bits:
            raise ValueError("the block does not end on total_bits")
        return symbols

    if not sync.size and (not interval or n_data <= interval):
        routes["scalar walk"] = scalar
    if not 0 < n_data <= total_bits <= 8 * len(payload):
        # decode() settles these before any kernel: no symbols is an
        # empty array (and a mark is a corrupt table), and counts the
        # payload cannot hold are refused
        def counts():
            if n_data or sync.size:
                raise ValueError("the counts do not fit the payload")
            return np.zeros(0, dtype=np.int64)

        routes["header counts"] = counts
        return routes
    if not interval:
        routes["_decode_payload"] = lambda: code.symbols[
            enc._decode_payload(*parts[:4])
        ]
        return routes

    if n_data <= interval:  # one block: the cursor walk, held to its end
        routes["_decode_alone"] = lambda: code.symbols[
            enc._decode_alone(parts)
        ]
        return routes

    def stack_walk():
        dense = enc._walk_stack([parts])[0]
        if dense is None:
            raise ValueError("the stack walk refuses it")
        return code.symbols[dense]

    if code.lengths.max() <= 16:  # else the walk escapes, and refuses
        routes["stack walk"] = stack_walk
    routes["_decode_payload_batched"] = lambda: code.symbols[
        enc._decode_payload_batched(*parts)
    ]
    return routes


#: the routes whose refusals must say the same thing: one code path
#: behind ``decode``, whatever stack a blob arrives in
DECODE_MESSAGES = ("decode", "decode_stack among intact")


# -- tiled containers --------------------------------------------------------


def _touched(reader: TiledReader, region) -> list:
    """The records of the tiles *region* meets."""
    return [
        record
        for record in reader.tiles
        if all(
            a < r.stop and r.start < b
            for a, b, r in zip(record.start, record.stop, region)
        )
    ]


def encode_alone(data, config, reconstruct=False, codec=None) -> tuple:
    """``(header, sections, reconstruction, measures)`` of *data* encoded
    alone: ``SZCompressor.encode_stack`` of a stack of one."""
    codec = codec if codec is not None else SZCompressor()
    return codec.encode_stack([data], config, reconstruct)[0]


def decode_alone(payload, shape, dtype, codec=None, *, params) -> np.ndarray:
    """The tile a record of *shape*, *dtype* and *params* names, from
    *payload* decoded alone: ``decode_tiles`` of a stack of one."""
    return decode_tiles([payload], [shape], dtype, codec, params=[params])[0]


def assert_stack_as_alone(
    stack: Callable, members: Iterable, alone: Callable | None = None
) -> list:
    """``stack(members)`` gives each member what it gets alone — from
    *alone*, by default ``stack([member])[0]``, called after the stack —
    to the type, length, dtype, shape and byte.  Returns the stack's."""
    members = list(members)
    stacked = list(stack(members))
    alone = alone or (lambda member: stack([member])[0])
    assert _exact(stacked) == _exact([alone(m) for m in members])
    return stacked


def _exact(value):
    """*value* as plain data: an array as its dtype, shape and bytes
    (``-0.0`` is not ``0.0``), a tuple, list or dataclass item by item."""
    if isinstance(value, np.ndarray):
        return np.ndarray, value.dtype, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value), [_exact(getattr(value, f.name)) for f in fields]
    if isinstance(value, (tuple, list)):
        return type(value), [_exact(item) for item in value]
    return value


def _by_tile(blob, region, reference, stacked) -> np.ndarray:
    """*region* of *blob* from the tiles it meets, decoded alone one at
    a time (:func:`decode_alone`) or by one ``decode_tiles`` stack."""
    with TiledReader(blob) as reader:
        shape = tuple(reader.header["shape"])
        dtype = np.dtype(reader.header["dtype"])
        temporal = any(record.temporal for record in reader.tiles)
        if temporal and reference.shape != shape:  # before any tile read
            raise ValueError(f"reference shape {reference.shape} != {shape}")
        records = _touched(reader, region)
        payloads = [reader.read_tile(record) for record in records]
    shapes = [record.shape for record in records]
    params = [record.params for record in records]
    if stacked:
        tiles = decode_tiles(payloads, shapes, dtype, params=params)
    else:
        tiles = [
            decode_alone(payload, shape, dtype, params=p)
            for payload, shape, p in zip(payloads, shapes, params)
        ]
    out = np.zeros(shape, dtype=dtype)
    for record, tile in zip(records, tiles):
        extent = extent_slices(record.start, record.stop)
        # a temporal tile decodes to its residual
        if record.temporal:
            tile = combine(tile, reference[extent])
        out[extent] = tile
    return out[region]


def _store_read(blob, region, root, backend) -> np.ndarray:
    """*region* of *blob* adopted as a store dataset, read twice: a
    refused tile is never served from the cache, nor kept in it."""
    from repro.service.store import ArrayStore, DatasetCorruptError
    from tests.conftest import adopt_container

    adopt_container(root, "field", blob)
    with ArrayStore(root, workers=2, parallel_backend=backend) as store:

        def read():
            try:
                return store.read_region("field", region).data
            except DatasetCorruptError as exc:
                assert exc.__cause__ is not None, exc
                raise exc.__cause__

        verdict = assert_same_verdict(
            {"read": read, "again": read}, messages=("read", "again")
        )
        if isinstance(verdict, BaseException):
            with TiledReader(blob) as reader:
                touched = len(_touched(reader, region))
            assert store.cache.stats().entries < touched
            raise verdict
        return verdict


def _h5_read(blob, region, path) -> np.ndarray:
    """*region* of *blob* filed as the one dataset of an RQH5 file."""
    from repro.storage.hdf5sim import H5LikeFile

    with TiledReader(blob) as reader:
        header = reader.header
    entry = {
        "offset": 5,
        "compressed_bytes": len(blob),
        "shape": header["shape"],
        "dtype": header["dtype"],
        "chunk_shape": header.get("tile_shape", header["shape"]),
        "filter": {},
        "attrs": {},
    }
    toc = json.dumps({"datasets": {"field": entry}}).encode()
    with open(path, "wb") as fh:
        fh.write(b"RQH5\x02" + blob + toc)
        fh.write(zlib.crc32(toc).to_bytes(4, "little"))
        fh.write(len(toc).to_bytes(8, "little"))
    with H5LikeFile(str(path)) as fh:
        return fh.read_region("field", region)


def tile_routes(
    blob: bytes,
    region=(),
    reference: np.ndarray | None = None,
    tmp=None,
    backends: Iterable[str] = BACKENDS,
    names: Iterable[str] | None = None,
) -> dict[str, Callable]:
    """The routes to *region* of the container *blob*, or of them those
    *names* (a backend's are ``{name}/{backend}``).

    Of more than one tile, ``decode_alone`` per tile and one
    ``decode_tiles`` stack over the tiles the region meets; then on
    each of *backends* (two workers) ``TiledCompressor.decompress``
    (cropped) and, for less than the whole array, ``decompress_region``,
    and ``TemporalCompressor.decompress`` (``temporal``: temporal tiles
    take their tile of *reference*) — and, given a *tmp* directory and
    no temporal tile, ``ArrayStore.read_region`` on each backend
    (``store``) and ``H5LikeFile.read_region`` (``h5``).
    """
    try:
        with TiledReader(blob) as reader:
            shape = tuple(reader.header["shape"])
            temporal = any(record.temporal for record in reader.tiles)
            several = len(reader.tiles) > 1
        region = normalize_region(region, shape)
        whole = region == normalize_region((), shape)
    except REFUSALS:  # so does every route, as it opens the container
        temporal = whole = False
        several = True
    assert reference is not None or not temporal, "temporal tiles need it"
    routes = {}
    if several:  # else every reader decodes the one tile alone
        routes["decode_alone"] = lambda: _by_tile(
            blob, region, reference, False
        )
        routes["decode_tiles"] = lambda: _by_tile(
            blob, region, reference, True
        )
    for backend in backends:
        tiled = TiledCompressor(workers=2, backend=backend)
        routes[f"decompress/{backend}"] = lambda t=tiled: t.decompress(
            blob, reference=reference
        )[region]
        if not whole:  # else the very call decompress makes
            routes[f"decompress_region/{backend}"] = (
                lambda t=tiled: t.decompress_region(
                    blob, region, reference=reference
                )
            )
        front = TemporalCompressor(workers=2, backend=backend)
        routes[f"temporal/{backend}"] = lambda t=front: t.decompress(
            blob, reference=reference
        )[region]
        if tmp is not None and not temporal:
            routes[f"store/{backend}"] = lambda b=backend: _store_read(
                blob, region, tmp / f"store-{b}", b
            )
    if tmp is not None and not temporal:
        routes["h5"] = lambda: _h5_read(blob, region, tmp / "field.rqh5")
    if names is None:
        return routes
    return {k: v for k, v in routes.items() if k.split("/")[0] in names}
