"""Container v7: the same stage bytes in a smaller frame.

A v7 tile stores its stage sections and whatever of its codec
parameters cannot be resolved from header, TOC and palette — so these
tests hold the frame to four things: the sections and the resolved
parameters are exactly what the flat codec produces for the tile
(stage-byte identity, against legacy frames built from the flat blobs);
what is left around them is small and counted, not timed (the byte
budget); nothing a reader is told is believed unchecked (the TOC
validation, for every version); and no mutation of header, TOC or tile
prelude gets past the reader as anything but correct bytes or a
structured error (the fuzz).
"""

import functools
import io
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.compressor import (
    CompressionConfig,
    ErrorBoundMode,
    SZCompressor,
    TemporalCompressor,
    TiledCompressor,
)
from repro.compressor.encoders.lz77 import write_varint
from repro.compressor.container import (
    TILE_KEYS,
    ContainerFormatError,
    TileCorruptError,
    TiledReader,
    TiledWriter,
    pack_tile,
    read_flat,
    unpack_tile,
)
from repro.compressor.inspect import describe_container
from repro.compressor.tiled_geometry import iter_tiles
from tests.conftest import (
    replace_tile,
    rewrite_container as rewrite,
    smooth_field,
    without_checksums,
)
from tests.proptest import draw_case


# -- the tile payload -----------------------------------------------------------


class TestTilePayload:
    SECTIONS = [b"codes" * 40, b"", b"\x01" * 16, b"side", b""]

    def test_round_trip_and_framing_cost(self):
        bare = pack_tile({}, self.SECTIONS)
        assert unpack_tile(bare) == ({}, self.SECTIONS)
        # meta_len + five lengths, one of them two bytes long
        assert len(bare) - sum(map(len, self.SECTIONS)) == 7
        meta = {"constant": 2.5, "predictor_meta": {"order": 2}}
        assert unpack_tile(pack_tile(meta, self.SECTIONS)) == (
            meta,
            self.SECTIONS,
        )

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: b"",  # nothing to read a length from
            lambda p: p[:-1],  # sections overrun the payload
            lambda p: p + b"\x00",  # ... or leave a byte over
            lambda p: b"\xff" * 12 + p,  # a length of more than 64 bits
            lambda p: b"\xfa\x07" + p[1:],  # meta_len 1018 > payload
            lambda p: p[:1] + b"\x85" + p[2:],  # one section length off
        ],
    )
    def test_lengths_must_tile_the_payload(self, damage):
        with pytest.raises(ContainerFormatError, match="corrupt tile"):
            unpack_tile(damage(pack_tile({}, self.SECTIONS)))

    @pytest.mark.parametrize(
        "meta",
        [
            b'{"shape":[1]}',
            b"[1]",
            b'{"abs_eb":',
            b"\xff\xfe",
            # known keys, values of a type no encoder writes there
            b'{"abs_eb":"1"}',
            b'{"quant_radius":2.5}',
            b'{"predictor_meta":[1]}',
            b'{"predictor_meta":{"levels":{}}}',
            b'{"predictor_meta":{"anchor_shape":[1,true]}}',
            b'{"transform":{"fill":"x"}}',
            b'{"chunked":1}',
        ],
    )
    def test_meta_names_tile_keys_only_each_of_its_type(self, meta):
        payload = bytes([len(meta)]) + meta + bytes(5)
        with pytest.raises(ContainerFormatError, match="corrupt tile"):
            unpack_tile(payload)
        assert "shape" not in TILE_KEYS and "dtype" not in TILE_KEYS

    def test_a_meta_nested_past_the_parsers_stack_is_refused(self):
        meta = b'{"transform":' + b"[" * 100_000
        payload = bytearray()
        write_varint(payload, len(meta))
        with pytest.raises(ContainerFormatError, match="corrupt tile"):
            unpack_tile(bytes(payload) + meta + bytes(5))


# -- the TOC is checked, with or without checksums ------------------------------


def forged(version: int, checksums: bool = False) -> bytes:
    """A three-tile frame of *version* with a two-entry palette."""
    header = {"shape": [6, 4], "tile_shape": [2, 4], "dtype": "<f8"}
    if version == 7:
        header["temporal"] = True
    configs = [
        {"predictor": "lorenzo", "error_bound": 0.5, "quant_radius": 256},
        {"predictor": "interpolation", "error_bound": 2.0, "quant_radius": 64},
    ]
    sink = io.BytesIO()
    with TiledWriter(sink, header, version=version, checksums=checksums) as w:
        for index, (start, stop) in enumerate(iter_tiles((6, 4), (2, 4))):
            w.add_tile(
                start,
                stop,
                pack_tile({}, [bytes([65 + index]) * 9, b"", b"", b"", b""]),
                config=configs[index % 2] if version != 4 else None,
                temporal=version >= 6 and index == 1,
            )
    return sink.getvalue()


def set_key(key, value):
    def mutate(toc):
        toc[key] = value

    return mutate


def set_tile(field, value):
    def mutate(toc):
        toc["tiles"][1][field] = value

    return mutate


@pytest.mark.parametrize("checksums", [False, True], ids=["nocrc", "crc"])
class TestTocIsValidatedAtOpen:
    @pytest.mark.parametrize("version", [5, 6, 7])
    @pytest.mark.parametrize(
        "indices", [[-1, -2, -1], [0, 2, 0], [0, 1.0, 0], [0, "1", 0], [0, True, 0]]
    )
    def test_palette_indices_are_ints_in_range(self, version, indices, checksums):
        blob = forged(version, checksums)
        with TiledReader(blob) as reader:  # the frame itself is fine
            assert [t.config["quant_radius"] for t in reader.tiles] == [
                256, 64, 256,
            ]
        bad = rewrite(blob, toc=set_key("tile_configs", indices))
        with pytest.raises(ContainerFormatError, match="corrupt tile TOC"):
            TiledReader(bad)

    @pytest.mark.parametrize("version", [6, 7])
    @pytest.mark.parametrize("modes", [[0, 2, 0], [0, -1, 0], [0, "1", 0], [0, None, 0]])
    def test_tile_modes_are_bits(self, version, modes, checksums):
        blob = forged(version, checksums)
        assert [t.temporal for t in TiledReader(blob).tiles] == [
            False, True, False,
        ]
        with pytest.raises(ContainerFormatError, match="corrupt tile TOC"):
            TiledReader(rewrite(blob, toc=set_key("tile_modes", modes)))

    @pytest.mark.parametrize("version", [4, 5, 6])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("offset", -3),  # was: a bare ValueError("negative seek value")
            ("offset", 0),  # was: the container's own magic as a payload
            ("offset", 10**9),
            ("size", -1),
            ("size", 10**9),
        ],
    )
    def test_legacy_extents_lie_in_the_payload_region(
        self, version, field, value, checksums
    ):
        blob = forged(version, checksums)
        with pytest.raises(ContainerFormatError, match="corrupt tile TOC"):
            TiledReader(rewrite(blob, toc=set_tile(field, value)))

    def test_a_legacy_tile_may_not_reach_into_the_toc(self, checksums):
        blob = forged(5, checksums)
        last = TiledReader(blob).tiles[-1]

        def grow(toc):
            toc["tiles"][-1]["size"] = last.size + 1

        with pytest.raises(ContainerFormatError, match="payload region"):
            TiledReader(rewrite(blob, toc=grow))

    @pytest.mark.parametrize(
        "sizes",
        [[15, 15], [15, 15, 15, 0], [15, 15, 14], [15, 16, 15], [15, -1, 31],
         [15, 15.0, 15], "15,15,15", None],
    )
    def test_v7_sizes_tile_the_payload_region_exactly(self, sizes, checksums):
        blob = forged(7, checksums)
        reader = TiledReader(blob)
        header_end = 9 + int.from_bytes(blob[5:9], "little")
        assert [t.size for t in reader.tiles] == [15, 15, 15]
        assert [t.offset for t in reader.tiles] == [
            header_end, header_end + 15, header_end + 30,
        ]
        with pytest.raises(ContainerFormatError, match="corrupt tile TOC"):
            TiledReader(rewrite(blob, toc=set_key("sizes", sizes)))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("shape", [6, 5]),  # another grid
            ("shape", [6]),
            ("shape", [-6, -4]),
            ("shape", [6, "4"]),
            ("tile_shape", [0, 4]),
            ("tile_shape", [2, 4, 1]),
            ("tile_shape", None),
            ("shape", [6 * 10**15, 4 * 10**15]),  # no 10^30-tile loop
        ],
    )
    def test_v7_grid_must_hold_exactly_the_tiles_there_are(
        self, key, value, checksums
    ):
        blob = forged(7, checksums)

        def mutate(header):
            header[key] = value

        with pytest.raises(ContainerFormatError, match="corrupt tile TOC"):
            TiledReader(rewrite(blob, header=mutate))


def test_v7_writer_takes_tiles_in_grid_order_only():
    header = {"shape": [4, 4], "tile_shape": [2, 4], "dtype": "<f8"}
    writer = TiledWriter(io.BytesIO(), header)
    with pytest.raises(ValueError, match="not the next of the grid"):
        writer.add_tile((2, 0), (4, 4), b"late")
    legacy = TiledWriter(io.BytesIO(), header, version=4)
    legacy.add_tile((2, 0), (4, 4), b"any order: the TOC stores extents")


def test_v7_writer_refuses_to_finish_a_grid_it_has_not_filled():
    """Extents are derived from tile order, so a TOC of fewer sizes than
    the grid has tiles is a container no reader opens: not written."""
    header = {"shape": [4, 4], "tile_shape": [2, 4], "dtype": "<f8"}
    sink = io.BytesIO()
    with pytest.raises(ValueError, match="1 tiles do not fill the grid"):
        with TiledWriter(sink, header) as writer:
            writer.add_tile((0, 0), (2, 4), pack_tile({}, [b""] * 5))
    written = sink.getvalue()
    assert writer.add_tile((2, 0), (4, 4), pack_tile({}, [b""] * 5))
    writer.finish()
    assert sink.getvalue().startswith(written)
    assert len(TiledReader(sink.getvalue()).tiles) == 2
    # a legacy TOC stores its extents: any subset of a grid is a frame
    with TiledWriter(io.BytesIO(), header, version=4) as legacy:
        legacy.add_tile((0, 0), (2, 4), b"one of two")


# -- what a tile shares with its kind -------------------------------------------


def _toc(blob: bytes) -> dict:
    seen = {}
    rewrite(blob, toc=seen.update)
    return seen


def test_shared_records_are_keyed_by_what_the_toc_says_of_a_tile():
    """One record per palette (or header) predictor and one for temporal
    residuals — whose predictor is Lorenzo whatever the stream's — so in
    a grid of full tiles no tile has a meta, whichever kind came first."""
    rng = np.random.default_rng(5)
    first = np.cumsum(rng.standard_normal((48, 48)), axis=0)
    second = first + 0.01 * rng.standard_normal(first.shape)
    second[:16, :16] = 40 * rng.standard_normal((16, 16))  # one spatial tile
    second[32:, 32:] = 40 * rng.standard_normal((16, 16))
    config = CompressionConfig(
        error_bound=0.01, tile_shape=(16, 16), predictor="interpolation"
    )
    temporal = TemporalCompressor()
    for reference, data in [(first, second), (second, first)]:
        delta = temporal.compress_snapshot(data, config, reference=reference)
        with TiledReader(delta.blob) as reader:
            modes = {t.temporal for t in reader.tiles}
            metas = [unpack_tile(reader.read_tile(t))[0] for t in reader.tiles]
            predictors = {
                t.temporal: t.params["predictor"] for t in reader.tiles
            }
        assert modes == {False, True}
        assert metas == [{}] * 9
        assert predictors == {False: "interpolation", True: "lorenzo"}
        shared = _toc(delta.blob)["shared"]
        assert set(shared) == {"interpolation", "temporal"}
        assert shared["temporal"]["predictor_meta"] == {"order": 1}
        assert "predictor" not in shared["interpolation"]


@pytest.mark.parametrize("kind", ["uniform", "adaptive", "temporal"])
def test_copy_tile_refiles_what_a_raw_payload_would_lose(kind):
    """A v7 payload leans on its container's ``shared`` records: filed
    raw into another container it is refused, not decoded under other
    parameters; ``copy_tile`` resolves it again."""
    blob, expected = _fuzz_blob(kind, checksums=True)

    def refiled(file_tile) -> bytes:
        sink = io.BytesIO()
        with TiledReader(blob) as reader:
            header = dict(reader.header)
            del header["checksums"], header["container_version"]
            with TiledWriter(sink, header) as writer:
                for record in reader.tiles:
                    file_tile(writer, reader, record)
        return sink.getvalue()

    copied = refiled(TiledWriter.copy_tile)
    assert copied == blob
    raw = refiled(
        lambda writer, reader, t: writer.add_tile(
            t.start, t.stop, reader.read_tile(t), t.config, t.temporal
        )
    )
    assert _toc(raw)["shared"] == {} != _toc(blob)["shared"]
    with pytest.raises(ContainerFormatError, match="recorded parameters"):
        TiledCompressor().decompress(raw, reference=FUZZ_REF)


def test_copy_tile_files_a_legacy_payload_as_it_is():
    data = smooth_field((24, 24))
    config = CompressionConfig(error_bound=1e-3)
    sinks = [io.BytesIO(), io.BytesIO()]
    header = {"shape": [24, 24], "tile_shape": [12, 24], "dtype": data.dtype.str}
    with TiledWriter(sinks[0], header, version=4) as writer:
        for start, stop in iter_tiles((24, 24), (12, 24)):
            tile = data[start[0] : stop[0]]
            writer.add_tile(start, stop, SZCompressor().compress(tile, config).blob)
    with TiledReader(sinks[0].getvalue()) as reader:
        with TiledWriter(sinks[1], header, version=4) as writer:
            for record in reversed(reader.tiles):
                writer.copy_tile(reader, record)
    np.testing.assert_array_equal(
        TiledCompressor().decompress(sinks[1].getvalue()),
        TiledCompressor().decompress(sinks[0].getvalue()),
    )


# -- stage-byte identity --------------------------------------------------------


class Recording(SZCompressor):
    """The stock codec, remembering the flat blob of every tile it saw."""

    def __init__(self):
        super().__init__()
        self.seen = []
        self.flat = SZCompressor()

    def encode_stages(self, data, config, reconstruct=False, times=None):
        out = super().encode_stages(data, config, reconstruct, times)
        self.seen.append((out[1], self.flat.compress(data, config).blob))
        return out


def _tiled_case(seed: int, kind: str):
    """Proptest case *seed* bent into a *kind* container, or ``None``."""
    case = draw_case(seed)
    data, config = case.data, case.config
    if data.ndim == 0 or data.size == 0:
        return None
    ranged = float(data.max() - data.min()) > 0
    if kind != "uniform" and (
        config.mode is ErrorBoundMode.PW_REL or not ranged
    ):
        return None
    tile_shape = config.tile_shape or tuple(max(1, n // 2) for n in data.shape)
    return data, replace(
        config,
        tile_shape=tile_shape,
        adaptive=kind == "adaptive",
        temporal=False,
        fit_clusters=None,
        plan_cache=None,
    )


@pytest.mark.parametrize("kind", ["uniform", "adaptive", "temporal"])
@pytest.mark.parametrize("seed", range(24))
def test_v7_tiles_are_the_flat_codecs_stage_bytes(seed, kind):
    case = _tiled_case(seed, kind)
    if case is None:
        pytest.skip("the case has no such container")
    data, config = case
    codec = Recording()
    reference = None
    if kind == "temporal":
        front = TemporalCompressor(codec=codec)
        keyframe = front.compress_snapshot(data, config)
        reference = front.decompress(keyframe.blob)
        drift = np.roll(data, 1, axis=-1).astype(data.dtype)
        data = (0.9 * data + 0.1 * drift).astype(data.dtype)
        codec.seen.clear()
        result = front.compress_snapshot(
            data, config, reference=reference, ref_id="v0", snapshot_index=1
        )
    else:
        result = TiledCompressor(codec=codec).compress(data, config)
    blob = result.blob
    assert blob[4] == 7
    decoded = TiledCompressor().decompress(blob, reference=reference)

    legacy = io.BytesIO()
    with TiledReader(blob) as reader:
        header = {
            k: v
            for k, v in reader.header.items()
            if k not in ("checksums", "container_version")
        }
        version = 6 if reader.temporal else 5 if result.plan else 4
        with TiledWriter(legacy, header, version=version) as writer:
            for record in reader.tiles:
                meta, sections = unpack_tile(reader.read_tile(record))
                resolved = {**record.params, **meta}
                flat = [
                    flat_blob
                    for seen, flat_blob in codec.seen
                    if seen == sections
                    and _tile_fields(read_flat(flat_blob)[0]) == resolved
                ]
                assert flat, (record.start, resolved)
                # the five sections, byte for byte
                assert read_flat(flat[0])[1] == sections
                writer.add_tile(
                    record.start,
                    record.stop,
                    flat[0],
                    config=record.config,
                    temporal=record.temporal,
                )
    # ... and the same values out of either frame
    unwrapped = TiledCompressor().decompress(
        legacy.getvalue(), reference=reference
    )
    assert unwrapped.dtype == decoded.dtype
    assert unwrapped.tobytes() == decoded.tobytes()
    if result.reconstruction is not None:
        assert decoded.tobytes() == result.reconstruction.tobytes()


def _tile_fields(flat_header: dict) -> dict:
    """A flat header as the parameters a v7 tile resolves to."""
    fields = {k: v for k, v in flat_header.items() if k in TILE_KEYS}
    if flat_header["container_version"] == 3:
        fields["chunked"] = True
    return fields


# -- the byte budget ------------------------------------------------------------


def halo_like(shape=(192, 192), seed=3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    field = smooth_field(shape, seed=seed, noise=0.0).astype(np.float64)
    for _ in range(40):
        x, y = rng.integers(0, shape[0]), rng.integers(0, shape[1])
        field[max(0, x - 3) : x + 3, max(0, y - 3) : y + 3] += rng.normal(0, 2)
    return field.astype(np.float32)


@pytest.mark.parametrize("adaptive", [False, True], ids=["uniform", "adaptive"])
def test_framing_of_a_6_by_6_grid_fits_its_budget(adaptive):
    """Counted, not timed: everything that is not a stage byte."""
    field = halo_like()
    config = CompressionConfig(
        error_bound=0.05, tile_shape=(32, 32), adaptive=adaptive
    )
    result = TiledCompressor().compress(field, config)
    assert result.n_tiles == 36
    with TiledReader(result.blob) as reader:
        stage = sum(
            len(section)
            for record in reader.tiles
            for section in reader.read_sections(record)
        )
        # every full tile of the first tile's parameters: framing only
        bare = [
            record.size - sum(map(len, reader.read_sections(record)))
            for record in reader.tiles
        ]
    framing = result.compressed_bytes - stage
    if not adaptive:
        assert framing <= 400 + 32 * result.n_tiles
        assert max(bare) <= 8
    else:
        # + the plan's records: header fields, palette, index per tile
        entries = len({json.dumps(t.config) for t in result.tiles})
        assert framing <= 400 + 32 * result.n_tiles + 300 + 40 * entries
    tile_map = describe_container(result.blob, verify=True)["tile_map"]
    assert tile_map["stage_bytes"] == stage
    assert tile_map["framing_bytes"] == framing


# -- inspect ---------------------------------------------------------------------


def test_inspect_splits_legacy_frames_the_same_way():
    """``verify=True`` reports the wrappers v7 removed, per version."""
    data = smooth_field((32, 32)).astype(np.float64)
    config = CompressionConfig(error_bound=1e-3)
    tiles = [
        (start, stop, SZCompressor().compress(data[start[0] : stop[0]], config))
        for start, stop in iter_tiles((32, 32), (8, 32))
    ]
    sizes = {}
    for version in (4, 6, 7):
        sink = io.BytesIO()
        header = {"shape": [32, 32], "tile_shape": [8, 32], "dtype": "<f8"}
        if version == 7:
            header["temporal"] = True
        with TiledWriter(sink, header, version=version) as writer:
            for index, (start, stop, flat) in enumerate(tiles):
                if version == 7:
                    params, sections = read_flat(flat.blob)
                    writer.add_stages(
                        start, stop, params, sections, temporal=index == 2
                    )
                else:
                    writer.add_tile(
                        start,
                        stop,
                        flat.blob,
                        temporal=version == 6 and index == 2,
                    )
        info = describe_container(sink.getvalue(), verify=True)
        tile_map = info["tile_map"]
        assert tile_map["stage_bytes"] == sum(
            len(s) for *_, flat in tiles for s in read_flat(flat.blob)[1]
        )
        assert tile_map["stage_bytes"] + tile_map["framing_bytes"] == len(
            sink.getvalue()
        )
        assert "stage_bytes" not in describe_container(sink.getvalue())["tile_map"]
        # the roll-up follows the TOC's tile_modes, not a version number
        assert ("temporal" in tile_map) == (version != 4)
        if version != 4:
            assert tile_map["temporal"] == {
                "temporal_tiles": 1,
                "spatial_tiles": 3,
            }
            assert [t["temporal"] for t in tile_map["tiles"]] == [
                False, False, True, False,
            ]
        assert [(t["start"], t["stop"]) for t in tile_map["tiles"]] == [
            (list(start), list(stop)) for start, stop, _ in tiles
        ]
        assert tile_map["tiles"][0]["offset"] < tile_map["tiles"][1]["offset"]
        sizes[version] = tile_map["framing_bytes"]
    assert sizes[7] < sizes[4] / 2 and sizes[7] < sizes[6] / 2


# -- mutation fuzz ---------------------------------------------------------------

FUZZ_FIELD = smooth_field((24, 20)).astype(np.float64)
FUZZ_REF = FUZZ_FIELD + 0.01
#: values a mutation puts in place of a JSON value it finds
JUNK = [None, -1, 0, 1, 2**62, 1.5, "x", "", [], [0], {}, {"a": 1}, True]


@functools.lru_cache(maxsize=None)
def _fuzz_blob(kind: str, checksums: bool) -> tuple[bytes, np.ndarray]:
    if kind == "temporal":
        front = TemporalCompressor()
        config = CompressionConfig(error_bound=1e-2, tile_shape=(8, 8))
        blob = front.compress_snapshot(
            FUZZ_FIELD, config, reference=FUZZ_REF, ref_id="r"
        ).blob
    else:
        config = CompressionConfig(
            error_bound=1e-2,
            tile_shape=(8, 8),
            adaptive=kind == "adaptive",
            predictor="interpolation" if kind == "uniform" else "lorenzo",
        )
        blob = TiledCompressor().compress(FUZZ_FIELD, config).blob
    expected = TiledCompressor().decompress(blob, reference=FUZZ_REF)
    if not checksums:
        blob = without_checksums(blob)
        assert (
            TiledCompressor().decompress(blob, reference=FUZZ_REF).tobytes()
            == expected.tobytes()
        )
    return blob, expected


def _paths(node, prefix=()):
    """Every path to a value inside a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node[:4]):
            yield prefix + (index,)
            yield from _paths(value, prefix + (index,))


def _mutate_json(doc, rng):
    """Replace, drop, or duplicate one value somewhere in *doc*."""
    paths = list(_paths(doc))
    path = paths[int(rng.integers(len(paths)))]
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    action = int(rng.integers(4))
    if action == 0:
        del parent[path[-1]]
    elif action == 1 and isinstance(parent, list):
        parent.append(parent[path[-1]])
    elif action == 2 and isinstance(parent[path[-1]], int):
        parent[path[-1]] += int(rng.choice([-1, 1]))
    else:
        parent[path[-1]] = JUNK[int(rng.integers(len(JUNK)))]


def _mutate_prelude(blob: bytes, rng, resum: bool) -> bytes:
    """Damage the prelude of one tile: meta_len, meta, section lengths."""
    with TiledReader(blob) as reader:
        index = int(rng.integers(len(reader.tiles)))
        record = reader.tiles[index]
        payload = reader.read_tile(record)
    meta, sections = unpack_tile(payload)
    action = int(rng.integers(4))
    if action == 0:  # a meta of junk under valid or invalid keys
        keys = sorted(TILE_KEYS) + ["shape", "dtype", "bogus"]
        meta = dict(meta)
        meta[keys[int(rng.integers(len(keys)))]] = JUNK[
            int(rng.integers(len(JUNK)))
        ]
        new = pack_tile(meta, sections)
    elif action == 1:  # move a boundary between two sections
        sizes = [len(s) for s in sections]
        sizes[0] -= 1
        sizes[int(rng.integers(1, 5))] += 1
        joined = b"".join(sections)
        bounds = np.cumsum([0] + sizes)
        new = pack_tile(
            meta, [joined[a:b] for a, b in zip(bounds, bounds[1:])]
        )
    else:  # overwrite one prelude byte (a varint, or meta JSON)
        prelude = len(payload) - sum(map(len, sections))
        at = int(rng.integers(prelude))
        new = payload[:at] + bytes([int(rng.integers(256))]) + payload[at + 1 :]

    return replace_tile(blob, index, new, resum)


@pytest.mark.parametrize(
    "model",
    ["corruption", "forgery", "nocrc"],
)
@pytest.mark.parametrize("kind", ["uniform", "adaptive", "temporal"])
@pytest.mark.parametrize("surface", ["header", "toc", "prelude"])
def test_v7_mutants_are_detected_or_correct(surface, kind, model):
    """Seeded, structure-aware: one value of the header or TOC JSON, or
    one tile's prelude, replaced, dropped, nudged or duplicated.

    *corruption* leaves the checksums as written: every mutant must be
    refused or decode to the right bytes.  *forgery* recomputes them and
    *nocrc* has none: a value swapped for another valid one (a bound, a
    mode bit, a palette index in range) is then beyond detection, but
    what comes out is the right shape and dtype or a structured error —
    never another exception, an attacker-sized allocation or a hang.
    """
    blob, expected = _fuzz_blob(kind, checksums=model != "nocrc")
    resum = model != "corruption"
    rng = np.random.default_rng([ord(surface[0]), len(kind), len(model)])
    outcomes = {"correct": 0, "refused": 0, "differs": 0}
    for _ in range(60):
        if surface == "prelude":
            mutant = _mutate_prelude(blob, rng, resum)
        else:
            def mutate(doc):
                _mutate_json(doc, rng)

            mutant = rewrite(blob, resum=resum, **{surface: mutate})
        started = time.perf_counter()
        try:
            decoded = TiledCompressor().decompress(mutant, reference=FUZZ_REF)
        except (ContainerFormatError, TileCorruptError):
            outcomes["refused"] += 1
            continue
        except ValueError as exc:
            # a forged shape: the caller's reference is the wrong one
            if "reference shape" not in str(exc):
                raise
            outcomes["refused"] += 1
            continue
        finally:
            assert time.perf_counter() - started < 5.0
        # any other exception fails the test by escaping
        assert decoded.shape == expected.shape
        assert decoded.dtype == expected.dtype
        same = decoded.tobytes() == expected.tobytes()
        outcomes["correct" if same else "differs"] += 1
    assert outcomes["refused"] > 10, outcomes
    if model == "corruption":
        assert outcomes["differs"] == 0, outcomes
