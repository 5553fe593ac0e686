"""The lossless stage codes a stack: each payload gets the bytes it gets alone.

``LosslessBackend.compress_stack`` tokenises a stack of payloads (LZ77:
one candidate scan over them laid end to end), counts the token streams
with one offset ``bincount``, plans each payload alone and packs the
payloads that beat their raw escape as one Huffman stack.  Every member
must be bit for bit what ``compress`` (the one-payload stack) returns
for it, and every member of ``Lz77Codec.encode_stack`` what the scalar
reference parse of ``test_lz77.py`` gives it alone.

``LosslessBackend.decompress_stack`` decodes every coded payload's
tokens in one Huffman stack: each member must be what ``decompress``
gives it alone, the error the first bad payload's own, and no payload
may unwrap past the Huffman blob its tile's codes can fill.
"""

import glob
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor import CompressionConfig, TiledCompressor, tiled
from repro.compressor.container import TiledReader, unpack_tile
from repro.compressor.encoders.huffman import HuffmanEncoder, blob_bytes_bound
from repro.compressor.encoders.lossless import (
    LOSSLESS_BACKENDS,
    LosslessBackend,
    get_lossless_backend,
)
from repro.compressor.encoders.lz77 import Lz77Codec, Lz77Params, write_varint
from repro.compressor.encoders.rle import ZeroRunLengthEncoder
from repro.compressor.legacy import read_chunked_codes, read_flat
from repro.compressor.sz import SZCompressor
from tests.compressor.test_encode_stack import grid_stacks
from tests.compressor.test_lossless import draw_payload
from tests.compressor.test_lz77 import (
    reference_encode,
    reference_pairs,
    scan_corpus,
)
from tests.conftest import smooth_field
from tests.oracle import assert_stack_as_alone
from tests.proptest import draw_case, resolved_config

#: the two LZ77 presets of the backends, and a window small enough that
#: matches in short payloads cross its edge
LZ77_PARAMS = (
    Lz77Params(window_bits=20),
    Lz77Params(window_bits=15, max_match=258),
    Lz77Params(window_bits=8),
)


DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "data")


def assert_round_trip(backend: LosslessBackend, payloads) -> list:
    """``compress_stack`` and ``decompress_stack`` give each payload what
    it gets alone — ``compress`` and ``decompress`` are their stacks of
    one — and ``decompress_stack`` of its ``compress_stack`` the
    payloads back."""
    stacked = assert_stack_as_alone(backend.compress_stack, payloads)
    assert all(len(o) <= len(d) + 1 for d, o in zip(payloads, stacked))
    unwrap = backend.decompress_stack
    assert assert_stack_as_alone(unwrap, stacked) == list(payloads)
    return stacked


def lz77_parity(params: Lz77Params) -> dict:
    """``Lz77Codec(params).encode_stack``, each member of which must be
    the scalar reference parse of that payload alone."""
    return {
        "stack": Lz77Codec(params).encode_stack,
        "alone": lambda data: reference_encode(
            data, reference_pairs(data, params.window), params.max_match
        ),
    }


def huffman_payloads(seed: int) -> list[bytes]:
    """The Huffman code streams a proptest case's tile stacks hand to
    the lossless stage."""
    case = draw_case(seed)
    config = replace(resolved_config(case).per_tile(), lossless=None)
    tile_shape = case.config.tile_shape or tuple(
        max(1, n // 2) for n in case.data.shape
    )
    codec = SZCompressor()
    return [
        sections[0]
        for stack in grid_stacks(case.data, tile_shape)
        for _, sections, _, _ in codec.encode_stack(stack, config)
    ]


@pytest.mark.parametrize("seed", range(72))
def test_every_proptest_cases_payloads_stack_as_alone(seed):
    payloads = huffman_payloads(seed)
    for name in LOSSLESS_BACKENDS:
        assert_round_trip(LosslessBackend(name), payloads)


@pytest.mark.parametrize("name", LOSSLESS_BACKENDS)
def test_mixed_payloads_stack_as_alone(name):
    backend = LosslessBackend(name)
    payloads = [draw_payload(seed) for seed in range(60)]
    payloads.insert(7, b"")
    stacked = assert_round_trip(backend, payloads)
    assert {out[0] for out in stacked} == {0, 1}  # both outcomes occur
    assert assert_round_trip(backend, payloads[::-1]) == stacked[::-1]


@pytest.mark.parametrize("params", LZ77_PARAMS, ids=["zstd", "gzip", "w8"])
class TestAdversarialStacks:
    """Stacks a pair across two members would change the bytes of."""

    def test_identical_members(self, params):
        block = np.random.default_rng(1).bytes(300)
        for payloads in ([block] * 4, [block, b"x" + block, block]):
            assert_stack_as_alone(members=payloads, **lz77_parity(params))
        # a match into an earlier member would shrink the later ones
        assert_stack_as_alone(Lz77Codec(params).encode_stack, [block] * 3)

    def test_members_of_zero_to_three_bytes(self, params):
        tiny = [b"", b"a", b"ab", b"abc", b"abca", b"\0" * 3]
        for payloads in (
            tiny,
            tiny[::-1],
            [b"", b""],
            [b"abc", b"abcabcabc", b"", b"bca", b"abcabcabc"],
            [b"", b"abcd" * 20, b"", b"ab", b"cd" * 9, b"a"],
        ):
            assert_stack_as_alone(members=payloads, **lz77_parity(params))

    def test_a_straddling_quad_equal_to_a_later_one(self, params):
        # "abcd" straddles members 0 and 1, then occurs inside member 1
        # and inside member 2, where alone it has no earlier occurrence
        payloads = [b"xxab", b"cdyyyyabcdzzzzabcd", b"abcdqq", b"dabc"]
        assert_stack_as_alone(members=payloads, **lz77_parity(params))
        # and after a member whose own "abcd" pair precedes the straddle
        payloads = [b"qqabcd", b"abcdrrabcdab", b"cdab", b"cd", b"abcd"]
        assert_stack_as_alone(members=payloads, **lz77_parity(params))

    def test_a_match_exactly_at_the_window_edge(self, params):
        rng = np.random.default_rng(2)
        block = rng.integers(1, 256, 40, dtype=np.uint8).tobytes()
        window = params.window
        # a zero fill shares no hash bucket with the block's quads, so the
        # second block's candidates are the first block's
        at_edge = block + bytes(window - len(block)) + block
        past_edge = block + bytes(window + 1 - len(block)) + block
        codec = Lz77Codec(params)
        pos, cand = codec._candidate_scan(at_edge, window)
        assert window in (pos - cand).tolist()  # the edge is reached
        for payloads in (
            [at_edge, past_edge],
            [rng.bytes(7), past_edge, b"", at_edge, block],
        ):
            # the scalar reference is too slow for 2^20-byte payloads
            stacked = assert_stack_as_alone(codec.encode_stack, payloads)
            assert [codec.decode(tokens) for tokens in stacked] == payloads


@pytest.mark.parametrize("params", LZ77_PARAMS, ids=["zstd", "gzip", "w8"])
def test_scan_corpus_shuffled_into_stacks(params):
    corpus = scan_corpus()
    rng = np.random.default_rng(3)
    for size in (3, len(corpus)):
        order = rng.permutation(len(corpus)).tolist()
        for cut in range(0, len(order), size):
            stack = [corpus[i] for i in order[cut : cut + size]]
            assert_stack_as_alone(members=stack, **lz77_parity(params))


@given(st.lists(st.binary(max_size=300), max_size=6))
@settings(max_examples=60, deadline=None)
def test_random_stacks_encode_as_alone(payloads):
    codec = Lz77Codec(Lz77Params(window_bits=8))
    stacked = assert_stack_as_alone(codec.encode_stack, payloads)
    assert [codec.decode(tokens) for tokens in stacked] == payloads


#: byte strings on both sides of the raw escape: random bytes, and runs
#: of a few byte values, which LZ77 and RLE code smaller
PAYLOADS = st.one_of(
    st.binary(max_size=300),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 90)), max_size=30
    ).map(lambda runs: b"".join(bytes([v]) * n for v, n in runs)),
)


@given(st.lists(PAYLOADS, max_size=6), st.sampled_from(LOSSLESS_BACKENDS))
@settings(max_examples=60, deadline=None)
def test_random_stacks_decompress_as_alone(payloads, name):
    assert_round_trip(LosslessBackend(name), payloads)


def coded_tokens(tokens) -> bytes:
    """A method-1 payload of the token stream *tokens* (LZ77 bytes, or
    RLE tokens), which its inverse need not accept."""
    if isinstance(tokens, bytes):
        tokens = np.frombuffer(tokens, dtype=np.uint8)
    return b"\x01" + HuffmanEncoder().encode(np.asarray(tokens))


def lz77_tokens(declared: int) -> bytes:
    """A zero byte, then a match of ``declared - 1`` bytes at distance
    one: an LZ77 stream of 13 bytes or so that decodes to *declared*
    zero bytes (whose Huffman header any decoder refuses at once)."""
    out = bytearray()
    for value in (declared, 1, 0, declared - 1):
        write_varint(out, value)
    return bytes(out) + (1).to_bytes(3, "big")


#: payloads each backend refuses, each its own way: a bad method byte,
#: an empty payload, a Huffman body cut short, tokens the inverse refuses
BAD = {
    "method": lambda name: b"\x07abc",
    "empty": lambda name: b"",
    "huffman": lambda name: b"\x01" + bytes(3),
    "inverse": lambda name: coded_tokens(
        [-1, -1] if name == "rle" else b"\x05\x09" + bytes(12)
    ),
}


@pytest.mark.parametrize("name", LOSSLESS_BACKENDS)
def test_a_stack_raises_its_first_bad_payloads_error(name):
    backend = LosslessBackend(name)
    good = backend.compress_stack([draw_payload(seed) for seed in range(20)])
    assert {out[0] for out in good} == {0, 1}
    errors = {}
    for kind, bad in BAD.items():
        with pytest.raises(ValueError) as alone:
            backend.decompress(bad(name))
        errors[kind] = str(alone.value)
    assert len(set(errors.values())) == len(BAD)
    for first in BAD:
        for second in BAD:
            if first == second:
                continue
            stack = [*good[:5], BAD[first](name), *good[5:9]]
            stack += [BAD[second](name), *good[9:]]
            with pytest.raises(ValueError) as stacked:
                backend.decompress_stack(stack)
            assert str(stacked.value) == errors[first], (first, second)


class TestLimits:
    """A payload may not unwrap past the Huffman blob its tile holds, nor
    a Huffman blob declare more codes or tokens than that allows."""

    def test_lz77_refuses_a_declared_size_past_its_limit(self):
        codec = Lz77Codec()
        data = draw_payload(13)
        tokens = codec.encode(data)
        assert codec.decode(tokens, len(data)) == data
        with pytest.raises(ValueError, match="past its limit"):
            codec.decode(tokens, len(data) - 1)
        with pytest.raises(ValueError, match="past its limit"):
            codec.decode(lz77_tokens(2**40), 1 << 20)

    def test_rle_refuses_a_run_past_its_limit(self):
        rle = ZeroRunLengthEncoder()
        stream = np.array([3, 0, 0, 0, 0, 5, 0, 0, 0])
        tokens, _ = rle.encode(stream)
        np.testing.assert_array_equal(rle.decode(tokens, limit=9), stream)
        with pytest.raises(ValueError, match="past the limit"):
            rle.decode(tokens, limit=8)
        runs = np.array([-1] + [-1, rle.max_run] * 4096)  # 2**28 zeros
        with pytest.raises(ValueError, match="past the limit"):
            rle.decode(runs, limit=1 << 20)

    @pytest.mark.parametrize("name", LOSSLESS_BACKENDS)
    def test_payloads_decode_to_the_limit_and_no_further(self, name):
        backend = LosslessBackend(name)
        payloads = [draw_payload(seed) for seed in range(30)]
        stacked = backend.compress_stack(payloads)
        sizes = [len(data) for data in payloads]
        assert backend.decompress_stack(stacked, sizes) == payloads
        # the LZ77 size is declared; a zero run is one RLE refuses
        cut = [i for i, (data, out) in enumerate(zip(payloads, stacked))
               if out[0] == 1 and (name != "rle" or data.endswith(b"\0"))]
        assert cut
        for i in cut:
            with pytest.raises(ValueError, match="limit"):
                backend.decompress_stack(
                    stacked, [n - (k == i) for k, n in enumerate(sizes)]
                )

    @staticmethod
    def assert_far_below_the_limits(blob, *wrapped) -> int:
        """Checked against *blob*'s own code count and size, not the
        point count of a tile, which the decoder's limits allow: its
        size, and the tokens of each ``(backend, payload)`` of *wrapped*
        whose lossless payload codes them — their alphabet within the
        backend's.  Returns its code count."""
        n_codes = HuffmanEncoder().decode(blob).size
        assert 2 * len(blob) <= blob_bytes_bound(n_codes), (len(blob), n_codes)
        for backend, payload in wrapped:
            if payload[0] == 1:  # the token bounds of decompress_stack
                tokens = HuffmanEncoder().decode(payload[1:])
                assert 2 * tokens.size <= 4 * len(blob) + 64, tokens.size
                alphabet = HuffmanEncoder()._parse([payload[1:]])[0].code
                assert alphabet.symbols.size <= backend._alphabet
                assert np.unique(tokens).size == alphabet.symbols.size
        return n_codes

    @pytest.mark.parametrize("limited", [True, False], ids=["16", "unlimited"])
    def test_no_proptest_case_comes_near_it(self, limited, request):
        if not limited:
            request.getfixturevalue("unlimited_codes")
        backends = [LosslessBackend(name) for name in LOSSLESS_BACKENDS]
        for seed in range(72):
            for blob in filter(None, huffman_payloads(seed)):  # stage bytes
                wrapped = [(b, b.compress(blob)) for b in backends]
                self.assert_far_below_the_limits(blob, *wrapped)

    @pytest.mark.parametrize(
        "path",
        sorted(glob.glob(os.path.join(DATA_DIR, "*.rqsz"))),
        ids=os.path.basename,
    )
    def test_no_golden_fixture_comes_near_it(self, path):
        with open(path, "rb") as fh, TiledReader(fh.read()) as reader:
            for record in reader.tiles:
                meta, sections = unpack_tile(reader.read_tile(record))
                params = dict(record.params, **meta)
                if not sections[0]:  # no stage bytes
                    continue
                blocks = [sections[0]]
                if params.get("chunked"):
                    blocks = read_chunked_codes(sections[0])
                points = math.prod(record.shape)
                wrapped = [[]] * len(blocks)
                if params["lossless"] is not None:
                    backend = get_lossless_backend(params["lossless"])
                    wrapped = [[(backend, block)] for block in blocks]
                    limits = [blob_bytes_bound(points)] * len(blocks)
                    blocks = backend.decompress_stack(blocks, limits)
                # the code limit is the count the tile's points take
                n_codes = [
                    self.assert_far_below_the_limits(blob, *payloads)
                    for blob, payloads in zip(blocks, wrapped)
                ]
                assert sum(n_codes) <= points


def count_calls(monkeypatch) -> dict:
    """Count LZ77 candidate scans and Huffman plans from here on."""
    calls = {"scan": 0, "plan": 0}
    scan, plan = Lz77Codec._candidate_scan, HuffmanEncoder.plan

    def counting_scan(data, window):
        calls["scan"] += 1
        return scan(data, window)

    def counting_plan(self, *args, **kwargs):
        calls["plan"] += 1
        return plan(self, *args, **kwargs)

    monkeypatch.setattr(
        Lz77Codec, "_candidate_scan", staticmethod(counting_scan)
    )
    monkeypatch.setattr(HuffmanEncoder, "plan", counting_plan)
    return calls


class TestCounts:
    @pytest.mark.parametrize("name", LOSSLESS_BACKENDS)
    def test_one_scan_per_stack_and_one_plan_per_payload(
        self, name, monkeypatch
    ):
        payloads = [draw_payload(seed) for seed in range(10)]
        calls = count_calls(monkeypatch)
        LosslessBackend(name).compress_stack(payloads)
        assert calls == {
            "scan": 0 if name == "rle" else 1,
            "plan": len(payloads),
        }

    def test_a_36_tile_compress_scans_once_per_stack(self, monkeypatch):
        rng = np.random.default_rng(11)
        data = np.cumsum(rng.standard_normal((192, 192)), axis=1)
        config = CompressionConfig(error_bound=1e-2, tile_shape=(32, 32))
        calls = count_calls(monkeypatch)
        result = TiledCompressor(backend="serial").compress(data, config)
        assert result.n_tiles == 36
        per_stack = tiled._STACK_POINTS // (32 * 32)
        assert calls["scan"] == -(-36 // per_stack) < 36
        # one plan for the code stream, one for the lossless stage's tokens
        assert calls["plan"] == 2 * 36


def count_decode_stacks(monkeypatch, name: str) -> list:
    """``("tokens", n)`` for every ``HuffmanEncoder.decode_stack`` call
    of *n* blobs the lossless stage *name* makes from here on, and
    ``("codes", n)`` for every other one."""
    tokens = get_lossless_backend(name)._huffman
    decode_stack, calls = HuffmanEncoder.decode_stack, []

    def counting(self, blobs, limits=None, alphabets=None):
        calls.append(("tokens" if self is tokens else "codes", len(blobs)))
        return decode_stack(self, blobs, limits, alphabets)

    monkeypatch.setattr(HuffmanEncoder, "decode_stack", counting)
    return calls


class TestDecodeCounts:
    def test_a_36_tile_decode_makes_one_token_decode(self, monkeypatch):
        # zero outside a smooth halo: the tiles there code smaller
        halo = smooth_field((192, 192), noise=0.0)
        data = np.where(halo > 0.3, smooth_field((192, 192)), 0.0)
        config = CompressionConfig(
            predictor="interpolation", error_bound=1e-2, tile_shape=(32, 32)
        )
        codec = TiledCompressor(backend="serial")
        blob = codec.compress(data, config).blob
        with TiledReader(blob) as reader:
            methods = [
                unpack_tile(reader.read_tile(record))[1][0][0]
                for record in reader.tiles
            ]
        assert len(methods) == 36 and 1 < sum(methods) < 36
        calls = count_decode_stacks(monkeypatch, "zstd_like")
        codec.decompress(blob)
        # 36 tiles of 1024 points: one decode stack
        assert calls == [("tokens", sum(methods)), ("codes", 36)]

    def test_chunked_blocks_join_the_one_code_stream_decode(
        self, monkeypatch
    ):
        with open(os.path.join(DATA_DIR, "seed_v3_zstd.rqsz"), "rb") as fh:
            blob = fh.read()
        header, sections = read_flat(blob)
        blocks = read_chunked_codes(sections[0])
        coded = sum(block[0] == 1 for block in blocks)
        assert len(blocks) > 1
        calls = count_decode_stacks(monkeypatch, header["lossless"])
        TiledCompressor(backend="serial").decompress(blob)
        tokens = [("tokens", coded)] if coded else []
        assert calls == [*tokens, ("codes", len(blocks))]
