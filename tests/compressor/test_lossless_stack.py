"""The lossless stage codes a stack: each payload gets the bytes it gets alone.

``LosslessBackend.compress_stack`` tokenises a stack of payloads (LZ77:
one candidate scan over them laid end to end), counts the token streams
with one offset ``bincount``, plans each payload alone and packs the
payloads that beat their raw escape as one Huffman stack.  Every member
must be bit for bit what ``compress`` (the one-payload stack) returns
for it, and every member of ``Lz77Codec.encode_stack`` what the scalar
reference parse of ``test_lz77.py`` gives it alone.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor import CompressionConfig, TiledCompressor, tiled
from repro.compressor.encoders.huffman import HuffmanEncoder
from repro.compressor.encoders.lossless import (
    LOSSLESS_BACKENDS,
    LosslessBackend,
)
from repro.compressor.encoders.lz77 import Lz77Codec, Lz77Params
from repro.compressor.sz import SZCompressor
from tests.compressor.test_encode_stack import grid_stacks
from tests.compressor.test_lossless import draw_payload
from tests.compressor.test_lz77 import (
    reference_encode,
    reference_pairs,
    scan_corpus,
)
from tests.proptest import draw_case, resolved_config

#: the two LZ77 presets of the backends, and a window small enough that
#: matches in short payloads cross its edge
LZ77_PARAMS = (
    Lz77Params(window_bits=20),
    Lz77Params(window_bits=15, max_match=258),
    Lz77Params(window_bits=8),
)


def assert_stacks_as_alone(backend: LosslessBackend, payloads) -> list:
    """``compress_stack(payloads)`` is each payload's own ``compress``,
    and decodes back to it."""
    stacked = backend.compress_stack(payloads)
    assert stacked == [backend.compress(data) for data in payloads]
    for data, out in zip(payloads, stacked):
        assert len(out) <= len(data) + 1
        assert backend.decompress(out) == data
    return stacked


def assert_lz77_stacks_as_alone(payloads, params: Lz77Params) -> None:
    """Each member of ``encode_stack`` is the scalar reference parse of
    that payload alone."""
    stacked = Lz77Codec(params).encode_stack(payloads)
    assert len(stacked) == len(payloads)
    for data, tokens in zip(payloads, stacked):
        pairs = reference_pairs(data, params.window)
        assert tokens == reference_encode(data, pairs, params.max_match)


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
        assert_stacks_as_alone(LosslessBackend(name), payloads)


@pytest.mark.parametrize("name", LOSSLESS_BACKENDS)
def test_mixed_payloads_stack_as_alone(name):
    backend = LosslessBackend(name)
    payloads = [draw_payload(seed) for seed in range(60)]
    stacked = assert_stacks_as_alone(backend, payloads)
    assert {out[0] for out in stacked} == {0, 1}  # both outcomes occur
    assert assert_stacks_as_alone(backend, payloads[::-1]) == stacked[::-1]


@pytest.mark.parametrize("params", LZ77_PARAMS, ids=["zstd", "gzip", "w8"])
class TestAdversarialStacks:
    """Stacks a pair across two members would change the bytes of."""

    def test_identical_members(self, params):
        block = np.random.default_rng(1).bytes(300)
        for payloads in ([block] * 4, [block, b"x" + block, block]):
            assert_lz77_stacks_as_alone(payloads, params)
        alone = Lz77Codec(params).encode(block)
        # a match into an earlier member would shrink the later ones
        assert Lz77Codec(params).encode_stack([block] * 3) == [alone] * 3

    def test_members_of_zero_to_three_bytes(self, params):
        tiny = [b"", b"a", b"ab", b"abc", b"abca", b"\0" * 3]
        for payloads in (
            tiny,
            tiny[::-1],
            [b"", b""],
            [b"abc", b"abcabcabc", b"", b"bca", b"abcabcabc"],
            [b"", b"abcd" * 20, b"", b"ab", b"cd" * 9, b"a"],
        ):
            assert_lz77_stacks_as_alone(payloads, params)

    def test_a_straddling_quad_equal_to_a_later_one(self, params):
        # "abcd" straddles members 0 and 1, then occurs inside member 1
        # and inside member 2, where alone it has no earlier occurrence
        payloads = [b"xxab", b"cdyyyyabcdzzzzabcd", b"abcdqq", b"dabc"]
        assert_lz77_stacks_as_alone(payloads, params)
        # and after a member whose own "abcd" pair precedes the straddle
        payloads = [b"qqabcd", b"abcdrrabcdab", b"cdab", b"cd", b"abcd"]
        assert_lz77_stacks_as_alone(payloads, params)

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
            stacked = codec.encode_stack(payloads)
            assert stacked == [codec.encode(data) for data in payloads]
            assert [codec.decode(tokens) for tokens in stacked] == payloads


@pytest.mark.parametrize("params", LZ77_PARAMS, ids=["zstd", "gzip", "w8"])
def test_scan_corpus_shuffled_into_stacks(params):
    corpus = scan_corpus()
    rng = np.random.default_rng(3)
    for size in (3, len(corpus)):
        order = rng.permutation(len(corpus)).tolist()
        for cut in range(0, len(order), size):
            stack = [corpus[i] for i in order[cut : cut + size]]
            assert_lz77_stacks_as_alone(stack, params)


@given(st.lists(st.binary(max_size=300), max_size=6))
@settings(max_examples=60, deadline=None)
def test_random_stacks_encode_as_alone(payloads):
    codec = Lz77Codec(Lz77Params(window_bits=8))
    stacked = codec.encode_stack(payloads)
    assert stacked == [codec.encode(data) for data in payloads]
    for data, tokens in zip(payloads, stacked):
        assert codec.decode(tokens) == data


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
