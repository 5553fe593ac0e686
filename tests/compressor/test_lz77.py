"""Unit + property tests for the LZ77 codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor.encoders.lz77 import Lz77Codec, Lz77Params, write_varint


def reference_pairs(data: bytes, window: int) -> list[tuple[int, int]]:
    """Scalar scan: each position's predecessor in its 16-bit hash
    bucket, kept when within *window* and its 4 bytes are equal."""
    last: dict[int, int] = {}
    pairs = []
    for pos in range(len(data) - 3):
        quad = int.from_bytes(data[pos : pos + 4], "little")
        bucket = (quad * 2654435761 & 0xFFFFFFFF) >> 16
        prev = last.get(bucket)
        last[bucket] = pos
        if (
            prev is not None
            and pos - prev <= window
            and data[prev : prev + 4] == data[pos : pos + 4]
        ):
            pairs.append((pos, prev))
    return pairs


def reference_encode(data: bytes, pairs, max_match: int) -> bytes:
    """Greedy parse over :func:`reference_pairs`, extended byte by byte."""
    cand = dict(pairs)
    out = bytearray()
    write_varint(out, len(data))
    if not data:
        return bytes(out)
    pos = start = 0
    while pos < len(data):
        if pos not in cand:
            pos += 1
            continue
        prev, length = cand[pos], 4
        while (
            length < max_match
            and pos + length < len(data)
            and data[prev + length] == data[pos + length]
        ):
            length += 1
        write_varint(out, pos - start)
        out += data[start:pos]
        write_varint(out, length)
        out += (pos - prev).to_bytes(3, "big")
        pos = start = pos + length
    write_varint(out, len(data) - start)
    out += data[start:]
    write_varint(out, 0)
    out += bytes(3)
    return bytes(out)


def scan_corpus() -> list[bytes]:
    rng = np.random.default_rng(77)
    corpus = [rng.bytes(n) for n in range(6)] + [bytes(5), b"abcda"]
    corpus.append(rng.bytes(20_000))  # Huffman-coded tiles: incompressible
    runs = np.where(rng.random(20_000) < 0.8, 0, rng.integers(1, 256, 20_000))
    runs[5_000:9_000] = 0
    corpus.append(runs.astype(np.uint8).tobytes())
    corpus.append(  # short periods, 1 to 7 bytes, repeated 2 to 11 times
        b"".join(
            rng.bytes(int(rng.integers(1, 8))) * int(rng.integers(2, 12))
            for _ in range(800)
        )
    )
    block = rng.bytes(600)  # repeats beyond the 2^8 and 2^15 windows
    corpus.append(block + rng.bytes(700) + block + rng.bytes(33_000) + block)
    return corpus


class TestCandidateScan:
    """The vectorized scan against the scalar bucket walk it encodes."""

    @pytest.mark.parametrize(
        "window_bits, max_match", ((8, 1 << 16), (15, 258), (20, 1 << 16))
    )
    def test_pairs_and_bytes_equal_the_scalar_reference(
        self, window_bits, max_match
    ):
        params = Lz77Params(window_bits=window_bits, max_match=max_match)
        codec = Lz77Codec(params)
        for data in scan_corpus():
            pairs = reference_pairs(data, params.window)
            pos, cand = codec._candidate_scan(data, params.window)
            assert list(zip(pos.tolist(), cand.tolist())) == pairs
            assert codec.encode(data) == reference_encode(
                data, pairs, params.max_match
            )


class TestParams:
    def test_window_size(self):
        assert Lz77Params(window_bits=10).window == 1024

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Lz77Params(window_bits=30)

    def test_invalid_max_match(self):
        with pytest.raises(ValueError):
            Lz77Params(max_match=2)


class TestRoundtrip:
    def test_empty(self):
        codec = Lz77Codec()
        assert codec.decode(codec.encode(b"")) == b""

    def test_short_literal_only(self):
        codec = Lz77Codec()
        data = b"abc"
        assert codec.decode(codec.encode(data)) == data

    def test_repetitive(self):
        codec = Lz77Codec()
        data = b"abcd" * 1000
        out = codec.encode(data)
        assert len(out) < len(data) // 10
        assert codec.decode(out) == data

    def test_zero_runs(self):
        codec = Lz77Codec()
        data = b"\x00" * 10_000 + b"x" + b"\x00" * 5000
        out = codec.encode(data)
        assert len(out) < 200
        assert codec.decode(out) == data

    def test_overlapping_match_semantics(self):
        # 'aaaa...' forces dist < match_len copies.
        codec = Lz77Codec()
        data = b"a" * 500
        assert codec.decode(codec.encode(data)) == data

    def test_random_bytes_do_not_explode(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
        codec = Lz77Codec()
        out = codec.encode(data)
        # incompressible input grows only by the token framing
        assert len(out) < len(data) * 1.1
        assert codec.decode(out) == data

    def test_stats(self):
        assert len(Lz77Codec().encode(b"xy" * 100)) < 200

    @given(st.binary(min_size=0, max_size=2000))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_random(self, data):
        codec = Lz77Codec()
        assert codec.decode(codec.encode(data)) == data

    @given(
        st.lists(
            st.sampled_from([b"\x00" * 17, b"abc", b"Z", b"\x00\x01"]),
            min_size=0,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_structured(self, pieces):
        data = b"".join(pieces)
        codec = Lz77Codec()
        assert codec.decode(codec.encode(data)) == data

    def test_small_window_still_correct(self):
        codec = Lz77Codec(Lz77Params(window_bits=8))
        data = (b"pattern" * 100) + bytes(range(256)) * 4
        assert codec.decode(codec.encode(data)) == data


def forged_stream(lit_len: int, match_len: int) -> bytes:
    """Declared size 10, *lit_len* then one literal, a match at dist 1."""
    out = bytearray()
    write_varint(out, 10)
    write_varint(out, lit_len)
    out += b"A"
    write_varint(out, match_len)
    out += (1).to_bytes(3, "big")
    return bytes(out)


class TestDeclaredSizeBound:
    """A length past the declared size is refused before it is allocated."""

    def test_match_longer_than_the_declared_size(self):
        with pytest.raises(ValueError, match="declared size"):
            Lz77Codec().decode(forged_stream(1, 1 << 34))
        with pytest.raises(ValueError, match="declared size"):
            Lz77Codec().decode(forged_stream(1, 10))

    def test_literal_run_longer_than_the_declared_size(self):
        with pytest.raises(ValueError, match="declared size"):
            Lz77Codec().decode(forged_stream(1 << 40, 0))

    def test_lengths_that_fit_still_decode(self):
        assert Lz77Codec().decode(forged_stream(1, 9)) == b"A" * 10


class TestTruncatedStream:
    """A stream cut inside a distance field is refused, not misread."""

    def test_a_cut_distance_field_raises(self):
        rng = np.random.default_rng(5)
        block = rng.bytes(600)
        # the second block matches the first 0x010203 bytes back: a
        # distance whose every byte is non-zero
        data = block + rng.bytes(0x010203 - 600) + block
        codec = Lz77Codec(Lz77Params(window_bits=20))
        stream = codec.encode(data)
        assert stream[-8:-5] == (0x010203).to_bytes(3, "big")
        for cut in range(1, 6):  # only the empty trailer block is lost
            assert codec.decode(stream[:-cut]) == data
        for cut in (6, 7, 8):
            with pytest.raises(ValueError, match="truncated LZ77 stream"):
                codec.decode(stream[:-cut])
