"""Unit tests for the lossless backends (zstd_like / gzip_like / rle)."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor.encoders import huffman
from repro.compressor.encoders.huffman import HuffmanCode, HuffmanEncoder
from repro.compressor.encoders.lossless import (
    _CODED,
    LOSSLESS_BACKENDS,
    LosslessBackend,
    get_lossless_backend,
)
from tests.compressor.test_lz77 import forged_stream


@pytest.fixture(params=LOSSLESS_BACKENDS)
def backend(request):
    return get_lossless_backend(request.param)


class TestBackends:
    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            get_lossless_backend("zstd")

    def test_roundtrip_text(self, backend):
        data = b"the quick brown fox " * 50
        assert backend.decompress(backend.compress(data)) == data

    def test_roundtrip_zero_dominated(self, backend):
        data = b"\x00" * 5000 + b"\x01\x02" + b"\x00" * 3000
        out = backend.compress(data)
        assert len(out) < len(data) // 5
        assert backend.decompress(out) == data

    def test_incompressible_uses_raw_escape(self, backend):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=512, dtype=np.uint8).tobytes()
        out = backend.compress(data)
        assert len(out) <= len(data) + 1
        assert backend.decompress(out) == data

    def test_empty_payload_raises(self, backend):
        with pytest.raises(ValueError):
            backend.decompress(b"")

    def test_unknown_method_byte_raises(self, backend):
        with pytest.raises(ValueError):
            backend.decompress(b"\x07payload")

    @given(st.binary(min_size=0, max_size=1000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_random_zstd_like(self, data):
        backend = get_lossless_backend("zstd_like")
        assert backend.decompress(backend.compress(data)) == data

    @given(st.binary(min_size=0, max_size=1000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_random_rle(self, data):
        backend = get_lossless_backend("rle")
        assert backend.decompress(backend.compress(data)) == data


class TestBackendOrdering:
    def test_zstd_like_at_least_as_good_as_rle_on_mixed_data(self):
        # Dictionary coding should dominate plain zero-RLE when there is
        # non-zero repetition to exploit.
        data = (b"abcdefgh" * 200) + b"\x00" * 500
        zstd = get_lossless_backend("zstd_like").compress(data)
        rle = get_lossless_backend("rle").compress(data)
        assert len(zstd) <= len(rle)


def draw_payload(seed: int) -> bytes:
    """Inputs on both sides of the raw escape, small ones above all.

    Token streams of 4096 or more carry a sync table, so the larger
    sizes put the floor's sync term to work."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([0, 1, 9, 40, 200, 700, 3000, 4500, 6000]))
    kind = seed % 5
    if kind == 0:  # incompressible
        return rng.bytes(n)
    if kind == 1:  # a Huffman-coded tile: few distinct bytes, no repeats
        return rng.integers(0, 12, n, dtype=np.uint8).tobytes()
    if kind == 2:
        return bytes(n)
    if kind == 3:
        return (b"abcdefgh" * (n // 8 + 1))[:n]
    skewed = rng.geometric(0.4, n) - 1
    return np.minimum(skewed, 255).astype(np.uint8).tobytes()


def no_floors(counts, sizes, header_bits):
    """The stacked size floors with the gate off: zero never reaches a
    budget."""
    return np.zeros(len(sizes), dtype=np.int64)


class TestEntropyGate:
    """The planner's entropy floor may only skip work, never change bytes."""

    @pytest.mark.parametrize("name", LOSSLESS_BACKENDS)
    def test_output_is_identical_with_the_gate_disabled(
        self, name, monkeypatch
    ):
        backend = LosslessBackend(name)
        payloads = [draw_payload(seed) for seed in range(60)]
        gated = [backend.compress(data) for data in payloads]
        assert {out[0] for out in gated} == {0, 1}  # both outcomes occur
        # a floor of zero never reaches a budget: every plan is built
        monkeypatch.setattr(huffman, "_container_bytes_floors", no_floors)
        assert [backend.compress(data) for data in payloads] == gated
        for data, out in zip(payloads, gated):
            assert backend.decompress(out) == data

    @pytest.mark.parametrize("name", LOSSLESS_BACKENDS)
    def test_gate_fires_only_where_the_exact_plan_escapes(self, name):
        backend = LosslessBackend(name)
        fired = 0
        for seed in range(60):
            data = draw_payload(seed)
            if backend._lz is not None:
                tokens = np.frombuffer(
                    backend._lz.encode(data), dtype=np.uint8
                )
            else:
                symbols = np.frombuffer(data, dtype=np.uint8)
                tokens, _ = backend._rle.encode(
                    symbols.astype(np.int64), zero_symbol=0
                )
            exact = backend._huffman.plan(tokens)
            if tokens.size and (
                backend._huffman.plan(tokens, budget=len(data)) is None
            ):
                fired += 1
                assert exact.container_bytes >= len(data)
                assert backend.compress(data)[0] == 0
        assert fired  # small inputs: the header alone settles it

    @pytest.mark.parametrize("name", LOSSLESS_BACKENDS)
    def test_incompressible_sync_sized_payload_builds_no_code(
        self, name, monkeypatch
    ):
        # ~8-bit tokens: the entropy alone sits under the budget, and the
        # sync table the plan would carry tips the floor over it
        data = np.random.default_rng(11).bytes(6000)
        built = []
        init = HuffmanCode.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(HuffmanCode, "__init__", counted)
        backend = LosslessBackend(name)
        gated = backend.compress(data)
        assert not built and gated == bytes([0]) + data
        monkeypatch.setattr(huffman, "_container_bytes_floors", no_floors)
        assert backend.compress(data) == gated
        assert built  # without the floor the code is built, then escaped


class TestForgedLengths:
    def test_match_past_the_declared_size_allocates_nothing(self):
        # declared size 10, one literal, then a 2^34-byte match at dist 1
        tokens = np.frombuffer(forged_stream(1, 1 << 34), dtype=np.uint8)
        payload = bytes([_CODED]) + HuffmanEncoder().encode(tokens)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="declared size"):
                get_lossless_backend("zstd_like").decompress(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 24


class TestSharedBackends:
    def test_one_instance_per_name(self):
        for name in LOSSLESS_BACKENDS:
            assert get_lossless_backend(name) is get_lossless_backend(name)
            assert get_lossless_backend(name).name == name

    def test_unknown_names_keep_raising(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                get_lossless_backend("zstd")

    def test_shared_instance_is_safe_under_concurrent_use(self):
        payloads = [draw_payload(seed) for seed in range(20)]
        expected = [
            LosslessBackend("zstd_like").compress(data) for data in payloads
        ]
        failures: list = []

        def work():
            try:
                for _ in range(5):
                    backend = get_lossless_backend("zstd_like")
                    for data, out in zip(payloads, expected):
                        if backend.compress(data) != out:
                            failures.append("compress")
                        if backend.decompress(out) != data:
                            failures.append("decompress")
            except Exception as exc:  # surfaced through the assert below
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
