"""One route per stage (the paper's §III: predict-quantize, Huffman,
lossless), one door for old formats, one clock: each row of
:data:`ROUTES` holds one such invariant as :class:`Forbid` checks over
the :func:`sites` of ``src/repro``."""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class Site(NamedTuple):
    path: str  # relative to src/repro
    line: int
    owner: str  # the innermost def or class, qualified, or "<module>"
    text: str  # the stripped source line, or a call as `callee(keyword=)`

    def __str__(self) -> str:
        return f"{self.path}:{self.owner}: {self.text}"


@functools.lru_cache(maxsize=None)
def _file_sites(path: Path) -> tuple[tuple[Site, ...], tuple[Site, ...]]:
    """The line sites and the call sites of one file."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    # breadth first: the scopes that hold a line, outermost first
    scopes = [(node.lineno, node.end_lineno, node.name)
              for node in ast.walk(tree) if isinstance(node, kinds)]
    rel = path.relative_to(SRC).as_posix()

    def site(line: int, text: str) -> Site:
        owner = ".".join(name for lo, hi, name in scopes if lo <= line <= hi)
        return Site(rel, line, owner or "<module>", text)

    def callee(call: ast.Call) -> str:
        keys = ", ".join(f"{k.arg}=" if k.arg else "**" for k in call.keywords)
        return f"{ast.unparse(call.func)}({keys})"

    lines = enumerate(source.split("\n"), 1)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return (
        tuple(site(n, text.strip()) for n, text in lines),
        tuple(site(node.lineno, callee(node)) for node in calls),
    )


def sites(under: str, calls: bool = False) -> list[Site]:
    """Every line (or call) of the ``*.py`` files at *under*, each with
    the def or class it sits in."""
    root = SRC / under
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    return [site for path in paths for site in _file_sites(path)[calls]]


class Forbid(NamedTuple):
    """The sites under *under* whose text matches *pattern*, but those
    whose ``str`` matches *allow*, or is one of *need* — each of which
    must be found."""

    under: str
    pattern: str
    allow: str = r"(?!)"
    need: tuple = ()
    calls: bool = False

    def stray(self) -> list[str]:
        hits = [s for s in sites(self.under, self.calls)
                if re.search(self.pattern, s.text)]
        found = {str(s) for s in hits}
        return [f"missing {n}" for n in self.need if n not in found] + [
            f"{s.path}:{s.line}: {s.owner}: {s.text}"
            for s in hits
            if str(s) not in self.need and not re.search(self.allow, str(s))
        ]


ENC, PREDICTORS = "compressor/encoders", "compressor/predictors"
BASE = rf"^{PREDICTORS}/base\.py:"  # a stack of one may live there

#: one row per invariant: the checks that hold it
ROUTES = {
    # every measured interval is a repro.obs span (the client's retry
    # deadline is control flow, not a measurement)
    "one_clock": (
        Forbid("", r"perf_counter|StageTimes|utils\.timer", r"^obs\.py:"),
    ),
    # only legacy.py knows a pre-v7 frame: TiledReader serves every
    # version as v7 tiles, each decoded under its record's params
    "one_door_for_old_formats": (
        Forbid("", r"read_flat|_decode_flat|tile_crcs",
               r"^compressor/legacy\.py:"),
        Forbid("", r"params is None"),
    ),
    # an RQH5 dataset is a v7 container TiledCompressor writes and reads
    "one_front_end": (
        Forbid("storage", r"encode_stages|decode_tile|pack_tile|SZCompressor"),
    ),
    # headers are read as Python integers (bitstream.read_field,
    # read_gamma, read_fixed) and every stream by decode_stack
    "one_huffman_decoder": (Forbid("", r"BitReader|BitWriter"),),
    # HuffmanEncoder._serialize writes a stack's headers from one
    # pack_values array and encode_stack its codewords in one pass; the
    # per-stream build left is _parse's refusal of corrupt long codes
    "one_huffman_header_pass": (
        Forbid("", r"\b(gamma_field|fixed_field|_canonical_codes)\(",
               rf"^{ENC}/huffman\.py:HuffmanEncoder\."
               r"(encode_stack|_parse): _canonical_codes\(", calls=True),
    ),
    # decode kernels resolve symbols by a 16-bit primary table, so plan,
    # which builds every code a writer emits, limits the code lengths
    # (readers still walk the longer codes of older files)
    "huffman_codes_fit_the_primary_table": (
        Forbid(f"{ENC}/huffman.py", r"\bhuffman_code_lengths\(", need=(
            f"{ENC}/huffman.py:HuffmanEncoder.plan: "
            "huffman_code_lengths(limit=)",), calls=True),
    ),
    # one pointer-doubling primitive, _block_orbits, seeded at a stack's
    # stream starts and sync marks or at the cursor of a sync-free stream
    "one_doubling_walk": (
        Forbid("", r"_decode_from_marks|_chain_starts"),
        Forbid(f"{ENC}/huffman.py", r"\b(interval|sync)\b(?!-free)",
               rf"^(?!{ENC}/huffman\.py:HuffmanEncoder\._decode_payload:)"),
        Forbid("", r"\b_block_orbits\(", calls=True, need=tuple(
            f"{ENC}/huffman.py:HuffmanEncoder.{kernel}: _block_orbits()"
            for kernel in ("_walk_group", "_decode_payload"))),
    ),
    # a store read decodes its cache misses by tiled.decode_records: no
    # tile decodes alone, and the service keeps no read pool
    "one_decode_route_for_stored_tiles": (
        Forbid("service", r"decode_tiles?\(|ThreadPoolExecutor|SZCompressor"),
    ),
    # only the tile loop's task calls SZCompressor.encode_stack, only
    # the entropy stage LosslessBackend.compress_stack; one-item encode
    # and compress are their stacks of one
    "one_encode_route": (
        Forbid("", r"encode_stages"),
        Forbid("", r"\bencode_stack\(", r": self\._(entropy|huffman|lz)\.",
               calls=True, need=(
            "compressor/tiled.py:_compress_tile_task: codec.encode_stack()",
            f"{ENC}/huffman.py:HuffmanEncoder.encode: self.encode_stack()",
            f"{ENC}/lz77.py:Lz77Codec.encode: self.encode_stack()")),
        Forbid("compressor/stages.py", r"\.compress\(", calls=True),
        Forbid("", r"\bcompress_stack\(", calls=True, need=(
            "compressor/stages.py:HuffmanEntropyStage.encode_stack: "
            "backend.compress_stack()",
            f"{ENC}/lossless.py:LosslessBackend.compress: "
            "self.compress_stack()")),
    ),
    # interpolation and regression quantize through quantizer.py
    "one_quantizer": tuple(
        Forbid(f"{PREDICTORS}/{name}.py", r"bin_width|np\.rint\(")
        for name in ("interpolation", "regression")
    ),
    # every predictor encodes and decodes a stack: the one-array method
    # is base.py's stack of one, and only sz.py's PredictorStage calls
    "one_predict_quantize_route": (
        Forbid(PREDICTORS, r"def decompose\(", BASE),
        Forbid("", r"\.decompose\(", r"self\._prediction\.decompose\("),
    ),
    "one_reconstruct_route": (
        Forbid(PREDICTORS, r"def reconstruct\(", BASE),
        Forbid("", r"\.reconstruct\(", r"self\._prediction\.reconstruct\("),
    ),
    # one LosslessBackend.decompress_stack call per backend name and one
    # HuffmanEncoder.decode_stack call over every block of a stack
    "one_entropy_decode_route": (
        Forbid("compressor", r"_huffman\.decode\(|\.decompress\(",
               r"tiled\.decompress\("),
    ),
}


@pytest.mark.parametrize("checks", ROUTES.values(), ids=list(ROUTES))
def test_route(checks):
    stray = [hit for check in checks for hit in check.stray()]
    assert not stray, "\n".join(stray)
