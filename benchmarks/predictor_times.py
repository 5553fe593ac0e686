"""Decode and encode time of each predictor against Lorenzo's.

    python3 benchmarks/predictor_times.py                       # this tree
    python3 benchmarks/predictor_times.py --against ../parent --runs 9

Times a serial ``TiledCompressor`` compress and decompress (median of
``--repeats`` calls each) of the ``codec_small_tiles`` and ``serve_cold``
ledger fields under each predictor, and prints each time and its ratio
to Lorenzo's on the same field.  With ``--against`` it makes ``--runs``
alternating runs of this tree and the other checkout, each a fresh
process (the other one first on even runs), and prints the median over
runs of every time for both trees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("codec_small_tiles", "serve_cold")
PREDICTORS = ("lorenzo", "interpolation", "regression")


def measure(tree: str, seed: int, repeats: int) -> dict:
    """``{"workload/predictor/op": ms}`` of the checkout *tree*."""
    sys.path[:0] = [
        os.path.join(tree, "src"),
        os.path.join(tree, "benchmarks", "ledger"),
    ]
    import fields
    import workloads
    from repro.compressor import CompressionConfig, TiledCompressor

    specs = {w.name: w for w in workloads.WORKLOADS}
    times = {}
    for name in WORKLOADS:
        spec = specs[name]
        data = fields.build(spec.field, spec.shape, seed)[0]
        for predictor in PREDICTORS:
            config = CompressionConfig(
                predictor=predictor,
                error_bound=spec.error_bound,
                tile_shape=spec.tile,
            )
            codec = TiledCompressor(backend="serial")
            blob = codec.compress(data, config).blob
            codec.decompress(blob)  # warm the decode tables
            for op, call in (
                ("compress", lambda: codec.compress(data, config)),
                ("decompress", lambda: codec.decompress(blob)),
            ):
                laps = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    call()
                    laps.append(time.perf_counter() - start)
                times[f"{name}/{predictor}/{op}"] = 1e3 * statistics.median(laps)
    return times


def report(label: str, times: dict) -> None:
    for key, ms in times.items():
        name, predictor, op = key.split("/")
        ratio = ms / times[f"{name}/lorenzo/{op}"]
        print(
            f"{label:6} {name:18} {op:11} {predictor:14} "
            f"{ms:8.2f} ms {ratio:5.2f}x"
        )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="another checkout to alternate with")
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=3)
    # one measuring process: the times of --tree as JSON
    parser.add_argument("--tree", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.tree is not None:
        print(json.dumps(measure(args.tree, args.seed, args.repeats)))
        return
    if args.against is None:
        report("this", measure(HERE, args.seed, args.repeats))
        return
    runs = {args.against: [], HERE: []}
    for k in range(args.runs):
        order = [args.against, HERE]
        for tree in order if k % 2 == 0 else order[::-1]:
            proc = subprocess.run(
                [
                    sys.executable,
                    os.path.join(HERE, "benchmarks", "predictor_times.py"),
                    "--tree", tree,
                    "--seed", str(args.seed), "--repeats", str(args.repeats),
                ],
                capture_output=True, text=True, check=True,
            )
            runs[tree].append(json.loads(proc.stdout))
        print(f"run {k + 1}/{args.runs} done", file=sys.stderr)
    for label, tree in (("other", args.against), ("this", HERE)):
        report(label, {
            key: statistics.median(run[key] for run in runs[tree])
            for key in runs[tree][0]
        })


if __name__ == "__main__":
    main()
