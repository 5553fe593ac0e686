"""Alternating pairs of ledger runs: another checkout against this tree.

    python3 benchmarks/pairs.py --against ../parent --workload serve_cold --pairs 10

Pair *k* runs seed ``--seed + k`` on both trees, the other checkout
first on even pairs and second on odd ones, each run a fresh
``benchmarks/ledger/run.py`` process (``--trace 0``), and reads the
closing JSON line of each.  For every end-to-end metric of
``BENCHMARK.json`` it prints the other checkout's median and IQR, this
tree's median, the ratio of the medians and the pairs this tree won
(the metric's better direction).  The exact metrics — ratio, PSNR,
model accuracy — depend only on the seed, so they must be equal pair by
pair; a difference is printed as ``MOVED``.  Timings on a shared runner
swing between identical runs: read a gain from the wins and from the
median against the IQR, never from one run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT = ("compression_ratio", "psnr_db", "model_ratio_accuracy")


def run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The metric values of one ledger run of *tree*."""
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [
                sys.executable,
                os.path.join(tree, "benchmarks", "ledger", "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", "0",
                "--out", out,
            ],
            capture_output=True, text=True, check=True,
        )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if not record["correct"] or record["failed"]:
        raise SystemExit(f"{tree} seed {seed}: run not correct: {record}")
    return {name: m["value"] for name, m in record["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="the other checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    args = parser.parse_args(argv)
    with open(os.path.join(HERE, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    other, mine = [], []
    for k in range(args.pairs):
        seed = args.seed + k
        order = [(args.against, other), (HERE, mine)]
        for tree, runs in order if k % 2 == 0 else order[::-1]:
            runs.append(run(tree, args.workload, seed, args.seconds))
        print(f"pair {k + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} alternating pairs against {args.against}")
    print(f"{'metric':22} {'other median':>13} {'other IQR':>21} "
          f"{'this median':>12} {'ratio':>7} {'wins':>6}")
    for name, direction in better.items():
        a = [r[name] for r in other if name in r]
        b = [r[name] for r in mine if name in r]
        if len(a) != len(b) or not a:
            continue
        if name in EXACT:
            moved = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
            note = f"MOVED on pairs {moved}" if moved else "equal per seed"
            print(f"{name:22} {statistics.median(a):13.4f} {note:>21}")
            continue
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        lo, hi = quartiles(a) if len(a) > 1 else (a[0], a[0])
        med_a, med_b = statistics.median(a), statistics.median(b)
        ratio = med_b / med_a if med_a else float("nan")
        print(f"{name:22} {med_a:13.4f} [{lo:9.4f}, {hi:9.4f}] "
              f"{med_b:12.4f} {ratio:7.3f} {wins:>3}/{len(a)}")


if __name__ == "__main__":
    main()
