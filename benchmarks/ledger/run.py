"""The performance ledger: one command, six workloads, every metric.

Run from the repository root::

    python3 benchmarks/ledger/run.py                      # the whole set
    python3 benchmarks/ledger/run.py --traced             # + per-layer run
    python3 benchmarks/ledger/run.py --workload serve_hot --seed 7 \\
        --seconds 10 --trace 0                            # one workload
    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --selfcheck

One workload runs in one fresh process, prints every metric by name
with its unit, and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The set mode starts that
process once per workload and writes ``ledger-seed<N>.json``.
See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"ledger: no package under test at {SRC}/repro")
sys.path[:0] = [HERE, SRC]

import numpy as np  # noqa: E402

from calibrate import Elapsed  # noqa: E402
from layers import layer_metrics, traced_run  # noqa: E402
from metrics import END_TO_END, PER_LAYER, better_of, unit_of  # noqa: E402
from spans import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, Scenario  # noqa: E402

from repro.compressor import integrity  # noqa: E402
from repro.compressor.executor import usable_cores  # noqa: E402

DEFAULT_OUT = os.path.join(REPO, "benchmarks", "results", "ledger")
#: measured seconds per run (``run_seconds`` in BENCHMARK.json)
DEFAULT_SECONDS = 12
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: wall-clock limit of one workload process in the set mode
WORKLOAD_TIMEOUT_S = 170.0
_SPECS = {spec.name: spec for spec in WORKLOADS}


# -- one workload ----------------------------------------------------------------


def _split_cores() -> int | None:
    """Pin this process to one core; returns another for the server.

    Client and server alternate (one closed loop), so two cores are
    enough and pinning stops the scheduler migrating either mid-run.
    """
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return None
    os.sched_setaffinity(0, {cores[0]})
    return cores[1]


def _loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return fh.read().strip()


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # a checkout without its .git


def environment(affinity: list[int]) -> dict:
    """What the numbers were measured on."""
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "usable_cores": usable_cores(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "checksum_algorithm": integrity.CHECKSUM_ALGORITHM,
        "loadavg_start": _loadavg(),
    }


#: end-to-end metric -> its value in one round (``mb`` is the field's
#: size); a round's timings are already at reference speed, see
#: calibrate.py, and a run reports the median over its rounds
_PER_ROUND = {
    "compress_mb_s": lambda v, mb: mb / v["compress_s"],
    "decompress_mb_s": lambda v, mb: mb / v["decompress_s"],
    "region_decode_ms": lambda v, mb: statistics.mean(v["regions_s"]) * 1e3,
    "compression_ratio": lambda v, mb: v["put_raw_bytes"] / v["put_stored_bytes"],
    "psnr_db": lambda v, mb: v["psnr_db"],
    "model_ratio_accuracy": lambda v, mb: v["model_ratio_accuracy"],
    "put_p50_ms": lambda v, mb: statistics.median(v["puts_s"]) * 1e3,
    "ingest_mb_s": lambda v, mb: v["put_raw_bytes"] / 1e6 / sum(v["puts_s"]),
    "read_p50_ms": lambda v, mb: statistics.median(v["reads_s"]) * 1e3,
}


def _untraced(spec, seed, seconds, quick, scratch, server_cpu, faults) -> dict:
    """Set up (several times), warm up, measure rounds for *seconds*."""
    setups = []
    scenario = None
    for _ in range(1 if quick else SETUP_REPEATS):
        if scenario is not None:
            scenario.stop()
        started, cpu_started = perf_counter(), thread_time()
        scenario = Scenario(
            spec, seed, scratch, quick=quick,
            server_cpu=server_cpu, faults=faults,
        )
        try:
            meter = scenario.start()
        except BaseException:
            scenario.stop()
            raise
        setups.append(
            meter.at_reference(
                Elapsed(perf_counter() - started, thread_time() - cpu_started)
            )
        )
    try:
        scenario.load_reference()
        rounds = []
        if not quick:
            scenario.round(0)  # warm-up, verified but not measured
        attempted_before = scenario.attempted
        deadline = perf_counter() + (0.0 if quick else seconds)
        # a corrupted output ends its round, so each fault needs its own
        min_rounds = 1 + len(faults) if quick else 3
        while len(rounds) < min_rounds or perf_counter() < deadline:
            rounds.append(scenario.round(len(rounds) + 1))
        ops_per_round = (scenario.attempted - attempted_before) // len(rounds)
        peak_rss = scenario.peak_rss_mb()
    finally:
        scenario.stop()

    complete = [v for v in rounds if v is not None]
    if not complete:
        raise RuntimeError(f"no round completed: {scenario.errors}")
    metrics = {
        name: summarize([fn(v, scenario.raw_mb) for v in complete])
        for name, fn in _PER_ROUND.items()
    }
    metrics["setup_s"] = summarize(setups)
    metrics["peak_rss_mb"] = summarize([peak_rss])
    return {
        "rounds": len(rounds),
        "ops_per_round": ops_per_round,
        "attempted": scenario.attempted,
        "failed": scenario.failed,
        "errors": scenario.errors,
        "slowdown_client": summarize([v["slowdown"] for v in complete]),
        "slowdown_server": summarize([v["slowdown_server"] for v in complete]),
        "metrics": metrics,
    }


def _traced(spec, seed, seconds, quick, scratch, server_cpu, out_dir) -> dict:
    """Alternate untraced and traced rounds, replay, probe; see layers.py."""
    tracer = Tracer()
    scenario = Scenario(
        spec, seed, scratch, quick=quick, tracer=tracer, server_cpu=server_cpu
    )
    try:
        facts = traced_run(
            scenario,
            0.0 if quick else seconds,
            min_rounds=2 if quick else 4,
        )
    finally:
        scenario.stop()
    spans = tracer.spans
    values = layer_metrics(scenario, facts, spans)
    trace_path = os.path.join(out_dir, f"trace-{spec.name}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "start", "end", "parent", "op_id"],
                "spans": [list(span[:5]) for span in spans],
            },
            fh,
        )
    unaccounted = values["compressor.tiled.unaccounted_frac"]
    if unaccounted > 0.15 and not quick:
        print(
            f"warning: {unaccounted:.0%} of compressor.tiled.compress is "
            "in no child span",
            file=sys.stderr,
        )
    return {
        "rounds": len(facts["rounds"]),
        "attempted": scenario.attempted,
        "failed": scenario.failed,
        "errors": scenario.errors,
        "trace_file": trace_path,
        "metrics": {
            name: summarize([value]) for name, value in values.items()
        },
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: str,
    quick: bool = False,
    faults: tuple[str, ...] = (),
    pin: bool = True,
) -> dict:
    """One workload in this process; returns (and writes) its record."""
    spec = _SPECS[name]
    os.makedirs(out_dir, exist_ok=True)
    affinity = sorted(os.sched_getaffinity(0))
    server_cpu = _split_cores() if pin else None
    env = environment(affinity)
    scratch = tempfile.mkdtemp(prefix=f"scratch-{name}-", dir=out_dir)
    try:
        if trace:
            record = _traced(
                spec, seed, seconds, quick, scratch, server_cpu, out_dir
            )
        else:
            record = _untraced(
                spec, seed, seconds, quick, scratch, server_cpu, faults
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if pin:
            os.sched_setaffinity(0, affinity)
    declared = [m[0] for m in (PER_LAYER if trace else END_TO_END)]
    if sorted(record["metrics"]) != sorted(declared):
        raise RuntimeError("emitted metrics differ from the declared ones")
    record["metrics"] = {
        name: dict(record["metrics"][name], unit=unit_of(name))
        for name in declared
    }
    env["loadavg_end"] = _loadavg()
    record.update(
        workload=name, seed=seed, seconds=seconds, trace=int(trace),
        quick=quick, correct=record["failed"] == 0, env=env,
    )
    path = os.path.join(out_dir, f"run-{name}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(record: dict) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        spread = ""
        if entry["n"] > 1:
            spread = (
                f"  (min {entry['min']:.6g}, iqr {entry['iqr']:.3g}, "
                f"n {entry['n']})"
            )
        print(f"{name:18s} {metric:46s} {entry['value']:.6g} {entry['unit']}{spread}")
    for error in record["errors"]:
        print(f"{name}: FAILED {error}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    metric: {"value": entry["value"], "unit": entry["unit"]}
                    for metric, entry in record["metrics"].items()
                },
            }
        ),
        flush=True,
    )


# -- the whole set ---------------------------------------------------------------


def _spawn_workload(name: str, args, seed: int, trace: int) -> dict | None:
    """One workload in a fresh process; ``None`` if it failed or hung."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out", args.out,
    ] + (["--quick"] if args.quick else [])
    proc = subprocess.Popen(command)  # it prints its own metrics
    try:
        code = proc.wait(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM first: the child stops its server on the way out
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        print(f"{name}: FAILED timed out after {WORKLOAD_TIMEOUT_S:.0f}s")
        return None
    if code != 0:
        print(f"{name}: FAILED exit code {code}")
        return None
    path = os.path.join(args.out, f"run-{name}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _pooled(records: list[dict]) -> dict:
    """Metrics of several runs of one workload: median and spread over runs.

    One run keeps its own spread over rounds.
    """
    if len(records) == 1:
        return records[0]["metrics"]
    return {
        name: dict(
            summarize([r["metrics"][name]["value"] for r in records]),
            unit=entry["unit"],
        )
        for name, entry in records[0]["metrics"].items()
    }


def run_set(args) -> int:
    """Every workload, each run in its own process; writes the result file.

    ``--repeats N`` runs each workload on seeds ``seed .. seed+N-1`` and
    pools them; the traced run is made once, on the first seed.
    """
    os.makedirs(args.out, exist_ok=True)
    names = [args.workload] if args.workload else list(_SPECS)
    result = {
        "seed": args.seed, "repeats": args.repeats, "seconds": args.seconds,
        "workloads": {},
    }
    ok = True
    for name in names:
        entry = result["workloads"][name] = {"runs": []}
        sections = {"end_to_end": [], "per_layer": []}
        plan = [(args.seed + i, 0) for i in range(args.repeats)]
        if args.traced:
            plan.append((args.seed, 1))
        for seed, trace in plan:
            record = _spawn_workload(name, args, seed, trace)
            if record is None:
                ok = False
                continue
            ok = ok and record["correct"]
            section = "per_layer" if trace else "end_to_end"
            sections[section].append(record)
            entry["runs"].append(
                {k: v for k, v in record.items() if k != "metrics"}
            )
            print(
                f"{name:18s} {section} seed {seed}: {record['rounds']} rounds, "
                f"{record['attempted']} operations, {record['failed']} failed"
            )
        for section, records in sections.items():
            if records:
                entry[section] = _pooled(records)
    path = os.path.join(args.out, f"ledger-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"wrote {path}")
    return 0 if ok else 1


# -- compare ---------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """B against A, metric by metric; non-zero exit on any ``worse``."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)["workloads"]
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)["workloads"]
    worse = 0
    print(
        f"{'workload':18s} {'metric':22s} {'A':>12s} {'B':>12s} "
        f"{'B vs A':>8s} {'bound':>6s}  verdict"
    )
    for name in a:
        if name not in b:
            continue
        for metric, _, _, bound in END_TO_END:
            ea = a[name].get("end_to_end", {}).get(metric)
            eb = b[name].get("end_to_end", {}).get(metric)
            if ea is None or eb is None:
                continue
            change = (eb["value"] - ea["value"]) / abs(ea["value"])
            loss = -change if better_of(metric) == "higher" else change
            spread = max(e["iqr"] / abs(e["value"]) for e in (ea, eb))
            if spread > bound:
                verdict = "unresolved"
            elif loss > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(
                f"{name:18s} {metric:22s} {ea['value']:12.5g} "
                f"{eb['value']:12.5g} {change:+8.1%} {bound:6.0%}  {verdict}"
            )
    return 1 if worse else 0


# -- self-check ------------------------------------------------------------------


def selfcheck(out_dir: str) -> int:
    """A corrupted decode and a corrupted response must both be counted.

    Each ends its round as one failed operation; the third round is
    clean and completes, so the verifier neither misses a wrong output
    nor rejects a right one.
    """
    record = run_workload(
        "serve_hot", 0, 0.0, False, out_dir, quick=True, pin=False,
        faults=("decode", "served"),
    )
    ok = record["failed"] == 2 and not record["correct"] and record["rounds"] == 3
    print(
        f"selfcheck: {record['failed']} of {record['attempted']} operations "
        f"counted as failed after corrupting 2: {'ok' if ok else 'BROKEN'}"
    )
    return 0 if ok else 1


# -- command line ----------------------------------------------------------------


def _terminate(signum, _frame):
    raise SystemExit(f"ledger: signal {signum}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(_SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="run one workload in this process: 0 untraced, 1 traced",
    )
    parser.add_argument(
        "--traced", action="store_true",
        help="set mode: follow each workload with its traced run",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="set mode: runs per workload, on consecutive seeds, pooled",
    )
    parser.add_argument("--quick", action="store_true", help="tiny fields, one round")
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    args.out = os.path.abspath(args.out)

    if args.compare:
        return compare(*args.compare)
    # a killed run must still stop its server and remove its scratch
    signal.signal(signal.SIGTERM, _terminate)
    if args.selfcheck:
        return selfcheck(args.out)
    if args.trace is None:
        return run_set(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    if args.trace and os.environ.get("PYTHONHASHSEED") != "0":
        # the in-process replay must shard its tile cache exactly as the
        # server does, and shards are picked by hash() of a str
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.out, quick=args.quick,
    )
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
