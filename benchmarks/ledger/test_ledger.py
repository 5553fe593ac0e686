"""Tier-1 checks of the ledger itself: names, arithmetic, a quick pass.

The quick passes use tiny fields and one round, so they check that
every workload runs end to end and verifies its outputs — not how fast.
"""

from __future__ import annotations

import json
import math
import os
import re

import pytest

import run
from metrics import END_TO_END, PER_LAYER
from spans import Span, percentile, roots, self_times, tail_percentile
from workloads import WORKLOADS

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_units_and_counts_fit_the_contract():
    names = (
        [w.name for w in WORKLOADS]
        + [m[0] for m in END_TO_END]
        + [m[0] for m in PER_LAYER]
    )
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m[1]) for m in END_TO_END + PER_LAYER)
    assert all(m[2] in ("higher", "lower") for m in END_TO_END + PER_LAYER)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    assert all(0 < bound <= 0.25 for *_, bound in END_TO_END)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)
    assert ("setup_s", "s", "lower") in [m[:3] for m in END_TO_END]


def test_manifest_lists_exactly_what_the_runner_emits():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert sorted(manifest) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert manifest["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert manifest["run_seconds"] == run.DEFAULT_SECONDS
    assert manifest["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS
    ]
    assert manifest["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
    ]


def test_self_time_is_the_span_minus_what_its_children_cover():
    #   0: root        0 .. 10
    #   1:   child a   1 .. 4        (3 s, holds 2)
    #   2:     leaf    2 .. 3        (1 s)
    #   3:   child b   5 .. 9        (4 s)
    #   4: second root 10 .. 12
    spans = [
        Span("root", 0.0, 10.0, -1, "op"),
        Span("a", 1.0, 4.0, 0, "op"),
        Span("leaf", 2.0, 3.0, 1, "op"),
        Span("b", 5.0, 9.0, 0, "op"),
        Span("root2", 10.0, 12.0, -1, "op2"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert sum(self_times(spans)[:4]) == spans[0].duration
    assert roots(spans) == [0, 0, 0, 0, 4]


def test_percentile_needs_ten_samples_beyond_it():
    hundred = list(range(100))
    with pytest.raises(ValueError):
        percentile(hundred, 95)  # 5 beyond
    assert percentile(hundred, 90) == 90
    assert percentile(list(range(1000)), 99) == 990
    assert tail_percentile(hundred) == (90.0, 90.0)
    assert tail_percentile(list(range(30))) == (50.0, 14.5)


def _check_quick_record(record, declared):
    assert list(record["metrics"]) == [m[0] for m in declared]
    for name, entry in record["metrics"].items():
        assert math.isfinite(entry["value"]), name
    assert record["attempted"] >= 10


# the other two workloads make their quick pass in the two tests below
@pytest.mark.parametrize(
    "workload",
    ["codec_bulk", "codec_adaptive", "serve_cold", "snapshot_ingest"],
)
def test_quick_pass_runs_and_verifies(workload, tmp_path):
    record = run.run_workload(
        workload, 0, 0.0, False, str(tmp_path), quick=True, pin=False
    )
    assert record["correct"] and record["failed"] == 0, record["errors"]
    _check_quick_record(record, END_TO_END)
    assert all(entry["value"] > 0 for entry in record["metrics"].values())
    assert os.listdir(tmp_path) == [f"run-{workload}-trace0.json"]


def test_quick_traced_pass_fills_every_layer(tmp_path):
    record = run.run_workload(
        "codec_small_tiles", 0, 0.0, True, str(tmp_path), quick=True, pin=False
    )
    assert record["correct"] and record["failed"] == 0, record["errors"]
    _check_quick_record(record, PER_LAYER)
    values = {name: e["value"] for name, e in record["metrics"].items()}
    assert values["compressor.tiled.tiles_encoded"] == 4
    assert values["compressor.encoders.huffman.plans_per_tile"] == 2
    assert 0 <= values["compressor.tiled.unaccounted_frac"] < 1
    with open(tmp_path / "trace-codec_small_tiles.json", encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["fields"] == ["name", "start", "end", "parent", "op_id"]
    assert len(trace["spans"][0]) == 5


def test_selfcheck_counts_corrupted_outputs_as_failed(tmp_path):
    # serve_hot, quick: two corrupted rounds counted, a clean one completes
    assert run.selfcheck(str(tmp_path)) == 0
    with open(tmp_path / "run-serve_hot-trace0.json", encoding="utf-8") as fh:
        _check_quick_record(json.load(fh), END_TO_END)
