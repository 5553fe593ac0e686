"""Figure 13: per-snapshot bit-rate & PSNR — model vs offline worst-case.

The streaming comparison behind the data-management experiment: a
sequence of RTM snapshots is compressed (a) with the traditional offline
worst-case bound chosen once for all snapshots and (b) in-situ with the
model targeting PSNR >= 56 dB per snapshot.  The paper's shape: the
offline bound wildly overshoots the quality target on most snapshots
(wasting bits), while the model's bit-rate stays low and the PSNR hugs
the target.

Every codec here is built through :class:`~repro.factory.CodecFactory`,
so the same harness exercises the flat pipeline and — via a factory
variant whose base config sets ``temporal`` — the snapshot stream delta
mode, whose per-snapshot rate/PSNR rides along as a third arm in the
table.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.metrics import psnr
from repro.datasets import wave_snapshots
from repro.factory import CodecFactory
from repro.usecases.baselines import offline_worst_case_error_bound
from repro.usecases.insitu import SnapshotPipeline
from repro.utils.tables import format_table

TARGET_PSNR = 56.0


@pytest.fixture(scope="module")
def experiment():
    snaps = wave_snapshots(
        (40, 40, 40), n_snapshots=8, steps_between=8, seed=29
    )
    vranges = [float(np.ptp(s)) for s in snaps]
    candidates = [
        max(vranges) * 10 ** (-e) for e in (1.0, 2.0, 3.0, 4.0, 5.0)
    ]
    factory = CodecFactory()
    offline = offline_worst_case_error_bound(
        list(snaps), factory.config(candidates[0]), candidates, TARGET_PSNR
    )
    sz = factory.tiled_compressor()
    rows = []
    pipeline = SnapshotPipeline(target_psnr=TARGET_PSNR, factory=factory)
    stream = SnapshotPipeline(
        target_psnr=TARGET_PSNR,
        factory=replace(
            factory,
            base=replace(factory.base, temporal=True),
            keyframe_interval=4,
        ),
    )
    for i, snap in enumerate(snaps):
        result = sz.compress(
            snap, factory.config(offline.chosen_error_bound)
        )
        recon = sz.decompress(result.blob)
        trad_rate, trad_psnr = result.bit_rate, psnr(snap, recon)
        record = pipeline.process(snap)
        srec = stream.process(snap)
        rows.append(
            (
                i,
                trad_rate,
                trad_psnr,
                record.bit_rate,
                record.psnr,
                srec.bit_rate,
                srec.psnr,
                "KF" if srec.keyframe else "d",
            )
        )
    return rows, stream.records


def test_fig13(benchmark, experiment, report):
    rows, stream_records = experiment
    report(
        format_table(
            [
                "snapshot",
                "offline b/pt",
                "offline PSNR",
                "model b/pt",
                "model PSNR",
                "stream b/pt",
                "stream PSNR",
                "kind",
            ],
            rows,
            float_spec=".2f",
            title=(
                "Figure 13: per-snapshot rate/quality, offline "
                f"worst-case vs in-situ model (target {TARGET_PSNR} dB)."
                "\nExpected shape: offline PSNR far above target on "
                "most snapshots; model PSNR hugs the target at a "
                "consistently lower bit-rate.  The stream arm is the "
                "same in-situ policy through the v6 temporal delta "
                "codec (KF=keyframe, d=delta)."
            ),
        )
    )
    trad_rate = np.array([r[1] for r in rows])
    trad_psnr = np.array([r[2] for r in rows])
    model_rate = np.array([r[3] for r in rows])
    model_psnr = np.array([r[4] for r in rows])
    stream_rate = np.array([r[5] for r in rows])
    stream_psnr = np.array([r[6] for r in rows])
    temporal_tiles = sum(r.temporal_tiles for r in stream_records)
    spatial_tiles = sum(r.spatial_tiles for r in stream_records)
    report(
        f"mean bits/pt: offline {trad_rate.mean():.3f} vs model "
        f"{model_rate.mean():.3f} vs stream {stream_rate.mean():.3f} | "
        f"PSNR overshoot: offline "
        f"{(trad_psnr - TARGET_PSNR).mean():+.1f} dB vs model "
        f"{(model_psnr - TARGET_PSNR).mean():+.1f} dB | stream tiles: "
        f"{temporal_tiles} temporal / {spatial_tiles} spatial"
    )
    # every snapshot meets the target under all three policies
    assert np.all(trad_psnr >= TARGET_PSNR - 1.0)
    assert np.all(model_psnr >= TARGET_PSNR - 2.0)
    assert np.all(stream_psnr >= TARGET_PSNR - 2.0)
    # the model spends fewer bits and overshoots less
    assert model_rate.mean() < trad_rate.mean()
    assert (model_psnr - TARGET_PSNR).mean() < (
        trad_psnr - TARGET_PSNR
    ).mean()
    # the stream arm also undercuts the offline bound, and its chain
    # actually interleaves deltas between keyframes
    assert stream_rate.mean() < trad_rate.mean()
    assert any(not r.keyframe for r in stream_records)

    snap = wave_snapshots((32, 32, 32), 3, steps_between=10, seed=31)[-1]
    pipe = SnapshotPipeline(
        target_psnr=TARGET_PSNR, factory=CodecFactory()
    )
    benchmark(lambda: pipe.process(snap))
