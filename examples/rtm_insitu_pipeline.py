"""RTM in-situ pipeline: model-guided snapshot dumping into HDF5-like storage.

Reproduces the paper's flagship workflow (§V-F): a reverse-time-migration
simulation emits wavefield snapshots; each is compressed with an error
bound chosen *in situ* by the ratio-quality model for a target PSNR and
written to a chunked, filtered container — no trial-and-error runs.

The same sequence is also stored with the traditional offline worst-case
bound to show the bit savings.

Run:  python examples/rtm_insitu_pipeline.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro import CompressionConfig, TiledCompressor
from repro.analysis import psnr
from repro.datasets import wave_snapshots
from repro.storage import H5LikeFile
from repro.usecases import SnapshotPipeline, offline_worst_case_error_bound
from repro.utils import format_table

TARGET_PSNR = 56.0


def main() -> None:
    print("running the acoustic FDTD forward model ...")
    snaps = wave_snapshots(
        (48, 48, 48), n_snapshots=6, steps_between=10, seed=7
    )

    # -- traditional offline study: one worst-case bound for everything
    vrange = max(float(np.ptp(s)) for s in snaps)
    candidates = [vrange * 10 ** (-e) for e in (1, 2, 3, 4, 5)]
    offline = offline_worst_case_error_bound(
        list(snaps), CompressionConfig(), candidates, TARGET_PSNR
    )
    print(
        f"offline worst-case bound (5 candidates x {len(snaps)} "
        f"snapshots profiled): {offline.chosen_error_bound:.4g}"
    )

    # -- in-situ model-guided pipeline, writing into the container
    pipeline = SnapshotPipeline(target_psnr=TARGET_PSNR)
    sz = TiledCompressor()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rtm.rqh5")
        rows = []
        with H5LikeFile(path, "w") as store:
            for i, snap in enumerate(snaps):
                record = pipeline.process(snap)
                store.create_dataset(
                    f"snapshot_{i:03d}",
                    snap,
                    CompressionConfig(error_bound=record.error_bound),
                    attrs={"step": i, "target_psnr": TARGET_PSNR},
                )
                trad = sz.compress(
                    snap,
                    CompressionConfig(
                        error_bound=offline.chosen_error_bound
                    ),
                )
                rows.append(
                    (
                        i,
                        record.error_bound,
                        record.bit_rate,
                        record.psnr,
                        trad.bit_rate,
                    )
                )
        print(
            format_table(
                [
                    "snap",
                    "model eb",
                    "model b/pt",
                    "model PSNR",
                    "offline b/pt",
                ],
                rows,
                float_spec=".3g",
                title=f"\nper-snapshot decisions (target {TARGET_PSNR} dB)",
            )
        )
        size = os.path.getsize(path)
        raw = sum(int(s.nbytes) for s in snaps)
        print(
            f"\ncontainer: {size / 1024:.1f} KiB for {raw / 1024:.1f} KiB "
            f"raw ({raw / size:.1f}x)"
        )

        # verify a read-back snapshot honours its quality target
        with H5LikeFile(path, "r") as store:
            back = store.read_dataset("snapshot_005")
            quality = psnr(snaps[5], back)
            print(
                f"read-back check snapshot_005: PSNR {quality:.2f} dB "
                f"(target {TARGET_PSNR} dB), attrs {store.attrs('snapshot_005')}"
            )


if __name__ == "__main__":
    main()
