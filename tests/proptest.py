"""Deterministic randomized property-test harness for the codec.

Hand-picked round-trip cases cover the combinations someone thought of;
this harness covers the ones nobody did.  A single integer seed
deterministically expands into a full compression case — dtype, shape
(rank 0..4 with prime-sized dims), field character, bound mode
(ABS/REL/PW_REL plus model-driven PSNR targeting), predictor, lossless
backend, tiling and adaptivity — and :func:`run_seed` asserts
the invariants every case must satisfy:

* the reconstruction honours the configured error bound (mode-aware:
  absolute, range-relative, point-wise relative with exact zeros, or
  the per-tile bounds of an adaptive plan);
* shape and dtype survive the round trip;
* a flat array's one-tile container and its stage sections framed as
  the retired flat (v2) writer did decode identically;
* a tiled container's full decode, full-region decode and random
  subregion decodes agree with each other, and region decodes touch
  only the intersecting tiles;
* a tiled container's reads decode its tiles as stacks: full and
  region decodes, on the serial, thread or process backend by seed,
  are byte for byte what ``decode_alone`` makes of each tile alone;
* temporal cases replay the case as a short snapshot chain: the bound
  holds on *every* snapshot (keyframe or delta), full decode and
  region decode of a temporal container are byte-identical, keyframes decode
  standalone while deltas demand their reference, and the keyframe
  cadence bounds the number of containers any version needs;
* on every path — one tile, tiled, adaptive, temporal — the reconstruction
  an encode surfaces on request is byte-for-byte the decode of what it
  wrote, and asking for it changes no written byte.

Failures re-raise with the seed and the full case description, so

    PROPTEST_SEED=<seed> python -m pytest tests/compressor/test_roundtrip_properties.py

reproduces any reported case exactly.  ``PROPTEST_COUNT=<n>`` widens
the sweep beyond the tier-1 default.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.compressor import (
    AdaptivePlanner,
    CompressionConfig,
    ErrorBoundMode,
    PlannerCache,
    TemporalCompressor,
    TiledCompressor,
)
from repro.compressor.container import TiledReader
from repro.compressor.tiled import intersect_extent, normalize_region
from tests.oracle import assert_same_verdict, tile_routes

__all__ = ["Case", "draw_case", "resolved_config", "check_case", "run_seed"]

#: prime-heavy dimension menu — primes exercise every edge-tile and
#: interpolation-level branch that power-of-two shapes hide
DIM_MENU = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23)

#: cap on the generated array size (keeps a full sweep in seconds)
MAX_POINTS = 6000

#: slack on the measured PSNR of model-targeted cases: the model is an
#: estimator, not a guarantee — the hard guarantee stays the absolute
#: bound it derives
PSNR_SLACK_DB = 6.0


@dataclass(frozen=True)
class Case:
    """One generated compression scenario."""

    seed: int
    data: np.ndarray
    config: CompressionConfig
    kind: str
    #: parallel width of the tiled front end
    workers: int
    #: PSNR the error bound was model-derived for (None = direct bound)
    psnr_target: float | None = None
    #: the adaptive planner's fit-reuse cap (None = its default)
    fit_clusters: int | None = None

    def planner(self) -> AdaptivePlanner:
        """The planner an adaptive case plans with."""
        if self.fit_clusters is None:
            return AdaptivePlanner()
        return AdaptivePlanner(fit_clusters=self.fit_clusters)

    def describe(self) -> str:
        cfg = self.config
        return (
            f"seed={self.seed} kind={self.kind} shape={self.data.shape} "
            f"dtype={self.data.dtype} mode={cfg.mode.value} "
            f"eb={cfg.error_bound:.4g} predictor={cfg.predictor} "
            f"lossless={cfg.lossless} "
            f"tile={cfg.tile_shape} adaptive={cfg.adaptive} "
            f"fit_clusters={self.fit_clusters} temporal={cfg.temporal} "
            f"workers={self.workers} psnr_target={self.psnr_target}"
        )


# -- case generation -----------------------------------------------------------


def _draw_shape(rng: np.random.Generator) -> tuple[int, ...]:
    ndim = int(rng.choice([0, 1, 1, 2, 2, 2, 3, 3, 4]))
    while True:
        shape = tuple(
            int(rng.choice(DIM_MENU)) for _ in range(ndim)
        )
        if int(np.prod(shape)) <= MAX_POINTS if shape else True:
            return shape


def _draw_field(
    rng: np.random.Generator, shape: tuple[int, ...], kind: str
) -> np.ndarray:
    n = int(np.prod(shape)) if shape else 1
    if kind == "constant":
        return np.full(shape, float(rng.normal(0.0, 5.0)))
    if kind == "sparse":
        data = np.zeros(n)
        hot = rng.random(n) < 0.15
        data[hot] = rng.normal(0.0, 3.0, size=int(hot.sum()))
        return data.reshape(shape)
    if kind == "noise":
        return rng.normal(0.0, 1.0, size=shape)
    # smooth: separable sinusoid + mild noise, optionally offset so
    # PW_REL sees data away from zero
    field = np.ones(shape)
    for axis, dim in enumerate(shape):
        axis_shape = [1] * len(shape)
        axis_shape[axis] = dim
        wave = np.sin(
            np.linspace(0.0, float(rng.uniform(2, 9)), dim)
            + float(rng.uniform(0, 2))
        )
        field = field * wave.reshape(axis_shape)
    field = field + 0.02 * rng.normal(size=shape)
    if kind == "smooth_offset":
        field = field + float(rng.uniform(2.0, 10.0))
    return field


def draw_case(seed: int) -> Case:
    """Expand *seed* into a deterministic compression case."""
    rng = np.random.default_rng(seed)
    shape = _draw_shape(rng)
    kind = str(
        rng.choice(
            ["smooth", "smooth", "smooth_offset", "noise", "sparse", "constant"]
        )
    )
    dtype = np.dtype(str(rng.choice(["f4", "f8"])))
    data = _draw_field(rng, shape, kind).astype(dtype)

    predictor = str(
        rng.choice(["lorenzo", "lorenzo", "interpolation", "regression"])
    )
    lossless = rng.choice(["zstd_like", "gzip_like", "rle", "none"])
    lossless = None if lossless == "none" else str(lossless)
    # the draws of the retired chunk_size, discarded: every seed keeps
    # expanding to the case it always did, minus chunking
    if rng.random() < 0.4:
        rng.integers(64, 1500)

    mode = ErrorBoundMode(str(rng.choice(["abs", "abs", "rel", "pw_rel"])))
    vrange = float(data.max() - data.min()) if data.size else 0.0
    if mode is ErrorBoundMode.ABS:
        scale = vrange if vrange > 0 else 1.0
        error_bound = scale * 10.0 ** float(rng.uniform(-4, -1))
    else:
        error_bound = 10.0 ** float(rng.uniform(-4, -2))

    tile_shape = None
    adaptive = False
    fit_clusters = None
    if len(shape) >= 1 and all(dim >= 1 for dim in shape):
        if rng.random() < 0.7:
            tile_shape = tuple(
                int(rng.integers(1, dim + 1)) for dim in shape
            )
            adaptive = (
                mode is not ErrorBoundMode.PW_REL
                and data.size > 0
                and vrange > 0
                and rng.random() < 0.2
            )
            if adaptive:
                # sweep the fit-reuse spectrum: planner default,
                # per-tile fits, and aggressive single-cluster sharing
                menu = (None, 0, 1, 4, 12)
                fit_clusters = menu[int(rng.integers(0, len(menu)))]

    psnr_target = None
    if (
        mode is ErrorBoundMode.ABS
        and not adaptive
        and kind in ("smooth", "smooth_offset", "noise")
        and data.size >= 512
        and vrange > 0
        and rng.random() < 0.25
    ):
        psnr_target = float(rng.uniform(45.0, 75.0))

    # drawn last so every earlier draw matches pre-temporal seeds
    temporal = (
        mode is not ErrorBoundMode.PW_REL
        and not adaptive
        and len(shape) >= 1
        and data.size > 0
        and np.issubdtype(data.dtype, np.floating)
        and rng.random() < 0.15
    )

    config = CompressionConfig(
        predictor=predictor,
        mode=mode,
        error_bound=error_bound,
        lossless=lossless,
        tile_shape=tile_shape,
        adaptive=adaptive,
        temporal=temporal,
    )
    workers = int(rng.choice([1, 1, 3]))
    return Case(
        seed=seed,
        data=data,
        config=config,
        kind=kind,
        workers=workers,
        psnr_target=psnr_target,
        fit_clusters=fit_clusters,
    )


# -- invariant checks ----------------------------------------------------------


def _assert_bound(
    data: np.ndarray,
    recon: np.ndarray,
    config: CompressionConfig,
    error_bound: float,
) -> None:
    """Mode-aware bound check with one-ULP slack for f4 storage."""
    if data.size == 0:
        return
    a = np.asarray(data, dtype=np.float64)
    b = np.asarray(recon, dtype=np.float64)
    ulp = 0.0
    if np.asarray(recon).dtype == np.float32:
        ulp = float(np.max(np.abs(b))) * float(np.finfo(np.float32).eps)
    if config.mode is ErrorBoundMode.PW_REL:
        zeros = a == 0
        assert np.array_equal(b[zeros], a[zeros]), "zeros must be exact"
        rel = np.abs(b[~zeros] / a[~zeros] - 1.0)
        if rel.size:
            rel_ulp = float(np.finfo(np.float32).eps) if ulp else 0.0
            assert float(rel.max()) <= error_bound * (1 + 1e-6) + rel_ulp, (
                f"PW_REL bound violated: {float(rel.max()):.3e} > "
                f"{error_bound:.3e}"
            )
        return
    if config.mode is ErrorBoundMode.REL:
        error_bound = error_bound * float(a.max() - a.min())
    max_err = float(np.max(np.abs(a - b)))
    assert max_err <= error_bound * (1 + 1e-9) + ulp, (
        f"bound violated: max err {max_err:.3e} > eb {error_bound:.3e}"
    )


def _assert_surfaced(surfaced: np.ndarray | None, recon: np.ndarray) -> None:
    """The encode's own reconstruction is exactly the decode."""
    assert surfaced is not None, "stock stages always surface"
    assert surfaced.dtype == recon.dtype and surfaced.shape == recon.shape
    assert surfaced.tobytes() == recon.tobytes(), (
        "surfaced reconstruction differs from the decode"
    )


def _check_tiled(case: Case, flat_recon: np.ndarray) -> None:
    """Tiled round-trip + region-decode invariants."""
    rng = np.random.default_rng(case.seed + 1)
    data, config = case.data, case.config
    tc = TiledCompressor(workers=case.workers, planner=case.planner())
    result = tc.compress(data, config, reconstruct=True)

    recon = tc.decompress(result.blob)
    assert recon.shape == data.shape and recon.dtype == data.dtype
    _assert_surfaced(result.reconstruction, recon)
    # reads decode their tiles as stacks: recon (serial for one worker,
    # threaded for more), and a full and a region decode on the
    # backend the seed picks, are what every tile decodes to alone
    backend = ("serial", "thread", "process")[case.seed % 3]
    routes = tile_routes(
        result.blob, backends=[backend], names=("decode_alone", "decompress")
    )
    assert_same_verdict({"the case's decode": lambda: recon, **routes})
    middle = tuple(slice(n // 4, n - n // 4) for n in data.shape)
    region = TiledCompressor(workers=2, backend=backend).decompress_region
    assert_same_verdict(
        {
            "the case's decode": lambda: recon[middle],
            "decompress_region": lambda: region(result.blob, middle),
        }
    )
    if config.adaptive and result.plan is not None:
        # every tile honours its own allocated absolute bound
        for choice in result.plan.choices:
            slc = tuple(
                slice(a, b) for a, b in zip(choice.start, choice.stop)
            )
            _assert_bound(
                data[slc],
                recon[slc],
                replace(config, mode=ErrorBoundMode.ABS),
                choice.error_bound,
            )
        _check_plan_quality(case, recon, result.plan)
        _check_cached_plan(case, recon, result.plan)
    else:
        _assert_bound(data, recon, config, config.error_bound)

    if data.size == 0:
        return
    # full-region decode equals the full decode
    full_region = tuple(slice(0, n) for n in data.shape)
    np.testing.assert_array_equal(
        tc.decompress_region(result.blob, full_region), recon
    )
    # random subregions decode to exactly the full decode's slice,
    # touching only the intersecting tiles
    for _ in range(3):
        region = tuple(
            slice(lo, int(rng.integers(lo, n + 1)))
            for n, lo in ((n, int(rng.integers(0, n))) for n in data.shape)
        )
        roi = tc.decompress_region(result.blob, region)
        np.testing.assert_array_equal(roi, recon[region])
        hits = sum(
            intersect_extent(
                t.start, t.stop, normalize_region(region, data.shape)
            )
            is not None
            for t in result.tiles
        )
        assert tc.last_tiles_decoded == hits


def _check_plan_quality(
    case: Case, recon: np.ndarray, plan
) -> None:
    """Clustered plans must still deliver the aggregate PSNR target.

    The planner trades per-tile fits for shared cluster fits; that may
    cost bitrate optimality but never the quality floor — the measured
    aggregate PSNR stays within the estimator's slack of the target the
    uniform nominal config would have achieved.
    """
    data = case.data
    if (
        data.size < 512
        or not np.isfinite(plan.target_psnr)
        or case.kind not in ("smooth", "smooth_offset", "noise")
    ):
        return
    from repro.analysis.metrics import psnr

    measured = psnr(data, recon)
    assert measured >= plan.target_psnr - PSNR_SLACK_DB, (
        f"adaptive plan missed its aggregate PSNR target: "
        f"{measured:.1f} dB for a {plan.target_psnr:.1f} dB target"
    )


def _check_cached_plan(
    case: Case, recon: np.ndarray, plan
) -> None:
    """Plan-cache round trip: the replayed plan is the plan.

    A second compression through the same cache must hit, reuse the
    exact per-tile choices, and decode to exactly what the fresh plan's
    container decodes to.  (The raw blobs are not compared: the header
    records the cache status, which legitimately differs between the
    miss and hit runs.)
    """
    data, config = case.data, case.config
    cache = PlannerCache()
    tc = TiledCompressor(
        workers=case.workers, planner=case.planner(), plan_cache=cache
    )
    first = tc.compress(data, config, dataset="prop")
    second = tc.compress(data, config, dataset="prop")
    assert first.plan is not None and second.plan is not None
    assert first.plan.stats.cache == "miss"
    assert second.plan.stats.cache == "hit"
    assert [c.to_json() for c in second.plan.choices] == [
        c.to_json() for c in plan.choices
    ]
    np.testing.assert_array_equal(tc.decompress(second.blob), recon)


def _check_temporal(case: Case) -> None:
    """Replay the case as a 3-snapshot chain through the v6 codec.

    Keyframe cadence 2, so the chain is KF, delta, KF: every version
    must honour the bound against its *own* snapshot, v6 full and
    region decodes must agree byte-for-byte, keyframes must decode
    standalone, and a delta must refuse to decode without the decoded
    reference its header names.
    """
    data, config = case.data, case.config
    rng = np.random.default_rng(case.seed + 2)
    scale = float(np.max(np.abs(data))) if data.size else 1.0
    scale = scale if scale > 0 else 1.0
    snaps = [data]
    for _ in range(2):
        drift = 0.03 * scale * rng.standard_normal(data.shape)
        snaps.append((snaps[-1] + drift).astype(data.dtype))

    interval = 2
    tc = TemporalCompressor(workers=case.workers)
    previous = None
    for index, snap in enumerate(snaps):
        keyframe = index % interval == 0
        result = tc.compress_snapshot(
            snap,
            config,
            reference=None if keyframe else previous,
            ref_id=None if keyframe else f"v{index - 1}",
            snapshot_index=index,
            reconstruct=True,
        )
        if keyframe:
            # the cadence bounds chain depth: keyframes decode
            # standalone, so no version walks past its keyframe
            assert result.keyframe
            assert result.blob[4] != 6
        reference = None if result.keyframe else previous
        recon = tc.decompress(result.blob, reference=reference)
        assert recon.shape == snap.shape and recon.dtype == snap.dtype
        _assert_bound(snap, recon, config, config.error_bound)
        _assert_surfaced(result.reconstruction, recon)

        full_region = tuple(slice(0, n) for n in snap.shape)
        np.testing.assert_array_equal(
            tc.decompress_region(
                result.blob, full_region, reference=reference
            ),
            recon,
        )
        region = tuple(
            slice(lo, int(rng.integers(lo, n + 1)))
            for n, lo in (
                (n, int(rng.integers(0, n))) for n in snap.shape
            )
        )
        np.testing.assert_array_equal(
            tc.decompress_region(
                result.blob, region, reference=reference
            ),
            recon[region],
        )
        if not result.keyframe and any(
            record.temporal for record in result.tiles
        ):
            assert result.blob[4] == 7 and TiledReader(result.blob).temporal
            try:
                tc.decompress(result.blob)
            except ValueError:
                pass
            else:
                raise AssertionError(
                    "delta decoded without its reference"
                )
        previous = recon


def resolved_config(case: Case) -> CompressionConfig:
    """*case*'s config, its bound model-derived if it targets a PSNR."""
    if case.psnr_target is None:
        return case.config
    from repro.core.model import RatioQualityModel

    model = RatioQualityModel(
        predictor=case.config.predictor, seed=case.seed
    ).fit(case.data)
    return replace(
        case.config, error_bound=model.error_bound_for_psnr(case.psnr_target)
    )


def check_case(case: Case) -> None:
    """Assert every round-trip invariant of *case*."""
    data, config = case.data, resolved_config(case)
    error_bound = config.error_bound

    flat_config = replace(
        config, tile_shape=None, adaptive=False, temporal=False
    )
    tc = TiledCompressor()
    result = tc.compress(data, flat_config)
    recon = tc.decompress(result.blob)
    assert recon.shape == data.shape and recon.dtype == data.dtype
    _assert_bound(data, recon, flat_config, error_bound)
    surfaced = tc.compress(data, flat_config, reconstruct=True)
    assert surfaced.blob == result.blob
    _assert_surfaced(surfaced.reconstruction, recon)

    if case.psnr_target is not None and data.size:
        from repro.analysis.metrics import psnr

        measured = psnr(data, recon)
        assert measured >= case.psnr_target - PSNR_SLACK_DB, (
            f"model-targeted PSNR too low: {measured:.1f} dB for a "
            f"{case.psnr_target:.1f} dB target"
        )

    # the read-only flat path decodes the same sections identically
    from tests.conftest import forge_v2

    np.testing.assert_array_equal(
        tc.decompress(forge_v2(data, flat_config)), recon
    )

    if config.tile_shape is not None and data.ndim >= 1:
        _check_tiled(
            replace(case, config=replace(config, temporal=False)),
            recon,
        )

    if config.temporal:
        _check_temporal(replace(case, config=config))


def run_seed(seed: int) -> None:
    """Generate and check one case; failures carry the reproduction."""
    case = draw_case(seed)
    try:
        check_case(case)
    except Exception as exc:
        raise AssertionError(
            f"property case failed [{case.describe()}]\n"
            f"reproduce with: PROPTEST_SEED={seed} python -m pytest "
            f"tests/compressor/test_roundtrip_properties.py\n{exc}"
        ) from exc
