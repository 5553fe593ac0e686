"""Command-line interface: estimate, compress, decompress, inspect.

Entry point for the library's day-to-day workflow on ``.npy`` arrays::

    python -m repro estimate field.npy --predictor lorenzo --eb 1e-3
    python -m repro compress field.npy out.rqsz --psnr 60
    python -m repro compress big.npy out.rqsz --eb 1e-3 --tile 64,64,64
    python -m repro compress big.npy out.rqsz --eb 1e-3 --tile 64,64,64 \
        --adaptive
    python -m repro decompress out.rqsz back.npy
    python -m repro decompress out.rqsz roi.npy --region 0:32,16:48,:
    python -m repro inspect out.rqsz [--json]
    python -m repro datasets
    python -m repro generate Nyx temperature field.npy --scale 0.5
    python -m repro serve ./store --port 8765 --cache-mb 256
    python -m repro remote-put http://host:8765 pressure field.npy \
        --eb 1e-3 --tile 64,64
    python -m repro remote-put http://host:8765 wave snap_t.npy \
        --eb 1e-3 --snapshot --keyframe-interval 4
    python -m repro remote-read http://host:8765 pressure roi.npy \
        --region 0:32,16:48
    python -m repro remote-read http://host:8765 wave roi.npy \
        --region 0:32,16:48 --version 3
    python -m repro remote-read http://host:8765 wave series.npy \
        --region 0:32,16:48 --time-range 0:5
    python -m repro remote-stat http://host:8765 pressure --json

``compress`` accepts exactly one targeting flag: ``--eb`` (direct
bound), ``--ratio`` (model-derived bound for a target ratio) or
``--psnr`` (model-derived bound for a target quality).  Every compress
writes a v7 container from a memmap of the input; without ``--tile``
the whole array is its one tile, with ``--tile`` it is streamed
tile-by-tile with bounded memory; ``--adaptive`` additionally
runs the model-driven planner so every tile gets its own predictor,
bound and quantizer radius (a palette in the TOC; ``inspect`` prints
the per-tile choices); ``--region`` decodes only the tiles
intersecting the requested hyperslab.

The shared codec flags (``--predictor``, ``--mode``, ``--lossless``)
are defined once on a parent parser, so they land in every subcommand
that compresses or models data; :data:`~repro.compressor.config.CONFIG_TEXT`
spells them, ``--eb``, ``--tile`` and ``--adaptive`` as the ``PUT`` query.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro import obs
from repro.compressor import CompressionConfig, TiledCompressor
from repro.compressor.adaptive import DEFAULT_FIT_CLUSTERS
from repro.compressor.config import CONFIG_TEXT, parse_config_text
from repro.compressor.inspect import describe_container
from repro.compressor.tiled_geometry import parse_region_text
from repro.datasets import DATASETS, load_field
from repro.factory import CodecFactory
from repro.utils.tables import format_table

__all__ = ["main", "build_parser", "parse_region"]


def _codec_parent() -> argparse.ArgumentParser:
    """Shared ``--predictor``/``--mode``/``--lossless`` flags.

    Defined once so new codec flags land in every subcommand that uses
    this parent, instead of being copy-pasted per subparser; unset, a
    flag keeps the :class:`CompressionConfig` default.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for name, help_text in (
        ("predictor", "prediction scheme"),
        ("mode", "error-bound mode"),
        ("lossless", "lossless stage after Huffman ('none' disables it)"),
    ):
        parent.add_argument(
            f"--{name}", choices=CONFIG_TEXT[name].choices, help=help_text
        )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ratio-quality-modelled lossy compression for arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    codec = _codec_parent()
    tiling = argparse.ArgumentParser(add_help=False)
    tiling.add_argument(
        "--tile",
        metavar="T1,T2,...",
        help="tile shape for the tiled container (out-of-core "
        "streaming + region decode), e.g. 64,64,64",
    )
    tiling.add_argument(
        "--adaptive",
        action="store_const",
        const="1",
        help="model-driven per-tile configuration: each tile gets its "
        "own predictor/bound/radius at matched aggregate quality "
        "(palette in the TOC; requires --tile, abs/rel modes)",
    )

    est = sub.add_parser(
        "estimate", parents=[codec], help="model forecasts for an array"
    )
    est.add_argument("input", help=".npy array to profile")
    est.add_argument(
        "--eb",
        nargs="+",
        required=True,
        help="error bound(s) to estimate at",
    )

    comp = sub.add_parser(
        "compress", parents=[codec, tiling], help="compress a .npy array"
    )
    comp.add_argument("input", help=".npy array")
    comp.add_argument("output", help="destination .rqsz blob")
    group = comp.add_mutually_exclusive_group(required=True)
    group.add_argument("--eb", help="error bound")
    group.add_argument(
        "--ratio", type=float, help="target compression ratio (model)"
    )
    group.add_argument(
        "--psnr", type=float, help="target PSNR in dB (model)"
    )
    comp.add_argument(
        "--fit-clusters",
        type=int,
        default=DEFAULT_FIT_CLUSTERS,
        metavar="N",
        help="adaptive planning: cap on tile clusters sharing one "
        "model fit (0 fits every tile individually; default: "
        "%(default)s)",
    )
    comp.add_argument(
        "--plan-cache",
        default=None,
        metavar="PATH",
        help="adaptive planning: file-backed cross-snapshot plan "
        "cache; repeated compressions of the same input filename "
        "reuse the previous plan while its tile stats have not "
        "drifted",
    )
    comp.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel width for tile encoding; without --tile the "
        "one tile encodes serially (default: 1, or the machine's core "
        "count when --backend is given)",
    )
    comp.add_argument(
        "--backend",
        default=None,
        choices=["serial", "thread", "process"],
        help="execution backend for --workers > 1 ('process' scales "
        "across cores via a shared-memory worker pool; default "
        "'thread')",
    )

    dec = sub.add_parser("decompress", help="decompress a .rqsz blob")
    dec.add_argument("input", help=".rqsz blob")
    dec.add_argument("output", help="destination .npy")
    dec.add_argument(
        "--region",
        default=None,
        metavar="A:B,C:D,...",
        help="decode only this hyperslab (tiled containers read only "
        "the intersecting tiles), e.g. 0:32,16:48,:",
    )
    dec.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel width for tile decoding "
        "(default: 1, or the machine's core count when --backend "
        "is given)",
    )
    dec.add_argument(
        "--backend",
        default=None,
        choices=["serial", "thread", "process"],
        help="execution backend for --workers > 1",
    )

    ins = sub.add_parser("inspect", help="print a blob's header")
    ins.add_argument("input", help=".rqsz blob")
    ins.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output: one compact JSON document "
        "(container version, tile map, per-tile adaptive choices)",
    )
    ins.add_argument(
        "--verify",
        action="store_true",
        help="deep integrity check: re-checksum every tile payload "
        "(tiled containers); exits non-zero naming the first corrupt "
        "tile",
    )

    sub.add_parser("datasets", help="list the synthetic dataset suite")

    gen = sub.add_parser("generate", help="generate a synthetic field")
    gen.add_argument("dataset")
    gen.add_argument("field")
    gen.add_argument("output", help="destination .npy")
    gen.add_argument("--scale", type=float, default=1.0)

    srv = sub.add_parser(
        "serve",
        help="serve a store of compressed datasets over HTTP",
    )
    srv.add_argument("store", help="store directory (created if missing)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8765)
    srv.add_argument(
        "--cache-mb",
        type=float,
        default=256.0,
        help="decoded-tile LRU cache budget in MiB (0 disables caching)",
    )
    srv.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel width for dataset puts and cache-miss decodes",
    )
    srv.add_argument(
        "--backend",
        default=None,
        choices=["serial", "thread", "process"],
        help="codec execution backend ('process' keeps cache-miss "
        "decodes off the serving threads)",
    )
    srv.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="concurrent-request cap; beyond it requests get 503 + "
        "Retry-After instead of queuing (default: unbounded)",
    )
    srv.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to wait for in-flight requests on SIGTERM "
        "before exiting anyway",
    )

    rput = sub.add_parser(
        "remote-put",
        parents=[codec, tiling],
        help="compress a .npy array into a remote store",
    )
    rput.add_argument("url", help="server base URL, e.g. http://host:8765")
    rput.add_argument("name", help="dataset name")
    rput.add_argument("input", help=".npy array to upload")
    rput.add_argument("--eb", required=True, help="error bound")
    rput.add_argument(
        "--overwrite",
        action="store_true",
        help="replace the dataset if it already exists",
    )
    rput.add_argument(
        "--snapshot",
        action="store_true",
        help="append as one version of the dataset's snapshot chain "
        "(temporal delta against the previous version, keyframes at "
        "the chain's cadence) instead of creating/replacing it",
    )
    rput.add_argument(
        "--keyframe-interval",
        type=int,
        default=None,
        metavar="N",
        help="with --snapshot: every Nth version is a standalone "
        "keyframe, bounding random-access chain depth (default: the "
        "store's setting, 4)",
    )

    rread = sub.add_parser(
        "remote-read",
        help="read a region of a remote dataset into a .npy file",
    )
    rread.add_argument("url", help="server base URL")
    rread.add_argument("name", help="dataset name")
    rread.add_argument("output", help="destination .npy")
    rread.add_argument(
        "--region",
        default=None,
        metavar="A:B,C:D,...",
        help="hyperslab to read (default: the full array)",
    )
    rgroup = rread.add_mutually_exclusive_group()
    rgroup.add_argument(
        "--version",
        type=int,
        default=None,
        metavar="N",
        help="read snapshot version N of the dataset's chain "
        "(default: the latest version)",
    )
    rgroup.add_argument(
        "--time-range",
        default=None,
        metavar="T0:T1",
        help="read versions T0..T1 inclusive, stacked along a new "
        "leading axis (chain-shared reference tiles are decoded once)",
    )

    rstat = sub.add_parser(
        "remote-stat",
        help="print a remote dataset's metadata + container map",
    )
    rstat.add_argument("url", help="server base URL")
    rstat.add_argument("name", help="dataset name")
    rstat.add_argument(
        "--json",
        action="store_true",
        help="compact machine-readable output",
    )

    rec = sub.add_parser(
        "recover",
        help="repair a store after a crash (quarantine damage, "
        "truncate broken chains, resolve interrupted writes)",
    )
    rec.add_argument("store", help="store directory to repair")
    rec.add_argument(
        "--deep",
        action="store_true",
        help="re-checksum every tile payload (catches bit rot a "
        "structural scan misses; slower)",
    )

    return parser


# -- argument parsing helpers --------------------------------------------------


def parse_region(text: str) -> tuple[slice | int, ...]:
    """Parse ``"0:32,16:48,:"`` into per-axis slices (ints stay ints)."""
    try:
        return parse_region_text(text)
    except ValueError:
        raise SystemExit(f"invalid region {text!r}") from None


def _config_from_args(args: argparse.Namespace, **text) -> CompressionConfig:
    """The config the codec flags spell; *text* replaces a flag (one
    ``--eb`` of several).  A ``ValueError`` names the refused value."""
    flags = {name: getattr(args, name, None) for name in CONFIG_TEXT}
    return parse_config_text({**flags, **text})


def _load_array(path: str, mmap: bool = False) -> np.ndarray:
    data = np.load(path, mmap_mode="r" if mmap else None)
    if not isinstance(data, np.ndarray):
        raise SystemExit(f"{path} does not contain a numpy array")
    return data


# -- subcommands ---------------------------------------------------------------


def _cmd_estimate(args: argparse.Namespace) -> int:
    data = _load_array(args.input)
    try:
        configs = [_config_from_args(args, eb=eb) for eb in args.eb]
        model = CodecFactory(configs[0]).fit_model(
            data, use_lossless=configs[0].lossless is not None
        )
        rows = [
            (c.error_bound, est.bitrate, est.ratio, est.p0, est.psnr, est.ssim)
            for c in configs
            for est in [model.estimate(c.error_bound)]
        ]
    except ValueError as exc:
        raise SystemExit(f"cannot estimate {args.input}: {exc}") from exc
    print(
        format_table(
            ["eb", "bits/pt", "ratio", "p0", "PSNR", "SSIM"],
            rows,
            float_spec=".4g",
            title=f"{args.input}: {data.shape} {data.dtype}, "
            f"predictor={model.predictor}, mode={model.mode.value}",
        )
    )
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    try:
        config = _config_from_args(args)
        if config.adaptive and config.tile_shape is None:
            raise SystemExit("--adaptive requires --tile")
        factory = CodecFactory(
            config, workers=args.workers, parallel_backend=args.backend,
            fit_clusters=args.fit_clusters, plan_cache=args.plan_cache,
        )
        # compression streams from a memmap so huge inputs never
        # materialize in RAM (one tile at a time)
        data = _load_array(args.input, mmap=True)
        if args.eb is None:
            model = factory.fit_model(
                np.asarray(data), use_lossless=config.lossless is not None
            )
            if args.ratio is not None:
                eb = model.error_bound_for_ratio(args.ratio)
            else:
                eb = model.error_bound_for_psnr(args.psnr)
            print(f"model-selected error bound: {eb:.6g}")
            config = factory.config(eb)
        # the input's base name keys the cross-snapshot plan cache, so
        # re-compressing successive snapshots written to the same file
        # name reuses the plan
        dataset = os.path.splitext(os.path.basename(args.input))[0]
        with obs.record() as times:
            result = factory.tiled_compressor().compress(
                data, config, out=args.output, dataset=dataset
            )
    except ValueError as exc:
        raise SystemExit(f"cannot compress {args.input}: {exc}") from exc
    print(
        f"{args.input} -> {args.output}: {result.original_bytes} -> "
        f"{result.compressed_bytes} bytes ({result.ratio:.2f}x, "
        f"{result.bit_rate:.3f} bits/pt, p0={result.p0:.3f}, "
        f"{result.n_tiles} tiles of {result.tile_shape})"
    )
    if result.plan is not None:
        bounds = [c.error_bound for c in result.plan.choices]
        counts = ", ".join(
            f"{predictor}={n}"
            for predictor, n in sorted(result.plan.predictor_counts().items())
        )
        print(
            f"adaptive plan: {counts}; per-tile eb in "
            f"[{min(bounds):.4g}, {max(bounds):.4g}] "
            f"(nominal {result.plan.nominal_bound:.4g}, target "
            f"PSNR {result.plan.target_psnr:.2f} dB)"
        )
        stats = result.plan.stats
        if stats is not None:
            print(
                f"planner: {stats.fits_performed} fits for "
                f"{stats.tiles_planned} tiles "
                f"({stats.clusters} clusters, {stats.refits} "
                f"refits, cache {stats.cache}) in {times['plan']:.3f}s"
            )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    tiled = TiledCompressor(workers=args.workers, backend=args.backend)
    if args.region is not None:
        region = parse_region(args.region)
        try:
            data = tiled.decompress_region(args.input, region)
        except (IndexError, ValueError) as exc:
            # container-level failures (not RQSZ, truncated, corrupt
            # TOC) must not be misreported as a bad --region
            raise SystemExit(
                f"cannot decode region {args.region!r} from "
                f"{args.input}: {exc}"
            ) from exc
        except OSError as exc:
            raise SystemExit(f"cannot read {args.input}: {exc}") from exc
        np.save(args.output, data)
        print(
            f"{args.input} -> {args.output}: region {args.region} -> "
            f"{data.shape} {data.dtype} "
            f"({tiled.last_tiles_decoded} tiles decoded)"
        )
        return 0
    # TiledCompressor reads every version, flat v2/v3 and tiled v4-v7
    try:
        data = tiled.decompress(args.input)
    except ValueError as exc:
        raise SystemExit(f"cannot decompress {args.input}: {exc}") from exc
    except OSError as exc:
        raise SystemExit(f"cannot read {args.input}: {exc}") from exc
    np.save(args.output, data)
    print(f"{args.input} -> {args.output}: {data.shape} {data.dtype}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    try:
        header = describe_container(args.input, verify=args.verify)
    except ValueError as exc:
        raise SystemExit(f"cannot inspect {args.input}: {exc}") from exc
    except OSError as exc:
        raise SystemExit(f"cannot read {args.input}: {exc}") from exc
    if args.json:
        print(json.dumps(header, sort_keys=True))
    else:
        print(json.dumps(header, indent=2, sort_keys=True))
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = [
        (spec.name, f"{spec.dims}D", ", ".join(f.name for f in spec.fields))
        for spec in DATASETS.values()
    ]
    print(format_table(["dataset", "dims", "fields"], rows))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    data = load_field(args.dataset, args.field, size_scale=args.scale)
    np.save(args.output, data)
    print(
        f"{args.dataset}/{args.field} -> {args.output}: "
        f"{data.shape} {data.dtype}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    if args.cache_mb < 0:
        raise SystemExit("--cache-mb must be >= 0 (0 disables caching)")
    if args.max_inflight is not None and args.max_inflight < 1:
        raise SystemExit("--max-inflight must be >= 1")
    serve(
        args.store,
        host=args.host,
        port=args.port,
        cache_bytes=int(args.cache_mb * (1 << 20)),
        workers=args.workers,
        parallel_backend=args.backend,
        max_inflight=args.max_inflight,
        drain_timeout=args.drain_timeout,
    )
    return 0


def _client(url: str):
    from repro.service.client import ArrayClient

    try:
        return ArrayClient(url)
    except ValueError as exc:  # not an http(s) URL
        raise SystemExit(str(exc)) from None


def _remote_call(fn):
    """Run a client call, mapping service failures to clean exits."""
    from http.client import HTTPException

    from repro.service.client import ServiceError

    try:
        return fn()
    except ServiceError as exc:
        raise SystemExit(f"server error: {exc}") from exc
    except (OSError, HTTPException) as exc:
        # HTTPException: a damaged response (IncompleteRead, ...)
        raise SystemExit(f"cannot reach server: {exc}") from exc


def _cmd_remote_put(args: argparse.Namespace) -> int:
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        raise SystemExit(f"cannot put {args.input}: {exc}") from exc
    data = _load_array(args.input)
    # the client's codec keywords are the table's names
    codec = {name: getattr(config, s.field) for name, s in CONFIG_TEXT.items()}
    if args.snapshot:
        if codec.pop("adaptive"):
            raise SystemExit(
                "--snapshot deltas are not adaptive; drop --adaptive"
            )
        with _client(args.url) as client:
            entry = _remote_call(
                lambda: client.put_snapshot(
                    args.name,
                    data,
                    keyframe_interval=args.keyframe_interval,
                    **codec,
                )
            )
        kind = "keyframe" if entry.get("keyframe") else (
            f"delta ({entry.get('temporal_tiles', 0)} temporal / "
            f"{entry.get('spatial_tiles', 0)} spatial tiles)"
        )
        print(
            f"{args.input} -> {args.url}/v1/datasets/{args.name} "
            f"v{entry['version']}: {entry['raw_bytes']} -> "
            f"{entry['compressed_bytes']} bytes, {kind}"
        )
        return 0
    if args.keyframe_interval is not None:
        raise SystemExit("--keyframe-interval requires --snapshot")
    with _client(args.url) as client:
        entry = _remote_call(
            lambda: client.put(
                args.name, data, overwrite=args.overwrite, **codec
            )
        )
    print(
        f"{args.input} -> {args.url}/v1/datasets/{args.name}: "
        f"{entry['raw_bytes']} -> {entry['compressed_bytes']} bytes "
        f"({entry['ratio']:.2f}x, {entry['n_tiles']} tiles)"
    )
    return 0


def _parse_time_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) != 2:
            raise ValueError(text)
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise SystemExit(
            f"invalid time range {text!r}: expected T0:T1"
        ) from None


def _cmd_remote_read(args: argparse.Namespace) -> int:
    region = args.region if args.region is not None else ":"
    if args.region is not None:
        parse_region(args.region)  # fail fast with the CLI's message
    if args.time_range is not None:
        t0, t1 = _parse_time_range(args.time_range)
        with _client(args.url) as client:
            data = _remote_call(
                lambda: client.read_range(args.name, region, t0, t1)
            )
        np.save(args.output, data)
        stats = client.last_read_stats
        print(
            f"{args.url}/v1/datasets/{args.name} region "
            f"{args.region or 'full'} versions {t0}:{t1} -> "
            f"{args.output}: {data.shape} {data.dtype} "
            f"({stats.get('tiles_touched', 0)} tiles, "
            f"{stats.get('cache_hits', 0)} cache hits, chain depth "
            f"<= {stats.get('chain_depth', 1)})"
        )
        return 0
    with _client(args.url) as client:
        data = _remote_call(
            lambda: client.read_region(
                args.name, region, version=args.version
            )
        )
    np.save(args.output, data)
    stats = client.last_read_stats
    version_note = (
        f" v{stats['version']}" if args.version is not None else ""
    )
    print(
        f"{args.url}/v1/datasets/{args.name} region "
        f"{args.region or 'full'}{version_note} -> {args.output}: "
        f"{data.shape} {data.dtype} "
        f"({stats.get('tiles_touched', 0)} tiles, "
        f"{stats.get('cache_hits', 0)} cache hits)"
    )
    return 0


def _cmd_remote_stat(args: argparse.Namespace) -> int:
    with _client(args.url) as client:
        entry = _remote_call(lambda: client.stat(args.name))
    if args.json:
        print(json.dumps(entry, sort_keys=True))
    else:
        print(json.dumps(entry, indent=2, sort_keys=True))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.service.store import ArrayStore

    with ArrayStore(args.store) as store:
        report = store.recover(deep=args.deep)
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    if report.clean:
        print("store is clean", file=sys.stderr)
    else:
        actions = []
        if report.removed_temps:
            actions.append(f"{len(report.removed_temps)} temp file(s)")
        if report.quarantined:
            actions.append(
                f"{len(report.quarantined)} file(s) quarantined"
            )
        if report.truncated:
            actions.append(
                f"{len(report.truncated)} chain(s) truncated"
            )
        if report.dropped:
            actions.append(f"{len(report.dropped)} dataset(s) dropped")
        if report.intent_resolved:
            actions.append(f"intent: {report.intent_resolved}")
        print("repaired: " + "; ".join(actions), file=sys.stderr)
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "inspect": _cmd_inspect,
    "datasets": _cmd_datasets,
    "generate": _cmd_generate,
    "serve": _cmd_serve,
    "remote-put": _cmd_remote_put,
    "remote-read": _cmd_remote_read,
    "remote-stat": _cmd_remote_stat,
    "recover": _cmd_recover,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
