"""Command-line surface. Every subcommand is a thin binding over the
library, and every file it writes goes through one route: clouds
through io.write_cloud, tables through io.write_csv.

Exit codes: 0 success, 1 usage error, 2 data or domain error (a size
too large to allocate included), 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .cloud import MAX_ABS_COORD, SHAPE_KINDS, _positive, gen_shape, partial_view_crop
from .distances import TRANSFORM_KINDS, TransformSpec, chamfer, chamfer_poincare
from .evaluation import THRESHOLD_MODES, evaluate
from .fitting import DivergenceError, FitConfig, fit, sweep_alpha_lr
from .gradients import CurveRow, default_curve_specs, sample_curves
from .io import FORMATS, read_cloud, write_cloud, write_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3


def _parse_list(text: str, flag: str, cast=float) -> list:
    """Comma-separated values of flag, each converted with cast."""
    noun = "integers" if cast is int else "numbers"
    try:
        values = [cast(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated {noun}, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} expects at least one value")
    return values


def _seed(args) -> int:
    # numpy rejects a negative seed without naming the flag
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


def _spec_from_args(args) -> TransformSpec:
    return TransformSpec(args.kind, alpha=args.alpha, beta=args.beta)


def cmd_distance(args) -> int:
    s = _positive("--scale-display", args.scale_display)
    a = read_cloud(args.file_a, args.format)
    b = read_cloud(args.file_b, args.format)
    if args.kind == "poincare":
        report = chamfer_poincare(a, b)
    else:
        report = chamfer(a, b, _spec_from_args(args))
    print(f"value={report.value * s!r}")
    print(f"d1={report.d1 * s!r}")
    print(f"d2={report.d2 * s!r}")
    return EXIT_OK


def cmd_curves(args) -> int:
    if args.kinds is None and args.alphas is None and args.betas is None:
        specs = default_curve_specs()
    else:
        kinds = _parse_list("hyper" if args.kinds is None else args.kinds, "--kinds", str.strip)
        alphas = _parse_list("1" if args.alphas is None else args.alphas, "--alphas")
        betas = _parse_list("2" if args.betas is None else args.betas, "--betas")
        specs = []
        for kind in kinds:
            for alpha in alphas:
                for beta in betas:
                    specs.append(TransformSpec(kind, alpha=alpha, beta=beta))
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    # the l2 curve squares d, which overflows beyond about 1.3e154
    if not 0 < args.dmax <= MAX_ABS_COORD:  # NaN fails too
        raise ValueError(f"--dmax must be positive and at most {MAX_ABS_COORD:g}")
    grid = np.linspace(0.0, args.dmax, args.steps)
    # two clouds' nonzero distances are at least the root of the least
    # subnormal squared distance; below it steep slopes overflow
    least = np.sqrt(5e-324)
    if grid[1] < least:
        raise ValueError(f"--dmax / (--steps - 1) must be at least {least:.6g}, got {grid[1]:.6g}")
    rows = sample_curves(specs, grid, normalize=not args.no_normalize)
    write_csv(args.out, [f.name for f in fields(CurveRow)], map(astuple, rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    initial = read_cloud(args.file_init, args.format)
    target = read_cloud(args.file_target, args.format)
    snapshots = tuple(_parse_list(args.snapshots, "--snapshots", int)) if args.snapshots else ()
    config = FitConfig(
        spec=_spec_from_args(args),
        learning_rate=args.lr,
        epochs=args.epochs,
        snapshot_epochs=snapshots,
    )
    trajectory = fit(initial, target, config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = [outdir / "loss.csv", outdir / "final.xyz"]
    losses = zip(range(config.epochs), trajectory.losses, trajectory.l1_cd)
    write_csv(written[0], ["epoch", "loss", "l1_cd"], losses)
    write_cloud(trajectory.final_cloud, written[1])
    for epoch, cloud, _ in trajectory.snapshots:
        path = outdir / f"snapshot_epoch_{epoch:04d}.xyz"
        write_cloud(cloud, path)
        written.append(path)
    # each movable point beside the target point it is matched to
    header = ["movable_x", "movable_y", "movable_z", "target_x", "target_y", "target_z"]
    for epoch, cloud, match in trajectory.snapshots:
        path = outdir / f"correspondence_epoch_{epoch:04d}.csv"
        write_csv(path, header, np.hstack([cloud.points, target.points[match.fwd_idx]]))
        written.append(path)
    print(f"final l1_cd={trajectory.final_l1_cd!r}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    initial = read_cloud(args.file_init, args.format)
    target = read_cloud(args.file_target, args.format)
    result = sweep_alpha_lr(
        initial,
        target,
        _parse_list(args.alphas, "--alphas"),
        _parse_list(args.lrs, "--lrs"),
        epochs=args.epochs,
    )
    # one row per alpha, one column per learning rate; a failed cell is blank
    rows = (
        [alpha, *(None if np.isnan(v) else v for v in cells)]
        for alpha, cells in zip(result.alphas, result.final_l1_cd)
    )
    write_csv(args.out, ["alpha", *result.learning_rates], rows)
    total = result.final_l1_cd.size
    print(f"wrote {total} cells to {args.out} ({len(result.errors)} failed)")
    for (i, j), message in sorted(result.errors.items()):
        print(
            f"cell alpha={result.alphas[i]!r} lr={result.learning_rates[j]!r}: {message}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    s = _positive("--scale-display", args.scale_display)
    pred = read_cloud(args.file_pred, args.format)
    gt = read_cloud(args.file_gt, args.format)
    report = evaluate(
        pred, gt, threshold_mode=args.threshold_mode, threshold=args.threshold
    )
    for key, value in report.to_dict().items():
        scaled = value * s if key in ("cd_l1", "cd_l2") else value
        print(f"{key}={scaled!r}")
    return EXIT_OK


def cmd_gen(args) -> int:
    cloud = gen_shape(args.kind, args.n, _seed(args))
    partial = None
    if args.crop_k is not None:  # checked before any file is written
        if args.viewpoint is None:
            raise ValueError("--crop-k requires --viewpoint")
        vp = _parse_list(args.viewpoint, "--viewpoint")
        if len(vp) != 3:
            raise ValueError("--viewpoint expects three comma-separated coordinates")
        partial = partial_view_crop(cloud, vp, args.crop_k)
    write_cloud(cloud, args.out)
    print(f"wrote {len(cloud)} points to {args.out}")
    if partial is not None:
        root, ext = os.path.splitext(str(args.out))
        partial_path = f"{root}_partial{ext}"
        write_cloud(partial, partial_path)
        print(f"wrote {len(partial)} points to {partial_path}")
    return EXIT_OK


def cmd_bench(args) -> int:
    report = bench_mod.run_bench(
        sizes=_parse_list(args.sizes, "--sizes", int),
        kinds=tuple(_parse_list(args.kinds, "--kinds", str.strip)),
        repeats=args.repeats,
        warmup=args.warmup,
        seed=_seed(args),
    )
    print(f"{'kind':<10} {'phase':<10} {'n':>6} {'repeats':>8} {'mean_s':>12} {'std_s':>12}")
    for e in report.entries:
        print(
            f"{e.kind:<10} {e.phase:<10} {e.n_a:>6} {e.repeats:>8} "
            f"{e.mean_s:>12.6f} {e.std_s:>12.6f}"
        )
    if args.out:
        entries = map(astuple, report.entries)
        write_csv(args.out, [f.name for f in fields(bench_mod.BenchEntry)], entries)
        print(f"wrote {args.out}")
    return EXIT_OK


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=FORMATS,
        default=None,
        help="cloud file format (default: infer from extension)",
    )


def _add_spec_flags(p: argparse.ArgumentParser, kinds) -> None:
    p.add_argument("--kind", choices=kinds, default="hyper", help="per-pair transform")
    p.add_argument("--alpha", type=float, default=1.0, help="transform steepness")
    p.add_argument("--beta", type=float, default=2.0, help="distance exponent")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chamferkit",
        description="Chamfer-style point-cloud set distances and fitting tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="set distance between two cloud files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_spec_flags(p, bench_mod.BENCH_KINDS)
    _add_format_flag(p)
    p.add_argument(
        "--scale-display",
        type=float,
        default=1.0,
        help="multiply printed values, e.g. 1000 for milli-scale tables",
    )
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("curves", help="sample transform value/derivative curves to CSV")
    p.add_argument("--kinds", default=None, help="comma-separated transform kinds")
    p.add_argument("--alphas", default=None, help="comma-separated alpha grid")
    p.add_argument("--betas", default=None, help="comma-separated beta grid")
    p.add_argument("--dmax", type=float, default=2.0, help="largest sampled distance")
    p.add_argument("--steps", type=int, default=200, help="samples per curve")
    p.add_argument(
        "--no-normalize",
        action="store_true",
        help="leave the normalized-derivative column empty",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("fit", help="gradient-descent fit of one cloud onto another")
    p.add_argument("file_init")
    p.add_argument("file_target")
    _add_spec_flags(p, TRANSFORM_KINDS)
    _add_format_flag(p)
    p.add_argument("--lr", type=float, required=True, help="learning rate (>= 0)")
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument(
        "--snapshots",
        default=None,
        help="comma-separated epochs to dump clouds and correspondences at",
    )
    p.add_argument("--outdir", required=True, help="directory for trajectory files")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sweep", help="alpha x learning-rate grid of fits")
    p.add_argument("file_init")
    p.add_argument("file_target")
    _add_format_flag(p)
    p.add_argument("--alphas", required=True, help="comma-separated alpha grid")
    p.add_argument("--lrs", required=True, help="comma-separated learning-rate grid")
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="quality metrics of a predicted cloud vs ground truth")
    p.add_argument("file_pred")
    p.add_argument("file_gt")
    _add_format_flag(p)
    p.add_argument("--threshold-mode", choices=THRESHOLD_MODES, default="percent")
    p.add_argument(
        "--threshold",
        type=float,
        default=1.0,
        help="F-score threshold: raw distance, or percent of the ground-truth bbox diagonal",
    )
    p.add_argument("--scale-display", type=float, default=1.0, help="scale printed cd values")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", help="generate a synthetic cloud (optionally view-cropped)")
    p.add_argument("--kind", choices=SHAPE_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--crop-k", type=int, default=None, help="also write a partial view with k points removed")
    p.add_argument("--viewpoint", default=None, help="x,y,z the crop is nearest to")
    p.add_argument("--out", required=True, help="output cloud path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time full set-distance evaluations")
    p.add_argument("--sizes", default="2048", help="comma-separated cloud sizes")
    p.add_argument(
        "--kinds",
        default=",".join(bench_mod.DEFAULT_KINDS),
        help="comma-separated kinds incl. poincare",
    )
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional CSV path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for usage errors
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, DivergenceError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
