"""Command-line front end: train, generate, evaluate, plot, gradcheck,
analyze.

Exit codes: 0 success, 2 data error, 3 numeric error, 4 usage error.
Settings precedence: CLI flag > config file (--config JSON) > built-in
defaults (the training defaults are l=8, d=60, k=64, E=50, lr=2e-4).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, data, gradcheck, metrics, scaling, svgplot
from .errors import DataError, NumericError
from .gan import TrainConfig, synthesize_series, train

EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 4
# heap blocks of this many bytes and more get a mapping of their own
MMAP_THRESHOLD = 2 << 20
# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _fix_mmap_threshold() -> None:
    """Serve blocks of MMAP_THRESHOLD bytes and more from their own
    mappings, returned to the system when freed.

    By default glibc raises its mmap threshold to the size of every mapped
    block it frees (up to 32 MiB). After the first training command, the
    multi-MB trajectory buffers are then carved from the main heap, whose
    free space is trimmed only past twice that threshold. A process that
    runs several commands keeps tens of MB of holes there, laid out by the
    exact order of every earlier allocation, and its peak RSS jumps between
    levels ~20 MB apart from one run to the next. Fixed thresholds keep the
    heap to small blocks. A no-op where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed() -> int:
    env = os.environ.get("TSGAN_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise DataError(f"TSGAN_SEED={env!r} is not an integer") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="tsgan",
                     description="Conditional GAN for closing-price series.")
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="train a model from a price CSV")
    tr.add_argument("--input", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--asset", default="")
    tr.add_argument("--config", help="JSON file with TrainConfig overrides")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--batch-size", type=int)
    tr.add_argument("--noise-dim", type=int)
    tr.add_argument("--cond-dim", type=int)
    tr.add_argument("--lr", type=float)
    tr.add_argument("--beta1", type=float)
    tr.add_argument("--beta2", type=float)
    tr.add_argument("--hidden", type=int)
    tr.add_argument("--split", action="store_true",
                    help="train on the first 80%% of the series only")

    ge = sub.add_parser("generate", help="synthesize a series from a checkpoint")
    ge.add_argument("--checkpoint", required=True)
    ge.add_argument("--input", required=True)
    ge.add_argument("--out", required=True)
    ge.add_argument("--mode", choices=("conditioned", "recursive"),
                    default="conditioned")
    ge.add_argument("--seed", type=int)

    ev = sub.add_parser("evaluate", help="metrics for a generated.csv")
    ev.add_argument("--input", required=True)
    ev.add_argument("--out", required=True)

    pl = sub.add_parser("plot", help="SVG plots from losses.csv or generated.csv")
    pl.add_argument("--input", required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--window", type=int, default=1000)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    gc.add_argument("--seed", type=int)
    gc.add_argument("--trials", type=int, default=100)

    an = sub.add_parser("analyze", help="daily volatility profile of a CSV")
    an.add_argument("--input", required=True)
    an.add_argument("--out", required=True)
    an.add_argument("--asset", default="")
    return parser


def _load_series(path, asset=""):
    result = data.load_csv(path, asset_id=asset)
    series, dropped = data.clean(result.series)
    return result, series, dropped


def _train_config(args) -> TrainConfig:
    settings = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                settings = json.load(fh)
            except ValueError as exc:
                raise DataError(f"config {args.config} is not JSON: {exc}")
        if not isinstance(settings, dict):
            raise DataError(f"config {args.config} is not a JSON object")
    flag_map = {"seed": args.seed, "epochs": args.epochs,
                "batch_size": args.batch_size, "noise_dim": args.noise_dim,
                "condition_dim": args.cond_dim, "lr": args.lr,
                "beta1": args.beta1, "beta2": args.beta2,
                "hidden_size": args.hidden}
    for key, value in flag_map.items():
        if value is not None:
            settings[key] = value
    settings.setdefault("seed", _default_seed())
    try:
        return TrainConfig(**settings)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad config: {exc}")


def _write_losses_csv(path, history):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "loss_d", "loss_g"])
        for i, (ld, lg) in enumerate(zip(history.d_epoch, history.g_epoch), 1):
            writer.writerow([i, repr(ld), repr(lg)])


def cmd_train(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result, series, dropped = _load_series(args.input, args.asset)
    closes = series.close
    if args.split:
        closes = closes[:int(0.8 * closes.shape[0])]
    config = _train_config(args)
    scaler = scaling.fit(closes)
    pairs = data.make_pairs(scaling.transform(closes, scaler),
                            config.condition_dim)

    def progress(epoch, ld, lg):
        print(f"epoch {epoch}/{config.epochs}  L_D={ld:.6f}  L_G={lg:.6f}")

    model = train(config, pairs, scaler, progress=progress)

    checkpoint.save(out_dir / "checkpoint.json", model)
    _write_losses_csv(out_dir / "losses.csv", model.history)
    data.write_rejects_csv(out_dir / "rejects.csv", result.rejects)
    manifest = {
        "input": str(args.input),
        "asset": args.asset,
        "rows_read": result.n_rows,
        "rows_rejected": len(result.rejects),
        "bars_dropped_in_clean": dropped,
        "train_split": 0.8 if args.split else 1.0,
        "config": dataclasses.asdict(config),
        "noise_distribution": "standard-normal",
        "shuffle_policy": "per-epoch, seeded, last partial batch dropped",
        "adam_epsilon": 1e-8,
        "scaler": {"mean": repr(scaler.mean), "stddev": repr(scaler.stddev),
                   "n_fitted": scaler.n_fitted},
    }
    with checkpoint.atomic_write(out_dir / "manifest.json") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {out_dir}/checkpoint.json, losses.csv, manifest.json, rejects.csv")
    return 0


def cmd_generate(args) -> int:
    model = checkpoint.load(args.checkpoint)
    _, series, _ = _load_series(args.input)
    closes = series.close
    d = model.config.condition_dim
    seed = args.seed if args.seed is not None else _default_seed()
    generated = synthesize_series(model.generator, model.scaler, closes,
                                  condition_dim=d, mode=args.mode, seed=seed)
    timestamps = series.timestamp[d:].astype(object)  # naive UTC datetimes
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", "real_close", "generated_close"])
        for ts, real, fake in zip(timestamps, closes[d:], generated):
            writer.writerow([f"{ts.isoformat()}+00:00", repr(float(real)),
                             repr(float(fake))])
    print(f"wrote {args.out} ({generated.shape[0]} rows, mode={args.mode})")
    return 0


def _read_generated_csv(path):
    real, fake = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or \
                not {"real_close", "generated_close"} <= set(reader.fieldnames):
            raise DataError(f"{path} lacks real_close/generated_close columns")
        for row in reader:
            real.append(float(row["real_close"]))
            fake.append(float(row["generated_close"]))
    if not real:
        raise DataError(f"{path} has no data rows")
    return np.array(real), np.array(fake)


def cmd_evaluate(args) -> int:
    real, fake = _read_generated_csv(args.input)
    original = metrics.evaluate(real, fake, scale="original")
    scaler = scaling.fit(real)
    normalized = metrics.evaluate(scaling.transform(real, scaler),
                                  scaling.transform(fake, scaler),
                                  scale="normalized")
    report = {"original": original.to_dict(), "normalized": normalized.to_dict()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps(report["original"], sort_keys=True))
    return 0


def cmd_plot(args) -> int:
    with open(args.input, newline="", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if {"loss_d", "loss_g"} <= set(header):
        rows = np.genfromtxt(args.input, delimiter=",", names=True)
        rows = np.atleast_1d(rows)
        svg = out / "losses.svg"
        svgplot.render_lines([("D", rows["loss_d"]), ("G", rows["loss_g"])],
                             "Training losses", svg)
        print(f"wrote {svg}")
    elif {"real_close", "generated_close"} <= set(header):
        real, fake = _read_generated_csv(args.input)
        svg = out / "overlay.svg"
        svgplot.render_overlay(real, fake, args.window,
                               "Real vs generated", svg)
        print(f"wrote {svg}")
    else:
        raise DataError(f"unrecognized CSV header in {args.input}")
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    reports = gradcheck.run_suite(seed=seed, trials=args.trials)
    failed = False
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.name}: max relative error {rep.max_rel_error:.3e}")
        failed = failed or not rep.passed
    if failed:
        raise NumericError("gradient check failed")
    return 0


def cmd_analyze(args) -> int:
    _, series, _ = _load_series(args.input, args.asset)
    profile = metrics.volatility_profile(series)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "pct_change"])
        for day, change in zip(profile.days, profile.pct_changes):
            writer.writerow([day, repr(float(change))])
    print(f"days={len(profile.days) + 1} min={profile.min_change:.4f}% "
          f"max={profile.max_change:.4f}% variance={profile.variance:.6f}")
    return 0


COMMANDS = {"train": cmd_train, "generate": cmd_generate,
            "evaluate": cmd_evaluate, "plot": cmd_plot,
            "gradcheck": cmd_gradcheck, "analyze": cmd_analyze}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _fix_mmap_threshold()
    try:
        return COMMANDS[args.command](args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # a missing, unreadable or directory path
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
