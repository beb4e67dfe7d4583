"""Command-line front end: train, generate, evaluate, plot, gradcheck,
analyze.

Exit codes: 0 success, 2 data error, 3 numeric error, 4 usage error.
Settings precedence: CLI flag > config file (--config JSON) > built-in
defaults (the training defaults are l=8, d=60, k=64, E=50, lr=2e-4).
"""

from __future__ import annotations

import argparse
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
# the float columns of the files that generate and train write
_GENERATED_COLUMNS = ("real_close", "generated_close")
_LOSS_COLUMNS = ("loss_d", "loss_g")
# heap blocks of this many bytes and more get a mapping of their own
MMAP_THRESHOLD = 2 << 20
# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


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
    heap to small blocks. One arena serves every thread: by default glibc
    gives each thread of conditioned synthesis an arena of its own, whose
    free space adds to the peak. A no-op where the C library has no
    mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)
    mallopt(_M_ARENA_MAX, 1)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least_one(text: str) -> int:
    """argparse type for counts: a bad value is a usage error (exit 4)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _seed(flag=None) -> int:
    """`flag` (--seed), else TSGAN_SEED, else 0; DataError if negative."""
    env = os.environ.get("TSGAN_SEED")
    try:
        seed = flag if flag is not None else int(env) if env else 0
    except ValueError:
        raise DataError(f"TSGAN_SEED={env!r} is not an integer") from None
    if seed < 0:
        raise DataError(f"seed must be >= 0, not {seed}")
    return seed


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
    pl.add_argument("--window", type=_at_least_one, default=1000)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    gc.add_argument("--seed", type=int)
    gc.add_argument("--trials", type=_at_least_one, default=100)

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
            except (ValueError, RecursionError) as exc:  # too deeply nested
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
    if "seed" not in settings:  # TSGAN_SEED only when nothing set one
        settings["seed"] = _seed()
    try:
        return TrainConfig(**settings)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad config: {exc}")


def cmd_train(args) -> int:
    result, series, dropped = _load_series(args.input, args.asset)
    closes = series.close
    if args.split:
        closes = closes[:int(0.8 * closes.shape[0])]
    config = _train_config(args)
    scaler = scaling.fit(closes)
    pairs = data.make_pairs(scaling.transform(closes, scaler),
                            config.condition_dim)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def progress(epoch, ld, lg):
        print(f"epoch {epoch}/{config.epochs}  L_D={ld:.6f}  L_G={lg:.6f}")

    model = train(config, pairs, scaler, progress=progress)

    checkpoint.save(out_dir / "checkpoint.json", model)
    history = model.history
    data.write_csv(out_dir / "losses.csv", ["epoch", *_LOSS_COLUMNS],
                   ((i, repr(ld), repr(lg)) for i, (ld, lg)
                    in enumerate(zip(history.d_epoch, history.g_epoch), 1)))
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
        "scaler": scaler.to_dict(),
    }
    with checkpoint.atomic_write(out_dir / "manifest.json") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {out_dir}/checkpoint.json, losses.csv, manifest.json, rejects.csv")
    return 0


def cmd_generate(args) -> int:
    seed = _seed(args.seed)
    model = checkpoint.load(args.checkpoint)
    _, series, _ = _load_series(args.input)
    closes = series.close
    d = model.config.condition_dim
    generated = synthesize_series(model.generator, model.scaler, closes,
                                  condition_dim=d, mode=args.mode, seed=seed)
    timestamps = series.timestamp[d:].astype(object)  # naive UTC datetimes
    data.write_csv(args.out, ["timestamp", *_GENERATED_COLUMNS],
                   ((f"{ts.isoformat()}+00:00", repr(float(real)),
                     repr(float(fake)))
                    for ts, real, fake in zip(timestamps, closes[d:],
                                              generated)))
    print(f"wrote {args.out} ({generated.shape[0]} rows, mode={args.mode})")
    return 0


def _check_column(path, name: str, values) -> None:
    """DataError naming `path` and column `name` unless `values` has two
    or more entries whose spread is finite and not zero."""
    if values.size < 2:
        raise DataError(f"{path}: {name} needs at least 2 values, "
                        f"got {values.size}")
    with np.errstate(all="ignore"):
        spread = np.std(values)
    if not np.isfinite(spread):
        raise DataError(f"{path}: the spread of {name} overflows float64")
    if spread == 0:
        raise DataError(f"{path}: {name} has zero variance")


def cmd_evaluate(args) -> int:
    real, fake = data.read_floats(args.input, _GENERATED_COLUMNS)
    for name, values in zip(_GENERATED_COLUMNS, (real, fake)):
        _check_column(args.input, name, values)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            original = metrics.evaluate(real, fake, scale="original")
            scaler = scaling.fit(real)
            normalized = metrics.evaluate(scaling.transform(real, scaler),
                                          scaling.transform(fake, scaler),
                                          scale="normalized")
    except FloatingPointError as exc:
        raise DataError(f"{args.input}: {' and '.join(_GENERATED_COLUMNS)} "
                        f"are too far apart to compare in float64 "
                        f"({exc})") from None
    report = {"original": original.to_dict(), "normalized": normalized.to_dict()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps(report["original"], sort_keys=True))
    return 0


def cmd_plot(args) -> int:
    with data.open_csv(args.input) as reader:
        header = set(next(reader, []))
    out = Path(args.out)
    if set(_LOSS_COLUMNS) <= header:
        loss_d, loss_g = data.read_floats(args.input, _LOSS_COLUMNS)
        out.mkdir(parents=True, exist_ok=True)
        svg = out / "losses.svg"
        svgplot.render_lines([("D", loss_d), ("G", loss_g)],
                             "Training losses", svg)
    elif set(_GENERATED_COLUMNS) <= header:
        real, fake = data.read_floats(args.input, _GENERATED_COLUMNS)
        out.mkdir(parents=True, exist_ok=True)
        svg = out / "overlay.svg"
        svgplot.render_overlay(real, fake, args.window,
                               "Real vs generated", svg)
    else:
        raise DataError(f"unrecognized CSV header in {args.input}")
    print(f"wrote {svg}")
    return 0


def cmd_gradcheck(args) -> int:
    reports = gradcheck.run_suite(seed=_seed(args.seed), trials=args.trials)
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
    data.write_csv(args.out, ["date", "pct_change"],
                   ((day, repr(float(change)))
                    for day, change in zip(profile.days, profile.pct_changes)))
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
    except MemoryError as exc:  # NumPy's names the size it could not get
        detail = f": {exc}" if str(exc) else ""
        print(f"data error: {args.command} ran out of memory{detail}",
              file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
