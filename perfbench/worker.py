"""The workload process: runs one workload's CLI commands in a closed loop.

One client, one process: each command is `tsgan.cli.main(argv)` called
in-process, and the next starts only when the previous one has returned
and its outputs have been checked. The loop repeats whole cycles of the
workload's commands until the next cycle would end past `--seconds`
(at least one cycle; in a traced run at least one untraced and one traced
cycle, alternating). Results go to `<dir>/result.json`.

    python3 perfbench/worker.py --workload train --seed 1 --seconds 30 \
        --trace 0 --dir .perfbench_out/train-seed1-trace0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
from reference import reference_s, scaled  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

# the defaults the workloads rely on (k=64 batch, d=60 window); the
# checkpoint check confirms the program still uses them
BATCH_SIZE = 64
CONDITION_DIM = 60
TRAIN_EPOCHS = 1
SYNTH_CKPT_EPOCHS = 1
RECURSIVE_REPEATS = 12
# program seeds are fixed, as in the acceptance run (train 0, generate 1):
# the workload seed varies the input series only, which keeps the spread
# of fidelity_pearson across workload seeds small
TRAIN_SEED = 0
GENERATE_SEED = 1

# end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "primary_per_s": ("1/s", "higher"),
    "secondary_per_s": ("1/s", "higher"),
    "cycle_s": ("s", "lower"),
    "fidelity_pearson": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "success_ratio": ("ratio", "higher"),
}

# per-layer metrics: traced function -> stats reported for it
LAYERS = {
    "nn.lstm_forward": ("calls", "self_s", "ms_p50", "ms_p90", "gflop_per_s"),
    "nn.lstm_backward": ("calls", "self_s", "ms_p50", "ms_p90", "gflop_per_s"),
    "gan.Generator.forward": ("calls", "self_s", "ms_p50", "ms_p90"),
    "gan.Generator.backward": ("calls", "self_s"),
    "gan.train_discriminator_step": ("calls", "self_s", "ms_p50", "ms_p90"),
    "gan.train_generator_step": ("calls", "self_s", "ms_p50", "ms_p90"),
    "gan.train": ("self_s",),
    "gan.Discriminator.forward": ("calls", "self_s"),
    "gan.Discriminator.backward": ("calls", "self_s"),
    "nn.dense_forward": ("calls", "self_s"),
    "nn.dense_backward": ("calls", "self_s"),
    "nn.clip_global_norm": ("calls", "self_s", "fired_ratio"),
    "optim.adam_step": ("calls", "self_s", "ms_p50"),
    "optim.bce_with_logits": ("calls", "self_s"),
    "gan.synthesize_series": ("self_s",),
    "cli.cmd_generate": ("self_s",),
    "checkpoint.load": ("self_s",),
    "checkpoint.save": ("self_s", "bytes"),
    "cli.cmd_train": ("self_s",),
    "data.make_pairs": ("self_s",),
    "data.write_rejects_csv": ("self_s",),
    "data.load_csv": ("self_s", "rows_per_s"),
    "data.clean": ("self_s", "kept_ratio"),
    "metrics.volatility_profile": ("self_s",),
    "cli.cmd_analyze": ("self_s",),
    "metrics.evaluate": ("self_s",),
    "metrics.spearman": ("self_s",),
    "cli.cmd_evaluate": ("self_s",),
}
TRACE_STATS = {"overhead_s": "s", "overhead_ratio": "ratio",
               "self_time_coverage": "ratio", "spans": "count"}
STAT_UNITS = {"calls": "count", "self_s": "s", "ms_p50": "ms", "ms_p90": "ms",
              "gflop_per_s": "GFLOP/s", "fired_ratio": "ratio",
              "bytes": "bytes", "rows_per_s": "1/s", "kept_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{stat}": STAT_UNITS[stat]
             for name, stats in LAYERS.items() for stat in stats}
    units.update({f"trace.{k}": u for k, u in TRACE_STATS.items()})
    return units


def _lstm_flop(x_in: int, h: int, rows: int) -> float:
    # matmul FLOPs only: rows = T*k (time steps x batch), four gates
    return 2.0 * rows * 4 * h * (x_in + h)


PROBES = {
    # computed from argument shapes, not counted by hardware
    "nn.lstm_forward": lambda a, kw, r: {
        "flop": _lstm_flop(a[1].shape[2], a[0].hidden_size,
                           a[1].shape[0] * a[1].shape[1])},
    # dz recurrence + dW_z, and dW_x + dX: twice the forward matmuls
    "nn.lstm_backward": lambda a, kw, r: {
        "flop": 2 * _lstm_flop(a[1]["xs"].shape[2], a[0].hidden_size,
                               a[1]["xs"].shape[0] * a[1]["xs"].shape[1])},
    "nn.clip_global_norm": lambda a, kw, r: {"fired": float(r > a[1] > 0)},
    "checkpoint.save": lambda a, kw, r: {"bytes": Path(a[0]).stat().st_size},
    "data.load_csv": lambda a, kw, r: {"rows": r.n_rows},
    "data.clean": lambda a, kw, r: {"in": len(a[0]), "kept": len(r[0])},
}


@dataclass
class Step:
    """One CLI command of a workload cycle."""

    name: str
    argv: list
    items: int                 # work units, for the step's rate
    check: Callable[[], list] | None = None   # () -> list of problems
    outputs: tuple = ()        # files that must be byte-identical every cycle
    # timed in reference seconds (see reference.py) if its time is mostly
    # interpreter and small-array work, which the reference loop tracks;
    # in seconds if mostly multi-threaded BLAS, which it does not
    scaled: bool = True
    _digests: dict = field(default_factory=dict)

    def verify(self) -> list[str]:
        problems = list(self.check()) if self.check else []
        for path in self.outputs:
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            if self._digests.setdefault(path, digest) != digest:
                problems.append(f"{path}: differs from the first cycle's")
        return problems


@dataclass
class Workload:
    setup: list                # steps run once, untimed
    cycle: list                # steps timed in the loop
    primary: str               # step whose rate is primary_per_s
    secondary: str             # step whose rate is secondary_per_s
    fidelity_from: Path        # evaluate JSON read for fidelity_pearson
    finish: Callable[[], list] | None = None  # once, after the loop


def _generate(name, ckpt, csv_path, out, mode, closes) -> Step:
    return Step(name, ["generate", "--checkpoint", ckpt, "--input", csv_path,
                       "--out", out, "--mode", mode, "--seed", GENERATE_SEED],
                items=closes.shape[0] - CONDITION_DIM,
                check=lambda: checks.generated(out, closes, CONDITION_DIM),
                outputs=(out,), scaled=mode == "recursive")


def _evaluate(generated_csv, out, rows, real_fake) -> Step:
    def check():
        real, fake = real_fake()
        return checks.evaluation(out, real, fake)
    return Step("evaluate", ["evaluate", "--input", generated_csv, "--out", out],
                items=rows, check=check, outputs=(out,))


def _train(csv_path, run_dir, epochs, n_points) -> Step:
    from tsgan import checkpoint
    batches = (n_points - CONDITION_DIM) // BATCH_SIZE
    ckpt = run_dir / "checkpoint.json"

    def check():
        return (checks.losses(run_dir / "losses.csv", epochs)
                + checks.checkpoint_reloads(ckpt, epochs, checkpoint.load,
                                            BATCH_SIZE, CONDITION_DIM))

    return Step("train", ["train", "--input", csv_path, "--out", run_dir,
                          "--epochs", epochs, "--seed", TRAIN_SEED],
                items=epochs * batches * BATCH_SIZE, check=check,
                outputs=(ckpt, run_dir / "losses.csv"), scaled=False)


def make_workload(name: str, inp: Path, out: Path) -> Workload:
    with open(inp / "spec.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    arrays = dict(np.load(inp / "expected.npz"))
    if name == "train":
        closes = arrays["train_closes"]
        run = out / "run"
        gen_csv = run / "generated.csv"
        cycle = [
            _train(inp / "train.csv", run, TRAIN_EPOCHS, closes.shape[0]),
            _generate("generate_cond", run / "checkpoint.json", inp / "train.csv",
                      gen_csv, "conditioned", closes),
            _evaluate(gen_csv, run / "metrics.json", closes.shape[0] - CONDITION_DIM,
                      lambda: checks.read_generated(gen_csv)),
        ]
        return Workload([], cycle, "train", "generate_cond", run / "metrics.json")
    if name == "synth":
        ckpt_dir = out / "ckpt"
        ckpt = ckpt_dir / "checkpoint.json"
        cond_csv, rec_csv = out / "conditioned.csv", out / "recursive.csv"
        setup = [_train(inp / "ckpt.csv", ckpt_dir, SYNTH_CKPT_EPOCHS,
                        spec["ckpt_points"])]
        long, short = arrays["long_closes"], arrays["short_closes"]
        # twelve short recursive runs rather than one long one: the
        # reference loop around a short command tracks the machine's speed
        # during it, and many samples make the median robust. They go
        # first, so they do not start while BLAS threads are still winding
        # down from the conditioned pass
        cycle = [
            *[_generate("generate_rec", ckpt, inp / "short.csv", rec_csv,
                        "recursive", short)] * RECURSIVE_REPEATS,
            _generate("generate_cond", ckpt, inp / "long.csv", cond_csv,
                      "conditioned", long),
            _evaluate(cond_csv, out / "metrics.json", long.shape[0] - CONDITION_DIM,
                      lambda: checks.read_generated(cond_csv)),
        ]
        return Workload(setup, cycle, "generate_cond", "generate_rec",
                        out / "metrics.json")
    if name == "ingest":
        minutes = inp / "minutes.csv"
        vol = out / "volatility.csv"
        expected = spec["ingest"]
        pct = arrays["profile_pct"]
        cycle = [
            Step("analyze", ["analyze", "--input", minutes, "--out", vol],
                 items=expected["rows"],
                 check=lambda: checks.profile(vol, spec["profile_days"], pct),
                 outputs=(vol,)),
            _evaluate(inp / "generated.csv", out / "metrics.json",
                      spec["eval_rows"],
                      lambda: (arrays["eval_real"], arrays["eval_fake"])),
        ]

        def finish():
            from tsgan import data
            result = data.load_csv(minutes)
            series, dropped = data.clean(result.series)
            return checks.ingest_counts(result, dropped, len(series), expected)

        return Workload([], cycle, "analyze", "evaluate", out / "metrics.json",
                        finish)
    raise ValueError(f"unknown workload {name!r}")


class Runner:
    """Runs steps in-process and keeps the operation counts."""

    def __init__(self, log, tracer: Tracer | None):
        from tsgan.cli import main
        self.main = main
        self.log = log
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def guarded(self, fn) -> list[str]:
        # a crash in the program or a check is a failed operation, and the
        # loop goes on to the next one
        try:
            return list(fn())
        except Exception as exc:  # noqa: BLE001
            return [f"{type(exc).__name__}: {exc}"]

    def run(self, step: Step, traced: bool) -> tuple:
        """Runs one command. Returns its name, its wall time, the reference
        loop's mean time over one pass before and one after it, and its
        time in the step's own unit."""
        argv = [str(a) for a in step.argv]
        before = reference_s()
        with contextlib.redirect_stdout(self.log), \
                contextlib.redirect_stderr(self.log):
            start = perf_counter()
            span = (self.tracer.command(f"bench.{step.name}") if traced
                    else contextlib.nullcontext())
            try:
                with span:
                    rc = self.main(argv)
            except (Exception, SystemExit) as exc:  # noqa: BLE001
                rc = f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - start
        reference = (before + reference_s()) / 2
        problems = ([f"{step.name}: exit {rc}"] if rc != 0
                    else self.guarded(step.verify))
        self.record(problems)
        return (step.name, wall, reference,
                scaled(wall, reference) if step.scaled else wall)


def cycle_s(cycle: dict, raw: bool = False) -> float:
    """The cycle's time, each step in its own unit, or in seconds if raw."""
    return sum(wall if raw else own for _, wall, _, own in cycle["walls"])


def rates(cycles: list, items: dict, raw: bool = False) -> dict:
    """Each step's work units per unit of its time, median over the
    cycles."""
    return {name: _median([items[name] / (wall if raw else own)
                           for c in cycles for step, wall, _, own in c["walls"]
                           if step == name])
            for name in items}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, n_cycles: int) -> dict[str, float]:
    """Per-layer stats over the traced cycles; calls and self_s are per
    cycle, ms_p50/ms_p90 are per call (inclusive time)."""
    spans = tracer.spans
    selft = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s.id)
    out = {}
    for name, stats in LAYERS.items():
        ids = by_name.get(name, [])
        durs = np.array([spans[i].end - spans[i].start for i in ids])
        total = float(durs.sum()) if ids else 0.0
        counts = tracer.counters.get(name, {})
        for stat in stats:
            if stat == "calls":
                value = len(ids) / n_cycles
            elif stat == "self_s":
                value = float(selft[ids].sum()) / n_cycles if ids else 0.0
            elif stat in ("ms_p50", "ms_p90"):
                q = 50 if stat == "ms_p50" else 90
                value = float(np.percentile(durs, q)) * 1e3 if ids else 0.0
            elif stat == "gflop_per_s":
                value = counts.get("flop", 0.0) / total / 1e9 if total else 0.0
            elif stat == "fired_ratio":
                value = counts.get("fired", 0.0) / len(ids) if ids else 0.0
            elif stat == "bytes":
                value = counts.get("bytes", 0.0) / len(ids) if ids else 0.0
            elif stat == "rows_per_s":
                value = counts.get("rows", 0.0) / total if total else 0.0
            else:  # kept_ratio
                value = (counts.get("kept", 0.0) / counts["in"]
                         if counts.get("in") else 0.0)
            out[f"{name}.{stat}"] = value
    return out


def run_workload(args) -> dict:
    import tsgan
    src = (ROOT / "src").resolve()
    if src not in Path(tsgan.__file__).resolve().parents:
        raise SystemExit(f"tsgan imported from {tsgan.__file__}, not {src}")

    work = Path(args.dir)
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, work / "inputs", out)
    tracer = Tracer(probes=PROBES) if args.trace else None

    with open(work / "program.log", "w", encoding="utf-8") as log:
        runner = Runner(log, tracer)
        for step in workload.setup:
            runner.run(step, traced=False)
        cycles = []
        missing = set()    # traced names the program no longer has
        start = perf_counter()
        while True:
            traced = bool(args.trace) and len(cycles) % 2 == 1
            if traced:
                missing.update(tracer.install(LAYERS))
            try:
                walls = [runner.run(step, traced) for step in workload.cycle]
            finally:
                if traced:
                    tracer.restore()
            cycles.append({"traced": traced, "walls": walls})
            elapsed = perf_counter() - start
            typical = _median([cycle_s(c, raw=True) for c in cycles])
            if (len(cycles) >= (2 if args.trace else 1)
                    and elapsed + typical > args.seconds):
                break
        if workload.finish is not None:
            runner.record(runner.guarded(workload.finish))

    plain = [c for c in cycles if not c["traced"]]
    items = {step.name: step.items for step in workload.cycle}
    own_rates = rates(plain, items)
    raw_rates = rates(plain, items, raw=True)
    end_to_end = {
        "primary_per_s": own_rates[workload.primary],
        "secondary_per_s": own_rates[workload.secondary],
        "cycle_s": _median([cycle_s(c) for c in plain]),
        "fidelity_pearson": 0.0,
    }
    try:
        with open(workload.fidelity_from, encoding="utf-8") as fh:
            end_to_end["fidelity_pearson"] = float(
                json.load(fh)["original"]["pearson"])
    except (OSError, KeyError, ValueError) as exc:
        runner.record([f"fidelity: {exc}"])
    result = {"end_to_end": end_to_end, "rates_per_s": own_rates,
              "raw": {"rates_per_s": raw_rates,
                      "cycle_s": _median([cycle_s(c, raw=True) for c in plain]),
                      "reference_ms": 1e3 * _median(
                          [ref for c in plain for _, _, ref, _ in c["walls"]])},
              "cycles": cycles}

    if args.trace:
        traced = [c for c in cycles if c["traced"]]
        traced_wall = sum(cycle_s(c, raw=True) for c in traced)
        coverage = float(self_times(tracer.spans).sum()) / traced_wall
        # the spans of a command nest inside its root span, so self times
        # add up to the measured wall time less the tracer's own entry/exit
        runner.record([] if 0.99 <= coverage <= 1.0 + 1e-9 else
                      [f"self times cover {coverage:.4f} of traced wall time"])
        overhead = _median([cycle_s(c) for c in traced]) - end_to_end["cycle_s"]
        result["missing"] = sorted(missing)
        result["per_layer"] = dict(
            layer_metrics(tracer, len(traced)),
            **{"trace.overhead_s": overhead,
               "trace.overhead_ratio": overhead / end_to_end["cycle_s"],
               "trace.self_time_coverage": coverage,
               "trace.spans": len(tracer.spans) / len(traced)})
        tracer.write(work / "spans.jsonl")
    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems[:50])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    result = run_workload(args)
    with open(Path(args.dir) / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
