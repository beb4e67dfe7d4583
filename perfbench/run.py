"""tsgan benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {train,synth,ingest} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from its
`src/`). The inputs are generated from the seed, a fresh workload process
runs the workload's CLI commands back to back for about S seconds and
checks every output, and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones from traced cycles. The line before
it is a JSON object with the environment block and the per-command detail.
Every file the run writes lands in .perfbench_out/ under the checkout; the
generated inputs and the program's outputs are kept only if a check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
from worker import END_TO_END, per_layer_units

ROOT = Path(__file__).resolve().parents[1]
# fresh-process imports timed before and again after the workload, so
# setup_s does not rest on one moment of a machine whose speed drifts
SETUP_REPEATS = 6
# every run must end within 180 s; the worker gets what is left
DEADLINE_S = 170.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import tsgan.cli; "
                "print(time.perf_counter() - t)")


def _env() -> dict:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def import_seconds() -> float:
    """Time to import the CLI module in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _blas() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    # OpenBLAS reports its own thread count; find the copy NumPy loaded
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tsgan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def run_worker(args, work: Path, budget: float):
    """Run the workload process; returns (exit code, peak RSS in MB)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(work)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env())
    timer = threading.Timer(budget, proc.kill)
    timer.start()
    try:
        # wait4 gives this child's own resource usage, peak RSS included
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    # reaped by wait4, so tell Popen the process is gone
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tsgan benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (ROOT / "src" / "tsgan" / "cli.py").is_file():
        print(f"no tsgan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs.build(args.workload, args.seed, work / "inputs")

    result_path = work / "result.json"
    try:
        import_seconds()  # warm-up: compiles bytecode, fills the page cache
        setup = [import_seconds() for _ in range(SETUP_REPEATS)]
        budget = DEADLINE_S - (perf_counter() - started)
        code, peak_rss_mb = run_worker(args, work, budget)
        if code != 0 or not result_path.is_file():
            print(f"workload process failed with exit code {code}",
                  file=sys.stderr)
            return 3
        setup += [import_seconds() for _ in range(SETUP_REPEATS)]
    except (subprocess.SubprocessError, ValueError) as exc:
        print(f"cannot import tsgan.cli: {exc}", file=sys.stderr)
        return 2
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    attempted, failed = result["attempted"], result["failed"]
    end_to_end = dict(result["end_to_end"],
                      setup_s=statistics.median(setup),
                      peak_rss_mb=peak_rss_mb,
                      success_ratio=(attempted - failed) / attempted)
    if args.trace:
        units = per_layer_units()
        values = result["per_layer"]
    else:
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        values = end_to_end
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    detail = {"workload": args.workload,
              "environment": environment(args.seed),
              "end_to_end": end_to_end,
              "setup_samples_s": setup,
              "raw": result["raw"],
              "rates_per_s": result["rates_per_s"],
              "cycles": len(result["cycles"]),
              "missing_from_program": result.get("missing", []),
              "problems": result["problems"]}
    with open(work / "report.json", "w", encoding="utf-8") as fh:
        json.dump(dict(detail, metrics=metrics), fh, indent=1)
    if failed == 0:  # keep the large inputs and outputs only to debug
        for sub in ("inputs", "out"):
            shutil.rmtree(work / sub, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
