"""Output checks, computed independently of the program under test.

Each check returns a list of problems; an empty list means the output is
correct. The expected values come from the benchmark's own input
generator (inputs.py), never from the program.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def losses(path, epochs: int) -> list[str]:
    """One finite (loss_d, loss_g) row per epoch, numbered from 1."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["epoch", "loss_d", "loss_g"]:
        return [f"{path}: unexpected header {rows[:1]}"]
    body = rows[1:]
    problems = []
    if [r[0] for r in body] != [str(e) for e in range(1, epochs + 1)]:
        problems.append(f"{path}: {len(body)} rows, expected epochs 1..{epochs}")
    if not all(math.isfinite(float(v)) for r in body for v in r[1:]):
        problems.append(f"{path}: non-finite loss")
    return problems


def checkpoint_reloads(path, epochs: int, load, batch_size: int,
                       condition_dim: int) -> list[str]:
    """The checkpoint loads with the program's own loader, at the trained
    epoch and the expected config, with finite parameters."""
    model = load(path)
    params = {**model.generator.params(), **model.discriminator.params()}
    problems = []
    if model.epoch != epochs:
        problems.append(f"{path}: epoch {model.epoch}, expected {epochs}")
    config = (model.config.batch_size, model.config.condition_dim)
    if config != (batch_size, condition_dim):
        problems.append(f"{path}: batch size and window {config}, expected "
                        f"{(batch_size, condition_dim)}")
    if not all(np.all(np.isfinite(p)) for p in params.values()):
        problems.append(f"{path}: non-finite parameters")
    return problems


def read_generated(path):
    """(real_close, generated_close) columns of a generated.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header != ["timestamp", "real_close", "generated_close"]:
        raise ValueError(f"{path}: unexpected header {header}")
    real = np.array([float(r[1]) for r in rows])
    fake = np.array([float(r[2]) for r in rows])
    return real, fake


def generated(path, closes: np.ndarray, d: int) -> list[str]:
    """N - d finite rows whose real_close equals the input closes."""
    real, fake = read_generated(path)
    if real.shape[0] != closes.shape[0] - d:
        return [f"{path}: {real.shape[0]} rows, expected {closes.shape[0] - d}"]
    problems = []
    if not np.array_equal(real, closes[d:]):
        problems.append(f"{path}: real_close differs from the input closes")
    if not np.all(np.isfinite(fake)):
        problems.append(f"{path}: non-finite generated_close")
    return problems


def _average_ranks(x: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(x, return_inverse=True,
                                   return_counts=True)
    first = np.cumsum(counts) - counts          # 0-based first rank
    return (first + (counts + 1) / 2.0)[inverse]


def reference_metrics(real: np.ndarray, fake: np.ndarray) -> dict:
    """Pearson, Spearman (average ranks), MAE and RMSE at original and
    normalized scale, as `tsgan evaluate` defines them."""
    std = real.std()
    pearson = float(np.corrcoef(real, fake)[0, 1])
    spearman = float(np.corrcoef(_average_ranks(real),
                                 _average_ranks(fake))[0, 1])
    err = real - fake
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    n = int(real.size)
    return {"original": {"pearson": pearson, "spearman": spearman, "mae": mae,
                         "rmse": rmse, "n": n, "scale": "original"},
            "normalized": {"pearson": pearson, "spearman": spearman,
                           "mae": mae / std, "rmse": rmse / std, "n": n,
                           "scale": "normalized"}}


def evaluation(path, real: np.ndarray, fake: np.ndarray) -> list[str]:
    """evaluate's JSON agrees with the NumPy recomputation."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    want = reference_metrics(real, fake)
    problems = []
    for scale, fields in want.items():
        got = report.get(scale, {})
        for key, value in fields.items():
            ok = (got.get(key) == value if isinstance(value, (int, str))
                  else isinstance(got.get(key), float)
                  and _close(got[key], value))
            if not ok:
                problems.append(f"{path}: {scale}.{key} = {got.get(key)!r}, "
                                f"expected {value!r}")
    return problems


def profile(path, days: list[str], pct: np.ndarray) -> list[str]:
    """analyze's volatility.csv has exactly the expected days and changes."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["date", "pct_change"]:
        return [f"{path}: unexpected header {rows[:1]}"]
    body = rows[1:]
    if [r[0] for r in body] != days:
        return [f"{path}: days differ from the expected clean series"]
    got = np.array([float(r[1]) for r in body])
    if not np.allclose(got, pct, rtol=REL_TOL, atol=1e-12):
        return [f"{path}: pct_change differs from the expected clean series"]
    return []


def ingest_counts(load_result, dropped: int, kept: int,
                  expected: dict) -> list[str]:
    """Rows read = kept + rejects + clean drops, and each count equals the
    number of injected faults of its kind."""
    got = {"rows": load_result.n_rows, "rejects": len(load_result.rejects),
           "clean_dropped": dropped, "kept": kept}
    problems = [f"ingest {key}: {got[key]}, expected {expected[key]}"
                for key in got if got[key] != expected[key]]
    if got["kept"] + got["rejects"] + got["clean_dropped"] != got["rows"]:
        problems.append(f"ingest: kept + rejects + drops != rows read ({got})")
    return problems
