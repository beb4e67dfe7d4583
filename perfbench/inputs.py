"""Deterministic input files for the benchmark workloads.

Every input is a pure function of (workload, seed): the same pair always
writes byte-identical files. Next to the CSVs, `build` writes what the
output checks compare against (the closes as written, the injected fault
counts, the expected clean series), so the checks never have to trust the
program under test to tell them what the input was.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MINUTE = 60
EPOCH0 = 1_704_067_200  # 2024-01-01T00:00:00Z, a UTC midnight

# train: the acceptance test's surrogate, shortened in epochs, not in size
TRAIN_POINTS = 5000
# synth: conditioned generation over tens of thousands of windows (20
# chunks of 1024), recursive generation over 250 k=1 steps (run twelve
# times a cycle)
SYNTH_POINTS = 20_540
SYNTH_RECURSIVE_POINTS = 310
# ingest: the "large minute file"; fault shares are of the base rows
INGEST_POINTS = 200_000
FAULT_SHARES = {"unparseable": 0.005, "ohlc_invalid": 0.005,
                "duplicate": 0.005, "out_of_order": 0.005}

WORKLOADS = ("train", "synth", "ingest")


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def sine_closes(rng: np.random.Generator, n: int) -> np.ndarray:
    """The noisy sine of the acceptance run: 100 + 10 sin(2 pi t / 500)
    plus N(0, 0.5) noise."""
    t = np.arange(n)
    return 100.0 + 10.0 * np.sin(2 * np.pi * t / 500) + rng.normal(0, 0.5, n)


def random_walk_cents(rng: np.random.Generator, n: int,
                      start: int = 10_000) -> np.ndarray:
    """Integer-cent closes of a random walk, floored at 10.00."""
    steps = rng.integers(-6, 7, n)
    steps[0] = 0
    return np.maximum(start + np.cumsum(steps), 1_000)


def _cents(v: int) -> str:
    return f"{v // 100}.{v % 100:02d}"


def rfc3339_minutes(n: int) -> list[str]:
    """RFC 3339 UTC stamps of n consecutive minutes from EPOCH0."""
    stamps = (EPOCH0 + MINUTE * np.arange(n)).astype("datetime64[s]")
    return [s + "Z" for s in np.datetime_as_string(stamps, unit="s").tolist()]


def write_close_csv(path: Path, closes: np.ndarray) -> None:
    """timestamp,close with epoch-second minute stamps and repr'd closes,
    so float(field) gives back exactly the written value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp,close\n")
        fh.writelines(f"{EPOCH0 + MINUTE * i},{float(c)!r}\n"
                      for i, c in enumerate(closes))


def _ingest_rows(rng: np.random.Generator, n: int):
    """Base OHLC rows in integer cents plus a fault plan over them.

    Returns (lines, expected, close, kept): the file body in file order,
    the counts the program should arrive at, the base closes in cents, and
    the mask of base rows that survive loading and cleaning.
    """
    close = random_walk_cents(rng, n)
    open_ = np.empty_like(close)
    open_[0] = close[0]
    open_[1:] = close[:-1]
    high = np.maximum(open_, close) + rng.integers(0, 25, n)
    low = np.minimum(open_, close) - rng.integers(0, 25, n)

    counts = {name: int(round(share * n)) for name, share in FAULT_SHARES.items()}
    # disjoint fault sets; row 0 stays clean so the timestamp style is
    # detected from a good row
    order = rng.permutation(np.arange(1, n - 1))
    pos = 0
    sets = {}
    for name in ("unparseable", "ohlc_invalid", "duplicate"):
        sets[name] = np.sort(order[pos:pos + counts[name]])
        pos += counts[name]
    taken = np.zeros(n, dtype=bool)
    for idx in sets.values():
        taken[idx] = True
    swaps = []
    for i in order[pos:]:
        if len(swaps) == counts["out_of_order"]:
            break
        if not taken[i] and not taken[i + 1]:
            taken[i] = taken[i + 1] = True
            swaps.append(int(i))
    sets["out_of_order"] = np.array(sorted(swaps), dtype=np.int64)

    stamps = rfc3339_minutes(n)
    lines = [f"{stamps[i]},{_cents(o)},{_cents(h)},{_cents(lo)},{_cents(c)}\n"
             for i, (o, h, lo, c) in enumerate(zip(open_.tolist(), high.tolist(),
                                                   low.tolist(), close.tolist()))]
    bad_fields = ("not-a-timestamp,{o},{h},{l},{c}\n", "{t},{o},{h},{l},abc\n",
                  "{t},{o},{h},{l},nan\n", "{t},{o},inf,{l},{c}\n",
                  "{t},{o},{h},{l},\n", "{t},{o}\n")
    for j, i in enumerate(sets["unparseable"].tolist()):
        lines[i] = bad_fields[j % len(bad_fields)].format(
            t=stamps[i], o=_cents(open_[i]), h=_cents(high[i]),
            l=_cents(low[i]), c=_cents(close[i]))
    for j, i in enumerate(sets["ohlc_invalid"].tolist()):
        o, h, lo, c = (_cents(v[i]) for v in (open_, high, low, close))
        kind = j % 3
        if kind == 0:      # high below low
            h = _cents(low[i] - 1)
        elif kind == 1:    # close above high
            c = _cents(high[i] + 50)
        else:              # non-positive close
            c = "-1.00"
        lines[i] = f"{stamps[i]},{o},{h},{lo},{c}\n"
    dup_after = {}
    for i in sets["duplicate"].tolist():
        c = int(close[i]) + 1
        dup_after[i] = (f"{stamps[i]},{_cents(c)},{_cents(c + 5)},"
                        f"{_cents(c - 5)},{_cents(c)}\n")
    for i in sets["out_of_order"].tolist():
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    body = []
    for i, line in enumerate(lines):
        body.append(line)
        if i in dup_after:
            body.append(dup_after[i])

    kept = np.ones(n, dtype=bool)
    kept[sets["unparseable"]] = False
    kept[sets["ohlc_invalid"]] = False
    expected = {
        "rows": len(body),
        "rejects": counts["unparseable"],
        "clean_dropped": counts["ohlc_invalid"] + counts["duplicate"],
        "kept": int(kept.sum()),
        "faults": {name: int(idx.size) for name, idx in sets.items()},
    }
    return body, expected, close, kept


def daily_profile(close_cents: np.ndarray, kept: np.ndarray):
    """Expected (days, pct_changes): last kept close per UTC day."""
    idx = np.flatnonzero(kept)
    day = idx // 1440
    last = np.flatnonzero(np.r_[day[1:] != day[:-1], True])
    closes = close_cents[idx[last]] / 100.0
    stamps = (EPOCH0 + 86_400 * day[last][1:]).astype("datetime64[s]")
    days = np.datetime_as_string(stamps, unit="D").tolist()
    return days, (closes[1:] / closes[:-1] - 1.0) * 100.0


def build(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files under `out` and return their spec
    (sizes, fault counts, expected profile days), also saved as spec.json.
    Arrays the checks need are saved next to them in expected.npz."""
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed)
    spec = {"workload": workload, "seed": seed}
    arrays = {}
    if workload == "train":
        closes = sine_closes(rng, TRAIN_POINTS)
        write_close_csv(out / "train.csv", closes)
        arrays["train_closes"] = closes
    elif workload == "synth":
        # the checkpoint is trained on the same series for every seed, so
        # the model is fixed and only the series it generates over varies
        ckpt = sine_closes(np.random.default_rng(0), TRAIN_POINTS)
        write_close_csv(out / "ckpt.csv", ckpt)
        closes = sine_closes(rng, SYNTH_POINTS)
        write_close_csv(out / "long.csv", closes)
        write_close_csv(out / "short.csv", closes[:SYNTH_RECURSIVE_POINTS])
        spec["ckpt_points"] = TRAIN_POINTS
        arrays["long_closes"] = closes
        arrays["short_closes"] = closes[:SYNTH_RECURSIVE_POINTS]
    elif workload == "ingest":
        body, expected, close, kept = _ingest_rows(rng, INGEST_POINTS)
        with open(out / "minutes.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("timestamp,open,high,low,close\n")
            fh.writelines(body)
        days, changes = daily_profile(close, kept)
        spec["ingest"] = expected
        spec["profile_days"] = days
        arrays["profile_pct"] = changes
        # evaluate input: a generated.csv with cent-resolution real closes,
        # so Spearman's tie path runs on every rank
        real = random_walk_cents(rng, INGEST_POINTS)
        fake = real / 100.0 + rng.normal(0.0, 0.05, INGEST_POINTS)
        with open(out / "generated.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("timestamp,real_close,generated_close\n")
            fh.writelines(f"{t},{_cents(r)},{f!r}\n" for t, r, f in zip(
                rfc3339_minutes(INGEST_POINTS), real.tolist(), fake.tolist()))
        arrays["eval_real"] = real / 100.0
        arrays["eval_fake"] = fake
        spec["eval_rows"] = INGEST_POINTS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    np.savez(out / "expected.npz", **arrays)
    with open(out / "spec.json", "w", encoding="utf-8") as fh:
        json.dump(spec, fh, sort_keys=True)
    return spec
