"""Minute-bar CSV ingestion, cleaning, and windowing.

Everything here is a pure function over immutable inputs: load once, clean,
then slice normalized closes into (condition window, next value) pairs. A
series is columnar: one array per CSV column, rows ascending in time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import DataError

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


@dataclass
class TimeSeries:
    """Minute-resolution OHLC bars as equal-length columns, ascending in
    time. `timestamp` is datetime64[us] in UTC (int64 microseconds since
    the epoch are accepted); the prices are float64."""

    asset_id: str
    timestamp: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray

    def __post_init__(self):
        self.timestamp = np.asarray(self.timestamp, dtype="datetime64[us]")
        for name in ("open", "high", "low", "close"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        shapes = {col.shape for col in (self.timestamp, self.open, self.high,
                                        self.low, self.close)}
        if len(shapes) != 1 or self.timestamp.ndim != 1:
            raise ValueError(f"TimeSeries columns must be 1-D and of equal "
                             f"length, got shapes {sorted(shapes)}")

    def __len__(self) -> int:
        return self.close.shape[0]

    def take(self, index) -> TimeSeries:
        """The rows picked by `index` (a boolean mask or positions)."""
        return TimeSeries(self.asset_id, self.timestamp[index], self.open[index],
                          self.high[index], self.low[index], self.close[index])


@dataclass
class Reject:
    row: int
    reason: str


@dataclass
class LoadResult:
    series: TimeSeries
    n_rows: int
    rejects: list[Reject] = field(default_factory=list)


@dataclass
class PairSet:
    """Windowed training units: row i of `conditions` is the d normalized
    closes preceding `targets[i]`. Order follows the source series."""

    conditions: np.ndarray  # (n_pairs, d)
    targets: np.ndarray     # (n_pairs,)

    def __len__(self) -> int:
        return self.targets.shape[0]

    @property
    def condition_dim(self) -> int:
        return self.conditions.shape[1]


def _parse_timestamp(raw: str, fmt: str | None) -> tuple[int, str]:
    """Parse RFC 3339 or epoch-seconds; returns (microseconds since the
    epoch, detected format).

    The format is detected from the first parseable row and must stay
    uniform for the rest of the file.
    """
    raw = raw.strip()
    if fmt in (None, "epoch"):
        try:
            dt = datetime.fromtimestamp(float(raw), tz=timezone.utc)
            return (dt - _EPOCH) // _MICROSECOND, "epoch"
        except (ValueError, OverflowError):  # not a number, or out of range
            if fmt == "epoch":
                raise ValueError(f"timestamp {raw!r} is not epoch-seconds")
    try:
        dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise ValueError(f"timestamp {raw!r} is not RFC 3339 or epoch-seconds")
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    # OverflowError when the offset moves it out of datetime's years 1-9999
    dt = dt.astimezone(timezone.utc)
    return (dt - _EPOCH) // _MICROSECOND, "rfc3339"


def _price_error(row: dict, have_ohlc: bool) -> str:
    """Why a row's prices were refused, naming the first bad field in the
    order load_csv reads them."""
    for col in ("close", "open", "high", "low") if have_ohlc else ("close",):
        try:
            value = float(row[col])
        except ValueError:
            return f"{col} {row[col]!r} is not a number"
        if not math.isfinite(value):
            return f"{col} {row[col]!r} is not finite"
    raise AssertionError("_price_error called on a row with valid prices")


def load_csv(path, asset_id: str = "") -> LoadResult:
    """Load a `timestamp,open,high,low,close` CSV into an ascending-time
    TimeSeries.

    Only timestamp and close are required; without all of open/high/low
    they are set to the close. Rows that fail to parse are collected into
    the rejects report, never dropped silently.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        # a short row reads its missing fields as "", rejected below
        reader = csv.DictReader(fh, restval="")
        header = reader.fieldnames or []
        for col in ("timestamp", "close"):
            if col not in header:
                raise DataError(f"missing required column {col!r} in {path}")
        have_ohlc = {"open", "high", "low"} <= set(header)

        stamps, opens, highs, lows, closes = [], [], [], [], []
        rejects: list[Reject] = []
        ts_format: str | None = None
        n_rows = 0
        for row_no, row in enumerate(reader, start=2):  # row 1 is the header
            n_rows += 1
            try:
                ts, detected = _parse_timestamp(row["timestamp"], ts_format)
            except (ValueError, OverflowError) as exc:
                rejects.append(Reject(row_no, str(exc)))
                continue
            ts_format = ts_format or detected
            try:
                close = float(row["close"])
                if not math.isfinite(close):
                    raise ValueError
                if have_ohlc:
                    o = float(row["open"])
                    h = float(row["high"])
                    lo = float(row["low"])
                    if not all(math.isfinite(v) for v in (o, h, lo)):
                        raise ValueError
                else:
                    o = h = lo = close
            except ValueError:
                rejects.append(Reject(row_no, _price_error(row, have_ohlc)))
                continue
            stamps.append(ts)
            opens.append(o)
            highs.append(h)
            lows.append(lo)
            closes.append(close)

    series = TimeSeries(asset_id, np.array(stamps, dtype=np.int64), opens,
                        highs, lows, closes)
    series = series.take(np.argsort(series.timestamp, kind="stable"))
    return LoadResult(series=series, n_rows=n_rows, rejects=rejects)


def clean(series: TimeSeries) -> tuple[TimeSeries, int]:
    """Drop invariant-violating bars, then, among the valid ones, all but
    the first bar of each timestamp. Expects ascending time, as load_csv
    returns it.

    Returns the cleaned series and the number of bars dropped.
    """
    prices = np.stack([series.open, series.high, series.low, series.close])
    valid = (np.all(np.isfinite(prices) & (prices > 0), axis=0)
             & (series.low <= series.open) & (series.open <= series.high)
             & (series.low <= series.close) & (series.close <= series.high))
    rows = np.flatnonzero(valid)
    if rows.size == 0:
        raise DataError(f"no usable data in series {series.asset_id!r} after cleaning")
    stamps = series.timestamp[rows]
    rows = rows[np.r_[True, stamps[1:] != stamps[:-1]]]
    return series.take(rows), len(series) - rows.size


def make_pairs(closes: np.ndarray, d: int) -> PairSet:
    """Slice a normalized close vector into (d-window, next value) pairs.

    Pair i conditions on closes[i : i+d] and targets closes[i+d], so a
    length-N input yields exactly N - d pairs.
    """
    closes = np.asarray(closes, dtype=np.float64)
    if d < 1:
        raise DataError(f"window length d must be >= 1, got {d}")
    n = closes.shape[0]
    if n <= d:
        raise DataError(f"series of length {n} is too short for window d={d} "
                        f"(need at least {d + 1} values)")
    if not np.all(np.isfinite(closes)):
        raise DataError("close vector contains non-finite values")
    # stride trick view, copied so the PairSet owns its memory
    windows = np.lib.stride_tricks.sliding_window_view(closes, d)[:-1].copy()
    return PairSet(conditions=windows, targets=closes[d:].copy())


def write_rejects_csv(path, rejects: list[Reject]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row", "reason"])
        for rej in rejects:
            writer.writerow([rej.row, rej.reason])
