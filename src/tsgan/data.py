"""Minute-bar CSV ingestion, cleaning, and windowing.

Everything here is a pure function over immutable inputs: load once, clean,
then slice normalized closes into (condition window, next value) pairs. A
series is columnar: one array per CSV column, rows ascending in time.
"""

from __future__ import annotations

import csv
import math
import operator
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain, islice

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


@contextmanager
def open_csv(path):
    """A `csv.reader` over the UTF-8 file at `path`; a leading byte-order
    mark is skipped. While it is open, a byte that is not UTF-8 or a
    record `csv` refuses (a cell over its field size limit) is a DataError
    naming the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None


def read_columns(reader, header: list[str], names):
    """Stream the records of a `csv.reader` whose header row `header` has
    been read: each record as the tuple of its cells under `names` (two or
    more names, all in the header).

    The cells are those `csv.DictReader(fh, restval="")` gives: a repeated
    header name reads its last column, blank lines are skipped (and not
    counted by a caller that numbers the records), a short row reads its
    missing cells as "", and extra cells are ignored.
    """
    last = {name: i for i, name in enumerate(header)}
    index = [last[name] for name in names]
    pick = operator.itemgetter(*index)
    width = max(index) + 1
    padding = [""] * width
    for cells in reader:
        if len(cells) < width:
            if not cells:
                continue
            cells += padding[len(cells):]
        yield pick(cells)


def read_floats(path, names) -> tuple[np.ndarray, ...]:
    """The columns `names` (two or more) of the CSV at `path` as float64
    arrays, one per name, read through `open_csv` and `read_columns`.

    A header without all of `names`, a file without data rows, or a cell
    that is empty (a short row reads its missing cells as empty), not a
    number or not finite is a DataError. A cell's error names its data row
    (1 is the first record after the header; blank lines are not counted)
    and its column.
    """
    flat = array("d")  # the cells row by row, parsed without a float each
    with open_csv(path) as reader:
        header = next(reader, [])
        if not set(names) <= set(header):
            raise DataError(f"{path} lacks {'/'.join(names)} columns")
        try:
            flat.extend(map(float, chain.from_iterable(
                read_columns(reader, header, names))))
        except ValueError:  # flat holds every cell before the refused one
            row, col = divmod(len(flat), len(names))
            with open_csv(path) as again:  # to quote the refused cell
                next(again)
                cells = next(islice(read_columns(again, header, names), row,
                                    None))
            raise DataError(f"{path} data row {row + 1}: {names[col]} "
                            f"{cells[col]!r} is not a number") from None
    if not flat:
        raise DataError(f"{path} has no data rows")
    rows = np.frombuffer(flat).reshape(-1, len(names))
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        r, q = bad[0]
        raise DataError(f"{path} data row {r + 1}: {names[q]} "
                        f"'{rows[r, q]}' is not finite")
    return tuple(rows[:, q].copy() for q in range(len(names)))


def write_csv(path, header, rows) -> None:
    """Write `header`, then each of `rows`, as UTF-8 CSV with \\n line
    ends: the format of every CSV the commands write."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


_PRICE_COLUMNS = ("close", "open", "high", "low")


def _price_error(cells: tuple[str, str, str, str]) -> str:
    """Why a row's prices were refused: the first bad cell of (close, open,
    high, low), the order load_csv reads them in."""
    for col, cell in zip(_PRICE_COLUMNS, cells):
        try:
            value = float(cell)
        except ValueError:
            return f"{col} {cell!r} is not a number"
        if not math.isfinite(value):
            return f"{col} {cell!r} is not finite"
    raise AssertionError("_price_error called on a row with valid prices")


def load_csv(path, asset_id: str = "") -> LoadResult:
    """Load a `timestamp,open,high,low,close` CSV into an ascending-time
    TimeSeries.

    Only timestamp and close are required; without all of open/high/low
    they are set to the close. Rows that fail to parse are collected into
    the rejects report, never dropped silently. The file is read through
    `open_csv`.
    """
    isfinite = math.isfinite
    stamps = array("q")  # typed buffers: no object kept per parsed cell
    opens, highs, lows, closes = array("d"), array("d"), array("d"), array("d")
    rejects: list[Reject] = []
    ts_format: str | None = None
    row_no = 1  # row 1 is the header
    with open_csv(path) as reader:
        header = next(reader, [])
        for col in ("timestamp", "close"):
            if col not in header:
                raise DataError(f"missing required column {col!r} in {path}")
        have_ohlc = {"open", "high", "low"} <= set(header)
        # without all of open/high/low, each of them reads the close cell
        prices = _PRICE_COLUMNS if have_ohlc else ("close",) * 4
        records = read_columns(reader, header, ("timestamp", *prices))
        for row_no, (stamp, c, o, h, lo) in enumerate(records, start=2):
            try:
                ts, detected = _parse_timestamp(stamp, ts_format)
            except (ValueError, OverflowError) as exc:
                rejects.append(Reject(row_no, str(exc)))
                continue
            ts_format = ts_format or detected
            try:
                close = float(c)
                if have_ohlc:
                    open_, high, low = float(o), float(h), float(lo)
                else:
                    open_ = high = low = close
            except ValueError:
                rejects.append(Reject(row_no, _price_error((c, o, h, lo))))
                continue
            if not (isfinite(close) and isfinite(open_) and isfinite(high)
                    and isfinite(low)):
                rejects.append(Reject(row_no, _price_error((c, o, h, lo))))
                continue
            stamps.append(ts)
            opens.append(open_)
            highs.append(high)
            lows.append(low)
            closes.append(close)

    series = TimeSeries(asset_id, np.frombuffer(stamps, dtype=np.int64),
                        np.frombuffer(opens), np.frombuffer(highs),
                        np.frombuffer(lows), np.frombuffer(closes))
    series = series.take(np.argsort(series.timestamp, kind="stable"))
    return LoadResult(series=series, n_rows=row_no - 1, rejects=rejects)


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
    write_csv(path, ["row", "reason"],
              ((rej.row, rej.reason) for rej in rejects))
