"""Minute-bar CSV ingestion, cleaning, and windowing.

Everything here is a pure function over immutable inputs: load once, clean,
then slice normalized closes into (condition window, next value) pairs. A
series is columnar: one array per CSV column, rows ascending in time.

`load_csv` parses LOAD_BLOCK records at a time, a column at a time. The
timestamp format is detected as `_parse_timestamp` detects it, from the
first stamp that parses. After that, two kinds of stamp take a strict
vectorized parse: exactly `YYYY-MM-DDTHH:MM:SSZ` (ASCII digits, a real
date, hh <= 23, mm and ss <= 59) in an RFC 3339 file, and a whole number
of seconds within years 1-9999 in an epoch file. Every other stamp goes
through `_parse_timestamp` on its own. Either way a cell reads the same:
the rows, rejects and columns are those a row-by-row loop gives.
"""

from __future__ import annotations

import csv
import math
import operator
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain, compress, islice, repeat

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
        # not a number, or out of range (OSError where gmtime refuses it)
        except (ValueError, OverflowError, OSError):
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
    missing cells as "", and extra cells are ignored. The chain runs in C:
    each record is padded by one list concatenation, then picked.
    """
    last = {name: i for i, name in enumerate(header)}
    index = [last[name] for name in names]
    padding = [""] * (max(index) + 1)
    return map(operator.itemgetter(*index),
               map(operator.add, filter(None, reader), repeat(padding)))


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


# records load_csv parses at a time: a block is split into columns, and
# each column is parsed by one C-level call. Larger blocks parse no faster
# and raise the peak memory, since a block's cells are held at once
LOAD_BLOCK = 512


def _floats(cells) -> np.ndarray:
    """float(cell) for each of `cells`, NaN where float refuses the cell."""
    out = array("d")
    it = iter(cells)
    while True:
        try:
            out.extend(map(float, it))
            return np.frombuffer(out)
        except ValueError:  # out holds every cell before the refused one
            out.append(math.nan)


# per byte of YYYY-MM-DDTHH:MM:SSZ, the lowest it may be and how far above
# that; month, day and hour are checked in full after
_RFC3339_LOW = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)[:, None]
_RFC3339_SPAN = np.frombuffer(b"9999-19-39T29:59:59Z", dtype=np.uint8)[:, None] \
    - _RFC3339_LOW
# the bytes of the tens and of the ones of each two-digit field: the
# century, the year in it, month, day, hour, minute, second
_RFC3339_TENS = [0, 2, 5, 8, 11, 14, 17]
_RFC3339_ONES = [1, 3, 6, 9, 12, 15, 18]


def _strict_rfc3339(cells) -> tuple[np.ndarray, np.ndarray]:
    """(microseconds since the epoch, mask of the cells parsed) for the
    `cells` that are exactly YYYY-MM-DDTHH:MM:SSZ in ASCII digits and name
    a real UTC second of years 1-9999; each such cell reads as
    `_parse_timestamp(cell, "rfc3339")` does. Other cells are left out of
    the mask, with an arbitrary value."""
    fit = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells)) == 20
    # "replace" keeps one byte a character: a non-ASCII cell fails the
    # bounds. One row per byte position, so each step runs along the cells
    raw = np.frombuffer("".join(compress(cells, fit)).encode("ascii", "replace"),
                        dtype=np.uint8).reshape(-1, 20).T.copy()
    ok = ~np.any(raw - _RFC3339_LOW > _RFC3339_SPAN, axis=0)  # uint8 wraps
    raw -= np.uint8(48)
    century, year, month, day, hour, minute, second = \
        (10 * raw[_RFC3339_TENS] + raw[_RFC3339_ONES]).astype(np.int64)
    year += 100 * century
    # the first day of this month and of the next, in days since 1970-01-01
    months = (year - 1970) * 12 + month - 1
    starts = (months + np.array([[0], [1]])).astype("datetime64[M]") \
        .astype("datetime64[D]").astype(np.int64)
    ok &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
           & (day <= starts[1] - starts[0]) & (hour <= 23))
    seconds = (((starts[0] + day - 1) * 24 + hour) * 60 + minute) * 60 + second
    micros = np.zeros(len(cells), dtype=np.int64)
    micros[fit] = seconds * 1_000_000
    mask = np.zeros(len(cells), dtype=bool)
    mask[fit] = ok
    return micros, mask


# whole seconds that datetime.fromtimestamp turns into years 1-9999
_EPOCH_SPAN = [(bound.replace(tzinfo=timezone.utc) - _EPOCH) // timedelta(seconds=1)
               for bound in (datetime.min, datetime.max)]


def _strict_epoch(cells) -> tuple[np.ndarray, np.ndarray]:
    """(microseconds since the epoch, mask of the cells parsed) for the
    `cells` whose float is a whole number of seconds within years 1-9999;
    each such cell reads as `_parse_timestamp(cell, "epoch")` does. Other
    cells are left out of the mask, with an arbitrary value."""
    x = _floats(cells)
    ok = (x >= _EPOCH_SPAN[0]) & (x <= _EPOCH_SPAN[1]) & (np.trunc(x) == x)
    return np.where(ok, x, 0.0).astype(np.int64) * 1_000_000, ok


_STRICT_PARSE = {"rfc3339": _strict_rfc3339, "epoch": _strict_epoch}


def _parse_stamps(cells, fmt: str | None):
    """Parse one block of timestamp cells as the per-cell loop would:
    `_parse_timestamp(cell, None)` on each cell until one parses and fixes
    the format, then the strict vectorized parse of that format, and
    `_parse_timestamp(cell, fmt)` for each cell it leaves.

    Returns (microseconds, mask of the parsed cells, {index: reason} for
    the refused ones, the format or None if no cell has parsed yet).
    """
    n = len(cells)
    micros = np.zeros(n, dtype=np.int64)
    parsed = np.zeros(n, dtype=bool)
    reasons: dict[int, str] = {}
    first = 0
    while fmt is None and first < n:
        try:
            micros[first], fmt = _parse_timestamp(cells[first], None)
            parsed[first] = True
        except (ValueError, OverflowError) as exc:
            reasons[first] = str(exc)
        first += 1
    if first < n:
        micros[first:], parsed[first:] = _STRICT_PARSE[fmt](cells[first:])
        for i in (np.flatnonzero(~parsed[first:]) + first).tolist():
            try:
                micros[i] = _parse_timestamp(cells[i], fmt)[0]
                parsed[i] = True
            except (ValueError, OverflowError) as exc:
                reasons[i] = str(exc)
    return micros, parsed, reasons, fmt


def load_csv(path, asset_id: str = "") -> LoadResult:
    """Load a `timestamp,open,high,low,close` CSV into an ascending-time
    TimeSeries.

    Only timestamp and close are required; without all of open/high/low
    they are set to the close. Rows that fail to parse are collected into
    the rejects report, never dropped silently: a row's timestamp reason
    comes before its price reason. The file is read through `open_csv`,
    LOAD_BLOCK records at a time.
    """
    rejects: list[Reject] = []
    ts_format: str | None = None
    n_rows = kept = 0
    with open_csv(path) as reader:
        header = next(reader, [])
        for col in ("timestamp", "close"):
            if col not in header:
                raise DataError(f"missing required column {col!r} in {path}")
        # without all of open/high/low, each of them is the close
        names = _PRICE_COLUMNS if {"open", "high", "low"} <= set(header) \
            else ("close",)
        stamps = np.empty(0, dtype=np.int64)
        prices = [np.empty(0) for _ in names]
        records = read_columns(reader, header, ("timestamp", *names))
        while block := list(islice(records, LOAD_BLOCK)):
            cells, *columns = zip(*block)
            micros, keep, reasons, ts_format = _parse_stamps(cells, ts_format)
            values = _floats(chain.from_iterable(columns))
            values = values.reshape(len(names), len(cells))
            keep &= np.all(np.isfinite(values), axis=0)
            for i in np.flatnonzero(~keep).tolist():
                reason = reasons.get(i) or _price_error(block[i][1:])
                rejects.append(Reject(n_rows + i + 2, reason))  # 1 is the header
            stamps = _put(stamps, kept, micros[keep])
            for j, column in enumerate(values):
                prices[j] = _put(prices[j], kept, column[keep])
            n_rows += len(cells)
            kept += int(np.count_nonzero(keep))

    prices = [buffer[:kept] for buffer in prices]
    close, open_, high, low = prices if len(prices) == 4 else prices * 4
    series = TimeSeries(asset_id, stamps[:kept], open_, high, low, close)
    series = series.take(np.argsort(series.timestamp, kind="stable"))
    return LoadResult(series=series, n_rows=n_rows, rejects=rejects)


def _put(buffer: np.ndarray, start: int, values: np.ndarray) -> np.ndarray:
    """`buffer` with `values` written from `start` on. When they do not
    fit, they go into a buffer at least twice as long that first gets the
    `start` items before them, so growing costs under one copy per item.

    (An array.array grows by small steps, and those steps, between each
    block's NumPy temporaries, left holes in the heap: `analyze` on 200k
    rows peaked 1-2 MB higher.)"""
    end = start + len(values)
    if end > len(buffer):
        grown = np.empty(max(end, 2 * len(buffer)), dtype=buffer.dtype)
        grown[:start] = buffer[:start]
        buffer = grown
    buffer[start:end] = values
    return buffer


def clean(series: TimeSeries) -> tuple[TimeSeries, int]:
    """Drop invariant-violating bars, then, among the valid ones, all but
    the first bar of each timestamp. Expects ascending time, as load_csv
    returns it.

    Returns the cleaned series and the number of bars dropped.
    """
    o, hi, lo, c = series.open, series.high, series.low, series.close
    # low > 0 and high < inf bound open and close on both sides, so all
    # four are finite and positive; a NaN fails every comparison
    valid = ((lo > 0) & (hi < np.inf) & (lo <= o) & (o <= hi)
             & (lo <= c) & (c <= hi))
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
