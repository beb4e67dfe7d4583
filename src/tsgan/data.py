"""Minute-bar CSV ingestion, cleaning, and windowing.

Everything here is a pure function over immutable inputs: load once, clean,
then slice normalized closes into (condition window, next value) pairs. A
series is columnar: one array per CSV column, rows ascending in time.

`load_csv` reads the file's bytes once and parses them a block at a time.
A `_plain` file (UTF-8 with no quote, NUL, byte 0x1c-0x1f, `\r` outside
`\r\n` or cell over csv's size limit) takes the byte path: NumPy finds the
lines and commas of BYTE_BLOCK bytes, one `np.loadtxt` call parses the
number cells of the lines that have the header's cell count and whose
number cells pass a byte screen, and a strict vectorized parse takes the
stamps of those lines once the first stamp that parses has fixed the
format: exactly `YYYY-MM-DDTHH:MM:SSZ` (ASCII digits, a real date, hh <=
23, mm and ss <= 59) in an RFC 3339 file, and a whole number of seconds
within years 1-9999 in an epoch file. A line is kept from there only when
its stamp took that parse and its prices are finite. Every other line,
and every record of every other file (LOAD_BLOCK records of `open_csv` at
a time), takes `_parse_records`, the per-cell rules one record after
another: `_parse_timestamp`, one `float` per price cell and
`_price_error`. Either way a cell reads the same: the rows, rejects and
columns are those a row-by-row loop gives.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import islice, repeat

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
def open_csv(path, raw: bytes):
    """A `csv.reader` over `raw`, the bytes of the UTF-8 file at `path`; a
    leading byte-order mark is skipped. While it is open, a byte that is
    not UTF-8 or a record `csv` refuses (a cell over its field size limit)
    is a DataError naming the file."""
    with io.TextIOWrapper(io.BytesIO(raw), newline="",
                          encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None


def _column_index(header: list[str], names) -> list[int]:
    """The column of each of `names` in `header`: a repeated header name
    reads its last column, as in `csv.DictReader`."""
    last = {name: i for i, name in enumerate(header)}
    return [last[name] for name in names]


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
    index = _column_index(header, names)
    padding = [""] * (max(index) + 1)
    return map(operator.itemgetter(*index),
               map(operator.add, filter(None, reader), repeat(padding)))


def read_bytes(path) -> bytes:
    """The bytes of the file at `path`, read once, so a pipe works too."""
    with open(path, "rb") as fh:
        return fh.read()


def read_floats(path, names, raw: bytes | None = None) \
        -> tuple[np.ndarray, ...]:
    """The columns `names` (two or more) of the CSV at `path` as float64
    arrays, one per name. The file is read once, by `read_bytes`, unless
    the caller passes its bytes as `raw`.

    The cells are those `read_columns` gives. A header without all of
    `names`, a file without data rows, or a cell that is empty (a short
    row reads its missing cells as empty), not a number or not finite is a
    DataError. A cell's error names its data row (1 is the first record
    after the header; blank lines are not counted) and its column.

    A `_plain` file is parsed by NumPy's C reader, which reads each cell
    with the `float` parser; if it refuses the file or finds no rows or a
    non-finite value, the `csv` loop reads the same bytes and raises the
    error. Every other file takes the loop. Both give the same bits.
    """
    if raw is None:
        raw = read_bytes(path)
    rows = _c_reader_rows(raw, names)
    if rows is None:
        rows = _loop_rows(path, raw, names)
    return tuple(rows[:, q].copy() for q in range(len(names)))


# bytes that keep a file from NumPy's readers: a quote starts a quoted
# cell, NUL is a character to csv, and NumPy strips 0x1c-0x1f around a
# cell as space where float refuses them
_LOOP_BYTES = (b'"', b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_CUTS = (b",", b"\r", b"\n")


def _runs_fit(raw: bytes, limit: int) -> bool:
    """Whether no run of bytes between `,`, `\r` and `\n` in `raw` is
    longer than `limit`: a cell that fits is no more characters than that.
    Each step starts at a run's first byte and moves past the last cut in
    the next `limit` + 1 bytes, which a run that fits must reach."""
    start = 0
    while len(raw) - start > limit:
        cut = max(raw.rfind(c, start, start + limit + 1) for c in _CUTS)
        if cut < 0:
            return False
        start = cut + 1
    return True


def _plain(raw: bytes) -> bool:
    """Whether `raw` is CSV whose records are its lines and whose cells
    lie between its commas, as `csv` reads them: UTF-8 with none of
    `_LOOP_BYTES`, no `\r` but in `\r\n`, and no cell over
    `csv.field_size_limit()` (which `csv` refuses)."""
    if any(b in raw for b in _LOOP_BYTES) \
            or b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n") \
            or not _runs_fit(raw, csv.field_size_limit()):
        return False
    if raw.isascii():
        return True
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _header(raw: bytes) -> tuple[list[str], int]:
    """The header record of `_plain` bytes, and the offset of the line
    after it."""
    end = raw.find(b"\n")
    end = len(raw) if end < 0 else end
    line = raw[:end].removesuffix(b"\r").decode("utf-8-sig")
    return next(csv.reader([line]), []), end + 1


def _loadtxt(body, usecols) -> np.ndarray | None:
    """The cells `usecols` of the `_plain` lines in the binary file `body`
    as (rows, len(usecols)) float64, as `np.loadtxt` parses them, or None
    where it refuses a line."""
    try:
        with warnings.catch_warnings():  # "input contained no data"
            warnings.simplefilter("ignore")
            return np.loadtxt(body, delimiter=",", comments=None,
                              quotechar=None, ndmin=2, dtype=np.float64,
                              usecols=usecols, encoding="utf-8")
    except ValueError:
        return None


def _c_reader_rows(raw: bytes, names):
    """The (rows, len(names)) cells of `names` as NumPy's C reader parses
    them, or None where only the csv loop can tell what the file holds."""
    if not _plain(raw):
        return None
    header, start = _header(raw)
    if not set(names) <= set(header):
        return None
    body = io.BytesIO(raw)
    body.seek(start)
    rows = _loadtxt(body, _column_index(header, names))
    return rows if rows is not None and rows.shape[0] \
        and np.isfinite(rows).all() else None


def _loop_rows(path, raw: bytes, names) -> np.ndarray:
    """The cells of `names` in `raw` as (rows, len(names)) float64, one
    `float` each over the records of `read_columns`; raises every
    DataError that `read_floats` names, at the first cell it refuses."""
    flat = []
    with open_csv(path, raw) as reader:
        header = next(reader, [])
        if not set(names) <= set(header):
            raise DataError(f"{path} lacks {'/'.join(names)} columns")
        for row, cells in enumerate(read_columns(reader, header, names), 1):
            for name, cell in zip(names, cells):
                try:
                    flat.append(float(cell))
                except ValueError:
                    raise DataError(f"{path} data row {row}: {name} "
                                    f"{cell!r} is not a number") from None
    if not flat:
        raise DataError(f"{path} has no data rows")
    rows = np.array(flat).reshape(-1, len(names))
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        r, q = bad[0]
        raise DataError(f"{path} data row {r + 1}: {names[q]} "
                        f"'{rows[r, q]}' is not finite")
    return rows


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


# records the csv path of load_csv parses at a time. It bounds the memory
# only, since a block's cells are held at once: larger blocks parse no
# faster and raise the peak
LOAD_BLOCK = 512
# bytes of a plain file's body the byte path of load_csv takes at a time
# (whole lines, at least one): about 11,000 lines of a minute file, one
# np.loadtxt call. Its index arrays are a few times its size, so the peak
# memory does not grow with the file; blocks of 2,800 lines were ~15 %
# slower on the 200k-row minute file
BYTE_BLOCK = 1 << 19


# per byte of YYYY-MM-DDTHH:MM:SSZ, the lowest it may be and how far above
# that; month, day and hour are checked in full after
_RFC3339_LOW = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)[:, None]
_RFC3339_SPAN = np.frombuffer(b"9999-19-39T29:59:59Z", dtype=np.uint8)[:, None] \
    - _RFC3339_LOW
# the bytes of the tens and of the ones of each two-digit field: the
# century, the year in it, month, day, hour, minute, second
_RFC3339_TENS = [0, 2, 5, 8, 11, 14, 17]
_RFC3339_ONES = [1, 3, 6, 9, 12, 15, 18]


def _strict_rfc3339(stamps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(microseconds since the epoch, mask of the stamps parsed) for the
    columns of `stamps`, a (20, n) uint8 matrix of n 20-byte stamps, that
    are exactly YYYY-MM-DDTHH:MM:SSZ in ASCII digits and name a real UTC
    second of years 1-9999; each such stamp reads as `_parse_timestamp(
    stamp, "rfc3339")` does. Other stamps are left out of the mask, with
    an arbitrary value. A row per byte position, so each step runs along
    the stamps."""
    ok = ~np.any(stamps - _RFC3339_LOW > _RFC3339_SPAN, axis=0)  # uint8 wraps
    digits = stamps - np.uint8(48)
    century, year, month, day, hour, minute, second = \
        (10 * digits[_RFC3339_TENS] + digits[_RFC3339_ONES]).astype(np.int64)
    year += 100 * century
    # the first day of this month and of the next, in days since 1970-01-01
    months = (year - 1970) * 12 + month - 1
    starts = (months + np.array([[0], [1]])).astype("datetime64[M]") \
        .astype("datetime64[D]").astype(np.int64)
    ok &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
           & (day <= starts[1] - starts[0]) & (hour <= 23))
    seconds = (((starts[0] + day - 1) * 24 + hour) * 60 + minute) * 60 + second
    return seconds * 1_000_000, ok


# whole seconds that datetime.fromtimestamp turns into years 1-9999
_EPOCH_SPAN = [(bound.replace(tzinfo=timezone.utc) - _EPOCH) // timedelta(seconds=1)
               for bound in (datetime.min, datetime.max)]


def _strict_epoch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(microseconds since the epoch, mask of the stamps parsed) for the
    float values `x` of epoch stamps that are a whole number of seconds
    within years 1-9999; each such stamp reads as `_parse_timestamp(stamp,
    "epoch")` does. Other stamps are left out of the mask, with an
    arbitrary value."""
    ok = (x >= _EPOCH_SPAN[0]) & (x <= _EPOCH_SPAN[1]) & (np.trunc(x) == x)
    return np.where(ok, x, 0.0).astype(np.int64) * 1_000_000, ok


def _parse_records(records, fmt: str | None):
    """The per-cell rules over `records`, (stamp, *prices) cell tuples, one
    record after another: `_parse_timestamp` on the stamp (the first stamp
    that parses fixes the format), `float` on each price cell, and
    `_price_error` for a price that is not a finite number.

    Returns ((microseconds, mask of the rows kept, the prices as one row
    per price column, {index: reason} for each row not kept), format)."""
    n = len(records)  # Python lists, since a NumPy item costs more to set
    micros, keep = [0] * n, [False] * n
    prices = [[math.nan] * (len(records[0]) - 1)] * n
    reasons: dict[int, str] = {}
    for i, (stamp, *cells) in enumerate(records):
        try:
            micros[i], fmt = _parse_timestamp(stamp, fmt)
        except (ValueError, OverflowError) as exc:
            reasons[i] = str(exc)  # a stamp's reason comes before a price's
            continue
        try:
            prices[i] = [float(cell) for cell in cells]
            keep[i] = all(map(math.isfinite, prices[i]))
        except ValueError:
            pass
        if not keep[i]:
            reasons[i] = _price_error(cells)
    return (np.array(micros, dtype=np.int64), np.array(keep),
            np.array(prices).T, reasons), fmt


def _price_names(path, header: list[str]) -> tuple[str, ...]:
    """The price columns load_csv reads from a file with `header`: all four,
    or only the close when one of open/high/low is missing (each of them
    is then the close). A DataError when timestamp or close is missing."""
    for col in ("timestamp", "close"):
        if col not in header:
            raise DataError(f"missing required column {col!r} in {path}")
    return _PRICE_COLUMNS if {"open", "high", "low"} <= set(header) \
        else ("close",)


def _record_blocks(path, raw: bytes):
    """The csv path of load_csv: its price names, then the parse of each
    LOAD_BLOCK records of `open_csv` over `raw`."""
    fmt = None
    with open_csv(path, raw) as reader:
        header = next(reader, [])
        names = _price_names(path, header)
        yield names
        records = read_columns(reader, header, ("timestamp", *names))
        while block := list(islice(records, LOAD_BLOCK)):
            parsed, fmt = _parse_records(block, fmt)
            yield parsed


# the bytes a number cell may start and end with to go to np.loadtxt: no
# space or other byte float and NumPy could strip differently
_FIRST_BYTE = np.isin(np.arange(256), list(b"0123456789+-."))
_LAST_BYTE = np.isin(np.arange(256), list(b"0123456789."))


def _byte_blocks(path, raw: bytes):
    """The byte path of load_csv over `_plain` bytes: its price names, then
    the parse of each BYTE_BLOCK bytes of whole lines, as `_parse_lines`."""
    header, start = _header(raw)
    names = _price_names(path, header)
    yield names
    index = _column_index(header, ("timestamp", *names))
    buf = np.frombuffer(raw, dtype=np.uint8)
    fmt = None
    while start < len(raw):
        end = raw.rfind(b"\n", start, start + BYTE_BLOCK) + 1 \
            or raw.find(b"\n", start) + 1 or len(raw)
        parsed, fmt = _parse_lines(buf[start:end], raw[start:end], index,
                                   len(header), fmt)
        if parsed[0].size:
            yield parsed
        start = end


def _parse_lines(seg: np.ndarray, text: bytes, index, width: int,
                 fmt: str | None):
    """Parse whole lines of a `_plain` file's body, given as uint8 `seg`
    and as bytes `text`, into what `_parse_records` gives for their
    records (the non-blank lines): `index` are the columns of the stamp
    and the prices and `width` the header's cell count.

    NumPy finds the lines and commas. A line of `width` cells after the
    first parseable stamp of the file whose number cells (the prices, and
    the stamp in an epoch file) pass a byte screen is "cut": its number
    cells go, with the other cut lines, to one `np.loadtxt` call, and an
    RFC 3339 stamp of 20 bytes to `_strict_rfc3339`. A cut line is kept
    when `np.loadtxt` took it, the strict parse (`_strict_rfc3339` or
    `_strict_epoch`) took its stamp, and its prices are finite. Every
    other line takes `_parse_records` on its cells.
    """
    stops = np.flatnonzero(seg == 10) + 1  # each line's end, past its \n
    if not stops.size or stops[-1] != len(seg):  # the file's last line
        stops = np.append(stops, len(seg))
    starts = np.r_[0, stops[:-1]]
    ends = stops - (seg.take(stops - 1) == 10)  # the cells' end
    ends -= (ends > starts) & (seg.take(ends - 1, mode="clip") == 13)
    lines = np.flatnonzero(ends > starts)  # a blank line is no record
    first, last = starts[lines], ends[lines]
    n = len(lines)

    pad = [""] * (max(index) + 1)
    pick = operator.itemgetter(*index)

    def record(r):  # the cells of record r as read_columns picks them
        return pick(text[first[r]:last[r]].decode("utf-8").split(",") + pad)

    fmt_in, head = fmt, 0
    while fmt is None and head < n:  # records up to the first parseable
        try:                         # stamp take the per-cell rules
            fmt = _parse_timestamp(record(head)[0], None)[1]
        except (ValueError, OverflowError):
            pass
        head += 1

    commas = np.flatnonzero(seg == 44)
    comma = np.searchsorted(commas, first)  # each record's first comma
    full = np.flatnonzero(np.searchsorted(commas, last) - comma == width - 1)
    full = full[full >= head]

    def cells(c):  # where column c of the full records starts and ends
        lo = first[full] if c == 0 else commas[comma[full] + c - 1] + 1
        hi = last[full] if c == width - 1 else commas[comma[full] + c]
        return lo, hi

    numbers = list(index) if fmt == "epoch" else list(index[1:])
    screened = np.ones(len(full), dtype=bool)
    for c in numbers:
        lo, hi = cells(c)
        screened &= (hi > lo) & _FIRST_BYTE[seg.take(lo, mode="clip")] \
            & _LAST_BYTE[seg.take(hi - 1, mode="clip")]
    cut = full[screened]

    values = None
    if cut.size:
        # the cut lines, as the runs of lines between the others
        take = np.zeros(len(starts) + 1, dtype=np.int8)
        take[lines[cut]] = 1
        edge = np.diff(take, prepend=0)  # 1 starts a run, -1 is past one
        runs = zip(starts[edge[:-1] == 1].tolist(),
                   stops[edge[1:] == -1].tolist())
        values = _loadtxt(io.BytesIO(b"".join(text[a:b] for a, b in runs)),
                          numbers)

    micros = np.zeros(n, dtype=np.int64)
    keep = np.zeros(n, dtype=bool)
    prices = np.empty((len(index) - 1, n))
    if values is not None:
        prices[:, cut] = values[:, -prices.shape[0]:].T
        if fmt == "epoch":
            micros[cut], keep[cut] = _strict_epoch(values[:, 0])
        else:
            lo, hi = (bound[screened] for bound in cells(index[0]))
            fit = hi - lo == 20
            micros[cut[fit]], keep[cut[fit]] = _strict_rfc3339(
                seg[lo[fit] + np.arange(20)[:, None]])
        keep[cut] &= np.isfinite(prices[:, cut]).all(axis=0)

    reasons: dict[int, str] = {}
    odd = np.flatnonzero(~keep)
    if odd.size:
        (m, k, v, why), fmt = _parse_records([record(r) for r in odd.tolist()],
                                             fmt_in)
        micros[odd], keep[odd], prices[:, odd] = m, k, v
        reasons = {odd[i].item(): reason for i, reason in why.items()}
    return (micros, keep, prices, reasons), fmt


def _blocks(path):
    """The blocks of load_csv over the file at `path`, read once: only
    they hold its bytes, so those are freed when the last block is read."""
    raw = read_bytes(path)
    return (_byte_blocks if _plain(raw) else _record_blocks)(path, raw)


def load_csv(path, asset_id: str = "") -> LoadResult:
    """Load a `timestamp,open,high,low,close` CSV into an ascending-time
    TimeSeries.

    Only timestamp and close are required; without all of open/high/low
    they are set to the close. Rows that fail to parse are collected into
    the rejects report, never dropped silently: a row's timestamp reason
    comes before its price reason.

    The file is read once (`read_bytes`, so a pipe works). A `_plain` file
    takes the byte path (`_byte_blocks`): NumPy cuts its lines and cells
    and `np.loadtxt` reads the number cells, and only odd lines take the
    per-cell rules. Every other file takes the csv path
    (`_record_blocks`), `open_csv` over the same bytes. Both give the
    rows, rejects and column bits of one `csv.DictReader` dict per row.
    """
    blocks = _blocks(path)
    names = next(blocks)
    rejects: list[Reject] = []
    n_rows = kept = 0
    stamps = np.empty(0, dtype=np.int64)
    prices = [np.empty(0) for _ in names]
    for micros, keep, values, reasons in blocks:
        rejects += [Reject(n_rows + i + 2, reasons[i])  # 1 is the header
                    for i in np.flatnonzero(~keep).tolist()]
        stamps = _put(stamps, kept, micros[keep])
        for j, column in enumerate(values):
            prices[j] = _put(prices[j], kept, column[keep])
        n_rows += len(keep)
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
