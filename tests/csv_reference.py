"""csv.DictReader readers kept as references for the streaming ones, and a
Hypothesis strategy for the CSV text they are compared on.

`dict_load_csv` is `tsgan.data.load_csv` and `dict_read_generated_csv` is
the reader of a generated.csv's two close columns, now
`tsgan.data.read_floats(path, ("real_close", "generated_close"))`, as they
were written over one DictReader dict per row; only their encoding is
`utf-8-sig`, as in the streaming readers.
"""

from __future__ import annotations

import csv
import io
import math
import operator

import numpy as np
from hypothesis import strategies as st

from tsgan.data import LoadResult, Reject, TimeSeries, _parse_timestamp
from tsgan.errors import DataError

# the UTF-8 byte-order mark spreadsheet exports write at a file's start
BOM = "\ufeff".encode("utf-8")


def _dict_price_error(row: dict, have_ohlc: bool) -> str:
    for col in ("close", "open", "high", "low") if have_ohlc else ("close",):
        try:
            value = float(row[col])
        except ValueError:
            return f"{col} {row[col]!r} is not a number"
        if not math.isfinite(value):
            return f"{col} {row[col]!r} is not finite"
    raise AssertionError("_dict_price_error called on a row with valid prices")


def dict_load_csv(path, asset_id: str = "") -> LoadResult:
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
        for row_no, row in enumerate(reader, start=2):
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
                rejects.append(Reject(row_no, _dict_price_error(row, have_ohlc)))
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


_GENERATED_COLUMNS = ("real_close", "generated_close")


def dict_read_generated_csv(path):
    real, fake = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None or \
                not set(_GENERATED_COLUMNS) <= set(reader.fieldnames):
            raise DataError(f"{path} lacks real_close/generated_close columns")
        try:
            for row in reader:
                real.append(float(row["real_close"]))
                fake.append(float(row["generated_close"]))
        except ValueError:
            raise _dict_cell_error(path, len(fake) + 1, row) from None
    if not real:
        raise DataError(f"{path} has no data rows")
    columns = np.array(real), np.array(fake)
    bad = np.argwhere(~np.isfinite(np.column_stack(columns)))
    if bad.size:
        r, q = bad[0]
        raise DataError(f"{path} data row {r + 1}: {_GENERATED_COLUMNS[q]} "
                        f"'{columns[q][r]}' is not finite")
    return columns


def _dict_cell_error(path, row_number: int, row: dict) -> DataError:
    for name in _GENERATED_COLUMNS:
        try:
            float(row[name])
        except ValueError:
            return DataError(f"{path} data row {row_number}: {name} "
                             f"{row[name]!r} is not a number")
    raise AssertionError("_dict_cell_error called on a row of numbers")


def outcome(read, path):
    """What `read(path)` gives: ("ok", result) or ("raised", type, text)."""
    try:
        return ("ok", read(path))
    except Exception as exc:  # noqa: BLE001 - any difference must show
        return ("raised", type(exc), str(exc))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


EPOCH_STAMPS = ["1647871200", "1647871260.5", "-86400.75", "0", "1e20"]
RFC3339_STAMPS = ["2022-03-21T14:00:00Z", "2022-03-21T15:01:00+01:00",
                  "2022-03-21T14:02:00", "2022-03-21 14:03:00.25+00:00",
                  "0001-01-01T00:30:00+01:00"]
# stamps next to the edges of load_csv's vectorized parses: some take it,
# the others must read as _parse_timestamp reads them one by one
NEAR_EPOCH_STAMPS = [
    "1647871200.0", "1_647_871_200", " 1647871200 ", "1e9", "-0", "nan",
    "inf", "-62135596800", "-62135596801", "253402300799", "253402300800",
    "\u0661\u0666\u0664\u0667\u0668\u0667\u0661\u0662\u0660\u0660"]
NEAR_RFC3339_STAMPS = [
    "2023-02-29T00:00:00Z", "2024-02-29T12:00:00Z", "1900-02-29T00:00:00Z",
    "2000-02-29T00:00:00Z", "2022-04-31T00:00:00Z", "2022-13-01T00:00:00Z",
    "2022-00-10T00:00:00Z", "2022-03-00T00:00:00Z", "2022-03-21T24:00:00Z",
    "2022-03-21T14:00:60Z", "2022-03-21t14:00:00Z", "2022-03-21T14:00:00z",
    "2022-03-21T14:00:00Z\x00", "2022-03-21T14:00:00Z ", "0000-01-01T00:00:00Z",
    "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "1970-01-01T00:00:00Z",
    "2022-03-21T14:00:0\u0663Z", "2022-03-21T14:00:00\u00e9"]
PRICES = ["1.5", "2", "100.25", "0.5", "3e2", "-1", "0", " 2.5 ", "1_0"]
BAD_PRICES = ["", "nan", "NaN", "inf", "-inf", "Infinity", "abc", "1,5",
              "2\n3", '"q"']
# any cell at all, including ones csv must quote
CELLS = st.one_of(
    st.sampled_from(EPOCH_STAMPS + RFC3339_STAMPS + NEAR_EPOCH_STAMPS
                    + NEAR_RFC3339_STAMPS + PRICES + BAD_PRICES
                    + ["not-a-time", "4\r\n5"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
            max_size=6),
)


@st.composite
def csv_text(draw, names, required):
    """CSV text. Seven times in eight its header holds the
    `required` names and each other name of `names` with odds 3 in 4, some
    of them repeated, in any order; else any list of `names`. Rows may be
    blank, short or long, each ended by \\n or \\r\\n. Most cells fit
    their column: a stamp under "timestamp" (epoch, RFC 3339 or mixed, one
    style a file), a price elsewhere, one in ten or one in two of them bad.
    """
    if draw(st.integers(0, 7)):
        header = [name for name in names
                  if name in required or draw(st.integers(0, 3))]
        header += draw(st.lists(st.sampled_from(names), max_size=3))
        header = draw(st.permutations(header))
    else:
        header = draw(st.lists(st.sampled_from(names), max_size=5))
    epoch = EPOCH_STAMPS + NEAR_EPOCH_STAMPS
    rfc3339 = RFC3339_STAMPS + NEAR_RFC3339_STAMPS
    stamps = st.sampled_from(draw(st.sampled_from(
        [epoch, rfc3339, epoch + rfc3339])))
    odds = draw(st.sampled_from([2, 10]))
    prices = st.integers(1, odds).flatmap(
        lambda i: st.sampled_from(PRICES if i > 1 else BAD_PRICES))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["any", "short", "full", "long"]))
        if kind == "any":
            rows.append(draw(st.lists(CELLS, max_size=8)))
            continue
        cells = [draw(stamps if name == "timestamp" else prices)
                 for name in header]
        if kind == "short":  # may leave a blank line
            cells = cells[:draw(st.integers(0, len(cells)))]
        elif kind == "long":
            cells += draw(st.lists(CELLS, min_size=1, max_size=3))
        rows.append(cells)
    buf = io.StringIO()
    for cells in [header, *rows]:
        csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))) \
            .writerow(cells)
    return buf.getvalue()


# cells NumPy's C reader reads as float() reads them, then cells it refuses
# or reads into a non-finite value, so the csv loop must read the file
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1.", "+1", " 2.5 ", "1e5", "-0", ".5", "1E-3", "\t7\t",
                     " 3", "1e-320"]))
ODD_NUMBERS = st.sampled_from(
    ["1_0", "١", "nan", "inf", "-Infinity", "1e999", "", "abc", "0x1p3",
     "1\x1c", "1\x1f", "1\x00", '"1.5"', "1\r2", "﻿1"])
NUMERIC_NAMES = ["timestamp", "real_close", "generated_close", "x"]


@st.composite
def numeric_csv_text(draw):
    """CSV text with a real_close and a generated_close column, most of
    whose files NumPy's C reader takes: their cells are numbers, joined by
    "," with no quoting, on \\n or \\r\\n line ends. One file in three has
    faults: a line in `odds` (2, 5 or 20) is blank, short, long, ended by
    a lone \\r, or has one odd cell."""
    header = draw(st.permutations(NUMERIC_NAMES[:draw(st.integers(3, 4))]))
    header = [*header, *draw(st.lists(st.sampled_from(NUMERIC_NAMES),
                                      max_size=1))]
    odds = draw(st.sampled_from([0, 0, 0, 0, 2, 5, 20]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header) + ending]
    for _ in range(draw(st.integers(0, 12))):
        cells = [draw(NUMBERS) for _ in header]
        end = ending
        if odds and draw(st.integers(1, odds)) == 1:
            fault = draw(st.sampled_from(["blank", "short", "long", "cr",
                                          "odd"]))
            if fault == "blank":
                cells = []
            elif fault == "short":
                cells = cells[:draw(st.integers(1, len(cells) - 1))]
            elif fault == "long":
                cells += draw(st.lists(NUMBERS, min_size=1, max_size=3))
            elif fault == "cr":
                end = "\r"
            else:
                cells[draw(st.integers(0, len(cells) - 1))] = \
                    draw(ODD_NUMBERS)
        lines.append(",".join(cells) + end)
    return "".join(lines)


# cells with no quote or line break that make a line take the per-cell
# rules of load_csv's byte path, or send its block back to them
PLAIN_ODD_CELLS = [cell for cell in PRICES + BAD_PRICES
                   if not set(cell) & set('"\r\n')] + [
    "-", ".", "1-2", "1..2", "1e-320", "9007199254740993"]
PLAIN_PRICES = st.one_of(
    st.integers(0, 10**7).map(lambda c: f"{c // 100}.{c % 100:02d}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
WHOLE_SECONDS = st.integers(-62135596800, 253402300799)


@st.composite
def plain_price_csv_text(draw):
    """Price CSV text most of whose files load_csv reads on its byte path:
    no quote, cells joined by "," on \\n or \\r\\n line ends. The header
    holds timestamp and close, and each of open, high, low and volume with
    odds 3 in 4, at times one of them twice, in any order. Stamps are of
    one style a file: whole-second RFC 3339 or epoch stamps, and at times
    (in one file in two, one cell in five) any of that style's stamps.
    Prices are cents or reprs. In one file in two, a line in `odds` (3,
    10 or 40) is blank, short, long, or has an odd cell."""
    header = ["timestamp", "close"] + [
        name for name in ("open", "high", "low", "volume")
        if draw(st.integers(0, 3))]
    header += draw(st.lists(st.sampled_from(header), max_size=1))
    header = draw(st.permutations(header))
    if draw(st.booleans()):
        stamps = WHOLE_SECONDS.map(str)
        near = EPOCH_STAMPS + NEAR_EPOCH_STAMPS
    else:
        stamps = st.datetimes().map(
            lambda dt: dt.isoformat(timespec="seconds") + "Z")
        near = RFC3339_STAMPS + NEAR_RFC3339_STAMPS
    if draw(st.booleans()):
        stamps = st.one_of(stamps, stamps, stamps, stamps,
                           st.sampled_from(near))
    odds = draw(st.sampled_from([0, 3, 10, 40]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 30))):
        cells = [draw(stamps if name == "timestamp" else PLAIN_PRICES)
                 for name in header]
        if odds and draw(st.integers(1, odds)) == 1:
            fault = draw(st.sampled_from(["blank", "short", "long", "odd"]))
            if fault == "blank":
                cells = []
            elif fault == "short":
                cells = cells[:draw(st.integers(1, len(cells) - 1))]
            elif fault == "long":
                cells += draw(st.lists(PLAIN_PRICES, min_size=1, max_size=2))
            else:
                cells[draw(st.integers(0, len(cells) - 1))] = \
                    draw(st.sampled_from(PLAIN_ODD_CELLS))
        lines.append(",".join(cells))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):  # no line end after the last line
        ends[-1] = ""
    return "".join(map(operator.add, lines, ends))
