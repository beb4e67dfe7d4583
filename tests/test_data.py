import tempfile
from datetime import datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_reference import (BOM, EPOCH_STAMPS, NEAR_EPOCH_STAMPS,
                           NEAR_RFC3339_STAMPS, RFC3339_STAMPS, csv_text,
                           dict_load_csv, outcome, same_bits)
from tsgan import data
from tsgan.errors import DataError

CSV_HEADER = "timestamp,open,high,low,close\n"


def write_csv(path, rows, header=CSV_HEADER):
    path.write_text(header + "".join(rows))
    return path


def row(ts, o, h, lo, c):
    return f"{ts},{o},{h},{lo},{c}\n"


def columns(series):
    return (series.timestamp, series.open, series.high, series.low,
            series.close)


def assert_same_series(a, b):
    for col_a, col_b in zip(columns(a), columns(b)):
        np.testing.assert_array_equal(col_a, col_b)


class TestLoadCsv:
    def test_three_rows_ascending(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            row("2022-03-21T14:00:00Z", 10, 11, 9, 10.5),
            row("2022-03-21T14:01:00Z", 10.5, 11, 10, 10.8),
            row("2022-03-21T14:02:00Z", 10.8, 11, 10, 10.2),
        ])
        result = data.load_csv(p)
        assert result.n_rows == 3
        assert len(result.series) == 3
        ts = result.series.timestamp
        assert ts.dtype == np.dtype("datetime64[us]")
        assert np.all(ts[1:] > ts[:-1])

    def test_reverse_order_is_sorted(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            row("2022-03-21T14:02:00Z", 1, 2, 1, 1.5),
            row("2022-03-21T14:01:00Z", 1, 2, 1, 1.4),
            row("2022-03-21T14:00:00Z", 1, 2, 1, 1.3),
        ])
        series = data.load_csv(p).series
        assert series.close.tolist() == [1.3, 1.4, 1.5]

    def test_equal_timestamps_keep_file_order(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            row("2022-03-21T14:01:00Z", 1, 2, 1, 1.1),
            row("2022-03-21T14:00:00Z", 1, 2, 1, 1.2),
            row("2022-03-21T15:01:00+01:00", 1, 2, 1, 1.3),
        ])
        assert data.load_csv(p).series.close.tolist() == [1.2, 1.1, 1.3]

    def test_nan_close_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            row("2022-03-21T14:00:00Z", 1, 2, 1, 1.5),
            row("2022-03-21T14:01:00Z", 1, 2, 1, "NaN"),
            row("2022-03-21T14:02:00Z", 1, 2, 1, 1.6),
        ])
        result = data.load_csv(p)
        assert len(result.series) == 2
        assert len(result.rejects) == 1
        assert result.rejects[0].row == 3  # header is row 1

    def test_missing_column_is_schema_error(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("time,price\n2022-03-21T14:00:00Z,1.5\n")
        with pytest.raises(DataError):
            data.load_csv(p)

    def test_epoch_seconds_timestamps(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            row(1647871200, 1, 2, 1, 1.5),
            row(1647871260.25, 1, 2, 1, 1.6),
        ])
        series = data.load_csv(p).series
        assert series.timestamp.tolist() == [
            datetime(2022, 3, 21, 14, 0), datetime(2022, 3, 21, 14, 1, 0, 250000)]

    @pytest.mark.parametrize("first", [False, True])
    def test_out_of_range_epoch_rejected(self, tmp_path, first):
        good = [row(1647871200, 1, 2, 1, 1.5), row(1647871260, 1, 2, 1, 1.6)]
        bad = [row(raw, 1, 2, 1, 1.5)
               for raw in ("inf", "1e20", "-1e20", "1e15", "1e17")]
        p = write_csv(tmp_path / "a.csv", bad + good if first else good + bad)
        result = data.load_csv(p)
        assert result.series.close.tolist() == [1.5, 1.6]
        assert [r.row for r in result.rejects] == \
            ([2, 3, 4, 5, 6] if first else [4, 5, 6, 7, 8])
        assert all("timestamp" in r.reason for r in result.rejects)

    def test_offset_beyond_datetime_range_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            row("2022-03-21T14:00:00Z", 1, 2, 1, 1.5),
            row("0001-01-01T00:30:00+01:00", 1, 2, 1, 1.5),
            row("9999-12-31T23:00:00-02:00", 1, 2, 1, 1.5),
        ])
        result = data.load_csv(p)
        assert len(result.series) == 1
        assert [r.row for r in result.rejects] == [3, 4]

    def test_short_rows_rejected(self, tmp_path):
        # fields missing at the end of a row: the timestamp after the
        # close, then the close after the timestamp and open/high/low
        p = tmp_path / "a.csv"
        p.write_text("close,timestamp\n1.5,2022-03-21T14:00:00Z\n1.6\n"
                     "1.7,2022-03-21T14:02:00Z\n")
        result = data.load_csv(p)
        assert result.series.close.tolist() == [1.5, 1.7]
        assert [r.row for r in result.rejects] == [3]
        assert "timestamp" in result.rejects[0].reason
        p = write_csv(tmp_path / "b.csv", [
            row("2022-03-21T14:00:00Z", 1, 2, 1, 1.5),
            "2022-03-21T14:01:00Z,1,2,1\n",
        ])
        result = data.load_csv(p)
        assert result.series.close.tolist() == [1.5]
        assert [r.row for r in result.rejects] == [3]
        assert result.rejects[0].reason == "close '' is not a number"

    @pytest.mark.parametrize("fields, reason", [
        (("x", 2, 1, 1.5), "open 'x' is not a number"),
        (("", 2, 1, 1.5), "open '' is not a number"),
        ((1, "inf", 1, 1.5), "high 'inf' is not finite"),
        ((1, 2, "-inf", 1.5), "low '-inf' is not finite"),
        ((1, 2, "nan", "inf"), "close 'inf' is not finite"),
    ])
    def test_bad_price_reason_names_field(self, tmp_path, fields, reason):
        # the first bad field in reading order (close, open, high, low)
        p = write_csv(tmp_path / "a.csv", [
            row("2022-03-21T14:00:00Z", 1, 2, 1, 1.5),
            row("2022-03-21T14:01:00Z", *fields),
        ])
        result = data.load_csv(p)
        assert result.series.close.tolist() == [1.5]
        assert [(r.row, r.reason) for r in result.rejects] == [(3, reason)]

    def test_close_only_schema(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("timestamp,close\n2022-03-21T14:00:00Z,1.5\n")
        series = data.load_csv(p).series
        assert series.open[0] == series.high[0] == series.low[0] \
            == series.close[0] == 1.5

    def test_roundtrip(self, tmp_path):
        rows = [
            row("2022-03-21T14:00:00+00:00", 10.0, 11.0, 9.0, 10.5),
            row("2022-03-21T14:01:00.5+00:00", 10.5, 11.0, 10.0, 10.8),
        ]
        p1 = write_csv(tmp_path / "a.csv", rows)
        s1 = data.load_csv(p1).series
        out = tmp_path / "b.csv"
        stamps = np.datetime_as_string(s1.timestamp, unit="us")
        write_csv(out, [row(f"{t}+00:00", o, h, lo, c) for t, o, h, lo, c in
                        zip(stamps, s1.open, s1.high, s1.low, s1.close)])
        assert_same_series(data.load_csv(out).series, s1)

    def test_repeated_header_name_reads_its_last_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("close,timestamp,close\n"
                     "1.5,2022-03-21T14:00:00Z,2.5\n"
                     "1.6,2022-03-21T14:01:00Z\n")
        result = data.load_csv(p)
        assert result.series.close.tolist() == [2.5]
        assert [(r.row, r.reason) for r in result.rejects] == [
            (3, "close '' is not a number")]

    def test_blank_line_is_not_counted_in_row_numbers(self, tmp_path):
        # the bad row is line 4 of the file and record 3
        p = tmp_path / "a.csv"
        p.write_text(CSV_HEADER + row("2022-03-21T14:00:00Z", 1, 2, 1, 1.5)
                     + "\n" + row("2022-03-21T14:01:00Z", 1, 2, 1, "x"))
        result = data.load_csv(p)
        assert result.n_rows == 2
        assert [(r.row, r.reason) for r in result.rejects] == [
            (3, "close 'x' is not a number")]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        rows = [row("2022-03-21T14:00:00Z", 1, 2, 1, 1.5)]
        plain = write_csv(tmp_path / "a.csv", rows)
        marked = tmp_path / "b.csv"
        marked.write_bytes(BOM + plain.read_bytes())
        assert_same_series(data.load_csv(marked).series,
                           data.load_csv(plain).series)


PRICE_NAMES = ["timestamp", "open", "high", "low", "close", "volume"]


def assert_loads_like_dict_reader(text, bom):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_bytes(BOM * bom + text.encode("utf-8"))
        got, want = outcome(data.load_csv, path), outcome(dict_load_csv, path)
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got == want
        return
    got, want = got[1], want[1]
    assert got.n_rows == want.n_rows
    assert [(r.row, r.reason) for r in got.rejects] == \
        [(r.row, r.reason) for r in want.rejects]
    for a, b in zip(columns(got.series), columns(want.series)):
        assert same_bits(a, b)


@given(csv_text(PRICE_NAMES, ("timestamp", "close")), st.booleans())
@settings(max_examples=300, deadline=None)
def test_load_csv_matches_dict_reader(text, bom):
    """The block reader gives what one DictReader dict per row gave: the
    same n_rows, rejects and bit-equal columns, or the same error."""
    assert_loads_like_dict_reader(text, bom)


@pytest.mark.parametrize("block", [1, 2, 5])
@given(text=csv_text(PRICE_NAMES, ("timestamp", "close")), bom=st.booleans())
@settings(max_examples=100, deadline=None)
def test_load_csv_matches_dict_reader_in_small_blocks(block, text, bom):
    """Blocks of a few records put the first parseable stamp, rejects and
    the last record on block edges."""
    with mock.patch.object(data, "LOAD_BLOCK", block):
        assert_loads_like_dict_reader(text, bom)


class TestLoadBlocks:
    STAMPS = ["2022-03-21T14:00:00Z", "2022-03-21T14:01:00Z",
              "2022-03-21T14:02:00Z", "2022-03-21T14:03:00Z"]

    def load(self, tmp_path, rows, block):
        path = write_csv(tmp_path / "a.csv", rows)
        with mock.patch.object(data, "LOAD_BLOCK", block):
            assert_loads_like_dict_reader(path.read_text(), False)
            return data.load_csv(path)

    def test_format_detected_in_a_later_block(self, tmp_path):
        rows = [row("x", 1, 2, 1, 1.5)] * 5 + [row(t, 1, 2, 1, 1.5)
                                               for t in self.STAMPS]
        result = self.load(tmp_path, rows, 2)
        assert [r.row for r in result.rejects] == [2, 3, 4, 5, 6]
        assert len(result.series) == 4

    @pytest.mark.parametrize("bad", [1, 2])
    def test_rejects_on_block_edges(self, tmp_path, bad):
        # with blocks of 2 the records at indexes 1 and 2 end one block
        # and start the next
        rows = [row(t, 1, 2, 1, 1.5) for t in self.STAMPS]
        rows[bad] = row(self.STAMPS[bad], 1, 2, 1, "x")
        rows[bad + 1] = row("y", 1, 2, 1, 1.5)
        result = self.load(tmp_path, rows, 2)
        assert [(r.row, r.reason) for r in result.rejects] == [
            (bad + 2, "close 'x' is not a number"),
            (bad + 3, "timestamp 'y' is not RFC 3339 or epoch-seconds")]

    @pytest.mark.parametrize("block", [1, 2, 4])
    def test_last_block_exactly_full(self, tmp_path, block):
        rows = [row(t, 1, 2, 1, 1.5 + i) for i, t in enumerate(self.STAMPS)]
        result = self.load(tmp_path, rows, block)
        assert result.n_rows == 4 and not result.rejects
        assert result.series.close.tolist() == [1.5, 2.5, 3.5, 4.5]


# stamps of the exact shapes the vectorized parses take, with fields in
# and out of range, next to any text
STAMP_CELLS = st.one_of(
    st.sampled_from(EPOCH_STAMPS + RFC3339_STAMPS + NEAR_EPOCH_STAMPS
                    + NEAR_RFC3339_STAMPS),
    st.builds("{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}Z".format,
              st.integers(0, 9999), st.integers(0, 19), st.integers(0, 39),
              st.integers(0, 29), st.integers(0, 59), st.integers(0, 69)),
    st.integers(-63_000_000_000, 254_000_000_000).map(str),
    st.floats().map(repr),
    st.text(max_size=22),
)


@given(st.lists(STAMP_CELLS, max_size=20))
@settings(max_examples=300, deadline=None)
def test_vectorized_stamps_agree_with_parse_timestamp(cells):
    """Each cell the strict parses take reads as _parse_timestamp reads it,
    and a block parse gives each cell what the per-cell loop gave."""
    cells = tuple(cells)
    for fmt, strict in [("rfc3339", data._strict_rfc3339),
                        ("epoch", data._strict_epoch)]:
        micros, took = strict(cells)
        for cell, value in zip(np.compress(took, cells), micros[took]):
            assert value == data._parse_timestamp(cell, fmt)[0]
    for fmt in (None, "epoch", "rfc3339"):
        micros, parsed, reasons, detected = data._parse_stamps(cells, fmt)
        for i, cell in enumerate(cells):
            try:
                value, found = data._parse_timestamp(cell, fmt)
            except (ValueError, OverflowError) as exc:
                assert not parsed[i] and reasons[i] == str(exc)
                continue
            fmt = fmt or found
            assert parsed[i] and micros[i] == value and i not in reasons
        assert detected == fmt


@given(st.datetimes(min_value=datetime(1, 1, 1),
                    max_value=datetime(9999, 12, 31, 23, 59, 59)))
@settings(max_examples=300, deadline=None)
def test_strict_parses_take_every_whole_utc_second(dt):
    dt = dt.replace(microsecond=0)
    micros = (dt - datetime(1970, 1, 1)) // data._MICROSECOND
    stamp = (f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}T{dt.hour:02d}:"
             f"{dt.minute:02d}:{dt.second:02d}Z")
    for strict, cell in [(data._strict_rfc3339, stamp),
                         (data._strict_epoch, str(micros // 1_000_000))]:
        values, took = strict((cell,))
        assert took.tolist() == [True] and values.tolist() == [micros]


def mkseries(bars):
    """A series from (minute, open, high, low, close) tuples."""
    minute, o, h, lo, c = zip(*bars)
    ts = np.datetime64("2022-03-21T14:00", "us") + \
        np.array(minute) * np.timedelta64(1, "m")
    return data.TimeSeries("T", ts, o, h, lo, c)


def bar(minute, close=10.0, **kw):
    fields = dict(open=close, high=close, low=close, close=close)
    fields.update(kw)
    return (minute, fields["open"], fields["high"], fields["low"],
            fields["close"])


class TestTimeSeries:
    def test_int64_microseconds_are_timestamps(self):
        series = data.TimeSeries("T", np.array([0, 1_500_000]), [1, 2], [1, 2],
                                 [1, 2], [1, 2])
        assert series.timestamp.tolist() == [datetime(1970, 1, 1),
                                             datetime(1970, 1, 1, 0, 0, 1, 500000)]
        assert series.close.dtype == np.float64

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            data.TimeSeries("T", np.array([0, 1]), [1, 2], [1, 2], [1, 2], [1])


class TestClean:
    def test_duplicate_minute_dropped(self):
        series = mkseries([bar(0), bar(1), bar(1)])
        cleaned, dropped = data.clean(series)
        assert len(cleaned) == 2
        assert dropped == 1

    def test_nonpositive_close_dropped(self):
        series = mkseries([bar(0), bar(1, close=-3.0)])
        cleaned, _ = data.clean(series)
        assert len(cleaned) == 1

    def test_non_finite_prices_dropped(self):
        series = mkseries([bar(0), bar(1, high=np.inf), bar(2, open=np.nan),
                           bar(3)])
        cleaned, dropped = data.clean(series)
        assert cleaned.close.tolist() == [10.0, 10.0]
        assert dropped == 2

    def test_invalid_first_duplicate_does_not_block_valid_one(self):
        series = mkseries([bar(0), bar(1, close=-1.0), bar(1, close=11.0),
                           bar(1, close=12.0)])
        cleaned, dropped = data.clean(series)
        assert cleaned.close.tolist() == [10.0, 11.0]
        assert dropped == 2

    def test_ten_row_fixture_two_anomalies(self):
        bars = [bar(m) for m in range(8)]
        bars.append(bar(3))                       # duplicate minute
        bars.append(bar(9, high=5.0))             # high < close
        bars.sort(key=lambda b: b[0])
        cleaned, dropped = data.clean(mkseries(bars))
        assert len(cleaned) == 8
        assert dropped == 2

    def test_empty_result_fatal(self):
        series = mkseries([bar(0, close=-1.0)])
        with pytest.raises(DataError, match="no usable data"):
            data.clean(series)

    def test_matches_row_loop_reference(self):
        """The per-row rule: a bar is kept when all four prices are finite
        and > 0, low <= open <= high, low <= close <= high, and no earlier
        kept bar has its timestamp."""
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            minutes = np.sort(rng.integers(0, n // 2 + 1, n))
            prices = rng.choice([1.0, 2.0, 3.0, 0.0, -1.0, np.nan, np.inf],
                                size=(4, n), p=[.3, .3, .3, .025, .025, .025, .025])
            series = mkseries(list(zip(minutes.tolist(), *prices.tolist())))
            kept, seen = [], set()
            for i, (ts, o, h, lo, c) in enumerate(zip(*columns(series))):
                ok = all(np.isfinite(v) and v > 0 for v in (o, h, lo, c)) \
                    and lo <= o <= h and lo <= c <= h
                if ok and ts not in seen:
                    seen.add(ts)
                    kept.append(i)
            if not kept:
                with pytest.raises(DataError):
                    data.clean(series)
                continue
            cleaned, dropped = data.clean(series)
            assert_same_series(cleaned, series.take(kept))
            assert dropped == n - len(kept)

    def test_mask_matches_per_price_test_on_hostile_values(self):
        """The rule as written out (each price finite and > 0, then the
        four order tests) on NaN, +-inf, +-0, negatives and subnormals."""
        pool = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, -5e-324,
                         5e-324, 1e-310, 1.0, 1.5, 2.0, 1e308])
        n = 400_000
        prices = np.random.default_rng(31).choice(pool, size=(4, n))
        o, hi, lo, c = prices
        finite_positive = np.isfinite(prices) & (prices > 0)
        expected = (finite_positive.all(axis=0) & (lo <= o) & (o <= hi)
                    & (lo <= c) & (c <= hi))
        stamps = np.arange(n) * np.timedelta64(1, "m")  # no duplicates
        series = data.TimeSeries("T", stamps.astype("datetime64[us]"),
                                 o, hi, lo, c)
        cleaned, dropped = data.clean(series)
        assert 0 < dropped < n
        assert_same_series(cleaned, series.take(np.flatnonzero(expected)))

    def test_idempotent(self):
        bars = [bar(m) for m in range(5)] + [bar(2)]
        bars.sort(key=lambda b: b[0])
        once, _ = data.clean(mkseries(bars))
        twice, dropped = data.clean(once)
        assert_same_series(twice, once)
        assert dropped == 0


class TestMakePairs:
    def test_minimal(self):
        pairs = data.make_pairs(np.array([1.0, 2.0, 3.0, 5.0]), d=3)
        assert len(pairs) == 1
        assert pairs.conditions.tolist() == [[1.0, 2.0, 3.0]]
        assert pairs.targets.tolist() == [5.0]

    def test_large_series_count(self):
        # N=22818, d=60 -> N-d pairs
        closes = np.linspace(0, 1, 22818)
        pairs = data.make_pairs(closes, d=60)
        assert len(pairs) == 22758

    def test_scalar_condition_d1(self):
        closes = np.array([1.0, 2.0, 3.0])
        pairs = data.make_pairs(closes, d=1)
        assert pairs.conditions.tolist() == [[1.0], [2.0]]
        assert pairs.targets.tolist() == [2.0, 3.0]

    def test_too_short_fatal(self):
        with pytest.raises(DataError):
            data.make_pairs(np.arange(5, dtype=float), d=5)

    @given(st.integers(1, 10), st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_count_and_reconstruction(self, d, extra):
        n = d + extra
        closes = np.random.default_rng(d * 100 + extra).standard_normal(n)
        pairs = data.make_pairs(closes, d)
        assert len(pairs) == n - d
        rebuilt = np.concatenate([pairs.conditions[0], pairs.targets])
        np.testing.assert_array_equal(rebuilt, closes)
