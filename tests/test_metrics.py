import numpy as np
import pytest
import scipy.stats

from tsgan import metrics
from tsgan.data import TimeSeries
from tsgan.errors import DataError


def brute_pearson(a, b):
    n = len(a)
    ma, mb = sum(a) / n, sum(b) / n
    num = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    da = sum((x - ma) ** 2 for x in a) ** 0.5
    db = sum((y - mb) ** 2 for y in b) ** 0.5
    return num / (da * db)


class TestPearson:
    def test_identical(self):
        a = [1.0, 2.0, 3.0]
        assert metrics.pearson(a, a) == pytest.approx(1.0)

    def test_negated(self):
        a = np.array([1.0, 2.0, 3.0])
        assert metrics.pearson(a, -a) == pytest.approx(-1.0)

    def test_known_value(self):
        r = metrics.pearson([1, 2, 3, 4], [1, 2, 3, 5])
        assert r == pytest.approx(0.982708, abs=1e-6)

    def test_constant_errors(self):
        with pytest.raises(DataError):
            metrics.pearson([1.0, 1.0], [1.0, 2.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 50))
        assert metrics.pearson(3 * a + 7, b) == \
            pytest.approx(metrics.pearson(a, b), abs=1e-12)


class TestSpearman:
    def test_monotone_map(self):
        a = np.random.default_rng(1).standard_normal(30)
        assert metrics.spearman(a, np.exp(a)) == pytest.approx(1.0)

    def test_reversed(self):
        a = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert metrics.spearman(a, -a) == pytest.approx(-1.0)

    def test_known_value(self):
        assert metrics.spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)

    def test_ties_average_ranks(self):
        a = [1.0, 2.0, 2.0, 3.0]
        b = [1.0, 2.5, 2.5, 4.0]
        expected = scipy.stats.spearmanr(a, b).statistic
        assert metrics.spearman(a, b) == pytest.approx(expected, abs=1e-12)


class TestMaeRmse:
    def test_identical_zero(self):
        a = np.array([1.0, 2.0])
        assert metrics.mae(a, a) == 0.0
        assert metrics.rmse(a, a) == 0.0

    def test_known_values(self):
        a, b = np.array([1.0, 2.0]), np.array([2.0, 4.0])
        assert metrics.mae(a, b) == pytest.approx(1.5)
        assert metrics.rmse(a, b) == pytest.approx(np.sqrt(2.5))

    def test_constant_shift(self):
        a = np.random.default_rng(2).standard_normal(40)
        assert metrics.mae(a, a + 3.25) == pytest.approx(3.25)

    def test_rmse_ge_mae(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.standard_normal((2, 20))
            assert metrics.rmse(a, b) >= metrics.mae(a, b)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            metrics.mae([1.0], [1.0, 2.0])


class TestOracleEquivalence:
    def test_thousand_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(2, 501))
            a = rng.standard_normal(n)
            b = a + rng.standard_normal(n) * rng.uniform(0.01, 2.0)
            p = metrics.pearson(a, b)
            s = metrics.spearman(a, b)
            m = metrics.mae(a, b)
            r = metrics.rmse(a, b)
            assert p == pytest.approx(brute_pearson(a.tolist(), b.tolist()),
                                      rel=1e-12, abs=1e-12)
            assert s == pytest.approx(scipy.stats.spearmanr(a, b).statistic,
                                      rel=1e-12, abs=1e-12)
            assert m == pytest.approx(sum(abs(x - y) for x, y in zip(a, b)) / n,
                                      rel=1e-12)
            assert r == pytest.approx(
                (sum((x - y) ** 2 for x, y in zip(a, b)) / n) ** 0.5, rel=1e-12)
            assert r >= m

    def test_tied_ranks_match_scipy_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 2001))
            a = np.round(rng.normal(100.0, rng.uniform(0.01, 1.0), n), 2)
            b = np.round(a + rng.normal(0.0, 0.05, n), 2)
            np.testing.assert_array_equal(
                metrics._average_ranks(a),
                scipy.stats.rankdata(a, method="average"))
            assert metrics.spearman(a, b) == pytest.approx(
                scipy.stats.spearmanr(a, b).statistic, rel=1e-12, abs=1e-12)


class TestAverageRanks:
    """`_average_ranks` sorts with NumPy's default, unstable sort; every
    member of a tie group gets the group's mean rank, so the ranks must be
    bit-equal to scipy's, whatever order the sort leaves inside a group."""

    @pytest.mark.parametrize("case", [
        "ingest_cents", "signed_zeros", "sorted", "reversed", "all_equal"])
    def test_bit_equal_to_scipy(self, case):
        rng = np.random.default_rng(10)
        if case == "ingest_cents":  # 200k closes on a cent grid, many ties
            cents = 10_000 + np.cumsum(rng.integers(-5, 6, 200_000))
            x = cents / 100.0
        elif case == "signed_zeros":
            x = rng.choice([-0.0, 0.0, 1.0], 10_000)
        elif case == "sorted":
            x = np.sort(np.round(rng.normal(0.0, 1.0, 10_000), 1))
        elif case == "reversed":
            x = np.sort(np.round(rng.normal(0.0, 1.0, 10_000), 1))[::-1]
        else:
            x = np.full(10_000, 2.5)
        np.testing.assert_array_equal(
            metrics._average_ranks(x),
            scipy.stats.rankdata(x, method="average"), strict=True)


class TestNonFinite:
    @pytest.mark.parametrize("metric", [metrics.pearson, metrics.spearman,
                                        metrics.mae, metrics.rmse,
                                        metrics.evaluate])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_refused(self, metric, bad, side):
        pair = [[1.0, 2.0, 3.0, 4.0], [1.0, 2.5, 2.0, 4.0]]
        pair[side] = [bad, 1.0, 2.0, bad]
        with pytest.raises(DataError, match="finite"):
            metric(*pair)


class TestEvaluate:
    def test_perfect_match(self):
        a = np.array([1.0, 2.0, 3.0])
        rep = metrics.evaluate(a, a.copy())
        assert rep.pearson == pytest.approx(1.0)
        assert rep.spearman == pytest.approx(1.0)
        assert rep.mae == 0.0 and rep.rmse == 0.0
        assert rep.n == 3 and rep.scale == "original"

    def test_unit_shift(self):
        a = np.array([1.0, 2.0, 3.0, 7.0])
        rep = metrics.evaluate(a, a + 1.0)
        assert rep.pearson == pytest.approx(1.0)
        assert rep.mae == pytest.approx(1.0)
        assert rep.rmse == pytest.approx(1.0)

    def test_report_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = rng.standard_normal((2, 30))
            rep = metrics.evaluate(a, b)
            assert -1.0 <= rep.pearson <= 1.0
            assert -1.0 <= rep.spearman <= 1.0
            assert rep.rmse >= rep.mae >= 0.0


def day_series(closes, start_day=1):
    """One close per day at 23:59 UTC, from 2022-03-<start_day>."""
    ts = np.datetime64(f"2022-03-{start_day:02d}T23:59", "us") + \
        np.arange(len(closes)) * np.timedelta64(1, "D")
    return TimeSeries("T", ts, closes, closes, closes, closes)


class TestVolatilityProfile:
    def test_two_days_eight_percent(self):
        profile = metrics.volatility_profile(day_series([100.0, 108.0]))
        assert profile.pct_changes.tolist() == [pytest.approx(8.0)]

    def test_constant_prices(self):
        profile = metrics.volatility_profile(day_series([50.0] * 4))
        assert not np.any(profile.pct_changes)
        assert profile.variance == 0.0

    def test_five_day_fixture(self):
        closes = [100.0, 104.0, 98.8, 103.74, 93.366]
        profile = metrics.volatility_profile(day_series(closes))
        np.testing.assert_allclose(profile.pct_changes, [4.0, -5.0, 5.0, -10.0],
                                   atol=1e-9)
        assert profile.min_change == pytest.approx(-10.0)
        assert profile.max_change == pytest.approx(5.0)
        assert profile.variance == pytest.approx(np.var([4.0, -5.0, 5.0, -10.0]))
        assert profile.days == ["2022-03-02", "2022-03-03", "2022-03-04",
                                "2022-03-05"]

    def test_last_close_per_day_wins(self):
        ts = np.array(["2022-03-01T10:00", "2022-03-01T23:00",
                       "2022-03-02T12:00"], dtype="datetime64[us]")
        closes = [90.0, 100.0, 108.0]
        series = TimeSeries("T", ts, closes, closes, closes, closes)
        profile = metrics.volatility_profile(series)
        assert profile.pct_changes.tolist() == [pytest.approx(8.0)]

    def test_matches_dict_reference(self):
        rng = np.random.default_rng(9)
        minutes = np.sort(rng.integers(0, 10 * 1440, 2000))
        ts = np.datetime64("2022-03-01T00:00", "us") + \
            minutes * np.timedelta64(1, "m")
        closes = rng.uniform(50.0, 150.0, minutes.size)
        profile = metrics.volatility_profile(
            TimeSeries("T", ts, closes, closes, closes, closes))
        daily = {}
        for stamp, close in zip(ts.tolist(), closes.tolist()):
            daily[stamp.date()] = close
        days = sorted(daily)
        last = np.array([daily[day] for day in days])
        assert profile.days == [day.isoformat() for day in days[1:]]
        np.testing.assert_array_equal(profile.pct_changes,
                                      (last[1:] / last[:-1] - 1.0) * 100.0)

    def test_single_day_errors(self):
        with pytest.raises(DataError):
            metrics.volatility_profile(day_series([100.0]))
