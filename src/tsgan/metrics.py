"""Fidelity metrics between real and generated series, plus per-period
volatility statistics of daily percentage changes."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .data import TimeSeries
from .errors import DataError


@dataclass
class MetricsReport:
    pearson: float
    spearman: float
    mae: float
    rmse: float
    n: int
    scale: str  # 'original' or 'normalized'

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class VolatilityProfile:
    days: list[str]            # ISO dates of the change endpoints
    pct_changes: np.ndarray    # day-over-day close change, percent
    min_change: float
    max_change: float
    variance: float


def _check_lengths(a: np.ndarray, b: np.ndarray, minimum: int) -> None:
    """Equal shapes, at least `minimum` values, and every value finite: a
    NaN has no rank, and would turn every other metric into NaN."""
    if a.shape != b.shape:
        raise DataError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size < minimum:
        raise DataError(f"need at least {minimum} values, got {a.size}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("metrics need finite values")


def pearson(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_lengths(a, b, 2)
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt(np.sum(da * da) * np.sum(db * db))
    if denom == 0.0:
        raise DataError("correlation undefined: zero variance input")
    return float(np.sum(da * db) / denom)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n; tied values receive the mean of their rank range.

    Any sort puts a tie group's members side by side, and each member gets
    the group's mean rank, so NumPy's default sort (unstable, and faster)
    gives the same bits as a stable one. `x` holds no NaN."""
    order = np.argsort(x)
    sorted_x = x[order]
    first = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    last = np.r_[first[1:], x.size] - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def spearman(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_lengths(a, b, 2)
    return pearson(_average_ranks(a), _average_ranks(b))


def mae(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_lengths(a, b, 1)
    return float(np.mean(np.abs(a - b)))


def rmse(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_lengths(a, b, 1)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def evaluate(real, generated, scale: str = "original") -> MetricsReport:
    real = np.asarray(real, dtype=np.float64)
    generated = np.asarray(generated, dtype=np.float64)
    return MetricsReport(
        pearson=pearson(real, generated),
        spearman=spearman(real, generated),
        mae=mae(real, generated),
        rmse=rmse(real, generated),
        n=int(real.size),
        scale=scale,
    )


def volatility_profile(series: TimeSeries) -> VolatilityProfile:
    """Day-over-day percent change of the last close per UTC calendar day."""
    day = series.timestamp.astype("datetime64[D]")
    last = np.flatnonzero(np.r_[day[1:] != day[:-1], True])  # bars ascend
    if last.size < 2:
        raise DataError("volatility profile needs at least 2 distinct days")
    closes = series.close[last]
    if np.any(closes <= 0):
        raise DataError("percent changes require strictly positive prices")
    changes = (closes[1:] / closes[:-1] - 1.0) * 100.0
    return VolatilityProfile(
        days=np.datetime_as_string(day[last[1:]]).tolist(),
        pct_changes=changes,
        min_change=float(changes.min()),
        max_change=float(changes.max()),
        variance=float(changes.var()),
    )
