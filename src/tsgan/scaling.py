"""Zero-mean / unit-variance standardization with an exact inverse.

Fitted on the training closes only; the fitted parameters travel with the
model checkpoint so generated values can be mapped back to price scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import FINITE, FINITE_POSITIVE, DataError, check_scalar

# the rule `check_scalar` applies to each ScalerParams field
_FIELD_RULES = {"mean": FINITE, "stddev": FINITE_POSITIVE,
                "n_fitted": (Integral, lambda v: v >= 2, "an integer >= 2")}


@dataclass(frozen=True)
class ScalerParams:
    mean: float
    stddev: float  # population standard deviation (divide by N)
    n_fitted: int

    def __post_init__(self):
        for name, rule in _FIELD_RULES.items():
            check_scalar(f"scaler.{name}", getattr(self, name), rule)

    def to_dict(self) -> dict:
        """The JSON form that checkpoints and manifests store: mean and
        stddev as repr text (17 significant digits, exact)."""
        return {"mean": repr(self.mean), "stddev": repr(self.stddev),
                "n_fitted": self.n_fitted}


def fit(values: np.ndarray) -> ScalerParams:
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise DataError(f"scaler needs at least 2 values, got {values.size}")
    if not np.all(np.isfinite(values)):
        raise DataError("cannot fit scaler on non-finite values")
    mean = float(values.mean())
    stddev = float(values.std())  # ddof=0, population convention
    if stddev == 0:
        raise DataError("zero variance: cannot standardize a constant series")
    return ScalerParams(mean=mean, stddev=stddev, n_fitted=int(values.size))


def transform(values: np.ndarray, params: ScalerParams) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise DataError("cannot transform non-finite values")
    return (values - params.mean) / params.stddev


def inverse_transform(normalized: np.ndarray, params: ScalerParams) -> np.ndarray:
    normalized = np.asarray(normalized, dtype=np.float64)
    if not np.all(np.isfinite(normalized)):
        raise DataError("cannot inverse-transform non-finite values")
    return normalized * params.stddev + params.mean
