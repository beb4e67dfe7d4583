"""Exception types shared across the package, and the one check of a
scalar setting.

The CLI maps the exceptions onto its exit-code contract:
DataError -> 2, NumericError -> 3.

`check_scalar` decides what a valid scalar is wherever one defines or
resumes a model: TrainConfig's and ScalerParams's fields, a checkpoint's
scaler text, Adam scalars, epoch and losses, and the CLI's seed. A rule is (type, test, words): the value
must be an instance of the type and pass the test, and the words name
both in the error. A bool is neither an integer nor a number, and a
number must convert to a float64.
"""

import math
from numbers import Integral, Real


class DataError(Exception):
    """Input data is missing, malformed, or unusable."""


class NumericError(Exception):
    """A computation produced a non-finite or otherwise invalid value."""


SIZE = (Integral, lambda v: v > 0, "an integer > 0")
COUNT = (Integral, lambda v: v >= 0, "an integer >= 0")
FRACTION = (Real, lambda v: 0 <= v < 1, "a number in [0, 1)")
FINITE = (Real, math.isfinite, "a finite number")
FINITE_POSITIVE = (Real, lambda v: math.isfinite(v) and v > 0,
                   "a finite number > 0")


def check_scalar(what: str, value, rule):
    """`value` if it is of `rule`'s type and passes its test; else a
    DataError naming `what`."""
    kind, test, words = rule
    ok = isinstance(value, kind) and not isinstance(value, bool)
    if ok and kind is Real:
        try:
            float(value)
        except OverflowError:  # an int too large for a float64
            raise DataError(f"{what} is too large for a float64") from None
    if not (ok and test(value)):
        raise DataError(f"{what} must be {words}, not {value!r}")
    return value
