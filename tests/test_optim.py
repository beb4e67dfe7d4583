import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgan import optim
from tsgan.errors import NumericError


class TestSigmoid:
    def test_zero(self):
        assert optim._sigmoid(0.0) == 0.5

    def test_large_positive_finite(self):
        # float64 rounds sigmoid(710) to 1.0 exactly; the point is that the
        # naive mirrored branch 1/(1+e^{+710}) would overflow instead
        v = optim._sigmoid(710.0)
        assert math.isfinite(v) and v <= 1.0

    def test_large_negative_finite(self):
        v = optim._sigmoid(-710.0)
        assert math.isfinite(v) and v > 0.0

    def test_log_identity(self):
        assert optim._sigmoid(math.log(3.0)) == pytest.approx(0.75, abs=1e-12)


class TestBceWithLogits:
    def test_logit_zero_label_one(self):
        assert optim.bce_with_logits(0.0, 1.0) == pytest.approx(math.log(2), abs=1e-15)

    def test_extreme_negative_logit_finite(self):
        loss = optim.bce_with_logits(-100.0, 1.0)
        assert loss == pytest.approx(100.0, abs=1e-9)

    def test_extreme_positive_logit_near_zero(self):
        loss = optim.bce_with_logits(100.0, 1.0)
        assert 0.0 <= loss < 1e-40

    def test_finite_at_500(self):
        for x in (-500.0, 500.0):
            for y in (0.0, 1.0):
                assert math.isfinite(optim.bce_with_logits(x, y))

    def test_matches_naive_in_moderate_range(self):
        # the naive formula evaluated at 50 digits: in float64 it loses
        # ~1e-3 near |x|=30 through the 1 - sigmoid(x) cancellation, so the
        # comparison target must be computed in higher precision
        import mpmath
        mpmath.mp.dps = 50
        rng = np.random.default_rng(0)
        xs = rng.uniform(-30, 30, 500)
        ys = rng.integers(0, 2, 500).astype(float)
        for x, y in zip(xs, ys):
            s = 1 / (1 + mpmath.exp(-mpmath.mpf(x)))
            naive = float(-(y * mpmath.log(s) + (1 - y) * mpmath.log(1 - s)))
            assert optim.bce_with_logits(x, y) == pytest.approx(naive, abs=1e-10)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            optim.bce_with_logits(0.0, 0.5)

    def test_mean_reduction(self):
        x = np.array([0.0, 0.0])
        assert optim.bce_with_logits(x, np.array([1.0, 0.0])) == \
            pytest.approx(math.log(2), abs=1e-15)

    @given(st.floats(-500, 500), st.sampled_from([0.0, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_finite_nonnegative(self, x, y):
        loss = optim.bce_with_logits(x, y)
        assert math.isfinite(loss) and loss >= 0.0


class TestBceGrad:
    def test_anchor_values(self):
        assert optim.bce_with_logits_grad(0.0, 1.0) == pytest.approx(-0.5)
        assert optim.bce_with_logits_grad(0.0, 0.0) == pytest.approx(0.5)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(100):
            x = float(rng.uniform(-20, 20))
            y = float(rng.integers(0, 2))
            numeric = (optim.bce_with_logits(x + h, y)
                       - optim.bce_with_logits(x - h, y)) / (2 * h)
            analytic = optim.bce_with_logits_grad(x, y)
            denom = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / denom <= 1e-6


def reference_adam_trace(theta, grad_fn, steps, lr=2e-4, beta1=0.5,
                         beta2=0.999, eps=1e-8):
    """Independent scalar Adam in plain Python floats."""
    m = v = 0.0
    trace = []
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        trace.append(theta)
    return trace


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = {"w": np.array([1.0, 2.0])}
        state = optim.AdamState()
        optim.adam_step(params, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(params["w"], [1.0, 2.0])
        assert state.t == 1

    def test_one_step_hand_value(self):
        # m_hat = g, v_hat = g^2 at t=1: theta -= lr * g/(|g|+eps)
        params = {"w": np.array([1.0])}
        optim.adam_step(params, {"w": np.array([2.0])}, optim.AdamState(lr=2e-4))
        expected = 1.0 - 2e-4 * (2.0 / (2.0 + 1e-8))
        assert params["w"][0] == pytest.approx(expected, abs=1e-12)

    def test_quadratic_ten_steps_match_reference(self):
        params = {"w": np.array([1.0])}
        state = optim.AdamState(lr=2e-4, beta1=0.5, beta2=0.999)
        mine = []
        for _ in range(10):
            g = 2.0 * params["w"][0]  # d/dw of w^2
            optim.adam_step(params, {"w": np.array([g])}, state)
            mine.append(params["w"][0])
        reference = reference_adam_trace(1.0, lambda w: 2.0 * w, 10)
        for a, b in zip(mine, reference):
            assert abs(a - b) <= 1e-12

    def test_quadratic_monotone_descent(self):
        params = {"w": np.array([1.0])}
        state = optim.AdamState(lr=2e-4, beta1=0.5, beta2=0.999)
        prev = 1.0
        for _ in range(100):
            g = 2.0 * params["w"][0]
            optim.adam_step(params, {"w": np.array([g])}, state)
            assert abs(params["w"][0]) < abs(prev)
            prev = params["w"][0]

    def test_deterministic(self):
        def run():
            params = {"w": np.arange(4, dtype=float)}
            state = optim.AdamState()
            for i in range(5):
                optim.adam_step(params, {"w": np.full(4, 0.1 * (i + 1))}, state)
            return params["w"]
        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_names_block(self):
        params = {"disc.0.weights": np.ones(2)}
        with pytest.raises(NumericError, match="disc.0.weights"):
            optim.adam_step(params, {"disc.0.weights": np.array([1.0, np.nan])},
                            optim.AdamState())

    def test_shape_mismatch(self):
        with pytest.raises(NumericError):
            optim.adam_step({"w": np.ones(2)}, {"w": np.ones(3)},
                            optim.AdamState())
