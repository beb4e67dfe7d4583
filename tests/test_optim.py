import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgan import nn, optim
from tsgan.errors import NumericError
from tsgan.gan import Discriminator, Generator, TrainConfig


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


def adam_on(theta, grad, state):
    """adam_step on a parameter vector that is a single block "w"."""
    optim.adam_step(theta, grad, state, nn.Layout({"w": theta.shape}))


class TestAdam:
    def test_zero_gradient_no_change(self):
        theta = np.array([1.0, 2.0])
        state = optim.AdamState.zeros(2)
        adam_on(theta, np.zeros(2), state)
        np.testing.assert_array_equal(theta, [1.0, 2.0])
        assert state.t == 1

    def test_one_step_hand_value(self):
        # m_hat = g, v_hat = g^2 at t=1: theta -= lr * g/(|g|+eps)
        theta = np.array([1.0])
        adam_on(theta, np.array([2.0]), optim.AdamState.zeros(1, lr=2e-4))
        expected = 1.0 - 2e-4 * (2.0 / (2.0 + 1e-8))
        assert theta[0] == pytest.approx(expected, abs=1e-12)

    def test_quadratic_ten_steps_match_reference(self):
        theta = np.array([1.0])
        state = optim.AdamState.zeros(1, lr=2e-4, beta1=0.5, beta2=0.999)
        mine = []
        for _ in range(10):
            g = 2.0 * theta[0]  # d/dw of w^2
            adam_on(theta, np.array([g]), state)
            mine.append(theta[0])
        reference = reference_adam_trace(1.0, lambda w: 2.0 * w, 10)
        for a, b in zip(mine, reference):
            assert abs(a - b) <= 1e-12

    def test_quadratic_monotone_descent(self):
        theta = np.array([1.0])
        state = optim.AdamState.zeros(1, lr=2e-4, beta1=0.5, beta2=0.999)
        prev = 1.0
        for _ in range(100):
            g = 2.0 * theta[0]
            adam_on(theta, np.array([g]), state)
            assert abs(theta[0]) < abs(prev)
            prev = theta[0]

    def test_deterministic(self):
        def run():
            theta = np.arange(4, dtype=float)
            state = optim.AdamState.zeros(4)
            for i in range(5):
                adam_on(theta, np.full(4, 0.1 * (i + 1)), state)
            return theta
        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_names_block(self):
        theta = np.ones(5)
        state = optim.AdamState.zeros(5)
        with pytest.raises(NumericError, match="disc.0.weights"):
            optim.adam_step(theta, np.array([1.0, np.nan, 1.0, 1.0, 1.0]),
                            state, nn.Layout({"disc.0.weights": (2,),
                                              "disc.0.bias": (3,)}))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_names_first_bad_block_and_changes_nothing(
            self, bad):
        layout = nn.Layout({"a": (2, 2), "b": (3,), "c": (1, 2)})
        theta = np.arange(9.0)
        state = optim.AdamState.zeros(9)
        adam_on(theta, np.ones(9), state)
        before = [a.copy() for a in (theta, state.m, state.v)]
        grad = np.ones(9)
        grad[[5, 8]] = bad  # in blocks b and c
        with pytest.raises(NumericError,
                           match="^non-finite gradient in block 'b'$"):
            optim.adam_step(theta, grad, state, layout)
        assert state.t == 1
        for a, b in zip((theta, state.m, state.v), before):
            np.testing.assert_array_equal(a, b)


def per_block_adam_step(params, grads, moments, lr=2e-4, beta1=0.5,
                        beta2=0.999, epsilon=1e-8):
    """Adam as it ran block by block, on moments kept in per-block dicts
    `moments["m"]` and `moments["v"]` and zeroed on first use, with step
    count `moments["t"]`: the reference for the flat step."""
    moments["t"] += 1
    t = moments["t"]
    for name, theta in params.items():
        g = grads[name]
        m = moments["m"].setdefault(name, np.zeros_like(theta))
        v = moments["v"].setdefault(name, np.zeros_like(theta))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + epsilon)


def per_block_clip(arrays, max_norm):
    """Global-norm clipping over separate arrays, summed in list order."""
    norm = float(np.sqrt(sum(float(np.sum(a * a)) for a in arrays)))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for a in arrays:
            a *= scale
    return norm


# the order in which each net's backward made its gradient blocks, and so
# the order in which clipping summed them, before the flat layout
BACKWARD_ORDER = {
    Generator: ["gen.lstm.W", "gen.head.weights", "gen.head.bias"],
    Discriminator: [f"disc.{i}.{part}" for i in (3, 2, 1, 0)
                    for part in ("weights", "bias")]}


@pytest.mark.parametrize("net", [Generator, Discriminator])
def test_flat_clip_and_adam_match_per_block_reference(net):
    """1,500 clipped Adam steps over a default-config net's one vector
    leave the same bytes as the same steps taken block by block."""
    flat = net(TrainConfig(), np.random.default_rng(0))
    layout = flat.layout
    assert list(layout) == BACKWARD_ORDER[net]
    params = {name: block.copy() for name, block in flat.params().items()}
    state = optim.AdamState.zeros(flat.theta.size)
    moments = {"t": 0, "m": {}, "v": {}}
    rng = np.random.default_rng(1)
    fired = 0
    for _ in range(1500):
        # scales from well under to well over the clip norm of 5
        grad = rng.standard_normal(flat.theta.size) * 10.0 ** rng.uniform(-4, 0)
        grads = {name: g.copy() for name, g in layout.views(grad).items()}
        norm = nn.clip_global_norm(grad, 5.0, layout)
        assert norm == per_block_clip(
            [grads[name] for name in BACKWARD_ORDER[net]], 5.0)
        fired += norm > 5.0
        optim.adam_step(flat.theta, grad, state, layout)
        per_block_adam_step(params, grads, moments)
    assert 0 < fired < 1500
    assert state.t == moments["t"]
    for vector, blocks in ((flat.theta, params), (state.m, moments["m"]),
                           (state.v, moments["v"])):
        for name, block in layout.views(vector).items():
            assert block.tobytes() == blocks[name].tobytes(), name
