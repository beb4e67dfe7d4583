import warnings

import numpy as np
import pytest

from tsgan import nn
from tsgan.errors import NumericError
from tsgan.gradcheck import rel_error

from lstm_oracle import gate_weights, lstm_fold, lstm_step


def make_cell(input_size, hidden, rng=None, scheme="uniform-xavier"):
    rng = rng or np.random.default_rng(0)
    return nn.LstmCell.create(input_size, hidden, rng, scheme)


class TestActivations:
    def test_sigmoid_zero(self):
        assert nn.sigmoid(0.0) == 0.5

    def test_sigmoid_bounded_extreme(self):
        # the naive 1/(1+e^x) mirror branch would overflow at -710; both
        # tails must stay finite. (sigmoid(710) rounds to 1.0 in float64:
        # 1 + e^-710 is 1.0 exactly, so strict < 1 is unattainable there.)
        lo, hi = nn.sigmoid(-710.0), nn.sigmoid(710.0)
        assert np.isfinite(lo) and np.isfinite(hi)
        assert 0.0 < lo <= hi <= 1.0

    def test_sigmoid_extremes_without_warnings(self):
        # the gate kernel calls the same function in place on matmul output
        x = np.array([-1e4, -710.0, -709.0, 0.0, 709.0, 710.0, 1e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = nn.sigmoid(x)
            inplace = x.copy()
            nn.sigmoid(inplace, out=inplace)
        assert np.all(np.isfinite(s)) and np.all((s > 0) & (s <= 1))
        assert s[3] == 0.5
        np.testing.assert_array_equal(inplace, s)

    def test_bounds_random(self):
        # ranges kept inside float64 saturation (sigmoid ~|x|<37, tanh ~|x|<19)
        x = np.random.default_rng(1).uniform(-30, 30, 1000)
        s = nn.sigmoid(x)
        assert np.all((s > 0) & (s < 1))
        x = np.random.default_rng(1).uniform(-15, 15, 1000)
        t = np.tanh(x)
        assert np.all((t > -1) & (t < 1))


class TestDense:
    def test_zero_layer_relu(self):
        layer = nn.DenseLayer(np.zeros((3, 2)), np.zeros(3), "relu")
        out, _ = nn.dense_forward(layer, np.array([1.0, -2.0]))
        assert out.tolist() == [0.0, 0.0, 0.0]

    def test_identity_passthrough(self):
        layer = nn.DenseLayer(np.eye(3), np.zeros(3), "identity")
        x = np.array([1.0, -2.0, 3.0])
        out, _ = nn.dense_forward(layer, x)
        np.testing.assert_array_equal(out, x)

    def test_sigmoid_scalar_value(self):
        layer = nn.DenseLayer(np.array([[1.0, 2.0]]), np.array([0.5]), "sigmoid")
        out, _ = nn.dense_forward(layer, np.array([1.0, 1.0]))
        assert out[0] == pytest.approx(0.970688, abs=1e-6)  # sigmoid(3.5)

    def test_backward_zero_upstream(self):
        rng = np.random.default_rng(2)
        layer = nn.DenseLayer(rng.standard_normal((4, 3)),
                              rng.standard_normal(4), "tanh")
        _, cache = nn.dense_forward(layer, rng.standard_normal(3))
        dx, grads = nn.dense_backward(layer, cache, np.zeros(4))
        assert not np.any(dx)
        assert not np.any(grads.weights) and not np.any(grads.bias)

    def test_backward_linear_case(self):
        layer = nn.DenseLayer(np.array([[2.0, 3.0]]), np.zeros(1), "identity")
        x = np.array([5.0, 7.0])
        _, cache = nn.dense_forward(layer, x)
        upstream = np.array([1.5])
        dx, grads = nn.dense_backward(layer, cache, upstream)
        np.testing.assert_array_equal(grads.weights, upstream[:, None] * x)
        np.testing.assert_array_equal(dx, upstream @ layer.weights)

    def test_shape_mismatch(self):
        layer = nn.DenseLayer(np.zeros((2, 3)), np.zeros(2), "relu")
        with pytest.raises(NumericError):
            nn.dense_forward(layer, np.zeros(4))

    def test_forward_pure(self):
        rng = np.random.default_rng(3)
        layer = nn.DenseLayer(rng.standard_normal((4, 3)),
                              rng.standard_normal(4), "relu")
        x = rng.standard_normal(3)
        a, _ = nn.dense_forward(layer, x)
        b, _ = nn.dense_forward(layer, x)
        np.testing.assert_array_equal(a, b)


class TestLstmStep:
    def test_zero_weights_gates_half(self):
        cell = make_cell(2, 3, scheme="zeros")
        state, (f, i, o, g) = lstm_step(cell, np.ones(2), nn.LstmState.zeros(3))
        for gate in (f, i, o):
            np.testing.assert_array_equal(gate, 0.5)
        np.testing.assert_array_equal(state.c, 0.0)
        np.testing.assert_array_equal(state.z, 0.0)
        # the kernel's gate block for the step holds the same activations
        _, cache = nn.lstm_forward(cell, np.ones((1, 1, 2)), nn.LstmState.zeros(3))
        np.testing.assert_array_equal(cache["workspace"].P[0, :9], 0.5)
        np.testing.assert_array_equal(cache["workspace"].P[0, 9:], 0.0)

    def test_zero_weights_prev_cell_decays(self):
        cell = make_cell(1, 1, scheme="zeros")
        prev = nn.LstmState(c=np.array([[1.0]]), z=np.array([[0.0]]))
        for state in (lstm_step(cell, np.zeros(1), prev)[0],
                      nn.lstm_forward(cell, np.zeros((1, 1, 1)), prev)[0]):
            assert state.c[0, 0] == pytest.approx(0.5)
            assert state.z[0, 0] == pytest.approx(np.tanh(0.5) * 0.5, abs=1e-9)

    def test_matches_scalar_hand_computation(self):
        # hidden 2, input 1, scripted weights; independent step-by-step trace
        rng = np.random.default_rng(4)
        cell = make_cell(1, 2, rng)
        w = gate_weights(cell.W)
        x = np.array([0.7])
        prev = nn.LstmState(c=np.array([[0.1, -0.2]]), z=np.array([[0.3, 0.05]]))
        via_oracle, _ = lstm_step(cell, x, prev)
        via_kernel, _ = nn.lstm_forward(cell, x.reshape(1, 1, 1), prev)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        z_prev, c_prev = prev.z[0], prev.c[0]
        for j in range(2):
            f = sig(w["W_xf"][j] @ x + w["W_zf"][j] @ z_prev)
            i = sig(w["W_xi"][j] @ x + w["W_zi"][j] @ z_prev)
            o = sig(w["W_xo"][j] @ x + w["W_zo"][j] @ z_prev)
            g = np.tanh(w["W_xc"][j] @ x + w["W_zc"][j] @ z_prev)
            c = c_prev[j] * f + i * g
            for state in (via_oracle, via_kernel):
                assert state.c[0, j] == pytest.approx(c, abs=1e-12)
                assert state.z[0, j] == pytest.approx(np.tanh(c) * o, abs=1e-12)


class TestLstmForward:
    def test_length_one_equals_step(self):
        rng = np.random.default_rng(5)
        cell = make_cell(3, 4, rng)
        x = rng.standard_normal(3)
        init = nn.LstmState.zeros(4)
        via_fold, _ = nn.lstm_forward(cell, x.reshape(1, 1, 3), init)
        via_step, _ = lstm_step(cell, x, init)
        np.testing.assert_allclose(via_fold.z, via_step.z, atol=1e-14)
        np.testing.assert_allclose(via_fold.c, via_step.c, atol=1e-14)

    def test_zero_weights_stay_zero(self):
        cell = make_cell(2, 3, scheme="zeros")
        xs = np.random.default_rng(6).standard_normal((5, 1, 2))
        state, _ = nn.lstm_forward(cell, xs, nn.LstmState.zeros(3))
        np.testing.assert_array_equal(state.c, 0.0)
        np.testing.assert_array_equal(state.z, 0.0)

    def test_three_steps_match_chained_steps(self):
        rng = np.random.default_rng(7)
        cell = make_cell(2, 3, rng)
        xs = rng.standard_normal((3, 1, 2))
        folded, _ = nn.lstm_forward(cell, xs, nn.LstmState.zeros(3))
        state = nn.LstmState.zeros(3)
        for x in xs:
            state, _ = lstm_step(cell, x, state)
        np.testing.assert_allclose(folded.z, state.z, atol=1e-14)
        np.testing.assert_allclose(folded.c, state.c, atol=1e-14)

    @pytest.mark.parametrize("k", [1, 128])
    def test_matches_oracle_fold(self, k):
        # the generator's shape: 60 steps, close + 8 noise inputs, h = 64
        rng = np.random.default_rng(12)
        cell = make_cell(9, 64, rng)
        xs = rng.standard_normal((60, k, 9))
        init = nn.LstmState(c=rng.standard_normal((k, 64)),
                            z=rng.standard_normal((k, 64)))
        got, _ = nn.lstm_forward(cell, xs, init)
        want = lstm_fold(cell, xs, init)
        np.testing.assert_allclose(got.z, want.z, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.c, want.c, rtol=0, atol=1e-12)

    def test_empty_sequence_errors(self):
        cell = make_cell(2, 3)
        with pytest.raises(NumericError):
            nn.lstm_forward(cell, np.empty((0, 1, 2)), nn.LstmState.zeros(3))
        with pytest.raises(NumericError):
            nn.lstm_forward(cell, np.ones((4, 2)), nn.LstmState.zeros(3))


class TestLstmBackward:
    def test_zero_upstream_all_zero(self):
        rng = np.random.default_rng(8)
        cell = make_cell(2, 3, rng)
        xs = rng.standard_normal((4, 1, 2))
        _, cache = nn.lstm_forward(cell, xs, nn.LstmState.zeros(3))
        dW, dX = nn.lstm_backward(cell, cache, np.zeros((1, 3)))
        assert dW.shape == cell.W.shape and not np.any(dW)
        assert dX.shape == xs.shape and not np.any(dX)

    def test_single_step_hidden_one_hand_chain_rule(self):
        # hidden=1, input=1, one step from zero state:
        #   c = i*g, z = tanh(c)*o  with a=W_xf*x etc.; upstream dz=1
        cell = make_cell(1, 1, np.random.default_rng(9))
        w = gate_weights(cell.W)
        x = np.array([0.8])
        _, cache = nn.lstm_forward(cell, x.reshape(1, 1, 1), nn.LstmState.zeros(1))
        dW, _ = nn.lstm_backward(cell, cache, np.ones((1, 1)))
        grads = gate_weights(dW)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        i = sig(w["W_xi"][0, 0] * x[0])
        o = sig(w["W_xo"][0, 0] * x[0])
        g = np.tanh(w["W_xc"][0, 0] * x[0])
        c = i * g
        dz_dc = o * (1 - np.tanh(c) ** 2)
        # W_xo: z = tanh(c) * sig(W_xo x); d/dW_xo = tanh(c)*o*(1-o)*x
        assert grads["W_xo"][0, 0] == pytest.approx(
            np.tanh(c) * o * (1 - o) * x[0], rel=1e-12)
        # W_xi: through c only
        assert grads["W_xi"][0, 0] == pytest.approx(
            dz_dc * g * i * (1 - i) * x[0], rel=1e-12)
        # W_xc: through the candidate
        assert grads["W_xc"][0, 0] == pytest.approx(
            dz_dc * i * (1 - g ** 2) * x[0], rel=1e-12)
        # forget gate saw c_prev = 0, so no gradient
        assert grads["W_xf"][0, 0] == 0.0

    def test_row_range_of_double_pass_equals_fresh_pass(self):
        # backward over rows k: of a 2k-row pass, as the training loop
        # runs it, against a forward and backward over those k rows alone
        rng = np.random.default_rng(13)
        cell = make_cell(9, 16, rng)
        k = 64
        xs2 = rng.standard_normal((12, 2 * k, 9))
        dz = rng.standard_normal((k, 16))
        _, cache2 = nn.lstm_forward(cell, xs2, nn.LstmState.zeros(16, 2 * k))
        dW2, dX2 = nn.lstm_backward(cell, nn.lstm_cache_rows(cache2, k), dz)
        _, cache = nn.lstm_forward(cell, xs2[:, k:], nn.LstmState.zeros(16, k))
        dW, dX = nn.lstm_backward(cell, cache, dz)
        np.testing.assert_array_equal(dW2, dW)
        np.testing.assert_array_equal(dX2, dX)

    def test_stale_cache_raises(self):
        rng = np.random.default_rng(14)
        cell = make_cell(2, 3, rng)
        ws = nn.LstmWorkspace()
        xs = rng.standard_normal((4, 5, 2))
        init = nn.LstmState.zeros(3, 5)
        _, old = nn.lstm_forward(cell, xs, init, ws)
        _, new = nn.lstm_forward(cell, -xs, init, ws)
        with pytest.raises(nn.StaleCacheError):
            nn.lstm_backward(cell, old, np.ones((5, 3)))
        nn.lstm_backward(cell, new, np.ones((5, 3)))


class TestInitParams:
    def test_zeros(self):
        out = nn.init_params((3, 4), "zeros", np.random.default_rng(0))
        assert not np.any(out)

    def test_xavier_bound(self):
        out = nn.init_params((4, 4), "uniform-xavier", np.random.default_rng(0))
        assert np.all(np.abs(out) <= np.sqrt(6.0 / 8.0))

    def test_seed_determinism(self):
        a = nn.init_params((5, 5), "uniform-xavier", np.random.default_rng(42))
        b = nn.init_params((5, 5), "uniform-xavier", np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestGradsVsFiniteDifferences:
    def test_dense_random_layers(self):
        from tsgan.gradcheck import check_dense
        assert check_dense(np.random.default_rng(10), trials=20) <= 1e-4

    def test_lstm_random_cells(self):
        from tsgan.gradcheck import check_lstm
        assert check_lstm(np.random.default_rng(11), trials=10) <= 1e-4


class TestClip:
    def test_clip_reduces_norm(self):
        arrays = [np.full(4, 10.0), np.full(3, -10.0)]
        nn.clip_global_norm(arrays, 5.0)
        assert nn.global_norm(arrays) == pytest.approx(5.0)

    def test_no_clip_below_threshold(self):
        arrays = [np.array([0.1, 0.2])]
        before = [a.copy() for a in arrays]
        nn.clip_global_norm(arrays, 5.0)
        np.testing.assert_array_equal(arrays[0], before[0])
