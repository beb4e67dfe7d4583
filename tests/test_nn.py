import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgan import nn, optim
from tsgan.errors import NumericError
from tsgan.gradcheck import rel_error

from csv_reference import same_bits
from lstm_oracle import gate_weights, lstm_fold, lstm_step


def make_cell(input_size, hidden, rng=None, scheme="uniform-xavier"):
    rng = rng or np.random.default_rng(0)
    return nn.LstmCell.create(input_size, hidden, rng, scheme)


class TestActivations:
    # the one sigmoid is the BCE gradient's, a float64 helper of optim
    def test_sigmoid_zero(self):
        assert optim._sigmoid(0.0) == 0.5

    def test_sigmoid_bounded_extreme(self):
        # the naive 1/(1+e^x) mirror branch would overflow at -710; both
        # tails must stay finite. (sigmoid(710) rounds to 1.0 in float64:
        # 1 + e^-710 is 1.0 exactly, so strict < 1 is unattainable there.)
        lo, hi = optim._sigmoid(-710.0), optim._sigmoid(710.0)
        assert np.isfinite(lo) and np.isfinite(hi)
        assert 0.0 < lo <= hi <= 1.0

    def test_sigmoid_extremes_without_warnings(self):
        x = np.array([-1e4, -710.0, -709.0, 0.0, 709.0, 710.0, 1e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = optim._sigmoid(x)
        assert np.all(np.isfinite(s)) and np.all((s > 0) & (s <= 1))
        assert s[3] == 0.5

    def test_bounds_random(self):
        # ranges kept inside float64 saturation (sigmoid ~|x|<37, tanh ~|x|<19)
        x = np.random.default_rng(1).uniform(-30, 30, 1000)
        s = optim._sigmoid(x)
        assert np.all((s > 0) & (s < 1))
        x = np.random.default_rng(1).uniform(-15, 15, 1000)
        t = np.tanh(x)
        assert np.all((t > -1) & (t < 1))


class TestDense:
    def test_zero_layer_relu(self):
        layer = nn.DenseLayer(np.zeros((3, 2)), np.zeros(3), "relu")
        out, _ = nn.dense_forward(layer, np.array([[1.0, -2.0]]))
        assert out.tolist() == [[0.0, 0.0, 0.0]]

    def test_identity_passthrough(self):
        layer = nn.DenseLayer(np.eye(3), np.zeros(3), "identity")
        x = np.array([[1.0, -2.0, 3.0]])
        out, _ = nn.dense_forward(layer, x)
        np.testing.assert_array_equal(out, x)

    def test_relu_scalar_value(self):
        layer = nn.DenseLayer(np.array([[1.0, 2.0], [-1.0, -2.0]]),
                              np.array([0.5, 0.5]), "relu")
        out, _ = nn.dense_forward(layer, np.array([[1.0, 1.0]]))
        assert out.tolist() == [[3.5, 0.0]]

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
    def test_removed_activation_rejected(self, activation):
        # dense layers apply relu or identity; the LSTM gates keep their own
        layer = nn.DenseLayer(np.zeros((2, 3)), np.zeros(2), activation)
        with pytest.raises(ValueError, match="unknown activation"):
            nn.dense_forward(layer, np.zeros((1, 3)))

    def test_backward_zero_upstream(self):
        rng = np.random.default_rng(2)
        layer = nn.DenseLayer(rng.standard_normal((4, 3)),
                              rng.standard_normal(4), "relu")
        _, cache = nn.dense_forward(layer, rng.standard_normal((1, 3)))
        dx, dweights, dbias = nn.dense_backward(layer, cache, np.zeros((1, 4)))
        assert not np.any(dx)
        assert not np.any(dweights) and not np.any(dbias)

    def test_backward_linear_case(self):
        layer = nn.DenseLayer(np.array([[2.0, 3.0]]), np.zeros(1), "identity")
        x = np.array([[5.0, 7.0]])
        _, cache = nn.dense_forward(layer, x)
        upstream = np.array([[1.5]])
        dx, dweights, _ = nn.dense_backward(layer, cache, upstream)
        np.testing.assert_array_equal(dweights, upstream.T * x)
        np.testing.assert_array_equal(dx, upstream @ layer.weights)

    def test_shape_mismatch(self):
        layer = nn.DenseLayer(np.zeros((2, 3)), np.zeros(2), "relu")
        with pytest.raises(NumericError):
            nn.dense_forward(layer, np.zeros((1, 4)))

    def test_vector_input_rejected(self):
        # one row is (1, n); a bare vector is not a batch
        layer = nn.DenseLayer(np.zeros((2, 3)), np.zeros(2), "relu")
        with pytest.raises(NumericError, match="batch"):
            nn.dense_forward(layer, np.zeros(3))

    def test_forward_pure(self):
        rng = np.random.default_rng(3)
        layer = nn.DenseLayer(rng.standard_normal((4, 3)),
                              rng.standard_normal(4), "relu")
        x = rng.standard_normal((1, 3))
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


class TestStepWeights:
    """lstm_step reads W with its f, i, o rows halved, from a fresh copy."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_halves_sigmoid_rows_of_a_fresh_copy(self, dtype):
        cell = make_cell(3, 4, np.random.default_rng(30))
        W = nn.step_weights(cell.W, dtype)
        assert W.dtype == dtype and not np.shares_memory(W, cell.W)
        cast = cell.W.astype(dtype)
        np.testing.assert_array_equal(W[:12], cast[:12] / 2)
        np.testing.assert_array_equal(W[12:], cast[12:])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_lstm_forward_leaves_cell_weights_bit_identical(self, dtype):
        # on a float64 workspace a cast without a copy would be W itself,
        # and halving its rows would halve the cell's weights
        rng = np.random.default_rng(31)
        cell = make_cell(3, 4, rng)
        before = cell.W.copy()
        for _ in range(2):
            nn.lstm_forward(cell, rng.standard_normal((5, 2, 3)),
                            nn.LstmState.zeros(4, 2), nn.LstmWorkspace(dtype))
        assert cell.W.tobytes() == before.tobytes()


# largest |difference| from the oracle, per workspace dtype: over every
# step, each from the kernel's own previous state (gates, c and z), and
# for float64 over the final state of the whole fold. Seen at up to 1.2e-5
# (float32 step), 3e-14 (float64 step) and 1.2e-11 (float64 fold) over
# 10,000-20,000 draws of the strategy below.
_STEP_ATOL = {np.float64: 1e-12, np.float32: 2e-4}
_FOLD_ATOL = 1e-9


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 8),
       k=st.integers(1, 8), h=st.integers(1, 8), n_in=st.integers(1, 8),
       scale=st.floats(0.0, 50.0))
def test_gates_at_saturation_match_oracle(dtype, seed, T, k, h, n_in, scale):
    """Weights up to +-50 put most pre-activations deep in the gates' flat
    tails, where the tanh form saturates to exactly 0 or 1. The float32
    fold is not compared: a gate near its midpoint has slope up to 1, so
    with weights this large each step can multiply the float32 rounding
    carried in from the step before by 10 or more."""
    rng = np.random.default_rng(seed)
    cell = nn.LstmCell(scale * rng.uniform(-1, 1, (4 * h, h + n_in)))
    xs = rng.standard_normal((T, k, n_in))
    init = nn.LstmState(c=rng.standard_normal((k, h)),
                        z=rng.uniform(-1, 1, (k, h)))
    ws = nn.LstmWorkspace(dtype)
    got, _ = nn.lstm_forward(cell, xs, init, ws)
    atol = _STEP_ATOL[dtype]
    with np.errstate(over="ignore"):  # the oracle's exp(-x) past -709
        for t in range(T):
            prev = nn.LstmState(c=ws.C[t].T.astype(np.float64),
                                z=ws.S[t, :h].T.astype(np.float64))
            want, gates = lstm_step(cell, xs[t], prev)
            np.testing.assert_allclose(ws.P[t].T, np.hstack(gates),
                                       rtol=0, atol=atol)
            np.testing.assert_allclose(ws.C[t + 1].T, want.c, rtol=0,
                                       atol=atol)
            np.testing.assert_allclose(ws.S[t + 1, :h].T, want.z, rtol=0,
                                       atol=atol)
        if dtype == np.float64:
            want = lstm_fold(cell, xs, init)
            np.testing.assert_allclose(got.c, want.c, rtol=0, atol=_FOLD_ATOL)
            np.testing.assert_allclose(got.z, want.z, rtol=0, atol=_FOLD_ATOL)


def test_float32_pre_activations_of_1e4_raise_no_flag():
    # the step has no clamp: tanh takes +-1e4 (+-5e3 on the halved rows)
    # to exactly +-1, so every gate is exactly 0 or 1 and no ufunc of the
    # step overflows or underflows
    h, T = 3, 4
    rng = np.random.default_rng(32)
    W = np.zeros((4 * h, h + 1))
    W[:, h] = 1e4 * rng.choice([-1.0, 1.0], 4 * h)
    cell = nn.LstmCell(W)
    xs = np.array([1.0, -1.0, -1.0, 1.0]).reshape(T, 1, 1)
    init = nn.LstmState(c=np.array([[0.5, -2.0, 3.0]]), z=np.zeros((1, h)))
    ws = nn.LstmWorkspace(np.float32)
    with np.errstate(all="raise"):
        state, _ = nn.lstm_forward(cell, xs, init, ws)
    assert np.all(np.isfinite(state.c)) and np.all(np.isfinite(state.z))
    assert set(np.unique(ws.P[:, :3 * h])) <= {0.0, 1.0}
    assert set(np.unique(ws.P[:, 3 * h:])) <= {-1.0, 1.0}
    with np.errstate(over="ignore"):
        want = lstm_fold(cell, xs, init)
    np.testing.assert_array_equal(state.c, want.c)
    np.testing.assert_allclose(state.z, want.z, rtol=0, atol=1e-7)


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

    def test_float32_workspace_returns_float64(self):
        rng = np.random.default_rng(19)
        cell = make_cell(9, 16, rng)
        xs = rng.standard_normal((12, 8, 9))
        dz = rng.standard_normal((8, 16))
        ws = nn.LstmWorkspace(np.float32)
        state, cache = nn.lstm_forward(cell, xs, nn.LstmState.zeros(16, 8), ws)
        dW, dX = nn.lstm_backward(cell, cache, dz)
        assert ws.P.dtype == ws.dS.dtype == np.float32
        for a in (state.c, state.z, dW, dX):
            assert a.dtype == np.float64 and a.flags.c_contiguous
        assert cell.W.dtype == np.float64
        _, cache64 = nn.lstm_forward(cell, xs, nn.LstmState.zeros(16, 8))
        dW64, dX64 = nn.lstm_backward(cell, cache64, dz)
        assert rel_error(dW, dW64) < 1e-3 and rel_error(dX, dX64) < 1e-3

    def test_given_dW_is_zeroed_and_summed_into(self):
        # a view of a gradient vector, holding stale values, gets the
        # bits a fresh dW gets
        rng = np.random.default_rng(23)
        cell = make_cell(9, 16, rng)
        xs = rng.standard_normal((12, 8, 9))
        dz = rng.standard_normal((8, 16))
        ws = nn.LstmWorkspace(np.float32)
        _, cache = nn.lstm_forward(cell, xs, nn.LstmState.zeros(16, 8), ws)
        dW, dX = nn.lstm_backward(cell, cache, dz)
        vector = np.full(cell.W.size + 3, 7.0)
        out = vector[3:].reshape(cell.W.shape)
        dW_out, dX_out = nn.lstm_backward(cell, cache, dz, dW=out)
        assert dW_out is out and vector[:3].tolist() == [7.0] * 3
        assert same_bits(out, dW) and same_bits(dX_out, dX)

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
        vector = np.r_[np.full(4, 10.0), np.full(3, -10.0)]
        layout = nn.Layout({"a": (2, 2), "b": (3,)})
        assert nn.clip_global_norm(vector, 5.0, layout) == \
            pytest.approx(np.sqrt(700.0))
        assert np.linalg.norm(vector) == pytest.approx(5.0)

    def test_no_clip_below_threshold(self):
        vector = np.array([0.1, 0.2])
        nn.clip_global_norm(vector, 5.0, nn.Layout({"a": (2,)}))
        np.testing.assert_array_equal(vector, [0.1, 0.2])


class TestLayout:
    def test_views_share_the_vector_and_pack_copies(self):
        layout = nn.Layout({"W": (2, 3), "b": (2,)})
        vector = np.arange(8.0)
        views = layout.views(vector)
        np.testing.assert_array_equal(views["W"], [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(views["b"], [6, 7])
        views["b"][0] = -1.0
        assert vector[6] == -1.0
        packed = layout.pack({"b": views["b"], "W": views["W"], "x": 0.0})
        np.testing.assert_array_equal(packed, vector)
        assert not np.shares_memory(packed, vector)
