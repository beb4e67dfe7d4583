"""Step-by-step reference LSTM that the tests compare nn's kernel against.

It reads the stacked weight matrix through per-gate row views and applies
the textbook update one step at a time, with its own sigmoid, so it shares
no code path with nn.lstm_forward beyond the weights.
"""

import numpy as np

from tsgan.nn import LstmState

GATES = "fioc"  # row-block order of LstmCell.W


def gate_weights(W: np.ndarray) -> dict[str, np.ndarray]:
    """Views of a stacked (4h, h + in) matrix (weights or their gradient)
    as the per-gate blocks W_x{f,i,o,c} (h, in) and W_z{f,i,o,c} (h, h)."""
    h = W.shape[0] // 4
    blocks = {}
    for q, gate in enumerate(GATES):
        rows = W[q * h:(q + 1) * h]
        blocks[f"W_x{gate}"] = rows[:, h:]
        blocks[f"W_z{gate}"] = rows[:, :h]
    return blocks


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def lstm_step(cell, x_t, prev: LstmState):
    """One LSTM update on rows of x_t (k, in) and prev (k, h):

        f = sigmoid(W_xf x + W_zf z_prev)       (forget gate)
        i = sigmoid(W_xi x + W_zi z_prev)       (input gate)
        o = sigmoid(W_xo x + W_zo z_prev)       (output gate)
        g = tanh(W_xc x + W_zc z_prev)          (candidate)
        c = c_prev * f + i * g
        z = tanh(c) * o

    Returns (LstmState, (f, i, o, g)).
    """
    w = gate_weights(cell.W)
    x = np.atleast_2d(x_t)
    z = np.atleast_2d(prev.z)

    def pre(gate):
        return x @ w[f"W_x{gate}"].T + z @ w[f"W_z{gate}"].T

    f, i, o = _sigmoid(pre("f")), _sigmoid(pre("i")), _sigmoid(pre("o"))
    g = np.tanh(pre("c"))
    c = np.atleast_2d(prev.c) * f + i * g
    return LstmState(c=c, z=np.tanh(c) * o), (f, i, o, g)


def lstm_fold(cell, xs, init: LstmState) -> LstmState:
    """lstm_step folded over the leading (time) axis of xs (T, k, in)."""
    state = init
    for x_t in xs:
        state, _ = lstm_step(cell, x_t, state)
    return state
