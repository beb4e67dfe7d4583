"""Step-by-step reference LSTM that the tests compare nn's kernel against.

It reads the stacked weight matrix through per-gate row views and applies
the textbook update one step at a time, with its own sigmoid, so it shares
no code path with nn.lstm_forward beyond the weights. Its state may start
anywhere; nn.lstm_forward always starts from zero, so `kernel_step` runs
nn.lstm_step from any state, for the cases that need one.
"""

from dataclasses import dataclass

import numpy as np

from tsgan import nn

GATES = "fioc"  # row-block order of LstmCell.W


@dataclass
class LstmState:
    c: np.ndarray  # cell state, (k, h)
    z: np.ndarray  # short-term memory / exposed state, (k, h)

    @classmethod
    def zeros(cls, hidden_size: int, batch: int = 1):
        return cls(c=np.zeros((batch, hidden_size)),
                   z=np.zeros((batch, hidden_size)))


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


def kernel_step(cell, x_t, prev: LstmState, dtype=np.float64):
    """One nn.lstm_step from `prev` on fresh buffers in `dtype`, laid out as
    nn's are: x_t (k, in) and prev (k, h) give the step input slab
    [z_prev; x_t] (h + in, k). Returns (LstmState, gate activations
    (k, 4h)), both float64; a float32 state survives the round trip
    exactly, so a fold of kernel steps computes what one pass does."""
    x = np.atleast_2d(x_t)
    h, k = cell.hidden_size, x.shape[0]
    s = np.concatenate([np.atleast_2d(prev.z).T, x.T]).astype(dtype)
    c_prev = np.atleast_2d(prev.c).T.astype(dtype, order="C")
    p = np.empty((4 * h, k), dtype)
    c, tc, ig = np.empty((3, h, k), dtype)
    nn.lstm_step(nn.step_weights(cell.W, dtype), s, p, c_prev, c, tc, s[:h],
                 ig)
    rows = {"dtype": np.float64, "order": "C"}
    return (LstmState(c=c.T.astype(**rows), z=s[:h].T.astype(**rows)),
            p.T.astype(**rows))
