"""Dense layer and LSTM cell with hand-derived forward/backward passes.

No autodiff: every backward pass is the explicit chain rule, checked
against central finite differences in the test suite. Dense layers accept
a single vector or a (batch, n) matrix; the LSTM takes (T, k, in) batches.
Gradients are summed over the batch dimension.

The LSTM cell carries no bias terms and keeps its four gates in one
stacked weight matrix W (4h, h + in), so a step is the single matmul
W @ [z_prev; x_t] into a gate-major (4h, k) block. Trajectories live in an
LstmWorkspace that is reused across calls of one shape; a forward cache
is valid until the next forward on the same workspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

ACTIVATIONS = ("relu", "sigmoid", "tanh", "identity")

# exp(709) is the largest power of e below the float64 maximum
_SIGMOID_FLOOR = -709.0


def sigmoid(x, out=None):
    """Logistic function 1 / (1 + exp(-x)), the one used everywhere.

    Exactly 0.5 at 0. Inputs are clamped below at -709, where exp(-x) is
    still finite, so nothing overflows or warns; an input below -709 gives
    sigmoid(-709) ~ 1.2e-308 instead of a subnormal. With `out` (which may
    be `x`) the result is written there. A 0-d input returns a float.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(x)
    np.maximum(x, _SIGMOID_FLOOR, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out if out.ndim else float(out)


def _apply_activation(name: str, pre: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(pre, 0.0)
    if name == "sigmoid":
        return sigmoid(pre)
    if name == "tanh":
        return np.tanh(pre)
    if name == "identity":
        return pre
    raise ValueError(f"unknown activation {name!r}")


def _activation_grad(name: str, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (pre > 0).astype(np.float64)
    if name == "sigmoid":
        return post * (1.0 - post)
    if name == "tanh":
        return 1.0 - post * post
    if name == "identity":
        return np.ones_like(pre)
    raise ValueError(f"unknown activation {name!r}")


def init_params(shape, scheme: str, rng: np.random.Generator) -> np.ndarray:
    """Fresh parameter array: 'zeros' or 'uniform-xavier' (fan-based bound)."""
    if scheme == "zeros":
        return np.zeros(shape, dtype=np.float64)
    if scheme == "uniform-xavier":
        shape = tuple(np.atleast_1d(shape))
        if len(shape) == 2:
            fan_out, fan_in = shape
        else:
            fan_in = fan_out = shape[0]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)
    raise ValueError(f"unknown init scheme {scheme!r}")


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)
    activation: str = "identity"

    @classmethod
    def create(cls, in_size: int, out_size: int, activation: str,
               rng: np.random.Generator, scheme: str = "uniform-xavier"):
        return cls(weights=init_params((out_size, in_size), scheme, rng),
                   bias=np.zeros(out_size), activation=activation)


@dataclass
class DenseGrads:
    weights: np.ndarray
    bias: np.ndarray


def dense_forward(layer: DenseLayer, x):
    """Returns (activation(x @ W.T + b), cache for the backward pass)."""
    xb, squeeze = _as_batch(x)
    if xb.shape[1] != layer.weights.shape[1]:
        raise NumericError(f"dense input width {xb.shape[1]} != layer "
                           f"in-size {layer.weights.shape[1]}")
    pre = xb @ layer.weights.T + layer.bias
    post = _apply_activation(layer.activation, pre)
    cache = (xb, pre, post, squeeze)
    return (post[0] if squeeze else post), cache


def dense_backward(layer: DenseLayer, cache, upstream):
    """Chain rule through one dense layer; batch gradients are summed."""
    xb, pre, post, squeeze = cache
    gb, _ = _as_batch(upstream)
    g = gb * _activation_grad(layer.activation, pre, post)
    grads = DenseGrads(weights=g.T @ xb, bias=g.sum(axis=0))
    dx = g @ layer.weights
    return (dx[0] if squeeze else dx), grads


@dataclass
class LstmCell:
    """Bias-free LSTM cell on one stacked weight matrix.

    `W` is (4h, h + in): row blocks are the gates f, i, o, c in that order,
    columns :h act on the previous short-term state and columns h: on the
    step input, so one step's four pre-activations are W @ [z_prev; x_t].
    """

    W: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.W.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.W.shape[1] - self.hidden_size

    @classmethod
    def create(cls, input_size: int, hidden_size: int, rng: np.random.Generator,
               scheme: str = "uniform-xavier"):
        """Per gate f, i, o, c: the (h, in) input block, then the (h, h)
        state block, each with its own fan-based Xavier bound."""
        h = hidden_size
        W = np.empty((4 * h, h + input_size))
        for gate in range(4):
            rows = W[gate * h:(gate + 1) * h]
            rows[:, h:] = init_params((h, input_size), scheme, rng)
            rows[:, :h] = init_params((h, h), scheme, rng)
        return cls(W)


@dataclass
class LstmState:
    c: np.ndarray  # cell state, (k, h)
    z: np.ndarray  # short-term memory / exposed state, (k, h)

    @classmethod
    def zeros(cls, hidden_size: int, batch: int = 1):
        return cls(c=np.zeros((batch, hidden_size)),
                   z=np.zeros((batch, hidden_size)))


class StaleCacheError(RuntimeError):
    """A forward cache was used after a later forward reused its buffers."""


class LstmWorkspace:
    """Trajectory buffers for lstm_forward and lstm_backward.

    Buffers are kept between calls and reallocated only when the shape
    changes, so a steady training loop touches no fresh memory. Every
    forward bumps `generation`; a cache is valid only while it matches.
    Layout is time-major and gate-major with the batch along the last
    axis, so each step reads and writes contiguous (rows, k) blocks:

        S  (T+1, h+in, k)  S[t] = [z_{t-1}; x_t], S[T, :h] = final z
        P  (T, 4h, k)      gate activations f, i, o (sigmoid), c (tanh)
        C  (T+1, h, k)     C[t] = c_{t-1}, C[T] = final c
        TC (T, h, k)       tanh(c_t)
    """

    def __init__(self):
        self.generation = 0
        self._forward_shape = None
        self._backward_shape = None

    def forward_buffers(self, steps: int, k: int, hidden: int, n_in: int):
        shape = (steps, k, hidden, n_in)
        if shape != self._forward_shape:
            self._forward_shape = shape
            self.S = np.empty((steps + 1, hidden + n_in, k))
            self.P = np.empty((steps, 4 * hidden, k))
            self.C = np.empty((steps + 1, hidden, k))
            self.TC = np.empty((steps, hidden, k))
            self._ig = np.empty((hidden, k))
        self.generation += 1
        return self.S, self.P, self.C, self.TC, self._ig

    def backward_buffers(self, steps: int, k: int, hidden: int, n_in: int):
        shape = (steps, k, hidden, n_in)
        if shape != self._backward_shape:
            self._backward_shape = shape
            self.dS = np.empty((steps, hidden + n_in, k))
            self._step = np.empty((6, hidden, k))
            self._a = np.empty((4 * hidden, k))
            self._dct = np.empty((hidden, k))
            self._dc = np.empty((hidden, k))
            self._dW_t = np.empty((4 * hidden, hidden + n_in))
        return (self.dS, self._step, self._a, self._dct, self._dc,
                self._dW_t)


def lstm_forward(cell: LstmCell, xs, init: LstmState,
                 workspace: LstmWorkspace | None = None):
    """Run the cell over xs (T, k, in) from `init` (c and z of (k, h)).

    Each step is

        [f; i; o; g] = [sigmoid; sigmoid; sigmoid; tanh](W @ [z_prev; x_t])
        c = c_prev * f + i * g
        z = tanh(c) * o

    as one matmul into the step's gate block followed by in-place ufuncs.
    Returns (final LstmState as fresh arrays, cache for lstm_backward).
    The trajectory stays in `workspace` (a private one when None), so the
    cache is valid only until the next forward on the same workspace.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[0] == 0:
        raise NumericError("lstm_forward needs a non-empty (T, k, in) sequence")
    T, k, n_in = xs.shape
    h = cell.hidden_size
    if n_in != cell.input_size:
        raise NumericError(f"LSTM input width {n_in} != cell input size "
                           f"{cell.input_size}")
    if init.z.shape != (k, h) or init.c.shape != (k, h):
        raise NumericError(f"initial LSTM state must be ({k}, {h})")
    ws = LstmWorkspace() if workspace is None else workspace
    S, P, C, TC, ig = ws.forward_buffers(T, k, h, n_in)
    S[:T, h:] = xs.transpose(0, 2, 1)
    S[0, :h] = init.z.T
    C[0] = init.c.T

    W = cell.W
    for p, gates, s, z, c_prev, c, tc in zip(P, P.reshape(T, 4, h, k), S,
                                             S[1:, :h], C, C[1:], TC):
        np.matmul(W, s, out=p)
        f, i, o, g = gates
        fio = gates[:3]
        sigmoid(fio, out=fio)
        np.tanh(g, out=g)
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=ig)
        c += ig
        np.tanh(c, out=tc)
        np.multiply(tc, o, out=z)
    state = LstmState(c=C[T].T.copy(), z=S[T, :h].T.copy())
    if not (np.all(np.isfinite(state.c)) and np.all(np.isfinite(state.z))):
        raise NumericError("non-finite LSTM state in forward pass")
    cache = {"xs": xs, "workspace": ws, "generation": ws.generation,
             "start": 0}
    return state, cache


def lstm_cache_rows(cache: dict, start: int) -> dict:
    """The cache restricted to batch rows start: onward; lstm_backward on
    it equals a backward on a forward pass over those rows alone."""
    return {**cache, "xs": cache["xs"][:, start:],
            "start": cache["start"] + start}


def lstm_backward(cell: LstmCell, cache: dict, dz_final, dc_final=None):
    """Backpropagation through time from a gradient on the final state.

    dz_final and dc_final are (k, h) over the cache's rows. Returns
    (dW of W's shape, per-step input gradients dX (T, k, in)). Raises
    StaleCacheError if the workspace has run a forward since `cache`.
    """
    ws = cache["workspace"]
    if cache["generation"] != ws.generation:
        raise StaleCacheError("LSTM cache is stale: its workspace has run "
                              "a later forward pass")
    lo = cache["start"]
    S, P, C, TC = ws.S, ws.P, ws.C, ws.TC
    T, _, k_all = P.shape
    h = cell.hidden_size
    n_in = S.shape[1] - h
    k = k_all - lo
    dS, step, a, dct, dc, dW_t = ws.backward_buffers(T, k, h, n_in)

    dz = np.asarray(dz_final).T
    dc0 = np.zeros_like(dz) if dc_final is None else np.asarray(dc_final).T
    if dz.shape != (h, k) or dc0.shape != (h, k):
        raise NumericError(f"final-state gradients must be ({k}, {h})")
    dc[...] = dc0
    dW = np.zeros_like(cell.W)
    WT = cell.W.T
    a4 = a.reshape(4, h, k)
    gates_all = P.reshape(T, 4, h, k_all)[..., lo:]
    f, i, o, g, c_prev, tc = step
    for t in range(T - 1, -1, -1):
        # the step's operands as contiguous blocks: a row range of the
        # trajectory is strided, and every ufunc below would pay for that
        np.copyto(step[:4], gates_all[t])
        np.copyto(c_prev, C[t, :, lo:])
        np.copyto(tc, TC[t, :, lo:])
        # dL/dc_t: the carried dc plus the path through z_t = o * tanh(c_t)
        np.multiply(tc, tc, out=dct)
        np.subtract(1.0, dct, out=dct)
        dct *= o
        dct *= dz
        dct += dc
        # gate pre-activation gradients, sigmoid' = s (1 - s) for f, i, o
        np.subtract(1.0, step[:3], out=a4[:3])
        a4[:3] *= step[:3]
        a4[0] *= c_prev
        a4[1] *= g
        a4[:2] *= dct
        a4[2] *= tc
        a4[2] *= dz
        np.multiply(g, g, out=a4[3])
        np.subtract(1.0, a4[3], out=a4[3])
        a4[3] *= i
        a4[3] *= dct
        np.matmul(a, S[t, :, lo:].T, out=dW_t)
        dW += dW_t
        np.matmul(WT, a, out=dS[t])
        dz = dS[t, :h]
        np.multiply(dct, f, out=dc)
    dX = dS[:, h:].transpose(0, 2, 1).copy()
    return dW, dX


def global_norm(arrays) -> float:
    return float(np.sqrt(sum(float(np.sum(a * a)) for a in arrays)))


def clip_global_norm(arrays, max_norm: float) -> float:
    """Scale all arrays in place so their joint L2 norm is <= max_norm."""
    norm = global_norm(arrays)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for a in arrays:
            a *= scale
    return norm
