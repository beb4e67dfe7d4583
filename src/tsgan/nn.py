"""Dense layer and LSTM cell with hand-derived forward/backward passes.

No autodiff: every backward pass is the explicit chain rule, checked
against central finite differences in the test suite. Dense layers take a
(batch, n) matrix, a single row as (1, n), and apply `relu` or `identity`;
the LSTM takes (T, k, in) batches. Gradients are summed over the batch
dimension.

The LSTM cell carries no bias terms and keeps its four gates in one
stacked weight matrix W (4h, h + in), so a step is the single matmul
W @ [z_prev; x_t] into a gate-major (4h, k) block. `lstm_step` is that
step on caller-owned buffers, the one copy of its math. It runs one
tanh over the whole block, on a copy of W from `step_weights` whose f,
i, o rows are halved, and maps those rows to the sigmoid by
sigmoid(x) = (1 + tanh(x / 2)) / 2. lstm_forward is the generator's
training pass: from a zero state it loops lstm_step over a trajectory,
kept for lstm_backward in an LstmWorkspace reused across calls of one
shape, and returns only the final short-term state z, a slab of that
workspace, valid like the cache until the next forward on it.
lstm_backward turns a gradient on that z into the weight gradient alone,
reading each step's gate, cell and tanh(c) blocks in place. Synthesis
keeps no trajectory and calls lstm_step on buffers of one step. The
workspace's dtype is the one the cell computes in (the generator's is
float32); weights and their gradient stay float64.

A `Layout` names the blocks of one flat float64 vector: a net's
parameters, whose layers hold views of them, its gradient, or a moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError


def _apply_activation(name: str, pre: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(pre, 0.0)
    if name == "identity":
        return pre
    raise ValueError(f"unknown activation {name!r}")


def _activation_grad(name: str, pre: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (pre > 0).astype(np.float64)
    if name == "identity":
        return np.ones_like(pre)
    raise ValueError(f"unknown activation {name!r}")


INIT_SCHEMES = ("zeros", "uniform-xavier")


def init_params(shape, scheme: str, rng: np.random.Generator) -> np.ndarray:
    """Fresh parameter array: 'zeros', or for a (fan_out, fan_in) weight
    matrix 'uniform-xavier' (fan-based bound)."""
    if scheme == "zeros":
        return np.zeros(shape, dtype=np.float64)
    if scheme == "uniform-xavier":
        fan_out, fan_in = shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)
    raise ValueError(f"unknown init scheme {scheme!r}")


class Layout(dict):
    """Block name -> shape, in the order the blocks lie end to end in one
    flat float64 vector."""

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Each block of `vector`, by name, as a view of its shape."""
        blocks, start = {}, 0
        for name, shape in self.items():
            stop = start + math.prod(shape)
            blocks[name] = vector[start:stop].reshape(shape)
            start = stop
        return blocks

    def pack(self, blocks: dict[str, np.ndarray]) -> np.ndarray:
        """A fresh vector of the blocks named in the layout, taken from
        `blocks`, which must have the layout's shapes."""
        return np.concatenate([np.ravel(blocks[name]) for name in self],
                              dtype=np.float64)


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)
    activation: str = "identity"


def dense_forward(layer: DenseLayer, x):
    """(activation(x @ W.T + b), backward cache) for x (batch, in), in float64."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.weights.shape[1]:
        raise NumericError(f"dense input of shape {x.shape} is not "
                           f"(batch, {layer.weights.shape[1]})")
    pre = x @ layer.weights.T + layer.bias
    return _apply_activation(layer.activation, pre), (x, pre)


def dense_backward(layer: DenseLayer, cache, upstream):
    """Chain rule through one dense layer: the input gradient, then the
    weight and bias gradients, summed over the batch."""
    x, pre = cache
    g = upstream * _activation_grad(layer.activation, pre)
    return g @ layer.weights, g.T @ x, g.sum(axis=0)


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


class StaleCacheError(RuntimeError):
    """A forward cache was used after a later forward reused its buffers."""


class LstmWorkspace:
    """Buffers for lstm_forward and lstm_backward: a training pass keeps
    every step for its backward.

    Buffers are kept between calls and reallocated only when the shape
    changes, so a steady training loop touches no fresh memory. Every
    pass bumps `generation`; a cache is valid only while it matches.
    Every buffer has the workspace's `dtype`, fixed when it is built, and
    the cell computes in it.
    Layout is time-major and gate-major with the batch along the last
    axis, so each step reads and writes contiguous (rows, k) blocks:

        S  (T+1, h+in, k)  S[t] = [z_{t-1}; x_t], S[T, :h] = final z
        P  (T, 4h, k)      gate activations f, i, o (sigmoid), c (tanh)
        C  (T+1, h, k)     C[t] = c_{t-1}, C[T] = final c
        TC (T, h, k)       tanh(c_t)
        dS (h+in, k)       a backward step's W.T @ a; dS[:h] = dz_{t-1}
    """

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)
        self.generation = 0
        self._shape = None

    def start_pass(self, steps: int, k: int, hidden: int, n_in: int):
        """Size the buffers for a pass of this shape; void older caches."""
        self.generation += 1
        shape = (steps, k, hidden, n_in)
        if shape != self._shape:
            self._shape = shape
            dt = self.dtype
            self.S = np.empty((steps + 1, hidden + n_in, k), dt)
            self.P = np.empty((steps, 4 * hidden, k), dt)
            self.C = np.empty((steps + 1, hidden, k), dt)
            self.TC = np.empty((steps, hidden, k), dt)
            self.dS = np.empty((hidden + n_in, k), dt)
            self._a = np.empty((4 * hidden, k), dt)
            self._ig, self._dct, self._dc = np.empty((3, hidden, k), dt)
            self._dW_t = np.empty((4 * hidden, hidden + n_in), dt)


def check_lstm_state(c, z) -> None:
    """Raise NumericError unless the cell and short-term states are finite."""
    if not (np.isfinite(c).all() and np.isfinite(z).all()):
        raise NumericError("non-finite LSTM state in forward pass")


def step_weights(W, dtype) -> np.ndarray:
    """The stacked W as lstm_step takes it: a fresh copy in `dtype` with
    the f, i and o rows halved. Halving is a power-of-two scale, so it is
    exact, and the copy never aliases W, whatever its dtype."""
    W = np.array(W, dtype=dtype)
    W[:3 * (W.shape[0] // 4)] *= 0.5
    return W


def lstm_step(W, s, p, c_prev, c, tc, z, ig):
    """One step on k batch columns, in place, in the buffers' dtype:

        p = [f; i; o; g] = [sigmoid; sigmoid; sigmoid; tanh](cell.W @ s)
        c = c_prev * f + i * g,  tc = tanh(c),  z = tc * o

    with W = step_weights(cell.W, dtype), s = [z_prev; x_t] (h + in, k),
    p (4h, k), the rest (h, k) and ig scratch. One tanh covers all four
    gates, as sigmoid(a) = (1 + tanh(a / 2)) / 2 and W's f, i, o rows give
    a / 2. f, i and o saturate to exactly 0 or 1, and g to -1 or 1, with
    no floating-point flag, so nothing is clamped. z may be s[:h]: the
    matmul has read s by then.
    """
    np.matmul(W, s, out=p)
    np.tanh(p, out=p)
    h = p.shape[0] // 4
    fio = p[:3 * h]
    fio *= 0.5
    fio += 0.5
    f, i, o, g = p.reshape(4, h, p.shape[1])
    np.multiply(f, c_prev, out=c)
    np.multiply(i, g, out=ig)
    c += ig
    np.tanh(c, out=tc)
    np.multiply(tc, o, out=z)


def lstm_forward(cell: LstmCell, xs, workspace: LstmWorkspace):
    """Run the cell over xs (T, k, in) from a zero state.

    Each step is one `lstm_step` on the workspace's slabs: step t reads
    S[t] = [z_{t-1}; x_t] and writes z_t into S[t+1, :h].
    Returns (final z, cache for lstm_backward). The final z is the
    workspace's (h, k) slab S[T, :h]; it and the cache are valid only
    until the next forward on the same workspace. The pass computes in
    the workspace's dtype, on one cast of W. A non-finite final state
    raises NumericError.
    """
    # xs stays the second positional argument, and the cache's "xs" the
    # (T, k, in) input: perfbench's FLOP probes read both
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[0] == 0:
        raise NumericError("lstm_forward needs a non-empty (T, k, in) sequence")
    T, k, n_in = xs.shape
    h = cell.hidden_size
    if n_in != cell.input_size:
        raise NumericError(f"LSTM input width {n_in} != cell input size "
                           f"{cell.input_size}")
    ws = workspace
    ws.start_pass(T, k, h, n_in)
    S, P, C, TC = ws.S, ws.P, ws.C, ws.TC
    S[:T, h:] = xs.transpose(0, 2, 1)
    S[0, :h] = C[0] = 0.0
    W = step_weights(cell.W, ws.dtype)
    for t in range(T):
        lstm_step(W, S[t], P[t], C[t], C[t + 1], TC[t], S[t + 1, :h], ws._ig)
    check_lstm_state(C[T], S[T, :h])
    return S[T, :h], {"xs": xs, "workspace": ws, "generation": ws.generation}


def lstm_backward(cell: LstmCell, cache: dict, dz_final, dW) -> None:
    """Backpropagation through time from a gradient on the final z.

    dz_final is (k, h), one row per column of the pass. The weight
    gradient is zeroed and summed into `dW`, a float64 array of W's shape
    (a view into a net's gradient vector); the steps compute in the
    workspace's dtype. The inputs get no gradient. Raises StaleCacheError
    if the workspace has run a forward since `cache`.
    """
    ws = cache["workspace"]
    if cache["generation"] != ws.generation:
        raise StaleCacheError("LSTM cache is stale: its workspace has run "
                              "a later forward pass")
    S, P, C, TC, dS = ws.S, ws.P, ws.C, ws.TC, ws.dS
    a, dct, dc, dW_t = ws._a, ws._dct, ws._dc, ws._dW_t
    T, _, k = P.shape
    h = cell.hidden_size
    dz = np.asarray(dz_final, dtype=ws.dtype).T
    if dz.shape != (h, k):
        raise NumericError(f"final-state gradient must be ({k}, {h})")
    dc[...] = 0.0
    dW[...] = 0.0
    WT = cell.W.astype(ws.dtype, copy=False).T
    a4 = a.reshape(4, h, k)
    gates = P.reshape(T, 4, h, k)
    for t in range(T - 1, -1, -1):
        f, i, o, g = gates[t]
        fio = gates[t, :3]
        c_prev, tc = C[t], TC[t]
        # dL/dc_t: the carried dc plus the path through z_t = o * tanh(c_t)
        np.multiply(tc, tc, out=dct)
        np.subtract(1.0, dct, out=dct)
        dct *= o
        dct *= dz
        dct += dc
        # gate pre-activation gradients, sigmoid' = s (1 - s) for f, i, o
        np.subtract(1.0, fio, out=a4[:3])
        a4[:3] *= fio
        a4[0] *= c_prev
        a4[1] *= g
        a4[:2] *= dct
        a4[2] *= tc
        a4[2] *= dz
        np.multiply(g, g, out=a4[3])
        np.subtract(1.0, a4[3], out=a4[3])
        a4[3] *= i
        a4[3] *= dct
        np.matmul(a, S[t].T, out=dW_t)
        dW += dW_t
        # all h + in rows, though only dz_{t-1} is read: the full GEMM is
        # what perfbench's FLOP count assumes, and it keeps dW's bits
        np.matmul(WT, a, out=dS)
        dz = dS[:h]
        np.multiply(dct, f, out=dc)


def global_norm(arrays) -> float:
    return float(np.sqrt(sum(float(np.sum(a * a)) for a in arrays)))


def clip_global_norm(vector: np.ndarray, max_norm: float,
                     layout: Layout) -> float:
    """Scale `vector` in place so its L2 norm is <= max_norm; returns the
    norm before scaling. The squares are summed one block of `layout`
    after another, so the norm rounds the same as over separate blocks."""
    norm = global_norm(layout.views(vector).values())
    if max_norm > 0 and norm > max_norm:
        vector *= max_norm / norm
    return norm
