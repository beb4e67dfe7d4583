"""Finite-difference verification of every hand-derived backward pass.

Each check compares an analytic gradient against central differences of a
scalar loss, with relative error |a - b| / max(|a|, |b|, 1e-8). Used by
both the test suite and the `gradcheck` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gan import Discriminator, Generator, TrainConfig
from .nn import (DenseLayer, LstmCell, LstmState, LstmWorkspace,
                 dense_backward, dense_forward, lstm_backward, lstm_forward)

H = 1e-5
TOL = 1e-4


@dataclass
class BlockReport:
    name: str
    max_rel_error: float
    passed: bool


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def _numeric_grad(f, param: np.ndarray) -> np.ndarray:
    grad = np.empty_like(param)
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = param[idx]
        param[idx] = orig + H
        plus = f()
        param[idx] = orig - H
        minus = f()
        param[idx] = orig
        grad[idx] = (plus - minus) / (2 * H)
    return grad


def check_dense(rng: np.random.Generator, trials: int = 100) -> float:
    """Random 4x3 layers, both activations, loss = weighted output sum."""
    worst = 0.0
    activations = ("relu", "identity")
    for trial in range(trials):
        layer = DenseLayer(weights=rng.standard_normal((4, 3)),
                           bias=rng.standard_normal(4),
                           activation=activations[trial % 2])
        x = rng.standard_normal((1, 3))
        w = rng.standard_normal((1, 4))  # random linear readout as scalar loss

        def loss():
            out, _ = dense_forward(layer, x)
            return float(out[0] @ w[0])

        out, cache = dense_forward(layer, x)
        dx, grads = dense_backward(layer, cache, w)
        worst = max(worst, rel_error(grads.weights, _numeric_grad(loss, layer.weights)))
        worst = max(worst, rel_error(grads.bias, _numeric_grad(loss, layer.bias)))
        worst = max(worst, rel_error(dx, _numeric_grad(loss, x)))
    return worst


def check_lstm(rng: np.random.Generator, trials: int = 100, hidden: int = 4,
               n_inputs: int = 3, steps: int = 5) -> float:
    """Random cells over `steps`-long single-row sequences; the loss reads
    the final state."""
    worst = 0.0
    for _ in range(trials):
        cell = LstmCell.create(n_inputs, hidden, rng)
        cell.W *= 2.0  # widen past Xavier so gates leave the linear region
        xs = rng.standard_normal((steps, 1, n_inputs))
        wz = rng.standard_normal((1, hidden))
        wc = rng.standard_normal((1, hidden))

        def loss():
            state, _ = lstm_forward(cell, xs, LstmState.zeros(hidden))
            return float(np.sum(state.z * wz + state.c * wc))

        state, cache = lstm_forward(cell, xs, LstmState.zeros(hidden))
        dW, dX = lstm_backward(cell, cache, wz, wc)
        worst = max(worst, rel_error(dW, _numeric_grad(loss, cell.W)))
        worst = max(worst, rel_error(dX, _numeric_grad(loss, xs)))
    return worst


def check_composed(rng: np.random.Generator, trials: int = 100) -> float:
    """Generator gradients through the composed D(G(y, z)) path.

    The scalar read-out is a random weighting of the logits rather than the
    BCE value: central differences of a loss whose magnitude (~0.7) dwarfs
    the smallest weight sensitivities drown in float64 roundoff, while the
    chain through D into G is identical either way. The BCE gradient itself
    is finite-difference-checked separately. The generator runs on a
    float64 workspace: central differences at H = 1e-5 need float64 sums.
    """
    worst = 0.0
    config = TrainConfig(noise_dim=2, condition_dim=4, hidden_size=3,
                         disc_layers=(5, 4), batch_size=2, epochs=1, seed=0)
    for _ in range(trials):
        gen = Generator(config, rng)
        gen.workspace = LstmWorkspace(np.float64)
        disc = Discriminator(config, rng)
        conditions = rng.standard_normal((2, config.condition_dim))
        z = rng.standard_normal((2, config.noise_dim))
        # Small read-out weights keep the loss scale low so central
        # differences stay well above float64 roundoff even for the most
        # attenuated weight sensitivities deep in the LSTM.
        w = 0.01 * rng.standard_normal(2)

        def loss():
            fake, _ = gen.forward(conditions, z)
            logits, _ = disc.forward(conditions, fake)
            return float(logits @ w)

        fake, gen_cache = gen.forward(conditions, z)
        logits, disc_caches = disc.forward(conditions, fake)
        dinput, _ = disc.backward(disc_caches, w)
        grads = gen.backward(gen_cache, dinput[:, -1])
        for name, param in gen.params().items():
            worst = max(worst, rel_error(grads[name], _numeric_grad(loss, param)))
    return worst


def run_suite(seed: int = 0, trials: int = 100) -> list[BlockReport]:
    reports = []
    for name, check in (("dense", check_dense),
                        ("lstm", check_lstm),
                        ("composed_d_of_g", check_composed)):
        err = check(np.random.default_rng(seed), trials=trials)
        reports.append(BlockReport(name=name, max_rel_error=err,
                                   passed=err <= TOL))
    return reports
