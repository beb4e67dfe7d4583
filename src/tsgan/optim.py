"""Numerically stable BCE-with-logits and the Adam optimizer.

The loss uses the softplus identity
    loss(x, y) = max(x, 0) - x*y + log(1 + exp(-|x|))
which is finite for any finite logit, unlike applying log(sigmoid(x))
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)) of a float64 array.

    Exactly 0.5 at 0. x is clamped to [-709, 708], where exp(-x) neither
    overflows nor leaves the normal range, so the result stays above 0 down
    to -709 and is sigmoid(-709) ~1.2e-308 below; above, it is 1.0, as it
    is from about 37 on. nn.lstm_step's tanh form cannot serve here: it
    is 0 from about -38 on.
    """
    return 1.0 / (1.0 + np.exp(-np.clip(x, -709.0, 708.0)))


def _check_labels(labels: np.ndarray) -> None:
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("labels must be 0 or 1")


def bce_with_logits(logits, labels) -> float:
    """Mean binary cross-entropy over raw logits, softplus-stabilized."""
    x = np.asarray(logits, dtype=np.float64)
    y = np.broadcast_to(np.asarray(labels, dtype=np.float64), x.shape)
    _check_labels(y)
    loss = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    return float(loss.mean())


def bce_with_logits_grad(logits, labels):
    """d loss / d logit for the unreduced loss: sigmoid(x) - y."""
    x = np.asarray(logits, dtype=np.float64)
    y = np.broadcast_to(np.asarray(labels, dtype=np.float64), x.shape)
    _check_labels(y)
    return _sigmoid(x) - y


@dataclass
class AdamState:
    """Per-parameter-block first/second moments plus the shared step count."""

    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """One Adam update, in place, over named parameter blocks.

    m and v are decayed running moments of g and g**2; both are
    bias-corrected by the step count before the parameter update.
    """
    state.t += 1
    t = state.t
    for name, theta in params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise NumericError(f"gradient shape {g.shape} != parameter shape "
                               f"{theta.shape} for block {name!r}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in block {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(theta)
            state.v[name] = np.zeros_like(theta)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        theta -= state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
