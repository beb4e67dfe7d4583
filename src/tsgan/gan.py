"""Conditional GAN over windowed closing prices.

Generator: an LSTM that walks the d-step condition window, one close per
step, with a per-sample Gaussian noise vector concatenated to every step
input; a scalar head reads the final short-term state. Discriminator: an
MLP scoring (condition window, value) as a raw logit.

Training alternates one discriminator step and one generator step per
mini-batch. All randomness flows through a single seeded Generator so runs
are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from . import scaling
from .data import PairSet
from .errors import DataError, NumericError
from .nn import (INIT_SCHEMES, DenseLayer, LstmCell, LstmState,
                 LstmWorkspace, clip_global_norm, dense_backward,
                 dense_forward, lstm_backward, lstm_cache_rows, lstm_forward)
from .optim import AdamState, adam_step, bce_with_logits, bce_with_logits_grad

LN2 = float(np.log(2.0))
# conditioned synthesis runs the generator over this many windows a pass
SYNTH_CHUNK = 1024


@dataclass
class TrainConfig:
    noise_dim: int = 8
    condition_dim: int = 60
    batch_size: int = 64
    epochs: int = 50
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    seed: int = 0
    hidden_size: int = 64
    disc_layers: tuple = (128, 64, 32)
    clip_norm: float = 5.0
    init_scheme: str = "uniform-xavier"

    def __post_init__(self):
        for name in ("noise_dim", "condition_dim", "batch_size", "epochs",
                     "hidden_size", "seed"):
            _check_type(name, getattr(self, name), Integral)
        for name in ("lr", "beta1", "beta2", "clip_norm"):
            _check_type(name, getattr(self, name), Real)
        for name in ("noise_dim", "condition_dim", "batch_size", "epochs",
                     "lr", "hidden_size"):
            if not getattr(self, name) > 0:
                raise DataError(f"TrainConfig.{name} must be positive")
        if self.seed < 0:
            raise DataError("TrainConfig.seed must be >= 0")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise DataError(f"TrainConfig.{name} must be in [0, 1)")
        if not self.clip_norm >= 0:
            raise DataError("TrainConfig.clip_norm must be >= 0 (0: no clipping)")
        if self.init_scheme not in INIT_SCHEMES:
            raise DataError(f"TrainConfig.init_scheme must be one of {INIT_SCHEMES}")
        for width in self.disc_layers:
            _check_type("disc_layers width", width, Integral)
            if width <= 0:
                raise DataError("TrainConfig.disc_layers widths must be positive")
        self.disc_layers = tuple(int(w) for w in self.disc_layers)


def _check_type(name: str, value, kind) -> None:
    """Integral or Real, where a bool counts as neither."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DataError(f"TrainConfig.{name} must be "
                        f"{'an integer' if kind is Integral else 'a number'}, "
                        f"not {value!r}")


@dataclass
class LossHistory:
    d_epoch: list = field(default_factory=list)
    g_epoch: list = field(default_factory=list)
    d_batch: list = field(default_factory=list)
    g_batch: list = field(default_factory=list)


class Generator:
    """LSTM over the condition window plus repeated noise; scalar head.

    The generator owns the LSTM's workspace, so passes of one batch shape
    reuse the same trajectory buffers: a cache from `forward` is valid
    only until the next `forward` on this generator, and `backward` on an
    older one raises nn.StaleCacheError. Returned values are fresh arrays.
    """

    def __init__(self, config: TrainConfig, rng: np.random.Generator):
        self.noise_dim = config.noise_dim
        self.lstm = LstmCell.create(1 + config.noise_dim, config.hidden_size,
                                    rng, config.init_scheme)
        self.head = DenseLayer.create(config.hidden_size, 1, "identity",
                                      rng, config.init_scheme)
        self.workspace = LstmWorkspace()

    def params(self) -> dict[str, np.ndarray]:
        return {"gen.lstm.W": self.lstm.W,
                "gen.head.weights": self.head.weights,
                "gen.head.bias": self.head.bias}

    def forward(self, conditions: np.ndarray, z: np.ndarray, keep_cache=True):
        """Generate one scalar per row of `conditions` using noise rows `z`.

        Returns (values (k,), cache or None). keep_cache=False runs the
        LSTM forward-only, on one step of gate and cell buffers.
        """
        conditions = np.atleast_2d(np.asarray(conditions, dtype=np.float64))
        k, d = conditions.shape
        xs = np.empty((d, k, 1 + self.noise_dim))
        xs[:, :, 0] = conditions.T
        xs[:, :, 1:] = z
        state, lstm_cache = lstm_forward(
            self.lstm, xs, LstmState.zeros(self.lstm.hidden_size, k),
            self.workspace, keep_cache)
        out, head_cache = dense_forward(self.head, state.z)
        xhat = out[:, 0]
        if not np.all(np.isfinite(xhat)):
            raise NumericError("generator produced non-finite output")
        return xhat, ((lstm_cache, head_cache) if keep_cache else None)

    def forward_pair(self, conditions: np.ndarray, z2: np.ndarray):
        """One double-width pass for a D step and a G step on one batch.

        Runs the k `conditions` twice, with the 2k noise rows `z2`.
        Returns (the D step's fake batch from rows :k, the G step's fake
        batch from rows k:, a cache whose backward covers rows k: only).
        """
        k = conditions.shape[0]
        fake, (lstm_cache, head_cache) = self.forward(
            np.concatenate([conditions, conditions]), z2)
        xb, pre, post, squeeze = head_cache
        cache = (lstm_cache_rows(lstm_cache, k),
                 (xb[k:], pre[k:], post[k:], squeeze))
        return fake[:k], fake[k:], cache

    def backward(self, cache, dxhat: np.ndarray) -> dict[str, np.ndarray]:
        lstm_cache, head_cache = cache
        dfinal, head_grads = dense_backward(self.head, head_cache,
                                            dxhat[:, None])
        dW, _ = lstm_backward(self.lstm, lstm_cache, dfinal)
        return {"gen.lstm.W": dW,
                "gen.head.weights": head_grads.weights,
                "gen.head.bias": head_grads.bias}


class Discriminator:
    """MLP over [condition window, value]: ReLU hidden layers, logit out."""

    def __init__(self, config: TrainConfig, rng: np.random.Generator):
        widths = [config.condition_dim + 1, *config.disc_layers, 1]
        self.layers = []
        for i in range(len(widths) - 1):
            act = "identity" if i == len(widths) - 2 else "relu"
            self.layers.append(DenseLayer.create(widths[i], widths[i + 1],
                                                 act, rng, config.init_scheme))

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for i, layer in enumerate(self.layers):
            out[f"disc.{i}.weights"] = layer.weights
            out[f"disc.{i}.bias"] = layer.bias
        return out

    def forward(self, conditions: np.ndarray, values: np.ndarray):
        """Returns (logits (k,), caches)."""
        conditions = np.atleast_2d(np.asarray(conditions, dtype=np.float64))
        x = np.concatenate([conditions,
                            np.asarray(values, dtype=np.float64)[:, None]],
                           axis=1)
        caches = []
        for layer in self.layers:
            x, cache = dense_forward(layer, x)
            caches.append(cache)
        return x[:, 0], caches

    def backward(self, caches, dlogits: np.ndarray):
        """Returns (gradient w.r.t. the stacked input, parameter grads)."""
        g = dlogits[:, None]
        grads = {}
        for i in range(len(self.layers) - 1, -1, -1):
            g, layer_grads = dense_backward(self.layers[i], caches[i], g)
            grads[f"disc.{i}.weights"] = layer_grads.weights
            grads[f"disc.{i}.bias"] = layer_grads.bias
        return g, grads


def _clip(grads: dict[str, np.ndarray], clip_norm: float) -> None:
    if clip_norm > 0:
        clip_global_norm(list(grads.values()), clip_norm)


def train_discriminator_step(disc: Discriminator, gen: Generator,
                             conditions: np.ndarray, targets: np.ndarray,
                             adam_d: AdamState, rng: np.random.Generator,
                             clip_norm: float = 5.0, fake=None) -> float:
    """Real pass labeled 1, fake pass labeled 0; the generator output is a
    constant here (no gradient reaches G). Returns the mean half-sum loss.

    `fake` may carry precomputed generator output for this batch; otherwise
    noise is drawn here and the generator runs cache-free."""
    k = targets.shape[0]
    if fake is None:
        z = rng.standard_normal((k, gen.noise_dim))
        fake, _ = gen.forward(conditions, z, keep_cache=False)

    logits_real, caches_real = disc.forward(conditions, targets)
    logits_fake, caches_fake = disc.forward(conditions, fake)
    loss = 0.5 * (bce_with_logits(logits_real, 1.0)
                  + bce_with_logits(logits_fake, 0.0))

    d_real = 0.5 * bce_with_logits_grad(logits_real, 1.0) / k
    d_fake = 0.5 * bce_with_logits_grad(logits_fake, 0.0) / k
    _, grads_real = disc.backward(caches_real, d_real)
    _, grads_fake = disc.backward(caches_fake, d_fake)
    grads = {name: grads_real[name] + grads_fake[name] for name in grads_real}
    _clip(grads, clip_norm)
    adam_step(disc.params(), grads, adam_d)
    return loss


def train_generator_step(gen: Generator, disc: Discriminator,
                         conditions: np.ndarray, adam_g: AdamState,
                         rng: np.random.Generator,
                         clip_norm: float = 5.0, fake=None,
                         gen_cache=None) -> float:
    """Fake batch labeled 1 (the fooling objective); gradients flow through
    the discriminator into G, but only G's parameters are updated.

    `fake`/`gen_cache` may carry a precomputed generator pass; otherwise
    noise is drawn here."""
    conditions = np.atleast_2d(conditions)
    k = conditions.shape[0]
    if fake is None:
        z = rng.standard_normal((k, gen.noise_dim))
        fake, gen_cache = gen.forward(conditions, z)
    logits, disc_caches = disc.forward(conditions, fake)
    loss = bce_with_logits(logits, 1.0)

    dlogits = bce_with_logits_grad(logits, 1.0) / k
    dinput, _ = disc.backward(disc_caches, dlogits)
    grads = gen.backward(gen_cache, dinput[:, -1])
    _clip(grads, clip_norm)
    adam_step(gen.params(), grads, adam_g)
    return loss


@dataclass
class TrainedModel:
    generator: Generator
    discriminator: Discriminator
    adam_g: AdamState
    adam_d: AdamState
    scaler: scaling.ScalerParams
    config: TrainConfig
    epoch: int
    history: LossHistory
    rng_state: dict


def train(config: TrainConfig, pairs: PairSet, scaler: scaling.ScalerParams,
          progress=None) -> TrainedModel:
    """Run the full alternating training loop.

    Pairs are reshuffled every epoch with the run RNG; the last partial
    batch is dropped so every update sees exactly `batch_size` samples.
    """
    if len(pairs) == 0:
        raise DataError("no training pairs")
    if pairs.condition_dim != config.condition_dim:
        raise DataError(f"pair window {pairs.condition_dim} != configured "
                        f"condition_dim {config.condition_dim}")
    rng = np.random.default_rng(config.seed)
    gen = Generator(config, rng)
    disc = Discriminator(config, rng)
    adam_g = AdamState(lr=config.lr, beta1=config.beta1, beta2=config.beta2)
    adam_d = AdamState(lr=config.lr, beta1=config.beta1, beta2=config.beta2)
    history = LossHistory()

    k = config.batch_size
    n_batches = len(pairs) // k
    if n_batches == 0:
        raise DataError(f"fewer pairs ({len(pairs)}) than one batch ({k})")

    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(pairs))
        d_losses = np.empty(n_batches)
        g_losses = np.empty(n_batches)
        for b in range(n_batches):
            idx = perm[b * k:(b + 1) * k]
            cond = pairs.conditions[idx]
            target = pairs.targets[idx]
            try:
                # one double-width generator pass serves both steps: rows
                # :k are the D step's fake batch (no gradient), rows k:
                # the G step's. G's output doesn't depend on D, and two
                # consecutive (k, l) normal draws consume the noise stream
                # exactly like one (2k, l) draw, so this matches running
                # the steps independently.
                z2 = rng.standard_normal((2 * k, gen.noise_dim))
                fake_d, fake_g, gen_cache = gen.forward_pair(cond, z2)
                d_losses[b] = train_discriminator_step(
                    disc, gen, cond, target, adam_d, rng, config.clip_norm,
                    fake=fake_d)
                g_losses[b] = train_generator_step(
                    gen, disc, cond, adam_g, rng, config.clip_norm,
                    fake=fake_g, gen_cache=gen_cache)
            except NumericError as exc:
                raise NumericError(f"{exc} (epoch {epoch}, batch {b})") from None
        history.d_batch.extend(d_losses.tolist())
        history.g_batch.extend(g_losses.tolist())
        history.d_epoch.append(float(d_losses.mean()))
        history.g_epoch.append(float(g_losses.mean()))
        if progress is not None:
            progress(epoch, history.d_epoch[-1], history.g_epoch[-1])

    return TrainedModel(generator=gen, discriminator=disc, adam_g=adam_g,
                        adam_d=adam_d, scaler=scaler, config=config,
                        epoch=config.epochs, history=history,
                        rng_state=rng.bit_generator.state)


def synthesize_series(gen: Generator, scaler: scaling.ScalerParams,
                      real_closes: np.ndarray, condition_dim: int,
                      mode: str = "conditioned", seed: int = 0) -> np.ndarray:
    """Generate one value per real target (indices d..N-1) at price scale.

    conditioned: every window is the real history (one-step, teacher-forced).
    recursive: after a real warm-up window, windows are previously
    generated values; a stress-test mode.
    """
    d = condition_dim
    real_closes = np.asarray(real_closes, dtype=np.float64)
    n = real_closes.shape[0]
    if n <= d:
        raise DataError(f"series of length {n} too short for window d={d}")
    normalized = scaling.transform(real_closes, scaler)
    rng = np.random.default_rng(seed)
    m = n - d

    if mode == "conditioned":
        out = np.empty(m)
        for start in range(0, m, SYNTH_CHUNK):
            stop = min(start + SYNTH_CHUNK, m)
            windows = np.lib.stride_tricks.sliding_window_view(
                normalized, d)[start:stop]
            z = rng.standard_normal((stop - start, gen.noise_dim))
            out[start:stop], _ = gen.forward(windows, z, keep_cache=False)
    elif mode == "recursive":
        # Window w is buf[w : w+d]: the real warm-up values, then each
        # generated value in turn. Its step j runs at tick w+j, so at tick
        # t every window in flight (w = t-d+1 .. t) reads buf[t], and the
        # d windows step together as the d rows of one LSTM pass. Window w
        # starts at tick w on row w % d, which held window w-d until the
        # tick before, and finishes at tick w+d-1, one tick before its
        # value buf[w+d] is first read. Rows whose window has not started
        # or has finished step on harmlessly.
        buf = np.empty(n)
        buf[:d] = normalized[:d]
        zs = rng.standard_normal((m, gen.noise_dim))  # as m (1, l) draws
        xs = np.zeros((1, d, 1 + gen.noise_dim))
        state = LstmState.zeros(gen.lstm.hidden_size, d)
        for tick in range(m + d - 1):
            if tick < m:
                row = tick % d
                state.c[row] = 0.0
                state.z[row] = 0.0
                xs[0, row, 1:] = zs[tick]
            xs[0, :, 0] = buf[tick]
            state, _ = lstm_forward(gen.lstm, xs, state, gen.workspace,
                                    keep_cache=False)
            if tick >= d - 1:
                value, _ = dense_forward(gen.head, state.z[(tick + 1) % d])
                if not np.isfinite(value[0]):
                    raise NumericError("generator produced non-finite output")
                buf[tick + 1] = value[0]
        out = buf[d:]
    else:
        raise DataError(f"unknown synthesis mode {mode!r}")
    return scaling.inverse_transform(out, scaler)
