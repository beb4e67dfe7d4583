"""Conditional GAN over windowed closing prices.

Generator: an LSTM that walks the d-step condition window, one close per
step, with a per-sample Gaussian noise vector concatenated to every step
input; a scalar head reads the final short-term state. Discriminator: an
MLP scoring (condition window, value) as a raw logit.

Training makes one fake batch per mini-batch with one `Generator.forward`
and runs one discriminator step and then one generator step on it: D
trains on it as a constant, in one 2k-row pass with its k real rows, and
G trains on it through the updated D, its backward reading the forward's
trajectory. Both steps run with the BLAS pinned to one thread; the
generator pass keeps the BLAS's threads. All randomness flows through a
single seeded Generator so runs are bit-reproducible, and a run resumed
from its checkpoint continues the same stream.

Synthesis keeps no trajectory: both modes run nn.lstm_step on one step's
buffers. Conditioned synthesis maps its chunks of windows, each on buffers
of its own, over a thread pool as large as the BLAS's while the BLAS is
pinned to one thread: the same bytes and the same error as a sequential
loop for any number of threads, and no chunk starts after either error
or interrupt reaches the calling thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from . import scaling
from .data import PairSet
from .errors import (COUNT, FRACTION, SIZE, DataError, NumericError,
                     check_scalar)
from .nn import (INIT_SCHEMES, DenseLayer, Layout, LstmCell, LstmWorkspace,
                 check_lstm_state, clip_global_norm, dense_backward,
                 dense_forward, init_params, lstm_backward, lstm_forward,
                 lstm_step, step_weights)
from .optim import AdamState, adam_step, bce_with_logits, bce_with_logits_grad

# conditioned synthesis runs the generator over this many windows a pass
SYNTH_CHUNK = 512
# NumPy warnings that training and synthesis silence: they check their values
# and raise NumericError for a non-finite one, which is then the only message
_QUIET = {"over": "ignore", "invalid": "ignore"}
# the most float64 values one NumPy array can hold
_MAX_PARAMETERS = np.iinfo(np.intp).max // 8
# per OpenBLAS build, its (get, set) thread-count functions, first found wins
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"))
# the rule `check_scalar` applies to each scalar TrainConfig field: lr may
# be inf, and clip_norm 0 turns clipping off
_FIELD_RULES = {
    "noise_dim": SIZE, "condition_dim": SIZE, "batch_size": SIZE,
    "epochs": SIZE, "lr": (Real, lambda v: v > 0, "a number > 0"),
    "beta1": FRACTION, "beta2": FRACTION, "seed": COUNT, "hidden_size": SIZE,
    "clip_norm": (Real, lambda v: v >= 0, "a number >= 0")}


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
        for name, rule in _FIELD_RULES.items():
            check_scalar(f"TrainConfig.{name}", getattr(self, name), rule)
        if self.init_scheme not in INIT_SCHEMES:
            raise DataError(f"TrainConfig.init_scheme must be one of {INIT_SCHEMES}")
        if not isinstance(self.disc_layers, (list, tuple)):
            raise DataError(f"TrainConfig.disc_layers must be a list of "
                            f"integers > 0, not {self.disc_layers!r}")
        self.disc_layers = tuple(
            int(check_scalar("TrainConfig.disc_layers width", width, SIZE))
            for width in self.disc_layers)
        # each net's parameters lie in one float64 vector: refuse sizes no
        # NumPy array holds before anything is allocated
        for net, fields in ((Generator, "hidden_size and noise_dim"),
                            (Discriminator, "condition_dim and disc_layers")):
            if sum(map(math.prod, net.layout_for(self).values())) \
                    > _MAX_PARAMETERS:
                raise DataError(f"TrainConfig.{fields} give the "
                                f"{net.__name__.lower()} more parameters "
                                f"than a NumPy array can hold")


@dataclass
class LossHistory:
    d_epoch: list = field(default_factory=list)
    g_epoch: list = field(default_factory=list)
    d_batch: list = field(default_factory=list)
    g_batch: list = field(default_factory=list)


class _Net:
    """Parameters as one float64 vector `theta`, whose blocks, named by
    `layout`, the layers that `_bind` makes hold as views. A copied or
    unpickled net binds its layers to its own `theta` again."""

    def __init__(self, layout: Layout, blocks: dict[str, np.ndarray]):
        self.layout = layout
        self.theta = layout.pack(blocks)
        self._bind(self.params())

    def __setstate__(self, state):  # copy.deepcopy and pickle
        self.__dict__.update(state)
        self._bind(self.params())

    def params(self) -> dict[str, np.ndarray]:
        """The parameter blocks, as views into `theta`."""
        return self.layout.views(self.theta)


class Generator(_Net):
    """LSTM over the condition window plus repeated noise; scalar head.

    The LSTM starts from zero; the head reads its final short-term state
    in `head_values`, which `forward` and both synthesis modes share.
    The generator owns the LSTM's workspace, so passes of one batch shape
    reuse the same trajectory buffers: a cache from `forward` is valid
    only until the next `forward` on this generator, and `backward` on an
    older one raises nn.StaleCacheError. Returned values are fresh arrays.
    The workspace is float32, so the LSTM computes in float32; the weights
    and everything from the head on stay float64.
    """

    def __init__(self, config: TrainConfig,
                 rng: np.random.Generator | None = None, blocks=None):
        """A net drawn from `rng` by the config's init scheme or, given
        `blocks` named and shaped as in `layout_for(config)`, that net."""
        h, scheme = config.hidden_size, config.init_scheme
        self.noise_dim = config.noise_dim
        if blocks is None:
            blocks = {"gen.lstm.W": LstmCell.create(1 + self.noise_dim, h,
                                                    rng, scheme).W,
                      "gen.head.weights": init_params((1, h), scheme, rng),
                      "gen.head.bias": np.zeros(1)}
        super().__init__(self.layout_for(config), blocks)
        self.workspace = LstmWorkspace(np.float32)

    def _bind(self, p: dict[str, np.ndarray]) -> None:
        self.lstm = LstmCell(p["gen.lstm.W"])
        self.head = DenseLayer(p["gen.head.weights"], p["gen.head.bias"])

    @staticmethod
    def layout_for(config: TrainConfig) -> Layout:
        h = config.hidden_size
        return Layout({"gen.lstm.W": (4 * h, h + 1 + config.noise_dim),
                       "gen.head.weights": (1, h), "gen.head.bias": (1,)})

    def forward(self, conditions: np.ndarray, z: np.ndarray):
        """Values (k,) for the rows of `conditions` with noise rows `z`,
        and the cache for `backward`."""
        k, d = conditions.shape
        xs = np.empty((d, k, 1 + self.noise_dim))
        xs[:, :, 0] = conditions.T
        xs[:, :, 1:] = z
        final, lstm_cache = lstm_forward(self.lstm, xs, self.workspace)
        xhat, head_cache = self.head_values(final)
        return xhat, (lstm_cache, head_cache)

    def head_values(self, z: np.ndarray):
        """The head's values (k,) for final short-term states z (h, k), in
        any dtype, and the head's cache. z goes in as C-ordered float64
        rows, so the head's GEMM rounds alike for every caller."""
        out, cache = dense_forward(self.head,
                                   z.T.astype(np.float64, order="C"))
        if not np.isfinite(out).all():
            raise NumericError("generator produced non-finite output")
        return out[:, 0], cache

    def backward(self, cache, dxhat: np.ndarray) -> np.ndarray:
        """The parameter gradient, a vector in the layout of `theta`."""
        lstm_cache, head_cache = cache
        dfinal, dhead, dbias = dense_backward(self.head, head_cache,
                                              dxhat[:, None])
        grad = np.empty_like(self.theta)
        blocks = self.layout.views(grad)
        blocks["gen.head.weights"][...] = dhead
        blocks["gen.head.bias"][...] = dbias
        lstm_backward(self.lstm, lstm_cache, dfinal, dW=blocks["gen.lstm.W"])
        return grad


class Discriminator(_Net):
    """MLP over [condition window, value]: ReLU hidden layers, logit out.
    Its layout runs from the last layer to the first, the order in which
    `backward` makes the gradient blocks."""

    def __init__(self, config: TrainConfig,
                 rng: np.random.Generator | None = None, blocks=None):
        """As Generator: drawn from `rng`, or built from `blocks`."""
        layout = self.layout_for(config)
        if blocks is None:
            blocks = {}
            for i in range(len(layout) // 2):  # drawn first layer first
                shape = layout[f"disc.{i}.weights"]
                blocks[f"disc.{i}.weights"] = init_params(
                    shape, config.init_scheme, rng)
                blocks[f"disc.{i}.bias"] = np.zeros(shape[0])
        super().__init__(layout, blocks)

    def _bind(self, p: dict[str, np.ndarray]) -> None:
        n = len(p) // 2  # a weight and a bias block a layer
        self.layers = [DenseLayer(p[f"disc.{i}.weights"], p[f"disc.{i}.bias"],
                                  "relu" if i < n - 1 else "identity")
                       for i in range(n)]

    @staticmethod
    def layout_for(config: TrainConfig) -> Layout:
        widths = [config.condition_dim + 1, *config.disc_layers, 1]
        shapes = {}
        for i in reversed(range(len(widths) - 1)):
            shapes[f"disc.{i}.weights"] = (widths[i + 1], widths[i])
            shapes[f"disc.{i}.bias"] = (widths[i + 1],)
        return Layout(shapes)

    def forward(self, conditions: np.ndarray, values: np.ndarray):
        """Returns (logits (k,), caches)."""
        x = np.concatenate([conditions,
                            np.asarray(values, dtype=np.float64)[:, None]],
                           axis=1)
        caches = []
        for layer in self.layers:
            x, cache = dense_forward(layer, x)
            caches.append(cache)
        return x[:, 0], caches

    def backward(self, caches, dlogits: np.ndarray):
        """Returns (gradient w.r.t. the stacked input, parameter gradient
        as a vector in the layout of `theta`)."""
        g = dlogits[:, None]
        grads = {}
        for i in range(len(self.layers) - 1, -1, -1):
            g, grads[f"disc.{i}.weights"], grads[f"disc.{i}.bias"] = \
                dense_backward(self.layers[i], caches[i], g)
        return g, self.layout.pack(grads)


def train_discriminator_step(disc: Discriminator, conditions: np.ndarray,
                             targets: np.ndarray, fake: np.ndarray,
                             adam_d: AdamState, clip_norm: float = 5.0) -> float:
    """One pass over the k real rows labeled 1 and the k `fake` rows labeled
    0, as one 2k-row batch; `fake` is a constant here (no gradient reaches
    G). Returns the mean loss over the 2k rows."""
    k = targets.shape[0]
    labels = np.repeat([1.0, 0.0], k)
    logits, caches = disc.forward(np.concatenate([conditions, conditions]),
                                  np.concatenate([targets, fake]))
    loss = bce_with_logits(logits, labels)
    _, grad = disc.backward(caches,
                            bce_with_logits_grad(logits, labels) / (2 * k))
    clip_global_norm(grad, clip_norm, disc.layout)
    adam_step(disc.theta, grad, adam_d, disc.layout)
    return loss


def train_generator_step(gen: Generator, disc: Discriminator,
                         conditions: np.ndarray, fake: np.ndarray, gen_cache,
                         adam_g: AdamState, clip_norm: float = 5.0) -> float:
    """Fake batch labeled 1 (the fooling objective); gradients flow through
    the discriminator into G along `gen_cache`, the generator pass that made
    `fake`, but only G's parameters are updated."""
    k = conditions.shape[0]
    logits, disc_caches = disc.forward(conditions, fake)
    loss = bce_with_logits(logits, 1.0)

    dlogits = bce_with_logits_grad(logits, 1.0) / k
    dinput, _ = disc.backward(disc_caches, dlogits)
    grad = gen.backward(gen_cache, dinput[:, -1])
    clip_global_norm(grad, clip_norm, gen.layout)
    adam_step(gen.theta, grad, adam_g, gen.layout)
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


def init_model(config: TrainConfig,
               scaler: scaling.ScalerParams) -> TrainedModel:
    """A fresh model at epoch 0: both nets drawn from the config's seed,
    zero Adam states, an empty history and the RNG state after the draws."""
    rng = np.random.default_rng(config.seed)
    gen = Generator(config, rng)
    disc = Discriminator(config, rng)
    adam_g, adam_d = (AdamState.zeros(net.theta.size, lr=config.lr,
                                      beta1=config.beta1, beta2=config.beta2)
                      for net in (gen, disc))
    return TrainedModel(generator=gen, discriminator=disc, adam_g=adam_g,
                        adam_d=adam_d, scaler=scaler, config=config, epoch=0,
                        history=LossHistory(),
                        rng_state=rng.bit_generator.state)


def run_epochs(model: TrainedModel, pairs: PairSet,
               progress=None) -> TrainedModel:
    """Train `model` in place from its epoch through `config.epochs`,
    continuing its RNG stream, Adam states and history; returns it.

    Pairs are reshuffled every epoch with the run RNG; the last partial
    batch is dropped so every update sees exactly `batch_size` samples.
    """
    config = model.config
    if len(pairs) == 0:
        raise DataError("no training pairs")
    if pairs.condition_dim != config.condition_dim:
        raise DataError(f"pair window {pairs.condition_dim} != configured "
                        f"condition_dim {config.condition_dim}")
    k = config.batch_size
    n_batches = len(pairs) // k
    if n_batches == 0:
        raise DataError(f"fewer pairs ({len(pairs)}) than one batch ({k})")
    gen, disc, history = model.generator, model.discriminator, model.history
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = model.rng_state

    with np.errstate(**_QUIET):
        for epoch in range(model.epoch + 1, config.epochs + 1):
            perm = rng.permutation(len(pairs))
            d_losses = np.empty(n_batches)
            g_losses = np.empty(n_batches)
            for b in range(n_batches):
                idx = perm[b * k:(b + 1) * k]
                cond = pairs.conditions[idx]
                target = pairs.targets[idx]
                try:
                    # one fake batch for both steps: the D step leaves G's
                    # parameters and workspace alone, so the forward's
                    # trajectory stays valid for the G step's backward
                    z = rng.standard_normal((k, gen.noise_dim))
                    fake, gen_cache = gen.forward(cond, z)
                    # the steps' GEMMs are too small to gain from a second
                    # BLAS thread, and waking an idle one costs each call ms
                    with _one_blas_thread():
                        d_losses[b] = train_discriminator_step(
                            disc, cond, target, fake, model.adam_d,
                            config.clip_norm)
                        g_losses[b] = train_generator_step(
                            gen, disc, cond, fake, gen_cache, model.adam_g,
                            config.clip_norm)
                except NumericError as exc:
                    raise NumericError(
                        f"{exc} (epoch {epoch}, batch {b})") from None
            history.d_batch.extend(d_losses.tolist())
            history.g_batch.extend(g_losses.tolist())
            history.d_epoch.append(float(d_losses.mean()))
            history.g_epoch.append(float(g_losses.mean()))
            model.epoch = epoch
            model.rng_state = rng.bit_generator.state
            if progress is not None:
                progress(epoch, history.d_epoch[-1], history.g_epoch[-1])
    return model


def train(config: TrainConfig, pairs: PairSet, scaler: scaling.ScalerParams,
          progress=None) -> TrainedModel:
    """Run the full alternating training loop on a fresh model."""
    return run_epochs(init_model(config, scaler), pairs, progress)


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS that NumPy
    loaded, found once through /proc/self/maps; None if there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREADS:
            get = getattr(handle, get_name, None)
            put = getattr(handle, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with the BLAS on one thread, restoring its count after.

    Yields the count it had: the number of threads the block may run
    itself. 1 when the BLAS is not an OpenBLAS this can find.
    """
    blas = _openblas()
    if blas is None:
        yield 1
        return
    get, put = blas
    threads = get()
    put(1)
    try:
        yield threads
    finally:
        put(threads)


def _step_buffers(gen: Generator, k: int):
    """One lstm_step's buffers for k columns, in the generator's dtype:
    (W, s, p, c_prev, c, tc, ig), W from one step_weights cast, the input
    slab s = [z; condition; noise] and both cell slabs zero."""
    h, dt = gen.lstm.hidden_size, gen.workspace.dtype
    s = np.zeros((h + 1 + gen.noise_dim, k), dt)
    c_prev, c = np.zeros((2, h, k), dt)
    tc, ig = np.empty((2, h, k), dt)
    return (step_weights(gen.lstm.W, dt), s, np.empty((4 * h, k), dt),
            c_prev, c, tc, ig)


def _conditioned_chunk(gen: Generator, windows: np.ndarray,
                       zs: np.ndarray) -> np.ndarray:
    """Generator values for the rows of `windows` with noise rows `zs`,
    the same bytes as `gen.forward`: step t of every window is one
    lstm_step, the windows its columns, on step buffers of the chunk's."""
    W, s, p, c_prev, c, tc, ig = _step_buffers(gen, windows.shape[0])
    h = gen.lstm.hidden_size
    s[h + 1:] = zs.T
    for t in range(windows.shape[1]):
        s[h] = windows[:, t]
        lstm_step(W, s, p, c_prev, c, tc, s[:h], ig)
        c_prev, c = c, c_prev
    check_lstm_state(c_prev, s[:h])
    return gen.head_values(s[:h])[0]


def _conditioned(gen: Generator, windows: np.ndarray, zs: np.ndarray,
                 workers: int) -> np.ndarray:
    """Generator values for `windows` with noise rows `zs`, SYNTH_CHUNK rows
    a pass, one pass a task on a pool of `workers` threads.

    The results come back in chunk order, so the error raised is the
    earliest failing chunk's, the one a sequential loop would raise. When
    that error, or an interrupt, reaches the calling thread, the chunks not
    yet started are cancelled; a chunk already running finishes, and the
    pool's threads are joined before it propagates.
    """
    # imported here: it loads `logging`, which `import tsgan.cli`, and so
    # every command's start-up, would otherwise pay for
    from concurrent.futures import ThreadPoolExecutor

    def chunk(start):
        rows = slice(start, start + SYNTH_CHUNK)
        with np.errstate(**_QUIET):  # a pool thread starts with defaults
            return _conditioned_chunk(gen, windows[rows], zs[rows])

    with ThreadPoolExecutor(workers) as pool:
        return np.concatenate(list(pool.map(
            chunk, range(0, windows.shape[0], SYNTH_CHUNK))))


def synthesize_series(gen: Generator, scaler: scaling.ScalerParams,
                      real_closes: np.ndarray, condition_dim: int,
                      mode: str = "conditioned", seed: int = 0) -> np.ndarray:
    """Generate one value per real target (indices d..N-1) at price scale.

    conditioned: every window is the real history (one-step, teacher-forced).
    The windows run SYNTH_CHUNK at a time on a thread pool as large as the
    BLAS's, with the BLAS on one thread meanwhile: the same bytes, and the
    same error, as one chunk after another on the calling thread. After
    an error or an interrupt no chunk starts; those running finish first.
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
        windows = np.lib.stride_tricks.sliding_window_view(normalized, d)[:m]
        zs = rng.standard_normal((m, gen.noise_dim))  # as per-chunk draws
        with _one_blas_thread() as workers:
            out = _conditioned(gen, windows, zs, workers)
    elif mode == "recursive":
        # Window w is buf[w : w+d]: the real warm-up values, then each
        # generated value in turn. Its step j runs at tick w+j, so at tick
        # t every window in flight (w = t-d+1 .. t) reads buf[t], and the
        # d windows step together as the d columns of one lstm_step. Window
        # w starts at tick w in column w % d, which held window w-d until
        # the tick before, and finishes at tick w+d-1, one tick before its
        # value buf[w+d] is first read. Columns whose window has not started
        # or has finished step on harmlessly, on buffers that last the run.
        buf = np.empty(n)
        buf[:d] = normalized[:d]
        zs = rng.standard_normal((m, gen.noise_dim))  # as m (1, l) draws
        W, s, p, c_prev, c, tc, ig = _step_buffers(gen, d)
        h = gen.lstm.hidden_size
        z = s[:h]
        with np.errstate(**_QUIET):
            for tick in range(m + d - 1):
                if tick < m:
                    col = tick % d
                    c_prev[:, col] = 0.0
                    z[:, col] = 0.0
                    s[h + 1:, col] = zs[tick]
                s[h] = buf[tick]
                lstm_step(W, s, p, c_prev, c, tc, z, ig)
                check_lstm_state(c, z)
                if tick >= d - 1:
                    done = (tick + 1) % d  # window tick-d+1's column
                    value, _ = gen.head_values(z[:, done:done + 1])
                    buf[tick + 1] = value[0]
                c_prev, c = c, c_prev
        out = buf[d:]
    else:
        raise DataError(f"unknown synthesis mode {mode!r}")
    return scaling.inverse_transform(out, scaler)
