import contextlib
import copy
import math
import pickle
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from tsgan import checkpoint, data, gan, scaling
from tsgan.errors import DataError, NumericError
from tsgan.gan import (Discriminator, Generator, TrainConfig, synthesize_series,
                       train, train_discriminator_step, train_generator_step)
from tsgan.nn import LstmWorkspace, clip_global_norm, dense_forward
from tsgan.optim import AdamState, adam_step, bce_with_logits, bce_with_logits_grad

LN2 = math.log(2.0)


def toy_config(**kw):
    defaults = dict(noise_dim=2, condition_dim=4, batch_size=2, epochs=1,
                    hidden_size=3, disc_layers=(5, 4), seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def toy_pairs(n=20, d=4, seed=0):
    closes = np.random.default_rng(seed).standard_normal(n + d)
    return data.make_pairs(closes, d)


def toy_scaler():
    return scaling.ScalerParams(mean=100.0, stddev=5.0, n_fitted=100)


def adam_for(net, **hyper):
    return AdamState.zeros(net.theta.size, **hyper)


def params_checksum(params):
    return {k: v.copy() for k, v in params.items()}


def pair_pass(gen, cond, rng):
    """The generator passes train() runs for the steps of a batch: (2k, l)
    noise, rows :k through the D step's pass, which keeps no trajectory,
    and rows k: through forward. Returns (D's fake, G's fake, G's cache)."""
    k = cond.shape[0]
    z2 = rng.standard_normal((2 * k, gen.noise_dim))
    fake_g, gen_cache = gen.forward(cond, z2[k:])
    return gan._conditioned_chunk(gen, cond, z2[:k]), fake_g, gen_cache


def two_pass_d_step(disc, conditions, targets, fake, adam_d, clip_norm=5.0):
    """The discriminator step as a real pass and a fake pass whose gradient
    dicts are summed: the reference for the one-pass step."""
    k = targets.shape[0]
    logits_real, caches_real = disc.forward(conditions, targets)
    logits_fake, caches_fake = disc.forward(conditions, fake)
    loss = 0.5 * (bce_with_logits(logits_real, 1.0)
                  + bce_with_logits(logits_fake, 0.0))
    d_real = 0.5 * bce_with_logits_grad(logits_real, 1.0) / k
    d_fake = 0.5 * bce_with_logits_grad(logits_fake, 0.0) / k
    _, grad_real = disc.backward(caches_real, d_real)
    _, grad_fake = disc.backward(caches_fake, d_fake)
    grad = grad_real + grad_fake
    if clip_norm > 0:
        clip_global_norm(grad, clip_norm, disc.layout)
    adam_step(disc.theta, grad, adam_d, disc.layout)
    return loss


def conditioned_reference(gen, scaler, real_closes, d, seed):
    """Conditioned synthesis as one chunk after another on the calling
    thread, each chunk drawing its own noise rows and running as one
    Generator.forward pass, the training pass."""
    normalized = scaling.transform(np.asarray(real_closes, dtype=np.float64),
                                   scaler)
    rng = np.random.default_rng(seed)
    m = normalized.shape[0] - d
    out = np.empty(m)
    for start in range(0, m, gan.SYNTH_CHUNK):
        stop = min(start + gan.SYNTH_CHUNK, m)
        windows = np.lib.stride_tricks.sliding_window_view(
            normalized, d)[start:stop]
        z = rng.standard_normal((stop - start, gen.noise_dim))
        out[start:stop], _ = gen.forward(windows, z)
    return scaling.inverse_transform(out, scaler)


def recursive_reference(gen, scaler, real_closes, d, seed):
    """Recursive synthesis one window at a time: a fresh d-step generator
    pass per value, over the last d values of a buffer that starts with
    the real warm-up window and grows by each generated value."""
    normalized = scaling.transform(np.asarray(real_closes, dtype=np.float64),
                                   scaler)
    rng = np.random.default_rng(seed)
    buf = list(normalized[:d])
    out = np.empty(len(normalized) - d)
    for t in range(out.shape[0]):
        window = np.array(buf[-d:])[None, :]
        z = rng.standard_normal((1, gen.noise_dim))
        value, _ = gen.forward(window, z)
        out[t] = value[0]
        buf.append(out[t])
    return scaling.inverse_transform(out, scaler)


def wavefront_reference(gen, scaler, real_closes, d, seed):
    """Recursive synthesis as a wavefront of nn.lstm_step calls: at each
    tick the d windows in flight step together as the d rows of one step
    on fresh buffers, carrying their state between ticks as LstmState."""
    from lstm_oracle import LstmState, kernel_step
    normalized = scaling.transform(np.asarray(real_closes, dtype=np.float64),
                                   scaler)
    n = normalized.shape[0]
    m = n - d
    rng = np.random.default_rng(seed)
    buf = np.empty(n)
    buf[:d] = normalized[:d]
    zs = rng.standard_normal((m, gen.noise_dim))
    x = np.zeros((d, 1 + gen.noise_dim))
    state = LstmState.zeros(gen.lstm.hidden_size, d)
    for tick in range(m + d - 1):
        if tick < m:
            row = tick % d
            state.c[row] = 0.0
            state.z[row] = 0.0
            x[row, 1:] = zs[tick]
        x[:, 0] = buf[tick]
        state, _ = kernel_step(gen.lstm, x, state, gen.workspace.dtype)
        if tick >= d - 1:
            row = (tick + 1) % d
            value, _ = dense_forward(gen.head, state.z[row:row + 1])
            buf[tick + 1] = value[0, 0]
    return scaling.inverse_transform(buf[d:], scaler)


def _recursive_cases():
    """(d, n - d) for d in 1, 4, 60 and n - d in 1, d-1, d, 2d+3 (>= 1)."""
    return [(d, m) for d in (1, 4, 60)
            for m in sorted({1, d - 1, d, 2 * d + 3}) if m >= 1]


class TestGenerator:
    def test_zero_params_output_zero(self):
        gen = Generator(toy_config(init_scheme="zeros"), np.random.default_rng(0))
        cond = np.random.default_rng(1).standard_normal((3, 4))
        z = np.random.default_rng(2).standard_normal((3, 2))
        out, _ = gen.forward(cond, z)
        assert not np.any(out)

    def test_deterministic_given_noise(self):
        gen = Generator(toy_config(), np.random.default_rng(3))
        cond = np.random.default_rng(4).standard_normal((2, 4))
        z = np.random.default_rng(5).standard_normal((2, 2))
        a, _ = gen.forward(cond, z)
        b, _ = gen.forward(cond, z)
        np.testing.assert_array_equal(a, b)

    def test_matches_hand_trace_two_steps(self):
        """d=2: the LSTM sees [cond_0, z] then [cond_1, z]; the head reads
        the final short-term state. Trace both steps in scalars."""
        from lstm_oracle import LstmState, lstm_step
        config = toy_config(condition_dim=2)
        gen = Generator(config, np.random.default_rng(6))
        gen.workspace = LstmWorkspace(np.float64)  # float64 scalar oracle
        cond = np.array([[0.4, -0.3]])
        z = np.array([[0.2, -0.1]])
        out, _ = gen.forward(cond, z)

        state = LstmState.zeros(config.hidden_size)
        for t in range(2):
            x_t = np.concatenate([cond[0, t:t + 1], z[0]])
            state, _ = lstm_step(gen.lstm, x_t, state)
        head_out, _ = dense_forward(gen.head, state.z[:1])
        assert out[0] == pytest.approx(head_out[0, 0], abs=1e-12)

    def test_backward_on_stale_cache_raises(self):
        # the generator reuses its LSTM buffers, so a later pass of the
        # same shape overwrites what an earlier cache points at
        from tsgan.nn import StaleCacheError
        gen = Generator(toy_config(), np.random.default_rng(7))
        rng = np.random.default_rng(8)
        cond, z = rng.standard_normal((2, 4)), rng.standard_normal((2, 2))
        _, first = gen.forward(cond, z)
        gen.forward(-cond, z)
        with pytest.raises(StaleCacheError):
            gen.backward(first, np.ones(2))
        _, second = gen.forward(cond, z)
        fresh = gen.backward(second, np.ones(2))
        assert fresh.shape == gen.theta.shape

    def test_workspace_is_float32(self):
        gen = Generator(toy_config(), np.random.default_rng(25))
        rng = np.random.default_rng(26)
        out, cache = gen.forward(rng.standard_normal((2, 4)),
                                 rng.standard_normal((2, 2)))
        grads = gen.backward(cache, np.ones(2))
        ws = gen.workspace
        assert ws.dtype == np.float32
        assert {a.dtype for a in (ws.S, ws.P, ws.C, ws.TC, ws.dS)} == \
            {np.dtype(np.float32)}
        # master weights, outputs and gradients stay float64
        assert {a.dtype for a in (out, *gen.params().values(),
                                  grads)} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("k", [1, 64, 1024])
    def test_float32_forward_agrees_with_float64(self, k):
        # the default shape; float32 rounding over 60 steps moves outputs
        # by ~1e-7 of their largest magnitude, so 1e-6 of it is the bound
        gen = Generator(TrainConfig(), np.random.default_rng(26))
        rng = np.random.default_rng(27)
        cond, z = rng.standard_normal((k, 60)), rng.standard_normal((k, 8))
        single, _ = gen.forward(cond, z)
        gen.workspace = LstmWorkspace(np.float64)
        double, _ = gen.forward(cond, z)
        assert single.dtype == np.float64
        assert np.max(np.abs(single - double)) <= 1e-6 * np.max(np.abs(double))
        # and the float32 pass did round differently
        assert not np.array_equal(single, double)

    def test_outputs_survive_later_passes(self):
        gen = Generator(toy_config(), np.random.default_rng(9))
        rng = np.random.default_rng(10)
        cond, z = rng.standard_normal((3, 4)), rng.standard_normal((3, 2))
        out, _ = gen.forward(cond, z)
        kept = out.copy()
        gen.forward(cond[:2], z[:2])
        gen.forward(-cond, -z)
        np.testing.assert_array_equal(out, kept)


def reference_init(config, rng):
    """Both nets' first blocks, drawn as they were before the flat layout:
    per LSTM gate the input block, then the state block, then the head;
    then the discriminator's layers, first to first; biases zero."""
    def xavier(fan_out, fan_in):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in))

    h, n_in = config.hidden_size, 1 + config.noise_dim
    W = np.empty((4 * h, h + n_in))
    for gate in range(4):
        W[gate * h:(gate + 1) * h, h:] = xavier(h, n_in)
        W[gate * h:(gate + 1) * h, :h] = xavier(h, h)
    blocks = {"gen.lstm.W": W, "gen.head.weights": xavier(1, h),
              "gen.head.bias": np.zeros(1)}
    widths = [config.condition_dim + 1, *config.disc_layers, 1]
    for i in range(len(widths) - 1):
        blocks[f"disc.{i}.weights"] = xavier(widths[i + 1], widths[i])
        blocks[f"disc.{i}.bias"] = np.zeros(widths[i + 1])
    return blocks


class TestFlatParameters:
    @pytest.mark.parametrize("config", [TrainConfig(), toy_config(seed=3)],
                             ids=["default", "toy"])
    def test_seeded_init_draws_in_the_old_order(self, config):
        rng = np.random.default_rng(config.seed)
        gen, disc = Generator(config, rng), Discriminator(config, rng)
        ref = reference_init(config, np.random.default_rng(config.seed))
        params = {**gen.params(), **disc.params()}
        assert params.keys() == ref.keys()
        for name, block in params.items():
            assert block.tobytes() == ref[name].tobytes(), name

    def test_layers_and_params_are_views_of_theta(self):
        gen = Generator(toy_config(), np.random.default_rng(0))
        disc = Discriminator(toy_config(), np.random.default_rng(1))
        for net, arrays in ((gen, [gen.lstm.W, gen.head.weights,
                                   gen.head.bias]),
                            (disc, [a for layer in disc.layers
                                    for a in (layer.weights, layer.bias)])):
            assert net.theta.dtype == np.float64
            assert net.theta.size == sum(a.size for a in arrays)
            for a in [*arrays, *net.params().values()]:
                assert np.shares_memory(a, net.theta)

    @pytest.mark.parametrize("duplicate", [
        copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
        ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("net", [Generator, Discriminator])
    def test_a_copy_binds_its_layers_to_its_own_theta(self, net, duplicate):
        # NumPy copies each view apart from its base
        original = net(toy_config(), np.random.default_rng(2))
        twin = duplicate(original)
        twin.theta += 1.0
        assert not np.shares_memory(twin.theta, original.theta)
        layers = ([twin.lstm, twin.head] if net is Generator
                  else twin.layers)
        for layer in layers:
            for a in vars(layer).values():
                if isinstance(a, np.ndarray):
                    assert np.shares_memory(a, twin.theta)
        for name, block in twin.params().items():
            np.testing.assert_array_equal(block,
                                          original.params()[name] + 1.0)

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        model = train(toy_config(epochs=1, seed=5), toy_pairs(seed=5),
                      toy_scaler())
        checkpoint.save(tmp_path / "c.json", model)

        def no_draw(*args, **kwargs):
            raise AssertionError("a net built from blocks drew an init")

        monkeypatch.setattr(gan, "init_params", no_draw)
        monkeypatch.setattr(gan.LstmCell, "create", no_draw)
        loaded = checkpoint.load(tmp_path / "c.json")
        for net in ("generator", "discriminator"):
            np.testing.assert_array_equal(getattr(loaded, net).theta,
                                          getattr(model, net).theta)


class TestDiscriminator:
    def test_zero_init_logit_zero(self):
        disc = Discriminator(toy_config(init_scheme="zeros"),
                             np.random.default_rng(0))
        cond = np.random.default_rng(1).standard_normal((3, 4))
        logits, _ = disc.forward(cond, np.array([1.0, 2.0, 3.0]))
        assert not np.any(logits)

    def test_forward_deterministic(self):
        disc = Discriminator(toy_config(), np.random.default_rng(2))
        cond = np.random.default_rng(3).standard_normal((2, 4))
        vals = np.array([0.5, -0.5])
        a, _ = disc.forward(cond, vals)
        b, _ = disc.forward(cond, vals)
        np.testing.assert_array_equal(a, b)

    def test_two_layer_hand_computation(self):
        config = toy_config(condition_dim=1, disc_layers=(2,))
        disc = Discriminator(config, np.random.default_rng(4))
        w0, b0 = disc.layers[0].weights, disc.layers[0].bias
        w1, b1 = disc.layers[1].weights, disc.layers[1].bias
        x = np.array([0.3, -0.8])  # [condition, value]
        hidden = np.maximum(w0 @ x + b0, 0.0)
        expected = w1 @ hidden + b1
        logits, _ = disc.forward(np.array([[0.3]]), np.array([-0.8]))
        assert logits[0] == pytest.approx(expected[0], abs=1e-12)


class TestTrainingSteps:
    def test_zero_init_first_losses_are_ln2(self):
        config = toy_config(init_scheme="zeros")
        rng = np.random.default_rng(0)
        gen = Generator(config, rng)
        disc = Discriminator(config, rng)
        cond = np.random.default_rng(1).standard_normal((2, 4))
        target = np.array([0.1, -0.2])
        fake_d, fake_g, gen_cache = pair_pass(gen, cond, rng)
        ld = train_discriminator_step(disc, cond, target, fake_d,
                                      adam_for(disc))
        lg = train_generator_step(gen, disc, cond, fake_g, gen_cache,
                                  adam_for(gen))
        assert ld == pytest.approx(LN2, abs=1e-12)
        assert lg == pytest.approx(LN2, abs=1e-12)

    def test_perfect_discriminator_loss_near_zero(self):
        # softplus at +/-50: loss ~ 2e-22
        loss = 0.5 * (bce_with_logits(50.0, 1.0) + bce_with_logits(-50.0, 0.0))
        assert loss < 1e-20

    def test_confident_wrong_discriminator_gen_loss_zero(self):
        assert bce_with_logits(50.0, 1.0) < 1e-20

    def test_d_step_leaves_generator_untouched(self):
        config = toy_config()
        rng = np.random.default_rng(7)
        gen = Generator(config, rng)
        disc = Discriminator(config, rng)
        before = params_checksum(gen.params())
        cond = rng.standard_normal((2, 4))
        fake_d, _, _ = pair_pass(gen, cond, rng)
        train_discriminator_step(disc, cond, np.array([0.1, 0.2]), fake_d,
                                 adam_for(disc))
        for name, value in gen.params().items():
            np.testing.assert_array_equal(value, before[name])

    def test_g_step_leaves_discriminator_untouched(self):
        config = toy_config()
        rng = np.random.default_rng(8)
        gen = Generator(config, rng)
        disc = Discriminator(config, rng)
        before = params_checksum(disc.params())
        cond = rng.standard_normal((2, 4))
        _, fake_g, gen_cache = pair_pass(gen, cond, rng)
        train_generator_step(gen, disc, cond, fake_g, gen_cache,
                             adam_for(gen))
        for name, value in disc.params().items():
            np.testing.assert_array_equal(value, before[name])

    def test_g_step_changes_generator(self):
        config = toy_config()
        rng = np.random.default_rng(9)
        gen = Generator(config, rng)
        disc = Discriminator(config, rng)
        before = params_checksum(gen.params())
        cond = rng.standard_normal((2, 4))
        _, fake_g, gen_cache = pair_pass(gen, cond, rng)
        train_generator_step(gen, disc, cond, fake_g, gen_cache,
                             adam_for(gen, lr=1e-3))
        changed = any(not np.array_equal(v, before[k])
                      for k, v in gen.params().items())
        assert changed

    def test_untrained_losses_finite_positive(self):
        config = toy_config()
        rng = np.random.default_rng(10)
        gen = Generator(config, rng)
        disc = Discriminator(config, rng)
        cond = rng.standard_normal((2, 4))
        fake_d, fake_g, gen_cache = pair_pass(gen, cond, rng)
        ld = train_discriminator_step(disc, cond, np.array([0.3, -0.3]),
                                      fake_d, adam_for(disc))
        lg = train_generator_step(gen, disc, cond, fake_g, gen_cache,
                                  adam_for(gen))
        assert math.isfinite(ld) and ld > 0
        assert math.isfinite(lg) and lg > 0

    @pytest.mark.parametrize("clip_norm, adam", [
        (5.0, {}),
        # Adam's update is scale-free apart from epsilon; a large epsilon
        # makes it about linear in the gradient, so a gradient off by a
        # constant factor moves the parameters differently
        (0.0, {"lr": 1e-3, "epsilon": 1.0})], ids=["default", "linear-adam"])
    def test_one_pass_d_step_matches_two_pass_reference(self, clip_norm, adam):
        k = 8
        config = toy_config(batch_size=k)
        rng = np.random.default_rng(12)
        gen = Generator(config, rng)
        disc = Discriminator(config, rng)
        ref_disc = copy.deepcopy(disc)
        adam_d, ref_adam = adam_for(disc, **adam), adam_for(disc, **adam)
        gen_before = params_checksum(gen.params())
        for _ in range(3):
            cond = rng.standard_normal((k, 4))
            target = rng.standard_normal(k)
            fake_d, _, _ = pair_pass(gen, cond, rng)
            loss = train_discriminator_step(disc, cond, target, fake_d,
                                            adam_d, clip_norm)
            ref_loss = two_pass_d_step(ref_disc, cond, target, fake_d,
                                       ref_adam, clip_norm)
            assert loss == pytest.approx(ref_loss, rel=0, abs=1e-15)
            for name, value in ref_disc.params().items():
                np.testing.assert_allclose(disc.params()[name], value,
                                           rtol=1e-12, atol=0)
        for name, value in gen.params().items():
            np.testing.assert_array_equal(value, gen_before[name])


class TestTrainLoop:
    def test_smoke_one_epoch(self):
        config = toy_config(epochs=1)
        model = train(config, toy_pairs(), toy_scaler())
        assert len(model.history.d_epoch) == 1
        assert len(model.history.g_epoch) == 1
        assert all(math.isfinite(v) and v >= 0
                   for v in model.history.d_batch + model.history.g_batch)

    def test_zero_init_anchor_through_train(self):
        config = toy_config(epochs=1, init_scheme="zeros")
        model = train(config, toy_pairs(), toy_scaler())
        assert model.history.d_batch[0] == pytest.approx(LN2, abs=1e-12)
        assert model.history.g_batch[0] == pytest.approx(LN2, abs=1e-12)

    def test_identical_seed_identical_history(self):
        config = toy_config(epochs=3, seed=11)
        a = train(config, toy_pairs(), toy_scaler())
        b = train(config, toy_pairs(), toy_scaler())
        assert a.history.d_batch == b.history.d_batch
        assert a.history.g_batch == b.history.g_batch
        for name, value in a.generator.params().items():
            np.testing.assert_array_equal(value, b.generator.params()[name])

    def test_d_pass_runs_on_one_blas_thread(self, monkeypatch):
        # unpinned, the D pass's small GEMMs wait on waking an idle BLAS
        # thread, and a cold first batch takes about twice as long
        events, pinned = [], 0
        real_pin, real_chunk = gan._one_blas_thread, gan._conditioned_chunk
        real_forward = Generator.forward

        @contextlib.contextmanager
        def pin():
            nonlocal pinned
            with real_pin() as threads:
                pinned += 1
                try:
                    yield threads
                finally:
                    pinned -= 1

        def chunk(*args):
            events.append(("D pass", pinned))
            return real_chunk(*args)

        def forward(self, *args):
            events.append(("G pass", pinned))
            return real_forward(self, *args)

        monkeypatch.setattr(gan, "_one_blas_thread", pin)
        monkeypatch.setattr(gan, "_conditioned_chunk", chunk)
        monkeypatch.setattr(Generator, "forward", forward)
        train(toy_config(batch_size=3), toy_pairs(n=10), toy_scaler())
        assert events == [("G pass", 0), ("D pass", 1)] * 3

    def test_batch_count_drops_partial(self):
        config = toy_config(epochs=1, batch_size=3)
        model = train(config, toy_pairs(n=10), toy_scaler())  # 10 pairs -> 3 batches
        assert len(model.history.d_batch) == 3

    def test_mismatched_window_rejected(self):
        config = toy_config(condition_dim=5)
        with pytest.raises(DataError):
            train(config, toy_pairs(d=4), toy_scaler())


class TestSynthesize:
    def test_conditioned_length(self):
        config = toy_config()
        gen = Generator(config, np.random.default_rng(12))
        closes = np.random.default_rng(13).uniform(90, 110, 50)
        out = synthesize_series(gen, scaling.fit(closes), closes,
                                condition_dim=4)
        assert out.shape == (46,)

    def test_zero_generator_emits_mean(self):
        config = toy_config(init_scheme="zeros")
        gen = Generator(config, np.random.default_rng(0))
        closes = np.random.default_rng(1).uniform(90, 110, 30)
        scaler = scaling.fit(closes)
        out = synthesize_series(gen, scaler, closes, condition_dim=4)
        np.testing.assert_allclose(out, scaler.mean, atol=1e-12)

    def test_recursive_length_and_finiteness(self):
        config = toy_config()
        gen = Generator(config, np.random.default_rng(14))
        closes = np.random.default_rng(15).uniform(90, 110, 30)
        out = synthesize_series(gen, scaling.fit(closes), closes,
                                condition_dim=4, mode="recursive")
        assert out.shape == (26,)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("d, m", _recursive_cases())
    def test_recursive_matches_per_window_reference(self, d, m):
        # the wavefront steps d windows as one d-row pass, so its products
        # round like a GEMM rather than a k=1 gemv: equal to ~1e-16, while
        # a tick or noise row off by one moves values by O(1). Both run in
        # float64, where that rounding is all that separates them.
        gen = Generator(TrainConfig(condition_dim=d), np.random.default_rng(d))
        gen.workspace = LstmWorkspace(np.float64)
        closes = 100 + np.cumsum(np.random.default_rng(m).standard_normal(d + m))
        scaler = scaling.fit(closes)
        out = synthesize_series(gen, scaler, closes, condition_dim=d,
                                mode="recursive", seed=m)
        ref = recursive_reference(gen, scaler, closes, d, seed=m)
        assert out.shape == (m,)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("d, m", _recursive_cases())
    def test_recursive_matches_wavefront_reference(self, d, m):
        # the same wavefront in the generator's float32, one nn.lstm_step
        # on fresh buffers per tick: the same products in the same order,
        # so the values must agree bit for bit
        gen = Generator(TrainConfig(condition_dim=d), np.random.default_rng(d))
        assert gen.workspace.dtype == np.float32
        closes = 100 + np.cumsum(np.random.default_rng(m).standard_normal(d + m))
        scaler = scaling.fit(closes)
        out = synthesize_series(gen, scaler, closes, condition_dim=d,
                                mode="recursive", seed=m)
        ref = wavefront_reference(gen, scaler, closes, d, seed=m)
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("mode", ["conditioned", "recursive"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_leaves_lstm_weights_bit_identical(self, dtype, mode):
        # both modes halve rows of a copy of the weights, never the weights
        gen = Generator(toy_config(), np.random.default_rng(25))
        gen.workspace = LstmWorkspace(dtype)
        before = gen.lstm.W.copy()
        closes = np.random.default_rng(26).uniform(90, 110, 30)
        for _ in range(2):
            synthesize_series(gen, scaling.fit(closes), closes,
                              condition_dim=4, mode=mode)
        assert gen.lstm.W.tobytes() == before.tobytes()

    def test_recursive_non_finite_state_raises(self):
        # the state check runs every tick, ahead of the head's own check
        gen = Generator(toy_config(), np.random.default_rng(23))
        gen.lstm.W[0, 0] = np.nan
        closes = np.random.default_rng(24).uniform(90, 110, 30)
        with pytest.raises(NumericError, match="non-finite LSTM state"):
            synthesize_series(gen, scaling.fit(closes), closes,
                              condition_dim=4, mode="recursive")

    def test_recursive_non_finite_head_raises(self):
        gen = Generator(toy_config(), np.random.default_rng(21))
        gen.head.bias[:] = np.inf
        closes = np.random.default_rng(22).uniform(90, 110, 30)
        with pytest.raises(NumericError, match="non-finite"):
            synthesize_series(gen, scaling.fit(closes), closes,
                              condition_dim=4, mode="recursive")

    def test_seed_determinism(self):
        config = toy_config()
        gen = Generator(config, np.random.default_rng(16))
        closes = np.random.default_rng(17).uniform(90, 110, 40)
        scaler = scaling.fit(closes)
        a = synthesize_series(gen, scaler, closes, condition_dim=4, seed=5)
        b = synthesize_series(gen, scaler, closes, condition_dim=4, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_too_short_errors(self):
        config = toy_config()
        gen = Generator(config, np.random.default_rng(18))
        with pytest.raises(DataError):
            synthesize_series(gen, toy_scaler(), np.ones(4), condition_dim=4)

    def test_unknown_mode(self):
        config = toy_config()
        gen = Generator(config, np.random.default_rng(19))
        with pytest.raises(DataError):
            synthesize_series(gen, toy_scaler(),
                              np.random.default_rng(20).uniform(90, 110, 30),
                              condition_dim=4, mode="oracle")


class TestThreadedSynthesis:
    """Conditioned synthesis runs its chunks on as many threads as the BLAS
    has; these tests fix that count with a stand-in for the BLAS pin."""

    @staticmethod
    def pin_workers(monkeypatch, workers):
        @contextlib.contextmanager
        def pin():
            yield workers
        monkeypatch.setattr(gan, "_one_blas_thread", pin)

    @pytest.mark.parametrize("m", [gan.SYNTH_CHUNK - 1, gan.SYNTH_CHUNK,
                                   2 * gan.SYNTH_CHUNK + 7])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_sequential_reference(self, monkeypatch, dtype,
                                               workers, m):
        self.pin_workers(monkeypatch, workers)
        d = 60
        gen = Generator(TrainConfig(condition_dim=d), np.random.default_rng(m))
        gen.workspace = LstmWorkspace(dtype)
        closes = 100 + np.cumsum(np.random.default_rng(m).standard_normal(d + m))
        scaler = scaling.fit(closes)
        generation = gen.workspace.generation
        out = synthesize_series(gen, scaler, closes, condition_dim=d, seed=m)
        # the chunks left the generator's workspace alone
        assert gen.workspace.generation == generation
        ref = conditioned_reference(gen, scaler, closes, d, seed=m)
        assert out.tobytes() == ref.tobytes()

    def test_non_finite_weights_warn_on_no_thread(self, monkeypatch):
        # inf and -inf in the two noise columns of W: the gates' matmul
        # meets inf - inf. A thread starts with NumPy's default error
        # state, so each sets its own, and only the state check speaks.
        self.pin_workers(monkeypatch, 2)
        monkeypatch.setattr(gan, "SYNTH_CHUNK", 4)
        gen = Generator(toy_config(), np.random.default_rng(36))
        h = gen.lstm.hidden_size
        gen.lstm.W[:, h + 1] = np.inf
        gen.lstm.W[:, h + 2] = -np.inf
        closes = np.random.default_rng(37).uniform(90, 110, 84)
        for mode in ("conditioned", "recursive"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(NumericError,
                                   match="non-finite LSTM state"):
                    synthesize_series(gen, scaling.fit(closes), closes,
                                      condition_dim=4, mode=mode)
            assert caught == []

    def test_more_threads_than_cores_lose_no_chunk(self, monkeypatch):
        # 4-row chunks, 8 threads and a short switch interval: a chunk
        # taken twice or never would change or leave unset some values
        self.pin_workers(monkeypatch, 8)
        monkeypatch.setattr(gan, "SYNTH_CHUNK", 4)
        gen = Generator(toy_config(), np.random.default_rng(30))
        closes = np.random.default_rng(31).uniform(90, 110, 207)
        scaler = scaling.fit(closes)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = synthesize_series(gen, scaler, closes, condition_dim=4)
        finally:
            sys.setswitchinterval(interval)
        ref = conditioned_reference(gen, scaler, closes, 4, seed=0)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_state_raises_like_the_reference(self, monkeypatch,
                                                        workers):
        self.pin_workers(monkeypatch, workers)
        gen = Generator(toy_config(), np.random.default_rng(23))
        gen.lstm.W[0, 0] = np.nan
        closes = np.random.default_rng(24).uniform(90, 110,
                                                   3 * gan.SYNTH_CHUNK)
        scaler = scaling.fit(closes)
        with pytest.raises(NumericError) as threaded:
            synthesize_series(gen, scaler, closes, condition_dim=4)
        with pytest.raises(NumericError) as reference:
            conditioned_reference(gen, scaler, closes, 4, seed=0)
        assert str(threaded.value) == str(reference.value)
        assert "non-finite LSTM state" in str(threaded.value)

    def test_earliest_failing_chunk_is_raised(self, monkeypatch):
        # chunk 1 fails late, after chunk 3 has failed on the other thread;
        # a sequential loop would stop at chunk 1, so its error is raised
        self.pin_workers(monkeypatch, 2)
        c = gan.SYNTH_CHUNK
        gen = Generator(toy_config(), np.random.default_rng(32))
        chunk = gan._conditioned_chunk

        def failing_chunk(gen, windows, zs):
            start = int(windows[0, 0])  # the closes are 0, 1, 2, ...
            if start == c:
                time.sleep(0.2)
            if start in (c, 3 * c):
                raise NumericError(f"chunk at {start}")
            return chunk(gen, windows, zs)

        monkeypatch.setattr(gan, "_conditioned_chunk", failing_chunk)
        closes = np.arange(5 * c + 4, dtype=np.float64)
        scaler = scaling.ScalerParams(mean=0.0, stddev=1.0, n_fitted=2)
        with pytest.raises(NumericError, match=f"^chunk at {c}$"):
            synthesize_series(gen, scaler, closes, condition_dim=4)

    def test_interrupt_on_the_calling_thread_stops_the_others(self,
                                                               monkeypatch):
        # Ctrl-C lands in the calling thread's first chunk; the other
        # thread finishes the chunk it holds and takes no more of the 20
        self.pin_workers(monkeypatch, 2)
        monkeypatch.setattr(gan, "SYNTH_CHUNK", 4)
        gen = Generator(toy_config(), np.random.default_rng(35))
        chunk = gan._conditioned_chunk
        taken = []

        def slow_chunk(gen, windows, zs):
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.02)
                raise KeyboardInterrupt
            taken.append(windows[0, 0])
            time.sleep(0.2)
            return chunk(gen, windows, zs)

        monkeypatch.setattr(gan, "_conditioned_chunk", slow_chunk)
        closes = np.arange(84, dtype=np.float64)
        scaler = scaling.ScalerParams(mean=0.0, stddev=1.0, n_fitted=2)
        with pytest.raises(KeyboardInterrupt):
            synthesize_series(gen, scaler, closes, condition_dim=4)
        assert 1 <= len(taken) <= 2

    def test_blas_pin_restores_the_thread_count(self):
        blas = gan._openblas()
        if blas is None:
            pytest.skip("NumPy's BLAS is not an OpenBLAS found in the maps")
        get, _ = blas
        before = get()
        with gan._one_blas_thread() as workers:
            assert workers == before
            assert get() == 1
        assert get() == before
        gen = Generator(toy_config(), np.random.default_rng(33))
        closes = np.random.default_rng(34).uniform(90, 110,
                                                   2 * gan.SYNTH_CHUNK)
        synthesize_series(gen, scaling.fit(closes), closes, condition_dim=4)
        assert get() == before
        gen.lstm.W[0, 0] = np.nan
        with pytest.raises(NumericError):
            synthesize_series(gen, scaling.fit(closes), closes,
                              condition_dim=4)
        assert get() == before


class TestCheckpointRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        config = toy_config(epochs=2, seed=21)
        model = train(config, toy_pairs(seed=21), toy_scaler())
        path = tmp_path / "ckpt.json"
        checkpoint.save(path, model)
        loaded = checkpoint.load(path)
        assert loaded.config == config
        assert loaded.scaler == model.scaler
        assert loaded.epoch == model.epoch
        assert loaded.history.d_epoch == model.history.d_epoch
        for name, value in model.generator.params().items():
            np.testing.assert_array_equal(loaded.generator.params()[name], value)
        for name, value in model.discriminator.params().items():
            np.testing.assert_array_equal(loaded.discriminator.params()[name], value)
        assert loaded.adam_g.t == model.adam_g.t
        np.testing.assert_array_equal(
            loaded.generator.layout.views(loaded.adam_g.m)["gen.head.weights"],
            model.generator.layout.views(model.adam_g.m)["gen.head.weights"])
        for ours, theirs in ((loaded.adam_g, model.adam_g),
                             (loaded.adam_d, model.adam_d)):
            np.testing.assert_array_equal(ours.m, theirs.m)
            np.testing.assert_array_equal(ours.v, theirs.v)

    def test_save_is_byte_deterministic(self, tmp_path):
        config = toy_config(epochs=1, seed=22)
        a = train(config, toy_pairs(seed=22), toy_scaler())
        b = train(config, toy_pairs(seed=22), toy_scaler())
        checkpoint.save(tmp_path / "a.json", a)
        checkpoint.save(tmp_path / "b.json", b)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_reload_saves_back_byte_identical(self, tmp_path):
        model = train(toy_config(epochs=1, seed=25), toy_pairs(seed=25),
                      toy_scaler())
        checkpoint.save(tmp_path / "a.json", model)
        checkpoint.save(tmp_path / "b.json", checkpoint.load(tmp_path / "a.json"))
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path,
                                                     monkeypatch):
        model = train(toy_config(epochs=1, seed=24), toy_pairs(seed=24),
                      toy_scaler())
        path = tmp_path / "ckpt.json"
        checkpoint.save(path, model)
        before = path.read_bytes()

        def dump_then_fail(doc, fh, **kw):  # a disk filling up mid-write
            fh.write('{"format":')
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(checkpoint.json, "dump", dump_then_fail)
        with pytest.raises(OSError):
            checkpoint.save(path, model)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
        monkeypatch.undo()
        assert checkpoint.load(path).epoch == model.epoch

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(DataError):
            checkpoint.load(path)

    def test_resume_matches_uninterrupted(self, tmp_path):
        """Loading a checkpoint and continuing reproduces the trajectory of
        an uninterrupted run with the same total epoch budget."""
        pairs = toy_pairs(seed=23)
        full = train(toy_config(epochs=4, seed=23), pairs, toy_scaler())

        half = train(toy_config(epochs=2, seed=23), pairs, toy_scaler())
        path = tmp_path / "half.json"
        checkpoint.save(path, half)
        resumed = checkpoint.load(path)
        rng = np.random.default_rng()
        rng.bit_generator.state = resumed.rng_state
        k = resumed.config.batch_size
        n_batches = len(pairs) // k
        for _ in range(2):
            perm = rng.permutation(len(pairs))
            for b in range(n_batches):
                idx = perm[b * k:(b + 1) * k]
                cond = pairs.conditions[idx]
                fake_d, fake_g, gen_cache = pair_pass(resumed.generator, cond,
                                                      rng)
                train_discriminator_step(resumed.discriminator, cond,
                                         pairs.targets[idx], fake_d,
                                         resumed.adam_d,
                                         resumed.config.clip_norm)
                train_generator_step(resumed.generator, resumed.discriminator,
                                     cond, fake_g, gen_cache, resumed.adam_g,
                                     resumed.config.clip_norm)
        for net in ("generator", "discriminator"):
            ours = getattr(resumed, net).params()
            for name, value in getattr(full, net).params().items():
                np.testing.assert_array_equal(ours[name], value)
        for ours, theirs in ((resumed.adam_g, full.adam_g),
                             (resumed.adam_d, full.adam_d)):
            assert ours.t == theirs.t
            np.testing.assert_array_equal(ours.m, theirs.m)
            np.testing.assert_array_equal(ours.v, theirs.v)
        assert rng.bit_generator.state == full.rng_state
