import math

import numpy as np
import pytest

from tsgan import checkpoint, data, scaling
from tsgan.errors import DataError, NumericError
from tsgan.gan import (Discriminator, Generator, TrainConfig, synthesize_series,
                       train, train_discriminator_step, train_generator_step)
from tsgan.optim import AdamState

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


def params_checksum(params):
    return {k: v.copy() for k, v in params.items()}


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
        value, _ = gen.forward(window, z, keep_cache=False)
        out[t] = value[0]
        buf.append(out[t])
    return scaling.inverse_transform(out, scaler)


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
        from tsgan.nn import LstmState, dense_forward
        from lstm_oracle import lstm_step
        config = toy_config(condition_dim=2)
        gen = Generator(config, np.random.default_rng(6))
        cond = np.array([[0.4, -0.3]])
        z = np.array([[0.2, -0.1]])
        out, _ = gen.forward(cond, z)

        state = LstmState.zeros(config.hidden_size)
        for t in range(2):
            x_t = np.concatenate([cond[0, t:t + 1], z[0]])
            state, _ = lstm_step(gen.lstm, x_t, state)
        head_out, _ = dense_forward(gen.head, state.z[0])
        assert out[0] == pytest.approx(head_out[0], abs=1e-12)

    def test_backward_on_stale_cache_raises(self):
        # the generator reuses its LSTM buffers, so a later pass of the
        # same shape overwrites what an earlier cache points at
        from tsgan.nn import StaleCacheError
        gen = Generator(toy_config(), np.random.default_rng(7))
        rng = np.random.default_rng(8)
        cond, z = rng.standard_normal((2, 4)), rng.standard_normal((2, 2))
        _, first = gen.forward(cond, z)
        gen.forward(-cond, z, keep_cache=False)
        with pytest.raises(StaleCacheError):
            gen.backward(first, np.ones(2))
        _, second = gen.forward(cond, z)
        fresh = gen.backward(second, np.ones(2))
        assert set(fresh) == set(gen.params())

    @pytest.mark.parametrize("k", [1, 64, 1024])
    def test_forward_only_equals_kept_pass(self, k):
        # the default shape (60 steps, 8 noise inputs, h = 64); 1024 rows
        # is synthesize_series' chunk
        gen = Generator(TrainConfig(), np.random.default_rng(11))
        rng = np.random.default_rng(12)
        cond, z = rng.standard_normal((k, 60)), rng.standard_normal((k, 8))
        kept, cache = gen.forward(cond, z)
        only, none = gen.forward(cond, z, keep_cache=False)
        assert cache is not None and none is None
        np.testing.assert_array_equal(only, kept)

    def test_outputs_survive_later_passes(self):
        gen = Generator(toy_config(), np.random.default_rng(9))
        rng = np.random.default_rng(10)
        cond, z = rng.standard_normal((3, 4)), rng.standard_normal((3, 2))
        out, _ = gen.forward(cond, z)
        kept = out.copy()
        fake_d, fake_g, _ = gen.forward_pair(cond, np.concatenate([z, z]))
        gen.forward(-cond, -z)
        np.testing.assert_array_equal(out, kept)
        # the double-width pass computes both halves like two single passes
        np.testing.assert_array_equal(fake_d, kept)
        np.testing.assert_array_equal(fake_g, kept)


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
        ld = train_discriminator_step(disc, gen, cond, target, AdamState(), rng)
        lg = train_generator_step(gen, disc, cond, AdamState(), rng)
        assert ld == pytest.approx(LN2, abs=1e-12)
        assert lg == pytest.approx(LN2, abs=1e-12)

    def test_perfect_discriminator_loss_near_zero(self):
        # softplus at +/-50: loss ~ 2e-22
        from tsgan.optim import bce_with_logits
        loss = 0.5 * (bce_with_logits(50.0, 1.0) + bce_with_logits(-50.0, 0.0))
        assert loss < 1e-20

    def test_confident_wrong_discriminator_gen_loss_zero(self):
        from tsgan.optim import bce_with_logits
        assert bce_with_logits(50.0, 1.0) < 1e-20

    def test_d_step_leaves_generator_untouched(self):
        config = toy_config()
        rng = np.random.default_rng(7)
        gen = Generator(config, rng)
        disc = Discriminator(config, rng)
        before = params_checksum(gen.params())
        cond = rng.standard_normal((2, 4))
        train_discriminator_step(disc, gen, cond, np.array([0.1, 0.2]),
                                 AdamState(), rng)
        for name, value in gen.params().items():
            np.testing.assert_array_equal(value, before[name])

    def test_g_step_leaves_discriminator_untouched(self):
        config = toy_config()
        rng = np.random.default_rng(8)
        gen = Generator(config, rng)
        disc = Discriminator(config, rng)
        before = params_checksum(disc.params())
        train_generator_step(gen, disc, rng.standard_normal((2, 4)),
                             AdamState(), rng)
        for name, value in disc.params().items():
            np.testing.assert_array_equal(value, before[name])

    def test_g_step_changes_generator(self):
        config = toy_config()
        rng = np.random.default_rng(9)
        gen = Generator(config, rng)
        disc = Discriminator(config, rng)
        before = params_checksum(gen.params())
        train_generator_step(gen, disc, rng.standard_normal((2, 4)),
                             AdamState(lr=1e-3), rng)
        changed = any(not np.array_equal(v, before[k])
                      for k, v in gen.params().items())
        assert changed

    def test_untrained_losses_finite_positive(self):
        config = toy_config()
        rng = np.random.default_rng(10)
        gen = Generator(config, rng)
        disc = Discriminator(config, rng)
        cond = rng.standard_normal((2, 4))
        ld = train_discriminator_step(disc, gen, cond, np.array([0.3, -0.3]),
                                      AdamState(), rng)
        lg = train_generator_step(gen, disc, cond, AdamState(), rng)
        assert math.isfinite(ld) and ld > 0
        assert math.isfinite(lg) and lg > 0


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
        # a tick or noise row off by one moves values by O(1)
        gen = Generator(TrainConfig(condition_dim=d), np.random.default_rng(d))
        closes = 100 + np.cumsum(np.random.default_rng(m).standard_normal(d + m))
        scaler = scaling.fit(closes)
        out = synthesize_series(gen, scaler, closes, condition_dim=d,
                                mode="recursive", seed=m)
        ref = recursive_reference(gen, scaler, closes, d, seed=m)
        assert out.shape == (m,)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=0)

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
            loaded.adam_g.m["gen.head.weights"], model.adam_g.m["gen.head.weights"])

    def test_save_is_byte_deterministic(self, tmp_path):
        config = toy_config(epochs=1, seed=22)
        a = train(config, toy_pairs(seed=22), toy_scaler())
        b = train(config, toy_pairs(seed=22), toy_scaler())
        checkpoint.save(tmp_path / "a.json", a)
        checkpoint.save(tmp_path / "b.json", b)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

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
        from tsgan.gan import LossHistory
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
                train_discriminator_step(resumed.discriminator, resumed.generator,
                                         pairs.conditions[idx], pairs.targets[idx],
                                         resumed.adam_d, rng,
                                         resumed.config.clip_norm)
                train_generator_step(resumed.generator, resumed.discriminator,
                                     pairs.conditions[idx], resumed.adam_g, rng,
                                     resumed.config.clip_norm)
        for name, value in full.generator.params().items():
            np.testing.assert_array_equal(resumed.generator.params()[name], value)
