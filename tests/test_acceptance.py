"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single verdict line
(run with `pytest -s` to see them inline). The surrogate training run is
the slow one, budgeted at ten minutes; everything else finishes in well
under a minute combined.
"""

import math
import time
from datetime import datetime, timedelta, timezone

import mpmath
import numpy as np
import pytest
import scipy.stats

from tsgan import data, metrics, scaling
from tsgan.cli import main
from tsgan.gan import TrainConfig, synthesize_series, train
from tsgan.gradcheck import run_suite
from tsgan.nn import Layout
from tsgan.optim import AdamState, adam_step, bce_with_logits

LN2 = math.log(2.0)


def _verdict(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_ln2_anchor():
    """Zero-initialized nets: the very first D and G batch losses are ln 2.

    With all parameters zero every logit is zero, so both BCE terms are
    exactly log 2, and the first D update cancels to a no-op (the real and
    fake gradient halves are equal and opposite), so the G loss that
    follows is log 2 as well.
    """
    t0 = time.perf_counter()
    config = TrainConfig(epochs=1, init_scheme="zeros", seed=0)
    closes = np.random.default_rng(0).standard_normal(
        config.condition_dim + config.batch_size)
    pairs = data.make_pairs(closes, config.condition_dim)
    scaler = scaling.ScalerParams(mean=0.0, stddev=1.0, n_fitted=2)
    model = train(config, pairs, scaler)
    elapsed = time.perf_counter() - t0
    err = max(abs(model.history.d_batch[0] - LN2),
              abs(model.history.g_batch[0] - LN2))
    _verdict("ln2 anchor", err <= 1e-9 and elapsed < 1.0,
             f"max deviation {err:.2e} from ln 2, {elapsed:.2f}s")


def test_gradient_suite():
    """Analytic gradients match central differences (rel err <= 1e-4) for
    the dense layer, the LSTM cell over 5-step sequences, and the composed
    D(G(.)) path, 100 random trials each."""
    t0 = time.perf_counter()
    reports = run_suite(seed=0, trials=100)
    elapsed = time.perf_counter() - t0
    worst = {r.name: r.max_rel_error for r in reports}
    ok = all(r.passed for r in reports) and elapsed < 60.0
    _verdict("gradient suite", ok,
             ", ".join(f"{n} {e:.2e}" for n, e in worst.items())
             + f", {elapsed:.1f}s")


def test_bce_stability():
    """BCE-with-logits is finite at +-500 and matches the naive formula
    (evaluated in 50-digit arithmetic) within 1e-10 for |x| <= 30."""
    extremes_finite = all(
        math.isfinite(bce_with_logits(np.array([x]), y))
        for x in (-500.0, 500.0) for y in (0.0, 1.0))

    mpmath.mp.dps = 50
    rng = np.random.default_rng(1)
    xs = np.concatenate([np.linspace(-30, 30, 601), rng.uniform(-30, 30, 400)])
    worst = 0.0
    for x in xs:
        for y in (0.0, 1.0):
            sig = 1 / (1 + mpmath.e ** (-mpmath.mpf(x)))
            naive = -(y * mpmath.log(sig) + (1 - y) * mpmath.log(1 - sig))
            worst = max(worst, abs(bce_with_logits(np.array([x]), y)
                                   - float(naive)))
    _verdict("bce stability", extremes_finite and worst <= 1e-10,
             f"finite at +-500: {extremes_finite}, "
             f"max deviation from naive {worst:.2e}")


def test_adam_reference_trace():
    """Ten Adam steps on f(w) = w^2 from w=1 match an independent scalar
    implementation to 1e-12."""
    theta = np.array([1.0])
    state = AdamState.zeros(1, lr=2e-4, beta1=0.5, beta2=0.999, epsilon=1e-8)
    mine = []
    for _ in range(10):
        adam_step(theta, np.array([2.0 * theta[0]]), state,
                  Layout({"w": (1,)}))
        mine.append(theta[0])

    theta, m, v = 1.0, 0.0, 0.0
    worst = 0.0
    for t, a in enumerate(mine, start=1):
        g = 2.0 * theta
        m = 0.5 * m + 0.5 * g
        v = 0.999 * v + 0.001 * g * g
        theta -= 2e-4 * (m / (1 - 0.5 ** t)) / (
            math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        worst = max(worst, abs(a - theta))
    _verdict("adam trace", worst <= 1e-12, f"max deviation {worst:.2e}")


@pytest.mark.slow
def test_surrogate_sine_run():
    """Full training run on a noisy sine surrogate with default
    hyperparameters; one-step conditional generation must track the real
    series closely (Pearson >= 0.99, Spearman >= 0.98, RMSE <= 1.0) and
    the whole thing must finish inside ten minutes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    t = np.arange(5000)
    closes = 100.0 + 10.0 * np.sin(2 * np.pi * t / 500) + rng.normal(0, 0.5,
                                                                     5000)
    config = TrainConfig(seed=0)
    scaler = scaling.fit(closes)
    pairs = data.make_pairs(scaling.transform(closes, scaler),
                            config.condition_dim)
    model = train(config, pairs, scaler)
    fake = synthesize_series(model.generator, scaler, closes,
                             config.condition_dim, mode="conditioned", seed=1)
    report = metrics.evaluate(closes[config.condition_dim:], fake)
    elapsed = time.perf_counter() - t0
    ok = (report.pearson >= 0.99 and report.spearman >= 0.98
          and report.rmse <= 1.0 and elapsed <= 600.0)
    _verdict("surrogate sine run", ok,
             f"pearson {report.pearson:.4f}, spearman {report.spearman:.4f}, "
             f"rmse {report.rmse:.3f}, {elapsed:.0f}s")


def test_scaler_fidelity():
    """transform/inverse round trip is exact to 1e-9 of the data scale on
    1000 random vectors; transformed data has mean <= 1e-12 and variance
    within 1e-9 of one."""
    rng = np.random.default_rng(7)
    worst_rt = worst_mean = worst_var = 0.0
    for _ in range(1000):
        n = rng.integers(10, 400)
        # price-like conditioning: |offset| / spread capped near 1e3, since
        # float64 cancellation alone costs ~2e-16 times that ratio
        spread = rng.uniform(1e-3, 1e4)
        offset = spread * rng.uniform(-1e3, 1e3)
        v = offset + spread * rng.standard_normal(n)
        params = scaling.fit(v)
        z = scaling.transform(v, params)
        back = scaling.inverse_transform(z, params)
        worst_rt = max(worst_rt,
                       np.max(np.abs(back - v)) / max(np.max(np.abs(v)), 1.0))
        worst_mean = max(worst_mean, abs(z.mean()))
        worst_var = max(worst_var, abs(z.var() - 1.0))
    ok = worst_rt <= 1e-9 and worst_mean <= 1e-12 and worst_var <= 1e-9
    _verdict("scaler fidelity", ok,
             f"round trip {worst_rt:.2e}, mean {worst_mean:.2e}, "
             f"var deviation {worst_var:.2e}")


def test_metric_oracles():
    """Pearson, Spearman, MAE and RMSE agree with scipy / brute-force
    references to 1e-12 on 1000 random pairs, and RMSE >= MAE always."""
    rng = np.random.default_rng(11)
    worst = 0.0
    rmse_dominates = True
    for i in range(1000):
        n = int(rng.integers(5, 120))
        a = rng.standard_normal(n) * rng.uniform(0.1, 10)
        b = a + rng.standard_normal(n) * rng.uniform(0.1, 5)
        if i % 3 == 0:  # force ties so the rank path gets exercised
            a = np.round(a, 1)
            b = np.round(b, 1)
            if np.ptp(a) == 0 or np.ptp(b) == 0:
                continue
        scale = lambda x: max(abs(x), 1.0)
        p = metrics.pearson(a, b)
        s = metrics.spearman(a, b)
        mae = metrics.mae(a, b)
        rmse = metrics.rmse(a, b)
        worst = max(
            worst,
            abs(p - scipy.stats.pearsonr(a, b).statistic) / scale(p),
            abs(s - scipy.stats.spearmanr(a, b).statistic) / scale(s),
            abs(mae - np.mean(np.abs(a - b))) / scale(mae),
            abs(rmse - math.sqrt(np.mean((a - b) ** 2))) / scale(rmse))
        rmse_dominates = rmse_dominates and rmse >= mae
    _verdict("metric oracles", worst <= 1e-12 and rmse_dominates,
             f"max deviation {worst:.2e}, rmse >= mae: {rmse_dominates}")


def test_windowing_exactness():
    """A series of N closes yields exactly N - 60 (condition, target) pairs
    and every pair is a verbatim slice of the input."""
    n, d = 22818, 60
    closes = np.random.default_rng(3).standard_normal(n)
    pairs = data.make_pairs(closes, d)
    exact = len(pairs) == n - d
    for i in (0, 1, len(pairs) // 2, len(pairs) - 1):
        exact = exact and np.array_equal(pairs.conditions[i], closes[i:i + d])
        exact = exact and pairs.targets[i] == closes[i + d]
    _verdict("windowing exactness", exact,
             f"{len(pairs)} pairs from {n} closes")


def test_run_determinism(tmp_path):
    """Two CLI runs with the same seed produce byte-identical losses.csv,
    checkpoint.json and generated.csv."""
    rng = np.random.default_rng(0)
    start = datetime(2022, 3, 21, tzinfo=timezone.utc)
    price = 100.0
    lines = ["timestamp,open,high,low,close\n"]
    for i in range(160):
        price *= 1.0 + rng.normal(0, 0.002)
        ts = start + timedelta(hours=i)
        lines.append(f"{ts.isoformat()},{price},{price * 1.001},"
                     f"{price * 0.999},{price}\n")
    csv = tmp_path / "prices.csv"
    csv.write_text("".join(lines))

    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["train", "--input", str(csv), "--out", str(out),
                   "--epochs", "2", "--cond-dim", "8", "--batch-size", "16",
                   "--hidden", "8", "--noise-dim", "4", "--seed", "7"])
        assert rc == 0
        gen_out = out / "generated.csv"
        rc = main(["generate", "--checkpoint", str(out / "checkpoint.json"),
                   "--input", str(csv), "--out", str(gen_out), "--seed", "3"])
        assert rc == 0
        outs.append(out)

    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("losses.csv", "checkpoint.json", "generated.csv"))
    _verdict("run determinism", identical,
             "losses.csv, checkpoint.json and generated.csv byte-identical")
