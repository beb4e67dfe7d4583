import base64
import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from tsgan.cli import main


@pytest.fixture
def price_csv(tmp_path):
    """120 minute bars over 3 UTC days, mild random walk."""
    rng = np.random.default_rng(0)
    start = datetime(2022, 3, 21, 0, 0, tzinfo=timezone.utc)
    price = 100.0
    lines = ["timestamp,open,high,low,close\n"]
    for i in range(120):
        ts = start + timedelta(hours=i)  # spans several days for analyze
        price *= 1.0 + rng.normal(0, 0.002)
        lines.append(f"{ts.isoformat()},{price},{price * 1.001},"
                     f"{price * 0.999},{price}\n")
    p = tmp_path / "prices.csv"
    p.write_text("".join(lines))
    return p


def train_args(price_csv, out_dir, **extra):
    args = ["train", "--input", str(price_csv), "--out", str(out_dir),
            "--epochs", "1", "--cond-dim", "8", "--batch-size", "16",
            "--hidden", "8", "--seed", "7"]
    for key, value in extra.items():
        args += [f"--{key}", str(value)]
    return args


class TestTrain:
    def test_writes_all_artifacts(self, price_csv, tmp_path):
        out = tmp_path / "run"
        assert main(train_args(price_csv, out)) == 0
        for name in ("checkpoint.json", "manifest.json", "losses.csv",
                     "rejects.csv"):
            assert (out / name).exists()

    def test_manifest_records_defaults(self, price_csv, tmp_path):
        out = tmp_path / "run"
        main(["train", "--input", str(price_csv), "--out", str(out),
              "--epochs", "1", "--cond-dim", "8", "--batch-size", "16",
              "--hidden", "8"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1
        assert manifest["config"]["init_scheme"] == "uniform-xavier"
        assert manifest["noise_distribution"] == "standard-normal"
        assert manifest["adam_epsilon"] == 1e-8

    def test_default_epochs_is_fifty(self, price_csv, tmp_path, capsys):
        # checked via the config object, not an actual 50-epoch run
        from tsgan.gan import TrainConfig
        assert TrainConfig().epochs == 50

    def test_same_seed_identical_losses(self, price_csv, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(train_args(price_csv, out1))
        main(train_args(price_csv, out2))
        assert (out1 / "losses.csv").read_bytes() == (out2 / "losses.csv").read_bytes()
        assert (out1 / "checkpoint.json").read_bytes() == \
            (out2 / "checkpoint.json").read_bytes()

    def test_missing_input_exit_2(self, tmp_path):
        rc = main(["train", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_usage_error_exit_4(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing required flags
        assert exc.value.code == 4

    def test_config_file_and_flag_precedence(self, price_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "condition_dim": 8,
                                   "batch_size": 16, "hidden_size": 8,
                                   "seed": 3}))
        out = tmp_path / "run"
        main(["train", "--input", str(price_csv), "--out", str(out),
              "--config", str(cfg), "--epochs", "1"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1   # flag wins
        assert manifest["config"]["seed"] == 3     # file fills the rest


class TestGenerate:
    @pytest.fixture
    def run_dir(self, price_csv, tmp_path):
        out = tmp_path / "run"
        main(train_args(price_csv, out))
        return out

    def test_row_count_is_n_minus_d(self, price_csv, run_dir, tmp_path):
        out_csv = tmp_path / "generated.csv"
        rc = main(["generate", "--checkpoint", str(run_dir / "checkpoint.json"),
                   "--input", str(price_csv), "--out", str(out_csv)])
        assert rc == 0
        rows = out_csv.read_text().strip().splitlines()
        assert rows[0] == "timestamp,real_close,generated_close"
        assert len(rows) - 1 == 120 - 8

    def test_rerun_identical(self, price_csv, run_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ckpt = str(run_dir / "checkpoint.json")
        main(["generate", "--checkpoint", ckpt, "--input", str(price_csv),
              "--out", str(a), "--seed", "1"])
        main(["generate", "--checkpoint", ckpt, "--input", str(price_csv),
              "--out", str(b), "--seed", "1"])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_checkpoint_exit_2(self, price_csv, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = main(["generate", "--checkpoint", str(bad),
                   "--input", str(price_csv), "--out", str(tmp_path / "g.csv")])
        assert rc == 2


def _block(shape):
    """A checkpoint parameter block of zeros with the given shape."""
    data = np.zeros(shape, dtype="<f8").tobytes()
    return {"shape": list(shape), "data": base64.b64encode(data).decode()}


def _damage(doc, case):
    """Apply one named corruption to a loaded checkpoint document."""
    if case == "foreign_format":
        doc["format"] = "something-else"
    elif case == "version_1":
        doc.clear()
        doc.update({"format": "tsgan-checkpoint", "version": 1})
    elif case == "version_3":
        doc["version"] = 3
    elif case == "missing_top_key":
        del doc["adam_g"]
    elif case == "missing_config_key":
        del doc["config"]["hidden_size"]
    elif case == "missing_block_field":
        del doc["params"]["disc.0.bias"]["data"]
    elif case == "param_name":
        doc["params"]["gen.lstm.W_xf"] = doc["params"].pop("gen.lstm.W")
    elif case == "param_shape":
        doc["params"]["gen.lstm.W"] = _block((32, 16))
    elif case == "adam_m_name":
        m = doc["adam_g"]["m"]
        m["gen.lstm.W_zf"] = m.pop("gen.lstm.W")
    elif case == "adam_v_shape":
        doc["adam_d"]["v"]["disc.0.weights"] = _block((3, 3))
    else:
        raise ValueError(case)


class TestCheckpointValidation:
    """generate on a damaged checkpoint: exit 2, a message, no traceback."""

    @pytest.mark.parametrize("case", [
        "foreign_format", "version_1", "version_3", "missing_top_key",
        "missing_config_key", "missing_block_field", "param_name",
        "param_shape", "adam_m_name", "adam_v_shape"])
    def test_damaged_checkpoint_exit_2(self, price_csv, tmp_path, capsys,
                                       case):
        out = tmp_path / "run"
        assert main(train_args(price_csv, out)) == 0
        doc = json.loads((out / "checkpoint.json").read_text())
        _damage(doc, case)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["generate", "--checkpoint", str(bad), "--input",
                   str(price_csv), "--out", str(tmp_path / "g.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert err.startswith("data error:")

    def test_not_json_exit_2(self, price_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("this is not json {")
        rc = main(["generate", "--checkpoint", str(bad), "--input",
                   str(price_csv), "--out", str(tmp_path / "g.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err


class TestEvaluate:
    def test_identical_columns_perfect_report(self, tmp_path):
        gen_csv = tmp_path / "g.csv"
        lines = ["timestamp,real_close,generated_close\n"]
        rng = np.random.default_rng(1)
        for i, v in enumerate(rng.uniform(90, 110, 50)):
            lines.append(f"2022-03-21T14:{i % 60:02d}:00+00:00,{v},{v}\n")
        gen_csv.write_text("".join(lines))
        out = tmp_path / "metrics.json"
        assert main(["evaluate", "--input", str(gen_csv), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["original"]["pearson"] == pytest.approx(1.0)
        assert report["original"]["mae"] == 0.0
        assert set(report["original"]) == {"pearson", "spearman", "mae",
                                           "rmse", "n", "scale"}
        assert set(report) == {"original", "normalized"}

    def test_misaligned_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        rc = main(["evaluate", "--input", str(bad),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2


class TestPlot:
    def test_losses_svg(self, tmp_path):
        losses = tmp_path / "losses.csv"
        rows = ["epoch,loss_d,loss_g\n"]
        rows += [f"{i},{0.7 - i * 0.001},{0.7 + i * 0.001}\n" for i in range(1, 51)]
        losses.write_text("".join(rows))
        out = tmp_path / "plots"
        assert main(["plot", "--input", str(losses), "--out", str(out)]) == 0
        svg = (out / "losses.svg").read_text()
        assert svg.count("<polyline") == 2
        assert svg.count(",") >= 100  # 50 points per polyline

    def test_overlay_window(self, tmp_path):
        gen_csv = tmp_path / "g.csv"
        lines = ["timestamp,real_close,generated_close\n"]
        for i in range(5000):
            lines.append(f"t{i},{100 + i * 0.01},{100 + i * 0.011}\n")
        gen_csv.write_text("".join(lines))
        out = tmp_path / "plots"
        assert main(["plot", "--input", str(gen_csv), "--out", str(out),
                     "--window", "1000"]) == 0
        svg = (out / "overlay.svg").read_text()
        assert svg.count("<polyline") == 4  # 2 panels x 2 series
        assert "first 1000" in svg

    def test_constant_series_still_renders(self, tmp_path):
        gen_csv = tmp_path / "g.csv"
        lines = ["timestamp,real_close,generated_close\n"]
        lines += [f"t{i},5.0,5.0\n" for i in range(10)]
        gen_csv.write_text("".join(lines))
        out = tmp_path / "plots"
        assert main(["plot", "--input", str(gen_csv), "--out", str(out)]) == 0
        svg = (out / "overlay.svg").read_text()
        assert "<polyline" in svg and "<rect" in svg

    def test_empty_input_exit_2(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("timestamp,real_close,generated_close\n")
        rc = main(["plot", "--input", str(empty), "--out", str(tmp_path / "p")])
        assert rc == 2


class TestGradcheckCommand:
    def test_default_seed_passes(self, capsys):
        assert main(["gradcheck", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "max relative error" in out

    def test_corrupted_backward_fails(self, monkeypatch, capsys):
        import tsgan.gradcheck as gc

        def broken(rng, trials=100):
            return 1.0  # simulated bad gradient block
        monkeypatch.setattr(gc, "check_dense", broken)
        rc = main(["gradcheck", "--trials", "2"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "FAIL dense" in out


class TestAnalyze:
    def test_multi_day_profile(self, price_csv, tmp_path):
        out = tmp_path / "vol.csv"
        rc = main(["analyze", "--input", str(price_csv), "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "date,pct_change"
        assert len(rows) > 1

    def test_single_day_exit_2(self, tmp_path):
        p = tmp_path / "one.csv"
        lines = ["timestamp,close\n"]
        lines += [f"2022-03-21T14:{i:02d}:00+00:00,100.{i}\n" for i in range(10)]
        p.write_text("".join(lines))
        rc = main(["analyze", "--input", str(p), "--out", str(tmp_path / "v.csv")])
        assert rc == 2


class TestSeedEnvFallback:
    def test_tsgan_seed_env(self, price_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("TSGAN_SEED", "99")
        out = tmp_path / "run"
        main(["train", "--input", str(price_csv), "--out", str(out),
              "--epochs", "1", "--cond-dim", "8", "--batch-size", "16",
              "--hidden", "8"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 99
