import base64
import json
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsgan
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
        ckpt = json.loads((out / "checkpoint.json").read_text())
        assert manifest["config"] == ckpt["config"]

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

    @pytest.mark.parametrize("text", [
        "this is not json {", "[1, 2]", '"epochs"', "\udcff",
        '{"init_scheme": "nope"}', '{"beta1": 1.5}', '{"beta1": -0.1}',
        '{"beta2": 1.0}', '{"clip_norm": -1}', '{"clip_norm": NaN}',
        '{"disc_layers": [64, 0]}', '{"disc_layers": ["wide"]}',
        '{"no_such_field": 1}', '{"epochs": 1.5}', '{"seed": "x"}',
        '{"seed": -1}', '{"batch_size": true}', '{"hidden_size": 8.0}',
        '{"noise_dim": "8"}', '{"disc_layers": [64.5]}',
        '{"disc_layers": [true]}', '{"disc_layers": 64}', '{"lr": "0.1"}',
        '{"beta1": false}', '{"clip_norm": null}'])
    def test_bad_config_exit_2(self, price_csv, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text.encode("utf-8", "surrogateescape"))
        # no flags, which would override the fields under test
        rc = main(["train", "--input", str(price_csv), "--out",
                   str(tmp_path / "run"), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert err.startswith("data error:")
        assert "config" in err.lower()

    def test_zero_clip_norm_still_trains(self, price_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"clip_norm": 0}')
        out = tmp_path / "run"
        assert main(train_args(price_csv, out, config=cfg)) == 0
        assert json.loads((out / "manifest.json").read_text())[
            "config"]["clip_norm"] == 0


class TestDirectoryPaths:
    """A directory where a file is expected: exit 2, no traceback."""

    def _run(self, argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert err.startswith("data error:")

    def test_input_is_directory(self, tmp_path, capsys):
        self._run(["analyze", "--input", str(tmp_path),
                   "--out", str(tmp_path / "v.csv")], capsys)

    def test_config_is_directory(self, price_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.mkdir()
        self._run(train_args(price_csv, tmp_path / "run", config=cfg), capsys)

    def test_checkpoint_is_directory(self, price_csv, tmp_path, capsys):
        self._run(["generate", "--checkpoint", str(tmp_path), "--input",
                   str(price_csv), "--out", str(tmp_path / "g.csv")], capsys)


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

    def test_timestamps_match_isoformat(self, run_dir, tmp_path):
        # epoch seconds: 8 condition rows, then whole, fractional, pre-1970
        # and sub-microsecond stamps (rounded half-even by fromtimestamp)
        stamps = [-2e9 + i for i in range(8)] + [
            -86400.75, -0.5, 0.0, 1647871200.0, 1647871200.25,
            1647871201.0000005, 1647871202.0000015, 1647871260.999999]
        src = tmp_path / "epoch.csv"
        src.write_text("timestamp,close\n" + "".join(
            f"{t!r},{100 + i}\n" for i, t in enumerate(reversed(stamps))))
        out_csv = tmp_path / "generated.csv"
        assert main(["generate", "--checkpoint",
                     str(run_dir / "checkpoint.json"), "--input", str(src),
                     "--out", str(out_csv)]) == 0
        got = [line.split(",")[0]
               for line in out_csv.read_text().splitlines()[1:]]
        assert got == [datetime.fromtimestamp(t, tz=timezone.utc).isoformat()
                       for t in sorted(stamps)[8:]]

    def test_recursive_mode(self, price_csv, run_dir, tmp_path):
        ckpt = str(run_dir / "checkpoint.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out_csv in (a, b):
            assert main(["generate", "--checkpoint", ckpt, "--input",
                         str(price_csv), "--out", str(out_csv),
                         "--mode", "recursive", "--seed", "3"]) == 0
        rows = a.read_text().splitlines()
        assert rows[0] == "timestamp,real_close,generated_close"
        assert len(rows) - 1 == 120 - 8
        closes = [line.split(",")[4] for line in
                  price_csv.read_text().splitlines()[1:]]
        assert [line.split(",")[1] for line in rows[1:]] == closes[8:]
        assert a.read_bytes() == b.read_bytes()

    def test_recursive_non_finite_checkpoint_exit_3(self, price_csv, run_dir,
                                                    tmp_path, capsys):
        doc = json.loads((run_dir / "checkpoint.json").read_text())
        doc["params"]["gen.head.bias"] = _block((1,), np.inf)
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["generate", "--checkpoint", str(bad), "--input",
                   str(price_csv), "--out", str(tmp_path / "g.csv"),
                   "--mode", "recursive"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("numeric error:")
        assert "Traceback" not in err

    def test_bad_checkpoint_exit_2(self, price_csv, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = main(["generate", "--checkpoint", str(bad),
                   "--input", str(price_csv), "--out", str(tmp_path / "g.csv")])
        assert rc == 2


def _block(shape, fill=0.0):
    """A checkpoint parameter block of the given shape, filled with `fill`."""
    data = np.full(shape, fill, dtype="<f8").tobytes()
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

    def test_short_row_rejected(self, tmp_path, capsys):
        p = tmp_path / "short.csv"
        lines = ["close,timestamp\n"]
        lines += [f"{100 + i},{1647871200 + 3600 * i}\n" for i in range(60)]
        lines.insert(5, "1.6\n")
        p.write_text("".join(lines))
        rc = main(["analyze", "--input", str(p), "--out", str(tmp_path / "v.csv")])
        assert rc == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_out_of_range_epoch_rows_rejected(self, tmp_path, capsys):
        p = tmp_path / "epoch.csv"
        lines = ["timestamp,close\n"]
        lines += [f"{1647871200 + 3600 * i},{100 + i}\n" for i in range(60)]
        lines[10:10] = ["inf,100\n", "1e20,100\n", "-1e20,100\n"]
        p.write_text("".join(lines))
        rc = main(["analyze", "--input", str(p), "--out", str(tmp_path / "v.csv")])
        assert rc == 0
        assert "Traceback" not in capsys.readouterr().err


def _profile_rows():
    """Data rows over 5 UTC days with distinct timestamps; every 7th row
    breaks an OHLC invariant."""
    start = datetime(2022, 3, 21, 1, 30, tzinfo=timezone.utc)
    rows = []
    for i in range(60):
        ts = (start + timedelta(hours=2 * i, microseconds=250000 * (i % 3)))
        close = 100.0 + 3.0 * np.sin(i / 5.0)
        high, low = close + 1.0, close - 1.0
        if i % 7 == 3:
            high = low - 0.5
        elif i % 7 == 5:
            close = -close
        rows.append(f"{ts.isoformat()},{close},{high},{low},{close}\n")
    return rows


PROFILE_ROWS = _profile_rows()


@given(st.permutations(range(len(PROFILE_ROWS))))
@settings(max_examples=25, deadline=None)
def test_row_order_does_not_change_analyze_or_clean(order):
    from tsgan import data

    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for name, rows in (("sorted", PROFILE_ROWS),
                           ("shuffled", [PROFILE_ROWS[i] for i in order])):
            src = Path(tmp) / f"{name}.csv"
            src.write_text("timestamp,open,high,low,close\n" + "".join(rows))
            vol = Path(tmp) / f"{name}.vol.csv"
            assert main(["analyze", "--input", str(src), "--out", str(vol)]) == 0
            series, dropped = data.clean(data.load_csv(src).series)
            results.append((vol.read_bytes(), series, dropped))
    (vol_a, a, dropped_a), (vol_b, b, dropped_b) = results
    assert vol_a == vol_b
    assert dropped_a == dropped_b > 0
    for col in ("timestamp", "open", "high", "low", "close"):
        np.testing.assert_array_equal(getattr(a, col), getattr(b, col))


class TestSeedEnvFallback:
    def test_tsgan_seed_env(self, price_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("TSGAN_SEED", "99")
        out = tmp_path / "run"
        main(["train", "--input", str(price_csv), "--out", str(out),
              "--epochs", "1", "--cond-dim", "8", "--batch-size", "16",
              "--hidden", "8"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 99


_MAPPED_BLOCKS_SCRIPT = """
import ctypes, sys
import numpy as np
from tsgan.cli import main

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

try:
    mallinfo2 = ctypes.CDLL(None).mallinfo2
except AttributeError:
    sys.exit(99)
mallinfo2.restype = MallInfo2
assert main(["evaluate", "--input", sys.argv[1], "--out", sys.argv[2]]) == 2
block = 8 << 20
for _ in range(3):
    before = mallinfo2().hblkhd
    arr = np.ones(block // 8)
    assert mallinfo2().hblkhd - before >= block, "block came from the heap"
    del arr
"""


def test_main_maps_large_blocks(tmp_path):
    """After any command, a multi-MB array gets a mapping of its own every
    time: by default glibc raises its threshold past a freed block's size,
    and the next block of that size comes from the main heap. Run in a
    fresh interpreter, whose heap holds no free block that large."""
    src = str(Path(tsgan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _MAPPED_BLOCKS_SCRIPT,
         str(tmp_path / "missing.csv"), str(tmp_path / "metrics.json")],
        env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode == 99:
        pytest.skip("needs glibc's mallinfo2")
    assert proc.returncode == 0, proc.stderr
