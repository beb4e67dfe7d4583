import base64
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tsgan
from csv_reference import (BOM, csv_text, dict_read_generated_csv, outcome,
                           same_bits)
from tsgan import data
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


def run_cli(*argv):
    """`python -m tsgan.cli argv` in a fresh interpreter, for tests of what
    reaches the real stderr (pytest collects warnings itself)."""
    src = str(Path(tsgan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "tsgan.cli",
                           *map(str, argv)], env=env, capture_output=True,
                          text=True, timeout=120)


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
        assert manifest["scaler"] == ckpt["scaler"]

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

    def test_odd_batch_width_reruns_byte_identical(self, price_csv,
                                                   tmp_path):
        # 17 columns: a width at which the BLAS's float32 GEMM rounds a
        # column by the width of the whole matrix
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert main(train_args(price_csv, out, **{"batch-size": 17})) == 0
        assert (outs[0] / "checkpoint.json").read_bytes() == \
            (outs[1] / "checkpoint.json").read_bytes()

    def test_float32_reruns_byte_identical(self, price_csv, tmp_path,
                                           monkeypatch):
        import tsgan.cli
        real_train, models = tsgan.cli.train, []

        def recording_train(*args, **kw):
            models.append(real_train(*args, **kw))
            return models[-1]

        monkeypatch.setattr(tsgan.cli, "train", recording_train)
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert main(train_args(price_csv, out, epochs=2)) == 0
        assert [m.generator.workspace.dtype for m in models] == [np.float32] * 2
        for name in ("checkpoint.json", "losses.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_missing_input_exit_2(self, tmp_path):
        rc = main(["train", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()

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
        '{"beta1": false}', '{"clip_norm": null}',
        pytest.param("[" * 200000 + "]" * 200000, id="deeply_nested")])
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
        assert not (tmp_path / "run").exists()

    def test_out_of_memory_exit_2(self, price_csv, tmp_path, capsys,
                                  monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.84 PiB for an array")

        monkeypatch.setattr(tsgan.cli, "train", exhausted)
        assert main(train_args(price_csv, tmp_path / "run")) == 2
        assert capsys.readouterr().err == (
            "data error: train ran out of memory: Unable to allocate "
            "2.84 PiB for an array\n")

    @pytest.mark.parametrize("lr", ["1e300", "inf"])
    def test_diverging_lr_prints_only_the_message(self, price_csv, tmp_path,
                                                  lr):
        # the first batch overflows; NumPy's warnings stay silent and the
        # steps' own check is the one line on stderr
        proc = run_cli(*train_args(price_csv, tmp_path / "run", lr=lr))
        assert proc.returncode == 3
        assert proc.stderr.startswith("numeric error:")
        assert proc.stderr.count("\n") == 1

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

    # a block that is not finite is refused at load, in either mode,
    # before any synthesis could turn it into a value or a numeric error
    @staticmethod
    def _generate_from(doc, price_csv, tmp_path, capsys, mode, block):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["generate", "--checkpoint", str(bad), "--input",
                   str(price_csv), "--out", str(tmp_path / "g.csv"),
                   "--mode", mode])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"data error: {bad}: {block} is not finite\n"
        assert not (tmp_path / "g.csv").exists()

    @staticmethod
    def _with_inf_noise_column(doc):
        # inf in the first noise column of W: conditioned noise is never 0,
        # so tanh took inf * noise to a finite gate and generate exited 0
        block = doc["params"]["gen.lstm.W"]
        W = np.frombuffer(base64.b64decode(block["data"]), "<f8").reshape(
            block["shape"]).copy()
        W[:, W.shape[0] // 4 + 1] = np.inf
        block["data"] = base64.b64encode(W.tobytes()).decode()
        return doc

    def test_recursive_non_finite_checkpoint_exit_2(self, price_csv, run_dir,
                                                    tmp_path, capsys):
        doc = json.loads((run_dir / "checkpoint.json").read_text())
        doc["params"]["gen.head.bias"] = _block((1,), np.inf)
        self._generate_from(doc, price_csv, tmp_path, capsys, "recursive",
                            "params: block 'gen.head.bias'")

    def test_inf_weight_prints_only_the_message(self, price_csv, run_dir,
                                                tmp_path):
        doc = self._with_inf_noise_column(
            json.loads((run_dir / "checkpoint.json").read_text()))
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("generate", "--checkpoint", bad, "--input", price_csv,
                       "--out", tmp_path / "g.csv", "--mode", "recursive")
        assert proc.returncode == 2
        assert proc.stderr == (f"data error: {bad}: params: block "
                               f"'gen.lstm.W' is not finite\n")

    def test_conditioned_inf_weight_exit_2(self, price_csv, run_dir,
                                           tmp_path, capsys):
        doc = self._with_inf_noise_column(
            json.loads((run_dir / "checkpoint.json").read_text()))
        self._generate_from(doc, price_csv, tmp_path, capsys, "conditioned",
                            "params: block 'gen.lstm.W'")

    def _generate_from_nan_lstm(self, price_csv, run_dir, tmp_path, capsys,
                                mode):
        doc = json.loads((run_dir / "checkpoint.json").read_text())
        shape = doc["params"]["gen.lstm.W"]["shape"]
        doc["params"]["gen.lstm.W"] = _block(shape, np.nan)
        self._generate_from(doc, price_csv, tmp_path, capsys, mode,
                            "params: block 'gen.lstm.W'")

    def test_recursive_non_finite_state_exit_2(self, price_csv, run_dir,
                                               tmp_path, capsys):
        self._generate_from_nan_lstm(price_csv, run_dir, tmp_path, capsys,
                                     "recursive")

    def test_conditioned_non_finite_state_exit_2(self, price_csv, run_dir,
                                                 tmp_path, capsys):
        self._generate_from_nan_lstm(price_csv, run_dir, tmp_path, capsys,
                                     "conditioned")

    def test_nan_adam_moment_exit_2(self, price_csv, run_dir, tmp_path,
                                    capsys):
        # the moments feed no synthesis, so only the load can refuse them
        doc = json.loads((run_dir / "checkpoint.json").read_text())
        shape = doc["adam_g"]["m"]["gen.lstm.W"]["shape"]
        doc["adam_g"]["m"]["gen.lstm.W"] = _block(shape, np.nan)
        self._generate_from(doc, price_csv, tmp_path, capsys, "conditioned",
                            "adam_g.m: block 'gen.lstm.W'")

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
    elif case == "rng_state_garbage":
        doc["rng_state"] = "garbage"
    elif case == "rng_state_empty":
        doc["rng_state"] = {}
    elif case == "rng_state_mt19937":
        state = np.random.MT19937(0).state
        state["state"]["key"] = state["state"]["key"].tolist()
        doc["rng_state"] = state
    else:
        raise ValueError(case)


class TestCheckpointValidation:
    """generate on a damaged checkpoint: exit 2, a message, no traceback."""

    @pytest.mark.parametrize("case", [
        "foreign_format", "version_1", "version_3", "missing_top_key",
        "missing_config_key", "missing_block_field", "param_name",
        "param_shape", "adam_m_name", "adam_v_shape", "rng_state_garbage",
        "rng_state_empty", "rng_state_mt19937"])
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
        if case.startswith("rng_state"):
            assert "rng_state" in err

    def test_not_json_exit_2(self, price_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("this is not json {")
        rc = main(["generate", "--checkpoint", str(bad), "--input",
                   str(price_csv), "--out", str(tmp_path / "g.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err

    def test_deeply_nested_json_exit_2(self, price_csv, tmp_path, capsys):
        # json.load raises RecursionError, not ValueError, on this
        bad = tmp_path / "bad.json"
        bad.write_text('{"a": ' * 200000 + "1" + "}" * 200000)
        rc = main(["generate", "--checkpoint", str(bad), "--input",
                   str(price_csv), "--out", str(tmp_path / "g.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:") and "not a JSON file" in err


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


    @pytest.mark.parametrize("column", ["real_close", "generated_close"])
    @pytest.mark.parametrize("cell, reason", [
        ("abc", "'abc' is not a number"),
        ("", "'' is not a number"),
        (None, "'' is not a number"),  # a short row
        ("nan", "'nan' is not finite"),
        ("inf", "'inf' is not finite"),
        ("-inf", "'-inf' is not finite"),
    ])
    def test_bad_cell_exit_2(self, tmp_path, capsys, column, cell, reason):
        rows = [["t0", "100.0", "100.5"], ["t1", "101.0", "100.9"],
                ["t2", "102.0", "101.7"]]
        if cell is None:  # a short row ends before generated_close
            rows[1] = rows[1][:2] if column == "generated_close" else ["t1"]
        else:
            rows[1][1 if column == "real_close" else 2] = cell
        gen_csv = tmp_path / "g.csv"
        gen_csv.write_text("timestamp,real_close,generated_close\n"
                           + "".join(",".join(r) + "\n" for r in rows))
        rc = main(["evaluate", "--input", str(gen_csv),
                   "--out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert f"data row 2: {column} {reason}" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("real, fake, message", [
        # finite values whose spread overflows float64
        ([1e308, -1e308, 1e308], [1.0, 2.0, 3.0],
         "the spread of real_close overflows float64"),
        ([1.0, 2.0, 3.0], [1e308, -1e308, 1e308],
         "the spread of generated_close overflows float64"),
        ([1.0], [1.0], "real_close needs at least 2 values, got 1"),
        ([1.0, 2.0], [3.0, 3.0], "generated_close has zero variance"),
        # each column's spread is finite, Pearson's product of the two not
        ([1e150, -1e150, 0.0], [-1e150, 1e150, 0.0],
         "real_close and generated_close are too far apart to compare in "
         "float64 (overflow encountered in")],
        ids=["real-spread", "generated-spread", "one-row", "constant",
             "together"])
    def test_unusable_column_exit_2(self, tmp_path, capsys, real, fake,
                                    message):
        gen_csv = tmp_path / "g.csv"
        gen_csv.write_text("timestamp,real_close,generated_close\n" + "".join(
            f"t{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(zip(real, fake))))
        rc = main(["evaluate", "--input", str(gen_csv),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {gen_csv}: {message}")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("rows", [
        "t0,1e308,1.0\nt1,-1e308,2.0\nt2,1e308,3.0\n", "t0,1.0,1.0\n"],
        ids=["real-spread", "one-row"])
    def test_unusable_column_prints_only_the_message(self, tmp_path, rows):
        gen_csv = tmp_path / "g.csv"
        gen_csv.write_text("timestamp,real_close,generated_close\n" + rows)
        proc = run_cli("evaluate", "--input", gen_csv,
                       "--out", tmp_path / "m.json")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"data error: {gen_csv}: ")
        assert "real_close" in lines[0]

    def test_blank_line_is_not_a_data_row(self, tmp_path, capsys):
        gen_csv = tmp_path / "g.csv"
        gen_csv.write_text("timestamp,real_close,generated_close\n"
                           "t0,100.0,100.5\n\nt1,101.0,x\n")
        rc = main(["evaluate", "--input", str(gen_csv),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "data row 2: generated_close 'x' is not a number" in \
            capsys.readouterr().err


@given(csv_text(["timestamp", "real_close", "generated_close", "x"],
                ("real_close", "generated_close")), st.booleans())
@settings(max_examples=300, deadline=None)
def test_read_generated_csv_matches_dict_reader(text, bom):
    """`data.read_floats` gives what one DictReader dict per row gave:
    bit-equal columns, or the same error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "generated.csv"
        path.write_bytes(BOM * bom + text.encode("utf-8"))
        got = outcome(lambda p: data.read_floats(
            p, ("real_close", "generated_close")), path)
        want = outcome(dict_read_generated_csv, path)
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got == want
    else:
        assert all(same_bits(a, b) for a, b in zip(got[1], want[1]))


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

    @pytest.mark.parametrize("window", ["0", "-1", "x"])
    def test_window_below_one_exit_4(self, tmp_path, capsys, window):
        gen_csv = tmp_path / "g.csv"
        gen_csv.write_text("timestamp,real_close,generated_close\nt0,1,1\n")
        with pytest.raises(SystemExit) as exc:
            main(["plot", "--input", str(gen_csv), "--out",
                  str(tmp_path / "p"), "--window", window])
        assert exc.value.code == 4
        assert "--window" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("cell", ["abc", "", "nan", "inf"])
    def test_non_finite_loss_exit_2(self, tmp_path, capsys, cell):
        losses = tmp_path / "losses.csv"
        losses.write_text(f"epoch,loss_d,loss_g\n1,0.7,0.7\n2,{cell},0.6\n")
        out = tmp_path / "plots"
        rc = main(["plot", "--input", str(losses), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        reason = "not finite" if cell in ("nan", "inf") else "not a number"
        assert err == f"data error: {losses} data row 2: loss_d '{cell}' " \
                      f"is {reason}\n"
        assert not out.exists()

    def test_short_loss_row_exit_2(self, tmp_path, capsys):
        losses = tmp_path / "losses.csv"
        losses.write_text("epoch,loss_d,loss_g\n1,0.7,0.7\n2,0.6\n")
        rc = main(["plot", "--input", str(losses), "--out",
                   str(tmp_path / "plots")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert f"{losses} data row 2: loss_g '' is not a number" in err
        assert not (tmp_path / "plots").exists()

    def test_extra_loss_cells_are_ignored(self, tmp_path):
        """As in every CSV the commands read: cells past the header's
        width are ignored."""
        plots = []
        for name, row in (("plain", "2,0.6,0.6"), ("long", "2,0.6,0.6,0.6")):
            losses = tmp_path / f"{name}.csv"
            losses.write_text(f"epoch,loss_d,loss_g\n1,0.7,0.7\n{row}\n")
            out = tmp_path / name
            assert main(["plot", "--input", str(losses),
                         "--out", str(out)]) == 0
            plots.append((out / "losses.svg").read_bytes())
        assert plots[0] == plots[1]

    def test_empty_input_exit_2(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("timestamp,real_close,generated_close\n")
        rc = main(["plot", "--input", str(empty), "--out", str(tmp_path / "p")])
        assert rc == 2
        assert not (tmp_path / "p").exists()


class TestGradcheckCommand:
    def test_default_seed_passes(self, capsys):
        assert main(["gradcheck", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "max relative error" in out

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_exit_4(self, capsys, trials):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--trials", trials])
        assert exc.value.code == 4
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "--trials" in captured.err

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


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet exports write it, is
    skipped: each command writes what it writes for the file without it.
    Both runs read the same path, so the manifest's input matches."""

    @staticmethod
    def run_both(src, body, argv, outputs, tmp_path):
        written = []
        for name, prefix in (("plain", b""), ("marked", BOM)):
            src.write_bytes(prefix + body)
            out = tmp_path / name
            out.mkdir(parents=True)
            assert main([a.format(out=out) for a in argv]) == 0
            written.append([(out / f).read_bytes() for f in outputs])
        assert written[0] == written[1]

    def test_analyze(self, price_csv, tmp_path):
        self.run_both(price_csv, price_csv.read_bytes(),
                      ["analyze", "--input", str(price_csv),
                       "--out", "{out}/vol.csv"], ["vol.csv"], tmp_path)

    def test_train(self, price_csv, tmp_path):
        body = price_csv.read_bytes() + b"not-a-time,1,2,1,1.5\n"
        self.run_both(price_csv, body, train_args(price_csv, "{out}"),
                      ["checkpoint.json", "losses.csv", "rejects.csv",
                       "manifest.json"], tmp_path)

    def test_evaluate_and_plot(self, tmp_path):
        src = tmp_path / "generated.csv"
        body = b"timestamp,real_close,generated_close\n" + b"".join(
            b"t%d,%d.5,%d.25\n" % (i, 100 + i % 7, 101 - i % 5)
            for i in range(30))
        self.run_both(src, body, ["evaluate", "--input", str(src),
                                  "--out", "{out}/m.json"], ["m.json"],
                      tmp_path / "evaluate")
        self.run_both(src, body, ["plot", "--input", str(src),
                                  "--out", "{out}"], ["overlay.svg"],
                      tmp_path / "plot")


class TestUndecodableOrOversizedCsv:
    """A CSV with a byte that is not UTF-8, or with a cell over `csv`'s
    131,072-character field limit, is a data error naming the file, in
    every command that reads one: exit 2, no traceback."""

    # a header, a good row, and a third row up to its last cell
    PREFIXES = {"prices": b"timestamp,open,high,low,close\n"
                          b"2022-03-21T00:00:00Z,1,2,1,1.5\n"
                          b"2022-03-21T00:01:00Z,1,2,1,",
                "generated": b"timestamp,real_close,generated_close\n"
                             b"t0,1.5,1.25\nt1,1,",
                "losses": b"epoch,loss_d,loss_g\n1,0.69,0.69\n2,0.69,"}
    FAULTS = {"not_utf8": b"1.\xff\xfe5",
              "oversized_cell": b"1" * 131_073}
    COMMANDS = {
        "analyze": ("prices", ["analyze", "--input", "{src}",
                               "--out", "{tmp}/v.csv"]),
        "train": ("prices", ["train", "--input", "{src}", "--out",
                             "{tmp}/run", "--epochs", "1"]),
        "generate": ("prices", ["generate", "--checkpoint", "{ckpt}",
                                "--input", "{src}", "--out", "{tmp}/g.csv"]),
        "evaluate": ("generated", ["evaluate", "--input", "{src}",
                                   "--out", "{tmp}/m.json"]),
        "plot": ("generated", ["plot", "--input", "{src}",
                               "--out", "{tmp}/plots"]),
        "plot_losses": ("losses", ["plot", "--input", "{src}",
                                   "--out", "{tmp}/plots"]),
    }

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("ckpt")
        src = tmp / "prices.csv"
        start = datetime(2022, 3, 21, tzinfo=timezone.utc)
        src.write_text("timestamp,close\n" + "".join(
            f"{(start + timedelta(minutes=i)).isoformat()},{100 + i % 7}\n"
            for i in range(40)))
        assert main(train_args(src, tmp / "run")) == 0
        return tmp / "run" / "checkpoint.json"

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_exit_2(self, tmp_path, capsys, checkpoint, command, fault):
        kind, argv = self.COMMANDS[command]
        src = tmp_path / "in.csv"
        src.write_bytes(self.PREFIXES[kind] + self.FAULTS[fault] + b"\n")
        rc = main([a.format(src=src, tmp=tmp_path, ckpt=checkpoint)
                   for a in argv])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "Traceback" not in err
        assert err.startswith("data error:")
        assert str(src) in err


NUMBER_CELLS = st.sampled_from([b"1", b"2.5", b"-0.5", b"1e3", b"0", b"7"])
ODD_CELLS = st.one_of(st.sampled_from([b"", b"nan", b"x", b'"', b"\xff",
                                       b"\x00", b"\r", b"1e999"]),
                      st.binary(max_size=3))
# rows of 2 to 4 cells, one cell in 2 or in 30 an odd one
BYTE_ROWS = st.sampled_from([2, 30]).flatmap(lambda odds: st.lists(
    st.lists(st.integers(1, odds).map(lambda i: i > 1).flatmap(
        lambda number: NUMBER_CELLS if number else ODD_CELLS),
        min_size=2, max_size=4)
    .map(b",".join), max_size=8).map(b"\n".join))


@given(st.sampled_from([b"", b"timestamp,real_close,generated_close\n",
                        b"epoch,loss_d,loss_g\n"]),
       st.one_of(st.binary(max_size=64), BYTE_ROWS),
       st.sampled_from(["evaluate", "plot"]))
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes_exit_0_or_2(header, body, command):
    """Any bytes after a header of either kind, or none, make `evaluate`
    and `plot` exit 0 or 2; an exception escaping `main` fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in.csv"
        src.write_bytes(header + body)
        out = Path(tmp) / ("m.json" if command == "evaluate" else "plots")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main([command, "--input", str(src), "--out", str(out)])
    assert rc in (0, 2), err.getvalue()
    assert rc == 0 or err.getvalue().startswith("data error:")


def _json_object(raw: bytes) -> bool:
    try:
        return isinstance(json.loads(raw.decode("utf-8")), dict)
    except (ValueError, RecursionError):  # UnicodeDecodeError included
        return False


@given(st.binary(max_size=64), st.sampled_from(["generate", "train"]))
@settings(max_examples=100, deadline=None)
def test_garbage_checkpoint_or_config_exit_2_or_4(garbage, command):
    """Bytes given as `generate --checkpoint` or as `train --config` make
    `main` exit 2 or 4 with one line on stderr. Bytes that decode to a
    JSON object are left out: as a config they may well train."""
    assume(command == "generate" or not _json_object(garbage))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        prices, given_file = tmp / "prices.csv", tmp / "given"
        prices.write_text("timestamp,close\n" + "".join(
            f"2022-03-21T00:{i:02d}:00Z,{100 + i % 7}\n" for i in range(40)))
        given_file.write_bytes(garbage)
        if command == "generate":
            argv = ["generate", "--checkpoint", given_file, "--input", prices,
                    "--out", tmp / "g.csv"]
        else:
            argv = train_args(prices, tmp / "run", config=given_file)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main([str(a) for a in argv])
    assert rc in (2, 4), err.getvalue()
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


class TestSeedEnvFallback:
    def test_tsgan_seed_env(self, price_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("TSGAN_SEED", "99")
        out = tmp_path / "run"
        main(["train", "--input", str(price_csv), "--out", str(out),
              "--epochs", "1", "--cond-dim", "8", "--batch-size", "16",
              "--hidden", "8"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 99

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_set_seed_ignores_bad_env(self, price_csv, tmp_path, monkeypatch,
                                      source):
        monkeypatch.setenv("TSGAN_SEED", "abc")
        out = tmp_path / "run"
        argv = train_args(price_csv, out)[:-2]  # without its --seed 7
        if source == "flag":
            argv += ["--seed", "3"]
        else:
            config = tmp_path / "config.json"
            config.write_text('{"seed": 3}')
            argv += ["--config", str(config)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3

    @pytest.mark.parametrize("command, flag, env", [
        pytest.param("generate", "-1", None, id="generate-flag"),
        pytest.param("generate", None, "-3", id="generate-env"),
        pytest.param("gradcheck", "-1", None, id="gradcheck-flag"),
        pytest.param("train", "-1", None, id="train-flag"),
        pytest.param("train", None, "-3", id="train-env")])
    def test_negative_seed_exit_2(self, price_csv, tmp_path, capsys,
                                  monkeypatch, command, flag, env):
        run = tmp_path / "run"
        assert main(train_args(price_csv, run)) == 0
        out = tmp_path / "out"
        argv = {"generate": ["--checkpoint", str(run / "checkpoint.json"),
                             "--input", str(price_csv), "--out", str(out)],
                "gradcheck": ["--trials", "1"],
                "train": ["--input", str(price_csv), "--out", str(out)]}
        if env is not None:
            monkeypatch.setenv("TSGAN_SEED", env)
        capsys.readouterr()
        rc = main([command, *argv[command],
                   *(["--seed", flag] if flag is not None else [])])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("data error:")
        assert "seed" in captured.err and "Traceback" not in captured.err
        assert "PASS" not in captured.out and not out.exists()


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
