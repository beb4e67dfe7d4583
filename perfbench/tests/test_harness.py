"""Tests of the benchmark harness itself (not of tsgan).

    python3 -m pytest perfbench/tests -q
"""

import json

import numpy as np
import pytest

import checks
import inputs
import reference
import worker
from tracing import Span, Tracer, self_times


def _span(sid, start, end, parent):
    return Span(sid, f"s{sid}", start, end, parent, 0)


def test_self_times_of_a_synthetic_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has [6, 7]
    spans = [_span(0, 0.0, 10.0, -1), _span(1, 1.0, 4.0, 0),
             _span(2, 5.0, 9.0, 0), _span(3, 6.0, 7.0, 2),
             _span(4, 12.0, 13.0, -1)]
    got = self_times(spans)
    np.testing.assert_allclose(got, [3.0, 3.0, 3.0, 1.0, 1.0])
    # self times of a tree add up to its roots' wall time
    assert got.sum() == pytest.approx(10.0 + 1.0)


def test_tracer_spans_nest_and_self_times_cover_the_command():
    tracer = Tracer()
    inner = tracer._wrap("inner", lambda: sum(range(1000)))
    outer = tracer._wrap("outer", lambda: [inner() for _ in range(3)])
    outer()                           # inactive: records nothing
    assert tracer.spans == []
    with tracer.command("cmd"):
        outer()
    with tracer.command("cmd"):
        inner()
    names = [(s.name, s.parent, s.cmd) for s in tracer.spans]
    assert names == [("cmd", -1, 0), ("outer", 0, 0), ("inner", 1, 0),
                     ("inner", 1, 0), ("inner", 1, 0),
                     ("cmd", -1, 1), ("inner", 5, 1)]
    roots = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    assert self_times(tracer.spans).sum() == pytest.approx(roots, rel=1e-9)
    assert all(t >= 0 for t in self_times(tracer.spans))


def test_wrappers_are_installed_at_every_import_site_and_restored():
    import tsgan.cli
    import tsgan.gan
    import tsgan.gradcheck
    import tsgan.nn

    originals = {"lstm_forward": tsgan.nn.lstm_forward,
                 "train": tsgan.gan.train,
                 "cmd_train": tsgan.cli.cmd_train,
                 "forward": tsgan.gan.Generator.forward}
    tracer = Tracer()
    tracer.install(["nn.lstm_forward", "gan.train", "cli.cmd_train",
                    "gan.Generator.forward"])
    try:
        for site in (tsgan.nn, tsgan.gan, tsgan.gradcheck):
            assert site.lstm_forward is not originals["lstm_forward"]
            assert site.lstm_forward.__wrapped__ is originals["lstm_forward"]
        assert tsgan.cli.train is not originals["train"]
        assert tsgan.gan.train is tsgan.cli.train
        assert tsgan.cli.cmd_train is not originals["cmd_train"]
        assert tsgan.cli.COMMANDS["train"] is tsgan.cli.cmd_train
        assert tsgan.gan.Generator.forward is not originals["forward"]
        with pytest.raises(RuntimeError):
            tracer.install(["nn.lstm_forward"])

        config = tsgan.gan.TrainConfig(condition_dim=5, hidden_size=4)
        gen = tsgan.gan.Generator(config, np.random.default_rng(0))
        with tracer.command("cmd"):
            gen.forward(np.zeros((3, 5)), np.zeros((3, config.noise_dim)))
        assert [(s.name, s.parent) for s in tracer.spans] == [
            ("cmd", -1), ("gan.Generator.forward", 0), ("nn.lstm_forward", 1)]
    finally:
        tracer.restore()
    for site in (tsgan.nn, tsgan.gan, tsgan.gradcheck):
        assert site.lstm_forward is originals["lstm_forward"]
    assert tsgan.gan.train is originals["train"]
    assert tsgan.cli.train is originals["train"]
    assert tsgan.cli.cmd_train is originals["cmd_train"]
    assert tsgan.cli.COMMANDS["train"] is originals["cmd_train"]
    assert tsgan.gan.Generator.__dict__["forward"] is originals["forward"]


def test_every_traced_name_resolves():
    tracer = Tracer()
    assert tracer.install(worker.LAYERS) == []
    tracer.restore()
    assert tracer._patches == []


def test_missing_names_and_failing_probes_do_not_break_the_program():
    import tsgan.nn

    tracer = Tracer(probes={"nn.global_norm": lambda a, kw, r: 1 / 0})
    assert tracer.install(["nn.no_such_function", "nosuchmodule.f",
                           "gan.Generator.no_such_method",
                           "nn.global_norm"]) == [
        "nn.no_such_function", "nosuchmodule.f", "gan.Generator.no_such_method"]
    try:
        with tracer.command("cmd"):
            assert tsgan.nn.global_norm([np.ones(4)]) == 2.0
    finally:
        tracer.restore()
    assert tracer.counters["nn.global_norm"] == {"probe_errors": 1}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(tmp_path, workload):
    a = inputs.build(workload, 3, tmp_path / "a")
    b = inputs.build(workload, 3, tmp_path / "b")
    c = inputs.build(workload, 4, tmp_path / "c")
    assert a == b
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name
    differs = [name for name in names if name.endswith(".csv") and
               (tmp_path / "a" / name).read_bytes()
               != (tmp_path / "c" / name).read_bytes()]
    assert differs, "another seed should change at least one input file"


def test_ingest_fault_plan_matches_what_tsgan_reads(tmp_path):
    from tsgan import data, metrics

    n = 6 * 1440
    body, expected, close, kept = inputs._ingest_rows(
        np.random.default_rng(5), n)
    path = tmp_path / "minutes.csv"
    path.write_text("timestamp,open,high,low,close\n" + "".join(body))
    assert expected["rows"] == n + expected["faults"]["duplicate"]
    assert all(count == round(share * n) for count, share in zip(
        expected["faults"].values(), inputs.FAULT_SHARES.values()))

    result = data.load_csv(path)
    series, dropped = data.clean(result.series)
    assert checks.ingest_counts(result, dropped, len(series), expected) == []

    days, pct = inputs.daily_profile(close, kept)
    profile = metrics.volatility_profile(series)
    assert profile.days == days
    np.testing.assert_allclose(profile.pct_changes, pct, rtol=1e-12)


def test_reference_metrics_agree_with_tsgan_evaluate(tmp_path):
    from tsgan import metrics, scaling

    rng = np.random.default_rng(0)
    real = np.round(rng.normal(100, 1, 500), 1)    # many ties
    fake = real + rng.normal(0, 0.3, 500)
    scaler = scaling.fit(real)
    report = {"original": metrics.evaluate(real, fake).to_dict(),
              "normalized": metrics.evaluate(
                  scaling.transform(real, scaler),
                  scaling.transform(fake, scaler), "normalized").to_dict()}
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(report))
    assert checks.evaluation(path, real, fake) == []
    report["original"]["spearman"] += 1e-6
    path.write_text(json.dumps(report))
    assert checks.evaluation(path, real, fake) != []


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == worker.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == worker.per_layer_units()


def test_each_step_is_timed_in_its_own_unit():
    ref = reference.REFERENCE_S
    # a step timed while the reference loop ran at half speed took half
    # as many reference seconds; an unscaled step keeps its seconds
    assert reference.scaled(3.0, 2 * ref) == pytest.approx(1.5)
    assert reference.scaled(3.0, ref) == pytest.approx(3.0)
    cycles = [{"walls": [("rec", 2.0, 2 * ref, 1.0), ("cond", 4.0, 2 * ref, 4.0)]},
              {"walls": [("rec", 1.0, ref, 1.0), ("cond", 2.0, ref, 2.0)]}]
    assert worker.rates(cycles, {"rec": 10, "cond": 8}) == \
        {"rec": 10.0, "cond": 3.0}
    assert worker.rates(cycles, {"rec": 10, "cond": 8}, raw=True) == \
        {"rec": 7.5, "cond": 3.0}
    assert [worker.cycle_s(c) for c in cycles] == [5.0, 3.0]
    assert [worker.cycle_s(c, raw=True) for c in cycles] == [6.0, 3.0]
    assert reference.reference_s() > 0
