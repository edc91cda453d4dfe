"""Tests of the benchmark itself.

Run from the root of the repository: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cvmdi  # noqa: E402
import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from cvmdi import cli, keyrate  # noqa: E402
from cvmdi.protocol import ChannelParams, DetectorParams, Scenario  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def reference_scenario(**kw) -> Scenario:
    return Scenario(v_a=40.0, v_b=40.0, channel_a=ChannelParams(0.0, 0.2, 0.002),
                    channel_b=ChannelParams(0.0, 0.2, 0.002), **kw)


@pytest.mark.parametrize("name", ["figures", "oracle", "cli"])
def test_same_seed_same_inputs(name, tmp_path):
    def inputs(seed):
        w = bench.make_workload(name, seed, tmp_path)
        return repr([w.next_input() for _ in range(30)])

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_self_time_arithmetic():
    spans = [
        ["bench.item", "bench", 0, 100, -1, 1, None],
        ["keyrate.sweep", "keyrate", 10, 90, 0, 1, None],
        ["keyrate.point", "keyrate", 20, 50, 1, 1, None],
        ["kernels", "kernels", 25, 45, 2, 1, 3],
        ["keyrate.point", "keyrate", 55, 60, 1, 1, None],
    ]
    assert tr.self_times(spans) == [20, 45, 10, 20, 5]
    m = tr.layer_metrics(spans, items=1)
    assert m["keyrate.self_s"] == pytest.approx(60e-9)
    assert m["kernels.ns_per_point"] == pytest.approx(20 / 3)
    assert m["keyrate.point.calls"] == 2
    assert m["trace.accounted"] == pytest.approx(0.8)


def test_sweep_counts_and_self_times_are_exact():
    t = tr.Tracer()
    t.install()
    try:
        t.run_item(1, keyrate.sweep_symmetric, reference_scenario(), np.linspace(0.0, 5.0, 51))
    finally:
        t.uninstall()
    m = tr.layer_metrics(t.spans, items=1)
    searches = m["keyrate.search.calls"]
    assert searches == 1
    # 51 grid points, then the evaluations of the range search
    assert m["keyrate.point.calls"] == 51 + m["keyrate.search.evals_per_call"] * searches
    # each secret_key_rate evaluates the mutual information and the Holevo bound
    assert m["kernels.calls"] == 2 * m["keyrate.point.calls"]
    root = next(s for s in t.spans if s[tr.NAME] == "bench.item")
    assert sum(tr.self_times(t.spans)) == root[tr.END] - root[tr.START]


def test_wraps_every_namespace_and_restores():
    original = keyrate.secret_key_rate
    t = tr.Tracer()
    t.install()
    try:
        for namespace in (keyrate, cli, cvmdi):
            assert namespace.secret_key_rate.__wrapped_by_tracer__ is original
    finally:
        t.uninstall()
    assert keyrate.secret_key_rate is original and cli.secret_key_rate is original
    assert cvmdi.secret_key_rate is original


def test_absent_function_is_recorded(monkeypatch):
    monkeypatch.delattr(keyrate, "min_detector_efficiency")
    t = tr.Tracer()
    t.install()
    t.uninstall()
    assert "keyrate.search:min_detector_efficiency" in t.absent


def test_times_scale_to_the_reference_speed():
    # the second half of the items ran at half speed: twice the time, half the scale
    items = [(0.02, 0.5, None)] * 8 + [(0.04, 0.25, None)] * 8
    setups = [(0.3, 0.5, 0.012), (0.6, 0.25, 0.024), (0.3, 0.5, 0.012)]
    scaled = bench.timing_metrics(items, setups, 8, scaled=True)
    assert scaled == pytest.approx({"setup_s": 0.15, "items_per_s": 100.0, "item_p50_ms": 10.0})
    raw = bench.timing_metrics(items, setups, 8, scaled=False)
    assert raw == pytest.approx({"setup_s": 0.3, "items_per_s": 37.5, "item_p50_ms": 30.0})


def test_injected_wrong_answer_raises_error_rate(monkeypatch):
    figures = wl.Figures(0)
    inp = (reference_scenario(), 3)
    run = bench.Run(figures)
    run.item(inp)
    assert run.failures == []

    right = keyrate.secret_key_rate

    def wrong(scenario):
        point = right(scenario)
        return replace(point, k=point.k + 1e-3)

    monkeypatch.setattr(keyrate, "secret_key_rate", wrong)
    run.item(inp)
    assert len(run.failures) == 1
    assert run.result() == {"correct": False, "attempted": 2, "failed": 1}


def test_known_defect_item_is_set_aside():
    class Stub:
        def run(self, inp):
            return inp

        def check(self, inp, out):
            return [out]

    run = bench.Run(Stub())
    assert run.item("endpoint 0.504 [unchecked first bracket]")[3] is False
    assert run.result() == {"correct": True, "attempted": 0, "failed": 0}
    assert run.known["range under 0.5 km reported from the unchecked first bracket"] == 1
    run.item("something new")
    assert run.result() == {"correct": False, "attempted": 1, "failed": 1}


def test_oracle_export_parse_back(tmp_path):
    oracle = wl.Oracle(0, tmp_path)
    inp = (wl.Oracle.scenario(oracle.rng), 5, 20_000, 1_000, 1)
    assert oracle.export_failures(inp, oracle.run(inp)[1]) == []
    batch = oracle.run(inp)[1]
    path = oracle._path(inp)
    lines = path.read_text().splitlines()
    lines[-1] = "9" + lines[-1]
    path.write_text("\n".join(lines) + "\n")
    assert oracle.export_failures(inp, batch)


def test_high_v_oracle_failures_are_the_known_defect(tmp_path):
    from cvmdi import oracle

    s = replace(wl.Oracle.scenario(wl.Oracle(0, tmp_path).rng), v_a=1e5, v_b=1e5)
    suites = oracle.run_oracle_suites(s, 20_000, 9)
    log = []
    fails = wl.suite_failures(oracle, s, 20_000, 9, suites, log)
    assert fails and wl.known_defect(fails)
    assert len(log) == 1 and "z(eps')" in log[0]


def test_high_v_failure_beyond_the_trend_is_new():
    from cvmdi.oracle import SuiteResult

    def estimation(detail):
        return SuiteResult("parameter_estimation_roundtrip", False, detail)

    # r = V/sqrt(n) = 100
    assert wl.within_high_v_trend(estimation("z(T)=1.20 z(eps')=60.00"), 1e5, 10**6)
    assert not wl.within_high_v_trend(estimation("z(T)=4.20 z(eps')=60.00"), 1e5, 10**6)
    assert not wl.within_high_v_trend(estimation("z(T)=1.20 z(eps')=600.00"), 1e5, 10**6)
    # at r = 2 the recorded trend allows z(eps') up to 4.6 * 2
    assert not wl.within_high_v_trend(estimation("z(T)=1.20 z(eps')=12.00"), 2e3, 10**6)
    rescaling = SuiteResult("measurement_rescaling_invariance", False, "|dK_max|=3.00e-02")
    assert wl.within_high_v_trend(rescaling, 1e5, 10**6)
    assert not wl.within_high_v_trend(rescaling, 1e4, 10**6)
    assert not wl.within_high_v_trend(SuiteResult("pm_eb_equivalence", False, "max|z|=5.00"),
                                      1e5, 10**6)


def test_oracle_failure_is_retested_once():
    from types import SimpleNamespace

    from cvmdi.oracle import SuiteResult

    s = replace(reference_scenario(), v_a=1e5, v_b=1e5)

    def estimation(detail):
        return SuiteResult("parameter_estimation_roundtrip", False, detail)

    def failures(first, retest):
        stub = SimpleNamespace(run_oracle_suites=lambda *args: [retest])
        return wl.suite_failures(stub, s, 10**6, 1, [first], [])

    tail = estimation("z(T)=4.50 z(eps')=60.00")
    passed = SuiteResult("parameter_estimation_roundtrip", True, "z(T)=1.00 z(eps')=1.00")
    assert failures(tail, passed) == []
    assert wl.known_defect(failures(tail, estimation("z(T)=1.00 z(eps')=60.00")))
    fails = failures(tail, estimation("z(T)=4.50 z(eps')=60.00"))
    assert fails and wl.known_defect(fails) is None


def test_cli_tampered_csv_fails(tmp_path):
    cli_wl = wl.Cli(0, ROOT, tmp_path)
    inp = next(i for i in iter(cli_wl.next_input, None) if i["kind"] == "sweep symmetric")
    assert cli_wl.check(inp, cli_wl.run(inp)) == []
    proc = cli_wl.run(inp)
    lines = inp["out"].read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    axis, k, label = lines[row].split(",")
    lines[row] = ",".join([axis, repr(float(k) * 1.5 + 1e-3), label])
    inp["out"].write_text("\n".join(lines) + "\n")
    assert cli_wl.check(inp, proc)


def test_inputs_stay_clear_of_the_probed_defects(tmp_path):
    cli_wl = wl.Cli(0, ROOT, tmp_path)
    inputs = [cli_wl.next_input() for _ in range(40)]
    assert all("scenario.gain_mode=fixed" in i["sets"] for i in inputs if i["kind"] == "keyrate")
    oracle = wl.Oracle(0, tmp_path)
    assert max(oracle.next_input()[0].v_a for _ in range(200)) <= 10 ** wl.ORACLE_V_EXP[1]


@pytest.mark.parametrize("name", ["oracle", "cli"])
def test_probes_show_the_known_defects(name, tmp_path):
    w = bench.make_workload(name, 0, tmp_path)
    run = bench.Run(w)
    run.probe()
    assert run.result() == {"correct": True, "attempted": 0, "failed": 0}
    assert run.known["oracle estimation/rescaling suite fails at high V"] == 1
    assert run.known["keyrate g column is a numpy repr"] == (name == "cli")


def test_cli_keyrate_values_are_checked_past_the_numpy_repr(tmp_path):
    cli_wl = wl.Cli(0, ROOT, tmp_path)
    inp = cli_wl.probes()[0]
    proc = cli_wl.run(inp)
    fails = cli_wl.check(inp, proc)
    assert fails and wl.known_defect(fails)  # g=np.float64(...) under optimal gain
    proc = cli_wl.run(inp)
    header, row = inp["out"].read_text().splitlines()[-2:]
    k, rest = row.split(",", 1)
    inp["out"].write_text(f"{header}\n{float(k) + 1e-3!r},{rest}\n")
    fails = cli_wl.check(inp, proc)
    assert fails and wl.known_defect(fails) is None


def test_known_defect_classification():
    assert wl.known_defect(["keyrate: g cell 'np.float64(1.5)' does not parse"])
    assert wl.known_defect(["endpoint 0.504 ... [unchecked first bracket]"])
    assert wl.known_defect(["keyrate: g cell 'np.float64(1.5)'", "something new"]) is None
    assert wl.known_defect(["K=1.0 differs from the generic path at g=np.float64(1.5)"]) is None
    assert wl.known_defect([]) is None


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_spec(trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "figures",
                           "--seed", "1", "--seconds", "0.3", "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
