"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = {"count", "bytes"}


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_latency(list(range(19))) is None
    assert run.tail_latency(list(range(20))) == (50.0, 9)
    pct, value = run.tail_latency(list(range(1000, 0, -1)))
    assert pct == 99.0 and value == 990
    assert sum(x > value for x in range(1, 1001)) == 10


def test_self_time_subtracts_children_only():
    S = tracing.Span
    spans = [S("root", 0.0, 10.0, -1, 0), S("a", 1.0, 4.0, 0, 0),
             S("a.inner", 2.0, 3.0, 1, 0), S("b", 5.0, 6.0, 0, 0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    times = tracing.layer_times(spans)
    assert times["a.busy_s"] == 3.0 and times["a.self_s"] == 2.0
    assert sum(tracing.self_times(spans)) == 10.0


def test_wrapped_internal_calls_nest_and_are_restored():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2  # reads the attribute at call time
    original = mod.inner
    tracer = tracing.Tracer()
    tracer.install([(mod, "outer", "m.outer", None), (mod, "inner", "m.inner", None)])
    assert tracer.run_instance(7, mod.outer, 1) == 4
    tracer.remove()
    assert mod.inner is original
    names = [(s.name, s.parent, s.instance) for s in tracer.spans]
    assert names == [("bench.instance", -1, 7), ("m.outer", 0, 7), ("m.inner", 1, 7)]
    assert tracer.counts == {"m.outer.calls": 1, "m.inner.calls": 1}


def test_timed_figures_take_each_instance_fastest_scaled_pass(monkeypatch):
    calls = []

    def solve(instance, ref):  # the first pass is slow, later ones fast
        calls.append(instance)
        time.sleep(0.02 if len(calls) <= 2 else 0.001)

    w = types.SimpleNamespace(name="fake", solve=solve)
    monkeypatch.setattr(run, "calibrate", lambda: run.CAL_REF_S)
    tally, _, values = run.timed_run(w, {}, ["a", "b"], 0.06, setup=(1.0, 1.0))
    assert tally.failed == 0 and tally.attempted == len(calls) >= 6
    assert 0.001 <= values["solve_p50_s"] < 0.01
    assert values["solves_per_s"] > 100

    # a calibration loop running at half the reference speed halves the times
    calls.clear()
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.CAL_REF_S)
    _, _, slow = run.timed_run(w, {}, ["a", "b"], 0.06, setup=(1.0, 1.0))
    assert 0.0005 <= slow["solve_p50_s"] < 0.005


def test_changed_reference_answer_is_a_failure():
    ref = workloads.load_reference()
    els = (-3, 2, 5)
    workloads.solve_swarm(els, ref)
    ref["ratio"]["{-3,2,5}"]["cycle"] = ref["ratio"]["{-3,2,5}"]["cycle"][::-1] + [0]
    with pytest.raises(workloads.WrongAnswer):
        workloads.solve_swarm(els, ref)


def test_independent_witness_check_rejects_a_gap():
    from domrat import GeneratorSet, PeriodicSet, domination_ratio

    ref = workloads.load_reference()
    gs = GeneratorSet((1, 3))
    cert = domination_ratio(gs)
    broken = types.SimpleNamespace(ratio=cert.ratio, cycle=cert.cycle, period=cert.period,
                                   witness=PeriodicSet(cert.period, [1]))
    with pytest.raises(workloads.WrongAnswer, match="does not dominate"):
        workloads.check_certificate(gs, broken, ref)


def test_inputs_depend_only_on_seed():
    import random

    for w in workloads.WORKLOADS.values():
        assert w.generate(random.Random(5)) == w.generate(random.Random(5))
        assert len(w.generate(random.Random(5))) >= w.trace_sample


def _traced(workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", ["ratio_swarm", "ratio_wide", "circulant_scan"])
def test_counts_repeat_exactly_across_runs_of_one_seed(workload):
    first, second = _traced(workload, 3), _traced(workload, 3)
    counts = [k for k, v in first.items() if v["unit"] in COUNT_UNITS]
    assert counts and all(isinstance(first[k]["value"], int) for k in counts)
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert set(first) == set(run.PER_LAYER)
