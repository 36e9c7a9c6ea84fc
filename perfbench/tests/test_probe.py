"""The probe rescaling and the aggregation are computed as documented, and
the metric lists agree with BENCHMARK.json."""

import json
from pathlib import Path

import pytest

import inputs
import layers
import probe
import run
import spans
from probe import Sample
from session import OpFailed, Session

ROOT = Path(__file__).resolve().parents[2]


def test_rescale_uses_the_mean_of_both_probes():
    assert probe.rescale(2.0, 0.010, 0.030) == pytest.approx(2.0 * probe.P_NOM_S / 0.020)
    assert Sample(2.0, 0.010, 0.030).scaled_s == probe.rescale(2.0, 0.010, 0.030)
    # on a machine exactly as fast as nominal, scaled equals raw
    assert probe.rescale(1.5, probe.P_NOM_S, probe.P_NOM_S) == pytest.approx(1.5)


def test_timed_brackets_the_call_with_probes():
    result, sample = probe.timed(sum, [1, 2, 3])
    assert result == 6
    assert sample.raw_s >= 0
    assert sample.probe_before_s > 0 and sample.probe_after_s > 0


def test_totals_sum_per_key_medians():
    s = Session(reference={})
    p = probe.P_NOM_S
    for raw in (1.0, 3.0, 2.0):
        s.samples[("run_s", "in0/run", False)].append(Sample(raw, p, p))
    for raw in (10.0, 30.0):
        s.samples[("run_s", "in1/run", False)].append(Sample(raw, 2 * p, 2 * p))
    t = s.totals("run_s")
    assert t["raw"] == pytest.approx(2.0 + 20.0)
    assert t["scaled"] == pytest.approx(2.0 + 10.0)
    assert t["n"] == 2


def test_failures_are_counted_not_raised():
    s = Session(reference={"k": {"ok": True, "min_margin": 1.0, "scale": 1.0}})
    s.op(None, "k", lambda: 1, check=lambda r: s.match("k", {"ok": False, "min_margin": 1.0,
                                                               "scale": 1.0}))
    with pytest.raises(OpFailed):
        s.op(None, "boom", lambda: 1 / 0)
    assert s.attempted == 2
    assert [key for key, _ in s.failures] == ["k", "boom"]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.INPUTS)


def test_inputs_depend_only_on_the_seed_variant():
    for make in inputs.INPUTS.values():
        assert make(5) == make(5)
        assert make(5) == make(5 + inputs.N_VARIANTS)
        assert make(5) != make(6)


def test_spans_nest_and_self_time_subtracts_children():
    t = spans.Tracer()
    with t.span("bench.cycle", "cycle0/in0"):
        with t.span("estimates.check_global", "cycle0/in0"):
            pass
    assert [s["parent"] for s in t.spans] == [None, 0]
    fake = [
        {"id": 0, "name": "bench.cycle", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "estimates.check_global", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "persistence.save_run", "parent": 0, "start": 5.0, "end": 7.0},
    ]
    assert spans.self_times(fake) == {"bench": 5.0, "estimates": 3.0, "persistence": 2.0}
