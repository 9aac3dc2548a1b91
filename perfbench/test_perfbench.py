"""Tests of the benchmark's own code.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import cli, workloads
from perfbench.tracing import Tracer, installed, self_times


def test_self_times_subtract_nested_and_sibling_children():
    # root [0, 100] holds a [10, 40] and its sibling b [50, 70]; a holds c [20, 30].
    names = np.array([0, 1, 1, 2], dtype=np.int32)  # root, a, b, c
    parent = np.array([-1, 0, 0, 1], dtype=np.int32)
    start = np.array([0, 10, 50, 20], dtype=np.int64)
    end = np.array([100, 40, 70, 30], dtype=np.int64)
    calls, own = self_times(names, parent, start, end, 3)
    assert calls.tolist() == [1, 2, 1]
    # root: 100 - 30 - 20; siblings a and b: (30 - 10) + 20; c: 10
    assert own.tolist() == [50.0, 40.0, 10.0]
    assert own.sum() == 100.0


class _Clock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 1
        return self.now


class _Layer:
    def outer(self, tick):
        return self.inner() + self.inner()

    def inner(self):
        return 1


class _SubLayer(_Layer):
    def inner(self):
        return 2


def test_installed_wrappers_record_parents_ticks_and_restore():
    original = (_Layer.outer, _Layer.inner, _SubLayer.inner)
    tracer = Tracer(clock=_Clock())
    seen = []

    def after(_tracer, result):
        seen.append(result)

    with installed(tracer, [(_Layer, "inner", "inner", after)], root=(_Layer, "outer", "outer", 1)):
        assert _SubLayer().outer(7) == 4
        assert _Layer().outer(8) == 2
    assert (_Layer.outer, _Layer.inner, _SubLayer.inner) == original
    assert seen == [2, 2, 1, 1]
    assert len(tracer) == 6
    assert list(tracer.parent) == [-1, 0, 0, -1, 3, 3]
    assert list(tracer.tick) == [7, 7, 7, 8, 8, 8]
    table = tracer.self_times()
    assert table["inner"][0] == 4
    assert table["outer"][0] == 2
    total = sum(ns for _, ns in table.values())
    roots = sum(e - s for e, s, p in zip(tracer.end, tracer.start, tracer.parent) if p < 0)
    assert total == roots


def test_p99_refuses_fewer_than_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="9 beyond"):
        cli.percentile(list(range(999)), 0.99)
    assert cli.percentile(list(range(1000)), 0.99) == 989
    assert cli.percentile(list(range(1000)), 0.50) == 499


def _tiny(monkeypatch, tmp_path, **changes):
    """A traced run of a 40-tick sensor workload, so main() is quick."""
    name = "sensor-amri-telemetry"
    small = dataclasses.replace(workloads.WORKLOADS[name], pass_ticks=40, **changes)
    monkeypatch.setitem(workloads.WORKLOADS, name, small)
    monkeypatch.setattr(cli, "SPAN_DIR", tmp_path)
    return ["--workload", name, "--seed", "17", "--seconds", "0.01", "--trace", "1"]


def test_fingerprint_mismatch_exits_non_zero(monkeypatch, tmp_path, capsys):
    argv = _tiny(monkeypatch, tmp_path)  # the 600-tick reference cannot match 40 ticks
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "!= reference" in err


def test_matching_fingerprint_passes_and_traced_run_adds_up(monkeypatch, tmp_path, capsys):
    setup = workloads.set_up(workloads.WORKLOADS["sensor-amri-telemetry"], 17, pass_ticks=40)
    reference = workloads.drive(setup.executor, setup.arrivals).fingerprint
    argv = _tiny(monkeypatch, tmp_path, reference=reference)
    assert cli.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(cli.PER_LAYER)
    assert abs(metrics["trace.coverage"] - 1.0) <= 0.05
    assert metrics["metrics.lookup.calls"] > 0 and metrics["slo.observe.calls"] > 0
    assert (tmp_path / "sensor-amri-telemetry.spans.npz").is_file()


def test_check_pass_flags_repeat_drift_and_death():
    workload = workloads.WORKLOADS["paper-amri"]
    fp = dict(workload.reference)
    result = workloads.PassResult(
        tick_ns=[],
        wall_ns=0,
        stats=None,
        executor=None,
        cost_spent=0.0,
        fingerprint=fp,
        unserved=0,
        attempted=1,
        failed=0,
        prefix=None,
    )
    assert workloads.check_pass(workload, 5, result, dict(fp)) == []
    changed = dict(fp, results=fp["results"] + 1)
    assert any("between passes" in e for e in workloads.check_pass(workload, 5, result, changed))
    result.fingerprint = dict(fp, died_at=12)
    assert any("died at tick 12" in e for e in workloads.check_pass(workload, 5, result, None))


def test_executors_get_memory_headroom_over_the_shipped_budget():
    for workload in workloads.WORKLOADS.values():
        setup = workloads.set_up(workload, workload.reference_seed, pass_ticks=1)
        shipped = setup.scenario.params.memory_budget
        assert setup.executor.meter.memory_budget == workloads.MEMORY_HEADROOM * shipped


def test_paper_amri_seed_3_reproduces_the_roadmap_baseline():
    workload = workloads.WORKLOADS["paper-amri"]
    setup = workloads.set_up(workload, workloads.BASELINE_SEED, pass_ticks=workloads.BASELINE_TICKS)
    result = workloads.drive(setup.executor, setup.arrivals)
    assert result.fingerprint["results"] == 4573
    assert result.fingerprint["source_tuples"] == 7200
    assert result.prefix == workloads.BASELINE


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == cli.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == cli.PER_LAYER
