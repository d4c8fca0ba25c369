"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import itertools
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def test_summarize_short_list_has_median_and_count_but_no_tail():
    out = stats.summarize([3.0, 1.0, 2.0, 5.0])
    assert out == {"n": 4, "median": 2.5}


def test_summarize_tail_needs_ten_samples_beyond_it():
    assert "tail" not in stats.summarize(list(range(99)))
    out = stats.summarize(list(range(100)))
    assert (out["n"], out["tail_pct"], out["tail"]) == (100, 90.0, 89)
    out = stats.summarize(list(range(1000)))
    assert (out["tail_pct"], out["tail"]) == (99.0, 989)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        stats.summarize([])


def test_failed_ratio():
    assert stats.failed_ratio(4, 1) == 0.25
    assert stats.failed_ratio(3, 0) == 0.0
    for attempted, failed in ((0, 0), (2, 3), (2, -1)):
        with pytest.raises(ValueError):
            stats.failed_ratio(attempted, failed)


def span(sid, name, start, end, parent=None, op=0, count=None):
    out = {"id": sid, "name": name, "op": op, "parent": parent,
           "start": start, "end": end}
    if count is not None:
        out["count"] = count
    return out


def test_self_time_subtracts_only_direct_children_clipped_to_parent():
    spans = [span(0, "a", 0.0, 10.0),
             span(1, "b", 1.0, 3.0, parent=0),
             span(2, "b", 2.0, 5.0, parent=0),      # overlaps its sibling
             span(3, "c", 2.5, 2.75, parent=2),     # grandchild of 0
             span(4, "b", 8.0, 12.0, parent=0)]     # runs past the parent
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(3.0 - 0.25)
    assert own[3] == pytest.approx(0.25)


def test_op_metrics_attribute_nested_spans_to_layers():
    spans = [span(0, "nonlinear.picard_solve", 0.0, 10.0, count=2),
             span(1, "linear.solve_full", 0.5, 4.0, parent=0),
             span(2, "linear.spline", 1.0, 2.0, parent=1, count=7),
             span(3, "dispersion.omega", 2.0, 2.5, parent=1, count=100),
             span(4, "linear.solve_full", 4.0, 9.0, parent=0),
             span(5, "regions.r_delta", 4.0, 4.5, parent=4),
             span(6, "oracle.oracle_solve", 9.0, 10.0, parent=0, count=4),
             span(7, "oracle.zgbtrs", 9.1, 9.2, parent=6),
             span(8, "oracle.zgbtrs", 9.3, 9.4, parent=6)]
    m = tracing.op_metrics(spans)
    assert (m["linear.solves"], m["nonlinear.solves"], m["nonlinear.iterations"]) == (2, 2, 2)
    assert (m["linear.spline_rows"], m["dispersion.k_evals"], m["regions.calls"]) == (7, 100, 1)
    assert m["linear.busy_s"] == pytest.approx(8.5)
    assert m["linear.self_s"] == pytest.approx(8.5 - 1.0 - 0.5 - 0.5)
    assert m["nonlinear.self_s"] == pytest.approx(10.0 - 8.5 - 1.0)
    assert (m["oracle.steps"], m["oracle.band_solves"], m["oracle.sweeps_per_step"]) == (4, 2, 0.5)
    assert m["oracle.self_s"] == pytest.approx(0.8)


def test_layer_metrics_split_setup_operations_and_checks():
    spans = [span(0, "presets.bump_profile", 0.0, 0.5, op=tracing.SETUP_OP),
             span(1, "transforms.sample", 0.1, 0.2, parent=0, op=tracing.SETUP_OP)]
    for op, dur in ((0, 1.0), (1, 3.0), (2, 2.0)):
        spans.append(span(len(spans), "linear.solve_full", 0.0, dur, op=op))
        spans.append(span(len(spans), "dispersion.omega", 0.0, 0.1, op=op,
                          parent=len(spans) - 1, count=10 + op))
    check = tracing.REFERENCE_OP
    spans.append(span(len(spans), "oracle.oracle_solve", 0.0, 1.0, op=check, count=4))
    spans.append(span(len(spans), "oracle.zgbtrs", 0.1, 0.3, op=check, parent=len(spans) - 1))
    m = tracing.layer_metrics(spans)
    assert m["dispersion.k_evals"] == {"value": 10, "unit": "count"}
    assert m["linear.busy_s"]["value"] == pytest.approx(2.0)
    assert m["presets.build_s"]["value"] == pytest.approx(0.5)
    assert m["transforms.sample_calls"]["value"] == 1
    assert (m["oracle.steps"]["value"], m["oracle.band_solves"]["value"]) == (4, 1)
    assert m["oracle.self_s"]["value"] == pytest.approx(0.8)


def test_installed_records_boundary_calls_and_restores_names():
    from hnls_utm import linear, oracle, transforms
    from hnls_utm.dispersion import DispersionParams

    before = (linear.omega, linear.CubicSpline, oracle.lapack,
              vars(transforms.TimeSeries)["from_callable"])
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        linear.omega(DispersionParams(1.0, 0.0, 0.0), np.zeros(3))  # not recording
        tracer.op = 0
        linear.omega(DispersionParams(1.0, 0.0, 0.0), np.zeros(5))
        linear.CubicSpline(np.arange(4.0), np.ones((2, 4)), axis=1)
        transforms.TimeSeries.from_callable(np.cos, 1.0, n=8)
        tracer.op = None
    assert before == (linear.omega, linear.CubicSpline, oracle.lapack,
                      vars(transforms.TimeSeries)["from_callable"])
    names = [(s["name"], s.get("count")) for s in tracer.spans]
    assert names == [("dispersion.omega", 5), ("linear.spline", 2),
                     ("transforms.sample", None)]


class FakeWorkload:
    """'bad' raises, 'miss' misses its tolerance, 'good' passes."""

    err_name, tol = "err", 0.5

    def __init__(self, tracer):
        self.tracer = tracer
        self.seen = []

    def run(self, data):
        self.seen.append((data, self.tracer.op))
        if data == "bad":
            raise ValueError("fails on purpose")
        return data

    def check(self, data, out):
        err = 1.0 if out == "miss" else 0.0
        return err, err <= self.tol


def test_timed_loop_counts_raised_and_missed_operations(monkeypatch):
    clock = itertools.count()  # every reading advances one second
    monkeypatch.setattr(worker.time, "perf_counter", lambda: float(next(clock)))
    tracer = tracing.Tracer()
    fake = FakeWorkload(tracer)
    res = worker.timed_loop(fake, ["good", "bad", "miss", "good"], 3, 0, tracer)
    assert (res["attempted"], res["failed"], res["raised"]) == (3, 2, 1)
    assert res["errs"] == [0.0, 1.0]
    assert res["plain_s"] == [1.0, 1.0, 1.0]
    assert stats.failed_ratio(res["attempted"], res["failed"]) == pytest.approx(2 / 3)


def test_operation_count_fills_the_run_at_the_nominal_time_and_makes_at_least_one():
    assert worker.operation_count(20.0, 6.0, 0) == 3
    assert worker.operation_count(20.0, 45.0, 0) == 1
    assert worker.operation_count(20.0, 6.0, 1) == 2
    assert worker.operation_count(20.0, 14.0, 1) == 2
    assert worker.operation_count(60.0, 6.0, 1) == 10


def test_timed_loop_traces_every_second_operation_on_the_same_input(monkeypatch):
    clock = itertools.count()
    monkeypatch.setattr(worker.time, "perf_counter", lambda: float(next(clock)))
    tracer = tracing.Tracer()
    fake = FakeWorkload(tracer)
    res = worker.timed_loop(fake, ["good", "miss"], 4, 1, tracer)
    assert fake.seen == [("good", None), ("good", 0), ("miss", None), ("miss", 1)]
    assert (len(res["plain_s"]), len(res["traced_s"]), res["failed"]) == (2, 2, 2)
