"""Module-boundary spans for the benchmark's traced runs.

The layers are the package modules.  They are measured from outside:
``installed(tracer)`` replaces, for the life of a ``with`` block, the public
names through which one module calls another (and the scipy and LAPACK names
that ``linear`` and ``oracle`` call through) with wrappers that record one
span per call.  No library source is edited.  Spans stay in memory and are
written out by the worker when the run ends.

Which boundary feeds which metric:

* ``linear.solve_full``, also under the name ``nonlinear`` imported it as;
* ``linear.spline``: the ``CubicSpline`` name in ``linear`` (construction
  and evaluation; rows are counted at construction);
* ``dispersion.*``: ``omega``, ``omega_prime`` and ``symmetry_roots`` as
  ``linear`` calls them, counting the k points passed;
* ``regions.*``: ``segment_specs``, ``r_delta`` and ``arc_half_angle`` as
  ``linear`` calls them (the Delta-margin sweep calls ``arc_half_angle``);
* ``nonlinear.picard_solve`` and ``oracle.oracle_solve``, as the benchmark
  calls them, counting Picard iterations and oracle time steps (the oracle
  runs only as the untimed reference of output checks);
* ``oracle.zgbtrs``: band solves made through the oracle's ``lapack`` name;
* ``presets.*``: the data builders the benchmark calls during set-up;
* ``transforms.sample``: ``SpatialProfile`` / ``TimeSeries`` evaluation
  (``__call__`` and ``from_callable``).

``norms``, ``verify`` and ``cli`` are on no timed path and get no metrics.
"""

import contextlib
import functools
import statistics
import time
import types

import numpy as np

SETUP_OP = -1        # input generation
REFERENCE_OP = -2    # output checks, which compute the untimed references

# per-operation counts repeat exactly for a given seed; they are taken from
# the first traced operation
OP_COUNTS = (
    ("linear.solves", "count"),
    ("linear.spline_rows", "count"),
    ("dispersion.k_evals", "count"),
    ("regions.calls", "count"),
    ("nonlinear.iterations", "count"),
    ("nonlinear.solves", "count"),
)
# per-operation times are medians over the traced operations
OP_TIMES = (
    ("linear.busy_s", "s"),
    ("linear.self_s", "s"),
    ("linear.spline_s", "s"),
    ("dispersion.busy_s", "s"),
    ("regions.busy_s", "s"),
    ("nonlinear.self_s", "s"),
)
# the oracle runs only in output checks: these cover all of its calls there
REFERENCE_METRICS = (
    ("oracle.steps", "count"),
    ("oracle.band_solves", "count"),
    ("oracle.sweeps_per_step", "1"),
    ("oracle.band_solve_s", "s"),
    ("oracle.self_s", "s"),
)
SETUP_METRICS = (
    ("presets.build_s", "s"),
    ("transforms.sample_calls", "count"),
    ("transforms.sample_s", "s"),
)


class Tracer:
    """Records spans while ``op`` is not None: SETUP_OP during input
    generation, REFERENCE_OP during output checks, and the operation index
    during a traced operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def call(self, name, func, args, kwargs, count=None):
        if self.op is None:
            return func(*args, **kwargs)
        span = {"id": len(self.spans), "name": name, "op": self.op,
                "parent": self._stack[-1]["id"] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span["count"] = count(args, kwargs, result)
        return result

    def wrap(self, name, func, count=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self.call(name, func, args, kwargs, count)
        return traced


def _k_points(args, _kwargs, _result):
    return int(np.size(args[1]))


def _spline_rows(args, kwargs, _result):
    y = np.asarray(args[1])
    return y.size // y.shape[kwargs.get("axis", 0)]


def _picard_iterations(_args, _kwargs, result):
    return len(result[1].distances)


def _oracle_steps(_args, _kwargs, result):
    return len(result.t_grid) - 1


def _traced_spline(tracer, base):
    class TracedCubicSpline(base):
        def __init__(self, x, y, **kwargs):
            tracer.call("linear.spline", super().__init__, (x, y), kwargs,
                        _spline_rows)

        def __call__(self, *args, **kwargs):
            return tracer.call("linear.spline", super().__call__, args, kwargs)

    return TracedCubicSpline


@contextlib.contextmanager
def installed(tracer):
    """Route the module-boundary calls through ``tracer`` until exit."""
    from hnls_utm import linear, nonlinear, oracle, presets, transforms

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    try:
        solve = tracer.wrap("linear.solve_full", linear.solve_full)
        patch(linear, "solve_full", solve)
        patch(nonlinear, "solve_full", solve)
        patch(linear, "CubicSpline", _traced_spline(tracer, linear.CubicSpline))
        for name in ("omega", "omega_prime", "symmetry_roots"):
            patch(linear, name, tracer.wrap("dispersion." + name,
                                            getattr(linear, name), _k_points))
        for name in ("segment_specs", "r_delta", "arc_half_angle"):
            patch(linear, name, tracer.wrap("regions." + name,
                                            getattr(linear, name)))
        patch(nonlinear, "picard_solve",
              tracer.wrap("nonlinear.picard_solve", nonlinear.picard_solve,
                          _picard_iterations))
        patch(oracle, "oracle_solve",
              tracer.wrap("oracle.oracle_solve", oracle.oracle_solve,
                          _oracle_steps))
        patch(oracle, "lapack", types.SimpleNamespace(
            zgbtrf=oracle.lapack.zgbtrf,
            zgbtrs=tracer.wrap("oracle.zgbtrs", oracle.lapack.zgbtrs)))
        for name in ("plane_wave_data", "gaussian_profile", "bump_profile",
                     "bump_series", "zero_series"):
            patch(presets, name, tracer.wrap("presets." + name,
                                             getattr(presets, name)))
        for cls in (transforms.SpatialProfile, transforms.TimeSeries):
            patch(cls, "__call__",
                  tracer.wrap("transforms.sample", cls.__call__))
            patch(cls, "from_callable", classmethod(tracer.wrap(
                "transforms.sample", vars(cls)["from_callable"].__func__)))
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def self_times(spans):
    """Span id -> its duration minus the part of it that its direct child
    spans cover."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered, reach = 0.0, lo
        for child in sorted(children.get(span["id"], ()),
                            key=lambda c: c["start"]):
            start, end = max(child["start"], reach), min(child["end"], hi)
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = (hi - lo) - covered
    return out


def op_metrics(spans):
    """Per-layer counts and times of one operation's spans."""
    own = self_times(spans)
    names = {span["id"]: span["name"] for span in spans}
    m = dict.fromkeys(
        [name for name, _ in OP_COUNTS + OP_TIMES + REFERENCE_METRICS], 0)
    for span in spans:
        name, dur, count = span["name"], span["end"] - span["start"], span.get("count", 0)
        layer = name.partition(".")[0]
        if name == "linear.solve_full":
            m["linear.solves"] += 1
            m["linear.busy_s"] += dur
            m["linear.self_s"] += own[span["id"]]
            if names.get(span["parent"]) == "nonlinear.picard_solve":
                m["nonlinear.solves"] += 1
        elif name == "linear.spline":
            m["linear.spline_rows"] += count
            m["linear.spline_s"] += dur
        elif layer == "dispersion":
            m["dispersion.k_evals"] += count
            m["dispersion.busy_s"] += dur
        elif layer == "regions":
            m["regions.calls"] += 1
            m["regions.busy_s"] += dur
        elif name == "nonlinear.picard_solve":
            m["nonlinear.iterations"] += count
            m["nonlinear.self_s"] += own[span["id"]]
        elif name == "oracle.oracle_solve":
            m["oracle.steps"] += count
            m["oracle.self_s"] += own[span["id"]]
        elif name == "oracle.zgbtrs":
            m["oracle.band_solves"] += 1
            m["oracle.band_solve_s"] += dur
    if m["oracle.steps"]:
        m["oracle.sweeps_per_step"] = m["oracle.band_solves"] / m["oracle.steps"]
    return m


def setup_metrics(spans):
    """Set-up phase: time in the preset builders the benchmark called, and
    profile/series sampling."""
    m = dict.fromkeys([name for name, _ in SETUP_METRICS], 0)
    for span in spans:
        dur = span["end"] - span["start"]
        if span["name"].startswith("presets.") and span["parent"] is None:
            m["presets.build_s"] += dur
        elif span["name"] == "transforms.sample":
            m["transforms.sample_calls"] += 1
            m["transforms.sample_s"] += dur
    return m


def layer_metrics(spans):
    """Per-layer metrics of a traced run: set-up figures, counts of the
    first traced operation, median per-operation times, and the oracle's
    work in the output checks."""
    ops = sorted({s["op"] for s in spans} - {SETUP_OP, REFERENCE_OP})
    per_op = [op_metrics([s for s in spans if s["op"] == op]) for op in ops]
    at_setup = setup_metrics([s for s in spans if s["op"] == SETUP_OP])
    in_checks = op_metrics([s for s in spans if s["op"] == REFERENCE_OP])
    out = {}
    for name, unit in SETUP_METRICS:
        out[name] = {"value": at_setup[name], "unit": unit}
    for name, unit in REFERENCE_METRICS:
        out[name] = {"value": in_checks[name], "unit": unit}
    for name, unit in OP_COUNTS:
        out[name] = {"value": per_op[0][name] if per_op else 0, "unit": unit}
    for name, unit in OP_TIMES:
        out[name] = {"value": statistics.median(m[name] for m in per_op)
                     if per_op else 0.0, "unit": unit}
    return out
