"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``inputs``), runs one
operation on one input (``run``), and checks an output against its reference
with the matching acceptance criterion (``check``, which returns the
accuracy figure and whether it met the tolerance).  ``op_s`` is a nominal
time per operation, measured once on a two-core machine; the worker turns
the run length into a fixed operation count with it.  Library functions are
reached through their modules' attributes so the tracer's wrappers see the
calls.  Only ``batch`` draws data from the seed; the other two solve one
fixed problem each, as the acceptance criteria they come from do.
"""

import numpy as np

from hnls_utm import linear, nonlinear, oracle, presets
from hnls_utm.dispersion import DispersionParams

AIRY = DispersionParams(1.0, 0.0, 0.0)
HALF = DispersionParams(0.5, 0.0, 0.0)
GAUSS_BUDGET = linear.QuadratureBudget(contour_nodes=32000, real_axis_window=45.0,
                                       real_axis_nodes=16000)
BATCH_BUDGET = linear.QuadratureBudget(contour_nodes=40000, real_axis_window=80.0,
                                       real_axis_nodes=24000)
BATCH_HORIZON = 0.04
# distinct data sets drawn per run; far more than a run can use, so no data
# set repeats within a run
BATCH_POOL = 256


def _zero_data(params, horizon, u0, **extra):
    zero = presets.zero_series(horizon)
    return linear.ProblemData(params, 1.0, horizon, u0, zero, zero, zero, **extra)


class PlaneWave:
    """Criterion 01: manufactured plane wave, relative L2 error <= 1e-3."""

    err_name, tol, op_s = "rel_err", 1e-3, 14.0

    def inputs(self, seed):
        return [presets.plane_wave_data(AIRY, 1.0, 0.5, 2.0)]

    def run(self, data):
        return linear.solve_full(data, (49, 17), linear.QuadratureBudget())

    def check(self, data, field):
        exact = presets.plane_wave_field(AIRY, 2.0, field.x_grid, field.t_grid)
        err = field.relative_l2_gap(exact)
        return err, err <= self.tol


class Picard:
    """Criterion 03: Picard solve of the Gaussian problem, relative L2 gap to
    the 129x129 oracle <= 2e-2 with every contraction ratio below 1."""

    err_name, tol, op_s = "oracle_gap", 2e-2, 45.0

    def __init__(self):
        self._reference = None

    def inputs(self, seed):
        u0 = presets.gaussian_profile(1.0, 0.5, 0.2)
        return [_zero_data(HALF, 0.04, u0, kappa=0.05, lam=3.0)]

    def run(self, data):
        return nonlinear.picard_solve(data, (129, 129), GAUSS_BUDGET,
                                      max_iter=8, tol=1e-6)

    def check(self, data, result):
        field, report = result
        if self._reference is None:
            self._reference = oracle.oracle_solve(
                data, oracle.OracleConfig(nx=129, nt=129))
        gap = field.relative_l2_gap(self._reference)
        ok = gap <= self.tol and all(r < 1.0 for r in report.contraction_ratios)
        return gap, ok


class Batch:
    """Criterion 07 on a seeded stream of forcing-free data sets sharing one
    geometry: sup error of the recovered u0, g0, h0 and h1 <= 1e-3."""

    err_name, tol, op_s = "trace_err", 1e-3, 6.0

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        horizon = BATCH_HORIZON
        pool = []
        for _ in range(BATCH_POOL):
            lo, hi = rng.uniform(0.05, 0.3), rng.uniform(0.7, 0.95)
            amp, amp_g0, amp_h0 = rng.uniform(0.5, 1.5), rng.uniform(), rng.uniform()
            pool.append(linear.ProblemData(
                HALF, 1.0, horizon, presets.bump_profile(1.0, lo, hi, amp),
                presets.bump_series(horizon, amplitude=amp_g0),
                presets.bump_series(horizon, amplitude=amp_h0),
                presets.zero_series(horizon)))
        return pool

    def run(self, data):
        return linear.solve_full(data, (129, 33), BATCH_BUDGET)

    def check(self, data, field):
        traces = linear.evaluate_traces(field)
        t = field.t_grid
        err = max(
            np.max(np.abs(field.values[:, 0] - data.u0(field.x_grid))),
            np.max(np.abs(traces["left_dirichlet"].samples - data.g0(t))),
            np.max(np.abs(traces["right_dirichlet"].samples - data.h0(t))),
            np.max(np.abs(traces["right_neumann"].samples - data.h1(t))))
        return float(err), err <= self.tol


WORKLOADS = {"plane_wave": PlaneWave, "picard": Picard, "batch": Batch}
