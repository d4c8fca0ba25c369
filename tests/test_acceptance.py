"""Acceptance gate: twelve primary criteria, each printed with its measured
values and verdict.  Run with `pytest -rA` (the default options here) so the
per-criterion PASS/FAIL lines appear in the report."""

import json
import time

import numpy as np
import pytest

from hnls_utm.dispersion import DispersionParams
from hnls_utm.fields import Field
from hnls_utm.linear import (ProblemData, QuadratureBudget, evaluate_traces,
                             global_relation_residual, solve_full)
from hnls_utm.nonlinear import (apply_nonlinearity, _combined_forcing,
                                default_proxies, dissipation_audit,
                                lifespan_indicator, picard_solve)
from hnls_utm.norms import (NormSpec, check_admissible_pair,
                            ct_l2_norm, mixed_norm, sobolev_norm)
from hnls_utm.oracle import OracleConfig, oracle_solve
from hnls_utm.presets import (bump_profile, bump_series, gaussian_profile,
                              plane_wave_data, plane_wave_field, zero_series)
from hnls_utm.transforms import SpatialProfile
from hnls_utm.verify import run_suite

from dataclasses import replace

AIRY = DispersionParams(1.0, 0.0, 0.0)
HALF = DispersionParams(0.5, 0.0, 0.0)


def report(num, lines, ok):
    print("[criterion %02d] %s" % (num, " | ".join(lines)))
    print("[criterion %02d] %s" % (num, "PASS" if ok else "FAIL"))
    assert ok


def gaussian_data(kappa=0.0, lam=3.0, horizon=0.04):
    return ProblemData(HALF, 1.0, horizon, gaussian_profile(1.0, 0.5, 0.2),
                       zero_series(horizon), zero_series(horizon),
                       zero_series(horizon), kappa=kappa, lam=lam)


GAUSS_BUDGET = QuadratureBudget(contour_nodes=32000, real_axis_window=45.0,
                                real_axis_nodes=16000)


def test_criterion_01_manufactured_plane_wave():
    data = plane_wave_data(AIRY, 1.0, 0.5, 2.0)
    start = time.time()
    field = solve_full(data, (49, 17), QuadratureBudget())
    elapsed = time.time() - start
    exact = plane_wave_field(AIRY, 2.0, field.x_grid, field.t_grid)
    err = field.relative_l2_gap(exact)
    ok = err <= 1e-3 and elapsed <= 60.0
    report(1, ["relative L2 error %.3e (tol 1e-3)" % err,
               "runtime %.1fs (limit 60s)" % elapsed], ok)


def test_criterion_02_oracle_equivalence_linear():
    data = gaussian_data()
    gaps = []
    for n in (256, 512):
        oracle = oracle_solve(data, OracleConfig(nx=n, nt=n))
        ut = solve_full(data, (n, n), GAUSS_BUDGET)
        gaps.append(ut.relative_l2_gap(oracle))
    ratio = gaps[1] / gaps[0]
    ok = gaps[0] <= 1e-2 and 0.35 <= ratio <= 0.65
    report(2, ["gap(256) %.3e (tol 1e-2)" % gaps[0],
               "refinement ratio %.3f (window [0.35, 0.65])" % ratio], ok)


def test_criterion_03_oracle_equivalence_nonlinear():
    data = gaussian_data(kappa=0.05, lam=3.0)
    with pytest.warns(UserWarning):
        proxies = default_proxies()
    indicator = lifespan_indicator(data, 1.0, proxies)
    field, picard = picard_solve(data, (129, 129), GAUSS_BUDGET,
                                 max_iter=8, tol=1e-6)
    oracle = oracle_solve(data, OracleConfig(nx=129, nt=129))
    gap = field.relative_l2_gap(oracle)
    ratios_ok = all(r < 1.0 for r in picard.contraction_ratios)
    ok = gap <= 2e-2 and ratios_ok and indicator.satisfied
    report(3, ["gap %.3e (tol 2e-2)" % gap,
               "contraction ratios %s (< 1)" %
               ["%.3f" % r for r in picard.contraction_ratios],
               "lifespan lhs %.3f (< 1)" % indicator.lhs_value], ok)


def test_criterion_04_symmetry_suite():
    start = time.time()
    result = run_suite("symmetries", seed=1)
    elapsed = time.time() - start
    worst = min(p["worst_margin"] for p in result["properties"])
    ok = result["passed"] and elapsed <= 5.0
    report(4, ["passed=%s worst margin %.3e" % (result["passed"], worst),
               "runtime %.2fs (limit 5s)" % elapsed], ok)


def test_criterion_05_region_geometry_suite():
    regions = run_suite("regions", seed=1)
    bounds = run_suite("delta_bounds", seed=1)
    worst = min(p["worst_margin"]
                for p in regions["properties"] + bounds["properties"])
    ok = regions["passed"] and bounds["passed"]
    report(5, ["sign/exclusivity/lower-bound and Delta-bound suites "
               "passed=%s" % ok, "worst margin %.3e" % worst], ok)


def test_criterion_06_global_relation_residual():
    data = plane_wave_data(AIRY, 1.0, 0.5, 2.0)
    field = plane_wave_field(AIRY, 2.0, np.linspace(0, 1, 161),
                             np.linspace(0, 0.5, 97))
    rng = np.random.default_rng(1)
    ks = list(rng.uniform(-4.0, 4.0, 6).astype(complex))
    ks += [1.5 + 0.5j, -2.0 - 0.5j]
    residual = global_relation_residual(field, data, ks)
    corrupted = Field(field.x_grid, field.t_grid, 2.0 * field.values)
    control = global_relation_residual(corrupted, data, ks)
    ok = residual <= 1e-6 and control >= 0.1
    report(6, ["residual %.3e (tol 1e-6)" % residual,
               "scaled-field control %.3f (>= 0.1)" % control], ok)


def test_criterion_07_trace_and_initial_recovery():
    horizon = 0.04
    data = ProblemData(HALF, 1.0, horizon, bump_profile(1.0),
                       bump_series(horizon), bump_series(horizon),
                       zero_series(horizon))
    budget = QuadratureBudget(contour_nodes=40000, real_axis_window=80.0,
                              real_axis_nodes=24000)
    field = solve_full(data, (129, 33), budget)
    traces = evaluate_traces(field)
    t = field.t_grid
    sups = {
        "u0": np.max(np.abs(field.values[:, 0] - data.u0(field.x_grid))),
        "g0": np.max(np.abs(traces["left_dirichlet"].samples - data.g0(t))),
        "h0": np.max(np.abs(traces["right_dirichlet"].samples - data.h0(t))),
        "h1": np.max(np.abs(traces["right_neumann"].samples - data.h1(t))),
    }
    ok = all(v <= 1e-3 for v in sups.values())
    report(7, ["sup errors (tol 1e-3): " + " ".join(
        "%s %.2e" % kv for kv in sorted(sups.items()))], ok)


def test_criterion_08_hardy_bound():
    result = run_suite("hardy", seed=1)
    worst = min(p["worst_margin"] for p in result["properties"])
    samples = sum(p["samples"] for p in result["properties"])
    ok = result["passed"] and samples >= 100
    report(8, ["%d samples, zero violations, worst margin %.3e"
               % (samples, worst)], ok)


def test_criterion_09_dissipation():
    data = ProblemData(HALF, 1.0, 0.04, bump_profile(1.0),
                       zero_series(0.04), zero_series(0.04),
                       zero_series(0.04), kappa=0.05, lam=3.0)
    budget = QuadratureBudget(contour_nodes=32000, real_axis_window=60.0,
                              real_axis_nodes=16000)
    coarse, _ = picard_solve(data, (129, 129), budget, max_iter=8, tol=1e-6)
    forced = replace(data, forcing=_combined_forcing(
        data, apply_nonlinearity(coarse, data.kappa, data.lam)))
    fine = solve_full(forced, (513, 1025), budget)
    ut_audit = dissipation_audit(fine, HALF, data.kappa, data.lam)
    oracle = oracle_solve(data, OracleConfig(nx=769, nt=1537, theta=0.5))
    or_audit = dissipation_audit(oracle, HALF, data.kappa, data.lam)
    ut_res, or_res = ut_audit.identity_residual(), or_audit.identity_residual()
    ok = (ut_audit.monotone() and or_audit.monotone()
          and ut_res <= 1e-2 and or_res <= 1e-2)
    report(9, ["contour-solver field: monotone=%s residual %.3e (tol 1e-2)"
               % (ut_audit.monotone(), ut_res),
               "oracle field: monotone=%s residual %.3e (tol 1e-2)"
               % (or_audit.monotone(), or_res)], ok)


def test_criterion_10_mvt_identity():
    result = run_suite("mvt", seed=1)
    worst = min(p["worst_margin"] for p in result["properties"])
    ok = result["passed"]
    report(10, ["1e3 pairs per lambda in {2, 2.5, 3, 4}, gap tol 1e-9, "
                "worst margin %.3e" % worst], ok)


def test_criterion_11_norm_toolkit():
    sin = SpatialProfile.from_callable(
        lambda x: np.sin(2 * np.pi * x).astype(complex), 1.0)
    h1 = sobolev_norm(sin, 1.0)
    want = (1.0 + 2.0 * np.pi) / np.sqrt(2.0)
    h1_err = abs(h1 - want)
    x = np.linspace(0, 1, 33)
    t = np.linspace(0, 0.5, 17)
    f = Field.from_callable(lambda xx, tt: np.exp(1j * xx) * (1 + tt), x, t)
    spec = NormSpec(0.0, 2.0, np.inf)
    mixed_gap = abs(mixed_norm(f, spec) - ct_l2_norm(f))
    pairs_ok = (check_admissible_pair(np.inf, 2.0)
                and check_admissible_pair(9.0, 6.0)
                and not check_admissible_pair(4.0, 4.0))
    ok = h1_err <= 1e-8 and mixed_gap == 0.0 and pairs_ok
    report(11, ["sin H1 error %.2e (tol 1e-8)" % h1_err,
                "(inf,2) mixed-vs-CtL2 gap %.2e (exact)" % mixed_gap,
                "admissible pairs (inf,2)/(9,6)/(4,4) -> %s" % pairs_ok], ok)


def test_criterion_12_determinism():
    a = json.dumps(run_suite("all", seed=11), sort_keys=True)
    b = json.dumps(run_suite("all", seed=11), sort_keys=True)
    ok = a == b
    report(12, ["repeated seeded verify reports identical=%s" % ok], ok)
