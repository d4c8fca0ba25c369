"""Contour-integral evaluator: time transforms, solves, traces, residual."""

from dataclasses import replace

import numpy as np
import pytest

from hnls_utm.dispersion import DispersionParams, symmetry_roots
from hnls_utm.errors import ExponentialOverflow, GridTooCoarse
from hnls_utm.fields import Field
from hnls_utm.linear import (OVERFLOW_GUARD, ProblemData, QuadratureBudget,
                             _cumulative_transform, _filon_moments,
                             _time_transform, evaluate_traces,
                             fd_weights,
                             global_relation_residual, make_plan, solve_full,
                             solve_reduced, zero_data)
from hnls_utm import linear
from hnls_utm.regions import r_delta
from hnls_utm.presets import (bump_profile, bump_series, plane_wave_data,
                              plane_wave_exact, plane_wave_field, zero_profile,
                              zero_series)
from hnls_utm.transforms import SpatialProfile, TimeSeries

AIRY = DispersionParams(1.0, 0.0, 0.0)
SMALL_BUDGET = QuadratureBudget(contour_nodes=4000, real_axis_window=15.0,
                                real_axis_nodes=2000)


class TestFilonMoments:
    def test_against_dense_quadrature(self):
        h = 0.01
        s = np.linspace(0.0, h, 20001)
        for w in (0.0 + 0.0j, 3.0 + 0.0j, 40.0 + 0.0j, 2000.0 + 0.0j,
                  300.0 - 5.0j):
            mom = _filon_moments(np.array([w]), h)[:, 0]
            for m in range(4):
                dense = np.trapezoid(s ** m * np.exp(-1j * w * s), s)
                assert mom[m] == pytest.approx(dense, rel=1e-6, abs=1e-16)

    def test_small_argument_branch(self):
        # |w| h < 0.5 goes through the Taylor series; check continuity
        h = 1.0
        lo = _filon_moments(np.array([0.499 + 0.0j]), h)
        hi = _filon_moments(np.array([0.501 + 0.0j]), h)
        np.testing.assert_allclose(lo, hi, rtol=1e-2)
        exact0 = (1 - np.exp(-0.499j)) / 0.499j
        assert lo[0, 0] == pytest.approx(exact0, rel=1e-12)


class TestTimeTransform:
    def test_exponential_closed_form(self):
        a, horizon = 2.0, 1.0
        t = np.linspace(0.0, horizon, 257)
        vals = np.exp(1j * a * t)
        w = np.array([0.0, 1.0, 37.0, 300.0, -150.0], dtype=complex)
        got = _time_transform(vals, horizon, w)
        want = (np.exp(1j * (a - w) * horizon) - 1.0) / (1j * (a - w))
        np.testing.assert_allclose(got, want, rtol=1e-7)

    def test_cumulative_matches_prefix_integrals(self):
        horizon = 0.5
        t = np.linspace(0.0, horizon, 65)
        vals = np.sin(3 * t) + 1j * t ** 2
        w = np.array([11.0 + 0.0j])
        cum = _cumulative_transform(vals[None, :], horizon, w, np.ones((1, 1)))[0]
        for j in (10, 32, 64):
            direct = _time_transform(vals[: j + 1], t[j], w)[0]
            assert cum[j] == pytest.approx(direct, rel=1e-6, abs=1e-12)

    def test_rowwise_values(self):
        # a stack of series is transformed at every w: (nw, S)
        horizon = 1.0
        t = np.linspace(0.0, horizon, 129)
        w = np.array([3.0 + 0.0j, 80.0 + 0.0j])
        rows = np.stack([np.exp(1j * 2 * t), t.astype(complex)])
        got = _time_transform(rows, horizon, w)
        assert got.shape == (2, 2)
        want0 = (np.exp(1j * (2 - w[0])) - 1.0) / (1j * (2 - w[0]))
        assert got[0, 0] == pytest.approx(want0, rel=1e-8)
        # int_0^1 t e^{-iwt} dt by parts
        wv = w[1]
        want1 = (np.exp(-1j * wv) * (1.0 / (-1j * wv) - 1.0 / (-1j * wv) ** 2)
                 + 1.0 / (-1j * wv) ** 2)
        assert got[1, 1] == pytest.approx(want1, rel=1e-8)

    def test_stack_matches_single_series(self):
        horizon = 0.7
        t = np.linspace(0.0, horizon, 97)
        rows = np.stack([np.exp(1j * 2 * t), np.cos(5 * t) + 1j * t,
                         t ** 3 - 0.5j])
        w = np.array([0.0, 0.3, 9.0, 250.0 - 2.0j, -40.0], dtype=complex)
        stacked = _time_transform(rows, horizon, w, chunk=2)
        for s, row in enumerate(rows):
            np.testing.assert_allclose(stacked[:, s],
                                       _time_transform(row, horizon, w),
                                       rtol=1e-13, atol=1e-15)
        weights = np.arange(15.0).reshape(5, 3) * (1.0 - 0.5j)
        cum = _cumulative_transform(rows, horizon, w, weights, chunk=2)
        np.testing.assert_allclose(cum[:, -1], np.sum(weights * stacked, axis=1),
                                   rtol=1e-12, atol=1e-14)


XQUAD = linear._x_quadrature(1.0)


def _kernel(k, shift, payloads):
    return linear._apply_kernel(k, shift, XQUAD, payloads)


class TestExponentialTables:
    """The factored x-kernel and time phase tables against one dense exp per
    entry, and the overflow guards in front of them."""

    @staticmethod
    def dense_kernel(k, shift, p):
        xq, wq = XQUAD.nodes, XQUAD.weights
        expo = -1j * np.outer(k, xq) + np.asarray(shift)[:, None]
        return np.exp(expo) @ (wq[:, None] * p)

    def test_kernel_matches_dense_exp(self):
        xq = XQUAD.nodes
        p = np.stack([np.exp(2j * xq) * (1 + xq ** 2), np.cos(7 * xq) - 0.3j],
                     axis=1)
        real_k = np.linspace(-80.0, 80.0, 161) + 0j
        # D0-type nodes in the upper sector, shifted by i (k - nu_+) ell as
        # the solver does so that every exponent stays nonpositive
        d0_k = np.linspace(3.0, 60.0, 77) * np.exp(1j * np.linspace(1.1, 2.0, 77))
        nup = symmetry_roots(AIRY, d0_k)[1]
        # D+/- type nodes below the real axis, unshifted
        dpm_k = np.linspace(3.0, 60.0, 77) * np.exp(-1j * np.linspace(0.2, 2.9, 77))
        for k, shift in ((real_k, np.zeros(161)), (d0_k, 1j * (d0_k - nup)),
                         (dpm_k, np.zeros(77))):
            got_2d, got_1d = _kernel(k, shift, [p, p[:, 0]])
            want = self.dense_kernel(k, shift, p)
            np.testing.assert_allclose(got_2d, want, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)))
            np.testing.assert_allclose(got_1d, want[:, 0], rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("cells", [3, 10, 128, 256])
    def test_phase_table_matches_dense_exp(self, cells):
        horizon = 0.5
        t = np.linspace(0.0, horizon, cells + 1)
        w = np.concatenate([
            np.linspace(-1e5, 1e5, 41),
            np.linspace(-300.0, 300.0, 7) + 1j * np.linspace(1.0, 1300.0, 7),
            np.linspace(-300.0, 300.0, 7) - 1j * np.array(
                [1e3, 1.4e3, 1.5e3, 1.6e3, 3e3, 5e4, 1e6])])
        eph = np.concatenate([e for _sel, _mom, e in
                              linear._moment_chunks(horizon, cells + 1, w, 16)])
        dense = np.exp(-1j * np.outer(w, t[:-1]))
        # both round the phase w t, so they agree to a few ulps of |w| T;
        # entries that underflow in one underflow in the other
        tol = 8 * np.finfo(float).eps * (1.0 + np.abs(w)[:, None] * horizon)
        assert np.all(np.abs(eph - dense) <= tol * np.abs(dense) + 1e-300)
        assert np.any(dense == 0.0)

    def test_kernel_guard_on_shift(self):
        k = np.array([0.0, 5.0, -3.0]) + 0j
        p = np.ones(len(XQUAD.nodes))
        with pytest.raises(ExponentialOverflow):
            _kernel(k, np.array([0.0, 2.01, 0.0]), [p])
        _kernel(k, np.array([0.0, 1.99, 0.0]), [p])

    def test_kernel_guard_on_imaginary_k(self):
        x_first, x_last = XQUAD.nodes[0], XQUAD.nodes[-1]
        p = np.ones(len(XQUAD.nodes))
        # Im k > 0: the exponent's real part is largest at the last node
        with pytest.raises(ExponentialOverflow):
            _kernel(np.array([1.0 + 2.01j / x_last]), None, [p])
        _kernel(np.array([1.0 + 1.99j / x_last]), None, [p])
        # Im k < 0 with a shift: largest at the first node
        with pytest.raises(ExponentialOverflow):
            _kernel(np.array([-1.0j]), np.array([2.01 + x_first]), [p])
        _kernel(np.array([-1.0j]), np.array([1.99 + x_first]), [p])

    def test_kernel_guard_on_panel_factor(self):
        # the shift cancels the growth, but e^{-i k off} would overflow
        p = np.ones(len(XQUAD.nodes))
        with pytest.raises(ExponentialOverflow):
            _kernel(np.array([5e4j]), np.array([-5e4 + 0j]), [p])

    def test_time_transform_guard(self):
        horizon = 0.5
        vals = np.linspace(0.0, 1.0, 33) + 0j
        w_max = OVERFLOW_GUARD / horizon
        with pytest.raises(ExponentialOverflow):
            _time_transform(vals, horizon, np.array([3.0, 1.01j * w_max]))
        assert np.all(np.isfinite(
            _time_transform(vals, horizon, np.array([3.0, 0.99j * w_max]))))

    @staticmethod
    def dense_assembly(x_grid, t_grid, ell, basis, k, w, om, coef):
        if basis == "in":
            ker = np.exp(1j * np.outer(x_grid, k))
        else:
            ker = np.exp(-1j * (ell - x_grid[:, None]) * k[None, :])
        return ker @ (np.exp(1j * np.outer(om, t_grid)) * (w * coef)[:, None])

    @staticmethod
    def assembly_nodes():
        """D0-type nodes (upper half plane, "in" basis) and D+/- type nodes
        (lower half plane, "out" basis), each with time exponents from
        arc-level growth e^{24} at t = 0.5 to strong decay."""
        n = 61
        rng = np.random.default_rng(3)
        om = (np.linspace(-900.0, 900.0, n)
              + 1j * np.linspace(-48.0, 400.0, n)[rng.permutation(n)])
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        coef = rng.normal(size=n) + 1j * rng.normal(size=n)
        radius = np.linspace(3.0, 60.0, n)
        d0_k = radius * np.exp(1j * np.linspace(1.1, 2.0, n))
        dpm_k = radius * np.exp(-1j * np.linspace(0.2, 2.9, n))
        return (("in", d0_k), ("out", dpm_k)), w, om, coef

    def test_assembly_matches_dense_exp(self):
        ell = 1.0
        (bases, w, om, coef) = self.assembly_nodes()
        for x_grid, t_grid in (
                (np.linspace(0.0, ell, 33), np.linspace(0.0, 0.5, 17)),
                (np.linspace(0.1, 0.9, 37), np.linspace(0.05, 0.5, 23))):
            assert linear._uniform_step(x_grid) is not None
            assert linear._uniform_step(t_grid) is not None
            for basis, k in bases:
                got = linear._assemble(
                    np.zeros((len(x_grid), len(t_grid)), dtype=complex),
                    x_grid, t_grid, ell, basis, k, w, om, coef_static=coef,
                    chunk=16)
                want = self.dense_assembly(x_grid, t_grid, ell, basis, k, w,
                                           om, coef)
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("x_grid, t_grid", [
        (np.linspace(0.0, 1.0, 33) ** 2, np.linspace(0.5, 0.0, 17)),
        (np.linspace(1.0, 0.0, 33), np.sqrt(np.linspace(0.0, 0.25, 17))),
    ])
    def test_assembly_on_other_grids_takes_the_dense_path(self, x_grid, t_grid,
                                                          monkeypatch):
        # non-uniform and descending grids never reach the factored tables
        def no_factors(*args, **kwargs):
            raise AssertionError("factored table built for a dense-path grid")

        monkeypatch.setattr(linear, "_phase_table", no_factors)
        ell = 1.0
        (bases, w, om, coef) = self.assembly_nodes()
        for basis, k in bases:
            got = linear._assemble(
                np.zeros((len(x_grid), len(t_grid)), dtype=complex),
                x_grid, t_grid, ell, basis, k, w, om, coef_static=coef)
            want = self.dense_assembly(x_grid, t_grid, ell, basis, k, w, om,
                                       coef)
            np.testing.assert_allclose(got, want, rtol=1e-13,
                                       atol=1e-13 * np.max(np.abs(want)))

    def test_arc_amplification_guard(self):
        # the arc radius R_Delta = 9 at T = 1 amplifies by e^{729}: the arc
        # panel count would overflow, so the guard raises first
        data = plane_wave_data(AIRY, 1.0, 1.0, 2.0)
        budget = QuadratureBudget(contour_nodes=4000, real_axis_nodes=2000,
                                  arc_radius=r_delta(AIRY, 1.0))
        with pytest.raises(ExponentialOverflow, match="arc amplification"):
            solve_full(data, (9, 9), budget)

    def test_arc_panel_cap(self):
        # on a short interval the arc radius is held at 1.5 / ell = 7.5: at
        # T = 1 that is an amplification exponent of 422, below the overflow
        # guard, and about 4.6e14 panels per arc, so the panel cap raises
        data = plane_wave_data(AIRY, 0.2, 1.0, 2.0)
        with pytest.raises(ExponentialOverflow, match="panels"):
            solve_full(data, (9, 9), QuadratureBudget())


class TestFdWeights:
    def test_first_derivative_exact_for_cubic(self):
        xs = np.array([0.0, 0.3, 0.55, 0.8, 1.0])
        w = fd_weights(xs, 0.8, 1)
        poly = xs ** 3 - 2 * xs ** 2 + 4
        assert w @ poly == pytest.approx(3 * 0.8 ** 2 - 4 * 0.8, rel=1e-12)

    def test_third_derivative(self):
        xs = np.linspace(0.0, 1.0, 5)
        w = fd_weights(xs, 0.5, 3)
        assert w @ xs ** 3 == pytest.approx(6.0, rel=1e-10)


class TestZeroData:
    def test_solve_full_zero(self):
        field = solve_full(zero_data(AIRY, 1.0, 0.5), (9, 9), SMALL_BUDGET)
        assert np.max(np.abs(field.values)) <= 1e-14

    def test_solve_reduced_zero(self):
        field = solve_reduced(AIRY, 1.0, zero_series(0.5), zero_series(0.5),
                              (9, 9), SMALL_BUDGET)
        assert np.max(np.abs(field.values)) <= 1e-14

    def test_global_relation_zero(self):
        data = zero_data(AIRY, 1.0, 0.5)
        field = Field.zeros(np.linspace(0, 1, 9), np.linspace(0, 0.5, 9))
        assert global_relation_residual(field, data, [1.0 + 0.0j, 2.0 - 0.5j]) == 0.0


class TestPlaneWave:
    def test_default_budget_recovery(self):
        data = plane_wave_data(AIRY, 1.0, 0.5, 2.0)
        field = solve_full(data, (49, 17), QuadratureBudget())
        exact = plane_wave_field(AIRY, 2.0, field.x_grid, field.t_grid)
        assert field.relative_l2_gap(exact) <= 1e-3

    def test_initial_condition_row(self):
        # decaying initial transform: the t = 0 row is recovered well within
        # the budget tolerance
        horizon = 0.04
        params = DispersionParams(0.5, 0.0, 0.0)
        data = ProblemData(params, 1.0, horizon, bump_profile(1.0),
                           zero_series(horizon), zero_series(horizon),
                           zero_series(horizon))
        budget = QuadratureBudget(contour_nodes=32000, real_axis_window=60.0,
                                  real_axis_nodes=16000)
        field = solve_full(data, (65, 9), budget)
        u0 = data.u0(field.x_grid)
        x = field.x_grid
        err = np.sqrt(np.trapezoid(np.abs(field.values[:, 0] - u0) ** 2, x))
        norm = np.sqrt(np.trapezoid(np.abs(u0) ** 2, x))
        assert err <= budget.tolerance * norm


def _forced_plane_wave(params, x_nodes=257, t_nodes=129):
    """Problem solved by u = (1 + t) P with P the plane wave (a = 2, ell = 1,
    T = 0.5): i u_t + L u = i P, a rank-1 forcing."""
    ell, horizon, a = 1.0, 0.5, 2.0
    wave = plane_wave_exact(params, a)

    def exact(x, t):
        return (1.0 + np.asarray(t)) * wave(x, t)

    forcing = Field.from_callable(lambda x, t: 1j * wave(x, t),
                                  np.linspace(0.0, ell, x_nodes),
                                  np.linspace(0.0, horizon, t_nodes))
    data = ProblemData(
        params, ell, horizon,
        SpatialProfile.from_callable(lambda x: exact(x, 0.0), ell),
        TimeSeries.from_callable(lambda t: exact(0.0, t), horizon),
        TimeSeries.from_callable(lambda t: exact(ell, t), horizon),
        TimeSeries.from_callable(lambda t: 1j * a * exact(ell, t), horizon),
        forcing=forcing)
    return data, exact


class TestForcedSolution:
    @pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.0), (0.5, 1.0, 1.0)])
    def test_manufactured_forced_plane_wave(self, coeffs):
        data, exact = _forced_plane_wave(DispersionParams(*coeffs))
        field = solve_full(data, (49, 17), QuadratureBudget())
        want = Field.from_callable(exact, field.x_grid, field.t_grid)
        assert field.relative_l2_gap(want) <= 1e-3

    def test_spline_rows_do_not_grow_with_nodes(self, monkeypatch):
        # the forcing is splined as a few shared series, never per node
        rows = []
        base = linear.CubicSpline

        class CountingSpline(base):
            def __init__(self, x, y, axis=0, **kwargs):
                y = np.asarray(y)
                rows.append(y.size // y.shape[axis])
                super().__init__(x, y, axis=axis, **kwargs)

        monkeypatch.setattr(linear, "CubicSpline", CountingSpline)
        data, _exact = _forced_plane_wave(AIRY, 33, 17)
        counts = []
        for scale in (1, 3):
            rows.clear()
            budget = QuadratureBudget(
                contour_nodes=scale * SMALL_BUDGET.contour_nodes,
                real_axis_window=SMALL_BUDGET.real_axis_window,
                real_axis_nodes=scale * SMALL_BUDGET.real_axis_nodes)
            solve_full(data, (9, 9), budget)
            counts.append(sum(rows))
        assert 0 < counts[1] <= counts[0]


class TestSolvePlan:
    def test_apply_equals_solve_full(self):
        data, _exact = _forced_plane_wave(AIRY, 33, 17)
        want = solve_full(data, (9, 9), SMALL_BUDGET).values
        plan = make_plan(data, (9, 9), SMALL_BUDGET)
        np.testing.assert_array_equal(plan.apply(data).values, want)
        # an equal data object is sampled afresh, to the same field
        np.testing.assert_array_equal(plan.apply(replace(data)).values, want)
        assert len(plan.groups) == len(plan.node_counts) == 9
        assert 0 < plan.rho <= r_delta(AIRY, 1.0)

    def test_data_and_forcing_parts_add_up(self):
        # the solution map on one plan is linear: the split picard_solve uses
        data, _exact = _forced_plane_wave(AIRY, 33, 17)
        plan = make_plan(data, (9, 9), SMALL_BUDGET)
        whole = plan.apply(data).values
        parts = (plan.apply(replace(data, forcing=None)).values
                 + plan.apply(replace(zero_data(AIRY, 1.0, 0.5),
                                      forcing=data.forcing)).values)
        assert np.max(np.abs(parts - whole)) <= 1e-10 * np.max(np.abs(whole))

    @pytest.mark.parametrize("other", [
        plane_wave_data(DispersionParams(1.0, 0.0, 1.0), 1.0, 0.5, 2.0),
        plane_wave_data(AIRY, 2.0, 0.5, 2.0),
        plane_wave_data(AIRY, 1.0, 0.25, 2.0),
    ])
    def test_apply_rejects_other_geometry(self, other):
        plan = make_plan(plane_wave_data(AIRY, 1.0, 0.5, 2.0), (9, 9),
                         SMALL_BUDGET)
        with pytest.raises(ValueError):
            plan.apply(other)


class TestReducedBump:
    budget = QuadratureBudget(contour_nodes=16000, real_axis_window=24.0,
                              real_axis_nodes=8000)

    def test_trace_and_homogeneous_edges(self):
        horizon = 0.5
        psi0 = bump_series(horizon)
        field = solve_reduced(AIRY, 1.0, psi0, zero_series(horizon),
                              (49, 33), self.budget)
        t = field.t_grid
        # right Dirichlet trace recovers psi0; left edge and t=0 row vanish
        assert np.max(np.abs(field.values[-1, :] - psi0(t))) <= 1e-3
        assert np.max(np.abs(field.values[0, :])) <= 1e-3
        assert np.max(np.abs(field.values[:, 0])) <= 1e-3
        # the solution is genuinely nontrivial in the interior
        assert np.max(np.abs(field.values)) > 0.3

    def test_solver_field_global_relation(self):
        horizon = 0.5
        data = ProblemData(AIRY, 1.0, horizon, zero_profile(1.0),
                           zero_series(horizon), bump_series(horizon),
                           zero_series(horizon))
        field = solve_full(data, (65, 33), self.budget)
        ks = [0.9 + 0.0j, 2.1 + 0.0j, -1.3 + 0.0j, 1.1 - 0.4j]
        res = global_relation_residual(field, data, ks)
        assert res <= 2e-4
        # the residual does not grow (within a factor 2) under refinement
        rich = QuadratureBudget(contour_nodes=32000, real_axis_window=24.0,
                                real_axis_nodes=16000)
        res_fine = global_relation_residual(
            solve_full(data, (65, 33), rich), data, ks)
        assert res_fine <= 2.0 * res


class TestLinearity:
    def test_superposition(self):
        horizon = 0.5
        budget = QuadratureBudget(contour_nodes=12000, real_axis_window=20.0,
                                  real_axis_nodes=6000)
        d1 = ProblemData(AIRY, 1.0, horizon, zero_profile(1.0),
                         zero_series(horizon), bump_series(horizon),
                         zero_series(horizon))
        d2 = ProblemData(AIRY, 1.0, horizon, zero_profile(1.0),
                         bump_series(horizon, 0.1, 0.6), zero_series(horizon),
                         zero_series(horizon))
        a, b = 2.0, -0.5 + 1.0j
        combo = ProblemData(
            AIRY, 1.0, horizon, zero_profile(1.0),
            TimeSeries(horizon, b * d2.g0.samples),
            TimeSeries(horizon, a * d1.h0.samples),
            zero_series(horizon))
        grid = (17, 17)
        f1 = solve_full(d1, grid, budget)
        f2 = solve_full(d2, grid, budget)
        fc = solve_full(combo, grid, budget)
        lin = a * f1.values + b * f2.values
        gap = np.max(np.abs(fc.values - lin))
        assert gap <= 2e-3 * max(np.max(np.abs(lin)), 1.0)


class TestTraces:
    def test_constant_field(self):
        x = np.linspace(0, 1, 9)
        t = np.linspace(0, 0.5, 9)
        field = Field(x, t, np.full((9, 9), 2.0 - 1.0j))
        tr = evaluate_traces(field)
        assert np.max(np.abs(tr["left_dirichlet"].samples - (2 - 1j))) == 0.0
        assert np.max(np.abs(tr["right_dirichlet"].samples - (2 - 1j))) == 0.0
        assert np.max(np.abs(tr["right_neumann"].samples)) <= 1e-12

    def test_exponential_neumann_order(self):
        a = 3.0
        errs = []
        for n in (17, 33):
            x = np.linspace(0, 1, n)
            field = Field.from_callable(
                lambda xx, tt: np.exp(1j * a * xx) + 0 * tt, x,
                np.linspace(0, 1, 5))
            tr = evaluate_traces(field)
            want = 1j * a * np.exp(1j * a)
            errs.append(np.max(np.abs(tr["right_neumann"].samples - want)))
        assert errs[0] <= 5e-3
        assert errs[1] <= errs[0] / 12.0  # at least ~4th order decay

    def test_grid_too_coarse(self):
        x = np.linspace(0, 1, 4)
        field = Field.zeros(x, np.linspace(0, 1, 5))
        with pytest.raises(GridTooCoarse):
            evaluate_traces(field)


class TestValidation:
    def test_budget_positive(self):
        with pytest.raises(ValueError):
            QuadratureBudget(contour_nodes=0)
        with pytest.raises(ValueError):
            QuadratureBudget(real_axis_window=-1.0)

    def test_problem_data_consistency(self):
        with pytest.raises(ValueError):
            ProblemData(AIRY, 1.0, 0.5, SpatialProfile(2.0, np.zeros(8)),
                        zero_series(0.5), zero_series(0.5), zero_series(0.5))
        with pytest.raises(ValueError):
            ProblemData(AIRY, 1.0, 0.5, zero_profile(1.0),
                        zero_series(1.0), zero_series(0.5), zero_series(0.5))

    @pytest.mark.parametrize("x_grid, t_grid", [
        (np.linspace(0.0, 1.2, 9), np.linspace(0.0, 0.5, 5)),
        (np.linspace(-0.1, 1.0, 9), np.linspace(0.0, 0.5, 5)),
        (np.linspace(0.0, 1.0, 9), np.linspace(-0.1, 0.5, 5)),
        (np.linspace(0.0, 1.0, 9), np.linspace(0.0, 0.6, 5)),
    ])
    def test_output_points_outside_the_rectangle(self, x_grid, t_grid):
        data = plane_wave_data(AIRY, 1.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            solve_full(data, (x_grid, t_grid), SMALL_BUDGET)

    def test_output_points_on_the_rectangle_edges(self):
        # end points off by a rounding error are accepted
        data = zero_data(AIRY, 1.0, 0.5)
        xg = np.linspace(-1e-13, 1.0 + 1e-13, 7)
        tg = np.linspace(-1e-14, 0.5 * (1 + 1e-13), 5)
        field = solve_full(data, (xg, tg), SMALL_BUDGET)
        assert field.values.shape == (7, 5)

    def test_output_grid_arrays(self):
        data = zero_data(AIRY, 1.0, 0.5)
        xg = np.linspace(0.0, 1.0, 7)
        tg = np.linspace(0.0, 0.5, 5)
        field = solve_full(data, (xg, tg), SMALL_BUDGET)
        np.testing.assert_allclose(field.x_grid, xg)
        np.testing.assert_allclose(field.t_grid, tg)
