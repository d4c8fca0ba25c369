"""Nonlinearity, compatibility, lifespan, Picard iteration, dissipation."""

import numpy as np
import pytest

from hnls_utm import linear
from hnls_utm.dispersion import DispersionParams
from hnls_utm.errors import (InhomogeneousBoundary, MissingProxy,
                             NoConvergence)
from hnls_utm.fields import Field
from hnls_utm.linear import ProblemData, QuadratureBudget
from hnls_utm.nonlinear import (Regime, apply_nonlinearity,
                                check_compatibility, data_norm_sum,
                                default_proxies, dissipation_audit,
                                lifespan_indicator, mvt_gap, picard_solve)
from hnls_utm.presets import (gaussian_profile, plane_wave_exact,
                              plane_wave_field, zero_profile, zero_series)
from hnls_utm.transforms import SpatialProfile, TimeSeries

AIRY = DispersionParams(1.0, 0.0, 0.0)
HALF = DispersionParams(0.5, 0.0, 0.0)


def small_field(value):
    x = np.linspace(0.0, 1.0, 9)
    t = np.linspace(0.0, 0.5, 9)
    return Field(x, t, np.full((9, 9), value, dtype=complex))


class TestApplyNonlinearity:
    def test_zero_field(self):
        out = apply_nonlinearity(small_field(0.0), 1.0, 3.0)
        assert np.max(np.abs(out.values)) == 0.0

    def test_cubic_constant(self):
        out = apply_nonlinearity(small_field(2.0), 1.0 + 0.0j, 3.0)
        np.testing.assert_allclose(out.values, 8.0)

    def test_polar_identity(self):
        u = 1.5 * np.exp(0.7j)
        for lam in (2.0, 2.5, 3.0):
            out = apply_nonlinearity(small_field(u), 2.0 - 1.0j, lam)
            want = (2.0 - 1.0j) * abs(u) ** (lam - 1.0) * u
            assert out.values[0, 0] == pytest.approx(want, rel=1e-12)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            apply_nonlinearity(small_field(1.0), 1.0, 1.0)


class TestMvtIdentity:
    def test_equal_arguments(self):
        assert mvt_gap(1.0 + 1.0j, 1.0 + 1.0j, 3.0) == 0.0

    def test_cubic_unit_step(self):
        # |1|^2 * 1 - 0 = 1
        assert mvt_gap(1.0 + 0.0j, 0.0 + 0.0j, 3.0) == pytest.approx(1.0, rel=1e-9)

    def test_matches_direct_difference(self):
        rng = np.random.default_rng(7)
        for lam in (2.0, 2.5, 3.0, 4.0):
            for _ in range(20):
                u1 = complex(*rng.normal(size=2))
                u2 = complex(*rng.normal(size=2))
                direct = (abs(u1) ** (lam - 1) * u1
                          - abs(u2) ** (lam - 1) * u2)
                got = mvt_gap(u1, u2, lam)
                assert abs(got - direct) <= 1e-9 * (1.0 + abs(direct))

    def test_rejects_small_lambda(self):
        with pytest.raises(ValueError):
            mvt_gap(1.0, 0.0, 1.5)


class TestCompatibility:
    def test_zero_data_passes(self):
        horizon = 0.5
        data = ProblemData(AIRY, 1.0, horizon, zero_profile(1.0),
                           zero_series(horizon), zero_series(horizon),
                           zero_series(horizon))
        report = check_compatibility(data, 1.0)
        assert all(entry["passed"] for entry in report)

    def test_dirichlet_mismatch_detected(self):
        horizon = 0.5
        ones = SpatialProfile.from_callable(
            lambda x: np.ones_like(x, dtype=complex), 1.0)
        data = ProblemData(AIRY, 1.0, horizon, ones,
                           zero_series(horizon), zero_series(horizon),
                           zero_series(horizon))
        report = {e["condition"]: e for e in check_compatibility(data, 1.0)}
        left = report["left_dirichlet"]
        assert left["active"] and not left["passed"]
        assert left["gap"] == pytest.approx(1.0, rel=1e-9)
        # the Neumann condition is inactive at s = 1 and therefore passes
        assert not report["right_neumann"]["active"]
        assert report["right_neumann"]["passed"]

    def test_neumann_active_and_matching(self):
        horizon = 0.5
        linear = SpatialProfile.from_callable(lambda x: x.astype(complex), 1.0)
        h1 = TimeSeries.from_callable(
            lambda t: np.ones_like(t, dtype=complex), horizon)
        g0 = zero_series(horizon)
        h0 = TimeSeries.from_callable(
            lambda t: np.ones_like(t, dtype=complex), horizon)
        data = ProblemData(AIRY, 1.0, horizon, linear, g0, h0, h1)
        report = {e["condition"]: e for e in check_compatibility(data, 2.0)}
        assert report["right_neumann"]["active"]
        assert report["right_neumann"]["passed"]


class TestLifespan:
    def gaussian_data(self, horizon, kappa=0.05, lam=3.0):
        return ProblemData(HALF, 1.0, horizon,
                           gaussian_profile(1.0, 0.5, 0.2),
                           zero_series(horizon), zero_series(horizon),
                           zero_series(horizon), kappa=kappa, lam=lam)

    def proxies(self):
        with pytest.warns(UserWarning):
            return default_proxies()

    def test_zero_data_satisfied(self):
        horizon = 0.5
        data = ProblemData(AIRY, 1.0, horizon, zero_profile(1.0),
                           zero_series(horizon), zero_series(horizon),
                           zero_series(horizon), kappa=1.0, lam=3.0)
        ind = lifespan_indicator(data, 1.0, self.proxies())
        assert ind.regime is Regime.HIGH
        assert ind.lhs_value == 0.0 and ind.satisfied

    def test_sqrt_horizon_scaling_high(self):
        p = self.proxies()
        a = lifespan_indicator(self.gaussian_data(0.04), 1.0, p)
        b = lifespan_indicator(self.gaussian_data(0.16), 1.0, p)
        # same data bracket (zero boundary data, same profile): lhs ~ sqrt(T)
        assert b.lhs_value / a.lhs_value == pytest.approx(2.0, rel=1e-10)

    def test_low_regime_exponent(self):
        p = self.proxies()
        a = lifespan_indicator(self.gaussian_data(0.04), 0.0, p)
        b = lifespan_indicator(self.gaussian_data(0.16), 0.0, p)
        assert a.regime is Regime.LOW
        # s = 0, lam = 3: exponent (7 - 3)/6 = 2/3
        assert b.lhs_value / a.lhs_value == pytest.approx(4.0 ** (2.0 / 3.0),
                                                          rel=1e-10)

    def test_missing_proxy(self):
        with pytest.raises(MissingProxy):
            lifespan_indicator(self.gaussian_data(0.04), 1.0, {"c_s": 1.0})

    def test_rejects_out_of_range_s(self):
        p = self.proxies()
        for s in (0.5, 1.5, 2.5):
            with pytest.raises(ValueError):
                lifespan_indicator(self.gaussian_data(0.04), s, p)

    def test_low_regime_lambda_window(self):
        p = self.proxies()
        with pytest.raises(ValueError):
            lifespan_indicator(self.gaussian_data(0.04, lam=8.0), 0.0, p)

    def test_data_norm_sum_positive(self):
        assert data_norm_sum(self.gaussian_data(0.04), 1.0) > 0.0


class TestPicard:
    budget = QuadratureBudget(contour_nodes=12000, real_axis_window=30.0,
                              real_axis_nodes=6000)

    def gaussian_data(self, kappa, horizon=0.02, lam=3.0, amplitude=1.0):
        return ProblemData(HALF, 1.0, horizon,
                           gaussian_profile(1.0, 0.5, 0.2, amplitude),
                           zero_series(horizon), zero_series(horizon),
                           zero_series(horizon), kappa=kappa, lam=lam)

    def test_linear_case_returns_immediately(self):
        field, report = picard_solve(self.gaussian_data(0.0), (33, 17),
                                     self.budget)
        assert report.converged
        assert report.to_dict()["iterations"] == 0
        assert report.final_residual == 0.0
        assert np.max(np.abs(field.values)) > 0.1

    def test_small_kappa_contracts(self):
        field, report = picard_solve(self.gaussian_data(0.05), (49, 33),
                                     self.budget, max_iter=8, tol=1e-6)
        assert report.converged
        assert all(r < 1.0 for r in report.contraction_ratios)
        assert report.final_residual <= 1e-6
        d = report.to_dict()
        assert d["iterations"] == len(d["distances"])

    def test_one_node_set_per_solve(self, monkeypatch):
        # the contour nodes are built once, for the plan every iterate uses
        calls = []
        segments = linear._solver_segments

        def counting(*args, **kwargs):
            calls.append(1)
            return segments(*args, **kwargs)

        monkeypatch.setattr(linear, "_solver_segments", counting)
        _field, report = picard_solve(self.gaussian_data(0.05), (33, 17),
                                      self.budget, max_iter=8, tol=1e-6)
        assert len(report.distances) >= 2
        assert len(calls) == 1

    def test_first_contraction_ratio_shrinks_with_the_horizon(self):
        # the high-regularity lifespan condition carries a sqrt(T) factor
        budget = QuadratureBudget(8000, 45.0, 4000)
        ratios = []
        for horizon in (0.04, 0.01, 0.0025):
            _field, report = picard_solve(self.gaussian_data(0.05, horizon),
                                          (33, 17), budget, max_iter=8,
                                          tol=1e-10)
            ratios.append(report.contraction_ratios[0])
        assert ratios[0] > ratios[1] > ratios[2]

    def test_manufactured_nonlinear_solution(self):
        # u = (1 + t) P, P the Airy plane wave (a = 2), solves
        # i u_t + L u = f + kappa |u|^2 u for f = i P - kappa |u|^2 u; kappa is
        # large enough that an error in the iteration's forcing shows
        ell, horizon, a, kappa = 1.0, 0.5, 2.0, 0.5
        wave = plane_wave_exact(AIRY, a)

        def exact(x, t):
            return (1.0 + np.asarray(t)) * wave(x, t)

        def forcing(x, t):
            u = exact(x, t)
            return 1j * wave(x, t) - kappa * np.abs(u) ** 2 * u

        data = ProblemData(
            AIRY, ell, horizon,
            SpatialProfile.from_callable(lambda x: exact(x, 0.0), ell),
            TimeSeries.from_callable(lambda t: exact(0.0, t), horizon),
            TimeSeries.from_callable(lambda t: exact(ell, t), horizon),
            TimeSeries.from_callable(lambda t: 1j * a * exact(ell, t), horizon),
            forcing=Field.from_callable(forcing, np.linspace(0.0, ell, 257),
                                        np.linspace(0.0, horizon, 129)),
            kappa=kappa, lam=3.0)
        field, report = picard_solve(data, (49, 33), QuadratureBudget())
        assert report.converged
        want = Field.from_callable(exact, field.x_grid, field.t_grid)
        assert field.relative_l2_gap(want) <= 1e-3

    @pytest.mark.parametrize("lam", [2.0, 5.0])
    @pytest.mark.parametrize("kappa", [5.0, 5.0j], ids=["kappa-5", "kappa-5i"])
    def test_power_family_converges_with_the_rank_cut(self, monkeypatch,
                                                      lam, kappa):
        # criterion 03's problem off lambda = 3, on 33 x 17: every ratio is
        # below 1 (at most 0.06 measured), and cutting the forcing's B at
        # tolerance / 1000 moves the field by at most 8.6e-10 against the
        # cut at rounding level
        data = self.gaussian_data(kappa, 0.04, lam=lam)
        budget = QuadratureBudget(contour_nodes=32000, real_axis_window=45.0,
                                  real_axis_nodes=16000)
        field, report = picard_solve(data, (33, 17), budget, max_iter=12)
        assert report.converged
        assert report.contraction_ratios
        assert all(r < 1.0 for r in report.contraction_ratios)
        monkeypatch.setattr(linear, "RANK_CUT", 0.0)
        rounding, _report = picard_solve(data, (33, 17), budget, max_iter=12)
        assert field.relative_l2_gap(rounding) <= 1e-8

    def test_no_convergence_carries_report(self):
        with pytest.raises(NoConvergence) as err:
            picard_solve(self.gaussian_data(0.05), (33, 17), self.budget,
                         max_iter=1, tol=1e-14)
        assert err.value.report.distances  # partial history is attached
        assert not err.value.report.converged

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kappa, amplitude, distances, what", [
        (320.0, 1.0, 6, "distance overflows at iteration 7"),
        (1.0, 1e120, 0, r"N\(u\) overflows at iteration 1"),
        (1e305, 1.0, 0, "forcing solve overflows at iteration 1"),
        (1e307, 1.0, 0, "forcing solve overflows at iteration 1")],
        ids=["distance", "nonlinearity", "kappa-1e305", "kappa-1e307"])
    def test_divergence_raises_no_convergence(self, kappa, amplitude,
                                              distances, what):
        # kappa = 320 on the shipped Gaussian: distances 0.66, 2.3, 64,
        # 1.3e6, 7.3e18, 5.6e56, then the next one overflows; u0 = 1e120
        # overflows |u|^2 u before any distance.  At kappa = 1e305 the
        # forcing solve's field overflows (a rank cut evaluated as
        # s[0] * max(shape) * eps would overflow first and drop N(u), a
        # "converged" linear field), and at 1e307 the sampled forcing does.
        # None reaches a Field built from non-finite values (a ValueError,
        # not a solver error).
        with pytest.raises(NoConvergence, match=what) as err:
            picard_solve(self.gaussian_data(kappa, 0.04, amplitude=amplitude),
                         (33, 17), QuadratureBudget(8000, 45.0, 4000))
        report = err.value.report
        assert len(report.distances) == distances
        assert np.all(np.isfinite(report.distances))
        assert np.all(np.diff(report.distances) > 0)
        assert not report.converged
        if distances:
            assert report.final_residual == report.distances[-1]
        else:
            assert np.isnan(report.to_dict()["final_residual"])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            picard_solve(self.gaussian_data(0.0), (33, 17), self.budget,
                         max_iter=0)
        with pytest.raises(ValueError):
            picard_solve(self.gaussian_data(0.0), (33, 17), self.budget,
                         tol=0.0)

    @pytest.mark.parametrize("settings", [
        {"tol": float("nan")}, {"tol": float("inf")}, {"max_iter": 2.5},
        {"max_iter": True}],
        ids=["tol-nan", "tol-inf", "max_iter-fraction", "max_iter-bool"])
    def test_non_finite_tol_and_fractional_max_iter(self, settings):
        # rejected before any solve: a NaN tol never converges and an
        # infinite one accepts the first iterate
        with pytest.raises(ValueError, match="tol|max_iter"):
            picard_solve(self.gaussian_data(0.05), (33, 17), self.budget,
                         **settings)


class TestDissipation:
    def test_zero_field(self):
        f = Field(np.linspace(0, 1, 33), np.linspace(0, 0.1, 17),
                  np.zeros((33, 17)))
        audit = dissipation_audit(f, HALF, 0.05)
        assert np.all(audit.mass == 0.0)
        assert audit.monotone()

    def test_plane_wave_rejected(self):
        x = np.linspace(0, 1, 33)
        t = np.linspace(0, 0.1, 17)
        f = plane_wave_field(AIRY, 2.0, x, t)
        with pytest.raises(InhomogeneousBoundary):
            dissipation_audit(f, AIRY, 0.05)
