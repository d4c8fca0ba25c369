"""Implicit finite-difference reference solver."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hnls_utm import oracle
from hnls_utm.dispersion import DispersionParams
from hnls_utm.errors import StepDiverged
from hnls_utm.linear import ProblemData, zero_data
from hnls_utm.oracle import OracleConfig, oracle_solve
from hnls_utm.presets import (gaussian_profile, plane_wave_data,
                              plane_wave_field, zero_profile, zero_series)

AIRY = DispersionParams(1.0, 0.0, 0.0)


class TestConfig:
    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            OracleConfig(nx=8)
        with pytest.raises(ValueError):
            OracleConfig(nt=15)

    @pytest.mark.parametrize("counts", [{"nx": True}, {"nt": 16.0},
                                        {"nx": "64"}],
                             ids=["nx-bool", "nt-float", "nx-quoted"])
    def test_counts_are_integers(self, counts):
        with pytest.raises(ValueError, match="integer point count"):
            OracleConfig(**counts)

    def test_theta_range(self):
        with pytest.raises(ValueError):
            OracleConfig(theta=0.4)
        with pytest.raises(ValueError):
            OracleConfig(theta=1.1)
        OracleConfig(theta=0.5)
        OracleConfig(theta=1.0)


class TestZero:
    def test_zero_data_zero_field(self):
        field = oracle_solve(zero_data(AIRY, 1.0, 0.5),
                             OracleConfig(nx=32, nt=32))
        assert np.max(np.abs(field.values)) == 0.0


class TestPlaneWave:
    def test_accuracy_at_256(self):
        data = plane_wave_data(AIRY, 1.0, 0.5, 2.0)
        field = oracle_solve(data, OracleConfig(nx=256, nt=256))
        exact = plane_wave_field(AIRY, 2.0, field.x_grid, field.t_grid)
        assert field.relative_l2_gap(exact) <= 1e-2

    def test_order_of_accuracy(self):
        # the time-symmetric weight is second order; fitted rate >= 1.8
        data = plane_wave_data(AIRY, 1.0, 0.5, 2.0)
        errs, ns = [], [64, 128, 256]
        for n in ns:
            field = oracle_solve(data, OracleConfig(nx=n, nt=n, theta=0.5))
            exact = plane_wave_field(AIRY, 2.0, field.x_grid, field.t_grid)
            errs.append(field.relative_l2_gap(exact))
        rate = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert rate >= 1.8


class TestBoundaryModes:
    def test_full_data_mode_keeps_series(self):
        horizon = 0.1
        from hnls_utm.transforms import TimeSeries
        ones = TimeSeries(horizon, np.ones(16))
        data = ProblemData(AIRY, 1.0, horizon, zero_profile(1.0),
                           ones, ones, zero_series(horizon))
        field = oracle_solve(data, OracleConfig(nx=32, nt=32))
        assert np.max(np.abs(field.values)) > 0.1


class TestDissipativeMass:
    def test_discrete_mass_nonincreasing(self):
        # real kappa, homogeneous BCs: the L2 mass never grows (slack 1e-3)
        horizon = 0.04
        params = DispersionParams(0.5, 0.0, 0.0)
        data = ProblemData(params, 1.0, horizon,
                           gaussian_profile(1.0, 0.5, 0.15),
                           zero_series(horizon), zero_series(horizon),
                           zero_series(horizon), kappa=0.05, lam=3.0)
        field = oracle_solve(data, OracleConfig(nx=128, nt=128))
        mass = np.trapezoid(np.abs(field.values) ** 2, field.x_grid, axis=0)
        assert np.all(np.diff(mass) <= 1e-3 * mass[0])


class TestNonlinearStep:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_step_diverges_for_huge_kappa(self):
        horizon = 0.1
        data = ProblemData(AIRY, 1.0, horizon,
                           gaussian_profile(1.0, 0.5, 0.15),
                           zero_series(horizon), zero_series(horizon),
                           zero_series(horizon), kappa=1e6, lam=3.0)
        with pytest.raises(StepDiverged):
            oracle_solve(data, OracleConfig(nx=32, nt=16))


class TestStencilGather:
    @staticmethod
    def row_loop(stencil, state):
        """L at the interior points row by row, each row's products summed
        left to right as the gather sums them."""
        idx, wts = stencil
        return np.array([sum(complex(w) * complex(s)
                             for w, s in zip(wrow, state[irow]))
                         for irow, wrow in zip(idx, wts)])

    @pytest.mark.parametrize("n", [129, 257])
    def test_fields_match_the_row_loop(self, n, monkeypatch):
        # nonzero boundary data and a nonlinearity exercise both gathers
        # (L u and the coupling to the known points) and the sweep
        data = replace(plane_wave_data(DispersionParams(1.0, 0.5, 1.0),
                                       1.0, 0.5, 2.0), kappa=0.05)
        config = OracleConfig(nx=n, nt=n)
        got = oracle_solve(data, config).values
        monkeypatch.setattr(oracle, "_apply_l", self.row_loop)
        want = oracle_solve(data, config).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestBandedMatrix:
    def test_band_storage_is_the_dense_implicit_matrix(self):
        # I - dt theta L on the unknowns (u_1..u_{nx-2}, ghost), with L's
        # columns read off the gather table by _apply_l on unit states and
        # the Neumann closure as the last row
        nx, dt_theta = 16, 0.013
        x = np.linspace(0.0, 1.0, nx)
        stencil, (n_idx, n_w) = oracle._stencil(DispersionParams(1.0, 0.5, 1.0), x)
        lmat = np.stack([oracle._apply_l(stencil, e) for e in np.eye(nx + 1)], axis=1)
        unknowns = np.r_[1:nx - 1, nx]
        want = np.zeros((nx - 1, nx - 1), dtype=complex)
        want[:-1] = np.eye(nx - 1)[:-1] - dt_theta * lmat[:, unknowns]
        neumann = np.zeros(nx + 1)
        neumann[n_idx] = n_w
        want[-1] = neumann[unknowns]
        ab = oracle._banded_matrix(stencil, (n_idx, n_w), dt_theta)
        kl, ku = oracle._KL, oracle._KU
        # the band read back; zero outside it, so want must be banded too
        r, c = np.indices(want.shape)
        band = (r - c <= kl) & (c - r <= ku)
        got = np.zeros_like(want)
        got[band] = ab[kl + ku + r[band] - c[band], c[band]]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        # the kl rows LU fills in are left empty
        assert not np.any(ab[:kl])


class TestStepSolve:
    """The numpy factorization and solve of the constant step against a
    dense solve and against scipy's banded LU, which only this test
    imports."""

    @staticmethod
    def step_band(nx, params=AIRY, dt_theta=0.55 * 0.5 / 511):
        x = np.linspace(0.0, 1.0, nx)
        stencil, neumann = oracle._stencil(params, x)
        return oracle._banded_matrix(stencil, neumann, dt_theta)

    @staticmethod
    def dense(ab):
        n, kl, ku = ab.shape[1], oracle._KL, oracle._KU
        r, c = np.indices((n, n))
        band = (r - c <= kl) & (c - r <= ku)
        a = np.zeros((n, n), dtype=complex)
        a[band] = ab[kl + ku + r[band] - c[band], c[band]]
        return a

    @pytest.mark.parametrize("nx", [16, 17, 129, 512])
    def test_solve_matches_a_dense_solve(self, nx):
        # 16 and 17 leave the last block short; the step of a 512^2 plane
        # wave has condition number near 8e5, where scipy's banded LU is
        # 1e-12 off the dense solve too
        ab = self.step_band(nx, DispersionParams(1.0, 0.5, 1.0))
        rng = np.random.default_rng(nx)
        b = rng.standard_normal(nx - 1) + 1j * rng.standard_normal(nx - 1)
        want = np.linalg.solve(self.dense(ab), b)
        got = oracle.lapack.zgbtrs(oracle.lapack.zgbtrf(ab), b)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_singular_step_raises(self):
        ab = self.step_band(32)
        ab[oracle._KL + oracle._KU, :5] = 0.0
        ab[:, :5] = 0.0
        with pytest.raises(StepDiverged, match="singular"):
            oracle.lapack.zgbtrf(ab)

    @pytest.mark.parametrize("case", ["picard-129", "plane-wave-512"])
    def test_fields_match_lapack(self, case, monkeypatch):
        from scipy.linalg import lapack as scipy_lapack
        kl, ku = oracle._KL, oracle._KU
        if case == "picard-129":
            horizon = 0.04
            data = ProblemData(DispersionParams(0.5, 0.0, 0.0), 1.0, horizon,
                               gaussian_profile(1.0, 0.5, 0.2),
                               zero_series(horizon), zero_series(horizon),
                               zero_series(horizon), kappa=0.05, lam=3.0)
            config = OracleConfig(nx=129, nt=129)
        else:
            data = plane_wave_data(AIRY, 1.0, 0.5, 2.0)
            config = OracleConfig(nx=512, nt=512)
        got = oracle_solve(data, config).values

        def zgbtrf(ab):
            lu, piv, info = scipy_lapack.zgbtrf(ab, kl, ku)
            assert info == 0
            return lu, piv

        def zgbtrs(factor, b):
            sol, info = scipy_lapack.zgbtrs(factor[0], kl, ku, b, factor[1])
            assert info == 0
            return sol

        monkeypatch.setattr(oracle, "lapack", SimpleNamespace(zgbtrf=zgbtrf,
                                                              zgbtrs=zgbtrs))
        want = oracle_solve(data, config).values
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
