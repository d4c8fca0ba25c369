"""Closed forms of the solver's transforms: the finite-interval Fourier
transform (linear._apply_kernel on the unit x-quadrature), the truncated time
transforms, at the horizon and running (linear._time_transform, the one
weighted Filon-spline routine) and the factored forcing transform
(linear._factor_forcing); the not-a-knot cubic spline, the Laplace transform
and the data containers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnls_utm.errors import ExponentialOverflow
from hnls_utm.linear import (RANK_CUT, XQ_NODES, _apply_kernel,
                             _factor_forcing, _time_transform)
from hnls_utm import transforms
from hnls_utm.transforms import (CubicSpline, SpatialProfile, TimeSeries,
                                 chebyshev_grid, laplace_transform)


def profile_of(func):
    return SpatialProfile.from_callable(func, 1.0)


def interval_fourier(prof, k):
    """phi_hat(k) = int_0^1 e^{-i k x} phi(x) dx as the solver computes it:
    the x-kernel applied to the profile on the x-quadrature."""
    karr = np.atleast_1d(np.asarray(k, dtype=np.complex128))
    out = _apply_kernel(karr, None, prof(XQ_NODES)[:, None])[:, 0]
    return complex(out[0]) if np.isscalar(k) else out


def tilde_transform(ser, w):
    """int_0^horizon e^{-i w t} phi(t) dt as the solver computes it."""
    return complex(_time_transform(ser.samples[None], ser.horizon, np.array([w]),
                                   [1.0])[0])


def forcing_transform(func, horizon, k, w, nt=257):
    """int_0^horizon e^{-i w t} int_0^1 e^{-i k x} f(x, t) dx dt as the
    solver computes it: the forcing sampled on the x-quadrature and a uniform
    time grid, factored as A(x) B(t), the x-kernel on the columns of A and
    the time transform of the rows of B weighted by A's x-transforms."""
    t = np.linspace(0.0, horizon, nt)
    factored = _factor_forcing(func(XQ_NODES[:, None], t[None, :]))
    if factored is None:
        return 0.0
    a, b = factored
    ahat = _apply_kernel(np.array([k], dtype=np.complex128), None, a)
    return complex(_time_transform(b, horizon, np.array([w], dtype=np.complex128),
                                   ahat)[0])


class TestIntervalFourier:
    def test_constant_at_zero(self):
        prof = profile_of(lambda x: np.ones_like(x, dtype=complex))
        assert interval_fourier(prof, 0.0 + 0.0j) == pytest.approx(1.0)

    def test_constant_at_full_period(self):
        prof = profile_of(lambda x: np.ones_like(x, dtype=complex))
        assert interval_fourier(prof, 2 * np.pi + 0.0j) == pytest.approx(0.0, abs=1e-12)

    def test_plane_wave_closed_form(self):
        prof = profile_of(lambda x: np.exp(3j * x))
        want = (1 - np.exp(-2j)) / (2j)
        assert interval_fourier(prof, 5.0 + 0.0j) == pytest.approx(want, rel=1e-10)

    def test_overflow_guard(self):
        prof = profile_of(lambda x: np.ones_like(x, dtype=complex))
        with pytest.raises(ExponentialOverflow):
            interval_fourier(prof, 800.0j)

    def test_complex_argument_entire(self):
        prof = profile_of(lambda x: np.exp(3j * x))
        k = 5.0 - 2.0j
        want = (1 - np.exp(-1j * (k - 3) * 1.0)) / (1j * (k - 3))
        assert interval_fourier(prof, k) == pytest.approx(want, rel=1e-10)


class TestTildeTransform:
    def test_constant_zero_frequency(self):
        ser = TimeSeries.from_callable(lambda t: np.ones_like(t, dtype=complex), 2.0)
        assert tilde_transform(ser, 0.0 + 0.0j) == pytest.approx(2.0)

    def test_constant_resonant(self):
        ser = TimeSeries.from_callable(lambda t: np.ones_like(t, dtype=complex), np.pi)
        assert tilde_transform(ser, 2.0 + 0.0j) == pytest.approx(0.0, abs=1e-12)

    def test_linear_by_parts(self):
        ser = TimeSeries.from_callable(lambda t: t.astype(complex), 1.0)
        # int_0^1 t e^{-it} dt by parts
        want = 1j * np.exp(-1j) + (np.exp(-1j) - 1.0)
        assert tilde_transform(ser, 1.0 + 0.0j) == pytest.approx(want, rel=1e-10)

    def test_truncated_upper_limit(self):
        ser = TimeSeries.from_callable(lambda t: np.ones_like(t, dtype=complex), 2.0)
        # the running transform at the grid time t = 0.5
        running = _time_transform(ser.samples[None, :], ser.horizon,
                                  np.array([0.0 + 0.0j]), [1.0], 1)
        j = int(np.flatnonzero(ser.grid() == 0.5)[0])
        assert running[0, j] == pytest.approx(0.5)


class TestForcingTransform:
    def test_zero(self):
        zero = lambda x, t: np.zeros(np.broadcast(x, t).shape, dtype=complex)
        assert forcing_transform(zero, 1.0, 1.0 + 0.0j, 1.0 + 0.0j, nt=65) == 0.0

    def test_separable_product(self):
        # f(x, t) = phi(x) psi(t): the transform factorizes
        horizon = 1.0
        prof = profile_of(lambda x: np.exp(1j * x))
        psi = lambda t: np.exp(2j * t)
        k, w = 4.0 + 0.0j, 3.0 + 0.0j
        ser = TimeSeries.from_callable(lambda tt: psi(tt).astype(complex), horizon)
        want = interval_fourier(prof, k) * tilde_transform(ser, w)
        got = forcing_transform(lambda x, t: prof(x) * psi(t), horizon, k, w)
        assert got == pytest.approx(want, rel=1e-9)

    def test_exponential_closed_form(self):
        a, b = 2.0, 3.0
        k, w = 5.0 + 0.0j, 1.0 + 0.0j
        x_part = (1 - np.exp(-1j * (k - a))) / (1j * (k - a))
        t_part = (np.exp(1j * (b - w)) - 1) / (1j * (b - w))
        got = forcing_transform(lambda x, t: np.exp(1j * a * x + 1j * b * t),
                                1.0, k, w)
        assert got == pytest.approx(x_part * t_part, rel=1e-9)


class TestForcingFactors:
    @staticmethod
    def synthetic(singular_values, shape=(len(XQ_NODES), 129)):
        """U diag(singular_values) V^H with random orthonormal U and V."""
        rng = np.random.default_rng(7)
        r = len(singular_values)
        u, _ = np.linalg.qr(rng.standard_normal((shape[0], r))
                            + 1j * rng.standard_normal((shape[0], r)))
        v, _ = np.linalg.qr(rng.standard_normal((shape[1], r))
                            + 1j * rng.standard_normal((shape[1], r)))
        return (u * np.asarray(singular_values)) @ v.conj().T

    @pytest.mark.parametrize("tolerance, rank", [
        (1e-3, 2), (1e-5, 3), (1e-9, 4), (1e4, 1)])
    def test_rank_follows_the_tolerance(self, tolerance, rank):
        # a solve cuts B at tolerance / 1000 of the largest singular value,
        # which it keeps whatever the cut; cut 0 keeps what lies above
        # rounding
        fq = self.synthetic([1.0, 1e-4, 1e-7, 1e-10])
        a, b = _factor_forcing(fq, RANK_CUT * tolerance)
        assert a.shape == (len(XQ_NODES), rank) and b.shape == (rank, 129)
        assert _factor_forcing(fq)[1].shape == (4, 129)
        # A B is fq with the dropped singular values alone taken out
        want = np.linalg.svd(fq, compute_uv=False)[rank]
        assert np.linalg.norm(fq - a @ b, 2) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("cut", [0.0, 1e-6])
    def test_zero_and_huge_forcings(self, cut):
        # a zero forcing factors to None; one within a factor max(fq.shape)
        # of the float maximum keeps its rank, the relative floor taken
        # before the multiplication by the largest singular value (s[0] * 256
        # overflows at 1e307)
        assert _factor_forcing(np.zeros((len(XQ_NODES), 65)), cut) is None
        fq = self.synthetic([1.0, 1e-3])
        a, b = _factor_forcing(1e307 * fq, cut)
        assert a.shape[1] == b.shape[0] == 2
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))


class TestLaplace:
    def test_zero(self):
        lt = laplace_transform(np.zeros(64, dtype=complex), 1.0)
        assert np.all(lt(np.array([0.5, 1.0, 2.0])) == 0.0)

    def test_indicator(self):
        lt = laplace_transform(np.ones(257, dtype=complex), 1.0)
        assert lt(np.array([1.0]))[0] == pytest.approx(1 - np.exp(-1.0), rel=1e-9)


class TestProfiles:
    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            SpatialProfile(1.0, np.zeros(3))
        with pytest.raises(ValueError):
            TimeSeries(1.0, np.zeros(2))

    def test_positive_extent(self):
        with pytest.raises(ValueError):
            SpatialProfile(-1.0, np.zeros(8))
        with pytest.raises(ValueError):
            TimeSeries(0.0, np.zeros(8))

    @pytest.mark.parametrize("cls", [SpatialProfile, TimeSeries])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                             ids=["nan", "inf", "imag-inf"])
    def test_finite_samples(self, cls, bad):
        # one non-finite sample is an input fault, named here rather than
        # deep inside a solve
        samples = np.zeros(8, dtype=np.complex128)
        samples[3] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            cls(1.0, samples)
        with pytest.raises(ValueError, match="samples must be finite"):
            cls.from_callable(lambda x: np.where(x > 0.5, bad, 0.0), 1.0)


SPLINE_GRIDS = pytest.mark.parametrize("grid", [
    lambda n: np.linspace(0.0, 1.5, n), lambda n: chebyshev_grid(n, 1.5)],
    ids=["uniform", "chebyshev"])


class TestCubicSpline:
    @SPLINE_GRIDS
    @pytest.mark.parametrize("n", [4, 5, 17])
    def test_reproduces_cubics_and_their_derivatives(self, grid, n):
        # not-a-knot ends make any cubic its own spline; its derivatives are
        # the closed forms, and the fourth is zero.  The third derivative
        # divides the samples' rounding by a cell width cubed: on the
        # 17-point Chebyshev grid scipy's spline is 1.3e-11 off too
        cubic = np.polynomial.Polynomial([0.3 - 1j, -2.0 + 0.5j, 1.5, 0.7 + 2j])
        x = grid(n)
        spline = CubicSpline(x, cubic(x))
        pts = np.linspace(-0.4, 1.9, 47)
        for order in range(4):
            want = cubic.deriv(order)(pts)
            got = spline.derivative(order)(pts) if order else spline(pts)
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=1e-10 * np.max(np.abs(want)))
        assert np.all(spline.derivative(4)(pts) == 0.0)

    def test_extends_the_end_cells(self):
        x = chebyshev_grid(17, 1.0)
        spline = CubicSpline(x, np.sin(3.0 * x))
        for cell, point in ((0, -0.3), (-1, 1.2)):
            h = point - x[:-1][cell]
            want = np.polyval(spline.c[:, cell], h)
            assert spline(point) == pytest.approx(want, rel=1e-14)
            assert spline(np.array([point]))[0] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_axis(self, dtype):
        # the spline axis is either axis of y; complex samples are splined
        # as their real and imaginary parts
        rng = np.random.default_rng(1)
        x = chebyshev_grid(9, 2.0)
        y = rng.standard_normal((9, 3)).astype(dtype)
        if dtype is np.complex128:
            y += 1j * rng.standard_normal((9, 3))
        pts = np.linspace(-0.2, 2.2, 11)
        along0 = CubicSpline(x, y, axis=0)
        along1 = CubicSpline(x, y.T, axis=1)
        assert along0.c.shape == along1.c.shape == (4, 8, 3)
        assert along0.c.dtype == along1.c.dtype == dtype
        assert along0(pts).shape == (11, 3) and along1(pts).shape == (3, 11)
        np.testing.assert_array_equal(along1(pts), along0(pts).T)
        parts = CubicSpline(x, y.real)(pts) + 1j * CubicSpline(x, y.imag)(pts)
        np.testing.assert_allclose(along0(pts), parts, rtol=1e-15, atol=1e-15)

    @SPLINE_GRIDS
    @pytest.mark.parametrize("n", [4, 17, 257, 1025])
    def test_matches_scipy(self, grid, n):
        from scipy.interpolate import CubicSpline as ScipySpline
        rng = np.random.default_rng(n)
        x = grid(n)
        y = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        ours, theirs = CubicSpline(x, y, axis=1), ScipySpline(x, y, axis=1)
        scale = np.max(np.abs(theirs.c))
        np.testing.assert_allclose(ours.c, theirs.c, rtol=0.0, atol=1e-12 * scale)
        pts = np.linspace(-0.1, 1.6, 301)
        for order in range(4):
            want = theirs.derivative(order)(pts) if order else theirs(pts)
            got = ours.derivative(order)(pts) if order else ours(pts)
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=1e-12 * np.max(np.abs(want)))

    def test_slope_map_is_built_once_per_grid(self):
        transforms._slope_map.cache_clear()
        x = np.linspace(0.0, 1.0, 1025)
        for rows in (1, 3):
            CubicSpline(x, np.ones((rows, 1025)), axis=1)
        info = transforms._slope_map.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @SPLINE_GRIDS
    def test_long_grids_solve_without_the_map(self, grid, monkeypatch):
        # past SLOPE_MAP_POINTS the slopes are solved per call: a 4097-point
        # spline held 128.3 MiB with its cached map, and holds its own
        # coefficients alone now, with the map's values
        n = 4097
        assert transforms.SLOPE_MAP_POINTS < n
        transforms._slope_map.cache_clear()
        x = grid(n)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tracemalloc.start()
        try:
            spline = CubicSpline(x, y)
            held = tracemalloc.get_traced_memory()[0] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert held < 1.0, held
        assert transforms._slope_map.cache_info().currsize == 0
        monkeypatch.setattr(transforms, "SLOPE_MAP_POINTS", n)
        dense = CubicSpline(x, y)
        transforms._slope_map.cache_clear()
        pts = np.linspace(-0.1, 1.6, 301)
        want = dense(pts)
        np.testing.assert_allclose(spline(pts), want, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("x", [np.linspace(0.0, 1.0, 3),
                                   np.array([0.0, 0.5, 0.5, 1.0]),
                                   np.array([0.0, 0.6, 0.4, 1.0])])
    def test_rejects_short_or_unordered_grids(self, x):
        with pytest.raises(ValueError):
            CubicSpline(x, np.zeros(len(x)))


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-8, 8))
@settings(max_examples=50, deadline=None)
def test_linearity(a_re, b_re, k_re):
    phi = profile_of(lambda x: np.exp(1j * x))
    psi = profile_of(lambda x: x.astype(complex))
    combo = profile_of(lambda x: a_re * np.exp(1j * x) + b_re * x)
    k = complex(k_re, 0.3)
    lhs = interval_fourier(combo, k)
    rhs = a_re * interval_fourier(phi, k) + b_re * interval_fourier(psi, k)
    assert lhs == pytest.approx(rhs, abs=1e-11 * (1 + abs(rhs)))


def test_inversion_round_trip():
    # effectively band-limited profile (smooth, compactly supported inside
    # the interval): truncated-window inversion recovers it
    def bump(x):
        s = (np.asarray(x) - 0.1) / 0.8
        out = np.zeros(s.shape, dtype=complex)
        inside = (s > 0) & (s < 1)
        out[inside] = np.exp(4.0 - 1.0 / s[inside] - 1.0 / (1.0 - s[inside]))
        return out

    prof = profile_of(bump)
    k = np.linspace(-260.0, 260.0, 12001) + 0.0j
    vals = interval_fourier(prof, k)
    x = np.linspace(0.05, 0.95, 19)
    rec = np.trapezoid(vals[None, :] * np.exp(1j * np.outer(x, k.real)),
                       k.real, axis=1) / (2 * np.pi)
    np.testing.assert_allclose(rec, prof(x), atol=1e-6)
