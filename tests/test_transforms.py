"""Closed forms of the solver's transforms: the finite-interval Fourier
transform (linear._apply_kernel on linear._x_quadrature), the truncated time
transforms (linear._time_transform, linear._cumulative_transform) and the
factored forcing transform (linear._factor_forcing); the Laplace transform
and the data containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnls_utm.errors import ExponentialOverflow
from hnls_utm.linear import (_apply_kernel, _cumulative_transform,
                             _factor_forcing, _time_transform, _x_quadrature)
from hnls_utm.transforms import (GridKind, SpatialProfile, TimeSeries,
                                 laplace_transform)


def profile_of(func, ell=1.0, n=257):
    return SpatialProfile.from_callable(func, ell, n=n)


def interval_fourier(prof, k):
    """phi_hat(k) = int_0^ell e^{-i k x} phi(x) dx as the solver computes it:
    the x-kernel applied to the profile on the x-quadrature."""
    xq = _x_quadrature(prof.ell)
    karr = np.atleast_1d(np.asarray(k, dtype=np.complex128))
    (out,) = _apply_kernel(karr, None, xq, [prof(xq.nodes)])
    return complex(out[0]) if np.isscalar(k) else out


def tilde_transform(ser, w):
    """int_0^horizon e^{-i w t} phi(t) dt as the solver computes it."""
    return complex(_time_transform(ser.samples, ser.horizon, np.array([w]))[0])


def forcing_transform(func, ell, horizon, k, w, nt=257):
    """int_0^horizon e^{-i w t} int_0^ell e^{-i k x} f(x, t) dx dt as the
    solver computes it: the forcing sampled on the x-quadrature and a uniform
    time grid, factored as A(x) B(t), the x-kernel on the columns of A and
    the time transform of the rows of B."""
    xq = _x_quadrature(ell)
    t = np.linspace(0.0, horizon, nt)
    factored = _factor_forcing(func(xq.nodes[:, None], t[None, :]))
    if factored is None:
        return 0.0
    a, b = factored
    (ahat,) = _apply_kernel(np.array([k], dtype=np.complex128), None, xq, [a])
    bt = _time_transform(b, horizon, np.array([w], dtype=np.complex128))
    return complex(np.sum(ahat * bt, axis=1)[0])


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
        running = _cumulative_transform(ser.samples[None, :], ser.horizon,
                                        np.array([0.0 + 0.0j]), np.ones((1, 1)))
        j = int(np.flatnonzero(ser.grid() == 0.5)[0])
        assert running[0, j] == pytest.approx(0.5)


class TestForcingTransform:
    def test_zero(self):
        zero = lambda x, t: np.zeros(np.broadcast(x, t).shape, dtype=complex)
        assert forcing_transform(zero, 1.0, 1.0, 1.0 + 0.0j, 1.0 + 0.0j, nt=65) == 0.0

    def test_separable_product(self):
        # f(x, t) = phi(x) psi(t): the transform factorizes
        ell, horizon = 1.0, 1.0
        prof = profile_of(lambda x: np.exp(1j * x), ell)
        psi = lambda t: np.exp(2j * t)
        k, w = 4.0 + 0.0j, 3.0 + 0.0j
        ser = TimeSeries.from_callable(lambda tt: psi(tt).astype(complex), horizon)
        want = interval_fourier(prof, k) * tilde_transform(ser, w)
        got = forcing_transform(lambda x, t: prof(x) * psi(t), ell, horizon, k, w)
        assert got == pytest.approx(want, rel=1e-9)

    def test_exponential_closed_form(self):
        a, b = 2.0, 3.0
        k, w = 5.0 + 0.0j, 1.0 + 0.0j
        x_part = (1 - np.exp(-1j * (k - a))) / (1j * (k - a))
        t_part = (np.exp(1j * (b - w)) - 1) / (1j * (b - w))
        got = forcing_transform(lambda x, t: np.exp(1j * a * x + 1j * b * t),
                                1.0, 1.0, k, w)
        assert got == pytest.approx(x_part * t_part, rel=1e-9)


class TestLaplace:
    def test_zero(self):
        lt = laplace_transform(np.zeros(64, dtype=complex), 1.0)
        assert np.all(lt(np.array([0.5, 1.0, 2.0])) == 0.0)

    def test_indicator(self):
        lt = laplace_transform(np.ones(257, dtype=complex), 1.0)
        assert lt(np.array([1.0]))[0] == pytest.approx(1 - np.exp(-1.0), rel=1e-9)


class TestProfiles:
    def test_chebyshev_grid_kind(self):
        prof = SpatialProfile.from_callable(
            lambda x: np.sin(x).astype(complex), 1.0, n=33,
            grid_kind=GridKind.CHEBYSHEV)
        x = np.array([0.1, 0.73])
        np.testing.assert_allclose(prof(x), np.sin(x), atol=1e-10)

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
