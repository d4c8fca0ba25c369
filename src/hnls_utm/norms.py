"""Sobolev, Bessel-potential, and mixed space-time norms.

Integer-order Sobolev norms follow the sum convention
||v||_{H^s(0,ell)} = sum_{j=0}^{s} ||d^j v / dx^j||_{L2(0,ell)}.
Fractional orders use one concrete realization of the restriction norm: a
reflect-and-taper extension to a C^1 function of period 4*ell, a discrete
Fourier multiplier (1+k^2)^{s/2}, and the L^p norm of the restriction back to
(0, ell).  Comparisons against other realizations are only meaningful up to
equivalence constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .fields import Field, is_uniform
from .transforms import CubicSpline, SpatialProfile, TimeSeries, chebyshev_grid, composite_gl

# the largest share of the multiplied spectrum that FFT rounding may reach in
# bessel_norm: eps max|F phi| max (1 + k^2)^{s/2} over max|(1 + k^2)^{s/2} F phi|.
# Resolved profiles read below 1e-3 (a Gaussian of width 0.2 at s = 39.5:
# 1.9e-5, its norm steady to 3e-8), noise above it (width 0.01 at s = 20.5:
# 1.5, its norm moved 24% by a 2^-40 change of amplitude)
MAX_ROUNDING_SHARE = 1e-3


@dataclass(frozen=True)
class NormSpec:
    s: float = 0.0
    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        if not 0 <= self.s < np.inf:
            raise ValueError("s must be finite and nonnegative")
        if not (self.p >= 2 and self.q >= 2):
            raise ValueError("p and q must be at least 2")


def check_admissible_pair(q: float, p: float) -> bool:
    """True iff q, p >= 2 and 3/q + 1/p = 1/2 (to 1e-12; inf allowed)."""
    if not (q >= 2 and p >= 2):
        return False
    inv_q = 0.0 if np.isinf(q) else 1.0 / q
    inv_p = 0.0 if np.isinf(p) else 1.0 / p
    return abs(3.0 * inv_q + inv_p - 0.5) <= 1e-12


def _cheb_interpolant(profile: SpatialProfile | TimeSeries):
    """Degree-128 Chebyshev-series representation of the profile's analytic
    source on [0, ell], or None for sampled profiles."""
    if profile.func is None:
        return None
    deg, ell = 128, profile.grid()[-1]
    x = chebyshev_grid(deg + 1, ell)
    y = np.asarray(profile.func(x), dtype=np.complex128)
    re = npcheb.Chebyshev.fit(x, y.real, deg, domain=[0.0, ell])
    im = npcheb.Chebyshev.fit(x, y.imag, deg, domain=[0.0, ell])
    return re, im


def _derivative_func(profile: SpatialProfile | TimeSeries, order: int):
    """Callable for the order-th derivative of the profile."""
    cheb = _cheb_interpolant(profile)
    if cheb is not None:
        re, im = cheb
        dre = re.deriv(order) if order else re
        dim = im.deriv(order) if order else im
        return lambda x: dre(x) + 1j * dim(x)
    # uniform samples without an analytic source: spline derivatives
    spline = CubicSpline(profile.grid(), profile.samples)
    return spline.derivative(order) if order else spline


def sobolev_norm(profile: SpatialProfile | TimeSeries, s: float) -> float:
    """H^s(0, ell) norm, ell = profile.grid()[-1]; integer s uses the
    derivative-sum convention, fractional s the extension realization of
    bessel_norm at p=2."""
    if not 0 <= s < np.inf:
        raise ValueError("s must be finite and nonnegative")
    if float(s).is_integer():
        # 64 uniform 8-point panels: composite_gl takes (257 - 1) // 4
        x, w = composite_gl(0.0, profile.grid()[-1], 257)
        total = 0.0
        for j in range(int(s) + 1):
            vals = _derivative_func(profile, j)(x)
            total += _scaled_lp(np.abs(vals), lambda m: np.sum(w * m), 2.0)
        return total
    return bessel_norm(profile, s, 2.0)


def _smoothstep(s: np.ndarray) -> np.ndarray:
    """C-infinity ramp from 0 (s<=0) to 1 (s>=1)."""
    s = np.clip(s, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        b = np.where(s < 1, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return a / (a + b)


def _periodic_extension(profile: SpatialProfile | TimeSeries):
    """Samples of the period-4*ell reflect-and-taper extension, 1024 per
    quarter period.

    Layout over one period [0, 4*ell): the profile itself on [0, ell], a
    tapered point reflection 2 phi(ell) - phi(2 ell - x) on [ell, 2*ell],
    zeros on [2*ell, 3*ell], and a tapered point reflection about x = 0
    (placed at the period's end) on [3*ell, 4*ell).  Point reflections match
    value and slope, so the extension is C^1 and in H^s for s < 5/2.
    """
    ell = profile.grid()[-1]
    n = 1024
    h = ell / n
    x = np.arange(n) * h  # one quarter period
    core = np.asarray(profile(x), dtype=np.complex128)
    ends = np.asarray(profile(np.array([0.0, ell])), dtype=np.complex128)
    flip = np.asarray(profile(ell - x), dtype=np.complex128)
    # taper falls from 1 at the interface to 0 at the far end of each copy
    right = (2.0 * ends[1] - flip) * _smoothstep(1.0 - x / ell)
    # reflection about x = 0 occupies [3*ell, 4*ell): at 4*ell - y the value
    # is 2 phi(0) - phi(y), y = ell - x
    mirror = (2.0 * ends[0] - flip) * _smoothstep(x / ell)
    ext = np.concatenate([core, right, np.zeros(n, dtype=np.complex128), mirror])
    return ext, h


def bessel_norm(profile: SpatialProfile | TimeSeries, s: float, p: float) -> float:
    """Bessel-potential norm ||F^{-1}{(1+k^2)^{s/2} F phi}||_{L^p} restricted
    to (0, ell), ell = profile.grid()[-1], realized through the periodic
    extension.  ValueError when the multiplier lifts the spectrum's rounding
    past MAX_ROUNDING_SHARE of the result, where the norm would be rounding
    noise; a result that overflows is returned as it is."""
    if not 0 <= s < np.inf:
        raise ValueError("s must be finite and nonnegative")
    if not p >= 2:
        raise ValueError("p must be at least 2")
    ext, h = _periodic_extension(profile)
    n_tot = len(ext)
    period = n_tot * h
    k = 2.0 * np.pi * np.fft.fftfreq(n_tot, d=h)
    mult = (1.0 + k ** 2) ** (s / 2.0)
    spectrum = np.fft.fft(ext)
    weighted = spectrum * mult
    top = float(np.max(np.abs(weighted)))
    if 0.0 < top < np.inf:
        share = (np.finfo(np.float64).eps * float(np.max(np.abs(spectrum)))
                 / top * float(np.max(mult)))
        if not share <= MAX_ROUNDING_SHARE:
            raise ValueError(
                "order s = %g amplifies rounding to %.2g of the norm (limit "
                "%g): the profile is not resolved at this order"
                % (s, share, MAX_ROUNDING_SHARE))
    smoothed = np.fft.ifft(weighted)
    n_core = n_tot // 4
    core = smoothed[:n_core + 1]
    xs = np.arange(len(core)) * h
    if np.isinf(p):
        return float(np.max(np.abs(core)))
    return _scaled_lp(np.abs(core), lambda m: np.trapezoid(m, xs), p)


def _scaled_lp(mags, integrate, p: float) -> float:
    """integrate(mags ** p) ** (1 / p) with mags divided by their largest
    value first, so that the power cannot overflow a representable norm."""
    top = float(np.max(mags))
    if not 0.0 < top < np.inf:
        return top
    return top * float(integrate((mags / top) ** p)) ** (1.0 / p)


def _slice_profile(field: Field, j: int) -> SpatialProfile:
    """The j-th time slice as uniform samples; ValueError unless the field's
    x grid is uniform."""
    if not is_uniform(field.x_grid):
        raise ValueError("Sobolev and Bessel slice norms need a uniform x grid")
    ell = float(field.x_grid[-1] - field.x_grid[0])
    return SpatialProfile(ell, field.values[:, j])


def spatial_slice_norm(field: Field, j: int, spec: NormSpec) -> float:
    """Norm of the j-th time slice per the spatial part of spec."""
    if spec.s == 0 and spec.p == 2:
        # plain grid L2; exact coincidence with the C_t L2_x convention
        sq = np.abs(field.values[:, j]) ** 2
        return float(np.sqrt(np.trapezoid(sq, field.x_grid)))
    prof = _slice_profile(field, j)
    if spec.p != 2:
        return bessel_norm(prof, spec.s, spec.p)
    return sobolev_norm(prof, spec.s)


def mixed_norm(field: Field, spec: NormSpec) -> float:
    """L^q in time, q = spec.q, of the spatial slice norms; q = inf takes the
    grid max."""
    q = spec.q
    slice_norms = np.array([spatial_slice_norm(field, j, spec)
                            for j in range(len(field.t_grid))])
    if np.isinf(q):
        return float(np.max(slice_norms))
    return float(np.trapezoid(slice_norms ** q, field.t_grid) ** (1.0 / q))


def ct_l2_norm(field: Field) -> float:
    """The C_t L2_x norm: max over the time grid of the spatial L2 norm."""
    return mixed_norm(field, NormSpec(0.0, 2.0, np.inf))


def ct_l2_distance(a: Field, b: Field) -> float:
    return ct_l2_norm(a - b)
