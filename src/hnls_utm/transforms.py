"""Data containers, the cubic spline and the Gauss-Legendre panel rule.

SpatialProfile and TimeSeries hold complex samples of the data on [0, ell]
and [0, horizon]; sampled data are carried off the grid by interpolation,
while analytic presets attach a callable that is evaluated directly.
CubicSpline is the package's one interpolant of samples: a numpy not-a-knot
spline on any ascending grid, whose node slopes come from a cached map up to
SLOPE_MAP_POINTS points and from a per-call solve past them.  gauss_panels
is the one 8-point Gauss-Legendre panel rule: the phase-graded contour
nodes, the mean-value identity's tau-quadrature and composite_gl (the
uniform rule of the norm integrals and of laplace_transform) all take it on
their own panel edges.
The data transforms of the solution formula (the interval Fourier transform
and the truncated time transforms) live in linear, next to the contours they
are evaluated on.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# the 8-point Gauss-Legendre rule on [-1, 1], computed once
GL8_NODES, GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)
CALLABLE_SAMPLES = 257  # the samples from_callable takes


# most grid points a spline takes its node slopes through the cached
# _slope_map for; past it, _slopes solves for them per call, since the map
# holds n^2 floats (134 MB at n = 4097)
SLOPE_MAP_POINTS = 1025


def _slopes(x: np.ndarray, slope: Optional[np.ndarray] = None) -> np.ndarray:
    """The node slopes, (n, m), of the not-a-knot spline on the ascending
    grid x of n points whose cell slopes are the columns of slope,
    (n - 1, m); with slope None, the (n, n - 1) map from the cell slopes to
    the node slopes.  They solve the tridiagonal system of a continuous
    second derivative, closed by a continuous third derivative at the second
    and the second-last node; one elimination sweep without pivoting, run on
    every column at once."""
    n = len(x)
    dx = np.diff(x)
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    # row i: sub[i] s[i-1] + diag[i] s[i] + sup[i] s[i+1] = rhs[i], and
    # rhs[i] sums coef times the cell slopes at cells, row by row
    sub = np.concatenate(([0.0], dx[1:], [d1]))
    diag = np.concatenate(([dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]))
    sup = np.concatenate(([d0], dx[:-1], [0.0]))
    i = np.arange(1, n - 1)
    rows = np.r_[i, i, 0, 0, n - 1, n - 1]
    cells = np.r_[i - 1, i, 0, 1, n - 3, n - 2]
    coef = np.r_[3.0 * dx[1:], 3.0 * dx[:-1],
                 (dx[0] + 2.0 * d0) * dx[1] / d0, dx[0] ** 2 / d0,
                 dx[-1] ** 2 / d1, (2.0 * d1 + dx[-1]) * dx[-2] / d1]
    if slope is None:
        rhs = np.zeros((n, n - 1))
        rhs[rows, cells] = coef
    else:
        rhs = np.zeros((n, slope.shape[1]))
        np.add.at(rhs, rows, coef[:, None] * slope[cells])
    for i in range(1, n):
        m = sub[i] / diag[i - 1]
        diag[i] -= m * sup[i - 1]
        rhs[i] -= m * rhs[i - 1]
    rhs[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        rhs[i] = (rhs[i] - sup[i] * rhs[i + 1]) / diag[i]
    return rhs


@functools.lru_cache(maxsize=8)
def _slope_map(grid: bytes) -> np.ndarray:
    """_slopes' (n, n - 1) map on the ascending grid given as its float64
    bytes.  It is shared through the cache, so it is read-only; it holds
    n^2 floats, 8 MB at n = 1025."""
    out = _slopes(np.frombuffer(grid))
    out.setflags(write=False)
    return out


class CubicSpline:
    """Not-a-knot cubic spline of the samples y along their axis, on the
    ascending grid x of at least 4 points.  It keeps scipy's CubicSpline
    layout: c is (4, n - 1, ...), highest power first, cell j's cubic in
    (x - x[j]); the end cells' cubics extend past the grid."""

    def __init__(self, x, y, axis=0):
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.moveaxis(np.asarray(y), axis, 0)
        if x.ndim != 1 or len(x) < 4 or len(y) != len(x):
            raise ValueError("need one grid of at least 4 points along the spline axis")
        dx = np.diff(x)[:, None]
        if not np.all(dx > 0):
            raise ValueError("the spline grid must ascend strictly")
        dtype = np.result_type(y.dtype, np.float64)
        # every step is real-linear, so complex rows go as (re, im) columns
        rows = np.ascontiguousarray(y.reshape(len(x), -1), dtype=dtype).view(np.float64)
        slope = np.diff(rows, axis=0) / dx
        if len(x) <= SLOPE_MAP_POINTS:
            s = _slope_map(x.tobytes()) @ slope
        else:
            s = _slopes(x, slope)
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], rows[:-1]))
        self.x, self.axis = x, axis
        self.c = c.view(dtype).reshape((4, len(x) - 1) + y.shape[1:])

    def __call__(self, points):
        """Values at points, their axes where the spline axis was."""
        points = np.asarray(points, dtype=np.float64)
        cell = np.clip(np.searchsorted(self.x, points, side="right") - 1,
                       0, len(self.x) - 2)
        h = (points - self.x[cell]).reshape(points.shape + (1,) * (self.c.ndim - 2))
        c = self.c[:, cell]
        out = c[0]
        for coef in c[1:]:
            out = out * h + coef
        return np.moveaxis(out, range(points.ndim),
                           range(self.axis, self.axis + points.ndim))

    def derivative(self, nu=1):
        """The nu-th derivative, a spline of the same layout and degree 3 - nu
        (the zero polynomial past 3)."""
        spline = copy.copy(self)
        powers = np.arange(len(self.c) - 1, nu - 1, -1)
        if len(powers) == 0:
            spline.c = np.zeros((1,) + self.c.shape[1:], dtype=self.c.dtype)
            return spline
        factor = np.prod([powers - q for q in range(nu)], axis=0)
        factor = factor.reshape((-1,) + (1,) * (self.c.ndim - 1))
        spline.c = self.c[:len(powers)] * factor
        return spline


def chebyshev_grid(n: int, ell: float) -> np.ndarray:
    """Chebyshev-Lobatto points mapped to [0, ell], increasing."""
    j = np.arange(n)
    return 0.5 * ell * (1.0 - np.cos(np.pi * j / (n - 1)))


def _checked_samples(samples):
    """samples as complex128; ValueError unless there are at least 4, all
    finite."""
    if len(samples) < 4:
        raise ValueError("need at least 4 samples")
    samples = np.asarray(samples, dtype=np.complex128)
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    return samples


@dataclass(frozen=True)
class SpatialProfile:
    """Complex samples of a function on a uniform grid over [0, ell].

    func, when given, is the analytic source of the samples and is used for
    off-grid evaluation; otherwise a cubic spline of the samples is used.
    """

    ell: float
    samples: np.ndarray
    func: Optional[Callable] = None

    def __post_init__(self):
        if not 0 < self.ell < np.inf:
            raise ValueError("ell must be finite and positive")
        object.__setattr__(self, "samples", _checked_samples(self.samples))

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.ell, len(self.samples))

    def __call__(self, x):
        if self.func is not None:
            return np.asarray(self.func(np.asarray(x)), dtype=np.complex128)
        return CubicSpline(self.grid(), self.samples)(x)

    @classmethod
    def from_callable(cls, func, ell):
        x = np.linspace(0.0, ell, CALLABLE_SAMPLES)
        return cls(ell, np.asarray(func(x), dtype=np.complex128), func)


@dataclass(frozen=True)
class TimeSeries:
    """Complex samples on a uniform grid over [0, horizon]."""

    horizon: float
    samples: np.ndarray
    func: Optional[Callable] = None

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise ValueError("horizon must be finite and positive")
        object.__setattr__(self, "samples", _checked_samples(self.samples))

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, len(self.samples))

    def __call__(self, t):
        if self.func is not None:
            return np.asarray(self.func(np.asarray(t)), dtype=np.complex128)
        return CubicSpline(self.grid(), self.samples)(t)

    @classmethod
    def from_callable(cls, func, horizon, n=CALLABLE_SAMPLES):
        t = np.linspace(0.0, horizon, n)
        return cls(horizon, np.asarray(func(t), dtype=np.complex128), func)


def gauss_panels(edges):
    """Nodes and weights of 8-point Gauss-Legendre on each panel between
    consecutive entries of the ascending array edges."""
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * GL8_NODES[None, :]).ravel(),
            (half[:, None] * GL8_WEIGHTS[None, :]).ravel())


def composite_gl(a: float, b: float, n_samples: int):
    """Composite 8-point Gauss-Legendre rule on uniform panels, their count
    scaled to the sample resolution of the data being integrated."""
    return gauss_panels(np.linspace(a, b, max(2, (n_samples - 1) // 4) + 1))


def laplace_transform(phi_samples: np.ndarray, r_max: float):
    """Return x -> int_0^{r_max} exp(-r x) phi(r) dr for compactly supported
    samples on a uniform grid over [0, r_max]."""
    samples = np.asarray(phi_samples, dtype=np.complex128)
    r, w = composite_gl(0.0, r_max, len(samples))
    vals = CubicSpline(np.linspace(0.0, r_max, len(samples)), samples)(r) * w

    def transform(x):
        xarr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        out = np.exp(-np.outer(xarr, r)) @ vals
        return complex(out[0]) if np.isscalar(x) else out.reshape(np.shape(x))

    return transform
