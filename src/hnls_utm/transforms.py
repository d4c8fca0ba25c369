"""Data containers and the uniform Gauss-Legendre rule.

SpatialProfile and TimeSeries hold complex samples of the data on [0, ell]
and [0, horizon]; sampled data are carried off the grid by interpolation,
while analytic presets attach a callable that is evaluated directly.
composite_gl is the uniform composite Gauss-Legendre rule of the norm
integrals and of laplace_transform.  The data transforms of the solution
formula (the interval Fourier transform and the truncated time transforms)
live in linear, next to the contours they are evaluated on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import BarycentricInterpolator, CubicSpline
from scipy.special import roots_legendre


class GridKind(enum.Enum):
    UNIFORM = "uniform"
    CHEBYSHEV = "chebyshev"


def chebyshev_grid(n: int, ell: float) -> np.ndarray:
    """Chebyshev-Lobatto points mapped to [0, ell], increasing."""
    j = np.arange(n)
    return 0.5 * ell * (1.0 - np.cos(np.pi * j / (n - 1)))


@dataclass(frozen=True)
class SpatialProfile:
    """Complex samples of a function on [0, ell].

    func, when given, is the analytic source of the samples and is used for
    off-grid evaluation; otherwise interpolation of the samples is used
    (global barycentric on Chebyshev grids, cubic spline on uniform grids,
    where a global interpolant would be unstable).
    """

    ell: float
    samples: np.ndarray
    grid_kind: GridKind = GridKind.UNIFORM
    func: Optional[Callable] = None

    def __post_init__(self):
        if self.ell <= 0:
            raise ValueError("ell must be positive")
        if len(self.samples) < 4:
            raise ValueError("need at least 4 samples")
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=np.complex128))

    def grid(self) -> np.ndarray:
        n = len(self.samples)
        if self.grid_kind is GridKind.CHEBYSHEV:
            return chebyshev_grid(n, self.ell)
        return np.linspace(0.0, self.ell, n)

    def __call__(self, x):
        if self.func is not None:
            return np.asarray(self.func(np.asarray(x)), dtype=np.complex128)
        g = self.grid()
        if self.grid_kind is GridKind.CHEBYSHEV:
            interp = BarycentricInterpolator(g, self.samples)
            return np.asarray(interp(x), dtype=np.complex128)
        return CubicSpline(g, self.samples)(x)

    @classmethod
    def from_callable(cls, func, ell, n=257, grid_kind=GridKind.UNIFORM):
        x = (chebyshev_grid(n, ell) if grid_kind is GridKind.CHEBYSHEV
             else np.linspace(0.0, ell, n))
        return cls(ell, np.asarray(func(x), dtype=np.complex128), grid_kind, func)


@dataclass(frozen=True)
class TimeSeries:
    """Complex samples on a uniform grid over [0, horizon]."""

    horizon: float
    samples: np.ndarray
    func: Optional[Callable] = None

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if len(self.samples) < 4:
            raise ValueError("need at least 4 samples")
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=np.complex128))

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, len(self.samples))

    def __call__(self, t):
        if self.func is not None:
            return np.asarray(self.func(np.asarray(t)), dtype=np.complex128)
        return CubicSpline(self.grid(), self.samples)(t)

    @classmethod
    def from_callable(cls, func, horizon, n=257):
        t = np.linspace(0.0, horizon, n)
        return cls(horizon, np.asarray(func(t), dtype=np.complex128), func)


def composite_gl(a: float, b: float, n_samples: int):
    """Composite 8-point Gauss-Legendre rule with the panel count scaled to
    the sample resolution of the data being integrated."""
    n_panels = max(2, (n_samples - 1) // 4)
    xg, wg = roots_legendre(8)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


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
