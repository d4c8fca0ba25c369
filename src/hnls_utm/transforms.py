"""Data containers and the Gauss-Legendre panel rule.

SpatialProfile and TimeSeries hold complex samples of the data on [0, ell]
and [0, horizon]; sampled data are carried off the grid by interpolation,
while analytic presets attach a callable that is evaluated directly.
gauss_panels is the one 8-point Gauss-Legendre panel rule: the phase-graded
contour nodes, the mean-value identity's tau-quadrature and composite_gl
(the uniform rule of the norm integrals and of laplace_transform) all take
it on their own panel edges.  The data transforms of the solution formula
(the interval Fourier transform and the truncated time transforms) live in
linear, next to the contours they are evaluated on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

# the 8-point Gauss-Legendre rule on [-1, 1], computed once
GL8_NODES, GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


def chebyshev_grid(n: int, ell: float) -> np.ndarray:
    """Chebyshev-Lobatto points mapped to [0, ell], increasing."""
    j = np.arange(n)
    return 0.5 * ell * (1.0 - np.cos(np.pi * j / (n - 1)))


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
        if len(self.samples) < 4:
            raise ValueError("need at least 4 samples")
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=np.complex128))

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.ell, len(self.samples))

    def __call__(self, x):
        if self.func is not None:
            return np.asarray(self.func(np.asarray(x)), dtype=np.complex128)
        return CubicSpline(self.grid(), self.samples)(x)

    @classmethod
    def from_callable(cls, func, ell, n=257):
        x = np.linspace(0.0, ell, n)
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
