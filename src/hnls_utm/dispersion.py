"""Dispersion relation, symmetry roots, and branch conventions.

The third-order dispersion polynomial

    omega(k) = beta*k**3 - alpha*k**2 - delta*k,   beta > 0,

drives everything downstream.  The two nontrivial roots nu_plus, nu_minus of
omega(nu) = omega(k) are expressed through a single-valued complex square
root of

    (k - alpha/(3 beta))**2 - (4/(9 beta**2)) (alpha**2 + 3 beta delta),

whose branch cut is the straight segment joining the two branch points
b_minus, b_plus.  The angle conventions below make the root continuous
everywhere off that segment and asymptotic to k - alpha/(3 beta) at
infinity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import BranchCutPoint

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class DispersionParams:
    """Coefficient triple (beta > 0, alpha, delta) of the dispersion cubic."""

    beta: float
    alpha: float
    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.beta) and np.isfinite(self.alpha) and np.isfinite(self.delta)):
            raise ValueError("dispersion coefficients must be finite")
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    @property
    def center(self) -> float:
        """The inflection abscissa alpha/(3 beta), center of all the geometry."""
        return self.alpha / (3.0 * self.beta)

    @property
    def discriminant(self) -> float:
        """alpha**2 + 3 beta delta; its sign selects the branch-point layout."""
        return self.alpha ** 2 + 3.0 * self.beta * self.delta


class BranchKind(enum.Enum):
    REAL_PAIR = "RealPair"
    COINCIDENT = "Coincident"
    IMAGINARY_PAIR = "ImaginaryPair"


@dataclass(frozen=True)
class BranchData:
    discriminant: float
    b_minus: complex
    b_plus: complex
    kind: BranchKind


def omega(params: DispersionParams, k):
    """Dispersion value beta*k**3 - alpha*k**2 - delta*k (scalar or array)."""
    k = np.asarray(k, dtype=np.complex128) if not np.isscalar(k) else k
    return params.beta * k ** 3 - params.alpha * k ** 2 - params.delta * k


def omega_prime(params: DispersionParams, k):
    """Derivative 3*beta*k**2 - 2*alpha*k - delta (scalar or array)."""
    k = np.asarray(k, dtype=np.complex128) if not np.isscalar(k) else k
    return 3.0 * params.beta * k ** 2 - 2.0 * params.alpha * k - params.delta


def branch_points(params: DispersionParams) -> BranchData:
    """Locate the branch points b+- of the symmetry square root."""
    d = params.discriminant
    c0 = params.center
    if d > 0:
        off = (2.0 / (3.0 * params.beta)) * np.sqrt(d)
        return BranchData(d, complex(c0 - off), complex(c0 + off), BranchKind.REAL_PAIR)
    if d < 0:
        off = (2.0 / (3.0 * params.beta)) * np.sqrt(-d)
        return BranchData(d, complex(c0, -off), complex(c0, off), BranchKind.IMAGINARY_PAIR)
    return BranchData(0.0, complex(c0), complex(c0), BranchKind.COINCIDENT)


def _on_cut_interior(bd: BranchData, k: np.ndarray) -> np.ndarray:
    """Boolean mask of points strictly inside the branch cut segment."""
    if bd.kind is BranchKind.COINCIDENT:
        return np.zeros(k.shape, dtype=bool)
    if bd.kind is BranchKind.REAL_PAIR:
        return (k.imag == 0.0) & (k.real > bd.b_minus.real) & (k.real < bd.b_plus.real)
    return (k.real == bd.b_plus.real) & (k.imag > bd.b_minus.imag) & (k.imag < bd.b_plus.imag)


def branch_sqrt(params: DispersionParams, k):
    """Single-valued sqrt of (k-c0)**2 - (4/(9 beta**2))(alpha**2+3 beta delta).

    For a positive discriminant the two angles are measured counterclockwise
    from the positive real direction at each branch point; for a negative
    discriminant they are measured from the upward vertical rays, with an
    extra half turn in the phase.  Both choices place the cut on the segment
    joining b_minus to b_plus and select the root ~ (k - c0) at infinity.

    Raises BranchCutPoint for points strictly inside the cut; exact branch
    points map to 0 (the continuous limit).
    """
    scalar = np.isscalar(k)
    karr = np.atleast_1d(np.asarray(k, dtype=np.complex128))
    bd = branch_points(params)
    if np.any(_on_cut_interior(bd, karr)):
        raise BranchCutPoint("point lies strictly inside the branch cut")

    if bd.kind is BranchKind.COINCIDENT:
        out = karr - params.center
    else:
        z_m = karr - bd.b_minus
        z_p = karr - bd.b_plus
        r_m = np.abs(z_m)
        r_p = np.abs(z_p)
        if bd.kind is BranchKind.REAL_PAIR:
            th_m = np.mod(np.angle(z_m), TWO_PI)
            th_p = np.mod(np.angle(z_p), TWO_PI)
            phase = 0.5 * (th_m + th_p)
        else:
            th_m = np.mod(np.angle(z_m) - 0.5 * np.pi, TWO_PI)
            th_p = np.mod(np.angle(z_p) - 0.5 * np.pi, TWO_PI)
            phase = 0.5 * (th_m + th_p + np.pi)
        out = np.sqrt(r_m * r_p) * np.exp(1j * phase)
        # branch points themselves: radicand vanishes, continuous limit is 0
        out = np.where((r_m == 0.0) | (r_p == 0.0), 0.0 + 0.0j, out)
    return complex(out[0]) if scalar else out.reshape(np.shape(k))


def symmetry_roots(params: DispersionParams, k):
    """Vectorized symmetry roots; returns (nu0, nu_plus, nu_minus)."""
    root = branch_sqrt(params, k)
    half = -0.5 * (np.asarray(k, dtype=np.complex128) - params.alpha / params.beta)
    wing = (np.sqrt(3.0) / 2.0) * 1j * root
    return np.asarray(k, dtype=np.complex128), half + wing, half - wing


def mu_factors(roots):
    """Root differences (mu0, mu+, mu-) = (nu+ - nu-, nu- - k, k - nu+) of
    roots = (k, nu+, nu-); they satisfy omega'(k) = -beta mu+ mu-."""
    nu0, nup, num = roots
    return nup - num, num - nu0, nu0 - nup
