"""Dispersion relation, symmetry roots, and branch conventions.

The third-order dispersion polynomial

    omega(k) = beta*k**3 - alpha*k**2 - delta*k,   beta > 0,

drives everything downstream.  The two nontrivial roots nu_plus, nu_minus of
omega(nu) = omega(k) are expressed through a single-valued complex square
root of

    (k - alpha/(3 beta))**2 - (4/(9 beta**2)) (alpha**2 + 3 beta delta),

whose branch cut is the straight segment joining the two branch points
b_minus, b_plus.  For every sign of the discriminant it is one product of
two principal square roots, continuous everywhere off that segment and
asymptotic to k - alpha/(3 beta) at infinity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import BranchCutPoint


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


def branch_sqrt(params: DispersionParams, k):
    """Single-valued sqrt of (k-c0)**2 - (4/(9 beta**2))(alpha**2+3 beta delta).

    The product e sqrt((k - b_minus) / e) sqrt((k - b_plus) / e) of principal
    roots, with e the direction of the cut from b_minus to b_plus (1 for a
    real pair or coincident points, i for an imaginary pair).  Their cuts,
    the rays from b_minus and b_plus in direction -e, cancel past b_minus:
    the cut is the segment, and the root ~ (k - c0) at infinity.  Zero parts
    of k are made +0.0 first, so no sign of a zero changes the root.

    Raises BranchCutPoint for points strictly inside the cut; exact branch
    points map to 0 (the continuous limit).
    """
    karr = np.asarray(k, dtype=np.complex128) + 0.0
    bd = branch_points(params)
    e = 1j if bd.kind is BranchKind.IMAGINARY_PAIR else 1.0
    # rotating the differences, not k and b apart, keeps their zero signs alike
    dm, dp = (karr - bd.b_minus) / e, (karr - bd.b_plus) / e
    # strictly inside the cut: on its line, past b_minus and short of b_plus
    if np.any((dm.imag == 0.0) & (dm.real > 0.0) & (dp.real < 0.0)):
        raise BranchCutPoint("point lies strictly inside the branch cut")
    out = e * np.sqrt(dm) * np.sqrt(dp)
    return complex(out) if np.isscalar(k) else out


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
