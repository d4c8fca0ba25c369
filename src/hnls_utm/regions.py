"""Solution-formula regions, the denominator Delta, and the boundary
segments in the complex k-plane, all for [0, 1]: every problem is solved
as its twin there (linear._unit_twin).

The sign of Im omega(k) splits the plane into the solution-formula regions:
D0 (Im omega < 0 above the real axis) and D+/D- (Im omega < 0 below the real
axis, right/left of the center line Re k = alpha/(3 beta)).  On each region
one symmetry root dominates (DOMINANT_ROOT), and scaled_delta, the one place
the exponential-sum denominator Delta is written down, scales Delta by that
root's exponential.  The punctured regions remove a disk around the center,
which for the radius R_Delta contains the branch cut and all zeros of Delta.
Their boundaries are nine oriented segments: hyperbola branches of the
Im omega = 0 locus, circular arcs of the puncture disk, and real-axis rays,
each truncated at a common radius.  segment_specs returns them as Segment
records (gamma, gamma', parameter range, orientation, arc flag) made by
three constructors: hyperbola_branch, puncture_arc and real_ray.  The
solver (linear._solver_segments) places its phase-graded quadrature nodes
on the records, and on the real window as one more real_ray, and joins each
region's three segments into one contour, so the solution formula has one
term per region; linear._deformation_margin sweeps the same arc records.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dispersion import DispersionParams, mu_factors


class RegionLabel(enum.Enum):
    D0 = "D0"
    DPLUS = "DPlus"
    DMINUS = "DMinus"


# the index in (k, nu+, nu-) of each region's dominant symmetry root: the one
# root with positive imaginary part on the region
DOMINANT_ROOT = {RegionLabel.D0: 0, RegionLabel.DPLUS: 1, RegionLabel.DMINUS: 2}


def im_omega(params: DispersionParams, k):
    """Closed-form Im omega(k) = beta*Im(k)*(3X**2 - Y**2 - disc/(3 beta**2)),
    with X = Re(k) - alpha/(3 beta) and Y = Im(k)."""
    k = np.asarray(k, dtype=np.complex128)
    x = k.real - params.center
    y = k.imag
    val = params.beta * y * (3.0 * x ** 2 - y ** 2 - params.discriminant / (3.0 * params.beta ** 2))
    return float(val) if val.ndim == 0 else val


def r_delta(params: DispersionParams) -> float:
    """Puncture radius R_Delta = max{(2 sqrt2/(sqrt3 beta)) sqrt|disc|, 9} on
    [0, 1]; on [0, ell] the radius is r_delta(beta, alpha ell, delta ell^2) / ell."""
    geo = (2.0 * np.sqrt(2.0) / (np.sqrt(3.0) * params.beta)) * np.sqrt(abs(params.discriminant))
    return max(geo, 9.0)


def scaled_delta(roots, sigma):
    """e^{i sigma} Delta(k) for roots = (k, nu+, nu-), where on [0, 1]
    Delta(k) = (nu+ - nu-) e^{-ik} + (nu- - k) e^{-i nu+} + (k - nu+) e^{-i nu-};
    sigma = 0 gives Delta itself.  With sigma a region's dominant root every
    exponent has nonpositive real part."""
    return sum(m * np.exp(1j * (sigma - r))
               for m, r in zip(mu_factors(roots), roots))


# explicit lower-bound constants for |e^{i nu_n} Delta(k)| >= c_n |k - c0|
DELTA_BOUND_C0 = (np.sqrt(5.0) / np.sqrt(2.0)
                  - (3.0 + np.sqrt(7.0) / np.sqrt(2.0))
                  * np.exp(-9.0 * np.sqrt(23.0) / (4.0 * np.sqrt(2.0))))
DELTA_BOUND_CPM = ((3.0 * np.sqrt(2.0) - np.sqrt(7.0)) / (2.0 * np.sqrt(2.0))
                   - ((3.0 * np.sqrt(2.0) + 3.0 * np.sqrt(7.0)) / (2.0 * np.sqrt(2.0)))
                   * np.exp(-9.0 / 4.0))


def arc_half_angle(params: DispersionParams, radius: float) -> float:
    """Half-angle (measured from the vertical) subtended by the puncture arc
    bounding the upper region: the circle of the given radius meets the
    hyperbola 3X^2 - Y^2 = d/(3 beta^2) where
    sin^2(phi0) = (1 + d/(3 beta^2 R^2))/4."""
    d = params.discriminant
    val = 0.25 * (1.0 + d / (3.0 * params.beta ** 2 * radius ** 2))
    return float(np.arcsin(np.sqrt(val)))


class Segment(NamedTuple):
    """One oriented boundary piece: gamma maps the real parameter p in
    [lo, hi] to k and dgamma is its derivative; orientation is +1 when the
    boundary runs with increasing p and -1 otherwise.  arc marks a puncture
    arc, whose panel count comes from its amplification, not from a share of
    the phase.  region is None for the real window."""

    region: Optional[RegionLabel]
    lo: float
    hi: float
    orientation: int
    gamma: Callable
    dgamma: Callable
    arc: bool = False


def hyperbola_branch(params: DispersionParams, region, sx, sy, lo, hi,
                     orientation) -> Segment:
    """The branch of Im omega = 0 with Re k = c0 + sx S(r), Im k = sy r for
    the height r in [lo, hi], where S(r) = sqrt(3 beta^2 r^2 + d) / (3 beta)."""
    beta, c0, d = params.beta, params.center, params.discriminant

    def root(r):
        return np.sqrt(3.0 * beta ** 2 * r ** 2 + d)

    return Segment(region, lo, hi, orientation,
                   lambda r: c0 + sx * (root(r) / (3.0 * beta)) + 1j * sy * r,
                   lambda r: sx * (beta * r / root(r)) + 1j * sy)


def puncture_arc(params: DispersionParams, region, radius, lo, hi) -> Segment:
    """The arc c0 + radius e^{i theta}, theta in [lo, hi], run clockwise."""
    c0 = params.center
    return Segment(region, lo, hi, -1, lambda t: c0 + radius * np.exp(1j * t),
                   lambda t: 1j * radius * np.exp(1j * t), arc=True)


def real_ray(region, lo, hi, orientation) -> Segment:
    """The real interval [lo, hi]."""
    return Segment(region, lo, hi, orientation, lambda x: x + 0j * np.asarray(x),
                   lambda x: np.ones_like(np.asarray(x), dtype=np.complex128))


def segment_specs(params: DispersionParams, puncture_radius: float,
                  truncation_radius: float):
    """The nine boundary segments Gamma_1 to Gamma_9, in order, as Segment
    records with the natural parameter: height r on hyperbola branches,
    angle theta on arcs, abscissa on real rays.  Each region's boundary is
    positively oriented (region on the left), and its three segments meet
    end to end.  The puncture radius is R_Delta for the canonical contour,
    but the solver passes a smaller (deformation-checked) radius.
    """
    d, c0 = params.discriminant, params.center
    rd, r_t = puncture_radius, truncation_radius
    phi0 = arc_half_angle(params, rd)
    # junction height and truncation height on the hyperbola branches
    r0 = rd * np.cos(phi0)
    r_trunc = np.sqrt(0.75 * (r_t ** 2 - d / (9.0 * params.beta ** 2)))
    d0, dplus, dminus = RegionLabel.D0, RegionLabel.DPLUS, RegionLabel.DMINUS
    return [
        # boundary of the punctured D0, counterclockwise
        hyperbola_branch(params, d0, -1.0, +1.0, r0, r_trunc, -1),
        puncture_arc(params, d0, rd, 0.5 * np.pi - phi0, 0.5 * np.pi + phi0),
        hyperbola_branch(params, d0, +1.0, +1.0, r0, r_trunc, +1),
        # boundary of the punctured D+
        real_ray(dplus, c0 + rd, c0 + r_t, -1),
        puncture_arc(params, dplus, rd, -(0.5 * np.pi - phi0), 0.0),
        hyperbola_branch(params, dplus, +1.0, -1.0, r0, r_trunc, +1),
        # boundary of the punctured D-
        hyperbola_branch(params, dminus, -1.0, -1.0, r0, r_trunc, -1),
        puncture_arc(params, dminus, rd, -np.pi, -(0.5 * np.pi + phi0)),
        real_ray(dminus, c0 - r_t, c0 - rd, -1),
    ]
