"""Region classification and the boundary segments in the complex k-plane.

The sign of Im omega(k) splits the plane into the solution-formula regions:
D0 (Im omega < 0 above the real axis) and D+/D- (Im omega < 0 below the real
axis, right/left of the center line Re k = alpha/(3 beta)).  The punctured
regions remove a disk around the center, which for the radius R_Delta
contains the branch cut and all zeros of Delta.  Their boundaries are nine
oriented segments: hyperbola branches of the Im omega = 0 locus, circular
arcs of the puncture disk, and real-axis rays, each truncated at a common
radius.  segment_specs describes them geometrically; the solver
(linear._solver_segments) places its phase-graded quadrature nodes on them.
"""

from __future__ import annotations

import enum

import numpy as np

from .dispersion import DispersionParams, symmetry_roots


class RegionLabel(enum.Enum):
    D0 = "D0"
    DPLUS = "DPlus"
    DMINUS = "DMinus"
    OUTSIDE = "Outside"
    BOUNDARY = "Boundary"


class SegmentKind(enum.Enum):
    HYPERBOLA_BRANCH = "HyperbolaBranch"
    CIRCULAR_ARC = "CircularArc"
    REAL_RAY = "RealRay"


def im_omega(params: DispersionParams, k):
    """Closed-form Im omega(k) = beta*Im(k)*(3X**2 - Y**2 - disc/(3 beta**2)),
    with X = Re(k) - alpha/(3 beta) and Y = Im(k)."""
    k = np.asarray(k, dtype=np.complex128)
    x = k.real - params.center
    y = k.imag
    val = params.beta * y * (3.0 * x ** 2 - y ** 2 - params.discriminant / (3.0 * params.beta ** 2))
    return float(val) if val.ndim == 0 else val


def classify_region(params: DispersionParams, k: complex, tol: float) -> RegionLabel:
    """Assign the region label of a single point, with a boundary band of
    half-width tol on Im omega."""
    if tol <= 0:
        raise ValueError("classification tolerance must be positive")
    w = im_omega(params, k)
    if w > tol:
        return RegionLabel.OUTSIDE
    if w < -tol:
        if k.imag > 0:
            return RegionLabel.D0
        if k.imag < 0:
            if k.real - params.center > 0:
                return RegionLabel.DPLUS
            return RegionLabel.DMINUS
    return RegionLabel.BOUNDARY


def r_delta(params: DispersionParams, ell: float) -> float:
    """Puncture radius R_Delta = max{(2 sqrt2/(sqrt3 beta)) sqrt|disc|, 9/ell}."""
    if ell <= 0:
        raise ValueError("ell must be positive")
    geo = (2.0 * np.sqrt(2.0) / (np.sqrt(3.0) * params.beta)) * np.sqrt(abs(params.discriminant))
    return max(geo, 9.0 / ell)


def m_delta(params: DispersionParams, ell: float) -> float:
    """Bound M_Delta on |omega| over the puncture disk."""
    rho = abs(params.center) + r_delta(params, ell)
    return params.beta * rho ** 3 + abs(params.alpha) * rho ** 2 + abs(params.delta) * rho


def classification_tol(params: DispersionParams, ell: float) -> float:
    # scale-aware boundary band
    return 1e-12 * (1.0 + m_delta(params, ell))


def delta_fn(params: DispersionParams, ell: float, k):
    """The exponential-sum denominator
    Delta(k) = (nu+ - nu-) e^{-ik ell} + (nu- - k) e^{-i nu+ ell}
             + (k - nu+) e^{-i nu- ell}."""
    nu0, nup, num = symmetry_roots(params, k)
    return ((nup - num) * np.exp(-1j * nu0 * ell)
            + (num - nu0) * np.exp(-1j * nup * ell)
            + (nu0 - nup) * np.exp(-1j * num * ell))


# explicit lower-bound constants for |e^{i nu_n ell} Delta(k)| >= c_n |k - c0|
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


def segment_specs(params: DispersionParams, ell: float, puncture_radius: float,
                  truncation_radius: float):
    """Geometric descriptions of the nine boundary segments.

    Returns a list of (kind, region, lo, hi, orientation, gamma, dgamma)
    tuples, Gamma_1 to Gamma_9 in order: gamma maps the natural real
    parameter in [lo, hi] (height r on hyperbola branches, angle theta on
    arcs, abscissa on real rays) to k, dgamma is its derivative, and
    orientation is +1 when the boundary runs with increasing parameter and -1
    otherwise.  Each region's boundary is positively oriented (region on the
    left), and its three segments meet end to end.  The puncture radius is
    R_Delta for the canonical contour, but the solver passes a smaller
    (deformation-checked) radius.
    """
    beta = params.beta
    c0 = params.center
    d = params.discriminant
    rd = puncture_radius
    r_t = truncation_radius
    phi0 = arc_half_angle(params, rd)

    def s_of_r(r):
        return np.sqrt(3.0 * beta ** 2 * r ** 2 + d) / (3.0 * beta)

    def ds_of_r(r):
        return beta * r / np.sqrt(3.0 * beta ** 2 * r ** 2 + d)

    # junction height and truncation height on the hyperbola branches
    r0 = rd * np.cos(phi0)
    r_trunc = np.sqrt(0.75 * (r_t ** 2 - d / (9.0 * beta ** 2)))

    def arc(theta):
        return c0 + rd * np.exp(1j * theta)

    def darc(theta):
        return 1j * rd * np.exp(1j * theta)

    def hyper(sx, sy):
        # branch with Re k = c0 + sx*S(r), Im k = sy*r, r > 0
        def gamma(r):
            return c0 + sx * s_of_r(r) + 1j * sy * r

        def dgamma(r):
            return sx * ds_of_r(r) + 1j * sy

        return gamma, dgamma

    def real_ray(x):
        return x + 0j * np.asarray(x)

    def done(x):
        return np.ones_like(np.asarray(x), dtype=np.complex128)

    g1, dg1 = hyper(-1.0, +1.0)
    g3, dg3 = hyper(+1.0, +1.0)
    g6, dg6 = hyper(+1.0, -1.0)
    g7, dg7 = hyper(-1.0, -1.0)
    hb = SegmentKind.HYPERBOLA_BRANCH
    return [
        # boundary of the punctured D0, counterclockwise
        (hb, RegionLabel.D0, r0, r_trunc, -1, g1, dg1),
        (SegmentKind.CIRCULAR_ARC, RegionLabel.D0,
         0.5 * np.pi - phi0, 0.5 * np.pi + phi0, -1, arc, darc),
        (hb, RegionLabel.D0, r0, r_trunc, +1, g3, dg3),
        # boundary of the punctured D+
        (SegmentKind.REAL_RAY, RegionLabel.DPLUS,
         c0 + rd, c0 + r_t, -1, real_ray, done),
        (SegmentKind.CIRCULAR_ARC, RegionLabel.DPLUS,
         -(0.5 * np.pi - phi0), 0.0, -1, arc, darc),
        (hb, RegionLabel.DPLUS, r0, r_trunc, +1, g6, dg6),
        # boundary of the punctured D-
        (hb, RegionLabel.DMINUS, r0, r_trunc, -1, g7, dg7),
        (SegmentKind.CIRCULAR_ARC, RegionLabel.DMINUS,
         -np.pi, -(0.5 * np.pi + phi0), -1, arc, darc),
        (SegmentKind.REAL_RAY, RegionLabel.DMINUS,
         c0 - r_t, c0 - rd, -1, real_ray, done),
    ]
