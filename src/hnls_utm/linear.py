"""Contour-integral evaluation of the linear interval problem.

solve_full assembles the four-part solution representation: a truncated
whole-line Fourier term, a term over the boundary of the punctured upper
region, a term over the boundaries of the punctured lower regions, and the
joint contour term carrying the transformed data.  All exponentials are
grouped so that every evaluated exponent has nonpositive real part (up to
the controlled arc growth described below), which keeps the assembly free of
overflow and catastrophic cancellation.

Two numerical choices matter:

* The puncture arcs are deformed inward from R_Delta to a smaller radius
  rho.  On an arc of radius R the factor e^{i omega t} reaches magnitude
  e^{beta R^3 t}; at R_Delta this is astronomically large (e.g. e^{364} for
  the Airy case on the unit interval at t = 1/2) and the quadrature would
  have to resolve cancellation far below machine precision.  The integrand
  is analytic between the two arcs whenever the exponential-sum denominator
  is zero-free there, so the contour may be pulled in; the deformation is
  validated at runtime by a scaled-denominator margin sweep over the region
  actually crossed.  rho is chosen so the arc growth stays near e^{24},
  which costs only a modest number of extra arc nodes.  Where rho cannot be
  that small (it is at least 1.5 / ell), an arc that would need more than
  MAX_ARC_PANELS panels raises ExponentialOverflow before any is built.

* Quadrature panels are graded in phase: panel edges are placed so each
  8-point Gauss-Legendre panel spans a bounded amount of the worst-case
  oscillation |omega| * T + |k| * ell, and the truncated time transforms are
  evaluated through exact polynomial moments of e^{-i w t} against a cubic
  spline of the data (stable for arbitrarily large |w|, with a Taylor
  fallback for small |w|).

The forcing is factored once per solve.  Its samples on the x-quadrature,
corner-blend forcing included, are split by an SVD cut at rounding level as
A(x) B(t) of rank r (1 for an affine blend forcing).  The x-kernels then act
on the r columns of A, and only the r rows of B are splined in time: all time
transforms go through one shared-series transform that computes the moments
and e^{-i w t} once per chunk of w and contracts every series with them by
matrix products.  A forcing term at a node k is the row-wise dot
sum_r Ahat_r(k) Btilde_r(omega(k)), and the running transform on the real
axis combines B's spline coefficients with the node's weights Ahat(k), so no
spline is ever built per node.

The dense exponential tables factor exactly into two short tables on uniform
grids.  The x-quadrature has uniform panels, x = mid_p + off_j, so the
x-kernel e^{-i k x + s_k} at a node k costs 32 + 8 exponentials for the 256
nodes; on a uniform grid t_j = t_0 + j dt, with j = a m + b and
m = ceil(sqrt(n)), the phase e^{-i w t_j} costs about 2 sqrt(n)
exponentials per w.  The tables are then filled by one broadcast product
each.  This holds for the time transforms' grid and for the output assembly's
e^{i k x} and e^{i omega t} whenever the caller's output grids are ascending
and uniform; other output grids take one exponential per entry.

The data-independent part of a solve is a SolvePlan: output grids,
x-quadrature, real-axis and contour nodes, the deformed arc radius rho, and
the radial envelope weight of the data the plan is made from.
SolvePlan.apply(data) does the data transforms and the assembly only, and
skips the transforms of identically zero data; solve_full is
make_plan(...).apply(data).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline
from scipy.special import roots_legendre

from .dispersion import DispersionParams, branch_points, omega, omega_prime, symmetry_roots
from .errors import ExponentialOverflow, GridTooCoarse, InvalidTruncation, QuadratureDiverged
from .fields import Field
from .regions import (RegionLabel, SegmentKind, arc_half_angle, r_delta,
                      segment_specs)
from .transforms import SpatialProfile, TimeSeries

TWO_PI = 2.0 * np.pi
# largest |real part| of an exponent the transforms and the assembly evaluate
OVERFLOW_GUARD = 700.0
# target cap on log of the arc amplification e^{beta rho^3 T}
ARC_LOG_CAP = 12.0
MIN_DELTA_MARGIN = 1e-4
# most Gauss-Legendre panels one arc may take; more means the arc radius is
# too large for the horizon, and the panels would exhaust memory
MAX_ARC_PANELS = 100000


@dataclass(frozen=True)
class QuadratureBudget:
    """Node counts and truncation for the contour assembly.

    real_axis_window is the common truncation radius |k - c0| <= R for the
    whole-line term and all contour segments; keeping it common makes the
    slowly decaying corner tails of the individual terms cancel.
    contour_nodes is the total across the nine contour segments, distributed
    proportionally to each segment's phase content.  arc_radius optionally
    overrides the automatic deformed puncture radius.
    """

    contour_nodes: int = 24000
    real_axis_window: float = 30.0
    real_axis_nodes: int = 12000
    tolerance: float = 1e-3
    arc_radius: Optional[float] = None

    def __post_init__(self):
        if self.contour_nodes <= 0 or self.real_axis_nodes <= 0:
            raise ValueError("node counts must be positive")
        if self.real_axis_window <= 0 or self.tolerance <= 0:
            raise ValueError("window and tolerance must be positive")
        if self.arc_radius is not None and self.arc_radius <= 0:
            raise ValueError("arc_radius must be positive when given")


@dataclass(frozen=True)
class ProblemData:
    """Data of the interval problem: initial profile, left Dirichlet datum,
    right Dirichlet and Neumann data, optional forcing, and the nonlinearity
    coefficients (ignored by the linear solver)."""

    params: DispersionParams
    ell: float
    horizon: float
    u0: SpatialProfile
    g0: TimeSeries
    h0: TimeSeries
    h1: TimeSeries
    forcing: Optional[Field] = None
    kappa: complex = 0.0 + 0.0j
    lam: float = 3.0

    def __post_init__(self):
        if self.ell <= 0 or self.horizon <= 0:
            raise ValueError("ell and horizon must be positive")
        if abs(self.u0.ell - self.ell) > 1e-9 * max(1.0, self.ell):
            raise ValueError("u0 is not sampled on [0, ell]")
        for name in ("g0", "h0", "h1"):
            series = getattr(self, name)
            if abs(series.horizon - self.horizon) > 1e-9 * max(1.0, self.horizon):
                raise ValueError("%s horizon does not match the problem horizon" % name)
        if self.forcing is not None:
            f = self.forcing
            if (abs(f.x_grid[0]) > 1e-9 or abs(f.x_grid[-1] - self.ell) > 1e-9 * max(1.0, self.ell)
                    or abs(f.t_grid[0]) > 1e-9
                    or abs(f.t_grid[-1] - self.horizon) > 1e-9 * max(1.0, self.horizon)):
                raise ValueError("forcing grids must span [0, ell] x [0, horizon]")
            uniform = np.linspace(0.0, self.horizon, len(f.t_grid))
            if not np.allclose(f.t_grid, uniform, atol=1e-9 * max(1.0, self.horizon)):
                raise ValueError("forcing time grid must be uniform")
        if not self.lam > 1:
            raise ValueError("lambda must exceed 1")


def zero_data(params: DispersionParams, ell: float, horizon: float) -> ProblemData:
    return ProblemData(params, ell, horizon,
                       SpatialProfile(ell, np.zeros(8)),
                       TimeSeries(horizon, np.zeros(8)),
                       TimeSeries(horizon, np.zeros(8)),
                       TimeSeries(horizon, np.zeros(8)))


# --------------------------------------------------------------------------
# small numerical utilities
# --------------------------------------------------------------------------

def fd_weights(xs: np.ndarray, x0: float, order: int) -> np.ndarray:
    """Finite-difference weights for the order-th derivative at x0 from the
    stencil points xs (Vandermonde solve)."""
    xs = np.asarray(xs, dtype=np.float64)
    n = len(xs)
    if order >= n:
        raise ValueError("stencil too small for requested derivative order")
    scale = max(np.max(np.abs(xs - x0)), 1e-300)
    a = np.vander((xs - x0) / scale, n, increasing=True).T
    rhs = np.zeros(n)
    rhs[order] = float(np.prod(np.arange(1, order + 1))) if order else 1.0
    w = np.linalg.solve(a, rhs)
    return w / scale ** order


def _output_grids(ell: float, horizon: float, grid):
    gx, gt = grid
    x_grid = (np.linspace(0.0, ell, int(gx)) if np.isscalar(gx)
              else np.asarray(gx, dtype=np.float64))
    t_grid = (np.linspace(0.0, horizon, int(gt)) if np.isscalar(gt)
              else np.asarray(gt, dtype=np.float64))
    if len(x_grid) < 4 or len(t_grid) < 4:
        raise GridTooCoarse("output grids need at least 4 points each")
    # the representation holds on [0, ell] x [0, horizon] only; written so
    # that NaN points fail too
    if not np.all((x_grid >= -1e-12 * ell) & (x_grid <= ell * (1 + 1e-12))):
        raise ValueError("output points lie outside [0, ell]")
    if not np.all(t_grid >= -1e-12 * horizon):
        raise ValueError("output times precede t = 0")
    if not np.all(t_grid <= horizon * (1 + 1e-12)):
        raise ValueError("output times exceed the problem horizon")
    return x_grid, t_grid


class XQuadrature(NamedTuple):
    """Composite Gauss-Legendre rule on uniform panels of [0, ell]: nodes
    and weights, and the panel factors with nodes[p * 8 + j] = mid[p] + off[j]
    (panel midpoints and the scaled Gauss points shared by every panel)."""

    nodes: np.ndarray
    weights: np.ndarray
    mid: np.ndarray
    off: np.ndarray


def _x_quadrature(ell: float, n_nodes: int = 256) -> XQuadrature:
    """The x-quadrature of every spatial transform: 8-point Gauss-Legendre on
    n_nodes // 8 uniform panels, with the panel factors that _apply_kernel
    builds its kernels from."""
    xg, wg = roots_legendre(8)
    n_panels = max(4, n_nodes // 8)
    edges = np.linspace(0.0, ell, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * ell / n_panels
    off = half * xg
    return XQuadrature((mid[:, None] + off[None, :]).ravel(),
                       np.tile(half * wg, n_panels), mid, off)


# --------------------------------------------------------------------------
# moment-based truncated time transforms
# --------------------------------------------------------------------------

def _filon_moments(w: np.ndarray, h: float) -> np.ndarray:
    """M_m(w) = int_0^h s^m e^{-i w s} ds for m = 0..3, stable in |w| h."""
    w = np.asarray(w, dtype=np.complex128)
    z = -1j * w * h
    small = np.abs(z) < 0.5
    out = np.empty((4,) + w.shape, dtype=np.complex128)
    # upward recurrence where |w| h is not small
    iw = np.where(small, 1.0, 1j * w)
    expz = np.exp(z)
    prev = (1.0 - expz) / iw
    out[0] = prev
    for m in range(1, 4):
        prev = (m * prev - h ** m * expz) / iw
        out[m] = prev
    if np.any(small):
        zs = z[small]
        for m in range(4):
            acc = np.zeros_like(zs)
            term = np.ones_like(zs)
            fact = 1.0
            for j in range(24):
                if j > 0:
                    term = term * zs
                    fact *= j
                acc = acc + term / (fact * (m + j + 1))
            out[m][small] = h ** (m + 1) * acc
    return out


def _phase_table(w, dt, n, start=0.0, scale=None):
    """scale_w e^{-i w (start + j dt)} for j = 0..n-1, shape (len(w), n);
    scale defaults to 1.

    With m = ceil(sqrt(n)) and j = a m + b it is the product of the coarse
    factor scale_w e^{-i w (start + a m dt)} and the fine factor
    e^{-i w b dt}: about 2 sqrt(n) exponentials per w instead of n.  For
    start >= 0 both phase factors' exponents have the sign of
    Im(w) (start + j dt), so neither is larger than the largest phase of the
    table, and the coarse factor's entries are entries of the table itself.
    """
    m = int(np.ceil(np.sqrt(n)))
    na = -(-n // m)
    coarse = np.exp(-1j * np.outer(w, start + np.arange(na) * (m * dt)))
    if scale is not None:
        coarse *= scale[:, None]
    fine = np.exp(-1j * np.outer(w, np.arange(m) * dt))
    # the rows a < na - 1 are whole; the last one stops at j = n - 1, so no
    # entry past the grid (which could overflow) is formed
    full = (na - 1) * m
    out = np.empty((len(w), n), dtype=np.complex128)
    np.multiply(coarse[:, :-1, None], fine[:, None, :],
                out=out[:, :full].reshape(len(w), na - 1, m))
    np.multiply(coarse[:, -1:], fine[:, :n - full], out=out[:, full:])
    return out


def _uniform_step(grid):
    """The step of an ascending grid that is uniform to a few ulps, else
    None."""
    n = len(grid)
    step = (grid[-1] - grid[0]) / (n - 1)
    if not step > 0:
        return None
    ideal = grid[0] + np.arange(n) * step
    ulps = 8 * np.finfo(np.float64).eps * max(abs(grid[0]), abs(grid[-1]))
    return step if np.max(np.abs(grid - ideal)) <= ulps else None


def _exp_table(w, grid, scale=None):
    """scale_w e^{-i w t} at every point t of grid, shape (len(w), len(grid)):
    from two short factors on an ascending uniform grid, one exponential per
    entry otherwise."""
    step = _uniform_step(grid)
    if step is not None:
        return _phase_table(w, step, len(grid), start=grid[0], scale=scale)
    out = np.exp(-1j * np.outer(w, grid))
    return out if scale is None else out * scale[:, None]


def _moment_chunks(horizon, nt, w, chunk):
    """Per chunk of w: the slice, the Filon moments (4, ncw) over one time
    cell and e^{-i w t} at the cell starts (ncw, nt - 1), shared by every
    series transformed at those w.  The checks run at the first step."""
    if nt < 4:
        raise ValueError("need at least 4 time samples")
    if np.max(w.imag) * horizon > OVERFLOW_GUARD:
        raise ExponentialOverflow("Im w too positive for the time transform")
    dt = np.linspace(0.0, horizon, nt)[1]
    for lo in range(0, len(w), chunk):
        sel = slice(lo, min(lo + chunk, len(w)))
        yield sel, _filon_moments(w[sel], dt), _phase_table(w[sel], dt, nt - 1)


def _spline_coefficients(series, horizon):
    """Cubic-spline coefficients (4, nt - 1, S) of a stack of S series on a
    uniform grid over [0, horizon], lowest power first."""
    t = np.linspace(0.0, horizon, series.shape[1])
    return CubicSpline(t, series, axis=1).c[::-1]


def _time_transform(series, horizon: float, w, chunk: int = 2048) -> np.ndarray:
    """int_0^horizon e^{-i w t} phi_s(t) dt against a cubic spline of each
    series phi_s, for every w.

    series is (S, nt), a stack of series sampled on a uniform grid and shared
    by all w, or one series (nt,).  Returns (nw, S), or (nw,) for one series.
    The moments and exponentials are computed once per chunk of w, and one
    matrix product contracts them with every series' four cell polynomial
    coefficients.
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.complex128))
    vals = np.atleast_2d(np.asarray(series, dtype=np.complex128))
    coef = _spline_coefficients(vals, horizon)
    # (nt - 1, 4 S): cell rows, columns grouped by power
    coef = coef.transpose(1, 0, 2).reshape(coef.shape[1], -1)
    out = np.empty((len(w), len(vals)), dtype=np.complex128)
    for sel, mom, eph in _moment_chunks(horizon, vals.shape[1], w, chunk):
        prod = (eph @ coef).reshape(len(mom[0]), 4, -1)
        out[sel] = sum(mom[m][:, None] * prod[:, m] for m in range(4))
    return out[:, 0] if np.ndim(series) == 1 else out


def _cumulative_transform(series, horizon: float, w, weights,
                          chunk: int = 512) -> np.ndarray:
    """Running integrals int_0^{t_i} e^{-i w_j t} sum_s weights[j, s] phi_s(t) dt
    at every grid time t_i, against cubic splines of the series.

    series is (S, nt) as in _time_transform and weights is (nw, S).  The
    spline of each per-w combination is the same combination of the series'
    splines, so only the S series are splined, and one matrix product per
    chunk forms every combination's four cell polynomial coefficients.  That
    product holds (chunk, 4, nt - 1) values, which sets the smaller chunk.
    Returns (nw, nt).
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.complex128))
    vals = np.asarray(series, dtype=np.complex128)
    weights = np.asarray(weights, dtype=np.complex128)
    nt = vals.shape[1]
    coef = _spline_coefficients(vals, horizon)
    # (S, 4 (nt - 1)): per series, the cells' coefficients grouped by power
    coef = coef.transpose(2, 0, 1).reshape(len(vals), -1)
    out = np.empty((len(w), nt), dtype=np.complex128)
    for sel, mom, eph in _moment_chunks(horizon, nt, w, chunk):
        comb = (weights[sel] @ coef).reshape(len(mom[0]), 4, nt - 1)
        cell = eph * sum(mom[m][:, None] * comb[:, m] for m in range(4))
        out[sel, 0] = 0.0
        out[sel, 1:] = np.cumsum(cell, axis=1)
    return out


def _interpolation_matrix(t_from, t_to) -> np.ndarray:
    """P with CubicSpline(t_from, y, axis=1)(t_to) == y @ P for any row
    stack y: the spline is linear in its data."""
    n = len(t_from)
    return CubicSpline(t_from, np.eye(n), axis=1)(t_to)


# --------------------------------------------------------------------------
# exponential kernels with guarded exponents
# --------------------------------------------------------------------------

def _apply_kernel(karr, shift, xquad: XQuadrature, payloads, chunk=2048):
    """For each payload p (shape (nq,) or (nq, c)) return
    sum_q exp(-i k x_q + shift_k) w_q p[q] as an array over k.

    The kernel is the product of the panel factors e^{-i k mid_p + shift_k}
    and e^{-i k off_j}: 40 exponentials per k for the 32-panel rule instead
    of one per node.  All exponents must have (essentially) nonpositive real
    part; a large positive real part signals a construction error and raises
    before any exponential is taken.  The real part Im(k) x + Re(shift_k) is
    linear in x, so its maximum over the nodes is at the first or last node.
    """
    if not payloads:
        return []
    karr = np.asarray(karr, dtype=np.complex128)
    nk = len(karr)
    shift = (np.zeros(nk) if shift is None
             else np.asarray(shift, dtype=np.complex128))
    xq, wq = xquad.nodes, xquad.weights
    if nk:
        worst = float(np.max(np.maximum(karr.imag * xq[0], karr.imag * xq[-1])
                             + shift.real))
        if worst > 2.0:
            raise ExponentialOverflow(
                "kernel exponent has positive real part %.3g" % worst)
        # e^{-i k off} has exponents of both signs; it must stay finite
        if np.max(np.abs(karr.imag)) * np.max(np.abs(xquad.off)) > OVERFLOW_GUARD:
            raise ExponentialOverflow("Im k too large for the x-quadrature panels")
    pw = []
    for p in payloads:
        p = np.asarray(p, dtype=np.complex128)
        pw.append(p * (wq[:, None] if p.ndim == 2 else wq))
    outs = [np.empty((nk,) + p.shape[1:], dtype=np.complex128) for p in pw]
    for lo in range(0, nk, chunk):
        sel = slice(lo, min(lo + chunk, nk))
        kc = karr[sel]
        coarse = np.exp(-1j * np.outer(kc, xquad.mid) + shift[sel, None])
        fine = np.exp(-1j * np.outer(kc, xquad.off))
        ker = (coarse[:, :, None] * fine[:, None, :]).reshape(len(kc), -1)
        for o, p in zip(outs, pw):
            o[sel] = ker @ p
    return outs


def _assemble(vals, x_grid, t_grid, ell, basis, karr, warr, om,
              coef_static=None, coef_time=None, prefactor=1.0, chunk=4096):
    """vals += prefactor * sum_k w_k basis(x, k) e^{i om_k t}
                      * (coef_static_k + coef_time[k, t]).

    basis(x, k) is e^{i k x} ("in") or e^{-i k (ell - x)} ("out").  The
    tables come from _exp_table, so on ascending uniform grids they are built
    from two short factors, with w_k coef_static_k folded into the coarse
    time factor when there is no coef_time.  The "out" table runs over
    ell - x from ell - x_last upward, where its exponents are nonpositive
    for Im k <= 0, and its rows are reversed after the product.
    """
    nk = len(karr)
    growth = np.max(-om.imag) * max(float(np.max(t_grid)), 0.0) if nk else 0.0
    if growth > OVERFLOW_GUARD:
        raise ExponentialOverflow("contour time factor exceeds the overflow guard")
    for lo in range(0, nk, chunk):
        sel = slice(lo, min(lo + chunk, nk))
        if coef_time is None:
            tm = _exp_table(-om[sel], t_grid, warr[sel] * coef_static[sel])
        else:
            coef = warr[sel][:, None] * coef_time[sel]
            if coef_static is not None:
                coef = (warr[sel] * coef_static[sel])[:, None] + coef
            tm = _exp_table(-om[sel], t_grid) * coef
        if basis == "in":
            vals += prefactor * (_exp_table(-karr[sel], x_grid).T @ tm)
        else:
            ker = _exp_table(karr[sel], ell - x_grid[::-1])
            vals += prefactor * (ker.T @ tm)[::-1]
    return vals


# --------------------------------------------------------------------------
# phase-graded contour nodes
# --------------------------------------------------------------------------

def _phase_measure(params, gamma, lo, hi, horizon, ell, weight=None, n_fine=2001):
    pf = np.linspace(lo, hi, n_fine)
    kf = np.asarray(gamma(pf), dtype=np.complex128)
    omf = omega(params, kf)
    dk = np.gradient(kf, pf)
    dom = np.gradient(omf, pf)
    dens = (np.abs(dom) * horizon + np.abs(dk) * (ell + 2.0)) / TWO_PI + 1e-9
    if weight is not None:
        dens = dens * weight(np.abs(kf - params.center))
    cum = cumulative_trapezoid(dens, pf, initial=0.0)
    return pf, cum


def _graded_panel_nodes(pf, cum, n_panels):
    levels = np.linspace(0.0, cum[-1], n_panels + 1)
    edges = np.interp(levels, cum, pf)
    edges = np.maximum.accumulate(edges)
    xg, wg = roots_legendre(8)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * xg)
        weights.append(half * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def _radial_envelope(params, ell, horizon, xquad, samples, r_max, n_r=193):
    """Radial proxy for the magnitude of the transformed data at distance r
    from the dispersion center, used to thin the quadrature where the
    integrand is negligible.

    The proxy is evaluated on the real axis at c0 +/- r (where the data
    transforms are largest among the admissible directions), made
    nonincreasing, and normalized; the returned callable maps |k - c0| to a
    density weight in [1e-2, 1], or None for identically zero data.
    """
    rs = np.linspace(0.0, r_max, n_r)
    ks = np.concatenate([params.center + rs, params.center - rs]) + 0j
    om = omega(params, ks).real
    omp = np.abs(omega_prime(params, ks))
    hats = _apply_kernel(ks, None, xquad, _x_payloads(samples))
    st, bt = _data_time_transforms(samples, horizon, om)
    env = np.abs(hats[0]) if samples.u0v is not None else np.zeros(2 * n_r)
    if st is not None:
        env += omp * np.sum(np.abs(st), axis=1)
    if bt is not None:
        env += np.abs(np.sum(hats[-1] * bt, axis=1))
    env = np.maximum(env[:n_r], env[n_r:])
    env = np.maximum.accumulate(env[::-1])[::-1]
    emax = float(env[0])
    if emax <= 0.0:
        return None
    weight = np.clip(env / emax, 1e-2, 1.0) ** (1.0 / 3.0)

    def wfun(r):
        return np.interp(np.asarray(r, dtype=np.float64), rs, weight,
                         left=weight[0], right=weight[-1])

    return wfun


def _dominant_label(region):
    return {"D0": 0, "DPlus": 1, "DMinus": 2}[region.value]


def _scaled_delta(params, ell, k, region):
    """e^{i sigma ell} Delta(k) with sigma the region's dominant symmetry
    root, written so all exponents have nonpositive real part."""
    nu0, nup, num = symmetry_roots(params, k)
    mu0, mup, mum = nup - num, num - nu0, nu0 - nup
    sig = (nu0, nup, num)[_dominant_label(region)]
    e0 = np.exp(1j * (sig - nu0) * ell)
    ep = np.exp(1j * (sig - nup) * ell)
    em = np.exp(1j * (sig - num) * ell)
    return mu0 * e0 + mup * ep + mum * em


def _deformation_margin(params, ell, rho, rd, n_rad=9, n_ang=65):
    """Minimum scaled-denominator margin |Delta_s| / |k - c0| over the
    annular region sectors swept when the puncture arcs move from rd in to
    rho."""
    c0 = params.center
    margin = np.inf
    for r in np.linspace(rho, rd, n_rad):
        phi0 = arc_half_angle(params, r)
        spans = {
            RegionLabel.D0: (0.5 * np.pi - phi0, 0.5 * np.pi + phi0),
            RegionLabel.DPLUS: (-(0.5 * np.pi - phi0), 0.0),
            RegionLabel.DMINUS: (-np.pi, -(0.5 * np.pi + phi0)),
        }
        for region, (a, b) in spans.items():
            theta = np.linspace(a, b, n_ang)
            k = c0 + r * np.exp(1j * theta)
            ds = _scaled_delta(params, ell, k, region)
            margin = min(margin, float(np.min(np.abs(ds) / np.abs(k - c0))))
    return margin


def _pick_arc_radius(params, ell, horizon, budget):
    rd = r_delta(params, ell)
    d = params.discriminant
    r_cut = (2.0 / (3.0 * params.beta)) * np.sqrt(abs(d))
    rho_lo = max(1.3 * r_cut, 1.5 / ell)
    rho_target = (ARC_LOG_CAP / (params.beta * horizon)) ** (1.0 / 3.0)
    rho = min(max(rho_target, rho_lo), rd)
    if budget.arc_radius is not None:
        rho = budget.arc_radius
        if not (r_cut * 1.05 < rho <= rd):
            raise InvalidTruncation(
                "arc_radius must lie in (%.4g, %.4g]" % (1.05 * r_cut, rd))
        return rho
    while rho < rd and _deformation_margin(params, ell, rho, rd) < MIN_DELTA_MARGIN:
        rho = min(1.35 * rho, rd)
    return rho


def _solver_segments(params, ell, horizon, budget, weight=None):
    """Phase-graded quadrature nodes on the nine (deformed) segments,
    grouped as (region, k, dk-weights)."""
    rho = _pick_arc_radius(params, ell, horizon, budget)
    r_t = budget.real_axis_window
    if r_t <= 1.1 * rho:
        raise InvalidTruncation(
            "real_axis_window %.4g too small for the puncture radius %.4g"
            % (r_t, rho))
    specs = segment_specs(params, ell, rho, r_t)
    measures = []
    arc_panels = []
    for (kind, _region, lo, hi, _ori, gamma, _dg) in specs:
        # arcs keep the unweighted phase measure: their panel count is set
        # by the amplification bound, not by the data amplitude
        seg_weight = None if kind is SegmentKind.CIRCULAR_ARC else weight
        pf, cum = _phase_measure(params, gamma, lo, hi, horizon, ell,
                                 weight=seg_weight)
        measures.append((pf, cum))
        if kind is SegmentKind.CIRCULAR_ARC:
            # the arc integrand is amplified by e^{A}; Gauss-Legendre error
            # must be driven below e^{-A}, which sets the phase per panel
            kf = np.asarray(gamma(pf), dtype=np.complex128)
            amp = float(np.max(-omega(params, kf).imag)) * horizon
            amp = max(amp, 0.0)
            if amp > OVERFLOW_GUARD:
                raise ExponentialOverflow(
                    "arc amplification exponent %.4g exceeds the overflow "
                    "guard; the arc radius is too large for the horizon" % amp)
            theta_max = 2.6 * (1e-8 * np.exp(-amp)) ** (1.0 / 16.0)
            n_arc = np.ceil(cum[-1] * TWO_PI / theta_max)
            if n_arc > MAX_ARC_PANELS:
                raise ExponentialOverflow(
                    "arc at rho = %.4g with amplification exponent %.4g needs "
                    "%.3g panels, more than %d; the arc radius is too large "
                    "for the horizon" % (rho, amp, n_arc, MAX_ARC_PANELS))
            arc_panels.append(max(24, int(n_arc)))
        else:
            arc_panels.append(None)
    free = [i for i, ap in enumerate(arc_panels) if ap is None]
    totals = np.array([measures[i][1][-1] for i in free])
    shares = totals / np.sum(totals)
    n_free_panels = max(12, budget.contour_nodes // 8)
    panel_counts = list(arc_panels)
    for i, share in zip(free, shares):
        panel_counts[i] = max(2, int(round(n_free_panels * share)))
    groups = []
    for (_kind, region, lo, hi, ori, gamma, dgamma), (pf, cum), n_panels in zip(
            specs, measures, panel_counts):
        p, w = _graded_panel_nodes(pf, cum, n_panels)
        k = np.asarray(gamma(p), dtype=np.complex128)
        weights = ori * w * np.asarray(dgamma(p), dtype=np.complex128)
        groups.append((region, k, weights))
    # denominator margin on the actual nodes
    margin = np.inf
    c0 = params.center
    for region, k, _w in groups:
        ds = _scaled_delta(params, ell, k, region)
        margin = min(margin, float(np.min(np.abs(ds) / np.abs(k - c0))))
    if margin < MIN_DELTA_MARGIN:
        raise QuadratureDiverged(
            "denominator margin %.3g on the contour nodes; the deformed "
            "contour passes too close to a zero" % margin)
    return groups, rho


def _real_axis_nodes(params, ell, horizon, budget, weight=None):
    c0 = params.center
    r = budget.real_axis_window

    def gamma(p):
        return p + 0j * np.asarray(p)

    pf, cum = _phase_measure(params, gamma, c0 - r, c0 + r, horizon, ell,
                             weight=weight)
    n_panels = max(4, budget.real_axis_nodes // 8)
    p, w = _graded_panel_nodes(pf, cum, n_panels)
    return p.astype(np.float64), w


# --------------------------------------------------------------------------
# the solvers
# --------------------------------------------------------------------------

def _forcing_on_quadrature(data: ProblemData, xq):
    if data.forcing is None:
        return None
    f = data.forcing
    return CubicSpline(f.x_grid, f.values, axis=0)(xq)


def _factor_forcing(fq):
    """Split the quadrature-sampled forcing fq (nq, nt) as A @ B with A
    (nq, r) and B (r, nt), by an SVD cut at rounding level (numpy's
    matrix_rank rule).  Every forcing transform then needs the x-kernel on r
    columns of A and the time transform of r shared series B.  None when
    there is no forcing or it is zero."""
    if fq is None:
        return None
    u, s, vh = np.linalg.svd(fq, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(fq.shape) * np.finfo(np.float64).eps))
    if rank == 0:
        return None
    return u[:, :rank] * s[:rank], vh[:rank]


def _is_zero(arr) -> bool:
    return bool(np.all(arr == 0))


class _Samples(NamedTuple):
    """The data as the transforms see it, corner blend removed: u0 on the
    x-quadrature, the (3, NTQ) stack of g0, h0, h1 on the uniform time grid,
    and the factored forcing (A, B) with B's time grid tf; a part that is
    identically zero is None.  blend is _corner_blend's result."""

    u0v: Optional[np.ndarray]
    stack: Optional[np.ndarray]
    forcing: Optional[tuple]
    tf: Optional[np.ndarray]
    blend: Optional[tuple]


# time samples of the boundary data
NTQ = 257


def _sample(data: ProblemData, xquad: XQuadrature) -> _Samples:
    """Sample the data, remove the corner blend and factor the forcing."""
    ell, horizon = data.ell, data.horizon
    xq = xquad.nodes
    u0v = np.asarray(data.u0(xq), dtype=np.complex128)
    fq = _forcing_on_quadrature(data, xq)
    tf = data.forcing.t_grid if data.forcing is not None else None
    tq = np.linspace(0.0, horizon, NTQ)
    stack = np.stack([np.asarray(s(tq), dtype=np.complex128)
                      for s in (data.g0, data.h0, data.h1)])
    blend = _corner_blend(data)
    if blend is not None:
        wfun, wforce, wx_right = blend
        u0v = u0v - wfun(xq, 0.0)
        stack = stack - np.stack([wfun(0.0, tq), wfun(ell, tq), wx_right(tq)])
        if fq is None:
            tf = tq
            fq = -wforce(xq[:, None], tf[None, :])
        else:
            fq = fq - wforce(xq[:, None], np.asarray(tf)[None, :])
    forcing = _factor_forcing(fq)
    return _Samples(None if _is_zero(u0v) else u0v,
                    None if _is_zero(stack) else stack,
                    forcing, None if forcing is None else tf, blend)


def _x_payloads(samples: _Samples):
    """The x-kernel payloads: u0 and the columns of A, where present."""
    forcing_a = None if samples.forcing is None else samples.forcing[0]
    return [p for p in (samples.u0v, forcing_a) if p is not None]


def _data_time_transforms(samples: _Samples, horizon, w):
    """Time transforms at w of the g0/h0/h1 stack, (nw, 3), and of the
    forcing series B, (nw, r); None for an absent part.  When B lies on the
    stack's grid both go through one _time_transform call, so the moments
    and phase tables are built once."""
    stack = samples.stack
    series_b = None if samples.forcing is None else samples.forcing[1]
    if stack is not None and series_b is not None \
            and series_b.shape[1] == stack.shape[1]:
        both = _time_transform(np.concatenate([stack, series_b]), horizon, w)
        return both[:, :3], both[:, 3:]
    return (None if stack is None else _time_transform(stack, horizon, w),
            None if series_b is None else _time_transform(series_b, horizon, w))


def _transformed(k, shift, xquad, samples: _Samples, bt):
    """u0 transform minus i times the forcing transform at the nodes k, with
    the kernel shift; 0.0 when both parts are absent.  The forcing term is
    the row-wise dot of A's kernel outputs and B's time transforms bt."""
    hats = _apply_kernel(k, shift, xquad, _x_payloads(samples))
    out = hats[0] if samples.u0v is not None else 0.0
    if samples.forcing is not None:
        out = out - 1j * np.sum(hats[-1] * bt, axis=1)
    return out


def _corner_blend(data: ProblemData):
    """Bilinear function w(x, t) matching the data's rectangle-corner values
    u0(0), u0(ell), g0(T), h0(T), together with its trace data and the
    forcing it generates under the equation operator.

    Subtracting w from the problem (by linearity, with the compensating
    forcing) removes the 1/k corner terms of the data transforms, which are
    what make the truncated representation converge slowly near the corners
    of the space-time rectangle.
    """
    ell, horizon = data.ell, data.horizon
    c00 = complex(np.asarray(data.u0(np.array([0.0])))[0])
    c10 = complex(np.asarray(data.u0(np.array([ell])))[0])
    c01 = complex(np.asarray(data.g0(np.array([horizon])))[0])
    c11 = complex(np.asarray(data.h0(np.array([horizon])))[0])
    if c00 == 0 and c10 == 0 and c01 == 0 and c11 == 0:
        return None
    cx = c10 - c00
    ct = c01 - c00
    cxt = c11 - c01 - c10 + c00
    delta = data.params.delta

    def w(x, t):
        xx = np.asarray(x) / ell
        tt = np.asarray(t) / horizon
        return c00 + cx * xx + ct * tt + cxt * xx * tt

    def forcing(x, t):
        xx = np.asarray(x) / ell
        tt = np.asarray(t) / horizon
        wt = (ct + cxt * xx) / horizon
        wx = (cx + cxt * tt) / ell
        return 1j * wt + 1j * delta * wx

    def wx_right(t):
        return (cx + cxt * np.asarray(t) / horizon) / ell

    return w, forcing, wx_right


@dataclass(frozen=True, eq=False)
class SolvePlan:
    """Everything a solve needs that its data does not change, for one
    (params, ell, horizon), output grid and budget: the output grids, the
    x-quadrature, the real-axis nodes (k_r, w_r), the nine contour node
    groups (region, k, dk-weights), the deformed arc radius rho, and the
    radial envelope weight (None for unweighted nodes) of the data the plan
    was made from.  Build one with make_plan; apply(data) solves for any data
    on the same (params, ell, horizon), all on the same nodes, so the
    solution map it evaluates is linear in the data."""

    params: DispersionParams
    ell: float
    horizon: float
    x_grid: np.ndarray
    t_grid: np.ndarray
    xquad: XQuadrature
    weight: Optional[Callable]
    real_axis: Tuple[np.ndarray, np.ndarray]
    groups: list
    rho: float
    # the data the plan was made from and its samples, which apply reuses
    # when given that same data object
    source: ProblemData
    source_samples: _Samples

    @property
    def node_counts(self) -> Tuple[int, ...]:
        """Node count of each contour group."""
        return tuple(len(k) for _region, k, _w in self.groups)

    def apply(self, data: ProblemData) -> Field:
        """Evaluate the solution representation of the forced linear problem
        for data on the plan's nodes and output grid.  Transforms of
        identically zero parts of the data are skipped."""
        if (data.params, data.ell, data.horizon) != (self.params, self.ell,
                                                     self.horizon):
            raise ValueError("data params, ell or horizon differ from the plan's")
        samples = (self.source_samples if data is self.source
                   else _sample(data, self.xquad))
        x_grid, t_grid = self.x_grid, self.t_grid
        vals = np.zeros((len(x_grid), len(t_grid)), dtype=np.complex128)
        spatial = samples.u0v is not None or samples.forcing is not None
        if spatial:
            self._real_axis_term(vals, samples)
        if spatial or samples.stack is not None:
            for region, k, w in self.groups:
                self._contour_term(vals, samples, region, k, w)
        if samples.blend is not None:
            vals = vals + samples.blend[0](x_grid[:, None], t_grid[None, :])
        return Field(x_grid, t_grid, vals)

    def _real_axis_term(self, vals, samples):
        """The whole-line term over the truncated real window."""
        k_r, w_r = self.real_axis
        om_r = omega(self.params, k_r + 0j).real
        hats = _apply_kernel(k_r + 0j, None, self.xquad, _x_payloads(samples))
        icum = None
        if samples.forcing is not None:
            # -i goes into the small interpolation matrix, so no second
            # (nodes x times) array is live during the assembly
            icum = (_cumulative_transform(samples.forcing[1], self.horizon,
                                          om_r, hats[-1])
                    @ (-1j * _interpolation_matrix(samples.tf, self.t_grid)))
        _assemble(vals, self.x_grid, self.t_grid, self.ell, "in", k_r + 0j,
                  w_r + 0j, om_r + 0j,
                  coef_static=hats[0] if samples.u0v is not None else None,
                  coef_time=icum, prefactor=1.0 / TWO_PI)

    def _contour_term(self, vals, samples, region, k, w):
        """One contour group's term."""
        params, ell, xquad = self.params, self.ell, self.xquad
        nu0, nup, num = symmetry_roots(params, k)
        mu0, mup, mum = nup - num, num - nu0, nu0 - nup
        om = omega(params, k)
        omp = omega_prime(params, k)
        st, bt = _data_time_transforms(samples, self.horizon, om)
        g0t, h0t, h1t = (0.0, 0.0, 0.0) if st is None else st.T

        if region is RegionLabel.D0:
            epl = np.exp(1j * (k - nup) * ell)
            eml = np.exp(1j * (k - num) * ell)
            delta_s = mu0 + mup * epl + mum * eml
            # shifted transforms of u0 (and forcing) keep exponents <= 0
            ut_sh_p = _transformed(k, 1j * (k - nup) * ell, xquad, samples, bt)
            ut_sh_m = _transformed(k, 1j * (k - num) * ell, xquad, samples, bt)
            ut_p = _transformed(nup, None, xquad, samples, bt)
            ut_m = _transformed(num, None, xquad, samples, bt)
            emp = np.exp(-1j * nup * ell)
            emm = np.exp(-1j * num * ell)
            payload = (mup * ut_p + mum * ut_m
                       - mu0 * omp * g0t
                       - (num * emp - nup * emm) * omp * h0t
                       - 1j * (emp - emm) * omp * h1t
                       - (mup * ut_sh_p + mum * ut_sh_m))
            basis = "in"
        else:
            if region is RegionLabel.DPLUS:
                sig, sub = nup, num
                mu_sig, mu_sub = mup, mum
            else:
                sig, sub = num, nup
                mu_sig, mu_sub = mum, mup
            s_fac = np.exp(1j * sig * ell)
            e0 = np.exp(1j * (sig - nu0) * ell)
            ep = np.exp(1j * (sig - nup) * ell)
            em = np.exp(1j * (sig - num) * ell)
            delta_s = mu0 * e0 + mup * ep + mum * em
            ut_k = _transformed(k, None, xquad, samples, bt)
            ut_sig_sh = _transformed(sig, 1j * sig * ell, xquad, samples, bt)
            ut_sub = _transformed(sub, None, xquad, samples, bt)
            payload = (mu0 * s_fac * ut_k
                       + mu_sig * ut_sig_sh + mu_sub * s_fac * ut_sub
                       - mu0 * omp * g0t * s_fac
                       - (num * ep - nup * em) * omp * h0t
                       - 1j * (ep - em) * omp * h1t)
            basis = "out"
        _assemble(vals, self.x_grid, self.t_grid, ell, basis, k, w, om,
                  coef_static=payload / delta_s, prefactor=1.0 / TWO_PI)


def make_plan(data: ProblemData, grid, budget: QuadratureBudget) -> SolvePlan:
    """Choose the output grids, the x-quadrature and the contour and
    real-axis nodes once for data's (params, ell, horizon).  The nodes are
    thinned by the radial envelope of data itself, so the plan suits data of
    similar spectral content; a plan made from identically zero data uses
    unweighted nodes."""
    params, ell, horizon = data.params, data.ell, data.horizon
    x_grid, t_grid = _output_grids(ell, horizon, grid)
    xquad = _x_quadrature(ell)
    samples = _sample(data, xquad)
    weight = _radial_envelope(params, ell, horizon, xquad, samples,
                              budget.real_axis_window)
    real_axis = _real_axis_nodes(params, ell, horizon, budget, weight=weight)
    groups, rho = _solver_segments(params, ell, horizon, budget, weight=weight)
    return SolvePlan(params, ell, horizon, x_grid, t_grid, xquad, weight,
                     real_axis, groups, rho, data, samples)


def solve_full(data: ProblemData, grid, budget: QuadratureBudget) -> Field:
    """Evaluate the solution representation of the forced linear problem on
    the requested output grid."""
    return make_plan(data, grid, budget).apply(data)


def solve_reduced(params: DispersionParams, ell: float, psi0: TimeSeries,
                  psi1: TimeSeries, grid, budget: QuadratureBudget) -> Field:
    """Solve the companion problem with zero initial datum, zero left
    Dirichlet datum, and right data (psi0, psi1), verifying convergence
    under node refinement."""
    if abs(psi0.horizon - psi1.horizon) > 1e-9 * max(1.0, psi0.horizon):
        raise ValueError("psi0 and psi1 must share a horizon")
    horizon = psi0.horizon
    base = zero_data(params, ell, horizon)
    data = replace(base, h0=psi0, h1=psi1)
    if _is_zero(psi0.samples) and _is_zero(psi1.samples) \
            and psi0.func is None and psi1.func is None:
        x_grid, t_grid = _output_grids(ell, horizon, grid)
        return Field.zeros(x_grid, t_grid)
    prev = solve_full(data, grid, budget)
    for factor in (1.6, 2.56):
        refined = replace(budget,
                          contour_nodes=int(budget.contour_nodes * factor),
                          real_axis_nodes=int(budget.real_axis_nodes * factor))
        cur = solve_full(data, grid, refined)
        scale = max(cur.l2_norm_xt(), 1e-300)
        gap = Field(cur.x_grid, cur.t_grid, cur.values - prev.values).l2_norm_xt()
        if gap <= budget.tolerance * max(1.0, scale):
            return cur
        prev = cur
    raise QuadratureDiverged(
        "node refinement did not converge below tolerance %.3g" % budget.tolerance)


# --------------------------------------------------------------------------
# diagnostics
# --------------------------------------------------------------------------

def evaluate_traces(field: Field) -> dict:
    """Boundary traces read off the field: u(0,.), u(ell,.), and u_x(ell,.)
    by a one-sided 4th-order difference."""
    if len(field.x_grid) < 5:
        raise GridTooCoarse("need at least 5 spatial points for the traces")
    x = field.x_grid
    horizon = float(field.t_grid[-1])
    wn = fd_weights(x[-5:], x[-1], 1)
    neumann = wn @ field.values[-5:, :]
    return {
        "left_dirichlet": TimeSeries(horizon, field.values[0, :]),
        "right_dirichlet": TimeSeries(horizon, field.values[-1, :]),
        "right_neumann": TimeSeries(horizon, neumann),
    }


def _trace_derivative(field: Field, side: str, order: int) -> np.ndarray:
    x = field.x_grid
    npts = min(len(x), order + 5)
    if side == "left":
        w = fd_weights(x[:npts], x[0], order)
        return w @ field.values[:npts, :]
    w = fd_weights(x[-npts:], x[-1], order)
    return w @ field.values[-npts:, :]


def global_relation_residual(field: Field, data: ProblemData, k_samples) -> float:
    """Max over sampled (k, t) of the defect in the transform-side identity
    linking the evolving spatial transform of the field to the transformed
    data, normalized by the magnitude of the identity's terms."""
    params, ell, horizon = data.params, data.ell, data.horizon
    karr = np.asarray(list(k_samples), dtype=np.complex128)
    t = field.t_grid
    if len(t) < 4:
        raise GridTooCoarse("need at least 4 time samples")
    om = omega(params, karr)

    xquad = _x_quadrature(ell)
    xq = xquad.nodes
    vq = CubicSpline(field.x_grid, field.values, axis=0)(xq)
    u0v = np.asarray(data.u0(xq), dtype=np.complex128)
    uhat, u0hat = _apply_kernel(karr, None, xquad, [vq, u0v])
    lhs = np.exp(-1j * np.outer(om, t)) * uhat

    th = float(t[-1])
    g0 = np.asarray(data.g0(t), dtype=np.complex128)
    h0 = np.asarray(data.h0(t), dtype=np.complex128)
    h1 = np.asarray(data.h1(t), dtype=np.complex128)
    g1 = _trace_derivative(field, "left", 1)
    g2 = _trace_derivative(field, "left", 2)
    h2 = _trace_derivative(field, "right", 2)

    # the left traces enter as beta g2 + i p1 g1 - p0 g0 and the right ones as
    # -e^{-ik ell} times the same combination: one weighted running transform
    beta, alpha, delta = params.beta, params.alpha, params.delta
    poly1 = beta * karr - alpha
    poly0 = beta * karr ** 2 - alpha * karr - delta
    left = np.stack([-poly0, 1j * poly1, np.full_like(karr, beta)], axis=1)
    weights = np.concatenate(
        [left, -np.exp(-1j * karr * ell)[:, None] * left], axis=1)
    rhs = u0hat[:, None] + _cumulative_transform(
        np.stack([g0, g1, g2, h0, h1, h2]), th, om, weights)
    forcing = _factor_forcing(_forcing_on_quadrature(data, xq))
    if forcing is not None:
        (ahat,) = _apply_kernel(karr, None, xquad, [forcing[0]])
        tf = np.linspace(0.0, horizon, forcing[1].shape[1])
        icum = _cumulative_transform(forcing[1], horizon, om, ahat)
        rhs = rhs - 1j * (icum @ _interpolation_matrix(tf, t))

    scale = max(float(np.max(np.abs(rhs))), float(np.max(np.abs(lhs))))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(lhs - rhs)) / scale)
