"""Contour-integral evaluation of the linear interval problem.

solve_full evaluates the solution formula's four contour integrals: one over
the truncated real line, and one over the boundary of each punctured region
D0, D+ and D-, which joins the region's three deformed segments.  All
exponentials are grouped so that every evaluated exponent has nonpositive
real part (up to the controlled arc growth described below), which keeps the
assembly free of overflow and catastrophic cancellation.

Every problem is solved on [0, 1].  x = ell xi, t = ell^3 s and k = k~ / ell
map i u_t + i beta u_xxx + alpha u_xx + i delta u_x = f on [0, ell] x [0, T]
exactly onto its twin on [0, 1] x [0, T / ell^3] (_unit_twin), which
make_plan and SolvePlan.apply solve and hand back on the caller's grids;
every helper below them works on [0, 1].  Only the budget's window keeps
the caller's units: make_plan reads R as R ell.

Two numerical choices matter:

* The puncture arcs are deformed inward from R_Delta to a smaller radius
  rho.  On an arc of radius R the factor e^{i omega t} reaches magnitude
  e^{beta R^3 t}; at R_Delta this is astronomically large (e.g. e^{364} for
  the Airy case on the unit interval at t = 1/2) and the quadrature would
  have to resolve cancellation far below machine precision.  The integrand
  is analytic between the two arcs whenever the exponential-sum denominator
  is zero-free there, so the contour may be pulled in; the deformation is
  validated at runtime by a scaled-denominator margin sweep over the region
  actually crossed.  rho is chosen so the arc growth stays near e^{12},
  which costs only a modest number of extra arc nodes.  Where rho cannot be
  that small (it is at least 1.5), an arc whose growth e^{amp} times eps
  would pass the budget's tolerance (amp > ln(tolerance / eps), 29.1 at the
  default) raises ExponentialOverflow before any panel is built, and so does
  an arc that would need more than MAX_ARC_PANELS panels.

* Quadrature panels are graded in phase: panel edges are placed so each
  8-point Gauss-Legendre panel spans a bounded amount of the worst-case
  oscillation |omega| * T + |k|, and the truncated time transforms are
  evaluated through exact polynomial moments of e^{-i w t} against a cubic
  spline of the data (stable for arbitrarily large |w|; for small |w| by
  the Taylor cells' series).  A budget whose panels would span more than
  MAX_PANEL_PHASE radians of that phase on average over a segment
  (unweighted by the data) cannot resolve it: make_plan raises
  QuadratureDiverged, after its other guards, rather than return an
  inaccurate field.  A window that truncates the data's transforms shows
  in the field itself, which then misses its Dirichlet data: apply raises
  QuadratureDiverged when the gap passes MAX_DIRICHLET_GAP of the field's
  largest value (_dirichlet_gap).

The formula holds with the horizon T replaced by any tau >= t, given data on
[0, tau]; the field up to T does not depend on the data past T.  The
transforms run to tau = T + dt, one output step past T: at the horizon the
factor e^{i omega (t - tau)} is 1, so the truncated integrand keeps its
algebraic tail in k, and the column at tau, which carries that O(1 / R)
error, is assembled and dropped.  The data are continued past T by one
routine, _continued, the C^1 point reflection g(T + s) = 2 g(T) - g(T - s)
(the boundary data, a given forcing and with it Picard's N(u)), and the
t = 0 column is u0 itself.

The data enter the solve as two arrays (_sample): the x-quadrature payload
[u0 | A], the forcing factored as A(x) B(t) of rank r, and the corner
blend's 2x2 coefficients.  B keeps the singular values above
tolerance / 1000 of the largest (the plan's rank_cut), since the rest move
the field far below the tolerance.  The x-kernels act on the payload's
1 + r columns, and only the r rows of B are splined in time.  One routine,
_time_transform, takes every truncated time transform: a weighted sum over
a few shared series of int_0^t e^{-i w u} phi(u) du, at the horizon on the
region boundaries, and in the real axis's forcing history as one running
sum on B's grid, read every stride cells: _continued_onto puts B on a
uniform grid that holds every assembly time, so no time falls in a cell.

The data-independent part of a solve is a SolvePlan, which keeps no data:
the twin's output grids, the arc radius rho and the four contours, each one
Contour record of its nodes and tables, built once.  _solver_segments places
the nodes on regions.segment_specs' nine Segment records and on the real
window, one more Segment, by one routine (_place), thinned off the arcs by a
fixed weight of |k - c0| (_phase_measure): the nodes depend on the twin's
(params, horizon) and the window R ell alone, so a problem and its twin get
one plan.  The tables are omega, and on a region boundary the symmetry
roots, omega' and Delta_s (regions.scaled_delta, the one place the Delta
formula lives).  apply(data) evaluates one term, SolvePlan._term, per
contour, skipping identically zero parts of the data: the sum over the
nodes of w_k e^{i k x + shift_k} e^{i omega t} times the payload over
Delta_s (_assemble), with shift_k = -i k on D+/- for e^{-i k (1 - x)}.  A
region fixes only its dominant root sigma (k, nu+ or nu-), whether the
data are scaled by e^{i sigma}, and the shift.  The real window's payload,
not divided, is u0hat plus the forcing history, and is never held whole:
_assemble asks for it per block of its nodes, and each block's rows are
one kernel call on the payload and one _time_transform of B on that block's
nodes, against B's spline set up once per term (_spline_cells), so a
forced solve holds one block x nt of the history and one block x (1 + r)
of the kernel's columns.  A region boundary's kernels are summed whole,
per contour.  solve_full is make_plan(...).apply(data).

The x-factors e^{+-i k x + shift_k} of the assembly and of the x-kernels are
summed by one split, _taylor_cells: a series in (k - c)(x - x0) about the
centre c of each square of side 2 sqrt(2) in k, exact to rounding, with
x0 = 0 above the real axis and 1 below so that the cell factor is at most 1;
no per-node x-table is built.  The time tables are _phase_tables, rows of
running products of 2 step exponentials per w.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .dispersion import (DispersionParams, mu_factors, omega, omega_prime,
                         symmetry_roots)
from .errors import ExponentialOverflow, GridTooCoarse, InvalidTruncation, QuadratureDiverged
from .fields import Field, integer, is_uniform
# arc_half_angle is uncalled here but bound for perfbench's tracer (ROADMAP item 4)
from .regions import (DOMINANT_ROOT, RegionLabel, arc_half_angle, r_delta,
                      real_ray, scaled_delta, segment_specs)
from .transforms import CubicSpline, GL8_NODES, SpatialProfile, TimeSeries, gauss_panels

TWO_PI = 2.0 * np.pi
# largest |real part| of an exponent the transforms and the assembly evaluate
OVERFLOW_GUARD = 700.0
# target cap on log of the arc amplification e^{beta rho^3 T}
ARC_LOG_CAP = 12.0
MIN_DELTA_MARGIN = 1e-4
# most Gauss-Legendre panels one arc may take; more means the arc radius is
# too large for the horizon, and the panels would exhaust memory
MAX_ARC_PANELS = 100000
# most unweighted phase, in radians, an 8-point panel of a graded segment or
# the real window may span on average: the segment's phase measure, |dk|
# floor included, over its panel count.  The fixed weight of _phase_measure
# gives panels equal shares of the weighted phase, so one panel may span up
# to (1 + R ell)^{1/3} times the mean, R ell the window in the twin's k
# (100^{1/3} at most, by the weight's floor): 2.52 at the default window on
# ell = 1.  Measured on the plane-wave family at the default budget:
# the members within the tolerance 1e-3 read up to 29.5 rad per panel, and
# the (2, 1, -1) cases at beta T = 1, with errors of 2.0e-2 and 2.4e-2,
# 58.2 and 58.4
MAX_PANEL_PHASE = 40.0
# largest gap, over the times past t = 0, between the field's boundary values
# and its Dirichlet data g0 and h0, as a fraction of the field's largest
# value.  Measured: the Tier-1 solves within the tolerance 1e-3 read up to
# 2.1e-3, and rough data on the default budget, whose window truncates
# their transforms, 8.1e-3 to 3.0e-2 at relative L2 errors of 9.2e-3 to
# 4.6e-2: the gap follows the error within a factor of about 2
MAX_DIRICHLET_GAP = 5e-3
# a solve's forcing keeps the singular values of its time factor B above
# RANK_CUT times the budget's tolerance of the largest (_factor_forcing).
# Measured on criterion 03's first Picard forcing: 29 above rounding, 13
# above this cut at the default tolerance 1e-3, and the Picard field moves
# by 1.9e-12 of its largest value
RANK_CUT = 1e-3
# radii, and angles per region sector, of the deformation-margin sweep
SWEEP_RADII, SWEEP_ANGLES = 9, 65


@dataclass(frozen=True)
class QuadratureBudget:
    """Node counts and truncation for the contour assembly.

    real_axis_window is the common truncation radius |k - c0| <= R for the
    whole-line term and all contour segments; keeping it common makes the
    slowly decaying corner tails of the individual terms cancel.
    contour_nodes is shared among the six contour segments other than the
    puncture arcs, in proportion to each one's phase content; each arc takes
    its own count from its amplification bound.  The deformed puncture
    radius is not a budget setting: make_plan picks it where the Delta-margin
    sweep finds the swept annulus zero-free.

    The defaults were picked by a sweep over node counts {3000, 4000, 6000,
    8000} and windows {12, 15, 20} on the plane-wave family: they meet the
    tolerance for every beta T <= 0.5 member, 2.9e-4 at worst, and fail the
    phase check at beta T = 1.  Data with content past the window R = 15,
    such as narrow bumps and Gaussians on short horizons, fail the
    Dirichlet check and need a wider window.
    """

    contour_nodes: int = 3000
    real_axis_window: float = 15.0
    real_axis_nodes: int = 1500
    tolerance: float = 1e-3

    def __post_init__(self):
        counts = (self.contour_nodes, self.real_axis_nodes)
        message = "node counts must be integers, got %r, %r" % counts
        if min(integer(n, message) for n in counts) <= 0:
            raise ValueError("node counts must be positive")
        if not all(0 < v < np.inf for v in (self.real_axis_window, self.tolerance)):
            raise ValueError("window and tolerance must be finite and positive")


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
        if not (0 < self.ell < np.inf and 0 < self.horizon < np.inf):
            raise ValueError("ell and horizon must be finite and positive")
        if abs(self.u0.ell - self.ell) > 1e-9 * max(1.0, self.ell):
            raise ValueError("u0 is not sampled on [0, ell]")
        for name in ("g0", "h0", "h1"):
            series = getattr(self, name)
            if abs(series.horizon - self.horizon) > 1e-9 * max(1.0, self.horizon):
                raise ValueError("%s horizon does not match the problem horizon" % name)
        if self.forcing is not None:
            t = self.forcing.t_grid
            if not _spans(self.forcing, self.ell, self.horizon):
                raise ValueError("forcing grids must span [0, ell] x [0, horizon]")
            uniform = np.linspace(0.0, self.horizon, len(t))
            atol = 1e-9 * max(1.0, self.horizon)
            if not np.allclose(t, uniform, rtol=0.0, atol=atol):
                raise ValueError("forcing time grid must be uniform")
        if not (np.isfinite(self.kappa) and 1 < self.lam < np.inf):
            raise ValueError("kappa and lambda must be finite, lambda above 1")


def _spans(field: Field, length, horizon) -> bool:
    """Whether the field spans [0, length] x [0, horizon] to 1e-9 of each
    extent, so that its _unit_twin spans [0, 1] x [0, horizon / ell^3]."""
    return all(abs(g[0]) <= 1e-9 * end and abs(g[-1] - end) <= 1e-9 * end
               for g, end in ((field.x_grid, length), (field.t_grid, horizon)))


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


# the x-quadrature of every spatial transform: 8-point Gauss-Legendre on 32
# uniform panels of [0, 1]; XQ_REACH, the largest offset of a Gauss point from
# its panel's midpoint, bounds the kernel's exponents within a panel
XQ_NODES, XQ_WEIGHTS = gauss_panels(np.linspace(0.0, 1.0, 33))
XQ_REACH = 0.5 / 32 * float(np.max(np.abs(GL8_NODES)))


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
    out[0] = (1.0 - expz) / iw
    for m in range(1, 4):
        out[m] = (m * out[m - 1] - h ** m * expz) / iw
    if np.any(small):
        # M_m = h^{m+1} sum_n z^n / (n! (m + n + 1)); term 25 is below 1e-31
        scale = (h ** np.arange(1, 5))[:, None] * FILON_TAYLOR
        out[:, small] = scale @ _taylor_powers(z[small])
    return out


def _phase_table(w, dt, n, scale=None):
    """scale_w e^{-i w j dt} for j = 0..n-1, shape (len(w), n); scale
    defaults to 1.

    Two exponentials per w, the steps e^{-i w dt} and e^{-i w m dt} with
    m = ceil(sqrt(n)): entries j < m are running products of the first, and
    entry j >= m is entry j - m times the second, so entry a m + b carries
    a + b < m + n / m rounded products (one chain: up to n roundings of the
    first step).  Rows are monotone in modulus, so no product exceeds the
    largest entry.  Filled as the (n, len(w)) transpose, m rows per product.
    """
    m = int(np.ceil(np.sqrt(n)))
    out = np.empty((n, len(w)), dtype=np.complex128)
    out[0] = 1.0 if scale is None else scale
    step = np.exp(-1j * w * dt)
    for j in range(1, m):
        np.multiply(out[j - 1], step, out=out[j])
    step = np.exp(-1j * w * (m * dt))
    for lo in range(m, n, m):
        np.multiply(out[lo - m:min(lo, n - m)], step, out=out[lo:lo + m])
    return out.T


class _SplineCells(NamedTuple):
    """What _time_transform needs of its series whatever the w
    (_spline_cells): the series' count S and length nt, and their spline's
    cell coefficients, (4 S, nt - 1)."""

    count: int
    nt: int
    coef: np.ndarray


def _spline_cells(series, horizon: float) -> _SplineCells:
    """The w-independent set-up of _time_transform(series, horizon, ...): the
    cubic spline of each row of series, its cell coefficients with row m S + s
    holding series s's power-m coefficients."""
    vals = np.asarray(series, dtype=np.complex128)
    nt = vals.shape[1]
    # (4, nt - 1, S): cell polynomial coefficients, lowest power first
    coef = CubicSpline(np.linspace(0.0, horizon, nt), vals, axis=1).c[::-1]
    return _SplineCells(len(vals), nt, coef.transpose(0, 2, 1).reshape(-1, nt - 1))


def _time_transform(series, horizon: float, w, weights, stride=None) -> np.ndarray:
    """sum_s weights[j, s] int_0^t e^{-i w_j u} phi_s(u) du against the cubic
    spline phi_s of each row of series, (S, nt) on linspace(0, horizon, nt):
    at t = horizon, (nw,), or with an integer stride that divides nt - 1 at
    every stride-th time of the series' grid, (nw, (nt - 1) / stride + 1).

    series may also be _spline_cells(series, horizon), made once for calls
    on many blocks of w with the same series: the real window's forcing
    history is taken so, one block of the assembly at a time, and never
    held whole.

    weights is (nw, S), or (S,) shared by every w.  Per chunk of w, the Filon
    moments over one time cell are folded into the weights as one (chunk, 4 S)
    matrix.  At the horizon, the phase table e^{-i w t} at the cell starts is
    first multiplied by the transposed (4 S, nt - 1) spline coefficients and
    then contracted with it; running, one product with the coefficients gives
    every cell integral, which the phase table multiplies in place before the
    running sum on the series' grid, read every stride cells.  A chunk holds
    2^16 / (nt - 1) rows, at least 128: the phase table stays within 1 MiB up
    to 513 times (2 MiB at 1025), reused from the heap and cached rather than
    mapped afresh (past 4 MiB, as huge pages when the kernel has them) for
    every chunk.
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.complex128))
    if np.max(w.imag) * horizon > OVERFLOW_GUARD:
        raise ExponentialOverflow("Im w too positive for the time transform")
    cells = (series if isinstance(series, _SplineCells)
             else _spline_cells(series, horizon))
    nt, coef = cells.nt, cells.coef
    weights = np.broadcast_to(np.asarray(weights, dtype=np.complex128),
                              (len(w), cells.count))
    # a running sum reads 0 at t = 0
    out = np.zeros(len(w) if stride is None else (len(w), (nt - 1) // stride + 1),
                   dtype=np.complex128)
    dt = horizon / (nt - 1)
    chunk = max(128, 2 ** 16 // (nt - 1))
    for lo in range(0, len(w), chunk):
        sel = slice(lo, lo + chunk)
        mom = _filon_moments(w[sel], dt)
        eph = _phase_table(w[sel], dt, nt - 1)
        folded = mom.T[:, :, None] * weights[sel][:, None, :]
        folded = folded.reshape(len(eph), -1)
        if stride is None:
            out[sel] = np.einsum("ij,ij->i", eph @ coef.T, folded)
            continue
        cell = folded @ coef
        np.cumsum(np.multiply(cell, eph, out=cell), axis=1, out=cell)
        out[sel, 1:] = cell[:, stride - 1::stride]
    return out


# --------------------------------------------------------------------------
# exponential kernels with guarded exponents, by Taylor cells in k
# --------------------------------------------------------------------------

# A Taylor cell is a square of side TAYLOR_SIDE = 2 sqrt(2) in k.  About its
# centre c, e^{i k (x - x0)} = e^{i c (x - x0)} sum_n (i z u)^n / n! with
# z = k - c and u = x - x0, and |z| <= TAYLOR_RADIUS = 2, |u| <= 1 on [0, 1]:
# after TAYLOR_TERMS terms the remainder is below 2^25 / 25! ~ 2e-18 times
# the cell factor e^{i c (x - x0)}.
TAYLOR_TERMS = 25
TAYLOR_RADIUS = 2.0
TAYLOR_SIDE = np.sqrt(2.0) * TAYLOR_RADIUS
# 1 / n! as float64 (a Python-int factorial would make an object array)
INV_FACTORIAL = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, TAYLOR_TERMS)])
# 1 / (n! (m + n + 1)), m = 0..3: _filon_moments' series for small |w| h
FILON_TAYLOR = INV_FACTORIAL / np.add.outer(np.arange(1, 5), np.arange(TAYLOR_TERMS))
# payload columns _apply_kernel takes its cell moments for at a time: the
# product's right side is then (256, TAYLOR_TERMS, 8), 0.8 MiB, whatever the
# forcing's rank
MOMENT_COLUMNS = 8


def _taylor_cells(k, shift, chunk):
    """The Taylor-cell split of e^{i k x + shift_k} on [0, 1].

    The nodes k are grouped into square cells of side TAYLOR_SIDE, so
    |k - c| <= TAYLOR_RADIUS from the cell's centre c, whatever the order of
    the nodes.  A cell's reference end x0 is 0 above the real axis and 1
    below, so that its x-table e^{i c (x - x0)} (x - x0)^n / n! is at most 1
    in modulus, and
        e^{i k x + shift_k} = sum_n rows[n, k] e^{i c (x - x0)} (x - x0)^n / n!
    with the node rows e^{i k x0 + shift_k} (i (k - c))^n, which carry the
    largest entry; shift None is zero.

    Returns the cell centres (ncells,), each cell's x0 and a generator of
    blocks of at most chunk nodes taken in cell order: per block, the node
    indices, the cell of each node, the runs, slices of the block, of nodes
    sharing a cell, and the (TAYLOR_TERMS, nodes) node rows, built as the
    block is reached.
    """
    ij = np.floor(np.stack([k.imag, k.real]) / TAYLOR_SIDE)
    # by column of cells, then by row; stable, so a cell keeps node order
    order = np.lexsort(ij)
    ij = ij[:, order]
    new = np.ones(len(k), dtype=bool)
    new[1:] = np.any(ij[:, 1:] != ij[:, :-1], axis=0)
    cell = np.cumsum(new) - 1
    centres = TAYLOR_SIDE * (ij[1, new] + 0.5 + 1j * (ij[0, new] + 0.5))
    x0 = np.where(centres.imag > 0, 0.0, 1.0)

    def blocks():
        for lo in range(0, len(k), chunk):
            idx, cb = order[lo:lo + chunk], cell[lo:lo + chunk]
            cuts = np.concatenate([[0], np.flatnonzero(np.diff(cb)) + 1, [len(cb)]])
            kc = k[idx]
            expo = 1j * kc * x0[cb] + (0.0 if shift is None else shift[idx])
            yield (idx, cb, [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])],
                   _taylor_powers(1j * (kc - centres[cb]), np.exp(expo)))
    return centres, x0, blocks()


def _taylor_powers(z, scale=1.0):
    """scale z^n for n < TAYLOR_TERMS, (TAYLOR_TERMS, len(z)), filled by rows."""
    out = np.empty((TAYLOR_TERMS, len(z)), dtype=np.result_type(z, 1.0))
    out[0] = scale
    for n in range(1, TAYLOR_TERMS):
        np.multiply(out[n - 1], z, out=out[n])
    return out


def _taylor_basis(u):
    """u^n / n! for n < TAYLOR_TERMS, (len(u), TAYLOR_TERMS)."""
    return _taylor_powers(u).T * INV_FACTORIAL


def _apply_kernel(karr, shift, payload, scale=None, out=None):
    """sum_q exp(-i k x_q + shift_k) w_q payload[q], (nk, c), for the (nq, c)
    payload on the unit x-quadrature (x_q, w_q) = (XQ_NODES, XQ_WEIGHTS),
    times scale_k when scale is given, added into out when given (a term's
    kernels sum into one array) and returned.

    The kernel is the _taylor_cells split taken at -k, since
    e^{-i k x + shift_k} = e^{i (-k) x + shift_k}: per side of the real axis,
    one product of its cells' x-tables with MOMENT_COLUMNS payload columns
    at a time, weighted by w_q, gives the moments of every cell c (of -k)
    there,
        M_n(c) = sum_q w_q p_q e^{i c (x_q - x0)} (x_q - x0)^n / n!,
    and each cell's nodes take one product of their node rows with them.
    Nodes are taken in blocks of 2048.

    All exponents must have (essentially) nonpositive real part; a large
    positive real part signals a construction error and raises before any
    exponential is taken.  The real part Im(k) x + Re(shift_k) is linear in
    x, so its maximum over the nodes is at the first or last node.
    """
    karr = np.asarray(karr, dtype=np.complex128)
    nk = len(karr)
    shift = (np.zeros(nk) if shift is None
             else np.asarray(shift, dtype=np.complex128))
    xq, wq = XQ_NODES, XQ_WEIGHTS
    if nk:
        worst = float(np.max(np.maximum(karr.imag * xq[0], karr.imag * xq[-1])
                             + shift.real))
        if worst > 2.0:
            raise ExponentialOverflow(
                "kernel exponent has positive real part %.3g" % worst)
        # e^{-i k x} grows by e^{|Im k| XQ_REACH} within half a panel; past
        # the guard the panel's 8 Gauss points cannot resolve it
        if np.max(np.abs(karr.imag)) * XQ_REACH > OVERFLOW_GUARD:
            raise ExponentialOverflow("Im k too large for the x-quadrature panels")
    payload = np.asarray(payload, dtype=np.complex128)
    if payload.shape[:1] != wq.shape or payload.ndim != 2:
        raise ValueError("the payload must be (%d, c), got %r" % (len(wq), payload.shape))
    weighted = payload * wq[:, None]
    ncol = payload.shape[1]
    centres, x0, blocks = _taylor_cells(-karr, shift, 2048)
    moments = np.empty((len(centres), TAYLOR_TERMS, ncol), dtype=np.complex128)
    for side in (0.0, 1.0):
        sel, dx = x0 == side, xq - side
        # real nodes, as on the real window, have no cell below the axis
        if not np.any(sel):
            continue
        phase, basis = np.exp(1j * np.outer(centres[sel], dx)), _taylor_basis(dx)
        for lo in range(0, ncol, MOMENT_COLUMNS):
            cols = weighted[:, lo:lo + MOMENT_COLUMNS]
            rhs = (basis[:, :, None] * cols[:, None, :]).reshape(len(xq), -1)
            moments[sel, :, lo:lo + MOMENT_COLUMNS] = (phase @ rhs).reshape(
                -1, TAYLOR_TERMS, cols.shape[1])
    if out is None:
        out = np.zeros((nk, ncol), dtype=np.complex128)
    for idx, cell, runs, rows in blocks:
        part = np.empty((len(idx), ncol), dtype=np.complex128)
        for run in runs:
            np.matmul(rows[:, run].T, moments[cell[run.start]], out=part[run])
        if scale is not None:
            np.multiply(scale[idx, None], part, out=part)
        out[idx] += part
    return out


def _assembly_block(nt):
    """The nodes _assemble takes per block at nt output times: 1024, or
    2^17 / (nt - 1) past 129 times, so its time table stays near 2^17
    entries (2 MiB)."""
    return max(1, 2 ** 17 // max(nt - 1, 128))


def _assemble(vals, horizon, karr, warr, om, coef, shift=None):
    """vals += 1/(2 pi) sum_k w_k e^{i k x + shift_k} e^{i om_k t} coef_k(t)
    on the uniform (nx, nt) = vals.shape points of [0, 1] x [0, horizon].

    coef is (nk,), constant in time, or a function that maps the node
    indices idx of one block to their (len(idx), nt) rows on the output
    times, so that a time-dependent coefficient is formed one block at a
    time; shift is as in _apply_kernel, -i k on D+/- for e^{-i k (1 - x)}.
    The factor e^{i k x + shift_k} is the _taylor_cells split, taken in
    blocks of _assembly_block(nt) nodes.  Per block, the time table is a
    _phase_table scaled by w_k coef_k (or by w_k, with the block's rows
    multiplied in), released before the next block's is built; per cell,
    one product contracts it with the node rows
    into a (TAYLOR_TERMS, nt) array, and once the cell's last block is done,
    one product applies the cell's x-table.  The split's node rows carry the
    x-factor's largest entry; the growth guard bounds the time table's.
    """
    nx, nt = vals.shape
    dt = horizon / (nt - 1)
    growth = np.max(-om.imag) * horizon if len(karr) else 0.0
    if growth > OVERFLOW_GUARD:
        raise ExponentialOverflow("contour time factor exceeds the overflow guard")
    centres, x0, blocks = _taylor_cells(karr, shift, _assembly_block(nt))

    def contracted():
        """(cell, node rows . time table) per run of each block."""
        for idx, cell, runs, rows in blocks:
            if callable(coef):
                tm = _phase_table(-om[idx], dt, nt, scale=warr[idx])
                # in the table's own (nt, nk) order: twice as fast as tm *= rows
                np.multiply(tm.T, coef(idx).T, out=tm.T)
            else:
                tm = _phase_table(-om[idx], dt, nt, scale=warr[idx] * coef[idx])
            for run in runs:
                yield cell[run.start], rows[:, run] @ tm[run]
            del tm

    x = np.linspace(0.0, 1.0, nx)
    tables = {side: (x - side, _taylor_basis(x - side)) for side in (0.0, 1.0)}
    for c, parts in itertools.groupby(contracted(), key=lambda part: part[0]):
        dx, table = tables[x0[c]]
        factor = np.exp(1j * centres[c] * dx) * (1.0 / TWO_PI)
        vals += (factor[:, None] * table) @ sum(g for _c, g in parts)
    return vals


# --------------------------------------------------------------------------
# phase-graded contour nodes
# --------------------------------------------------------------------------

def _phase_measure(params, seg, horizon):
    """The phase the Segment seg's nodes must resolve, cumulated along its
    parameter p on 2001 points, and its unweighted total: density
    (|d omega| horizon + 3 |dk|) / 2 pi in the twin's k, cumulated off an arc
    with the weight max(1 / (1 + r), 1e-2)^{1/3} of r = |k - c0|, the cube root
    of a 1 / r transform, so that panels thin out away from c0 whatever the
    data.  Arcs keep the unweighted measure: their panel count is set by the
    amplification bound."""
    pf = np.linspace(seg.lo, seg.hi, 2001)
    kf = np.asarray(seg.gamma(pf), dtype=np.complex128)
    omf = omega(params, kf)
    dk = np.gradient(kf, pf)
    dom = np.gradient(omf, pf)
    dens = (np.abs(dom) * horizon + np.abs(dk) * 3.0) / TWO_PI + 1e-9

    def cumulated(d):
        return np.cumsum(np.r_[0.0, np.diff(pf) * (d[1:] + d[:-1]) / 2.0])

    cum = cumulated(dens)
    if seg.arc:
        return pf, cum, cum[-1]
    weight = np.maximum(1.0 / (1.0 + np.abs(kf - params.center)), 1e-2) ** (1.0 / 3.0)
    return pf, cumulated(dens * weight), cum[-1]


def _place(seg, pf, cum, n_panels):
    """Nodes k = gamma(p) and weights orientation gamma'(p) dp of seg on
    Gauss-Legendre panels with equal shares of cum, empty ones dropped."""
    edges = np.maximum.accumulate(
        np.interp(np.linspace(0.0, cum[-1], n_panels + 1), cum, pf))
    # the edges ascend already; np.unique would sort them again and import
    # numpy.ma inside the first solve
    p, w = gauss_panels(edges[np.r_[True, edges[1:] > edges[:-1]]])
    return (np.asarray(seg.gamma(p), dtype=np.complex128),
            seg.orientation * w * np.asarray(seg.dgamma(p), dtype=np.complex128))


def _roots_and_delta(params, k, region):
    """The roots (k, nu+, nu-) at the points k of region's boundary, and Delta_s."""
    roots = symmetry_roots(params, k)
    return roots, scaled_delta(roots, roots[DOMINANT_ROOT[region]])


def _delta_margin(params, k, delta):
    """min |Delta_s| / |k - c0| over the points k, where Delta_s = delta."""
    return float(np.min(np.abs(delta) / np.abs(k - params.center)))


def _deformation_margin(params, rho, rd):
    """Minimum scaled-denominator margin |Delta_s| / |k - c0| over the
    annular region sectors swept when the puncture arcs move from rd in to
    rho: SWEEP_ANGLES points on each arc of segment_specs at each radius."""
    margin = np.inf
    for r in np.linspace(rho, rd, SWEEP_RADII):
        for seg in segment_specs(params, r, rd):
            if seg.arc:
                k = seg.gamma(np.linspace(seg.lo, seg.hi, SWEEP_ANGLES))
                delta = _roots_and_delta(params, k, seg.region)[1]
                margin = min(margin, _delta_margin(params, k, delta))
    return margin


def _pick_arc_radius(params, horizon):
    """The deformed puncture radius rho: the radius whose arc amplification
    is about e^{ARC_LOG_CAP}, clamped to [rho_lo, R_Delta], then grown until
    the annulus swept from R_Delta in to rho keeps the Delta margin."""
    rd = r_delta(params)
    d = params.discriminant
    r_cut = (2.0 / (3.0 * params.beta)) * np.sqrt(abs(d))
    rho_lo = max(1.3 * r_cut, 1.5)
    rho_target = (ARC_LOG_CAP / (params.beta * horizon)) ** (1.0 / 3.0)
    rho = min(max(rho_target, rho_lo), rd)
    while rho < rd and _deformation_margin(params, rho, rd) < MIN_DELTA_MARGIN:
        rho = min(1.35 * rho, rd)
    return rho


def _solver_segments(params, horizon, budget):
    """Phase-graded quadrature nodes on the formula's four contours: the real
    window |k - c0| <= R as (k, w) and each region's boundary as
    (region, k, dk-weights), its three (deformed) segments joined in
    segment_specs order; the nine segments' node counts; the arc radius;
    and the mean phase per panel of the ten segments, the window last: the
    unweighted total of _phase_measure over the panel count, 0 on an arc.
    The window, budget's R in the twin's k, is one more Segment, region None."""
    rho = _pick_arc_radius(params, horizon)
    c0, r_t = params.center, budget.real_axis_window
    if r_t <= 1.1 * rho:
        raise InvalidTruncation(
            "real_axis_window too small for the puncture radius rho: it must "
            "exceed 1.1 rho, so be more than %.4g times wider" % (1.1 * rho / r_t))
    # past this cap, rounding on an arc (e^{amp} eps) passes the tolerance
    precision_cap = np.log(budget.tolerance / np.finfo(np.float64).eps)
    boundary = segment_specs(params, rho, r_t)
    segs = boundary + [real_ray(None, c0 - r_t, c0 + r_t, +1)]
    measures = [_phase_measure(params, seg, horizon) for seg in segs]
    # contour_nodes is shared among the graded boundary segments by phase
    graded = np.array([cum[-1] for seg, (_pf, cum, _total) in zip(boundary, measures)
                       if not seg.arc])
    shares = iter(graded / np.sum(graded))
    n_graded = max(12, budget.contour_nodes // 8)
    panels = []
    for seg, (pf, cum, _total) in zip(boundary, measures):
        if not seg.arc:
            panels.append(max(2, int(round(n_graded * next(shares)))))
            continue
        # the arc integrand is amplified by e^{A}; Gauss-Legendre error
        # must be driven below e^{-A}, which sets the phase per panel
        kf = np.asarray(seg.gamma(pf), dtype=np.complex128)
        amp = max(float(np.max(-omega(params, kf).imag)) * horizon, 0.0)
        if amp > precision_cap:
            raise ExponentialOverflow(
                "arc amplification exponent %.4g exceeds the precision cap "
                "ln(tolerance / eps) = %.4g; the horizon is too long for "
                "the interval" % (amp, precision_cap))
        theta_max = 2.6 * (1e-8 * np.exp(-amp)) ** (1.0 / 16.0)
        n_arc = np.ceil(cum[-1] * TWO_PI / theta_max)
        if n_arc > MAX_ARC_PANELS:
            raise ExponentialOverflow(
                "arc at rho = %.4g (in the unit interval's k) with "
                "amplification exponent %.4g needs %.3g panels, more than "
                "%d; the arc radius is too large for the horizon"
                % (rho, amp, n_arc, MAX_ARC_PANELS))
        panels.append(max(24, int(n_arc)))
    panels.append(max(4, budget.real_axis_nodes // 8))
    ks, ws = zip(*(_place(seg, pf, cum, n)
                   for seg, (pf, cum, _total), n in zip(segs, measures, panels)))
    # each region's three segments are consecutive in segment_specs
    contours = [(boundary[i].region, np.concatenate(ks[i:i + 3]),
                 np.concatenate(ws[i:i + 3])) for i in (0, 3, 6)]
    window = ks[-1].real.copy(), ws[-1].real.copy()
    # the phase the nodes must resolve, unweighted, per panel on average
    phases = tuple(0.0 if seg.arc else TWO_PI * total / n
                   for seg, (_pf, _cum, total), n in zip(segs, measures, panels))
    return window, contours, tuple(map(len, ks[:-1])), rho, phases


# --------------------------------------------------------------------------
# the solvers
# --------------------------------------------------------------------------

def resample(field: Field, x, t=None) -> np.ndarray:
    """The field's values splined onto the points x, (len(x), nt), and then
    onto the times t when given, (len(x), len(t)): the one place a Field is
    carried off its grid."""
    vals = CubicSpline(field.x_grid, field.values, axis=0)(x)
    return vals if t is None else CubicSpline(field.t_grid, vals, axis=1)(t)


def _factor_forcing(fq, cut=0.0):
    """Split the quadrature-sampled forcing fq (nq, nt) as A @ B with A
    (nq, r) and B (r, nt), by an SVD that keeps the largest singular value
    and those above cut times it, and never those at rounding level,
    max(fq.shape) eps times it.  A solve cuts at its budget's tolerance / 1000
    (SolvePlan.rank_cut); cut 0 keeps every singular value above rounding.
    Every forcing transform then needs the x-kernel on r columns of A and
    the time transform of r shared series B.  None when there is no forcing
    or it is zero; ExponentialOverflow when fq is not finite."""
    if fq is None:
        return None
    if not np.all(np.isfinite(fq)):
        raise ExponentialOverflow("the sampled forcing is not finite")
    u, s, vh = np.linalg.svd(fq, full_matrices=False)
    # the relative floor first: s[0] * max(fq.shape) overflows when s[0] is
    # within a factor max(fq.shape) of the float maximum
    floor = max(cut, max(fq.shape) * np.finfo(np.float64).eps)
    # the largest is kept whatever the cut, unless fq is zero
    rank = max(int(np.sum(s > s[0] * floor)), int(s[0] > 0))
    if rank == 0:
        return None
    return u[:, :rank] * s[:rank], vh[:rank]


class _Samples(NamedTuple):
    """The data as the transforms see it, corner blend removed: xcols, the
    (nq, 1 + r) x-quadrature payload [u0 | A] of u0 and the forcing's x
    factor; the (3, NTQ) stack of g0, h0, h1 and b, the forcing's time factor
    B, each on a uniform grid of [0, tau], the transform horizon, B's holding
    every assembly time; and blend, _corner_blend's C.  A zero part is None."""

    xcols: Optional[np.ndarray]
    stack: Optional[np.ndarray]
    b: Optional[np.ndarray]
    blend: Optional[np.ndarray]


# time samples of the boundary data
NTQ = 257


def _continued(series, horizon, t) -> np.ndarray:
    """series at the times t of [0, 2 horizon], continued past the horizon T
    by the C^1 point reflection g(T + s) = 2 g(T) - g(T - s): series is read
    only on [0, T], and the time axis of its values is their last.  The one
    continuation of every series the transforms take past T (the boundary
    data, a given forcing and with it Picard's N(u)): the field up to T does
    not depend on data past T, and a C^1 continuation keeps the transforms'
    spline as smooth across T as inside."""
    t = np.asarray(t, dtype=np.float64)
    past = t > horizon
    vals = np.array(series(np.where(past, 2.0 * horizon - t, t)), dtype=np.complex128)
    if np.any(past):
        vals[..., past] = 2.0 * np.asarray(series(np.array([horizon]))) - vals[..., past]
    return vals


def _continued_onto(t, b, horizon, times):
    """The rows b on the uniform grid t of [0, horizon], splined and
    continued by _continued onto the uniform grid of [0, times[-1]] that holds
    the uniform times from 0, with their step over j = ceil(their step / t's),
    the largest not above t's; and j, the stride of the times on it."""
    j = int(np.ceil(times[1] / (horizon / (len(t) - 1)) * (1.0 - 1e-12)))
    grid = np.linspace(0.0, times[-1], (len(times) - 1) * j + 1)
    return _continued(CubicSpline(t, b, axis=1), horizon, grid), j


def _sample(data: ProblemData, t_grid, cut=0.0) -> _Samples:
    """Sample data on [0, 1] (a _unit_twin) up to the transform horizon
    tau = t_grid[-1], continued past data.horizon by _continued, remove the
    corner blend and factor the forcing.  The blend forcing comes factored,
    with B on the times t_grid when it is the only forcing; a given forcing
    has the blend's factors subtracted on its own time grid, is factored by
    _factor_forcing at the relative cut, and its B put by _continued_onto on
    a grid of [0, tau] holding every time of t_grid: t_grid itself when the
    forcing sits on the output times, as Picard's N(u) does."""
    xq, horizon, tau = XQ_NODES, data.horizon, t_grid[-1]
    u0v = np.asarray(data.u0(xq), dtype=np.complex128)
    fq = None if data.forcing is None else resample(data.forcing, xq)
    tq = np.linspace(0.0, tau, NTQ)
    stack = np.stack([_continued(s, horizon, tq) for s in (data.g0, data.h0, data.h1)])
    forcing = None
    blend = _corner_blend(data, tau)
    if blend is not None:
        (c00, ct), (cx, cxt) = blend
        u0v = u0v - (c00 + cx * xq)
        # w(0, t), w(1, t) and w_x(1, t)
        stack = stack - np.array([[1, 0], [1, 1], [0, 1]]) @ blend @ np.stack(
            [np.ones(NTQ), tq / tau])
        # the forcing i w_t + i delta w_x = (a0 + a1 x) 1 + 1 (a2 t), of rank
        # <= 2, as factors A(x) and B(t) with the zero terms dropped; linear
        # in t, so it commutes with the continuation
        a0 = 1j * (ct / tau + data.params.delta * cx)
        a1 = 1j * cxt / tau
        a2 = data.params.delta * a1
        t = t_grid if fq is None else data.forcing.t_grid
        keep = [a0 != 0 or a1 != 0, a2 != 0]
        a = np.stack([a0 + a1 * xq, np.ones(len(xq))], axis=1)[:, keep]
        b = np.stack([np.ones(len(t)), a2 * t + 0j])[keep]
        if fq is None:
            forcing = (-a, b) if len(b) else None
        else:
            fq = fq - a @ b
    if fq is not None:
        forcing = _factor_forcing(fq, cut)
        if forcing is not None:
            forcing = forcing[0], _continued_onto(data.forcing.t_grid, forcing[1],
                                                  horizon, t_grid)[0]
    a, b = forcing if forcing is not None else (np.zeros((len(xq), 0)), None)
    xcols = np.column_stack([u0v, a])
    return _Samples(xcols if np.any(xcols) else None,
                    stack if np.any(stack) else None, b, blend)


def _corner_blend(data: ProblemData, tau):
    """The 2x2 coefficients C of the bilinear w(x, t) = [1, x] C [1, t / tau]^T
    that matches the rectangle-corner values u0(0), u0(1), g0(tau), h0(tau)
    of data on [0, 1] (a _unit_twin), g0 and h0 continued past the horizon
    by _continued; None when all four are zero.

    Subtracting w from the problem (by linearity, with the compensating
    forcing) removes the 1/k corner terms of the data transforms, which are
    what make the truncated representation converge slowly near the corners
    of the space-time rectangle [0, 1] x [0, tau].
    """
    c00, c10 = np.asarray(data.u0(np.array([0.0, 1.0])), dtype=np.complex128)
    c01, c11 = (complex(_continued(s, data.horizon, [tau])[0]) for s in (data.g0, data.h0))
    if c00 == c10 == c01 == c11 == 0:
        return None
    return np.array([[c00, c01 - c00], [c10 - c00, c11 - c01 - c10 + c00]])


def _unit_twin(data: ProblemData) -> ProblemData:
    """data's problem restated on [0, 1] by x = ell xi, t = ell^3 s, solved by
    u(ell xi, ell^3 s): the parameters (beta, alpha ell, delta ell^2), the
    horizon T / ell^3, the same u0, g0 and h0, the Neumann datum ell h1 and
    the forcing ell^3 f on the grids (x / ell, t / ell^3)."""
    ell, p, f = data.ell, data.params, data.forcing
    cube = ell ** 3

    def series(ts, scale=1.0):
        return TimeSeries(data.horizon / cube, scale * ts.samples,
                          lambda s: scale * ts(cube * s))

    return ProblemData(
        DispersionParams(p.beta, p.alpha * ell, p.delta * ell * ell), 1.0,
        data.horizon / cube,
        SpatialProfile(1.0, data.u0.samples, lambda xi: data.u0(ell * xi)),
        series(data.g0), series(data.h0), series(data.h1, ell),
        None if f is None else Field(f.x_grid / ell, f.t_grid / cube,
                                     cube * f.values),
        cube * data.kappa, data.lam)


class Contour(NamedTuple):
    """One contour's nodes k, weights w and tables: om = omega(k), real on
    the real window (region None), whose B transform runs at the assembly
    times, and on a region boundary its roots (k, nu+, nu-), Delta_s, omega'."""

    k: np.ndarray
    w: np.ndarray
    om: np.ndarray
    region: Optional[RegionLabel] = None
    roots: Optional[tuple] = None
    delta: Optional[np.ndarray] = None
    omp: Optional[np.ndarray] = None


def _weights(c: Contour):
    """The kernels (root, shift, multiplier), (nk, 3) g0/h0/h1 weights and
    assembly shift of c's term: on the real window one kernel, at k, alone.
    A region fixes its dominant root sigma = roots[dom] of roots =
    (k, nu+, nu-), the data-scaling root s (0 on D0, sigma on D+/-) and the
    assembly shift (none on D0, -i k on D+/- for e^{-ik(1 - x)}).  With
    z = e^{i s}, f+/- = e^{i (s - nu+/-)} and mu = mu_factors(roots),
        payload = -omega'(k) [mu_0 z g0~ + (nu- f+ - nu+ f-) h0~
                              + i (f+ - f-) h1~] + sum_j c_j T_j,
    T_j = u0hat - i sum_r Ahat_r Btilde_r at roots_j, shifted by e^{i sigma}
    at sigma, c_j = mu_j z at the other two roots and c_sigma = mu_sigma on
    D+/-, -(mu+ f+ + mu- f-) on D0; grouped so, every exponent has
    nonpositive real part."""
    if c.region is None:
        return ((c.k, None, None),), None, None
    roots, dom = c.roots, DOMINANT_ROOT[c.region]
    mu = mu_factors(roots)
    in_d0 = c.region is RegionLabel.D0
    s = 0.0 if in_d0 else roots[dom]
    z, fp, fm = (np.exp(1j * (s - r)) for r in (0.0, roots[1], roots[2]))
    boundary = -c.omp[:, None] * np.stack(
        [mu[0] * z, roots[2] * fp - roots[1] * fm, 1j * (fp - fm)], axis=1)
    m = [mj * z for mj in mu]
    m[dom] = -(mu[1] * fp + mu[2] * fm) if in_d0 else mu[dom]
    kernels = tuple((root, 1j * root if j == dom else None, m[j])
                    for j, root in enumerate(roots))
    return kernels, boundary, None if in_d0 else -1j * c.k


@dataclass(frozen=True, eq=False)
class SolvePlan:
    """Everything a solve needs that its data does not change, for one
    (params, ell, horizon), output grid and budget, and no data: the
    _unit_twin's transform horizon tau, one output step past its horizon,
    its grids unit_grids (nx points of [0, 1] and the nt + 1 assembly times
    of [0, tau]), its four Contours (real window, D0, D+, D-), the nine
    region segments' node_counts, the arc radius rho, phase_per_panel, the
    largest over the graded segments and the window of the mean unweighted
    phase per 8-point panel, and rank_cut, RANK_CUT times the budget's
    tolerance: the forcing's B keeps the singular values above rank_cut of
    the largest.  Build one with make_plan; apply(data) solves for any data
    on the same (params, ell, horizon) and nodes, so it is linear."""

    params: DispersionParams
    ell: float
    horizon: float
    tau: float
    unit_grids: Tuple[np.ndarray, np.ndarray]
    contours: Tuple[Contour, ...]
    node_counts: Tuple[int, ...]
    rho: float
    phase_per_panel: float
    rank_cut: float

    def apply(self, data: ProblemData) -> Field:
        """Evaluate the solution representation of the forced linear problem
        for data on the plan's nodes and output grid.  Transforms of
        identically zero parts of the data are skipped; ExponentialOverflow
        when the assembled values are not finite, and QuadratureDiverged
        when the field misses its Dirichlet data by more than
        MAX_DIRICHLET_GAP (_dirichlet_gap)."""
        if (data.params, data.ell, data.horizon) != (self.params, self.ell,
                                                     self.horizon):
            raise ValueError("data params, ell or horizon differ from the plan's")
        xi, s = self.unit_grids
        samples = _sample(_unit_twin(data), s, self.rank_cut)
        vals = np.zeros((len(xi), len(s)), dtype=np.complex128)
        for contour in self.contours:
            self._term(vals, samples, contour)
        if samples.blend is not None:
            vals += (np.stack([np.ones(len(xi)), xi], axis=1) @ samples.blend
                     @ np.stack([np.ones(len(s)), s / self.tau]))
        # the column at tau is dropped, and the one at t = 0 is u0 itself
        x, vals = np.linspace(0.0, self.ell, len(xi)), vals[:, :-1]
        vals[:, 0] = data.u0(x)
        if not np.all(np.isfinite(vals)):
            raise ExponentialOverflow("the assembled field is not finite")
        t = np.linspace(0.0, self.horizon, len(s) - 1)
        gap, side = _dirichlet_gap(vals, data, t)
        if gap > MAX_DIRICHLET_GAP:
            raise QuadratureDiverged(
                "the field misses its Dirichlet datum at x = %s by %.3g of its "
                "largest value, past the bound %g: the window truncates the "
                "data's transforms, or the nodes are too few" % (
                    side, gap, MAX_DIRICHLET_GAP))
        return Field(x, t, vals)

    def _term(self, vals, samples, c: Contour):
        """One contour's term, payload / Delta_s assembled with the shift of
        _weights(c): the stack transform, plus the u0 column of the kernels'
        sum hat on [u0 | A], plus B's transform weighted by -i times the
        rest of hat.  On the real window with a forcing, the payload is
        _history's, formed per block of the assembly."""
        if samples.b is not None and c.region is None:
            stride = (samples.b.shape[1] - 1) // (vals.shape[1] - 1)
            _assemble(vals, self.tau, c.k, c.w, c.om,
                      self._history(samples, c, stride))
            return
        kernels, boundary, shift = _weights(c)
        payload = None
        if samples.stack is not None and boundary is not None:
            payload = _time_transform(samples.stack, self.tau, c.om, boundary)
        if samples.xcols is not None:
            hat = np.zeros((len(c.k), samples.xcols.shape[1]), dtype=np.complex128)
            for root, sh, m in kernels:
                _apply_kernel(root, sh, samples.xcols, m, out=hat)
            payload = hat[:, 0] if payload is None else payload + hat[:, 0]
            if samples.b is not None:
                payload = -1j * _time_transform(samples.b, self.tau, c.om,
                                                hat[:, 1:]) + payload
        if payload is not None:
            _assemble(vals, self.tau, c.k, c.w, c.om,
                      payload if c.delta is None else payload / c.delta, shift)

    def _history(self, samples, c: Contour, stride):
        """The real window's coefficient as _assemble takes it per block of
        its nodes idx: the kernel's [u0hat | Ahat] on the block, and u0hat
        plus B's running transform at the assembly times, every stride-th
        of its grid, weighted by -i Ahat.  B's spline is set up once; neither
        the kernel's columns nor the history is held for the whole window."""
        cells = _spline_cells(samples.b, self.tau)

        def rows(idx):
            hat = _apply_kernel(c.k[idx], None, samples.xcols)
            out = _time_transform(cells, self.tau, c.om[idx], -1j * hat[:, 1:],
                                  stride)
            out += hat[:, :1]
            return out
        return rows


def _dirichlet_gap(vals, data: ProblemData, t):
    """The largest gap, over the times t past 0, between the field's values
    at x = 0 and x = ell and the Dirichlet data g0 and h0 there, over the
    field's largest value; and the side, "0" or "ell", where it is largest.
    The formula meets its Dirichlet data only as well as the quadrature
    resolves it, so the gap is an a posteriori residual of the solve.  The
    t = 0 column is u0 itself and is left out: data that are not compatible
    at the corners miss there by u0(0) - g0(0)."""
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0.0, "0"
    left, right = (float(np.max(np.abs(vals[row, 1:] - series(t[1:]))))
                   for row, series in ((0, data.g0), (-1, data.h0)))
    return max(left, right) / scale, "0" if left >= right else "ell"


def make_plan(data: ProblemData, grid, budget: QuadratureBudget) -> SolvePlan:
    """Choose the output grids and the four Contours once for data's
    (params, ell, horizon); grid = (nx, nt) counts the uniform output points
    of [0, ell] x [0, horizon].  The nodes are placed for the problem's
    _unit_twin at the window R ell with a fixed weight (_phase_measure):
    only data's (params, ell, horizon) are read, the plan serves any data on
    them, and the twin planned at the window R ell gets the same plan.
    QuadratureDiverged when the nodes pass within the Delta margin of a
    zero, or when a segment's panels span more than MAX_PANEL_PHASE on
    average; the message names the phase, the bound and the segment."""
    message = "grid must be two integer point counts (nx, nt)"
    try:
        nx, nt = (integer(n, message) for n in grid)
    except (TypeError, ValueError):
        raise ValueError(message)
    if nx < 4 or nt < 4:
        raise GridTooCoarse("output grids need at least 4 points each")
    ell = data.ell
    twin = _unit_twin(data)
    # the transform horizon tau, one output step past the twin's horizon:
    # at t = tau the transforms' tails in k do not oscillate, so that column
    # carries the window's truncation error and is dropped (ROADMAP item 24)
    params, tau = twin.params, twin.horizon * nt / (nt - 1)
    unit_grids = np.linspace(0.0, 1.0, nx), np.linspace(0.0, tau, nt + 1)
    # the window in the caller's units, R ell in the twin's k
    unit_budget = replace(budget, real_axis_window=budget.real_axis_window * ell)
    (k_r, w_r), groups, counts, rho, phases = _solver_segments(params, tau, unit_budget)
    contours = (Contour(k_r, w_r, omega(params, k_r + 0j).real),
                *(Contour(k, w, omega(params, k), region,
                          *_roots_and_delta(params, k, region),
                          omega_prime(params, k)) for region, k, w in groups))
    margin = min(_delta_margin(params, c.k, c.delta) for c in contours[1:])
    if margin < MIN_DELTA_MARGIN:
        raise QuadratureDiverged(
            "denominator margin %.3g on the contour nodes; the deformed "
            "contour passes too close to a zero" % margin)
    worst = int(np.argmax(phases))
    if phases[worst] > MAX_PANEL_PHASE:
        where = ("the real window" if worst == 9 else "segment %d of the %s "
                 "boundary" % (worst % 3 + 1, groups[worst // 3][0].value))
        raise QuadratureDiverged(
            "%.3g rad of phase per 8-point panel on %s, past the bound %g: "
            "the budget has too few nodes for its window and the horizon"
            % (phases[worst], where, MAX_PANEL_PHASE))
    return SolvePlan(data.params, ell, data.horizon, tau, unit_grids,
                     contours, counts, rho, phases[worst],
                     RANK_CUT * budget.tolerance)


def solve_full(data: ProblemData, grid, budget: QuadratureBudget) -> Field:
    """Evaluate the solution representation of the forced linear problem on
    grid = (nx, nt) uniform points of [0, ell] x [0, horizon]."""
    return make_plan(data, grid, budget).apply(data)


def _scaled(budget: QuadratureBudget, factor) -> QuadratureBudget:
    """budget with both node counts scaled by factor, rounded down."""
    return replace(budget, contour_nodes=int(budget.contour_nodes * factor),
                   real_axis_nodes=int(budget.real_axis_nodes * factor))


def solve_reduced(params: DispersionParams, ell: float, psi0: TimeSeries,
                  psi1: TimeSeries, grid, budget: QuadratureBudget) -> Field:
    """Solve the companion problem with zero initial datum, zero left
    Dirichlet datum, and right data (psi0, psi1) on grid = (nx, nt) as in
    solve_full, verifying convergence under node refinement."""
    data = replace(zero_data(params, ell, psi0.horizon), h0=psi0, h1=psi1)
    prev = solve_full(data, grid, budget)
    for factor in (1.6, 2.56):
        cur = solve_full(data, grid, _scaled(budget, factor))
        scale = max(cur.l2_norm_xt(), 1e-300)
        gap = (cur - prev).l2_norm_xt()
        if gap <= budget.tolerance * max(1.0, scale):
            return cur
        prev = cur
    raise QuadratureDiverged(
        "node refinement did not converge below tolerance %.3g" % budget.tolerance)


# --------------------------------------------------------------------------
# diagnostics
# --------------------------------------------------------------------------

def _check_uniform_from_zero(t):
    """Raise ValueError unless the time grid t is uniform and starts at 0,
    as the TimeSeries and the running transforms built on it assume."""
    if t[0] != 0.0 or not is_uniform(t):
        raise ValueError("the field's time grid must be uniform from t = 0")


def evaluate_traces(field: Field) -> dict:
    """Boundary traces read off the field: u(0,.), u(ell,.), and u_x(ell,.)
    by a one-sided 4th-order difference.  The field's time grid must be
    uniform and start at t = 0."""
    if len(field.x_grid) < 5:
        raise GridTooCoarse("need at least 5 spatial points for the traces")
    _check_uniform_from_zero(field.t_grid)
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
    npts = min(len(field.x_grid), order + 5)
    rows = slice(None, npts) if side == "left" else slice(-npts, None)
    x = field.x_grid[rows]
    w = fd_weights(x, x[0 if side == "left" else -1], order)
    return w @ field.values[rows, :]


def global_relation_residual(field: Field, data: ProblemData, k_samples) -> float:
    """Max over sampled (k, t) of the defect in the transform-side identity
    linking the evolving spatial transform of the field to the transformed
    data, normalized by the magnitude of the identity's terms, at one or more
    finite k_samples.  The field must span the data's [0, ell] x [0, horizon],
    and the boundary series are integrated on its time grid, which must be
    uniform.  The identity is checked on the _unit_twin at k ell, with the
    field on (x / ell, t / ell^3): there each of its terms is 1 / ell times
    the caller's, so the normalized defect is the same."""
    _check_uniform_from_zero(field.t_grid)
    if not _spans(field, data.ell, data.horizon):
        raise ValueError("the field does not span the data's [0, ell] x [0, horizon]")
    karr = np.asarray(list(k_samples), dtype=np.complex128)
    if not (len(karr) and np.all(np.isfinite(karr))):
        raise ValueError("k_samples must hold at least one sample, all finite")
    ell, karr = data.ell, data.ell * karr
    field = Field(field.x_grid / ell, field.t_grid / ell ** 3, field.values)
    data = _unit_twin(data)
    params, horizon, t = data.params, data.horizon, field.t_grid
    om = omega(params, karr)

    xq, nt = XQ_NODES, len(t)
    forcing = _factor_forcing(None if data.forcing is None
                              else resample(data.forcing, xq))
    a = np.zeros((len(xq), 0)) if forcing is None else forcing[0]
    hat = _apply_kernel(karr, None, np.column_stack([resample(field, xq), data.u0(xq), a]))
    lhs = _phase_table(om, t[1], nt) * hat[:, :nt]

    th = float(t[-1])
    g0, h0, h1 = (np.asarray(s(t), dtype=np.complex128)
                  for s in (data.g0, data.h0, data.h1))
    g1 = _trace_derivative(field, "left", 1)
    g2 = _trace_derivative(field, "left", 2)
    h2 = _trace_derivative(field, "right", 2)

    # the left traces enter as beta g2 + i p1 g1 - p0 g0 and the right ones as
    # -e^{-ik} times the same combination: one weighted running transform
    beta, alpha, delta = params.beta, params.alpha, params.delta
    poly1 = beta * karr - alpha
    poly0 = beta * karr ** 2 - alpha * karr - delta
    left = np.stack([-poly0, 1j * poly1, np.full_like(karr, beta)], axis=1)
    weights = np.concatenate([left, -np.exp(-1j * karr)[:, None] * left], axis=1)
    rhs = hat[:, nt:nt + 1] + _time_transform(
        np.stack([g0, g1, g2, h0, h1, h2]), th, om, weights, 1)
    if forcing is not None:
        b, stride = _continued_onto(data.forcing.t_grid, forcing[1], horizon, t)
        rhs = rhs + _time_transform(b, th, om, -1j * hat[:, nt + 1:], stride)

    scale = max(float(np.max(np.abs(rhs))), float(np.max(np.abs(lhs))))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(lhs - rhs)) / scale)
