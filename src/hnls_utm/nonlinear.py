"""Contraction-mapping solver and diagnostics for the nonlinear problem.

picard_solve iterates u^{n+1} = S[u0, g0, h0, h1; f + kappa |u^n|^{lambda-1} u^n]
(the forced linear solve) to a fixed point, reporting successive C_t L2_x
distances and contraction ratios.  S is linear, so the iteration is
u^{n+1} = base + S[0; kappa |u^n|^{lambda-1} u^n] with base = S[u0, g0, h0,
h1; f] solved once, and every solve runs on one SolvePlan: the discrete
Picard map is one fixed map.  The module also provides the pointwise
nonlinearity, the mean-value identity for its differences, corner
compatibility checks, the lifespan indicator evaluated with user-supplied
constant proxies, and the energy-dissipation audit used by the uniqueness
argument.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field as dc_field, replace
from typing import Dict, List, Optional

import numpy as np

from .errors import (ExponentialOverflow, InhomogeneousBoundary, MissingProxy,
                     NoConvergence)
from .fields import Field, integer
# solve_full is uncalled here but bound for perfbench's tracer (ROADMAP item 4)
from .linear import (ProblemData, QuadratureBudget, SolvePlan, fd_weights,
                     make_plan, resample, solve_full, zero_data)
from .norms import ct_l2_distance, sobolev_norm
from .transforms import SpatialProfile, gauss_panels

HIGH_PROXIES = ("c_s", "c_s_lambda", "c1_sT", "c2_sT")
LOW_PROXIES = ("c_s_lambda", "c2_sT", "c3_s2T", "c3_spT")
# dissipation audit: largest boundary trace, relative to the field scale, of
# a homogeneous-BC field, and the mass growth per step, relative to the
# initial mass, that still counts as monotone
TRACE_TOL = 1e-3
MASS_SLACK = 1e-3
# the message of a diverging Picard iteration's NoConvergence
DIVERGED = "Picard iteration diverged: %s overflows at iteration %d"


class Regime(enum.Enum):
    HIGH = "High"
    LOW = "Low"


@dataclass(frozen=True)
class LifespanIndicator:
    regime: Regime
    lhs_value: float
    satisfied: bool


@dataclass
class PicardReport:
    """Successive C_t L2_x distances and whether they converged; the
    contraction ratios and the final residual are read off them.  plan is
    the SolvePlan every solve of the run applied."""

    distances: List[float] = dc_field(default_factory=list)
    converged: bool = False
    plan: Optional[SolvePlan] = None

    @property
    def contraction_ratios(self) -> List[float]:
        """Each distance over the one before it, where that one is > 0."""
        d = self.distances
        return [b / a for a, b in zip(d, d[1:]) if a > 0]

    @property
    def final_residual(self) -> float:
        """The last distance; with none, 0.0 (kappa = 0) or NaN (diverged)."""
        return (self.distances[-1] if self.distances
                else 0.0 if self.converged else float("nan"))

    def to_dict(self) -> dict:
        return {
            "iterations": len(self.distances),
            "distances": list(self.distances),
            "contraction_ratios": list(self.contraction_ratios),
            "converged": self.converged,
            "final_residual": self.final_residual,
        }


def _power_law(values: np.ndarray, lam: float) -> np.ndarray:
    """|u|^{lam-1} u; 0.0 ** (lam - 1) = 0 for lam > 1, so u = 0 maps to 0."""
    return np.abs(values) ** (lam - 1.0) * values


def apply_nonlinearity(field: Field, kappa: complex, lam: float) -> Field:
    """Pointwise kappa |u|^{lambda-1} u on the field's grid."""
    if not lam > 1:
        raise ValueError("lambda must exceed 1")
    return Field(field.x_grid, field.t_grid, kappa * _power_law(field.values, lam))


def mvt_gap(u1: complex, u2: complex, lam: float) -> complex:
    """Right side of the mean-value identity

        |u1|^{l-1} u1 - |u2|^{l-1} u2
            = ((l+1)/2) (int_0^1 |Z|^{l-1} dtau) (u1 - u2)
            + ((l-1)/2) (int_0^1 |Z|^{l-3} Z^2 dtau) conj(u1 - u2),

    Z = tau u1 + (1-tau) u2, by tau-quadrature.  Panels are graded toward
    the point where |Z| is smallest (the integrand's only low-regularity
    point, relevant for small lam)."""
    if lam < 2:
        raise ValueError("the identity is used with lambda >= 2")
    u1, u2 = complex(u1), complex(u2)
    d = u1 - u2
    if d == 0:
        return 0.0 + 0.0j
    # |Z|^2 is a real quadratic in tau; its minimizer locates the kink
    tau_star = -((u2.real * d.real + u2.imag * d.imag) / abs(d) ** 2)
    breaks = [0.0, tau_star, 1.0] if 0.0 < tau_star < 1.0 else [0.0, 1.0]
    # geometric grading (16 levels of ratio 0.3) toward both ends of each
    # subinterval, deep enough that the panel containing the |Z| minimum is
    # negligibly small; the subintervals share their break, which unique
    # keeps once
    rel = 0.5 * 0.3 ** np.arange(16)
    unit = np.unique(np.concatenate([rel, 1.0 - rel, [0.0, 0.5, 1.0]]))
    tau, wt = gauss_panels(np.unique(np.concatenate(
        [a + (b - a) * unit for a, b in zip(breaks[:-1], breaks[1:])])))
    z = tau * u1 + (1.0 - tau) * u2
    mag = np.abs(z)
    i1 = np.sum(wt * mag ** (lam - 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio2 = np.where(mag > 0, (z / np.where(mag > 0, mag, 1.0)) ** 2, 0.0)
    i2 = np.sum(wt * mag ** (lam - 1.0) * ratio2)
    return complex(0.5 * (lam + 1.0) * i1 * d + 0.5 * (lam - 1.0) * i2 * np.conj(d))


def check_compatibility(data: ProblemData, s: float) -> List[dict]:
    """Corner-matching report: g0(0) = u0(0) and h0(0) = u0(ell) are active
    for s > 1/2, h1(0) = u0'(ell) for s > 3/2."""
    ell = data.ell
    u0_left = complex(np.asarray(data.u0(np.array([0.0])))[0])
    u0_right = complex(np.asarray(data.u0(np.array([ell])))[0])
    xs = np.linspace(max(0.0, ell - 1e-4 * ell), ell, 5)
    w = fd_weights(xs, ell, 1)
    u0p_right = complex(w @ np.asarray(data.u0(xs), dtype=np.complex128))
    g00 = complex(np.asarray(data.g0(np.array([0.0])))[0])
    h00 = complex(np.asarray(data.h0(np.array([0.0])))[0])
    h10 = complex(np.asarray(data.h1(np.array([0.0])))[0])
    scale = max(1.0, abs(u0_left), abs(u0_right), abs(u0p_right))
    tol = 1e-8 * scale
    report = []
    for name, gap, active in (
            ("left_dirichlet", abs(g00 - u0_left), s > 0.5),
            ("right_dirichlet", abs(h00 - u0_right), s > 0.5),
            ("right_neumann", abs(h10 - u0p_right), s > 1.5)):
        report.append({"condition": name, "active": bool(active),
                       "gap": float(gap),
                       "passed": bool((not active) or gap <= tol)})
    return report


def default_proxies() -> Dict[str, float]:
    """All lifespan constants set to 1.0 (their values are not available in
    closed form); emits a diagnostic so the default is never silent."""
    warnings.warn("lifespan constant proxies defaulted to 1.0; the indicator "
                  "is a structured heuristic, not a certified bound",
                  stacklevel=2)
    return {name: 1.0 for name in set(HIGH_PROXIES) | set(LOW_PROXIES)}


def _time_profile(series) -> SpatialProfile:
    """View a time series as a profile on (0, horizon) so the interval-norm
    machinery applies to boundary data."""
    t = series.grid()
    vals = np.asarray(series(t), dtype=np.complex128)
    return SpatialProfile(series.horizon, vals, func=series.func)


def _data_norm_terms(data: ProblemData, s: float):
    """The four terms of data_norm_sum as (name, order, norm) rows:
    ||u0||_{H^s}, ||g0||_{H^{(s+1)/3}}, ||h0||_{H^{(s+1)/3}} and
    ||h1||_{H^{s/3}}."""
    x = np.linspace(0.0, data.ell, 257)
    u0 = SpatialProfile(data.ell, np.asarray(data.u0(x), dtype=np.complex128),
                        func=data.u0.func)
    return [("u0_hs", s, sobolev_norm(u0, s)),
            ("g0_h(s+1)/3", (s + 1.0) / 3.0,
             sobolev_norm(_time_profile(data.g0), (s + 1.0) / 3.0)),
            ("h0_h(s+1)/3", (s + 1.0) / 3.0,
             sobolev_norm(_time_profile(data.h0), (s + 1.0) / 3.0)),
            ("h1_hs/3", s / 3.0, sobolev_norm(_time_profile(data.h1), s / 3.0))]


def data_norm_sum(data: ProblemData, s: float) -> float:
    """||u0||_{H^s} + ||g0||_{H^{(s+1)/3}} + ||h0||_{H^{(s+1)/3}}
    + ||h1||_{H^{s/3}}, the data bracket of the lifespan conditions."""
    return float(sum(norm for _name, _order, norm in _data_norm_terms(data, s)))


def lifespan_indicator(data: ProblemData, s: float,
                       constant_proxies: Dict[str, float]) -> LifespanIndicator:
    """Left side of the lifespan smallness condition with proxy constants;
    satisfied when it is below 1."""
    lam, kappa, horizon = data.lam, complex(data.kappa), data.horizon
    if 0.5 < s <= 2.0 and abs(s - 1.5) > 1e-12:
        regime = Regime.HIGH
    elif 0.0 <= s < 0.5:
        if not (2.0 <= lam <= (7.0 - 2.0 * s) / (1.0 - 2.0 * s)):
            raise ValueError("lambda outside the low-regularity admissible range")
        regime = Regime.LOW
    else:
        raise ValueError("s lies outside both lifespan regimes")
    names = HIGH_PROXIES if regime is Regime.HIGH else LOW_PROXIES
    for name in names:
        if name not in constant_proxies:
            raise MissingProxy("constant proxy '%s' is required" % name)
    dsum = data_norm_sum(data, s)
    if regime is Regime.HIGH:
        c1, c2 = constant_proxies["c1_sT"], constant_proxies["c2_sT"]
        c_st = max(c1, c2, c2 * np.sqrt(horizon))
        lhs = (abs(kappa)
               * max(constant_proxies["c_s"], constant_proxies["c_s_lambda"])
               * (2.0 * c_st) ** lam * np.sqrt(horizon) * dsum ** (lam - 1.0))
    else:
        c_slt = max(constant_proxies["c2_sT"], constant_proxies["c3_s2T"],
                    constant_proxies["c3_spT"])
        expo = (7.0 - lam + 2.0 * s * (lam - 1.0)) / 6.0
        lhs = (abs(kappa) * constant_proxies["c_s_lambda"]
               * (2.0 * c_slt) ** lam * horizon ** expo * dsum ** (lam - 1.0))
    lhs = float(lhs)
    return LifespanIndicator(regime, lhs, lhs < 1.0)


def _combined_forcing(data: ProblemData, nl: Field) -> Field:
    if data.forcing is None:
        return nl
    base = resample(data.forcing, nl.x_grid, nl.t_grid)
    return Field(nl.x_grid, nl.t_grid, nl.values + base)


def picard_solve(data: ProblemData, grid, budget: QuadratureBudget,
                 max_iter: int = 12, tol: float = 1e-6):
    """Fixed-point iteration of the forced linear solve on grid = (nx, nt)
    as in solve_full; returns the converged field and the iteration report,
    or raises NoConvergence (report attached) when max_iter is exhausted or
    the iteration diverges: N(u), its forcing solve or the distance
    overflows.

    All solves share one SolvePlan made from data, which the report keeps,
    and the solution map is linear, so the data part base = S[data] is
    solved once and each iteration solves only the forcing:
    u <- base + S[0; N(u)]."""
    max_iter = integer(max_iter, "max_iter must be an integer, got %r"
                       % (max_iter,))
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be finite and positive, got %r" % (tol,))
    plan = make_plan(data, grid, budget)
    report = PicardReport(plan=plan)
    base = plan.apply(data)
    if data.kappa == 0:
        report.converged = True
        return base, report
    forcing_only = zero_data(data.params, data.ell, data.horizon)
    current = base
    for n in range(max_iter):
        # a diverging iterate overflows N(u), its forcing solve or the
        # distance: NoConvergence, before a Field (which rejects non-finite
        # values) is built from it
        with np.errstate(over="ignore", invalid="ignore"):
            nl = data.kappa * _power_law(current.values, data.lam)
        if not np.all(np.isfinite(nl)):
            raise NoConvergence(DIVERGED % ("N(u)", n + 1), report=report)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                part = plan.apply(replace(forcing_only, forcing=Field(
                    current.x_grid, current.t_grid, nl)))
        except ExponentialOverflow:
            raise NoConvergence(DIVERGED % ("the forcing solve", n + 1), report=report)
        new = Field(base.x_grid, base.t_grid, base.values + part.values)
        with np.errstate(over="ignore"):
            dist = ct_l2_distance(new, current)
        if not np.isfinite(dist):
            raise NoConvergence(DIVERGED % ("the distance", n + 1), report=report)
        report.distances.append(dist)
        current = new
        if dist <= tol:
            report.converged = True
            return current, report
    raise NoConvergence("Picard iteration did not converge in %d iterations"
                        % max_iter, report=report)


@dataclass(frozen=True)
class DissipationAudit:
    t_grid: np.ndarray
    mass: np.ndarray           # ||u(t)||_{L2_x}^2
    boundary_flux: np.ndarray  # (beta/2) |u_x(0, t)|^2
    source: np.ndarray         # Im[kappa int conj(u) |u|^{lam-1} u dx]

    def identity_residual(self) -> float:
        """Max defect of (1/2) d(mass)/dt + flux = source, relative to the
        terms' scale, with d/dt by centered differences."""
        t = self.t_grid
        dm = np.gradient(self.mass, t)
        defect = 0.5 * dm + self.boundary_flux - self.source
        scale = max(float(np.max(np.abs(0.5 * dm))),
                    float(np.max(np.abs(self.boundary_flux))),
                    float(np.max(np.abs(self.source))), 1e-300)
        # the one-sided endpoint derivatives are first-order; score interior
        return float(np.max(np.abs(defect[1:-1])) / scale)

    def monotone(self) -> bool:
        """Mass never grows by more than MASS_SLACK of its initial value."""
        slack = MASS_SLACK * self.mass[0]
        return bool(np.all(np.diff(self.mass) <= slack))


def dissipation_audit(field: Field, params, kappa: complex,
                      lam: float = 3.0) -> DissipationAudit:
    """Per-time evaluation of the mass balance terms for a homogeneous-BC
    field; raises InhomogeneousBoundary when the traces exceed TRACE_TOL of
    the field scale."""
    x, t, u = field.x_grid, field.t_grid, field.values
    scale = max(float(np.max(np.abs(u))), 1e-300)
    wn = fd_weights(x[-5:], x[-1], 1)
    # the differenced Neumann trace amplifies grid-scale solver error, so it
    # is gated an order of magnitude looser than the Dirichlet traces
    dir_trace = max(np.max(np.abs(u[0, :])), np.max(np.abs(u[-1, :])))
    neu_trace = np.max(np.abs(wn @ u[-5:, :])) * (x[-1] - x[0])
    if dir_trace > TRACE_TOL * scale or neu_trace > 10.0 * TRACE_TOL * scale:
        raise InhomogeneousBoundary(
            "boundary traces are not homogeneous (Dirichlet %.3g, Neumann "
            "%.3g of field scale)" % (dir_trace / scale, neu_trace / scale))
    mass = np.trapezoid(np.abs(u) ** 2, x, axis=0)
    w0 = fd_weights(x[:5], x[0], 1)
    ux0 = w0 @ u[:5, :]
    flux = 0.5 * params.beta * np.abs(ux0) ** 2
    integrand = np.conj(u) * _power_law(u, lam)
    source = np.imag(kappa * np.trapezoid(integrand, x, axis=0))
    return DissipationAudit(t, mass.real, flux.real, source.real)
