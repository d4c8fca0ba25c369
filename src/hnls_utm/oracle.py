"""Theta-weighted implicit finite-difference reference solver.

An independent discretization of the interval problem used to validate the
contour-integral evaluator: the equation is stepped as

    u_t = L u - i (f + kappa |u|^{lambda-1} u),
    L   = -beta d_xxx + i alpha d_xx - delta d_x,

with a theta-weighted implicit scheme.  Interior stencils are 4th order for
u_x and u_xx and centered (2nd order) for u_xxx; the row adjacent to x = 0
uses a one-sided 6-point stencil, and a single ghost point past x = ell is
closed by the 4th-order one-sided Neumann condition.  L is kept as one
gather table (_stencil), point indices and weights per interior point: the
implicit matrix, the explicit step and the coupling to the known boundary
values are all read from it.  Each step solves one banded system, whose
matrix is the same at every step, so it is factored once.  The nonlinearity
is handled by a per-step fixed-point sweep.

The step solve is numpy's.  The n = nx - 1 unknowns are cut into blocks of
m = sqrt(8 n) rows (_factor): the inverses of the diagonal blocks and a
Woodbury correction for the band entries that couple neighbouring blocks
hold n (m + 7 n / m), about 5 n^1.5, complex numbers (1.8 MB at n = 768,
where a dense inverse would hold n^2, 9.4 MB), and a pass through them
takes as many multiply-adds.  A solve is two passes, the second on the
residual against the band (one step of iterative refinement, _solve), which
brings it to the accuracy of a banded LU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import StepDiverged
from .fields import Field, integer
from .linear import ProblemData, fd_weights, resample

_KL, _KU = 3, 4  # band widths of the implicit matrix


class _StepFactor(NamedTuple):
    """The constant step's matrix A as _solve uses it: its band as a gather
    table (_apply_l), column indices and weights with weights[i, d] =
    A[i, i + d - KL] for d <= KL + KU (indices clipped to the matrix, with
    weight 0 off it); inv, (p, m, m), the inverses of A's m x m diagonal
    blocks, the last one padded with the identity; and the Woodbury
    correction q, (p m, len(cols)), on the columns cols that hold the band
    entries between blocks."""

    band: tuple
    inv: np.ndarray
    cols: np.ndarray
    q: np.ndarray


def _factor(ab) -> _StepFactor:
    """Factor the matrix of LAPACK band storage ab (_banded_matrix).

    With D the block diagonal of A and E = A - D, nonzero only in the
    columns cols next to the block edges, A^{-1} = (I - Q S^T) D^{-1} by
    Woodbury's identity, where S^T picks the entries cols and
    Q = D^{-1} E (I + S^T D^{-1} E)^{-1}.  StepDiverged when a block or the
    coupling matrix is singular."""
    n, width = ab.shape[1], _KL + _KU + 1
    i = np.arange(n)[:, None]
    j = i + np.arange(-_KL, _KU + 1)
    inside = (j >= 0) & (j < n)
    row_cols = np.clip(j, 0, n - 1)
    rows = np.where(inside, ab[_KL + _KU + i - j, row_cols], 0.0)
    m = max(width, math.isqrt(width * n))
    p = -(-n // m)
    i, j = np.broadcast_arrays(i, j)
    i, j, v = i[inside], j[inside], rows[inside]
    same = i // m == j // m
    blocks = np.tile(np.eye(m, dtype=np.complex128), (p, 1, 1))
    blocks[i[same] // m, i[same] % m, j[same] % m] = v[same]
    cols, at = np.unique(j[~same], return_inverse=True)
    coupling = np.zeros((p * m, len(cols)), dtype=np.complex128)
    coupling[i[~same], at] = v[~same]
    try:
        inv = np.linalg.inv(blocks)
        w = (inv @ coupling.reshape(p, m, -1)).reshape(p * m, -1)
        q = w @ np.linalg.inv(np.eye(len(cols)) + w[cols])
    except np.linalg.LinAlgError:
        raise StepDiverged("implicit matrix is singular")
    return _StepFactor((row_cols, rows), inv, cols, q)


def _woodbury(f: _StepFactor, b):
    """A^{-1} b by f's block inverses and Woodbury correction."""
    p, m = f.inv.shape[:2]
    g = np.zeros(p * m, dtype=np.complex128)
    g[:len(b)] = b
    g = (f.inv @ g.reshape(p, m, 1)).reshape(-1)
    g -= f.q @ g[f.cols]
    return g[:len(b)]


def _solve(f: _StepFactor, b):
    """A^{-1} b, with one step of iterative refinement on A's band."""
    x = _woodbury(f, b)
    return x + _woodbury(f, b - _apply_l(f.band, x))


# the step's factorization and solve, under the LAPACK names of the banded
# LU they replace: perfbench's tracer swaps this object to count band solves
lapack = SimpleNamespace(zgbtrf=_factor, zgbtrs=_solve)


@dataclass(frozen=True)
class OracleConfig:
    nx: int = 256
    nt: int = 256
    theta: float = 0.55

    def __post_init__(self):
        for name in ("nx", "nt"):
            integer(getattr(self, name), "%s must be an integer point count, "
                    "got %r" % (name, getattr(self, name)))
        if self.nx < 16 or self.nt < 16:
            raise ValueError("nx and nt must be at least 16")
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [1/2, 1]")


def _stencil(params, x):
    """The spatial operator L at the interior points as one gather table.

    Returns ((idx, wts), neumann): per interior point, its row's point
    indices and L weights, (nx - 2, 6), short rows padded with weight 0 at
    point 0, with index nx standing for the ghost point at ell + h; and the
    (point_indices, weights) of the 4th-order one-sided first derivative at
    x = ell that closes the ghost.
    """
    nx = len(x)
    pts = np.append(x, x[-1] + (x[1] - x[0]))
    idx = np.zeros((nx - 2, 6), dtype=np.intp)
    wts = np.zeros((nx - 2, 6), dtype=np.complex128)
    for i in range(1, nx - 1):
        ridx = np.arange(0, 6) if i == 1 else np.arange(i - 2, i + 3)
        idx[i - 1, :len(ridx)] = ridx
        wts[i - 1, :len(ridx)] = (-params.beta * fd_weights(pts[ridx], x[i], 3)
                                  + 1j * params.alpha * fd_weights(pts[ridx], x[i], 2)
                                  - params.delta * fd_weights(pts[ridx], x[i], 1))
    n_idx = np.arange(nx - 4, nx + 1)
    return (idx, wts), (n_idx, fd_weights(pts[n_idx], x[-1], 1))


def _unknown_col(nx):
    """Column of each grid point 0..nx (nx the ghost) in the unknown vector
    (u_1..u_{nx-2}, ghost), -1 for the boundary points carried on the
    right-hand side."""
    return np.r_[-1, np.arange(nx - 2), -1, nx - 2]


def _banded_matrix(stencil, neumann, dt_theta):
    """LAPACK band storage of I - dt*theta*L on the unknowns, with the
    Neumann closure as the last row."""
    (idx, wts), (n_idx, n_w) = stencil, neumann
    n_un = len(idx) + 1
    col = _unknown_col(n_un + 1)
    ab = np.zeros((2 * _KL + _KU + 1, n_un), dtype=np.complex128)
    ab[_KL + _KU, :-1] = 1.0
    # row r of the table, then the Neumann row; points off the unknowns drop
    r = np.r_[np.repeat(np.arange(n_un - 1), idx.shape[1]),
              np.full(len(n_idx), n_un - 1)]
    c = col[np.r_[idx.ravel(), n_idx]]
    v = np.r_[-dt_theta * wts.ravel(), n_w]
    keep = c >= 0
    np.add.at(ab, (_KL + _KU + r[keep] - c[keep], c[keep]), v[keep])
    return ab


def _apply_l(stencil, state):
    """The gather table stencil = (idx, wts) applied to state: row i is
    sum_j wts[i, j] state[idx[i, j]].  For _stencil's table, L applied to
    the full state (grid values then ghost) at the interior points, as an
    array of length nx - 2."""
    idx, wts = stencil
    return np.einsum("ij,ij->i", wts, state[idx])


def oracle_solve(data: ProblemData, config: OracleConfig) -> Field:
    """Step the interval problem on a uniform grid and return the field."""
    params, ell, horizon = data.params, data.ell, data.horizon
    nx, nt, theta = config.nx, config.nt, config.theta
    x = np.linspace(0.0, ell, nx)
    t = np.linspace(0.0, horizon, nt)
    dt = t[1] - t[0]
    kappa, lam = complex(data.kappa), data.lam

    stencil, neumann = _stencil(params, x)
    ab = _banded_matrix(stencil, neumann, dt * theta)
    factor = lapack.zgbtrf(ab)

    g0, h0, h1 = (np.asarray(series(t), dtype=np.complex128)
                  for series in (data.g0, data.h0, data.h1))
    ftab = None if data.forcing is None else resample(data.forcing, x, t)

    def q_term(interior, n):
        """-i (f + kappa |u|^{lam-1} u) at the interior points, time index n."""
        out = np.zeros(nx - 2, dtype=np.complex128)
        if ftab is not None:
            out += ftab[1:-1, n]
        if kappa != 0:
            out += kappa * np.abs(interior) ** (lam - 1.0) * interior
        return -1j * out

    # initial state: grid values then the ghost, closed by the Neumann row
    state = np.empty(nx + 1, dtype=np.complex128)
    state[:nx] = np.asarray(data.u0(x), dtype=np.complex128)
    state[0], state[nx - 1] = g0[0], h0[0]
    n_idx, n_w = neumann
    state[nx] = (h1[0] - n_w[:4] @ state[n_idx[:4]]) / n_w[4]

    values = np.empty((nx, nt), dtype=np.complex128)
    values[:, 0] = state[:nx]

    for n in range(1, nt):
        lu_n = _apply_l(stencil, state)
        interior_n = state[1:nx - 1]
        rhs_fixed = interior_n + dt * (1.0 - theta) * (lu_n + q_term(interior_n, n - 1))
        # known boundary values at the new level enter the implicit side:
        # the state with every unknown point and the ghost zeroed
        known = np.zeros(nx + 1, dtype=np.complex128)
        known[0], known[nx - 1] = g0[n], h0[n]
        rhs_fixed += dt * theta * _apply_l(stencil, known)
        b_neu = h1[n] - n_w[3] * h0[n]

        guess = interior_n.copy()
        scale = max(float(np.max(np.abs(guess))), 1.0)
        nonlinear = kappa != 0
        diffs = []
        for _sweep in range(5 if nonlinear else 1):
            b = np.empty(nx - 1, dtype=np.complex128)
            b[:-1] = rhs_fixed + dt * theta * q_term(guess, n)
            b[-1] = b_neu
            sol = lapack.zgbtrs(factor, b)
            new = sol[:nx - 2]
            diffs.append(float(np.max(np.abs(new - guess))))
            guess = new
            if not nonlinear or diffs[-1] <= 1e-12 * scale:
                break
        if nonlinear and diffs[-1] > 1e-9 * scale and (
                len(diffs) < 2 or diffs[-1] >= diffs[-2]):
            raise StepDiverged(
                "fixed-point sweep failed to contract at step %d "
                "(residual %.3g)" % (n, diffs[-1]))
        state[1:nx - 1] = guess
        state[0], state[nx - 1] = g0[n], h0[n]
        state[nx] = sol[nx - 2]
        if not np.all(np.isfinite(guess.view(np.float64))):
            raise StepDiverged("non-finite values at step %d" % n)
        values[:, n] = state[:nx]

    return Field(x, t, values)
