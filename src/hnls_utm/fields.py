"""Space-time field container and its serialization."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


def is_uniform(grid) -> bool:
    """Whether grid ascends with a step that is uniform to a few ulps."""
    ideal = np.linspace(grid[0], grid[-1], len(grid))
    ulps = 8 * np.finfo(np.float64).eps * max(abs(grid[0]), abs(grid[-1]))
    return bool(grid[-1] > grid[0] and np.max(np.abs(grid - ideal)) <= ulps)


def integer(value, message, error=ValueError):
    """value as an int, or error(message) unless it is an integer; a bool is
    not one, though operator.index reads True as 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(message)


@dataclass(frozen=True)
class Field:
    """Complex solution samples on a rectangular grid [0, ell] x [0, T].

    values[i, j] is the sample at (x_grid[i], t_grid[j]).
    """

    x_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=np.float64)
        t = np.asarray(self.t_grid, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.complex128)
        if len(x) < 4 or len(t) < 4:
            raise ValueError("grids need at least 4 points each")
        if not all(np.all(np.isfinite(g)) and np.all(np.diff(g) > 0) for g in (x, t)):
            raise ValueError("grids must be finite and ascend strictly")
        if v.shape != (len(x), len(t)):
            raise ValueError("values shape must be (len(x_grid), len(t_grid))")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", v)

    def l2_norm_xt(self) -> float:
        """L2(x, t) norm by trapezoid quadrature on the grid."""
        sq = np.abs(self.values) ** 2
        inner = np.trapezoid(sq, self.x_grid, axis=0)
        return float(np.sqrt(np.trapezoid(inner, self.t_grid)))

    def __sub__(self, other: "Field") -> "Field":
        """The pointwise difference; ValueError unless both grids are equal."""
        if not (np.array_equal(self.x_grid, other.x_grid)
                and np.array_equal(self.t_grid, other.t_grid)):
            raise ValueError("fields on different grids do not compare pointwise")
        return Field(self.x_grid, self.t_grid, self.values - other.values)

    def relative_l2_gap(self, other: "Field") -> float:
        diff = self - other
        ref = other.l2_norm_xt()
        return diff.l2_norm_xt() / ref if ref > 0 else diff.l2_norm_xt()

    def to_csv(self, path):
        """CSV columns x, t, re_u, im_u."""
        with open(path, "w", newline="\n") as fh:
            fh.write("x,t,re_u,im_u\n")
            for i, x in enumerate(self.x_grid):
                for j, t in enumerate(self.t_grid):
                    v = self.values[i, j]
                    fh.write("%.17g,%.17g,%.17g,%.17g\n" % (x, t, v.real, v.imag))

    @classmethod
    def from_callable(cls, func, x_grid, t_grid):
        xx, tt = np.meshgrid(np.asarray(x_grid), np.asarray(t_grid), indexing="ij")
        return cls(x_grid, t_grid, func(xx, tt))
