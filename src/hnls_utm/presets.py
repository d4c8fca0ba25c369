"""Named analytic data presets for reproducible scenarios.

Three families cover the benchmark needs:

* ``plane_wave(a)``: the manufactured solution e^{i(ax + omega(a) t)} of the
  homogeneous linear equation, with all data read off the exact solution.
* ``gaussian(center, width)``: a smooth profile exp(-((x-center)/width)^2).
* ``bump(lo, hi)``: a C-infinity profile compactly supported in (lo, hi) with
  all endpoint derivatives vanishing, so boundary series built from it satisfy
  the support condition supp in (0, T) and data corners are exactly
  compatible.

Profile/series specs used by the configuration layer are dictionaries
``{"preset": name, **parameters}`` or ``{"path": csv_file}`` for sampled data.
"""

from __future__ import annotations

import numpy as np

from .dispersion import DispersionParams, omega
from .errors import ConfigInvalid
from .fields import Field
from .linear import ProblemData
from .transforms import SpatialProfile, TimeSeries


# default bump support, as fractions of the interval or horizon
_BUMP_LO, _BUMP_HI = 0.15, 0.85


def bump_callable(lo: float, hi: float, amplitude: float = 1.0):
    """C-infinity bump supported on (lo, hi), normalized to peak amplitude.

    Uses exp(4 - 1/s - 1/(1-s)) with s the affine coordinate on [lo, hi];
    the factor e^4 makes the midpoint value exactly ``amplitude``.
    """
    if not hi > lo:
        raise ValueError("bump support needs hi > lo")
    span = hi - lo

    def func(x):
        s = (np.asarray(x, dtype=np.float64) - lo) / span
        out = np.zeros(s.shape, dtype=np.complex128)
        inside = (s > 0.0) & (s < 1.0)
        si = s[inside]
        out[inside] = amplitude * np.exp(4.0 - 1.0 / si - 1.0 / (1.0 - si))
        return out

    return func


def gaussian_profile(ell: float, center: float, width: float,
                     amplitude: float = 1.0) -> SpatialProfile:
    if not 0 < width < np.inf:
        raise ValueError("gaussian width must be finite and positive")

    def func(x):
        x = np.asarray(x, dtype=np.float64)
        return amplitude * np.exp(-((x - center) / width) ** 2) + 0.0j

    return SpatialProfile.from_callable(func, ell)


def bump_profile(ell: float, lo: float = None, hi: float = None,
                 amplitude: float = 1.0) -> SpatialProfile:
    lo = _BUMP_LO * ell if lo is None else lo
    hi = _BUMP_HI * ell if hi is None else hi
    return SpatialProfile.from_callable(
        bump_callable(lo, hi, amplitude), ell)


def bump_series(horizon: float, lo: float = None, hi: float = None,
                amplitude: float = 1.0) -> TimeSeries:
    """Time bump supported strictly inside (0, horizon); satisfies the
    boundary-data support condition and vanishes with all derivatives at
    t = 0, so the data corners are compatible with any u0 vanishing there."""
    lo = _BUMP_LO * horizon if lo is None else lo
    hi = _BUMP_HI * horizon if hi is None else hi
    return TimeSeries.from_callable(bump_callable(lo, hi, amplitude), horizon)


def zero_profile(ell: float) -> SpatialProfile:
    return SpatialProfile(ell, np.zeros(8))


def zero_series(horizon: float) -> TimeSeries:
    return TimeSeries(horizon, np.zeros(8))


def plane_wave_exact(params: DispersionParams, a: float):
    """(x, t) -> e^{i(ax + omega(a) t)}, an exact homogeneous solution."""
    wa = omega(params, complex(a))

    def func(x, t):
        return np.exp(1j * (a * np.asarray(x) + wa * np.asarray(t)))

    return func


def plane_wave_data(params: DispersionParams, ell: float, horizon: float,
                    a: float) -> ProblemData:
    """ProblemData whose initial/boundary data are read off the plane wave."""
    u = plane_wave_exact(params, a)
    return ProblemData(
        params, ell, horizon,
        SpatialProfile.from_callable(lambda x: u(x, 0.0), ell),
        TimeSeries.from_callable(lambda t: u(0.0, t), horizon),
        TimeSeries.from_callable(lambda t: u(ell, t), horizon),
        TimeSeries.from_callable(lambda t: 1j * a * u(ell, t), horizon))


def plane_wave_field(params: DispersionParams, a: float,
                     x_grid, t_grid) -> Field:
    return Field.from_callable(plane_wave_exact(params, a), x_grid, t_grid)


# --------------------------------------------------------------------------
# spec-dictionary builders used by the configuration layer
# --------------------------------------------------------------------------

def _load_samples(path, extent, name):
    """The complex values of a coord,re,im data file; ConfigInvalid naming
    the field unless it has at least 4 rows, every entry is finite and the
    coordinates are uniform over [0, extent], each within 1e-9 extent of
    its grid point."""
    try:
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigInvalid("cannot read data file %r: %s" % (path, exc))
    if raw.shape[1] < 3 or len(raw) < 4:
        raise ConfigInvalid("field %r: data file %r needs at least 4 rows of "
                            "columns coord,re,im" % (name, path))
    if not np.all(np.isfinite(raw[:, :3])):
        raise ConfigInvalid("field %r: data file %r holds a value that is not "
                            "finite" % (name, path))
    grid = np.linspace(0.0, extent, len(raw))
    if np.max(np.abs(raw[:, 0] - grid)) > 1e-9 * extent:
        raise ConfigInvalid("field %r: the coordinates of data file %r must be "
                            "uniform over [0, %r]" % (name, path, extent))
    return raw[:, 1] + 1j * raw[:, 2]


def mapping(value, name):
    """value itself if it is a mapping or None; ConfigInvalid otherwise."""
    if value is not None and not isinstance(value, dict):
        raise ConfigInvalid("field %r must be a mapping, got %r" % (name, value))
    return value


def named_number(value, name):
    """float(value) if finite, or ConfigInvalid naming the configuration field;
    a bool is no number, though float reads True as 1.0."""
    try:
        number = np.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = np.nan
    if not np.isfinite(number):
        raise ConfigInvalid("field %r must be a finite number, got %r" % (name, value))
    return number


def _param(spec, key, default, name):
    """spec[key] (or default) as a named number."""
    return named_number(spec.get(key, default), "%s.%s" % (name, key))


def _bump_params(spec, extent, name):
    """The bump preset's (lo, hi, amplitude) over [0, extent]; ConfigInvalid
    naming name.hi unless hi > lo."""
    lo = _param(spec, "lo", _BUMP_LO * extent, name)
    hi = _param(spec, "hi", _BUMP_HI * extent, name)
    if not hi > lo:
        raise ConfigInvalid("field %r must exceed %s.lo = %r, got %r"
                            % (name + ".hi", name, lo, hi))
    return lo, hi, _param(spec, "amplitude", 1.0, name)


def profile_from_spec(spec, ell: float, name: str = "spec") -> SpatialProfile:
    """Build a SpatialProfile from a preset/path dictionary (None -> zero);
    name is the spec's field name in error messages."""
    return _from_spec(spec, ell, name, SpatialProfile)


def series_from_spec(spec, horizon: float, name: str = "spec") -> TimeSeries:
    """profile_from_spec for a TimeSeries, which has no gaussian or
    plane_wave preset."""
    return _from_spec(spec, horizon, name, TimeSeries)


def _from_spec(spec, extent, name, kind):
    """The kind (SpatialProfile or TimeSeries) over [0, extent] that spec
    gives; ConfigInvalid naming name for a bad spec."""
    spatial = kind is SpatialProfile
    if mapping(spec, name) is not None and "path" in spec:
        return kind(extent, _load_samples(spec["path"], extent, name))
    preset = "zero" if spec is None else spec.get("preset")
    if preset == "zero":
        return (zero_profile if spatial else zero_series)(extent)
    if preset == "bump":
        return (bump_profile if spatial else bump_series)(
            extent, *_bump_params(spec, extent, name))
    if spatial and preset == "gaussian":
        width = _param(spec, "width", 0.1 * extent, name)
        if not width > 0:
            raise ConfigInvalid("field %r must be positive, got %r"
                                % (name + ".width", width))
        return gaussian_profile(extent,
                                _param(spec, "center", 0.5 * extent, name),
                                width, _param(spec, "amplitude", 1.0, name))
    if spatial and preset == "plane_wave":
        a = _param(spec, "a", 2.0, name)
        return SpatialProfile.from_callable(
            lambda x: np.exp(1j * a * np.asarray(x)), extent)
    raise ConfigInvalid("unknown %s preset %r in %r" % (
        "spatial" if spatial else "time-series", preset, name))
