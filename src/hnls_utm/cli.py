"""Configuration-driven command-line entry point.

Verbs:

* ``solve``   — run one scenario (``--mode contour|reduced|oracle|compare``)
                and write field.csv (+ JSON header), norms.csv and
                diagnostics.json into the output directory.  ``contour``
                solves the stated problem, by Picard iteration if kappa != 0;
                ``compare`` solves it on the oracle's grid, with the gap.
* ``verify``  — run a seeded property suite and write/print its JSON report.
* ``norms``   — evaluate the data-norm table for a scenario without solving.

Exit codes: 0 success, 2 configuration/validation failure, 3 solver error.

Scenario files are YAML (JSON is a subset) with sections ``dispersion``,
``geometry``, ``data``, ``nonlinearity``, ``solver`` and ``outputs``; see
configs/ for annotated examples.  Outputs are deterministic for a fixed
config and seed; the only run-dependent values (timestamp, wall times) are
confined to the field.csv.json header.
"""

from __future__ import annotations

import datetime
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import click
import numpy as np
import yaml

from .dispersion import DispersionParams
from .errors import ConfigInvalid, MissingProxy, SolverError
from .fields import Field, integer
from .linear import (MAX_DIRICHLET_GAP, MAX_PANEL_PHASE, ProblemData,
                     QuadratureBudget, _scaled, evaluate_traces,
                     global_relation_residual, solve_reduced)
from .nonlinear import (apply_nonlinearity, check_compatibility,
                        _combined_forcing, _data_norm_terms, default_proxies,
                        lifespan_indicator, picard_solve)
from .norms import NormSpec, ct_l2_norm, mixed_norm
from .oracle import OracleConfig, oracle_solve
from .presets import (mapping, named_number, plane_wave_data,
                      profile_from_spec, series_from_spec)
from .verify import SUITES, run_suite

MODES = ("contour", "reduced", "oracle", "compare")
# the largest order solver.s may give, a validation limit and not a setting:
# every data-norm row of the shipped configs is finite up to s = 47 and
# resolved up to 40 (checked in steps of 0.5), but for reduced_bump.yaml's
# bump series, rounding noise that bessel_norm refuses from s = 16 on; the
# lifespan regimes need s <= 2, and an integer order s takes s + 1
# derivatives, so a huge one would run without end
MAX_ORDER = 40.0


@dataclass
class ScenarioConfig:
    data: ProblemData
    s: float
    proxies: dict
    grid: tuple
    budget: QuadratureBudget
    oracle: OracleConfig
    max_iter: int
    tol: float
    out_dir: str


def _need(doc: dict, section: str, key: str = None):
    sec = mapping(doc.get(section), section)
    if sec is None:
        raise ConfigInvalid("missing required section %r" % section)
    if key is None:
        return sec
    if key not in sec:
        raise ConfigInvalid("missing required field %r" % (section + "." + key))
    return sec[key]


def _integer(value, name):
    return integer(value, "field %r must be an integer, got %r" % (name, value),
                   ConfigInvalid)


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ConfigInvalid."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigInvalid("cannot read config %r: %s" % (str(path), exc))
    except yaml.YAMLError as exc:
        raise ConfigInvalid("config %r is not valid YAML: %s" % (str(path), exc))
    if not isinstance(doc, dict):
        raise ConfigInvalid("config root must be a mapping of sections")

    beta = named_number(_need(doc, "dispersion", "beta"), "dispersion.beta")
    alpha = named_number(doc["dispersion"].get("alpha", 0.0), "dispersion.alpha")
    delta = named_number(doc["dispersion"].get("delta", 0.0), "dispersion.delta")
    try:
        params = DispersionParams(beta, alpha, delta)
    except ValueError as exc:
        raise ConfigInvalid("dispersion: %s" % exc)

    ell = named_number(_need(doc, "geometry", "ell"), "geometry.ell")
    horizon = named_number(_need(doc, "geometry", "horizon"), "geometry.horizon")
    for name, value in (("geometry.ell", ell), ("geometry.horizon", horizon)):
        if not value > 0:
            raise ConfigInvalid("field %r must be positive, got %r" % (name, value))

    non = mapping(doc.get("nonlinearity"), "nonlinearity") or {}
    kappa = complex(
        named_number(non.get("kappa_re", 0.0), "nonlinearity.kappa_re"),
        named_number(non.get("kappa_im", 0.0), "nonlinearity.kappa_im"))
    lam = named_number(non.get("lambda", 3.0), "nonlinearity.lambda")
    if not lam > 1:
        raise ConfigInvalid("nonlinearity.lambda must exceed 1")

    dsec = _need(doc, "data")
    preset = dsec.get("preset")
    if preset not in (None, "plane_wave"):
        raise ConfigInvalid("field 'data.preset' must be plane_wave, got %r"
                            % (preset,))
    # every data field is read: plane_wave and its wavenumber, or the specs
    read = ("preset", "a") if preset else ("u0", "g0", "h0", "h1", "forcing")
    for key in dsec:
        if key not in read:
            raise ConfigInvalid("field %r is not read %s data.preset" % (
                "data.%s" % key, "with" if preset else "without"))
    try:
        if preset:
            a = named_number(dsec.get("a", 2.0), "data.a")
            try:
                data = plane_wave_data(params, ell, horizon, a)
            except OverflowError:
                raise ConfigInvalid("field 'data.a' is too large: the plane "
                                    "wave's frequency omega(a) overflows, "
                                    "got %r" % a)
            data = replace(data, kappa=kappa, lam=lam)
        else:
            forcing = _forcing_from_spec(dsec.get("forcing"), ell, horizon)
            data = ProblemData(
                params, ell, horizon,
                profile_from_spec(dsec.get("u0"), ell, "data.u0"),
                series_from_spec(dsec.get("g0"), horizon, "data.g0"),
                series_from_spec(dsec.get("h0"), horizon, "data.h0"),
                series_from_spec(dsec.get("h1"), horizon, "data.h1"),
                forcing=forcing, kappa=kappa, lam=lam)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigInvalid("data: %s" % exc)

    sol = mapping(doc.get("solver"), "solver") or {}
    grid = sol.get("grid", (129, 65))
    if isinstance(grid, (list, tuple)):
        grid = tuple(_integer(v, "solver.grid") for v in grid)
    # the trace diagnostics difference five points in x
    if not isinstance(grid, tuple) or len(grid) != 2 or grid[0] < 5 or grid[1] < 4:
        raise ConfigInvalid("field 'solver.grid' must be [>= 5, >= 4], got %r" % (grid,))
    budget = _settings(QuadratureBudget, sol.get("budget"), "solver.budget")
    oracle = _settings(OracleConfig, sol.get("oracle"), "solver.oracle")
    s = named_number(sol.get("s", 1.0), "solver.s")
    if not 0 <= s <= MAX_ORDER:
        raise ConfigInvalid("field 'solver.s' must lie in [0, %g], got %r"
                            % (MAX_ORDER, s))
    proxies = {str(k): named_number(v, "solver.proxies.%s" % k) for k, v in
               (mapping(sol.get("proxies"), "solver.proxies") or {}).items()}
    max_iter = _integer(sol.get("max_iter", 12), "solver.max_iter")
    tol = named_number(sol.get("tol", 1e-6), "solver.tol")
    if max_iter < 1:
        raise ConfigInvalid("field 'solver.max_iter' must be >= 1, got %r"
                            % max_iter)
    if not tol > 0:
        raise ConfigInvalid("field 'solver.tol' must be positive, got %r" % tol)

    outputs = mapping(doc.get("outputs"), "outputs") or {}
    out_dir = outputs.get("directory", "out")
    return ScenarioConfig(data, s, proxies, grid, budget, oracle, max_iter,
                          tol, str(out_dir))


def _settings(cls, spec, name):
    """cls(**spec); ConfigInvalid naming name for a bad key or value.  A float
    field given as no float, as YAML's string 3.0e4, is read by named_number."""
    spec = dict(mapping(spec, name) or {})
    for f in fields(cls):
        if isinstance(f.default, float) and not isinstance(spec.get(f.name, 0.0), float):
            spec[f.name] = named_number(spec[f.name], "%s.%s" % (name, f.name))
    try:
        return cls(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid("%s: %s" % (name, exc))


def _forcing_from_spec(spec, ell, horizon):
    """Separable forcing preset {x: profile-spec, t: series-spec}."""
    if spec is None:
        return None
    if not isinstance(spec, dict) or "x" not in spec or "t" not in spec:
        raise ConfigInvalid("data.forcing must give separable 'x' and 't' specs")
    prof = profile_from_spec(spec["x"], ell, "data.forcing.x")
    ser = series_from_spec(spec["t"], horizon, "data.forcing.t")
    x = np.linspace(0.0, ell, 129)
    t = np.linspace(0.0, horizon, 129)
    return Field(x, t, np.outer(prof(x), ser(t)))


# --------------------------------------------------------------------------
# artifact writers
# --------------------------------------------------------------------------

def _data_norm_rows(data: ProblemData, s: float) -> list:
    """The data-norm rows: the four terms of nonlinear._data_norm_terms and
    their sum, data_norm_sum; ConfigInvalid naming solver.s when a row is
    not finite or is rounding noise at that order."""
    # an overflowing row is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            terms = _data_norm_terms(data, s)
        except ValueError as exc:
            raise ConfigInvalid("field 'solver.s' = %r: %s" % (s, exc))
    rows = [(name, order, 2.0, 2.0, norm) for name, order, norm in terms]
    rows.append(("data_norm_sum", s, 2.0, 2.0,
                 float(sum(norm for _name, _order, norm in terms))))
    bad = [row[0] for row in rows if not np.isfinite(row[-1])]
    if bad:
        raise ConfigInvalid("field 'solver.s' = %r gives data norms that are "
                            "not finite: %s" % (s, ", ".join(bad)))
    return rows


def _write_norms(path, cfg: ScenarioConfig, field_obj: Field, data_rows):
    """The three field rows, then the norms verb's data-norm rows."""
    s = cfg.s
    rows = [
        ("field_l2_xt", 0.0, 2.0, 2.0, field_obj.l2_norm_xt()),
        ("field_ct_l2", 0.0, 2.0, float("inf"), ct_l2_norm(field_obj)),
        ("field_ct_hs", s, 2.0, float("inf"),
         mixed_norm(field_obj, NormSpec(s, 2.0, float("inf")))),
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write(_norms_csv(rows + data_rows))


def _norms_csv(rows) -> str:
    """The quantity,s,p,q,value table of (name, s, p, q, value) rows."""
    lines = ["quantity,s,p,q,value"]
    lines += ["%s,%.17g,%.17g,%.17g,%.17g" % row for row in rows]
    return "\n".join(lines) + "\n"


def _digits(value: float) -> float:
    """value to 4 significant digits: the field's rounding moves the
    differenced diagnostics by up to about 1e-7 of themselves, so further
    digits would make two runs' files differ."""
    return float("%.4g" % value)


def _trace_gaps(field_obj: Field, data: ProblemData) -> dict:
    traces = evaluate_traces(field_obj)
    t = field_obj.t_grid
    scale = max(float(np.max(np.abs(field_obj.values))), 1e-30)
    return {name: _digits(float(np.max(np.abs(traces[name].samples - datum(t))))
                          / scale)
            for name, datum in (("left_dirichlet", data.g0),
                                ("right_dirichlet", data.h0),
                                ("right_neumann", data.h1))}


def _json_dump(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(text, out_dir, name):
    """Write text to out_dir/name when out_dir is given, then echo it."""
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / name, "w", newline="\n") as fh:
            fh.write(text)
    click.echo(text, nl=False)


def _refined(cfg: ScenarioConfig, level: int) -> ScenarioConfig:
    """cfg with node counts and the oracle's grid doubled level times."""
    f = 2 ** level
    oracle = replace(cfg.oracle, nx=cfg.oracle.nx * f, nt=cfg.oracle.nt * f)
    return replace(cfg, budget=_scaled(cfg.budget, f), oracle=oracle)


def run_scenario(config_path, mode: str, out_dir=None, refine: int = 0) -> int:
    """Execute one scenario; returns the process exit code (0/2/3)."""
    try:
        if mode not in MODES:
            raise ConfigInvalid("unknown mode %r; choose from %s"
                                % (mode, ", ".join(MODES)))
        cfg = _refined(load_scenario(config_path), refine)
        if mode == "reduced":
            _check_reduced(cfg.data)
        data_rows = _data_norm_rows(cfg.data, cfg.s)
    except ConfigInvalid as exc:
        click.echo("config error: %s" % exc, err=True)
        return 2

    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = cfg.data
    diagnostics = {"mode": mode, "refine_level": int(refine)}
    t_start = time.time()
    try:
        if mode in ("contour", "compare"):
            grid = ((cfg.oracle.nx, cfg.oracle.nt) if mode == "compare"
                    else cfg.grid)
            field_obj, report = picard_solve(data, grid, cfg.budget,
                                             max_iter=cfg.max_iter, tol=cfg.tol)
            # the horizon the transforms ran to, one output step past T
            plan = report.plan
            diagnostics.update(
                transform_horizon=plan.tau * plan.ell ** 3,
                phase_per_panel=_digits(plan.phase_per_panel),
                phase_per_panel_bound=MAX_PANEL_PHASE,
                dirichlet_gap_bound=MAX_DIRICHLET_GAP)
            # the nonlinear problem is the linear one forced by f + N(u)
            effective = data
            if data.kappa != 0:
                diagnostics["picard"] = report.to_dict()
                diagnostics["lifespan"] = _lifespan(data, cfg.s, cfg.proxies)
                effective = replace(data, forcing=_combined_forcing(
                    data, apply_nonlinearity(field_obj, data.kappa, data.lam)))
            diagnostics["global_relation_residual"] = _digits(
                global_relation_residual(field_obj, effective,
                                         _diag_k_samples(cfg)))
            diagnostics["trace_recovery_gaps"] = _trace_gaps(field_obj, data)
            diagnostics["compatibility"] = check_compatibility(data, cfg.s)
            if mode == "compare":
                diagnostics["ut_vs_oracle_relative_l2"] = \
                    field_obj.relative_l2_gap(oracle_solve(data, cfg.oracle))
        elif mode == "reduced":
            field_obj = solve_reduced(data.params, data.ell, data.h0, data.h1,
                                      cfg.grid, cfg.budget)
            diagnostics["trace_recovery_gaps"] = _trace_gaps(field_obj, data)
        else:  # oracle
            field_obj = oracle_solve(data, cfg.oracle)
    except SolverError as exc:
        click.echo("solver error (%s): %s" % (type(exc).__name__, exc),
                   err=True)
        diagnostics.update(error=type(exc).__name__, message=str(exc))
        # NoConvergence carries the Picard report it stopped with
        if getattr(exc, "report", None) is not None:
            diagnostics["picard"] = exc.report.to_dict()
        _json_dump(out / "diagnostics.json", diagnostics)
        return 3
    except ValueError as exc:
        click.echo("input error: %s" % exc, err=True)
        return 2

    header = {
        "params": asdict(data.params),
        "ell": data.ell, "horizon": data.horizon, "mode": mode,
        "grid": [len(field_obj.x_grid), len(field_obj.t_grid)],
        "budget": asdict(cfg.budget),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_seconds": time.time() - t_start,
    }
    field_obj.to_csv(out / "field.csv")
    _json_dump(out / "field.csv.json", header)
    _write_norms(out / "norms.csv", cfg, field_obj, data_rows)
    _json_dump(out / "diagnostics.json", diagnostics)
    click.echo("wrote %s" % out)
    return 0


def _check_reduced(data: ProblemData):
    """ConfigInvalid naming u0, g0, the forcing or a part of kappa if
    nonzero: the reduced problem is linear, reads only h0 and h1 and would
    drop them."""
    forcing = None if data.forcing is None else data.forcing.values
    for name, values in (("data.u0", data.u0.samples),
                         ("data.g0", data.g0.samples), ("data.forcing", forcing),
                         ("nonlinearity.kappa_re", data.kappa.real),
                         ("nonlinearity.kappa_im", data.kappa.imag)):
        if values is not None and np.any(values != 0):
            raise ConfigInvalid("field %r must be zero in reduced mode, which "
                                "solves with zero u0, g0, forcing and kappa"
                                % name)


def _lifespan(data: ProblemData, s: float, proxies: dict) -> dict:
    """The lifespan indicator's record on the config's proxies; only when
    one is missing are the defaults filled in, which warns."""
    try:
        ind = lifespan_indicator(data, s, proxies)
    except MissingProxy:
        return _lifespan(data, s, dict(default_proxies(), **proxies))
    except ValueError as exc:
        return {"error": str(exc)}
    return {"regime": ind.regime.value, "lhs_value": ind.lhs_value,
            "satisfied": ind.satisfied}


def _diag_k_samples(cfg: ScenarioConfig):
    base = max(1.0, 4.0 / cfg.data.ell)
    return [complex(v * base) for v in (-1.7, -0.9, 0.45, 1.1, 1.9)] + \
        [base * (0.6 + 0.3j), base * (-1.2 - 0.2j)]


# --------------------------------------------------------------------------
# click wiring
# --------------------------------------------------------------------------

@click.group()
def main():
    """Unified-transform interval solver and verification suites."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--mode", default="contour",
              type=click.Choice(MODES, case_sensitive=False))
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--refine", default=0, type=click.IntRange(min=0),
              help="joint refinement level (doubles budgets per level)")
def solve(config_path, mode, out_dir, refine):
    """Run one scenario and write field/norms/diagnostics artifacts."""
    sys.exit(run_scenario(config_path, mode.lower(), out_dir, refine))


@main.command()
@click.option("--suite", default="all",
              type=click.Choice(sorted(SUITES) + ["all"]))
@click.option("--seed", default=0, type=click.IntRange(min=0))
@click.option("--out", "out_dir", default=None, type=click.Path())
def verify(suite, seed, out_dir):
    """Run a seeded property suite; exit 0 iff every property passes."""
    report = run_suite(suite, seed)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", out_dir,
          "verify_%s.json" % suite)
    sys.exit(0 if report["passed"] else 1)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
def norms(config_path, out_dir):
    """Evaluate the data-norm table for a scenario without solving."""
    try:
        cfg = load_scenario(config_path)
        rows = _data_norm_rows(cfg.data, cfg.s)
    except ConfigInvalid as exc:
        click.echo("config error: %s" % exc, err=True)
        sys.exit(2)
    _emit(_norms_csv(rows), out_dir, "norms.csv")
    sys.exit(0)


if __name__ == "__main__":
    main()
