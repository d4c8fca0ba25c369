"""Command-line interface: config loading, artifacts, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from hnls_utm import cli
from hnls_utm.cli import MAX_ORDER, load_scenario, main, run_scenario
from hnls_utm.dispersion import DispersionParams
from hnls_utm.errors import ConfigInvalid
from hnls_utm.fields import Field
from hnls_utm.nonlinear import HIGH_PROXIES, LOW_PROXIES
from hnls_utm.presets import plane_wave_exact

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE = {
    "dispersion": {"beta": 1.0, "alpha": 0.0, "delta": 0.0},
    "geometry": {"ell": 1.0, "horizon": 0.1},
    "data": {
        "u0": {"preset": "zero"},
        "g0": {"preset": "zero"},
        "h0": {"preset": "bump"},
        "h1": {"preset": "zero"},
    },
    "solver": {
        "grid": [33, 17],
        "budget": {"contour_nodes": 6000, "real_axis_window": 15.0,
                   "real_axis_nodes": 3000},
    },
}


# BASE's data with u0 a Gaussian of width 0.2 and h0 zero: every data-norm
# row is resolved up to s = 40 (bessel_norm refuses rounding noise)
RESOLVED = dict(BASE["data"], u0={"preset": "gaussian", "center": 0.5,
                                  "width": 0.2}, h0={"preset": "zero"})


def gaussian_doc(**sections):
    """The shipped Gaussian on a 33 x 17 grid and budget 8000/45/4000, with
    the given sections' fields updated."""
    doc = yaml.safe_load((CONFIGS / "nonlinear_gaussian.yaml").read_text())
    doc["solver"].update(grid=[33, 17], budget={
        "contour_nodes": 8000, "real_axis_window": 45.0,
        "real_axis_nodes": 4000})
    for section, fields in sections.items():
        doc[section].update(fields)
    return doc


def write_config(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestLoadScenario:
    def test_minimal_document(self, tmp_path):
        cfg = load_scenario(write_config(tmp_path, BASE))
        assert cfg.data.params.beta == 1.0
        assert cfg.grid == (33, 17)
        assert cfg.data.horizon == 0.1

    def test_missing_field_named(self, tmp_path):
        doc = {k: v for k, v in BASE.items() if k != "dispersion"}
        doc["dispersion"] = {"alpha": 0.0, "delta": 0.0}
        with pytest.raises(ConfigInvalid, match="dispersion.beta"):
            load_scenario(write_config(tmp_path, doc))

    def test_bad_number_rejected(self, tmp_path):
        doc = dict(BASE, geometry={"ell": "wide", "horizon": 0.1})
        with pytest.raises(ConfigInvalid):
            load_scenario(write_config(tmp_path, doc))

    @pytest.mark.parametrize("section, key, value, named", [
        ("solver", None, 5, "'solver'"),
        ("solver", "grid", ["abc", 9], "'solver.grid'"),
        ("solver", "max_iter", "x", "'solver.max_iter'"),
        ("solver", "proxies", {"c_s": "big"}, "'solver.proxies.c_s'"),
        ("outputs", None, "out", "'outputs'"),
        ("data", "u0", "gaussian", "'data.u0'"),
        ("solver", "budget", {"arc_radius": 9.0}, "solver.budget"),
        ("data", None, {"preset": "planewave"}, "'data.preset'"),
        ("data", None, {"preset": "plane_wave", "u0": {"preset": "bump"}},
         "'data.u0'"),
        ("data", "u0", {"preset": "gaussian", "width": "abc"},
         "'data.u0.width'"),
        ("data", "h0", {"preset": "bump", "amplitude": "x"},
         "'data.h0.amplitude'"),
        ("data", "forcing", {"x": {"preset": "gaussian", "center": "x"},
                             "t": {"preset": "bump"}},
         "'data.forcing.x.center'"),
        ("data", "u0", {"preset": "gaussian", "width": -1}, "'data.u0.width'"),
        ("data", "h0", {"preset": "bump", "lo": 0.05, "hi": 0.01},
         "'data.h0.hi'"),
        ("data", "g0", {"preset": "bump", "hi": 0.01}, "'data.g0.hi'"),
        ("solver", "oracle", {"nx": 16.5}, "solver.oracle: nx"),
        ("solver", "grid", [17.9, 9], "'solver.grid'"),
        ("solver", "grid", ["33", 17], "'solver.grid'"),
        ("solver", "max_iter", 2.9, "'solver.max_iter'"),
        ("solver", "budget", {"real_axis_nodes": 6000.5}, "solver.budget: node"),
        ("solver", "budget", {"contour_nodes": 24000.5}, "solver.budget: node"),
        ("solver", "budget", {"real_axis_window": float("nan")},
         "'solver.budget.real_axis_window'"),
        ("solver", "budget", {"tolerance": float("inf")}, "'solver.budget.tolerance'"),
        ("geometry", "ell", float("inf"), "'geometry.ell'"),
        ("geometry", "horizon", float("nan"), "'geometry.horizon'"),
        ("geometry", "ell", -1.0, "'geometry.ell'"),
        ("solver", "tol", float("nan"), "'solver.tol'"),
        ("solver", "tol", float("inf"), "'solver.tol'"),
        ("solver", "tol", 0.0, "'solver.tol'"),
        ("solver", "grid", [4, 4], "'solver.grid'"),
        ("nonlinearity", "kappa_re", float("nan"), "'nonlinearity.kappa_re'"),
        ("nonlinearity", "kappa_re", float("inf"), "'nonlinearity.kappa_re'"),
        ("nonlinearity", "lambda", float("inf"), "'nonlinearity.lambda'"),
        ("solver", "s", float("nan"), "'solver.s'"),
        ("solver", "s", -1.0, "'solver.s'"),
        ("solver", "max_iter", True, "'solver.max_iter'"),
        ("solver", "budget", {"contour_nodes": True}, "solver.budget: node"),
        ("solver", "oracle", {"nx": True},
         "solver.oracle: nx must be an integer"),
        ("solver", "grid", [33, True], "'solver.grid' must be an integer"),
        ("geometry", "ell", True, "'geometry.ell'"),
        ("data", "h0", {"preset": "bump", "lo": None}, "'data.h0.lo'"),
        ("data", "u0", {"preset": "gaussian", "center": None},
         "'data.u0.center'"),
    ], ids=["solver", "grid", "max_iter", "proxies", "outputs", "u0",
            "budget-arc-radius", "unknown-preset", "spec-beside-plane-wave",
            "u0-width", "h0-amplitude", "forcing-x-center", "u0-width-range",
            "h0-bump-range", "g0-bump-default-lo", "oracle-nx", "grid-fraction",
            "grid-quoted", "max_iter-fraction", "budget-real-axis-fraction",
            "budget-contour-fraction", "budget-window-nan",
            "budget-tolerance-inf", "geometry-ell-inf", "geometry-horizon-nan",
            "geometry-ell-negative", "tol-nan", "tol-inf", "tol-zero",
            "grid-nx-4", "kappa_re-nan", "kappa_re-inf", "lambda-inf", "s-nan",
            "s-negative", "max_iter-bool", "budget-contour-bool",
            "oracle-nx-bool", "grid-nt-bool", "geometry-ell-bool",
            "h0-bump-null-lo", "u0-gaussian-null-center"])
    def test_malformed_field_exit_2(self, tmp_path, section, key, value,
                                    named):
        doc = {k: dict(v) for k, v in BASE.items()}
        if key is None:
            doc[section] = value
        else:
            doc.setdefault(section, {})[key] = value
        config = write_config(tmp_path, doc)
        result = CliRunner().invoke(main, ["solve", "--config", config,
                                           "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert named in result.output

    def test_yaml_string_numbers_in_budget_and_oracle(self, tmp_path):
        # YAML 1.1 reads 3.0e4 and 5e-1 as strings; every section's numbers
        # go through one reader, so these are used as numbers, not exit 2
        text = yaml.safe_dump(BASE).replace(
            "real_axis_window: 15.0", "real_axis_window: 3.0e4")
        text = text.replace("solver:\n", "solver:\n  oracle: {theta: 5e-1}\n")
        config = tmp_path / "numbers.yaml"
        config.write_text(text)
        assert yaml.safe_load(text)["solver"]["oracle"] == {"theta": "5e-1"}
        cfg = load_scenario(config)
        assert (cfg.budget.real_axis_window, cfg.oracle.theta) == (3e4, 0.5)
        result = CliRunner().invoke(main, ["norms", "--config", str(config),
                                           "--out", str(tmp_path / "n")])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("section, key", [("budget", "real_axis_window"),
                                              ("oracle", "theta")])
    def test_nan_spellings_give_one_message(self, tmp_path, section, key):
        # YAML reads .nan as a float and 'nan' as a string; both are named by
        # the field's reader, and the messages differ only in the value's repr
        messages = []
        for value in (float("nan"), "nan"):
            doc = {k: dict(v) for k, v in BASE.items()}
            doc["solver"][section] = {key: value}
            with pytest.raises(ConfigInvalid) as err:
                load_scenario(write_config(tmp_path, doc))
            messages.append(str(err.value))
        assert messages[0] == messages[1].replace("'nan'", "nan")
        assert "'solver.%s.%s'" % (section, key) in messages[0]

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")),
                             ids=lambda p: p.stem)
    def test_shipped_config_loads(self, path, tmp_path):
        # the norms verb loads the whole scenario but solves nothing
        result = CliRunner().invoke(main, ["norms", "--config", str(path),
                                           "--out", str(tmp_path / "n")])
        assert result.exit_code == 0, result.output
        assert "data_norm_sum" in result.output


class TestSolveVerb:
    def test_reduced_mode_artifacts(self, tmp_path):
        config = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["solve", "--config", config,
                                           "--mode", "reduced",
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "field.csv").exists()
        assert (out / "norms.csv").exists()
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["mode"] == "reduced"
        assert "trace_recovery_gaps" in diag

    def test_five_by_four_grid_solves(self, tmp_path):
        # five points in x are the fewest the trace diagnostics difference
        doc = dict(BASE, solver=dict(BASE["solver"], grid=[5, 4]))
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--config",
                                           write_config(tmp_path, doc),
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "field.csv").exists()

    @pytest.mark.parametrize("name, spec", [
        ("u0", {"preset": "gaussian", "center": 0.5, "width": 0.15,
                "amplitude": 5.0}),
        ("g0", {"preset": "bump"}),
        ("forcing", {"x": {"preset": "gaussian"}, "t": {"preset": "bump"}}),
    ], ids=["u0", "g0", "forcing"])
    def test_reduced_mode_rejects_data_it_would_drop(self, tmp_path, name, spec):
        # the reduced problem reads only h0 and h1: other nonzero data would
        # be solved as zero, so the run exits 2 and names the field
        doc = dict(BASE, data=dict(BASE["data"], **{name: spec}))
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--config",
                                           write_config(tmp_path, doc),
                                           "--mode", "reduced", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "'data.%s'" % name in result.output
        assert not (out / "field.csv").exists()

    @pytest.mark.parametrize("part", ["kappa_re", "kappa_im"])
    def test_reduced_mode_rejects_kappa(self, tmp_path, part):
        # the reduced problem is linear: a nonzero kappa would be dropped
        doc = dict(BASE, nonlinearity={part: 0.5})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--config",
                                           write_config(tmp_path, doc),
                                           "--mode", "reduced", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "'nonlinearity.%s'" % part in result.output
        assert not (out / "field.csv").exists()

    def test_config_error_exit_2(self, tmp_path):
        doc = {k: v for k, v in BASE.items() if k != "dispersion"}
        config = write_config(tmp_path, doc)
        result = CliRunner().invoke(main, ["solve", "--config", config,
                                           "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_unknown_mode_exit_2(self, tmp_path):
        config = write_config(tmp_path, BASE)
        result = CliRunner().invoke(main, ["solve", "--config", config,
                                           "--mode", "magic",
                                           "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("mode", ["linear", "nonlinear"])
    def test_retired_modes_exit_2(self, tmp_path, mode):
        # one contour mode solves the stated problem, linear or not
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--config",
                                           write_config(tmp_path, BASE),
                                           "--mode", mode, "--out", str(out)])
        assert result.exit_code == 2
        assert "'%s' is not one of" % mode in result.output
        assert not out.exists()

    def test_default_solve_is_the_stated_nonlinear_problem(self, tmp_path):
        # the shipped Gaussian has kappa = 0.05: the default run iterates
        out = tmp_path / "o"
        # the config sets no lifespan proxies
        with pytest.warns(UserWarning, match="defaulted"):
            result = CliRunner().invoke(main, ["solve", "--config", str(
                CONFIGS / "nonlinear_gaussian.yaml"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["mode"] == "contour"
        assert diag["picard"]["converged"] is True
        assert diag["picard"]["iterations"] >= 2
        assert set(diag["trace_recovery_gaps"]) == {
            "left_dirichlet", "right_dirichlet", "right_neumann"}

    def test_linear_run_writes_no_picard_record(self, tmp_path):
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--config",
                                           write_config(tmp_path, BASE),
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        diag = json.loads((out / "diagnostics.json").read_text())
        assert "picard" not in diag and "lifespan" not in diag
        assert "global_relation_residual" in diag
        assert "trace_recovery_gaps" in diag and "compatibility" in diag

    @pytest.mark.parametrize("proxies, warns", [
        ({name: 2.0 for name in set(HIGH_PROXIES) | set(LOW_PROXIES)}, False),
        ({"c_s": 2.0}, True)], ids=["all-set", "c_s-only"])
    def test_proxy_default_warns_only_when_one_is_missing(self, tmp_path,
                                                          proxies, warns):
        doc = gaussian_doc(solver={"proxies": proxies})
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, ["solve", "--config",
                                               write_config(tmp_path, doc),
                                               "--out", str(out)])
        assert result.exit_code == 0, result.output
        defaulted = ["proxies defaulted" in str(w.message) for w in caught]
        assert any(defaulted) is warns
        lifespan = json.loads((out / "diagnostics.json").read_text())["lifespan"]
        assert lifespan["regime"] == "High" and lifespan["lhs_value"] > 0

    def test_compare_solves_the_stated_nonlinear_problem(self, tmp_path):
        # at kappa = 5 the linear field is 2.4e-2 from the oracle's nonlinear
        # one; the Picard field of the stated problem is within 1e-2
        doc = gaussian_doc(nonlinearity={"kappa_re": 5.0},
                           solver={"oracle": {"nx": 64, "nt": 64}})
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="defaulted"):
            result = CliRunner().invoke(main, ["solve", "--mode", "compare",
                                               "--config", write_config(tmp_path, doc),
                                               "--out", str(out)])
        assert result.exit_code == 0, result.output
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["picard"]["converged"] is True
        assert diag["ut_vs_oracle_relative_l2"] <= 1e-2

    def test_diagnostics_ignore_rounding_noise(self, tmp_path, monkeypatch):
        # the residual and the trace gaps difference the field, which moves
        # them by up to 1.3e-7 of themselves under rounding noise: they are
        # written to 4 digits, so a field perturbed by 1 + 1e-16 N(0, 1)
        # writes the same file
        config = str(CONFIGS / "linear_plane_wave.yaml")
        assert run_scenario(config, "contour", str(tmp_path / "plain")) == 0
        rng = np.random.default_rng(0)
        solve = cli.picard_solve

        def perturbed(*args, **kwargs):
            field, report = solve(*args, **kwargs)
            noise = 1.0 + 1e-16 * rng.standard_normal(field.values.shape)
            return Field(field.x_grid, field.t_grid, field.values * noise), report

        monkeypatch.setattr(cli, "picard_solve", perturbed)
        assert run_scenario(config, "contour", str(tmp_path / "noisy")) == 0
        plain, noisy = ((tmp_path / d / "diagnostics.json").read_text()
                        for d in ("plain", "noisy"))
        assert plain == noisy
        diag = json.loads(plain)
        # the plan's transform horizon, T plus one of the 33 output steps,
        # and its worst phase per panel against the bound
        assert diag["transform_horizon"] == 0.5 * 33 / 32
        assert 0 < diag["phase_per_panel"] <= diag["phase_per_panel_bound"] == 40.0
        assert max(diag["trace_recovery_gaps"].values()) < 1e-3
        assert diag["dirichlet_gap_bound"] == 5e-3

    def test_compare_mode_gap(self, tmp_path):
        # the one CLI solve whose grid is the oracle's (nx, nt)
        doc = dict(BASE, solver=dict(BASE["solver"],
                                     oracle={"nx": 16, "nt": 16}))
        config = write_config(tmp_path, doc)
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--mode", "compare",
                                           "--config", config,
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        header = json.loads((out / "field.csv.json").read_text())
        assert header["grid"] == [16, 16]
        gap = json.loads((out / "diagnostics.json").read_text())[
            "ut_vs_oracle_relative_l2"]
        assert gap == pytest.approx(0.0403, abs=5e-5)

    def test_compare_is_a_mode_not_a_verb(self, tmp_path):
        result = CliRunner().invoke(main, ["compare", "--config",
                                           write_config(tmp_path, BASE)])
        assert result.exit_code == 2
        assert "No such command" in result.output

    def test_refine_doubles_budgets_and_oracle_grid(self, tmp_path):
        doc = dict(BASE, solver=dict(BASE["solver"],
                                     oracle={"nx": 16, "nt": 16}))
        config = write_config(tmp_path, doc)
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--config", config,
                                           "--mode", "oracle", "--refine", "1",
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        header = json.loads((out / "field.csv.json").read_text())
        assert header["grid"] == [32, 32]
        assert header["budget"]["contour_nodes"] == 12000
        assert header["budget"]["real_axis_nodes"] == 6000
        assert json.loads((out / "diagnostics.json").read_text())[
            "refine_level"] == 1

    @pytest.mark.parametrize("mode", [[], ["--mode", "compare"]],
                             ids=["solve", "compare"])
    def test_negative_refine_exit_2(self, tmp_path, mode):
        config = write_config(tmp_path, BASE)
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--config", config] + mode
                                    + ["--refine", "-1", "--out", str(out)])
        assert result.exit_code == 2
        assert "--refine" in result.output
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_solver_failure_exit_3(self, tmp_path):
        doc = dict(BASE)
        doc["data"] = dict(BASE["data"],
                           u0={"preset": "gaussian", "center": 0.5,
                               "width": 0.15},
                           h0={"preset": "zero"})
        doc["nonlinearity"] = {"kappa_re": 1e6, "lambda": 3.0}
        doc["solver"] = dict(BASE["solver"], oracle={"nx": 32, "nt": 16})
        config = write_config(tmp_path, doc)
        out = tmp_path / "o3"
        result = CliRunner().invoke(main, ["solve", "--config", config,
                                           "--mode", "oracle",
                                           "--out", str(out)])
        assert result.exit_code == 3
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "StepDiverged"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("section, key, value, distances, message", [
        ("nonlinearity", "kappa_re", 320.0, 6, "diverged"),
        ("solver", "max_iter", 1, 1, "did not converge in 1 iterations")],
        ids=["diverging", "max_iter-1"])
    def test_no_convergence_exit_3_with_report(self, tmp_path, section, key,
                                               value, distances, message):
        # the shipped Gaussian on a coarser grid and budget; a diverging run
        # is a solver failure, not an input error from an overflowed Field
        doc = gaussian_doc(**{section: {key: value}})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--config",
                                           write_config(tmp_path, doc),
                                           "--mode", "contour",
                                           "--out", str(out)])
        assert result.exit_code == 3, result.output
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "NoConvergence"
        assert message in diag["message"]
        assert len(diag["picard"]["distances"]) == distances
        assert diag["picard"]["converged"] is False
        assert not (out / "field.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kappa", [1e305, 1e307])
    def test_huge_kappa_exit_3(self, tmp_path, kappa):
        # the forcing solve overflows: a diverged run, not a converged linear
        # field (exit 0) or an input error (exit 2)
        doc = gaussian_doc(nonlinearity={"kappa_re": kappa})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--config",
                                           write_config(tmp_path, doc),
                                           "--out", str(out)])
        assert result.exit_code == 3, result.output
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "NoConvergence"
        assert "forcing solve overflows" in diag["message"]
        assert not (out / "field.csv").exists()

    def test_quadrature_diverged_exit_3(self, tmp_path):
        # 300 contour nodes at the window 12 pass the phase check (32 rad per
        # panel), but solve_reduced's refinements differ by 3.3e-6 and then
        # 3.4e-9, more than the tolerance 1e-10: they do not settle
        doc = dict(BASE, solver=dict(BASE["solver"], budget={
            "contour_nodes": 300, "real_axis_window": 12.0,
            "real_axis_nodes": 150, "tolerance": 1e-10}))
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--config",
                                           write_config(tmp_path, doc),
                                           "--mode", "reduced",
                                           "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert "QuadratureDiverged" in result.output
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "QuadratureDiverged"
        assert "did not converge" in diag["message"]

    def test_under_resolved_exit_3(self, tmp_path):
        # the (2, 1, -1) plane wave at beta T = 1 spans 58 rad per panel on
        # the default budget; without the phase check it read 2.0e-2, exit 0
        doc = dict(BASE, dispersion={"beta": 2.0, "alpha": 1.0, "delta": -1.0},
                   geometry={"ell": 1.0, "horizon": 0.5},
                   data={"preset": "plane_wave", "a": 2.0},
                   solver={"grid": [33, 17]})
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--config",
                                           write_config(tmp_path, doc),
                                           "--out", str(out)])
        assert result.exit_code == 3, result.output
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "QuadratureDiverged"
        assert "rad of phase per 8-point panel" in diag["message"]
        assert "past the bound 40" in diag["message"]
        assert not (out / "field.csv").exists()

    def test_truncated_data_exit_3(self, tmp_path):
        # configs/nonlinear_gaussian.yaml on the default budget: its window
        # R = 15 truncates the Gaussian's transform, and the first solve's
        # field misses h0 = 0 by 1.5e-2 of its largest value
        doc = yaml.safe_load((CONFIGS / "nonlinear_gaussian.yaml").read_text())
        del doc["solver"]["budget"]
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--config",
                                           write_config(tmp_path, doc),
                                           "--out", str(out)])
        assert result.exit_code == 3, result.output
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "QuadratureDiverged"
        assert "misses its Dirichlet datum" in diag["message"]
        assert "past the bound 0.005" in diag["message"]
        assert not (out / "field.csv").exists()

    def test_arc_overflow_exit_3(self, tmp_path):
        # (ell, T) = (0.1, 0.25): the arc radius is held at 1.5 / ell = 15, an
        # arc amplification exponent of 843.8; it and the other rows' 54, 81
        # and 42.2 pass the precision cap 29.1
        for i, (ell, horizon) in enumerate(
                ((0.1, 0.25), (0.5, 2.0), (0.5, 3.0), (0.2, 0.1))):
            doc = dict(BASE, geometry={"ell": ell, "horizon": horizon},
                       data={"preset": "plane_wave", "a": 2.0})
            doc["solver"] = {"grid": [9, 9],
                             "budget": {"contour_nodes": 4000,
                                        "real_axis_window": 30.0,
                                        "real_axis_nodes": 2000}}
            config = write_config(tmp_path, doc)
            out = tmp_path / ("o4-%d" % i)
            result = CliRunner().invoke(main, ["solve", "--config", config,
                                               "--mode", "contour",
                                               "--out", str(out)])
            assert result.exit_code == 3, result.output
            diag = json.loads((out / "diagnostics.json").read_text())
            assert diag["error"] == "ExponentialOverflow"
            assert "arc amplification" in diag["message"]

    def test_arc_panel_cap_exit_3(self, tmp_path):
        # (beta, alpha, delta) = (1e-3, 10, 0) at (ell, T) = (1, 1.2e-8) with
        # the window 3e4: amplification 16.3, below the precision cap, but
        # 1.21e5 panels per arc
        doc = dict(BASE, dispersion={"beta": 1e-3, "alpha": 10.0, "delta": 0.0},
                   geometry={"ell": 1.0, "horizon": 1.2e-8},
                   data={"preset": "plane_wave", "a": 2.0},
                   solver={"grid": [9, 9],
                           "budget": {"real_axis_window": 3e4}})
        config = write_config(tmp_path, doc)
        out = tmp_path / "o5"
        result = CliRunner().invoke(main, ["solve", "--config", config,
                                           "--mode", "contour",
                                           "--out", str(out)])
        assert result.exit_code == 3, result.output
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "ExponentialOverflow"
        assert "panels" in diag["message"]
        # the Airy wave at (4e-4, 1e-12) once met the cap too: it solves
        doc.update(dispersion=BASE["dispersion"],
                   geometry={"ell": 4e-4, "horizon": 1e-12})
        config = write_config(tmp_path, doc)
        result = CliRunner().invoke(main, ["solve", "--config", config,
                                           "--mode", "contour",
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        x, t, re_u, im_u = np.loadtxt(out / "field.csv", delimiter=",",
                                      skiprows=1, unpack=True)
        got = re_u + 1j * im_u
        want = plane_wave_exact(DispersionParams(1.0, 0.0, 0.0), 2.0)(x, t)
        assert np.linalg.norm(got - want) <= 1e-3 * np.linalg.norm(want)

    @pytest.mark.parametrize("budget", [{"real_axis_window": 2.0}],
                             ids=["window-inside-arc"])
    def test_invalid_truncation_exit_3(self, tmp_path, budget):
        # a window below 1.1 rho
        doc = dict(BASE, data={"preset": "plane_wave", "a": 2.0})
        doc["solver"] = {"grid": [9, 9], "budget": budget}
        config = write_config(tmp_path, doc)
        out = tmp_path / "o6"
        result = CliRunner().invoke(main, ["solve", "--config", config,
                                           "--mode", "contour",
                                           "--out", str(out)])
        assert result.exit_code == 3, result.output
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "InvalidTruncation"


def write_csv(tmp_path, coords, values, name="samples.csv"):
    path = tmp_path / name
    rows = ["%r,%r,%r" % (float(c), float(v.real), float(v.imag))
            for c, v in zip(coords, np.asarray(values, dtype=complex))]
    path.write_text("coord,re,im\n" + "\n".join(rows) + "\n")
    return str(path)


class TestCsvData:
    """A {"path": csv} spec is sampled on the uniform grid of [0, ell] or
    [0, T], so its coordinate column must be that grid."""

    def test_uniform_file_solves(self, tmp_path):
        x = np.linspace(0.0, 1.0, 65)
        doc = dict(BASE, data=dict(BASE["data"], u0={
            "path": write_csv(tmp_path, x, np.sin(np.pi * x))}))
        config = write_config(tmp_path, doc)
        xs = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(load_scenario(config).data.u0(xs),
                                   np.sin(np.pi * xs), atol=1e-6)
        result = CliRunner().invoke(main, ["solve", "--config", config,
                                           "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("name, coords, values", [
        ("u0", np.linspace(0.0, 1.0, 65) ** 2, np.sin(np.pi * np.linspace(0.0, 1.0, 65) ** 2)),
        ("u0", np.linspace(0.0, 2.0, 65), np.sin(np.pi * np.linspace(0.0, 2.0, 65))),
        ("u0", np.linspace(0.0, 1.0, 65), np.r_[np.zeros(32), np.nan, np.zeros(32)]),
        ("g0", np.linspace(0.0, 0.1, 33) ** 2 * 10.0, np.zeros(33)),
        ("g0", np.linspace(0.0, 0.1, 33), np.r_[np.zeros(16), np.inf, np.zeros(16)]),
        ("u0", np.linspace(0.0, 1.0, 3), np.zeros(3)),
        ("h1", np.zeros(1), np.zeros(1)),
    ], ids=["nonuniform", "wrong-span", "nan", "g0-nonuniform", "g0-inf",
            "three-rows", "one-row"])
    def test_bad_file_exit_2_naming_the_field(self, tmp_path, name, coords, values):
        doc = dict(BASE, data=dict(BASE["data"], **{
            name: {"path": write_csv(tmp_path, coords, values)}}))
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--config",
                                           write_config(tmp_path, doc),
                                           "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "'data.%s'" % name in result.output
        assert not (out / "field.csv").exists()


class TestVerifyVerb:
    def test_pass_and_determinism(self, tmp_path):
        runner = CliRunner()
        args = ["verify", "--suite", "mvt", "--seed", "5"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output  # byte-identical reports

    def test_writes_report_file(self, tmp_path):
        out = tmp_path / "rep"
        result = CliRunner().invoke(main, ["verify", "--suite", "rtotau",
                                           "--seed", "1", "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads((out / "verify_rtotau.json").read_text())
        assert report["passed"]

    def test_negative_seed_exit_2(self):
        result = CliRunner().invoke(main, ["verify", "--suite", "mvt",
                                           "--seed", "-1"])
        assert result.exit_code == 2
        assert "--seed" in result.output


class TestNormsVerb:
    def test_data_norm_rows(self, tmp_path):
        config = write_config(tmp_path, BASE)
        out = tmp_path / "n"
        result = CliRunner().invoke(main, ["norms", "--config", config,
                                           "--out", str(out)])
        assert result.exit_code == 0
        text = (out / "data_norms.csv").read_text() \
            if (out / "data_norms.csv").exists() else result.output
        assert "data_norm_sum" in text

    def test_solve_writes_the_same_data_rows(self, tmp_path):
        # solve's norms.csv: the three field rows, then the norms verb's
        # table without its header line, byte for byte
        config = write_config(tmp_path, BASE)
        out = tmp_path / "o"
        result = CliRunner().invoke(main, ["solve", "--config", config,
                                           "--mode", "reduced",
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = (out / "norms.csv").read_text().splitlines(keepends=True)
        verb = CliRunner().invoke(main, ["norms", "--config", config])
        assert verb.exit_code == 0
        assert [line.split(",")[0] for line in lines[1:4]] == [
            "field_l2_xt", "field_ct_l2", "field_ct_hs"]
        assert lines[0] + "".join(lines[4:]) == verb.output

    def test_non_finite_order_exit_2(self, tmp_path):
        # a NaN order wrote NaN rows with exit 0
        doc = dict(BASE, solver=dict(BASE["solver"], s=float("nan")))
        result = CliRunner().invoke(main, ["norms", "--config",
                                           write_config(tmp_path, doc)])
        assert result.exit_code == 2
        assert "'solver.s'" in result.output

    def test_negative_order_exit_2(self, tmp_path):
        # a negative order passed the loader and crashed the norms verb
        doc = dict(BASE, solver=dict(BASE["solver"], s=-1.0))
        result = CliRunner().invoke(main, ["norms", "--config",
                                           write_config(tmp_path, doc)])
        assert result.exit_code == 2
        assert "'solver.s'" in result.output

    @pytest.mark.parametrize("verb", ["norms", "solve"])
    def test_huge_plane_wave_wavenumber_exit_2(self, tmp_path, verb):
        # omega(a) overflowed in the plane-wave preset: an OverflowError
        # traceback, not a config error
        doc = dict(BASE, data={"preset": "plane_wave", "a": 1.0e200})
        result = CliRunner().invoke(main, [verb, "--config",
                                           write_config(tmp_path, doc),
                                           "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "'data.a'" in result.output

    @pytest.mark.parametrize("s, code", [
        (MAX_ORDER, 0), (MAX_ORDER + 0.5, 2), (200.0, 2), (2000.0, 2)])
    def test_order_limit(self, tmp_path, s, code):
        # s = 200 wrote inf rows and s = 2000 nan rows, both with exit 0.
        # The data are RESOLVED's: BASE's bump h0 is rounding noise from
        # s = 16 (order (s + 1) / 3 = 5.7) on, refused whatever the limit
        doc = dict(BASE, solver=dict(BASE["solver"], s=s), data=RESOLVED)
        result = CliRunner().invoke(main, ["norms", "--config",
                                           write_config(tmp_path, doc)])
        assert result.exit_code == code, result.output
        if code:
            assert "'solver.s'" in result.output
        else:
            values = [float(line.split(",")[-1])
                      for line in result.output.splitlines()[1:]]
            assert len(values) == 5 and np.all(np.isfinite(values))

    def test_huge_order_fails_before_any_norm(self, tmp_path):
        # s = 1e6 ran past 120 s: the limit is checked before any norm
        doc = dict(BASE, solver=dict(BASE["solver"], s=1.0e6))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(CONFIGS.parent / "src"), os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "hnls_utm.cli", "norms", "--config",
             write_config(tmp_path, doc)],
            env=env, capture_output=True, text=True, timeout=30)
        assert result.returncode == 2
        assert "'solver.s'" in result.stderr

    @pytest.mark.parametrize("s, width, amplitude, code", [
        pytest.param(1.0, 0.01, 1.0e40, 0, id="1.0-0"),
        pytest.param(39.5, 0.2, 1.0e40, 0, id="39.5-0"),
        pytest.param(39.5, 0.01, 1.0e300, 2, id="39.5-2")])
    def test_non_finite_row_within_the_limit_exit_2(self, tmp_path, s, width,
                                                    amplitude, code):
        # Gaussians: at amplitude 1e40 the width-0.2 one's H^39.5 norm, about
        # 9e167, is finite though its square is not; at 1e300 the width-0.01
        # one's norm, about 1e421, is not representable
        doc = dict(BASE, solver=dict(BASE["solver"], s=s),
                   data=dict(RESOLVED, u0={
                       "preset": "gaussian", "center": 0.5, "width": width,
                       "amplitude": amplitude}))
        result = CliRunner().invoke(main, ["norms", "--config",
                                           write_config(tmp_path, doc)])
        assert result.exit_code == code, result.output
        if code:
            assert "'solver.s'" in result.output and "u0_hs" in result.output

    @pytest.mark.parametrize("s", [20.5, 39.5])
    def test_rounding_noise_row_exit_2(self, tmp_path, s):
        # the width-0.01 Gaussian's H^s norm at these orders is FFT rounding
        # lifted by the multiplier: a finite number, refused by name
        doc = dict(BASE, solver=dict(BASE["solver"], s=s),
                   data=dict(RESOLVED, u0={
                       "preset": "gaussian", "center": 0.5, "width": 0.01}))
        result = CliRunner().invoke(main, ["norms", "--config",
                                           write_config(tmp_path, doc)])
        assert result.exit_code == 2, result.output
        assert "'solver.s'" in result.output and "not resolved" in result.output

    def test_data_rows_sum_to_data_norm_sum(self, tmp_path):
        doc = dict(BASE, data=dict(BASE["data"],
                                   u0={"preset": "gaussian", "center": 0.5,
                                       "width": 0.15},
                                   g0={"preset": "bump"}))
        config = write_config(tmp_path, doc)
        result = CliRunner().invoke(main, ["norms", "--config", config])
        assert result.exit_code == 0
        rows = {line.split(",")[0]: float(line.split(",")[-1])
                for line in result.output.splitlines()[1:]}
        data_rows = [rows[name] for name in ("u0_hs", "g0_h(s+1)/3",
                                             "h0_h(s+1)/3", "h1_hs/3")]
        assert sum(data_rows) == pytest.approx(rows["data_norm_sum"], rel=1e-12)
