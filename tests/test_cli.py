"""Command-line interface: config loading, artifacts, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from hnls_utm import cli
from hnls_utm.cli import load_scenario, main
from hnls_utm.errors import ConfigInvalid

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


def write_config(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestLoadScenario:
    def test_minimal_document(self, tmp_path):
        cfg = load_scenario(write_config(tmp_path, BASE))
        assert cfg.params.beta == 1.0
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

    def test_output_points_outside_the_rectangle_exit_2(self, tmp_path,
                                                        monkeypatch):
        # config grids are point counts, always inside [0, ell]; the points
        # are moved past x = ell between the CLI and the solver
        solve_full = cli.solve_full

        def past_the_edge(data, grid, budget):
            xs = np.linspace(0.0, 1.2 * data.ell, grid[0])
            return solve_full(data, (xs, grid[1]), budget)

        monkeypatch.setattr(cli, "solve_full", past_the_edge)
        config = write_config(tmp_path, BASE)
        result = CliRunner().invoke(main, ["solve", "--config", config,
                                           "--mode", "linear",
                                           "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "outside [0, ell]" in result.output

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

    def test_arc_overflow_exit_3(self, tmp_path):
        # arc radius R_Delta = 9 at T = 1: arc amplification e^{729}
        doc = dict(BASE, geometry={"ell": 1.0, "horizon": 1.0},
                   data={"preset": "plane_wave", "a": 2.0})
        doc["solver"] = {"grid": [9, 9],
                         "budget": {"contour_nodes": 4000,
                                    "real_axis_nodes": 2000,
                                    "arc_radius": 9.0}}
        config = write_config(tmp_path, doc)
        out = tmp_path / "o4"
        result = CliRunner().invoke(main, ["solve", "--config", config,
                                           "--mode", "linear",
                                           "--out", str(out)])
        assert result.exit_code == 3, result.output
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "ExponentialOverflow"

    def test_arc_panel_cap_exit_3(self, tmp_path):
        # ell = 0.2, T = 1 at the default budget: the arc would need about
        # 4.6e14 panels
        doc = dict(BASE, geometry={"ell": 0.2, "horizon": 1.0},
                   data={"preset": "plane_wave", "a": 2.0},
                   solver={"grid": [9, 9]})
        config = write_config(tmp_path, doc)
        out = tmp_path / "o5"
        result = CliRunner().invoke(main, ["solve", "--config", config,
                                           "--mode", "linear",
                                           "--out", str(out)])
        assert result.exit_code == 3, result.output
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "ExponentialOverflow"


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
