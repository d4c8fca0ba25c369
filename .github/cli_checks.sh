#!/usr/bin/env bash
# Command-line checks of the installed hnls-utm entry point, one step per call:
#   bash .github/cli_checks.sh <step> <tmpdir>
# where <step> is import-guard, console-script, config-errors,
# diverging-picard, overflowing-forcing, under-resolved or traced-bench and
# <tmpdir> an existing directory for the step's configs and outputs.  Run it from the
# repository root; it exits nonzero on the first failed check.
set -eo pipefail

step=$1
tmp=$2
test -d "$tmp"

# expect_exit CODE COMMAND...: run COMMAND and fail unless it exits with CODE
expect_exit() {
    local code=$1 status=0
    shift
    "$@" || status=$?
    test "$status" -eq "$code"
}

# no_scipy CODE: run the Python CODE, then fail if it loaded a module named
# scipy or scipy.*
no_scipy() {
    python -c "$1
import sys
loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]
assert not loaded, loaded"
}

case "$step" in
    # the package is numpy's: importing its command line, a 32 x 32 oracle
    # solve and a --mode compare run load no module named scipy or scipy.*
    import-guard)
        no_scipy "import hnls_utm.cli"
        no_scipy "from hnls_utm import oracle
from hnls_utm.dispersion import DispersionParams
from hnls_utm.presets import plane_wave_data
oracle.oracle_solve(plane_wave_data(DispersionParams(1.0, 0.0, 0.0), 1.0, 0.5, 2.0),
                    oracle.OracleConfig(nx=32, nt=32))"
        no_scipy "from hnls_utm.cli import run_scenario
assert run_scenario('configs/compare_plane_wave.yaml', 'compare', '$tmp/compare_guard') == 0"
        ;;
    # the tests call cli.main in-process; this runs the installed entry point.
    # reduced_bump.yaml is the one shipped config with nonzero boundary
    # series, so its norms run the boundary-data norm path
    console-script)
        hnls-utm verify --suite all --seed 0
        hnls-utm solve --config configs/linear_plane_wave.yaml --out "$tmp/linear"
        hnls-utm solve --config configs/compare_plane_wave.yaml --mode compare --out "$tmp/compare"
        hnls-utm solve --config configs/compare_plane_wave.yaml --mode oracle --out "$tmp/oracle"
        hnls-utm solve --config configs/reduced_bump.yaml --mode reduced --out "$tmp/reduced"
        hnls-utm solve --config configs/nonlinear_gaussian.yaml --out "$tmp/nonlinear"
        hnls-utm norms --config configs/nonlinear_gaussian.yaml --out "$tmp/norms"
        hnls-utm norms --config configs/reduced_bump.yaml --out "$tmp/norms_bump"
        ;;
    # a CSV data file is read and checked: the shipped Gaussian sampled on
    # 257 rows solves, 3 rows exit 2 naming data.u0, and so does a negative
    # order in the norms verb, naming solver.s; a plane wave whose omega(a)
    # overflows exits 2 naming data.a, and an order past the limit exits 2
    # naming solver.s before any norm is computed
    config-errors)
        for rows in 257 3; do
            python -c "import sys, numpy as np; x = np.linspace(0.0, 1.0, int(sys.argv[2])); np.savetxt(sys.argv[1], np.column_stack([x, np.exp(-((x - 0.5) / 0.2) ** 2), 0.0 * x]), delimiter=',', header='coord,re,im', comments='')" "$tmp/u0_$rows.csv" "$rows"
        done
        sed "s#u0: {preset: gaussian, center: 0.5, width: 0.2}#u0: {path: $tmp/u0_257.csv}#" configs/nonlinear_gaussian.yaml > "$tmp/csv.yaml"
        grep -q 'u0: {path:' "$tmp/csv.yaml"
        hnls-utm solve --config "$tmp/csv.yaml" --out "$tmp/csv"
        sed 's#u0_257.csv#u0_3.csv#' "$tmp/csv.yaml" > "$tmp/short.yaml"
        expect_exit 2 hnls-utm solve --config "$tmp/short.yaml" --out "$tmp/short" 2> "$tmp/short.err"
        grep -q "'data.u0'.*at least 4 rows" "$tmp/short.err"
        sed 's/^  s: 1.0$/  s: -1.0/' configs/nonlinear_gaussian.yaml > "$tmp/negative_s.yaml"
        grep -q 's: -1.0' "$tmp/negative_s.yaml"
        expect_exit 2 hnls-utm norms --config "$tmp/negative_s.yaml" 2> "$tmp/negative_s.err"
        grep -q "'solver.s'" "$tmp/negative_s.err"
        sed 's/^  a: 2.0$/  a: 1.0e200/' configs/linear_plane_wave.yaml > "$tmp/huge_a.yaml"
        grep -q 'a: 1.0e200' "$tmp/huge_a.yaml"
        expect_exit 2 hnls-utm norms --config "$tmp/huge_a.yaml" 2> "$tmp/huge_a.err"
        grep -q "'data.a'" "$tmp/huge_a.err"
        sed 's/^  s: 1.0$/  s: 1.0e6/' configs/nonlinear_gaussian.yaml > "$tmp/huge_s.yaml"
        grep -q 's: 1.0e6' "$tmp/huge_s.yaml"
        expect_exit 2 timeout 60 hnls-utm norms --config "$tmp/huge_s.yaml" 2> "$tmp/huge_s.err"
        grep -q "'solver.s'" "$tmp/huge_s.err"
        ;;
    # a diverging Picard run is a solver failure: exit 3, diagnostics written
    diverging-picard)
        sed 's/kappa_re: 0.05/kappa_re: 320/' configs/nonlinear_gaussian.yaml > "$tmp/diverging.yaml"
        grep -q 'kappa_re: 320' "$tmp/diverging.yaml"
        expect_exit 3 hnls-utm solve --config "$tmp/diverging.yaml" --out "$tmp/diverging"
        grep -q '"error": "NoConvergence"' "$tmp/diverging/diagnostics.json"
        ;;
    # a forcing too large to solve is a diverged run too, not exit 0 or 2
    overflowing-forcing)
        sed 's/kappa_re: 0.05/kappa_re: 1.0e305/' configs/nonlinear_gaussian.yaml > "$tmp/overflow.yaml"
        grep -q 'kappa_re: 1.0e305' "$tmp/overflow.yaml"
        expect_exit 3 hnls-utm solve --config "$tmp/overflow.yaml" --out "$tmp/overflow"
        grep -q '"error": "NoConvergence"' "$tmp/overflow/diagnostics.json"
        ;;
    # a solve whose panels cannot resolve its phase is a solver failure: the
    # (2, 1, -1) plane wave at beta T = 1 on the default budget, exit 3; so
    # is one whose window truncates its data: the shipped Gaussian on the
    # default budget misses its Dirichlet data, exit 3
    under-resolved)
        sed -e 's/^  beta: 1.0$/  beta: 2.0/' -e 's/^  alpha: 0.0$/  alpha: 1.0/' \
            -e 's/^  delta: 0.0$/  delta: -1.0/' -e '/^  budget:$/,/^    tolerance:/d' \
            configs/linear_plane_wave.yaml > "$tmp/under.yaml"
        grep -q 'delta: -1.0' "$tmp/under.yaml"
        expect_exit 1 grep -q 'budget' "$tmp/under.yaml"
        expect_exit 3 hnls-utm solve --config "$tmp/under.yaml" --out "$tmp/under"
        grep -q '"error": "QuadratureDiverged"' "$tmp/under/diagnostics.json"
        sed '/^  budget:$/,/^    real_axis_nodes:/d' configs/nonlinear_gaussian.yaml > "$tmp/truncated.yaml"
        expect_exit 1 grep -q 'budget' "$tmp/truncated.yaml"
        expect_exit 3 hnls-utm solve --config "$tmp/truncated.yaml" --out "$tmp/truncated"
        grep -q '"error": "QuadratureDiverged"' "$tmp/truncated/diagnostics.json"
        grep -q 'misses its Dirichlet datum' "$tmp/truncated/diagnostics.json"
        ;;
    # the tracer wraps names in linear's namespace (omega, symmetry_roots,
    # CubicSpline, ...): a traced run fails when a refactor unbinds one.
    # plane_wave takes the corner-blend forcing, picard the forced applies
    # of the Picard loop, and batch the forcing-free path
    traced-bench)
        for workload in plane_wave picard batch; do
            python3 perfbench/run.py --workload "$workload" --seed 0 --seconds 1 --trace 1 > "$tmp/trace_$workload.txt"
            tail -n 1 "$tmp/trace_$workload.txt" | python3 -c "import json, sys; assert json.load(sys.stdin)['correct'] is True"
        done
        ;;
    *)
        echo "unknown step '$step': import-guard, console-script, config-errors, diverging-picard, overflowing-forcing, under-resolved or traced-bench" >&2
        exit 64
        ;;
esac
