import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from linfvar import cli
from linfvar.cli import run

ARONSSON = {
    "n": 2, "N": 1,
    "domain": {"lo": [1.0, 1.0], "hi": [2.0, 2.0], "resolution": [33, 33]},
    "H": "dirichlet",
    "u": ["abs(x1)^(4/3) - abs(x2)^(4/3)"],
}

LINEAR_1D = {
    "n": 1, "N": 1,
    "domain": {"lo": [-1.0], "hi": [1.0], "resolution": [129]},
    "H": "dirichlet",
    "u": ["x1"],
}

PARABOLA_1D = {
    "n": 1, "N": 1,
    "domain": {"lo": [-1.0], "hi": [1.0], "resolution": [65]},
    "H": "dirichlet",
    "u": ["x1^2"],
}

SMALL_2D = {
    "n": 2, "N": 1,
    "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "resolution": [9, 9]},
    "H": "P11^2 + P12^2",
    "u": ["x1*x2"],
}

BAD_EXPR = {
    "n": 1, "N": 1,
    "domain": {"lo": [0.0], "hi": [1.0], "resolution": [9]},
    "H": "dirichlet",
    "u": ["x1 + * 2"],
}


@pytest.fixture
def problems(tmp_path):
    paths = {}
    for name, spec in [("aronsson", ARONSSON), ("linear1d", LINEAR_1D),
                       ("parabola", PARABOLA_1D), ("small2d", SMALL_2D), ("bad", BAD_EXPR)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(spec))
        paths[name] = str(p)
    return paths, tmp_path


def _report(out_dir, command):
    return json.loads((out_dir / f"{command}_report.json").read_text())


class TestExitCodes:
    def test_residual_pass(self, problems):
        paths, tmp = problems
        assert run(["residual", "--problem", paths["aronsson"], "--points", "grid",
                    "--out", str(tmp / "o1")]) == 0
        rep = _report(tmp / "o1", "residual")
        assert rep["pass"] is True
        assert rep["results"]["max_norm"] <= 1e-8

    def test_residual_fail_is_exit_1(self, problems):
        paths, tmp = problems
        assert run(["residual", "--problem", paths["parabola"], "--out", str(tmp / "o2")]) == 1
        rep = _report(tmp / "o2", "residual")
        assert rep["pass"] is False

    def test_parse_error_is_exit_2(self, problems):
        paths, tmp = problems
        assert run(["parse-check", "--problem", paths["bad"], "--out", str(tmp / "o3")]) == 2
        rep = _report(tmp / "o3", "parse-check")
        assert rep["error"]["offset"] == 5

    def test_schema_violation_reports_field_path(self, problems, tmp_path):
        _, tmp = problems
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps({"n": 1, "N": 1, "H": "dirichlet", "u": ["x1"]}))
        assert run(["energy", "--problem", str(broken), "--out", str(tmp / "sv")]) == 2
        rep = _report(tmp / "sv", "energy")
        assert "domain" in rep["error"]["message"]

    def test_any_exception_before_a_verdict_is_exit_2(self, problems, tmp_path, capsys):
        # a resolution that is not a list raises TypeError inside DomainBox
        _, tmp = problems
        spec = dict(LINEAR_1D, domain={"lo": [-1.0], "hi": [1.0], "resolution": 9})
        bad = tmp_path / "scalar_resolution.json"
        bad.write_text(json.dumps(spec))
        assert run(["energy", "--problem", str(bad), "--out", str(tmp / "te")]) == 2
        rep = _report(tmp / "te", "energy")
        assert rep["pass"] is False and "results" not in rep
        assert rep["error"]["type"] == "TypeError" and rep["error"]["message"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("path, bad", [
        ("n", {"n": "two"}),
        ("N", {"N": 1.5}),
        ("domain.lo", {"domain": {"lo": -1.0, "hi": [1.0], "resolution": [9]}}),
        ("domain.hi", {"domain": {"lo": [-1.0], "hi": "x", "resolution": [9]}}),
        ("domain.resolution", {"domain": {"lo": [-1.0], "hi": [1.0], "resolution": 9}}),
        ("u", {"u": "x1"}),
        ("domain.lo", {"n": 3, "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "resolution": [9, 9]}}),
        ("subdomain.lo", {"n": 2, "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "resolution": [9, 9]},
                          "subdomain": {"lo": [0.25], "hi": [0.75, 0.75]}}),
        ("singular[0].axis", {"singular": [{"axis": 5, "value": 0.0}]}),
        ("singular[0]", {"singular": [5]}),
        ("singular", {"singular": 5}),
        # json reads Infinity and NaN: a point or a value must be finite
        ("domain.lo", {"domain": {"lo": [-math.inf], "hi": [1.0], "resolution": [9]}}),
        ("domain.hi", {"domain": {"lo": [-1.0], "hi": [math.nan], "resolution": [9]}}),
        ("subdomain.lo", {"subdomain": {"lo": [-math.inf], "hi": [0.5]}}),
        ("subdomain.hi", {"subdomain": {"lo": [-0.5], "hi": [math.inf]}}),
        ("singular[0].value", {"singular": [{"axis": 0, "value": math.nan}]}),
        ("singular[0].value", {"singular": [{"axis": 0, "value": 10 ** 400}]}),
        # a whole number beyond the float range
        ("n", {"n": 10 ** 400}),
        ("N", {"N": 10 ** 400}),
        ("singular[0].axis", {"singular": [{"axis": 10 ** 400, "value": 0.0}]}),
        # a density or a grid path that is not a string
        ("H", {"H": 3}),
        ("u.grid", {"u": {"grid": 3}}),
    ])
    def test_mistyped_field_is_named(self, problems, tmp_path, path, bad):
        _, tmp = problems
        (tmp_path / "typo.json").write_text(json.dumps(dict(LINEAR_1D, **bad)))
        out = tmp / f"typo_{path}"
        assert run(["energy", "--problem", str(tmp_path / "typo.json"), "--out", str(out)]) == 2
        assert f"'{path}'" in _report(out, "energy")["error"]["message"]

    @pytest.mark.parametrize("spec, argv, error", [
        ({"H": "P13^2"}, ["energy"], {"type": "ParseError", "offset": 0, "message":
         "problem file field 'H': variable 'P13' out of range (N=1, n=2) (at offset 0)"}),
        ({"N": 2, "u": ["x1", "x2 +"]}, ["energy"], {"type": "ParseError", "offset": 4, "message":
         "problem file field 'u[1]': unexpected end of input (at offset 4)"}),
        ({}, ["danskin", "--phi", "x1+"], {"type": "ParseError", "offset": 3, "message":
         "--phi component 1: unexpected end of input (at offset 3)"}),
        ({}, ["danskin", "--phi", "x1;x2"], {"type": "ValueError", "message":
         "--phi needs 1 component expression(s), got 2"}),
        ({"N": 2, "u": ["x1", "x2"]}, ["stationarity", "--psi", "x1; x2 + y"], {"type": "ParseError", "offset": 6,
         "message": "--psi component 2: unknown variable 'y' (at offset 6)"}),
    ])
    def test_a_parse_error_names_the_field_or_option_of_its_expression(self, problems, tmp_path, spec, argv, error):
        # at the parent these messages named neither H, u[k], --phi nor --psi
        _, tmp = problems
        (tmp_path / "expr.json").write_text(json.dumps(dict(SMALL_2D, **spec)))
        out = tmp / f"expr_{argv[0]}"
        assert run([*argv, "--problem", str(tmp_path / "expr.json"), "--out", str(out)]) == 2
        assert _report(out, argv[0])["error"] == error

    def test_a_missing_grid_file_is_named(self, problems, tmp_path):
        # at the parent the message was only "[Errno 2] No such file or directory: '...'"
        _, tmp = problems
        (tmp_path / "grid.json").write_text(json.dumps(dict(SMALL_2D, u={"grid": "missing.csv"})))
        out = tmp / "missing_grid"
        assert run(["energy", "--problem", str(tmp_path / "grid.json"), "--out", str(out)]) == 2
        error = _report(out, "energy")["error"]
        assert error["type"] == "FileNotFoundError"
        assert error["message"].startswith("problem file field 'u.grid': ") and "missing.csv" in error["message"]

    def test_non_finite_density_is_named_by_argmax_and_danskin(self, problems, tmp_path):
        _, tmp = problems
        spec = {"n": 1, "N": 1, "domain": {"lo": [0.0], "hi": [1.0], "resolution": [9]},
                "H": "exp(1000 * P11 * x1)", "u": ["x1"]}  # H = inf from node (6,) on
        (tmp_path / "overflow.json").write_text(json.dumps(spec))
        for command, extra in (("argmax", []), ("danskin", ["--phi", "x1"]), ("maxmin", []),
                               ("flow", ["--x0", "0.5", "--xi", "1"]), ("residual", [])):
            out = tmp / f"overflow_{command}"
            argv = [command, "--problem", str(tmp_path / "overflow.json"), "--out", str(out)]
            assert run(argv + extra) == 2
            assert "density not finite at node (6,)" in _report(out, command)["error"]["message"]

    def test_lp_names_a_cell_where_the_density_is_not_finite(self, problems, tmp_path):
        _, tmp = problems
        spec = {"n": 1, "N": 1, "domain": {"lo": [0.0], "hi": [1.0], "resolution": [9]},
                "H": "exp(1000 * P11 * x1)", "u": ["x1"]}
        (tmp_path / "overflow.json").write_text(json.dumps(spec))
        out = tmp / "overflow_lp"
        assert run(["lp", "--problem", str(tmp_path / "overflow.json"), "--out", str(out)]) == 2
        # the linear fill has P = 1 in every cell, so exp(1000 x1) first overflows at x1 = 0.8125
        assert _report(out, "lp")["error"]["message"] == "density not finite at cell midpoint (0.8125,)"

    @pytest.mark.parametrize("schedule,message", [
        ("2,nan", "--p-schedule entry 2 is nan"), ("2,inf", "--p-schedule entry 2 is inf"),
        ("2,4,1e400", "--p-schedule entry 3 is inf"), ("nan,4", "(a --p-schedule entry), got nan"),
    ])
    def test_lp_refuses_a_p_that_is_not_a_finite_number(self, problems, tmp_path, schedule, message):
        _, tmp = problems
        spec = dict(LINEAR_1D, domain={"lo": [-1.0], "hi": [1.0], "resolution": [11]})
        (tmp_path / "lp.json").write_text(json.dumps(spec))
        out = tmp / "lp_nan"
        assert run(["lp", "--problem", str(tmp_path / "lp.json"), "--p-schedule", schedule, "--out", str(out)]) == 2
        error = _report(out, "lp")["error"]
        assert error["type"] == "ValueError" and message in error["message"]
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command,extra,point", [
        ("energy", [], "(0.0, 0.0)"), ("argmax", [], "(0.0, 0.0)"), ("maxmin", [], "(0.0, 0.0)"),
        ("residual", [], "(0.0, 0.0)"), ("danskin", ["--phi", "x1"], "(0.0, 0.0)"),
        ("stationarity", [], "(0.0, 0.0)"), ("verify-absolute", [], "(0.0, 0.0)"),
        ("verify-rank-one", [], "(0.0, 0.0)"), ("verify-normal", [], "(0.0, 0.0)"),
        ("measure", ["--measure", "dirac:4,4"], "(0.0, 0.0)"),
        ("flow", ["--x0", "0.5,0.5", "--xi", "1"], "(0.0, 0.0)"),
        ("lp", [], "(0.0, 0.0)"),  # the centre node of the solution, read after the solve
    ])
    def test_density_evaluation_error_names_its_point(self, tmp_path, command, extra, point):
        # Du = 0 at the centre node: the density's sqrt is evaluated at its branch point
        spec = {"n": 2, "N": 1, "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "resolution": [9, 9]},
                "H": "sqrt(P11^2+P12^2)", "u": ["x1^2 + x2^2"]}
        (tmp_path / "branch.json").write_text(json.dumps(spec))
        out = tmp_path / command
        assert run([command, "--problem", str(tmp_path / "branch.json"), "--out", str(out)] + extra) == 2
        error = _report(out, command)["error"]
        assert error == {"type": "SingularityError", "message": f"sqrt at branch point 0 at point {point}"}

    @pytest.mark.parametrize("command,extra,message", [
        ("energy", [], "subdomain has no evaluable nodes"),
        ("argmax", [], "subdomain has no evaluable nodes"),
        ("verify-absolute", [], "subdomain has no evaluable nodes"),
        ("flow", ["--x0", "0.5", "--xi", "1"], "subdomain has no evaluable nodes"),
        ("maxmin", [], "subdomain has no evaluable nodes"),
        ("measure", ["--measure", "uniform"], "subdomain has no evaluable nodes"),
        ("residual", [], "subdomain has no evaluable interior nodes"),
        ("lp", [], "subdomain has no evaluable nodes"),
    ])
    def test_a_subdomain_without_evaluable_nodes_is_named(self, tmp_path, command, extra, message):
        # the declared singular lines cover all three nodes
        spec = dict(LINEAR_1D, domain={"lo": [0.0], "hi": [1.0], "resolution": [3]},
                    singular=[{"axis": 0, "value": v} for v in (0.0, 0.5, 1.0)])
        (tmp_path / "covered.json").write_text(json.dumps(spec))
        out = tmp_path / command
        assert run([command, "--problem", str(tmp_path / "covered.json"), "--out", str(out)] + extra) == 2
        assert _report(out, command)["error"] == {"type": "ValueError", "message": message}

    def test_lp_names_a_boundary_node_without_data(self, tmp_path):
        # the subdomain [0.25, 0.75] holds nodes 2..6; the one declared singular point is its
        # boundary node 6, whose boundary data is then not sampled
        spec = dict(LINEAR_1D, domain={"lo": [0.0], "hi": [1.0], "resolution": [9]},
                    subdomain={"lo": [0.25], "hi": [0.75]}, singular=[{"axis": 0, "value": 0.75}])
        (tmp_path / "point.json").write_text(json.dumps(spec))
        out = tmp_path / "lp"
        assert run(["lp", "--problem", str(tmp_path / "point.json"), "--out", str(out)]) == 2
        assert _report(out, "lp")["error"] == {
            "type": "ValueError", "message": "boundary data is not finite at boundary node (6,)"}
        assert not list(out.glob("*.csv"))

    def test_lp_with_a_branch_point_density_starts_from_no_flat_cell(self, tmp_path):
        # the Coons fill of Aronsson data has Du != 0 in every cell, so sqrt is never taken at 0
        spec = {"n": 2, "N": 1, "domain": {"lo": [1.0, 1.0], "hi": [2.0, 2.0], "resolution": [17, 17]},
                "H": "sqrt(P11^2+P12^2)", "u": ["abs(x1)^(4/3) - abs(x2)^(4/3)"]}
        (tmp_path / "norm.json").write_text(json.dumps(spec))
        out = tmp_path / "norm_lp"
        assert run(["lp", "--problem", str(tmp_path / "norm.json"), "--out", str(out)]) == 0
        stages = _report(out, "lp")["results"]["stages"]
        assert [st["status"] for st in stages] == ["converged"] * 5

    def test_flow_with_explicit_dt_names_a_point_where_the_density_is_not_finite(self, problems, tmp_path):
        # an explicit --dt scans no nodes; x0's velocity 500 exp(500) is finite, but the
        # first step's first stage point, x0 + dt/5 times it = exp(500), overflows the density
        _, tmp = problems
        spec = {"n": 1, "N": 1, "domain": {"lo": [0.0], "hi": [1.0], "resolution": [9]},
                "H": "exp(1000 * P11 * x1)", "u": ["x1"]}
        (tmp_path / "overflow.json").write_text(json.dumps(spec))
        out = tmp / "overflow_flow_dt"
        argv = ["flow", "--problem", str(tmp_path / "overflow.json"), "--out", str(out),
                "--x0", "0.5", "--xi", "1", "--dt", "0.01"]
        assert run(argv) == 2
        assert _report(out, "flow")["error"]["message"] == "density not finite at point (1.4035922178528378e+217,)"
        assert not (out / "trajectory.csv").exists()

    def test_flow_refuses_more_steps_than_its_budget(self, problems):
        # --dt caps every step, so without a budget this call takes about 1e300 steps and never
        # returns; it is refused before the first field evaluation
        paths, tmp = problems
        out = tmp / "step_budget"
        argv = ["flow", "--problem", paths["small2d"], "--out", str(out),
                "--x0", "0.5,0.5", "--xi", "1", "--dt", "1e-300", "--tmax", "1"]
        assert run(argv) == 2
        assert _report(out, "flow")["error"] == {
            "type": "ValueError",
            "message": "t_max / dt = 1e+300 steps exceeds the budget of 100000 steps; raise --dt or lower --tmax"}
        assert not (out / "trajectory.csv").exists()

    def test_out_of_range_grid_csv_row_is_exit_2(self, problems):
        paths, tmp = problems
        (tmp / "u.csv").write_text("".join(f"{i},{i / 8!r}\n" for i in range(9)) + "40,1.0\n")
        spec = {"n": 1, "N": 1, "domain": {"lo": [0.0], "hi": [1.0], "resolution": [9]},
                "H": "dirichlet", "u": {"grid": "u.csv"}}
        (tmp / "csvprob.json").write_text(json.dumps(spec))
        out = tmp / "out_csv"
        assert run(["energy", "--problem", str(tmp / "csvprob.json"), "--out", str(out)]) == 2
        err = _report(out, "energy")["error"]
        assert err["type"] == "ValueError"
        assert "line 10" in err["message"] and "outside the grid" in err["message"]

    def test_explicit_point_at_masked_grid_node_is_exit_2(self, problems):
        paths, tmp = problems
        rows = [f"{i},{j},{(i + j) / 8!r}\n" for i in range(9) for j in range(9) if (i, j) != (4, 4)]
        (tmp / "u.csv").write_text("".join(rows))
        spec = {"n": 2, "N": 1, "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "resolution": [9, 9]},
                "H": "dirichlet", "u": {"grid": "u.csv"}}
        (tmp / "masked.json").write_text(json.dumps(spec))
        out = tmp / "out_masked"
        assert run(["residual", "--problem", str(tmp / "masked.json"), "--points", "0.25,0.25;0.5,0.5",
                    "--out", str(out)]) == 2
        err = _report(out, "residual")["error"]
        assert err["type"] == "SingularityError"
        assert "grid node (4, 4)" in err["message"]

    def test_parse_check_ok(self, problems):
        paths, tmp = problems
        assert run(["parse-check", "--problem", paths["aronsson"], "--out", str(tmp / "o4")]) == 0

    def test_module_entry_point_runs_main(self, problems):
        paths, tmp = problems
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["parse-check", "--problem", paths["aronsson"], "--out", str(tmp / "o_main")]
        done = subprocess.run([sys.executable, "-m", "linfvar.cli"] + argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert _report(tmp / "o_main", "parse-check")["pass"] is True

    def test_unknown_subcommand(self, problems):
        paths, _ = problems
        assert run(["frobnicate", "--problem", paths["aronsson"]]) == 2

    def test_missing_problem_file(self, problems, tmp_path):
        _, tmp = problems
        assert run(["energy", "--problem", str(tmp_path / "nope.json"),
                    "--out", str(tmp / "o5")]) == 2

    def test_maxmin_fail_fixture(self, problems):
        paths, tmp = problems
        assert run(["maxmin", "--problem", paths["parabola"], "--out", str(tmp / "o6")]) == 1
        assert run(["maxmin", "--problem", paths["aronsson"], "--out", str(tmp / "o7")]) == 0

    def test_verify_absolute_exit_codes(self, problems):
        paths, tmp = problems
        assert run(["verify-absolute", "--problem", paths["linear1d"], "--trials", "6",
                    "--out", str(tmp / "o8")]) == 0
        assert run(["verify-absolute", "--problem", paths["parabola"], "--trials", "6",
                    "--out", str(tmp / "o9")]) == 1
        rep = _report(tmp / "o9", "verify-absolute")
        assert rep["results"]["witness"] is not None

    def test_verify_rank_one_exit_codes(self, problems):
        paths, tmp = problems
        assert run(["verify-rank-one", "--problem", paths["linear1d"], "--trials", "4",
                    "--out", str(tmp / "r0")]) == 0
        assert run(["verify-rank-one", "--problem", paths["parabola"], "--trials", "4",
                    "--out", str(tmp / "r1")]) == 1

    def test_verify_normal_exit_codes(self, problems, tmp_path):
        _, tmp = problems
        graph = {
            "n": 1, "N": 2,
            "domain": {"lo": [0.0], "hi": [1.0], "resolution": [33]},
            "H": "dirichlet",
            "u": ["x1", "0.0"],
        }
        # the value-penalising density wants the second component at 0, but u sits at 5,
        # and normal variations (free on the boundary) can lower it
        offset = {
            "n": 1, "N": 2,
            "domain": {"lo": [0.0], "hi": [1.0], "resolution": [33]},
            "H": "P11^2 + P21^2 + eta2^2",
            "u": ["x1", "5.0"],
        }
        pg = tmp_path / "graph.json"
        pg.write_text(json.dumps(graph))
        po = tmp_path / "offset.json"
        po.write_text(json.dumps(offset))
        assert run(["verify-normal", "--problem", str(pg), "--trials", "6",
                    "--amplitude", "0.5", "--out", str(tmp / "n0")]) == 0
        assert run(["verify-normal", "--problem", str(po), "--trials", "8",
                    "--amplitude", "0.5", "--out", str(tmp / "n1")]) == 1

    def test_stationarity_exit_codes(self, problems):
        paths, tmp = problems
        assert run(["stationarity", "--problem", paths["linear1d"], "--basis-size", "10",
                    "--out", str(tmp / "s0")]) == 0
        # argmax of the parabola is the endpoints, where odd sine modes pull negative
        assert run(["stationarity", "--problem", paths["parabola"], "--basis-size", "10",
                    "--out", str(tmp / "s1")]) == 1

    def test_measure_exit_codes(self, problems):
        paths, tmp = problems
        assert run(["measure", "--problem", paths["linear1d"], "--basis-size", "10",
                    "--tol", "1e-10", "--out", str(tmp / "m0")]) == 0
        assert run(["measure", "--problem", paths["linear1d"], "--measure", "dirac:64",
                    "--basis-size", "10", "--tol", "1e-10", "--out", str(tmp / "m1")]) == 1


    @pytest.mark.parametrize("argv, option", [
        (["verify-absolute", "--trials", "-5"], "--trials"),
        (["verify-rank-one", "--trials", "-3"], "--trials"),
        (["verify-normal", "--trials", "-2"], "--trials"),
        (["verify-absolute", "--trials", "0"], "--trials"),
        (["verify-rank-one", "--trials", "2.5"], "--trials"),
        (["stationarity", "--basis-size", "-4"], "--basis-size"),
        (["measure", "--basis-size", "0"], "--basis-size"),
        (["verify-absolute", "--amplitude", "nan"], "--amplitude"),
        (["verify-rank-one", "--amplitude", "inf"], "--amplitude"),
        (["verify-normal", "--amplitude", "0"], "--amplitude"),
        (["verify-absolute", "--amplitude", "-1"], "--amplitude"),
        (["verify-absolute", "--amplitude", "big"], "--amplitude"),
    ])
    def test_counts_and_amplitudes_out_of_range_are_exit_2(self, problems, capsys, argv, option):
        # at the parent "--trials -5" exited 0 with a worst violation of -Infinity, which is not
        # JSON, and "--amplitude nan" failed later as a non-finite density
        paths, tmp = problems
        out = tmp / "out_of_range"
        assert run([*argv, "--problem", paths["linear1d"], "--out", str(out)]) == 2
        reason = "a whole number >= 1" if option != "--amplitude" else "a finite number > 0"
        assert f"argument {option}: must be {reason}, got '{argv[2]}'" in capsys.readouterr().err
        assert not out.exists()

    def test_smallest_counts_and_amplitudes_are_accepted(self, problems):
        paths, tmp = problems
        for argv in (["verify-absolute", "--trials", "1", "--amplitude", "1e-3"],
                     ["verify-rank-one", "--trials", "1"], ["stationarity", "--basis-size", "1"],
                     ["measure", "--basis-size", "1", "--tol", "1e-10"],
                     ["argmax", "--delta", "0"], ["residual", "--tol", "0"],
                     ["verify-normal", "--seed", "0", "--trials", "1", "--tol", "0"],
                     ["flow", "--x0", "0", "--xi", "1", "--dt", "1e-3", "--tmax", "1e-3"],
                     ["lp", "--p-schedule", "2", "--max-iter", "1", "--tol-opt", "0"]):
            assert run([*argv, "--problem", paths["linear1d"], "--out", str(tmp / f"small_{argv[0]}")]) == 0

    @pytest.mark.parametrize("command, option, value", [
        ("flow", "--dt", "0"), ("flow", "--dt", "-1"), ("flow", "--dt", "nan"),
        ("flow", "--tmax", "-1"), ("flow", "--tmax", "nan"),
        ("argmax", "--delta", "-1"), ("argmax", "--delta", "nan"), ("danskin", "--delta", "nan"),
        ("residual", "--tol", "-1"), ("residual", "--tol", "nan"), ("stationarity", "--tol", "-5"),
        ("lp", "--max-iter", "-3"), ("lp", "--tol-opt", "nan"),
        ("verify-absolute", "--seed", "-1"),
    ])
    def test_numeric_options_out_of_range_are_exit_2(self, problems, capsys, command, option, value):
        # at the parent "flow --dt 0" exited 0 with a one-point trajectory, "argmax --delta nan"
        # with no nodes, "residual --tol -1" was a verdict failure and "lp --max-iter -3" reported
        # -3 iterations
        paths, tmp = problems
        out = tmp / "out_of_range"
        required = {"flow": ["--x0", "0.5,0.5", "--xi", "1"], "danskin": ["--phi", "x1*(1-x1)*x2*(1-x2)"]}
        argv = [command, *required.get(command, []), option, value, "--problem", paths["small2d"], "--out", str(out)]
        assert run(argv) == 2
        reason = {"--dt": "a finite number > 0", "--tmax": "a finite number > 0", "--max-iter": "a whole number >= 1",
                  "--seed": "a whole number >= 0"}.get(option, "a finite number >= 0")
        assert f"argument {option}: must be {reason}, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["verify-rank-one", "--directions", "1,2"], "rank-one direction 1 has 2 entries"),
        (["verify-rank-one", "--directions", "1;1,2,3"], "rank-one direction 2 has 3 entries"),
        (["flow", "--x0", "0.5,0.5", "--xi", "1,2"], "direction xi has 2 entries"),
    ])
    def test_direction_of_the_wrong_length_is_exit_2(self, problems, argv, message):
        # at the parent "--directions 1,2" passed, scoring two-component variations of a
        # one-component map, and "flow --xi 1,2" failed with numpy's matmul message
        paths, tmp = problems
        out = tmp / "direction"
        assert run([*argv, "--problem", paths["small2d"], "--out", str(out)]) == 2
        error = {"type": "ValueError", "message": message + "; the map has N = 1 components"}
        assert _report(out, argv[0])["error"] == error

    @pytest.mark.parametrize("argv, message", [
        (["verify-rank-one", "--directions", "a"], "--directions entry 'a' is not a number"),
        (["verify-rank-one", "--directions", "0"], "rank-one direction 1 is zero; it must be nonzero"),
        (["verify-rank-one", "--directions", "1;0"], "rank-one direction 2 is zero; it must be nonzero"),
        (["flow", "--x0", "1.5,x", "--xi", "1"], "--x0 entry 'x' is not a number"),
        (["flow", "--x0", "0.5,0.5", "--xi", ""], "--xi entry '' is not a number"),
        (["residual", "--points", "0.5,0.5;0.5,z"], "--points entry 'z' is not a number"),
        (["lp", "--p-schedule", "2,x"], "--p-schedule entry 'x' is not a number"),
        (["measure", "--measure", "dirac:a,1"], "--measure entry 'a' is not an integer"),
        (["measure", "--measure", "dirac:100,100"], "measure atom (100, 100) is not a node of the (9, 9) grid"),
        (["measure", "--measure", "dirac:1"], "measure atom (1,) is not a node of the (9, 9) grid"),
        (["measure", "--measure", "dirac:4,-1"], "measure atom (4, -1) is not a node of the (9, 9) grid"),
        (["residual", "--points", "0.5,0.5;0.25"], "--points point 2 has 1 entries; point 1 has 2"),
        (["flow", "--x0", "0.5", "--xi", "1"], "start point x0 has 1 entries; the region has dimension n = 2"),
        (["verify-rank-one", "--directions", "nan"], "rank-one direction 1 is not finite"),
        (["verify-rank-one", "--directions", "1;inf"], "rank-one direction 2 is not finite"),
        (["flow", "--x0", "0.5,0.5", "--xi", "nan"], "direction xi is not finite: [nan]"),
        (["flow", "--x0", "0.5,0.5", "--xi", "inf"], "direction xi is not finite: [inf]"),
        (["flow", "--x0", "nan,0.5", "--xi", "1"], "start point x0 is not finite: [nan, 0.5]"),
        (["flow", "--x0", "0.5,inf", "--xi", "1"], "start point x0 is not finite: [0.5, inf]"),
    ])
    def test_a_bad_entry_of_a_structured_option_is_named(self, problems, argv, message):
        # at the parent the non-numbers gave a bare "could not convert string to float" or int()
        # message, a zero direction had no index, a node off the grid was reported as lying
        # outside the argmax set, ragged --points gave numpy's inhomogeneous-shape message,
        # a short --x0 named neither the option nor the start point, a non-finite rank-one
        # direction was rendered into a variation that failed to parse, and a non-finite --xi
        # or --x0 was blamed on the density or on the subdomain
        paths, tmp = problems
        out = tmp / "structured"
        assert run([*argv, "--problem", paths["small2d"], "--out", str(out)]) == 2
        assert _report(out, argv[0])["error"] == {"type": "ValueError", "message": message}


# (subcommand, option) pairs that the parser once registered for every subcommand
# but that these subcommands never read; each must now be refused.
REMOVED_OPTIONS = [
    *((cmd, "--seed") for cmd in ("parse-check", "energy", "argmax", "danskin", "residual", "flow",
                                  "maxmin", "stationarity", "measure", "lp")),
    *((cmd, "--delta") for cmd in ("parse-check", "energy", "residual", "flow", "maxmin",
                                   "verify-absolute", "verify-rank-one", "verify-normal", "lp")),
    *((cmd, "--tol") for cmd in ("parse-check", "energy", "argmax", "danskin", "flow", "maxmin", "lp")),
    *((cmd, "--points") for cmd in ("parse-check", "energy", "argmax", "danskin", "flow", "maxmin",
                                    "verify-absolute", "verify-rank-one", "verify-normal",
                                    "stationarity", "measure", "lp")),
]
REQUIRED = {"danskin": ["--phi", "x1"], "flow": ["--x0", "0.2", "--xi", "1"]}
OPTION_VALUE = {"--seed": "3", "--delta": "0.1", "--tol": "1e-3", "--points": "0.5"}


# u's kink line x1 = 0 lies outside the subdomain [0.25, 0.75]^2
KINK_OUTSIDE = {
    "n": 2, "N": 2,
    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "resolution": [17, 17]},
    "H": "dirichlet",
    "u": ["abs(x1)^(4/3) + x2", "2*(abs(x1)^(4/3) + x2)"],
    "subdomain": {"lo": [0.25, 0.25], "hi": [0.75, 0.75]},
}


class TestSubdomainScan:
    COMMANDS = [
        ["parse-check"], ["energy"], ["argmax"], ["danskin", "--phi", "x1; x2"],
        ["residual"], ["residual", "--variant", "full"], ["residual", "--points", "0.5,0.5;0.375,0.625"],
        ["flow", "--x0", "0.5,0.5", "--xi", "1,0"], ["maxmin"],
        ["verify-absolute", "--trials", "5"], ["verify-rank-one", "--trials", "5"], ["verify-normal"],
        ["stationarity", "--basis-size", "10"], ["measure", "--measure", "dirac:14,12", "--basis-size", "10"],
        ["lp", "--p-schedule", "2,4"],
    ]

    def test_a_singular_line_outside_the_subdomain_changes_only_its_count(self, tmp_path):
        # Declaring the kink line gives the singular set of a whole-box scan: every payload
        # but parse-check's count is that problem's, and verify-normal, which reads u at
        # every box node, scans the nodes outside the subdomain itself.
        declared = dict(KINK_OUTSIDE, singular=[{"axis": 0, "value": 0.0}])
        for name, spec in (("scanned", KINK_OUTSIDE), ("declared", declared)):
            (tmp_path / f"{name}.json").write_text(json.dumps(spec))
        for argv in self.COMMANDS:
            reports = {}
            for name in ("scanned", "declared"):
                out = tmp_path / f"{name}_{'_'.join(argv)}"
                code = run(argv + ["--problem", str(tmp_path / f"{name}.json"), "--out", str(out)])
                rep = _report(out, argv[0])
                reports[name] = code, rep.get("results"), rep.get("error")
            if argv == ["parse-check"]:
                assert reports["scanned"][1]["singular_nodes"] == 0
                assert reports["declared"][1]["singular_nodes"] == 17
                reports["declared"][1]["singular_nodes"] = 0
            assert reports["scanned"] == reports["declared"], argv
            if argv == ["verify-normal"]:
                code, results, _ = reports["scanned"]
                assert code == 0 and results["trials"] == 20 and results["pass"] is True

    @pytest.mark.parametrize("argv", [
        ["residual", "--points", "0.5,0.5"],
        ["residual", "--points", "0.375,0.625;0.5,0.5"],
        ["flow", "--x0", "0.5,0.5", "--xi", "1,0"],
    ])
    def test_a_point_where_u_is_singular_is_named(self, tmp_path, argv):
        # the kink line x1 = 0.5 crosses the subdomain: its nodes are masked, but an
        # explicit point and the flow's start evaluate u there
        spec = dict(KINK_OUTSIDE, u=["abs(x1 - 0.5)^(4/3) + x2", "2*(abs(x1 - 0.5)^(4/3) + x2)"])
        (tmp_path / "kink.json").write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert run(argv + ["--problem", str(tmp_path / "kink.json"), "--out", str(out)]) == 2
        assert _report(out, argv[0])["error"] == {
            "type": "SingularityError", "message": "abs evaluated at its kink (0) at point (0.5, 0.5)"}


class TestProblemFile:
    def test_one_call_reads_the_problem_file_once(self, problems, monkeypatch):
        import builtins
        import io

        paths, tmp = problems
        problem = Path(paths["aronsson"]).resolve()
        reads = []

        def counted(opener):
            def wrapper(file, *args, **kwargs):
                if isinstance(file, (str, os.PathLike)) and Path(file).resolve() == problem:
                    reads.append(file)
                return opener(file, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(builtins, "open", counted(builtins.open))
        monkeypatch.setattr(io, "open", counted(io.open))
        assert run(["energy", "--problem", paths["aronsson"], "--out", str(tmp / "once")]) == 0
        assert len(reads) == 1

    def test_a_grid_problem_finds_its_csv_from_another_working_directory(self, tmp_path, monkeypatch):
        from linfvar import DomainBox, GridMap, write_grid_csv

        data, elsewhere = tmp_path / "data", tmp_path / "elsewhere"
        data.mkdir(), elsewhere.mkdir()
        box = DomainBox((0.0,), (1.0,), (9,))
        write_grid_csv(data / "u.csv", GridMap(box, box.axis_coords(0)[None, :] ** 2))
        spec = {"n": 1, "N": 1, "domain": {"lo": [0.0], "hi": [1.0], "resolution": [9]},
                "H": "dirichlet", "u": {"grid": "u.csv"}}
        (data / "prob.json").write_text(json.dumps(spec))
        monkeypatch.chdir(elsewhere)
        for problem in ("../data/prob.json", str(data / "prob.json")):
            assert run(["energy", "--problem", problem, "--out", "out"]) == 0
            assert _report(Path("out"), "energy")["results"]["sup_energy"] == pytest.approx(4.0)

    def test_a_load_error_still_reports_the_digest(self, tmp_path):
        from linfvar import problem_digest

        spec = dict(BAD_EXPR)
        (tmp_path / "bad.json").write_text(json.dumps(spec))
        assert run(["energy", "--problem", str(tmp_path / "bad.json"), "--out", str(tmp_path / "o")]) == 2
        rep = _report(tmp_path / "o", "energy")
        assert rep["error"]["type"] == "ParseError"
        assert rep["problem_digest"] == problem_digest(spec)


class TestOptions:
    def test_parser_offers_sixty_pairs(self):
        (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        pairs = {(name, flag) for name, p in sub.choices.items()
                 for action in p._actions for flag in action.option_strings if flag not in ("-h", "--help")}
        assert len(pairs) == 60
        assert len(set(REMOVED_OPTIONS)) == 38 and not pairs & set(REMOVED_OPTIONS)

    @pytest.mark.parametrize("command, flag", REMOVED_OPTIONS)
    def test_an_option_the_subcommand_does_not_read_is_exit_2(self, problems, capsys, command, flag):
        paths, tmp = problems
        out = tmp / "refused"
        argv = [command, "--problem", paths["linear1d"], *REQUIRED.get(command, []),
                flag, OPTION_VALUE[flag], "--out", str(out)]
        assert run(argv) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["lp", "--tol", "1e-3"],            # not a prefix of --tol-opt any more
        ["residual", "--var", "full"],      # abbreviation of --variant
        ["verify-absolute", "--tri", "3"],  # abbreviation of --trials
    ])
    def test_options_must_be_spelled_in_full(self, problems, capsys, argv):
        paths, tmp = problems
        assert run([*argv, "--problem", paths["linear1d"], "--out", str(tmp / "abbrev")]) == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def _assert_plain(obj, path):
    """Only values that json writes as they are: no numpy scalar or array anywhere."""
    if type(obj) is dict:
        for key, value in obj.items():
            assert type(key) is str, f"{path}: key {key!r}"
            _assert_plain(value, f"{path}.{key}")
    elif type(obj) in (list, tuple):
        for i, value in enumerate(obj):
            _assert_plain(value, f"{path}[{i}]")
    else:
        assert type(obj) in (str, int, float, bool, type(None)), f"{path}: {type(obj).__name__}"


def test_reports_hold_plain_values_only(problems, tmp_path, monkeypatch):
    """Walks each report as built, before json writes it, for every subcommand."""
    paths, tmp = problems
    offset = {"n": 1, "N": 2, "domain": {"lo": [0.0], "hi": [1.0], "resolution": [33]},
              "H": "P11^2 + P21^2 + eta2^2", "u": ["x1", "5.0"]}
    (tmp_path / "offset.json").write_text(json.dumps(offset))
    lp_spec = dict(LINEAR_1D, domain={"lo": [-1.0], "hi": [1.0], "resolution": [11]})
    (tmp_path / "lp.json").write_text(json.dumps(lp_spec))
    A, P = paths["aronsson"], paths["parabola"]
    calls = [
        (0, ["parse-check", "--problem", A]),
        (0, ["energy", "--problem", A]),
        (0, ["argmax", "--problem", P, "--delta", "1e-9"]),
        (0, ["danskin", "--problem", P, "--phi", "1 - x1^2", "--delta", "1e-9"]),
        (0, ["residual", "--problem", A, "--variant", "full"]),
        (0, ["residual", "--problem", A, "--points", "1.3,1.7;1.5,1.2", "--tol", "1e-6"]),
        (0, ["flow", "--problem", paths["linear1d"], "--x0", "0.2", "--xi", "1", "--dt", "0.05"]),
        (1, ["maxmin", "--problem", P]),
        (1, ["verify-absolute", "--problem", P, "--trials", "6", "--seed", "0"]),
        (1, ["verify-rank-one", "--problem", P, "--trials", "4", "--directions", "1"]),
        (1, ["verify-normal", "--problem", str(tmp_path / "offset.json"), "--trials", "8",
             "--amplitude", "0.5", "--tol", "0"]),
        (1, ["stationarity", "--problem", paths["linear1d"], "--psi", "x1*(1 - x1^2)"]),
        (1, ["stationarity", "--problem", P, "--basis-size", "10", "--delta", "1e-9"]),
        (0, ["measure", "--problem", paths["linear1d"], "--basis-size", "10", "--tol", "1e-10"]),
        (1, ["measure", "--problem", paths["linear1d"], "--measure", "dirac:64", "--basis-size", "10"]),
        (0, ["lp", "--problem", str(tmp_path / "lp.json"), "--p-schedule", "2,4", "--max-iter", "200"]),
    ]
    written = []

    class Spy:
        loads = staticmethod(json.loads)

        @staticmethod
        def dumps(obj, **kw):
            written.append(obj)
            return json.dumps(obj, **kw)

    monkeypatch.setattr(cli, "json", Spy)
    for i, (code, argv) in enumerate(calls):
        assert run(argv + ["--out", str(tmp / f"plain{i}")]) == code, argv
        report = written[-1]
        assert "error" not in report, argv
        _assert_plain(report["parameters"], f"{argv[0]} parameters")
        _assert_plain(report["results"], f"{argv[0]} results")
        if argv[0].startswith("verify-"):
            assert report["results"]["witness"] is not None
    assert len(written) == len(calls)


# Each subcommand's results keys, and those of its per-entry lists.  argmax, maxmin, measure,
# the verdicts and the lp stages report the fields of the library's result objects.
_VERDICT_KEYS = {"pass", "worst_violation", "witness", "trials", "vacuous"}
RESULT_KEYS = {
    "parse-check": {"n", "N", "hamiltonian", "depends_on_eta", "depends_on_x", "map_kind", "singular_nodes"},
    "energy": {"sup_energy"},
    "argmax": {"sup_value", "delta", "nodes"},
    "danskin": {"plus", "minus"},
    "residual": {"variant", "count", "max_norm", "mean_norm", "tolerance", "points", "norms",
                 "projection_drops", "rank_counts"},
    "flow": {"exited", "exit_time", "exit_point", "steps", "evaluations", "H_drift", "trajectory_csv"},
    "maxmin": {"sup_interior", "max_boundary", "inf_interior", "min_boundary", "tol_grid",
               "max_principle", "min_principle"},
    "verify-absolute": _VERDICT_KEYS,
    "verify-rank-one": _VERDICT_KEYS,
    "verify-normal": _VERDICT_KEYS,
    "stationarity": {"per_psi", "argmax_size"},
    "measure": {"worst", "scale", "per_psi", "atoms", "tolerance"},
    "lp": {"stages"},
}
ENTRY_KEYS = {
    "stationarity": {"max_val", "min_val", "K_size", "k_fraction", "statement_ii", "statement_iii"},
    "lp": {"p_energy", "e_inf", "e_inf_interior", "grad_norm", "iters", "evals", "hess_products",
           "flat_steps", "status", "p", "residual_norm", "solution_csv"},
}


def test_result_keys_of_every_subcommand(problems):
    paths, tmp = problems
    extra = {"danskin": ["--phi", "1 - x1^2"], "flow": ["--x0", "0.2", "--xi", "1", "--dt", "0.05"],
             "verify-absolute": ["--trials", "2"], "verify-rank-one": ["--trials", "2"],
             "verify-normal": ["--trials", "2"], "stationarity": ["--basis-size", "4"],
             "measure": ["--basis-size", "4"], "lp": ["--p-schedule", "2,4", "--max-iter", "200"]}
    assert set(RESULT_KEYS) == set(cli._OPTIONS)
    for command, keys in RESULT_KEYS.items():
        out = tmp / f"keys_{command}"
        assert run([command, "--problem", paths["linear1d"], *extra.get(command, []), "--out", str(out)]) in (0, 1)
        results = _report(out, command)["results"]
        assert set(results) == keys, command
        if command in ENTRY_KEYS:
            entries = results["per_psi" if command == "stationarity" else "stages"]
            assert entries and all(set(entry) == ENTRY_KEYS[command] for entry in entries), command


def test_danskin_scans_one_argmax_set(problems, monkeypatch):
    """Both one-sided derivatives come from one argmax set, wherever it is looked up."""
    from linfvar import energy, varcheck

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    for module in (energy, varcheck):
        monkeypatch.setattr(module, "argmax_set", counted(module.argmax_set))
    paths, tmp = problems
    assert run(["danskin", "--problem", paths["aronsson"], "--phi", "x1 - x2", "--out", str(tmp / "d1")]) == 0
    assert len(calls) == 1


class TestReports:
    def test_danskin_values(self, problems):
        from linfvar import ClosedFormMap, danskin_derivative, load_problem

        paths, tmp = problems
        assert run(["danskin", "--problem", paths["linear1d"], "--phi", "1 - x1^2",
                    "--out", str(tmp / "d")]) == 0
        rep = _report(tmp / "d", "danskin")
        assert rep["results"]["plus"] == 4.0
        assert rep["results"]["minus"] == -4.0
        # the one argmax-set scan gives both one-sided derivatives bit for bit
        source = "sin(3*x1) + x1^2"
        assert run(["danskin", "--problem", paths["linear1d"], "--phi", source,
                    "--out", str(tmp / "d2")]) == 0
        results = _report(tmp / "d2", "danskin")["results"]
        prob = load_problem(Path(paths["linear1d"]))
        phi = ClosedFormMap.from_expressions([source], 1)
        for side in ("plus", "minus"):
            assert results[side] == danskin_derivative(prob.u, prob.H, phi, prob.subdomain, side)
        assert results["plus"] > results["minus"]

    def test_energy_and_argmax(self, problems):
        paths, tmp = problems
        assert run(["energy", "--problem", paths["aronsson"], "--out", str(tmp / "e")]) == 0
        rep = _report(tmp / "e", "energy")
        assert rep["results"]["sup_energy"] == pytest.approx((32 / 9) * 2 ** (2 / 3), rel=1e-12)
        assert run(["argmax", "--problem", paths["parabola"], "--delta", "1e-9",
                    "--out", str(tmp / "a")]) == 0
        rep = _report(tmp / "a", "argmax")
        assert rep["results"]["nodes"] == [[0], [64]]

    def test_flow_writes_trajectory(self, problems):
        paths, tmp = problems
        assert run(["flow", "--problem", paths["linear1d"], "--x0", "0.2", "--xi", "1.0",
                    "--dt", "0.01", "--tmax", "5.0", "--out", str(tmp / "f")]) == 0
        rep = _report(tmp / "f", "flow")
        assert rep["results"]["exited"] is True
        assert rep["results"]["exit_time"] == pytest.approx(0.4, abs=1e-4)
        assert rep["results"]["evaluations"] == 242  # as in test_flow's count on this fixture
        csv_lines = (tmp / "f" / "trajectory.csv").read_text().splitlines()
        assert csv_lines[0] == "t,gamma_1,H"

    def test_stationarity_and_measure(self, problems):
        paths, tmp = problems
        assert run(["stationarity", "--problem", paths["linear1d"], "--basis-size", "10",
                    "--out", str(tmp / "s")]) == 0
        rep = _report(tmp / "s", "stationarity")
        assert all(r["statement_ii"] and r["statement_iii"] for r in rep["results"]["per_psi"])
        assert run(["measure", "--problem", paths["linear1d"], "--basis-size", "10",
                    "--tol", "1e-10", "--out", str(tmp / "m")]) == 0

    def test_lp_writes_solutions(self, problems):
        paths, tmp = problems
        spec = dict(LINEAR_1D)
        spec["domain"] = {"lo": [-1.0], "hi": [1.0], "resolution": [11]}
        p = tmp / "lp_prob.json"
        p.write_text(json.dumps(spec))
        assert run(["lp", "--problem", str(p), "--p-schedule", "2,4",
                    "--out", str(tmp / "lp")]) == 0
        rep = _report(tmp / "lp", "lp")
        assert len(rep["results"]["stages"]) == 2
        assert (tmp / "lp" / "solution_p2.csv").exists()
        assert (tmp / "lp" / "solution_p4.csv").exists()

    def test_residual_explicit_points(self, problems):
        paths, tmp = problems
        assert run(["residual", "--problem", paths["aronsson"],
                    "--points", "1.3,1.7;1.5,1.2", "--out", str(tmp / "rp")]) == 0
        rep = _report(tmp / "rp", "residual")
        assert rep["results"]["count"] == 2
        # scalar map with nonzero gradient: H_P has rank 1 at both points
        assert rep["results"]["rank_counts"] == {"1": 2}

    def test_grid_csv_problem_end_to_end(self, problems, tmp_path):
        _, tmp = problems
        import numpy as np
        from linfvar import ClosedFormMap, DomainBox, write_grid_csv
        box = DomainBox((1.0, 1.0), (2.0, 2.0), (17, 17))
        gm = ClosedFormMap.from_expressions(["abs(x1)^(4/3) - abs(x2)^(4/3)"], n=2).sample(box)
        write_grid_csv(tmp_path / "u.csv", gm)
        spec = {
            "n": 2, "N": 1,
            "domain": {"lo": [1.0, 1.0], "hi": [2.0, 2.0], "resolution": [17, 17]},
            "H": "dirichlet",
            "u": {"grid": "u.csv"},
        }
        p = tmp_path / "gridprob.json"
        p.write_text(json.dumps(spec))
        assert run(["residual", "--problem", str(p), "--tol", "1e-2",
                    "--out", str(tmp / "gr")]) == 0
        rep = _report(tmp / "gr", "residual")
        assert 0 < rep["results"]["max_norm"] <= 1e-2

    def test_schema_fields(self, problems):
        paths, tmp = problems
        run(["energy", "--problem", paths["linear1d"], "--out", str(tmp / "sf")])
        rep = _report(tmp / "sf", "energy")
        for key in ("schema_version", "command", "problem_digest", "parameters",
                    "results", "pass", "wall_time_s"):
            assert key in rep
        assert rep["schema_version"] == 1

    def test_reports_record_the_versions(self, problems):
        import numpy as np
        import linfvar
        paths, tmp = problems
        for argv, out in ((["energy", "--problem", paths["linear1d"]], tmp / "ve"),
                          (["parse-check", "--problem", paths["bad"]], tmp / "vp")):
            run(argv + ["--out", str(out)])
            rep = _report(out, argv[0])
            assert rep["versions"] == {"linfvar": linfvar.__version__, "numpy": np.__version__,
                                       "python": "%d.%d.%d" % sys.version_info[:3]}
            assert "versions" not in rep.get("results", {})


class TestDeterminism:
    def test_repeated_runs_identical_payloads(self, problems):
        paths, tmp = problems
        for cmd, extra in [
            ("verify-absolute", ["--trials", "5", "--seed", "11"]),
            ("verify-rank-one", ["--trials", "3", "--seed", "11"]),
            ("stationarity", ["--basis-size", "8"]),
        ]:
            out_a, out_b = tmp / f"{cmd}_a", tmp / f"{cmd}_b"
            assert run([cmd, "--problem", paths["linear1d"], *extra, "--out", str(out_a)]) \
                == run([cmd, "--problem", paths["linear1d"], *extra, "--out", str(out_b)])
            ra = _report(out_a, cmd)
            rb = _report(out_b, cmd)
            ra.pop("wall_time_s"), rb.pop("wall_time_s")
            ra["parameters"].pop("out"), rb["parameters"].pop("out")
            assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
