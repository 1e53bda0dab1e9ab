import json

import pytest

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
                       ("parabola", PARABOLA_1D), ("bad", BAD_EXPR)]:
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
    ])
    def test_mistyped_field_is_named(self, problems, tmp_path, path, bad):
        _, tmp = problems
        (tmp_path / "typo.json").write_text(json.dumps(dict(LINEAR_1D, **bad)))
        out = tmp / f"typo_{path}"
        assert run(["energy", "--problem", str(tmp_path / "typo.json"), "--out", str(out)]) == 2
        assert f"'{path}'" in _report(out, "energy")["error"]["message"]

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_non_finite_density_is_named_by_argmax_and_danskin(self, problems, tmp_path):
        _, tmp = problems
        spec = {"n": 1, "N": 1, "domain": {"lo": [0.0], "hi": [1.0], "resolution": [9]},
                "H": "exp(1000 * P11 * x1)", "u": ["x1"]}  # H = inf from node (6,) on
        (tmp_path / "overflow.json").write_text(json.dumps(spec))
        for command, extra in (("argmax", []), ("danskin", ["--phi", "x1"])):
            out = tmp / f"overflow_{command}"
            argv = [command, "--problem", str(tmp_path / "overflow.json"), "--out", str(out)]
            assert run(argv + extra) == 2
            assert "density not finite at node (6,)" in _report(out, command)["error"]["message"]

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


class TestReports:
    def test_danskin_values(self, problems):
        paths, tmp = problems
        assert run(["danskin", "--problem", paths["linear1d"], "--phi", "1 - x1^2",
                    "--out", str(tmp / "d")]) == 0
        rep = _report(tmp / "d", "danskin")
        assert rep["results"]["plus"] == 4.0
        assert rep["results"]["minus"] == -4.0

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
        assert rep["results"]["evaluations"] == 224  # as in test_flow's count on this fixture
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
