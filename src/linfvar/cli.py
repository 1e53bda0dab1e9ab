"""Batch front door: load a problem file, dispatch to the library, emit reports.

Every subcommand writes ``<out>/<command>_report.json`` with a stable
schema (``schema_version`` 1): command, problem digest, parameters,
results payload, pass flag and wall time.  Identical inputs and seeds
produce identical results payloads; wall time is the only varying field.

Exit codes: 0 computed and all verdicts pass, 1 computed with verdict
failures (witness in the report), 2 input/parse error or any other
exception raised before a verdict (reported, never a traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import energy, flow, lp_approx, operators, varcheck
from .exprlang import ParseError
from .problem import (
    ClosedFormMap,
    Problem,
    load_problem,
    problem_digest,
    write_grid_csv,
)

__all__ = ["main", "run"]

SCHEMA_VERSION = 1

COMMANDS = (
    "parse-check", "energy", "argmax", "danskin", "residual", "flow", "maxmin",
    "verify-absolute", "verify-rank-one", "verify-normal", "stationarity",
    "measure", "lp",
)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="linfvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--problem", required=True, help="problem file (JSON)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--delta", type=float, default=None, help="argmax admission tolerance")
        p.add_argument("--tol", type=float, default=None, help="verdict tolerance")
        p.add_argument("--out", default=".", help="output directory for reports/artifacts")
        p.add_argument("--points", default="grid",
                       help='"grid" or explicit points "x1,x2;y1,y2;..."')
        if name == "danskin":
            p.add_argument("--phi", required=True, help="variation expression(s), ; separated")
        if name == "stationarity":
            p.add_argument("--psi", default=None, help="test field expression(s), ; separated")
            p.add_argument("--basis-size", type=int, default=50)
        if name == "measure":
            p.add_argument("--measure", default="uniform",
                           help='"uniform" or "dirac:i,j,..." (node multi-index)')
            p.add_argument("--basis-size", type=int, default=50)
        if name == "residual":
            p.add_argument("--variant", choices=("full", "reduced"), default="reduced")
        if name == "flow":
            p.add_argument("--x0", required=True, help="start point, comma separated")
            p.add_argument("--xi", required=True, help="direction in R^N, comma separated")
            p.add_argument("--dt", type=float, default=None)
            p.add_argument("--tmax", type=float, default=None)
        if name in ("verify-absolute", "verify-rank-one", "verify-normal"):
            p.add_argument("--trials", type=int, default=20)
            p.add_argument("--amplitude", type=float, default=1.0)
        if name == "verify-rank-one":
            p.add_argument("--directions", default=None,
                           help='directions "1,0;0,1" (default: coordinate axes)')
        if name == "lp":
            p.add_argument("--p-schedule", default="2,4,8,16,32")
            p.add_argument("--max-iter", type=int, default=5000)
            p.add_argument("--tol-opt", type=float, default=1e-9)
    return parser


def _parse_vector(text: str) -> np.ndarray:
    return np.asarray([float(c) for c in text.split(",")], dtype=float)


def _parse_points(text: str) -> np.ndarray:
    return np.asarray([[float(c) for c in chunk.split(",")] for chunk in text.split(";")])


def _phi_map(text: str, n: int, N: int) -> ClosedFormMap:
    sources = [s.strip() for s in text.split(";")]
    if len(sources) != N:
        raise ValueError(f"variation needs {N} component expression(s), got {len(sources)}")
    return ClosedFormMap.from_expressions(sources, n)


def _dispatch(args, prob: Problem, out_dir: Path):
    """Returns (results dict, passed bool)."""
    cmd = args.command
    u, H, O = prob.u, prob.H, prob.subdomain
    if cmd == "parse-check":
        return {
            "n": prob.n,
            "N": prob.N,
            "hamiltonian": "dirichlet" if H.builtin else "expression",
            "depends_on_eta": H.depends_on_eta,
            "depends_on_x": H.depends_on_x,
            "map_kind": type(u).__name__,
            "singular_nodes": int(O.singular.sum()),
        }, True
    if cmd == "energy":
        return {"sup_energy": energy.sup_energy(u, H, O)}, True
    if cmd == "argmax":
        aset = energy.argmax_set(u, H, O, args.delta)
        return {
            "sup_value": aset.sup_value,
            "delta": aset.delta,
            "nodes": aset.nodes.tolist(),
        }, True
    if cmd == "danskin":
        phi = _phi_map(args.phi, prob.n, prob.N)
        return {
            "plus": energy.danskin_derivative(u, H, phi, O, "plus", args.delta),
            "minus": energy.danskin_derivative(u, H, phi, O, "minus", args.delta),
        }, True
    if cmd == "residual":
        tol = 1e-8 if args.tol is None else args.tol
        if args.points == "grid":
            rf = operators.residual_field(u, H, O, variant=args.variant)
        else:
            rf = operators.residual_field(u, H, O, variant=args.variant,
                                          points=_parse_points(args.points))
        norms = rf.norms
        results = {
            "variant": rf.variant,
            "count": int(norms.size),
            "max_norm": float(np.max(norms)),
            "mean_norm": float(np.mean(norms)),
            "tolerance": tol,
            "points": rf.points.tolist(),
            "norms": norms.tolist(),
            "projection_drops": int(rf.drop_flags.sum()),
            "rank_counts": {str(r): int(c) for r, c in zip(*np.unique(rf.ranks, return_counts=True))},
        }
        return results, bool(np.max(norms) <= tol)
    if cmd == "flow":
        x0 = _parse_vector(args.x0)
        xi = _parse_vector(args.xi)
        traj = flow.integrate_flow(u, H, x0, xi, O, dt=args.dt, t_max=args.tmax)
        csv_path = out_dir / "trajectory.csv"
        flow.write_trajectory_csv(csv_path, traj)
        return {
            "exited": traj.exited,
            "exit_time": traj.exit_time,
            "exit_point": None if traj.exit_point is None else traj.exit_point.tolist(),
            "steps": int(traj.times.size),
            "evaluations": traj.evaluations,
            "H_drift": float(np.ptp(traj.H_values)),
            "trajectory_csv": csv_path.name,
        }, True
    if cmd == "maxmin":
        rep = flow.verify_maxmin(u, H, O)
        return {
            "sup_interior": rep.sup_interior,
            "max_boundary": rep.max_boundary,
            "inf_interior": rep.inf_interior,
            "min_boundary": rep.min_boundary,
            "tol_grid": rep.tol_grid,
            "max_principle": rep.max_principle,
            "min_principle": rep.min_principle,
        }, rep.passes
    if cmd == "verify-absolute":
        v = varcheck.absolute_minimiser_test(
            u, H, O, trials=args.trials, amplitude=args.amplitude,
            tol=args.tol, seed=args.seed)
        return _verdict_results(v), v.passed
    if cmd == "verify-rank-one":
        if args.directions:
            dirs = [_parse_vector(c) for c in args.directions.split(";")]
        else:
            dirs = [np.eye(prob.N)[a] for a in range(prob.N)]
        v = varcheck.rank_one_test(
            u, H, O, dirs, trials=args.trials, amplitude=args.amplitude,
            tol=args.tol, seed=args.seed)
        return _verdict_results(v), v.passed
    if cmd == "verify-normal":
        v = varcheck.normal_variation_test(
            u, H, O, trials=args.trials, amplitude=args.amplitude,
            tol=args.tol, seed=args.seed)
        return _verdict_results(v), v.passed
    if cmd == "stationarity":
        if args.psi:
            basis = [_phi_map(args.psi, prob.n, prob.N)]
        else:
            basis = varcheck.make_test_basis(O, prob.N, args.basis_size)
        reports = varcheck.stationarity_scans(u, H, O, basis, delta=args.delta, tol=args.tol)
        results = {
            "per_psi": [
                {
                    "max_val": r.max_val,
                    "min_val": r.min_val,
                    "K_size": int(r.K.shape[0]),
                    "k_fraction": r.k_fraction,
                    "statement_ii": r.statement_ii,
                    "statement_iii": r.statement_iii,
                }
                for r in reports
            ],
            "argmax_size": int(reports[0].argmax_nodes.shape[0]) if reports else 0,
        }
        passed = all(r.statement_ii and r.statement_iii for r in reports)
        return results, passed
    if cmd == "measure":
        if args.measure == "uniform":
            sigma = varcheck.DiscreteMeasure.uniform(O)
        elif args.measure.startswith("dirac:"):
            node = tuple(int(c) for c in args.measure.split(":", 1)[1].split(","))
            sigma = varcheck.DiscreteMeasure.dirac(node)
        else:
            raise ValueError(f"unknown measure spec {args.measure!r}")
        basis = varcheck.make_test_basis(O, prob.N, args.basis_size)
        rep = varcheck.measure_divergence_residual(u, H, O, sigma, basis, delta=args.delta)
        tol = 1e-8 if args.tol is None else args.tol
        passed = rep.worst <= tol * (1.0 + rep.scale)
        return {
            "worst": rep.worst,
            "scale": rep.scale,
            "per_psi": rep.per_psi,
            "atoms": len(sigma.atoms),
            "tolerance": tol,
        }, passed
    if cmd == "lp":
        schedule = [float(p) for p in getattr(args, "p_schedule").split(",")]
        settings = lp_approx.OptimizerSettings(max_iter=args.max_iter, tol_opt=args.tol_opt)
        g = lp_approx.boundary_values_from_map(u, O)
        lp_prob = lp_approx.LpProblem(H=H, O=O, boundary_values=g,
                                      p=schedule[0], settings=settings)
        stages = lp_approx.p_continuation(lp_prob, schedule)
        results = {"stages": []}
        for st in stages:
            csv_path = out_dir / f"solution_p{st.p:g}.csv"
            write_grid_csv(csv_path, st.solution)
            entry = {k: v for k, v in vars(st).items() if k != "solution"}
            results["stages"].append(dict(entry, solution_csv=csv_path.name))
        return results, True
    raise ValueError(f"unknown subcommand {cmd!r}")  # pragma: no cover


def _verdict_results(v: varcheck.Verdict) -> dict:
    return {
        "pass": v.passed,
        "worst_violation": v.worst_violation,
        "witness": v.witness,
        "trials": v.trials,
        "vacuous": v.vacuous,
    }


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    parameters = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("command",) and v is not None
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "parameters": _jsonable(parameters),
    }
    try:
        raw = json.loads(Path(args.problem).read_text())
        report["problem_digest"] = problem_digest(raw)
        prob = load_problem(Path(args.problem))  # path form keeps relative CSV paths anchored
        results, passed = _dispatch(args, prob, out_dir)
    except Exception as exc:  # anything before a verdict is an input error: exit 2 with a report
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError):
            report["error"]["offset"] = exc.offset
        report["pass"] = False
        report["wall_time_s"] = time.monotonic() - started
        path = out_dir / f"{args.command}_report.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=1))
        print(f"linfvar {args.command}: error: {exc}", file=sys.stderr)
        return 2
    report["results"] = _jsonable(results)
    report["pass"] = bool(passed)
    report["wall_time_s"] = time.monotonic() - started
    path = out_dir / f"{args.command}_report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=1))  # every entry is plain already
    print(f"linfvar {args.command}: {'pass' if passed else 'FAIL'} ({path})")
    return 0 if passed else 1


def main() -> None:
    sys.exit(run())
