"""Batch front door: load a problem file, dispatch to the library, emit reports.

Every subcommand writes ``<out>/<command>_report.json`` with a stable
schema (``schema_version`` 1): command, problem digest, parameters (the
options the subcommand takes, as parsed), the linfvar, numpy and Python
versions, results payload, pass flag and wall time.  Identical inputs and
seeds produce identical results payloads; wall time is the only varying
field.

Exit codes: 0 computed and all verdicts pass, 1 computed with verdict
failures (witness in the report), 2 input/parse error or any other
exception raised before a verdict (reported, never a traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, energy, flow, lp_approx, operators, varcheck
from .exprlang import ParseError, parse_field
from .problem import (
    ClosedFormMap,
    Problem,
    load_problem,
    problem_digest,
    write_grid_csv,
)

__all__ = ["main", "run"]

SCHEMA_VERSION = 1


def _whole_number(minimum: int):
    """An option type: a whole number >= ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be a whole number >= {minimum}, got {text!r}")
        return value
    return parse


_count = _whole_number(1)  # --trials, --basis-size, --max-iter
_seed = _whole_number(0)  # --seed


def _finite_number(positive: bool):
    """An option type: a finite number > 0 (``positive``) or >= 0."""
    bound = "> 0" if positive else ">= 0"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
            raise argparse.ArgumentTypeError(f"must be a finite number {bound}, got {text!r}")
        return value
    return parse


_positive = _finite_number(True)  # --amplitude, --dt, --tmax
_nonnegative = _finite_number(False)  # --delta, --tol, --tol-opt


_DELTA = ("--delta", {"type": _nonnegative, "help": "argmax admission tolerance"})
_TOL = ("--tol", {"type": _nonnegative, "help": "verdict tolerance"})
_VERIFY = (
    ("--seed", {"type": _seed, "default": 0}),
    _TOL,
    ("--trials", {"type": _count, "default": 20}),
    ("--amplitude", {"type": _positive, "default": 1.0}),
)
_BASIS_SIZE = ("--basis-size", {"type": _count, "default": 50})

# The options that _dispatch reads for each subcommand, besides --problem and --out.
_OPTIONS = {
    "parse-check": (),
    "energy": (),
    "argmax": (_DELTA,),
    "danskin": (("--phi", {"required": True, "help": "variation expression(s), ; separated"}), _DELTA),
    "residual": (
        _TOL,
        ("--points", {"default": "grid", "help": '"grid" or explicit points "x1,x2;y1,y2;..."'}),
        ("--variant", {"choices": ("full", "reduced"), "default": "reduced"}),
    ),
    "flow": (
        ("--x0", {"required": True, "help": "start point, comma separated"}),
        ("--xi", {"required": True, "help": "direction in R^N, comma separated"}),
        ("--dt", {"type": _positive}),
        ("--tmax", {"type": _positive}),
    ),
    "maxmin": (),
    "verify-absolute": _VERIFY,
    "verify-rank-one": _VERIFY + (
        ("--directions", {"help": 'directions "1,0;0,1" (default: coordinate axes)'}),
    ),
    "verify-normal": _VERIFY,
    "stationarity": (
        _DELTA, _TOL, ("--psi", {"help": "test field expression(s), ; separated"}), _BASIS_SIZE,
    ),
    "measure": (
        _DELTA, _TOL,
        ("--measure", {"default": "uniform", "help": '"uniform" or "dirac:i,j,..." (node multi-index)'}),
        _BASIS_SIZE,
    ),
    "lp": (
        ("--p-schedule", {"default": "2,4,8,16,32"}),
        ("--max-iter", {"type": _count, "default": 5000}),
        ("--tol-opt", {"type": _nonnegative, "default": 1e-9}),
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Options must be spelled in full: an abbreviation could name another
    subcommand's option, so it is refused like any unknown option.
    """
    parser = argparse.ArgumentParser(prog="linfvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _OPTIONS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--problem", required=True, help="problem file (JSON)")
        p.add_argument("--out", default=".", help="output directory for reports/artifacts")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def _parse_vector(text: str, option: str, kind=float) -> np.ndarray:
    """The comma-separated entries of ``text``, given to ``option``, as numbers of ``kind``."""
    values = []
    for entry in text.split(","):
        try:
            values.append(kind(entry))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"{option} entry {entry!r} is not {noun}") from None
    return np.asarray(values)


def _parse_points(text: str, option: str) -> np.ndarray:
    """The semicolon-separated points of ``text``, given to ``option``, all of one length."""
    points = [_parse_vector(chunk, option) for chunk in text.split(";")]
    for j, point in enumerate(points[1:], 2):
        if point.size != points[0].size:
            raise ValueError(f"{option} point {j} has {point.size} entries; point 1 has {points[0].size}")
    return np.asarray(points)


def _phi_map(text: str, option: str, n: int, N: int) -> ClosedFormMap:
    """The map whose semicolon-separated components ``text`` gives to ``option``; a parse error
    names the component, and its offset counts from the component's first character."""
    sources = text.split(";")
    if len(sources) != N:
        raise ValueError(f"{option} needs {N} component expression(s), got {len(sources)}")
    return ClosedFormMap([parse_field(src, (n, 1), f"{option} component {k}") for k, src in enumerate(sources, 1)], n)


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
        return dict(vars(aset), nodes=aset.nodes.tolist()), True
    if cmd == "danskin":
        # both one-sided derivatives are the extremes of one scan of the argmax set
        scan = varcheck.stationarity_scan(u, H, O, _phi_map(args.phi, "--phi", prob.n, prob.N), delta=args.delta)
        return {"plus": scan.max_val, "minus": scan.min_val}, True
    if cmd == "residual":
        tol = 1e-8 if args.tol is None else args.tol
        points = None if args.points == "grid" else _parse_points(args.points, "--points")
        rf = operators.residual_field(u, H, O, variant=args.variant, points=points)
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
        x0 = _parse_vector(args.x0, "--x0")
        xi = _parse_vector(args.xi, "--xi")
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
        return vars(rep), rep.passes
    if cmd == "verify-absolute":
        v = varcheck.absolute_minimiser_test(
            u, H, O, trials=args.trials, amplitude=args.amplitude,
            tol=args.tol, seed=args.seed)
        return _verdict_results(v), v.passed
    if cmd == "verify-rank-one":
        if args.directions is not None:  # an empty value is refused as an entry, not taken as unset
            dirs = [_parse_vector(c, "--directions") for c in args.directions.split(";")]
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
        if args.psi is not None:
            basis = [_phi_map(args.psi, "--psi", prob.n, prob.N)]
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
            node = _parse_vector(args.measure[len("dirac:"):], "--measure", int)
            sigma = varcheck.DiscreteMeasure.dirac(node)
        else:
            raise ValueError(f"unknown measure spec {args.measure!r}")
        basis = varcheck.make_test_basis(O, prob.N, args.basis_size)
        rep = varcheck.measure_divergence_residual(u, H, O, sigma, basis, delta=args.delta)
        tol = 1e-8 if args.tol is None else args.tol
        passed = rep.worst <= tol * (1.0 + rep.scale)
        return dict(vars(rep), atoms=len(sigma.weights), tolerance=tol), passed
    if cmd == "lp":
        schedule = _parse_vector(args.p_schedule, "--p-schedule").tolist()
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
    """The verdict's fields, ``passed`` reported as ``pass``."""
    results = dict(vars(v))
    results["pass"] = results.pop("passed")
    return results


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k != "command" and v is not None},
        "versions": {"linfvar": __version__, "numpy": np.__version__,
                     "python": "%d.%d.%d" % sys.version_info[:3]},
    }
    error = None
    try:
        path = Path(args.problem)
        raw = json.loads(path.read_text())
        report["problem_digest"] = problem_digest(raw)
        prob = load_problem(raw, base=path.parent)  # relative CSV paths stay anchored to the file
        report["results"], passed = _dispatch(args, prob, out_dir)
    except Exception as exc:  # anything before a verdict is an input error: exit 2 with a report
        error, passed = exc, False
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError):
            report["error"]["offset"] = exc.offset
    report["pass"] = bool(passed)
    report["wall_time_s"] = time.monotonic() - started
    path = out_dir / f"{args.command}_report.json"
    # one line: without indent, json runs its C encoder; _dispatch builds plain values
    path.write_text(json.dumps(report, sort_keys=True))
    if error is not None:
        print(f"linfvar {args.command}: error: {error}", file=sys.stderr)
        return 2
    print(f"linfvar {args.command}: {'pass' if passed else 'FAIL'} ({path})")
    return 0 if passed else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
