"""One benchmark process: repeated CLI sessions of one workload, optionally traced.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP threads
pinned to 1 and ``src`` on ``PYTHONPATH``.  It imports ``linfvar.cli``,
then runs the workload's session (every call through ``linfvar.cli.run``,
in order) again and again until ``--seconds`` have passed.  With
``--trace 1`` untraced and traced sessions alternate, so the tracing
overhead is measured in the same process.  Every call's report is checked
against its oracle and against the same call in the first session
(equal seeds must give identical results).  The summary is written as
JSON to ``--result``.

    python3 bench/session.py --info INFO.json --work DIR --seconds 30 --trace 0 --result OUT.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans as sp  # noqa: E402
import workloads  # noqa: E402

PHASES = ("residual", "verify_normal", "lp", "flow", "verdicts")


def _run_session(cli, calls, out_root: Path):
    """Run every call once; returns wall time, per-call (seconds, exit code, error)."""
    shutil.rmtree(out_root, ignore_errors=True)
    outcomes = []
    sink = io.StringIO()
    started = time.perf_counter()
    for i, call in enumerate(calls):
        t0 = time.perf_counter()
        error = None
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.run(call.argv + ["--out", str(out_root / f"{i:02d}")])
        except Exception as exc:  # a crash is a failed call, not a failed benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append((time.perf_counter() - t0, code, error))
    return time.perf_counter() - started, outcomes


def _harvest(calls, outcomes, out_root: Path, reference: dict, info: dict):
    """Check each call; returns (failed call count, messages, results by label, derived counts)."""
    failed = 0
    failures = []
    results = {}
    derived = Counter()
    for i, (call, (_, code, error)) in enumerate(zip(calls, outcomes)):
        out = out_root / f"{i:02d}"
        problems = [error] if error else []
        if code != call.expect_exit:
            problems.append(f"exit {code}, expected {call.expect_exit}")
        report_path = out / f"{call.argv[0]}_report.json"
        payload = None
        if report_path.exists():
            payload = json.loads(report_path.read_text()).get("results")
        if payload is None:
            problems.append("report has no results")
        else:
            # compared as canonical text, so NaN entries compare equal
            results[call.label] = json.dumps(payload, sort_keys=True)
            if call.label in reference and reference[call.label] != results[call.label]:
                problems.append("results differ from the first session with this seed")
            try:
                problems += call.check(payload, out)
                _count(call, payload, out, info, derived)
            except Exception as exc:  # a report the oracle cannot read is a failed call
                problems.append(f"oracle could not check the report: {type(exc).__name__}: {exc}")
        failed += bool(problems)
        failures += [f"{call.label}: {msg}" for msg in problems]
    return failed, failures, results, derived


def _count(call, payload, out: Path, info: dict, derived: Counter):
    """Deterministic per-layer counts that the reports carry."""
    cmd = call.argv[0]
    if cmd == "flow":
        derived["flow.rk4_steps"] += payload["steps"] - 1
    elif cmd == "verify-normal":
        derived["varcheck.normal_trials"] += int(call.argv[call.argv.index("--trials") + 1])
        derived["varcheck.normal_admissible"] += payload["trials"]
    elif cmd == "lp":
        for st in payload["stages"]:
            derived["lp_approx.iters"] += st["iters"]
            derived["lp_approx.stages"] += 1
            derived["lp_approx.converged"] += st["status"] == "converged"
        derived["lp_approx.u_err"] = workloads.lp_u_err(info["params"], out)


def layer_metrics(spans, derived: Counter) -> dict:
    """Per-layer metrics of one traced session from its spans and report counts."""
    self_s = sp.self_times(spans)
    layer_self = defaultdict(float)
    name_self = defaultdict(float)
    name_total = defaultdict(float)
    calls = Counter()
    points = defaultdict(list)
    samples = []
    nbytes = Counter()
    for span, own in zip(spans, self_s):
        name, layer, parent = span[sp.NAME], span[sp.LAYER], span[sp.PARENT]
        attrs = span[sp.ATTRS] or {}
        layer_self[layer] += own
        name_self[name] += own
        name_total[name] += span[sp.END] - span[sp.START]
        calls[name] += 1
        if name == "exprlang.eval_jet2" and "points" in attrs:
            points["exprlang"].append(attrs["points"])
        if name in sp.JET_ENTRIES and (parent < 0 or spans[parent][sp.NAME] not in sp.JET_ENTRIES):
            calls["problem.jet"] += 1
            if "points" in attrs:
                points["problem.jet"].append(attrs["points"])
        if name in sp.VARIATION_MAKERS:
            calls["varcheck.variations"] += 1
        if name == "linalg.reduced_nullspace_proj" and "samples" in attrs:
            samples.append(attrs["samples"])
        if "bytes" in attrs:
            nbytes[name] += attrs["bytes"]

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    steps = derived["flow.rk4_steps"]
    iters = derived["lp_approx.iters"]
    return {
        "exprlang.self_s": layer_self["exprlang"],
        "exprlang.eval_jet2.calls": calls["exprlang.eval_jet2"],
        "exprlang.points_per_call": mean(points["exprlang"]),
        "exprlang.parse.calls": calls["exprlang.parse"],
        "problem.self_s": layer_self["problem"],
        "problem.jet.calls": calls["problem.jet"],
        "problem.jet.points_per_call": mean(points["problem.jet"]),
        "problem.hamiltonian_jet.calls": calls["problem.hamiltonian_jet"],
        "problem.hamiltonian_jet.self_s": name_self["problem.hamiltonian_jet"],
        "problem.axis_derivative.calls": calls["problem.axis_derivative"],
        "problem.axis_derivative.self_s": name_self["problem.axis_derivative"],
        "problem.load_problem.s": name_total["problem.load_problem"],
        "problem.read_grid_csv.s": name_total["problem.read_grid_csv"],
        "problem.csv_bytes_read": nbytes["problem.read_grid_csv"],
        "problem.write_grid_csv.s": name_total["problem.write_grid_csv"],
        "problem.csv_bytes_written": nbytes["problem.write_grid_csv"],
        "linalg.self_s": layer_self["linalg"],
        "linalg.reduced_nullspace_proj.calls": calls["linalg.reduced_nullspace_proj"],
        "linalg.samples_per_proj": mean(samples),
        "linalg.proj_range_complement.calls": calls["linalg.proj_range_complement"],
        "operators.self_s": layer_self["operators"],
        "operators.aronsson_residual.calls": calls["operators.aronsson_residual"],
        "operators.residual_field.calls": calls["operators.residual_field"],
        "energy.self_s": layer_self["energy"],
        "energy.sup_energy.calls": calls["energy.sup_energy"],
        "varcheck.self_s": layer_self["varcheck"],
        "varcheck.variations.calls": calls["varcheck.variations"],
        "varcheck.normal_admissible_ratio": ratio(derived["varcheck.normal_admissible"],
                                                  derived["varcheck.normal_trials"]),
        "flow.self_s": layer_self["flow"],
        "flow.rk4_steps": steps,
        "flow.s_per_step": ratio(name_total["flow.integrate_flow"], steps),
        "lp_approx.self_s": layer_self["lp_approx"],
        "lp_approx.iters": iters,
        "lp_approx.s_per_iter": ratio(name_total["lp_approx.lp_minimize"], iters),
        "lp_approx.converged_ratio": ratio(derived["lp_approx.converged"], derived["lp_approx.stages"]),
        "lp_approx.u_err": derived["lp_approx.u_err"],
        "cli.self_s": layer_self["cli"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--info", required=True, help="parameters JSON written by run.py")
    parser.add_argument("--work", required=True, help="directory holding the generated inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import linfvar.cli as cli  # cli.run is looked up per call, so tracing can wrap it
    import_s = time.perf_counter() - t0

    info = json.loads(Path(args.info).read_text())
    calls = workloads.session_calls(info)
    work = Path(args.work).resolve()
    out_root = work / "out"
    os.chdir(work)  # the calls name their problem files relative to the work directory
    recorder = sp.SpanRecorder()
    modes = ("plain", "traced") if args.trace else ("plain",)
    reference = {}
    sessions = defaultdict(list)
    phase_s = defaultdict(list)
    layers = []
    failures = []
    missing = []
    attempted = failed = 0
    last_spans = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for mode in modes:
            if mode == "traced":
                missing = recorder.install()
            try:
                wall, outcomes = _run_session(cli, calls, out_root)
            finally:
                recorder.uninstall()
            bad, found, results, derived = _harvest(calls, outcomes, out_root, reference, info)
            reference = reference or results
            attempted += len(calls)
            failed += bad
            failures += found
            sessions[mode].append(wall)
            if mode == "traced":
                last_spans = recorder.take()
                layers.append(layer_metrics(last_spans, derived))
            else:
                phases = dict.fromkeys(PHASES, 0.0)
                for call, (seconds, _, _) in zip(calls, outcomes):
                    if call.phase:
                        phases[call.phase] += seconds
                for phase, seconds in phases.items():
                    phase_s[phase].append(seconds)
        # stop before a round that would end past the deadline, so a run
        # lasts about --seconds whatever the session length
        now = time.perf_counter()
        if now + (now - round_start) > started + args.seconds:
            break
    shutil.rmtree(out_root, ignore_errors=True)

    summary = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "session_s": sessions["plain"],
        "traced_session_s": sessions["traced"],
        "phase_s": {phase: statistics.median(v) for phase, v in phase_s.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing_targets": missing,
    }
    if layers:
        summary["layers"] = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        summary["layers"]["cli.import_s"] = import_s
        for phase, seconds in summary["phase_s"].items():
            summary["layers"][f"cli.{phase}_s"] = seconds
        summary["layers"]["trace.overhead_s"] = (statistics.median(sessions["traced"])
                                                 - statistics.median(sessions["plain"]))
        (work / "spans.json").write_text(json.dumps(last_spans))
    Path(args.result).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
