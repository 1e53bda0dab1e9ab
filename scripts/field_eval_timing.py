#!/usr/bin/env python3
"""Cost of one field evaluation of the characteristic flow, and the flow's evaluation count.

One evaluation is what ``integrate_flow`` pays per Dormand-Prince stage:
an order-1 jet of the map at the point, then the order-1 Hamiltonian jet
at that jet.  The map is the Aronsson solution |x1|^(4/3) - |x2|^(4/3)
and the density is H = P11^2 + P12^2, both parsed expressions.

Timings use stdlib ``timeit``.  The rounds interleave every timed
statement, and each figure is the best of ``--rounds`` rounds of
``--number`` calls, in microseconds per call, so that a busy spell on a
shared host inflates no single figure.

Then it runs the eight flows of the closed-form-verdicts benchmark session
at seed 1, drawn with ``bench/workloads.py`` (read only) as the session
draws them, and prints their total field evaluations and largest density
drift ``H_drift``.  Both are deterministic.

Usage: python scripts/field_eval_timing.py [--number 200] [--rounds 50]
"""

import argparse
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

from linfvar import ClosedFormMap, Hamiltonian, hamiltonian_jet, integrate_flow, load_problem, map_jet  # noqa: E402

U_EXPR = "abs(x1)^(4/3) - abs(x2)^(4/3)"
H_EXPR = "P11^2 + P12^2"
FLOW_WORKLOAD, FLOW_SEED = "closed-form-verdicts", 1


def workload_flows():
    """(total field evaluations, largest H drift) of the workload session's eight flows."""
    with tempfile.TemporaryDirectory() as tmp:
        params = workloads.generate(FLOW_WORKLOAD, FLOW_SEED, Path(tmp))["params"]
        prob = load_problem(Path(tmp) / "A.json")
    evaluations, drift = 0, 0.0
    for x0 in params["flow_starts"]:
        traj = integrate_flow(prob.u, prob.H, x0, [1.0], prob.subdomain)
        evaluations += traj.evaluations
        drift = max(drift, float(np.ptp(traj.H_values)))
    return evaluations, drift


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--number", type=int, default=200, help="calls per timed run")
    ap.add_argument("--rounds", type=int, default=50, help="timed runs per statement; the best is reported")
    args = ap.parse_args()
    u = ClosedFormMap.from_expressions([U_EXPR], n=2)
    H = Hamiltonian.from_expression(H_EXPR, 2, 1)
    batches = {
        "one point": np.array([1.4, 1.3]),
        "8 points": np.stack([np.linspace(1.1, 1.9, 8), np.linspace(1.2, 1.8, 8)]),
    }
    timed = {}
    for label, y in batches.items():
        jet = map_jet(u, y, order=1)

        def field(y=y):
            j = map_jet(u, y, order=1)
            return hamiltonian_jet(H, j.x, j.value, j.gradient)

        timed[label, "field"] = field
        timed[label, "map"] = lambda y=y: map_jet(u, y, order=1)
        timed[label, "H"] = lambda jet=jet: hamiltonian_jet(H, jet.x, jet.value, jet.gradient)
    best = {key: float("inf") for key in timed}
    for _ in range(args.rounds):
        for key, fn in timed.items():
            best[key] = min(best[key], timeit.timeit(fn, number=args.number) / args.number * 1e6)
    print(f"{'batch':>10} {'field eval us':>14} {'map_jet us':>11} {'hamiltonian_jet us':>19}")
    for label in batches:
        print(f"{label:>10} {best[label, 'field']:>14.1f} {best[label, 'map']:>11.1f} {best[label, 'H']:>19.1f}")
    evaluations, drift = workload_flows()
    print(f"{FLOW_WORKLOAD} seed {FLOW_SEED}, eight flows: {evaluations} field evaluations, "
          f"max H_drift {drift:.2g}")


if __name__ == "__main__":
    main()
