#!/usr/bin/env python3
"""p-power continuation on [1,2]^2 with boundary data from the explicit
|x|^(4/3) - |y|^(4/3) solution: the iterates approach the sup-energy
minimiser and the reduced critical-system residual drops stage by stage.
Exits 1 unless every stage ends `converged`.

Usage: python scripts/p_continuation_demo.py [--resolution 17] [--schedule 2,4,8,16,32]
"""

import argparse
import sys

from linfvar import (
    ClosedFormMap,
    DomainBox,
    Hamiltonian,
    LpProblem,
    OptimizerSettings,
    Subdomain,
    boundary_values_from_map,
    p_continuation,
)

EXPR = "abs(x1)^(4/3) - abs(x2)^(4/3)"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--resolution", type=int, default=17)
    ap.add_argument("--schedule", default="2,4,8,16,32")
    ap.add_argument("--max-iter", type=int, default=6000)
    args = ap.parse_args()
    box = DomainBox((1.0, 1.0), (2.0, 2.0), (args.resolution, args.resolution))
    O = Subdomain.whole(box)
    u = ClosedFormMap.from_expressions([EXPR], n=2)
    prob = LpProblem(
        H=Hamiltonian.dirichlet(2, 1),
        O=O,
        boundary_values=boundary_values_from_map(u, O),
        p=2.0,
        settings=OptimizerSettings(max_iter=args.max_iter, tol_opt=1e-8),
    )
    schedule = [float(p) for p in args.schedule.split(",")]
    print(f"{'p':>6} {'sup energy':>12} {'interior':>12} {'residual':>10} {'iters':>6} "
          f"{'evals':>6} {'hess':>6}  status")
    stages = p_continuation(prob, schedule)
    for st in stages:
        print(f"{st.p:>6g} {st.e_inf:>12.6f} {st.e_inf_interior:>12.6f} {st.residual_norm:>10.4f} "
              f"{st.iters:>6} {st.evals:>6} {st.hess_products:>6}  {st.status}")
    return 0 if all(st.status == "converged" for st in stages) else 1


if __name__ == "__main__":
    sys.exit(main())
