#!/usr/bin/env python3
"""Cost of one Hessian-vector product, of one Newton step's curvature and of one cell-jet pair
in the p-power solver.

The problem is the p-power energy of H = |P|^2 on [1,2]^2 with boundary
data from the Aronsson solution |x1|^(4/3) - |x2|^(4/3), at p = 8, and
the iterate is that solution sampled at the nodes.  "Assembly" is one
``_CellScheme.curvature`` call, what ``lp_minimize`` pays once per Newton
step before CG; "product" is one call of the product it returns, what CG
pays per iteration; "jets" is one ``cell_jets`` and one ``scatter`` call,
what every energy evaluation and gradient pays.

Timings use stdlib ``timeit``.  The rounds interleave every timed
statement, and each figure is the best of ``--rounds`` rounds of
``--number`` calls, so that a busy spell on a shared host inflates no
single figure.

Usage: python scripts/lp_product_timing.py [--number 20] [--rounds 20] [--resolutions 17,65,129]
"""

import argparse
import sys
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from linfvar import (  # noqa: E402
    ClosedFormMap,
    DomainBox,
    Hamiltonian,
    LpProblem,
    Subdomain,
    boundary_values_from_map,
    jets_at_nodes,
)
from linfvar.lp_approx import _CellScheme  # noqa: E402

EXPR = "abs(x1)^(4/3) - abs(x2)^(4/3)"
P = 8.0


def newton_point(resolution: int):
    """The cell scheme, the sampled Aronsson solution on its window, and there the energy, jets
    and normalised gradient."""
    box = DomainBox((1.0, 1.0), (2.0, 2.0), (resolution, resolution))
    O = Subdomain.whole(box)
    u = ClosedFormMap.from_expressions([EXPR], n=2)
    prob = LpProblem(H=Hamiltonian.dirichlet(2, 1), O=O, boundary_values=boundary_values_from_map(u, O), p=P)
    scheme = _CellScheme(prob)
    W = jets_at_nodes(u, box, np.argwhere(O.mask), order=1).value.reshape((1,) + box.shape)[(slice(None),) + scheme.window]
    F, hvals, ham = scheme.energy_and_jets(W, order=2)
    return scheme, W, (F, hvals, ham, scheme.normalised_gradient(F, hvals, ham))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--number", type=int, default=20, help="calls per timed run")
    ap.add_argument("--rounds", type=int, default=20, help="timed runs per statement; the best is reported")
    ap.add_argument("--resolutions", default="17,65,129")
    args = ap.parse_args()
    timed = {}
    for res in (int(r) for r in args.resolutions.split(",")):
        scheme, W, point = newton_point(res)
        product, _ = scheme.curvature(*point)
        v = np.random.default_rng(0).normal(size=point[3].size)
        timed[res, "assembly"] = lambda scheme=scheme, point=point: scheme.curvature(*point)
        timed[res, "product"] = lambda product=product, v=v: product(v)
        ham = point[2]
        timed[res, "jets"] = lambda scheme=scheme, W=W, ham=ham: (
            scheme.cell_jets(W), scheme.scatter(ham.eta_grad, ham.P_grad))
    best = {key: float("inf") for key in timed}
    for _ in range(args.rounds):
        for key, fn in timed.items():
            best[key] = min(best[key], timeit.timeit(fn, number=args.number) / args.number)
    print(f"{'grid':>6} {'product us':>11} {'assembly ms':>12} {'jets us':>8}")
    for res in dict.fromkeys(r for r, _ in timed):
        print(f"{f'{res}^2':>6} {best[res, 'product'] * 1e6:>11.1f} {best[res, 'assembly'] * 1e3:>12.3f}"
              f" {best[res, 'jets'] * 1e6:>8.1f}")


if __name__ == "__main__":
    main()
