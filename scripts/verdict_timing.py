#!/usr/bin/env python3
"""Cost of the sampled minimality verdicts, of building a test basis and of scoring it.

The problem is the closed-form-verdicts benchmark's A problem at seed 1,
drawn with ``bench/workloads.py`` (read only) as the session draws it:
the Aronsson solution |x1|^(4/3) - |x2|^(4/3) on an 81^2 grid of
[1, 2.25]^2, H = P11^2 + P12^2, and a box subdomain of 33^2 nodes.  The
timed calls are the session's: ``absolute_minimiser_test`` with 200
trials, ``rank_one_test`` along the coordinate axis with 100 trials, and
``stationarity_scans`` of the 50-field sine test basis, which includes
building that basis.  A row of its own times ``make_test_basis`` for the
50 fields alone, so that building the basis shows apart from the scan,
and ``measure_divergence_residual`` times the basis path's other caller:
the uniform measure on the subdomain against the same basis (built inside
the timed call, as the scan's is), with ``delta`` infinite so that the
argmax set admits every node the measure charges.  The next row is the
grid-vectorial benchmark's ``C verify-normal`` call at seed 1, drawn the
same way: ``normal_variation_test`` with 5 trials on the masked grid map
C, whose reduced normal space has dimension one.  The last row times
one chunk of that call's scoring: a grid map of 7 fields (14 components)
over C's 33^2 box, built as ``normal_variation_test`` builds a chunk's
map (0 where C has a value, random field values at the nodes the verdict
places its fields at: not singular, and where C has a jet),
and its order-1 jets at the subdomain's evaluable nodes, which form only
its first derivatives.  The first two rows time
``load_problem`` of the closed-form-verdicts A and B problem files, which
every call of that session pays once: the A problem's pre-scan of u reads
the 33^2 nodes of its subdomain, the B problem's, which has no subdomain,
all 17^2 nodes of its box.

Timings use stdlib ``timeit``.  The rounds interleave every timed
statement, and each figure is the best of ``--rounds`` rounds of
``--number`` calls, in milliseconds per call, so that a busy spell on a
shared host inflates no single figure.

Usage: python scripts/verdict_timing.py [--number 3] [--rounds 10]
"""

import argparse
import math
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

from linfvar import (  # noqa: E402
    DiscreteMeasure,
    GridMap,
    absolute_minimiser_test,
    jets_at_nodes,
    load_problem,
    make_test_basis,
    measure_divergence_residual,
    normal_variation_test,
    rank_one_test,
    stationarity_scans,
)
from linfvar.problem import prescan_singularities  # noqa: E402

SEED = 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--number", type=int, default=3, help="calls per timed run")
    ap.add_argument("--rounds", type=int, default=10, help="timed runs per statement; the best is reported")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        verdicts, grid = Path(tmp) / "verdicts", Path(tmp) / "grid"
        workloads.generate("closed-form-verdicts", SEED, verdicts)
        workloads.generate("grid-vectorial", SEED, grid)
        prob = load_problem(verdicts / "A.json")
        u, H, O = prob.u, prob.H, prob.subdomain
        C = load_problem(grid / "C.json")
        box = C.box
        chunk = np.full((C.N, 7) + box.shape, np.nan)
        chunk[..., C.u.valid] = 0.0
        fields = ~C.subdomain.singular & ~prescan_singularities(C.u, box, np.argwhere(~C.subdomain.mask))
        chunk[..., fields] = np.random.default_rng(SEED).normal(size=(C.N, 7, int(fields.sum())))
        chunk = chunk.reshape((-1,) + box.shape)
        probe_nodes = C.subdomain.evaluable_nodes()
        timed = {
            "load_problem, A problem": lambda: load_problem(verdicts / "A.json"),
            "load_problem, B problem": lambda: load_problem(verdicts / "B.json"),
            "absolute_minimiser_test, 200 trials":
                lambda: absolute_minimiser_test(u, H, O, trials=200, seed=SEED),
            "rank_one_test, 100 trials":
                lambda: rank_one_test(u, H, O, [[1.0]], trials=100, seed=SEED),
            "make_test_basis, 50 fields":
                lambda: make_test_basis(O, prob.N, 50),
            "stationarity_scans, 50 fields":
                lambda: stationarity_scans(u, H, O, make_test_basis(O, prob.N, 50)),
            "measure_divergence_residual, 50 fields":
                lambda: measure_divergence_residual(u, H, O, DiscreteMeasure.uniform(O),
                                                    make_test_basis(O, prob.N, 50), delta=math.inf),
            "normal_variation_test, 5 trials":
                lambda: normal_variation_test(C.u, C.H, C.subdomain, trials=5, amplitude=1.0, seed=SEED),
            "order-1 jets of a 7-field 33^2 chunk map":
                lambda: jets_at_nodes(GridMap(box, chunk), box, probe_nodes, order=1),
        }
        best = {key: float("inf") for key in timed}
        for _ in range(args.rounds):
            for key, fn in timed.items():
                best[key] = min(best[key], timeit.timeit(fn, number=args.number) / args.number * 1e3)
    width = max(len(key) for key in timed)
    print(f"{'call':<{width}} {'ms':>8}")
    for key, ms in best.items():
        print(f"{key:<{width}} {ms:>8.2f}")


if __name__ == "__main__":
    main()
