#!/usr/bin/env python3
"""Cost of the library's layers: one named group of timed statements per layer.

The groups are ``flow``, ``lp``, ``rank`` and ``verdicts``; each one's
docstring below says what it times.  Timings use stdlib ``timeit``.  The
rounds interleave every timed statement of a group, and each figure is the
best of ``--rounds`` rounds of ``--number`` calls, so that a busy spell on a
shared host inflates no single figure.  Each group has its own default
``--number`` and ``--rounds``; the options, when given, apply to every
group named.

glibc raises its mmap threshold when a large block is freed, so without a
pin the arrays of one row would come from the heap or from fresh pages
depending on what the rows before it freed.  The script therefore pins the
threshold at glibc's default, 128 KiB: when ``MALLOC_MMAP_THRESHOLD_`` is
not set, it sets it and re-executes itself once, so that every row maps its
large arrays afresh and the rows of two revisions compare fairly.

Usage: python scripts/layer_timing.py [flow] [lp] [rank] [verdicts] [--number N] [--rounds R]
"""

import os
import sys

if __name__ == "__main__" and "MALLOC_MMAP_THRESHOLD_" not in os.environ:
    os.environ["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)  # read by glibc when the process starts
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import math  # noqa: E402
import tempfile  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

from linfvar import (  # noqa: E402
    ClosedFormMap,
    DiscreteMeasure,
    DomainBox,
    GridMap,
    Hamiltonian,
    LpProblem,
    Subdomain,
    absolute_minimiser_test,
    aronsson_residual,
    boundary_values_from_map,
    hamiltonian_jet,
    integrate_flow,
    jets_at_nodes,
    load_problem,
    make_test_basis,
    map_jet,
    measure_divergence_residual,
    normal_variation_test,
    rank_one_test,
    residual_field,
    stationarity_scans,
)
from linfvar.linalg import rank_decision  # noqa: E402
from linfvar.lp_approx import _CellScheme  # noqa: E402
from linfvar.problem import prescan_singularities  # noqa: E402

ARONSSON = "abs(x1)^(4/3) - abs(x2)^(4/3)"
SEED = 1
P = 8.0
RESOLUTIONS = (17, 65, 129)
SHAPES = ((289, 1, 2), (1089, 2, 2), (4624, 2, 2), (200, 3, 3))
GRID_SIZES = (33, 65, 129)


def best(timed, number, rounds):
    """Seconds per call of each statement of ``timed``, the best of ``rounds`` interleaved
    rounds of ``number`` calls."""
    fastest = dict.fromkeys(timed, math.inf)
    for _ in range(rounds):
        for key, fn in timed.items():
            fastest[key] = min(fastest[key], timeit.timeit(fn, number=number) / number)
    return fastest


def flow(number, rounds):
    """Cost of one field evaluation of the characteristic flow, and the flow's evaluation count.

    One evaluation is what ``integrate_flow`` pays per Dormand-Prince stage:
    an order-1 jet of the map at the point, then the order-1 Hamiltonian jet
    at that jet.  The map is the Aronsson solution |x1|^(4/3) - |x2|^(4/3)
    and the density is H = P11^2 + P12^2, both parsed expressions.  Figures
    are in microseconds per call.

    Then it runs the eight flows of the closed-form-verdicts benchmark session
    at seed 1, drawn with ``bench/workloads.py`` (read only) as the session
    draws them, and prints their total field evaluations and largest density
    drift ``H_drift``.  Both are deterministic.
    """
    u = ClosedFormMap.from_expressions([ARONSSON], n=2)
    H = Hamiltonian.from_expression("P11^2 + P12^2", 2, 1)
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
    us = {key: s * 1e6 for key, s in best(timed, number, rounds).items()}
    print(f"{'batch':>10} {'field eval us':>14} {'map_jet us':>11} {'hamiltonian_jet us':>19}")
    for label in batches:
        print(f"{label:>10} {us[label, 'field']:>14.1f} {us[label, 'map']:>11.1f} {us[label, 'H']:>19.1f}")
    with tempfile.TemporaryDirectory() as tmp:
        params = workloads.generate("closed-form-verdicts", SEED, Path(tmp))["params"]
        prob = load_problem(Path(tmp) / "A.json")
    evaluations, drift = 0, 0.0
    for x0 in params["flow_starts"]:
        traj = integrate_flow(prob.u, prob.H, x0, [1.0], prob.subdomain)
        evaluations += traj.evaluations
        drift = max(drift, float(np.ptp(traj.H_values)))
    print(f"closed-form-verdicts seed {SEED}, eight flows: {evaluations} field evaluations, "
          f"max H_drift {drift:.2g}")


def newton_point(resolution: int):
    """The cell scheme, the sampled Aronsson solution on its window, and the curvature's
    arguments there: the energy, jets, normalised gradient and p."""
    box = DomainBox((1.0, 1.0), (2.0, 2.0), (resolution, resolution))
    O = Subdomain.whole(box)
    u = ClosedFormMap.from_expressions([ARONSSON], n=2)
    prob = LpProblem(H=Hamiltonian.dirichlet(2, 1), O=O, boundary_values=boundary_values_from_map(u, O), p=P)
    scheme = _CellScheme(prob)
    W = jets_at_nodes(u, box, np.argwhere(O.mask), order=1).value.reshape((1,) + box.shape)[(slice(None),) + scheme.window]
    F, hvals, ham = scheme.energy_and_jets(W, P, order=2)
    return scheme, W, (F, hvals, ham, scheme.normalised_gradient(F, hvals, ham, P), P)


def lp(number, rounds):
    """Cost of one Hessian-vector product, of one Newton step's curvature and of one cell-jet
    pair in the p-power solver, at 17^2, 65^2 and 129^2.

    The problem is the p-power energy of H = |P|^2 on [1,2]^2 with boundary
    data from the Aronsson solution |x1|^(4/3) - |x2|^(4/3), at p = 8, and
    the iterate is that solution sampled at the nodes.  "Assembly" is one
    ``_CellScheme.curvature`` call, what ``lp_minimize`` pays once per Newton
    step before CG; "product" is one call of the product it returns, what CG
    pays per iteration; "jets" is one ``cell_jets`` and one ``scatter`` call,
    what every energy evaluation and gradient pays.
    """
    timed = {}
    for res in RESOLUTIONS:
        scheme, W, point = newton_point(res)
        product, _ = scheme.curvature(*point)
        v = np.random.default_rng(0).normal(size=point[3].size)
        timed[res, "assembly"] = lambda scheme=scheme, point=point: scheme.curvature(*point)
        timed[res, "product"] = lambda product=product, v=v: product(v)
        ham = point[2]
        timed[res, "jets"] = lambda scheme=scheme, W=W, ham=ham: (
            scheme.cell_jets(W), scheme.scatter(ham.eta_grad, ham.P_grad))
    s = best(timed, number, rounds)
    print(f"{'grid':>6} {'product us':>11} {'assembly ms':>12} {'jets us':>8}")
    for res in RESOLUTIONS:
        print(f"{f'{res}^2':>6} {s[res, 'product'] * 1e6:>11.1f} {s[res, 'assembly'] * 1e3:>12.3f}"
              f" {s[res, 'jets'] * 1e6:>8.1f}")


def masked_rotating_map(resolution: int):
    """The map (sin(x1+x2), cos(x1+x2)) sampled on [0,1]^2 at resolution^2 nodes with the
    centre node masked, and the whole box as its subdomain, singular where it has no jet."""
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (resolution, resolution))
    values = ClosedFormMap.from_expressions(["sin(x1+x2)", "cos(x1+x2)"], n=2).sample(box).values.copy()
    values[:, resolution // 2, resolution // 2] = np.nan
    u = GridMap(box, values)
    return u, Subdomain.whole(box, singular=~u.jet_valid)


def rank(number, rounds):
    """Cost of one batched rank decision, ``linalg.rank_decision`` against LAPACK's SVD, and of
    the grid residuals that rank H_P, full and reduced, at 33^2, 65^2 and 129^2.

    The batches are the shapes the residuals decompose: 289 1x2 matrices (the
    H_P field of a scalar map on a 17^2 grid), 1089 and 4624 2x2 matrices (a
    vectorial map on 33^2 and 68^2 nodes), and 200 3x3 matrices.  Entries are
    standard normal, and every third matrix of a batch with N, n >= 2 is made
    rank 1, as H_P is at the rank-deficient nodes.  "svd" is one
    ``np.linalg.svd`` call with U, the LAPACK reference of the tests;
    "rotations" is one ``rank_decision`` call, which rotates rows instead.

    The grid rows time one ``residual_field`` call, "full" and "reduced", of
    H = |P|^2 on the map (sin(x1+x2), cos(x1+x2)) sampled on [0,1]^2 with
    its centre node masked, over the nodes with a jet.  H_P has rank 1 at
    every node, so every one takes the reduced projection: one pass of the
    shifted node-projector field per offset of the default eps-ball (two
    spacings).  The last row is one reduced ``aronsson_residual`` at the
    point (0.25, 0.5) of the 129^2 map, whose offset sums cover that node
    only.  The map's cached derivatives are formed before timing.
    """
    timed = {}
    for shape in SHAPES:
        rng = np.random.default_rng(0)
        A = rng.normal(size=shape)
        if min(shape[1:]) >= 2:
            A[::3] = A[::3, :, :1] * rng.normal(size=(len(A[::3]), 1, shape[2]))
        timed[shape, "svd"] = lambda A=A: np.linalg.svd(A)
        timed[shape, "rotations"] = lambda A=A: rank_decision(A)
    H = Hamiltonian.dirichlet(2, 2)
    for res in GRID_SIZES:
        u, O = masked_rotating_map(res)
        for variant in ("full", "reduced"):
            residual_field(u, H, O, variant=variant)
            timed[res, variant] = lambda u=u, O=O, variant=variant: residual_field(u, H, O, variant=variant)
    # u is the last map built, the 129^2 one
    timed["point"] = lambda u=u: aronsson_residual(u, H, [0.25, 0.5], variant="reduced")
    ms = {key: s * 1e3 for key, s in best(timed, number, rounds).items()}
    print(f"{'batch':>12} {'svd ms':>8} {'rotations ms':>13}")
    for shape in SHAPES:
        print(f"{'x'.join(map(str, shape)):>12} {ms[shape, 'svd']:>8.3f} {ms[shape, 'rotations']:>13.3f}")
    print(f"{'grid':>6} {'full residual ms':>17} {'reduced residual ms':>20}")
    for res in GRID_SIZES:
        print(f"{f'{res}^2':>6} {ms[res, 'full']:>17.2f} {ms[res, 'reduced']:>20.2f}")
    print(f"one-point reduced aronsson_residual at {GRID_SIZES[-1]}^2: {ms['point']:.3f} ms")


def verdicts(number, rounds):
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
    C, whose reduced normal space has dimension one.  The row after it times
    one chunk of that call's scoring: a grid map of 7 fields (14 components)
    over C's 33^2 box, built as ``normal_variation_test`` builds a chunk's
    map (0 where C has a value, random field values at the nodes the verdict
    places its fields at: not singular, and where C has a jet),
    and its order-1 jets at the subdomain's evaluable nodes, which form only
    its first derivatives.  The last row times ``rank_one_test`` with no
    random trials, so that the box bump each direction starts with shows
    alone.  It runs last because, placed among the other rows, its parse's
    allocations slowed the rows after it in each round.  The first two rows time
    ``load_problem`` of the closed-form-verdicts A and B problem files, which
    every call of that session pays once: the A problem's pre-scan of u reads
    the 33^2 nodes of its subdomain, the B problem's, which has no subdomain,
    all 17^2 nodes of its box.  Figures are in milliseconds per call.
    """
    with tempfile.TemporaryDirectory() as tmp:
        closed_form, grid = Path(tmp) / "closed-form", Path(tmp) / "grid"
        workloads.generate("closed-form-verdicts", SEED, closed_form)
        workloads.generate("grid-vectorial", SEED, grid)
        prob = load_problem(closed_form / "A.json")
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
            "load_problem, A problem": lambda: load_problem(closed_form / "A.json"),
            "load_problem, B problem": lambda: load_problem(closed_form / "B.json"),
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
            "rank_one_test, the box bump alone (0 trials)":
                lambda: rank_one_test(u, H, O, [[1.0]], trials=0, seed=SEED),
        }
        s = best(timed, number, rounds)
    width = max(len(key) for key in timed)
    print(f"{'call':<{width}} {'ms':>8}")
    for key, seconds in s.items():
        print(f"{key:<{width}} {seconds * 1e3:>8.2f}")


# name -> (group, default --number, default --rounds)
GROUPS = {"flow": (flow, 200, 50), "lp": (lp, 20, 20), "rank": (rank, 10, 7), "verdicts": (verdicts, 3, 10)}


def main():
    ap = argparse.ArgumentParser(description="Time the library's layers, one named group at a time.")
    ap.add_argument("groups", nargs="*", metavar="group", help=f"one of {', '.join(GROUPS)} (default: all)")
    ap.add_argument("--number", type=int, help="calls per timed run (default: the group's own)")
    ap.add_argument("--rounds", type=int, help="timed runs per statement; the best is reported (default: the group's own)")
    args = ap.parse_args()
    unknown = [name for name in args.groups if name not in GROUPS]
    if unknown:
        ap.error(f"unknown group {unknown[0]!r}; the groups are {', '.join(GROUPS)}")
    for name in args.groups or GROUPS:
        group, number, rounds = GROUPS[name]
        print(f"[{name}]")
        group(number if args.number is None else args.number, rounds if args.rounds is None else args.rounds)


if __name__ == "__main__":
    main()
