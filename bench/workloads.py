"""Seeded inputs, CLI call lists and analytic output oracles for the three workloads.

``generate`` draws a workload's parameters from the seed and writes its
problem files and grid CSVs into a work directory; the library sees only
these files.  ``session_calls`` turns the drawn parameters back into the
ordered list of ``linfvar`` CLI calls that make up one session, each with
its expected exit code, the phase its time is charged to and
an oracle that checks its report against closed-form answers.

This module imports numpy but never ``linfvar``: the oracles are
independent of the code they check.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

ARONSSON = "abs(x1)^(4/3) - abs(x2)^(4/3)"
STATUSES = ("converged", "max_iter", "line_search_stalled")


@dataclass
class Call:
    """One ``linfvar`` CLI call of a session and the oracle for its report."""

    label: str
    argv: List[str]          # without --out, which the session runner adds
    expect_exit: int
    phase: Optional[str]     # timing group the call is charged to, if any
    check: Callable          # (results dict, output dir) -> list of failure messages


def _f(x: float) -> str:
    return repr(float(x))


def _coords(lo, hi, res):
    """Node coordinates exactly as ``DomainBox.node_coords`` forms them: lo + i * h."""
    lo = np.asarray(lo, dtype=float)
    h = (np.asarray(hi, dtype=float) - lo) / (np.asarray(res) - 1)
    idx = np.indices(tuple(res))
    return [lo[i] + idx[i] * h[i] for i in range(len(res))]


def _write_grid(path: Path, comps, skip=()):
    skip = set(skip)
    shape = comps[0].shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for node in np.ndindex(*shape):
            if node in skip:
                continue
            writer.writerow(list(node) + [repr(float(c[node])) for c in comps])


def _write_problem(path: Path, data: dict):
    path.write_text(json.dumps(data, indent=1, sort_keys=True))


def _aronsson_values(x1, x2):
    return np.power(np.abs(x1), 4.0 / 3.0) - np.power(np.abs(x2), 4.0 / 3.0)


# ---------------------------------------------------------------------------
# Generation


def _draw_frame(rng):
    """Wave vector a with |a| in [1, 2] and phase b of sin/cos(a . x + b)."""
    norm = float(rng.uniform(1.0, 2.0))
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    return [norm * math.cos(angle), norm * math.sin(angle)], float(rng.uniform(0.0, 2.0 * math.pi))


def _masked_nodes(rng, res, count, margin=4, spacing=5):
    """Interior nodes far enough from the faces and from each other for one-sided stencils."""
    chosen = []
    while len(chosen) < count:
        node = tuple(int(v) for v in rng.integers(margin, res - margin, size=2))
        if all(max(abs(node[0] - c[0]), abs(node[1] - c[1])) >= spacing for c in chosen):
            chosen.append(node)
    return sorted(chosen)


def _gen_grid_vectorial(rng, work: Path) -> dict:
    res = 33
    dom = {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "resolution": [res, res]}
    x1, x2 = _coords(dom["lo"], dom["hi"], dom["resolution"])
    aR, bR = _draw_frame(rng)
    theta = aR[0] * x1 + aR[1] * x2 + bR
    _write_grid(work / "R.csv", [np.sin(theta), np.cos(theta)])
    _write_problem(work / "R.json", {"n": 2, "N": 2, "domain": dom, "H": "dirichlet",
                                     "u": {"grid": "R.csv"}})
    aC, bC = _draw_frame(rng)
    c = float(rng.uniform(0.5, 2.0))
    masked = _masked_nodes(rng, res, 6)
    s = np.sin(aC[0] * x1 + aC[1] * x2 + bC)
    _write_grid(work / "C.csv", [s, c * s], skip=masked)
    _write_problem(work / "C.json", {"n": 2, "N": 2, "domain": dom, "H": "dirichlet",
                                     "u": {"grid": "C.csv"}})
    return {"domain": dom, "R": {"a": aR, "b": bR},
            "C": {"a": aC, "b": bC, "c": c, "masked": [list(m) for m in masked]}}


def _gen_lp(rng, work: Path) -> dict:
    # The seed draws only the sign of the data.  Negation is exact in floating
    # point, so both signs take the same descent path; shifting the domain or
    # the data instead flips stages between converging in a few hundred
    # iterations and stopping at max_iter, which makes the run time a draw
    # from a two-peaked distribution.
    sign = float(rng.choice([-1.0, 1.0]))
    dom = {"lo": [1.0, 1.0], "hi": [2.0, 2.0], "resolution": [17, 17]}
    _write_problem(work / "L.json", {"n": 2, "N": 1, "domain": dom, "H": "dirichlet",
                                     "u": [f"{_f(sign)} * ({ARONSSON})"]})
    return {"sign": sign, "domain": dom, "p_schedule": "2,4,8,16,32"}


def _gen_closed_form(rng, work: Path) -> dict:
    res = 81
    dom = {"lo": [1.0, 1.0], "hi": [2.25, 2.25], "resolution": [res, res]}
    h = 1.25 / (res - 1)
    k = int(rng.integers(0, 33))  # subdomain shift in whole grid steps, so its faces are nodes
    lo, hi = 1.25 + k * h, 1.75 + k * h
    phi = f"(x1 - {_f(lo)}) * ({_f(hi)} - x1) * (x2 - {_f(lo)}) * ({_f(hi)} - x2)"
    _write_problem(work / "A.json", {"n": 2, "N": 1, "domain": dom, "H": "P11^2 + P12^2",
                                     "u": [ARONSSON],
                                     "subdomain": {"lo": [lo, lo], "hi": [hi, hi]}})
    # Latin-hypercube start points: one per row and column stratum, so the
    # summed flow length varies little from seed to seed
    strata = np.stack([rng.permutation(8), rng.permutation(8)], axis=1)
    starts = lo + (hi - lo) * (0.1 + 0.8 * (strata + rng.uniform(size=(8, 2))) / 8)
    aB, bB = _draw_frame(rng)
    theta = f"{_f(aB[0])} * x1 + {_f(aB[1])} * x2 + {_f(bB)}"
    domB = {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "resolution": [17, 17]}
    _write_problem(work / "B.json", {"n": 2, "N": 2, "domain": domB,
                                     "H": "P11^2 + P12^2 + P21^2 + P22^2",
                                     "u": [f"sin({theta})", f"cos({theta})"]})
    return {"domain": dom, "shift_steps": k, "subdomain": [lo, hi], "phi": phi,
            "flow_starts": starts.tolist(), "B": {"a": aB, "b": bB, "domain": domB}}


GENERATORS = {
    "grid-vectorial": _gen_grid_vectorial,
    "lp-continuation": _gen_lp,
    "closed-form-verdicts": _gen_closed_form,
}


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's input files for ``seed`` into ``work``; return the drawn parameters."""
    rng = np.random.default_rng(seed)
    work.mkdir(parents=True, exist_ok=True)
    params = GENERATORS[workload](rng, work)
    return {"workload": workload, "seed": seed, "params": params}


# ---------------------------------------------------------------------------
# Oracles


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _require(failures, ok, message):
    if not ok:
        failures.append(message)


def _no_check(results, out):
    return []


def _verdict_check(results, out):
    failures = []
    _require(failures, results["pass"], "verdict failed")
    _require(failures, not results["vacuous"], "verdict is vacuous")
    return failures


def _grid_vectorial_calls(p: dict, seed: int) -> List[Call]:
    aR = np.asarray(p["R"]["a"])
    x1, x2 = _coords(p["domain"]["lo"], p["domain"]["hi"], p["domain"]["resolution"])

    def full_R(r, out):
        target = 2.0 * float(aR @ aR) ** 2
        return [] if _rel(r["max_norm"], target) <= 1e-2 else [
            f"full max_norm {r['max_norm']} not within 1% of 2|a|^4 = {target}"]

    def reduced_R(r, out):
        failures = []
        _require(failures, r["max_norm"] <= 1e-8, f"reduced max_norm {r['max_norm']} > 1e-8")
        _require(failures, r["projection_drops"] == r["count"],
                 f"projection_drops {r['projection_drops']} != count {r['count']}")
        return failures

    C = p["C"]
    aC = np.asarray(C["a"])
    valid = np.ones(x1.shape, dtype=bool)
    for m in C["masked"]:
        valid[tuple(m)] = False
    cos2 = np.cos(aC[0] * x1 + aC[1] * x2 + C["b"]) ** 2
    energy_C = (1.0 + C["c"] ** 2) * float(aC @ aC) * float(np.max(cos2[valid]))

    def energy_check(r, out):
        return [] if _rel(r["sup_energy"], energy_C) <= 1e-2 else [
            f"energy {r['sup_energy']} not within 1e-2 of {energy_C}"]

    def argmax_check(r, out):
        return [] if _rel(r["sup_value"], energy_C) <= 1e-2 and r["nodes"] else [
            f"argmax sup {r['sup_value']} not within 1e-2 of {energy_C}"]

    def reduced_C(r, out):
        return [] if r["projection_drops"] == 0 else [
            f"constant frame dropped {r['projection_drops']} projections"]

    R, Cp = "R.json", "C.json"
    return [
        Call("R residual full", ["residual", "--problem", R, "--variant", "full"], 1,
             None, full_R),
        Call("R residual reduced", ["residual", "--problem", R, "--variant", "reduced"], 0,
             "residual", reduced_R),
        Call("C energy", ["energy", "--problem", Cp], 0, None, energy_check),
        Call("C argmax", ["argmax", "--problem", Cp], 0, None, argmax_check),
        Call("C maxmin", ["maxmin", "--problem", Cp], 0, None, _no_check),
        Call("C residual reduced", ["residual", "--problem", Cp, "--variant", "reduced"], 1,
             "residual", reduced_C),
        Call("C verify-normal",
             ["verify-normal", "--problem", Cp, "--trials", "5", "--seed", str(seed)], 0,
             "verify_normal", _verdict_check),
    ]


def read_solution(path: Path, shape) -> np.ndarray:
    values = np.full(shape, np.nan)
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            values[int(row[0]), int(row[1])] = float(row[2])
    return values


def _lp_exact(p: dict):
    x1, x2 = _coords(p["domain"]["lo"], p["domain"]["hi"], p["domain"]["resolution"])
    return p["sign"] * _aronsson_values(x1, x2)


def lp_u_err(p: dict, out: Path) -> float:
    """Max-norm distance of the p=32 solution CSV from the exact Aronsson solution."""
    exact = _lp_exact(p)
    return float(np.max(np.abs(read_solution(out / "solution_p32.csv", exact.shape) - exact)))


def _aronsson_sup_energy(axis):
    """Max of |Du|^2 = (16/9)(x1^(2/3) + x2^(2/3)) over the tensor nodes of ``axis``."""
    g = (16.0 / 9.0) * np.power(axis, 2.0 / 3.0)
    return float(np.max(g[:, None] + g[None, :]))


def _lp_calls(p: dict, seed: int) -> List[Call]:
    exact = _lp_exact(p)
    boundary = np.zeros(exact.shape, dtype=bool)
    boundary[0, :] = boundary[-1, :] = boundary[:, 0] = boundary[:, -1] = True

    def lp_check(r, out):
        failures = []
        stages = r["stages"]
        _require(failures, len(stages) == 5, f"{len(stages)} stages, expected 5")
        for st in stages:
            _require(failures, st["status"] in STATUSES, f"stage p={st['p']} status {st['status']!r}")
            sol = read_solution(out / st["solution_csv"], exact.shape)
            _require(failures, np.array_equal(sol[boundary], exact[boundary]),
                     f"stage p={st['p']} boundary values differ from the data")
        err = lp_u_err(p, out)
        _require(failures, err <= 1e-3, f"p=32 solution error {err} > 1e-3")
        return failures

    return [Call("L lp continuation", ["lp", "--problem", "L.json", "--p-schedule", p["p_schedule"]],
                 0, "lp", lp_check)]


def _closed_form_calls(p: dict, seed: int) -> List[Call]:
    lo, hi = p["subdomain"]
    res = p["domain"]["resolution"][0]
    axis = np.linspace(p["domain"]["lo"][0], p["domain"]["hi"][0], res)
    tol = 1e-9 * max(axis[1] - axis[0], 1.0)
    inside = np.nonzero((axis >= lo - tol) & (axis <= hi + tol))[0]
    energy_A = _aronsson_sup_energy(axis[inside])
    corner = [int(inside[-1]), int(inside[-1])]

    def energy_check(r, out):
        return [] if _rel(r["sup_energy"], energy_A) <= 1e-12 else [
            f"energy {r['sup_energy']} != analytic {energy_A}"]

    def argmax_check(r, out):
        return [] if r["nodes"] == [corner] else [f"argmax {r['nodes']} != [{corner}]"]

    def danskin_check(r, out):
        worst = max(abs(r["plus"]), abs(r["minus"]))
        return [] if worst <= 1e-10 else [f"Danskin derivative {worst} > 1e-10"]

    def flow_check(r, out):
        failures = []
        _require(failures, r["exited"], "flow did not exit the subdomain")
        _require(failures, r["H_drift"] <= 1e-10, f"H drift {r['H_drift']} > 1e-10")
        return failures

    def reduced_B(r, out):
        return [] if r["max_norm"] <= 1e-8 else [f"reduced max_norm {r['max_norm']} > 1e-8"]

    A = "A.json"
    calls = [
        Call("A energy", ["energy", "--problem", A], 0, None, energy_check),
        Call("A argmax", ["argmax", "--problem", A], 0, None, argmax_check),
        Call("A danskin", ["danskin", "--problem", A, "--phi", p["phi"]], 0, "verdicts", danskin_check),
        Call("A stationarity", ["stationarity", "--problem", A, "--basis-size", "50"], 0,
             "verdicts", _no_check),
        Call("A measure", ["measure", "--problem", A, "--measure", f"dirac:{corner[0]},{corner[1]}"], 0,
             "verdicts", _no_check),
        Call("A verify-absolute",
             ["verify-absolute", "--problem", A, "--trials", "200", "--seed", str(seed)], 0,
             "verdicts", _verdict_check),
        Call("A verify-rank-one",
             ["verify-rank-one", "--problem", A, "--trials", "100", "--seed", str(seed)], 0,
             "verdicts", _verdict_check),
    ]
    for i, x0 in enumerate(p["flow_starts"]):
        calls.append(Call(f"A flow {i}", ["flow", "--problem", A, "--x0", f"{_f(x0[0])},{_f(x0[1])}",
                                          "--xi", "1"], 0, "flow", flow_check))
    calls.append(Call("B residual reduced", ["residual", "--problem", "B.json", "--variant", "reduced"],
                      0, "residual", reduced_B))
    return calls


CALLS = {
    "grid-vectorial": _grid_vectorial_calls,
    "lp-continuation": _lp_calls,
    "closed-form-verdicts": _closed_form_calls,
}


def session_calls(info: dict) -> List[Call]:
    """The ordered CLI calls of one session for the parameters ``generate`` returned."""
    return CALLS[info["workload"]](info["params"], info["seed"])
