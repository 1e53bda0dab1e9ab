"""Characteristic flow of the energy density and the max/min principle checks.

The flow integrates gamma' = xi^T H_P(., u, Du) along a direction xi in
R^N with classical fixed-step RK4, localising the subdomain exit by
bisection.  Along trajectories of solutions of the tangential system the
density H(., u, Du) is conserved, and under the structural condition

    (xi^T H_P(x, eta, P)) . (xi^T P) >= c |xi^T H_P(x, eta, P)|^2

the scalar observable xi^T u is monotone along the flow, which yields the
exit-time bound ||Du||_inf diam(O) / (c0 c1^2) when |xi^T H_P| >= c1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import _density, _require_finite_jet
from .problem import (
    GridMap,
    Hamiltonian,
    Subdomain,
    _write_csv_rows,
    hamiltonian_jet,
    jets_at_nodes,
    map_jet,
)

__all__ = [
    "MaxMinReport",
    "StructuralReport",
    "Trajectory",
    "check_structural_condition",
    "exit_time_bound",
    "integrate_flow",
    "verify_maxmin",
    "write_trajectory_csv",
]


@dataclass
class Trajectory:
    times: np.ndarray       # strictly increasing, starts at 0
    points: np.ndarray      # (steps, n)
    H_values: np.ndarray    # density along the path
    exited: bool
    exit_time: Optional[float]
    exit_point: Optional[np.ndarray]
    evaluations: int = 0    # field evaluations (one map jet and one H jet each)


class _Field:
    """The velocity xi^T H_P and the density H at a point, from one jet of u and of H.

    ``evaluations`` counts the calls; it is deterministic for given inputs.
    """

    def __init__(self, u, H: Hamiltonian, xi: np.ndarray):
        self.u, self.H, self.xi = u, H, xi
        self.evaluations = 0

    def __call__(self, y):
        self.evaluations += 1
        jet = map_jet(self.u, y, order=1)
        hj = hamiltonian_jet(self.H, jet.x, jet.value, jet.gradient)
        return self.xi @ hj.P_grad, float(hj.value)


def _require_finite_point(y, velocity, density) -> None:
    """ValueError naming the point y where the density or the velocity xi^T H_P is not finite."""
    if not (math.isfinite(density) and all(map(math.isfinite, velocity.tolist()))):
        raise ValueError(f"density not finite at point {tuple(y.tolist())}")


def _rk4_step(field, y, dt, k1):
    """One RK4 step from y, whose velocity k1 the caller already has."""
    k2 = field(y + 0.5 * dt * k1)[0]
    k3 = field(y + 0.5 * dt * k2)[0]
    k4 = field(y + dt * k3)[0]
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _node_speeds(u, H: Hamiltonian, O: Subdomain, xi: np.ndarray):
    """(|xi^T H_P| per evaluable node, the node jets of u); ValueError naming a node where H or
    H_P is not finite."""
    nodes = O.evaluable_nodes()
    jets = jets_at_nodes(u, O.box, nodes, order=1)
    ham = hamiltonian_jet(H, jets.x, jets.value, jets.gradient)
    _require_finite_jet(ham, nodes)
    return np.linalg.norm(np.einsum("a,ai...->i...", xi, ham.P_grad), axis=0), jets


def default_time_step(u, H: Hamiltonian, O: Subdomain, xi: np.ndarray) -> float:
    """h / (4 * max field speed over the subdomain nodes)."""
    vmax = float(np.max(_node_speeds(u, H, O, xi)[0]))
    h = float(np.min(O.box.spacing))
    if vmax == 0.0:
        return h
    return h / (4.0 * vmax)


def integrate_flow(
    u,
    H: Hamiltonian,
    x0,
    xi,
    O: Subdomain,
    dt: Optional[float] = None,
    t_max: Optional[float] = None,
    c0: Optional[float] = None,
) -> Trajectory:
    """Integrate the characteristic ODE from x0 until it exits the subdomain.

    Classical RK4 with fixed step ``dt``; the boundary crossing is
    localised by bisection of the final step to within ``dt * 1e-6``.
    Reaching ``t_max`` without exit is reported, not raised; a point where
    H or xi^T H_P is not finite is a ValueError naming it (the start, each
    accepted point and the exit point are checked).  When a
    structural constant ``c0`` is supplied, ``t_max`` defaults to ten times
    the exit-time bound; otherwise to ``1e3 * dt``.  Requires a closed-form
    map (grid maps evaluate at nodes only).
    """
    if isinstance(u, GridMap):
        raise ValueError("flow integration requires a closed-form map (grid maps evaluate only at nodes)")
    x0 = np.asarray(x0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if not O.contains_point(x0):
        raise ValueError(f"starting point {x0} lies outside the subdomain")
    if dt is None:
        dt = default_time_step(u, H, O, xi)
    if t_max is None:
        if c0 is not None:
            bound = exit_time_bound(u, H, O, xi, c0)["bound"]
            t_max = 10.0 * bound if np.isfinite(bound) else 1e3 * dt
        else:
            t_max = 1e3 * dt
    field = _Field(u, H, xi)
    k1, h0 = field(x0)  # each accepted point's k1 evaluation also gives its density
    _require_finite_point(x0, k1, h0)
    times = [0.0]
    points = [x0]
    hvals = [h0]
    y = x0
    t = 0.0
    max_steps = int(np.ceil(t_max / dt))
    exited = False
    exit_time = None
    exit_point = None
    for _ in range(max_steps):
        y_next = _rk4_step(field, y, dt, k1)
        if O.contains_point(y_next):
            t += dt
            y = y_next
            k1, hy = field(y)
            _require_finite_point(y, k1, hy)
            times.append(t)
            points.append(y)
            hvals.append(hy)
            continue
        # bisect the step length until the crossing is localised
        lo_tau, hi_tau = 0.0, dt
        while hi_tau - lo_tau > dt * 1e-6:
            mid = 0.5 * (lo_tau + hi_tau)
            if O.contains_point(_rk4_step(field, y, mid, k1)):
                lo_tau = mid
            else:
                hi_tau = mid
        tau = 0.5 * (lo_tau + hi_tau)
        exit_point = _rk4_step(field, y, tau, k1)
        k_exit, h_exit = field(exit_point)
        _require_finite_point(exit_point, k_exit, h_exit)
        exit_time = t + tau
        times.append(exit_time)
        points.append(exit_point)
        hvals.append(h_exit)
        exited = True
        break
    return Trajectory(
        times=np.asarray(times),
        points=np.asarray(points),
        H_values=np.asarray(hvals),
        exited=exited,
        exit_time=exit_time,
        exit_point=exit_point,
        evaluations=field.evaluations,
    )


def exit_time_bound(u, H: Hamiltonian, O: Subdomain, xi, c0: float) -> dict:
    """The bound ||Du||_inf diam(O) / (c0 c1^2) with c1 estimated over the nodes."""
    speeds, jets = _node_speeds(u, H, O, np.asarray(xi, dtype=float))
    c1 = float(np.min(speeds))
    du_inf = float(np.max(np.linalg.norm(jets.gradient, axis=(0, 1))))
    kind, a, b = O.region
    diam = 2.0 * b if kind == "ball" else float(np.linalg.norm(np.asarray(b) - np.asarray(a)))
    bound = np.inf if c1 == 0.0 else du_inf * diam / (c0 * c1 ** 2)
    return {"bound": bound, "c1": c1, "du_inf": du_inf, "diam": diam}


@dataclass
class StructuralReport:
    passes: bool
    worst_margin: float
    constant: float
    samples: int


def check_structural_condition(
    H: Hamiltonian,
    c: float,
    sample_count: int = 256,
    seed: int = 0,
) -> StructuralReport:
    """Sample (xi, x, eta, P) and report the worst margin of the structural condition.

    xi is a normalised Gaussian draw; x, eta and P are uniform in [-2, 2].
    Margin per sample: (xi^T H_P).(xi^T P) - c |xi^T H_P|^2; pass iff the
    minimum is >= -1e-12.
    """
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(sample_count):
        xi = rng.normal(size=H.N)
        norm = np.linalg.norm(xi)
        if norm == 0.0:
            continue
        xi = xi / norm
        x = rng.uniform(-2.0, 2.0, size=H.n)
        eta = rng.uniform(-2.0, 2.0, size=H.N)
        P = rng.uniform(-2.0, 2.0, size=(H.N, H.n))
        hp = hamiltonian_jet(H, x, eta, P).P_grad
        lhs = float((xi @ hp) @ (xi @ P))
        rhs = float(np.sum((xi @ hp) ** 2))
        worst = min(worst, lhs - c * rhs)
    return StructuralReport(passes=bool(worst >= -1e-12), worst_margin=float(worst),
                            constant=c, samples=sample_count)


@dataclass
class MaxMinReport:
    sup_interior: float
    max_boundary: float
    inf_interior: float
    min_boundary: float
    tol_grid: float
    max_principle: bool
    min_principle: bool

    @property
    def passes(self) -> bool:
        return self.max_principle and self.min_principle


def verify_maxmin(u, H: Hamiltonian, O: Subdomain) -> MaxMinReport:
    """Grid version of the max/min principle for the density H(., u, Du).

    On a grid only an O(h) statement is decidable: the verdict compares
    interior and boundary extremes up to tol = L * h with L the discrete
    Lipschitz constant of the density field over grid edges.  A density
    that is not finite at an evaluable node is a ValueError naming the node.
    """
    nodes = O.evaluable_nodes()
    at = tuple(nodes.T)
    boundary = O.boundary_mask[at]
    if not boundary.any():
        raise ValueError("subdomain has no boundary nodes")
    if boundary.all():
        raise ValueError("subdomain has no interior nodes")
    va = _density(H, jets_at_nodes(u, O.box, nodes, order=1), nodes)
    vi, vb = va[~boundary], va[boundary]
    # discrete Lipschitz estimate over axis-adjacent evaluable node pairs
    field = np.full(O.box.shape, np.nan)
    field[at] = va
    L = 0.0
    for axis in range(O.box.dim):
        h = O.box.spacing[axis]
        a = np.moveaxis(field, axis, -1)
        diffs = np.abs(a[..., 1:] - a[..., :-1]) / h
        finite = np.isfinite(diffs)
        if finite.any():
            L = max(L, float(np.max(diffs[finite])))
    tol_grid = L * float(np.max(O.box.spacing))
    sup_i, max_b = float(np.max(vi)), float(np.max(vb))
    inf_i, min_b = float(np.min(vi)), float(np.min(vb))
    return MaxMinReport(
        sup_interior=sup_i,
        max_boundary=max_b,
        inf_interior=inf_i,
        min_boundary=min_b,
        tol_grid=tol_grid,
        max_principle=bool(sup_i <= max_b + tol_grid),
        min_principle=bool(inf_i >= min_b - tol_grid),
    )


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """A header row, then one row per point: t, gamma_1..gamma_n, H as ``repr`` floats."""
    n = traj.points.shape[1]
    header = ["t"] + [f"gamma_{i+1}" for i in range(n)] + ["H"]
    columns = [traj.times.tolist()] + traj.points.T.tolist() + [traj.H_values.tolist()]
    _write_csv_rows(path, [header, *zip(*(map(repr, col) for col in columns))])
