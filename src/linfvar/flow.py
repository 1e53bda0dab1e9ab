"""Characteristic flow of the energy density and the max/min principle checks.

The flow integrates gamma' = xi^T H_P(., u, Du) along a direction xi in
R^N with the adaptive Dormand-Prince 5(4) pair, stepping by a local error
tolerance, and finds the subdomain exit on the last step's continuous
extension.  Along trajectories of solutions of the tangential system the
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

from .energy import _density, _require_finite_jet, subdomain_nodes
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
    A point where H or xi^T H_P is not finite is a ValueError naming it.
    """

    def __init__(self, u, H: Hamiltonian, xi: np.ndarray):
        self.u, self.H, self.xi = u, H, xi
        self.evaluations = 0

    def __call__(self, y):
        self.evaluations += 1
        jet = map_jet(self.u, y, order=1)
        hj = hamiltonian_jet(self.H, jet.x, jet.value, jet.gradient)
        velocity, density = self.xi @ hj.P_grad, float(hj.value)
        if not (math.isfinite(density) and all(map(math.isfinite, velocity.tolist()))):
            raise ValueError(f"density not finite at point {tuple(y.tolist())}")
        return velocity, density


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5 and the code
# DOPRI5).  Row i of _A builds stage i + 2 from stages 1..i + 1; the last row is the
# 5th-order solution, so stage 7 is the velocity at the new point (FSAL).  _E weighs the
# stages into the difference of the 5th- and 4th-order solutions, and _D into the last
# coefficient of the 4th-order continuous extension (sec. II.6).
_A = np.array([
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_D = np.array([-12715105075 / 11282082432, 0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])
_TOL = 1e-12  # relative and absolute tolerance of the local error
_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.2, 5.0  # step factor 0.9 err^(-1/5), clamped


def _dp5_step(field, y, h, k1):
    """One Dormand-Prince step of length h from y, whose velocity k1 the caller already has.

    Returns (the new point, the 7 stages, the density at the new point).
    """
    K = np.empty((7, y.size))
    K[0] = k1
    for i in range(5):
        K[i + 1] = field(y + h * (_A[i, :i + 1] @ K[:i + 1]))[0]
    y_new = y + h * (_A[5] @ K[:6])
    K[6], density = field(y_new)
    return y_new, K, density


def _exit_on_dense_output(O: Subdomain, y, y_new, K, h):
    """(theta, point) on the step's continuous extension: the last point found inside O
    by bisecting theta in [0, 1] until it no longer halves; y is inside, y_new is not."""
    dy = y_new - y
    b = h * K[0] - dy
    c = dy - h * K[6] - b
    d = h * (_D @ K)
    lo, hi, inside = 0.0, 1.0, y
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo, inside
        p = y + mid * (dy + (1.0 - mid) * (b + mid * (c + (1.0 - mid) * d)))
        if O.contains_point(p):
            lo, inside = mid, p
        else:
            hi = mid


def _node_speeds(u, H: Hamiltonian, O: Subdomain, xi: np.ndarray):
    """(|xi^T H_P| per evaluable node, the node jets of u); ValueError naming a node where H or
    H_P is not finite."""
    nodes = subdomain_nodes(O)
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
) -> Trajectory:
    """Integrate the characteristic ODE from x0 until it exits the subdomain.

    Adaptive Dormand-Prince 5(4) with FSAL: each attempted step costs 6 field
    evaluations, and the last of them gives the new point's density.  A step
    is accepted when its error norm (Hairer's (4.11), relative and absolute
    tolerance ``1e-12``) is at most 1; the next step is the last one times
    ``0.9 err^(-1/5)`` clamped to [0.2, 5].  ``dt`` is the first step and
    the largest one; by default the first step is ``h / (4 v_max)`` over the
    subdomain's nodes and no step is capped.  When an accepted step ends
    outside the subdomain, the crossing is found by bisection on the step's
    continuous extension, without field evaluations: the exit point is the
    last point found inside, so it lies in the closed subdomain.  The last
    step is shortened to end at ``t_max``; reaching it without exit is
    reported, not raised.  ``xi`` must have one entry per component of u,
    and ``x0`` one per axis of the region, or it is a ValueError.  Every
    evaluated point where H or xi^T H_P is not finite is a ValueError naming
    it, and so is a step too small to advance t.  ``t_max`` defaults to ``1e3`` times the first step; a horizon from
    the structural constant c0 is ``10 * exit_time_bound(..., c0)["bound"]``.
    Requires a closed-form map (grid maps evaluate at nodes only).
    """
    if isinstance(u, GridMap):
        raise ValueError("flow integration requires a closed-form map (grid maps evaluate only at nodes)")
    x0 = np.asarray(x0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (u.N,):
        raise ValueError(f"direction xi has {xi.size} entries; the map has N = {u.N} components")
    if x0.shape != (O.box.dim,):
        raise ValueError(f"start point x0 has {x0.size} entries; the region has dimension n = {O.box.dim}")
    if not O.contains_point(x0):
        raise ValueError(f"starting point {x0} lies outside the subdomain")
    h_max = np.inf if dt is None else dt
    h = default_time_step(u, H, O, xi) if dt is None else dt
    if t_max is None:
        t_max = 1e3 * h
    field = _Field(u, H, xi)
    k1, h0 = field(x0)  # each accepted step's last stage gives the next k1 and the density
    times = [0.0]
    points = [x0]
    hvals = [h0]
    y = x0
    t = 0.0
    exit_time = None
    exit_point = None
    while t < t_max:
        h = min(h, t_max - t)
        if t + h == t:
            raise ValueError(f"flow step no longer advances t at point {tuple(y.tolist())}")
        y_new, K, hy = _dp5_step(field, y, h, k1)
        scale = _TOL * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
        err = math.sqrt(float(np.mean((h * (_E @ K) / scale) ** 2)))
        # a NaN norm fails the test and shrinks the step, until t no longer advances
        factor = _FAC_MAX if err == 0.0 else min(_FAC_MAX, max(_FAC_MIN, _SAFETY * err ** -0.2))
        if not err <= 1.0:
            h *= factor
            continue
        if not O.contains_point(y_new):
            theta, exit_point = _exit_on_dense_output(O, y, y_new, K, h)
            exit_time = t + theta * h
            times.append(exit_time)
            points.append(exit_point)
            hvals.append(field(exit_point)[1])
            break
        t += h
        y = y_new
        k1 = K[6]
        times.append(t)
        points.append(y)
        hvals.append(hy)
        h = min(h * factor, h_max)
    return Trajectory(
        times=np.asarray(times),
        points=np.asarray(points),
        H_values=np.asarray(hvals),
        exited=exit_point is not None,
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
    nodes = subdomain_nodes(O)
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
