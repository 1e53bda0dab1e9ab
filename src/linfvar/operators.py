"""Pointwise residuals of the second-order PDE operators of the theory.

The central object is the Hamiltonian-form critical-point system for the
supremal energy: a tangential part

    H_P(., u, Du) D(H(., u, Du))

living in the range of H_P, plus a normal part

    H(., u, Du) * Proj (Div(H_P(., u, Du)) - H_eta(., u, Du))

where Proj projects onto the orthogonal complement of the range of H_P
(variant "full") or onto the reduced normal space of extendable directions
(variant "reduced").  The two parts are orthogonal by construction, so the
system splits into two independent operators; both are exposed.

Div(H_P) differentiates the composed matrix field x -> H_P(x, u(x), Du(x)).
For closed-form maps the chain rule applies H's exact second derivatives
to the second-order jets of u; grid maps take the grid stencils of the H_P
node field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .energy import _require_finite_jet
from .problem import (
    GridMap,
    Hamiltonian,
    HamiltonianJet,
    Jet2,
    Subdomain,
    axis_derivative,
    hamiltonian_jet,
    map_jet,
)

__all__ = [
    "AronssonResidual",
    "ResidualField",
    "aronsson_residual",
    "composite_gradient",
    "infinity_laplacian_residual",
    "residual_field",
    "split_residuals",
]


@dataclass
class AronssonResidual:
    """Tangential/normal split of the critical-point system at one point."""

    tangential: np.ndarray     # (N,), in range(H_P)
    normal: np.ndarray         # (N,), orthogonal to range(H_P)
    variant: str               # "full" | "reduced"
    rank_used: int             # rank of H_P at the point
    reduced_dim: int           # dimension of the projected normal space
    projection_drop: bool      # reduced space strictly smaller than the plain normal space

    @property
    def total(self) -> np.ndarray:
        return self.tangential + self.normal

    @property
    def tangential_norm(self) -> float:
        return float(np.linalg.norm(self.tangential))

    @property
    def normal_norm(self) -> float:
        return float(np.linalg.norm(self.normal))

    @property
    def total_norm(self) -> float:
        return float(np.linalg.norm(self.total))


def composite_gradient(u, H: Hamiltonian, x) -> np.ndarray:
    """Spatial gradient of x -> H(x, u(x), Du(x)) by the chain rule (uses D2u)."""
    jet = map_jet(u, np.asarray(x, dtype=float), order=2)
    ham = hamiltonian_jet(H, jet.x, jet.value, jet.gradient)
    return _chain_rule(ham.x_grad[None], ham.eta_grad[None], ham.P_grad[None], jet)[0]


def _chain_rule(f_x, f_eta, f_P, jet) -> np.ndarray:
    """Spatial gradients (m, n) + S of m functions F(x, u(x), Du(x)).

    ``f_x`` (m, n) + S, ``f_eta`` (m, N) + S and ``f_P`` (m, N, n) + S are
    their partials at u's order-2 ``jet``; component i is
    F_xi + F_eta . D_i u + F_P : D_i Du.
    """
    g = f_x + np.einsum("ma...,ai...->mi...", f_eta, jet.gradient)
    return g + np.einsum("maj...,aji...->mi...", f_P, jet.hessian)


def _grid_hamiltonian(u: GridMap, H: Hamiltonian) -> HamiltonianJet:
    """H's first-order jet at every grid node, lexicographic batch axis."""
    jets = u.jet_at_nodes(u.box.all_nodes(), order=1)
    return hamiltonian_jet(H, jets.x, jets.value, jets.gradient)


def _divergence(u, H: Hamiltonian, jets: Jet2, nodes, hp_field=None) -> np.ndarray:
    """(Div F)_a = sum_i d_i F_{ai} for F(y) = H_P(y, u(y), Du(y)) at u's order-2 jets (M,).

    Grid maps differentiate the H_P node field ``hp_field`` at ``nodes``;
    other maps apply the chain rule to the rows H_P of H's exact second derivatives.
    """
    if isinstance(u, GridMap):
        h = u.box.spacing
        div = sum(axis_derivative(hp_field[:, i], i, h[i], valid=u.jet_valid)
                  for i in range(u.n))
        return div[(slice(None),) + tuple(nodes.T)]
    n, N, M = H.n, H.N, jets.x.shape[1]
    rows = hamiltonian_jet(H, jets.x, jets.value, jets.gradient, order=2).P_hess.reshape(N * n, -1, M)
    grads = _chain_rule(rows[:, :n], rows[:, n:n + N], rows[:, n + N:].reshape(N * n, N, n, M), jets)
    return np.einsum("aii...->a...", grads.reshape(N, n, n, M))


def _grid_ball_nodes(u: GridMap, nodes: np.ndarray, eps: np.ndarray):
    """Sample nodes of the eps-ball around each grid node: (M, m, n) indices, (M, m) mask.

    A node y samples the ball around x when |y - x| <= eps and
    |y - x| > 1e-12, measured between float node coordinates (ties at a
    whole number of spacings round node by node), and y is jet-valid.
    """
    box = u.box
    h = box.spacing
    shape = np.asarray(box.shape)
    reach = np.minimum(np.floor(np.max(eps) / h).astype(int) + 1, shape - 1)
    offsets = np.indices(tuple(2 * reach + 1)).reshape(box.dim, -1).T - reach
    offsets = offsets[np.linalg.norm(offsets * h, axis=1) <= (1.0 + 1e-9) * np.max(eps)]
    cand = nodes[:, None, :] + offsets[None]
    inside = np.all((cand >= 0) & (cand < shape), axis=-1)
    cand = np.clip(cand, 0, shape - 1)
    x = box.node_coords(nodes).T
    y = box.node_coords(cand.reshape(-1, box.dim)).T.reshape(cand.shape)
    dist = np.linalg.norm(y - x[:, None, :], axis=-1)
    near = (dist <= eps[:, None]) & (dist > 1e-12)
    valid = inside & near & u.jet_valid[tuple(np.moveaxis(cand, -1, 0))]
    lonely = ~valid.any(axis=1)
    if lonely.any():
        raise ValueError(f"no valid grid nodes inside the eps-ball around {x[np.argmax(lonely)]}")
    return cand, valid


def _grid_node_decomposition(hp_field: np.ndarray, read: np.ndarray):
    """:func:`linalg.rank_decision` of the H_P node field ``hp_field``, (N, n) + box shape,
    at the grid nodes ``read`` (K, n).

    Returns U (box shape + (N, N)) and the ranks (box shape), zero at the
    other nodes, and the read nodes where H_P is not finite, which are
    decomposed as zero matrices.
    """
    at, N, shape = tuple(read.T), hp_field.shape[0], hp_field.shape[2:]
    hp = np.moveaxis(hp_field, (0, 1), (-2, -1))[at]
    finite = np.isfinite(hp).all(axis=(-2, -1))
    U, ranks, bad = np.zeros(shape + (N, N)), np.zeros(shape, dtype=int), np.zeros(shape, dtype=bool)
    U[at], ranks[at], _ = linalg.rank_decision(np.where(finite[:, None, None], hp, 0.0))
    bad[at] = ~finite
    return U, ranks, bad


def _normal_space(u, H: Hamiltonian, jets: Jet2, nodes, variant, eps, tol_angle, named):
    """H's jet at a jet batch (M,) of u and the normal projections of its H_P there.

    Returns the Hamiltonian jet, the H_P node field (N, n) + box shape on
    grid maps (None on others), the indices of the rank-deficient points
    and their projections (onto R(H_P)^perp for "full", the reduced normal
    space for "reduced"), and per point (M,) the rank of H_P, the
    projected dimension and the projection-drop flag.  Where H or H_P is
    not finite, the ValueError names the node or point from ``named``, a
    pair of (M, n) nodes or points and the word "node" or "point".

    Grid maps evaluate H once over all nodes and take every rank from
    :func:`_grid_node_decomposition` of the nodes the call reads: the
    centres ``nodes`` (M, n) for "full", the whole field for "reduced",
    whose nullspace projectors are gathered over each centre's ball
    (:func:`_grid_ball_nodes`).  Other maps rank H_P at the points and
    sample one Halton offset set scaled to each point's ball, all M x m
    points in one jet evaluation.  The ball radius ``eps`` defaults to two
    grid spacings on grid maps, else 1e-2 (1 + |x|), and ``tol_angle`` to
    1e-6 eps.
    """
    if variant not in ("full", "reduced"):
        raise ValueError("variant must be 'full' or 'reduced'")
    grid = isinstance(u, GridMap)
    if grid:
        # grid jets index the same derivative arrays at every node: one evaluation
        # over all nodes gives the centres' jet and the H_P node field
        everywhere = _grid_hamiltonian(u, H)
        at = np.ravel_multi_index(tuple(nodes.T), u.box.shape)
        ham = HamiltonianJet(*(f[..., at] for f in (everywhere.value, everywhere.x_grad,
                                                     everywhere.eta_grad, everywhere.P_grad)))
        hp_field = everywhere.P_grad.reshape((u.N, u.n) + u.box.shape)
    else:
        ham, hp_field = hamiltonian_jet(H, jets.x, jets.value, jets.gradient), None
    _require_finite_jet(ham, *named)
    if grid:
        # "full" reads H_P at the centres only, "reduced" the whole node field
        read = nodes if variant == "full" else u.box.all_nodes()
        node_U, node_ranks, bad = _grid_node_decomposition(hp_field, read)
        U, ranks = node_U[tuple(nodes.T)], node_ranks[tuple(nodes.T)]
    else:
        U, ranks, _ = linalg.rank_decision(np.moveaxis(ham.P_grad, -1, 0))
    M, N = U.shape[:2]
    null_dim = N - ranks
    sel = np.flatnonzero(null_dim > 0)
    if variant == "full":
        proj = linalg.complement_projectors(U[sel], ranks[sel])
        return ham, hp_field, sel, proj, ranks, null_dim, np.zeros(M, dtype=bool)
    dims, proj = np.zeros(M, dtype=int), np.zeros((0, N, N))
    if sel.size:
        x = jets.x[:, sel]
        if eps is None:
            eps = 2.0 * float(np.max(u.box.spacing)) if grid else 1e-2 * (1.0 + np.linalg.norm(x, axis=0))
        eps = np.broadcast_to(np.asarray(eps, dtype=float), (sel.size,))
        if grid:
            sample_nodes, valid = _grid_ball_nodes(u, nodes[sel], eps)
            bad &= u.jet_valid
            if bad.any():
                raise ValueError(f"H_P is not finite at grid node {tuple(np.argwhere(bad)[0].tolist())}")
            node_proj = linalg.complement_projectors(node_U, node_ranks)
            sample_proj = node_proj[tuple(np.moveaxis(sample_nodes, -1, 0))]
        else:
            pts = linalg.ball_sample_points(x.T, eps, linalg.ball_sample_count(u.n))
            sample = map_jet(u, np.moveaxis(pts, -1, 0), order=1)
            ys = hamiltonian_jet(H, sample.x, sample.value, sample.gradient).P_grad
            sample_proj = linalg.nullspace_projectors(np.moveaxis(ys, (0, 1), (2, 3)))
            valid = np.ones(pts.shape[:2], dtype=bool)
        red = linalg.average_projectors(U[sel], ranks[sel], sample_proj, valid,
                                        1e-6 * eps if tol_angle is None else tol_angle)
        dims[sel], proj = red.reduced_dim, red.projection
    return ham, hp_field, sel, proj, ranks, dims, dims < null_dim


def _residual_parts(u, H: Hamiltonian, O: Subdomain, points, variant, eps, tol_angle):
    """Both residual parts at the subdomain's evaluable interior nodes, or at ``points`` (M, n).

    Returns the :class:`ResidualField` and the dimensions of the projected
    normal spaces (M,).  Grid maps take explicit points only at their
    valid nodes.  Only rank-deficient points get a divergence; elsewhere
    the normal part is exactly zero.
    """
    if points is None:
        nodes = O.interior_nodes()
        if nodes.shape[0] == 0:
            raise ValueError("subdomain has no evaluable interior nodes")
        named = (nodes, "node")
    else:
        named = (points, "point")
    if isinstance(u, GridMap):
        if points is not None:
            nodes = u.nodes_at(points.T)
        jets = u.jet_at_nodes(nodes, order=2)
    else:
        jets = map_jet(u, O.box.node_coords(nodes) if points is None else points.T, order=2)
        nodes = None
    ham, hp_field, sel, proj, ranks, dims, drop = _normal_space(u, H, jets, nodes, variant, eps, tol_angle,
                                                                named)
    dH = _chain_rule(ham.x_grad[None], ham.eta_grad[None], ham.P_grad[None], jets)[0]
    tangential = np.einsum("ai...,i...->a...", ham.P_grad, dH)
    normal = np.zeros(ham.eta_grad.shape)
    if sel.size:
        sub = Jet2(jets.x[:, sel], jets.value[:, sel], jets.gradient[..., sel], jets.hessian[..., sel])
        rhs = _divergence(u, H, sub, None if nodes is None else nodes[sel], hp_field) - ham.eta_grad[:, sel]
        normal[:, sel] = ham.value[sel] * np.einsum("mab,bm->am", proj, rhs)
    rf = ResidualField(points=jets.x.T, nodes=nodes, tangential=np.asarray(tangential, dtype=float),
                       normal=normal, variant=variant, drop_flags=drop, ranks=ranks)
    return rf, dims


def aronsson_residual(
    u,
    H: Hamiltonian,
    x,
    variant: str = "reduced",
    eps: Optional[float] = None,
    tol_angle: Optional[float] = None,
) -> AronssonResidual:
    """Tangential + normal residual of the critical-point system at a point."""
    rf, dims = _residual_parts(u, H, None, np.asarray(x, dtype=float)[None], variant, eps, tol_angle)
    return AronssonResidual(
        tangential=rf.tangential[:, 0],
        normal=rf.normal[:, 0],
        variant=variant,
        rank_used=int(rf.ranks[0]),
        reduced_dim=int(dims[0]),
        projection_drop=bool(rf.drop_flags[0]),
    )


def split_residuals(u, H: Hamiltonian, x, variant: str = "reduced"):
    """The two independent systems separately: (tangential part, normal part)."""
    res = aronsson_residual(u, H, x, variant=variant)
    return res.tangential, res.normal


def infinity_laplacian_residual(
    u,
    x,
    reduced: bool = False,
    eps: Optional[float] = None,
    tol_angle: Optional[float] = None,
) -> np.ndarray:
    """Residual Du D(|Du|^2) + |Du|^2 [Du]^perp (Laplacian u) at a point.

    With ``reduced=True`` the plain normal projection is replaced by the
    reduced one.  For H = |P|^2 the critical-point system is twice this
    system, so the residual is half the Dirichlet :func:`aronsson_residual`.
    """
    H = Hamiltonian.dirichlet(u.n, u.N)
    return 0.5 * aronsson_residual(u, H, x, "reduced" if reduced else "full", eps, tol_angle).total


# ---------------------------------------------------------------------------
# Batched residual evaluation over node sets / point lists


@dataclass
class ResidualField:
    points: np.ndarray         # (M, n) coordinates
    nodes: "np.ndarray | None"  # (M, n) int multi-indices when grid-based
    tangential: np.ndarray     # (N, M)
    normal: np.ndarray         # (N, M)
    variant: str
    drop_flags: np.ndarray     # (M,) projection-drop flags
    ranks: np.ndarray          # (M,) ranks of H_P

    @property
    def total(self) -> np.ndarray:
        return self.tangential + self.normal

    @property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.total, axis=0)


def residual_field(
    u,
    H: Hamiltonian,
    O: Subdomain,
    variant: str = "reduced",
    points: Optional[np.ndarray] = None,
    eps: Optional[float] = None,
    tol_angle: Optional[float] = None,
) -> ResidualField:
    """Residuals at the subdomain's evaluable interior nodes, or at explicit ``points``.

    Grid maps take explicit points only at their valid nodes.

    Everything is batched: one jet evaluation, one rank decision of H_P
    over the nodes the variant reads, and for the rank-deficient points one
    divergence evaluation and one reduced-projection kernel call.
    """
    if points is not None:
        points = np.atleast_2d(np.asarray(points, dtype=float))
    return _residual_parts(u, H, O, points, variant, eps, tol_angle)[0]
