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
        h, valid = u.box.spacing, None if u.jet_valid.all() else u.jet_valid
        div = sum(axis_derivative(hp_field[:, i], i, h[i], order=1, valid=valid, grid_ndim=u.n)
                  for i in range(u.n))
        return div[(slice(None),) + tuple(nodes.T)]
    n, N, M = H.n, H.N, jets.x.shape[1]
    rows = hamiltonian_jet(H, jets.x, jets.value, jets.gradient, order=2).P_hess.reshape(N * n, -1, M)
    grads = _chain_rule(rows[:, :n], rows[:, n:n + N], rows[:, n + N:].reshape(N * n, N, n, M), jets)
    return np.einsum("aii...->a...", grads.reshape(N, n, n, M))


def _default_eps(u, x: np.ndarray) -> np.ndarray:
    """Default ball radius at points x (n, M): two grid spacings, else 1e-2 (1 + |x|)."""
    if isinstance(u, GridMap):
        return np.full(x.shape[1], 2.0 * float(np.max(u.box.spacing)))
    return 1e-2 * (1.0 + np.linalg.norm(x, axis=0))


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


def _grid_node_decomposition(u: GridMap, hp_field: np.ndarray, nodes: np.ndarray):
    """:func:`linalg.rank_decision` of the H_P node field ``hp_field``, (N, n) + box shape.

    Returns U (box shape + (N, N)), the ranks (box shape) and the jet-valid
    nodes where H_P is not finite.  Those nodes, and the nodes that are not
    jet-valid, get a zero matrix; the centres ``nodes`` (M, n) keep their
    own, so a centre that is not finite raises.  No centre samples a
    zeroed node.
    """
    hp = np.moveaxis(hp_field, (0, 1), (-2, -1))
    finite = np.isfinite(hp).all(axis=(-2, -1))
    jet_valid = u.jet_valid
    keep = jet_valid & finite
    keep[tuple(nodes.T)] = True
    U, ranks, _ = linalg.rank_decision(np.where(keep[..., None, None], hp, 0.0))
    return U, ranks, jet_valid & ~finite


def _reduced_projections(u, H: Hamiltonian, x: np.ndarray, nodes, U: np.ndarray, ranks: np.ndarray,
                         node_factors, eps, tol_angle) -> linalg.ReducedProjections:
    """Reduced normal projections at rank-deficient points x (n, M) with H_P's SVD factors U, ranks.

    Grid maps gather one nullspace projector per node, built from the node
    field's factors ``node_factors`` (:func:`_grid_node_decomposition`),
    through :func:`_grid_ball_nodes`; other maps sample one Halton offset
    set scaled to each point's ball, all M x m points in one jet evaluation.
    ``tol_angle`` defaults to 1e-6 eps.
    """
    n, M = x.shape
    eps = np.broadcast_to(_default_eps(u, x) if eps is None else np.asarray(eps, dtype=float), (M,))
    if tol_angle is None:
        tol_angle = 1e-6 * eps
    if isinstance(u, GridMap):
        sample_nodes, valid = _grid_ball_nodes(u, nodes, eps)
        node_U, node_ranks, bad = node_factors
        if bad.any():
            raise ValueError(f"H_P is not finite at grid node {tuple(np.argwhere(bad)[0].tolist())}")
        proj = linalg.complement_projectors(node_U, node_ranks)
        sample_proj = proj[tuple(np.moveaxis(sample_nodes, -1, 0))]
    else:
        pts = linalg.ball_sample_points(x.T, eps, linalg.ball_sample_count(n))
        jets = map_jet(u, np.moveaxis(pts, -1, 0), order=1)
        ys = hamiltonian_jet(H, jets.x, jets.value, jets.gradient).P_grad
        sample_proj = linalg.nullspace_projectors(np.moveaxis(ys, (0, 1), (2, 3)))
        valid = np.ones(pts.shape[:2], dtype=bool)
    return linalg.average_projectors(U, ranks, sample_proj, valid, tol_angle)


def _normal_projections(u, H: Hamiltonian, x: np.ndarray, nodes, hp: np.ndarray, variant,
                        eps, tol_angle, hp_field):
    """Normal projections of H_P at the rank-deficient points of x (n, M), hp (M, N, n).

    Returns those points' indices and projections (onto R(H_P)^perp for
    "full", the reduced normal space for "reduced"), and per point (M,)
    the rank of H_P, the projected dimension and the projection-drop flag.
    On grid maps ``hp_field`` holds H_P at every node, (N, n) + box shape,
    and ``hp`` is that field at ``nodes``; the reduced variant decomposes
    the field once and takes the points' factors from it.  Other maps do
    not read ``hp_field``.
    """
    if variant not in ("full", "reduced"):
        raise ValueError("variant must be 'full' or 'reduced'")
    M, N = hp.shape[:2]
    node_factors = None
    if variant == "reduced" and isinstance(u, GridMap):
        node_factors = _grid_node_decomposition(u, hp_field, nodes)
        at = tuple(nodes.T)
        U, ranks = node_factors[0][at], node_factors[1][at]
    else:
        U, ranks, _ = linalg.rank_decision(hp)
    null_dim = N - ranks
    sel = np.flatnonzero(null_dim > 0)
    if variant == "full":
        proj = linalg.complement_projectors(U[sel], ranks[sel])
        return sel, proj, ranks, null_dim, np.zeros(M, dtype=bool)
    dims, proj = np.zeros(M, dtype=int), np.zeros((0, N, N))
    if sel.size:
        red = _reduced_projections(u, H, x[:, sel], None if nodes is None else nodes[sel], U[sel],
                                   ranks[sel], node_factors, eps, tol_angle)
        dims[sel], proj = red.reduced_dim, red.projection
    return sel, proj, ranks, dims, dims < null_dim


def _residual_parts(u, H: Hamiltonian, jets: Jet2, nodes, variant, eps, tol_angle, named):
    """Both residual parts at a jet batch (M,).

    Returns the tangential and normal parts (N, M), the ranks of H_P, the
    dimensions of the projected normal spaces and the projection-drop
    flags (M,).  Only rank-deficient points get a divergence and a normal
    projection; elsewhere the normal part is exactly zero.  Where H or H_P
    is not finite, the ValueError names the node or point from ``named``,
    a pair of (M, n) nodes or points and the word "node" or "point".
    """
    if isinstance(u, GridMap):
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
    dH = _chain_rule(ham.x_grad[None], ham.eta_grad[None], ham.P_grad[None], jets)[0]
    tangential = np.einsum("ai...,i...->a...", ham.P_grad, dH)
    sel, proj, ranks, dims, drop = _normal_projections(
        u, H, jets.x, nodes, np.moveaxis(ham.P_grad, -1, 0), variant, eps, tol_angle, hp_field)
    normal = np.zeros(ham.eta_grad.shape)
    if sel.size:
        sub = Jet2(jets.x[:, sel], jets.value[:, sel], jets.gradient[..., sel], jets.hessian[..., sel])
        rhs = _divergence(u, H, sub, None if nodes is None else nodes[sel], hp_field) - ham.eta_grad[:, sel]
        normal[:, sel] = ham.value[sel] * np.einsum("mab,bm->am", proj, rhs)
    return np.asarray(tangential, dtype=float), normal, ranks, dims, drop


def aronsson_residual(
    u,
    H: Hamiltonian,
    x,
    variant: str = "reduced",
    eps: Optional[float] = None,
    tol_angle: Optional[float] = None,
) -> AronssonResidual:
    """Tangential + normal residual of the critical-point system at a point."""
    x = np.asarray(x, dtype=float)
    jet = map_jet(u, x, order=2)  # single point: grid maps reject masked nodes here
    jets = Jet2(x[:, None], jet.value[..., None], jet.gradient[..., None], jet.hessian[..., None])
    nodes = np.asarray([u.box.nearest_node(x)]) if isinstance(u, GridMap) else None
    tangential, normal, ranks, dims, drop = _residual_parts(u, H, jets, nodes, variant, eps, tol_angle,
                                                            (x[None], "point"))
    return AronssonResidual(
        tangential=tangential[:, 0],
        normal=normal[:, 0],
        variant=variant,
        rank_used=int(ranks[0]),
        reduced_dim=int(dims[0]),
        projection_drop=bool(drop[0]),
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

    Everything is batched: one jet evaluation, one SVD of H_P over the
    batch, and for the rank-deficient points one divergence evaluation and
    one reduced-projection kernel call.
    """
    if points is None:
        nodes = O.interior_nodes()
        named = (nodes, "node")
    else:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        named = (points, "point")
    if isinstance(u, GridMap):
        if points is not None:
            # grid maps evaluate at nodes only: explicit points must be valid nodes
            nodes = u.nodes_at(points.T)
        jets = u.jet_at_nodes(nodes, order=2)
    else:
        jets = map_jet(u, O.box.node_coords(nodes) if points is None else points.T, order=2)
        nodes = None
    tangential, normal, ranks, _, drop = _residual_parts(u, H, jets, nodes, variant, eps, tol_angle, named)
    return ResidualField(
        points=jets.x.T,
        nodes=nodes,
        tangential=tangential,
        normal=normal,
        variant=variant,
        drop_flags=drop,
        ranks=ranks,
    )
