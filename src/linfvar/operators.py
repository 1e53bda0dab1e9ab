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

Div(H_P) differentiates the composed matrix field x -> H_P(x, u(x), Du(x))
numerically (central differences of step h_div for closed-form maps, grid
stencils for node-sampled maps), which only needs first derivatives of H
and second-order jets of u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .problem import (
    GridMap,
    Hamiltonian,
    Jet2,
    PerturbedMap,
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
    return _composite_gradient_from_jets(H, jet)


def _composite_gradient_from_jets(H: Hamiltonian, jet) -> np.ndarray:
    ham = hamiltonian_jet(H, jet.x, jet.value, jet.gradient)
    # component i: H_xi + H_eta . D_i u + H_P : D_i Du
    g = ham.x_grad + np.einsum("a...,ai...->i...", ham.eta_grad, jet.gradient)
    g = g + np.einsum("aj...,aji...->i...", ham.P_grad, jet.hessian)
    return np.asarray(g, dtype=float)


def _grid_hp_field(u: GridMap, H: Hamiltonian):
    nodes = u.box.all_nodes()
    jets = u.jet_at_nodes(nodes, order=1)
    ham = hamiltonian_jet(H, jets.x, jets.value, jets.gradient)
    hp = ham.P_grad.reshape((u.N, u.n) + u.box.shape)
    return hp


def _grid_divergence_field(u: GridMap, H: Hamiltonian) -> np.ndarray:
    hp = _grid_hp_field(u, H)
    h = u.box.spacing
    valid = None if u.jet_valid.all() else u.jet_valid
    div = np.zeros((u.N,) + u.box.shape)
    for i in range(u.n):
        div += axis_derivative(hp[:, i], i, h[i], order=1, valid=valid, grid_ndim=u.n)
    return div


def _divergence(u, H: Hamiltonian, x: np.ndarray, nodes, h_div: Optional[float]) -> np.ndarray:
    """(Div F)_a = sum_i d_i F_{ai} for F(y) = H_P(y, u(y), Du(y)) at points x (n, M).

    Grid maps read the node stencil field at ``nodes``; other maps take
    central differences of step h_div (default 1e-5 (1 + |x|)), all 2n
    shifted copies of every point in one jet evaluation.
    """
    if isinstance(u, GridMap):
        return _grid_divergence_field(u, H)[(slice(None),) + tuple(nodes.T)]
    n, M = x.shape
    h = 1e-5 * (1.0 + np.linalg.norm(x, axis=0)) if h_div is None else np.full(M, float(h_div))
    offsets = np.zeros((n, 2 * n, M))
    for i in range(n):
        offsets[i, 2 * i] = h
        offsets[i, 2 * i + 1] = -h
    jets = map_jet(u, x[:, None, :] + offsets, order=1)
    hp = hamiltonian_jet(H, jets.x, jets.value, jets.gradient).P_grad  # (N, n, 2n, M)
    div = np.zeros((hp.shape[0], M))
    for i in range(n):
        div += (hp[:, i, 2 * i] - hp[:, i, 2 * i + 1]) / (2.0 * h)
    return div


def _default_eps(u, x: np.ndarray) -> np.ndarray:
    """Default ball radius at points x (n, M): two grid spacings, else 1e-2 (1 + |x|)."""
    if isinstance(u, GridMap):
        return np.full(x.shape[1], 2.0 * float(np.max(u.box.spacing)))
    if isinstance(u, PerturbedMap):
        return _default_eps(u.base, x)
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


def _reduced_projections(u, H: Hamiltonian, x: np.ndarray, nodes, hp: np.ndarray,
                         eps, samples, rank_tol, tol_angle) -> linalg.ReducedProjections:
    """Reduced normal projections of H_P at rank-deficient points x (n, M), hp (M, N, n).

    Grid maps sample H_P at the nodes of :func:`_grid_ball_nodes`; other
    maps at one Halton offset set scaled to each point's ball, all M x m
    points in one jet evaluation.  ``tol_angle`` defaults to 1e-6 eps.
    """
    n, M = x.shape
    eps = np.broadcast_to(_default_eps(u, x) if eps is None else np.asarray(eps, dtype=float), (M,))
    if tol_angle is None:
        tol_angle = 1e-6 * eps
    if isinstance(u, GridMap):
        sample_nodes, valid = _grid_ball_nodes(u, nodes, eps)
        ys = _grid_hp_field(u, H)[(slice(None), slice(None)) + tuple(np.moveaxis(sample_nodes, -1, 0))]
    else:
        pts = linalg.ball_sample_points(x.T, eps, linalg.ball_sample_count(n, samples))
        jets = map_jet(u, np.moveaxis(pts, -1, 0), order=1)
        ys = hamiltonian_jet(H, jets.x, jets.value, jets.gradient).P_grad
        valid = np.ones(pts.shape[:2], dtype=bool)
    ys = np.moveaxis(ys, (0, 1), (2, 3))  # (M, m, N, n)
    return linalg.reduced_nullspace_batch(hp, ys, valid, tol_angle, rank_tol)


def _residual_parts(u, H: Hamiltonian, jets: Jet2, nodes, variant, h_div, eps, samples,
                    rank_tol, tol_angle):
    """Both residual parts at a jet batch (batch axis last).

    Returns the tangential and normal parts (N, M), the ranks of H_P, the
    dimensions of the projected normal spaces and the projection-drop
    flags (M,).  Only rank-deficient points get a divergence and a normal
    projection; elsewhere the normal part is exactly zero.
    """
    if variant not in ("full", "reduced"):
        raise ValueError("variant must be 'full' or 'reduced'")
    ham = hamiltonian_jet(H, jets.x, jets.value, jets.gradient)
    dH = _composite_gradient_from_jets(H, jets)
    tangential = np.einsum("ai...,i...->a...", ham.P_grad, dH)
    hp = np.moveaxis(ham.P_grad, -1, 0)  # (M, N, n)
    M, N = hp.shape[:2]
    U, ranks, _ = linalg.rank_decision(hp, rank_tol)
    null_dim = N - ranks
    drop = np.zeros(M, dtype=bool)
    normal = np.zeros((N, M))
    sel = np.flatnonzero(null_dim > 0)
    sel_nodes = None if nodes is None else nodes[sel]
    if variant == "full":
        dims = null_dim
        B = U[sel] * (np.arange(N) >= ranks[sel, None])[:, None, :]
        proj = B @ np.swapaxes(B, 1, 2)
    else:
        dims = np.zeros(M, dtype=int)
        if sel.size:
            red = _reduced_projections(u, H, jets.x[:, sel], sel_nodes, hp[sel], eps, samples,
                                       rank_tol, tol_angle)
            proj = red.projection
            dims[sel] = red.reduced_dim
            drop[sel] = red.reduced_dim < null_dim[sel]
    if sel.size:
        rhs = _divergence(u, H, jets.x[:, sel], sel_nodes, h_div) - ham.eta_grad[:, sel]
        normal[:, sel] = ham.value[sel] * np.einsum("mab,bm->am", proj, rhs)
    return np.asarray(tangential, dtype=float), normal, ranks, dims, drop


def aronsson_residual(
    u,
    H: Hamiltonian,
    x,
    variant: str = "reduced",
    eps: Optional[float] = None,
    samples: Optional[int] = None,
    h_div: Optional[float] = None,
    rank_tol: float = linalg.DEFAULT_RANK_TOL,
    tol_angle: Optional[float] = None,
) -> AronssonResidual:
    """Tangential + normal residual of the critical-point system at a point."""
    x = np.asarray(x, dtype=float)
    jet = map_jet(u, x, order=2)  # single point: grid maps reject masked nodes here
    jets = Jet2(x[:, None], jet.value[..., None], jet.gradient[..., None], jet.hessian[..., None])
    nodes = np.asarray([u.box.nearest_node(x)]) if isinstance(u, GridMap) else None
    tangential, normal, ranks, dims, drop = _residual_parts(
        u, H, jets, nodes, variant, h_div, eps, samples, rank_tol, tol_angle)
    return AronssonResidual(
        tangential=tangential[:, 0],
        normal=normal[:, 0],
        variant=variant,
        rank_used=int(ranks[0]),
        reduced_dim=int(dims[0]),
        projection_drop=bool(drop[0]),
    )


def split_residuals(u, H: Hamiltonian, x, variant: str = "reduced", **kw):
    """The two independent systems separately: (tangential part, normal part)."""
    res = aronsson_residual(u, H, x, variant=variant, **kw)
    return res.tangential, res.normal


def infinity_laplacian_residual(
    u,
    x,
    reduced: bool = False,
    eps: Optional[float] = None,
    samples: Optional[int] = None,
    rank_tol: float = linalg.DEFAULT_RANK_TOL,
    tol_angle: Optional[float] = None,
) -> np.ndarray:
    """Residual Du D(|Du|^2) + |Du|^2 [Du]^perp (Laplacian u) at a point.

    With ``reduced=True`` the plain normal projection is replaced by the
    reduced one.  This is the quadratic-density special case of
    :func:`aronsson_residual` up to an overall factor 2.
    """
    x = np.asarray(x, dtype=float)
    jet = map_jet(u, x, order=2)
    Du = jet.gradient
    # D_i |Du|^2 = 2 sum_{a,j} Du[a,j] D_i D_j u_a
    dsq = 2.0 * np.einsum("aj,aji->i", Du, jet.hessian)
    lap = np.einsum("aii->a", jet.hessian)
    density = float(np.sum(Du * Du))
    full = linalg.proj_range_complement(Du, tol=rank_tol)
    proj = full.projection
    if reduced and full.basis.shape[1]:
        # the reduced space of Du^T is that of the Dirichlet H_P = 2 Du
        nodes = np.asarray([u.box.nearest_node(x)]) if isinstance(u, GridMap) else None
        H = Hamiltonian.dirichlet(Du.shape[1], Du.shape[0])
        proj = _reduced_projections(u, H, x[:, None], nodes, 2.0 * Du[None], eps, samples,
                                    rank_tol, tol_angle).projection[0]
    return Du @ dsq + density * (proj @ lap)


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
    nodes: Optional[np.ndarray] = None,
    interior_only: bool = True,
    h_div: Optional[float] = None,
    eps: Optional[float] = None,
    samples: Optional[int] = None,
    rank_tol: float = linalg.DEFAULT_RANK_TOL,
    tol_angle: Optional[float] = None,
) -> ResidualField:
    """Residuals over a node set (grid maps) or arbitrary point list (closed-form maps).

    Everything is batched: one jet evaluation, one SVD of H_P over the
    batch, and for the rank-deficient points one divergence evaluation and
    one reduced-projection kernel call.
    """
    if isinstance(u, GridMap):
        if nodes is None:
            if points is not None:
                # grid maps evaluate at nodes only: explicit points must be valid nodes
                nodes = u.nodes_at(np.atleast_2d(np.asarray(points, dtype=float)).T)
            else:
                nodes = O.interior_nodes() if interior_only else O.evaluable_nodes()
        nodes = np.atleast_2d(np.asarray(nodes, dtype=int))
        jets = u.jet_at_nodes(nodes, order=2)
    else:
        if points is None:
            if nodes is None:
                nodes = O.interior_nodes() if interior_only else O.evaluable_nodes()
            points = O.box.node_coords(np.atleast_2d(nodes)).T
        points = np.atleast_2d(np.asarray(points, dtype=float))
        jets = map_jet(u, points.T, order=2)
        nodes = None
    tangential, normal, ranks, _, drop = _residual_parts(
        u, H, jets, nodes, variant, h_div, eps, samples, rank_tol, tol_angle)
    return ResidualField(
        points=jets.x.T,
        nodes=nodes,
        tangential=tangential,
        normal=normal,
        variant=variant,
        drop_flags=drop,
        ranks=ranks,
    )
