"""Domains, grids, Hamiltonians and candidate maps with jet extraction.

Candidate maps u : box in R^n -> R^N come in two flavours: closed-form
(one expression per component, derivatives exact via second-order duals)
and grid-sampled (derivatives by second-order finite differences: central
stencils in the interior, one-sided second-order stencils at grid faces
and next to invalid nodes).  Grid maps evaluate only at nodes; no
interpolation is ever performed.

A :class:`Subdomain` is a closed node set over a parent box, with boundary
nodes (masked nodes adjacent to unmasked nodes or to a box face), an
interior, and a singular mask of nodes excluded from all evaluations.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .exprlang import Ast, EvalError, SingularityError, eval_jet2, parse, parse_field, rename_variables

__all__ = [
    "ClosedFormMap",
    "DomainBox",
    "GridMap",
    "HamiltonianJet",
    "Hamiltonian",
    "Jet2",
    "PerturbedMap",
    "Problem",
    "StencilError",
    "Subdomain",
    "axis_derivative",
    "combine_jets",
    "hamiltonian_jet",
    "hamiltonian_value",
    "jets_at_nodes",
    "load_problem",
    "map_jet",
    "problem_digest",
    "read_grid_csv",
    "write_grid_csv",
]


class StencilError(ValueError):
    """A finite-difference stencil could not be placed (out of bounds / too many invalid nodes)."""


# ---------------------------------------------------------------------------
# Domain and subdomains


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box with a uniform tensor grid (>= 3 nodes per axis)."""

    lo: tuple
    hi: tuple
    resolution: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        raw = np.asarray(self.resolution, dtype=float)
        if not np.all(np.isfinite(raw) & (raw == np.round(raw))):
            raise ValueError(f"domain.resolution must hold whole numbers of nodes, got {list(self.resolution)}")
        res = raw.astype(int)
        if lo.shape != hi.shape or lo.shape != res.shape:
            raise ValueError("lo, hi, resolution must have equal lengths")
        if not np.all(lo < hi):
            raise ValueError("domain requires lo < hi componentwise")
        if not np.all(res >= 3):
            raise ValueError("resolution must be >= 3 nodes per axis")
        object.__setattr__(self, "lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in hi))
        object.__setattr__(self, "resolution", tuple(int(v) for v in res))

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple:
        return self.resolution

    @property
    def spacing(self) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        res = np.asarray(self.resolution)
        return (hi - lo) / (res - 1)

    def axis_coords(self, axis: int) -> np.ndarray:
        """Node coordinates along ``axis``: lo + i * h, as :meth:`node_coords` forms them."""
        return self.lo[axis] + np.arange(self.resolution[axis]) * self.spacing[axis]

    def all_nodes(self) -> np.ndarray:
        """All node multi-indices, lexicographic, shape (M, dim)."""
        idx = np.indices(self.shape).reshape(self.dim, -1).T
        return np.ascontiguousarray(idx)

    def node_coords(self, nodes: np.ndarray) -> np.ndarray:
        """Coordinates of integer multi-indices ``nodes`` (M, dim) -> (dim, M)."""
        nodes = np.atleast_2d(np.asarray(nodes, dtype=int))
        lo = np.asarray(self.lo)
        h = self.spacing
        return (lo[None, :] + nodes * h[None, :]).T

    def nearest_node(self, x: np.ndarray):
        """Multi-index of the node matching point ``x`` (dim,), or the (M, dim)
        multi-indices of a batch (dim, M); error naming the first point that is
        not a node."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.dim:
            raise ValueError(f"point has dimension {x.shape[0]}, grid has {self.dim}")
        pts = x.reshape(self.dim, -1).T
        raw = (pts - np.asarray(self.lo)) / self.spacing
        idx = np.rint(raw).astype(int)
        outside = np.any((idx < 0) | (idx >= np.asarray(self.shape)), axis=1)
        if outside.any():
            raise ValueError(f"point {pts[np.argmax(outside)]} outside the grid")
        off = np.any(np.abs(raw - idx) > 1e-9, axis=1)
        if off.any():
            raise ValueError(f"point {pts[np.argmax(off)]} is not a grid node (grid maps evaluate only at nodes)")
        return tuple(int(i) for i in idx[0]) if x.ndim == 1 else idx


def _boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Masked nodes adjacent (along an axis) to unmasked nodes or to the grid faces."""
    boundary = np.zeros_like(mask)
    for axis in range(mask.ndim):
        lo_face = [slice(None)] * mask.ndim
        hi_face = [slice(None)] * mask.ndim
        lo_face[axis] = 0
        hi_face[axis] = -1
        boundary[tuple(lo_face)] |= mask[tuple(lo_face)]
        boundary[tuple(hi_face)] |= mask[tuple(hi_face)]
        fwd = [slice(None)] * mask.ndim
        bwd = [slice(None)] * mask.ndim
        fwd[axis] = slice(None, -1)
        bwd[axis] = slice(1, None)
        # neighbor outside the mask
        boundary[tuple(fwd)] |= mask[tuple(fwd)] & ~mask[tuple(bwd)]
        boundary[tuple(bwd)] |= mask[tuple(bwd)] & ~mask[tuple(fwd)]
    return boundary


@dataclass
class Subdomain:
    """Closed node set over a parent box, plus a geometric region for flow tests."""

    box: DomainBox
    mask: np.ndarray
    singular: np.ndarray
    region: tuple  # ("box", lo, hi) | ("ball", center, radius)
    # read-only, computed from ``mask`` at construction
    boundary_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.singular = np.asarray(self.singular, dtype=bool)
        if self.mask.shape != self.box.shape or self.singular.shape != self.box.shape:
            raise ValueError("mask shapes must match the box resolution")
        if not self.mask.any():
            raise ValueError("empty subdomain")
        self.boundary_mask = _boundary_mask(self.mask)
        self.boundary_mask.flags.writeable = False
        if not self.interior_mask.any():
            raise ValueError("subdomain has no interior nodes")

    @classmethod
    def whole(cls, box: DomainBox, singular: Optional[np.ndarray] = None) -> "Subdomain":
        sing = np.zeros(box.shape, dtype=bool) if singular is None else singular
        return cls(box, np.ones(box.shape, dtype=bool), sing, ("box", box.lo, box.hi))

    @classmethod
    def from_box(cls, box: DomainBox, lo, hi, singular: Optional[np.ndarray] = None) -> "Subdomain":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        mask = np.ones(box.shape, dtype=bool)
        tol = 1e-9 * np.maximum(box.spacing, 1.0)
        for axis in range(box.dim):
            c = box.axis_coords(axis)
            keep = (c >= lo[axis] - tol[axis]) & (c <= hi[axis] + tol[axis])
            shape = [1] * box.dim
            shape[axis] = -1
            mask &= keep.reshape(shape)
        sing = np.zeros(box.shape, dtype=bool) if singular is None else singular
        return cls(box, mask, sing, ("box", tuple(float(v) for v in lo), tuple(float(v) for v in hi)))

    @classmethod
    def from_ball(cls, box: DomainBox, center, radius: float) -> "Subdomain":
        center = np.asarray(center, dtype=float)
        nodes = box.all_nodes()
        coords = box.node_coords(nodes)  # (dim, M)
        inside = np.linalg.norm(coords - center[:, None], axis=0) <= radius + 1e-12
        mask = np.zeros(box.shape, dtype=bool)
        mask[tuple(nodes[inside].T)] = True
        sing = np.zeros(box.shape, dtype=bool)
        return cls(box, mask, sing, ("ball", tuple(float(v) for v in center), float(radius)))

    @property
    def interior_mask(self) -> np.ndarray:
        return self.mask & ~self.boundary_mask

    @property
    def evaluable_mask(self) -> np.ndarray:
        return self.mask & ~self.singular

    def _nodes_of(self, m: np.ndarray) -> np.ndarray:
        return np.argwhere(m)  # lexicographic, deterministic

    def evaluable_nodes(self) -> np.ndarray:
        return self._nodes_of(self.evaluable_mask)

    def interior_nodes(self) -> np.ndarray:
        return self._nodes_of(self.interior_mask & ~self.singular)

    def boundary_nodes(self) -> np.ndarray:
        return self._nodes_of(self.boundary_mask & ~self.singular)

    def contains_point(self, x) -> bool:
        """Whether the point x (dim,) lies in the closed region; a NaN coordinate lies outside."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.box.dim,):
            raise ValueError(f"point has shape {x.shape}, the region has dimension {self.box.dim}")
        if self.region[0] == "box":
            _, lo, hi = self.region
            return all(a <= v <= b for a, v, b in zip(lo, x.tolist(), hi))
        center, radius = np.asarray(self.region[1]), self.region[2]
        return bool(np.linalg.norm(x - center) <= radius)


# ---------------------------------------------------------------------------
# Jets


@dataclass
class Jet2:
    """Second-order jet of a map at a point (batched when x has a trailing batch axis).

    ``value`` has shape (N,) + S, ``gradient`` (N, n) + S with entry [a, i]
    the i-th spatial partial of component a, ``hessian`` (N, n, n) + S
    (``None`` in first-order mode).
    """

    x: np.ndarray
    value: np.ndarray
    gradient: np.ndarray
    hessian: "np.ndarray | None"


# ---------------------------------------------------------------------------
# Finite-difference machinery (shared by grid maps and field divergences)


# (offset, coefficient) terms of each stencil, listed in the order they are
# summed; per derivative order: central, forward one-sided, backward one-sided.
_STENCILS = {
    1: (((1, 0.5), (-1, -0.5)),
        ((0, -1.5), (1, 2.0), (2, -0.5)),
        ((0, 1.5), (-1, -2.0), (-2, 0.5))),
    2: (((1, 1.0), (0, -2.0), (-1, 1.0)),
        ((0, 2.0), (1, -5.0), (2, 4.0), (3, -1.0)),
        ((0, 2.0), (-1, -5.0), (-2, 4.0), (-3, -1.0))),
}


def axis_derivative(values: np.ndarray, axis: int, h: float, order: int = 1,
                    valid: Optional[np.ndarray] = None) -> np.ndarray:
    """Second-order accurate derivative of a gridded field along ``axis``.

    ``values`` may carry leading component axes; the grid axes are the last
    ``valid.ndim`` (all axes without a mask).  Each valid
    node takes the first stencil of ``_STENCILS[order]`` whose nodes all lie
    on the axis and are valid; on a 3-node axis the second derivative at the
    faces is the middle node's.  Invalid nodes, and nodes no stencil fits,
    are NaN.
    """
    if order not in _STENCILS:
        raise ValueError("order must be 1 or 2")
    values = np.asarray(values, dtype=float)
    lead = 0 if valid is None else values.ndim - valid.ndim
    if valid is not None and valid.all():
        valid = None  # no mask: the same values, without the masked path's fills
    gaxis = lead + axis
    # the derivative axis goes last, the others keep their order
    perm = [i for i in range(values.ndim) if i != gaxis] + [gaxis]
    v = values.transpose(perm)
    M = v.shape[-1]
    if valid is None:
        ok = np.ones(M, dtype=bool)  # broadcasts over the other axes
    else:
        ok = np.asarray(valid, dtype=bool).transpose([i - lead for i in perm[lead:]])
        v = np.where(ok, v, 0.0)  # fills at invalid nodes stay out of the arithmetic
    rows = tuple(range(ok.ndim - 1))
    runs = [ok]  # runs[k][..., j]: the nodes j..j+k are all valid
    todo = ok
    out = np.full(v.shape, np.nan)
    for stencil in _STENCILS[order]:
        offsets = [o for o, _ in stencil]
        a, b = min(0, min(offsets)), max(0, max(offsets))
        while len(runs) <= b - a:
            runs.append(runs[-1][..., :-1] & ok[..., len(runs):])
        # the stencil stays on the axis at nodes -a .. M-b-1, and fits where its run is valid
        fits = runs[b - a] & todo[..., -a:M - b]
        cols = np.flatnonzero(fits.any(axis=rows))
        if not cols.size:
            continue
        # narrow to the columns it takes: a single face column on a clean grid
        fits = fits[..., cols[0]:cols[-1] + 1]
        lo, hi = cols[0] - a, cols[-1] + 1 - a
        (o, c), *terms = stencil
        acc = c * v[..., lo + o:hi + o]
        for o, c in terms:
            acc = acc + c * v[..., lo + o:hi + o]
        np.copyto(out[..., lo:hi], acc / h ** order, where=fits)
        if todo is ok:
            todo = ok.copy()
        np.greater(todo[..., lo:hi], fits, out=todo[..., lo:hi])  # todo and not fits
    if order == 2 and M == 3:
        out[..., ::2] = np.where(ok[..., ::2], out[..., 1:2], np.nan)
    back = list(range(values.ndim - 1))
    back.insert(gaxis, values.ndim - 1)
    return out.transpose(back)


# ---------------------------------------------------------------------------
# Map fields


class ClosedFormMap:
    """Map given by one expression per component; exact jets anywhere off its singular set."""

    def __init__(self, components: Sequence[Ast], n: Optional[int] = None):
        components = tuple(components)
        if not components:
            raise ValueError("a map needs at least one component")
        self.n = components[0].n if n is None else n
        self.N = len(components)
        for ast in components:
            bad = [v for v in ast.variables if not v.startswith("x")]
            if bad:
                raise ValueError(f"map expressions may only use x-variables, found {bad}")
        self.components = components
        self._seeds = tuple(f"x{i}" for i in range(1, self.n + 1))
        # the trailing ... makes a single point's coordinates 0-d arrays, which the
        # evaluator takes as they are, where numpy scalars would be converted
        self._slots = tuple((name, (i, ...)) for i, name in enumerate(self._seeds))

    @classmethod
    def from_expressions(cls, exprs: Sequence[str], n: int) -> "ClosedFormMap":
        return cls(tuple(parse(e, (n, 1)) for e in exprs), n=n)

    def jet2(self, x, order: int = 2, on_singularity: str = "raise") -> Jet2:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n:
            raise ValueError(f"point has dimension {x.shape[0]}, map expects {self.n}")
        binding = {name: x[index] for name, index in self._slots}
        try:
            duals = [eval_jet2(ast, binding, self._seeds, order=order, on_singularity=on_singularity)
                     for ast in self.components]
        except EvalError as err:
            bad = np.zeros(x.shape[1:], dtype=bool)
            for ast in self.components:
                d = eval_jet2(ast, binding, self._seeds, order=order, on_singularity="nan")
                bad |= _poisoned(d)
            raise _at_first_point(err, bad & np.isfinite(x).all(axis=0), x) from None
        if self.N == 1:  # eval_jet2's arrays are fresh: a single component's are taken as they are
            (d,) = duals
            return Jet2(x=x, value=d.val[np.newaxis], gradient=d.grad[np.newaxis],
                        hessian=d.hess[np.newaxis] if order >= 2 else None)
        S = x.shape[1:]
        value = np.empty((self.N,) + S)
        gradient = np.empty((self.N, self.n) + S)
        hessian = np.empty((self.N, self.n, self.n) + S) if order >= 2 else None
        for a, d in enumerate(duals):
            value[a] = d.val
            gradient[a] = d.grad
            if order >= 2:
                hessian[a] = d.hess
        return Jet2(x=x, value=value, gradient=gradient, hessian=hessian)

    def has_jet(self, box: DomainBox, nodes: np.ndarray) -> np.ndarray:
        """Whether each of ``nodes`` (M, dim) of ``box`` has a finite order-2 jet under the ``"nan"`` policy."""
        jet = self.jet2(box.node_coords(nodes), order=2, on_singularity="nan")
        return (np.isfinite(jet.value).all(axis=0) & np.isfinite(jet.gradient).all(axis=(0, 1))
                & np.isfinite(jet.hessian).all(axis=(0, 1, 2)))

    def sample(self, box: DomainBox) -> "GridMap":
        """The map's values at every node of ``box``; NaN where it is singular."""
        nodes = box.all_nodes()
        coords = box.node_coords(nodes)
        jet = self.jet2(coords, order=1, on_singularity="nan")
        values = jet.value.reshape((self.N,) + box.shape)
        return GridMap(box, values)


class GridMap:
    """Node-sampled map over a box; jets by finite differences, nodes only."""

    def __init__(self, box: DomainBox, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape[1:] != box.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {box.shape}")
        self.box = box
        self.values = values
        self.N = values.shape[0]
        self.n = box.dim
        self.valid = np.isfinite(values).all(axis=0)

    @cached_property
    def _du(self) -> np.ndarray:
        """(N, n) + shape first derivatives, one pass per axis."""
        h = self.box.spacing
        return np.stack([axis_derivative(self.values, i, h[i], valid=self.valid) for i in range(self.n)], axis=1)

    @cached_property
    def _d2u(self) -> np.ndarray:
        """(N, n, n) + shape second derivatives; a mixed one differentiates ``_du``."""
        h = self.box.spacing
        d2 = np.empty((self.N, self.n, self.n) + self.box.shape)
        for i in range(self.n):
            d2[:, i, i] = axis_derivative(self.values, i, h[i], order=2, valid=self.valid)
            for j in range(i + 1, self.n):
                d2[:, i, j] = d2[:, j, i] = axis_derivative(self._du[:, i], j, h[j], valid=self.valid)
        return d2

    @cached_property
    def jet_valid(self) -> np.ndarray:
        """Nodes whose value, gradient and Hessian are finite (read-only)."""
        ok = self.valid & np.isfinite(self._du).all(axis=(0, 1)) & np.isfinite(self._d2u).all(axis=(0, 1, 2))
        ok.flags.writeable = False
        return ok

    def has_jet(self, box: DomainBox, nodes: np.ndarray) -> np.ndarray:
        """``jet_valid`` at each of ``nodes`` (M, dim) of ``box``, which must be the map's."""
        if box != self.box:
            raise ValueError("grid map lives on a different box")
        return self.jet_valid[tuple(nodes.T)]

    def jet_at_nodes(self, nodes: np.ndarray, order: int = 2) -> Jet2:
        nodes = np.atleast_2d(np.asarray(nodes, dtype=int))
        sel = tuple(nodes.T)
        x = self.box.node_coords(nodes)
        value = self.values[(slice(None),) + sel]
        gradient = self._du[(slice(None), slice(None)) + sel]
        hessian = self._d2u[(slice(None), slice(None), slice(None)) + sel] if order >= 2 else None
        return Jet2(x=x, value=value, gradient=gradient, hessian=hessian)

    def nodes_at(self, x) -> np.ndarray:
        """(M, n) nodes of the points ``x`` (n, M); error naming the first node
        that is masked or has no valid stencil."""
        nodes = np.atleast_2d(self.box.nearest_node(x))
        sel = tuple(nodes.T)
        for ok, error, why in ((self.valid, SingularityError, "is masked as singular/invalid"),
                               (self.jet_valid, StencilError, "has no valid finite-difference stencil")):
            bad = ~ok[sel]
            if bad.any():
                raise error(f"grid node {tuple(nodes[np.argmax(bad)].tolist())} {why}")
        return nodes

    def jet2(self, x, order: int = 2) -> Jet2:
        x = np.asarray(x, dtype=float)
        jet = self.jet_at_nodes(self.nodes_at(x), order=order)
        if x.ndim > 1:
            return jet
        return Jet2(
            x=x,
            value=jet.value[..., 0],
            gradient=jet.gradient[..., 0],
            hessian=None if jet.hessian is None else jet.hessian[..., 0],
        )


class PerturbedMap:
    """Linear combination u + t*phi of two maps, jets added exactly."""

    def __init__(self, base, variation, scale: float = 1.0):
        if base.n != variation.n or base.N != variation.N:
            raise ValueError("maps must share dimensions")
        self.base = base
        self.variation = variation
        self.scale = float(scale)
        self.n = base.n
        self.N = base.N

    def has_jet(self, box: DomainBox, nodes: np.ndarray) -> np.ndarray:
        return self.base.has_jet(box, nodes) & self.variation.has_jet(box, nodes)

    def jet2(self, x, order: int = 2) -> Jet2:
        return combine_jets(map_jet(self.base, x, order=order), map_jet(self.variation, x, order=order), self.scale)


def combine_jets(j1: Jet2, j2: Jet2, t: float = 1.0) -> Jet2:
    """Jet of u + t*phi from the jets ``j1`` of u and ``j2`` of phi."""
    hess = None
    if j1.hessian is not None and j2.hessian is not None:
        hess = j1.hessian + t * j2.hessian
    return Jet2(x=j1.x, value=j1.value + t * j2.value, gradient=j1.gradient + t * j2.gradient, hessian=hess)


MapField = Union[ClosedFormMap, GridMap, PerturbedMap]


def map_jet(u, x, order: int = 2) -> Jet2:
    """Second-order jet (value, gradient, hessian) of the map at a point or point batch."""
    jet2 = getattr(u, "jet2", None)
    if jet2 is None:
        raise ValueError(f"a {type(u).__name__} is evaluated at grid nodes only; take its jets with jets_at_nodes")
    return jet2(x, order=order)


def jets_at_nodes(u, box: DomainBox, nodes: np.ndarray, order: int = 2) -> Jet2:
    """Jets of a map at grid nodes of ``box`` (batch axis last)."""
    if isinstance(u, GridMap):
        if u.box != box:
            raise ValueError("grid map lives on a different box")
        return u.jet_at_nodes(nodes, order=order)
    if isinstance(u, PerturbedMap):
        return combine_jets(jets_at_nodes(u.base, box, nodes, order=order),
                            jets_at_nodes(u.variation, box, nodes, order=order), u.scale)
    if hasattr(u, "node_jets"):  # maps that tabulate their jets along the grid axes
        return u.node_jets(box, np.atleast_2d(nodes), order=order)
    coords = box.node_coords(np.atleast_2d(nodes))
    return u.jet2(coords, order=order)


# ---------------------------------------------------------------------------
# Hamiltonians


@dataclass
class HamiltonianJet:
    value: np.ndarray
    x_grad: np.ndarray    # (n,) + S
    eta_grad: np.ndarray  # (N,) + S
    P_grad: np.ndarray    # (N, n) + S
    P_hess: "np.ndarray | None" = None  # (N, n, k) + S at order 2: rows P_ai of the Hessian, seeds() order
    eta_hess: "np.ndarray | None" = None  # (N, k) + S at order 2: rows eta_a of the Hessian, seeds() order


class Hamiltonian:
    """First-order density H(x, eta, P), closed-form or the built-in ``dirichlet`` = |P|^2."""

    def __init__(self, n: int, N: int, expr: Optional[Ast] = None, builtin: Optional[str] = None):
        if (expr is None) == (builtin is None):
            raise ValueError("provide exactly one of expr/builtin")
        if builtin is not None and builtin != "dirichlet":
            raise ValueError(f"unknown builtin Hamiltonian {builtin!r}")
        self.n = n
        self.N = N
        self.builtin = builtin
        if expr is not None and expr.depends_on("u"):
            # u-variables name the value slot: they take the eta seeds' derivatives
            expr = rename_variables(expr, {f"u{a}": f"eta{a}" for a in range(1, N + 1)})
        self.expr = expr
        if expr is not None:
            self.depends_on_eta = expr.depends_on("eta")
            self.depends_on_x = expr.depends_on("x")
        else:
            self.depends_on_eta = False
            self.depends_on_x = False
        # (name, argument of _binding, index into it), in seed order; the
        # trailing ... makes a single point's entries 0-d arrays (see ClosedFormMap)
        self._slots = tuple(
            [(f"x{i + 1}", 0, (i, ...)) for i in range(n)]
            + [(f"eta{a + 1}", 1, (a, ...)) for a in range(N)]
            + [(f"P{a + 1}{i + 1}", 2, (a, i, ...)) for a in range(N) for i in range(n)]
        )
        self._seeds = tuple(name for name, _, _ in self._slots)

    @classmethod
    def dirichlet(cls, n: int, N: int) -> "Hamiltonian":
        return cls(n, N, builtin="dirichlet")

    @classmethod
    def from_expression(cls, src: str, n: int, N: int) -> "Hamiltonian":
        return cls(n, N, expr=parse(src, (n, N)))

    def _binding(self, x, eta, P):
        args = (x, eta, P)
        return {name: args[k][index] for name, k, index in self._slots}

    def seeds(self) -> tuple:
        """The seed names x1..xn, eta1..etaN, P11..PNn, in the order of the jets' seed axes."""
        return self._seeds


def _poisoned(d) -> np.ndarray:
    """The entries of a dual evaluated under the ``"nan"`` policy with a NaN value or derivative."""
    bad = np.isnan(d.val) | np.isnan(d.grad).any(axis=0)
    return bad if d.hess is None else bad | np.isnan(d.hess).any(axis=(0, 1))


def _at_first_point(err: EvalError, bad: np.ndarray, x: np.ndarray) -> EvalError:
    """``err`` with the same type and `` at point (...)`` appended, naming the point x of
    the first entry of ``bad``; ``err`` itself when no entry is."""
    if not bad.any():
        return err
    at = np.unravel_index(np.argmax(bad), bad.shape)
    point = np.broadcast_to(x, x.shape[:1] + bad.shape)[(slice(None),) + at]
    return type(err)(f"{err} at point {tuple(point.tolist())}")


def _eval_density(H: Hamiltonian, x, eta, P, seeds, order: int):
    """:func:`eval_jet2` of H's expression at (x, eta, P).

    An :class:`EvalError` is raised again, with the same type, naming the
    point x of the first entry whose inputs are finite and whose jet the
    ``"nan"`` policy poisons.
    """
    binding = H._binding(x, eta, P)
    try:
        return eval_jet2(H.expr, binding, seeds, order=order)
    except EvalError as err:
        d = eval_jet2(H.expr, binding, H._seeds, order=1, on_singularity="nan")
        finite = np.isfinite(x).all(axis=0) & np.isfinite(eta).all(axis=0) & np.isfinite(P).all(axis=(0, 1))
        raise _at_first_point(err, _poisoned(d) & finite, x) from None


def hamiltonian_value(H: Hamiltonian, x, eta, P) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    P = np.asarray(P, dtype=float)
    if H.builtin == "dirichlet":
        return np.sum(P * P, axis=(0, 1))
    return _eval_density(H, x, eta, P, (), 1).val


def hamiltonian_jet(H: Hamiltonian, x, eta, P, order: int = 1) -> HamiltonianJet:
    """Value and first derivatives (H_x, H_eta, H_P), exact; ``order=2`` adds ``P_hess`` and ``eta_hess``."""
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    P = np.asarray(P, dtype=float)
    S = P.shape[2:]
    n, N = H.n, H.N
    if H.builtin == "dirichlet":
        two_delta = 2.0 * np.eye(N * n, n + N + N * n, n + N).reshape((N, n, -1) + (1,) * len(S))
        return HamiltonianJet(
            value=np.sum(P * P, axis=(0, 1)),
            x_grad=np.zeros((n,) + S),
            eta_grad=np.zeros((N,) + S),
            P_grad=2.0 * P,
            P_hess=two_delta + np.zeros(S) if order >= 2 else None,
            eta_hess=np.zeros((N, n + N + N * n) + S) if order >= 2 else None,
        )
    d = _eval_density(H, x, eta, P, H._seeds, order)
    return HamiltonianJet(
        value=d.val,
        x_grad=d.grad[:n],
        eta_grad=d.grad[n:n + N],
        P_grad=d.grad[n + N:].reshape((N, n) + S),
        P_hess=None if d.hess is None else d.hess[n + N:].reshape((N, n, -1) + S),
        eta_hess=None if d.hess is None else d.hess[n:n + N],
    )


# ---------------------------------------------------------------------------
# Problem file I/O


@dataclass
class Problem:
    n: int
    N: int
    box: DomainBox
    H: Hamiltonian
    u: MapField
    subdomain: Subdomain


def _singular_mask_from_spec(box: DomainBox, spec) -> np.ndarray:
    mask = np.zeros(box.shape, dtype=bool)
    for item in spec or []:
        axis = int(item["axis"])
        value = float(item["value"])
        c = box.axis_coords(axis)
        hit = np.abs(c - value) <= 1e-9 * max(1.0, box.spacing[axis])
        shape = [1] * box.dim
        shape[axis] = -1
        mask |= hit.reshape(shape)
    return mask


def prescan_singularities(u, box: DomainBox, nodes: np.ndarray) -> np.ndarray:
    """The nodes among ``nodes`` (M, dim) where u has no order-2 jet, as a mask of ``box``.

    One rule for every map kind, each answering through its ``has_jet``: a
    grid map reads ``jet_valid``, a closed-form map scans its order-2 jets
    under the ``"nan"`` policy, and u + t*phi needs a jet of both parts.
    """
    bad = np.zeros(box.shape, dtype=bool)
    bad[tuple(nodes[~u.has_jet(box, nodes)].T)] = True
    return bad


def load_problem(source: Union[str, Path, dict], base: Union[str, Path, None] = None) -> Problem:
    """Load a problem file (JSON), or its parsed dict, and build the domain, Hamiltonian, map and subdomain.

    Schema::

        { "n": int, "N": int,
          "domain": {"lo": [...], "hi": [...], "resolution": [...]},
          "H": "<expr>" | "dirichlet",
          "u": ["<expr>", ...] | {"grid": "<path to CSV>"},
          "subdomain": {"lo": [...], "hi": [...]},          # optional
          "singular": [{"axis": i, "value": v}, ...] }       # optional

    A relative ``u.grid`` path is resolved against ``base``, which defaults
    to the problem file's directory, or to the working directory for a dict.

    Declared singular sets are augmented by a pre-scan that catches
    singularity errors at the subdomain's nodes, so no NaN ever enters an
    evaluation silently.
    """
    if isinstance(source, dict):
        data = source
    else:
        data = json.loads(Path(source).read_text())
        if base is None:
            base = Path(source).parent
    base = Path(".") if base is None else Path(base)

    def field_of(obj, key, path_txt, ok=None, what=""):
        if key not in obj:
            raise ValueError(f"problem file missing field {path_txt!r}")
        if ok is not None and not ok(obj[key]):
            raise TypeError(f"problem file field {path_txt!r} must be {what}, got {obj[key]!r}")
        return obj[key]

    def list_of(v, kinds=(int, float, np.integer, np.floating)):
        return isinstance(v, list) and all(isinstance(c, kinds) and not isinstance(c, bool) for c in v)

    def finite(c):  # neither infinite nor NaN, and an integer that fits a float
        return abs(c) <= sys.float_info.max

    def count(v):
        return list_of([v]) and finite(v) and float(v).is_integer() and v >= 1

    def is_object(v):
        return isinstance(v, dict)

    def is_string(v):
        return isinstance(v, str)

    n = int(field_of(data, "n", "n", count, "a positive whole number"))
    N = int(field_of(data, "N", "N", count, "a positive whole number"))

    def point(v):  # one finite number per axis
        return list_of(v) and len(v) == n and all(map(finite, v))

    per_axis = f"a list of n = {n} finite numbers"
    dom = field_of(data, "domain", "domain", is_object, "an object")
    box = DomainBox(*(tuple(field_of(dom, key, f"domain.{key}", point, per_axis))
                      for key in ("lo", "hi", "resolution")))
    hspec = field_of(data, "H", "H", is_string, 'an expression or "dirichlet"')
    H = (Hamiltonian.dirichlet(n, N) if hspec == "dirichlet"
         else Hamiltonian(n, N, expr=parse_field(hspec, (n, N), "problem file field 'H'")))
    uspec = field_of(data, "u", "u", lambda v: isinstance(v, dict) or list_of(v, str),
                     'a list of expressions or {"grid": <path>}')
    if isinstance(uspec, dict):
        try:
            u = read_grid_csv(base / field_of(uspec, "grid", "u.grid", is_string, "a path"), box, N)
        except OSError as exc:  # a file that is missing or cannot be read
            raise type(exc)(f"problem file field 'u.grid': {exc}") from None
    else:
        if len(uspec) != N:
            raise ValueError(f"u must have {N} components, got {len(uspec)}")
        u = ClosedFormMap([parse_field(src, (n, 1), f"problem file field 'u[{k}]'") for k, src in enumerate(uspec)],
                          n)
    singular_spec = data.get("singular") or []
    if not isinstance(singular_spec, list):
        raise TypeError(f"problem file field 'singular' must be a list, got {singular_spec!r}")
    for k, item in enumerate(singular_spec):
        if not is_object(item):
            raise TypeError(f"problem file field 'singular[{k}]' must be an object, got {item!r}")
        field_of(item, "axis", f"singular[{k}].axis",
                 lambda v: list_of([v]) and finite(v) and float(v).is_integer() and 0 <= v < n,
                 f"an axis index in 0..{n - 1}")
        field_of(item, "value", f"singular[{k}].value", lambda v: list_of([v]) and finite(v), "a finite number")
    singular = _singular_mask_from_spec(box, singular_spec)
    if data.get("subdomain") is None:
        subdomain = Subdomain.whole(box, singular)
    else:
        sub = field_of(data, "subdomain", "subdomain", is_object, "an object")
        lo, hi = (field_of(sub, key, f"subdomain.{key}", point, per_axis) for key in ("lo", "hi"))
        subdomain = Subdomain.from_box(box, lo, hi, singular)
    # the calls read u at the subdomain's nodes; one that reads it elsewhere scans there
    subdomain.singular |= prescan_singularities(u, box, subdomain.evaluable_nodes())
    return Problem(n=n, N=N, box=box, H=H, u=u, subdomain=subdomain)


def problem_digest(data: dict) -> str:
    import hashlib  # loads OpenSSL: about 2 ms that importing the library need not pay

    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _read_rows(path, dim: int, N: int):
    """The grid CSV table row by row with ``csv.reader``, and the line of each row.

    Blank lines and lines whose first field starts with ``#`` are skipped; a
    row that is not dim + N floats raises ValueError naming its line.
    """
    width = dim + N
    rows, lines = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            try:
                if len(row) != width:
                    raise ValueError(f"{len(row)} fields, expected {dim} node indices and {N} components")
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise ValueError(f"grid CSV {path}, line {reader.line_num}: {exc}") from None
            lines.append(reader.line_num)
    return np.array(rows, dtype=float).reshape(len(rows), width), lines


def _parse_table(path, width: int):
    """The grid CSV table in one ``np.loadtxt`` call, or None where that call refuses the file.

    It refuses comment lines, quotes, underscores in numbers and every row
    that :func:`_read_rows` refuses, and reads what it accepts to the same
    values.  A file without rows is refused too, since ``loadtxt`` warns on it.
    A file that does not decode is refused, so the line reader raises its error.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        if not text.strip("\n"):
            return None
        table = np.loadtxt(io.StringIO(text), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return table if table.shape[1] == width else None


def read_grid_csv(path, box: DomainBox, N: int) -> GridMap:
    """Grid CSV: one row per node, columns = node multi-index then u components.

    Node indices must be whole numbers inside the grid and each node may
    appear once; nodes without a row stay invalid.  A bad row raises
    ValueError naming its line.  The table is parsed in one numpy call; the
    files that call refuses, and the line numbers of a bad row, come from
    the row-by-row reader.
    """
    table = _parse_table(path, box.dim + N)
    lines = None
    if table is None:
        table, lines = _read_rows(path, box.dim, N)
    raw = table[:, :box.dim]
    whole = np.all(np.isfinite(raw) & (raw == np.round(raw)), axis=1)
    idx = np.where(whole[:, None], raw, -1).astype(int)
    inside = whole & np.all((idx >= 0) & (idx < np.asarray(box.shape)), axis=1)
    flat = np.where(inside, np.ravel_multi_index(np.where(inside[:, None], idx, 0).T, box.shape), -1)
    _, first = np.unique(flat, return_index=True)
    repeated = inside.copy()
    repeated[first] = False
    bad = np.flatnonzero(~inside | repeated)
    if bad.size:
        if lines is None:
            lines = _read_rows(path, box.dim, N)[1]
        r = bad[0]
        where = f"grid CSV {path}, line {lines[r]}"
        node = tuple(idx[r].tolist())
        if not whole[r]:
            raise ValueError(f"{where}: node indices {raw[r].tolist()} are not whole numbers")
        if not inside[r]:
            raise ValueError(f"{where}: node {node} lies outside the grid {box.shape}")
        earlier = lines[np.flatnonzero(flat == flat[r])[0]]
        raise ValueError(f"{where}: node {node} already given on line {earlier}")
    values = np.full((N,) + box.shape, np.nan)
    values[(slice(None),) + tuple(idx.T)] = table[:, box.dim:].T
    return GridMap(box, values)


def _write_csv_rows(path, rows) -> None:
    """Rows of strings, comma separated with ``\\r\\n`` line ends: the ``csv`` module's
    default dialect, which quotes none of the numbers and names written here."""
    with open(path, "w", newline="") as fh:
        fh.write("".join(",".join(row) + "\r\n" for row in rows))


def write_grid_csv(path, grid: GridMap) -> None:
    """One row per node, lexicographic: node multi-index then the components as
    ``repr`` floats, written by :func:`_write_csv_rows`."""
    columns = [map(str, col) for col in grid.box.all_nodes().T.tolist()]
    columns += [map(repr, comp) for comp in grid.values.reshape(grid.N, -1).tolist()]
    _write_csv_rows(path, zip(*columns))
