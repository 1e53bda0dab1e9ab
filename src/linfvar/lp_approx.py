"""Candidate sup-energy minimisers via p-power energy minimisation with continuation.

Minimises the discretised functional

    F_p(U) = sum_cells vol * H(x_c, u_c, P_c)^p

over interior node values with Dirichlet data fixed on the subdomain
boundary.  The quadrature is cell-based: H is evaluated at cell midpoints
with the multilinear (corner-average) value and gradient.  This makes
affine maps exactly stationary for translation-invariant densities at
every p, which a nodal quadrature with one-sided boundary stencils does
not achieve.

The optimiser is a truncated Newton-CG method (Dembo, Eisenstat &
Steihaug 1982; Nocedal & Wright, *Numerical Optimization*, ch. 7) with
Armijo backtracking, written in numpy over the interior unknowns only.
It works on the normalised objective F_p^(1/p), a monotone transform of
F_p whose magnitude stays O(H) at every p, so unit steps and the tolerance
``tol_opt`` mean the same thing along the whole continuation.  Where the
predicted decrease of a step is below the rounding of F_p^(1/p), the line
search judges a trial by the sup-norm of its gradient instead (Hager &
Zhang 2005 switch to approximate Wolfe conditions there).  One table, the
corner Jacobian B, gives the cell jets (B^T on the corner values), their
transpose (B on the cell covectors) and the cell form B K B^T of the exact
Hessian-vector products, K from the second-order jets of H at the cells.
Each Newton step assembles that form once as a fixed-width stencil over
the interior unknowns (3^n neighbours times N components per row), so a
product is one gather and one row sum.  CG is preconditioned by the Jacobi
diagonal, the stencil's centre entry.  The CG cap, the forcing term and
the line-search constants are fixed module constants.

The continuation starts p = 2 from the transfinite (Coons) interpolant of
the boundary data (Gordon & Hall 1973), :func:`coons_init`, whose cells do
not all start flat as those of a constant fill do; :func:`constant_fill_init`
is kept as the reference fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Sequence

import numpy as np

from . import operators
from .energy import _density, _require_finite, subdomain_nodes
from .exprlang import EvalError
from .problem import GridMap, Hamiltonian, Subdomain, hamiltonian_jet, jets_at_nodes

__all__ = [
    "LpProblem",
    "LpResult",
    "OptimizerSettings",
    "StageResult",
    "boundary_values_from_map",
    "constant_fill_init",
    "coons_init",
    "lp_minimize",
    "p_continuation",
]


_CG_MAX_ITER = 500   # Hessian-vector products per Newton step
_DIAG_FLOOR = 1e-12  # preconditioner entries are at least this times the largest
_ARMIJO_C = 1e-4     # sufficient-decrease constant
_BACKTRACK = 0.5     # step factor after a rejected trial
_MIN_STEP = 1e-16    # the line search stalls below this step
_FLAT_ULPS = 64.0    # a step is flat when |c g.d| is below this many eps of F^(1/p)


@dataclass
class OptimizerSettings:
    max_iter: int = 5000
    tol_opt: float = 1e-9          # sup-norm of the normalised-objective gradient


@dataclass
class LpProblem:
    H: Hamiltonian
    O: Subdomain
    boundary_values: np.ndarray    # (N,) + grid shape; finite exactly on boundary nodes
    p: float
    settings: OptimizerSettings = field(default_factory=OptimizerSettings)

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 2):
            raise ValueError(f"p must be a finite number >= 2 (a --p-schedule entry), got {self.p:g}")
        nodes = int(self.O.mask.sum())
        if nodes > 129 * 129:
            raise ValueError(f"subdomain has {nodes} nodes; the desk-scale cap is 129^2")


@dataclass
class LpResult:
    solution: GridMap
    p_energy: float
    e_inf: float
    e_inf_interior: float  # max of H over the interior evaluable nodes
    grad_norm: float
    iters: int
    evals: int  # energy evaluations, rejected and failed trial steps included
    hess_products: int  # Hessian-vector products of the CG inner solves
    flat_steps: int  # accepted steps that the gradient test judged, as F could not resolve them
    status: str  # "converged" | "max_iter" | "line_search_stalled"


@dataclass
class StageResult(LpResult):
    """One continuation stage: the stage's :class:`LpResult`, its p and its residual."""

    p: float
    residual_norm: float  # sup over interior nodes of the reduced residual


def boundary_values_from_map(u_ref, O: Subdomain) -> np.ndarray:
    """Sample a reference map on the subdomain boundary nodes (NaN elsewhere)."""
    nodes = O.boundary_nodes()
    jets = jets_at_nodes(u_ref, O.box, nodes, order=1)
    values = np.full((u_ref.N,) + O.box.shape, np.nan)
    values[(slice(None),) + tuple(nodes.T)] = jets.value
    return values


def _window(O: Subdomain):
    """Index ranges of the (required box-shaped) masked node set."""
    mask = O.mask
    idx = np.argwhere(mask)
    lo = idx.min(axis=0)
    hi = idx.max(axis=0)
    window = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))
    if int(mask[window].sum()) != int(mask.sum()) or not mask[window].all():
        raise ValueError("p-power minimisation needs a box-shaped subdomain")
    return window


def constant_fill_init(prob: LpProblem) -> GridMap:
    """Boundary data on the boundary, componentwise boundary mean inside.

    A reference fill for tests; :func:`p_continuation` starts from :func:`coons_init`.
    """
    window = _window(prob.O)
    g = prob.boundary_values
    N = g.shape[0]
    values = np.full_like(g, np.nan)
    bmask = prob.O.boundary_mask
    for a in range(N):
        mean = float(np.nanmean(np.where(bmask, g[a], np.nan)))
        values[a][window] = mean
    values[:, bmask] = g[:, bmask]
    return GridMap(prob.O.box, values)


def coons_init(prob: LpProblem) -> GridMap:
    """Boundary data on the boundary, its transfinite (Coons) interpolant inside.

    Per component, the Boolean sum of the 1-D linear interpolants between
    the two faces of the window along each axis (Gordon & Hall 1973): each
    axis adds the linear interpolant of what the earlier axes leave on its
    faces.  For n = 1 it is the linear interpolant.  Boundary entries are
    the data bit for bit.
    """
    window = _window(prob.O)
    g = prob.boundary_values[(slice(None),) + window]
    fill = np.zeros_like(g)
    for i, m in enumerate(g.shape[1:]):
        t = np.linspace(0.0, 1.0, m).reshape((m,) + (1,) * (g.ndim - 2 - i))
        rest = g - fill
        face = (slice(None),) * (1 + i)
        fill += (1.0 - t) * rest[face + (slice(0, 1),)] + t * rest[face + (slice(m - 1, m),)]
    bmask = prob.O.boundary_mask
    values = np.full_like(prob.boundary_values, np.nan)
    values[(slice(None),) + window] = fill
    values[:, bmask] = prob.boundary_values[:, bmask]
    return GridMap(prob.O.box, values)


class _CellScheme:
    """Cell-midpoint quadrature with multilinear corner-average jets.  Nothing it holds depends
    on p, so one scheme serves every stage; the p-dependent methods take the stage's p."""

    def __init__(self, prob: LpProblem):
        self.H = prob.H
        box = prob.O.box
        self.window = _window(prob.O)
        self.shape = tuple(s.stop - s.start for s in self.window)
        if any(m < 2 for m in self.shape):
            raise ValueError("subdomain too small for cell quadrature")
        self.n = box.dim
        self.N = prob.H.N
        self.h = box.spacing
        self.vol = float(np.prod(self.h))
        self.cells = tuple(m - 1 for m in self.shape)
        self.corners = list(product((0, 1), repeat=self.n))
        # (component, cell) index of each corner's nodes within the window
        self.corner_index = [(slice(None),) + tuple(slice(ci, ci + m) for ci, m in zip(c, self.cells))
                             for c in self.corners]
        # midpoint coordinates, shape (n,) + cells
        axes = [box.axis_coords(i)[self.window[i]] for i in range(self.n)]
        mids = [0.5 * (ax[1:] + ax[:-1]) for ax in axes]
        self.x_mid = np.stack(np.meshgrid(*mids, indexing="ij"), axis=0)
        bmask = prob.O.boundary_mask[self.window]
        self.interior = ~bmask  # within the window
        g = prob.boundary_values[(slice(None),) + self.window]
        if not prob.O.evaluable_mask.any():
            raise ValueError("subdomain has no evaluable nodes")
        bad = np.argwhere(bmask & ~np.isfinite(g).all(axis=0))
        if bad.size:
            node = tuple(int(i + w.start) for i, w in zip(bad[0], self.window))
            raise ValueError(f"boundary data is not finite at boundary node {node}")
        self.boundary_mask = bmask
        self.boundary_data = g
        # B, d(z)/d(corner node values) with z = (eta, P) in Hamiltonian.seeds() order, row
        # (corner, component), (corners N) x (N + N n): component b's value is the corner
        # mean, its P_i the signed corner values over h_i, averaged over the corner pairs
        N, n, C = self.N, self.n, len(self.corners)
        signs = 2.0 * np.array(self.corners) - 1.0  # (corners, n)
        b = np.arange(N)
        B = np.zeros((C, N, N + N * n))
        B[:, b, b] = 1.0 / C
        B[:, b[:, None], N + n * b[:, None] + np.arange(n)] = (signs / (C // 2 * self.h))[:, None]
        self.corner_jacobian = B.reshape(C * N, N + N * n)
        # an unknown's stencil: its node's 3^n neighbours (offsets in product order) times N components
        offsets = list(product((-1, 0, 1), repeat=n))
        self.centre = offsets.index((0,) * n)
        # the offset from corner k to corner l of a cell
        self.offset_of = {(k, l): offsets.index(tuple(b - a for a, b in zip(ck, cl)))
                          for k, ck in enumerate(self.corners) for l, cl in enumerate(self.corners)}
        # each unknown's stencil columns; a neighbour on the boundary takes the padding slot N * nodes
        nodes = int(self.interior.sum())
        number = np.full(tuple(m + 2 for m in self.shape), -1)
        number[(slice(1, -1),) * n][self.interior] = np.arange(nodes)
        neighbours = np.stack(
            [number[tuple(slice(1 + o, 1 + o + m) for o, m in zip(off, self.shape))][self.interior]
             for off in offsets], axis=1)[:, :, None]
        columns = np.where(neighbours >= 0, neighbours + nodes * np.arange(N), N * nodes)
        self.columns = np.broadcast_to(columns, (N,) + columns.shape).reshape(N * nodes, -1)

    def cell_jets(self, W: np.ndarray):
        """Midpoint value (corner mean) and multilinear gradient of the window array W:
        B^T applied to each cell's corner values, (N,) + cells and (N, n) + cells."""
        corners = np.stack([W[idx] for idx in self.corner_index])  # (corners, N) + cells
        z = np.tensordot(self.corner_jacobian, corners.reshape((-1,) + self.cells), axes=(0, 0))
        return z[:self.N], z[self.N:].reshape((self.N, self.n) + self.cells)

    def scatter(self, c_eta: np.ndarray, c_P: np.ndarray) -> np.ndarray:
        """Transpose of :meth:`cell_jets`: B applied to the per-cell covectors (N,) + cells and
        (N, n) + cells, each corner's part summed onto its window nodes, boundary entries included."""
        c = np.concatenate([c_eta, c_P.reshape((-1,) + self.cells)])
        parts = np.tensordot(self.corner_jacobian, c, axes=(1, 0)).reshape((-1, self.N) + self.cells)
        G = np.zeros((self.N,) + self.shape)
        for part, idx in zip(parts, self.corner_index):
            G[idx] += part
        return G

    def energy_and_jets(self, W: np.ndarray, p: float):
        """F = vol * sum h^p over the cells, the cell densities h and H's order-2 cell jets."""
        val, P = self.cell_jets(W)
        ham = hamiltonian_jet(self.H, self.x_mid, val, P, order=2)
        hvals = np.asarray(ham.value, dtype=float)
        if not np.isfinite(hvals).all():
            _require_finite(~np.isfinite(hvals).ravel(), self.x_mid.reshape(self.n, -1).T, "cell midpoint")
        if np.any(hvals < 0):
            raise ValueError("density must be nonnegative for p-power minimisation")
        with np.errstate(over="ignore"):
            F = self.vol * float(np.sum(hvals ** p))
        return F, hvals, ham

    def _weight(self, hvals, p: float, q: float) -> np.ndarray:
        """vol * d^q(h^p)/dh^q at the cell densities (q = 1, 2)."""
        with np.errstate(over="ignore"):
            return self.vol * p * (p - 1.0 if q == 2 else 1.0) * hvals ** (p - q)

    def gradient(self, hvals, ham, p: float):
        """Raw gradient of F over the window nodes (boundary entries included)."""
        w1 = self._weight(hvals, p, 1)
        return self.scatter(w1 * ham.eta_grad, w1 * ham.P_grad)

    def grad_scale(self, F: float, p: float) -> float:
        """d(F^(1/p))/dF: converts raw gradients to the normalised-objective frame."""
        if F <= 0.0:
            return 1.0
        return (1.0 / p) * F ** (1.0 / p - 1.0)

    def score(self, F: float, p: float) -> float:
        """The normalised objective F^(1/p), a monotone transform of the raw power form."""
        if F <= 0.0:
            return 0.0
        with np.errstate(over="ignore"):
            return F ** (1.0 / p)

    def normalised_gradient(self, F: float, hvals, ham, p: float) -> np.ndarray:
        """Gradient of F^(1/p) over the interior unknowns, flattened."""
        G = self.gradient(hvals, ham, p)
        return self.grad_scale(F, p) * G[:, self.interior].ravel()

    def curvature(self, F: float, hvals, ham, g: np.ndarray, p: float):
        """Hessian-vector product and Jacobi diagonal of F^(1/p) over the interior unknowns.

        ``ham`` holds the order-2 jets of H at the cells and ``g`` the
        normalised gradient.  With z = (eta, P) the cell jets J W, the
        weights w1 = vol p H^(p-1), w2 = vol p (p-1) H^(p-2) and a the
        gradient scale,

            Hv = a J^T [w2 (H_z . Jv) H_z + w1 H_zz Jv] + a (1/p - 1) / F (grad F . v) grad F.

        The first term, the cell form J^T K J, is assembled once per call
        as a stencil: each unknown's row over its 3^n neighbours and N
        components, summed from the per-cell blocks B K B^T of the corner
        Jacobian B.  A product is then one gather and one row sum, plus
        the rank-one term.  The diagonal is the stencil's centre entry; it
        leaves out the rank-one term.
        """
        N, n = self.N, self.n
        a = self.grad_scale(F, p)
        hz = np.concatenate([ham.eta_grad, ham.P_grad.reshape((N * n,) + self.cells)])
        hzz = np.concatenate([ham.eta_hess, ham.P_hess.reshape((N * n, -1) + self.cells)])[:, n:]
        # the cell form a [w2 H_z H_z^T + w1 H_zz], (N + N n)^2 + cells
        K = a * (self._weight(hvals, p, 2) * hz[:, None] * hz[None] + self._weight(hvals, p, 1) * hzz)
        # the per-cell blocks B K B^T, summed onto the stencil of each window node
        B = self.corner_jacobian
        z = B.shape[1]
        blocks = np.einsum("izc,jz->ijc", np.tensordot(B, K.reshape(z, z, -1), axes=(1, 0)), B)
        blocks = blocks.reshape((len(self.corners), N, len(self.corners), N) + self.cells)
        S = np.zeros((N, 3 ** n, N) + self.shape)  # row component, offset, column component, row node
        for (k, l), o in self.offset_of.items():
            S[(slice(None), o, slice(None)) + self.corner_index[k][1:]] += blocks[k, :, l]
        interior = self.interior
        values = S[..., interior].transpose(0, 3, 1, 2).reshape(self.columns.shape)
        # the rank-one term in the normalised frame: grad F = g / a
        rank_one = (1.0 / p - 1.0) / (a * F) if F > 0.0 else 0.0
        padded = np.zeros(g.size + 1)

        def product(v: np.ndarray) -> np.ndarray:
            padded[:-1] = v
            return np.einsum("ij,ij->i", values, padded[self.columns]) + rank_one * float(g @ v) * g

        diag = S[np.arange(N), self.centre, np.arange(N)][:, interior].ravel()
        # cells where H is not convex can leave a diagonal entry <= 0
        top = _sup_norm(diag)
        return product, np.maximum(diag, _DIAG_FLOOR * top if top > 0.0 else 1.0)


def _sup_norm(g: np.ndarray) -> float:
    return float(np.max(np.abs(g))) if g.size else 0.0


def _newton_direction(g: np.ndarray, product, diag: np.ndarray):
    """Truncated preconditioned CG on H d = -g (Steihaug's stopping rules, no trust region).

    CG stops once the residual is below the forcing term
    min(0.5, sqrt|g|) |g| (Dembo, Eisenstat & Steihaug 1982), after
    _CG_MAX_ITER products, or at a direction of nonpositive curvature; at
    the first step that is the preconditioned steepest-descent direction
    -diag^-1 g.  Returns the direction and the number of products.
    """
    gnorm = math.sqrt(float(g @ g))
    forcing = min(0.5, np.sqrt(gnorm)) * gnorm
    z = np.zeros_like(g)
    r = g.copy()
    y = r / diag
    d = -y
    ry = float(r @ y)
    for j in range(_CG_MAX_ITER):
        Hd = product(d)
        curv = float(d @ Hd)
        if curv <= 0.0:
            return (d if j == 0 else z), j + 1
        alpha = ry / curv
        z += alpha * d
        r += alpha * Hd
        if math.sqrt(float(r @ r)) <= forcing:
            return z, j + 1
        y = r / diag
        ry_new = float(r @ y)
        d = -y + (ry_new / ry) * d
        ry = ry_new
    return z, _CG_MAX_ITER


def lp_minimize(prob: LpProblem, init: GridMap, scheme: _CellScheme | None = None) -> LpResult:
    """Truncated Newton-CG with Armijo backtracking on the normalised p-power energy F_p^(1/p).

    The unknowns are the interior node values of the subdomain window.  Each
    iteration evaluates the second-order jets of H at the cells, solves the
    Newton system inexactly by Jacobi-preconditioned CG with exact
    Hessian-vector products of the step's assembled cell form
    (:func:`_newton_direction`), and backtracks from a unit step.  A trial
    passes the Armijo test on F_p^(1/p); when the step is flat, that is
    |c g.d| is below ``_FLAT_ULPS`` eps |F_p^(1/p)| so that the test would
    compare rounding, a trial passes instead if the sup-norm of its
    gradient is below the current one (counted in ``flat_steps``).  Stops
    with ``converged`` once the sup-norm of the gradient of F_p^(1/p) is at
    most ``tol_opt``, with ``max_iter`` after that many accepted steps, and
    with ``line_search_stalled`` when no step along the CG direction passes.

    The initial iterate must match the boundary data exactly; boundary
    entries are never written, so the data is preserved bit-exactly.
    ``scheme`` is the problem's :class:`_CellScheme`, built here if not given.
    """
    scheme = _CellScheme(prob) if scheme is None else scheme
    p = prob.p
    window = scheme.window
    W = np.array(init.values[(slice(None),) + window], dtype=float)
    if not np.isfinite(W).all():
        raise ValueError("initial iterate has non-finite values on the subdomain")
    if not np.array_equal(W[:, scheme.boundary_mask], scheme.boundary_data[:, scheme.boundary_mask]):
        raise ValueError("initial iterate does not match the boundary data")
    settings = prob.settings
    interior = scheme.interior
    evals = 0
    hess_products = 0
    flat_steps = 0

    def evaluate(x):
        """Energy at interior values x, or None where the density is not admissible or not evaluable."""
        nonlocal evals
        evals += 1
        W_trial = W.copy()
        W_trial[:, interior] = x.reshape(scheme.N, -1)
        try:
            return (W_trial,) + scheme.energy_and_jets(W_trial, p)
        except (ValueError, EvalError):
            return None

    def line_search(d, gd):
        """First acceptable point along d, halving from a unit step, with its gradient and
        whether the step was flat; None if the step underflows."""
        f0 = scheme.score(F, p)
        flat = abs(_ARMIJO_C * gd) < _FLAT_ULPS * np.finfo(float).eps * abs(f0)
        step = 1.0
        while step >= _MIN_STEP:
            trial = evaluate(x + step * d)
            if trial is not None:
                _, F_trial, hvals_trial, ham_trial = trial
                if flat:
                    g_trial = scheme.normalised_gradient(F_trial, hvals_trial, ham_trial, p)
                    if _sup_norm(g_trial) < _sup_norm(g):
                        return trial, g_trial, True
                elif scheme.score(F_trial, p) <= f0 + _ARMIJO_C * step * gd:
                    return trial, scheme.normalised_gradient(F_trial, hvals_trial, ham_trial, p), False
            step *= _BACKTRACK
        return None

    x = W[:, interior].ravel()
    F, hvals, ham = scheme.energy_and_jets(W, p)
    evals += 1
    g = scheme.normalised_gradient(F, hvals, ham, p)
    status = "max_iter"
    iters = 0  # accepted Newton steps
    while iters < settings.max_iter:
        if _sup_norm(g) <= settings.tol_opt:
            status = "converged"
            break
        product, diag = scheme.curvature(F, hvals, ham, g, p)
        d, used = _newton_direction(g, product, diag)
        hess_products += used
        found = line_search(d, float(g @ d))
        if found is None:
            status = "line_search_stalled"
            break
        (W, F, hvals, ham), g, flat = found
        iters += 1
        flat_steps += flat
        x = W[:, interior].ravel()
    values = np.full((scheme.N,) + prob.O.box.shape, np.nan)
    values[(slice(None),) + window] = W
    solution = GridMap(prob.O.box, values)
    # the density once at the evaluable nodes; the interior ones are a subset of them
    nodes = subdomain_nodes(prob.O)
    density = _density(prob.H, jets_at_nodes(solution, prob.O.box, nodes, order=1), nodes)
    inner = density[prob.O.interior_mask[tuple(nodes.T)]]
    if inner.size == 0:
        raise ValueError("subdomain has no evaluable nodes")
    return LpResult(
        solution=solution,
        p_energy=F,
        e_inf=float(np.max(density)),
        e_inf_interior=float(np.max(inner)),
        grad_norm=_sup_norm(g),
        iters=iters,
        evals=evals,
        hess_products=hess_products,
        flat_steps=flat_steps,
        status=status,
    )


def p_continuation(prob: LpProblem, schedule: Sequence):
    """Warm-started solves along an increasing p schedule starting at 2.

    The p = 2 stage starts from :func:`coons_init`, the transfinite
    interpolant of the boundary data, every later stage from the previous
    stage's solution, and all stages share one :class:`_CellScheme`.  Per
    stage records the sup-energy of the iterate over the whole subdomain
    and over its interior nodes (the former is usually attained on the
    fixed boundary data), and the sup-norm over interior nodes of the
    reduced critical-system residual.
    """
    schedule = [float(p) for p in schedule]
    for k, p in enumerate(schedule, 1):
        if not (math.isfinite(p) and p >= 2):
            raise ValueError(f"--p-schedule entry {k} is {p:g}; every p must be a finite number >= 2")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    if schedule and schedule[0] != 2.0:
        raise ValueError("schedule must start at p = 2")
    stages = []
    scheme = _CellScheme(prob)
    current = coons_init(prob)
    for p in schedule:
        result = lp_minimize(replace(prob, p=p), current, scheme=scheme)
        rf = operators.residual_field(result.solution, prob.H, prob.O, variant="reduced")
        res_norm = float(np.max(rf.norms))
        stages.append(StageResult(**vars(result), p=p, residual_norm=res_norm))
        current = result.solution
    return stages
