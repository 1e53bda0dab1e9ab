"""Dense small-matrix kernels: rank with tolerance and normal-space projections.

``proj_range_complement`` builds the orthogonal projection onto the
orthogonal complement of the range of an N x n matrix (equivalently, onto
the nullspace of its transpose).  ``reduced_nullspace_proj`` restricts that
projection to the directions that extend continuously into the nullspaces
of nearby matrices of a field: the numerically "reduced" normal space.
The batched kernel behind it is two steps over many centres: the samples'
``nullspace_projectors``, from the vectorised Jacobi rotations of
``rank_decision``, then ``average_projectors``, which restricts each
centre's mean projector to its nullspace (LAPACK ``eigh`` + QR).  Callers
form the mean: closed-form maps average each centre's own samples; grid
maps sum one projector per node over one shared offset set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ProjectionReport",
    "ReducedProjections",
    "ball_sample_count",
    "average_projectors",
    "ball_sample_points",
    "check_ball_parameters",
    "complement_projectors",
    "halton",
    "nullspace_projectors",
    "proj_range_complement",
    "rank_decision",
    "reduced_nullspace_proj",
]

DEFAULT_RANK_TOL = 1e-9
_JACOBI_SWEEPS = 30  # cyclic sweeps over the row pairs of an N >= 3 matrix
_EPS = np.finfo(float).eps


@dataclass
class ProjectionReport:
    """Orthogonal projection onto a subspace, with the rank decision that produced it."""

    projection: np.ndarray   # (N, N), symmetric idempotent
    rank_used: int           # rank of the input matrix at the decision tolerance
    tolerance_used: float    # absolute singular-value cutoff
    basis: np.ndarray        # (N, k) orthonormal columns spanning the projected subspace


@dataclass
class ReducedProjections:
    """Reduced normal projections of a batch of M centres."""

    projection: np.ndarray   # (M, N, N)
    basis: np.ndarray        # (M, N, N): the first reduced_dim[i] columns of basis[i], rest zero
    rank: np.ndarray         # (M,) rank of each centre matrix
    reduced_dim: np.ndarray  # (M,) dimension of each reduced normal space


def rank_decision(A: np.ndarray, tol: float = DEFAULT_RANK_TOL):
    """Left singular vectors U, ranks and cutoffs of a batch A (..., N, n), by Jacobi rotations.

    One-sided Jacobi (Demmel & Veselic 1992; Golub & Van Loan 8.6) rotates pairs of rows of
    A / max|A| until they are orthogonal to rounding: none for N = 1, one for N = 2, cyclic
    sweeps for larger N.  The rows' norms times max|A| are the singular values, sorted in
    descending order with U's columns.  The rank counts the nonzero singular values >= tol *
    sigma_max, and the columns U[..., rank:] span N(A^T) = R(A)^perp.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    batch, (N, n) = A.shape[:-2], A.shape[-2:]
    scale = np.max(np.abs(A), axis=(-2, -1), initial=0.0).reshape(-1)
    # the rows of A / scale and of U^T turn together, so A = scale U Z[..., :n] throughout
    Z = np.concatenate([A.reshape(-1, N, n) / np.where(scale > 0, scale, 1.0)[:, None, None],
                        np.broadcast_to(np.eye(N), (scale.size, N, N))], axis=-1)
    live, W = np.arange(scale.size), Z  # the matrices still turning: all of Z in the first sweep
    for _ in range(0 if N < 2 else 1 if N == 2 else _JACOBI_SWEEPS):
        moved = np.zeros(live.size, dtype=bool)
        for i, j in combinations(range(N), 2):
            zi, zj = W[:, i], W[:, j]
            xi, xj = zi[:, :n], zj[:, :n]
            alpha, beta, gamma = (np.einsum("ij,ij->i", a, b) for a, b in ((xi, xi), (xj, xj), (xi, xj)))
            # the pair turns unless orthogonal to rounding, relative to the rows or to the scale
            turn = np.abs(gamma) > _EPS * np.sqrt(alpha * beta) + _EPS ** 2
            theta = np.where(turn, 0.5 * np.arctan2(-2.0 * gamma, alpha - beta), 0.0)
            c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
            W[:, i], W[:, j] = c * zi - s * zj, s * zi + c * zj
            moved |= turn
        if W is not Z:
            Z[live] = W
        live = live[moved]
        if not live.size:
            break
        W = Z[live]
    s = np.sqrt(np.einsum("kij,kij->ki", Z[..., :n], Z[..., :n])) * scale[:, None]
    U = np.swapaxes(Z[..., n:], -1, -2)
    order = np.argsort(-s, axis=-1, kind="stable")
    s, U = np.take_along_axis(s, order, axis=-1), np.take_along_axis(U, order[:, None, :], axis=-1)
    smax = s[:, 0] if N else np.zeros(scale.size)
    cutoff = tol * smax
    rank = np.sum((s >= cutoff[:, None]) & (s > 0), axis=-1)  # a cutoff may underflow to 0
    return U.reshape(batch + (N, N)), rank.reshape(batch), cutoff.reshape(batch)


def proj_range_complement(A: np.ndarray) -> ProjectionReport:
    """Projection onto the orthogonal complement of the range of A.

    Rank is decided by :func:`rank_decision`; the zero matrix yields the
    identity projection.
    """
    U, rank, cutoff = rank_decision(A)
    basis = U[:, int(rank):]  # N(A^T) = R(A)^perp
    return ProjectionReport(projection=basis @ basis.T, rank_used=int(rank), tolerance_used=float(cutoff),
                            basis=basis)


def ball_sample_count(dim: int) -> int:
    """Sample count for the reduced projection on a dim-dimensional ball: 8, 16, else 32."""
    return {1: 8, 2: 16}.get(dim, 32)


def halton(m: int, dim: int) -> np.ndarray:
    """First m points of the unscrambled Halton sequence in bases 2, 3, 5, shape (m, dim)."""
    if dim > 3:
        raise ValueError(f"Halton points are implemented for dim <= 3, got {dim}")
    out = np.zeros((m, dim))
    for j, base in enumerate((2, 3, 5)[:dim]):
        k = np.arange(m)
        scale = 1.0
        while k.any():  # radical inverse: mirror the base-b digits of k about the point
            scale /= base
            out[:, j] += (k % base) * scale
            k //= base
    return out


def ball_sample_points(center: np.ndarray, eps, m: int) -> np.ndarray:
    """Deterministic low-discrepancy points in the closed ball B_eps(center), shape (m, dim).

    A batch of centres (M, dim) with radii ``eps`` (scalar or (M,)) gives
    (M, m, dim): every ball gets the same offsets, scaled by its own radius.
    """
    center = np.asarray(center, dtype=float)
    centers = np.atleast_2d(center)
    dim = centers.shape[1]
    eps = np.broadcast_to(np.asarray(eps, dtype=float), centers.shape[:1])[:, None]
    if dim == 1:
        # stratified symmetric offsets, never exactly the center
        u = (np.arange(m) + 0.5) / m
        offs = eps * (2.0 * u - 1.0)
        offsets = np.where(np.abs(offs) < 1e-3 * eps, 1e-3 * eps, offs)[:, :, None]
    else:
        u = halton(m, dim)
        radius = eps * u[:, 0] ** (1.0 / dim)
        if dim == 2:
            theta = 2.0 * np.pi * u[:, 1]
            direction = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        else:
            # inverse-CDF on the sphere for the polar angle, uniform in azimuth (dim == 3)
            z = 2.0 * u[:, 1] - 1.0
            phi = 2.0 * np.pi * u[:, 2] if dim >= 3 else np.zeros(m)
            r_xy = np.sqrt(np.maximum(1.0 - z ** 2, 0.0))
            cols = [r_xy * np.cos(phi), r_xy * np.sin(phi), z]
            direction = np.stack(cols[:dim], axis=1)
            norm = np.linalg.norm(direction, axis=1, keepdims=True)
            direction = direction / np.where(norm == 0, 1.0, norm)
        offsets = radius[:, :, None] * direction
    points = centers[:, None, :] + offsets
    return points if center.ndim == 2 else points[0]


def complement_projectors(U: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Projectors (..., N, N) onto R(A)^perp from A's :func:`rank_decision` factors U and ranks."""
    B = U * (np.arange(U.shape[-1]) >= rank[..., None])[..., None, :]  # nullspace columns only
    return B @ np.swapaxes(B, -1, -2)


def nullspace_projectors(A: np.ndarray) -> np.ndarray:
    """Projectors (..., N, N) onto N(A^T) = R(A)^perp of a batch of matrices A (..., N, n)."""
    U, rank, _ = rank_decision(A)
    return complement_projectors(U, rank)


def average_projectors(U: np.ndarray, rank: np.ndarray, mean: np.ndarray, tol_angle) -> ReducedProjections:
    """Reduced nullspace projections of M centres from their samples' mean nullspace projector.

    ``U`` (M, N, N) and ``rank`` (M,) are the centres' :func:`rank_decision`; ``mean`` (M, N, N)
    holds each centre's mean of its samples' :func:`nullspace_projectors`, formed by the caller.
    For every rank-deficient centre the mean is restricted to the centre's nullspace, and the
    eigenvectors with eigenvalue >= 1 - tol_angle (scalar or one value per centre) span the
    reduced space.  Full-rank centres get the zero projection; their mean is not read.
    """
    M, N = U.shape[:2]
    tol_angle = np.broadcast_to(np.asarray(tol_angle, dtype=float), (M,))
    null_dim = N - rank
    basis = np.zeros((M, N, N))
    reduced_dim = np.zeros(M, dtype=int)
    need = np.flatnonzero(null_dim > 0)
    for k in np.unique(null_dim[need]):
        grp = need[null_dim[need] == k]
        B = U[grp][:, :, N - k:]
        mean_q = np.swapaxes(B, 1, 2) @ mean[grp] @ B
        mean_q = 0.5 * (mean_q + np.swapaxes(mean_q, 1, 2))
        evals, evecs = np.linalg.eigh(mean_q)
        # eigenvalues ascend, so the kept eigenvectors are the last `kept` columns
        kept = np.sum(evals >= 1.0 - tol_angle[grp][:, None], axis=1)
        for r in np.unique(kept[kept > 0]):
            sub = kept == r
            W, _ = np.linalg.qr(B[sub] @ evecs[sub][:, :, k - r:])
            basis[grp[sub], :, :r] = W
        reduced_dim[grp] = kept
    projection = basis @ np.swapaxes(basis, 1, 2)
    return ReducedProjections(projection, basis, rank, reduced_dim)


def check_ball_parameters(eps, tol_angle) -> None:
    """ValueError naming the parameter unless ``eps`` is finite and > 0 and ``tol_angle`` is
    finite and >= 0; None, the default of either, passes."""
    for name, value, bound, holds in (("eps", eps, "> 0", np.greater),
                                      ("tol_angle", tol_angle, ">= 0", np.greater_equal)):
        if value is not None and not (np.isfinite(value) & holds(value, 0.0)).all():
            raise ValueError(f"{name} must be finite and {bound}, got {value}")


def reduced_nullspace_proj(
    V: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    eps: float,
    tol_angle: Optional[float] = None,
) -> ProjectionReport:
    """Projection onto the reduced nullspace of V(x)^T.

    A direction xi in N(V(x)^T) belongs to the reduced nullspace when it
    admits a continuous normal extension into the nullspaces N(V(y)^T) for
    y near x.  Numerically we average the nullspace projectors Q_y over
    low-discrepancy samples y in B_eps(x) and keep the eigenvectors of the
    averaged operator (restricted to N(V(x)^T)) with eigenvalue
    >= 1 - tol_angle: directions almost preserved by every nearby projector
    are exactly the numerically extendable ones.

    This is a stated approximation.  The acceptance threshold defaults to
    ``tol_angle = 1e-6 * eps``; normal frames that rotate smoothly at rate
    omega are detected only while ``omega^2 * eps^2 <~ tol_angle``, so pass
    a larger ``tol_angle`` when probing coarse neighbourhoods of smoothly
    varying fields.  No finite sampling can certify C^1 extendability at a
    genuine rank discontinuity.

    This is the single-centre form of the batched kernel: one
    :func:`rank_decision` of the centre, the plain mean of the samples'
    :func:`nullspace_projectors`, then :func:`average_projectors`.  ``V`` is a
    single-point callable, evaluated once at each of the
    :func:`ball_sample_count` points of :func:`ball_sample_points`.
    """
    check_ball_parameters(eps, tol_angle)
    x = np.asarray(x, dtype=float)
    if tol_angle is None:
        tol_angle = 1e-6 * eps
    A = np.asarray(V(x), dtype=float)
    U, rank, cutoff = rank_decision(A)
    rank, cutoff, N = int(rank), float(cutoff), A.shape[0]
    if rank == N:
        return ProjectionReport(np.zeros((N, N)), rank, cutoff, U[:, N:])
    values = []
    for y in ball_sample_points(x, eps, ball_sample_count(x.shape[0])):
        Ay = np.asarray(V(y), dtype=float)
        if not np.isfinite(Ay).all():
            raise ValueError(f"field has non-finite entries at sample point {y}")
        values.append(Ay)
    mean = nullspace_projectors(np.stack(values)).sum(axis=0) / len(values)
    red = average_projectors(U[None], np.array([rank]), mean[None], tol_angle)
    W = red.basis[0, :, :red.reduced_dim[0]]
    return ProjectionReport(projection=red.projection[0], rank_used=rank, tolerance_used=cutoff, basis=W)
