"""Dense small-matrix kernels: rank with tolerance and normal-space projections.

``proj_range_complement`` builds the orthogonal projection onto the
orthogonal complement of the range of an N x n matrix (equivalently, onto
the nullspace of its transpose).  ``reduced_nullspace_proj`` restricts that
projection to the directions that extend continuously into the nullspaces
of nearby matrices of a field: the numerically "reduced" normal space.
The batched kernel behind it is two steps over many centres, each with its
own samples, in a few LAPACK calls: the samples' ``nullspace_projectors``,
then the averaging step ``average_projectors`` (masked mean, restriction
to the centre's nullspace, ``eigh`` + QR).  Closed-form maps decompose each
centre's samples; grid maps take one projector per node and gather them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ProjectionReport",
    "ReducedProjections",
    "ball_sample_count",
    "average_projectors",
    "ball_sample_points",
    "complement_projectors",
    "halton",
    "nullspace_projectors",
    "proj_range_complement",
    "rank_decision",
    "reduced_nullspace_proj",
]

DEFAULT_RANK_TOL = 1e-9


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
    """Batched SVD of A (..., N, n): left singular vectors U, ranks and cutoffs.

    The rank counts singular values >= tol * sigma_max; a zero matrix has
    rank 0.  The columns U[..., rank:] span N(A^T) = R(A)^perp.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    U, s, _ = np.linalg.svd(A)
    smax = s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])
    cutoff = tol * smax
    rank = np.where(smax > 0, np.sum(s >= cutoff[..., None], axis=-1), 0)
    return U, rank, cutoff


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


def average_projectors(U: np.ndarray, rank: np.ndarray, sample_proj: np.ndarray,
                       valid: np.ndarray, tol_angle) -> ReducedProjections:
    """Reduced nullspace projections of M centres from their samples' nullspace projectors.

    ``U`` (M, N, N) and ``rank`` (M,) are the centres' :func:`rank_decision`;
    ``sample_proj`` (M, m, N, N) holds the :func:`nullspace_projectors` of m
    samples per centre, of which ``valid`` (M, m) marks the ones to average.
    For every rank-deficient centre the valid projectors are averaged, the
    average is restricted to the centre's nullspace, and the eigenvectors
    with eigenvalue >= 1 - tol_angle (scalar or one value per centre) span
    the reduced space.  Full-rank centres get the zero projection and need
    no valid sample.
    """
    M, N = U.shape[:2]
    tol_angle = np.broadcast_to(np.asarray(tol_angle, dtype=float), (M,))
    null_dim = N - rank
    basis = np.zeros((M, N, N))
    reduced_dim = np.zeros(M, dtype=int)
    need = np.flatnonzero(null_dim > 0)
    if need.size:
        used = np.asarray(valid, dtype=bool)[need]
        empty = ~used.any(axis=1)
        if empty.any():
            raise ValueError(f"no valid sample points for centre {need[np.argmax(empty)]}")
        mean = (sample_proj[need] * used[..., None, None]).sum(axis=1) / used.sum(axis=1)[:, None, None]
        for k in np.unique(null_dim[need]):
            in_k = null_dim[need] == k
            grp = need[in_k]
            B = U[grp][:, :, N - k:]
            mean_q = np.swapaxes(B, 1, 2) @ mean[in_k] @ B
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
    :func:`rank_decision` of the centre, then :func:`nullspace_projectors`
    of the samples and :func:`average_projectors`.  The field ``V`` is a
    single-point callable, evaluated once at each of the
    :func:`ball_sample_count` points of :func:`ball_sample_points`.
    """
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
    red = average_projectors(U[None], np.array([rank]), nullspace_projectors(np.stack(values))[None],
                             np.ones((1, len(values)), dtype=bool), tol_angle)
    W = red.basis[0, :, :red.reduced_dim[0]]
    return ProjectionReport(projection=red.projection[0], rank_used=rank, tolerance_used=cutoff, basis=W)
