import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import hypothesis.extra.numpy as hnp

from linfvar import linalg
from linfvar.linalg import (
    DEFAULT_RANK_TOL,
    ball_sample_points,
    complement_projectors,
    halton,
    nullspace_projectors,
    proj_range_complement,
    rank_decision,
    reduced_nullspace_proj,
)


class TestRangeComplement:
    def test_identity_full_rank(self):
        rep = proj_range_complement(np.eye(2))
        assert np.array_equal(rep.projection, np.zeros((2, 2)))
        assert rep.rank_used == 2

    def test_coordinate_projector(self):
        rep = proj_range_complement(np.outer([1.0, 0.0], [1.0, 0.0]))
        assert np.allclose(rep.projection, np.diag([0.0, 1.0]), atol=1e-15)
        assert rep.rank_used == 1

    def test_scalar_case(self):
        # N=1 with a nonzero row: the normal term of the full system dies
        rep = proj_range_complement(np.array([[3.0, -2.0, 1.0]]))
        assert rep.projection.shape == (1, 1)
        assert rep.projection[0, 0] == 0.0

    def test_zero_matrix(self):
        rep = proj_range_complement(np.zeros((3, 2)))
        assert np.array_equal(rep.projection, np.eye(3))
        assert rep.rank_used == 0

    def test_annihilates_range(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            A = rng.normal(size=(rng.integers(1, 5), rng.integers(1, 5)))
            rep = proj_range_complement(A)
            assert np.abs(rep.projection @ A).max() <= 1e-12 * max(1.0, np.abs(A).max())
            assert np.allclose(rep.projection @ rep.basis, rep.basis, atol=1e-12)

    def test_complement_projectors_from_factors(self):
        # one helper builds R(A)^perp projectors from the SVD factors and ranks
        rng = np.random.default_rng(6)
        A = rng.normal(size=(40, 3, 2))
        A[::3, :, 1] = 2.0 * A[::3, :, 0]  # rank 1
        A[5] = 0.0
        U, rank, _ = rank_decision(A)
        proj = complement_projectors(U, rank)
        assert np.array_equal(proj, nullspace_projectors(A))
        for Ak, Pk in zip(A, proj):
            assert np.allclose(Pk, proj_range_complement(Ak).projection, atol=1e-14)


@settings(max_examples=80, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)),
                  elements=st.floats(-10, 10, allow_nan=False)))
def test_projection_symmetric_idempotent(A):
    P = proj_range_complement(A).projection
    assert np.abs(P - P.T).max() <= 1e-10
    assert np.abs(P @ P - P).max() <= 1e-10


def _orthonormal_columns(rng, M, m, k):
    """M sets (M, m, k) of k orthonormal columns in R^m."""
    q, _ = np.linalg.qr(rng.normal(size=(M, m, m)))
    return q[..., :k]


def _rank_batch(data, kind, N, n, M=16):
    """M matrices (M, N, n) of one kind.  The "deficient" and "near" kinds are U diag(s) V^T
    with their kept singular values in [sigma_max / 4, sigma_max]; "near" puts the others at
    least 2x below or above the 1e-9 cutoff, "deficient" at 0."""
    if kind == "random":
        return data.draw(hnp.arrays(np.float64, (M, N, n), elements=st.floats(-10, 10, allow_nan=False)))
    if kind == "zero":
        return np.zeros((M, N, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "scaled":  # entries from 1e-150 to 1e150
        return rng.normal(size=(M, N, n)) * 10.0 ** rng.uniform(-150, 150, size=(M, 1, 1))
    k = min(N, n)
    s = rng.uniform(0.25, 1.0, size=(M, k))
    small = np.arange(k) >= rng.integers(1, k + 1, size=(M, 1))
    if kind == "near":
        below, above = rng.uniform(1e-12, 5e-10, size=(M, k)), rng.uniform(2e-9, 1e-7, size=(M, k))
        s = np.where(small, np.where(rng.random((M, 1)) < 0.5, below, above), s)
    else:
        s = np.where(small, 0.0, s)
    A = np.einsum("mik,mk,mjk->mij", _orthonormal_columns(rng, M, N, k), s, _orthonormal_columns(rng, M, n, k))
    return A * 10.0 ** rng.uniform(-3, 3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(["random", "deficient", "near", "zero", "scaled"]))
def test_rank_decision_matches_lapack_svd(data, N, n, kind):
    # derandomized, because the 8-ulp budget is mostly LAPACK's: against mpmath its singular
    # values stray up to 8 ulps of sigma_max on such batches, the rotations' up to 2, so a
    # rare batch differs by 10 (a 3 x 3 "scaled" one at seed 4738)
    A = _rank_batch(data, kind, N, n)
    U, rank, _ = rank_decision(A)
    U0, s0, _ = np.linalg.svd(A)
    smax = s0[:, 0]
    assert np.array_equal(rank, np.sum((s0 >= (DEFAULT_RANK_TOL * smax)[:, None]) & (s0 > 0), axis=1))
    if N == 1:
        assert np.all(U == 1.0)
    # the singular values are the row norms of U^T A, taken in extended precision
    s = np.linalg.norm(np.swapaxes(U, 1, 2).astype(np.longdouble) @ A.astype(np.longdouble), axis=2)
    ref = np.zeros((len(A), N))
    ref[:, :s0.shape[1]] = s0
    assert np.all(np.abs(s.astype(float) - ref) <= 8 * np.spacing(smax)[:, None])
    # a projector is fixed to rounding only where the last kept singular value is a fair part
    # of sigma_max (Wedin 1972): at every "deficient" matrix, at the "near" ones whose small
    # values sit below the cutoff, and at the random ones that happen to be so conditioned
    kept = np.take_along_axis(s0, np.maximum(rank - 1, 0)[:, None], axis=1)[:, 0]
    fixed = (rank == 0) | (rank == N) | (kept >= 0.25 * smax)
    diff = np.abs(complement_projectors(U, rank) - complement_projectors(U0, rank)).max(axis=(1, 2))
    assert np.all(diff[fixed] <= 1e-14)


def _rank_drop_field(y):
    return np.array([[y[0], 0.0], [0.0, 0.0]])


class TestReducedNullspace:
    def test_rank_drop_fixture(self):
        rep = reduced_nullspace_proj(_rank_drop_field, np.zeros(2), eps=0.1)
        assert np.allclose(rep.projection, np.outer([0, 1], [0, 1]), atol=1e-12)

    def test_reduction_identity(self):
        # [[V]]perp [V]perp = [[V]]perp, exactly for nested orthogonal projections
        red = reduced_nullspace_proj(_rank_drop_field, np.zeros(2), eps=0.1).projection
        full = proj_range_complement(_rank_drop_field(np.zeros(2))).projection
        assert np.abs(red @ full - red).max() <= 1e-8

    def test_identity_on_random_constant_rank_fields(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            N, n = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            r = int(rng.integers(0, min(N, n)))
            B = rng.normal(size=(N, r)) @ rng.normal(size=(r, n)) if r else np.zeros((N, n))
            field = lambda y, B=B: B
            x = rng.normal(size=n)
            red = reduced_nullspace_proj(field, x, eps=0.05).projection
            full = proj_range_complement(B).projection
            assert np.abs(red @ full - red).max() <= 1e-8
            # constant fields admit constant normal frames: reduced == full
            assert np.abs(red - full).max() <= 1e-8

    def test_monotone_range(self):
        rep = reduced_nullspace_proj(_rank_drop_field, np.zeros(2), eps=0.1)
        full = proj_range_complement(_rank_drop_field(np.zeros(2)))
        # basis of the reduced space stays inside the plain nullspace
        assert np.allclose(full.projection @ rep.basis, rep.basis, atol=1e-10)

    def test_full_rank_shortcut(self):
        calls = []

        def field(y):
            calls.append(1)
            return np.eye(2)

        rep = reduced_nullspace_proj(field, np.zeros(2), eps=0.1)
        assert np.array_equal(rep.projection, np.zeros((2, 2)))
        assert len(calls) == 1  # only the centre evaluation

    def test_sampling_failure(self):
        def field(y):
            if np.linalg.norm(y) > 0:
                return np.full((2, 2), np.nan)
            return np.zeros((2, 2))

        with pytest.raises(ValueError, match="non-finite"):
            reduced_nullspace_proj(field, np.zeros(2), eps=0.1)

    def test_centre_is_decomposed_once(self, monkeypatch):
        x = np.array([0.03, 0.0])  # rank 1 at the centre
        centre = _rank_drop_field(x)
        shapes = []
        rank_decision = linalg.rank_decision

        def counting(A):
            shapes.append(np.shape(A))
            return rank_decision(A)

        monkeypatch.setattr(linalg, "rank_decision", counting)
        rep = reduced_nullspace_proj(_rank_drop_field, x, eps=0.1)
        # the samples' decompositions are batched: (m, N, n)
        assert shapes.count(centre.shape) + shapes.count((1,) + centre.shape) == 1
        plain = proj_range_complement(centre)
        assert rep.rank_used == plain.rank_used == 1
        assert rep.tolerance_used == plain.tolerance_used == 1e-9 * 0.03


def test_ball_sample_points_inside():
    for dim in (1, 2, 3):
        pts = ball_sample_points(np.zeros(dim), 0.5, 16)
        assert pts.shape == (16, dim)
        assert np.all(np.linalg.norm(pts, axis=1) <= 0.5 + 1e-12)
        # deterministic
        assert np.array_equal(pts, ball_sample_points(np.zeros(dim), 0.5, 16))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("m", [8, 12, 64, 4096])
def test_halton_matches_scipy(dim, m):
    from scipy.stats import qmc

    ref = qmc.Halton(d=dim, scramble=False).random(m)
    assert np.max(np.abs(halton(m, dim) - ref)) <= 2e-16
