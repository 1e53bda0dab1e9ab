"""The batched reduced-projection kernel against a per-point reference loop.

The reference below is the plain definition: one SVD per sample, the
average of the sample nullspace projectors restricted to the centre's
nullspace, one ``eigh``, and a QR of the kept eigenvectors.  Grid maps
sample the jet-valid nodes of the eps-ball (float node coordinates, centre
excluded); closed-form maps sample ``ball_sample_points`` around each point.
``reduced_nullspace_batch`` below chains the library's ``rank_decision``,
``nullspace_projectors`` and ``average_projectors`` on explicit (centre,
sample) matrices; ``test_projector_gather.py`` holds the grid gather to it.
"""

import numpy as np
import pytest

from linfvar import (
    ClosedFormMap,
    DomainBox,
    GridMap,
    Hamiltonian,
    Subdomain,
    aronsson_residual,
    infinity_laplacian_residual,
    residual_field,
)
from linfvar.linalg import (
    DEFAULT_RANK_TOL,
    average_projectors,
    ball_sample_count,
    ball_sample_points,
    nullspace_projectors,
    rank_decision,
    reduced_nullspace_proj,
)
from linfvar.problem import axis_derivative, hamiltonian_jet, map_jet
from linfvar.varcheck import _normal_projector_field, normal_variation_test

TOL = 1e-12

# rank-1 rotating frame, rank-1 constant frame, rank 2 with one constant and one rotating normal
FIXTURES_2D = {
    "rank1_rotating": ["sin(1.3*x1 - 0.9*x2 + 0.4)", "cos(1.3*x1 - 0.9*x2 + 0.4)"],
    "rank1_constant": ["sin(-0.4*x1 + 1.2*x2 + 5.5)", "0.5*sin(-0.4*x1 + 1.2*x2 + 5.5)"],
    "rank2": ["cos(1.1*x1 + 0.7*x2)", "sin(1.1*x1 + 0.7*x2)", "x2", "0.0"],
}
FIXTURES_1D = {
    "rank1_rotating": ["sin(1.5*x1)", "cos(1.5*x1)"],
    "rank1_constant": ["sin(1.5*x1)", "2*sin(1.5*x1)"],
}
MASKED = [(3, 8), (7, 4), (10, 11)]


def _density(n, N):
    """|P|^2 plus a term in the last value slot, so that kept normals carry a nonzero residual."""
    squares = " + ".join(f"P{a}{i}^2" for a in range(1, N + 1) for i in range(1, n + 1))
    return Hamiltonian.from_expression(f"{squares} + 0.5*eta{N}", n, N)


def _rank_basis(A, tol=DEFAULT_RANK_TOL):
    U, s, _ = np.linalg.svd(A)
    rank = int(np.sum(s >= tol * s[0])) if s[0] > 0 else 0
    return U[:, rank:], rank


def reference_projection(V, x, sample_points, tol_angle):
    """Reduced projection at x, one sample at a time; returns (projection, rank, reduced_dim)."""
    B, rank = _rank_basis(V(x))
    N = B.shape[0]
    if B.shape[1] == 0:
        return np.zeros((N, N)), rank, 0
    mean = np.zeros((B.shape[1], B.shape[1]))
    for y in sample_points:
        By, _ = _rank_basis(V(y))
        mean += B.T @ By @ By.T @ B
    mean = mean / len(sample_points)
    evals, evecs = np.linalg.eigh(0.5 * (mean + mean.T))
    W = B @ evecs[:, evals >= 1.0 - tol_angle]
    if W.shape[1]:
        W, _ = np.linalg.qr(W)
    return W @ W.T, rank, W.shape[1]


def reduced_nullspace_batch(centers, samples, valid, tol_angle):
    """The batched kernel fed explicit matrices: M centres (M, N, n) and m sample matrices per
    centre (M, m, N, n), of which ``valid`` (M, m) marks the ones to use.  The reference that
    the grid gather and the single-centre wrapper are held to."""
    used = np.asarray(valid, dtype=bool)
    samples = np.asarray(samples, dtype=float)
    bad = used & ~np.isfinite(samples).all(axis=(2, 3))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"field has non-finite entries at sample {j} of centre {i}")
    U, rank, _ = rank_decision(centers)
    sample_proj = nullspace_projectors(np.where(used[..., None, None], samples, 0.0))
    return average_projectors(U, rank, sample_proj, used, tol_angle)


def _hp_at(u, H):
    def V(y):
        jet = map_jet(u, np.asarray(y, dtype=float), order=1)
        return hamiltonian_jet(H, jet.x, jet.value, jet.gradient).P_grad
    return V


def _grid_samples(u, x, eps):
    nodes = u.box.all_nodes()
    coords = u.box.node_coords(nodes).T
    dist = np.linalg.norm(coords - x[None, :], axis=1)
    return coords[(dist <= eps) & (dist > 1e-12) & u.jet_valid[tuple(nodes.T)]]


def _masked_grid(exprs, n, res=13):
    box = DomainBox((0.0,) * n, (1.0,) * n, (res,) * n)
    u = ClosedFormMap.from_expressions(exprs, n=n).sample(box)
    values = u.values.copy()
    if n == 2:
        for node in MASKED:
            values[(slice(None),) + node] = np.nan
    u = GridMap(box, values)
    return u, Subdomain.whole(box, singular=~u.jet_valid)


def _reference_grid_normal(u, H, nodes, eps, tol_angle=None):
    """Reduced projectors and normal residuals at grid nodes, one node at a time."""
    V = _hp_at(u, H)
    jets = u.jet_at_nodes(u.box.all_nodes(), order=1)
    hp = hamiltonian_jet(H, jets.x, jets.value, jets.gradient).P_grad.reshape((u.N, u.n) + u.box.shape)
    valid = None if u.jet_valid.all() else u.jet_valid
    div = sum(axis_derivative(hp[:, i], i, u.box.spacing[i], order=1, valid=valid, grid_ndim=u.n)
              for i in range(u.n))
    out = []
    for node in nodes:
        x = u.box.node_coords(node[None, :])[:, 0]
        samples = _grid_samples(u, x, eps)
        proj, rank, dim = reference_projection(V, x, samples, tol_angle or 1e-6 * eps)
        jet = map_jet(u, x, order=1)
        ham = hamiltonian_jet(H, jet.x, jet.value, jet.gradient)
        rhs = float(ham.value) * (div[(slice(None),) + tuple(node)] - ham.eta_grad)
        out.append((proj, rank, dim, rhs))
    return out


def _reference_closed_normal(u, H, points):
    """Reduced projectors and normal residuals at points of a closed-form map.

    The densities of :func:`_density` have H_P = 2 Du, so Div(H_P) = 2 Laplacian u.
    """
    V = _hp_at(u, H)
    n = points.shape[1]
    out = []
    for x in points:
        eps = 1e-2 * (1.0 + np.linalg.norm(x))
        pts = ball_sample_points(x, eps, ball_sample_count(n))
        proj, rank, dim = reference_projection(V, x, pts, 1e-6 * eps)
        jet = map_jet(u, x, order=2)
        div = 2.0 * np.trace(jet.hessian, axis1=1, axis2=2)
        ham = hamiltonian_jet(H, jet.x, jet.value, jet.gradient)
        out.append((proj, rank, dim, float(ham.value) * (div - ham.eta_grad)))
    return out


def _close(a, b):
    # a node whose divergence stencil meets masked nodes has a NaN residual on both paths
    assert np.array_equal(np.isnan(a), np.isnan(b))
    ok = ~np.isnan(b)
    scale = 1.0 + np.abs(b[ok]).max(initial=0.0)
    assert np.abs(a[ok] - b[ok]).max(initial=0.0) <= TOL * scale


def _check(u, H, O, ref, **kw):
    """Reduced and full residual fields against the reference; returns the reduced field."""
    rf = residual_field(u, H, O, variant="reduced", **kw)
    ff = residual_field(u, H, O, variant="full", **kw)
    ranks = np.array([r[1] for r in ref])
    assert np.array_equal(rf.ranks, ranks) and np.array_equal(ff.ranks, ranks)
    V = _hp_at(u, H)
    for m, (proj, rank, dim, rhs) in enumerate(ref):
        B, _ = _rank_basis(V(ff.points[m]))
        _close(rf.normal[:, m], proj @ rhs)
        _close(ff.normal[:, m], B @ B.T @ rhs)
    assert np.array_equal(rf.drop_flags, [r[2] < u.N - r[1] for r in ref])
    assert not ff.drop_flags.any()
    assert np.nanmax(np.abs(ff.normal)) > 0.1
    return rf


@pytest.mark.parametrize("name", sorted(FIXTURES_2D))
def test_grid_branch_with_masked_nodes(name):
    u, O = _masked_grid(FIXTURES_2D[name], 2)
    H = _density(2, u.N)
    nodes = O.interior_nodes()
    ref = _reference_grid_normal(u, H, nodes, 2.0 * float(np.max(u.box.spacing)))
    rf = _check(u, H, O, ref)
    assert np.array_equal(rf.nodes, nodes)
    # rotating normals are dropped; the constant ones are kept with a nonzero residual
    assert rf.drop_flags.any() == (name != "rank1_constant")
    assert (np.nanmax(np.abs(rf.normal)) > 0.1) == (name != "rank1_rotating")


def test_grid_branch_near_the_angle_threshold():
    # tol_angle inside the spread of the rotating frame's eigenvalues: nodes next to
    # masked nodes see fewer samples, so keep/drop decisions depend on the masked average
    u, O = _masked_grid(FIXTURES_2D["rank1_rotating"], 2)
    H = _density(2, u.N)
    eps = 2.0 * float(np.max(u.box.spacing))
    ref = _reference_grid_normal(u, H, O.interior_nodes(), eps, tol_angle=0.05)
    rf = _check(u, H, O, ref, tol_angle=0.05)
    assert 0 < rf.drop_flags.sum() < (rf.ranks < u.N).sum()


@pytest.mark.parametrize("n,name", [(1, k) for k in sorted(FIXTURES_1D)]
                         + [(2, k) for k in sorted(FIXTURES_2D)])
def test_closed_form_branch(n, name):
    exprs = (FIXTURES_1D if n == 1 else FIXTURES_2D)[name]
    u = ClosedFormMap.from_expressions(exprs, n=n)
    H = _density(n, len(exprs))
    O = Subdomain.whole(DomainBox((0.1,) * n, (0.9,) * n, (7,) * n))
    points = O.box.node_coords(O.interior_nodes()).T
    rf = _check(u, H, O, _reference_closed_normal(u, H, points))
    assert rf.drop_flags.any() == (name != "rank1_constant")
    assert (np.abs(rf.normal).max() > 0.1) == (name != "rank1_rotating")


@pytest.mark.parametrize("name", sorted(FIXTURES_2D))
def test_normal_projector_field_grid(name):
    u, O = _masked_grid(FIXTURES_2D[name], 2)
    H = _density(2, u.N)
    nodes, _, projectors = _normal_projector_field(u, H, O, None, None)
    assert len(nodes) == int(u.jet_valid.sum())
    eps = 2.0 * float(np.max(u.box.spacing))
    for node, proj in zip(nodes[::7], projectors[::7]):
        x = u.box.node_coords(node[None, :])[:, 0]
        ref, _, _ = reference_projection(_hp_at(u, H), x, _grid_samples(u, x, eps), 1e-6 * eps)
        assert np.abs(proj - ref).max() <= TOL


@pytest.mark.parametrize("name", sorted(FIXTURES_2D))
def test_normal_projector_field_closed_form(name):
    u = ClosedFormMap.from_expressions(FIXTURES_2D[name], n=2)
    H = Hamiltonian.dirichlet(2, u.N)
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (9, 9))
    O = Subdomain.whole(box)
    nodes, _, projectors = _normal_projector_field(u, H, O, None, None)
    eps = 2.0 * float(np.max(box.spacing))
    for node, proj in zip(nodes, projectors):
        x = box.node_coords(node[None, :])[:, 0]
        ref, _, _ = reference_projection(_hp_at(u, H), x, ball_sample_points(x, eps, 16), 1e-6 * eps)
        assert np.abs(proj - ref).max() <= TOL


def test_pointwise_callers_agree_with_field():
    u, O = _masked_grid(FIXTURES_2D["rank1_constant"], 2)
    H = Hamiltonian.dirichlet(2, u.N)
    rf = residual_field(u, H, O, variant="reduced")
    for m in (0, 40, len(rf.nodes) - 1):
        x = rf.points[m]
        single = aronsson_residual(u, H, x, variant="reduced")
        assert np.abs(single.total - rf.total[:, m]).max() <= TOL * (1.0 + np.abs(single.total).max())
        assert single.projection_drop == rf.drop_flags[m]
        # quadratic density: the infinity Laplacian is the Aronsson residual of |P|^2 over 2
        il = infinity_laplacian_residual(u, x, reduced=True)
        assert np.abs(2.0 * il - single.total).max() <= 1e-9 * (1.0 + np.abs(il).max())


def test_wrapper_is_the_kernel_at_one_centre():
    u = ClosedFormMap.from_expressions(FIXTURES_2D["rank2"], n=2)
    H = Hamiltonian.dirichlet(2, 4)
    V = _hp_at(u, H)
    x = np.array([0.3, 0.6])
    pts = ball_sample_points(x, 0.05, 16)
    rep = reduced_nullspace_proj(V, x, eps=0.05)
    batch = reduced_nullspace_batch(V(x)[None], np.stack([V(y) for y in pts])[None],
                                    np.ones((1, 16), dtype=bool), 5e-8)
    ref, rank, dim = reference_projection(V, x, pts, 5e-8)
    assert rep.rank_used == rank == batch.rank[0] == 2
    assert rep.basis.shape[1] == dim == batch.reduced_dim[0] == 1
    assert np.array_equal(rep.projection, batch.projection[0])
    assert np.abs(rep.projection - ref).max() <= TOL


def test_ball_sample_batch_matches_single_balls():
    centres = np.array([[0.2, 0.3], [1.5, -0.7], [0.0, 0.0]])
    eps = np.array([0.01, 0.3, 2.0])
    batch = ball_sample_points(centres, eps, 16)
    for c, e, pts in zip(centres, eps, batch):
        assert np.array_equal(pts, ball_sample_points(c, e, 16))
    # the first Halton point has radius 0: the centre itself is a sample
    assert np.array_equal(batch[:, 0], centres)


def test_kernel_averages_only_valid_samples():
    # centre normal e2; the valid sample's normal is turned by alpha, cos(alpha)^2 = 0.9
    alpha = np.arccos(np.sqrt(0.9))
    centre = np.array([[1.0, 0.0], [0.0, 0.0]])
    turned = np.array([[np.cos(alpha), 0.0], [np.sin(alpha), 0.0]])
    samples = np.stack([turned, np.zeros((2, 2)), np.zeros((2, 2)), np.full((2, 2), np.nan)])
    valid = np.array([[True, False, False, False]])
    for tol_angle, kept in ((0.05, 0), (0.15, 1)):
        red = reduced_nullspace_batch(centre[None], samples[None], valid, tol_angle)
        assert red.rank[0] == 1 and red.reduced_dim[0] == kept
    assert np.allclose(red.projection[0], [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_kernel_rejects_a_centre_without_samples():
    centres = np.array([[[1.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(ValueError, match="no valid sample points"):
        reduced_nullspace_batch(centres, centres[:, None], np.zeros((1, 1), dtype=bool), 1e-6)


def test_isolated_grid_node_raises():
    u, O = _masked_grid(FIXTURES_2D["rank1_constant"], 2)
    H = Hamiltonian.dirichlet(2, u.N)
    # no other node lies within half a grid spacing
    eps = 0.5 * float(np.min(u.box.spacing))
    with pytest.raises(ValueError, match="no valid grid nodes inside the eps-ball"):
        residual_field(u, H, O, variant="reduced", eps=eps)


@pytest.mark.parametrize("seed", range(6))
def test_verify_normal_on_a_grid_with_masked_nodes_near_an_edge(seed):
    # (3, 8) is masked two nodes from the edge: (0, 8) and (2, 8) are valid without a jet, so
    # the projected fields, 0 there, take u's one-sided stencils at (1, 8)
    u, O = _masked_grid(FIXTURES_2D["rank1_constant"], 2)
    assert not u.jet_valid[0, 8] and not u.jet_valid[2, 8] and u.jet_valid[1, 8]
    v = normal_variation_test(u, Hamiltonian.dirichlet(2, 2), O, trials=10, seed=seed)
    assert v.passed and v.trials > 0 and not v.vacuous
