"""Grid reduced projections from one nullspace projector per node.

The grid branch of the reduced projection decomposes H_P once per node and
gathers the projectors for every centre whose eps-ball samples the node.
It must give bit for bit what the kernel gives when it is fed the explicit
(centre, sample) matrices, and it must decompose each node only once.
"""

import numpy as np
import pytest
from test_reduced_kernel import FIXTURES_1D, FIXTURES_2D, MASKED, _density

from linfvar import (
    ClosedFormMap,
    DomainBox,
    GridMap,
    Hamiltonian,
    Subdomain,
    linalg,
    normal_variation_test,
    residual_field,
)
from linfvar.linalg import DEFAULT_RANK_TOL, reduced_nullspace_batch
from linfvar import energy, operators, varcheck
from linfvar.operators import _grid_ball_nodes, _grid_hamiltonian, _normal_projections
from linfvar.problem import hamiltonian_jet

CASES = ([(1, name, False) for name in sorted(FIXTURES_1D)]
         + [(2, name, masked) for name in sorted(FIXTURES_2D) for masked in (False, True)])


def _grid(exprs, n, masked, res=13):
    box = DomainBox((0.0,) * n, (1.0,) * n, (res,) * n)
    values = ClosedFormMap.from_expressions(exprs, n=n).sample(box).values.copy()
    for node in MASKED if masked else ():
        values[(slice(None),) + node] = np.nan
    return GridMap(box, values)


def _grid_hp_field(u, H):
    """H_P at every grid node, (N, n) + box shape."""
    return _grid_hamiltonian(u, H).P_grad.reshape((u.N, u.n) + u.box.shape)


def _centres(u, H):
    """Interior jet-valid nodes, their points and H_P there (M, N, n)."""
    nodes = Subdomain.whole(u.box, singular=~u.jet_valid).interior_nodes()
    jets = u.jet_at_nodes(nodes, order=1)
    hp = hamiltonian_jet(H, jets.x, jets.value, jets.gradient).P_grad
    return nodes, jets.x, np.moveaxis(hp, -1, 0)


@pytest.mark.parametrize("tol_angle", [None, 0.05])
@pytest.mark.parametrize("n,name,masked", CASES)
def test_gathered_projectors_match_per_pair_kernel(n, name, masked, tol_angle):
    exprs = (FIXTURES_1D if n == 1 else FIXTURES_2D)[name]
    u = _grid(exprs, n, masked)
    H = _density(n, u.N)
    nodes, x, hp = _centres(u, H)
    sel, proj, ranks, dims, _ = _normal_projections(u, H, x, nodes, hp, "reduced", None, tol_angle,
                                                    _grid_hp_field(u, H))
    assert sel.size
    eps = np.full(sel.size, 2.0 * float(np.max(u.box.spacing)))
    sample_nodes, valid = _grid_ball_nodes(u, nodes[sel], eps)
    ys = _grid_hp_field(u, H)[(slice(None), slice(None)) + tuple(np.moveaxis(sample_nodes, -1, 0))]
    red = reduced_nullspace_batch(hp[sel], np.moveaxis(ys, (0, 1), (2, 3)), valid,
                                  1e-6 * eps if tol_angle is None else tol_angle)
    assert np.array_equal(red.rank, ranks[sel])
    assert np.array_equal(red.reduced_dim, dims[sel])
    assert np.array_equal(red.projection, proj)


def test_each_node_is_decomposed_once(monkeypatch):
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (33, 33))
    u = ClosedFormMap.from_expressions(["sin(x1+x2)", "cos(x1+x2)"], n=2).sample(box)
    O = Subdomain.whole(box)
    decomposed = []
    rank_decision = linalg.rank_decision

    def counting(A, tol=DEFAULT_RANK_TOL):
        decomposed.append(int(np.prod(np.shape(A)[:-2])))
        return rank_decision(A, tol)

    monkeypatch.setattr(linalg, "rank_decision", counting)
    rf = residual_field(u, Hamiltonian.dirichlet(2, 2), O, variant="reduced")
    assert (rf.ranks == 1).all()
    # one SVD of H_P at the evaluated points, one over the node field
    assert sum(decomposed) <= box.all_nodes().shape[0] + rf.points.shape[0]


def test_non_finite_sample_node_is_named():
    u = _grid(FIXTURES_2D["rank1_constant"], 2, masked=False)
    H = Hamiltonian.dirichlet(2, u.N)
    nodes, x, hp = _centres(u, H)
    field = _grid_hp_field(u, H)
    field[:, :, 0, 5] = np.nan  # a boundary node: a sample of the centre (1, 5), never a centre
    with pytest.raises(ValueError, match=r"grid node \(0, 5\)"):
        _normal_projections(u, H, x, nodes, hp, "reduced", None, None, field)


@pytest.mark.parametrize("exprs", [["sin(x1+x2)", "cos(x1+x2)"], ["x1^2 + x2", "x1 * x2"]])
def test_grid_residual_evaluates_the_density_once(monkeypatch, exprs):
    # the centres' Hamiltonian jet is sliced out of the all-node evaluation
    # that also gives the H_P node field, rank-deficient or not
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (17, 17))
    u = ClosedFormMap.from_expressions(exprs, n=2).sample(box)
    calls = []
    jet = operators.hamiltonian_jet

    def counting(H, x, eta, P, order=1):
        calls.append(np.shape(x)[1:])
        return jet(H, x, eta, P, order=order)

    monkeypatch.setattr(operators, "hamiltonian_jet", counting)
    residual_field(u, Hamiltonian.dirichlet(2, 2), Subdomain.whole(box), variant="reduced")
    assert calls == [(box.all_nodes().shape[0],)]


def test_grid_verify_normal_evaluates_the_density_jet_once(monkeypatch):
    # the H_P node field of the projector field comes from the evaluable nodes' jet;
    # a constant normal frame keeps the reduced normal space, so the trials run
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (17, 17))
    u = ClosedFormMap.from_expressions(["sin(x1+x2)", "0.5 * sin(x1+x2)"], n=2).sample(box)
    calls = []
    jet = operators.hamiltonian_jet

    def counting(H, x, eta, P, order=1):
        calls.append(np.shape(x)[1:])
        return jet(H, x, eta, P, order=order)

    for module in (energy, operators, varcheck):
        monkeypatch.setattr(module, "hamiltonian_jet", counting)
    v = normal_variation_test(u, Hamiltonian.dirichlet(2, 2), Subdomain.whole(box), trials=3, seed=1)
    assert not v.vacuous
    assert calls == [(box.all_nodes().shape[0],)]


def test_sliced_grid_density_jet_is_the_pointwise_one():
    box = DomainBox((1.0, 1.0), (2.0, 2.0), (13, 13))
    u = ClosedFormMap.from_expressions(["sin(x1) * x2", "x1^2 - x2"], n=2).sample(box)
    H = Hamiltonian.from_expression("(1 + u1^2) * (P11^2 + P12 * P21) + x1 * u2 + exp(P22) * x2", 2, 2)
    nodes = Subdomain.whole(box).interior_nodes()
    jets = u.jet_at_nodes(nodes, order=2)
    direct = hamiltonian_jet(H, jets.x, jets.value, jets.gradient)
    everywhere = _grid_hamiltonian(u, H)
    at = np.ravel_multi_index(tuple(nodes.T), box.shape)
    for name in ("value", "x_grad", "eta_grad", "P_grad"):
        assert np.array_equal(getattr(everywhere, name)[..., at], getattr(direct, name)), name
