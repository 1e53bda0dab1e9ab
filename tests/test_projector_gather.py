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
    aronsson_residual,
    linalg,
    normal_variation_test,
    residual_field,
)
from linfvar.linalg import DEFAULT_RANK_TOL, reduced_nullspace_batch
from linfvar import energy, operators, varcheck
from linfvar.operators import _grid_ball_nodes, _grid_hamiltonian, _normal_space
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
    """Interior jet-valid nodes, their order-1 jets and H_P there (M, N, n)."""
    nodes = Subdomain.whole(u.box, singular=~u.jet_valid).interior_nodes()
    jets = u.jet_at_nodes(nodes, order=1)
    hp = hamiltonian_jet(H, jets.x, jets.value, jets.gradient).P_grad
    return nodes, jets, np.moveaxis(hp, -1, 0)


@pytest.mark.parametrize("tol_angle", [None, 0.05])
@pytest.mark.parametrize("n,name,masked", CASES)
def test_gathered_projectors_match_per_pair_kernel(n, name, masked, tol_angle):
    exprs = (FIXTURES_1D if n == 1 else FIXTURES_2D)[name]
    u = _grid(exprs, n, masked)
    H = _density(n, u.N)
    nodes, jets, hp = _centres(u, H)
    _, _, sel, proj, ranks, dims, _ = _normal_space(u, H, jets, nodes, "reduced", None, tol_angle,
                                                    (nodes, "node"))
    assert sel.size
    eps = np.full(sel.size, 2.0 * float(np.max(u.box.spacing)))
    sample_nodes, valid = _grid_ball_nodes(u, nodes[sel], eps)
    ys = _grid_hp_field(u, H)[(slice(None), slice(None)) + tuple(np.moveaxis(sample_nodes, -1, 0))]
    red = reduced_nullspace_batch(hp[sel], np.moveaxis(ys, (0, 1), (2, 3)), valid,
                                  1e-6 * eps if tol_angle is None else tol_angle)
    assert np.array_equal(red.rank, ranks[sel])
    assert np.array_equal(red.reduced_dim, dims[sel])
    assert np.array_equal(red.projection, proj)


def _count_decompositions(monkeypatch):
    """A list that grows by the batch size of every rank_decision call."""
    decomposed = []
    rank_decision = linalg.rank_decision

    def counting(A, tol=DEFAULT_RANK_TOL):
        decomposed.append(int(np.prod(np.shape(A)[:-2])))
        return rank_decision(A, tol)

    monkeypatch.setattr(linalg, "rank_decision", counting)
    return decomposed


def test_each_node_is_decomposed_once(monkeypatch):
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (33, 33))
    u = ClosedFormMap.from_expressions(["sin(x1+x2)", "cos(x1+x2)"], n=2).sample(box)
    O = Subdomain.whole(box)
    decomposed = _count_decompositions(monkeypatch)
    rf = residual_field(u, Hamiltonian.dirichlet(2, 2), O, variant="reduced")
    assert (rf.ranks == 1).all()
    # one SVD over the node field gives the evaluated points' factors too
    assert sum(decomposed) <= box.all_nodes().shape[0]


def test_verify_normal_decomposes_each_node_once(monkeypatch):
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (33, 33))
    u = ClosedFormMap.from_expressions(["sin(x1+x2)", "0.5 * sin(x1+x2)"], n=2).sample(box)
    decomposed = _count_decompositions(monkeypatch)
    v = normal_variation_test(u, Hamiltonian.dirichlet(2, 2), Subdomain.whole(box), trials=3, seed=1)
    assert not v.vacuous
    assert sum(decomposed) <= box.all_nodes().shape[0]


def test_non_finite_sample_node_is_named(monkeypatch):
    u = _grid(FIXTURES_2D["rank1_constant"], 2, masked=False)
    H = Hamiltonian.dirichlet(2, u.N)
    nodes, jets, _ = _centres(u, H)

    def poisoned(u, H):
        ham = _grid_hamiltonian(u, H)
        # a boundary node: a sample of the centre (1, 5), never a centre
        ham.P_grad[..., np.ravel_multi_index((0, 5), u.box.shape)] = np.nan
        return ham

    monkeypatch.setattr(operators, "_grid_hamiltonian", poisoned)
    with pytest.raises(ValueError, match=r"grid node \(0, 5\)"):
        _normal_space(u, H, jets, nodes, "reduced", None, None, (nodes, "node"))


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

    assert not hasattr(varcheck, "hamiltonian_jet")  # its projector field comes from operators
    for module in (energy, operators):
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


@pytest.mark.parametrize("call", ["full", "reduced", "point full", "point reduced", "verify-normal"])
def test_every_grid_rank_decision_is_one_node_field_call(monkeypatch, call):
    # the residual variants, aronsson_residual and verify-normal rank a grid map's H_P
    # in one call of the node-field function, and no SVD of H_P is taken outside it
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (17, 17))
    u = ClosedFormMap.from_expressions(["sin(x1+x2)", "cos(x1+x2)"], n=2).sample(box)
    H, O = Hamiltonian.dirichlet(2, 2), Subdomain.whole(box)
    reads, stray, inside = [], [], []
    decompose, rank_decision = operators._grid_node_decomposition, linalg.rank_decision

    def node_field(hp_field, read):
        reads.append(read.shape[0])
        inside.append(True)
        try:
            return decompose(hp_field, read)
        finally:
            inside.pop()

    def counting(A, tol=DEFAULT_RANK_TOL):
        if not inside:
            stray.append(np.shape(A))
        return rank_decision(A, tol)

    monkeypatch.setattr(operators, "_grid_node_decomposition", node_field)
    monkeypatch.setattr(linalg, "rank_decision", counting)
    if call in ("full", "reduced"):
        residual_field(u, H, O, variant=call)
    elif call == "verify-normal":
        normal_variation_test(u, H, O, trials=2, seed=1)
    else:
        aronsson_residual(u, H, [0.5, 0.25], variant=call.split()[1])
    # "full" reads the centres only, the other calls the whole node field
    interior = O.interior_nodes().shape[0]
    expected = {"full": interior, "point full": 1}.get(call, box.all_nodes().shape[0])
    assert reads == [expected] and stray == []
