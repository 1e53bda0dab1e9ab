"""Grid reduced projections from one nullspace projector per node.

The grid branch of the reduced projection decomposes H_P once per node and
sums the shifted projector field over one offset set into each centre's
mean.  It must give bit for bit what the kernel gives when it is fed the
explicit (centre, sample) matrices that ``_grid_ball_nodes`` below gathers
pair by pair, and it must decompose each node only once.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_reduced_kernel import FIXTURES_1D, FIXTURES_2D, MASKED, _density, reduced_nullspace_batch

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
from linfvar.linalg import DEFAULT_RANK_TOL
from linfvar import energy, operators, varcheck
from linfvar.operators import _grid_ball_means, _grid_hamiltonian, _normal_space
from linfvar.problem import hamiltonian_jet

CASES = ([(1, name, False) for name in sorted(FIXTURES_1D)]
         + [(2, name, masked) for name in sorted(FIXTURES_2D) for masked in (False, True)])


def _grid(exprs, n, masked, res=13):
    box = DomainBox((0.0,) * n, (1.0,) * n, (res,) * n)
    values = ClosedFormMap.from_expressions(exprs, n=n).sample(box).values.copy()
    for node in MASKED if masked else ():
        values[(slice(None),) + node] = np.nan
    return GridMap(box, values)


def _grid_ball_nodes(u, nodes: np.ndarray, eps: np.ndarray):
    """Sample nodes of the eps-ball around each grid node: (M, m, n) indices, (M, m) mask.

    The per-pair reference of the offset sums: a node y samples the ball
    around x when |y - x| <= eps and |y - x| > 1e-12, measured between float
    node coordinates (ties at a whole number of spacings round node by
    node), and y is jet-valid.  ``u`` needs only ``box`` and ``jet_valid``.
    Its candidate offsets stop at (1 + 1e-9) eps, which far from the origin
    can leave out a node within eps, so the property below takes eps at
    multiples of the float spacing, and the test far from the origin holds
    the offset sums to the rule over all nodes instead.
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


# spacings (hi - lo) / (side - 1) of these widths are not dyadic for most sides
WIDTHS = (1.0, 0.3, 0.7, 2.9, 0.01)
MULTIPLES = (1.0, 2.0, 3.0, np.sqrt(2.0), np.sqrt(3.0), 2.0 * np.sqrt(2.0))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_offset_sums_match_the_per_pair_reference(data):
    # random boxes, masks and projector fields; a tie at eps or near it is decided node by
    # node in both, and far from the origin the coordinates round by more than a few ulps of h
    dim = data.draw(st.integers(1, 3), label="dim")
    if data.draw(st.booleans(), label="same spacing on every axis"):
        sides, widths = [data.draw(st.integers(3, 9), label="side")] * dim, [data.draw(st.sampled_from(WIDTHS))] * dim
    else:
        sides = data.draw(st.lists(st.integers(3, 9), min_size=dim, max_size=dim), label="sides")
        widths = data.draw(st.lists(st.sampled_from(WIDTHS), min_size=dim, max_size=dim), label="widths")
    lo = data.draw(st.sampled_from([0.0, 0.7, -2.3, 1e3 + 0.1, -1e6, 1e6]), label="lo")
    box = DomainBox((lo,) * dim, tuple(lo + w for w in widths), tuple(sides))
    eps = float(box.spacing[data.draw(st.integers(0, dim - 1))] * data.draw(st.sampled_from(MULTIPLES)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16), label="seed"))
    valid = rng.random(box.shape) < data.draw(st.sampled_from([0.3, 0.7, 1.0]), label="valid share")
    centres = np.argwhere(rng.random(box.shape) < data.draw(st.sampled_from([0.05, 0.5, 1.0])))
    centres = centres if centres.size else box.all_nodes()[:1]
    node_U, node_ranks = rng.normal(size=box.shape + (2, 2)), rng.integers(0, 3, size=box.shape)
    try:
        cand, used = _grid_ball_nodes(SimpleNamespace(box=box, jet_valid=valid), centres,
                                      np.full(centres.shape[0], eps))
    except ValueError as lonely:
        with pytest.raises(ValueError) as raised:
            _grid_ball_means(box, valid, node_U, node_ranks, centres, eps)
        assert str(raised.value) == str(lonely)
        return
    proj = linalg.complement_projectors(node_U, node_ranks)[tuple(np.moveaxis(cand, -1, 0))]
    ref = (proj * used[..., None, None]).sum(axis=1) / used.sum(axis=1)[:, None, None]
    assert np.array_equal(_grid_ball_means(box, valid, node_U, node_ranks, centres, eps), ref)


@pytest.mark.parametrize("multiple", [2.0, np.sqrt(2.0)])
def test_offset_sums_follow_the_node_rule_far_from_the_origin(multiple):
    # at lo = 1e6 the coordinates round by about 1e-6 of h, far more than 1e-9 of eps: a
    # radius of whole nominal spacings splits its ties node by node, and every node of the
    # box, in lexicographic order, is held to the rule |y - x| <= eps between node coordinates
    box = DomainBox((1e6, 1e6), (1e6 + 0.0016, 1e6 + 0.0016), (17, 17))
    eps = multiple * 1e-4
    rng = np.random.default_rng(3)
    valid = rng.random(box.shape) < 0.9
    node_U, node_ranks = rng.normal(size=box.shape + (2, 2)), rng.integers(0, 3, size=box.shape)
    nodes = box.all_nodes()
    coords, proj = box.node_coords(nodes).T, linalg.complement_projectors(node_U, node_ranks)[tuple(nodes.T)]
    centres = nodes[valid[tuple(nodes.T)]]
    means, split = _grid_ball_means(box, valid, node_U, node_ranks, centres, eps), False
    for centre, mean in zip(centres, means):
        dist = np.linalg.norm(coords - box.node_coords(centre)[:, 0], axis=1)
        used = (dist <= eps) & (dist > 1e-12) & valid[tuple(nodes.T)]
        ref = (proj * used[:, None, None]).sum(axis=0) / used.sum()
        assert np.array_equal(mean, ref), centre
        split |= bool(((dist > eps) & (dist < eps * (1 + 1e-6))).any())
    assert split  # some tie is out at one centre


def test_reduced_residual_peak_memory_stays_near_the_full_one():
    # the offset sums hold box-shaped fields only, never an (M, m, N, N) gather of samples
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (65, 65))
    values = ClosedFormMap.from_expressions(FIXTURES_2D["rank1_rotating"], n=2).sample(box).values.copy()
    values[:, 20, 30] = np.nan
    u = GridMap(box, values)
    H, O = Hamiltonian.dirichlet(2, u.N), Subdomain.whole(box, singular=~u.jet_valid)
    peaks = {}
    for variant in ("full", "reduced"):
        residual_field(u, H, O, variant=variant)  # the map's cached derivatives are not counted
        tracemalloc.start()
        try:
            residual_field(u, H, O, variant=variant)
            peaks[variant] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["reduced"] <= 1.25 * peaks["full"], peaks


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
