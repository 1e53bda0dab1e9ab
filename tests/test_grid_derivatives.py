"""A grid map forms each derivative order on first read, with the bits of forming them together.

``GridMap`` keeps its first derivatives, its second derivatives and its
jet validity as three cached properties: an order-1 jet reads the first
derivatives only, and the Hessian is formed when an order-2 jet or
``jet_valid`` reads it.  The reference below forms all three in one go, as
the grid map once did; the lazily formed arrays must equal it bit for bit,
whichever is read first.  The reference passes no mask on an all-valid
grid, the grid map an all-True one: ``tests/test_stencil_runs.py`` holds
both paths to the same bits.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from linfvar import ClosedFormMap, DomainBox, GridMap, problem
from linfvar.problem import axis_derivative

from test_stencil_runs import _same_bits


def eager_derivatives(gm: GridMap):
    """First derivatives, second derivatives and jet validity of ``gm``, formed together."""
    h = gm.box.spacing
    valid = None if gm.valid.all() else gm.valid
    nd = gm.box.dim
    du = np.stack(
        [axis_derivative(gm.values, i, h[i], order=1, valid=valid, grid_ndim=nd) for i in range(gm.n)],
        axis=1,
    )
    d2 = np.empty((gm.N, gm.n, gm.n) + gm.box.shape)
    for i in range(gm.n):
        d2[:, i, i] = axis_derivative(gm.values, i, h[i], order=2, valid=valid, grid_ndim=nd)
        for j in range(i + 1, gm.n):
            mixed = axis_derivative(du[:, i], j, h[j], order=1, valid=valid, grid_ndim=nd)
            d2[:, i, j] = mixed
            d2[:, j, i] = mixed
    ok = gm.valid & np.isfinite(du).all(axis=(0, 1)) & np.isfinite(d2).all(axis=(0, 1, 2))
    return du, d2, ok


@settings(max_examples=80, deadline=None)
@given(
    shape=st.lists(st.integers(3, 9), min_size=1, max_size=3),
    N=st.integers(1, 2),
    masked=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
    seed=st.integers(0, 2 ** 32 - 1),
    reads=st.permutations(["_du", "_d2u", "jet_valid"]),
)
def test_lazy_derivatives_equal_the_eager_ones(shape, N, masked, seed, reads):
    rng = np.random.default_rng(seed)
    n = len(shape)
    box = DomainBox((-1.0,) * n, tuple(rng.uniform(0.5, 2.0, size=n)), tuple(shape))
    values = rng.normal(size=(N,) + tuple(shape)) * 10.0 ** rng.integers(-3, 4)
    values[:, rng.random(shape) < masked] = np.nan  # a masked node holds no value
    gm = GridMap(box, values)
    lazy = {name: getattr(gm, name) for name in reads}
    du, d2, ok = eager_derivatives(GridMap(box, values))
    assert _same_bits(lazy["_du"], du) and _same_bits(lazy["_d2u"], d2)
    assert np.array_equal(lazy["jet_valid"], ok) and not lazy["jet_valid"].flags.writeable


def test_an_order_1_jet_forms_the_first_derivatives_only(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return axis_derivative(*args, **kwargs)

    monkeypatch.setattr(problem, "axis_derivative", counting)
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (9, 9))
    gm = ClosedFormMap.from_expressions(["sin(x1 + x2)", "x1 * x2"], n=2).sample(box)
    nodes = box.all_nodes()
    assert gm.jet_at_nodes(nodes, order=1).hessian is None
    assert len(calls) == 2  # one pass per axis
    assert "_d2u" not in vars(gm) and "jet_valid" not in vars(gm)
    assert gm.jet_valid.all()
    assert len(calls) == 5  # two second and one mixed pass
    gm.jet_valid
    gm.jet_at_nodes(nodes, order=2)
    assert len(calls) == 5
