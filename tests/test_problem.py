import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linfvar import (
    ClosedFormMap,
    DomainBox,
    GridMap,
    Hamiltonian,
    SingularityError,
    Subdomain,
    hamiltonian_jet,
    hamiltonian_value,
    load_problem,
    map_jet,
    read_grid_csv,
    write_grid_csv,
)
from linfvar.problem import _boundary_mask, prescan_singularities

from conftest import ARONSSON_EXPR, random_polynomial_sources


class TestDomainBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            DomainBox((0.0,), (0.0,), (5,))
        with pytest.raises(ValueError):
            DomainBox((0.0,), (1.0,), (2,))

    def test_fractional_resolution_rejected(self):
        with pytest.raises(ValueError, match=r"domain\.resolution must hold whole numbers"):
            DomainBox((0.0, 0.0), (1.0, 1.0), (9.7, 9))
        with pytest.raises(ValueError, match=r"domain\.resolution"):
            load_problem({"n": 2, "N": 1, "H": "dirichlet", "u": ["x1"],
                          "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "resolution": [9.7, 9]}})
        assert DomainBox((0.0,), (1.0,), (9.0,)).resolution == (9,)

    def test_spacing_and_coords(self):
        box = DomainBox((0.0, -1.0), (1.0, 1.0), (11, 21))
        assert np.allclose(box.spacing, [0.1, 0.1])
        assert box.nearest_node(np.array([0.3, -0.5])) == (3, 5)
        with pytest.raises(ValueError, match="not a grid node"):
            box.nearest_node(np.array([0.33, -0.5]))

    def test_axis_coords_are_the_node_coords_bit_for_bit(self):
        # on a non-dyadic box lo + i h and linspace differ at the hi face
        box = DomainBox((-1.0, 0.0), (0.3, 1.0), (11, 5))
        coords = box.node_coords(box.all_nodes()).reshape((2,) + box.shape)
        assert np.array_equal(box.axis_coords(0), coords[0, :, 0])
        assert np.array_equal(box.axis_coords(1), coords[1, 0, :])
        assert box.axis_coords(0)[10] == 0.30000000000000004 != np.linspace(-1.0, 0.3, 11)[10]

    def test_nearest_node_batch(self):
        box = DomainBox((0.0, -1.0), (1.0, 1.0), (11, 21))
        pts = np.array([[0.3, 0.0, 1.0], [-0.5, -1.0, 1.0]])
        assert np.array_equal(box.nearest_node(pts), [[3, 5], [0, 0], [10, 20]])
        with pytest.raises(ValueError, match=r"point \[ *0\.33 +-0\.5 *\] is not a grid node"):
            box.nearest_node(np.array([[0.3, 0.33], [-0.5, -0.5]]))
        with pytest.raises(ValueError, match=r"point \[ *1\.5 +0\. *\] outside the grid"):
            box.nearest_node(np.array([[0.33, 1.5], [-0.5, 0.0]]))
        with pytest.raises(ValueError, match="point has dimension 3, grid has 2"):
            box.nearest_node(np.zeros((3, 2)))


class TestSubdomain:
    def test_box_subdomain_masks(self):
        box = DomainBox((-1.0, -1.0), (1.0, 1.0), (9, 9))
        sub = Subdomain.from_box(box, (-0.5, -0.5), (0.5, 0.5))
        assert sub.mask.sum() == 25
        assert sub.boundary_mask.sum() == 16
        assert sub.interior_mask.sum() == 9
        assert set(map(tuple, sub.boundary_nodes())) <= set(map(tuple, sub.evaluable_nodes()))

    def test_whole_box_boundary(self):
        box = DomainBox((0.0,), (1.0,), (5,))
        sub = Subdomain.whole(box)
        assert sub.boundary_mask.sum() == 2
        assert sub.interior_mask.sum() == 3

    def test_ball_subdomain(self):
        box = DomainBox((-1.0, -1.0), (1.0, 1.0), (17, 17))
        sub = Subdomain.from_ball(box, (0.0, 0.0), 0.5)
        assert sub.contains_point([0.3, 0.3])
        assert not sub.contains_point([0.5, 0.5])
        assert sub.interior_mask.sum() > 0
        for p in ([0.1], [0.1, 0.1, 0.1]):  # no broadcasting against the centre
            with pytest.raises(ValueError, match="dimension 2"):
                sub.contains_point(p)

    def test_boundary_mask_is_computed_once_from_the_mask(self):
        box = DomainBox((-1.0, -1.0), (1.0, 1.0), (9, 11))
        singular = np.zeros(box.shape, dtype=bool)
        singular[4] = True
        for sub in (Subdomain.whole(box), Subdomain.whole(box, singular),
                    Subdomain.from_box(box, (-0.5, -0.25), (0.75, 0.5), singular),
                    Subdomain.from_ball(box, (0.0, 0.2), 0.6)):
            assert np.array_equal(sub.boundary_mask, _boundary_mask(sub.mask))
            assert sub.boundary_mask is sub.boundary_mask  # no recomputation per access
            assert not sub.boundary_mask.flags.writeable
            assert np.array_equal(sub.interior_mask, sub.mask & ~_boundary_mask(sub.mask))

    def test_box_containment_matches_the_array_comparison(self):
        box = DomainBox((-1.0, 0.0), (1.0, 2.0), (9, 9))
        for sub in (Subdomain.whole(box), Subdomain.from_box(box, (-0.5, 0.25), (0.75, 1.5))):
            lo, hi = np.asarray(sub.region[1]), np.asarray(sub.region[2])
            points = [lo, hi, 0.5 * (lo + hi), [lo[0], hi[1]], [hi[0], lo[1]],  # inside and on faces
                      np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), [hi[0] + 1.0, lo[1]],
                      [-np.inf, lo[1]], [np.nan, lo[1]], [lo[0], np.nan], [np.nan, np.nan]]
            for p in points:
                x = np.asarray(p, dtype=float)
                assert sub.contains_point(p) is bool(np.all(x >= lo) and np.all(x <= hi)), p
            for p in ([0.0], [0.0, 0.5, 1.0]):
                with pytest.raises(ValueError, match="dimension 2"):
                    sub.contains_point(p)


class TestMapJets:
    def test_linear_map_exact(self):
        A = np.array([[2.0, -1.0], [0.5, 3.0]])
        u = ClosedFormMap.from_expressions(
            ["2*x1 - x2 + 0.7", "0.5*x1 + 3*x2 - 1"], n=2)
        jet = map_jet(u, np.array([0.3, -0.4]))
        assert np.array_equal(jet.gradient, A)
        assert np.abs(jet.hessian).max() == 0.0

    def test_aronsson_jet_at_1_1(self, aronsson_map):
        jet = map_jet(aronsson_map, np.array([1.0, 1.0]))
        assert jet.value[0] == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(jet.gradient, [[4 / 3, -4 / 3]], atol=1e-14)
        assert jet.hessian[0, 0, 0] == pytest.approx(4 / 9, abs=1e-14)
        assert jet.hessian[0, 1, 1] == pytest.approx(-4 / 9, abs=1e-14)
        assert jet.hessian[0, 0, 1] == 0.0

    def test_grid_quadratic_exact(self):
        box = DomainBox((0.0,), (1.0,), (11,))
        xs = box.axis_coords(0)
        g = GridMap(box, (xs**2)[None, :])
        jet = g.jet2(np.array([0.5]))
        # central difference exact on quadratics (up to 1 ulp from squaring coords)
        assert jet.gradient[0, 0] == pytest.approx(1.0, rel=1e-15)
        assert jet.hessian[0, 0, 0] == pytest.approx(2.0, abs=1e-12)
        # one-sided stencils at the faces are exact on quadratics too
        jet0 = g.jet2(np.array([0.0]))
        assert jet0.gradient[0, 0] == pytest.approx(0.0, abs=1e-13)
        assert jet0.hessian[0, 0, 0] == pytest.approx(2.0, abs=1e-11)

    def test_batched_grid_jets_fail_at_masked_nodes(self):
        # a batch through a masked or stencil-less node fails as one point does, naming the node
        from linfvar import StencilError, residual_field
        box = DomainBox((0.0, 0.0), (1.0, 1.0), (9, 9))
        x1, x2 = np.meshgrid(box.axis_coords(0), box.axis_coords(1), indexing="ij")
        values = np.sin(x1 + x2)[None]
        values[0, 4, 4] = np.nan
        g = GridMap(box, values)
        clean = box.node_coords(np.array([[1, 2], [6, 6]]))
        jets = map_jet(g, clean)
        assert np.array_equal(jets.gradient, g.jet_at_nodes(np.array([[1, 2], [6, 6]])).gradient)
        masked = box.node_coords(np.array([[1, 2], [4, 4], [6, 6]]))
        for x in (masked, masked[:, 1]):
            with pytest.raises(SingularityError, match=r"grid node \(4, 4\)"):
                map_jet(g, x)
        H, O = Hamiltonian.dirichlet(2, 1), Subdomain.whole(box)
        with pytest.raises(SingularityError, match=r"grid node \(4, 4\)"):
            residual_field(g, H, O, points=masked.T)
        values[0, 4, 2] = np.nan  # (4, 3) is hemmed in along x2
        g = GridMap(box, values)
        hemmed = box.node_coords(np.array([[1, 2], [4, 3]]))
        for x in (hemmed, hemmed[:, 1]):
            with pytest.raises(StencilError, match=r"grid node \(4, 3\)"):
                map_jet(g, x)
        with pytest.raises(StencilError, match=r"grid node \(4, 3\)"):
            residual_field(g, H, O, points=hemmed.T)

    def test_grid_nodes_only(self):
        box = DomainBox((0.0,), (1.0,), (11,))
        g = GridMap(box, np.zeros((1, 11)))
        with pytest.raises(ValueError, match="not a grid node"):
            g.jet2(np.array([0.517]))

    def test_hessian_symmetry_grid(self):
        rng = np.random.default_rng(1)
        u = ClosedFormMap.from_expressions(
            [random_polynomial_sources(rng, 2, terms=5)], n=2)
        box = DomainBox((0.0, 0.0), (1.0, 1.0), (17, 17))
        gm = u.sample(box)
        jets = gm.jet_at_nodes(box.all_nodes())
        assert np.array_equal(jets.hessian[:, 0, 1], jets.hessian[:, 1, 0])

    def test_grid_convergence_factor(self):
        u = ClosedFormMap.from_expressions(["sin(2*x1)*cos(x2) + x1^3*x2"], n=2)
        errs = []
        for res in (17, 33):
            box = DomainBox((0.0, 0.0), (1.0, 1.0), (res, res))
            gm = u.sample(box)
            nodes = box.all_nodes()
            fd = gm.jet_at_nodes(nodes)
            exact = u.jet2(box.node_coords(nodes))
            errs.append(np.max(np.abs(fd.gradient - exact.gradient)))
        assert errs[0] / errs[1] >= 3.5

    def test_prescan_and_fallback_stencils(self):
        box = DomainBox((-1.0,), (1.0,), (9,))
        u = ClosedFormMap.from_expressions(["abs(x1)^(4/3)"], n=1)
        bad = prescan_singularities(u, box, box.all_nodes())
        assert list(np.argwhere(bad).ravel()) == [4]
        assert not prescan_singularities(u, box, np.array([[3], [5], [6]])).any()
        values = u.sample(box).values.copy()
        values[:, bad] = np.nan  # a masked node holds no value
        gm = GridMap(box, values)
        assert not gm.jet_valid[4]
        # neighbours of the kink get one-sided stencils pointing away
        assert gm.jet_valid[3] and gm.jet_valid[5]
        with pytest.raises(SingularityError):
            gm.jet2(np.array([0.0]))

    def test_stencil_exhaustion_distinct_error(self):
        # invalid nodes hem in a valid one: no 3-point stencil fits
        from linfvar import StencilError
        box = DomainBox((0.0,), (1.0,), (7,))
        values = np.linspace(0, 1, 7)[None, :].copy()
        values[:, [1, 3]] = np.nan
        gm = GridMap(box, values)
        assert not gm.jet_valid[2]
        with pytest.raises(StencilError):
            gm.jet2(np.array([box.axis_coords(0)[2]]))


class TestHamiltonian:
    def test_dirichlet_jet(self):
        H = Hamiltonian.dirichlet(2, 1)
        P = np.array([[3.0, 5.0]])
        hj = hamiltonian_jet(H, np.zeros(2), np.zeros(1), P)
        assert hj.value == 34.0
        assert np.array_equal(hj.P_grad, 2 * P)
        assert np.all(hj.eta_grad == 0) and np.all(hj.x_grad == 0)

    def test_p_polynomial(self):
        H = Hamiltonian.from_expression("P11^2", 2, 1)
        hj = hamiltonian_jet(H, np.zeros(2), np.zeros(1), np.array([[3.0, 5.0]]))
        assert hj.value == 9.0
        assert np.array_equal(hj.P_grad, [[6.0, 0.0]])

    def test_mixed_dependence(self):
        H = Hamiltonian.from_expression("x1*P11^2 + eta1^2", 2, 1)
        hj = hamiltonian_jet(H, np.array([2.0, 0.0]), np.array([1.0]), np.array([[1.0, 0.0]]))
        assert hj.value == 3.0
        assert np.array_equal(hj.x_grad, [1.0, 0.0])
        assert np.array_equal(hj.eta_grad, [2.0])
        assert np.array_equal(hj.P_grad, [[4.0, 0.0]])
        assert H.depends_on_x and H.depends_on_eta

    def test_structural_identity_dirichlet(self):
        # (xi^T H_P).(xi^T P) = 2|xi^T P|^2 = (1/2)|xi^T H_P|^2
        rng = np.random.default_rng(3)
        H = Hamiltonian.dirichlet(3, 2)
        for _ in range(50):
            xi = rng.normal(size=2)
            P = rng.normal(size=(2, 3))
            hp = hamiltonian_jet(H, np.zeros(3), np.zeros(2), P).P_grad
            lhs = (xi @ hp) @ (xi @ P)
            assert lhs == pytest.approx(2 * np.sum((xi @ P) ** 2), rel=1e-12)
            assert lhs == pytest.approx(0.5 * np.sum((xi @ hp) ** 2), rel=1e-12)


    def test_p_hess_matches_difference_quotients(self):
        # rows P_ai of H's Hessian against every seed, by central differences of P_grad
        rng = np.random.default_rng(14)
        n, N = 2, 2
        H0 = Hamiltonian.dirichlet(n, N)
        names = H0.seeds()
        terms = []
        for p_name in names[n + N:]:
            others = rng.choice(names, size=2, replace=False)
            factors = [f"{p_name}^{int(rng.integers(1, 3))}"] + [f"{v}^{int(rng.integers(1, 3))}" for v in others]
            terms.append(" * ".join([repr(float(rng.uniform(-1, 1)))] + factors))
        H = Hamiltonian.from_expression(" + ".join(terms + ["x1 * eta2"]), n, N)
        assert H.depends_on_x and H.depends_on_eta
        z = rng.uniform(-1.0, 1.0, size=(len(names), 20))

        def p_grad(z):
            return hamiltonian_jet(H, z[:n], z[n:n + N], z[n + N:].reshape(N, n, -1)).P_grad

        hess = hamiltonian_jet(H, z[:n], z[n:n + N], z[n + N:].reshape(N, n, -1), order=2).P_hess
        assert hess.shape == (N, n, len(names), 20)
        h = 1e-4
        for s in range(len(names)):
            e = np.zeros((len(names), 1))
            e[s] = h
            fd = (p_grad(z + e) - p_grad(z - e)) / (2 * h)
            assert np.allclose(hess[:, :, s], fd, rtol=1e-6, atol=1e-7)

    def test_eta_hess_matches_difference_quotients(self):
        # rows eta_a of H's Hessian against every seed, by central differences of eta_grad
        rng = np.random.default_rng(15)
        n, N = 2, 2
        H = Hamiltonian.from_expression(
            "(1 + eta1^2 * eta2) * (P11^2 + P12 * P21) + x1 * eta2^3 + sin(eta1 * P22) + x2^2", n, N)
        names = H.seeds()
        z = rng.uniform(-1.0, 1.0, size=(len(names), 20))

        def eta_grad(z):
            return hamiltonian_jet(H, z[:n], z[n:n + N], z[n + N:].reshape(N, n, -1)).eta_grad

        hess = hamiltonian_jet(H, z[:n], z[n:n + N], z[n + N:].reshape(N, n, -1), order=2).eta_hess
        assert hess.shape == (N, len(names), 20)
        assert np.any(hess[:, n:n + N] != 0.0) and np.any(hess[:, n + N:] != 0.0)
        h = 1e-4
        for s in range(len(names)):
            e = np.zeros((len(names), 1))
            e[s] = h
            fd = (eta_grad(z + e) - eta_grad(z - e)) / (2 * h)
            assert np.allclose(hess[:, s], fd, rtol=1e-6, atol=1e-7)

    def test_u_variables_take_the_eta_derivatives(self):
        # u_a names the value slot eta_a, derivatives included
        rng = np.random.default_rng(16)
        x, eta = rng.uniform(0.5, 1.5, size=(2, 8)), rng.uniform(-1, 1, size=(2, 8))
        P = rng.normal(size=(2, 2, 8))
        src = "(1 + {a}1^2) * (P11^2 + P12^2) + x1 * {a}2 * P21"
        by_u = hamiltonian_jet(Hamiltonian.from_expression(src.format(a="u"), 2, 2), x, eta, P, order=2)
        by_eta = hamiltonian_jet(Hamiltonian.from_expression(src.format(a="eta"), 2, 2), x, eta, P, order=2)
        for name in ("value", "x_grad", "eta_grad", "P_grad", "P_hess", "eta_hess"):
            assert np.array_equal(getattr(by_u, name), getattr(by_eta, name)), name
        assert np.all(by_u.eta_grad[0] != 0.0)

    def test_eta_hess_dirichlet_is_zero(self):
        H = Hamiltonian.dirichlet(3, 2)
        P = np.random.default_rng(5).normal(size=(2, 3, 4))
        jet = hamiltonian_jet(H, np.zeros((3, 4)), np.zeros((2, 4)), P, order=2)
        assert np.array_equal(jet.eta_hess, np.zeros((2, 11, 4)))
        assert hamiltonian_jet(H, np.zeros((3, 4)), np.zeros((2, 4)), P).eta_hess is None

    def test_evaluation_error_names_the_first_point_with_finite_inputs(self):
        # abs(P11) has its kink at entries (0, 0), (1, 1) and (1, 2) of a (2, 3) batch; x is
        # NaN at entry (0, 0), so the first entry named is (1, 1), the point x = 0.25
        H = Hamiltonian.from_expression("abs(P11) + x1", 1, 1)
        x = np.array([[np.nan, 0.25, 0.5]])
        P = np.array([[[[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]]]])
        for evaluate in (hamiltonian_value, hamiltonian_jet):
            with pytest.raises(SingularityError, match=r"^abs evaluated at its kink \(0\) at point \(0\.25,\)$"):
                evaluate(H, x, np.zeros((1, 1)), P)
        H = Hamiltonian.from_expression("sqrt(P11^2 + P12^2)", 2, 1)
        with pytest.raises(SingularityError, match=r"^sqrt at branch point 0 at point \(0\.5, 1\.0\)$"):
            hamiltonian_value(H, np.array([0.5, 1.0]), np.zeros(1), np.zeros((1, 2)))

    def test_p_hess_dirichlet_is_two_delta(self):
        H = Hamiltonian.dirichlet(3, 2)
        P = np.random.default_rng(5).normal(size=(2, 3, 4))
        hess = hamiltonian_jet(H, np.zeros((3, 4)), np.zeros((2, 4)), P, order=2).P_hess
        expected = np.zeros((2, 3, 11, 4))
        for a in range(2):
            for i in range(3):
                expected[a, i, 5 + 3 * a + i] = 2.0
        assert np.array_equal(hess, expected)
        assert hamiltonian_jet(H, np.zeros((3, 4)), np.zeros((2, 4)), P).P_hess is None


class TestProblemIO:
    def test_load_problem_and_digest(self, tmp_path):
        spec = {
            "n": 2, "N": 1,
            "domain": {"lo": [1.0, 1.0], "hi": [2.0, 2.0], "resolution": [17, 17]},
            "H": "dirichlet",
            "u": [ARONSSON_EXPR],
            "subdomain": {"lo": [1.25, 1.25], "hi": [1.75, 1.75]},
        }
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(spec))
        prob = load_problem(path)
        assert prob.n == 2 and prob.N == 1
        assert prob.subdomain.mask.sum() == 9 * 9
        assert prob.H.builtin == "dirichlet"

    def test_singular_declaration_and_prescan(self):
        spec = {
            "n": 1, "N": 1,
            "domain": {"lo": [-1.0], "hi": [1.0], "resolution": [9]},
            "H": "dirichlet",
            "u": ["abs(x1)^(4/3)"],
            "singular": [{"axis": 0, "value": 0.0}],
        }
        prob = load_problem(spec)
        assert prob.subdomain.singular[4]
        assert prob.subdomain.evaluable_mask.sum() == 8

    def test_singular_nodes_are_scanned_in_the_subdomain_only(self, tmp_path):
        # u's kink line x1 = 0 lies outside the subdomain: it is neither scanned nor masked
        spec = {"n": 2, "N": 2, "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "resolution": [17, 17]},
                "H": "dirichlet", "u": ["abs(x1)^(4/3) + x2", "2*(abs(x1)^(4/3) + x2)"],
                "subdomain": {"lo": [0.25, 0.25], "hi": [0.75, 0.75]}}
        assert not load_problem(spec).subdomain.singular.any()
        whole = load_problem({k: v for k, v in spec.items() if k != "subdomain"})
        assert np.array_equal(np.argwhere(whole.subdomain.singular), [[8, j] for j in range(17)])
        # a declared line is masked over the whole box, as before
        declared = load_problem(dict(spec, singular=[{"axis": 1, "value": -1.0}]))
        assert np.array_equal(np.argwhere(declared.subdomain.singular), [[i, 0] for i in range(17)])
        # a grid map follows the same rule: its masked node (1, 1) lies outside the subdomain, (12, 12) in it
        box = DomainBox((-1.0, -1.0), (1.0, 1.0), (17, 17))
        values = ClosedFormMap.from_expressions(["x1 * x2", "x1 - x2^2"], n=2).sample(box).values.copy()
        values[:, [1, 12], [1, 12]] = np.nan
        write_grid_csv(tmp_path / "u.csv", GridMap(box, values))
        grid = dict(spec, u={"grid": "u.csv"})
        sub = load_problem(grid, base=tmp_path)
        assert np.array_equal(np.argwhere(sub.subdomain.singular), [[12, 12]])
        whole = load_problem({k: v for k, v in grid.items() if k != "subdomain"}, base=tmp_path)
        assert np.array_equal(whole.subdomain.singular, ~whole.u.jet_valid)
        assert whole.subdomain.singular[1, 1] and sub.u.jet_valid[sub.subdomain.mask].sum() == 24

    @settings(max_examples=60, deadline=None)
    @given(
        resolution=st.tuples(st.integers(5, 12), st.integers(5, 12)),
        window=st.tuples(*(st.tuples(st.integers(0, 11), st.integers(0, 11)),) * 2),
        kinks=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 11), st.booleans()), max_size=3),
        declared=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 11)), max_size=2),
    )
    def test_window_scan_keeps_the_whole_box_rule(self, resolution, window, kinks, declared):
        box = DomainBox((-1.0, 0.5), (1.5, 2.0), resolution)
        coord = [box.axis_coords(i) for i in range(2)]

        def at(axis, i):
            return float(coord[axis][min(i, resolution[axis] - 1)])

        # at least three nodes per axis, so that the subdomain has interior nodes
        first = [min(a, r - 3) for (a, _), r in zip(window, resolution)]
        lo = [at(i, first[i]) for i in range(2)]
        hi = [at(i, max(window[i][1], first[i] + 2)) for i in range(2)]
        # kink lines at a node coordinate, or half a spacing off one (no singular node)
        terms = [f"abs(x{axis + 1} - {at(axis, i) + (0.5 * float(box.spacing[axis]) if off else 0.0)!r})^(4/3)"
                 for axis, i, off in kinks]
        u = ["x1 + x2 + " + " + ".join(terms) if terms else "x1 * x2", "x1 - x2^2"]
        spec = {"n": 2, "N": 2, "domain": {"lo": list(box.lo), "hi": list(box.hi), "resolution": list(resolution)},
                "H": "dirichlet", "u": u, "subdomain": {"lo": lo, "hi": hi},
                "singular": [{"axis": axis, "value": at(axis, i)} for axis, i in declared]}
        O = load_problem(spec).subdomain
        # the rule of a whole-box scan: the declared lines and every node whose order-2 jets are not finite
        nodes = box.all_nodes()
        jet = ClosedFormMap.from_expressions(u, 2).jet2(box.node_coords(nodes), order=2, on_singularity="nan")
        finite = (np.isfinite(jet.value).all(axis=0) & np.isfinite(jet.gradient).all(axis=(0, 1))
                  & np.isfinite(jet.hessian).all(axis=(0, 1, 2)))
        scanned = np.zeros(box.shape, dtype=bool)
        scanned[tuple(nodes[~finite].T)] = True
        lines = np.zeros(box.shape, dtype=bool)
        for axis, i in declared:
            lines[(slice(None),) * axis + (min(i, resolution[axis] - 1),)] = True
        assert np.array_equal(O.evaluable_mask, O.mask & ~(lines | scanned))
        # the mask itself now holds the declared lines and the scanned nodes in the subdomain
        assert np.array_equal(O.singular, lines | (O.mask & scanned))

    def test_grid_csv_round_trip(self, tmp_path):
        box = DomainBox((0.0, 0.0), (1.0, 1.0), (5, 5))
        rng = np.random.default_rng(0)
        gm = GridMap(box, rng.normal(size=(2, 5, 5)))
        path = tmp_path / "grid.csv"
        write_grid_csv(path, gm)
        back = read_grid_csv(path, box, 2)
        assert np.array_equal(back.values, gm.values)

    @staticmethod
    def _per_node_writer(path, grid):
        """The former writer: one csv.writer row per node."""
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for node in grid.box.all_nodes():
                idx = tuple(int(i) for i in node)
                writer.writerow(list(idx) + [repr(float(grid.values[(a,) + idx])) for a in range(grid.N)])

    @pytest.mark.parametrize("shape", [(7,), (4, 5), (3, 4, 3)])
    @pytest.mark.parametrize("N", [1, 2])
    def test_grid_csv_writer_bytes_match_per_node_writer(self, tmp_path, shape, N):
        box = DomainBox((0.0,) * len(shape), (1.0,) * len(shape), shape)
        rng = np.random.default_rng(len(shape) * 10 + N)
        values = rng.normal(size=(N,) + shape) * 10.0 ** rng.integers(-8, 9, size=(N,) + shape)
        flat = values.reshape(-1)
        flat[::5] = np.nan
        flat[1::7] = -0.0
        flat[2::11] = 0.0
        flat[3::13] = np.inf
        gm = GridMap(box, values)
        write_grid_csv(tmp_path / "new.csv", gm)
        self._per_node_writer(tmp_path / "old.csv", gm)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert b"-0.0" in (tmp_path / "new.csv").read_bytes()

    @pytest.mark.parametrize("bad_row, message", [
        ("5,0,1.0", r"line 3: node \(5, 0\) lies outside the grid \(5, 5\)"),
        ("0,7,1.0", r"line 3: node \(0, 7\) lies outside the grid"),
        ("-1,-1,1.0", r"line 3: node \(-1, -1\) lies outside the grid"),
        ("0,1,2.0", r"line 3: node \(0, 1\) already given on line 2"),
        ("0.5,1,1.0", r"line 3: node indices \[0\.5, 1\.0\] are not whole numbers"),
        ("0,1", r"line 3: 2 fields, expected 2 node indices and 1 components"),
        ("0,x,1.0", r"line 3: could not convert"),
    ])
    def test_grid_csv_bad_rows_name_the_line(self, tmp_path, bad_row, message):
        box = DomainBox((0.0, 0.0), (1.0, 1.0), (5, 5))
        path = tmp_path / "grid.csv"
        path.write_text(f"# header comment\n0,1,1.0\n{bad_row}\n")
        with pytest.raises(ValueError, match=message):
            read_grid_csv(path, box, 1)

    def test_grid_csv_missing_rows_stay_invalid(self, tmp_path):
        box = DomainBox((0.0,), (1.0,), (5,))
        path = tmp_path / "grid.csv"
        path.write_text("0,1.0\n1,2.0\n\n3,4.0\n4,5.0\n2.0,3.0\n")
        assert np.array_equal(read_grid_csv(path, box, 1).values, [[1.0, 2.0, 3.0, 4.0, 5.0]])
        path.write_text("0,1.0\n1,2.0\n3,4.0\n4,5.0\n")
        assert not read_grid_csv(path, box, 1).valid[2]

    def test_grid_problem_from_csv(self, tmp_path):
        box = DomainBox((0.0,), (1.0,), (11,))
        xs = box.axis_coords(0)
        gm = GridMap(box, (xs**2)[None, :])
        csv_path = tmp_path / "u.csv"
        write_grid_csv(csv_path, gm)
        spec = {
            "n": 1, "N": 1,
            "domain": {"lo": [0.0], "hi": [1.0], "resolution": [11]},
            "H": "dirichlet",
            "u": {"grid": csv_path.name},
        }
        ppath = tmp_path / "prob.json"
        ppath.write_text(json.dumps(spec))
        prob = load_problem(ppath)
        jet = prob.u.jet2(np.array([0.5]))
        assert jet.gradient[0, 0] == pytest.approx(1.0, rel=1e-15)


def _line_reader(path, box, N):
    """The grid CSV reader before the one-call parse: one ``csv.reader`` row at a time."""
    import csv

    width = box.dim + N
    rows, lines = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            try:
                if len(row) != width:
                    raise ValueError(f"{len(row)} fields, expected {box.dim} node indices and {N} components")
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise ValueError(f"grid CSV {path}, line {reader.line_num}: {exc}") from None
            lines.append(reader.line_num)
    table = np.array(rows, dtype=float).reshape(len(rows), width)
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


def _outcome(reader, path, box, N):
    try:
        grid = reader(path, box, N)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return grid.values.view(np.uint64).tolist(), grid.valid.tolist()


class TestGridCsvContract:
    """The one-call parse accepts exactly the files the line reader accepts, with the same values."""

    BOX = DomainBox((0.0,), (1.0,), (5,))

    @pytest.mark.parametrize("text", [
        "# header\n0,1.0\n1,2.0\n",
        "0,1.0\n\n1,2.0\n\n\n4,5.0\n",
        "0,1.0\r\n1,2.0\r\n2,3.0\r\n",
        "0,1.0\r1,2.0\r",
        "0,1.0\n1,2.0",
        '"0","1.0"\n1,2.0\n',
        "0,1_0.0\n",
        "0,1.0,\n",
        "0,1.0 # note\n",
        "0,1.0#x\n",
        "0,1.0\n   \n1,2.0\n",
        "",
        "\n\n",
        "# only\n# comments\n",
        "0,nan\n1,-inf\n2,inf\n3,-0.0\n4,-nan\n",
        "0,NaN\n1,+Infinity\n2, 1e400 \n3,5e-324\n",
        " 0 ,\t1.5\t\n",
        "0,,1.0\n",
        "0,1.0\n1\n",
        "0,0x1p3\n",
        "0,1.0\x0c2,3.0\n",
        "\n# c\n\n0,1.0\n# c\n2,1.0\n\n0,3.0\n",
        "\n# c\n0,1.0\n\n# c\n7,1.0\n",
        "\r\n# c\r\n0,1.0\r\n\r\n2.5,1.0\r\n",
    ])
    def test_same_values_or_same_error_as_the_line_reader(self, tmp_path, text):
        path = tmp_path / "grid.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert _outcome(read_grid_csv, path, self.BOX, 1) == _outcome(_line_reader, path, self.BOX, 1)

    def test_bad_node_after_blank_and_comment_lines_names_its_line(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("\n# c\n\n0,1.0\n# c\n2,1.0\n\n0,3.0\n")
        with pytest.raises(ValueError, match=r"line 8: node \(0,\) already given on line 4"):
            read_grid_csv(path, self.BOX, 1)
        path.write_text("0,1.0\n\n\n9,1.0\n")
        with pytest.raises(ValueError, match=r"line 4: node \(9,\) lies outside the grid"):
            read_grid_csv(path, self.BOX, 1)

    def test_files_without_rows_give_an_all_masked_grid(self, tmp_path):
        path = tmp_path / "grid.csv"
        for text in ("", "\n\n", "# only a comment\n"):
            path.write_text(text)
            assert not read_grid_csv(path, self.BOX, 1).valid.any()

    def test_a_plain_table_is_parsed_in_one_call(self, tmp_path, monkeypatch):
        from linfvar import problem

        def refuse(*args):
            raise AssertionError("the row-by-row reader ran on a plain table")

        box = DomainBox((0.0, 0.0), (1.0, 1.0), (4, 3))
        gm = GridMap(box, np.random.default_rng(3).normal(size=(2, 4, 3)))
        write_grid_csv(tmp_path / "grid.csv", gm)
        monkeypatch.setattr(problem, "_read_rows", refuse)
        assert np.array_equal(read_grid_csv(tmp_path / "grid.csv", box, 2).values, gm.values)
