import numpy as np
import pytest

from linfvar import (
    ClosedFormMap,
    DomainBox,
    GridMap,
    Hamiltonian,
    Subdomain,
    aronsson_residual,
    composite_gradient,
    hamiltonian_jet,
    infinity_laplacian_residual,
    map_jet,
    residual_field,
    split_residuals,
)
from linfvar.operators import _divergence

from conftest import ARONSSON_EXPR, random_polynomial_sources


def random_linear_map(rng, n, N):
    sources = []
    for a in range(N):
        coeffs = [float(c) for c in rng.uniform(-2, 2, size=n + 1)]
        terms = [f"{coeffs[i]!r} * x{i+1}" for i in range(n)] + [repr(coeffs[-1])]
        sources.append(" + ".join(terms))
    return ClosedFormMap.from_expressions(sources, n)


class TestCompositeGradient:
    def test_linear_constant_density(self, dirichlet_2d):
        u = ClosedFormMap.from_expressions(["2*x1 - x2"], n=2)
        g = composite_gradient(u, dirichlet_2d, [0.3, 0.7])
        assert np.array_equal(g, np.zeros(2))

    def test_aronsson_point(self, aronsson_map, dirichlet_2d):
        g = composite_gradient(aronsson_map, dirichlet_2d, [1.0, 1.0])
        assert np.allclose(g, [32 / 27, 32 / 27], atol=1e-13)

    def test_1d_quadratic(self, dirichlet_1d):
        u = ClosedFormMap.from_expressions(["x1^2"], n=1)
        g = composite_gradient(u, dirichlet_1d, [0.5])
        assert g[0] == pytest.approx(4.0, abs=1e-13)  # d/dx (4x^2) at 0.5


class TestInfinityLaplacian:
    def test_linear_zero(self):
        u = ClosedFormMap.from_expressions(["x1 + 2*x2", "x2 - x1"], n=2)
        r = infinity_laplacian_residual(u, [0.4, -0.2])
        assert np.array_equal(r, np.zeros(2))

    def test_aronsson_solution(self, aronsson_map):
        r = infinity_laplacian_residual(aronsson_map, [1.0, 1.0])
        assert np.abs(r).max() <= 1e-10

    @pytest.mark.parametrize("reduced", [False, True])
    def test_is_half_the_dirichlet_aronsson_residual(self, reduced):
        closed = ClosedFormMap.from_expressions(["sin(x1+x2)", "cos(x1+x2)"], n=2)
        box = DomainBox((0.0, 0.0), (1.0, 1.0), (33, 33))
        values = closed.sample(box).values.copy()
        values[:, 7, 7] = np.nan  # the divergence at (5, 7) reads the one-sided jet at (6, 7)
        grid = GridMap(box, values)
        H = Hamiltonian.dirichlet(2, 2)
        variant = "reduced" if reduced else "full"
        cases = [(closed, np.array([0.3, 0.55])), (closed, np.array([1.2, -0.4]))]
        cases += [(grid, box.node_coords(np.array([node]))[:, 0]) for node in ((5, 7), (16, 16), (20, 3))]
        for u, x in cases:
            il = infinity_laplacian_residual(u, x, reduced=reduced)
            assert np.array_equal(il, 0.5 * aronsson_residual(u, H, x, variant).total)

    def test_1d_quadratic_value(self):
        # Du D(|Du|^2) = (2x)(8x) = 16 x^2 -> 4 at x = 0.5; normal part dies (N=1)
        u = ClosedFormMap.from_expressions(["x1^2"], n=1)
        r = infinity_laplacian_residual(u, [0.5])
        assert r[0] == pytest.approx(4.0, abs=1e-12)


class TestAronssonResidual:
    def test_dirichlet_reduces_to_infinity_laplacian(self):
        # quadratic-density system = 2 x the infinity-Laplace form
        rng = np.random.default_rng(8)
        H = Hamiltonian.dirichlet(2, 2)
        for _ in range(5):
            u = ClosedFormMap.from_expressions(
                [random_polynomial_sources(rng, 2), random_polynomial_sources(rng, 2)], n=2)
            x = rng.uniform(0.2, 0.8, size=2)
            full = aronsson_residual(u, H, x, variant="full")
            il = infinity_laplacian_residual(u, x)
            assert np.abs(full.total - 2.0 * il).max() <= 1e-10 * max(1.0, np.abs(il).max())

    def test_scalar_reduction(self, dirichlet_1d):
        # N=1 and H_P != 0: total = H_P . D(H o jet) exactly, normal annihilated
        u = ClosedFormMap.from_expressions(["x1^2 + 0.3*x1"], n=1)
        res = aronsson_residual(u, dirichlet_1d, [0.4], variant="full")
        hp = 2 * (2 * 0.4 + 0.3)
        expected = hp * composite_gradient(u, dirichlet_1d, [0.4])[0]
        assert res.normal[0] == 0.0
        assert res.total[0] == pytest.approx(expected, rel=1e-12)

    def test_linear_zero_both_variants(self):
        rng = np.random.default_rng(4)
        H = Hamiltonian.dirichlet(2, 2)
        u = random_linear_map(rng, 2, 2)
        for variant in ("full", "reduced"):
            res = aronsson_residual(u, H, [0.1, 0.2], variant=variant)
            assert res.total_norm <= 1e-12

    def test_split_parts_sum(self, aronsson_map, dirichlet_2d):
        res = aronsson_residual(aronsson_map, dirichlet_2d, [1.3, 1.6], variant="full")
        t, nrm = split_residuals(aronsson_map, dirichlet_2d, [1.3, 1.6], variant="full")
        assert np.array_equal(t + nrm, res.total)

    def test_identity_map_zero(self):
        H = Hamiltonian.dirichlet(2, 2)
        u = ClosedFormMap.from_expressions(["x1", "x2"], n=2)
        t, nrm = split_residuals(u, H, [0.3, 0.4], variant="full")
        assert np.abs(t).max() == 0.0 and np.abs(nrm).max() == 0.0

    def test_curve_fixture_parts(self):
        # u(x) = (x, x^2), quadratic density: tangential (16x, 32x^2), normal (-8x, 4)
        H = Hamiltonian.dirichlet(1, 2)
        u = ClosedFormMap.from_expressions(["x1", "x1^2"], n=1)
        for x in (0.3, 0.7, -0.5):
            t, nrm = split_residuals(u, H, [x], variant="full")
            assert np.allclose(t, [16 * x, 32 * x**2], rtol=1e-9, atol=1e-9)
            assert np.allclose(nrm, [-8 * x, 4.0], rtol=1e-7, atol=1e-7)

    def test_orthogonal_split(self):
        rng = np.random.default_rng(12)
        H = Hamiltonian.dirichlet(2, 2)
        for _ in range(10):
            u = ClosedFormMap.from_expressions(
                [random_polynomial_sources(rng, 2), random_polynomial_sources(rng, 2)], n=2)
            x = rng.uniform(0.2, 0.8, size=2)
            res = aronsson_residual(u, H, x, variant="full")
            ip = abs(float(np.dot(res.tangential, res.normal)))
            assert ip <= 1e-8 * (res.tangential_norm * res.normal_norm + 1.0)

    def test_divergence_difference_quotients_converge(self):
        # central differences of H_P(x, u(x), Du(x)) converge at second order to the exact Div(H_P)
        H = Hamiltonian.from_expression("P11^2 + P21^2 + 0.5*P11*P21 + eta1*eta2", 1, 2)
        u = ClosedFormMap.from_expressions(["sin(x1)", "x1^3"], n=1)
        x = np.array([0.6])
        exact = _divergence(u, H, map_jet(u, x[:, None], order=2), None)[:, 0]

        def hp_at(y):
            jet = map_jet(u, y, order=1)
            return hamiltonian_jet(H, jet.x, jet.value, jet.gradient).P_grad[:, 0]

        errors = [np.abs((hp_at(x + h) - hp_at(x - h)) / (2 * h) - exact).max()
                  for h in (1e-2, 5e-3, 2.5e-3)]
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.05)

    def test_reduced_equals_full_on_constant_frame(self):
        # rank-1 map with a fixed range direction: the normal frame is constant
        H = Hamiltonian.dirichlet(1, 2)
        u = ClosedFormMap.from_expressions(["sin(x1)", "2*sin(x1)"], n=1)
        x = [0.4]
        full = aronsson_residual(u, H, x, variant="full")
        red = aronsson_residual(u, H, x, variant="reduced", eps=1e-3)
        assert np.abs(full.total - red.total).max() <= 1e-8
        assert not red.projection_drop

    def test_projection_drop_flagged(self):
        # rank of H_P drops at x = 0 for u = (x^2/2, x^2): reduced space shrinks
        H = Hamiltonian.dirichlet(1, 2)
        u = ClosedFormMap.from_expressions(["0.5*x1^2", "x1^2"], n=1)
        res = aronsson_residual(u, H, [0.0], variant="reduced", eps=0.1)
        assert res.projection_drop
        assert res.reduced_dim == 1  # the fixed normal of the constant direction survives


class TestExactDivergence:
    """Div(H_P) on closed-form maps against its analytic value at 1000 random points."""

    def test_rotating_map_expression_density(self):
        # H = |P|^2: Div(H_P) = 2 Laplacian u = -4 (sin t, cos t), t = x1 + x2
        H = Hamiltonian.from_expression("P11^2 + P12^2 + P21^2 + P22^2", 2, 2)
        u = ClosedFormMap.from_expressions(["sin(x1 + x2)", "cos(x1 + x2)"], n=2)
        x = np.random.default_rng(21).uniform(-2.0, 2.0, size=(2, 1000))
        div = _divergence(u, H, map_jet(u, x, order=2), None)
        t = x[0] + x[1]
        exact = -4.0 * np.stack([np.sin(t), np.cos(t)])
        assert np.linalg.norm(div - exact, axis=0).max() <= 1e-12 * 4.0

    def test_aronsson_map_dirichlet(self, aronsson_map, dirichlet_2d):
        # Div(2 Du) = (8/9) (x1^(-2/3) - x2^(-2/3)) on [1, 2]^2
        x = np.random.default_rng(22).uniform(1.0, 2.0, size=(2, 1000))
        div = _divergence(aronsson_map, dirichlet_2d, map_jet(aronsson_map, x, order=2), None)
        a, b = x[0] ** (-2.0 / 3.0), x[1] ** (-2.0 / 3.0)
        exact = (8.0 / 9.0) * (a - b)
        assert np.all(np.abs(div[0] - exact) <= 1e-12 * (8.0 / 9.0) * (a + b))


class TestResidualField:
    def test_grid_matches_pointwise(self, dirichlet_2d):
        box = DomainBox((1.0, 1.0), (2.0, 2.0), (17, 17))
        O = Subdomain.whole(box)
        u = ClosedFormMap.from_expressions([ARONSSON_EXPR], n=2).sample(box)
        rf = residual_field(u, dirichlet_2d, O, variant="reduced")
        node = rf.nodes[30]
        single = aronsson_residual(u, dirichlet_2d, box.node_coords(node[None, :])[:, 0],
                                   variant="reduced")
        assert np.allclose(rf.total[:, 30], single.total, atol=1e-12)

    def test_closed_form_points(self, aronsson_map, dirichlet_2d, aronsson_domain):
        _, O = aronsson_domain
        pts = np.array([[1.3, 1.7], [1.5, 1.2], [1.9, 1.1]])
        rf = residual_field(aronsson_map, dirichlet_2d, O, variant="reduced", points=pts)
        assert rf.norms.max() <= 1e-10
