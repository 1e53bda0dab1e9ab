import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linfvar import (
    ClosedFormMap,
    DomainBox,
    GridMap,
    Hamiltonian,
    LpProblem,
    OptimizerSettings,
    Subdomain,
    boundary_values_from_map,
    constant_fill_init,
    lp_minimize,
    p_continuation,
    sup_energy,
)
from linfvar.lp_approx import _CellScheme
from linfvar.problem import jets_at_nodes

ARONSSON_EXPR = "abs(x1)^(4/3) - abs(x2)^(4/3)"


@pytest.fixture
def two_point_problem():
    box = DomainBox((0.0,), (1.0,), (11,))
    O = Subdomain.whole(box)
    H = Hamiltonian.dirichlet(1, 1)
    g = boundary_values_from_map(ClosedFormMap.from_expressions(["x1"], n=1), O)
    return LpProblem(H=H, O=O, boundary_values=g, p=2.0)


class TestLpMinimize:
    def test_two_point_affine(self, two_point_problem):
        res = lp_minimize(two_point_problem, constant_fill_init(two_point_problem))
        xs = two_point_problem.O.box.axis_coords(0)
        assert np.nanmax(np.abs(res.solution.values[0] - xs)) <= 1e-6

    def test_affine_init_is_fixed_point(self, two_point_problem):
        box = two_point_problem.O.box
        init = GridMap(box, box.axis_coords(0)[None, :].copy())
        res = lp_minimize(two_point_problem, init)
        assert res.iters <= 2
        assert res.grad_norm <= two_point_problem.settings.tol_opt
        assert res.status == "converged"

    def test_constant_boundary_zero_energy(self):
        box = DomainBox((0.0,), (1.0,), (11,))
        O = Subdomain.whole(box)
        H = Hamiltonian.dirichlet(1, 1)
        g = boundary_values_from_map(ClosedFormMap.from_expressions(["2.0 + 0*x1"], n=1), O)
        prob = LpProblem(H=H, O=O, boundary_values=g, p=2.0)
        res = lp_minimize(prob, constant_fill_init(prob))
        assert res.p_energy == 0.0
        assert res.e_inf == pytest.approx(0.0, abs=1e-20)

    def test_boundary_preserved_bit_exact(self, two_point_problem):
        res = lp_minimize(two_point_problem, constant_fill_init(two_point_problem))
        bmask = two_point_problem.O.boundary_mask
        assert np.array_equal(res.solution.values[:, bmask],
                              two_point_problem.boundary_values[:, bmask])

    def test_init_must_match_boundary(self, two_point_problem):
        box = two_point_problem.O.box
        bad = GridMap(box, np.linspace(0.5, 1.5, 11)[None, :].copy())
        with pytest.raises(ValueError, match="boundary"):
            lp_minimize(two_point_problem, bad)

    def test_desk_scale_grid_cap(self):
        box = DomainBox((0.0, 0.0), (1.0, 1.0), (131, 131))
        O = Subdomain.whole(box)
        H = Hamiltonian.dirichlet(2, 1)
        g = boundary_values_from_map(ClosedFormMap.from_expressions(["x1"], n=2), O)
        with pytest.raises(ValueError, match="desk-scale"):
            LpProblem(H=H, O=O, boundary_values=g, p=2.0)
        LpProblem(H=H, O=O, boundary_values=g, p=2.0,
                  settings=OptimizerSettings(allow_large_grids=True))

    def test_negative_density_aborts(self):
        box = DomainBox((0.0,), (1.0,), (11,))
        O = Subdomain.whole(box)
        H = Hamiltonian.from_expression("P11^2 - 10", 1, 1)
        g = boundary_values_from_map(ClosedFormMap.from_expressions(["x1"], n=1), O)
        prob = LpProblem(H=H, O=O, boundary_values=g, p=2.0)
        with pytest.raises(ValueError, match="nonnegative"):
            lp_minimize(prob, constant_fill_init(prob))

    def test_monotone_mean_bound(self, two_point_problem):
        # (p_energy / |O|)^(1/p) <= E_inf + quadrature slack
        for p in (2.0, 8.0):
            prob = LpProblem(H=two_point_problem.H, O=two_point_problem.O,
                             boundary_values=two_point_problem.boundary_values, p=p)
            res = lp_minimize(prob, constant_fill_init(prob))
            vol = 1.0  # measure of (0,1)
            mean_p = (res.p_energy / vol) ** (1.0 / p)
            h = float(prob.O.box.spacing[0])
            assert mean_p <= res.e_inf + 4.0 * h


class TestCounters:
    def test_evals_count_every_energy_evaluation(self, two_point_problem):
        res = lp_minimize(two_point_problem, constant_fill_init(two_point_problem))
        assert res.status == "converged"
        # the initial evaluation plus at least one trial per accepted step
        assert res.evals >= res.iters + 1

    def test_fixed_point_costs_one_evaluation(self, two_point_problem):
        box = two_point_problem.O.box
        init = GridMap(box, box.axis_coords(0)[None, :].copy())
        res = lp_minimize(two_point_problem, init)
        assert (res.iters, res.evals) == (0, 1)


class TestDescentProperty:
    def test_energy_decreases_across_accepted_steps(self):
        # instrument by comparing energies of successive partial runs
        box = DomainBox((0.0, 0.0), (1.0, 1.0), (9, 9))
        O = Subdomain.whole(box)
        H = Hamiltonian.dirichlet(2, 1)
        uref = ClosedFormMap.from_expressions(["x1*x2 + 0.3*x1"], n=2)
        g = boundary_values_from_map(uref, O)
        energies = []
        for iters in (1, 3, 10, 40):
            prob = LpProblem(H=H, O=O, boundary_values=g, p=4.0,
                             settings=OptimizerSettings(max_iter=iters, tol_opt=0.0))
            res = lp_minimize(prob, constant_fill_init(prob))
            energies.append(res.p_energy)
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))


class TestContinuation:
    def test_two_point_all_p_affine(self, two_point_problem):
        stages = p_continuation(two_point_problem, [2, 4, 8, 16, 32])
        xs = two_point_problem.O.box.axis_coords(0)
        for st in stages:
            assert np.nanmax(np.abs(st.solution.values[0] - xs)) <= 1e-6
            assert st.e_inf == pytest.approx(1.0, abs=1e-6)

    def test_schedule_validation(self, two_point_problem):
        with pytest.raises(ValueError, match="start at p = 2"):
            p_continuation(two_point_problem, [4, 8])
        with pytest.raises(ValueError, match="increasing"):
            p_continuation(two_point_problem, [2, 2])

    def test_single_stage_p2(self, two_point_problem):
        stages = p_continuation(two_point_problem, [2])
        assert len(stages) == 1
        assert stages[0].grad_norm <= 1e-6

    def test_2d_trends_small(self):
        box = DomainBox((1.0, 1.0), (2.0, 2.0), (9, 9))
        O = Subdomain.whole(box)
        H = Hamiltonian.dirichlet(2, 1)
        ua = ClosedFormMap.from_expressions(["abs(x1)^(4/3) - abs(x2)^(4/3)"], n=2)
        g = boundary_values_from_map(ua, O)
        prob = LpProblem(H=H, O=O, boundary_values=g, p=2.0,
                         settings=OptimizerSettings(max_iter=3000, tol_opt=1e-9))
        stages = p_continuation(prob, [2, 4, 8])
        einf = [st.e_inf for st in stages]
        rn = [st.residual_norm for st in stages]
        assert all(b <= a + 1e-3 for a, b in zip(einf, einf[1:]))
        assert all(b < a for a, b in zip(rn, rn[1:]))


def _aronsson_problem(H, p, resolution=17, **settings):
    box = DomainBox((1.0, 1.0), (2.0, 2.0), (resolution, resolution))
    O = Subdomain.whole(box)
    g = boundary_values_from_map(ClosedFormMap.from_expressions([ARONSSON_EXPR], n=2), O)
    return LpProblem(H=H, O=O, boundary_values=g, p=p, settings=OptimizerSettings(**settings))


@pytest.fixture(scope="module")
def criterion_10_stages():
    prob = _aronsson_problem(Hamiltonian.dirichlet(2, 1), 2.0, max_iter=6000, tol_opt=1e-8)
    return p_continuation(prob, [2, 4, 8, 16, 32])


class TestAgreement:
    """The L-BFGS solver against independent minimisers of the same discrete energy."""

    def test_quadratic_energy_exact_minimiser(self):
        # H = |P| makes F_2 = vol * sum_cells |P_c|^2 quadratic in the interior
        # values, so its gradient is affine and one linear solve gives the minimiser
        prob = _aronsson_problem(Hamiltonian.from_expression("sqrt(P11^2 + P12^2)", 2, 1), 2.0,
                                 tol_opt=1e-10)
        box, O = prob.O.box, prob.O
        u = ClosedFormMap.from_expressions([ARONSSON_EXPR], n=2)
        values = jets_at_nodes(u, box, np.argwhere(O.mask), order=1).value.reshape((1,) + box.shape)
        values[:, O.boundary_mask] = prob.boundary_values[:, O.boundary_mask]  # |P| > 0 in every cell
        scheme = _CellScheme(prob)
        interior = scheme.interior
        x0 = values[:, interior].ravel()

        def raw_gradient(x):
            W = values.copy()
            W[:, interior] = x.reshape(1, -1)
            _, hvals, ham = scheme.energy_and_jets(W)
            return scheme.gradient(hvals, ham)[:, interior].ravel()

        r = raw_gradient(x0)
        A = np.stack([raw_gradient(x0 + e) - r for e in np.eye(x0.size)], axis=1)
        exact = x0 + np.linalg.solve(A, -r)
        res = lp_minimize(prob, GridMap(box, values))
        assert res.status == "converged"
        assert np.max(np.abs(res.solution.values[:, interior].ravel() - exact)) <= 1e-8

    def test_matches_scipy_lbfgsb_at_p8(self):
        from scipy.optimize import minimize

        prob = _aronsson_problem(Hamiltonian.dirichlet(2, 1), 8.0)
        init = constant_fill_init(prob)
        scheme = _CellScheme(prob)
        interior = scheme.interior

        def objective(x):
            W = init.values.copy()
            W[:, interior] = x.reshape(1, -1)
            F, hvals, ham = scheme.energy_and_jets(W)
            return scheme.score(F), scheme.normalised_gradient(F, hvals, ham)

        ref = minimize(objective, init.values[:, interior].ravel(), jac=True, method="L-BFGS-B",
                       options={"maxiter": 20000, "maxcor": 10, "ftol": 1e-15, "gtol": 1e-12})
        res = lp_minimize(prob, init)
        assert res.status == "converged"
        assert np.max(np.abs(res.solution.values[:, interior].ravel() - ref.x)) <= 1e-6

    def test_criterion_10_fixture_converges_every_stage(self, criterion_10_stages):
        assert [st.status for st in criterion_10_stages] == ["converged"] * 5


ETA_X_DENSITY = "(1 + u1^2) * (P11^2 + P12^2) + x1^2"


def _newton_point(density, p, seed=0):
    """A 9^2 Aronsson problem, its cell scheme, a perturbed interior iterate and the gradient there."""
    H = Hamiltonian.dirichlet(2, 1) if density == "dirichlet" else Hamiltonian.from_expression(density, 2, 1)
    prob = _aronsson_problem(H, p, resolution=9)
    scheme = _CellScheme(prob)
    W = constant_fill_init(prob).values[(slice(None),) + scheme.window].copy()
    rng = np.random.default_rng(seed)
    W[:, scheme.interior] += rng.uniform(-0.3, 0.3, size=W[:, scheme.interior].shape)

    def gradient(x):
        V = W.copy()
        V[:, scheme.interior] = x.reshape(1, -1)
        F, hvals, ham = scheme.energy_and_jets(V, order=2)
        return F, hvals, ham, scheme.normalised_gradient(F, hvals, ham)

    return scheme, W[:, scheme.interior].ravel(), gradient, rng


class TestNewtonCG:
    """Exact Hessian-vector products, the Jacobi preconditioner and the Newton iteration counts."""

    @pytest.mark.parametrize("p", [2.0, 8.0])
    @pytest.mark.parametrize("density", ["dirichlet", ETA_X_DENSITY])
    def test_hessian_vector_product_matches_gradient_differences(self, density, p):
        scheme, x, gradient, rng = _newton_point(density, p)
        F, hvals, ham, g = gradient(x)
        product, _ = scheme.curvature(F, hvals, ham, g)
        t = 1e-5
        for v in rng.normal(size=(3, x.size)):
            fd = (gradient(x + t * v)[3] - gradient(x - t * v)[3]) / (2.0 * t)
            Hv = product(v)
            assert np.linalg.norm(Hv - fd) <= 1e-6 * np.linalg.norm(Hv)

    @pytest.mark.parametrize("density", ["dirichlet", ETA_X_DENSITY])
    def test_jacobi_diagonal_is_the_cell_form_diagonal(self, density):
        # the diagonal leaves out only the rank-one term (1/p - 1) / (a F) g g^T
        p = 4.0
        scheme, x, gradient, _ = _newton_point(density, p, seed=1)
        F, hvals, ham, g = gradient(x)
        product, diag = scheme.curvature(F, hvals, ham, g)
        rank_one = (1.0 / p - 1.0) / (scheme.grad_scale(F) * F)
        for i in range(0, x.size, 7):
            e = np.zeros(x.size)
            e[i] = 1.0
            assert diag[i] > 0.0
            assert diag[i] == pytest.approx(product(e)[i] - rank_one * g[i] ** 2, rel=1e-12)

    def test_cli_default_stages_converge_at_33(self):
        prob = _aronsson_problem(Hamiltonian.dirichlet(2, 1), 2.0, resolution=33)
        assert (prob.settings.max_iter, prob.settings.tol_opt) == (5000, 1e-9)  # the CLI defaults
        stages = p_continuation(prob, [2, 4, 8, 16, 32])
        assert [st.status for st in stages] == ["converged"] * 5
        assert stages[-1].iters <= 10
        assert all(st.hess_products >= st.iters for st in stages)

    def test_hess_products_are_deterministic_and_reported(self, tmp_path):
        from linfvar.cli import run

        problem = tmp_path / "lp.json"
        problem.write_text(json.dumps({"n": 2, "N": 1, "H": "dirichlet", "u": [ARONSSON_EXPR],
                                       "domain": {"lo": [1.0, 1.0], "hi": [2.0, 2.0],
                                                  "resolution": [9, 9]}}))
        reports = []
        for k in range(2):
            out = tmp_path / f"out{k}"
            assert run(["lp", "--problem", str(problem), "--p-schedule", "2,8", "--out", str(out)]) == 0
            reports.append(json.loads((out / "lp_report.json").read_text())["results"]["stages"])
        counts = [[st["hess_products"] for st in stages] for stages in reports]
        assert counts[0] == counts[1]
        assert all(isinstance(c, int) and c > 0 for c in counts[0])


def test_interior_sup_energy_below_boundary_pinned_sup(criterion_10_stages):
    # the sup over the closed subdomain sits on the fixed boundary data at every p
    e_inf = [st.e_inf for st in criterion_10_stages]
    assert len(set(e_inf)) == 1
    for st in criterion_10_stages:
        assert st.e_inf_interior < st.e_inf


def test_lp_cli_does_not_import_scipy_optimize(tmp_path):
    problem = tmp_path / "lp.json"
    problem.write_text(json.dumps({"n": 1, "N": 1, "H": "dirichlet", "u": ["x1^2"],
                                   "domain": {"lo": [0.0], "hi": [1.0], "resolution": [9]}}))
    script = (
        "import sys\n"
        "from linfvar.cli import run\n"
        f"code = run(['lp', '--problem', {str(problem)!r}, '--p-schedule', '2,4', "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        "assert code == 0, code\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    stages = json.loads((tmp_path / "out" / "lp_report.json").read_text())["results"]["stages"]
    assert all({"evals", "e_inf_interior"} <= set(st) for st in stages)
