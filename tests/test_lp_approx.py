import json
import os
import subprocess
import sys
from dataclasses import replace
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
    coons_init,
    lp_minimize,
    p_continuation,
    sup_energy,
)
from linfvar.exprlang import DomainEvalError
from linfvar import lp_approx
from linfvar.lp_approx import _DIAG_FLOOR, _CellScheme, _newton_direction, _sup_norm
from linfvar.problem import jets_at_nodes

ARONSSON_EXPR = "abs(x1)^(4/3) - abs(x2)^(4/3)"
_ENERGY_AND_JETS = _CellScheme.energy_and_jets


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


def _failing_energy(monkeypatch, error, fails):
    """Patch the cell scheme's energy to raise ``error`` at its k-th call (from 1) where
    ``fails(k)``; returns the list that records every call."""
    calls = []

    def patched(self, W, p):
        calls.append(W)
        if fails(len(calls)):
            raise error("outside the density's domain")
        return _ENERGY_AND_JETS(self, W, p)

    monkeypatch.setattr(_CellScheme, "energy_and_jets", patched)
    return calls


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

    @pytest.mark.parametrize("error", [ValueError, DomainEvalError])
    def test_a_trial_step_that_cannot_be_evaluated_is_rejected(self, two_point_problem, monkeypatch, error):
        init = constant_fill_init(two_point_problem)
        _failing_energy(monkeypatch, error, lambda k: k == 1)
        with pytest.raises(error):  # the initial iterate must be evaluable
            lp_minimize(two_point_problem, init)
        calls = _failing_energy(monkeypatch, error, lambda k: k == 2)  # the first trial step
        res = lp_minimize(two_point_problem, init)
        assert res.status == "converged"
        assert res.evals == len(calls)

    def test_a_line_search_with_no_evaluable_trial_stalls(self, two_point_problem, monkeypatch):
        init = constant_fill_init(two_point_problem)
        calls = _failing_energy(monkeypatch, ValueError, lambda k: k > 1)  # every trial step
        res = lp_minimize(two_point_problem, init)
        assert res.status == "line_search_stalled"
        assert res.iters == 0  # no step was accepted
        assert res.evals == len(calls) > 2
        assert np.array_equal(res.solution.values, init.values, equal_nan=True)


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
            _, hvals, ham = scheme.energy_and_jets(W, prob.p)
            return scheme.gradient(hvals, ham, prob.p)[:, interior].ravel()

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
            F, hvals, ham = scheme.energy_and_jets(W, prob.p)
            return scheme.score(F, prob.p), scheme.normalised_gradient(F, hvals, ham, prob.p)

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
        F, hvals, ham = scheme.energy_and_jets(V, p)
        return F, hvals, ham, scheme.normalised_gradient(F, hvals, ham, p)

    return scheme, W[:, scheme.interior].ravel(), gradient, rng


class TestNewtonCG:
    """Exact Hessian-vector products, the Jacobi preconditioner and the Newton iteration counts."""

    @pytest.mark.parametrize("p", [2.0, 8.0])
    @pytest.mark.parametrize("density", ["dirichlet", ETA_X_DENSITY])
    def test_hessian_vector_product_matches_gradient_differences(self, density, p):
        scheme, x, gradient, rng = _newton_point(density, p)
        F, hvals, ham, g = gradient(x)
        product, _ = scheme.curvature(F, hvals, ham, g, p)
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
        product, diag = scheme.curvature(F, hvals, ham, g, p)
        rank_one = (1.0 / p - 1.0) / (scheme.grad_scale(F, p) * F)
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

    def test_nonpositive_curvature_at_the_first_step_returns_preconditioned_steepest_descent(self):
        g, diag = np.array([1.0, -2.0, 0.5]), np.array([2.0, 4.0, 1.0])
        d, used = _newton_direction(g, lambda v: -v, diag)
        assert used == 1
        assert np.array_equal(d, -(g / diag))

    def test_nonpositive_curvature_at_a_later_step_returns_the_cg_iterate(self):
        A, g, diag = np.diag([1.0, 10.0, 100.0, 1000.0]), np.ones(4), np.ones(4)
        products = []

        def product(v):  # positive curvature once, then none
            products.append(v)
            return A @ v if len(products) == 1 else -v

        d, used = _newton_direction(g, product, diag)
        first = -(g / diag)
        assert used == len(products) == 2
        assert np.allclose(d, (g @ (g / diag)) / (first @ A @ first) * first, rtol=1e-14, atol=0.0)

    def test_cg_stops_after_the_product_cap(self, monkeypatch):
        # four distinct curvatures: three CG steps leave the residual above the forcing term
        monkeypatch.setattr(lp_approx, "_CG_MAX_ITER", 3)
        A, g, diag = np.diag([1.0, 10.0, 100.0, 1000.0]), np.ones(4), np.ones(4)
        products = []

        def product(v):
            products.append(v)
            return A @ v

        d, used = _newton_direction(g, product, diag)
        gnorm = np.linalg.norm(g)
        assert used == len(products) == 3
        assert np.linalg.norm(A @ d + g) > min(0.5, np.sqrt(gnorm)) * gnorm
        assert g @ d < 0.0

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


def _matrix_free_curvature(scheme, F, hvals, ham, g, p):
    """The former matrix-free curvature, kept as a reference: each product pushes v through
    ``cell_jets``, the cell form K and ``scatter``; the diagonal sums each corner's block."""
    N, n = scheme.N, scheme.n
    a = scheme.grad_scale(F, p)
    hz = np.concatenate([ham.eta_grad, ham.P_grad.reshape((N * n,) + scheme.cells)])
    hzz = np.concatenate([ham.eta_hess, ham.P_hess.reshape((N * n, -1) + scheme.cells)])[:, n:]
    K = a * (scheme._weight(hvals, p, 2) * hz[:, None] * hz[None] + scheme._weight(hvals, p, 1) * hzz)
    rank_one = (1.0 / p - 1.0) / (a * F) if F > 0.0 else 0.0
    interior = scheme.interior
    V = np.zeros((N,) + scheme.shape)

    def product(v):
        V[:, interior] = v.reshape(N, -1)
        val, P = scheme.cell_jets(V)
        c = np.einsum("kl...,l...->k...", K, np.concatenate([val, P.reshape((N * n,) + scheme.cells)]))
        Hv = scheme.scatter(c[:N], c[N:].reshape((N, n) + scheme.cells))[:, interior].ravel()
        return Hv + rank_one * float(g @ v) * g

    D = np.zeros((N,) + scheme.shape)
    pairs = len(scheme.corners) // 2
    for c, idx in zip(scheme.corners, scheme.corner_index):
        # d(value, P_1 .. P_n)/d(corner node value), the same for every component
        weights = np.array([1.0 / len(scheme.corners)]
                           + [(1.0 if c[i] == 1 else -1.0) / (pairs * scheme.h[i]) for i in range(n)])
        for b in range(N):
            rows = [b] + [N + b * n + i for i in range(n)]
            D[b][idx[1:]] += np.einsum("k,kl...,l->...", weights, K[np.ix_(rows, rows)], weights)
    diag = D[:, interior].ravel()
    top = _sup_norm(diag)
    return product, np.maximum(diag, _DIAG_FLOOR * top if top > 0.0 else 1.0)


# (n, N, density, boundary map components, resolution per axis)
CURVATURE_CASES = {
    "dirichlet": (2, 1, None, [ARONSSON_EXPR], 9),
    "eta-x": (2, 1, ETA_X_DENSITY, [ARONSSON_EXPR], 9),
    "vectorial": (2, 2, "(1 + u1^2 + u2^2) * (P11^2 + P12^2 + P21^2 + P22^2) + P11*P21 + x2^2",
                  ["x1*x2", "x1 - x2^2"], 9),
    "n=1": (1, 1, "(1 + u1^2) * P11^2 + x1^2", ["x1^2"], 13),
    "n=3": (3, 1, "(1 + u1^2) * (P11^2 + P12^2 + P13^2) + x1^2", ["x1*x2 - x3^2"], 6),
}


class TestAssembledCurvature:
    """The stencil-assembled cell form against the matrix-free reference."""

    @pytest.mark.parametrize("case", sorted(CURVATURE_CASES))
    def test_product_and_diagonal_match_the_matrix_free_reference(self, case):
        n, N, density, components, resolution = CURVATURE_CASES[case]
        box = DomainBox((1.0,) * n, (2.0,) * n, (resolution,) * n)
        O = Subdomain.whole(box)
        H = Hamiltonian.dirichlet(n, N) if density is None else Hamiltonian.from_expression(density, n, N)
        g = boundary_values_from_map(ClosedFormMap.from_expressions(components, n=n), O)
        prob = LpProblem(H=H, O=O, boundary_values=g, p=4.0)
        scheme = _CellScheme(prob)
        W = constant_fill_init(prob).values[(slice(None),) + scheme.window].copy()
        rng = np.random.default_rng(3)
        W[:, scheme.interior] += rng.uniform(-0.3, 0.3, size=W[:, scheme.interior].shape)
        F, hvals, ham = scheme.energy_and_jets(W, prob.p)
        grad = scheme.normalised_gradient(F, hvals, ham, prob.p)
        product, diag = scheme.curvature(F, hvals, ham, grad, prob.p)
        ref_product, ref_diag = _matrix_free_curvature(scheme, F, hvals, ham, grad, prob.p)
        assert np.max(np.abs(diag - ref_diag) / np.abs(ref_diag)) <= 1e-13
        for v in rng.normal(size=(3, grad.size)):
            assert np.linalg.norm(product(v) - ref_product(v)) <= 1e-13 * np.linalg.norm(ref_product(v))

    @pytest.mark.parametrize("resolution", [17, 33])
    def test_continuation_matches_the_matrix_free_reference(self, resolution, monkeypatch):
        prob = _aronsson_problem(Hamiltonian.dirichlet(2, 1), 2.0, resolution=resolution)
        stages = p_continuation(prob, [2, 4, 8, 16, 32])
        monkeypatch.setattr(_CellScheme, "curvature", _matrix_free_curvature)
        ref = p_continuation(prob, [2, 4, 8, 16, 32])
        assert [st.status for st in stages] == [st.status for st in ref] == ["converged"] * 5
        interior = prob.O.mask & ~prob.O.boundary_mask
        diff = stages[-1].solution.values[:, interior] - ref[-1].solution.values[:, interior]
        assert np.max(np.abs(diff)) <= 1e-12


def _loop_cell_jets(scheme, W):
    """The former cell jets, kept as a reference: one pass per corner for the value and one
    signed pass per corner and axis for the gradient."""
    val = np.zeros((scheme.N,) + scheme.cells)
    for idx in scheme.corner_index:
        val += W[idx]
    val /= len(scheme.corners)
    P = np.zeros((scheme.N, scheme.n) + scheme.cells)
    pairs = len(scheme.corners) // 2
    for i in range(scheme.n):
        for c, idx in zip(scheme.corners, scheme.corner_index):
            P[:, i] += (1.0 if c[i] == 1 else -1.0) * W[idx]
        P[:, i] /= pairs * scheme.h[i]
    return val, P


def _loop_scatter(scheme, c_eta, c_P):
    """The former transpose of the cell jets, kept as a reference: per corner its weights
    times the covectors, summed onto the corner's window nodes."""
    G = np.zeros((scheme.N,) + scheme.shape)
    pairs = len(scheme.corners) // 2
    for c, idx in zip(scheme.corners, scheme.corner_index):
        contrib = c_eta * (1.0 / len(scheme.corners))
        for i in range(scheme.n):
            contrib = contrib + c_P[:, i] * ((1.0 if c[i] == 1 else -1.0) / (pairs * scheme.h[i]))
        G[idx] += contrib
    return G


class TestCellTable:
    """The cell jets and their transpose, both read off the corner Jacobian B."""

    @pytest.mark.parametrize("n,N", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_scatter_is_the_transpose_of_the_cell_jets(self, n, N):
        box = DomainBox((1.0,) * n, (2.3,) * n, (7, 6, 5)[:n])
        O = Subdomain.whole(box)
        g = boundary_values_from_map(ClosedFormMap.from_expressions(["x1"] * N, n=n), O)
        scheme = _CellScheme(LpProblem(H=Hamiltonian.dirichlet(n, N), O=O, boundary_values=g, p=2.0))
        rng = np.random.default_rng(n + 10 * N)
        W = rng.normal(size=(N,) + scheme.shape)
        c_eta, c_P = rng.normal(size=(N,) + scheme.cells), rng.normal(size=(N, n) + scheme.cells)
        val, P = scheme.cell_jets(W)
        G = scheme.scatter(c_eta, c_P)
        lhs, rhs = np.sum(val * c_eta) + np.sum(P * c_P), np.sum(W * G)
        assert abs(lhs - rhs) <= 1e-13 * (np.sum(np.abs(val * c_eta)) + np.sum(np.abs(P * c_P)))
        ref_val, ref_P = _loop_cell_jets(scheme, W)
        ref_G = _loop_scatter(scheme, c_eta, c_P)
        for got, ref in ((val, ref_val), (P, ref_P), (G, ref_G)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_continuation_on_a_non_dyadic_box_matches_the_former_loops(self, monkeypatch):
        box = DomainBox((1.0, 1.0), (2.3, 2.3), (17, 17))
        O = Subdomain.whole(box)
        g = boundary_values_from_map(ClosedFormMap.from_expressions([ARONSSON_EXPR], n=2), O)
        prob = LpProblem(H=Hamiltonian.dirichlet(2, 1), O=O, boundary_values=g, p=2.0)
        stages = p_continuation(prob, [2, 4, 8, 16, 32])
        monkeypatch.setattr(_CellScheme, "cell_jets", _loop_cell_jets)
        monkeypatch.setattr(_CellScheme, "scatter", _loop_scatter)
        ref = p_continuation(prob, [2, 4, 8, 16, 32])
        assert [st.status for st in stages] == [st.status for st in ref] == ["converged"] * 5
        assert [st.iters for st in stages] == [st.iters for st in ref]
        interior = O.interior_mask
        diff = stages[-1].solution.values[:, interior] - ref[-1].solution.values[:, interior]
        assert np.max(np.abs(diff)) <= 1e-14


class TestOneScheme:
    """A continuation builds one cell scheme and hands it to every stage."""

    @pytest.mark.parametrize("density", ["dirichlet", ETA_X_DENSITY])
    def test_one_scheme_per_continuation_gives_the_per_stage_results(self, density, monkeypatch):
        H = Hamiltonian.dirichlet(2, 1) if density == "dirichlet" else Hamiltonian.from_expression(density, 2, 1)
        prob = _aronsson_problem(H, 2.0)
        built = []
        build = _CellScheme.__init__

        def counting(self, prob):
            built.append(prob)
            build(self, prob)

        monkeypatch.setattr(_CellScheme, "__init__", counting)
        stages = p_continuation(prob, [2, 4, 8, 16, 32])
        assert len(built) == 1
        # the reference builds a scheme per stage, as a direct lp_minimize call does
        minimize = lp_approx.lp_minimize
        monkeypatch.setattr(lp_approx, "lp_minimize", lambda prob, init, scheme=None: minimize(prob, init))
        ref = p_continuation(prob, [2, 4, 8, 16, 32])
        assert len(built) == 1 + 1 + 5
        for st, rf in zip(stages, ref, strict=True):
            assert np.array_equal(st.solution.values, rf.solution.values, equal_nan=True)
            fields = {k: v for k, v in vars(st).items() if k != "solution"}
            assert fields == {k: v for k, v in vars(rf).items() if k != "solution"}


class TestCoonsStart:
    """The continuation's initial fill, the transfinite interpolant of the boundary data."""

    @pytest.mark.parametrize("n,components", [(2, [ARONSSON_EXPR, "x1*x2"]), (3, ["x1*x2 - x3^2"])])
    def test_the_fill_keeps_the_data_and_reproduces_sums_of_one_variable_maps(self, n, components):
        # the Boolean sum of linear interpolants is exact for f1(x1) + ... + fn(xn) and for
        # multilinear maps; on a window smaller than the box the fill is NaN off the window
        box = DomainBox((1.0,) * n, (2.0,) * n, (7,) * n)
        O = Subdomain.from_box(box, (1.0,) + (1.25,) * (n - 1), (1.75,) + (2.0,) * (n - 1))
        u = ClosedFormMap.from_expressions(components, n=n)
        g = boundary_values_from_map(u, O)
        prob = LpProblem(H=Hamiltonian.dirichlet(n, len(components)), O=O, boundary_values=g, p=2.0)
        fill = coons_init(prob).values
        assert np.array_equal(fill[:, O.boundary_mask], g[:, O.boundary_mask])
        assert np.isnan(fill[:, ~O.mask]).all()
        exact = jets_at_nodes(u, box, np.argwhere(O.interior_mask), order=1).value
        assert np.max(np.abs(fill[:, O.interior_mask] - exact)) <= 1e-14

    def test_in_one_dimension_the_fill_is_the_linear_interpolant(self):
        box = DomainBox((0.0,), (1.0,), (11,))
        O = Subdomain.from_box(box, (0.2,), (0.9,))
        g = boundary_values_from_map(ClosedFormMap.from_expressions(["x1^3 - x1"], n=1), O)
        fill = coons_init(LpProblem(H=Hamiltonian.dirichlet(1, 1), O=O, boundary_values=g, p=2.0)).values[0]
        x, (lo, hi) = box.axis_coords(0), np.flatnonzero(O.mask)[[0, -1]]
        line = g[0, lo] + (x - x[lo]) / (x[hi] - x[lo]) * (g[0, hi] - g[0, lo])
        assert np.allclose(fill[O.mask], line[O.mask], rtol=0.0, atol=1e-15)
        assert (fill[lo], fill[hi]) == (g[0, lo], g[0, hi])

    @pytest.mark.parametrize("resolution", [17, 33])
    def test_p32_solution_matches_the_constant_fill_path(self, resolution, monkeypatch):
        prob = _aronsson_problem(Hamiltonian.dirichlet(2, 1), 2.0, resolution=resolution)
        stages = p_continuation(prob, [2, 4, 8, 16, 32])
        monkeypatch.setattr(lp_approx, "coons_init", constant_fill_init)
        ref = p_continuation(prob, [2, 4, 8, 16, 32])
        assert [st.status for st in stages] == [st.status for st in ref] == ["converged"] * 5
        assert np.nanmax(np.abs(stages[-1].solution.values - ref[-1].solution.values)) <= 1e-12

    @pytest.mark.parametrize("resolution", [17, 33, 65])
    def test_p2_stage_converges_in_a_few_newton_steps(self, resolution):
        prob = _aronsson_problem(Hamiltonian.dirichlet(2, 1), 2.0, resolution=resolution)
        stage = p_continuation(prob, [2])[0]
        assert stage.status == "converged"
        assert stage.iters <= 5


class TestFlatSteps:
    """Steps whose predicted decrease F^(1/p) cannot resolve are judged by the gradient."""

    @pytest.fixture(scope="class")
    def p8_solution(self):
        prob = _aronsson_problem(Hamiltonian.dirichlet(2, 1), 2.0)
        return prob, p_continuation(prob, [2, 4, 8])[-1].solution

    def test_a_flat_stage_takes_the_unit_step_and_counts_it(self, p8_solution):
        prob, start = p8_solution
        res = lp_minimize(replace(prob, p=16.0), start)
        assert res.status == "converged"
        assert res.flat_steps >= 1
        assert res.evals == res.iters + 1  # every line search accepted its first, unit, trial

    def test_without_the_gradient_test_the_flat_stage_backtracks(self, p8_solution, monkeypatch):
        prob, start = p8_solution
        res = lp_minimize(replace(prob, p=16.0), start)
        monkeypatch.setattr(lp_approx, "_FLAT_ULPS", 0.0)
        armijo = lp_minimize(replace(prob, p=16.0), start)
        assert armijo.flat_steps == 0
        assert armijo.evals > armijo.iters + 1 and armijo.iters > res.iters


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
