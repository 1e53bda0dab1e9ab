import numpy as np
import pytest

from linfvar import (
    ClosedFormMap,
    DomainBox,
    GridMap,
    Hamiltonian,
    Subdomain,
    check_structural_condition,
    exit_time_bound,
    integrate_flow,
    verify_maxmin,
    write_trajectory_csv,
)


class TestIntegrateFlow:
    def test_linear_1d_explicit_solution(self, interval_sym, dirichlet_1d):
        # velocity = 2 u' = 2, so gamma(t) = x0 + 2t and exit at (1 - x0)/2
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        traj = integrate_flow(u, dirichlet_1d, [0.2], [1.0], O, dt=0.01, t_max=10.0)
        assert traj.exited
        assert traj.exit_time == pytest.approx(0.4, abs=0.01 * 1e-5)
        assert traj.exit_point[0] == pytest.approx(1.0, abs=1e-6)
        assert np.ptp(traj.H_values) == 0.0  # density constant along a constant field

    def test_field_evaluation_count(self, interval_sym, dirichlet_1d):
        # x0: 1; 39 accepted steps: 3 stages + the new point's k1 (its density too);
        # the rejected 40th step: 3; 20 bisection trials and the exit step: 3 each;
        # the exit point's density: 1.  1 + 4*39 + 3 + 3*21 + 1 = 224.
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        traj = integrate_flow(u, dirichlet_1d, [0.2], [1.0], O, dt=0.01, t_max=10.0)
        assert traj.times.size == 41
        assert traj.evaluations == 224

    def test_density_is_the_k1_evaluation(self, aronsson_map, aronsson_domain):
        # the density along the path equals hamiltonian_value bit for bit
        from linfvar import hamiltonian_value, map_jet
        _, O = aronsson_domain
        H = Hamiltonian.from_expression("P11^2 + P12^2", 2, 1)
        traj = integrate_flow(aronsson_map, H, [1.5, 1.5], [1.0], O, dt=1e-2, t_max=1.0)
        for p, hval in zip(traj.points, traj.H_values):
            jet = map_jet(aronsson_map, p, order=1)
            assert hval == float(hamiltonian_value(H, jet.x, jet.value, jet.gradient))

    def test_linear_2d_straight_line(self):
        box = DomainBox((-1.0, -1.0), (1.0, 1.0), (17, 17))
        O = Subdomain.whole(box)
        H = Hamiltonian.dirichlet(2, 1)
        u = ClosedFormMap.from_expressions(["0.5*x1 + 0.25*x2"], n=2)
        traj = integrate_flow(u, H, [0.0, 0.0], [1.0], O, dt=0.05, t_max=50.0)
        A = np.array([0.5, 0.25])
        for t, p in zip(traj.times[:-1], traj.points[:-1]):
            assert np.allclose(p, 2 * t * A, atol=1e-12)

    def test_no_exit_reported(self, dirichlet_1d, interval_sym):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["0.0 * x1"], n=1)  # zero field: never exits
        traj = integrate_flow(u, dirichlet_1d, [0.0], [1.0], O, dt=0.01, t_max=0.5)
        assert not traj.exited and traj.exit_time is None

    def test_requires_interior_start(self, dirichlet_1d, interval_sym):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        with pytest.raises(ValueError, match="outside"):
            integrate_flow(u, dirichlet_1d, [2.0], [1.0], O, dt=0.01)

    def test_grid_map_rejected(self, dirichlet_1d, interval_sym):
        box, O = interval_sym
        g = GridMap(box, np.zeros((1, 129)))
        with pytest.raises(ValueError, match="closed-form"):
            integrate_flow(g, dirichlet_1d, [0.0], [1.0], O, dt=0.01)

    def test_aronsson_conservation_and_exit(self, aronsson_map, dirichlet_2d, aronsson_domain):
        box, O = aronsson_domain
        traj = integrate_flow(aronsson_map, dirichlet_2d, [1.5, 1.5], [1.0], O,
                              dt=1e-3, t_max=2.0)
        assert traj.exited
        assert np.ptp(traj.H_values) <= 1e-6 * max(1.0, traj.times[-1])
        bound = exit_time_bound(aronsson_map, dirichlet_2d, O, [1.0], c0=0.5)
        assert traj.exit_time <= bound["bound"] + 1e-3

    def test_energy_derivative_identity_along_path(self, aronsson_map, dirichlet_2d, aronsson_domain):
        # dH/dt along the path equals xi^T H_P D(H o jet): both vanish for this solution
        _, O = aronsson_domain
        dt = 1e-3
        traj = integrate_flow(aronsson_map, dirichlet_2d, [1.4, 1.7], [1.0], O, dt=dt, t_max=1.0)
        dH = np.diff(traj.H_values[:-1]) / np.diff(traj.times[:-1])
        assert np.abs(dH).max() <= 10 * dt

    def test_energy_derivative_identity_nonzero_rhs(self, dirichlet_1d, interval_sym):
        # on a non-solution the identity has a nonzero right side; O(dt) agreement
        from linfvar import composite_gradient, hamiltonian_jet, map_jet
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1^2 + 0.2*x1"], n=1)
        dt = 1e-3
        traj = integrate_flow(u, dirichlet_1d, [0.3], [1.0], O, dt=dt, t_max=1.0)
        dH = np.diff(traj.H_values) / np.diff(traj.times)
        worst = 0.0
        for k in range(len(dH) - 1):
            p = traj.points[k]
            jet = map_jet(u, p, order=1)
            hp = hamiltonian_jet(dirichlet_1d, jet.x, jet.value, jet.gradient).P_grad
            rhs = float((hp @ composite_gradient(u, dirichlet_1d, p))[0])
            worst = max(worst, abs(dH[k] - rhs))
        assert worst <= 500 * dt  # forward-difference quotient is O(dt) accurate

    def test_tmax_default_from_structural_constant(self, aronsson_map, dirichlet_2d, aronsson_domain):
        _, O = aronsson_domain
        traj = integrate_flow(aronsson_map, dirichlet_2d, [1.5, 1.5], [1.0], O, dt=1e-3, c0=0.5)
        assert traj.exited  # bound-derived horizon is generous enough

    def test_monotonicity_increments(self, aronsson_map, dirichlet_2d, aronsson_domain):
        # d/dt xi^T u >= c |xi^T H_P|^2 with c = 1/2 for the quadratic density
        _, O = aronsson_domain
        dt = 1e-3
        traj = integrate_flow(aronsson_map, dirichlet_2d, [1.5, 1.5], [1.0], O, dt=dt, t_max=2.0)
        from linfvar import hamiltonian_jet, map_jet
        vals, speeds = [], []
        for p in traj.points:
            jet = map_jet(aronsson_map, p, order=1)
            vals.append(float(jet.value[0]))
            hp = hamiltonian_jet(dirichlet_2d, jet.x, jet.value, jet.gradient).P_grad
            speeds.append(float(np.sum(hp**2)))
        incs = np.diff(vals)
        lower = 0.5 * np.asarray(speeds[:-1]) * np.diff(traj.times)
        assert np.min(incs - lower) >= -50 * dt**2

    def test_rk4_step_halving_on_linear(self, dirichlet_1d, interval_sym):
        # constant velocity: RK4 is exact, so halving dt moves the exit point
        # by at most the bisection tolerance (trivially O(dt^4))
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        e1 = integrate_flow(u, dirichlet_1d, [0.1], [1.0], O, dt=0.02, t_max=5.0).exit_point
        e2 = integrate_flow(u, dirichlet_1d, [0.1], [1.0], O, dt=0.01, t_max=5.0).exit_point
        assert abs(e1[0] - e2[0]) <= 1e-6

    def test_csv_export(self, tmp_path, dirichlet_1d, interval_sym):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        traj = integrate_flow(u, dirichlet_1d, [0.0], [1.0], O, dt=0.05, t_max=5.0)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,gamma_1,H"
        assert len(rows) == traj.times.size + 1


class TestStructuralCondition:
    def test_dirichlet_half_passes_with_zero_margin(self):
        H = Hamiltonian.dirichlet(2, 2)
        rep = check_structural_condition(H, 0.5, sample_count=200, seed=1)
        assert rep.passes
        assert abs(rep.worst_margin) <= 1e-12

    def test_dirichlet_larger_constant_fails(self):
        H = Hamiltonian.dirichlet(2, 2)
        rep = check_structural_condition(H, 0.6, sample_count=200, seed=1)
        assert not rep.passes
        assert rep.worst_margin < -1e-3

    def test_p_independent_vacuous(self):
        H = Hamiltonian.from_expression("eta1^2 + x1", 1, 1)
        rep = check_structural_condition(H, 0.7, sample_count=100, seed=0)
        assert rep.passes and rep.worst_margin == 0.0


class TestMaxMin:
    def test_linear_equality(self, dirichlet_1d, interval_sym):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        rep = verify_maxmin(u, dirichlet_1d, O)
        assert rep.passes
        assert rep.sup_interior == rep.max_boundary

    def test_aronsson_passes(self, aronsson_map, dirichlet_2d, aronsson_domain):
        _, O = aronsson_domain
        rep = verify_maxmin(aronsson_map, dirichlet_2d, O)
        assert rep.passes

    def test_parabola_min_principle_fails(self, dirichlet_1d, interval_sym):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1^2"], n=1)
        rep = verify_maxmin(u, dirichlet_1d, O)
        assert rep.max_principle
        assert not rep.min_principle
        assert rep.inf_interior == pytest.approx(0.0, abs=1e-12)
        assert rep.min_boundary == 4.0
