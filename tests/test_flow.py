import numpy as np
import pytest

from linfvar import (
    ClosedFormMap,
    DomainBox,
    GridMap,
    Hamiltonian,
    Subdomain,
    Trajectory,
    check_structural_condition,
    exit_time_bound,
    integrate_flow,
    verify_maxmin,
    hamiltonian_jet,
    map_jet,
    write_trajectory_csv,
)
from linfvar.flow import default_time_step


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
        # constant velocity, so every step is exact and the step is capped at dt: x0: 1;
        # 39 accepted steps and the 40th, which exits: 6 stages each, the last of them the
        # new point's velocity and density; the dense-output bisection evaluates nothing;
        # the exit point's density: 1.  1 + 6*(39 + 1) + 1 = 242.
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        traj = integrate_flow(u, dirichlet_1d, [0.2], [1.0], O, dt=0.01, t_max=10.0)
        assert traj.times.size == 41
        assert traj.evaluations == 242

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

    def test_first_step_halving_on_linear(self, dirichlet_1d, interval_sym):
        # constant velocity: every Dormand-Prince step is exact, so halving the first
        # step moves the exit point only by the rounding of the exit search
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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_csv_bytes_match_per_row_csv_writer(self, tmp_path, n):
        import csv

        rng = np.random.default_rng(n)
        points = rng.normal(size=(100, n)) * 10.0 ** rng.integers(-8, 9, size=(100, n))
        points.reshape(-1)[::7] = -0.0
        hvals = rng.normal(size=100)
        hvals[::11] = np.nan
        hvals[1::13] = np.inf
        traj = Trajectory(times=np.cumsum(rng.uniform(size=100)), points=points, H_values=hvals,
                          exited=False, exit_time=None, exit_point=None)
        write_trajectory_csv(tmp_path / "new.csv", traj)
        with open(tmp_path / "old.csv", "w", newline="") as fh:  # the former writer
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"gamma_{i+1}" for i in range(n)] + ["H"])
            for t, p, hval in zip(traj.times, traj.points, traj.H_values):
                writer.writerow([repr(float(t))] + [repr(float(c)) for c in p] + [repr(float(hval))])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _rk4_exit_point(u, H, x0, xi, O, dt):
    """Exit point of the former fixed-step path: classical RK4 steps of dt until one would
    leave O, then that step's length bisected to within dt * 1e-6."""
    def f(y):
        jet = map_jet(u, y, order=1)
        return xi @ hamiltonian_jet(H, jet.x, jet.value, jet.gradient).P_grad

    def step(y, tau):
        k1 = f(y)
        k2 = f(y + 0.5 * tau * k1)
        k3 = f(y + 0.5 * tau * k2)
        k4 = f(y + tau * k3)
        return y + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    y = np.asarray(x0, dtype=float)
    while O.contains_point(y_next := step(y, dt)):
        y = y_next
    lo, hi = 0.0, dt
    while hi - lo > dt * 1e-6:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if O.contains_point(step(y, mid)) else (lo, mid)
    return step(y, 0.5 * (lo + hi))


# The closed-form-verdicts benchmark session's flows: subdomain [lo, hi]^2 of the 81^2 box
# [1, 2.25]^2 and its eight starts, as drawn at seeds 5 and 6.
WORKLOAD_FLOWS = {
    5: (1.59375, 2.09375, [
        [1.6961878855363584, 1.6937088057532537], [1.8763684555793994, 1.7054755100834913],
        [1.7654973776112572, 1.8424593096629627], [1.8386338804054274, 1.985961551880437],
        [1.6633702332167388, 1.8684011509365872], [2.027584467591553, 1.9967901356479028],
        [1.9215298058460362, 1.7573225802265051], [1.987732558666746, 1.8969607218656095]]),
    6: (1.46875, 1.96875, [
        [1.6213364615991888, 1.9112595673404393], [1.8191947902767718, 1.5676883781092648],
        [1.7101001512909526, 1.7080105479663186], [1.8711541743501274, 1.6291219633103489],
        [1.5612432815547606, 1.7903747405827515], [1.8001233966851538, 1.8248641199405482],
        [1.7280668159338914, 1.5936133956370737], [1.6067233288411167, 1.7457428602172218]]),
}


class TestAdaptiveSteps:
    def test_criterion_7_exits_match_fixed_step_rk4(self, aronsson_map, dirichlet_2d, aronsson_domain):
        _, O = aronsson_domain
        xi = np.array([1.0])
        for x0 in ([1.5, 1.5], [1.2, 1.8], [1.7, 1.3]):
            traj = integrate_flow(aronsson_map, dirichlet_2d, x0, xi, O, dt=1e-3, t_max=2.0)
            ref = _rk4_exit_point(aronsson_map, dirichlet_2d, x0, xi, O, 1e-3)
            assert np.max(np.abs(traj.exit_point - ref)) <= 1e-8
            assert np.ptp(traj.H_values) <= 1e-12

    @pytest.mark.parametrize("seed", sorted(WORKLOAD_FLOWS))
    def test_workload_exits_match_fixed_step_rk4(self, aronsson_map, seed):
        lo, hi, starts = WORKLOAD_FLOWS[seed]
        box = DomainBox((1.0, 1.0), (2.25, 2.25), (81, 81))
        O = Subdomain.from_box(box, [lo, lo], [hi, hi])
        H = Hamiltonian.from_expression("P11^2 + P12^2", 2, 1)
        xi = np.array([1.0])
        dt = default_time_step(aronsson_map, H, O, xi)  # the former fixed step, now the first
        for x0 in starts:
            traj = integrate_flow(aronsson_map, H, x0, xi, O)
            assert traj.exited
            assert np.max(np.abs(traj.exit_point - _rk4_exit_point(aronsson_map, H, x0, xi, O, dt))) <= 1e-8
            assert np.ptp(traj.H_values) <= 1e-12

    @pytest.mark.parametrize("kind", ["box", "ball"])
    def test_exit_point_lies_in_the_closed_subdomain(self, aronsson_map, dirichlet_2d, kind):
        box = DomainBox((1.0, 1.0), (2.0, 2.0), (33, 33))
        O = (Subdomain.from_box(box, [1.25, 1.25], [1.75, 1.75]) if kind == "box"
             else Subdomain.from_ball(box, [1.5, 1.5], 0.3))
        for x0 in ([1.5, 1.5], [1.3, 1.6], [1.6, 1.35]):
            traj = integrate_flow(aronsson_map, dirichlet_2d, x0, [1.0], O)
            assert traj.exited and O.contains_point(traj.exit_point)

    @pytest.fixture
    def attempted_steps(self, monkeypatch):
        """The length of every step integrate_flow attempts, accepted or not."""
        import linfvar.flow as flow_module

        lengths = []
        dp5_step = flow_module._dp5_step

        def recording_step(field, y, h, k1):
            lengths.append(h)
            return dp5_step(field, y, h, k1)

        monkeypatch.setattr(flow_module, "_dp5_step", recording_step)
        return lengths

    def test_explicit_dt_caps_every_step(self, aronsson_map, dirichlet_2d, aronsson_domain,
                                         attempted_steps):
        _, O = aronsson_domain
        dt = 0.004
        traj = integrate_flow(aronsson_map, dirichlet_2d, [1.5, 1.5], [1.0], O, dt=dt)
        assert traj.exited and max(attempted_steps) == dt  # the cap binds, and is never exceeded

    def test_evaluations_count_rejected_steps(self, aronsson_map, dirichlet_2d, aronsson_domain,
                                              attempted_steps):
        # a first step of 0.5 fails the tolerance; every attempt costs 6 evaluations,
        # accepted or not, and the start and the exit point 1 each
        _, O = aronsson_domain
        traj = integrate_flow(aronsson_map, dirichlet_2d, [1.5, 1.5], [1.0], O, dt=0.5)
        assert traj.exited
        assert len(attempted_steps) > traj.times.size - 1  # more than the accepted and exiting steps
        assert traj.evaluations == 2 + 6 * len(attempted_steps)

    def test_a_step_that_does_not_advance_t_is_named(self, dirichlet_1d, interval_sym):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        with pytest.raises(ValueError, match=r"no longer advances t at point \(0\.2,\)"):
            integrate_flow(u, dirichlet_1d, [0.2], [1.0], O, dt=0.0, t_max=1.0)



class TestStructuralCondition:
    def test_dirichlet_half_passes_with_zero_margin(self):
        H = Hamiltonian.dirichlet(2, 2)
        rep = check_structural_condition(H, 0.5)
        assert rep.passes
        assert abs(rep.worst_margin) <= 1e-12

    def test_dirichlet_larger_constant_fails(self):
        H = Hamiltonian.dirichlet(2, 2)
        rep = check_structural_condition(H, 0.6)
        assert not rep.passes
        assert rep.worst_margin < -1e-3

    def test_p_independent_vacuous(self):
        H = Hamiltonian.from_expression("eta1^2 + x1", 1, 1)
        rep = check_structural_condition(H, 0.7)
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
