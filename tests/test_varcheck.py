import numpy as np
import pytest

from linfvar import (
    ClosedFormMap,
    DiscreteMeasure,
    DomainBox,
    Hamiltonian,
    PerturbedMap,
    Subdomain,
    SupportViolationError,
    absolute_minimiser_test,
    danskin_derivative,
    make_sphere_variation,
    make_test_basis,
    measure_divergence_residual,
    normal_variation_test,
    rank_one_test,
    sphere_family_scan,
    stationarity_scan,
    sup_energy,
)
from linfvar.varcheck import make_free_variation


class TestAbsoluteMinimiser:
    def test_unit_slope_passes(self, unit_interval, dirichlet_1d):
        _, O = unit_interval
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        v = absolute_minimiser_test(u, dirichlet_1d, O, trials=15, amplitude=1.0, seed=3)
        assert v.passed
        assert v.worst_violation <= 0.0

    def test_parabola_refuted_with_witness(self, interval_sym, dirichlet_1d):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1^2"], n=1)
        v = absolute_minimiser_test(u, dirichlet_1d, O, trials=15, amplitude=1.0, seed=3)
        assert not v.passed
        assert v.worst_violation > 0.1
        # the witness is re-evaluable from its serialised parameters
        assert v.witness["energy_perturbed"] < v.witness["energy_base"]

    def test_zero_amplitude_trivially_passes(self, unit_interval, dirichlet_1d):
        _, O = unit_interval
        u = ClosedFormMap.from_expressions(["x1^2"], n=1)
        v = absolute_minimiser_test(u, dirichlet_1d, O, trials=5, amplitude=0.0, seed=0)
        assert v.passed


class TestRankOne:
    def test_linear_map_passes(self):
        box = DomainBox((-1.0, -1.0), (1.0, 1.0), (17, 17))
        O = Subdomain.whole(box)
        H = Hamiltonian.dirichlet(2, 2)
        u = ClosedFormMap.from_expressions(["x1 + 0.5*x2", "x2 - x1"], n=2)
        v = rank_one_test(u, H, O, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], trials=4, seed=5)
        assert v.passed

    def test_scalar_parabola_fails(self, interval_sym, dirichlet_1d):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1^2"], n=1)
        v = rank_one_test(u, dirichlet_1d, O, [[1.0]], trials=8, seed=2)
        assert not v.passed

    def test_zero_direction_rejected(self, interval_sym, dirichlet_1d):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        with pytest.raises(ValueError, match="nonzero"):
            rank_one_test(u, dirichlet_1d, O, [[0.0]], trials=2, seed=0)


class TestNormalVariations:
    def test_graph_map_passes(self):
        # u = (x, 0): normal variations are (0, g), |D(u+phi)|^2 = 1 + g'^2 >= 1
        box = DomainBox((0.0,), (1.0,), (33,))
        O = Subdomain.whole(box)
        H = Hamiltonian.dirichlet(1, 2)
        u = ClosedFormMap.from_expressions(["x1", "0.0"], n=1)
        v = normal_variation_test(u, H, O, trials=6, amplitude=0.5, seed=2)
        assert v.passed and not v.vacuous
        assert v.trials > 0

    def test_scalar_nonvanishing_gradient_vacuous(self, unit_interval, dirichlet_1d):
        _, O = unit_interval
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        v = normal_variation_test(u, dirichlet_1d, O, trials=4, seed=1)
        assert v.passed and v.vacuous

    def test_full_rank_square_vacuous(self):
        box = DomainBox((-1.0, -1.0), (1.0, 1.0), (9, 9))
        O = Subdomain.whole(box)
        H = Hamiltonian.dirichlet(2, 2)
        u = ClosedFormMap.from_expressions(["x1", "x2"], n=2)
        v = normal_variation_test(u, H, O, trials=3, seed=0)
        assert v.passed and v.vacuous


class TestStationarity:
    def test_linear_fixture(self, interval_sym, dirichlet_1d):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        psi = ClosedFormMap.from_expressions(["1 - x1^2"], n=1)
        rep = stationarity_scan(u, dirichlet_1d, O, psi)
        assert rep.max_val == 4.0 and rep.min_val == -4.0
        assert list(map(tuple, rep.K)) == [(64,)]  # the node at x = 0
        assert rep.statement_ii and rep.statement_iii

    def test_zero_field(self, interval_sym, dirichlet_1d):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        psi = ClosedFormMap.from_expressions(["0.0"], n=1)
        rep = stationarity_scan(u, dirichlet_1d, O, psi)
        assert rep.max_val == 0.0 and rep.min_val == 0.0
        assert rep.K.shape[0] == rep.argmax_nodes.shape[0]
        assert rep.k_fraction == 1.0

    def test_parabola_statement_ii_fails(self, interval_sym, dirichlet_1d):
        # argmax of 4x^2 is {+-1}; psi = 1 - x^2 gives g(+-1) = -8 < 0
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1^2"], n=1)
        psi = ClosedFormMap.from_expressions(["1 - x1^2"], n=1)
        rep = stationarity_scan(u, dirichlet_1d, O, psi)
        assert rep.max_val == pytest.approx(-8.0, abs=1e-12)
        assert not rep.statement_ii

    def test_danskin_linkage_exact(self, interval_sym, dirichlet_1d):
        _, O = interval_sym
        rng = np.random.default_rng(6)
        u = ClosedFormMap.from_expressions(["x1 + 0.2*x1^2"], n=1)
        for psi, _ in [make_free_variation(O, 1, rng) for _ in range(5)]:
            rep = stationarity_scan(u, dirichlet_1d, O, psi)
            assert rep.max_val == danskin_derivative(u, dirichlet_1d, psi, O, "plus")
            assert rep.min_val == danskin_derivative(u, dirichlet_1d, psi, O, "minus")

    def test_consistency_chain_on_convex_fixtures(self, unit_interval):
        # where the minimality probe passes, (II) and (III) hold for every basis field
        _, O = unit_interval
        basis = make_test_basis(O, 1, 12)
        for h_src in ("dirichlet", "P11^2", "exp(P11)"):
            H = (Hamiltonian.dirichlet(1, 1) if h_src == "dirichlet"
                 else Hamiltonian.from_expression(h_src, 1, 1))
            u = ClosedFormMap.from_expressions(["0.7*x1"], n=1)
            assert absolute_minimiser_test(u, H, O, trials=8, seed=1).passed
            for psi in basis:
                rep = stationarity_scan(u, H, O, psi)
                assert rep.statement_ii
                assert rep.statement_iii


class TestSphereFamily:
    def test_linear_map_brackets_zero(self):
        box = DomainBox((-1.0, -1.0), (1.0, 1.0), (33, 33))
        H = Hamiltonian.dirichlet(2, 2)
        u = ClosedFormMap.from_expressions(["x1 + 0.5*x2", "x2 - x1"], n=2)
        scans = sphere_family_scan(u, H, box, [0.0, 0.0], [0.5, 0.25], [[1.0, 0.0], [0.0, 1.0]])
        for s in scans:
            assert s["plus"] >= 0.0 >= s["minus"]
        # brackets tighten linearly with the radius
        by_rho = {}
        for s in scans:
            by_rho.setdefault(s["rho"], []).append(max(s["plus"], -s["minus"]))
        assert max(by_rho[0.25]) <= 0.6 * max(by_rho[0.5])

    def test_aronsson_brackets_shrink(self, aronsson_map, dirichlet_2d):
        box = DomainBox((1.0, 1.0), (2.0, 2.0), (129, 129))
        h = float(box.spacing[0])
        viols = []
        for rho in (0.2, 0.1):
            scans = sphere_family_scan(aronsson_map, dirichlet_2d, box, [1.5, 1.5], [rho], [[1.0]])
            s = scans[0]
            viols.append(max(-s["plus"], s["minus"], 0.0) + max(abs(s["plus"]), abs(s["minus"])))
        du_sup = 2.4  # |Du| bound on the box
        assert viols[1] <= viols[0] + 1e-12
        assert viols[0] <= 8 * du_sup * (h + 0.2**2)

    def test_sphere_variation_values(self):
        phi = make_sphere_variation(np.array([2.0]), np.array([0.5, 0.5]), 0.25, 2)
        jet = phi.jet2(np.array([0.75, 0.5]))
        assert jet.value[0] == pytest.approx(0.0, abs=1e-15)  # on the sphere
        assert np.allclose(jet.gradient, [[2 * 2 * 0.25, 0.0]], atol=1e-14)


class TestDiscreteMeasure:
    def test_normalisation_exact(self):
        m = DiscreteMeasure([((0,), 2.0), ((1,), 3.0)])
        assert abs(sum(w for _, w in m.atoms) - 1.0) <= 1e-14

    def test_uniform_is_trapezoid(self, interval_sym):
        _, O = interval_sym
        m = DiscreteMeasure.uniform(O)
        w = m.weights_array()
        assert w[0] == pytest.approx(w[1] / 2)
        assert w[-1] == pytest.approx(w[-2] / 2)

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([((0,), 0.0)])


class TestMeasureDivergence:
    def test_uniform_measure_annihilates_basis(self, interval_sym, dirichlet_1d):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        basis = make_test_basis(O, 1, 50)
        sigma = DiscreteMeasure.uniform(O)
        rep = measure_divergence_residual(u, dirichlet_1d, O, sigma, basis)
        assert rep.worst <= 1e-10 * rep.scale

    def test_dirac_residual_value(self, interval_sym, dirichlet_1d):
        # sigma = delta at x = 0: residual is 2 psi'(0)
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        psi = ClosedFormMap.from_expressions(["x1 * (1 - x1^2)"], n=1)  # psi'(0) = 1
        sigma = DiscreteMeasure.dirac((64,))
        rep = measure_divergence_residual(u, dirichlet_1d, O, sigma, [psi])
        assert rep.per_psi[0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_field_zero_residual(self, interval_sym, dirichlet_1d):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        psi = ClosedFormMap.from_expressions(["0.0"], n=1)
        rep = measure_divergence_residual(u, dirichlet_1d, O, DiscreteMeasure.dirac((64,)), [psi])
        assert rep.per_psi[0] == 0.0

    def test_support_violation(self, interval_sym, dirichlet_1d):
        # argmax of 4x^2 is the two endpoints; charging the centre is an error
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1^2"], n=1)
        psi = ClosedFormMap.from_expressions(["1 - x1^2"], n=1)
        with pytest.raises(SupportViolationError):
            measure_divergence_residual(u, dirichlet_1d, O, DiscreteMeasure.dirac((64,)), [psi])

    def test_weight_scaling_invariance(self, interval_sym, dirichlet_1d):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        basis = make_test_basis(O, 1, 5)
        nodes = [(10,), (64,), (100,)]
        m1 = DiscreteMeasure([(n, w) for n, w in zip(nodes, (1.0, 2.0, 3.0))])
        m2 = DiscreteMeasure([(n, 7.0 * w) for n, w in zip(nodes, (1.0, 2.0, 3.0))])
        r1 = measure_divergence_residual(u, dirichlet_1d, O, m1, basis)
        r2 = measure_divergence_residual(u, dirichlet_1d, O, m2, basis)
        assert r1.per_psi == r2.per_psi

    def test_empty_basis_rejected(self, interval_sym, dirichlet_1d):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        with pytest.raises(ValueError, match="empty"):
            measure_divergence_residual(u, dirichlet_1d, O, DiscreteMeasure.dirac((64,)), [])


class TestOracleAgreement:
    """Verdicts agree with a brute-force piecewise-linear competitor search."""

    @staticmethod
    def brute_force_is_minimiser(f, xs, u_vals, levels=5, tol=1e-9):
        """Exhaustive search over piecewise-linear competitors on a value lattice.

        Energy of a competitor is max over segments of f(slope); competitors
        match u at the endpoints.  Returns True when no lattice competitor
        beats u's own piecewise-linear energy.
        """
        h = xs[1] - xs[0]
        base = np.max(f(np.diff(u_vals) / h))
        interior = len(xs) - 2
        span = np.ptp(u_vals) + 1e-9
        grid = np.linspace(u_vals.min() - 0.5 * span, u_vals.max() + 0.5 * span, levels)
        best = np.inf
        combos = np.stack(np.meshgrid(*([grid] * interior), indexing="ij"), axis=-1).reshape(-1, interior)
        vals = np.empty((combos.shape[0], len(xs)))
        vals[:, 0] = u_vals[0]
        vals[:, -1] = u_vals[-1]
        vals[:, 1:-1] = combos
        energies = np.max(f(np.diff(vals, axis=1) / h), axis=1)
        best = float(np.min(energies))
        return best >= base - tol

    def test_affine_and_parabola_instances(self, dirichlet_1d):
        box = DomainBox((-1.0,), (1.0,), (8,))  # 6 interior nodes for the lattice search
        O = Subdomain.whole(box)
        xs = box.axis_coords(0)
        cases = [
            ("0.5*x1 + 0.1", True),
            ("x1^2", False),
        ]
        f = lambda s: s**2
        for src, expect in cases:
            u = ClosedFormMap.from_expressions([src], n=1)
            vals = u.jet2(xs[None, :], order=1).value[0]
            oracle = self.brute_force_is_minimiser(f, xs, vals)
            assert oracle == expect
            fine_box = DomainBox((-1.0,), (1.0,), (65,))
            fine_O = Subdomain.whole(fine_box)
            verdict = absolute_minimiser_test(u, dirichlet_1d, fine_O, trials=12, seed=7)
            assert verdict.passed == expect


# ---------------------------------------------------------------------------
# Numeric sine families against their parsed expressions

from linfvar import PerturbedMap as _PM  # noqa: E402
from linfvar import jets_at_nodes, varcheck, variations  # noqa: E402
from linfvar.variations import (  # noqa: E402
    SineModeMap,
    make_free_field,
    make_rank_one_variation,
    variation_source,
)


def _close(got, ref, rel):
    scale = max(float(np.max(np.abs(ref))), 1e-300) if np.size(ref) else 1.0
    return got.shape == ref.shape and float(np.max(np.abs(got - ref), initial=0.0)) <= rel * scale


def _random_box(rng, n):
    lo = rng.uniform(-1.0, 1.0, size=n)
    hi = lo + rng.uniform(0.5, 2.0, size=n)
    res = tuple(int(r) for r in rng.integers(5, 12, size=n))
    box = DomainBox(tuple(lo - 0.25), tuple(hi + 0.25), res)
    return box, Subdomain.from_box(box, lo, hi)


def _sine_cases(seed):
    """(map, spec, box, subdomain) for every sine family, with and without phases, n = 1..3."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        box, O = _random_box(rng, n)
        for N in (1, 2):
            yield (*make_free_variation(O, N, rng, amplitude=float(rng.uniform(0.1, 3.0))), box, O)
            yield (*make_free_field(O, N, rng, amplitude=float(rng.uniform(0.1, 3.0))), box, O)
            xi = rng.normal(size=N)
            yield (*make_rank_one_variation(O, xi, rng, amplitude=float(rng.uniform(0.1, 3.0))), box, O)


@pytest.mark.parametrize("seed", range(6))
def test_sine_jets_match_parsed_source(seed):
    """Values, gradients and Hessians of the numeric sine families equal the jets of their
    parsed ``variation_source`` to 1e-13 relative, at random points and at grid nodes."""
    rng = np.random.default_rng(100 + seed)
    for phi, spec, box, O in _sine_cases(seed):
        assert isinstance(phi, SineModeMap)
        parsed = ClosedFormMap.from_expressions(variation_source(spec), box.dim)
        points = rng.uniform(np.asarray(box.lo)[:, None], np.asarray(box.hi)[:, None], size=(box.dim, 40))
        nodes = box.all_nodes()[rng.permutation(int(np.prod(box.shape)))[:60]]
        for got, ref in ((phi.jet2(points), parsed.jet2(points)),
                         (phi.jet2(points[:, 0]), parsed.jet2(points[:, 0])),
                         (jets_at_nodes(phi, box, nodes), parsed.jet2(box.node_coords(nodes)))):
            for name in ("value", "gradient", "hessian"):
                assert _close(getattr(got, name), getattr(ref, name), 1e-13), (spec["kind"], name)


def test_test_basis_matches_parsed_modes():
    box = DomainBox((0.0, -1.0), (2.0, 1.0), (9, 11))
    O = Subdomain.from_box(box, (0.5, -0.5), (1.5, 0.75))
    nodes = O.evaluable_nodes()
    for a, psi in enumerate(make_test_basis(O, 2, 6)):
        k = a // 2 + 1
        src = variations._sine_profile_source((0.5, -0.5), (1.5, 0.75), [(1.0, [k, 1], [0.0, 0.0])])
        sources = [src, "0.0"] if a % 2 == 0 else ["0.0", src]
        ref = ClosedFormMap.from_expressions(sources, 2).jet2(box.node_coords(nodes))
        got = jets_at_nodes(psi, box, nodes)
        for name in ("value", "gradient", "hessian"):
            assert _close(getattr(got, name), getattr(ref, name), 1e-13)


def test_stacked_maps_match_single_maps():
    rng = np.random.default_rng(5)
    box, O = _random_box(rng, 2)
    maps = [make_free_field(O, 2, rng)[0] for _ in range(4)] + [make_free_variation(O, 2, rng)[0]]
    nodes = O.evaluable_nodes()
    batch = jets_at_nodes(SineModeMap.stack(maps), box, nodes)
    for t, phi in enumerate(maps):
        single = jets_at_nodes(phi, box, nodes)
        assert _close(batch.value[:, t], single.value, 1e-15)
        assert _close(batch.gradient[:, :, t], single.gradient, 1e-15)
        assert _close(batch.hessian[:, :, :, t], single.hessian, 1e-15)


def _reference_absolute(u, H, O, trials, amplitude, seed):
    """The former per-trial loop: each variation parsed from its source and scored on its own."""
    rng = np.random.default_rng(seed)
    E0 = sup_energy(u, H, O)
    worst, witness = -np.inf, None
    for trial in range(trials):
        _, spec = make_free_variation(O, u.N, rng, amplitude)
        parsed = ClosedFormMap.from_expressions(variation_source(spec), O.box.dim)
        E1 = sup_energy(_PM(u, parsed, 1.0), H, O)
        if E0 - E1 > worst:
            worst, witness = E0 - E1, trial
    return worst, witness


def _reference_rank_one(u, H, O, directions, trials, amplitude, seed):
    rng = np.random.default_rng(seed)
    E0 = sup_energy(u, H, O)
    worst, witness, index = -np.inf, None, 0
    for xi in directions:
        specs = [make_rank_one_variation(O, xi, rng, amplitude, deterministic=True)[1]]
        specs += [make_rank_one_variation(O, xi, rng, amplitude)[1] for _ in range(trials)]
        for spec in specs:
            parsed = ClosedFormMap.from_expressions(variation_source(spec), O.box.dim)
            E1 = sup_energy(_PM(u, parsed, 1.0), H, O)
            if E0 - E1 > worst:
                worst, witness = E0 - E1, index
            index += 1
    return worst, witness


_VERDICT_CASES = [
    # (u sources, n, H, box lo, box hi, resolution, subdomain lo, hi)
    (["x1^2"], 1, "dirichlet", (-1.0,), (1.0,), (65,), None, None),
    (["0.5*x1 + 0.1"], 1, "P11^2 + P11", (-1.0,), (1.0,), (65,), None, None),
    (["abs(x1)^(4/3) - abs(x2)^(4/3)"], 2, "P11^2 + P12^2", (1.0, 1.0), (2.25, 2.25), (41, 41),
     (1.25, 1.25), (1.75, 1.75)),
    (["x1 + 0.5*x2", "x2*x1"], 2, "P11^2 + P12^2 + P21^2 + P22^2 + eta2^2", (-1.0, -1.0), (1.0, 1.0),
     (17, 17), (-0.5, -0.5), (0.75, 0.5)),
]


def _verdict_fixture(case):
    srcs, n, h_src, lo, hi, res, slo, shi = case
    box = DomainBox(lo, hi, res)
    O = Subdomain.whole(box) if slo is None else Subdomain.from_box(box, slo, shi)
    u = ClosedFormMap.from_expressions(srcs, n)
    N = len(srcs)
    H = Hamiltonian.dirichlet(n, N) if h_src == "dirichlet" else Hamiltonian.from_expression(h_src, n, N)
    return u, H, O


@pytest.mark.parametrize("case", range(len(_VERDICT_CASES)))
@pytest.mark.parametrize("batch_points", [1, 200, 2 ** 15])
def test_batched_verdicts_match_per_trial_reference(case, batch_points, monkeypatch):
    """Any chunking gives the verdict, witness trial and worst violation of the per-trial loop."""
    monkeypatch.setattr(varcheck, "_BATCH_POINTS", batch_points)
    u, H, O = _verdict_fixture(_VERDICT_CASES[case])
    v = absolute_minimiser_test(u, H, O, trials=23, amplitude=0.7, seed=case)
    worst, trial = _reference_absolute(u, H, O, 23, 0.7, case)
    assert v.witness["trial"] == trial
    assert abs(v.worst_violation - worst) <= 1e-12 * max(1.0, abs(worst))
    dirs = [np.eye(u.N)[0], np.ones(u.N)]
    r = rank_one_test(u, H, O, dirs, trials=11, amplitude=0.7, seed=case)
    worst, trial = _reference_rank_one(u, H, O, dirs, 11, 0.7, case)
    assert r.trials == 24 and r.witness["trial"] == trial
    assert abs(r.worst_violation - worst) <= 1e-12 * max(1.0, abs(worst))


@pytest.mark.parametrize("case", range(len(_VERDICT_CASES)))
def test_witness_source_reproduces_energy(case):
    """The witness parses back into a map whose perturbed energy is the reported one."""
    u, H, O = _verdict_fixture(_VERDICT_CASES[case])
    dirs = [np.eye(u.N)[a] for a in range(u.N)]
    for v in (absolute_minimiser_test(u, H, O, trials=30, seed=4),
              rank_one_test(u, H, O, dirs, trials=15, seed=4)):
        parsed = ClosedFormMap.from_expressions(v.witness["source"], O.box.dim)
        E1 = sup_energy(_PM(u, parsed, 1.0), H, O)
        assert abs(E1 - v.witness["energy_perturbed"]) <= 1e-12 * abs(v.witness["energy_perturbed"])


def test_polynomial_witness_source():
    """Ball subdomains use the polynomial families; their witnesses carry a source too."""
    box = DomainBox((-1.0, -1.0), (1.0, 1.0), (21, 21))
    O = Subdomain.from_ball(box, (0.0, 0.0), 0.6)
    u = ClosedFormMap.from_expressions(["x1^2 + x2"], 2)
    H = Hamiltonian.dirichlet(2, 1)
    for v in (absolute_minimiser_test(u, H, O, trials=5, seed=1),
              rank_one_test(u, H, O, [[1.0]], trials=3, seed=1)):
        assert v.witness["kind"] in ("free_ball", "rank_one")
        parsed = ClosedFormMap.from_expressions(v.witness["source"], 2)
        assert sup_energy(_PM(u, parsed, 1.0), H, O) == v.witness["energy_perturbed"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batched_non_finite_density_names_first_node(monkeypatch):
    """An overflowing density raises the per-trial message: first bad trial, first bad node."""
    monkeypatch.setattr(varcheck, "_BATCH_POINTS", 2 ** 15)
    box = DomainBox((-1.0,), (1.0,), (65,))
    O = Subdomain.whole(box)
    u = ClosedFormMap.from_expressions(["0.1*x1"], 1)
    H = Hamiltonian.from_expression("1e300 * P11^2", 1, 1)
    rng = np.random.default_rng(2)
    expected = None
    for _ in range(6):
        _, spec = make_free_variation(O, 1, rng, 1e5)
        parsed = ClosedFormMap.from_expressions(variation_source(spec), 1)
        try:
            sup_energy(_PM(u, parsed, 1.0), H, O)
        except ValueError as exc:
            expected = str(exc)
            break
    assert expected is not None and expected.startswith("density not finite at node (")
    with pytest.raises(ValueError) as err:
        absolute_minimiser_test(u, H, O, trials=6, amplitude=1e5, seed=2)
    assert str(err.value) == expected


def test_no_evaluable_nodes_message():
    box = DomainBox((0.0,), (1.0,), (9,))
    O = Subdomain.whole(box, singular=np.ones(9, dtype=bool))
    u = ClosedFormMap.from_expressions(["x1"], 1)
    for verdict in (lambda: absolute_minimiser_test(u, Hamiltonian.dirichlet(1, 1), O, trials=3),
                    lambda: rank_one_test(u, Hamiltonian.dirichlet(1, 1), O, [[1.0]], trials=3)):
        with pytest.raises(ValueError, match="subdomain has no evaluable nodes"):
            verdict()


def test_density_sup_names_first_trial_then_first_node():
    from linfvar import Jet2
    from linfvar.energy import density_sup

    box = DomainBox((0.0,), (1.0,), (9,))
    nodes = box.all_nodes()
    grad = np.ones((1, 1, 2, 9))
    grad[0, 0, 0, 5] = np.nan  # trial 0 fails first, at node 5
    grad[0, 0, 1, 2] = np.inf  # trial 1 fails at an earlier node
    jets = Jet2(x=box.node_coords(nodes)[:, None], value=np.zeros((1, 2, 9)), gradient=grad, hessian=None)
    with pytest.raises(ValueError, match=r"^density not finite at node \(5,\)$"):
        density_sup(Hamiltonian.dirichlet(1, 1), jets, nodes)
    clean = Jet2(x=jets.x, value=jets.value, gradient=np.ones((1, 1, 2, 9)), hessian=None)
    assert np.array_equal(density_sup(Hamiltonian.dirichlet(1, 1), clean, nodes), [1.0, 1.0])
