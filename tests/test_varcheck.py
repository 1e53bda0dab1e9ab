import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linfvar import (
    ClosedFormMap,
    DiscreteMeasure,
    DomainBox,
    GridMap,
    Hamiltonian,
    PerturbedMap,
    Subdomain,
    SupportViolationError,
    absolute_minimiser_test,
    danskin_derivative,
    load_problem,
    make_sphere_variation,
    make_test_basis,
    measure_divergence_residual,
    normal_variation_test,
    rank_one_test,
    sphere_family_scan,
    stationarity_scan,
    sup_energy,
    write_grid_csv,
)
from linfvar.cli import run
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

    def test_ball_scores_each_direction_once(self, monkeypatch):
        # on balls a direction's only variation is the deterministic sphere bump, so
        # ``trials`` adds no copies of it and the verdict counts distinct variations
        box = DomainBox((-1.0, -1.0), (1.0, 1.0), (21, 21))
        O = Subdomain.from_ball(box, (0.0, 0.0), 0.6)
        u = ClosedFormMap.from_expressions(["x1^2 + x2"], 2)
        scored, energies = [], varcheck._Probe.energies

        def counting(probe, phi):
            E = energies(probe, phi)
            scored.append(E.size)
            return E

        monkeypatch.setattr(varcheck._Probe, "energies", counting)
        v = rank_one_test(u, Hamiltonian.dirichlet(2, 1), O, [[1.0], [2.0]], trials=20, seed=1)
        assert v.trials == 2 and scored == [1, 1]

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
            # each entry is the pair of one-sided derivatives, bit for bit
            O = Subdomain.from_ball(box, [0.0, 0.0], s["rho"])
            phi = make_sphere_variation(np.asarray(s["xi"]), np.zeros(2), s["rho"], 2)
            assert s["plus"] == danskin_derivative(u, H, phi, O, "plus")
            assert s["minus"] == danskin_derivative(u, H, phi, O, "minus")
        # brackets tighten linearly with the radius
        by_rho = {}
        for s in scans:
            by_rho.setdefault(s["rho"], []).append(max(s["plus"], -s["minus"]))
        assert max(by_rho[0.25]) <= 0.6 * max(by_rho[0.5])

    def test_entries_hold_plain_floats(self):
        box = DomainBox((-1.0, -1.0), (1.0, 1.0), (17, 17))
        u = ClosedFormMap.from_expressions(["x1 + 0.5*x2"], n=2)
        (s,) = sphere_family_scan(u, Hamiltonian.dirichlet(2, 1), box, [0.0, 0.0], [0.5], [[1]])
        assert type(s["rho"]) is float and [type(c) for c in s["xi"]] == [float]

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
        m = DiscreteMeasure([(0,), (1,)], [2.0, 3.0])
        assert abs(float(m.weights.sum()) - 1.0) <= 1e-14

    def test_uniform_is_trapezoid(self, interval_sym):
        _, O = interval_sym
        m = DiscreteMeasure.uniform(O)
        w = m.weights
        assert w[0] == pytest.approx(w[1] / 2)
        assert w[-1] == pytest.approx(w[-2] / 2)

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([(0,)], [0.0])

    def test_one_weight_per_atom(self):
        for nodes, weights in (([(0,), (1,)], [1.0]), ([0, 1], [1.0, 1.0])):
            with pytest.raises(ValueError, match=r"an \(M, n\) array of nodes and M weights"):
                DiscreteMeasure(nodes, weights)


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

    def test_support_violation_counts_the_atoms_outside(self, interval_sym, dirichlet_1d):
        # the argmax set of 4x^2 is the two endpoints; the first atom outside it is named
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1^2"], n=1)
        sigma = DiscreteMeasure([(0,), (64,), (100,), (128,)], [1.0] * 4)
        with pytest.raises(SupportViolationError) as info:
            measure_divergence_residual(u, dirichlet_1d, O, sigma, make_test_basis(O, 1, 2))
        assert str(info.value) == "measure charges 2 node(s) outside the argmax set, e.g. (64,)"

    @pytest.mark.parametrize("node", [(129,), (-1,), (64, 0), ()])
    def test_an_atom_off_the_grid_is_refused_before_the_support_check(self, interval_sym, dirichlet_1d, node):
        # every node is in the argmax set of a unit slope; at the parent these atoms were
        # reported as lying outside it
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        with pytest.raises(ValueError) as info:
            measure_divergence_residual(u, dirichlet_1d, O, DiscreteMeasure.dirac(node), make_test_basis(O, 1, 2))
        assert info.type is ValueError
        assert str(info.value) == f"measure atom {node} is not a node of the (129,) grid"

    def test_weight_scaling_invariance(self, interval_sym, dirichlet_1d):
        _, O = interval_sym
        u = ClosedFormMap.from_expressions(["x1"], n=1)
        basis = make_test_basis(O, 1, 5)
        nodes = [(10,), (64,), (100,)]
        m1 = DiscreteMeasure(nodes, [1.0, 2.0, 3.0])
        m2 = DiscreteMeasure(nodes, [7.0, 14.0, 21.0])
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
from linfvar import jets_at_nodes, map_jet, varcheck, variations  # noqa: E402
from linfvar.varcheck import stationarity_scans  # noqa: E402
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
    parsed ``variation_source`` to 1e-13 relative at grid nodes."""
    rng = np.random.default_rng(100 + seed)
    for phi, spec, box, O in _sine_cases(seed):
        assert isinstance(phi, SineModeMap)
        parsed = ClosedFormMap.from_expressions(variation_source(spec), box.dim)
        nodes = box.all_nodes()[rng.permutation(int(np.prod(box.shape)))[:60]]
        got, ref = jets_at_nodes(phi, box, nodes), parsed.jet2(box.node_coords(nodes))
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


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_built_basis_equals_the_one_map_construction(n, N):
    """make_test_basis builds its fields as one batch; each field's coefficient and constant
    arrays equal bit for bit those of the same field built from its one mode as a one-map
    batch, zero-padded to the basis's wave numbers."""
    rng = np.random.default_rng(10 * n + N)
    box, O = _random_box(rng, n)
    lo, hi = variations._region_box(O)
    size = 7
    basis = make_test_basis(O, N, size)
    assert isinstance(basis, SineModeMap) and len(basis) == size
    for j in range(size):
        coeffs = np.zeros((1, N, 1))
        coeffs[0, j % N, 0] = 1.0
        ks = np.array([j // N + 1] + [1] * (n - 1)).reshape(1, 1, 1, n)
        single = SineModeMap.from_modes(lo, hi, coeffs, ks, np.zeros(ks.shape), np.zeros((N, 1)))[0]
        padded = np.zeros(basis[j].coeffs.shape)
        padded[tuple(slice(m) for m in single.coeffs.shape)] = single.coeffs
        assert np.array_equal(basis[j].coeffs, padded), j
        assert np.array_equal(basis[j].consts, single.consts), j


def test_a_batch_is_a_sequence_of_its_maps():
    """len is the batch length, indexing past the end is an IndexError, and iterating a
    batch yields its maps in order; a single map has no entries."""
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (9, 9))
    basis = make_test_basis(Subdomain.whole(box), 2, 5)
    assert len(basis) == 5
    with pytest.raises(IndexError):
        basis[len(basis)]
    maps = list(basis)
    assert len(maps) == 5
    for t, psi in enumerate(maps):
        assert psi.coeffs.ndim == 1 + 2 and np.array_equal(psi.coeffs, basis.coeffs[:, t])
    for attempt in (len, lambda psi: psi[0]):
        with pytest.raises(TypeError, match="a single sine map has no entries"):
            attempt(maps[0])


def _mixed_batch(rng, O, N, T):
    """T drawn free fields (mode counts, phases and constants per map), each component of each
    map times a random factor other than 1, as one from_modes batch."""
    draw = variations._SineDraw(rng, "free_field", O, T, N, 1.0)
    factors = rng.normal(size=(N, T))
    return SineModeMap.from_modes(draw.lo, draw.hi, draw.coeffs * factors.T[..., None], draw.ks, draw.phases,
                                  draw.constants * factors)


def test_stacked_maps_match_single_maps():
    rng = np.random.default_rng(5)
    box, O = _random_box(rng, 2)
    maps = _mixed_batch(rng, O, 2, 5)
    nodes = O.evaluable_nodes()
    batch = jets_at_nodes(maps, box, nodes)
    for t, phi in enumerate(maps):
        single = jets_at_nodes(phi, box, nodes)
        assert _close(batch.value[:, t], single.value, 1e-15)
        assert _close(batch.gradient[:, :, t], single.gradient, 1e-15)
        assert _close(batch.hessian[:, :, :, t], single.hessian, 1e-15)


def _reference_node_jets(phi, box, nodes, order, magnitude=False):
    """The per-entry path: every nonzero coefficient's product of table rows formed over the
    nodes' bounding grid, one numpy call per entry and axis, summed entry by entry, then the
    nodes picked out.  With ``magnitude`` each entry is instead the sum of the magnitudes of
    the terms added into it."""
    n, h, lead = phi.n, box.spacing, phi.consts.shape
    mag = np.abs if magnitude else (lambda a: a)
    first = nodes.min(axis=0)
    shape = tuple(nodes.max(axis=0) - first + 1)
    parts = []  # per axis and table row: (row, d row, d2 row) over the axis's grid coordinates
    for i in range(n):
        t = (box.lo[i] + np.arange(first[i], first[i] + shape[i]) * h[i]) - phi.lo[i]
        t = t.reshape([-1 if j == i else 1 for j in range(n)])
        rows = []
        for r in range(phi.coeffs.shape[len(lead) + i]):
            f = (r // 2 + 1) * np.pi / (phi.hi[i] - phi.lo[i])
            s, c = np.sin(f * t), np.cos(f * t)
            rows.append(tuple(mag(a) for a in ((s, c * f, -(s * (f * f))) if r % 2 == 0
                                                else (c, -(s * f), -(c * (f * f))))))
        parts.append(rows)
    pad = (1,) * n
    coeffs = mag(phi.coeffs)
    entries = np.argwhere(np.any(phi.coeffs != 0, axis=tuple(range(len(lead)))))

    def modes_sum(which, start=0.0):
        acc = start
        for r in entries:
            term = coeffs[(Ellipsis,) + tuple(r)].reshape(lead + pad)
            for i in range(n):
                term = term * parts[i][r[i]][which[i]]
            acc = acc + term
        return acc

    flat = np.ravel_multi_index(tuple((nodes - first).T), shape)

    def pick(a):
        a = np.broadcast_to(a, lead + shape)
        return a.reshape(a.shape[:a.ndim - n] + (-1,))[..., flat]

    value = pick(modes_sum([0] * n, mag(phi.consts.reshape(lead + pad))))
    gradient = np.stack([pick(modes_sum([int(i == j) for i in range(n)])) for j in range(n)], axis=1)
    if order < 2:
        return value, gradient, None
    hessian = np.empty((phi.N, n, n) + value.shape[1:])
    for j in range(n):
        for k in range(n):
            hessian[:, j, k] = pick(modes_sum([(i == j) + (i == k) for i in range(n)]))
    return value, gradient, hessian


def _node_jet_cases(seed):
    """(map, box, nodes) for n = 1..3, N = 1, 2: single maps of every sine family (phases,
    constants and factors included), a batch with per-map mode counts, constants and factors and a batch of
    drawn trials, each at the subdomain's nodes, at a scattered subset of the box's nodes and at one node."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        box = DomainBox((-1.0, 0.0, 0.5)[:n], (1.0, 1.5, 2.0)[:n], (13, 9, 7)[:n])
        O = Subdomain.from_box(box, (-0.5, 0.375, 0.75)[:n], (0.75, 1.5, 1.75)[:n])
        for N in (1, 2):
            xi = rng.normal(size=N)
            field = make_free_field(O, N, rng)[0]
            factors = rng.normal(size=N)  # constants and components times factors other than 1
            weighted = SineModeMap(field.lo, field.hi, field.coeffs * factors.reshape((N,) + (1,) * n),
                                   field.consts * factors)
            singles = [field, weighted, make_free_variation(O, N, rng)[0], make_rank_one_variation(O, xi, rng)[0]]
            maps = singles + [_mixed_batch(rng, O, N, 5),
                              variations._SineDraw(rng, "rank_one", O, 4, N, 1.0, xi).maps]
            every = box.all_nodes()
            scattered = every[rng.permutation(every.shape[0])[:max(2, every.shape[0] // 3)]]
            for phi in maps:
                for nodes in (O.evaluable_nodes(), scattered, every[rng.integers(every.shape[0])][None]):
                    yield phi, box, nodes


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_node_jets_match_the_per_mode_reference(seed, order):
    """The contracted node jets equal the former per-mode loop in shape, and in value to
    1e-14 times the summed magnitudes of the terms added into each entry, so that an entry
    that cancels to near zero is held to the rounding of its terms, not of the largest entry."""
    for phi, box, nodes in _node_jet_cases(seed):
        got = phi.node_jets(box, nodes, order=order)
        ref = _reference_node_jets(phi, box, nodes, order)
        bound = _reference_node_jets(phi, box, nodes, order, magnitude=True)
        assert np.array_equal(got.x, box.node_coords(nodes))
        for name, r, m in zip(("value", "gradient", "hessian"), ref, bound):
            if order < 2 and name == "hessian":
                assert got.hessian is None
                continue
            entry = getattr(got, name)
            assert entry.shape == r.shape and np.all(np.abs(entry - r) <= 1e-14 * m), (phi.n, phi.N, name)


def test_stacked_basis_scans_equal_the_per_field_loop():
    """stationarity_scans and measure_divergence_residual score a sine batch in one evaluation;
    every figure equals the per-field evaluation of the same basis, and a list of sine maps
    on two boxes is scored field by field."""
    from linfvar.energy import argmax_set, variation_density

    for case, inner in ((2, ((1.5, 1.5), (1.7, 1.7))), (3, ((-0.25, -0.25), (0.25, 0.25)))):
        u, H, O = _verdict_fixture(_VERDICT_CASES[case])
        two_boxes = list(make_test_basis(O, u.N, 4)) + list(make_test_basis(Subdomain.from_box(O.box, *inner), u.N, 3))
        aset = argmax_set(u, H, O, delta=1e9)  # every evaluable node, so g is compared everywhere
        for basis in (make_test_basis(O, u.N, 7), two_boxes):
            for psi, rep in zip(basis, stationarity_scans(u, H, O, basis, delta=1e9)):
                g = variation_density(u, H, psi, O, aset.nodes)
                assert (rep.max_val, rep.min_val) == (float(np.max(g)), float(np.min(g)))
                assert np.array_equal(rep.K, aset.nodes[np.abs(g) <= rep.tol_K])
            sigma = DiscreteMeasure.uniform(O)
            rep = measure_divergence_residual(u, H, O, sigma, basis, delta=1e9)
            nodes, weights = sigma.nodes, sigma.weights
            assert rep.per_psi == [float(np.dot(weights, variation_density(u, H, psi, O, nodes)))
                                   for psi in basis]


@pytest.mark.parametrize("scorer", ["stationarity_scans", "measure_divergence_residual"])
def test_a_single_sine_map_is_not_a_basis(scorer):
    """A single sine map has no batch axis: scoring it as a basis is a TypeError, not one
    "field" per node."""
    u, H, O = _verdict_fixture(_VERDICT_CASES[2])
    psi = make_free_field(O, u.N, np.random.default_rng(3))[0]
    with pytest.raises(TypeError, match="a single sine map has no entries"):
        if scorer == "stationarity_scans":
            stationarity_scans(u, H, O, psi, delta=1e9)
        else:
            measure_divergence_residual(u, H, O, DiscreteMeasure.uniform(O), psi, delta=1e9)


def test_map_jet_of_a_sine_map_names_the_node_path():
    """Sine maps are evaluated at grid nodes only: a point jet is a ValueError naming
    jets_at_nodes, directly and through a perturbed map."""
    u, H, O = _verdict_fixture(_VERDICT_CASES[2])
    phi = make_free_field(O, u.N, np.random.default_rng(4))[0]
    x = O.box.node_coords(O.evaluable_nodes()[:3])
    for call in (lambda: map_jet(phi, x), lambda: _PM(u, phi).jet2(x)):
        with pytest.raises(ValueError, match="SineModeMap is evaluated at grid nodes only; .*jets_at_nodes"):
            call()


def _drawn_spec(draw, t, O):
    """Trial t's spec, taken from the verdict's up-front draw and scaled through its parsed
    source so that sup |D phi| over the evaluable nodes of O is the amplitude."""
    raw = ClosedFormMap.from_expressions(variation_source(draw.spec(t, 1.0)), O.box.dim)
    jets = jets_at_nodes(raw, O.box, O.evaluable_nodes(), order=1)
    return draw.spec(t, variations._scale_for(jets.gradient, draw.amplitude))


def _reference_absolute(u, H, O, trials, amplitude, seed):
    """The per-trial loop: trial t's spec taken from the up-front draw, its variation parsed
    from its source and scored on its own."""
    rng = np.random.default_rng(seed)
    E0 = sup_energy(u, H, O)
    worst, witness = -np.inf, None
    draw = variations._SineDraw(rng, "free", O, trials, u.N, amplitude)
    for trial in range(trials):
        spec = _drawn_spec(draw, trial, O)
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
        draw = variations._SineDraw(rng, "rank_one", O, trials, u.N, amplitude, np.asarray(xi, dtype=float))
        specs += [_drawn_spec(draw, t, O) for t in range(trials)]
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


@pytest.mark.parametrize("case", [0, 1])
def test_one_dimensional_verdicts_do_not_depend_on_their_chunking(case, monkeypatch):
    """Every step of a sine batch's contraction is one matrix product per trial, of a shape set by
    the tables, so a trial's jets, and the verdict, are the same bits in a chunk of one trial as
    in one chunk of all, also for n = 1."""
    u, H, O = _verdict_fixture(_VERDICT_CASES[case])
    for seed in range(40):
        verdicts = []
        for batch_points in (1, 2 ** 15):
            monkeypatch.setattr(varcheck, "_BATCH_POINTS", batch_points)
            v = absolute_minimiser_test(u, H, O, trials=23, amplitude=0.7, seed=seed)
            r = rank_one_test(u, H, O, [np.ones(u.N)], trials=11, amplitude=0.7, seed=seed)
            verdicts.append((v.worst_violation, v.witness, r.worst_violation, r.witness))
        assert verdicts[0] == verdicts[1], seed


def test_a_negative_trial_count_is_refused_by_every_verdict():
    """trials < 0 is a ValueError naming ``trials``, not a non-vacuous pass with worst violation
    -inf, a rank-one verdict over its bumps alone or a vacuous normal verdict."""
    u, H, O = _verdict_fixture(_VERDICT_CASES[2])
    _, graph, H_graph, O_graph = list(_normal_fixtures())[-1]
    for verdict in (lambda: absolute_minimiser_test(u, H, O, trials=-3, seed=1),
                    lambda: rank_one_test(u, H, O, [[1.0]], trials=-3, seed=1),
                    lambda: normal_variation_test(graph, H_graph, O_graph, trials=-3, seed=1)):
        with pytest.raises(ValueError, match="^trials must be non-negative, got -3$"):
            verdict()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), T=st.integers(0, 40), N=st.integers(1, 3), n=st.integers(1, 3),
       kind=st.sampled_from(["free", "rank_one", "free_field"]))
def test_the_up_front_draw_keeps_the_families_distributions(seed, T, N, n, kind):
    """Per map and component 1 to 5 modes fill the first slots, with |c| in [0.1, 1] and wave
    numbers in 1..4; the unused slots are zero modes (coefficient 0, k = 1, no phase).  Only free
    fields carry phases, in [0.2, 2.9], and constants, in [-1, 1]."""
    box = DomainBox((0.0,) * n, (1.0,) * n, (5,) * n)
    draw = variations._SineDraw(np.random.default_rng(seed), kind, Subdomain.whole(box), T, N, 0.5,
                                np.ones(N) if kind == "rank_one" else None)
    components = 1 if kind == "rank_one" else N
    assert draw.coeffs.shape == (T, components, 5) and draw.ks.shape == draw.phases.shape == (T, components, 5, n)
    used = draw.coeffs != 0
    counts = used.sum(axis=-1)
    assert np.all((counts >= 1) & (counts <= 5))
    assert np.array_equal(used, np.arange(5) < counts[..., None])
    assert np.all((np.abs(draw.coeffs[used]) >= 0.1) & (np.abs(draw.coeffs[used]) <= 1.0))
    assert np.all((draw.ks[used] >= 1) & (draw.ks[used] <= 4))
    assert np.all(draw.ks[~used] == 1) and not draw.phases[~used].any()
    assert draw.constants.shape == (N, T)
    if kind == "free_field":
        assert np.all((draw.phases[used] >= 0.2) & (draw.phases[used] <= 2.9))
        assert np.all(np.abs(draw.constants) <= 1.0)
    else:
        assert not draw.phases.any() and not draw.constants.any()
    assert len(draw.maps) == T and draw.maps.N == N


@pytest.mark.parametrize("shift", [0, 16, 32])
def test_the_closed_form_verdicts_pass_on_the_aronsson_solution(shift, aronsson_map):
    """The Aronsson solution is an absolute minimiser of H = |P|^2: on the 81^2 grid of
    [1, 2.25]^2 the 200-trial absolute verdict and the 100-trial rank-one verdict pass, not
    vacuously, on the subdomain [1.25 + kh, 1.75 + kh]^2 at seeds 1-20."""
    box = DomainBox((1.0, 1.0), (2.25, 2.25), (81, 81))
    lo, hi = 1.25 + shift * 1.25 / 80, 1.75 + shift * 1.25 / 80
    O = Subdomain.from_box(box, (lo, lo), (hi, hi))
    H = Hamiltonian.from_expression("P11^2 + P12^2", 2, 1)
    for seed in range(1, 21):
        for v in (absolute_minimiser_test(aronsson_map, H, O, trials=200, seed=seed),
                  rank_one_test(aronsson_map, H, O, [[1.0]], trials=100, seed=seed)):
            assert v.passed and not v.vacuous, (seed, v.worst_violation)


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
    """Ball subdomains use the polynomial families; their witnesses carry a source too.  So
    does a box's rank-one bump, the witness of a verdict without random trials."""
    box = DomainBox((-1.0, -1.0), (1.0, 1.0), (21, 21))
    O = Subdomain.from_ball(box, (0.0, 0.0), 0.6)
    u = ClosedFormMap.from_expressions(["x1^2 + x2"], 2)
    H = Hamiltonian.dirichlet(2, 1)
    for v in (absolute_minimiser_test(u, H, O, trials=5, seed=1),
              rank_one_test(u, H, O, [[1.0]], trials=3, seed=1)):
        assert v.witness["kind"] in ("free_ball", "rank_one")
        parsed = ClosedFormMap.from_expressions(v.witness["source"], 2)
        assert sup_energy(_PM(u, parsed, 1.0), H, O) == v.witness["energy_perturbed"]
    O = Subdomain.from_box(box, (-0.5, -0.3), (0.7, 0.4))
    v = rank_one_test(u, H, O, [[1.0]], trials=0, seed=1)
    assert v.witness["profile"] == "box_bump"
    parsed = ClosedFormMap.from_expressions(v.witness["source"], 2)
    assert sup_energy(_PM(u, parsed, 1.0), H, O) == v.witness["energy_perturbed"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_polynomial_source_has_its_factors_times_the_profile_jets(n):
    """A ball's free variation and rank-one sphere and a box's rank-one bump are factors times one
    profile: the parse of each one's source, c * (prof) per component, has c times the profile's
    jets, bit for bit, in any dimension (without the parentheses the box bump has them for n = 1)."""
    box = DomainBox((-1.0,) * n, (1.0,) * n, (21, 11, 7)[:n])
    ball = Subdomain.from_ball(box, (0.1, 0.0, -0.2)[:n], 0.6)
    square = Subdomain.from_box(box, (-0.5, -0.3, -0.2)[:n], (0.7, 0.4, 0.9)[:n])
    rng = np.random.default_rng(3 + n)
    for O, (phi, spec) in ((ball, make_free_variation(ball, 3, rng, 0.7)),
                           (ball, make_rank_one_variation(ball, [2.0, -1.0], rng, 0.7)),
                           (square, make_rank_one_variation(square, [-2.0, 0.5], rng, 0.7, deterministic=True))):
        profile = variations._Profile(O, spec["kind"], None, 0.7).maps
        nodes = box.all_nodes()
        got, ref = jets_at_nodes(phi, box, nodes, order=1), jets_at_nodes(profile, box, nodes, order=1)
        c = np.asarray(spec["coeffs"] if spec["kind"] == "free_ball" else spec["xi"]) * spec["scale"]
        assert np.array_equal(got.value, c[:, None] * ref.value), (spec["kind"], n)
        assert np.array_equal(got.gradient, c[:, None, None] * ref.gradient), (spec["kind"], n)


def _counting(monkeypatch, owner, name):
    """The calls of ``owner.name`` from now on, as a list that grows by one per call."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_verdict_parses_its_polynomial_profile_once(monkeypatch):
    """The polynomial families are factors times one profile, parsed once per family: once per
    direction for a box's rank-one bumps, and once for 7 trials on a ball (at the parent the
    bump was parsed twice per direction and each ball trial twice)."""
    box = DomainBox((-1.0, -1.0), (1.0, 1.0), (21, 21))
    u = ClosedFormMap.from_expressions(["x1^2 + x2"], 2)
    H = Hamiltonian.dirichlet(2, 1)
    square, ball = Subdomain.from_box(box, (-0.5, -0.3), (0.7, 0.4)), Subdomain.from_ball(box, (0.0, 0.0), 0.6)
    calls = _counting(monkeypatch, ClosedFormMap, "from_expressions")
    assert rank_one_test(u, H, square, [[1.0], [2.0]], trials=0, seed=1).trials == 2
    assert len(calls) == 2
    calls.clear()
    assert absolute_minimiser_test(u, H, ball, trials=7, seed=1).trials == 7
    assert len(calls) == 1


def test_a_normal_verdict_takes_each_chunks_sine_jets_once(monkeypatch):
    """One node-jet call per chunk, at the projector nodes, gives both the scales and the values
    (at the parent a chunk took them twice, at the subdomain's nodes for the scales)."""
    _, u, H, O = list(_normal_fixtures())[-1]
    chunk = varcheck._BATCH_POINTS // O.box.all_nodes().shape[0]
    calls = _counting(monkeypatch, SineModeMap, "node_jets")
    for trials, chunks in ((6, 1), (2 * chunk + 3, 3)):
        calls.clear()
        normal_variation_test(u, H, O, trials=trials, amplitude=0.5, seed=2)
        assert len(calls) == chunks, trials


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


def _reference_normal(u, H, O, trials, amplitude, seed):
    """The per-trial loop: each field built from its trial of the up-front draw as a map of its
    own (its modes' jets at the projector nodes times the scale that their gradients at the
    nodes in O, which are O's evaluable nodes, give, plus its constants), its spec checked
    against its parsed source, the field projected and checked on its own, differentiated as a
    grid map of its own and scored alone."""
    rng = np.random.default_rng(seed)
    probe = varcheck._Probe(u, H, O)
    tol = varcheck._default_tol(probe.E0)
    nodes, hp, projectors = varcheck._normal_projector_field(u, H, O, None, None)
    box = O.box
    if float(np.max(np.abs(projectors))) < 1e-13:
        return varcheck.Verdict(True, 0.0, None, 0, vacuous=True)
    hp_inf = float(np.max(np.linalg.norm(hp, axis=(0, 1))))
    worst = -np.inf
    witness = None
    admissible = 0
    draw = variations._SineDraw(rng, "free_field", O, trials, u.N, amplitude)
    inside = O.mask[tuple(nodes.T)]
    assert np.array_equal(nodes[inside], O.evaluable_nodes())
    for trial in range(trials):
        modes = jets_at_nodes(draw.maps[trial], box, nodes, order=1)
        scale = variations._scale_for(modes.gradient[..., inside], amplitude)
        spec = draw.spec(trial, scale)
        psi_vals = modes.value * scale + amplitude * draw.constants[:, trial, None]  # (N, M)
        parsed = ClosedFormMap.from_expressions(variation_source(spec), box.dim)
        assert _close(psi_vals, parsed.jet2(box.node_coords(nodes), order=1).value, 1e-13)
        phi_vals = np.einsum("mab,bm->am", projectors, psi_vals)
        phi_inf = float(np.max(np.abs(phi_vals))) if phi_vals.size else 0.0
        if phi_inf < 1e-14 * max(1.0, float(np.max(np.abs(psi_vals)))):
            continue
        values = np.full((u.N,) + box.shape, np.nan)
        values[(slice(None),) + tuple(nodes.T)] = phi_vals
        phi = GridMap(box, values)
        align = np.einsum("am,aim->im", phi_vals, hp)
        tol_normal = 1e-6 * hp_inf * max(phi_inf, 1e-300)
        if float(np.max(np.linalg.norm(align, axis=0))) > tol_normal:
            continue
        admissible += 1
        E1 = float(probe.energies(probe.jets(phi))[0])
        violation = probe.E0 - E1
        if violation > worst:
            worst = violation
            witness = dict(spec, trial=trial, energy_base=probe.E0, energy_perturbed=E1)
    if admissible == 0:
        return varcheck.Verdict(True, 0.0, None, 0, vacuous=True)
    return varcheck.Verdict(bool(worst <= tol), float(worst), witness, admissible)


def _normal_fixtures():
    """(name, u, H, O): a constant normal frame sampled on a grid with masked nodes, the
    rotating frame on a grid, and the graph map (x, 0) in closed form."""
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (17, 17))
    for name, exprs in (("masked", ["sin(-0.4*x1 + 1.2*x2 + 5.5)", "0.5*sin(-0.4*x1 + 1.2*x2 + 5.5)"]),
                        ("rotating", ["sin(1.3*x1 - 0.9*x2 + 0.4)", "cos(1.3*x1 - 0.9*x2 + 0.4)"])):
        values = ClosedFormMap.from_expressions(exprs, 2).sample(box).values.copy()
        for node in ((5, 9), (9, 4), (11, 11)) if name == "masked" else ():
            values[(slice(None),) + node] = np.nan
        u = GridMap(box, values)
        yield name, u, Hamiltonian.dirichlet(2, 2), Subdomain.whole(box, singular=~u.jet_valid)
    box = DomainBox((0.0,), (1.0,), (33,))
    yield "graph", ClosedFormMap.from_expressions(["x1", "0.0"], n=1), Hamiltonian.dirichlet(1, 2), Subdomain.whole(box)


def _assert_same_verdict(got, ref):
    assert (got.passed, got.worst_violation, got.trials, got.vacuous) == (
        ref.passed, ref.worst_violation, ref.trials, ref.vacuous)
    assert got.witness == ref.witness
    assert list(got.witness or ()) == list(ref.witness or ())  # the report's key order too


@pytest.mark.parametrize("seed", range(6))
def test_batched_normal_verdict_equals_the_per_trial_loop(seed):
    """The chunked verdict gives bit for bit the pass, worst violation, admissible count,
    vacuous flag and witness of the per-trial loop, also over more draws than one chunk."""
    for name, u, H, O in _normal_fixtures():
        chunk = varcheck._BATCH_POINTS // O.box.all_nodes().shape[0]
        for trials in (1, 6, 2 * chunk + 3):
            got = normal_variation_test(u, H, O, trials=trials, amplitude=0.5, seed=seed)
            ref = _reference_normal(u, H, O, trials, 0.5, seed)
            _assert_same_verdict(got, ref)
            assert got.vacuous == (name == "rotating"), name


def test_a_normal_verdict_with_every_draw_rejected_is_vacuous(monkeypatch):
    """When H_P has a part along the projected directions, every draw fails the alignment
    test: the verdict is the loop's vacuous pass with no witness."""
    projector_field = varcheck._normal_projector_field

    def skewed(u, H, O, eps, tol_angle):
        nodes, hp, projectors = projector_field(u, H, O, eps, tol_angle)
        along = np.einsum("mab,b->am", projectors, np.ones(u.N))
        return nodes, hp + along[:, None, :], projectors

    monkeypatch.setattr(varcheck, "_normal_projector_field", skewed)
    _, u, H, O = list(_normal_fixtures())[-1]
    got = normal_variation_test(u, H, O, trials=8, amplitude=0.5, seed=1)
    _assert_same_verdict(got, _reference_normal(u, H, O, 8, 0.5, 1))
    assert got.vacuous and got.trials == 0 and got.witness is None


def test_the_draws_of_a_chunk_are_differentiated_once(monkeypatch):
    """A chunk's admissible fields are one grid map: two draws and six take the same number
    of finite-difference passes."""
    from linfvar import problem

    calls = []
    axis_derivative = problem.axis_derivative

    def counting(*args, **kwargs):
        calls.append(1)
        return axis_derivative(*args, **kwargs)

    monkeypatch.setattr(problem, "axis_derivative", counting)
    _, u, H, O = list(_normal_fixtures())[-1]
    counts = []
    for trials in (2, 6):
        calls.clear()
        v = normal_variation_test(u, H, O, trials=trials, amplitude=0.5, seed=2)
        assert v.trials == trials and trials <= varcheck._BATCH_POINTS // O.box.all_nodes().shape[0]
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_a_normal_chunk_is_bounded_by_the_box(monkeypatch):
    """A chunk's projected fields are one grid map over the whole box, so the box's node count,
    not the subdomain's, bounds how many fields a chunk holds."""
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (65, 65))
    O = Subdomain.from_box(box, (0.5, 0.5), (0.5625, 0.5625))  # 5 x 5 nodes
    u = ClosedFormMap.from_expressions(["sin(x1+x2)", "0.5 * sin(x1+x2)"], n=2)
    sizes = []

    class Recording(GridMap):
        def __init__(self, box, values):
            sizes.append(values.shape[0] // u.N)
            super().__init__(box, values)

    monkeypatch.setattr(varcheck, "GridMap", Recording)
    v = normal_variation_test(u, Hamiltonian.dirichlet(2, 2), O, trials=3, seed=1)
    assert v.trials == 3 and sizes == [1, 1, 1]


def test_a_normal_verdict_on_a_combined_map_reads_the_subdomain_mask():
    # a combination u + 0 phi is scanned outside the subdomain as its parts are, a node having a
    # jet where both parts have one, so it gives u's verdict; the second u has its kink x1 = 1/8
    # outside the subdomain
    box = DomainBox((0.0,), (1.0,), (33,))
    phi = ClosedFormMap.from_expressions(["0.0", "x1*(1-x1)"], 1)
    H, O = Hamiltonian.dirichlet(1, 2), Subdomain.from_box(box, (0.25,), (0.75,))
    for exprs in (["x1", "0.0"], ["abs(x1 - 0.125)^(4/3) + x1", "0.0"]):
        u = ClosedFormMap.from_expressions(exprs, 1)
        assert normal_variation_test(PerturbedMap(u, phi, 0.0), H, O, trials=4, seed=2) \
            == normal_variation_test(u, H, O, trials=4, seed=2)


def test_a_grid_map_keeps_its_declared_line_out_of_the_normal_projector(tmp_path):
    # the normal projector and the test fields live where the problem declares nothing singular
    # and u has a jet, for a grid map as for a closed-form one: the line x1 = 0.5 (node row 16)
    # is left out as the masked node is
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (33, 33))
    values = ClosedFormMap.from_expressions(["sin(2*x1 + x2)", "1.5*sin(2*x1 + x2)"], 2).sample(box).values
    values[:, 8, 20] = np.nan
    write_grid_csv(tmp_path / "u.csv", GridMap(box, values))
    spec = {"n": 2, "N": 2, "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "resolution": [33, 33]},
            "H": "dirichlet", "u": {"grid": "u.csv"}, "singular": [{"axis": 0, "value": 0.5}]}
    (tmp_path / "u.json").write_text(json.dumps(spec))
    prob = load_problem(tmp_path / "u.json")
    nodes, _, _ = varcheck._normal_projector_field(prob.u, prob.H, prob.subdomain, None, None)
    assert prob.subdomain.singular[16].all() and prob.u.jet_valid[16].all()
    assert np.array_equal(nodes, np.argwhere(~prob.subdomain.singular))
    out = tmp_path / "out"
    assert run(["verify-normal", "--problem", str(tmp_path / "u.json"), "--seed", "1", "--out", str(out)]) == 0
    assert json.loads((out / "verify-normal_report.json").read_text())["pass"] is True
