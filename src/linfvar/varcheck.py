"""Sampling-based verdicts for the minimality notions and their stationarity chain.

Minimality verdicts are one-sided: a FAIL is certified by an explicit
witness variation (re-evaluable from its serialised parameters), while a
PASS is sampling evidence only, never a proof.  Variation families:

* ``free``      smooth fields vanishing on the subdomain boundary,
* ``rank_one``  scalar profile times a fixed direction, vanishing on the boundary,
* ``normal``    pointwise projections onto the reduced normal space of
                H_P(., u, Du), free on the boundary,
* ``sphere``    the deterministic family xi * (|y - x|^2 - rho^2) on balls.

Random variations are sums of at most five separable sine modes with
coefficients scaled so that the sup norm of the variation gradient matches
the requested amplitude; everything is seeded and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .energy import argmax_set, danskin_derivative, sup_energy, variation_density
from .operators import _reduced_projections
from .problem import (
    ClosedFormMap,
    DomainBox,
    GridMap,
    Hamiltonian,
    PerturbedMap,
    Subdomain,
    hamiltonian_jet,
    jets_at_nodes,
)

__all__ = [
    "DiscreteMeasure",
    "MeasureReport",
    "StationarityReport",
    "SupportViolationError",
    "Verdict",
    "absolute_minimiser_test",
    "make_free_variation",
    "make_rank_one_variation",
    "make_sphere_variation",
    "make_test_basis",
    "measure_divergence_residual",
    "normal_variation_test",
    "rank_one_test",
    "sphere_family_scan",
    "stationarity_scan",
]


def _f(x) -> str:
    """Render a number as a parseable literal (plain Python float repr)."""
    return repr(float(x))


class SupportViolationError(ValueError):
    """A measure charges nodes outside the argmax set."""


@dataclass
class Verdict:
    passed: bool
    worst_violation: float
    witness: Optional[dict]
    trials: int
    vacuous: bool = False


# ---------------------------------------------------------------------------
# Variation construction


def _region_box(O: Subdomain):
    if O.region[0] == "box":
        return np.asarray(O.region[1]), np.asarray(O.region[2])
    if O.region[0] == "all":
        return np.asarray(O.box.lo), np.asarray(O.box.hi)
    return None


def _sine_profile_source(lo, hi, modes) -> str:
    """Sum of separable sine modes vanishing on the box boundary."""
    terms = []
    for coeff, ks, phases in modes:
        factors = []
        for i, (k, ph) in enumerate(zip(ks, phases)):
            freq = k * math.pi / (hi[i] - lo[i])
            arg = f"{_f(freq)} * (x{i+1} - {_f(lo[i])})"
            if ph:
                arg += f" + {_f(ph)}"
            factors.append(f"sin({arg})")
        terms.append(f"{_f(coeff)} * " + " * ".join(factors))
    return " + ".join(terms) if terms else "0.0"


def _draw_modes(rng, n, max_modes, with_phase):
    count = int(rng.integers(1, max_modes + 1))
    modes = []
    for _ in range(count):
        coeff = float(rng.uniform(-1.0, 1.0))
        if abs(coeff) < 0.1:
            coeff = 0.1 if coeff >= 0 else -0.1
        ks = [int(rng.integers(1, 5)) for _ in range(n)]
        phases = [float(rng.uniform(0.2, 2.9)) if with_phase else 0.0 for _ in range(n)]
        modes.append((coeff, ks, phases))
    return modes


def _grad_sup(phi, O: Subdomain) -> float:
    nodes = O.evaluable_nodes()
    jets = jets_at_nodes(phi, O.box, nodes, order=1)
    return float(np.max(np.linalg.norm(jets.gradient, axis=(0, 1))))


def _scaled_map(builder, spec, O: Subdomain, amplitude: float):
    """Scale mode coefficients so that sup |D phi| over the nodes matches amplitude."""
    phi = builder(1.0)
    raw = _grad_sup(phi, O)
    scale = 0.0 if raw == 0.0 else amplitude / raw
    spec = dict(spec, scale=scale, amplitude=amplitude)
    return builder(scale), spec


def make_free_variation(O: Subdomain, N: int, rng, amplitude: float = 1.0,
                        max_modes: int = 5):
    """Random smooth variation vanishing on the subdomain boundary."""
    n = O.box.dim
    box = _region_box(O)
    if box is None:
        return _ball_variation(O, N, rng, amplitude)
    lo, hi = box
    comp_modes = [_draw_modes(rng, n, max_modes, with_phase=False) for _ in range(N)]

    def build(scale):
        sources = []
        for modes in comp_modes:
            scaled = [(c * scale, ks, ph) for c, ks, ph in modes]
            sources.append(_sine_profile_source(lo, hi, scaled))
        return ClosedFormMap.from_expressions(sources, n)

    spec = {"kind": "free", "modes": comp_modes, "lo": lo.tolist(), "hi": hi.tolist()}
    return _scaled_map(build, spec, O, amplitude)


def _ball_variation(O: Subdomain, N: int, rng, amplitude: float):
    center = np.asarray(O.region[1])
    rho = O.region[2]
    n = O.box.dim
    coeffs = [float(rng.uniform(-1.0, 1.0)) for _ in range(N)]
    sq = " - ".join(f"(x{i+1} - {_f(center[i])})^2" for i in range(n))

    def build(scale):
        sources = [f"{_f(c * scale)} * ({_f(rho**2)} - {sq})" for c in coeffs]
        return ClosedFormMap.from_expressions(sources, n)

    spec = {"kind": "free_ball", "coeffs": coeffs, "center": center.tolist(), "radius": rho}
    return _scaled_map(build, spec, O, amplitude)


def make_rank_one_variation(O: Subdomain, xi: np.ndarray, rng, amplitude: float = 1.0,
                            max_modes: int = 5, deterministic: bool = False):
    """Scalar profile times the direction xi, profile vanishing on the boundary."""
    xi = np.asarray(xi, dtype=float)
    if np.linalg.norm(xi) == 0.0:
        raise ValueError("rank-one direction must be nonzero")
    n = O.box.dim
    N = xi.shape[0]
    box = _region_box(O)
    if box is not None:
        lo, hi = box
        if deterministic:
            # polynomial box bump prod (x-lo)(hi-x), the sphere profile's box analogue
            prof = " * ".join(f"((x{i+1} - {_f(lo[i])}) * ({_f(hi[i])} - x{i+1}))" for i in range(n))
            spec = {"kind": "rank_one", "profile": "box_bump", "xi": xi.tolist()}

            def build(scale):
                return ClosedFormMap.from_expressions(
                    [f"{_f(xi[a] * scale)} * {prof}" for a in range(N)], n)
        else:
            modes = _draw_modes(rng, n, max_modes, with_phase=False)
            spec = {"kind": "rank_one", "profile": "sine", "modes": modes, "xi": xi.tolist()}

            def build(scale):
                scaled = [(c * scale, ks, ph) for c, ks, ph in modes]
                g = _sine_profile_source(lo, hi, scaled)
                return ClosedFormMap.from_expressions(
                    [f"{_f(xi[a])} * ({g})" for a in range(N)], n)
    else:
        center = np.asarray(O.region[1])
        rho = O.region[2]
        sq = " - ".join(f"(x{i+1} - {_f(center[i])})^2" for i in range(n))
        spec = {"kind": "rank_one", "profile": "sphere", "xi": xi.tolist(),
                "center": center.tolist(), "radius": rho}

        def build(scale):
            return ClosedFormMap.from_expressions(
                [f"{_f(xi[a] * scale)} * ({_f(rho**2)} - {sq})" for a in range(N)], n)

    return _scaled_map(build, spec, O, amplitude)


def make_sphere_variation(xi: np.ndarray, center: np.ndarray, radius: float, n: int) -> ClosedFormMap:
    """The deterministic variation xi * (|y - center|^2 - radius^2)."""
    xi = np.asarray(xi, dtype=float)
    center = np.asarray(center, dtype=float)
    sq = " + ".join(f"(x{i+1} - {_f(center[i])})^2" for i in range(n))
    sources = [f"{_f(c)} * ({sq} - {_f(radius**2)})" for c in xi]
    return ClosedFormMap.from_expressions(sources, n)


def make_free_field(O: Subdomain, N: int, rng, amplitude: float = 1.0, max_modes: int = 5):
    """Random smooth field with no boundary condition (for normal variations).

    Includes a constant term per component: fields free on the boundary may
    shift the map values outright, which matters for value-dependent
    densities.
    """
    n = O.box.dim
    box = _region_box(O)
    lo, hi = (np.asarray(O.box.lo), np.asarray(O.box.hi)) if box is None else box
    comp_modes = [_draw_modes(rng, n, max_modes, with_phase=True) for _ in range(N)]
    comp_const = [float(rng.uniform(-1.0, 1.0)) for _ in range(N)]

    def build(scale):
        sources = []
        for modes, const in zip(comp_modes, comp_const):
            scaled = [(c * scale, ks, ph) for c, ks, ph in modes]
            # the constant carries no gradient, so it scales with the raw
            # amplitude rather than the gradient-normalising factor
            sources.append(f"{_f(const * amplitude)} + " + _sine_profile_source(lo, hi, scaled))
        return ClosedFormMap.from_expressions(sources, n)

    spec = {"kind": "free_field", "modes": comp_modes, "constants": comp_const}
    return _scaled_map(build, spec, O, amplitude)


def make_test_basis(O: Subdomain, N: int, size: int):
    """Deterministic boundary-vanishing test basis: single sine modes per component.

    Mode k of component a is sin(k pi (x - lo)/L) along the first axis
    (times first-mode sines along the remaining axes in higher dimension).
    """
    box = _region_box(O)
    if box is None:
        raise ValueError("test basis needs a box-shaped subdomain")
    lo, hi = box
    n = O.box.dim
    basis = []
    k = 1
    a = 0
    while len(basis) < size:
        modes = [(1.0, [k] + [1] * (n - 1), [0.0] * n)]
        src = _sine_profile_source(lo, hi, modes)
        sources = ["0.0"] * N
        sources[a] = src
        basis.append(ClosedFormMap.from_expressions(sources, n))
        a += 1
        if a == N:
            a = 0
            k += 1
    return basis


# ---------------------------------------------------------------------------
# Minimality verdicts


def _default_tol(E0: float) -> float:
    return 1e-9 * (1.0 + abs(E0))


def absolute_minimiser_test(
    u,
    H: Hamiltonian,
    O: Subdomain,
    trials: int = 20,
    amplitude: float = 1.0,
    tol: Optional[float] = None,
    seed: int = 0,
) -> Verdict:
    """Probe E_inf(u + phi, O) >= E_inf(u, O) over random boundary-vanishing variations.

    A FAIL is certified by the witness variation; a PASS is evidence only.
    """
    rng = np.random.default_rng(seed)
    E0 = sup_energy(u, H, O)
    if tol is None:
        tol = _default_tol(E0)
    worst = -np.inf
    witness = None
    for trial in range(trials):
        phi, spec = make_free_variation(O, u.N, rng, amplitude)
        E1 = sup_energy(PerturbedMap(u, phi, 1.0), H, O)
        violation = E0 - E1
        if violation > worst:
            worst = violation
            witness = dict(spec, trial=trial, energy_base=E0, energy_perturbed=E1)
    if trials == 0 or amplitude == 0.0:
        return Verdict(True, 0.0, None, trials, vacuous=False)
    return Verdict(bool(worst <= tol), float(worst), witness, trials)


def rank_one_test(
    u,
    H: Hamiltonian,
    O: Subdomain,
    directions: Sequence,
    trials: int = 10,
    amplitude: float = 1.0,
    tol: Optional[float] = None,
    seed: int = 0,
) -> Verdict:
    """Minimality against scalar-profile variations along each fixed direction.

    Each direction gets ``trials`` random profiles plus one deterministic
    bump (the sphere profile on balls, its polynomial analogue on boxes).
    """
    rng = np.random.default_rng(seed)
    E0 = sup_energy(u, H, O)
    if tol is None:
        tol = _default_tol(E0)
    worst = -np.inf
    witness = None
    total = 0
    for xi in directions:
        xi = np.asarray(xi, dtype=float)
        if np.linalg.norm(xi) == 0.0:
            raise ValueError("rank-one direction must be nonzero")
        variations = [make_rank_one_variation(O, xi, rng, amplitude, deterministic=True)]
        variations += [make_rank_one_variation(O, xi, rng, amplitude) for _ in range(trials)]
        for phi, spec in variations:
            E1 = sup_energy(PerturbedMap(u, phi, 1.0), H, O)
            violation = E0 - E1
            total += 1
            if violation > worst:
                worst = violation
                witness = dict(spec, energy_base=E0, energy_perturbed=E1)
    return Verdict(bool(worst <= tol), float(worst), witness, total)


def _normal_projector_field(u, H: Hamiltonian, O: Subdomain, eps, samples, tol_angle):
    """Reduced normal projector of H_P(., u, Du) at every evaluable box node."""
    box = O.box
    all_nodes = box.all_nodes()
    if isinstance(u, GridMap):
        ok = u.jet_valid[tuple(all_nodes.T)]
    else:
        ok = ~O.singular[tuple(all_nodes.T)]
    nodes = all_nodes[ok]
    jets = jets_at_nodes(u, box, nodes, order=1)
    hp = hamiltonian_jet(H, jets.x, jets.value, jets.gradient).P_grad  # (N, n, M)
    N = u.N
    M = nodes.shape[0]
    projectors = np.zeros((M, N, N))
    if eps is None:
        eps = 2.0 * float(np.max(box.spacing))
    hp_batch = np.moveaxis(hp, -1, 0)
    _, ranks, _ = linalg.rank_decision(hp_batch)
    sel = np.flatnonzero(ranks < N)
    if sel.size:
        projectors[sel] = _reduced_projections(
            u, H, jets.x[:, sel], nodes[sel], hp_batch[sel], eps, samples,
            linalg.DEFAULT_RANK_TOL, tol_angle).projection
    return nodes, projectors


def normal_variation_test(
    u,
    H: Hamiltonian,
    O: Subdomain,
    trials: int = 10,
    amplitude: float = 0.5,
    tol: Optional[float] = None,
    seed: int = 0,
    eps: Optional[float] = None,
    samples: Optional[int] = None,
    tol_angle: Optional[float] = None,
) -> Verdict:
    """Minimality against variations pointwise normal to the range of H_P(., u, Du).

    Random smooth fields are projected node-by-node onto the reduced normal
    space; candidates whose residual alignment with H_P exceeds
    tol_normal = 1e-6 ||H_P||_inf ||phi||_inf are rejected.  Normal
    variations are free on the boundary.  When no nonzero admissible
    variation exists (e.g. full-rank H_P) the verdict is a vacuous pass
    with the flag set.
    """
    rng = np.random.default_rng(seed)
    E0 = sup_energy(u, H, O)
    if tol is None:
        tol = _default_tol(E0)
    nodes, projectors = _normal_projector_field(u, H, O, eps, samples, tol_angle)
    box = O.box
    if float(np.max(np.abs(projectors))) < 1e-13:
        return Verdict(True, 0.0, None, 0, vacuous=True)
    jets = jets_at_nodes(u, box, nodes, order=1)
    hp = hamiltonian_jet(H, jets.x, jets.value, jets.gradient).P_grad
    hp_inf = float(np.max(np.linalg.norm(hp, axis=(0, 1))))
    worst = -np.inf
    witness = None
    admissible = 0
    for trial in range(trials):
        psi, spec = make_free_field(O, u.N, rng, amplitude)
        psi_vals = jets_at_nodes(psi, box, nodes, order=1).value  # (N, M)
        phi_vals = np.einsum("mab,bm->am", projectors, psi_vals)
        phi_inf = float(np.max(np.abs(phi_vals))) if phi_vals.size else 0.0
        if phi_inf < 1e-14 * max(1.0, float(np.max(np.abs(psi_vals)))):
            continue
        values = np.full((u.N,) + box.shape, np.nan)
        values[(slice(None),) + tuple(nodes.T)] = phi_vals
        phi = GridMap(box, values)
        # reject candidates that are not numerically normal
        align = np.einsum("am,aim->im", phi_vals, hp)
        tol_normal = 1e-6 * hp_inf * max(phi_inf, 1e-300)
        if float(np.max(np.linalg.norm(align, axis=0))) > tol_normal:
            continue
        admissible += 1
        E1 = sup_energy(PerturbedMap(u, phi, 1.0), H, O)
        violation = E0 - E1
        if violation > worst:
            worst = violation
            witness = dict(spec, trial=trial, energy_base=E0, energy_perturbed=E1)
    if admissible == 0:
        return Verdict(True, 0.0, None, 0, vacuous=True)
    return Verdict(bool(worst <= tol), float(worst), witness, admissible)


def sphere_family_scan(u, H: Hamiltonian, box: DomainBox, center, radii, directions):
    """One-sided derivative brackets for the sphere variations on shrinking balls."""
    center = np.asarray(center, dtype=float)
    out = []
    for rho in radii:
        O = Subdomain.from_ball(box, center, rho)
        for xi in directions:
            phi = make_sphere_variation(np.asarray(xi, dtype=float), center, rho, box.dim)
            plus = danskin_derivative(u, H, phi, O, "plus")
            minus = danskin_derivative(u, H, phi, O, "minus")
            out.append({"rho": float(rho), "xi": list(np.asarray(xi, dtype=float)),
                        "plus": plus, "minus": minus})
    return out


# ---------------------------------------------------------------------------
# Stationarity chain and the measure-divergence identity


@dataclass
class StationarityReport:
    max_val: float
    min_val: float
    K: np.ndarray               # nodes where |g| <= tol_K
    argmax_nodes: np.ndarray
    tol_K: float
    statement_ii: bool          # max over the argmax set >= -tol
    statement_iii: bool         # K nonempty
    k_fraction: float           # |K| / |argmax| (exact set equality is not grid-decidable)


def stationarity_scan(
    u,
    H: Hamiltonian,
    O: Subdomain,
    psi,
    delta: Optional[float] = None,
    tol: Optional[float] = None,
    tol_K: Optional[float] = None,
) -> StationarityReport:
    """Evaluate g = H_P : Dpsi + H_eta . psi on the argmax set of the density.

    Returns its extremes (identical, by construction, to the one-sided
    Danskin derivatives for the same psi), and the near-zero set K.
    """
    aset = argmax_set(u, H, O, delta)
    g = variation_density(u, H, psi, O, aset.nodes)
    max_val = float(np.max(g))
    min_val = float(np.min(g))
    scale = float(np.max(np.abs(g))) if g.size else 0.0
    if tol is None:
        tol = 1e-8 * (1.0 + scale)
    if tol_K is None:
        tol_K = 1e-6 * (1.0 + scale)
    K = aset.nodes[np.abs(g) <= tol_K]
    return StationarityReport(
        max_val=max_val,
        min_val=min_val,
        K=K,
        argmax_nodes=aset.nodes,
        tol_K=float(tol_K),
        statement_ii=bool(max_val >= -tol),
        statement_iii=bool(K.shape[0] > 0),
        k_fraction=float(K.shape[0] / aset.nodes.shape[0]),
    )


@dataclass
class DiscreteMeasure:
    """Finitely supported probability measure on grid nodes of the closed subdomain."""

    atoms: list  # [(node multi-index tuple, weight)], weights sum to 1

    def __post_init__(self):
        total = sum(w for _, w in self.atoms)
        if total <= 0:
            raise ValueError("measure must have positive total mass")
        if any(w <= 0 for _, w in self.atoms):
            raise ValueError("weights must be positive")
        self.atoms = [(tuple(int(i) for i in node), w / total) for node, w in self.atoms]

    @classmethod
    def dirac(cls, node) -> "DiscreteMeasure":
        return cls([(tuple(node), 1.0)])

    @classmethod
    def uniform(cls, O: Subdomain) -> "DiscreteMeasure":
        """Discretised normalised Lebesgue measure on the closed subdomain.

        On box subdomains the weights are product-trapezoid (half weight on
        subdomain faces), which integrates gradients of smooth fields with
        spectral accuracy for sine-mode test functions; other region kinds
        get equal weights.
        """
        nodes = O.evaluable_nodes()
        if O.region[0] == "ball":
            w = np.ones(nodes.shape[0])
        else:
            w = np.ones(nodes.shape[0])
            for axis in range(O.box.dim):
                idx = nodes[:, axis]
                lo, hi = idx.min(), idx.max()
                w *= np.where((idx == lo) | (idx == hi), 0.5, 1.0)
        return cls([(tuple(node), float(wi)) for node, wi in zip(nodes, w)])

    def nodes_array(self) -> np.ndarray:
        return np.asarray([node for node, _ in self.atoms], dtype=int)

    def weights_array(self) -> np.ndarray:
        return np.asarray([w for _, w in self.atoms])


@dataclass
class MeasureReport:
    worst: float
    per_psi: list
    scale: float


def measure_divergence_residual(
    u,
    H: Hamiltonian,
    O: Subdomain,
    sigma: DiscreteMeasure,
    test_basis: Sequence,
    delta: Optional[float] = None,
) -> MeasureReport:
    """Weak residual of the measure-divergence system against a test basis.

    Per test field psi the residual is the sigma-weighted sum of
    H_P : Dpsi + H_eta . psi over the atoms; the measure must be supported
    in the argmax set (violations raise :class:`SupportViolationError`).
    """
    if not test_basis:
        raise ValueError("empty test basis")
    aset = argmax_set(u, H, O, delta)
    allowed = {tuple(int(i) for i in node) for node in aset.nodes}
    outside = [node for node, _ in sigma.atoms if node not in allowed]
    if outside:
        raise SupportViolationError(
            f"measure charges {len(outside)} node(s) outside the argmax set, e.g. {outside[0]}")
    nodes = sigma.nodes_array()
    weights = sigma.weights_array()
    per_psi = []
    scale = 0.0
    for psi in test_basis:
        g = variation_density(u, H, psi, O, nodes)
        per_psi.append(float(np.dot(weights, g)))
        if g.size:
            scale = max(scale, float(np.max(np.abs(g))))
    worst = max(abs(r) for r in per_psi)
    return MeasureReport(worst=float(worst), per_psi=per_psi, scale=float(scale))
