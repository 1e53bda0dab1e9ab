"""Sampling-based verdicts for the minimality notions and their stationarity chain.

Minimality verdicts are one-sided: a FAIL is certified by an explicit
witness variation (re-evaluable from its serialised parameters and its
expression ``source``), while a PASS is sampling evidence only, never a
proof.  The verdicts draw from the families of :mod:`linfvar.variations`:
free and rank-one variations, and for ``normal`` variations, pointwise
projections of free fields onto the reduced normal space of
H_P(., u, Du), free on the boundary.  A verdict takes u's jets once and
scores its sine trials in batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .energy import (
    argmax_set,
    danskin_derivative,
    density_linearisation,
    density_sup,
    linearised_density,
    subdomain_nodes,
    sup_energy,
)
from .operators import _normal_projections
from .problem import (
    DomainBox,
    GridMap,
    Hamiltonian,
    Jet2,
    PerturbedMap,
    Subdomain,
    hamiltonian_jet,
    jets_at_nodes,
)
from .variations import (
    SineModeMap,
    _ball_variation,
    _draw_free,
    _draw_rank_one,
    _region_box,
    _scale_for,
    _scaled_spec,
    make_free_field,
    make_free_variation,
    make_rank_one_variation,
    make_sphere_variation,
    make_test_basis,
    variation_source,
)

__all__ = [
    "DiscreteMeasure",
    "MeasureReport",
    "SineModeMap",
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
    "stationarity_scans",
    "variation_source",
]


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
# Minimality verdicts

# Variations x nodes per batched energy evaluation: bounds the memory of a batch.
_BATCH_POINTS = 2 ** 13


def _default_tol(E0: float) -> float:
    return 1e-9 * (1.0 + abs(E0))


class _Probe:
    """u's order-1 jets and sup energy at the evaluable nodes of O, for scoring variations."""

    def __init__(self, u, H: Hamiltonian, O: Subdomain):
        self.u, self.H, self.O = u, H, O
        self.nodes = subdomain_nodes(O)
        jets = jets_at_nodes(u, O.box, self.nodes, order=1)
        self.E0 = float(density_sup(H, jets, self.nodes))
        self.base = _with_batch_axis(jets)
        self.chunk = max(1, _BATCH_POINTS // self.nodes.shape[0])

    def energies(self, phi) -> np.ndarray:
        """E_inf(u + phi, O) for each map of the batch ``phi``; a single map is a batch of one."""
        var = jets_at_nodes(phi, self.O.box, self.nodes, order=1)
        if var.value.ndim == 2:
            var = _with_batch_axis(var)
        return density_sup(self.H, PerturbedMap(self.u, phi, 1.0).combine(self.base, var), self.nodes)

    def sine_batches(self, draw, count: int, amplitude: float):
        """``count`` draws of ``draw() -> (unscaled SineModeMap, spec)``, stacked and scaled in chunks."""
        for start in range(0, count, self.chunk):
            raws, specs = zip(*(draw() for _ in range(min(self.chunk, count - start))))
            raw = SineModeMap.stack(raws)
            scale = _scale_for(raw, self.O, self.nodes, amplitude)
            yield raw.scaled(scale), [_scaled_spec(spec, c, amplitude) for spec, c in zip(specs, scale)]

    def scan(self, batches):
        """(worst violation E0 - E1, its witness, variation count) over (maps, specs) batches."""
        worst, witness, total = -np.inf, None, 0
        for phi, specs in batches:
            E1 = self.energies(phi)
            violation = self.E0 - E1
            t = int(np.argmax(violation))
            if violation[t] > worst:
                worst = violation[t]
                witness = dict(specs[t], trial=total + t, energy_base=self.E0,
                               energy_perturbed=float(E1[t]))
            total += len(specs)
        if witness is not None:
            witness["source"] = variation_source(witness)
        return float(worst), witness, total


def _with_batch_axis(jets: Jet2) -> Jet2:
    """Order-1 node jets with a batch axis of length 1 before the node axis."""
    return Jet2(x=jets.x[:, None], value=jets.value[:, None], gradient=jets.gradient[:, :, None],
                hessian=None)


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
    probe = _Probe(u, H, O)
    if tol is None:
        tol = _default_tol(probe.E0)
    if trials == 0 or amplitude == 0.0:
        return Verdict(True, 0.0, None, trials, vacuous=False)
    if _region_box(O) is None:
        batches = ((phi, [spec]) for phi, spec in
                   (_ball_variation(O, u.N, rng, amplitude) for _ in range(trials)))
    else:
        batches = probe.sine_batches(lambda: _draw_free(O, u.N, rng), trials, amplitude)
    worst, witness, _ = probe.scan(batches)
    return Verdict(bool(worst <= tol), worst, witness, trials)


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

    Each direction gets one deterministic bump (the sphere profile on
    balls, its polynomial analogue on boxes) and then ``trials`` random sine
    profiles (on balls, the sphere profile again).
    """
    rng = np.random.default_rng(seed)
    probe = _Probe(u, H, O)
    if tol is None:
        tol = _default_tol(probe.E0)
    box = _region_box(O)

    def batches():
        for xi in directions:
            xi = np.asarray(xi, dtype=float)
            bump, spec = make_rank_one_variation(O, xi, rng, amplitude, deterministic=True)
            yield bump, [spec]
            if box is None:
                for _ in range(trials):
                    yield bump, [spec]
            else:
                yield from probe.sine_batches(lambda: _draw_rank_one(O, xi, rng), trials, amplitude)

    worst, witness, total = probe.scan(batches())
    return Verdict(bool(worst <= tol), worst, witness, total)


def _evaluable_hp(u, H: Hamiltonian, O: Subdomain):
    """The evaluable box nodes (M, n), their points (n, M) and H_P(., u, Du) there (N, n, M)."""
    all_nodes = O.box.all_nodes()
    ok = u.jet_valid if isinstance(u, GridMap) else ~O.singular
    nodes = all_nodes[ok[tuple(all_nodes.T)]]
    jets = jets_at_nodes(u, O.box, nodes, order=1)
    return nodes, jets.x, hamiltonian_jet(H, jets.x, jets.value, jets.gradient).P_grad


def _normal_projector_field(u, H: Hamiltonian, O: Subdomain, eps, tol_angle, evaluable=None):
    """Reduced normal projector of H_P at every evaluable node; ``evaluable`` is :func:`_evaluable_hp`."""
    nodes, x, hp = _evaluable_hp(u, H, O) if evaluable is None else evaluable
    # grid maps: the evaluable nodes are the jet-valid ones, the others are unread
    hp_field = np.zeros(hp.shape[:2] + O.box.shape)
    hp_field[(slice(None), slice(None)) + tuple(nodes.T)] = hp
    if eps is None:
        eps = 2.0 * float(np.max(O.box.spacing))
    sel, proj, *_ = _normal_projections(u, H, x, nodes, np.moveaxis(hp, -1, 0), "reduced",
                                        eps, tol_angle, hp_field)
    projectors = np.zeros((nodes.shape[0], u.N, u.N))
    projectors[sel] = proj
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
    evaluable = _evaluable_hp(u, H, O)
    nodes, projectors = _normal_projector_field(u, H, O, eps, tol_angle, evaluable)
    box = O.box
    if float(np.max(np.abs(projectors))) < 1e-13:
        return Verdict(True, 0.0, None, 0, vacuous=True)
    hp = evaluable[2]
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
    tol_K: float                # 1e-6 (1 + max|g|)
    statement_ii: bool          # max over the argmax set >= -tol
    statement_iii: bool         # K nonempty
    k_fraction: float           # |K| / |argmax| (exact set equality is not grid-decidable)


def stationarity_scans(
    u,
    H: Hamiltonian,
    O: Subdomain,
    basis: Sequence,
    delta: Optional[float] = None,
    tol: Optional[float] = None,
) -> list:
    """:func:`stationarity_scan` for each field of ``basis``, sharing one argmax
    set and one linearisation of H along u."""
    aset = argmax_set(u, H, O, delta)
    ham = density_linearisation(u, H, O, aset.nodes)
    reports = []
    for psi in basis:
        g = linearised_density(ham, psi, O, aset.nodes)
        max_val = float(np.max(g))
        min_val = float(np.min(g))
        scale = float(np.max(np.abs(g))) if g.size else 0.0
        tol_ii = 1e-8 * (1.0 + scale) if tol is None else tol
        tol_k = 1e-6 * (1.0 + scale)
        K = aset.nodes[np.abs(g) <= tol_k]
        reports.append(StationarityReport(
            max_val=max_val,
            min_val=min_val,
            K=K,
            argmax_nodes=aset.nodes,
            tol_K=float(tol_k),
            statement_ii=bool(max_val >= -tol_ii),
            statement_iii=bool(K.shape[0] > 0),
            k_fraction=float(K.shape[0] / aset.nodes.shape[0]),
        ))
    return reports


def stationarity_scan(
    u,
    H: Hamiltonian,
    O: Subdomain,
    psi,
    delta: Optional[float] = None,
    tol: Optional[float] = None,
) -> StationarityReport:
    """Evaluate g = H_P : Dpsi + H_eta . psi on the argmax set of the density.

    Returns its extremes (identical, by construction, to the one-sided
    Danskin derivatives for the same psi), and the near-zero set K.
    """
    return stationarity_scans(u, H, O, [psi], delta, tol)[0]


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
    ham = density_linearisation(u, H, O, nodes)
    per_psi = []
    scale = 0.0
    for psi in test_basis:
        g = linearised_density(ham, psi, O, nodes)
        per_psi.append(float(np.dot(weights, g)))
        if g.size:
            scale = max(scale, float(np.max(np.abs(g))))
    worst = max(abs(r) for r in per_psi)
    return MeasureReport(worst=float(worst), per_psi=per_psi, scale=float(scale))
