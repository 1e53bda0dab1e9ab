"""Sampling-based verdicts for the minimality notions and their stationarity chain.

Minimality verdicts are one-sided: a FAIL is certified by an explicit
witness variation (re-evaluable from its serialised parameters and its
expression ``source``), while a PASS is sampling evidence only, never a
proof.  The verdicts draw from the families of :mod:`linfvar.variations`:
free and rank-one variations, and for ``normal`` variations, pointwise
projections of free fields onto the reduced normal space of
H_P(., u, Du), free on the boundary.  A verdict takes u's jets once and
scores its trials in batches (a normal chunk is one grid map of projected
sine fields) through one scan, which picks the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .energy import (
    argmax_set,
    density_linearisation,
    density_sup,
    linearised_density,
    subdomain_nodes,
)
from .operators import _normal_space
from .problem import (
    ClosedFormMap,
    DomainBox,
    GridMap,
    Hamiltonian,
    Jet2,
    Subdomain,
    combine_jets,
    jets_at_nodes,
    prescan_singularities,
)
from .variations import (
    SineModeMap,
    _ball_variation,
    _draw_free,
    _draw_rank_one,
    _free_field_batch,
    _region_box,
    _scale_for,
    _scaled_spec,
    _sine_batch,
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
    "make_free_field",
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

    def jets(self, phi) -> Jet2:
        """phi's order-1 jets at the nodes, with a batch axis of length 1 if phi is a single map."""
        var = jets_at_nodes(phi, self.O.box, self.nodes, order=1)
        return _with_batch_axis(var) if var.value.ndim == 2 else var

    def energies(self, var: Jet2) -> np.ndarray:
        """E_inf(u + phi, O) for each variation phi of a batch, from its :meth:`jets` ``var``."""
        return density_sup(self.H, combine_jets(self.base, var), self.nodes)

    def sine_batches(self, draw, count: int, amplitude: float):
        """``count`` draws of ``draw() -> unscaled sine spec`` as (jets, scaled specs) chunks.

        A chunk's jets are taken once, unscaled, and then multiplied by each
        trial's scale: the sine families drawn here have no constant term, so
        the scaled map's jets are the unscaled jets times the scale.
        """
        for start in range(0, count, self.chunk):
            specs = [draw() for _ in range(min(self.chunk, count - start))]
            raw = self.jets(_sine_batch(specs))
            scale = _scale_for(raw, amplitude)
            var = Jet2(x=raw.x, value=raw.value * scale[:, None], gradient=raw.gradient * scale[:, None],
                       hessian=None)
            yield var, [_scaled_spec(spec, c, amplitude) for spec, c in zip(specs, scale)]

    def scan(self, batches):
        """(worst violation E0 - E1, its witness, variation count) over (jets, specs) batches.

        The witness's ``trial`` counts the variations before it unless its spec carries a draw index;
        its ``source`` re-evaluates it, except a projected free field's (the spec is unprojected).
        """
        worst, witness, total = -np.inf, None, 0
        for var, specs in batches:
            E1 = self.energies(var)
            violation = self.E0 - E1
            t = int(np.argmax(violation))
            if violation[t] > worst:
                worst = violation[t]
                witness = dict(specs[t], trial=specs[t].get("trial", total + t), energy_base=self.E0,
                               energy_perturbed=float(E1[t]))
            total += len(specs)
        if witness is not None and witness["kind"] != "free_field":
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
        batches = ((probe.jets(phi), [spec]) for phi, spec in
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
    balls, its polynomial analogue on boxes); on boxes ``trials`` random
    sine profiles follow it.  ``Verdict.trials`` counts the distinct
    variations scored.
    """
    directions = [np.asarray(xi, dtype=float) for xi in directions]
    for j, xi in enumerate(directions, 1):
        if xi.shape != (u.N,):
            raise ValueError(f"rank-one direction {j} has {xi.size} entries; the map has N = {u.N} components")
        if np.linalg.norm(xi) == 0.0:
            raise ValueError(f"rank-one direction {j} is zero; it must be nonzero")
    rng = np.random.default_rng(seed)
    probe = _Probe(u, H, O)
    if tol is None:
        tol = _default_tol(probe.E0)
    box = _region_box(O)

    def batches():
        for xi in directions:
            bump, spec = make_rank_one_variation(O, xi, rng, amplitude, deterministic=True)
            yield probe.jets(bump), [spec]
            if box is not None:
                yield from probe.sine_batches(lambda: _draw_rank_one(O, xi, rng), trials, amplitude)

    worst, witness, total = probe.scan(batches())
    return Verdict(bool(worst <= tol), worst, witness, total)


def _normal_projector_field(u, H: Hamiltonian, O: Subdomain, eps, tol_angle):
    """The evaluable box nodes (M, n), H_P(., u, Du) there (N, n, M) and its reduced
    normal projector at each of them (M, N, N), in balls of two spacings by default.

    A loaded problem's singular mask covers u's singular nodes in O only: a
    grid map's ``jet_valid`` is read over the box, and a closed-form map's
    nodes outside O are pre-scanned here."""
    if isinstance(u, GridMap):
        evaluable = u.jet_valid
    else:
        evaluable = ~O.singular
        if isinstance(u, ClosedFormMap):
            evaluable &= ~prescan_singularities(u, O.box, np.argwhere(~O.mask))
    nodes = np.argwhere(evaluable)
    jets = jets_at_nodes(u, O.box, nodes, order=1)
    if eps is None:
        eps = 2.0 * float(np.max(O.box.spacing))
    ham, _, sel, proj, *_ = _normal_space(u, H, jets, nodes, "reduced", eps, tol_angle, (nodes, "node"))
    projectors = np.zeros((nodes.shape[0], u.N, u.N))
    projectors[sel] = proj
    return nodes, ham.P_grad, projectors


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
    variations are free on the boundary, and scored a chunk of draws at a
    time.  ``Verdict.trials`` counts the admissible draws, the witness's
    ``trial`` every draw.  When no nonzero admissible variation exists
    (e.g. full-rank H_P) the verdict is a vacuous pass with the flag set.
    """
    rng = np.random.default_rng(seed)
    probe = _Probe(u, H, O)
    if tol is None:
        tol = _default_tol(probe.E0)
    nodes, hp, projectors = _normal_projector_field(u, H, O, eps, tol_angle)
    box = O.box
    if float(np.max(np.abs(projectors))) < 1e-13:
        return Verdict(True, 0.0, None, 0, vacuous=True)
    hp_inf = float(np.max(np.linalg.norm(hp, axis=(0, 1))))
    projectors = np.ascontiguousarray(np.moveaxis(projectors, 0, -1))  # (N, N, M): einsum runs along M
    chunk = max(1, _BATCH_POINTS // box.all_nodes().shape[0])  # a chunk's grid map holds every box node

    def batches():
        for start in range(0, trials, chunk):
            psi, specs = _free_field_batch(O, u.N, rng, amplitude, min(chunk, trials - start))
            psi_vals = jets_at_nodes(psi, box, nodes, order=1).value  # (N, K, M)
            phi_vals = np.einsum("abm,bkm->akm", projectors, psi_vals)
            psi_inf, phi_inf = (np.max(np.abs(vals), axis=(0, 2)) for vals in (psi_vals, phi_vals))
            # reject candidates that vanish or are not numerically normal
            align = np.max(np.linalg.norm(np.einsum("akm,aim->ikm", phi_vals, hp), axis=0), axis=1)
            kept = np.flatnonzero((phi_inf >= 1e-14 * np.maximum(1.0, psi_inf))
                                  & (align <= 1e-6 * hp_inf * np.maximum(phi_inf, 1e-300)))
            if not kept.size:
                continue
            # every field is NaN where u has no value and 0, which is normal, where u has a value
            # but no jet, so each takes u's stencils; a closed-form u has no value at its singular
            # nodes and a jet at all the others
            values = np.full((u.N, kept.size) + box.shape, np.nan)
            if isinstance(u, GridMap):
                values[..., u.valid] = 0.0
            values[(slice(None), slice(None)) + tuple(nodes.T)] = phi_vals[:, kept]
            jets = jets_at_nodes(GridMap(box, values.reshape((-1,) + box.shape)), box, probe.nodes, order=1)
            value = jets.value.reshape(u.N, kept.size, -1)
            # contiguous, so that the density's sums run in the order of a single field's
            gradient = np.ascontiguousarray(jets.gradient.reshape(u.N, kept.size, box.dim, -1).swapaxes(1, 2))
            yield Jet2(jets.x[:, None], value, gradient, None), [dict(specs[k], trial=start + int(k)) for k in kept]

    worst, witness, admissible = probe.scan(batches())
    if admissible == 0:
        return Verdict(True, 0.0, None, 0, vacuous=True)
    return Verdict(bool(worst <= tol), worst, witness, admissible)


def sphere_family_scan(u, H: Hamiltonian, box: DomainBox, center, radii, directions):
    """One-sided derivative brackets for the sphere variations on shrinking balls."""
    center = np.asarray(center, dtype=float)
    out = []
    for rho in radii:
        O = Subdomain.from_ball(box, center, rho)
        for xi in directions:
            phi = make_sphere_variation(np.asarray(xi, dtype=float), center, rho, box.dim)
            scan = stationarity_scan(u, H, O, phi)
            out.append({"rho": float(rho), "xi": np.asarray(xi, dtype=float).tolist(),
                        "plus": scan.max_val, "minus": scan.min_val})
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


def _basis_densities(ham, basis: Sequence, O: Subdomain, nodes: np.ndarray):
    """g = H_P : Dpsi + H_eta . psi at ``nodes`` for each field psi of ``basis``, in order.

    A :class:`SineModeMap` batch (:func:`make_test_basis`) is scored in one
    evaluation, any other basis field by field.  A single sine map is
    refused: it has no entries.
    """
    if isinstance(basis, SineModeMap):
        len(basis)  # refuses a single map
        return list(linearised_density(ham, basis, O, nodes))
    return [linearised_density(ham, psi, O, nodes) for psi in basis]


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
    for g in _basis_densities(ham, basis, O, aset.nodes):
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


def stationarity_scan(u, H: Hamiltonian, O: Subdomain, psi, delta: Optional[float] = None) -> StationarityReport:
    """Evaluate g = H_P : Dpsi + H_eta . psi on the argmax set of the density.

    Returns its extremes (identical, by construction, to the one-sided
    Danskin derivatives for the same psi), and the near-zero set K.
    Statement (ii) takes the default tolerance 1e-8 (1 + max|g|).
    """
    return stationarity_scans(u, H, O, [psi], delta)[0]


@dataclass
class DiscreteMeasure:
    """Finitely supported probability measure on grid nodes of the closed subdomain."""

    nodes: np.ndarray    # (M, n) node multi-indices of the atoms
    weights: np.ndarray  # (M,) positive weights, normalised to sum to 1

    def __post_init__(self):
        self.nodes, self.weights = np.asarray(self.nodes, dtype=int), np.asarray(self.weights, dtype=float)
        if self.nodes.ndim != 2 or self.weights.shape != self.nodes.shape[:1]:
            raise ValueError("a measure needs an (M, n) array of nodes and M weights")
        total = self.weights.sum()
        if total <= 0:
            raise ValueError("measure must have positive total mass")
        if (self.weights <= 0).any():
            raise ValueError("weights must be positive")
        self.weights = self.weights / total

    @classmethod
    def dirac(cls, node) -> "DiscreteMeasure":
        return cls([node], [1.0])

    @classmethod
    def uniform(cls, O: Subdomain) -> "DiscreteMeasure":
        """Discretised normalised Lebesgue measure on the closed subdomain.

        On box subdomains the weights are product-trapezoid (half weight on
        subdomain faces), which integrates gradients of smooth fields with
        spectral accuracy for sine-mode test functions; ball subdomains get
        equal weights.
        """
        nodes = subdomain_nodes(O)
        faces = (nodes == nodes.min(axis=0)) | (nodes == nodes.max(axis=0))
        return cls(nodes, 0.5 ** (faces.sum(axis=1) * (O.region[0] == "box")))


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
    nodes, shape = sigma.nodes, O.box.shape
    # on a grid of another dimension every atom is off it, and the first is named
    off = nodes.shape[1] != len(shape) or ((nodes < 0) | (nodes >= shape)).any(axis=1)
    if np.any(off):
        atom = tuple(nodes[np.argmax(off)].tolist())
        raise ValueError(f"measure atom {atom} is not a node of the {shape} grid")
    aset = argmax_set(u, H, O, delta)
    allowed = np.zeros(shape, dtype=bool)
    allowed[tuple(aset.nodes.T)] = True
    outside = ~allowed[tuple(nodes.T)]
    if outside.any():
        raise SupportViolationError(f"measure charges {int(outside.sum())} node(s) outside the argmax set, "
                                    f"e.g. {tuple(nodes[np.argmax(outside)].tolist())}")
    densities = _basis_densities(density_linearisation(u, H, O, nodes), test_basis, O, nodes)
    per_psi = [float(np.dot(sigma.weights, g)) for g in densities]
    scale = max([0.0] + [float(np.max(np.abs(g))) for g in densities if g.size])
    return MeasureReport(worst=max(abs(r) for r in per_psi), per_psi=per_psi, scale=scale)
