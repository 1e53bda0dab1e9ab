"""Supremal energy, argmax sets and one-sided Danskin derivatives.

The supremal energy of a map over a closed subdomain is realised as the
max of the density H(x, u, Du) over the subdomain's evaluable grid nodes
(boundary nodes included).  For continuous densities this is consistent
with the essential supremum; the node/continuum gap is the caller's grid
resolution choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem import (
    Hamiltonian,
    HamiltonianJet,
    Jet2,
    Subdomain,
    hamiltonian_jet,
    hamiltonian_value,
    jets_at_nodes,
)

__all__ = [
    "ArgmaxSet",
    "ConvexMinVerdict",
    "argmax_set",
    "convex_min_check",
    "danskin_derivative",
    "density_linearisation",
    "density_sup",
    "linearised_density",
    "subdomain_nodes",
    "sup_energy",
    "variation_density",
]


@dataclass
class ArgmaxSet:
    """Grid nodes realising the sup of the density up to an admission tolerance delta."""

    nodes: np.ndarray     # (M, dim) int, lexicographic
    sup_value: float
    delta: float


def _require_finite(bad: np.ndarray, where: np.ndarray, kind: str = "node") -> None:
    """ValueError naming the first node (or point) of ``where`` (M, n) at which ``bad`` (..., M) holds."""
    if bad.any():
        at = where[np.unravel_index(np.argmax(bad), bad.shape)[-1]]
        raise ValueError(f"density not finite at {kind} {tuple(at.tolist())}")


def _require_finite_jet(ham: HamiltonianJet, where: np.ndarray, kind: str = "node") -> None:
    """ValueError naming the first node (or point) of ``where`` at which H or H_P is not finite."""
    _require_finite(~(np.isfinite(ham.value) & np.isfinite(ham.P_grad).all(axis=(0, 1))), where, kind)


def _density(H: Hamiltonian, jets: Jet2, nodes: np.ndarray) -> np.ndarray:
    """H(x, value, gradient) at node jets; ValueError naming the first node where it is not finite.

    The node axis is the trailing one; leading batch axes (one entry per
    variation) are taken in order.
    """
    vals = np.asarray(hamiltonian_value(H, jets.x, jets.value, jets.gradient), dtype=float)
    _require_finite(~np.isfinite(vals), nodes)
    return vals


def subdomain_nodes(O: Subdomain) -> np.ndarray:
    """The evaluable nodes of the subdomain; error if there are none."""
    nodes = O.evaluable_nodes()
    if nodes.shape[0] == 0:
        raise ValueError("subdomain has no evaluable nodes")
    return nodes


def density_sup(H: Hamiltonian, jets: Jet2, nodes: np.ndarray) -> np.ndarray:
    """Max of H(x, value, gradient) over the trailing node axis of node jets.

    Leading batch axes (one entry per variation) are kept; see :func:`_density`.
    """
    return np.max(_density(H, jets, nodes), axis=-1)


def sup_energy(u, H: Hamiltonian, O: Subdomain) -> float:
    """Max of H(., u, Du) over the evaluable nodes of the closed subdomain."""
    nodes = subdomain_nodes(O)
    return float(density_sup(H, jets_at_nodes(u, O.box, nodes, order=1), nodes))


def default_delta(sup_value: float) -> float:
    return 1e-7 * (1.0 + abs(sup_value))


def argmax_set(u, H: Hamiltonian, O: Subdomain, delta: Optional[float] = None) -> ArgmaxSet:
    """Nodes within ``delta`` of the sup (boundary nodes of the closed subdomain included)."""
    nodes = subdomain_nodes(O)
    vals = _density(H, jets_at_nodes(u, O.box, nodes, order=1), nodes)
    sup = float(np.max(vals))
    if delta is None:
        delta = default_delta(sup)
    keep = vals >= sup - delta
    return ArgmaxSet(nodes=nodes[keep], sup_value=sup, delta=float(delta))


def density_linearisation(u, H: Hamiltonian, O: Subdomain, nodes: np.ndarray) -> HamiltonianJet:
    """H and its first derivatives along u at the given nodes."""
    jets = jets_at_nodes(u, O.box, nodes, order=1)
    return hamiltonian_jet(H, jets.x, jets.value, jets.gradient)


def linearised_density(ham: HamiltonianJet, phi, O: Subdomain, nodes: np.ndarray) -> np.ndarray:
    """g = H_P : Dphi + H_eta . phi at the nodes of ``ham``."""
    pjet = jets_at_nodes(phi, O.box, nodes, order=1)
    g = np.einsum("ai...,ai...->...", ham.P_grad, pjet.gradient)
    g = g + np.einsum("a...,a...->...", ham.eta_grad, pjet.value)
    return np.asarray(g, dtype=float)


def variation_density(u, H: Hamiltonian, phi, O: Subdomain, nodes: np.ndarray) -> np.ndarray:
    """Linearised density g = H_P : Dphi + H_eta . phi at the given nodes."""
    return linearised_density(density_linearisation(u, H, O, nodes), phi, O, nodes)


def danskin_derivative(u, H: Hamiltonian, phi, O: Subdomain, side: str = "plus") -> float:
    """One-sided derivative of t -> E_inf(u + t*phi, O) at t = 0.

    Equals the max (side="plus") or min (side="minus") of the linearised
    density H_P : Dphi + H_eta . phi over the argmax set of H(., u, Du),
    admitted with the default tolerance.  The variation phi need not vanish
    on the boundary; boundary conditions are the caller's concern.
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    aset = argmax_set(u, H, O)
    g = variation_density(u, H, phi, O, aset.nodes)
    return float(np.max(g) if side == "plus" else np.min(g))


@dataclass
class ConvexMinVerdict:
    passes: bool
    left_slope: float
    right_slope: float
    value_at_zero: float
    min_sampled: float


def convex_min_check(samples) -> ConvexMinVerdict:
    """Check that a (caller-asserted convex) sampled function has its global min at t = 0.

    Uses the one-sided discrete slopes at 0: pass iff slope- <= tol,
    slope+ >= -tol and f(0) <= min sample + tol, with tol = 1e-9.
    """
    tol = 1e-9
    pts = sorted((float(t), float(f)) for t, f in samples)
    if len(pts) < 3:
        raise ValueError("need at least 3 samples")
    ts = [t for t, _ in pts]
    if 0.0 not in ts:
        raise ValueError("samples must include t = 0")
    i0 = ts.index(0.0)
    if i0 == 0 or i0 == len(pts) - 1:
        raise ValueError("need samples on both sides of t = 0")
    f0 = pts[i0][1]
    tl, fl = pts[i0 - 1]
    tr, fr = pts[i0 + 1]
    left = (f0 - fl) / (0.0 - tl)
    right = (fr - f0) / tr
    fmin = min(f for _, f in pts)
    passes = (left <= tol) and (right >= -tol) and (f0 <= fmin + tol)
    return ConvexMinVerdict(passes=passes, left_slope=left, right_slope=right,
                            value_at_zero=f0, min_sampled=fmin)
