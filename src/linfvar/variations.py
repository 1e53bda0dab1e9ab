"""Variation families: random and deterministic maps that vanish (or not) on a subdomain's boundary.

* ``free``      smooth fields vanishing on the subdomain boundary,
* ``rank_one``  scalar profile times a fixed direction, vanishing on the boundary,
* ``free_field`` smooth fields free on the boundary (projected by ``verify-normal``),
* ``sphere``    the deterministic family xi * (|y - x|^2 - rho^2) on balls.

Random variations are sums of at most five separable sine modes with
coefficients scaled so that the sup norm of the variation gradient matches
the requested amplitude; everything is seeded and reproducible.  They are
numeric maps evaluated at grid nodes (:class:`SineModeMap`), which may hold
a batch of maps so that a verdict of :mod:`linfvar.varcheck` scores many
trials at once; the deterministic ball and box bumps are polynomial
expressions.  Every family's expression source follows from its spec
(:func:`variation_source`).
"""

from __future__ import annotations

import math

import numpy as np

from .problem import ClosedFormMap, DomainBox, Jet2, Subdomain, jets_at_nodes

__all__ = [
    "SineModeMap",
    "make_free_field",
    "make_free_variation",
    "make_rank_one_variation",
    "make_sphere_variation",
    "make_test_basis",
    "variation_source",
]


_MAX_MODES = 5  # sine modes per random variation component


def _f(x) -> str:
    """Render a number as a parseable literal (plain Python float repr)."""
    return repr(float(x))


class SineModeMap:
    """Sums of separable sine modes, one list of modes per component, with exact jets.

    Component a is::

        factor_a * (const_a + sum_m coeff_am prod_i sin(freq_ami (x_i - lo_i) + phase_ami))

    with ``freq_ami = k_ami pi / (hi_i - lo_i)``.  Mode lists are padded with
    zero coefficients to one length M, at least ``_MAX_MODES`` so that a map's
    jets do not depend on its batch (BLAS sums the one-row products of n = 1
    in an order set by M).  The parameter arrays may carry
    trailing batch axes B, one map per entry (the trials of a verdict);
    jets then have shape (N, ...) + B + (K,) at K nodes.  A batch along one
    axis is a sequence of its maps (``len``, ``batch[t]``, iteration), so a
    test basis stays one batch from construction to scoring.  The maps are
    evaluated at grid nodes only (:meth:`node_jets`), where they match the
    parsed form of :func:`variation_source` to rounding; that source
    evaluates a map anywhere.
    """

    def __init__(self, lo, hi, coeffs, freqs, phases, consts, factors):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.coeffs = coeffs    # (N, M) + B
        self.freqs = freqs      # (N, M, n) + B
        self.phases = phases    # (N, M, n) + B
        self.consts = consts    # (N,) + B
        self.factors = factors  # (N,) + B
        self.N, self.n = coeffs.shape[0], self.lo.size

    @classmethod
    def from_trials(cls, lo, hi, trials, consts, factors) -> "SineModeMap":
        """A batch along a new last axis, one map per entry of ``trials`` (a list, per
        component, of (coeff, ks, phases) modes), with ``consts`` and ``factors`` (N, T)."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        (N, T), n = np.shape(consts), lo.size
        entries = [(a, m, t, mode) for t, comp_modes in enumerate(trials)
                   for a, modes in enumerate(comp_modes) for m, mode in enumerate(modes)]
        M = max([_MAX_MODES] + [m + 1 for _, m, _, _ in entries])
        coeffs, ks, phases = np.zeros((N, M, T)), np.zeros((N, M, n, T)), np.zeros((N, M, n, T))
        if entries:
            a, m, t, modes = zip(*entries)
            coeffs[a, m, t], ks[a, m, :, t], phases[a, m, :, t] = zip(*modes)
        return cls(lo, hi, coeffs, ks * np.pi / (hi - lo)[:, None], phases, consts, factors)

    def __len__(self) -> int:
        """The number of maps in a batch along one axis; a single map has no entries."""
        if self.consts.ndim < 2:
            raise TypeError("a single sine map has no entries; only a batch of maps has a length")
        return self.consts.shape[-1]

    def __getitem__(self, t) -> "SineModeMap":
        """Map ``t`` of a batch along one axis.  Past the end numpy's IndexError ends an
        iteration over the batch, which yields its maps in order."""
        len(self)  # refuses a single map
        return SineModeMap(self.lo, self.hi, self.coeffs[..., t], self.freqs[..., t], self.phases[..., t],
                           self.consts[..., t], self.factors[..., t])

    def scaled(self, scale) -> "SineModeMap":
        """The map with its mode coefficients (not its constants) times ``scale`` (shape B)."""
        return SineModeMap(self.lo, self.hi, self.coeffs * scale, self.freqs, self.phases,
                           self.consts, self.factors)

    @staticmethod
    def _sines(f, phase, t, order: int):
        """sin(f t + phase), its t-derivative and (order 2) second derivative, broadcast."""
        arg = f * t + phase
        s = np.sin(arg)
        return s, np.cos(arg) * f, -(s * (f * f)) if order >= 2 else None

    def _jet_entries(self, modes_sum, order: int):
        """Value, gradient and Hessian from ``modes_sum(which)``, the mode sum whose
        axis i factor is derivative ``which[i]`` (0, 1 or 2) of the sine."""
        n = self.n
        value = modes_sum((0,) * n)
        gradient = np.stack([modes_sum(tuple(int(i == j) for i in range(n))) for j in range(n)], axis=1)
        hessian = None
        if order >= 2:
            hessian = np.empty((self.N, n, n) + value.shape[1:])
            for j in range(n):
                for k in range(j, n):
                    hessian[:, j, k] = hessian[:, k, j] = modes_sum(
                        tuple((i == j) + (i == k) for i in range(n)))
        return value, gradient, hessian

    def node_jets(self, box: DomainBox, nodes: np.ndarray, order: int = 2) -> Jet2:
        """Jets at grid nodes (K, dim).

        Each axis gets (modes x coordinates) tables of the sines and their
        derivatives, once per grid coordinate of the box that the nodes
        span.  A mode sum over that box is then a contraction over the
        modes: the coefficients and factors are folded into the first
        axis's table, the tables of the axes before the last are multiplied
        out, and one batched matrix product with the last axis's table sums
        the modes (for n = 2, (L0, M) @ (M, L1) per component and map).  The
        nodes are then picked out of the box.
        """
        n, h = self.n, box.spacing
        first = nodes.min(axis=0) if nodes.size else np.zeros(n, dtype=int)
        shape = tuple(nodes.max(axis=0) - first + 1) if nodes.size else (0,) * n
        lead = self.consts.shape  # (N,) + B
        freqs, phases = np.moveaxis(self.freqs, 1, -1), np.moveaxis(self.phases, 1, -1)  # (N, n) + B + (M,)
        tables = []  # per axis, (sin, d, d2) tables (N,) + B + (L_i, M); the last axis's (M, L_i)
        for i in range(n):
            # node coordinates as DomainBox.node_coords forms them: lo + index * h
            t = (box.lo[i] + np.arange(first[i], first[i] + shape[i]) * h[i]) - self.lo[i]
            f, ph = freqs[:, i, ..., None], phases[:, i, ..., None]
            if i < n - 1:
                f, ph, t = np.swapaxes(f, -1, -2), np.swapaxes(ph, -1, -2), t[:, None]
            tables.append(self._sines(f, ph, t, order))
        # (N,) + B + (rows, M): the folded coefficients times the tables of axes 0..len(which)-1
        rows = {(): np.moveaxis(self.coeffs * self.factors[:, None], 1, -1)[..., None, :]}

        def left(which):
            for i in range(len(which)):  # not recursive: a closure cycle would outlive the call
                if which[:i + 1] not in rows:
                    prev, f = rows[which[:i]], tables[i][which[i]]
                    rows[which[:i + 1]] = (prev[..., :, None, :] * f[..., None, :, :]).reshape(
                        lead + (prev.shape[-2] * f.shape[-2], f.shape[-1]))
            return rows[which]

        flat = np.ravel_multi_index(tuple((nodes - first).T), shape)

        def modes_sum(which):
            grid = left(which[:-1]) @ tables[-1][which[-1]]
            return np.take(grid.reshape(lead + (grid.shape[-2] * grid.shape[-1],)), flat, axis=-1)

        value, gradient, hessian = self._jet_entries(modes_sum, order)
        value += (self.factors * self.consts)[..., None]
        return Jet2(x=box.node_coords(nodes), value=value, gradient=gradient, hessian=hessian)


def _region_box(O: Subdomain):
    if O.region[0] == "box":
        return np.asarray(O.region[1]), np.asarray(O.region[2])
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


def variation_source(spec: dict) -> list:
    """Expression source of each component of the variation that ``spec`` describes.

    The coefficients are multiplied by ``spec["scale"]``.  This is how a
    witness stays re-evaluable, and how the polynomial families are built.
    """
    scale = spec["scale"]

    def sines(modes):
        return _sine_profile_source(spec["lo"], spec["hi"], [(c * scale, k, ph) for c, k, ph in modes])

    def sphere(c):  # c * (rho^2 - |x - center|^2)
        sq = " - ".join(f"(x{i+1} - {_f(x0)})^2" for i, x0 in enumerate(spec["center"]))
        return f"{_f(c * scale)} * ({_f(spec['radius'] ** 2)} - {sq})"

    kind, profile = spec["kind"], spec.get("profile")
    if kind == "free":
        return [sines(modes) for modes in spec["modes"]]
    if kind == "free_field":
        # the constant carries no gradient, so it scales with the raw
        # amplitude rather than the gradient-normalising factor
        return [f"{_f(k * spec['amplitude'])} + " + sines(modes)
                for modes, k in zip(spec["modes"], spec["constants"])]
    if kind == "free_ball":
        return [sphere(c) for c in spec["coeffs"]]
    if profile == "sine":
        g = sines(spec["modes"])
        return [f"{_f(x)} * ({g})" for x in spec["xi"]]
    if profile == "sphere":
        return [sphere(x) for x in spec["xi"]]
    # box_bump: prod (x - lo)(hi - x), the sphere profile's box analogue
    lo, hi = spec["lo"], spec["hi"]
    prof = " * ".join(f"((x{i+1} - {_f(lo[i])}) * ({_f(hi[i])} - x{i+1}))" for i in range(len(lo)))
    return [f"{_f(x * scale)} * {prof}" for x in spec["xi"]]


def _draw_modes(rng, n, with_phase):
    count = int(rng.integers(1, _MAX_MODES + 1))
    modes = []
    for _ in range(count):
        coeff = float(rng.uniform(-1.0, 1.0))
        if abs(coeff) < 0.1:
            coeff = 0.1 if coeff >= 0 else -0.1
        ks = [int(rng.integers(1, 5)) for _ in range(n)]
        phases = [float(rng.uniform(0.2, 2.9)) if with_phase else 0.0 for _ in range(n)]
        modes.append((coeff, ks, phases))
    return modes


def _scale_for(jets: Jet2, amplitude: float) -> np.ndarray:
    """Factor making sup |D phi| over phi's node ``jets`` equal ``amplitude`` (0 for a flat phi), per map."""
    raw = np.max(np.linalg.norm(jets.gradient, axis=(0, 1)), axis=-1)
    return np.divide(amplitude, raw, out=np.zeros_like(raw), where=raw != 0.0)


def _scaled_spec(spec: dict, scale, amplitude: float) -> dict:
    return dict(spec, scale=float(scale), amplitude=amplitude)


def _scale_on(phi, O: Subdomain, amplitude: float) -> np.ndarray:
    """:func:`_scale_for` phi's jets at the evaluable nodes of O."""
    return _scale_for(jets_at_nodes(phi, O.box, O.evaluable_nodes(), order=1), amplitude)


def _polynomial_variation(spec: dict, O: Subdomain, amplitude: float):
    """A polynomial family's map and spec, built from its source at scale 1 and at the final scale."""
    n = O.box.dim
    raw = ClosedFormMap.from_expressions(variation_source(dict(spec, scale=1.0)), n)
    spec = _scaled_spec(spec, _scale_on(raw, O, amplitude), amplitude)
    return ClosedFormMap.from_expressions(variation_source(spec), n), spec


def _sine_variation(raw: SineModeMap, spec: dict, O: Subdomain, amplitude: float):
    scale = _scale_on(raw, O, amplitude)
    return raw.scaled(scale), _scaled_spec(spec, scale, amplitude)


def _draw_free(O: Subdomain, N: int, rng) -> dict:
    """Spec of an unscaled free sine variation on the box subdomain."""
    lo, hi = _region_box(O)
    comp_modes = [_draw_modes(rng, O.box.dim, with_phase=False) for _ in range(N)]
    return {"kind": "free", "modes": comp_modes, "lo": lo.tolist(), "hi": hi.tolist()}


def _draw_rank_one(O: Subdomain, xi: np.ndarray, rng) -> dict:
    """Spec of unscaled xi times a sine profile on the box subdomain."""
    lo, hi = _region_box(O)
    modes = _draw_modes(rng, O.box.dim, with_phase=False)
    return {"kind": "rank_one", "profile": "sine", "modes": modes, "xi": xi.tolist(),
            "lo": lo.tolist(), "hi": hi.tolist()}


def _sine_batch(specs) -> SineModeMap:
    """The unscaled maps of free or rank-one sine ``specs`` (one box, one kind) as one batch."""
    first, T = specs[0], len(specs)
    if first["kind"] == "free":
        trials = [spec["modes"] for spec in specs]
        factors = np.ones((len(first["modes"]), T))
    else:
        trials = [[spec["modes"]] * len(spec["xi"]) for spec in specs]
        factors = np.array([spec["xi"] for spec in specs]).T
    return SineModeMap.from_trials(first["lo"], first["hi"], trials, np.zeros(factors.shape), factors)


def make_free_variation(O: Subdomain, N: int, rng, amplitude: float = 1.0):
    """Random smooth variation vanishing on the subdomain boundary."""
    if _region_box(O) is None:
        return _ball_variation(O, N, rng, amplitude)
    spec = _draw_free(O, N, rng)
    return _sine_variation(_sine_batch([spec])[0], spec, O, amplitude)


def _ball_variation(O: Subdomain, N: int, rng, amplitude: float):
    coeffs = [float(rng.uniform(-1.0, 1.0)) for _ in range(N)]
    spec = {"kind": "free_ball", "coeffs": coeffs, "center": list(O.region[1]), "radius": O.region[2]}
    return _polynomial_variation(spec, O, amplitude)


def make_rank_one_variation(O: Subdomain, xi: np.ndarray, rng, amplitude: float = 1.0,
                            deterministic: bool = False):
    """Scalar profile times the direction xi, profile vanishing on the boundary."""
    xi = np.asarray(xi, dtype=float)
    if np.linalg.norm(xi) == 0.0:
        raise ValueError("rank-one direction must be nonzero")
    box = _region_box(O)
    if box is None:
        spec = {"kind": "rank_one", "profile": "sphere", "xi": xi.tolist(),
                "center": list(O.region[1]), "radius": O.region[2]}
    elif deterministic:
        spec = {"kind": "rank_one", "profile": "box_bump", "xi": xi.tolist(),
                "lo": box[0].tolist(), "hi": box[1].tolist()}
    else:
        spec = _draw_rank_one(O, xi, rng)
        return _sine_variation(_sine_batch([spec])[0], spec, O, amplitude)
    return _polynomial_variation(spec, O, amplitude)


def make_sphere_variation(xi: np.ndarray, center: np.ndarray, radius: float, n: int) -> ClosedFormMap:
    """The deterministic variation xi * (|y - center|^2 - radius^2)."""
    xi = np.asarray(xi, dtype=float)
    center = np.asarray(center, dtype=float)
    sq = " + ".join(f"(x{i+1} - {_f(center[i])})^2" for i in range(n))
    sources = [f"{_f(c)} * ({sq} - {_f(radius**2)})" for c in xi]
    return ClosedFormMap.from_expressions(sources, n)


def make_free_field(O: Subdomain, N: int, rng, amplitude: float = 1.0):
    """Random smooth field with no boundary condition: one field of :func:`_free_field_batch`."""
    batch, specs = _free_field_batch(O, N, rng, amplitude, 1)
    return batch[0], specs[0]


def _free_field_batch(O: Subdomain, N: int, rng, amplitude: float, count: int):
    """``count`` random smooth fields with no boundary condition, as one scaled batch and their specs.

    Per field, each component's phased modes are drawn, then the constants: a field free on the
    boundary may shift the map values outright, which matters for value-dependent densities.  A
    constant is ``amplitude`` times its draw; the gradient normalisation scales only the modes.
    """
    n = O.box.dim
    lo, hi = _region_box(O) or (np.asarray(O.box.lo), np.asarray(O.box.hi))
    draws = [([_draw_modes(rng, n, with_phase=True) for _ in range(N)],
              [float(rng.uniform(-1.0, 1.0)) for _ in range(N)]) for _ in range(count)]
    constants = np.array([c for _, c in draws]).T * amplitude
    raw = SineModeMap.from_trials(lo, hi, [modes for modes, _ in draws], constants, np.ones((N, count)))
    scale = _scale_on(raw, O, amplitude)
    specs = [_scaled_spec({"kind": "free_field", "modes": modes, "constants": consts, "lo": lo.tolist(),
                           "hi": hi.tolist()}, c, amplitude) for (modes, consts), c in zip(draws, scale)]
    return raw.scaled(scale), specs


def make_test_basis(O: Subdomain, N: int, size: int):
    """Deterministic boundary-vanishing test basis: single sine modes per component.

    Field j is sin(k pi (x - lo)/L) with k = j // N + 1 along the first axis
    (times first-mode sines along the remaining axes in higher dimension) in
    component j mod N, and zero in the others.  The basis is one
    :class:`SineModeMap` batch; iterating it yields the fields in order.
    """
    box = _region_box(O)
    if box is None:
        raise ValueError("test basis needs a box-shaped subdomain")
    n = O.box.dim
    trials = [[[(1.0, [j // N + 1] + [1] * (n - 1), [0.0] * n)] if a == j % N else [] for a in range(N)]
              for j in range(size)]
    return SineModeMap.from_trials(*box, trials, np.zeros((N, size)), np.ones((N, size)))
