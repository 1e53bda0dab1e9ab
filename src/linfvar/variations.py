"""Variation families: random and deterministic maps that vanish (or not) on a subdomain's boundary.

* ``free``      smooth fields vanishing on the subdomain boundary,
* ``rank_one``  scalar profile times a fixed direction, vanishing on the boundary,
* ``free_field`` smooth fields free on the boundary (projected by ``verify-normal``),
* ``sphere``    the deterministic family xi * (|y - x|^2 - rho^2) on balls.

Random variations are sums of at most five separable sine modes with
coefficients scaled so that the sup norm of the variation gradient matches
the requested amplitude; everything is seeded and reproducible.  They are
numeric maps (:class:`SineModeMap`), which may hold a batch of maps so
that a verdict of :mod:`linfvar.varcheck` scores many trials at once; the
deterministic ball and box bumps are polynomial expressions.  Every
family's expression source follows from its spec (:func:`variation_source`).
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
    zero coefficients to one length M.  The parameter arrays may carry
    trailing batch axes B, one map per entry (the trials of a verdict);
    jets then have shape (N, ...) + B + S for points of batch shape S.
    Terms are multiplied and summed in the order the expression from
    :func:`variation_source` evaluates them, so values and gradients match
    its parsed form up to the signs of zeros.
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
    def from_modes(cls, lo, hi, comp_modes, consts=None, factors=None) -> "SineModeMap":
        """One map from a list, per component, of (coeff, ks, phases) modes."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        N, n = len(comp_modes), lo.size
        M = max(1, max(len(modes) for modes in comp_modes))
        coeffs, ks, phases = np.zeros((N, M)), np.zeros((N, M, n)), np.zeros((N, M, n))
        for a, modes in enumerate(comp_modes):
            for m, (c, k, ph) in enumerate(modes):
                coeffs[a, m], ks[a, m], phases[a, m] = c, k, ph
        consts = np.zeros(N) if consts is None else np.asarray(consts, dtype=float)
        factors = np.ones(N) if factors is None else np.asarray(factors, dtype=float)
        return cls(lo, hi, coeffs, ks * np.pi / (hi - lo), phases, consts, factors)

    @classmethod
    def stack(cls, maps) -> "SineModeMap":
        """The single maps ``maps`` (same box and N) as one batch along a new last axis."""
        first, T = maps[0], len(maps)
        N, n = first.N, first.n
        M = max(m.coeffs.shape[1] for m in maps)
        coeffs, freqs, phases = np.zeros((N, M, T)), np.zeros((N, M, n, T)), np.zeros((N, M, n, T))
        consts, factors = np.empty((N, T)), np.empty((N, T))
        for t, m in enumerate(maps):
            k = m.coeffs.shape[1]
            coeffs[:, :k, t], freqs[:, :k, :, t], phases[:, :k, :, t] = m.coeffs, m.freqs, m.phases
            consts[:, t], factors[:, t] = m.consts, m.factors
        return cls(first.lo, first.hi, coeffs, freqs, phases, consts, factors)

    def scaled(self, scale) -> "SineModeMap":
        """The map with its mode coefficients (not its constants) times ``scale`` (shape B)."""
        return SineModeMap(self.lo, self.hi, self.coeffs * scale, self.freqs, self.phases,
                           self.consts, self.factors)

    def _axis_factors(self, i: int, t: np.ndarray, order: int):
        """sin, its x_i-derivative and (order 2) second derivative for each mode, at x_i - lo_i = t."""
        f = self.freqs[:, :, i]
        f = f.reshape(f.shape + (1,) * t.ndim)
        arg = f * t + self.phases[:, :, i].reshape(f.shape)
        s = np.sin(arg)
        return s, np.cos(arg) * f, -(s * (f * f)) if order >= 2 else None

    def _assemble(self, x, parts, order: int) -> Jet2:
        """Jet2 from the per-axis (sin, d, d2) factors of every mode."""
        n = self.n
        pad = (1,) * (parts[0][0].ndim - self.coeffs.ndim)  # the point axes
        coeffs = self.coeffs.reshape(self.coeffs.shape + pad)
        factors = self.factors.reshape(self.factors.shape + pad)

        def modes_sum(which, start=0.0):
            # coeff * f_1 * ... * f_n per mode, left to right, added mode by mode
            acc = start
            for m in range(coeffs.shape[1]):
                term = coeffs[:, m]
                for i in range(n):
                    term = term * parts[i][which[i]][:, m]
                acc = acc + term
            return factors * acc

        value = modes_sum([0] * n, self.consts.reshape(self.consts.shape + pad))
        gradient = np.stack([modes_sum([int(i == j) for i in range(n)]) for j in range(n)], axis=1)
        hessian = None
        if order >= 2:
            hessian = np.empty((self.N, n, n) + value.shape[1:])
            for j in range(n):
                for k in range(j, n):
                    hessian[:, j, k] = hessian[:, k, j] = modes_sum(
                        [(i == j) + (i == k) for i in range(n)])
        return Jet2(x=x, value=value, gradient=gradient, hessian=hessian)

    def jet2(self, x, order: int = 2, on_singularity: str = "raise") -> Jet2:
        """Exact jet at a point (n,) or point batch (n,) + S; sine maps have no singular set."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n:
            raise ValueError(f"point has dimension {x.shape[0]}, map expects {self.n}")
        parts = [self._axis_factors(i, x[i] - self.lo[i], order) for i in range(self.n)]
        return self._assemble(x, parts, order)

    def node_jets(self, box: DomainBox, nodes: np.ndarray, order: int = 2) -> Jet2:
        """Jets at grid nodes (M, dim).

        The sines are taken once per grid coordinate of each axis, the modes
        are summed on the tensor grid that the nodes span, and the nodes are
        then picked out of it.
        """
        n, h = self.n, box.spacing
        first = nodes.min(axis=0) if nodes.size else np.zeros(n, dtype=int)
        shape = tuple(nodes.max(axis=0) - first + 1) if nodes.size else (0,) * n
        parts = []
        for i in range(n):
            # node coordinates as DomainBox.node_coords forms them: lo + index * h
            t = (box.lo[i] + np.arange(first[i], first[i] + shape[i]) * h[i]) - self.lo[i]
            parts.append(self._axis_factors(i, t.reshape([-1 if j == i else 1 for j in range(n)]), order))
        jet = self._assemble(None, parts, order)
        flat = np.ravel_multi_index(tuple((nodes - first).T), shape)

        def pick(a):
            return None if a is None else a.reshape(a.shape[:a.ndim - n] + (-1,))[..., flat]

        return Jet2(x=box.node_coords(nodes), value=pick(jet.value), gradient=pick(jet.gradient),
                    hessian=pick(jet.hessian))


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


def _scale_for(phi, O: Subdomain, nodes: np.ndarray, amplitude: float) -> np.ndarray:
    """Factor making sup |D phi| over the nodes equal ``amplitude`` (0 for a flat phi), per map."""
    jets = jets_at_nodes(phi, O.box, nodes, order=1)
    raw = np.max(np.linalg.norm(jets.gradient, axis=(0, 1)), axis=-1)
    return np.divide(amplitude, raw, out=np.zeros_like(raw), where=raw != 0.0)


def _scaled_spec(spec: dict, scale, amplitude: float) -> dict:
    return dict(spec, scale=float(scale), amplitude=amplitude)


def _polynomial_variation(spec: dict, O: Subdomain, amplitude: float):
    """A polynomial family's map and spec, built from its source at scale 1 and at the final scale."""
    n = O.box.dim
    raw = ClosedFormMap.from_expressions(variation_source(dict(spec, scale=1.0)), n)
    spec = _scaled_spec(spec, _scale_for(raw, O, O.evaluable_nodes(), amplitude), amplitude)
    return ClosedFormMap.from_expressions(variation_source(spec), n), spec


def _sine_variation(raw: SineModeMap, spec: dict, O: Subdomain, amplitude: float):
    scale = _scale_for(raw, O, O.evaluable_nodes(), amplitude)
    return raw.scaled(scale), _scaled_spec(spec, scale, amplitude)


def _draw_free(O: Subdomain, N: int, rng):
    """Unscaled free sine variation on the box subdomain and its spec."""
    lo, hi = _region_box(O)
    comp_modes = [_draw_modes(rng, O.box.dim, with_phase=False) for _ in range(N)]
    spec = {"kind": "free", "modes": comp_modes, "lo": lo.tolist(), "hi": hi.tolist()}
    return SineModeMap.from_modes(lo, hi, comp_modes), spec


def _draw_rank_one(O: Subdomain, xi: np.ndarray, rng):
    """Unscaled xi times a sine profile on the box subdomain and its spec."""
    lo, hi = _region_box(O)
    modes = _draw_modes(rng, O.box.dim, with_phase=False)
    spec = {"kind": "rank_one", "profile": "sine", "modes": modes, "xi": xi.tolist(),
            "lo": lo.tolist(), "hi": hi.tolist()}
    return SineModeMap.from_modes(lo, hi, [modes] * xi.shape[0], factors=xi), spec


def make_free_variation(O: Subdomain, N: int, rng, amplitude: float = 1.0):
    """Random smooth variation vanishing on the subdomain boundary."""
    if _region_box(O) is None:
        return _ball_variation(O, N, rng, amplitude)
    return _sine_variation(*_draw_free(O, N, rng), O, amplitude)


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
        return _sine_variation(*_draw_rank_one(O, xi, rng), O, amplitude)
    return _polynomial_variation(spec, O, amplitude)


def make_sphere_variation(xi: np.ndarray, center: np.ndarray, radius: float, n: int) -> ClosedFormMap:
    """The deterministic variation xi * (|y - center|^2 - radius^2)."""
    xi = np.asarray(xi, dtype=float)
    center = np.asarray(center, dtype=float)
    sq = " + ".join(f"(x{i+1} - {_f(center[i])})^2" for i in range(n))
    sources = [f"{_f(c)} * ({sq} - {_f(radius**2)})" for c in xi]
    return ClosedFormMap.from_expressions(sources, n)


def make_free_field(O: Subdomain, N: int, rng, amplitude: float = 1.0):
    """Random smooth field with no boundary condition (for normal variations).

    Includes a constant term per component: fields free on the boundary may
    shift the map values outright, which matters for value-dependent
    densities.  The constant is ``amplitude`` times its draw; the gradient
    normalisation scales only the modes.
    """
    n = O.box.dim
    box = _region_box(O)
    lo, hi = (np.asarray(O.box.lo), np.asarray(O.box.hi)) if box is None else box
    comp_modes = [_draw_modes(rng, n, with_phase=True) for _ in range(N)]
    comp_const = [float(rng.uniform(-1.0, 1.0)) for _ in range(N)]
    raw = SineModeMap.from_modes(lo, hi, comp_modes, consts=np.asarray(comp_const) * amplitude)
    spec = {"kind": "free_field", "modes": comp_modes, "constants": comp_const,
            "lo": lo.tolist(), "hi": hi.tolist()}
    return _sine_variation(raw, spec, O, amplitude)


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
        comp_modes = [[] for _ in range(N)]
        comp_modes[a] = [(1.0, [k] + [1] * (n - 1), [0.0] * n)]
        basis.append(SineModeMap.from_modes(lo, hi, comp_modes))
        a += 1
        if a == N:
            a = 0
            k += 1
    return basis
