"""Variation families: random and deterministic maps that vanish (or not) on a subdomain's boundary.

* ``free``      smooth fields vanishing on the subdomain boundary,
* ``rank_one``  scalar profile times a fixed direction, vanishing on the boundary,
* ``free_field`` smooth fields free on the boundary (projected by ``verify-normal``),
* ``sphere``    the deterministic family xi * (|y - x|^2 - rho^2) on balls.

A family's trials are drawn up front, one array per parameter: trial t is
factors[:, t] times a map.  The random families' maps are sums of at most
five sine modes (:class:`SineModeMap`, one batch for all trials); the ball's
and the box bump's map is one polynomial profile, parsed once
(:class:`_Profile`).  One rule scales a trial so that sup |D phi| over the
evaluable nodes of the subdomain is the amplitude: the maps' jets at the
nodes are taken once at scale 1, and the factors are multiplied by the
scale.  A trial's spec, and from it its expression source
(:func:`variation_source`), is built only for a witness.
"""

from __future__ import annotations

import functools
import itertools
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
_MAX_WAVE = 4  # wave numbers 1.._MAX_WAVE per axis of a random mode


def _f(x) -> str:
    """Render a number as a parseable literal (plain Python float repr)."""
    return repr(float(x))


class SineModeMap:
    """Sums of separable sine modes as coefficient arrays over per-axis tables, with exact jets.

    Axis i has a table of rows sin(k w_i t_i) and cos(k w_i t_i) for k = 1..K_i,
    interleaved (row 2(k - 1) is the sine), with t_i = x_i - lo_i and
    w_i = pi / (hi_i - lo_i).  Component a is::

        const_a + sum_r coeffs[a, r_0, ..., r_{n-1}] prod_i row_{r_i}(t_i)

    so a mode c prod_i sin(k_i w_i t_i + phase_i) is 2^n entries of the
    coefficient array (:meth:`from_modes`).  ``coeffs`` (N,) + B + (2 K_0, ...,
    2 K_{n-1}) and ``consts`` (N,) + B may carry batch axes B, one map per entry
    (the trials of a verdict); jets then have shape (N, ...) + B + (K,) at K
    nodes.  A batch along one axis is a sequence of its maps (``len``,
    ``batch[t]``, iteration), so a test basis stays one batch from
    construction to scoring.  The maps are evaluated at grid nodes only
    (:meth:`node_jets`), where they match the parsed form of
    :func:`variation_source` to rounding; that source evaluates a map anywhere.
    """

    def __init__(self, lo, hi, coeffs, consts):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.coeffs = coeffs  # (N,) + B + (2 K_0, ..., 2 K_{n-1})
        self.consts = consts  # (N,) + B
        self.N, self.n = coeffs.shape[0], self.lo.size

    @classmethod
    def from_modes(cls, lo, hi, coeffs, ks, phases, consts) -> "SineModeMap":
        """A batch along the second axis, one map per trial of the modes ``coeffs`` (T, N, M) (0 in
        an unused slot), wave numbers ``ks`` and ``phases`` (T, N, M, n), with ``consts`` (N, T).

        A mode enters by angle addition, sin(a + p) = cos p sin a + sin p cos a, on each axis;
        without phases only the sine rows are filled.  Axis i has K_i, its largest k_i, wave numbers.
        """
        (N, T), n = np.shape(consts), np.size(lo)
        K = np.max(ks, axis=(0, 1, 2), initial=1)
        # per mode and part (the choice of sine or cosine row on each axis): weight and rows
        weights, rows = coeffs[..., None], 2 * (ks[..., None, :] - 1)  # the sine rows only
        if np.any(phases):
            parts = np.array(list(itertools.product((0, 1), repeat=n)))  # 0 the sine, 1 the cosine row
            trig = np.stack([np.cos(phases), np.sin(phases)], axis=-1)  # (T, N, M, n, 2)
            weights, rows = weights * np.prod(trig[..., np.arange(n), parts], axis=-1), rows + parts
        index = np.ravel_multi_index((np.arange(N)[:, None, None], np.arange(T)[:, None, None, None],
                                      *np.moveaxis(rows, -1, 0)), (N, T, *2 * K))
        flat = np.bincount(index.ravel(), weights.ravel(), minlength=N * T * int(np.prod(2 * K)))
        return cls(lo, hi, flat.reshape((N, T, *2 * K)), consts)

    def __len__(self) -> int:
        """The number of maps in a batch along one axis; a single map has no entries."""
        if self.consts.ndim < 2:
            raise TypeError("a single sine map has no entries; only a batch of maps has a length")
        return self.consts.shape[-1]

    def __getitem__(self, t) -> "SineModeMap":
        """Map ``t`` of a batch along one axis, or the batch of the maps of a slice ``t``.  Past
        the end numpy's IndexError ends an iteration over the batch, which yields its maps in order."""
        len(self)  # refuses a single map
        return SineModeMap(self.lo, self.hi, self.coeffs[:, t], self.consts[:, t])

    def _jet_entries(self, modes_sum, order: int):
        """Value, gradient and Hessian from ``modes_sum(which)``, the mode sum whose
        axis i factor is derivative ``which[i]`` (0, 1 or 2) of the table rows."""
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

        Each axis gets its :func:`_axis_table` over the box that the nodes
        span.  The mode sum over that box for one combination of derivative
        orders is then one contraction of the coefficients per axis (sum
        factorisation), the axis with the most rows first.  Each is one
        matrix product per map, whose shape is set by the tables and not by
        the batch, so a map's jets are the same bits in any slice of its
        batch.  The sums are then picked out at the nodes.
        """
        n, lead = self.n, self.consts.shape  # lead = (N,) + B
        first = nodes.min(axis=0) if nodes.size else np.zeros(n, dtype=int)
        shape = tuple(nodes.max(axis=0) - first + 1) if nodes.size else (0,) * n
        rows = self.coeffs.shape[len(lead):]
        axes = sorted(range(n), key=lambda i: (-rows[i], -i))  # the most rows first: later products stay small
        tables = [_axis_table(box, i, int(first[i]), shape[i], float(self.lo[i]), float(self.hi[i]), rows[i], order)
                  for i in range(n)]
        # keyed by the derivative orders of the axes contracted, in ``axes`` order: lead + (rows of
        # the axes left) + (coordinates of the axes contracted, flat)
        sums = {(): self.coeffs[..., None]}
        at = np.ravel_multi_index([nodes[:, i] - first[i] for i in axes], [shape[i] for i in axes])

        def modes_sum(which):
            for step, i in enumerate(axes):  # not recursive: a closure cycle would outlive the call
                key = tuple(which[j] for j in axes[:step + 1])
                if key not in sums:
                    prev = np.moveaxis(sums[key[:-1]], len(lead) + sum(j < i for j in axes[step:]), -1)
                    product = prev.reshape(lead + (-1, rows[i])) @ tables[i][key[-1]]
                    sums[key] = product.reshape(prev.shape[:-2] + (prev.shape[-2] * shape[i],))
            return np.take(sums[key], at, axis=-1)

        value, gradient, hessian = self._jet_entries(modes_sum, order)
        value += self.consts[..., None]
        return Jet2(x=box.node_coords(nodes), value=value, gradient=gradient, hessian=hessian)


@functools.lru_cache(maxsize=16)
def _axis_table(box: DomainBox, i: int, first: int, count: int, lo: float, hi: float, rows: int, order: int):
    """The tables of axis i of the sine maps on [lo, hi], (order + 1, rows, count): per derivative
    order d, row 2(k - 1) is the d-th derivative of sin(k w (x_i - lo)) and row 2k - 1 that of the
    cosine, at the ``count`` grid coordinates from node ``first``.  They do not depend on the map,
    so the maps on one box share them, read-only."""
    w = (np.arange(1, rows // 2 + 1) * np.pi / (hi - lo))[:, None]
    arg = w * (box.axis_coords(i)[first:first + count] - lo)
    s, c = np.sin(arg), np.cos(arg)
    derivatives = ((s, c), (c * w, -(s * w)), (-(s * (w * w)), -(c * (w * w))))[:order + 1]
    tables = np.concatenate([np.concatenate(pair, axis=1) for pair in derivatives]).reshape(order + 1, rows, count)
    tables.flags.writeable = False
    return tables


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


def _profile_source(spec: dict) -> str:
    """The polynomial families' profile on the region that ``spec`` places: rho^2 - |x - center|^2
    on a ball, and on a box prod_i (x_i - lo_i)(hi_i - x_i), the sphere profile's box analogue."""
    if "center" in spec:
        sq = " - ".join(f"(x{i+1} - {_f(x0)})^2" for i, x0 in enumerate(spec["center"]))
        return f"{_f(spec['radius'] ** 2)} - {sq}"
    lo, hi = spec["lo"], spec["hi"]
    return " * ".join(f"((x{i+1} - {_f(lo[i])}) * ({_f(hi[i])} - x{i+1}))" for i in range(len(lo)))


def variation_source(spec: dict) -> list:
    """Expression source of each component of the variation that ``spec`` describes.

    The coefficients are multiplied by ``spec["scale"]``.  This is how a
    witness stays re-evaluable.
    """
    scale = spec["scale"]

    def sines(modes):
        return _sine_profile_source(spec["lo"], spec["hi"], [(c * scale, k, ph) for c, k, ph in modes])

    kind, profile = spec["kind"], spec.get("profile")
    if kind == "free":
        return [sines(modes) for modes in spec["modes"]]
    if kind == "free_field":
        # the constant carries no gradient, so it scales with the raw
        # amplitude rather than the gradient-normalising factor
        return [f"{_f(k * spec['amplitude'])} + " + sines(modes)
                for modes, k in zip(spec["modes"], spec["constants"])]
    if profile == "sine":
        g = sines(spec["modes"])
        return [f"{_f(x)} * ({g})" for x in spec["xi"]]
    prof = _profile_source(spec)  # free_ball, a rank-one sphere or box bump: c * (prof) per component
    return [f"{_f(c * scale)} * ({prof})" for c in spec["coeffs" if kind == "free_ball" else "xi"]]


class _SineDraw:
    """``T`` random sine maps of one family on O, drawn up front with one array call per parameter.

    Per map and component: 1 to _MAX_MODES modes, coefficients with |c| in [0.1, 1] (0 in the
    unused slots) and wave numbers in 1.._MAX_WAVE per axis.  A ``rank_one`` map is ``xi`` times
    one drawn profile.  A ``free_field`` lives on the box of O, or on the whole box for a ball
    subdomain; it adds phases in [0.2, 2.9] per axis and a constant in [-1, 1] per component,
    which enters the map as ``amplitude`` times its draw.  ``maps`` holds the T maps' modes,
    unscaled and without the constants, as one batch; trial t is ``factors[:, t]`` (all 1) times
    map t.  A map's spec is built only when asked for (:meth:`spec`).
    """

    def __init__(self, rng, kind: str, O: Subdomain, T: int, N: int, amplitude: float, xi=None):
        box = _region_box(O)
        self.lo, self.hi = box if box is not None else (np.asarray(O.box.lo), np.asarray(O.box.hi))
        self.kind, self.amplitude, self.xi = kind, amplitude, xi
        shape = (T, 1 if kind == "rank_one" else N, _MAX_MODES)
        used = np.arange(_MAX_MODES) < rng.integers(1, _MAX_MODES + 1, size=shape[:2] + (1,))
        count, n = int(used.sum()), O.box.dim  # each used mode is drawn once, in trial order
        coeffs = rng.uniform(-1.0, 1.0, size=count)
        self.coeffs = np.zeros(shape)  # an unused slot is a zero mode: coefficient 0, k = 1, no phase
        self.coeffs[used] = np.where(np.abs(coeffs) < 0.1, np.copysign(0.1, coeffs), coeffs)
        self.ks = np.ones(shape + (n,), dtype=int)
        self.ks[used] = rng.integers(1, _MAX_WAVE + 1, size=(count, n))
        self.phases = np.zeros(self.ks.shape)
        if kind == "free_field":
            self.phases[used] = rng.uniform(0.2, 2.9, size=(count, n))
        self.constants = rng.uniform(-1.0, 1.0, size=(N, T)) if kind == "free_field" else np.zeros((N, T))
        self.maps = SineModeMap.from_modes(self.lo, self.hi, self.coeffs if xi is None else self.coeffs * xi[:, None],
                                           self.ks, self.phases, np.zeros((N, T)))
        self.factors = np.ones((1, T))

    def spec(self, t: int, scale) -> dict:
        """The spec of map ``t`` with its modes scaled by ``scale``."""
        modes = [[(float(c), k.tolist(), p.tolist()) for c, k, p in zip(*comp) if c]
                 for comp in zip(self.coeffs[t], self.ks[t], self.phases[t])]
        if self.kind == "rank_one":
            spec = {"kind": "rank_one", "profile": "sine", "modes": modes[0], "xi": self.xi.tolist()}
        elif self.kind == "free_field":
            spec = {"kind": "free_field", "modes": modes, "constants": self.constants[:, t].tolist()}
        else:
            spec = {"kind": "free", "modes": modes}
        return dict(spec, lo=self.lo.tolist(), hi=self.hi.tolist(), scale=float(scale), amplitude=self.amplitude)

    def map(self, t: int, scale) -> SineModeMap:
        """Map ``t`` with its modes scaled by ``scale`` and its constants added."""
        return SineModeMap(self.lo, self.hi, self.maps.coeffs[:, t] * scale, self.amplitude * self.constants[:, t])


class _Profile:
    """``T`` variations of a polynomial family on O: trial t is ``factors[:, t]`` (N, T) times one
    profile (:func:`_profile_source`), parsed once as ``maps``.  A ``free_ball`` has drawn
    factors, a ``rank_one`` sphere or box bump one trial whose factors are the direction.  The
    parsed jets of a trial's source, c * (prof) per component, are c times the profile's.
    """

    def __init__(self, O: Subdomain, kind: str, factors: np.ndarray, amplitude: float):
        self.kind, self.factors, self.amplitude = kind, factors, amplitude
        self.where = ({"lo": np.asarray(O.region[1]).tolist(), "hi": np.asarray(O.region[2]).tolist()}
                      if O.region[0] == "box" else {"center": list(O.region[1]), "radius": O.region[2]})
        self.maps = ClosedFormMap.from_expressions([_profile_source(self.where)], O.box.dim)

    def spec(self, t: int, scale) -> dict:
        """The spec of trial ``t`` with its factors scaled by ``scale``."""
        c = self.factors[:, t].tolist()
        head = ({"kind": "free_ball", "coeffs": c} if self.kind == "free_ball" else
                {"kind": "rank_one", "profile": "box_bump" if "lo" in self.where else "sphere", "xi": c})
        return dict(head, **self.where, scale=float(scale), amplitude=self.amplitude)

    def map(self, t: int, scale) -> ClosedFormMap:
        """Trial ``t`` with its factors scaled by ``scale``: the map its spec's source parses to."""
        return ClosedFormMap.from_expressions(variation_source(self.spec(t, scale)), self.maps.n)


def _scale_for(gradient: np.ndarray, amplitude: float) -> np.ndarray:
    """Factor making sup |D phi| over its node ``gradient`` (N, n) + B + (K,) the amplitude (0 if flat), per map."""
    raw = np.sqrt(np.max(np.sum(gradient * gradient, axis=(0, 1)), axis=-1))
    return np.divide(amplitude, raw, out=np.zeros_like(raw), where=raw != 0.0)


def _variation(draw, O: Subdomain):
    """The one trial of ``draw``, scaled to sup |D phi| = amplitude at the evaluable nodes of O, and its spec."""
    unit = jets_at_nodes(draw.maps if isinstance(draw, _Profile) else draw.maps[0], O.box, O.evaluable_nodes(), 1)
    scale = _scale_for(draw.factors[:, 0, None, None] * unit.gradient, draw.amplitude)
    return draw.map(0, scale), draw.spec(0, scale)


def make_free_variation(O: Subdomain, N: int, rng, amplitude: float = 1.0):
    """Random smooth variation vanishing on the subdomain boundary."""
    if _region_box(O) is None:
        return _variation(_Profile(O, "free_ball", rng.uniform(-1.0, 1.0, size=(N, 1)), amplitude), O)
    return _variation(_SineDraw(rng, "free", O, 1, N, amplitude), O)


def make_rank_one_variation(O: Subdomain, xi: np.ndarray, rng, amplitude: float = 1.0,
                            deterministic: bool = False):
    """Scalar profile times the direction xi, profile vanishing on the boundary."""
    xi = np.asarray(xi, dtype=float)
    if np.linalg.norm(xi) == 0.0:
        raise ValueError("rank-one direction must be nonzero")
    if _region_box(O) is not None and not deterministic:
        return _variation(_SineDraw(rng, "rank_one", O, 1, xi.size, amplitude, xi), O)
    return _variation(_Profile(O, "rank_one", xi[:, None], amplitude), O)


def make_sphere_variation(xi: np.ndarray, center: np.ndarray, radius: float, n: int) -> ClosedFormMap:
    """The deterministic variation xi * (|y - center|^2 - radius^2)."""
    xi = np.asarray(xi, dtype=float)
    center = np.asarray(center, dtype=float)
    sq = " + ".join(f"(x{i+1} - {_f(center[i])})^2" for i in range(n))
    sources = [f"{_f(c)} * ({sq} - {_f(radius**2)})" for c in xi]
    return ClosedFormMap.from_expressions(sources, n)


def make_free_field(O: Subdomain, N: int, rng, amplitude: float = 1.0):
    """Random smooth field with no boundary condition, modes and a constant per component.

    A field free on the boundary may shift the map values outright, which matters for
    value-dependent densities; the gradient normalisation scales only the modes.
    """
    return _variation(_SineDraw(rng, "free_field", O, 1, N, amplitude), O)


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
    j = np.arange(size)
    ks = np.ones((size, 1, 1, O.box.dim), dtype=int)
    ks[:, 0, 0, 0] = j // N + 1
    coeffs = 1.0 * (j[:, None, None] % N == np.arange(N)[:, None])  # (size, N, 1): one-hot
    return SineModeMap.from_modes(*box, coeffs, ks, np.zeros(ks.shape), np.zeros((N, size)))
