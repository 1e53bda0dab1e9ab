"""``axis_derivative`` against a frozen copy of its former stencil selection.

The frozen copy below picks each node's stencil with a per-stencil mask
pass: a ``todo`` copy, one AND per stencil node, a narrowing scan and a
masked ``copyto``.  The function under test decides the same first-fit
stencil from runs of valid nodes along the axis.  Both sum the same terms
in the same order, so every output must agree bit for bit, NaN pattern
included, on clean and on randomly masked grids.
"""

from typing import Optional

import numpy as np
import pytest

from linfvar.problem import _STENCILS, axis_derivative


def frozen_axis_derivative(values: np.ndarray, axis: int, h: float, order: int = 1,
                           valid: Optional[np.ndarray] = None,
                           grid_ndim: Optional[int] = None) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if grid_ndim is None:
        grid_ndim = values.ndim if valid is None else valid.ndim
    gaxis = values.ndim - grid_ndim + axis
    v = np.moveaxis(values, gaxis, -1)
    M = v.shape[-1]
    if valid is None:
        ok = np.ones(v.shape[v.ndim - grid_ndim:], dtype=bool)
    else:
        ok = np.moveaxis(np.asarray(valid, dtype=bool), axis, -1)
        v = np.where(ok, v, 0.0)
    out = np.full(v.shape, np.nan)
    todo = ok.copy()
    for stencil in _STENCILS[order]:
        offsets = [o for o, _ in stencil]
        lo, hi = -min(offsets), M - max(offsets)
        fits = todo[..., lo:hi].copy()
        for o in offsets:
            fits &= ok[..., lo + o:hi + o]
        cols = np.flatnonzero(fits.any(axis=tuple(range(fits.ndim - 1))))
        if not cols.size:
            continue
        fits = fits[..., cols[0]:cols[-1] + 1]
        lo, hi = lo + cols[0], lo + cols[-1] + 1
        (o, c), *terms = stencil
        acc = c * v[..., lo + o:hi + o]
        for o, c in terms:
            acc = acc + c * v[..., lo + o:hi + o]
        np.copyto(out[..., lo:hi], acc / h ** order, where=fits)
        todo[..., lo:hi] &= ~fits
    if order == 2 and M == 3:
        out[..., ::2] = np.where(ok[..., ::2], out[..., 1:2], np.nan)
    return np.moveaxis(out, -1, gaxis)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
def test_matches_frozen_selection_on_random_masks(n, order, lead):
    rng = np.random.default_rng(100 * n + 10 * order + len(lead))
    for _ in range(40):
        shape = tuple(int(m) for m in rng.integers(3, 10 if n < 3 else 7, size=n))
        values = rng.normal(size=lead + shape) * 10.0 ** rng.integers(-3, 4)
        h = float(rng.uniform(0.01, 1.0))
        # masks from clean to mostly masked, so runs of every length occur
        valid = rng.random(shape) >= rng.choice([0.0, 0.1, 0.3, 0.6])
        for axis in range(n):
            got = axis_derivative(values, axis, h, order=order, valid=valid, grid_ndim=n)
            want = frozen_axis_derivative(values, axis, h, order=order, valid=valid, grid_ndim=n)
            assert _same_bits(got, want), (shape, axis)
            got = axis_derivative(values, axis, h, order=order, grid_ndim=n)
            want = frozen_axis_derivative(values, axis, h, order=order, grid_ndim=n)
            assert _same_bits(got, want), (shape, axis)


@pytest.mark.parametrize("order", [1, 2])
def test_matches_frozen_selection_without_grid_ndim(order):
    # grid_ndim defaults to valid.ndim, or to all axes of values
    rng = np.random.default_rng(order)
    values = rng.normal(size=(5, 6, 4))
    valid = rng.random((5, 6, 4)) > 0.2
    for axis in range(3):
        assert _same_bits(axis_derivative(values, axis, 0.5, order=order, valid=valid),
                          frozen_axis_derivative(values, axis, 0.5, order=order, valid=valid))
        assert _same_bits(axis_derivative(values, axis, 0.5, order=order),
                          frozen_axis_derivative(values, axis, 0.5, order=order))
