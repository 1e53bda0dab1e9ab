"""The stencil table of ``axis_derivative`` against a per-node reference.

The reference below is the per-node selection that the table replaced:
clean whole-array formulas, then every node whose default stencil reaches
a masked node is recomputed in a Python loop (default stencil, else forward
one-sided, else backward one-sided, else NaN), summing its terms in
ascending offset order.  The NaN pattern, and with it ``GridMap.jet_valid``
and the singular pre-scan, must match exactly; unmasked grids must match
bit for bit; masked grids may differ only by the rounding of the reordered
sums.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from linfvar import DomainBox, GridMap
from linfvar.problem import axis_derivative


def _d1_stencil(M, i):
    if 0 < i < M - 1:
        return (i - 1, i, i + 1), (-0.5, 0.0, 0.5)
    if i == 0:
        return (0, 1, 2), (-1.5, 2.0, -0.5)
    return (M - 3, M - 2, M - 1), (0.5, -2.0, 1.5)


def _d2_stencil(M, i):
    if 0 < i < M - 1:
        return (i - 1, i, i + 1), (1.0, -2.0, 1.0)
    if M == 3:
        return (0, 1, 2), (1.0, -2.0, 1.0)
    if i == 0:
        return (0, 1, 2, 3), (2.0, -5.0, 4.0, -1.0)
    return (M - 4, M - 3, M - 2, M - 1), (-1.0, 4.0, -5.0, 2.0)


_FALLBACK_D1 = {
    "fwd": ((0, 1, 2), (-1.5, 2.0, -0.5)),
    "bwd": ((-2, -1, 0), (0.5, -2.0, 1.5)),
}
_FALLBACK_D2 = {
    "fwd": ((0, 1, 2, 3), (2.0, -5.0, 4.0, -1.0)),
    "bwd": ((-3, -2, -1, 0), (-1.0, 4.0, -5.0, 2.0)),
}


def reference_axis_derivative(values, axis, h, order=1, valid=None, grid_ndim=None):
    values = np.asarray(values, dtype=float)
    if grid_ndim is None:
        grid_ndim = values.ndim if valid is None else valid.ndim
    gaxis = values.ndim - grid_ndim + axis
    v = np.moveaxis(values, gaxis, -1)
    M = v.shape[-1]
    out = np.empty_like(v)
    if order == 1:
        out[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2 * h)
        out[..., 0] = (-1.5 * v[..., 0] + 2.0 * v[..., 1] - 0.5 * v[..., 2]) / h
        out[..., -1] = (1.5 * v[..., -1] - 2.0 * v[..., -2] + 0.5 * v[..., -3]) / h
    else:
        out[..., 1:-1] = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / h ** 2
        if M == 3:
            out[..., 0] = out[..., 1]
            out[..., -1] = out[..., 1]
        else:
            out[..., 0] = (2.0 * v[..., 0] - 5.0 * v[..., 1] + 4.0 * v[..., 2] - v[..., 3]) / h ** 2
            out[..., -1] = (2.0 * v[..., -1] - 5.0 * v[..., -2] + 4.0 * v[..., -3] - v[..., -4]) / h ** 2
    result = np.moveaxis(out, -1, gaxis)
    if valid is not None and not valid.all():
        result = _fix_invalid(values, result, axis, h, order, valid, grid_ndim)
    return result


def _fix_invalid(values, result, axis, h, order, valid, grid_ndim):
    bad = ~valid
    polluted = bad.copy()
    for shift in range(1, 4):
        polluted |= np.roll(bad, shift, axis=axis) | np.roll(bad, -shift, axis=axis)
    fallbacks = _FALLBACK_D1 if order == 1 else _FALLBACK_D2
    M = valid.shape[axis]
    lead = values.shape[: values.ndim - grid_ndim]

    def stencil_values(node, idxs, coeffs):
        acc = np.zeros(lead)
        for j, c in zip(idxs, coeffs):
            src = tuple(node[a] if a != axis else j for a in range(grid_ndim))
            acc = acc + c * values[(Ellipsis,) + src]
        return acc / (h if order == 1 else h ** 2)

    def all_valid(node, idxs):
        return all(
            0 <= j < M and valid[tuple(node[a] if a != axis else j for a in range(grid_ndim))]
            for j in idxs
        )

    for node in np.argwhere(polluted & valid):
        i = node[axis]
        offs, coeffs = (_d1_stencil if order == 1 else _d2_stencil)(M, i)
        chosen = (list(offs), coeffs) if all_valid(node, offs) else None
        if chosen is None:
            for kind in ("fwd", "bwd"):
                offs, coeffs = fallbacks[kind]
                idxs = [i + o for o in offs]
                if all_valid(node, idxs):
                    chosen = (idxs, coeffs)
                    break
        tgt = (Ellipsis,) + tuple(node)
        result[tgt] = stencil_values(node, *chosen) if chosen else np.nan
    for node in np.argwhere(bad):
        result[(Ellipsis,) + tuple(node)] = np.nan
    return result


MAX_COEFF = {1: 2.0, 2: 5.0}


@st.composite
def stencil_cases(draw):
    grid = tuple(draw(st.lists(st.integers(3, 8), min_size=1, max_size=3)))
    lead = tuple(draw(st.lists(st.integers(1, 2), min_size=0, max_size=2)))
    order = draw(st.sampled_from([1, 2]))
    axis = draw(st.integers(0, len(grid) - 1))
    h = draw(st.sampled_from([0.125, 0.1, 0.37, 1.0, 2.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["none", "all", "random", "random"]))
    if kind == "none":
        valid = None
    elif kind == "all":
        valid = np.ones(grid, dtype=bool)
    else:
        valid = rng.random(grid) >= draw(st.sampled_from([0.05, 0.15, 0.3, 0.5]))
    values = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e4])), size=lead + grid)
    if valid is not None:
        # what masked nodes hold in practice: NaN from a failed sample, inf, or a stale number
        values[..., ~valid] = draw(st.sampled_from([np.nan, np.inf, -np.inf, 7.0]))
    return values, axis, h, order, valid, len(grid)


@settings(max_examples=400, deadline=None)
@given(stencil_cases())
def test_table_matches_per_node_reference(case):
    values, axis, h, order, valid, grid_ndim = case
    got = axis_derivative(values, axis, h, order=order, valid=valid, grid_ndim=grid_ndim)
    with np.errstate(invalid="ignore", over="ignore"):  # the reference computes with the fills
        want = reference_axis_derivative(values, axis, h, order=order, valid=valid, grid_ndim=grid_ndim)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    if valid is None or valid.all():
        assert got.tobytes() == want.tobytes()
        return
    finite = ~np.isnan(want)
    vmax = np.max(np.abs(values[..., valid])) if valid.any() else 0.0
    bound = 2e-15 * vmax * MAX_COEFF[order] / h ** order
    assert np.all(np.abs(got[finite] - want[finite]) <= bound)


def test_three_node_axis_faces_take_the_middle_second_difference():
    v = np.array([[1.0, 4.0, 2.0], [0.0, 1.0, 4.0]])
    d2 = axis_derivative(v, 1, 0.5, order=2)
    assert np.array_equal(d2, np.array([[-20.0] * 3, [8.0] * 3]))
    # a masked middle or face node leaves no 3-node stencil on that line
    valid = np.array([[True, True, True], [False, True, True]])
    d2 = axis_derivative(v, 1, 0.5, order=2, valid=valid)
    assert np.array_equal(d2[0], [-20.0] * 3) and np.isnan(d2[1]).all()


def test_masked_2d_grid_jet_valid_matches_reference():
    box = DomainBox((0.0, 0.0), (1.0, 1.0), (9, 9))
    x1, x2 = np.meshgrid(box.axis_coords(0), box.axis_coords(1), indexing="ij")
    values = np.stack([np.sin(x1 + x2), x1 * x2])
    valid = np.ones(box.shape, dtype=bool)
    valid[4, 4] = valid[0, 2] = valid[6, 7] = valid[7, 5] = False
    values[:, ~valid] = np.nan
    gm = GridMap(box, values)
    ref_ok = valid.copy()
    h = box.spacing
    d1 = [reference_axis_derivative(values, i, h[i], 1, valid, 2) for i in range(2)]
    d2 = [reference_axis_derivative(values, i, h[i], 2, valid, 2) for i in range(2)]
    mixed = reference_axis_derivative(d1[0], 1, h[1], 1, valid, 2)
    for d in d1 + d2 + [mixed]:
        ref_ok &= np.isfinite(d).all(axis=0)
    assert np.array_equal(gm.jet_valid, ref_ok)
    assert not gm.jet_valid.all()
