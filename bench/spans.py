"""Span recorder for the traced benchmark run.

``SpanRecorder.install`` wraps the public functions of each ``linfvar``
layer at every module binding that refers to them: helpers such as
``map_jet`` or ``eval_jet2`` are imported by name into other modules, so
patching only the defining module would miss most calls.  ``uninstall``
puts every original back.  The library's own files are never changed.

A span is ``[name, layer, parent, call, start, end, attrs]``: ``parent``
is the index of the enclosing span (-1 for a root) and every span under
one root shares the ``call`` id, so all spans of one CLI call share an id.
Spans stay in memory; the caller writes them out when it is done.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

import numpy as np

NAME, LAYER, PARENT, CALL, START, END, ATTRS = range(7)


def _points(x) -> int:
    """Batch size of a point argument: (dim,) is one point, (dim,) + S is prod(S)."""
    shape = np.shape(x)
    return int(np.prod(shape[1:])) if len(shape) > 1 else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _binding_points(args, kwargs):
    binding = _arg(args, kwargs, 1, "binding")
    shapes = [np.shape(v) for v in binding.values()]
    return {"points": int(np.prod(np.broadcast_shapes(*shapes))) if shapes else 1}


def _nodes_points(pos, name):
    return lambda args, kwargs: {"points": len(np.atleast_2d(_arg(args, kwargs, pos, name)))}


def _x_points(args, kwargs):
    return {"points": _points(_arg(args, kwargs, 1, "x"))}


def _proj_samples(args, kwargs):
    pts = kwargs.get("sample_points")
    if pts is not None:
        return {"samples": len(np.atleast_2d(pts))}
    samples = _arg(args, kwargs, 3, "samples")
    if samples is None:  # the library's default sample count by dimension
        samples = {1: 8, 2: 16}.get(len(np.atleast_1d(_arg(args, kwargs, 1, "x"))), 32)
    return {"samples": int(samples)}


def _file_bytes(pos, name):
    return lambda args, kwargs: {"bytes": os.path.getsize(_arg(args, kwargs, pos, name))}


# Public functions per layer, "Class.method" for methods.  Attribute
# extractors run after the wrapped call returns, outside its span, and
# only when it returned.
TARGETS = {
    "exprlang": {"parse": None, "eval_jet2": _binding_points, "eval_value": None, "to_source": None},
    "problem": {
        "map_jet": _x_points,
        "jets_at_nodes": _nodes_points(2, "nodes"),
        "ClosedFormMap.jet2": _x_points,
        "GridMap.jet2": _x_points,
        "GridMap.jet_at_nodes": _nodes_points(1, "nodes"),
        "ClosedFormMap.from_expressions": None,
        "ClosedFormMap.sample": None,
        "hamiltonian_jet": None,
        "hamiltonian_value": None,
        "axis_derivative": None,
        "prescan_singularities": None,
        "load_problem": None,
        "problem_digest": None,
        "read_grid_csv": _file_bytes(0, "path"),
        "write_grid_csv": _file_bytes(0, "path"),
    },
    "linalg": {"proj_range_complement": None, "reduced_nullspace_proj": _proj_samples,
               "ball_sample_points": None},
    "energy": {"sup_energy": None, "argmax_set": None, "danskin_derivative": None,
               "variation_density": None, "convex_min_check": None},
    "operators": {"aronsson_residual": None, "residual_field": None, "composite_gradient": None,
                  "infinity_laplacian_residual": None, "split_residuals": None},
    "flow": {"integrate_flow": None, "default_time_step": None, "exit_time_bound": None,
             "check_structural_condition": None, "verify_maxmin": None,
             "write_trajectory_csv": None},
    "varcheck": {"absolute_minimiser_test": None, "rank_one_test": None,
                 "normal_variation_test": None, "sphere_family_scan": None,
                 "stationarity_scan": None, "measure_divergence_residual": None,
                 "make_free_variation": None, "make_rank_one_variation": None,
                 "make_sphere_variation": None, "make_free_field": None, "make_test_basis": None},
    "lp_approx": {"lp_minimize": None, "p_continuation": None,
                  "boundary_values_from_map": None, "constant_fill_init": None},
    "cli": {"run": None},
}

JET_ENTRIES = frozenset({"problem.map_jet", "problem.jets_at_nodes", "problem.ClosedFormMap.jet2",
                         "problem.GridMap.jet2", "problem.GridMap.jet_at_nodes"})
VARIATION_MAKERS = frozenset({"varcheck.make_free_variation", "varcheck.make_rank_one_variation",
                                "varcheck.make_sphere_variation", "varcheck.make_free_field"})


class SpanRecorder:
    """Wraps layer functions in place and records one span per call."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self._stack = []
        self._call = -1
        self._restore = []

    def _wrap(self, fn, name, layer, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                self._call += 1
            span = [name, layer, stack[-1] if stack else -1, self._call, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if attrs is not None:  # only for calls that returned
                span[ATTRS] = attrs(args, kwargs)
            return result

        return wrapper

    def install(self, modules=None):
        """Wrap every target at every binding in ``modules`` (default: loaded linfvar modules).

        Returns the names of targets that were not found, so a renamed
        function reads as a zero count rather than a crash.
        """
        if modules is None:
            modules = [m for k, m in sorted(sys.modules.items())
                       if m is not None and (k == "linfvar" or k.startswith("linfvar."))]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        missing = []
        for layer, funcs in self.targets.items():
            home = by_name.get(layer)
            for qual, attrs in funcs.items():
                owner_name, _, attr = qual.rpartition(".")
                owner = home
                if home is not None and owner_name:
                    owner = getattr(home, owner_name, None)
                original = None if owner is None else vars(owner).get(attr)
                if original is None:
                    missing.append(f"{layer}.{qual}")
                    continue
                if isinstance(original, (classmethod, staticmethod)):
                    wrapper = type(original)(
                        self._wrap(original.__func__, f"{layer}.{qual}", layer, attrs))
                else:
                    wrapper = self._wrap(original, f"{layer}.{qual}", layer, attrs)
                if owner_name:  # a method: the class attribute is its only binding
                    self._patch(owner, attr, wrapper, original)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper, original)
        return missing

    def _patch(self, owner, key, wrapper, original):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()  # cleared in place: the installed wrappers hold this list
        self._call = -1
        return spans


def self_times(spans) -> np.ndarray:
    """Span duration minus the part of its interval that its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = np.empty(len(spans))
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[i] = (end - start) - covered
    return out
