"""Tests of the span recorder and the self-time arithmetic.

    python3 -m pytest -q bench/test_spans.py
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans as sp  # noqa: E402


def _span(name, parent, start, end):
    return [name, name.split(".")[0], parent, 0, start, end, None]


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        _span("a.root", -1, 0.0, 10.0),
        _span("b.x", 0, 1.0, 3.0),
        _span("b.y", 0, 2.0, 4.0),    # overlaps b.x: [1, 4] is covered once
        _span("c.z", 0, 9.0, 12.0),   # runs past the parent: only [9, 10] counts
        _span("c.w", 1, 1.5, 2.5),    # grandchild: charged to b.x, not to the root
        _span("a.leaf", -1, 20.0, 21.0),
    ]
    assert sp.self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0, 1.0])


def test_layer_self_times_add_up_to_root_time():
    spans = [
        _span("cli.run", -1, 0.0, 8.0),
        _span("problem.map_jet", 0, 1.0, 5.0),
        _span("exprlang.eval_jet2", 1, 2.0, 4.0),
        _span("problem.map_jet", 0, 6.0, 7.0),
    ]
    own = sp.self_times(spans)
    by_layer = {}
    for span, t in zip(spans, own):
        by_layer[span[sp.LAYER]] = by_layer.get(span[sp.LAYER], 0.0) + t
    assert by_layer == pytest.approx({"cli": 3.0, "problem": 3.0, "exprlang": 2.0})
    assert sum(own) == pytest.approx(8.0)


def _fake_package():
    alpha = types.ModuleType("fake.alpha")
    exec("def leaf(x):\n    return x + 1\n", alpha.__dict__)
    beta = types.ModuleType("fake.beta")
    beta.leaf = alpha.leaf  # imported by name, as linfvar modules do
    exec("def outer(x):\n    return leaf(x) * 2\n"
         "class Box:\n    def get(self, x):\n        return outer(x)\n", beta.__dict__)
    return alpha, beta


def test_install_wraps_every_binding_and_uninstall_restores():
    alpha, beta = _fake_package()
    originals = (alpha.leaf, beta.leaf, beta.outer, beta.Box.__dict__["get"])
    rec = sp.SpanRecorder(targets={"alpha": {"leaf": None, "gone": None},
                                   "beta": {"outer": None, "Box.get": None}})
    missing = rec.install([alpha, beta])
    assert missing == ["alpha.gone"]
    assert beta.leaf is alpha.leaf and beta.leaf is not originals[0]

    assert beta.Box().get(1) == 4
    assert beta.outer(2) == 6
    spans = rec.take()
    assert [s[sp.NAME] for s in spans] == ["beta.Box.get", "beta.outer", "alpha.leaf",
                                          "beta.outer", "alpha.leaf"]
    assert [s[sp.PARENT] for s in spans] == [-1, 0, 1, -1, 3]
    assert [s[sp.CALL] for s in spans] == [0, 0, 0, 1, 1]
    assert all(s[sp.START] <= s[sp.END] for s in spans)

    rec.uninstall()
    assert (alpha.leaf, beta.leaf, beta.outer, beta.Box.__dict__["get"]) == originals
    beta.outer(1)
    assert rec.take() == []


def test_linfvar_targets_all_exist():
    src = Path(__file__).resolve().parents[1] / "src"
    if not (src / "linfvar").is_dir():
        pytest.skip("no linfvar sources next to the benchmark")
    sys.path.insert(0, str(src))
    import linfvar.cli  # noqa: F401

    rec = sp.SpanRecorder()
    try:
        assert rec.install() == []
    finally:
        rec.uninstall()
