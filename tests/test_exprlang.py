import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linfvar import exprlang as el
from linfvar.exprlang import (
    Ast,
    BinOp,
    Call,
    DomainEvalError,
    EvalError,
    Neg,
    Num,
    ParseError,
    SingularityError,
    Var,
    eval_jet2,
    eval_value,
    parse,
    to_source,
)


class TestParse:
    def test_sum_of_squares(self):
        ast = parse("P11^2 + P12^2", (2, 1))
        assert ast.root == BinOp("+", BinOp("^", Var("P11"), Num(2.0)), BinOp("^", Var("P12"), Num(2.0)))

    def test_aronsson_expression_parses(self):
        ast = parse("abs(x1)^(4/3) - abs(x2)^(4/3)", (2, 1))
        assert ast.variables == {"x1", "x2"}

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + * 2", (2, 1))
        assert err.value.offset == 5

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse("x1 + foo", (2, 1))

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("x3", (2, 1))
        with pytest.raises(ParseError, match="out of range"):
            parse("P21", (2, 1))

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="argument"):
            parse("pow(x1)", (1, 1))
        with pytest.raises(ParseError, match="argument"):
            parse("abs(x1, x1)", (1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse("   ", (1, 1))

    def test_precedence(self):
        # ^ binds tighter than unary minus, which binds tighter than *
        ast = parse("-x1^2", (1, 1))
        assert ast.root == Neg(BinOp("^", Var("x1"), Num(2.0)))
        assert eval_value(parse("2*3^2", (1, 1)), {}) == 18.0
        assert eval_value(parse("2 - 3 - 4", (1, 1)), {}) == -5.0
        assert eval_value(parse("12 / 2 / 3", (1, 1)), {}) == 2.0

    def test_power_left_associative(self):
        assert eval_value(parse("2^3^2", (1, 1)), {}) == 64.0  # (2^3)^2

    def test_signed_exponent(self):
        assert eval_value(parse("2^-2", (1, 1)), {}) == 0.25


# hypothesis strategy over canonical-form ASTs
_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(lambda v: round(v, 3))),
    st.sampled_from([Var("x1"), Var("x2"), Var("u1"), Var("eta1"), Var("P11"), Var("P12")]),
)


def _node_strategy():
    return st.recursive(
        _leaf,
        lambda inner: st.one_of(
            st.builds(Neg, inner),
            st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), inner, inner),
            st.builds(lambda f, a: Call(f, (a,)), st.sampled_from(["abs", "sqrt", "exp", "log", "sin", "cos"]),
                      inner),
            st.builds(lambda a, b: Call("pow", (a, b)), inner, inner),
        ),
        max_leaves=12,
    )


@settings(max_examples=120, deadline=None)
@given(_node_strategy())
def test_print_parse_round_trip(root):
    ast = Ast(root=root, n=2, N=1, variables=frozenset())
    assert parse(to_source(ast), (2, 1)).root == root


class TestJets:
    def test_polynomial_jet(self):
        d = eval_jet2(parse("x1^2*x2", (2, 1)), {"x1": 3.0, "x2": 2.0}, ["x1"])
        assert d.val == 18.0
        assert d.grad[0] == 12.0
        assert d.hess[0, 0] == 4.0

    def test_abs_power_jet(self):
        d = eval_jet2(parse("abs(x1)^(4/3)", (2, 1)), {"x1": 1.0}, ["x1"])
        assert d.val == pytest.approx(1.0, abs=1e-15)
        assert d.grad[0] == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert d.hess[0, 0] == pytest.approx(4.0 / 9.0, abs=1e-14)

    def test_abs_kink_raises(self):
        with pytest.raises(SingularityError):
            eval_jet2(parse("abs(x1)", (1, 1)), {"x1": 0.0}, ["x1"])

    def test_fractional_power_branch_point(self):
        with pytest.raises(SingularityError):
            eval_jet2(parse("x1^(4/3)", (1, 1)), {"x1": 0.0}, ["x1"])

    def test_domain_errors(self):
        with pytest.raises(DomainEvalError):
            eval_value(parse("log(x1)", (1, 1)), {"x1": -1.0})
        with pytest.raises(DomainEvalError):
            eval_value(parse("1 / x1", (1, 1)), {"x1": 0.0})
        with pytest.raises(DomainEvalError):
            eval_value(parse("x1^(1/2)", (1, 1)), {"x1": -1.0})

    def test_nan_policy_poisons_entries(self):
        d = eval_jet2(parse("abs(x1)", (1, 1)), {"x1": np.array([1.0, 0.0, -2.0])},
                      ["x1"], on_singularity="nan")
        assert d.grad[0, 0] == 1.0 and d.grad[0, 2] == -1.0
        assert np.isnan(d.grad[0, 1])

    def test_integer_power_at_zero(self):
        d = eval_jet2(parse("x1^2", (1, 1)), {"x1": 0.0}, ["x1"])
        assert d.val == 0.0 and d.grad[0] == 0.0 and d.hess[0, 0] == 2.0

    def test_batch_matches_pointwise(self):
        ast = parse("sin(x1)*exp(x2) + x1^3/x2", (2, 1))
        xs = np.array([0.4, 1.1, -0.3])
        ys = np.array([1.0, 2.0, 0.5])
        batch = eval_jet2(ast, {"x1": xs, "x2": ys}, ["x1", "x2"])
        for m in range(3):
            single = eval_jet2(ast, {"x1": xs[m], "x2": ys[m]}, ["x1", "x2"])
            assert batch.val[m] == single.val
            assert np.array_equal(batch.grad[:, m], single.grad)
            assert np.array_equal(batch.hess[:, :, m], single.hess)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=0.3, max_value=2.0, allow_nan=False),
)
def test_product_rule_hessian(a, b):
    """hess(f*g) = f hess(g) + g hess(f) + grad(f) x grad(g) + grad(g) x grad(f)."""
    f = eval_jet2(parse("sin(x1) + x1^2*x2", (2, 1)), {"x1": a, "x2": b}, ["x1", "x2"])
    g = eval_jet2(parse("exp(x2) - x1*x2", (2, 1)), {"x1": a, "x2": b}, ["x1", "x2"])
    fg = eval_jet2(parse("(sin(x1) + x1^2*x2) * (exp(x2) - x1*x2)", (2, 1)),
                   {"x1": a, "x2": b}, ["x1", "x2"])
    outer = np.outer(f.grad, g.grad)
    expected = f.val * g.hess + g.val * f.hess + outer + outer.T
    assert np.allclose(fg.hess, expected, atol=1e-12, rtol=1e-12)
    assert np.array_equal(fg.hess, fg.hess.T)


def test_random_polynomials_match_finite_differences():
    """grad/hess of 100 random polynomial ASTs match central differences to 10 h^2 relative.

    h = 1e-3 keeps the FD hessian's roundoff floor (eps / h^2 ~ 1e-10) well
    below the 10 h^2 = 1e-5 budget.
    """
    rng = np.random.default_rng(42)
    h = 1e-3
    for _ in range(100):
        terms = []
        for _ in range(rng.integers(1, 5)):
            c = float(rng.uniform(-2, 2))
            e1, e2 = rng.integers(0, 4, size=2)
            terms.append(f"{c!r} * x1^{e1} * x2^{e2}")
        src = " + ".join(terms)
        ast = parse(src, (2, 1))
        x0, y0 = rng.uniform(0.5, 1.5, size=2)

        def f(x, y):
            return float(eval_value(ast, {"x1": x, "x2": y}))

        d = eval_jet2(ast, {"x1": x0, "x2": y0}, ["x1", "x2"])
        fd_dx = (f(x0 + h, y0) - f(x0 - h, y0)) / (2 * h)
        fd_dxx = (f(x0 + h, y0) - 2 * f(x0, y0) + f(x0 - h, y0)) / h**2
        fd_dxy = (f(x0 + h, y0 + h) - f(x0 + h, y0 - h) - f(x0 - h, y0 + h) + f(x0 - h, y0 - h)) / (4 * h * h)
        scale = max(1.0, abs(d.val), abs(fd_dx), abs(fd_dxx), abs(fd_dxy))
        assert abs(d.grad[0] - fd_dx) <= 10 * h**2 * scale
        assert abs(d.hess[0, 0] - fd_dxx) <= 10 * h**2 * scale
        assert abs(d.hess[0, 1] - fd_dxy) <= 10 * h**2 * scale


def test_variable_exponent_value_matches_its_jet():
    """A variable exponent takes exp(b log a) with and without seeds, so H's value
    and its jet's value agree bit for bit."""
    from linfvar import Hamiltonian, hamiltonian_jet, hamiltonian_value

    H = Hamiltonian.from_expression("P11^(1 + x1) + P12^2", 2, 1)
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, size=(2, 200))
    eta = rng.uniform(-1.0, 1.0, size=(1, 200))
    P = np.stack([rng.uniform(0.1, 3.0, size=200), rng.uniform(-3.0, 3.0, size=200)]).reshape(1, 2, 200)
    value = hamiltonian_value(H, x, eta, P)
    jet = hamiltonian_jet(H, x, eta, P).value
    assert value.tobytes() == jet.tobytes()
    for m in range(200):
        assert hamiltonian_value(H, x[:, m], eta[:, m], P[:, :, m]) == jet[m]


@pytest.mark.parametrize("src", ["P11^exp(1000)", "pow(P11, exp(1000))", "P11^(-exp(1000))", "P11^(1/0)"])
def test_variable_free_exponent_value_matches_its_jet(src):
    """An exponent that holds no variable takes the constant-exponent power with and without
    seeds, even when it folds to inf with NaN derivative fills: H's value and its jet's value
    agree bit for bit, or both raise with the same type and message."""
    from linfvar import Hamiltonian, hamiltonian_jet, hamiltonian_value

    H = Hamiltonian.from_expression(src, 1, 1)
    x, eta = np.zeros((1, 1)), np.zeros((1, 1))
    for p in (1.0, 0.5, 2.0, -2.0, 0.0):
        P = np.full((1, 1, 1), p)
        value, value_exc = _outcome(lambda: hamiltonian_value(H, x, eta, P))
        jet, jet_exc = _outcome(lambda: hamiltonian_jet(H, x, eta, P).value)
        assert value_exc == jet_exc, (p, value_exc, jet_exc)
        assert value_exc is not None or _same_bits(value, jet), (p, value, jet)


def test_variable_exponent_uses_exp_log():
    d = eval_jet2(parse("x1^x2", (2, 1)), {"x1": 2.0, "x2": 3.0}, ["x1", "x2"])
    assert d.val == pytest.approx(8.0, rel=1e-14)
    assert d.grad[0] == pytest.approx(12.0, rel=1e-12)          # d/dx x^y = y x^(y-1)
    assert d.grad[1] == pytest.approx(8.0 * math.log(2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Compiled evaluator against a plain tree walk


def _has_var(node):
    if isinstance(node, Var):
        return True
    if isinstance(node, Num):
        return False
    children = (node.arg,) if isinstance(node, Neg) else (
        (node.lhs, node.rhs) if isinstance(node, BinOp) else node.args)
    return any(_has_var(c) for c in children)


def dual_constant(value, nseeds, order=2, batch_ndim=0):
    # trailing size-1 axes keep seed axes from colliding with batch axes
    val = np.asarray(value, dtype=float)
    pad = (1,) * max(batch_ndim, val.ndim)
    grad = np.zeros((nseeds,) + pad)
    hess = np.zeros((nseeds, nseeds) + pad) if order >= 2 else None
    return el.Dual2(val, grad, hess)


def dual_seed(value, index, nseeds, order=2, batch_ndim=0):
    d = dual_constant(value, nseeds, order, batch_ndim)
    d.grad[(index,) + (0,) * (d.grad.ndim - 1)] = 1.0
    return d


def _coeff_pow(c, v, e):
    """c * v**e with the convention that a zero coefficient kills the factor."""
    raw = c * np.power(v, e)
    return np.where(np.asarray(c) == 0.0, 0.0, raw)


def dual_pow(a, b, policy):
    """a^b for an exponent that holds no variable, from its value on every call, with
    every check on every entry; b's derivatives are not read."""
    m = np.asarray(b.val, dtype=float)
    v = a.val
    is_int = (m == np.floor(m)) & np.isfinite(m)
    vzero = np.asarray(v == 0.0)
    vneg = np.asarray(v < 0.0)
    bad_domain = el._report(
        policy,
        (vneg & ~is_int) | (vzero & (m < 0)),
        DomainEvalError,
        "power: negative base with non-integer exponent, or zero base with negative exponent",
    )
    bad_sing = el._report(policy, vzero & ~is_int & (m > 0), SingularityError,
                          "fractional power at branch point 0")
    bad = None
    if bad_domain is not None or bad_sing is not None:
        bad = np.zeros(np.broadcast_shapes(np.shape(v), np.shape(m)), dtype=bool)
        if bad_domain is not None:
            bad |= bad_domain
        if bad_sing is not None:
            bad |= bad_sing
    f0 = el._poison(np.power(v, m), bad)
    f1 = el._poison(_coeff_pow(m, v, m - 1.0), bad)
    f2 = el._poison(_coeff_pow(m * (m - 1.0), v, m - 2.0), bad) if a.hess is not None else None
    return el._compose(a, f0, f1, f2)


def _reference_jet2(ast, binding, seeds, order=2, on_singularity="raise"):
    """The uncompiled evaluator: walk the tree on every call, no folding, generic pow.

    An exponent that depends on a variable takes exp(b log a), seeded or not.
    """
    seeds = list(seeds)
    k = len(seeds)
    seed_index = {name: j for j, name in enumerate(seeds)}
    policy = on_singularity
    S = el._batch_shape(binding)
    nd = len(S)
    unary = {"abs": el.dual_abs, "sqrt": el.dual_sqrt, "log": el.dual_log}
    plain = {"exp": el.dual_exp, "sin": el.dual_sin, "cos": el.dual_cos}
    binary = {"+": el.dual_add, "-": el.dual_sub, "*": el.dual_mul}

    def power(a, b, exponent):
        if _has_var(exponent):
            return el.dual_exp(el.dual_mul(b, el.dual_log(a, policy)))
        return dual_pow(a, b, policy)

    def ev(node):
        if isinstance(node, Num):
            return dual_constant(node.value, k, order, nd)
        if isinstance(node, Var):
            j = seed_index.get(node.name)
            if j is None:
                return dual_constant(binding[node.name], k, order, nd)
            return dual_seed(binding[node.name], j, k, order, nd)
        if isinstance(node, Neg):
            return el.dual_neg(ev(node.arg))
        if isinstance(node, BinOp):
            a, b = ev(node.lhs), ev(node.rhs)
            if node.op in binary:
                return binary[node.op](a, b)
            if node.op == "/":
                return el.dual_div(a, b, policy)
            return power(a, b, node.rhs)
        if node.func == "pow":
            return power(ev(node.args[0]), ev(node.args[1]), node.args[1])
        a = ev(node.args[0])
        return unary[node.func](a, policy) if node.func in unary else plain[node.func](a)

    out = ev(ast.root)
    val = np.array(np.broadcast_to(np.asarray(out.val, dtype=float), S))
    grad = np.array(np.broadcast_to(out.grad, (k,) + S))
    hess = np.array(np.broadcast_to(out.hess, (k, k) + S)) if order >= 2 else None
    return el.Dual2(val, grad, hess)


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _outcome(fn):
    try:
        return fn(), None
    except Exception as exc:  # compared by type and message
        return None, (type(exc), str(exc))


def _assert_matches_reference(ast, binding, seeds):
    """Compiled and reference agree bitwise at both orders under both policies."""
    for order in (1, 2):
        for policy in ("raise", "nan"):
            got, got_exc = _outcome(lambda: eval_jet2(ast, binding, seeds, order, policy))
            ref, ref_exc = _outcome(lambda: _reference_jet2(ast, binding, seeds, order, policy))
            assert got_exc == ref_exc, (order, policy)
            if ref is None:
                continue
            assert _same_bits(got.val, ref.val), (order, policy, got.val, ref.val)
            assert _same_bits(got.grad, ref.grad), (order, policy, got.grad, ref.grad)
            assert _same_bits(got.hess, ref.hess), (order, policy, got.hess, ref.hess)


_POINT_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-3, 7.25])
_NAMES = ("x1", "x2", "u1", "eta1", "P11", "P12")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    _node_strategy(),
    st.lists(_POINT_VALUES, min_size=6, max_size=6),
    st.lists(st.lists(_POINT_VALUES, min_size=3, max_size=3), min_size=6, max_size=6),
    st.lists(st.sampled_from(_NAMES), unique=True, max_size=4),
)
def test_compiled_matches_reference_walk(root, point, batch, seeds):
    ast = parse(to_source(Ast(root=root, n=2, N=1, variables=frozenset())), (2, 1))
    _assert_matches_reference(ast, dict(zip(_NAMES, point)), seeds)
    _assert_matches_reference(ast, {name: np.array(v) for name, v in zip(_NAMES, batch)}, seeds)


def test_compiled_matches_reference_on_flow_velocity():
    """One point of the flow: Aronsson map jet, then H = P11^2 + P12^2 over x, eta and P."""
    u_ast = parse("abs(x1)^(4/3) - abs(x2)^(4/3)", (2, 1))
    _assert_matches_reference(u_ast, {"x1": np.float64(1.4), "x2": np.float64(1.3)}, ["x1", "x2"])
    H_ast = parse("P11^2 + P12^2", (2, 1))
    binding = {"x1": 1.4, "x2": 1.3, "eta1": 0.4, "u1": 0.4, "P11": 1.745, "P12": -1.402}
    _assert_matches_reference(H_ast, binding, ["x1", "x2", "eta1", "P11", "P12"])


def test_compiled_matches_reference_on_sine_variation():
    """A rank-one sine-profile variation, parsed from its witness source, on a batch of nodes."""
    from linfvar import DomainBox, Subdomain
    from linfvar.varcheck import make_rank_one_variation, variation_source

    box = DomainBox((1.0, 1.0), (2.25, 2.25), (41, 41))
    O = Subdomain.from_box(box, (1.25, 1.25), (1.75, 1.75))
    _, spec = make_rank_one_variation(O, np.array([1.0]), np.random.default_rng(3))
    ast = parse(variation_source(spec)[0], (2, 1))
    x = box.node_coords(O.evaluable_nodes())
    _assert_matches_reference(ast, {"x1": x[0], "x2": x[1]}, ["x1", "x2"])


def test_folding_keeps_fractions_and_is_cached():
    ast = parse("x1^(4/3) + 2*3", (1, 1))
    assert ast.program is None
    d = eval_jet2(ast, {"x1": 2.0}, ["x1"])
    assert d.val == 2.0 ** (4.0 * (1.0 / 3.0)) + 6.0
    program = ast.program
    eval_jet2(ast, {"x1": np.array([1.0, 2.0])}, ["x1"], order=1)
    assert ast.program is program
    assert ast == parse("x1^(4/3) + 2*3", (1, 1)) and "program" not in repr(ast)


def test_unfoldable_constant_still_raises_or_poisons():
    ast = parse("x1 + 1/0", (1, 1))
    with pytest.raises(DomainEvalError, match="division by zero"):
        eval_jet2(ast, {"x1": 1.0}, ["x1"])
    d = eval_jet2(ast, {"x1": 1.0}, ["x1"], on_singularity="nan")
    assert np.isnan(d.val)


UNFOLDABLE_POWERS = ["x1^(1/0)", "x1^log(0)", "x1^(abs(0) + 0.5)", "abs(x1)^(1/0)", "pow(x1, sqrt(0))",
                     "pow(x1, sqrt(-1))", "log(x1)^(1/0)", "(1/x1)^(-log(0))"]


@pytest.mark.parametrize("src", UNFOLDABLE_POWERS)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unfoldable_exponents_match_reference(src):
    """An exponent whose fold raises is evaluated on every call, after the base: under "raise"
    the base's error comes first, under "nan" the kernel of the poisoned value runs."""
    ast = parse(src, (1, 1))
    bases = (-2.0, -0.0, 0.0, 0.5, 3.0, np.nan, np.inf, -np.inf)
    for x in bases:
        _assert_matches_reference(ast, {"x1": x}, ["x1"])
    _assert_matches_reference(ast, {"x1": np.array(bases)}, ["x1"])
    _assert_matches_reference(ast, {"x1": np.array(bases).reshape(2, 4)}, [])


@pytest.mark.parametrize("src,base_error", [
    ("abs(x1)^(1/0)", (SingularityError, "abs evaluated at its kink (0)")),
    ("log(x1)^(1/0)", (DomainEvalError, "log of nonpositive value")),
    ("(1/x1)^(abs(0) + 0.5)", (DomainEvalError, "division by zero")),
])
def test_an_unfoldable_exponent_raises_after_its_base(src, base_error):
    ast = parse(src, (1, 1))
    with pytest.raises(base_error[0]) as err:
        eval_jet2(ast, {"x1": 0.0}, ["x1"])
    assert str(err.value) == base_error[1]
    with pytest.raises(EvalError) as err:  # a base that evaluates leaves the exponent's error
        eval_jet2(ast, {"x1": 2.0}, ["x1"])
    assert (type(err.value), str(err.value)) != base_error


@pytest.mark.parametrize("src", ["x1 + exp(1000)", "x1 + (1e300)^(4/3)", "x1 + log(1e-320)"])
def test_constant_folding_ignores_the_warning_filter(src):
    """A constant subtree that overflows or divides by zero evaluates without a warning, and
    the same constant used as an exponent compiles whether warnings are errors or not, to
    the bits that evaluating it gives."""
    ast = parse(src, (1, 1))
    power = parse(f"x1^({src.split(' + ', 1)[1]})", (1, 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eval_jet2(ast, {"x1": 0.5}, ["x1"])  # compiles
    assert [str(w.message) for w in caught] == []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        eval_jet2(power, {"x1": 0.5}, ["x1"])  # compiles, evaluating the exponent once
    assert power.program is not None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the reference walk runs unguarded
        for case in (ast, power):
            _assert_matches_reference(case, {"x1": 0.5}, ["x1"])
            _assert_matches_reference(case, {"x1": np.array([0.5, -1.0])}, ["x1"])


@pytest.mark.parametrize("exponent", ["0", "-0", "1", "2", "3", "-1", "-2", "0.5", "4/3", "-0.5", "-4/3",
                                      "exp(1000)", "-exp(1000)"])
@pytest.mark.parametrize("func", [False, True])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_constant_exponent_kernels_match_reference(exponent, func):
    """Each class of folded exponent, at negative, zero, positive, NaN and infinite bases,
    scalar and batched."""
    src = f"pow(x1, {exponent})" if func else f"x1^({exponent})"
    ast = parse(src, (1, 1))
    bases = (-2.0, -0.0, 0.0, 0.5, 3.0, np.nan, np.inf, -np.inf)
    for x in bases:
        _assert_matches_reference(ast, {"x1": x}, ["x1"])
    _assert_matches_reference(ast, {"x1": np.array(bases)}, ["x1"])


@pytest.mark.parametrize("src", ["abs(x1)^(4/3) * x2 - log(x2) + P11^2 / x1", "x2", "4/3"])
def test_call_plans_serve_interleaved_calls(src):
    """One Ast evaluated across seed lists, orders, batch ranks and policies in shuffled
    order matches a freshly parsed Ast bit for bit, and its results are its own: a bare
    variable or a folded constant must not hand out a binding's or the program's arrays."""
    shared = parse(src, (2, 1))
    rng = np.random.default_rng(11)
    pools = {"x1": [0.0, -1.5, 2.0, 0.75], "x2": [0.5, 1.25, 3.0, -1.0], "P11": [-1.0, 0.0, 2.5]}

    def binding(shape):
        if not shape:
            return {name: np.float64(rng.choice(pool)) for name, pool in pools.items()}
        return {name: rng.choice(pool, size=shape) for name, pool in pools.items()}

    seed_lists = [(), ("x1",), ("x2", "x1"), ("x1", "x2", "P11"), ("P11",)]
    combos = [(seeds, order, shape, policy) for seeds in seed_lists for order in (1, 2)
              for shape in ((), (3,), (2, 3)) for policy in ("raise", "nan")]
    for round_ in range(2):
        for i in rng.permutation(len(combos)):
            seeds, order, shape, policy = combos[i]
            b = binding(shape)
            got, got_exc = _outcome(lambda: eval_jet2(shared, b, seeds, order, policy))
            ref, ref_exc = _outcome(lambda: eval_jet2(parse(src, (2, 1)), b, seeds, order, policy))
            assert got_exc == ref_exc, combos[i]
            if ref is None:
                continue
            for name in ("val", "grad", "hess"):
                assert _same_bits(getattr(got, name), getattr(ref, name)), (combos[i], name)
                if getattr(got, name) is not None:
                    getattr(got, name)[...] = 7.0  # the next call must not see this
            again = eval_jet2(shared, b, seeds, order, policy)
            for name in ("val", "grad", "hess"):
                assert _same_bits(getattr(again, name), getattr(ref, name)), (combos[i], name)

    full = {"x1": 1.0, "x2": 2.0, "P11": 3.0}
    for seeds in (("x1", "x2"), ("x1", "eta1")):
        for b in ({"x1": 1.0, "P11": 3.0}, full):
            for _ in range(2):  # the second call runs on the cached plan
                got, got_exc = _outcome(lambda: eval_jet2(shared, b, seeds))
                _, ref_exc = _outcome(lambda: eval_jet2(parse(src, (2, 1)), b, seeds))
                assert got_exc == ref_exc
    if "x2" in shared.variables:
        with pytest.raises(KeyError, match=r"unbound variables: \['x2'\]"):
            eval_jet2(shared, {"x1": 1.0, "P11": 3.0}, ("x1",))
    with pytest.raises(KeyError, match="seed 'eta1' is not bound"):
        eval_jet2(shared, full, ("x1", "eta1"))
