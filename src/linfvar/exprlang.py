"""Closed-form expression language with exact first and second derivatives.

A small grammar for scalar formulas over the variables of a first-order
density problem: spatial coordinates ``x1..xn``, map components ``u1..uN``,
value-slot variables ``eta1..etaN`` and gradient entries ``P11..PNn``
(first index = component, second = axis; single digit each, so expressions
support n, N <= 9).

Evaluation is forward-mode with second-order dual numbers, so gradients and
Hessians with respect to a chosen seed set are exact up to floating point.
Each parsed expression is compiled once, on its first evaluation, into a
tree of closures that runs every node on every call, as a plain walk over
the tree does; only a variable-free exponent is evaluated once, to pick its
power kernel.  The compiled program gives bit-for-bit the values of the walk.
All arithmetic is numpy-broadcasting aware: bindings may be scalars or
arrays of a common batch shape, in which case values/derivatives come back
with that batch shape appended.

Non-differentiable points are loud by policy: ``abs``, ``sqrt`` and
fractional powers raise :class:`SingularityError` exactly at their
kink/branch point, and ``log``/division/negative fractional bases raise
:class:`DomainEvalError`.  Callers that want to scan a grid for bad nodes
can pass ``on_singularity="nan"`` to poison offending entries instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Ast",
    "BinOp",
    "Call",
    "DomainEvalError",
    "Dual2",
    "EvalError",
    "Neg",
    "Num",
    "ParseError",
    "SingularityError",
    "Var",
    "eval_jet2",
    "eval_value",
    "parse",
    "parse_field",
    "rename_variables",
    "to_source",
]


class ParseError(ValueError):
    """Lexical/syntactic/name error, carrying the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message, self.offset = message, offset


class EvalError(ArithmeticError):
    """Base class for runtime evaluation failures."""


class DomainEvalError(EvalError):
    """Evaluation outside the mathematical domain (log of nonpositive, x/0, ...)."""


class SingularityError(EvalError):
    """Evaluation at a non-differentiable point (kink of abs, branch point of a fractional power)."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Node = Union[Num, Var, Neg, BinOp, Call]

_FUNCTIONS = {"abs": 1, "sqrt": 1, "exp": 1, "log": 1, "sin": 1, "cos": 1, "pow": 2}

_VAR_X = re.compile(r"^x([1-9][0-9]*)$")
_VAR_U = re.compile(r"^u([1-9][0-9]*)$")
_VAR_ETA = re.compile(r"^eta([1-9][0-9]*)$")
_VAR_P = re.compile(r"^P([1-9])([1-9])$")


@dataclass(frozen=True)
class Ast:
    """Parsed expression together with the (n, N) dimensions it was checked against.

    ``program`` holds the compiled evaluator that :func:`eval_jet2` builds
    on first use; it takes no part in equality, hashing or printing.
    """

    root: Node
    n: int
    N: int
    variables: frozenset
    program: object = field(default=None, init=False, compare=False, repr=False, hash=False)

    def __getstate__(self):
        return dict(self.__dict__, program=None)  # closures do not pickle

    def depends_on(self, prefix: str) -> bool:
        return any(v.startswith(prefix) for v in self.variables)


def _check_variable(name: str, n: int, N: int, offset: int) -> None:
    m = _VAR_X.match(name)
    if m:
        if not 1 <= int(m.group(1)) <= n:
            raise ParseError(f"variable {name!r} out of range (n={n})", offset)
        return
    m = _VAR_U.match(name) or _VAR_ETA.match(name)
    if m:
        if not 1 <= int(m.group(1)) <= N:
            raise ParseError(f"variable {name!r} out of range (N={N})", offset)
        return
    m = _VAR_P.match(name)
    if m:
        a, i = int(m.group(1)), int(m.group(2))
        if not (1 <= a <= N and 1 <= i <= n):
            raise ParseError(f"variable {name!r} out of range (N={N}, n={n})", offset)
        return
    if name.startswith("P") and name[1:].isdigit():
        raise ParseError(
            f"variable {name!r} malformed: P takes two single-digit indices (P<component><axis>)",
            offset,
        )
    raise ParseError(f"unknown variable {name!r}", offset)


# ---------------------------------------------------------------------------
# Lexer / parser

_TOKEN_RE = re.compile(
    r"(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | end
    text: str
    offset: int


def _tokenize(src: str) -> list:
    tokens = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    """Recursive descent with the precedence ladder ^ > unary - > * / > + -.

    All binary operators are left-associative, including ^.  The right
    operand of ^ may carry a leading sign (x^-2), but otherwise unary minus
    binds looser than ^, so -x^2 parses as -(x^2).
    """

    def __init__(self, src: str, n: int, N: int):
        self.src = src
        self.n = n
        self.N = N
        self.tokens = _tokenize(src)
        self.pos = 0
        self.variables = set()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.offset)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = BinOp("^", node, self.signed_atom())
        return node

    def signed_atom(self) -> Node:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.signed_atom())
        return self.atom()

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.call(tok)
            _check_variable(tok.text, self.n, self.N, tok.offset)
            self.variables.add(tok.text)
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {tok.text!r}" if tok.kind != "end" else "unexpected end of input", tok.offset)

    def call(self, name_tok: _Token) -> Node:
        name = name_tok.text
        if name not in _FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", name_tok.offset)
        self.expect_op("(")
        args = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        if len(args) != _FUNCTIONS[name]:
            raise ParseError(
                f"function {name!r} takes {_FUNCTIONS[name]} argument(s), got {len(args)}",
                name_tok.offset,
            )
        return Call(name, tuple(args))


def parse(src: str, dims: tuple) -> Ast:
    """Parse ``src`` against dimensions ``dims = (n, N)``.

    Raises :class:`ParseError` (with byte offset) on syntax errors, unknown
    identifiers, out-of-range variable indices and arity mismatches.
    """
    n, N = dims
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    if n < 1 or N < 1:
        raise ValueError(f"dimensions must be positive, got (n={n}, N={N})")
    parser = _Parser(src, n, N)
    root = parser.parse()
    return Ast(root=root, n=n, N=N, variables=frozenset(parser.variables))


def parse_field(src: str, dims: tuple, where: str) -> Ast:
    """:func:`parse`, whose :class:`ParseError` names ``where``, the field or option that gave ``src``,
    before its message; the offset stays the one into ``src``."""
    try:
        return parse(src, dims)
    except ParseError as err:
        raise ParseError(f"{where}: {err.message}", err.offset) from None


def rename_variables(ast: Ast, names: Mapping) -> Ast:
    """The expression with each variable in ``names`` replaced by ``names[variable]``."""
    def walk(node: Node) -> Node:
        if isinstance(node, Var):
            return Var(names.get(node.name, node.name))
        if isinstance(node, Neg):
            return Neg(walk(node.arg))
        if isinstance(node, BinOp):
            return BinOp(node.op, walk(node.lhs), walk(node.rhs))
        if isinstance(node, Call):
            return Call(node.func, tuple(walk(arg) for arg in node.args))
        return node

    return Ast(root=walk(ast.root), n=ast.n, N=ast.N,
               variables=frozenset(names.get(v, v) for v in ast.variables))


# ---------------------------------------------------------------------------
# Printing (canonical form; parse(to_source(ast)) == ast)

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 10, 20, 30, 40, 50


def _node_prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}[node.op]
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _fmt(node: Node, min_prec: int) -> str:
    prec = _node_prec(node)
    if isinstance(node, Num):
        text = repr(node.value)
    elif isinstance(node, Var):
        text = node.name
    elif isinstance(node, Neg):
        text = "-" + _fmt(node.arg, _PREC_NEG)
    elif isinstance(node, BinOp):
        # left-associative: right operand needs strictly higher precedence
        text = f"{_fmt(node.lhs, prec)} {node.op} {_fmt(node.rhs, prec + 1)}"
    elif isinstance(node, Call):
        text = f"{node.func}({', '.join(_fmt(a, 0) for a in node.args)})"
    else:  # pragma: no cover
        raise TypeError(f"unknown node {node!r}")
    if prec < min_prec:
        return f"({text})"
    return text


def to_source(ast: Ast) -> str:
    """Render ``ast`` back to source text in canonical form."""
    return _fmt(ast.root, 0)


# ---------------------------------------------------------------------------
# Second-order forward-mode duals


@dataclass(slots=True)
class Dual2:
    """Value with gradient and (optionally) Hessian over k seed directions.

    ``val`` has some batch shape S; ``grad`` broadcasts to (k,) + S and
    ``hess`` to (k, k) + S, with the seed axes leading and the batch axes
    trailing.  ``hess`` is ``None`` in first-order mode.  Internally arrays
    may carry size-1 batch axes; :func:`eval_jet2` broadcasts the final
    result to full shape.
    """

    val: np.ndarray
    grad: np.ndarray
    hess: "np.ndarray | None"


def _outer(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    return g1[:, None] * g2[None, :]


def dual_add(a: Dual2, b: Dual2) -> Dual2:
    hess = None if a.hess is None else a.hess + b.hess
    return Dual2(a.val + b.val, a.grad + b.grad, hess)


def dual_sub(a: Dual2, b: Dual2) -> Dual2:
    hess = None if a.hess is None else a.hess - b.hess
    return Dual2(a.val - b.val, a.grad - b.grad, hess)


def dual_neg(a: Dual2) -> Dual2:
    return Dual2(-a.val, -a.grad, None if a.hess is None else -a.hess)


def dual_mul(a: Dual2, b: Dual2) -> Dual2:
    val = a.val * b.val
    grad = a.val * b.grad + b.val * a.grad
    hess = None
    if a.hess is not None:
        # grouping the two outer products first keeps the hessian
        # bitwise symmetric (float + is commutative, not associative)
        outer = _outer(a.grad, b.grad)
        outer = outer + np.swapaxes(outer, 0, 1)
        hess = a.val * b.hess + b.val * a.hess + outer
    return Dual2(val, grad, hess)


# Comparing with a 0-d zero rather than the literal 0.0 runs the same ufunc
# loop but skips numpy's conversion of a Python float on every call.
_ZERO = np.zeros(())


def _report(policy: str, bad, exc, message: str):
    """Either raise on any flagged entry or return the mask for NaN-poisoning.

    A 0-d mask (or a plain bool) is its own truth value; only a batch needs ``any``.
    """
    if not (bad.any() if getattr(bad, "ndim", 0) else bad):
        return None
    if policy == "raise":
        raise exc(message)
    return np.asarray(bad)


def _poison(arr: np.ndarray, bad) -> np.ndarray:
    if bad is None:
        return arr
    arr = np.array(np.broadcast_arrays(arr, bad)[0], dtype=float, copy=True)
    arr[np.broadcast_to(bad, arr.shape)] = np.nan
    return arr


def _compose(d: Dual2, f0, f1, f2) -> Dual2:
    """Chain rule through a scalar function with elementwise derivative values.

    ``f1`` and ``f2`` only ever multiply the seed arrays, so they need no
    conversion; ``f0`` becomes the new value and is made an array.
    """
    f0 = np.asarray(f0, dtype=float)
    grad = f1 * d.grad
    hess = None
    if d.hess is not None:
        hess = f1 * d.hess + f2 * _outer(d.grad, d.grad)
    return Dual2(f0, grad, hess)


def dual_div(a: Dual2, b: Dual2, policy: str) -> Dual2:
    bad = _report(policy, b.val == _ZERO, DomainEvalError, "division by zero")
    inv = _poison(1.0 / b.val, bad)
    binv = _compose(b, inv, -(inv ** 2), 2.0 * inv ** 3 if b.hess is not None else None)
    return dual_mul(a, binv)


def dual_abs(a: Dual2, policy: str) -> Dual2:
    bad = _report(policy, a.val == _ZERO, SingularityError, "abs evaluated at its kink (0)")
    s = np.sign(a.val)
    if bad is not None:
        s = _poison(s, bad)
    return _compose(a, np.abs(a.val), s, 0.0)


def dual_sqrt(a: Dual2, policy: str) -> Dual2:
    bad_neg = _report(policy, a.val < _ZERO, DomainEvalError, "sqrt of negative value")
    bad_zero = _report(policy, a.val == _ZERO, SingularityError, "sqrt at branch point 0")
    bad = None
    if bad_neg is not None or bad_zero is not None:
        bad = np.zeros(np.shape(a.val), dtype=bool)
        if bad_neg is not None:
            bad |= bad_neg
        if bad_zero is not None:
            bad |= bad_zero
    v = _poison(a.val, bad)
    r = np.sqrt(v)
    f1 = 0.5 / r
    f2 = (-0.25 / (v * r)) if a.hess is not None else None
    return _compose(a, r, f1, f2)


def dual_exp(a: Dual2) -> Dual2:
    e = np.exp(a.val)
    return _compose(a, e, e, e)


def dual_log(a: Dual2, policy: str) -> Dual2:
    bad = _report(policy, a.val <= _ZERO, DomainEvalError, "log of nonpositive value")
    v = _poison(a.val, bad)
    return _compose(a, np.log(v), 1.0 / v, -1.0 / v ** 2 if a.hess is not None else None)


def dual_sin(a: Dual2) -> Dual2:
    s, c = np.sin(a.val), np.cos(a.val)
    return _compose(a, s, c, -s)


def dual_cos(a: Dual2) -> Dual2:
    s, c = np.sin(a.val), np.cos(a.val)
    return _compose(a, c, -s, -c)


def dual_pow_varying(a: Dual2, b: Dual2, policy: str) -> Dual2:
    """a^b = exp(b log a) for an exponent that varies; requires a > 0."""
    return dual_exp(dual_mul(b, dual_log(a, policy)))


def _pow_kernel(m: np.ndarray):
    """``kernel(a, policy)`` computing a^m for the constant exponent ``m`` (0-d).

    The one power of a variable-free exponent.  A base v < 0 with a
    non-integer m, and v == 0 with m < 0, are domain errors; v == 0 with a
    fractional m > 0 is a branch point.  The checks that apply to ``m``
    are chosen once here: a nonnegative integer exponent needs none, any
    other keeps exactly its ``v < 0`` and ``v == 0`` tests, which run only
    when some base fails ``v > 0`` (NaN and -inf included).
    """
    is_int = bool(m == np.floor(m)) and bool(np.isfinite(m))
    neg_domain = not is_int                 # negative base, non-integer exponent
    zero_domain = bool(m < 0)               # zero base, negative exponent
    zero_sing = not is_int and bool(m > 0)  # branch point of a fractional power
    checked = neg_domain or zero_domain
    # f1 = c1 v^e1 and f2 = c2 v^e2, a zero coefficient killing the factor (so
    # 0 v^-1 is 0 at v = 0); 0-d arrays, not numpy scalars, so no call converts them
    c1, e1 = m, np.asarray(m - 1.0)
    c2, e2 = np.asarray(m * (m - 1.0)), np.asarray(m - 2.0)
    zero1, zero2 = bool(c1 == 0.0), bool(c2 == 0.0)

    def poison_mask(v, policy: str):
        """The detailed checks: raise, or return the entries to poison (None if none)."""
        vzero = v == _ZERO
        domain = (v < _ZERO if neg_domain else False) | (vzero if zero_domain else False)
        bad_domain = _report(
            policy, domain, DomainEvalError,
            "power: negative base with non-integer exponent, or zero base with negative exponent",
        )
        bad_sing = _report(policy, vzero if zero_sing else False, SingularityError,
                           "fractional power at branch point 0")
        if bad_domain is None and bad_sing is None:
            return None
        bad = np.zeros(np.shape(v), dtype=bool)
        for mask in (bad_domain, bad_sing):
            if mask is not None:
                bad |= mask
        return bad

    def kernel(a: Dual2, policy: str) -> Dual2:
        v = a.val
        bad = None
        if checked:
            positive = v > _ZERO  # a positive base passes every check
            if not (positive.all() if positive.ndim else positive):
                bad = poison_mask(v, policy)
        f0 = np.power(v, m)
        f1 = np.zeros(np.shape(v)) if zero1 else c1 * np.power(v, e1)
        f2 = None
        if a.hess is not None:
            f2 = np.zeros(np.shape(v)) if zero2 else c2 * np.power(v, e2)
        if bad is not None:
            f0, f1 = _poison(f0, bad), _poison(f1, bad)
            f2 = None if f2 is None else _poison(f2, bad)
        return _compose(a, f0, f1, f2)

    return kernel


# ---------------------------------------------------------------------------
# Compilation
#
# An Ast is compiled once, on its first evaluation, into a tree of closures
# ``fn(env) -> Dual2`` with ``env = (leaves, key, policy)``: ``leaves`` maps
# each variable to its dual, ``key = (k, second_order, batch_ndim)``.  The
# tree runs under one ``np.errstate(all="ignore")``; the dual ops enter none
# of their own, so an overflow is inf and 0/0 is NaN without a warning.
#
# Every node runs on every call, as a plain walk over the tree does.  The
# one exception is a variable-free exponent of ``^``/``pow``: its value is
# computed once, under the same ``errstate``, and picks the power kernel.
# An exponent whose evaluation raises is evaluated on every call, after the
# base, and either raises or picks the kernel of its poisoned value.

_UNARY_OPS = {
    "neg": (dual_neg, False),
    "abs": (dual_abs, True),
    "sqrt": (dual_sqrt, True),
    "exp": (dual_exp, False),
    "log": (dual_log, True),
    "sin": (dual_sin, False),
    "cos": (dual_cos, False),
}
_POWER = "power"  # resolved by _compile from the exponent
_BINARY_OPS = {
    "+": (dual_add, False),
    "-": (dual_sub, False),
    "*": (dual_mul, False),
    "/": (dual_div, True),
    "^": (_POWER, True),
    "pow": (_POWER, True),
}
_DERIVATIVE_ARRAYS = {}


def _derivative_arrays(key: tuple, seed=None) -> tuple:
    """Shared read-only (grad, hess) of zeros for ``key``, plus e_seed in grad."""
    tag = (key, seed)
    arrays = _DERIVATIVE_ARRAYS.get(tag)
    if arrays is None:
        k, second, nd = key
        pad = (1,) * nd  # trailing size-1 axes keep seed axes clear of batch axes
        grad = np.zeros((k,) + pad)
        if seed is not None:
            grad[(seed,) + (0,) * nd] = 1.0
        grad.flags.writeable = False
        hess = None
        if second:
            hess = np.zeros((k, k) + pad)
            hess.flags.writeable = False
        arrays = _DERIVATIVE_ARRAYS[tag] = (grad, hess)
    return arrays


def _apply(op, uses_policy: bool, fns: list):
    if len(fns) == 1:
        (fa,) = fns
        if uses_policy:
            return lambda env: op(fa(env), env[2])
        return lambda env: op(fa(env))
    fa, fb = fns
    if uses_policy:
        return lambda env: op(fa(env), fb(env), env[2])
    return lambda env: op(fa(env), fb(env))


def _exponent_value(fn):
    """The value of a compiled variable-free exponent, or None when its evaluation raises."""
    try:
        with np.errstate(all="ignore"):
            return fn(({}, (0, False, 0), "raise")).val
    except EvalError:
        return None


def _has_variable(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Num):
        return False
    if isinstance(node, Neg):
        return _has_variable(node.arg)
    if isinstance(node, BinOp):
        return _has_variable(node.lhs) or _has_variable(node.rhs)
    return any(_has_variable(arg) for arg in node.args)


def _compile(node: Node, variables: dict):
    """One bottom-up pass: the closure that evaluates ``node``.

    ``variables`` collects one leaf function per variable name met.
    """
    if isinstance(node, Num):
        val = np.asarray(node.value, dtype=float)
        return lambda env: Dual2(val, *_derivative_arrays(env[1]))
    if isinstance(node, Var):
        name = node.name
        if name not in variables:
            variables[name] = lambda env: env[0][name]
        return variables[name]
    if isinstance(node, Neg):
        (op, uses_policy), args = _UNARY_OPS["neg"], (node.arg,)
    elif isinstance(node, BinOp):
        (op, uses_policy), args = _BINARY_OPS[node.op], (node.lhs, node.rhs)
    elif isinstance(node, Call):
        table = _BINARY_OPS if len(node.args) == 2 else _UNARY_OPS
        (op, uses_policy), args = table[node.func], node.args
    else:  # pragma: no cover
        raise TypeError(f"unknown node {node!r}")
    fns = [_compile(arg, variables) for arg in args]
    if op is _POWER:
        if _has_variable(args[1]):
            # decided by the expression, not by seeding, so values agree with and without derivatives
            return _apply(dual_pow_varying, True, fns)
        m = _exponent_value(fns[1])
        if m is not None:
            return _apply(_pow_kernel(np.asarray(m, dtype=float)), True, fns[:1])
        return _unfolded_power(*fns)
    return _apply(op, uses_policy, fns)


def _unfolded_power(fa, fb):
    """a^b for a variable-free exponent whose evaluation raised when it was folded: the
    base first, then the exponent, then the kernel of the exponent's value."""
    def power(env):
        a = fa(env)
        return _pow_kernel(np.asarray(fb(env).val, dtype=float))(a, env[2])
    return power


# ---------------------------------------------------------------------------
# Evaluation


def _batch_shape(binding: Mapping) -> tuple:
    try:
        shapes = {v.shape for v in binding.values()}
    except AttributeError:  # plain numbers or sequences among the values
        shapes = {np.shape(v) for v in binding.values()}
    if len(shapes) == 1:
        return shapes.pop()
    return np.broadcast_shapes(*shapes) if shapes else ()


class _Plan:
    """What every call with one (seeds, order) needs: the names that must be
    bound, and per batch ndim the derivative arrays of the leaves in the
    program's ``names`` order."""

    __slots__ = ("required", "seed_of", "k", "second", "leaf_arrays")

    def __init__(self, ast: Ast, names: tuple, seeds: tuple, second: bool):
        self.required = frozenset(ast.variables).union(seeds)
        seed_index = {name: j for j, name in enumerate(seeds)}
        self.seed_of = [seed_index.get(name) for name in names]
        self.k = len(seeds)
        self.second = second
        self.leaf_arrays = {}

    def leaves(self, nd: int) -> tuple:
        """(key, [(grad, hess) per name]) for a batch of ``nd`` axes."""
        entry = self.leaf_arrays.get(nd)
        if entry is None:
            key = (self.k, self.second, nd)
            entry = self.leaf_arrays[nd] = (key, [_derivative_arrays(key, seed=j) for j in self.seed_of])
        return entry


def _raise_unbound(ast: Ast, binding: Mapping, seeds: tuple):
    missing = [v for v in ast.variables if v not in binding]
    if missing:
        raise KeyError(f"unbound variables: {sorted(missing)}")
    for s in seeds:
        if s not in binding:
            raise KeyError(f"seed {s!r} is not bound")


def eval_jet2(
    ast: Ast,
    binding: Mapping,
    seeds: Sequence,
    order: int = 2,
    on_singularity: str = "raise",
) -> Dual2:
    """Evaluate ``ast`` with exact derivatives over the seeded variables.

    ``binding`` maps every variable used by the expression to a float or to
    an array (common batch shape); ``seeds`` is an ordered subset of the
    bound variables.  The result's ``grad[j]`` / ``hess[j, k]`` are the
    first/second partials with respect to ``seeds[j]`` / ``seeds[k]``.
    The expression is compiled on its first evaluation; the compiled
    program and one call plan per (seeds, order) are kept on ``ast``.
    The program runs with numpy's floating-point warnings off: an overflow
    gives inf and a 0/0 gives NaN, which callers' finiteness checks name.
    """
    seeds = tuple(seeds)
    second = order >= 2
    if ast.program is None:
        variables = {}
        fn = _compile(ast.root, variables)
        run = np.errstate(all="ignore")(fn)
        object.__setattr__(ast, "program", (run, tuple(sorted(variables)), {}))
    run, names, plans = ast.program
    plan = plans.get((seeds, second))
    if plan is None:
        plan = plans[(seeds, second)] = _Plan(ast, names, seeds, second)
    if not binding.keys() >= plan.required:
        _raise_unbound(ast, binding, seeds)
    policy = on_singularity
    if policy not in ("raise", "nan"):
        raise ValueError(f"on_singularity must be 'raise' or 'nan', got {policy!r}")
    S = _batch_shape(binding)
    key, arrays = plan.leaves(len(S))
    leaves = {name: Dual2(np.asarray(binding[name], dtype=float), grad, hess)
              for name, (grad, hess) in zip(names, arrays)}
    out = run((leaves, key, policy))
    k = plan.k
    hess = _expand(out.hess, (k, k) + S) if second else None
    return Dual2(_expand(out.val, S), _expand(out.grad, (k,) + S), hess)


def _expand(arr, shape: tuple) -> np.ndarray:
    """A fresh float array of full ``shape`` (results never alias program or binding arrays)."""
    out = np.array(arr, dtype=float)
    return out if out.shape == shape else np.array(np.broadcast_to(out, shape))


def eval_value(ast: Ast, binding: Mapping) -> np.ndarray:
    """Plain evaluation (no derivatives); scalars in, scalar/array out.  Singular points raise."""
    return eval_jet2(ast, binding, seeds=(), order=1).val
