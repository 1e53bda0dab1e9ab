"""Closed-form expression language with exact first and second derivatives.

A small grammar for scalar formulas over the variables of a first-order
density problem: spatial coordinates ``x1..xn``, map components ``u1..uN``,
value-slot variables ``eta1..etaN`` and gradient entries ``P11..PNn``
(first index = component, second = axis; single digit each, so expressions
support n, N <= 9).

Evaluation is forward-mode with second-order dual numbers, so gradients and
Hessians with respect to a chosen seed set are exact up to floating point.
Each parsed expression is compiled once, on its first evaluation, into a
tree of closures with its variable-free subtrees folded; the compiled
program gives bit-for-bit the values of a plain walk over the tree.
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
import struct
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
    "to_source",
    "variable_names",
]


class ParseError(ValueError):
    """Lexical/syntactic/name error, carrying the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


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


def variable_names(n: int, N: int) -> list:
    """All legal variable names for the given dimensions, in canonical order."""
    names = [f"x{i}" for i in range(1, n + 1)]
    names += [f"eta{a}" for a in range(1, N + 1)]
    names += [f"u{a}" for a in range(1, N + 1)]
    names += [f"P{a}{i}" for a in range(1, N + 1) for i in range(1, n + 1)]
    return names


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

    def __add__(self, other):
        return dual_add(self, _coerce(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return dual_sub(self, _coerce(other, self))

    def __rsub__(self, other):
        return dual_sub(_coerce(other, self), self)

    def __mul__(self, other):
        return dual_mul(self, _coerce(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return dual_div(self, _coerce(other, self), "raise")

    def __rtruediv__(self, other):
        return dual_div(_coerce(other, self), self, "raise")

    def __pow__(self, other):
        return dual_pow(self, _coerce(other, self), "raise")

    def __neg__(self):
        return dual_neg(self)


def dual_constant(value, nseeds: int, order: int = 2, batch_ndim: int = 0) -> Dual2:
    # trailing size-1 axes keep seed axes from colliding with batch axes
    val = np.asarray(value, dtype=float)
    pad = (1,) * max(batch_ndim, val.ndim)
    grad = np.zeros((nseeds,) + pad)
    hess = np.zeros((nseeds, nseeds) + pad) if order >= 2 else None
    return Dual2(val, grad, hess)


def dual_seed(value, index: int, nseeds: int, order: int = 2, batch_ndim: int = 0) -> Dual2:
    d = dual_constant(value, nseeds, order, batch_ndim)
    d.grad[(index,) + (0,) * (d.grad.ndim - 1)] = 1.0
    return d


def _coerce(other, like: Dual2) -> Dual2:
    if isinstance(other, Dual2):
        return other
    return dual_constant(
        other,
        like.grad.shape[0],
        1 if like.hess is None else 2,
        batch_ndim=like.grad.ndim - 1,
    )


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


def _report(policy: str, bad, exc, message: str):
    """Either raise on any flagged entry or return the mask for NaN-poisoning."""
    bad = np.asarray(bad)
    if not bad.any():
        return None
    if policy == "raise":
        raise exc(message)
    return bad


def _poison(arr: np.ndarray, bad) -> np.ndarray:
    if bad is None:
        return arr
    arr = np.array(np.broadcast_arrays(arr, bad)[0], dtype=float, copy=True)
    arr[np.broadcast_to(bad, arr.shape)] = np.nan
    return arr


def _compose(d: Dual2, f0, f1, f2) -> Dual2:
    """Chain rule through a scalar function with elementwise derivative values."""
    f0 = np.asarray(f0, dtype=float)
    f1 = np.asarray(f1, dtype=float)
    grad = f1 * d.grad
    hess = None
    if d.hess is not None:
        f2 = np.asarray(f2, dtype=float)
        hess = f1 * d.hess + f2 * _outer(d.grad, d.grad)
    return Dual2(f0, grad, hess)


def dual_div(a: Dual2, b: Dual2, policy: str) -> Dual2:
    bad = _report(policy, b.val == 0.0, DomainEvalError, "division by zero")
    with np.errstate(all="ignore"):
        inv = _poison(1.0 / b.val, bad)
        binv = _compose(b, inv, -(inv ** 2), 2.0 * inv ** 3 if b.hess is not None else None)
    return dual_mul(a, binv)


def dual_abs(a: Dual2, policy: str) -> Dual2:
    bad = _report(policy, a.val == 0.0, SingularityError, "abs evaluated at its kink (0)")
    s = _poison(np.sign(a.val), bad)
    return _compose(a, np.abs(a.val), s, 0.0)


def dual_sqrt(a: Dual2, policy: str) -> Dual2:
    bad_neg = _report(policy, a.val < 0.0, DomainEvalError, "sqrt of negative value")
    bad_zero = _report(policy, a.val == 0.0, SingularityError, "sqrt at branch point 0")
    bad = None
    if bad_neg is not None or bad_zero is not None:
        bad = np.zeros(np.shape(a.val), dtype=bool)
        if bad_neg is not None:
            bad |= bad_neg
        if bad_zero is not None:
            bad |= bad_zero
    with np.errstate(all="ignore"):
        v = _poison(a.val, bad)
        r = np.sqrt(v)
        f1 = 0.5 / r
        f2 = (-0.25 / (v * r)) if a.hess is not None else None
    return _compose(a, r, f1, f2)


def dual_exp(a: Dual2) -> Dual2:
    e = np.exp(a.val)
    return _compose(a, e, e, e)


def dual_log(a: Dual2, policy: str) -> Dual2:
    bad = _report(policy, a.val <= 0.0, DomainEvalError, "log of nonpositive value")
    with np.errstate(all="ignore"):
        v = _poison(a.val, bad)
        return _compose(a, np.log(v), 1.0 / v, -1.0 / v ** 2 if a.hess is not None else None)


def dual_sin(a: Dual2) -> Dual2:
    s, c = np.sin(a.val), np.cos(a.val)
    return _compose(a, s, c, -s)


def dual_cos(a: Dual2) -> Dual2:
    s, c = np.sin(a.val), np.cos(a.val)
    return _compose(a, c, -s, -c)


def _is_constant(d: Dual2) -> bool:
    if d.grad.size and np.any(d.grad != 0.0):
        return False
    if d.hess is not None and d.hess.size and np.any(d.hess != 0.0):
        return False
    return True


def _coeff_pow(c, v, e):
    """c * v**e with the convention that a zero coefficient kills the factor."""
    with np.errstate(all="ignore"):
        raw = c * np.power(v, e)
    return np.where(np.asarray(c) == 0.0, 0.0, raw)


def dual_pow_varying(a: Dual2, b: Dual2, policy: str) -> Dual2:
    """a^b = exp(b log a) for an exponent that varies; requires a > 0."""
    return dual_exp(dual_mul(b, dual_log(a, policy)))


def dual_pow(a: Dual2, b: Dual2, policy: str) -> Dual2:
    if not _is_constant(b):
        return dual_pow_varying(a, b, policy)
    m = np.asarray(b.val, dtype=float)
    v = a.val
    is_int = (m == np.floor(m)) & np.isfinite(m)
    vzero = np.asarray(v == 0.0)
    vneg = np.asarray(v < 0.0)
    bad_domain = _report(
        policy,
        (vneg & ~is_int) | (vzero & (m < 0)),
        DomainEvalError,
        "power: negative base with non-integer exponent, or zero base with negative exponent",
    )
    bad_sing = _report(
        policy,
        vzero & ~is_int & (m > 0),
        SingularityError,
        "fractional power at branch point 0",
    )
    bad = None
    if bad_domain is not None or bad_sing is not None:
        bad = np.zeros(np.broadcast_shapes(np.shape(v), np.shape(m)), dtype=bool)
        if bad_domain is not None:
            bad |= bad_domain
        if bad_sing is not None:
            bad |= bad_sing
    with np.errstate(all="ignore"):
        f0 = _poison(np.power(v, m), bad)
        f1 = _poison(_coeff_pow(m, v, m - 1.0), bad)
        f2 = _poison(_coeff_pow(m * (m - 1.0), v, m - 2.0), bad) if a.hess is not None else None
    return _compose(a, f0, f1, f2)


def _pow_kernel(m: np.ndarray):
    """``kernel(a, policy)`` computing a^m for the folded constant exponent ``m`` (0-d).

    Same values, checks, messages and NaN poisoning as :func:`dual_pow`
    with a constant exponent, but the checks that apply to ``m`` are
    chosen once here: a nonnegative integer exponent needs none, any other
    keeps exactly its ``v < 0`` and ``v == 0`` tests.
    """
    is_int = bool(m == np.floor(m)) and bool(np.isfinite(m))
    neg_domain = not is_int                 # negative base, non-integer exponent
    zero_domain = bool(m < 0)               # zero base, negative exponent
    zero_sing = not is_int and bool(m > 0)  # branch point of a fractional power
    checked = neg_domain or zero_domain

    def coeff(c, e):
        # c * v**e with a zero coefficient killing the factor, as in _coeff_pow
        if c == 0.0:
            return lambda v: np.zeros(np.shape(v))
        return lambda v: c * np.power(v, e)

    d1 = coeff(m, m - 1.0)
    d2 = coeff(m * (m - 1.0), m - 2.0)

    def kernel(a: Dual2, policy: str) -> Dual2:
        v = a.val
        bad = None
        if checked:
            vzero = v == 0.0
            domain = (v < 0.0 if neg_domain else False) | (vzero if zero_domain else False)
            bad_domain = _report(
                policy, domain, DomainEvalError,
                "power: negative base with non-integer exponent, or zero base with negative exponent",
            )
            bad_sing = _report(policy, vzero if zero_sing else False, SingularityError,
                               "fractional power at branch point 0")
            if bad_domain is not None or bad_sing is not None:
                bad = np.zeros(np.shape(v), dtype=bool)
                for mask in (bad_domain, bad_sing):
                    if mask is not None:
                        bad |= mask
        with np.errstate(all="ignore"):
            f0 = _poison(np.power(v, m), bad)
            f1 = _poison(d1(v), bad)
            f2 = _poison(d2(v), bad) if a.hess is not None else None
        return _compose(a, f0, f1, f2)

    return kernel


# ---------------------------------------------------------------------------
# Compilation
#
# An Ast is compiled once, on its first evaluation, into a tree of closures
# ``fn(env) -> Dual2`` with ``env = (leaves, key, policy)``: ``leaves`` maps
# each variable to its dual, ``key = (k, second_order, batch_ndim)``.
#
# Variable-free subtrees are folded by running the same dual ops once on
# their 0-d values, so 4/3 stays 4 * (1/3) bit for bit.  Every seed
# direction of a variable-free subtree goes through the same scalar
# arithmetic, so its gradient and Hessian are each filled with one value:
# +0 for a literal, -0 after a negation, NaN after inf * 0.  A folded
# constant keeps its value and these two fills.  Only subtrees whose
# operands have zero fills are folded, and a fold that raises leaves the
# subtree to be evaluated (and to raise or poison) on every call.

_UNARY_OPS = {
    "neg": (dual_neg, False),
    "abs": (dual_abs, True),
    "sqrt": (dual_sqrt, True),
    "exp": (dual_exp, False),
    "log": (dual_log, True),
    "sin": (dual_sin, False),
    "cos": (dual_cos, False),
}
_BINARY_OPS = {
    "+": (dual_add, False),
    "-": (dual_sub, False),
    "*": (dual_mul, False),
    "/": (dual_div, True),
    "^": (dual_pow, True),
    "pow": (dual_pow, True),
}
_FOLD_KEY = (1, True, 0)
_ZERO_FILLS = struct.pack("<2d", 0.0, 0.0)
_DERIVATIVE_ARRAYS = {}


def _derivative_arrays(key: tuple, fills: bytes = _ZERO_FILLS, seed=None) -> tuple:
    """Shared read-only (grad, hess) for ``key``: the packed fills (g, h), plus e_seed in grad.

    Fills are compared as bytes, so -0 and NaN fills get entries of their own.
    """
    tag = (key, fills, seed)
    arrays = _DERIVATIVE_ARRAYS.get(tag)
    if arrays is None:
        k, second, nd = key
        g, h = struct.unpack("<2d", fills)
        pad = (1,) * nd  # trailing size-1 axes keep seed axes clear of batch axes
        grad = np.full((k,) + pad, g)
        if seed is not None:
            grad[(seed,) + (0,) * nd] = 1.0
        grad.flags.writeable = False
        hess = None
        if second:
            hess = np.full((k, k) + pad, h)
            hess.flags.writeable = False
        arrays = _DERIVATIVE_ARRAYS[tag] = (grad, hess)
    return arrays


def _constant(val, g: float, h: float):
    fills = struct.pack("<2d", g, h)
    return (lambda env: Dual2(val, *_derivative_arrays(env[1], fills))), (val, g, h)


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


def _fold(op, uses_policy: bool, consts: list):
    """(val, g, h) of op applied to folded operands, or None when it raises."""
    duals = [Dual2(val, *_derivative_arrays(_FOLD_KEY, struct.pack("<2d", g, h))) for val, g, h in consts]
    try:
        d = op(*duals, "raise") if uses_policy else op(*duals)
    except (ArithmeticError, RuntimeWarning):  # EvalError, or numpy errors set to raise
        return None
    return d.val, float(d.grad.flat[0]), float(d.hess.flat[0])


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
    """One bottom-up pass: (fn, const) with const = (val, g, h) for a folded subtree.

    ``variables`` collects one leaf function per variable name met.
    """
    if isinstance(node, Num):
        return _constant(np.asarray(node.value, dtype=float), 0.0, 0.0)
    if isinstance(node, Var):
        name = node.name
        if name not in variables:
            variables[name] = lambda env: env[0][name]
        return variables[name], None
    if isinstance(node, Neg):
        (op, uses_policy), args = _UNARY_OPS["neg"], (node.arg,)
    elif isinstance(node, BinOp):
        (op, uses_policy), args = _BINARY_OPS[node.op], (node.lhs, node.rhs)
    elif isinstance(node, Call):
        table = _BINARY_OPS if len(node.args) == 2 else _UNARY_OPS
        (op, uses_policy), args = table[node.func], node.args
    else:  # pragma: no cover
        raise TypeError(f"unknown node {node!r}")
    parts = [_compile(arg, variables) for arg in args]
    fns = [fn for fn, _ in parts]
    consts = [const for _, const in parts]
    clean = [c is not None and c[1] == 0.0 and c[2] == 0.0 for c in consts]
    if op is dual_pow and clean[1]:
        # constant exponent: dual_pow's own test sees zero derivatives here
        op = _pow_kernel(np.asarray(consts[1][0], dtype=float))
        fns, consts, clean = fns[:1], consts[:1], clean[:1]
    elif op is dual_pow and _has_variable(args[1]):
        # decided by the expression, not by seeding, so values agree with and without derivatives
        op = dual_pow_varying
    if all(clean):
        folded = _fold(op, uses_policy, consts)
        if folded is not None:
            return _constant(*folded)
    return _apply(op, uses_policy, fns), None


# ---------------------------------------------------------------------------
# Evaluation


def _batch_shape(binding: Mapping) -> tuple:
    shapes = [np.shape(v) for v in binding.values()]
    return np.broadcast_shapes(*shapes) if shapes else ()


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
    The expression is compiled on its first evaluation and the compiled
    program is kept on ``ast``.
    """
    seeds = list(seeds)
    missing = [v for v in ast.variables if v not in binding]
    if missing:
        raise KeyError(f"unbound variables: {sorted(missing)}")
    for s in seeds:
        if s not in binding:
            raise KeyError(f"seed {s!r} is not bound")
    k = len(seeds)
    seed_index = {name: j for j, name in enumerate(seeds)}
    policy = on_singularity
    if policy not in ("raise", "nan"):
        raise ValueError(f"on_singularity must be 'raise' or 'nan', got {policy!r}")
    S = _batch_shape(binding)
    if ast.program is None:
        variables = {}
        fn, _ = _compile(ast.root, variables)
        object.__setattr__(ast, "program", (fn, tuple(sorted(variables))))
    run, names = ast.program
    key = (k, order >= 2, len(S))
    leaves = {
        name: Dual2(np.asarray(binding[name], dtype=float),
                    *_derivative_arrays(key, seed=seed_index.get(name)))
        for name in names
    }
    out = run((leaves, key, policy))
    hess = _expand(out.hess, (k, k) + S) if order >= 2 else None
    return Dual2(_expand(out.val, S), _expand(out.grad, (k,) + S), hess)


def _expand(arr, shape: tuple) -> np.ndarray:
    """A fresh float array of full ``shape`` (results never alias program or binding arrays)."""
    arr = np.asarray(arr, dtype=float)
    return np.array(arr if arr.shape == shape else np.broadcast_to(arr, shape))


def eval_value(ast: Ast, binding: Mapping, on_singularity: str = "raise") -> np.ndarray:
    """Plain evaluation (no derivatives); scalars in, scalar/array out."""
    return eval_jet2(ast, binding, seeds=(), order=1, on_singularity=on_singularity).val
