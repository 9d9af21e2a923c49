"""Small arithmetic-expression language for defining models on the CLI.

Grammar: variables x1..xd, numeric literals, unary minus, + - * /, and
integer powers via ^. Precedence ^ > unary minus > * / > + -, binaries
left-associative, ^ right-associative. Exponents must be nonnegative
integer literals. All errors carry a byte offset into the source.

An expression's depth counts one level per operator, unary minus and
parenthesis pair along its deepest path; the parser rejects anything deeper
than MAX_DEPTH, so no function here comes near Python's recursion limit.
`to_str` parenthesizes every operator, so it renders trees up to
MAX_DEPTH // 2 deep in a form that parses back.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

MAX_DEPTH = 200  # the deepest nesting parse accepts; see the module docstring


class ExprError(ValueError):
    """Parse or evaluation failure with a source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exp: int  # nonnegative integer


Expr = Union[Lit, Var, Neg, Bin, Pow]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[-+*/^()]))"
)

_BIN_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_RBP = 30  # between mul and pow


@dataclass(frozen=True)
class _Tok:
    kind: str  # num | var | op | end
    text: str
    pos: int


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    i = 0
    while i < len(src):
        m = _TOKEN.match(src, i)
        if m is None:
            # skip leading whitespace to point at the offending byte
            j = i
            while j < len(src) and src[j].isspace():
                j += 1
            if j == len(src):
                break
            raise ExprError(f"unexpected character {src[j]!r}", j)
        if m.lastgroup == "num":
            toks.append(_Tok("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "var":
            toks.append(_Tok("var", m.group("var"), m.start("var")))
        else:
            toks.append(_Tok("op", m.group("op"), m.start("op")))
        i = m.end()
    toks.append(_Tok("end", "", len(src)))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok], d: int):
        self.toks = toks
        self.i = 0
        self.d = d
        self.level = 0  # open expression() calls

    @property
    def cur(self) -> _Tok:
        return self.toks[self.i]

    def advance(self) -> _Tok:
        t = self.cur
        self.i += 1
        return t

    def parse(self) -> Expr:
        e, _ = self.expression(0)
        if self.cur.kind != "end":
            raise ExprError(f"unexpected {self.cur.text!r}", self.cur.pos)
        return e

    def expression(self, rbp: int) -> tuple[Expr, int]:
        """Parse while operators bind tighter than rbp; returns the tree and
        its depth. Every nested call adds one level to the depth returned, so
        bounding both the calls and the depth bounds the recursion."""
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ExprError(f"expression nested deeper than {MAX_DEPTH} levels", self.cur.pos)
        left, depth = self.nud(self.advance())
        while self.cur.kind == "op" and _BIN_LBP.get(self.cur.text, -1) > rbp:
            t = self.advance()
            left, depth = self.led(t, left, depth)
            if depth > MAX_DEPTH:
                raise ExprError(f"expression nested deeper than {MAX_DEPTH} levels", t.pos)
        self.level -= 1
        return left, depth

    def nud(self, t: _Tok) -> tuple[Expr, int]:
        if t.kind == "num":
            val = float(t.text)
            if not math.isfinite(val):
                raise ExprError("numeric literal overflows a double", t.pos)
            return Lit(val), 1
        if t.kind == "var":
            k = int(t.text[1:])
            if not (1 <= k <= self.d):
                raise ExprError(f"variable {t.text} out of range 1..{self.d}", t.pos)
            return Var(k - 1), 1
        if t.kind == "op" and t.text == "-":
            arg, depth = self.expression(_UNARY_RBP)
            return Neg(arg), depth + 1
        if t.kind == "op" and t.text == "(":
            e, depth = self.expression(0)
            if not (self.cur.kind == "op" and self.cur.text == ")"):
                raise ExprError("expected ')'", self.cur.pos)
            self.advance()
            return e, depth + 1
        if t.kind == "end":
            raise ExprError("unexpected end of input", t.pos)
        raise ExprError(f"unexpected {t.text!r}", t.pos)

    def led(self, t: _Tok, left: Expr, depth: int) -> tuple[Expr, int]:
        if t.text == "^":
            # right-assoc; exponent must be a nonnegative integer literal
            rhs_tok = self.cur
            rhs, rhs_depth = self.expression(_BIN_LBP["^"] - 1)
            if not isinstance(rhs, Lit) or rhs.value != int(rhs.value) or rhs.value < 0:
                raise ExprError("exponent must be a nonnegative integer literal", rhs_tok.pos)
            return Pow(left, int(rhs.value)), max(depth, rhs_depth) + 1
        rhs, rhs_depth = self.expression(_BIN_LBP[t.text])
        return Bin(t.text, left, rhs), max(depth, rhs_depth) + 1


def parse(src: str, d: int) -> Expr:
    """Parse an expression over variables x1..xd. Raises ExprError."""
    return _Parser(_tokenize(src), d).parse()


def to_str(e: Expr) -> str:
    """Fully parenthesized rendering; parses back to an equivalent tree."""
    if isinstance(e, Lit):
        # negative literals only arise in programmatic trees
        return f"(-{-e.value!r})" if e.value < 0 else repr(e.value)
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, Neg):
        return f"(-{to_str(e.arg)})"
    if isinstance(e, Pow):
        return f"({to_str(e.base)}^{e.exp})"
    return f"({to_str(e.left)} {e.op} {to_str(e.right)})"


_ARITH = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def evaluate(e: Expr, X):
    """Evaluate at one point (d,), giving a float, or at every row of an
    (..., d) array, giving an array of shape X.shape[:-1].

    A division by zero anywhere, or any non-finite intermediate value,
    overflow included, raises ExprError. Powers use the C library's pow, as
    Python's float ** int does, so each entry equals a scalar evaluation bit
    for bit.
    """
    X = np.asarray(X, dtype=float)
    # From finite inputs, the first non-finite value sets a floating-point
    # flag, which errstate turns into an error; other inputs are checked
    # node by node.
    check_each = not np.isfinite(X).all()
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            out = _evaluate(e, np.moveaxis(X, -1, 0), check_each)
    except FloatingPointError:
        raise ExprError("non-finite intermediate value", 0) from None
    if X.ndim == 1:
        return float(out)
    return np.array(np.broadcast_to(out, X.shape[:-1]))


def _evaluate(node: Expr, cols: np.ndarray, check_each: bool):
    if isinstance(node, Lit):
        return np.float64(node.value)
    if isinstance(node, Var):
        return cols[node.index]
    if isinstance(node, Neg):
        return -_evaluate(node.arg, cols, check_each)
    if isinstance(node, Pow):
        out = np.float_power(_evaluate(node.base, cols, check_each), node.exp)
    else:
        a = _evaluate(node.left, cols, check_each)
        b = _evaluate(node.right, cols, check_each)
        if node.op == "/" and np.any(b == 0):
            raise ExprError("division by zero", 0)
        out = _ARITH[node.op](a, b)
    if check_each and not np.isfinite(out).all():
        raise FloatingPointError
    return out


def _mul(p, q):
    """Product of two expansions, like terms merged; None past degree 2."""
    if max(map(len, p), default=0) + max(map(len, q), default=0) > 2:
        return None
    out: dict[tuple[int, ...], float] = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            key = tuple(sorted(ka + kb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def monomials(e: Expr, d: int) -> Optional[tuple[float, np.ndarray, np.ndarray]]:
    """The quadratic form (c, b, M), e(x) = c + b.x + x'Mx with M symmetric;
    None when the tree is not a polynomial (division by a non-constant or by
    zero) or any subexpression expands past degree 2. Terms are keyed by
    sorted variable indices, (), (i,) or (i, j), and zero terms dropped.
    Powers of a constant use float_power, as `evaluate` does. A non-finite
    coefficient in any subtree's expansion raises ExprError, as a non-finite
    value does in `evaluate`."""

    def rec(node: Expr):
        p = expand(node)
        if p is None:
            return None
        if not all(map(math.isfinite, p.values())):
            raise ExprError("non-finite intermediate value", 0)
        return {k: v for k, v in p.items() if v != 0.0}

    def expand(node: Expr):
        if isinstance(node, Lit):
            return {(): node.value}
        if isinstance(node, Var):
            return {(node.index,): 1.0}
        if isinstance(node, Neg):
            p = rec(node.arg)
            return None if p is None else {k: -v for k, v in p.items()}
        if isinstance(node, Pow):
            p = rec(node.base)
            if p is not None and set(p) <= {()}:
                with np.errstate(over="ignore"):  # the finite check in rec reports it
                    return {(): float(np.float_power(p.get((), 0.0), node.exp))}
            if p is None or node.exp > 2:
                return None
            return _mul(p, p) if node.exp == 2 else p if node.exp else {(): 1.0}
        p = rec(node.left)
        q = None if p is None else rec(node.right)
        if q is None:
            return None
        if node.op == "*":
            return _mul(p, q)
        if node.op == "/":  # only by a nonzero constant
            return {k: v / q[()] for k, v in p.items()} if set(q) == {()} else None
        if node.op == "-":
            q = {k: -v for k, v in q.items()}
        out = dict(p)
        for k, v in q.items():
            out[k] = out.get(k, 0.0) + v
        return out

    terms = rec(e)
    if terms is None:
        return None
    c, b, M = terms.pop((), 0.0), np.zeros(d), np.zeros((d, d))
    for key, coeff in terms.items():
        if len(key) == 1:
            b[key] = coeff
        else:
            M[key] = M[key[::-1]] = coeff if key[0] == key[1] else coeff / 2
    return c, b, M
