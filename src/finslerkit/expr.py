"""Expression language for coordinate-dependent metric data.

Grammar (precedence low to high; every binary operator is left-associative):

    sum      := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)*
    exponent := '-' exponent | atom
    atom     := NUMBER | IDENT | IDENT '(' sum ')' | '(' sum ')'

Identifiers are coordinates ``x1..xd`` (1-based), named constants bound to
numbers at parse time, or the functions exp, log, sin, cos, sqrt.  Binary
``a - b`` is read as ``a + -b``, with the bits of a difference (negation is
exact), and ``a + -b`` prints as ``a - b``.

Nodes are slotted, immutable, and equal (and hashed alike) when of one class with
equal fields.  Evaluation is pure and accepts any scalar type implementing the
arithmetic operators (floats, numpy arrays, duals with exp/log/sin/cos/sqrt methods),
so the same tree serves plain evaluation and forward-mode differentiation.  Array and
dual values may hold many lanes; a domain guard raises when any lane fails it, and each
float lane has the bits of its point (`_per_lane`).  An `ExprTable` holds the entries
of an array, evaluates them at float points (a function node that entries share once,
the last result kept) or on columns of any scalar type, and derives its partials once.
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from .numerics import any_lane

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the character offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class DomainError(ArithmeticError):
    """Evaluation left the real domain; carries the offending subexpression."""

    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in '{subexpr}'")
        self.subexpr = subexpr


def _real(v):
    # a dual number's real part is its .value; .real passes floats through and
    # reads the real part of a complex-step lane
    return getattr(v, "value", v).real


def _call_fn(name: str, v):
    method = getattr(v, name, None)
    if callable(method):
        return method()
    if isinstance(v, np.ndarray):  # sqrt is correctly rounded in numpy too
        return np.sqrt(v) if name == "sqrt" else _per_lane(getattr(math, name), v)
    return getattr(math, name)(v)


def _per_lane(f, *args) -> np.ndarray:
    """f on each lane of float arrays, by the libm call a float makes: numpy's
    vector exp/log/sin/cos/pow may differ from it by an ulp."""
    return np.asarray(np.frompyfunc(f, len(args), 1)(*args), dtype=float)


class Expr:
    """Base node, its fields named by ``__slots__``; subclasses add eval, diff and __str__."""

    __slots__ = ()
    precedence = 9

    def __init_subclass__(cls):
        # __init__ and `args` (type(e)(*e.args) == e) by position, through the slots
        put, get = [getattr(cls, f).__set__ for f in cls.__slots__], attrgetter(*cls.__slots__)
        if len(put) == 1:
            (put_a,) = put
            cls.args = property(lambda self: (get(self),))

            def __init__(self, a):
                put_a(self, a)
        else:  # two fields
            put_a, put_b = put
            cls.args = property(get)

            def __init__(self, a, b):
                put_a(self, a)
                put_b(self, b)
        cls.__init__ = __init__

    def __eq__(self, other):
        return self.args == other.args if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self.args)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def _wrap(self, child: "Expr") -> str:
        return f"({child})" if child.precedence < self.precedence else str(child)

    def _wrap_tight(self, child: "Expr") -> str:
        # parens at equal precedence too: a - (b + c), a/(b*c), (a^b)^c
        return f"({child})" if child.precedence <= self.precedence else str(child)


class Num(Expr):
    __slots__ = ("value",)

    def eval(self, x):
        return self.value

    def diff(self, var):
        return Num(0.0)

    def __str__(self):
        return repr(self.value)


class Coord(Expr):
    __slots__ = ("index",)  # 0-based; rendered 1-based as x1..xd

    def eval(self, x):
        if self.index >= len(x):
            raise DomainError(f"point has dimension {len(x)}", self)
        return x[self.index]

    def diff(self, var):
        return Num(1.0 if var == self.index else 0.0)

    def __str__(self):
        return f"x{self.index + 1}"


class Neg(Expr):
    __slots__ = ("arg",)
    precedence = 4

    def eval(self, x):
        return -self.arg.eval(x)

    def diff(self, var):
        return _neg(self.arg.diff(var))

    def __str__(self):
        return f"-{self._wrap(self.arg)}"


class Add(Expr):
    __slots__ = ("lhs", "rhs")
    precedence = 1

    def eval(self, x):
        return self.lhs.eval(x) + self.rhs.eval(x)

    def diff(self, var):
        return _add(self.lhs.diff(var), self.rhs.diff(var))

    def __str__(self):
        if isinstance(self.rhs, Neg):  # a - b, the parse of that text
            return f"{self._wrap(self.lhs)} - {self._wrap_tight(self.rhs.arg)}"
        return f"{self._wrap(self.lhs)} + {self._wrap(self.rhs)}"


class Mul(Expr):
    __slots__ = ("lhs", "rhs")
    precedence = 2

    def eval(self, x):
        return self.lhs.eval(x) * self.rhs.eval(x)

    def diff(self, var):
        return _add(
            _mul(self.lhs.diff(var), self.rhs),
            _mul(self.lhs, self.rhs.diff(var)),
        )

    def __str__(self):
        return f"{self._wrap(self.lhs)}*{self._wrap(self.rhs)}"


class Div(Expr):
    __slots__ = ("lhs", "rhs")
    precedence = 2

    def eval(self, x):
        den = self.rhs.eval(x)
        if any_lane(_real(den) == 0.0):
            raise DomainError("division by zero", self)
        return self.lhs.eval(x) / den

    def diff(self, var):
        # (u/v)' = (u'v - uv') / v^2
        num = _add(_mul(self.lhs.diff(var), self.rhs), _neg(_mul(self.lhs, self.rhs.diff(var))))
        return _div(num, _pow(self.rhs, Num(2.0)))

    def __str__(self):
        return f"{self._wrap(self.lhs)}/{self._wrap_tight(self.rhs)}"


class Pow(Expr):
    __slots__ = ("base", "exponent")
    precedence = 5

    def eval(self, x):
        b = self.base.eval(x)
        e = self.exponent.eval(x)
        bv = _real(b)
        if isinstance(e, (int, float)):
            whole = float(e).is_integer()
            if not whole and any_lane(bv < 0.0):
                raise DomainError("negative base with non-integer exponent", self)
            if e < 0.0 and any_lane(bv == 0.0):
                raise DomainError("zero base with negative exponent", self)
            n = int(e) if whole else e
            if isinstance(b, np.floating):  # as a Python float: numpy's overflow only warns
                b = float(b)
            try:
                return _per_lane(pow, b, n) if isinstance(b, np.ndarray) else b ** n
            except OverflowError as err:
                raise DomainError("power overflows", self) from err
            except (ValueError, ZeroDivisionError) as err:
                raise DomainError(str(err), self) from err
        # exponent carries derivative information: needs log of the base
        if any_lane(bv <= 0.0):
            raise DomainError("non-positive base with variable exponent", self)
        lanes = isinstance(b, np.ndarray) or isinstance(e, np.ndarray)
        return _per_lane(pow, b, e) if lanes else b ** e

    def diff(self, var):
        base, exp = self.base, self.exponent
        if isinstance(exp, Num):
            # power rule: c * u^(c-1) * u'
            return _mul(
                _mul(Num(exp.value), _pow(base, Num(exp.value - 1.0))),
                base.diff(var),
            )
        # u^v * (v' log u + v u'/u)
        return _mul(
            self,
            _add(
                _mul(exp.diff(var), Fn("log", base)),
                _div(_mul(exp, base.diff(var)), base),
            ),
        )

    def __str__(self):
        # '^' chains render with explicit parens on the right operand
        return f"{self._wrap_tight(self.base)}^{self._wrap_tight(self.exponent)}"


class Fn(Expr):
    __slots__ = ("name", "arg")  # name in FUNCTIONS

    def eval(self, x):
        if id(self) in (shared := getattr(x, "shared", {})):  # one `at` evaluation's values
            return shared[id(self)]
        v = self.arg.eval(x)
        rv = _real(v)
        if self.name == "log" and any_lane(rv <= 0.0):
            raise DomainError("log of non-positive value", self)
        if self.name == "sqrt" and any_lane(rv < 0.0):
            raise DomainError("sqrt of negative value", self)
        try:
            shared[id(self)] = out = _call_fn(self.name, v)
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            raise DomainError(str(err), self) from err
        return out

    def diff(self, var):
        u, du = self.arg, self.arg.diff(var)
        if self.name == "log":
            return _div(du, u)
        if self.name == "sqrt":
            return _div(du, _mul(Num(2.0), Fn("sqrt", u)))
        if self.name == "exp":
            outer = self  # one node, shared by every partial of a table
        elif self.name == "sin":
            outer = Fn("cos", u)
        else:  # cos: the parser admits only FUNCTIONS
            outer = _neg(Fn("sin", u))
        return _mul(outer, du)

    def __str__(self):
        return f"{self.name}({self.arg})"


# -- construction-time folding keeps derivative trees readable; this is not a
#    simplifier, just zero/one elimination at build time.

def _is_num(e: Expr, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):  # first: 0.0 + -0.0 is +0.0, as 0.0 - 0.0
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return Div(a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value ** b.value)
    return Pow(a, b)


# -- tokenizer / parser

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{_IDENT.pattern})"
    r"|(?P<op>[-+*/^(),])|(?P<bad>\S))"  # bad: a character that starts no token
)

_COORD = re.compile(r"x([1-9][0-9]*)$")


class _Parser:
    def __init__(self, text: str, constants: Mapping[str, float], dim: float):
        self.tokens = [(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup))
                       for m in _TOKEN.finditer(text)] + [("end", "", len(text))]
        self.constants, self.dim, self.pos = constants, dim, 0

    def peek(self) -> str | None:
        kind, text, _ = self.tokens[self.pos]
        return None if kind == "end" else text

    def take(self) -> tuple[str, str, int]:
        """Return (kind, text, offset) of the next token; a bad character raises
        only here, so a fault the parser meets first wins."""
        kind, text, offset = token = self.tokens[self.pos]
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {text!r}", offset)
        self.pos += 1  # past "end" every caller raises
        return token

    def expect_op(self, op: str):
        kind, text, offset = self.take()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected '{op}'", offset)

    def parse(self) -> Expr:
        e = self.parse_sum()
        if self.peek() is not None:
            raise ExprSyntaxError("trailing input", self.tokens[self.pos][2])
        return e

    def parse_sum(self) -> Expr:
        lhs = self.parse_term()
        while self.peek() in ("+", "-"):
            _, op, _ = self.take()
            rhs = self.parse_term()
            lhs = Add(lhs, rhs if op == "+" else Neg(rhs))
        return lhs

    def parse_term(self) -> Expr:
        lhs = self.parse_negated(self.parse_power)
        while self.peek() in ("*", "/"):
            _, op, _ = self.take()
            rhs = self.parse_negated(self.parse_power)
            lhs = Mul(lhs, rhs) if op == "*" else Div(lhs, rhs)
        return lhs

    def parse_negated(self, operand) -> Expr:
        """A unary (operand: power) or an exponent (operand: atom): '-' before it, or none."""
        if self.peek() == "-":
            self.take()
            return Neg(self.parse_negated(operand))
        return operand()

    def parse_power(self) -> Expr:
        lhs = self.parse_atom()
        while self.peek() == "^":
            self.take()
            lhs = Pow(lhs, self.parse_negated(self.parse_atom))
        return lhs

    def parse_atom(self) -> Expr:
        kind, text, offset = self.take()
        if kind == "num":
            if not math.isfinite(float(text)):
                raise ExprSyntaxError(f"number {text} is not finite", offset)
            return Num(float(text))
        if kind == "ident":
            if self.peek() == "(":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function '{text}'", offset)
                self.take()  # '('
                args = [self.parse_sum()]
                while self.peek() == ",":
                    self.take()
                    args.append(self.parse_sum())
                self.expect_op(")")
                if len(args) != 1:
                    raise ExprSyntaxError(
                        f"{text} expects 1 argument, got {len(args)}", offset
                    )
                return Fn(text, args[0])
            m = _COORD.match(text)
            if m and int(m.group(1)) > self.dim:
                raise ExprSyntaxError(f"coordinate {text} is beyond dimension {self.dim}", offset)
            if m:
                return Coord(int(m.group(1)) - 1)
            if text in self.constants:
                return Num(float(self.constants[text]))
            raise ExprSyntaxError(f"unknown identifier '{text}'", offset)
        if kind == "op" and text == "(":
            e = self.parse_sum()
            self.expect_op(")")
            return e
        if kind == "end":
            raise ExprSyntaxError("expected an operand", offset)
        raise ExprSyntaxError(f"unexpected '{text}'", offset)


def parse(text: str, constants: Mapping[str, float] | None = None,
          dim: int | None = None) -> Expr:
    """Parse expression text into an immutable tree.

    Named constants are substituted by value at parse time.  Given ``dim``,
    a coordinate beyond x<dim> is rejected like an unknown identifier.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text, constants or {}, math.inf if dim is None else dim).parse()


class _Columns(list):
    """The coordinate columns of one `ExprTable.at` evaluation, with the values of the
    function nodes its entries share: each is computed once, for these points only."""

    def __init__(self, cols):
        super().__init__(cols)
        self.shared = {}


class ExprTable:
    """Expressions in the C order of ``shape``, whose last axis, if any, is d."""

    def __init__(self, exprs: Sequence[Expr], shape: tuple[int, ...] = ()):
        self.exprs, self.shape, self._partials, self._last = list(exprs), shape, {}, (None, None)

    def eval(self, cols) -> list:
        """The entries, in C order, on coordinate columns of any scalar type (Jet2 lanes, say)."""
        return [e.eval(cols) for e in self.exprs]

    def at(self, x) -> np.ndarray:
        """The entries at x (d,) or N points x (N, d) as lanes in front, a float for one
        value at one point; the last result is kept, read-only, for the same points."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2):
            raise ValueError("x must be a point (d,) or N points (N, d)")
        if self.shape[-1:] not in ((), x.shape[-1:]):
            raise ValueError(f"x must have dimension {self.shape[-1]}")
        last, key = self._last, (x.shape, x.tobytes())  # one read of the kept pair
        if key != last[0]:
            out = np.empty((len(self.exprs),) + x.shape[:-1])
            for i, v in enumerate(self.eval(_Columns(x.T))):  # x.T[m]: coordinate m
                out[i] = v
            # contiguous, so that matmul takes the BLAS route, and the bits, of one point
            out = np.ascontiguousarray(out.T).reshape(x.shape[:-1] + self.shape)
            out.flags.writeable = False
            self._last = last = key, out[()]
        return last[1]

    def diff(self, d: int) -> "ExprTable":
        """The exact partials T[..., l] = d T[...] / d x^l, built once per d."""
        if d not in self._partials:
            self._partials[d] = ExprTable([e.diff(l) for e in self.exprs for l in range(d)],
                                          self.shape + (d,))
        return self._partials[d]
