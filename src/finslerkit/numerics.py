"""Second-order forward differentiation and small dense linear algebra.

Two independent derivative oracles live here: exact-to-roundoff hyper-dual
propagation (`jet_eval`) and central finite differences (`fd_hessian`).
Closed-form tensor formulas elsewhere in the package are audited against
both, so a bug in one oracle cannot silently confirm a wrong formula.

All matrices are desk-scale (d <= 8); storage is dense numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

SYM_TOL = 1e-10  # bound on |m - m^T| relative to the matrix scale (pd_check, config)


class Jet2:
    """Hyper-dual scalar v + a*e1 + b*e2 + c*e1*e2 with e1^2 = e2^2 = 0.

    Seeding e1/e2 with unit coordinate directions and reading the e1*e2
    coefficient yields one exact mixed second derivative per evaluation;
    the e1 coefficient carries the first derivative.  No truncation error.
    """

    __slots__ = ("value", "d1", "d2", "d12")

    def __init__(self, value: float, d1: float = 0.0, d2: float = 0.0, d12: float = 0.0):
        self.value = float(value)
        self.d1 = float(d1)
        self.d2 = float(d2)
        self.d12 = float(d12)

    def __repr__(self):
        return f"Jet2({self.value}, {self.d1}, {self.d2}, {self.d12})"

    # -- arithmetic

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value + other.value, self.d1 + other.d1,
                        self.d2 + other.d2, self.d12 + other.d12)
        return Jet2(self.value + other, self.d1, self.d2, self.d12)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value - other.value, self.d1 - other.d1,
                        self.d2 - other.d2, self.d12 - other.d12)
        return Jet2(self.value - other, self.d1, self.d2, self.d12)

    def __rsub__(self, other):
        return Jet2(other - self.value, -self.d1, -self.d2, -self.d12)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.value * other.value,
                self.value * other.d1 + self.d1 * other.value,
                self.value * other.d2 + self.d2 * other.value,
                self.value * other.d12 + self.d1 * other.d2
                + self.d2 * other.d1 + self.d12 * other.value,
            )
        return Jet2(self.value * other, self.d1 * other, self.d2 * other, self.d12 * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other._reciprocal()
        if other == 0.0:
            raise ZeroDivisionError("division by zero")
        inv = 1.0 / other
        return Jet2(self.value * inv, self.d1 * inv, self.d2 * inv, self.d12 * inv)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __neg__(self):
        return Jet2(-self.value, -self.d1, -self.d2, -self.d12)

    def __pos__(self):
        return self

    def _reciprocal(self):
        x = self.value
        if x == 0.0:
            raise ZeroDivisionError("division by zero")
        return self._lift(1.0 / x, -1.0 / (x * x), 2.0 / (x * x * x))

    def _lift(self, f: float, fp: float, fpp: float) -> "Jet2":
        # chain rule through a scalar function with value f, f', f'' at self.value
        return Jet2(f, fp * self.d1, fp * self.d2,
                    fp * self.d12 + fpp * self.d1 * self.d2)

    def __pow__(self, e):
        if isinstance(e, Jet2):
            if self.value <= 0.0:
                raise ValueError("non-positive base with dual exponent")
            return (e * self.log()).exp()
        if float(e).is_integer():
            n = int(e)
            if n < 0:
                return (self.__pow__(-n))._reciprocal()
            out = Jet2(1.0)
            for _ in range(n):  # exponents here are small; exact for any base
                out = out * self
            return out
        if self.value < 0.0:
            raise ValueError("negative base with non-integer exponent")
        if self.value == 0.0:
            raise ZeroDivisionError("derivative of fractional power at zero")
        x = self.value
        return self._lift(x ** e, e * x ** (e - 1.0), e * (e - 1.0) * x ** (e - 2.0))

    def __rpow__(self, base):
        if base <= 0.0:
            raise ValueError("non-positive base with dual exponent")
        return (self * math.log(base)).exp()

    # -- comparisons act on the real part

    def __lt__(self, other):
        return self.value < _val(other)

    def __le__(self, other):
        return self.value <= _val(other)

    def __gt__(self, other):
        return self.value > _val(other)

    def __ge__(self, other):
        return self.value >= _val(other)

    def __eq__(self, other):
        return self.value == _val(other)

    def __hash__(self):
        return hash(self.value)

    # -- elementary functions

    def exp(self):
        f = math.exp(self.value)
        return self._lift(f, f, f)

    def log(self):
        x = self.value
        if x <= 0.0:
            raise ValueError("log of non-positive value")
        return self._lift(math.log(x), 1.0 / x, -1.0 / (x * x))

    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._lift(s, c, -s)

    def cos(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._lift(c, -s, -c)

    def sqrt(self):
        x = self.value
        if x < 0.0:
            raise ValueError("sqrt of negative value")
        if x == 0.0:
            raise ZeroDivisionError("derivative of sqrt at zero")
        f = math.sqrt(x)
        return self._lift(f, 0.5 / f, -0.25 / (f * x))


def _val(v):
    return v.value if isinstance(v, Jet2) else v


@dataclass
class SecondOrderJet:
    """Value, gradient and (symmetrized) Hessian of a scalar function."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def jet_eval(f: Callable, y: Sequence[float]) -> SecondOrderJet:
    """Exact-to-roundoff value/gradient/Hessian by hyper-dual propagation.

    ``f`` must accept a list of scalars and stay generic over the scalar
    type; one evaluation per index pair (i <= j) seeds directions e_i, e_j.
    """
    y = [float(v) for v in y]
    d = len(y)
    grad = np.zeros(d)
    hess = np.zeros((d, d))
    value = None
    for i in range(d):
        for j in range(i, d):
            args = [
                Jet2(y[m], 1.0 if m == i else 0.0, 1.0 if m == j else 0.0)
                for m in range(d)
            ]
            out = f(args)
            ov, o1, o12 = (
                (out.value, out.d1, out.d12) if isinstance(out, Jet2) else (float(out), 0.0, 0.0)
            )
            if value is None:
                value = ov
            if i == j:
                grad[i] = o1
            hess[i, j] = hess[j, i] = o12
    hess = 0.5 * (hess + hess.T)  # symmetric by construction; enforce anyway
    return SecondOrderJet(float(value), grad, hess)


def fd_hessian(
    f: Callable,
    y: Sequence[float],
    step: float = 1e-4,
    richardson: bool = False,
) -> np.ndarray:
    """Central-difference Hessian, symmetrized.

    With ``richardson=True`` the estimate combines steps h and h/2 as
    (4 H(h/2) - H(h)) / 3, removing the leading O(h^2) error term.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    y = np.asarray(y, dtype=float)
    d = len(y)

    def single(h: float) -> np.ndarray:
        hess = np.zeros((d, d))
        f0 = f(list(y))
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = h
            hess[i, i] = (f(list(y + ei)) - 2.0 * f0 + f(list(y - ei))) / (h * h)
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = h
                hess[i, j] = hess[j, i] = (
                    f(list(y + ei + ej)) - f(list(y + ei - ej))
                    - f(list(y - ei + ej)) + f(list(y - ei - ej))
                ) / (4.0 * h * h)
        return hess

    hess = single(step)
    if richardson:
        hess = (4.0 * single(step / 2.0) - hess) / 3.0
    return 0.5 * (hess + hess.T)


@dataclass
class PDCheck:
    """Outcome of a positive-definiteness test; pivot is 1-based on failure."""

    ok: bool
    pivot: int | None = None


def pd_check(m: np.ndarray) -> PDCheck:
    """Cholesky test: true iff all factorization pivots are strictly positive.

    Non-symmetric input (beyond SYM_TOL relative to the matrix scale) is
    rejected.  On failure the 1-based index of the first bad pivot is the
    witness.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    scale = max(1.0, np.abs(m).max())
    if np.abs(m - m.T).max() > SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    d = m.shape[0]
    low = np.zeros((d, d))
    for j in range(d):
        s = m[j, j] - np.dot(low[j, :j], low[j, :j])
        if s <= 0.0:
            return PDCheck(False, j + 1)
        low[j, j] = math.sqrt(s)
        for i in range(j + 1, d):
            low[i, j] = (m[i, j] - np.dot(low[i, :j], low[j, :j])) / low[j, j]
    return PDCheck(True, None)


def least_squares(a: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-norm least squares: minimizes ||a s - rhs||_2.

    Returns the solution and the achieved residual 2-norm.  Rank-deficient
    systems get the minimum-norm solution (SVD-backed).
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValueError("coefficient matrix needs at least one row")
    sol, _, _, _ = np.linalg.lstsq(a, rhs, rcond=None)
    residual = float(np.linalg.norm(a @ sol - rhs))
    return sol, residual
