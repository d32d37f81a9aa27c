"""First- and second-order forward differentiation and small dense linear algebra.

Two independent derivative oracles live here: exact-to-roundoff hyper-dual
propagation (`jet_eval`) and central finite differences (`fd_hessian`).
Closed-form tensor formulas elsewhere in the package are audited against
both, so a bug in one oracle cannot silently confirm a wrong formula.
A `Jet2` seeded first-order (d2 = d12 = None) skips the second-order parts
for a caller that reads only d1: the hv-torsion oracle (`torsion_oracle`).

Both evaluate over lanes: each calls its function once for a batch of
points, on numpy arrays (every index pair or stencil point of every point);
one point is a batch of one.  A guard raises when any lane fails it
(`any_lane`).  numpy's exp/log/sin/cos/pow may differ from libm's by 1 ulp;
`+ - * /`, sqrt and integer powers (repeated products) agree bit for bit.

All matrices are desk-scale (d <= 8); storage is dense numpy.  `pd_check`
factorizes a stack of them as lanes, each with its own pivot.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

SYM_TOL = 1e-10  # bound on |m - m^T| relative to the matrix scale (pd_check, config)


def any_lane(mask) -> bool:
    """A guard's condition over lanes: true when it holds in any lane.  A
    comparison of plain floats is already a bool and passes through."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def first_lane(mask, value):
    """``value`` in the first lane where a guard's condition holds (its message)."""
    return np.broadcast_to(value, mask.shape)[mask][0] if isinstance(mask, np.ndarray) else value


def lane(record, i):
    """Lane i of a lane-valued record (dataclasses nested, arrays with the lane axis
    in front, plain values shared) or array, or the lanes of an index array or slice i."""
    if isinstance(record, np.ndarray):
        return record[i]
    return type(record)(**{
        f: v[i] if isinstance(v, np.ndarray) else lane(v, i) if is_dataclass(v) else v
        for f, v in vars(record).items()})


def join_lanes(records):
    """One flat record (or array) whose arrays join those of ``records`` along the lane
    axis in front, undoing `lane` over consecutive slices; plain values are the first's."""
    if isinstance(records[0], np.ndarray):
        return np.concatenate(records)
    return type(records[0])(**{
        f: np.concatenate([vars(r)[f] for r in records]) if isinstance(v, np.ndarray) else v
        for f, v in vars(records[0]).items()})


def lanewise(c, axes: int):
    """A per-lane scalar with ``axes`` unit axes appended, to scale each lane's tensor."""
    return c[(...,) + (None,) * axes] if isinstance(c, (np.ndarray, Jet2)) else c


# Contractions over the last axes, lanes in front; per lane matvec and dot give the bits of @

def outer(u, v):
    return u[..., :, None] * v[..., None, :]


def matvec(m, v):
    return (m @ v[..., None])[..., 0]


def dot(u, v):
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0][()]  # [()]: one lane -> scalar


class Jet2:
    """Hyper-dual scalar v + a*e1 + b*e2 + c*e1*e2 with e1^2 = e2^2 = 0.

    Seeding e1/e2 with unit coordinate directions and reading the e1*e2
    coefficient yields one exact mixed second derivative per evaluation;
    the e1 coefficient carries the first derivative.  No truncation error.
    Seeded with d2 = d12 = None a jet is first-order: it carries value and
    d1 only, with the same bits.  Mixing the orders raises TypeError.

    The parts are floats or numpy arrays that broadcast to one lane shape,
    and the arithmetic is elementwise.  numpy operands defer to Jet2
    (``__array_ufunc__ = None``), so no object array is ever built.
    """

    __slots__ = ("value", "d1", "d2", "d12")
    __array_ufunc__ = None

    def __init__(self, value, d1=0.0, d2=0.0, d12=0.0):
        self.value, self.d1, self.d2, self.d12 = value, d1, d2, d12

    def __repr__(self):
        return f"Jet2({self.value}, {self.d1}, {self.d2}, {self.d12})"

    def __getitem__(self, key):
        """Index every part alike, e.g. ``jet[..., None]`` to add an axis."""
        return Jet2(*(None if v is None else np.asarray(v)[key]
                      for v in (self.value, self.d1, self.d2, self.d12)))

    @staticmethod
    def stack(jets) -> "Jet2":
        """One jet whose parts stack those of ``jets`` along a new last axis;
        the jets share one order (`_first_order` raises otherwise)."""
        first = [jets[0]._first_order(j) for j in jets if j.d2 is None or jets[0].d2 is None]
        return Jet2(*(None if first and p in ("d2", "d12") else
                      np.stack(np.broadcast_arrays(*(getattr(j, p) for j in jets)), axis=-1)
                      for p in Jet2.__slots__))

    def _first_order(self, other):  # d2, d12 of a first-order result; never mix the orders
        if (self.d2 is None) != (other.d2 is None):
            raise TypeError("cannot mix a first-order Jet2 (d2 None) with a second-order one")
        return None, None

    # -- arithmetic

    def __add__(self, other):
        if isinstance(other, Jet2):
            if self.d2 is None or other.d2 is None:
                return Jet2(self.value + other.value, self.d1 + other.d1, *self._first_order(other))
            return Jet2(self.value + other.value, self.d1 + other.d1,
                        self.d2 + other.d2, self.d12 + other.d12)
        return Jet2(self.value + other, self.d1, self.d2, self.d12)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            if self.d2 is None or other.d2 is None:
                return Jet2(self.value - other.value, self.d1 - other.d1, *self._first_order(other))
            return Jet2(self.value - other.value, self.d1 - other.d1,
                        self.d2 - other.d2, self.d12 - other.d12)
        return Jet2(self.value - other, self.d1, self.d2, self.d12)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            if self.d2 is None or other.d2 is None:
                return Jet2(self.value * other.value, self.value * other.d1 + self.d1 * other.value,
                            *self._first_order(other))
            return Jet2(
                self.value * other.value,
                self.value * other.d1 + self.d1 * other.value,
                self.value * other.d2 + self.d2 * other.value,
                self.value * other.d12 + self.d1 * other.d2
                + self.d2 * other.d1 + self.d12 * other.value,
            )
        if self.d2 is None:
            return Jet2(self.value * other, self.d1 * other, None, None)
        return Jet2(self.value * other, self.d1 * other, self.d2 * other, self.d12 * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other._reciprocal()
        if any_lane(other == 0.0):
            raise ZeroDivisionError("division by zero")
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __neg__(self):
        if self.d2 is None:
            return Jet2(-self.value, -self.d1, None, None)
        return Jet2(-self.value, -self.d1, -self.d2, -self.d12)

    def _reciprocal(self):
        x = self.value
        if any_lane(x == 0.0):
            raise ZeroDivisionError("division by zero")
        return self._lift(1.0 / x, -1.0 / (x * x), None if self.d2 is None else 2.0 / (x * x * x))

    def _lift(self, f, fp, fpp) -> "Jet2":
        # chain rule through a scalar function with value f, f', f'' at self.value
        if self.d2 is None:
            return Jet2(f, fp * self.d1, None, None)
        return Jet2(f, fp * self.d1, fp * self.d2, fp * self.d12 + fpp * self.d1 * self.d2)

    def __pow__(self, e):
        if isinstance(e, Jet2):
            if any_lane(self.value <= 0.0):
                raise ValueError("non-positive base with dual exponent")
            return (e * self.log()).exp()
        if float(e).is_integer():
            n = int(e)
            if n < 0:
                return (self.__pow__(-n))._reciprocal()
            out = self if n else self._lift(1.0, 0.0, 0.0)  # x^0: the constant 1, as a jet
            for _ in range(n - 1):  # exponents here are small; exact for any base
                out = out * self
            return out
        x = self.value
        if any_lane(x < 0.0):
            raise ValueError("negative base with non-integer exponent")
        if any_lane(x == 0.0):
            raise ZeroDivisionError("derivative of fractional power at zero")
        return self._lift(x ** e, e * x ** (e - 1.0), e * (e - 1.0) * x ** (e - 2.0))

    def __rpow__(self, base):
        if any_lane(base <= 0.0):
            raise ValueError("non-positive base with dual exponent")
        return (self * np.log(base)).exp()

    # -- elementary functions

    def exp(self):
        f = np.exp(self.value)
        return self._lift(f, f, f)

    def log(self):
        x = self.value
        if any_lane(x <= 0.0):
            raise ValueError("log of non-positive value")
        return self._lift(np.log(x), 1.0 / x, -1.0 / (x * x))

    def sin(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._lift(s, c, -s)

    def cos(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._lift(c, -s, -c)

    def sqrt(self):
        x = self.value
        if any_lane(x < 0.0):
            raise ValueError("sqrt of negative value")
        if any_lane(x == 0.0):
            raise ZeroDivisionError("derivative of sqrt at zero")
        f = np.sqrt(x)
        return self._lift(f, 0.5 / f, -0.25 / (f * x))


@dataclass
class SecondOrderJet:
    """Value, gradient and symmetric Hessian of a scalar function; for a
    batch of points each carries the batch shape in front."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def jet_eval(f: Callable, y) -> SecondOrderJet:
    """Exact-to-roundoff value/gradient/Hessian by hyper-dual propagation.

    ``y`` is one point (d,) or a batch of points (..., d).  ``f`` gets a
    list of d scalars and must stay generic over the scalar type and over
    lanes: it runs once, on jets whose lanes (P, ...) hold every index pair
    i <= j (seeds e_i, e_j) of every point.  Results carry the batch shape.
    """
    y = np.asarray(y, dtype=float)
    d = y.shape[-1]
    i, j, e1, e2, diag = _pair_seeds(d, y.ndim)
    lanes = (len(i),) + y.shape[:-1]
    out = f([Jet2(y[..., m], e1[m], e2[m]) for m in range(d)])  # parts broadcast to lanes
    jet = np.empty((3,) + lanes)  # value, d1 and d12 over all lanes, broadcast in place
    jet[0], jet[1], jet[2] = (out.value, out.d1, out.d12) if isinstance(out, Jet2) else (out, 0, 0)
    o1, o12 = jet[1:].transpose(0, *range(2, jet.ndim), 1)  # the pairs last
    hess = np.zeros(y.shape[:-1] + (d, d))
    hess[..., i, j] = hess[..., j, i] = o12  # symmetric by construction
    return SecondOrderJet(jet[0, 0], o1[..., diag], hess)


@lru_cache(maxsize=None)
def _pair_seeds(d: int, ndim: int):
    """The index pairs i <= j of `jet_eval`, each coordinate's e1 and e2 seeds
    over them and the diagonal mask: once per (d, ndim), read-only."""
    i, j = np.triu_indices(d)
    eye = np.eye(d).reshape((d, d) + (1,) * (ndim - 1))
    seeds = (i, j, np.moveaxis(eye[i], 1, 0), np.moveaxis(eye[j], 1, 0), i == j)
    for a in seeds:
        a.flags.writeable = False
    return seeds


def fd_hessian(f: Callable, y, step=1e-4) -> np.ndarray:
    """Central-difference Hessian, symmetric by construction (one estimate per pair i <= j).

    ``y`` is one point (d,) or a batch (..., d), ``step`` one float or one per
    point (...); ``f`` gets a list of d coordinate arrays and runs once, on
    lanes (S, ...) holding every stencil point of every point.
    """
    step = np.asarray(step, dtype=float)
    if not np.all(step > 0.0):
        raise ValueError("step must be positive")
    y = np.asarray(y, dtype=float)
    d = y.shape[-1]
    i, j = np.triu_indices(d, 1)
    eye = np.eye(d)
    # the point, +-e_m, then ++, +-, -+, -- of each pair i < j
    stencil = np.concatenate([np.zeros((1, d)), eye, -eye, eye[i] + eye[j], eye[i] - eye[j],
                              eye[j] - eye[i], -eye[i] - eye[j]])
    points = y + step[..., None] * stencil.reshape(stencil.shape[:1] + (1,) * (y.ndim - 1) + (d,))
    v = np.broadcast_to(f([points[..., m] for m in range(d)]), points.shape[:-1])
    f0, plus, minus = v[0], v[1:d + 1], v[d + 1:2 * d + 1]
    pp, pm, mp, mm = np.split(v[2 * d + 1:], 4)
    hess = np.zeros(y.shape[:-1] + (d, d))
    hess[..., range(d), range(d)] = np.moveaxis((plus - 2.0 * f0 + minus) / (step * step), 0, -1)
    hess[..., i, j] = hess[..., j, i] = np.moveaxis(
        (pp - pm - mp + mm) / (4.0 * step * step), 0, -1)
    return hess


@dataclass
class PDCheck:
    """Outcome of a positive-definiteness test, per matrix of the stack (0-d for
    one matrix): pivot is the 1-based index of the first bad pivot, 0 where ok."""

    ok: np.ndarray
    pivot: np.ndarray


def pd_check(m: np.ndarray) -> PDCheck:
    """Cholesky test: true iff all factorization pivots are strictly positive.

    ``m`` is one matrix or a stack (..., d, d) factorized as lanes in one
    pass.  Non-symmetric input (beyond SYM_TOL relative to each matrix's own
    scale) is rejected.  On failure the 1-based index of the first bad (or
    NaN) pivot is the witness.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("square matrix required")
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    if any_lane(np.abs(m - np.swapaxes(m, -1, -2)).max(axis=(-2, -1)) > SYM_TOL * scale):
        raise ValueError("matrix is not symmetric")
    d = m.shape[-1]
    low = [[m[..., i, j][()] for j in range(i + 1)] for i in range(d)]  # a float or a lane array
    lead = 0  # the count of leading pivots that are positive, per lane
    with np.errstate(all="ignore"):  # a lane past its failed pivot computes garbage
        for j in range(d):
            lead = lead + (lead == j) * (low[j][j] > 0.0)
            for i in range(j + 1, d):  # leave the Schur complement of pivot j in low
                r = low[i][j] / low[j][j]
                for k in range(j + 1, i + 1):
                    low[i][k] = low[i][k] - r * low[k][j]
    pivot = (lead + 1) % (d + 1)  # 0 when all d pivots are positive
    return PDCheck(pivot == 0, pivot)

