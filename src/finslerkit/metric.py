"""Space definition and the (alpha,beta)-metric families.

The central family is F = (alpha+beta)^(k+1) / alpha^k with positive integer
exponent k; k = 1 reduces to the square metric.  The other families are kept
for audit breadth: every closed form downstream is checked against the same
differentiation oracles across all of them.

`finsler_norm` is the single home of F and of each family's domain check.
The square and kropina names are aliases for k = 1 of the generalized
families; `resolve_family` maps them, once per `SpaceSpec`.

`base_point` evaluates a float base point once: its `BasePoint` record holds
a_ij(x) (checked positive definite), b_i(x), a^ij, b^i and b^2; a
`FlagPoint` adds a direction.  Every `(spec, x, ...)` entry point accepts
such a record where it accepts x, and reads it instead of evaluating again.
The one other evaluation of a(x) and b(x) is `geodesic._segment_length`,
on dual segment midpoints and without the positive-definiteness check.

The literature overloads one symbol as both manifold dimension and metric
exponent; here the exponent is named k everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import mul

import numpy as np

from . import expr as ex
from .numerics import any_lane, dot, matvec, pd_check

FAMILIES = (
    "generalized-square",
    "square",
    "randers",
    "kropina",
    "generalized-kropina",
    "matsumoto",
    "riemannian",
)

# half-width of the coordinate box that flag and surface sampling draw x from
SAMPLE_BOX = 1.0

_ALIASES = {"square": ("generalized-square", 1), "kropina": ("generalized-kropina", 1)}


class FamilyDomainError(ArithmeticError):
    """A metric family was evaluated outside its (alpha, beta) domain."""

    def __init__(self, family: str, message: str):
        super().__init__(f"{family}: {message}")
        self.family = family


class DegenerateMetricError(ArithmeticError):
    """a(x) failed positive-definiteness; carries the failing pivot (1-based)."""

    def __init__(self, pivot: int, x):
        super().__init__(f"a(x) not positive definite at x={list(x)} (pivot {pivot})")
        self.pivot = pivot


def resolve_family(family: str, k: int) -> tuple[str, int]:
    """Canonical (family, k): the square and kropina aliases fix k = 1."""
    if family not in FAMILIES:
        raise ValueError(f"unknown metric family '{family}'")
    return _ALIASES.get(family, (family, k))


@dataclass
class PhiPartials:
    """F(alpha, beta) with its first and second partials at one flag."""

    F: float
    Fa: float
    Fb: float
    Faa: float
    Fbb: float
    Fab: float


def finsler_norm(family: str, k: int, alpha, beta):
    """F(alpha, beta); raises FamilyDomainError outside the family's domain.

    Scalar-generic: alpha/beta may be floats or dual numbers, so the same
    expression feeds production evaluation and the derivative oracles."""
    family, k = resolve_family(family, k)
    if family == "generalized-square":
        return (alpha + beta) ** (k + 1) / alpha ** k
    if family == "riemannian":
        return alpha
    if family == "randers":
        return alpha + beta
    if family == "generalized-kropina":
        if not _representable(ex._real(alpha), ex._real(beta), k + 1, k + 2):
            raise FamilyDomainError(family, "requires beta > 0 (and finite partials)")
        return alpha ** (k + 1) / beta ** k
    w = alpha - beta
    if not _representable(ex._real(alpha), ex._real(w), 2, 3):
        raise FamilyDomainError(family, "requires alpha - beta > 0 (and finite partials)")
    return alpha * alpha / w


def _representable(num, den, p: int, q: int) -> bool:
    """den > 0 and num^p / den^q, the scale of the largest partial, is finite
    (in every lane, for arrays)."""
    if isinstance(den, np.ndarray):
        with np.errstate(all="ignore"):  # overflow to inf, underflow to 0: not finite
            return bool((den > 0.0).all() and np.isfinite(num ** p / den ** q).all())
    try:
        return float(den) > 0.0 and math.isfinite(float(num) ** p / float(den) ** q)
    except (OverflowError, ZeroDivisionError):  # den^q underflowed to 0, or overflow
        return False


def phi_partials(family: str, k: int, alpha, beta) -> PhiPartials:
    """F(alpha, beta) from `finsler_norm` with its closed-form partials up
    to second order; scalar-generic like `finsler_norm`."""
    family, k = resolve_family(family, k)
    F = finsler_norm(family, k, alpha, beta)
    if family == "generalized-square":
        s = alpha + beta
        return PhiPartials(
            F=F,
            Fa=(alpha - k * beta) * s ** k / alpha ** (k + 1),
            Fb=(k + 1) * s ** k / alpha ** k,
            Faa=k * (k + 1) * beta * beta * s ** (k - 1) / alpha ** (k + 2),
            Fbb=k * (k + 1) * s ** (k - 1) / alpha ** k,
            Fab=-(k * (k + 1)) * beta * s ** (k - 1) / alpha ** (k + 1),
        )
    if family == "riemannian":
        return PhiPartials(F=F, Fa=1.0, Fb=0.0, Faa=0.0, Fbb=0.0, Fab=0.0)
    if family == "randers":
        return PhiPartials(F=F, Fa=1.0, Fb=1.0, Faa=0.0, Fbb=0.0, Fab=0.0)
    if family == "generalized-kropina":
        return PhiPartials(
            F=F,
            Fa=(k + 1) * alpha ** k / beta ** k,
            Fb=-k * alpha ** (k + 1) / beta ** (k + 1),
            Faa=k * (k + 1) * alpha ** (k - 1) / beta ** k,
            Fbb=k * (k + 1) * alpha ** (k + 1) / beta ** (k + 2),
            Fab=-(k * (k + 1)) * alpha ** k / beta ** (k + 1),
        )
    # matsumoto
    w = alpha - beta
    return PhiPartials(
        F=F,
        Fa=alpha * (alpha - 2 * beta) / w ** 2,
        Fb=alpha * alpha / w ** 2,
        Faa=2 * beta * beta / w ** 3,
        Fbb=2 * alpha * alpha / w ** 3,
        Fab=-2 * alpha * beta / w ** 3,
    )


def alpha_beta_generic(a, b, y):
    """alpha, beta and y_i = a_ij y^j for scalars of any type (floats,
    arrays or duals, lane-valued or not); raises ArithmeticError when
    alpha^2 <= 0 in any lane."""
    y_low = [sum(map(mul, row, y)) for row in a]
    alpha2 = sum(map(mul, y_low, y))
    if any_lane(ex._real(alpha2) <= 0.0):
        raise ArithmeticError("degenerate direction: alpha^2 <= 0")
    return ex._call_fn("sqrt", alpha2), sum(map(mul, b, y)), y_low


@dataclass
class SpaceSpec:
    """A Finsler space: dimension, exponent, family, a_ij(x) and b_i(x).

    Treated as immutable after construction; all evaluation is pure.  The
    family is stored canonically: an alias is replaced by its generalized
    family with k = 1.  When ``b_potential`` is supplied, b_i is its exact
    symbolic gradient, so the gradient-field property holds by construction.
    """

    dim: int
    k: int
    family: str
    a: list[list[ex.Expr]]
    b: list[ex.Expr]
    b_potential: ex.Expr | None = None
    _da: list[list[list[ex.Expr]]] = field(default=None, repr=False, compare=False)
    _db: list[list[ex.Expr]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("exponent k must be a positive integer")
        self.family, self.k = resolve_family(self.family, self.k)
        if len(self.a) != self.dim or any(len(row) != self.dim for row in self.a):
            raise ValueError(f"a must be a {self.dim}x{self.dim} block")
        if len(self.b) != self.dim:
            raise ValueError(f"b must have {self.dim} components")

    @classmethod
    def from_potential(cls, dim, k, family, a, potential: ex.Expr) -> "SpaceSpec":
        b = [ex.diff(potential, i) for i in range(dim)]
        return cls(dim, k, family, a, b, b_potential=potential)

    # -- pointwise evaluation (x may hold floats or dual scalars)

    def a_at(self, x) -> np.ndarray:
        return np.array([[e.eval(x) for e in row] for row in self.a], dtype=float)

    def b_at(self, x) -> np.ndarray:
        return np.array([e.eval(x) for e in self.b], dtype=float)

    def da_at(self, x) -> np.ndarray:
        """Spatial derivatives da[l, i, j] = d a_ij / d x^l (exact symbolic)."""
        if self._da is None:
            self._da = [
                [[ex.diff(self.a[i][j], l) for j in range(self.dim)] for i in range(self.dim)]
                for l in range(self.dim)
            ]
        return np.array([[[e.eval(x) for e in row] for row in m] for m in self._da], dtype=float)

    def db_at(self, x) -> np.ndarray:
        """Spatial derivatives db[i, j] = d b_i / d x^j (exact symbolic)."""
        if self._db is None:
            self._db = [
                [ex.diff(self.b[i], j) for j in range(self.dim)] for i in range(self.dim)
            ]
        return np.array([[e.eval(x) for e in row] for row in self._db], dtype=float)


@dataclass
class BasePoint:
    """a_ij, b_i and the data raised with a^ij at one base point x."""

    x: np.ndarray
    a: np.ndarray       # a_ij(x), positive definite
    b: np.ndarray       # b_i(x)
    a_inv: np.ndarray   # a^ij
    b_up: np.ndarray    # b^i = a^ij b_j
    b2: float           # b^2 = b_i b^i


@dataclass
class FlagPoint(BasePoint):
    """Base point with a direction y and the per-flag data every tensor reuses."""

    y: np.ndarray
    y_low: np.ndarray   # y_i = a_ij y^j, lowered once per flag
    alpha: float
    beta: float


def base_point(spec: SpaceSpec, x) -> BasePoint:
    """Evaluate a(x) and b(x) once; a BasePoint argument is returned as is.
    Raises DegenerateMetricError when a(x) is not positive definite."""
    if isinstance(x, BasePoint):
        return x
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise ValueError(f"x must have dimension {spec.dim}")
    a = spec.a_at(x)
    check = pd_check(a)
    if not check.ok:
        raise DegenerateMetricError(check.pivot, x)
    b = spec.b_at(x)
    a_inv = np.linalg.inv(a)
    b_up = a_inv @ b
    return BasePoint(x=x, a=a, b=b, a_inv=a_inv, b_up=b_up, b2=float(b @ b_up))


def stack_points(points) -> BasePoint:
    """One BasePoint whose fields stack those of ``points`` along a new first
    axis: the derivative oracles read it as a batch of base points."""
    return BasePoint(**{f.name: np.stack([getattr(p, f.name) for p in points])
                        for f in fields(BasePoint)})


def flag_point(spec: SpaceSpec, x, y) -> FlagPoint:
    """The flag (x, y): alpha, beta and the lowered direction at the base
    point x, which may be a BasePoint.  For N directions y (N, d), at one or
    at N stacked base points, y_low, alpha and beta carry the lane axis N."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (spec.dim,) or y.ndim > 2:
        raise ValueError(f"y must have dimension {spec.dim}")
    if any_lane(~y.any(axis=-1)):
        raise ValueError("direction y must be nonzero")
    p = base_point(spec, x)
    y_low = matvec(p.a, y)
    return FlagPoint(x=p.x, a=p.a, b=p.b, a_inv=p.a_inv, b_up=p.b_up, b2=p.b2, y=y,
                     y_low=y_low, alpha=np.sqrt(dot(y, y_low)), beta=dot(p.b, y))


@dataclass
class ValidityReport:
    """Pointwise domain flags; a report, never an exception.  alpha > 0 holds
    by construction: `flag_point` rejects y = 0 and a is positive definite."""

    F_positive: bool
    family_domain: bool
    fundamental_pd: bool
    pd_pivot: int | None
    F: float | None
    flag: FlagPoint

    @property
    def ok(self) -> bool:
        return self.F_positive and self.family_domain and self.fundamental_pd


def validity_check(spec: SpaceSpec, x, y) -> ValidityReport:
    """Flags: F > 0, family domain, fundamental tensor PD.

    The strong-convexity domain of these metrics has no simple closed
    description, so positive definiteness is reported pointwise via the
    factorization pivots rather than asserted globally.  A fundamental
    tensor whose reciprocal coefficients are numerically singular (zeta
    underflow near the domain boundary) counts as failing the PD flag: it
    is not invertible at working precision.
    """
    flag = flag_point(spec, x, y)  # zero y / degenerate a rejected before flags
    try:
        pp = phi_partials(spec.family, spec.k, flag.alpha, flag.beta)
    except FamilyDomainError:
        return ValidityReport(False, False, False, None, None, flag)
    F_positive = pp.F > 0.0
    from . import tensors  # local import: tensors builds on this module

    try:
        ac = tensors.angular_coefficients(pp, flag.alpha)
        mc = tensors.metric_coefficients(pp, ac, spec.family, spec.k, flag.alpha, flag.beta)
        g = tensors.fundamental_tensor(mc, flag.a, flag.b, flag.y_low)
        check = pd_check(g)
        if check.ok:
            tensors.reciprocal_coefficients(mc, flag.alpha, flag.beta, flag.b2)
        return ValidityReport(F_positive, True, check.ok, check.pivot, pp.F, flag)
    except ArithmeticError:
        return ValidityReport(F_positive, True, False, None, pp.F, flag)


def sample_flags(spec: SpaceSpec, n: int, seed: int) -> list[FlagPoint]:
    """Seeded in-domain flags: x uniform in [-SAMPLE_BOX, SAMPLE_BOX]^d, y
    uniform on the unit sphere, rejected unless every validity flag passes."""
    rng = np.random.default_rng(seed)
    out: list[FlagPoint] = []
    tries = 0
    limit = max(200 * n, 1000)
    while len(out) < n:
        tries += 1
        if tries > limit:
            raise RuntimeError(f"in-domain sampling stalled after {tries} draws")
        x = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=spec.dim)
        y = rng.normal(size=spec.dim)
        norm = np.linalg.norm(y)
        if norm < 1e-12:
            continue
        y /= norm
        try:
            report = validity_check(spec, x, y)
        except (ArithmeticError, ValueError):
            continue
        if report.ok:
            out.append(report.flag)
    return out
