"""Space definition and the (alpha,beta)-metric families.

The central family is F = (alpha+beta)^(k+1) / alpha^k; k = 0 is Randers,
alpha + beta, and k = 1 the square metric.  The other families are kept
for audit breadth: every closed form downstream is checked against the same
differentiation oracles across all of them.

`finsler_norm` is the single home of F, `_in_domain` of each family's domain
check and `edge_distance` of a flag's distance to that domain's edge.
`resolve_family` maps the aliases, once per `SpaceSpec` (whose k is >= 1):
randers is generalized-square at k = 0, square and kropina are the
generalized families at k = 1.

`SpaceSpec` holds a and b as expression tables (`expr.ExprTable`), which
evaluate them and keep their exact spatial derivatives, at one point or at N
points as lanes.  `base_point` evaluates a float base point once, or N points
as lanes: its `BasePoint` record holds a_ij(x) (checked positive definite),
b_i(x), a^ij, b^i and b^2; a `FlagPoint` adds a direction.  Every
`(spec, x, ...)` entry point accepts such a record where it accepts x, and
reads it instead of evaluating again.  `geodesic._segment_length` reads the
same tables at the midpoints of a polyline's segments, float or dual lanes,
without the positive-definiteness check.  `validity_check` masks each
failing lane of N flags, at N points or at one; `sample_flags` makes its
draws one at a time, checks them in blocks (`_first_passing`, which the
surface sampler shares; the first block is sized by the share of directions
inside the family's domain) and returns the passing flags as the lanes of one
`FlagPoint`.

The literature overloads one symbol as both manifold dimension and metric
exponent; here the exponent is named k everywhere.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, mul

import numpy as np

from . import expr as ex
from .numerics import Record, any_lane, dot, join_lanes, lane, lanewise, matvec, pd_check

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

_ALIASES = {"square": ("generalized-square", 1), "kropina": ("generalized-kropina", 1),
            "randers": ("generalized-square", 0)}


class FamilyDomainError(ArithmeticError):
    """A metric family was evaluated outside its (alpha, beta) domain."""

    def __init__(self, family: str, message: str):
        super().__init__(f"{family}: {message}")
        self.family = family


class DegenerateMetricError(ArithmeticError):
    """a(x) failed positive-definiteness; carries the failing pivot (1-based)."""

    def __init__(self, pivot: int, x):
        x = np.asarray(x).tolist()
        super().__init__(f"a(x) not positive definite at x={x} (pivot {pivot})")
        self.pivot = pivot


def resolve_family(family: str, k: int) -> tuple[str, int]:
    """Canonical (family, k): an alias fixes k (randers 0, square and kropina 1)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown metric family '{family}'")
    return _ALIASES.get(family, (family, k))


class PhiPartials(Record):
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
    if family == "riemannian":
        return alpha
    square, kropina = family == "generalized-square", family == "generalized-kropina"
    if not (square and k) and not np.all(_in_domain(family, k, ex._real(alpha), ex._real(beta))):
        if square:  # k = 0, Randers: its partials hold 1/(alpha + beta)
            raise FamilyDomainError("randers", "requires alpha + beta > 0")
        den = "beta" if kropina else "alpha - beta"
        raise FamilyDomainError(family, f"requires {den} > 0 (and finite partials)")
    if square:
        return (alpha + beta) ** (k + 1) / alpha ** k
    return alpha ** (k + 1) / beta ** k if kropina else alpha * alpha / (alpha - beta)


def _in_domain(family: str, k: int, alpha, beta):
    """(alpha, beta) in the domain of the (canonical) family, per lane for
    arrays: den > 0 and num^p / den^q, the scale of the largest partial, is
    finite.  Generalized-square needs alpha + beta > 0 at k = 0 (Randers) only."""
    if family == "generalized-square" and not k:
        return np.asarray(alpha + beta, dtype=float) > 0.0
    if family not in ("generalized-kropina", "matsumoto"):
        return True
    kropina = family == "generalized-kropina"
    num, den, p, q = (alpha, beta, k + 1, k + 2) if kropina else (alpha, alpha - beta, 2, 3)
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    with np.errstate(all="ignore"):  # overflow to inf, underflow to 0: not finite
        return (den > 0.0) & np.isfinite(num ** p / den ** q)


def edge_distance(family: str, alpha, beta, b2):
    """A flag's distance to its (canonical) family's singular edge in the norm of a, per
    lane: a step s moves beta by at most |b| |s| and alpha - beta by at most (1 + |b|) |s|.
    Unbounded for the families with no edge near a valid flag."""
    if family == "generalized-kropina":
        return beta / np.sqrt(b2)
    if family == "matsumoto":
        return (alpha - beta) / (1.0 + np.sqrt(b2))
    return np.inf


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
    alpha^2 <= 0 in any lane.  Each sum folds from its first term: no 0 + term step."""
    y_low = [reduce(add, map(mul, row, y)) for row in a]
    alpha2 = reduce(add, map(mul, y_low, y))
    if any_lane(ex._real(alpha2) <= 0.0):
        raise ArithmeticError("degenerate direction: alpha^2 <= 0")
    return ex._call_fn("sqrt", alpha2), reduce(add, map(mul, b, y)), y_low


class SpaceSpec(Record):
    """A Finsler space: dimension, exponent, family, a_ij(x) and b_i(x).

    Treated as immutable after construction: evaluation is pure and goes
    through the tables `a_table` and `b_table`.  The family is stored
    canonically (an alias becomes its generalized family with its own k);
    `from_potential` makes b_i the exact symbolic gradient of a potential.
    """

    dim: int
    k: int
    family: str
    a: list[list[ex.Expr]]
    b: list[ex.Expr]
    b_potential: ex.Expr | None = None

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
        self.a_table = ex.ExprTable([e for row in self.a for e in row], (self.dim, self.dim))
        self.b_table = ex.ExprTable(self.b, (self.dim,))

    @classmethod
    def from_potential(cls, dim, k, family, a, potential: ex.Expr) -> "SpaceSpec":
        b = ex.ExprTable([potential]).diff(dim).exprs
        return cls(dim, k, family, a, b, b_potential=potential)

    # -- evaluation at x (d,) or at N points x (N, d) as lanes in front

    def a_at(self, x) -> np.ndarray:
        return self.a_table.at(x)

    def b_at(self, x) -> np.ndarray:
        return self.b_table.at(x)

    def da_at(self, x) -> np.ndarray:
        """Spatial derivatives da[l, i, j] = d a_ij / d x^l (exact symbolic)."""
        return np.ascontiguousarray(np.moveaxis(self.a_table.diff(self.dim).at(x), -1, -3))

    def db_at(self, x) -> np.ndarray:
        """Spatial derivatives db[i, j] = d b_i / d x^j (exact symbolic)."""
        return self.b_table.diff(self.dim).at(x)


class BasePoint(Record):
    """a_ij, b_i and the data raised with a^ij at one base point x."""

    x: np.ndarray
    a: np.ndarray       # a_ij(x), positive definite
    b: np.ndarray       # b_i(x)
    a_inv: np.ndarray   # a^ij
    b_up: np.ndarray    # b^i = a^ij b_j
    b2: float           # b^2 = b_i b^i


class FlagPoint(BasePoint):
    """Base point with a direction y and the per-flag data every tensor reuses."""

    y: np.ndarray
    y_low: np.ndarray   # y_i = a_ij y^j, lowered once per flag
    alpha: float
    beta: float

    def __len__(self) -> int:
        """The number of flags; one flag has no length, as a 0-d array has none."""
        return len(self.alpha)


def base_point(spec: SpaceSpec, x) -> BasePoint:
    """Evaluate a(x) and b(x) once at x (d,), or at N points x (N, d) as lanes
    in front of every field; a BasePoint argument is returned as is.  Raises
    DegenerateMetricError at the first point where a(x) is not positive definite."""
    if isinstance(x, BasePoint):
        return x
    x = np.asarray(x, dtype=float)
    a = spec.a_at(x)
    check = pd_check(a)
    if any_lane(np.logical_not(check.ok)):
        i = np.argmin(check.ok)
        raise DegenerateMetricError(int(np.ravel(check.pivot)[i]), x.reshape(-1, spec.dim)[i])
    return _raised(spec, x, a)


def _raised(spec: SpaceSpec, x: np.ndarray, a: np.ndarray) -> BasePoint:
    """The base point at x with a(x) = a, positive definite: b(x) and the data raised with a^ij."""
    b = spec.b_at(x)
    a_inv = np.linalg.inv(a)
    b_up = matvec(a_inv, b)
    return BasePoint(x=x, a=a, b=b, a_inv=a_inv, b_up=b_up, b2=dot(b, b_up))


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


class ValidityReport(Record):
    """Pointwise domain flags; a report, never an exception.  alpha > 0 holds
    where a(x) is positive definite (a_pd): `flag_point` rejects y = 0.  Each
    field has the lane shape of the flags, () for one flag and (N,) for N:
    pd_pivot is g's failing pivot, 0 where g is PD, and F is NaN outside the domain."""

    F_positive: np.ndarray
    family_domain: np.ndarray
    fundamental_pd: np.ndarray
    pd_pivot: np.ndarray
    F: np.ndarray
    flag: FlagPoint
    a_pd: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.a_pd & self.F_positive & self.family_domain & self.fundamental_pd


def validity_check(spec: SpaceSpec, x, y) -> ValidityReport:
    """Flags: a(x) PD, F > 0, family domain, fundamental tensor PD, at one
    flag or at N flags x, y (N, d) as one pass that masks each failing lane.

    The strong-convexity domain has no simple closed description, so positive
    definiteness is reported pointwise via the factorization pivots.  A g
    whose zeta is not finite or numerically singular (g^ij does not exist at
    working precision) fails the PD flag."""
    from . import tensors  # local import: tensors builds on this module

    with np.errstate(all="ignore"):  # a failing lane may overflow or divide by zero
        if isinstance(x, BasePoint):
            point, a_pd = x, True
        else:
            a = spec.a_at(x)
            a_pd = pd_check(a).ok  # lanes where a(x) is not PD are raised with I and fail
            point = _raised(spec, np.asarray(x, dtype=float),
                            np.where(lanewise(np.asarray(a_pd), 2), a, np.eye(spec.dim)))
            point.a = a
        flag = flag_point(spec, point, y)  # zero y rejected before flags
        lanes = np.shape(flag.alpha)
        alpha, beta = np.asarray(flag.alpha), np.asarray(flag.beta)
        a_pd = np.broadcast_to(a_pd, lanes)
        domain = a_pd & _in_domain(spec.family, spec.k, alpha, beta)
        d = spec.dim  # one point's fields broadcast to its N directions, then masked
        a, b, b2 = (np.broadcast_to(v, lanes + s)[domain]
                    for v, s in ((flag.a, (d, d)), (flag.b, (d,)), (flag.b2, ())))
        y_low, alpha, beta = flag.y_low[domain], alpha[domain], beta[domain]
        pp = phi_partials(spec.family, spec.k, alpha, beta)
        mc = tensors.metric_coefficients(pp, tensors.angular_coefficients(pp, alpha))
        g = tensors.fundamental_tensor(mc, a, b, y_low)
        _, zeta = tensors.reciprocal_factors(mc, alpha, beta, b2)
        finite = np.isfinite(zeta)  # an overflowed coefficient leaves zeta, like g, not finite
        check = pd_check(g)
        F, pivot, fundamental = np.full(lanes, np.nan), np.zeros(lanes, int), np.zeros(lanes, bool)
        F[domain] = pp.F
        pivot[domain] = np.where(finite, check.pivot, 0)
        fundamental[domain] = finite & check.ok & (abs(zeta) >= tensors.ZETA_TOL)
    return ValidityReport(F > 0.0, domain, fundamental, pivot, F, flag, a_pd)


def sample_flags(spec: SpaceSpec, n: int, seed: int) -> FlagPoint:
    """Seeded in-domain flags, the lanes of one FlagPoint: x uniform in the box
    [-SAMPLE_BOX, SAMPLE_BOX]^d, y uniform on the unit sphere, rejected unless
    every validity flag passes.  Draws are made one at a time (x, then y) and
    checked in blocks, one `validity_check` each, the first block sized for the
    share of unit directions inside the family's domain; the first n pass, in
    draw order, which no block size changes."""
    rng = np.random.default_rng(seed)

    def draw(m: int):  # a draw with |y| < 1e-12 counts as a try and is skipped
        draws = [(rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=spec.dim), rng.normal(size=spec.dim))
                 for _ in range(m)]
        xs, ys = map(np.array, zip(*draws))
        norm = np.sqrt(dot(ys, ys))
        kept = norm >= 1e-12
        return xs[kept], ys[kept] / norm[kept, None]

    def check(xs, ys):
        report = validity_check(spec, xs, ys)
        return lane(report.flag, np.flatnonzero(report.ok))

    share = 0.5 if spec.family == "generalized-kropina" else 1.0  # beta > 0: a half-space of y
    return _first_passing(n, max(200 * n, 1000), draw, check,
                          "in-domain sampling stalled after {} draws", share)


def _first_passing(n: int, limit: int, draw, check, stalled: str, share: float = 1.0):
    """The first n passing draws, in draw order, of at most `limit`: `draw(m)`
    makes m draws as lanes (a tuple of arrays), `check(*lanes)` returns the passing
    ones as the lanes of an array or a record, joined once.  The first block expects
    a `share` of its draws to pass, each later one the share seen so far.  A block
    whose check raises (an Expr DomainError, say) is halved, first half first; a
    draw raising alone fails."""
    out, tries = [], 0
    while (passed := sum(map(len, out))) < n:
        if tries == limit:
            raise RuntimeError(stalled.format(tries + 1))
        want = 1.25 * (n - passed) * (tries + 1) / (passed + 1) if tries else 1.25 * n / share
        block = min(limit - tries, 2 + math.ceil(want))
        tries += block
        pending = [draw(block)]
        while pending:  # a stack of blocks, first half on top
            lanes = pending.pop()
            try:
                out += [check(*lanes)] if len(lanes[0]) else []
            except (ArithmeticError, ValueError):
                h = len(lanes[0]) // 2
                pending += [tuple(a[h:] for a in lanes), tuple(a[:h] for a in lanes)] if h else []
    return lane(join_lanes(out), slice(n))
