"""Pointwise tensors of an (alpha,beta)-metric and the formula audit.

Everything here is assembled twice over: once from the closed-form
coefficient expressions, and once via the differentiation oracles in
`numerics`.  Both run over lanes: `bundle_at` takes N directions, at one
base point or at N stacked ones, as one pass with the lane axis in front of
every coefficient and tensor, and its singular-zeta guard raises the
per-flag error when any lane fails.  The `audit_*` entry points compare the
two routes and report per-check maximum elementwise errors.

The q2 coefficient is always computed from its defining expression
F*(F_aa - F_a/alpha)/alpha^2.  The widely quoted expanded bracket
{k^2 b + 2k b^2 + k^2 b^2 - a^2 - a b} (a = alpha, b = beta) is
dimensionally inconsistent with it away from beta = 0; the audit keeps a
dedicated check that documents the mismatch instead of guessing a fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metric import (
    BasePoint,
    FlagPoint,
    PhiPartials,
    SpaceSpec,
    alpha_beta_generic,
    base_point,
    edge_distance,
    finsler_norm,
    flag_point,
    phi_partials,
    resolve_family,
    sample_flags,
)
from .numerics import Jet2, any_lane, fd_hessian, first_lane, jet_eval, lanewise, outer


class SingularCoefficientError(ArithmeticError):
    """zeta in the reciprocal-tensor coefficients is numerically zero."""


@dataclass
class AngularCoefficients:
    """Coefficients of h_ij = p a_ij + q0 b_i b_j + q1 (b_i y_j + b_j y_i) + q2 y_i y_j."""

    p: float
    q0: float
    q1: float
    q2: float


@dataclass
class MetricCoefficients:
    """Coefficients of g_ij = p a_ij + p0 b_i b_j + p1 (b_i y_j + b_j y_i) + p2 y_i y_j."""

    p: float
    p0: float
    p1: float
    p2: float


@dataclass
class ReciprocalCoefficients:
    """Coefficients of g^ij = a^ij/p - S0 b^i b^j - S1 (b^i y^j + b^j y^i) - S2 y^i y^j."""

    S0: float
    S1: float
    S2: float
    zeta: float


def angular_coefficients(pp: PhiPartials, alpha) -> AngularCoefficients:
    """Defining expressions p = F F_a/alpha, q0 = F F_bb, q1 = F F_ab/alpha,
    q2 = F (F_aa - F_a/alpha)/alpha^2.  Scalar-generic."""
    return AngularCoefficients(
        p=pp.F * pp.Fa / alpha,
        q0=pp.F * pp.Fbb,
        q1=pp.F * pp.Fab / alpha,
        q2=pp.F * (pp.Faa - pp.Fa / alpha) / (alpha * alpha),
    )


def dp0_dbeta(family: str, k: int, alpha, beta):
    """Closed-form beta-derivative of p0 per family (validated in tests
    against symbolic differentiation of p0 itself)."""
    family, k = resolve_family(family, k)
    if family == "generalized-square":
        return 2 * k * (k + 1) * (2 * k + 1) * (alpha + beta) ** (2 * k - 1) / alpha ** (2 * k)
    if family == "riemannian":
        return 0.0
    if family == "generalized-kropina":
        return -(2 * k + 2) * k * (2 * k + 1) * alpha ** (2 * k + 2) / beta ** (2 * k + 3)
    # matsumoto: p0 = 3 alpha^4 / (alpha - beta)^4
    return 12 * alpha ** 4 / (alpha - beta) ** 5


def metric_coefficients(pp: PhiPartials, ac: AngularCoefficients) -> MetricCoefficients:
    """Composition identities p0 = q0 + F_b^2, p1 = q1 + p F_b/F, p2 = q2 + p^2/F^2,
    from the angular coefficients ``ac`` of the same flag."""
    return MetricCoefficients(
        p=ac.p,
        p0=ac.q0 + pp.Fb * pp.Fb,
        p1=ac.q1 + ac.p * pp.Fb / pp.F,
        p2=ac.q2 + ac.p * ac.p / (pp.F * pp.F),
    )


ZETA_TOL = 1e-12  # |zeta| below this is numerically singular: g^ij does not exist


def reciprocal_factors(mc: MetricCoefficients, alpha, beta, b2):
    """disc = p0 p2 - p1^2 and zeta, the factor of det g that the reciprocal
    coefficients divide by."""
    p, p0, p1, disc = mc.p, mc.p0, mc.p1, mc.p0 * mc.p2 - mc.p1 * mc.p1
    return disc, p * (p + p0 * b2 + p1 * beta) + disc * (alpha * alpha * b2 - beta * beta)


def reciprocal_coefficients(mc: MetricCoefficients, alpha, beta, b2) -> ReciprocalCoefficients:
    p, p0, p1, p2 = mc.p, mc.p0, mc.p1, mc.p2
    disc, zeta = reciprocal_factors(mc, alpha, beta, b2)
    bad = abs(zeta) < ZETA_TOL
    if any_lane(bad):
        raise SingularCoefficientError(f"zeta = {first_lane(bad, zeta)} is numerically singular")
    # The minus sign on disc*beta in S1 is forced by the inverse identity
    # g g^-1 = I (block/Woodbury inversion); the often-quoted plus sign only
    # agrees at beta = 0.  S0, S2 and zeta are unaffected because
    # p2 alpha^2 + p1 beta = 0 holds identically.
    return ReciprocalCoefficients(
        S0=(p * p0 + disc * alpha * alpha) / (p * zeta),
        S1=(p * p1 - disc * beta) / (p * zeta),
        S2=(p * p2 + disc * b2) / (p * zeta),
        zeta=zeta,
    )


# -- assembly: per-lane coefficients scale tensors whose lanes lead

def _four_term(a, b, y_low, c, c0, c1, c2) -> np.ndarray:
    """c a_ij + c0 b_i b_j + c1 (b_i y_j + b_j y_i) + c2 y_i y_j over the last
    axes.  Scalar-generic: the coefficients (lane shape) and y_low may be
    lane-valued floats or duals; the lanes broadcast in front of i, j."""
    return (
        a * lanewise(c, 2)
        + outer(b, b) * lanewise(c0, 2)
        + (outer(b, y_low) + outer(y_low, b)) * lanewise(c1, 2)
        + outer(y_low, y_low) * lanewise(c2, 2)
    )


def angular_tensor(ac: AngularCoefficients, a, b, y_low) -> np.ndarray:
    return _four_term(a, b, y_low, ac.p, ac.q0, ac.q1, ac.q2)


def fundamental_tensor(mc: MetricCoefficients, a, b, y_low) -> np.ndarray:
    return _four_term(a, b, y_low, mc.p, mc.p0, mc.p1, mc.p2)


def reciprocal_tensor(rc: ReciprocalCoefficients, p, a_inv, b_up, y) -> np.ndarray:
    return (
        a_inv / lanewise(p, 2)
        - lanewise(rc.S0, 2) * outer(b_up, b_up)
        - lanewise(rc.S1, 2) * (outer(b_up, y) + outer(y, b_up))
        - lanewise(rc.S2, 2) * outer(y, y)
    )


def support_covector(pp: PhiPartials, alpha, b, y_low) -> np.ndarray:
    """Normalized support element l_i = F_a y_i/alpha + F_b b_i."""
    return lanewise(pp.Fa, 1) * y_low / lanewise(alpha, 1) + lanewise(pp.Fb, 1) * b


def orthogonal_covector(flag: FlagPoint) -> np.ndarray:
    """m_i = b_i - y_i beta/alpha^2; annihilates y by construction."""
    return flag.b - flag.y_low * lanewise(flag.beta / flag.alpha ** 2, 1)


def gamma_one(mc: MetricCoefficients, ac: AngularCoefficients, dp0) -> float:
    """gamma_1 = p dp0/dbeta - 3 p1 q0 (hv-torsion cubic coefficient)."""
    return mc.p * dp0 - 3.0 * mc.p1 * ac.q0


def hv_torsion(mc: MetricCoefficients, h, gamma1: float, m) -> np.ndarray:
    """C_ijk = [p1 (h_ij m_k + h_jk m_i + h_ki m_j) + gamma1 m_i m_j m_k] / (2p)."""
    sym = (
        np.einsum("...ij,...k->...ijk", h, m)
        + np.einsum("...jk,...i->...ijk", h, m)
        + np.einsum("...ki,...j->...ijk", h, m)
    )
    mmm = np.einsum("...i,...j,...k->...ijk", m, m, m)
    return (lanewise(mc.p1, 3) * sym + lanewise(gamma1, 3) * mmm) / lanewise(2.0 * mc.p, 3)


@dataclass
class TensorBundle:
    """All pointwise tensors at one flag, or at N flags with the lane axis N
    in front of every coefficient and tensor, with their coefficient records.
    F is phi.F; a^ij, b^i and b^2 are read from flag."""

    flag: FlagPoint
    phi: PhiPartials
    angular: AngularCoefficients
    metric: MetricCoefficients
    reciprocal: ReciprocalCoefficients
    l: np.ndarray        # support covector l_i
    g: np.ndarray        # fundamental tensor g_ij
    g_inv: np.ndarray    # reciprocal tensor g^ij
    h: np.ndarray        # angular tensor h_ij
    C: np.ndarray        # hv-torsion C_ijk
    gamma1: float
    m: np.ndarray        # covector orthogonal to the support element
    dp0_dbeta: float     # closed-form dp0/dbeta, read by gamma1 and the difference tensor


def bundle_at(spec: SpaceSpec, x, y) -> TensorBundle:
    """Materialize every pointwise tensor at the flag (x, y) from closed
    forms; x may be a BasePoint.  For N directions y (N, d), at one base
    point or at a stacked one, this is one pass over N lanes."""
    flag = flag_point(spec, x, y)
    pp = phi_partials(spec.family, spec.k, flag.alpha, flag.beta)
    ac = angular_coefficients(pp, flag.alpha)
    mc = metric_coefficients(pp, ac)
    rc = reciprocal_coefficients(mc, flag.alpha, flag.beta, flag.b2)
    g = fundamental_tensor(mc, flag.a, flag.b, flag.y_low)
    g_inv = reciprocal_tensor(rc, mc.p, flag.a_inv, flag.b_up, flag.y)
    h = angular_tensor(ac, flag.a, flag.b, flag.y_low)
    l = support_covector(pp, flag.alpha, flag.b, flag.y_low)
    m = orthogonal_covector(flag)
    dp0 = dp0_dbeta(spec.family, spec.k, flag.alpha, flag.beta)
    gamma1 = gamma_one(mc, ac, dp0)
    c = hv_torsion(mc, h, gamma1, m)
    return TensorBundle(
        flag=flag, phi=pp, angular=ac, metric=mc, reciprocal=rc,
        l=l, g=g, g_inv=g_inv, h=h, C=c, gamma1=gamma1, m=m, dp0_dbeta=dp0,
    )


# -- oracle plumbing: the closed forms evaluated on generic scalars

def _lanes_of(point: BasePoint):
    """a_ij and b_i of a base point, or of N stacked ones (a batch of N points,
    such as `sample_flags` returns) with the point axis moved last, so each
    entry broadcasts against lanes (L, N)."""
    return np.moveaxis(point.a, (-2, -1), (0, 1)), np.moveaxis(point.b, -1, 0)


def half_f_squared(spec: SpaceSpec, x):
    """Callable y -> F(x, y)^2 / 2 that stays generic over the scalar type
    and over lanes; x may be a BasePoint, or a stacked one whose N points
    each own one entry of the lanes' last axis.

    This is the oracle seed: its y-Hessian is the fundamental tensor.  It
    reads only F, so it stays independent of the closed-form partials.
    """
    a, b = _lanes_of(base_point(spec, x))

    def f(ys):
        alpha, beta, _ = alpha_beta_generic(a, b, ys)
        F = finsler_norm(spec.family, spec.k, alpha, beta)
        return 0.5 * F * F

    return f


def torsion_oracle(spec: SpaceSpec, x, y) -> np.ndarray:
    """C_ijk oracle = (1/2) d g_ij / d y^k, by dual differentiation of the
    closed-form `fundamental_tensor` in the direction argument; x may be a
    BasePoint, or a stacked one with y the (N, d) directions of its points.

    One pass of first-order jets over lanes (d, N): lane k seeds e_k.
    """
    point = base_point(spec, x)
    a, b = _lanes_of(point)
    y = np.asarray(y, dtype=float)
    seed = np.eye(spec.dim).reshape((spec.dim, spec.dim) + (1,) * (y.ndim - 1))
    ys = [Jet2(y[..., m], seed[m], None, None) for m in range(spec.dim)]
    alpha, beta, y_low = alpha_beta_generic(a, b, ys)
    pp = phi_partials(spec.family, spec.k, alpha, beta)
    mc = metric_coefficients(pp, angular_coefficients(pp, alpha))
    g = fundamental_tensor(mc, point.a, point.b, Jet2.stack(y_low))
    return np.moveaxis(0.5 * g.d1, 0, -1)


def q2_expanded_form(k: int, alpha: float, beta: float) -> float:
    """The expanded q2 bracket as usually printed; kept verbatim so the audit
    can document that it disagrees with the defining expression."""
    bracket = k * beta * (k + 2 * beta + k * beta) - alpha * (alpha + beta)
    return (alpha + beta) ** (2 * k) * bracket / alpha ** (2 * k + 4)


@dataclass
class AuditRow:
    check: str
    error: float
    tol: float
    passed: bool
    expected_mismatch: bool = False
    note: str = ""


@dataclass
class AuditParams:
    """Settings of `audit_sweep`: its fields are the keys and defaults of [audit]."""

    samples: int = field(default=100, metadata={"min": 1})
    seed: int = 2024


@dataclass
class AuditReport:
    rows: list[AuditRow]
    flags: int
    seed: int | None

    @property
    def ok(self) -> bool:
        """True when every non-expected check passes."""
        return all(r.passed or r.expected_mismatch for r in self.rows)


AUDIT_TOLERANCES = {
    "fundamental-vs-jet-oracle": 1e-7,
    "fundamental-vs-fd-oracle": 1e-5,
    "angular-identity": 1e-8,
    "reciprocal-vs-inversion": 1e-8,
    "hv-torsion-vs-jet-oracle": 1e-7,
    "q2-expanded-form": 1e-7,
}


# central-difference step of the finite-difference Hessian oracle, relative to alpha, and its
# least ratio to the flag's distance to its family's edge (more where rounding dominates)
FD_STEP = 1e-4
FD_EDGE = 2e-4


def fd_step(spec: SpaceSpec, flag: FlagPoint):
    """The finite-difference oracle's step per flag, from alpha, beta and b^2 alone: near an
    edge its remainder grows like (h / dist)^2 and a fixed step may cross the edge; very near it
    beta's rounding, eps alpha / dist of dist, grows like (dist / h)^2, and h balances the two."""
    dist = edge_distance(spec.family, flag.alpha, flag.beta, flag.b2)
    edge = np.maximum(FD_EDGE, 0.5 * (np.finfo(float).eps * flag.alpha / dist) ** 0.25)
    return np.minimum(FD_STEP * flag.alpha, edge * dist)


def audit_flag(spec: SpaceSpec, x, y) -> list[AuditRow]:
    """Audit the closed forms at the flags (x, y) against both oracles, as
    `bundle_at` takes them: x is a base point or its coordinates, one or N
    stacked (a `sample_flags` batch, say), and y one direction (d,) or N of
    them (N, d).
    The bundle and each oracle run once over all flags, and each check
    reports its largest error over them.

    Checks: g vs half-F^2 Hessian (dual and finite-difference routes),
    h vs g - l (x) l, g_inv vs direct inversion, C vs half dg/dy, and the
    expanded q2 bracket vs its defining expression (documented mismatch).
    """
    point, ys = base_point(spec, x), np.asarray(y, dtype=float)
    bundle = bundle_at(spec, point, ys)
    f = half_f_squared(spec, point)

    def err(t, ref):  # max deviation over 1 + max |ref|, per flag
        t, ref = (v.reshape(ys.shape[:-1] + (-1,)) for v in (t, ref))
        return np.abs(t - ref).max(-1) / (1.0 + np.abs(ref).max(-1))

    rows = [
        _row("fundamental-vs-jet-oracle", err(bundle.g, jet_eval(f, ys).hessian)),
        _row("fundamental-vs-fd-oracle",
             err(bundle.g, fd_hessian(f, ys, fd_step(spec, bundle.flag)))),
        _row("angular-identity", err(bundle.h, bundle.g - outer(bundle.l, bundle.l))),
        _row("reciprocal-vs-inversion", err(bundle.g_inv, np.linalg.inv(bundle.g))),
        _row("hv-torsion-vs-jet-oracle", err(bundle.C, torsion_oracle(spec, point, ys))),
    ]
    if spec.family == "generalized-square" and spec.k >= 1:  # the misprint vanishes at k = 0
        q2 = bundle.angular.q2
        q2_printed = q2_expanded_form(spec.k, bundle.flag.alpha, bundle.flag.beta)
        rows.append(_row("q2-expanded-form", abs(q2 - q2_printed) / (1.0 + abs(q2)),
                         expected_mismatch=True,
                         note="expanded bracket disagrees with the defining expression "
                              "away from beta = 0 (known misprint, informational)"))
    return rows


def _row(check: str, errors, **extra) -> AuditRow:
    """The check's row at its worst flag; a NaN in any flag fails it."""
    tol, error = AUDIT_TOLERANCES[check], float(np.max(errors))
    return AuditRow(check=check, error=error, tol=tol, passed=error <= tol, **extra)


def audit_sweep(spec: SpaceSpec, params: AuditParams) -> AuditReport:
    """Audit ``params.samples`` seeded in-domain flags as one batch and keep,
    for each check, the worst error seen.

    Directions are rescaled off the unit sphere (validity is scale-invariant
    by homogeneity) so that degree-sensitive checks are exercised at
    alpha != 1 as well.
    """
    flags = sample_flags(spec, params.samples, params.seed)
    rng = np.random.default_rng(params.seed)
    scales = np.exp(rng.uniform(-np.log(2.0), np.log(2.0), size=len(flags)))
    rows = audit_flag(spec, flags, flags.y * scales[:, None])  # each sampled point is reused
    return AuditReport(rows=rows, flags=len(flags), seed=params.seed)
