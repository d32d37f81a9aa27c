"""Pointwise tensors of an (alpha,beta)-metric and the formula audit.

Everything here is assembled twice over: once from the closed-form
coefficient expressions, and once via the differentiation oracles in
`numerics`.  The `audit_*` entry points compare the two routes and report
per-check maximum elementwise errors.

The q2 coefficient is always computed from its defining expression
F*(F_aa - F_a/alpha)/alpha^2.  The widely quoted expanded bracket
{k^2 b + 2k b^2 + k^2 b^2 - a^2 - a b} (a = alpha, b = beta) is
dimensionally inconsistent with it away from beta = 0; the audit keeps a
dedicated check that documents the mismatch instead of guessing a fix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import (
    FlagPoint,
    PhiPartials,
    SpaceSpec,
    alpha_beta_generic,
    base_point,
    finsler_norm,
    flag_point,
    phi_partials,
    resolve_family,
    sample_flags,
)
from .numerics import Jet2, fd_hessian, jet_eval


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
    """Coefficients of g_ij = p a_ij + p0 b_i b_j + p1 (b_i y_j + b_j y_i) + p2 y_i y_j.

    dp0_dbeta is carried along because the hv-torsion and difference-tensor
    ingredients need the beta-derivative of p0 in closed form.
    """

    p: float
    p0: float
    p1: float
    p2: float
    dp0_dbeta: float


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
    if family in ("riemannian", "randers"):
        return 0.0
    if family == "generalized-kropina":
        return -(2 * k + 2) * k * (2 * k + 1) * alpha ** (2 * k + 2) / beta ** (2 * k + 3)
    # matsumoto: p0 = 3 alpha^4 / (alpha - beta)^4
    return 12 * alpha ** 4 / (alpha - beta) ** 5


def metric_coefficients(pp: PhiPartials, family: str, k: int, alpha, beta) -> MetricCoefficients:
    """Composition identities p0 = q0 + F_b^2, p1 = q1 + p F_b/F, p2 = q2 + p^2/F^2."""
    ac = angular_coefficients(pp, alpha)
    return MetricCoefficients(
        p=ac.p,
        p0=ac.q0 + pp.Fb * pp.Fb,
        p1=ac.q1 + ac.p * pp.Fb / pp.F,
        p2=ac.q2 + ac.p * ac.p / (pp.F * pp.F),
        dp0_dbeta=dp0_dbeta(family, k, alpha, beta),
    )


def reciprocal_coefficients(mc: MetricCoefficients, alpha, beta, b2) -> ReciprocalCoefficients:
    p, p0, p1, p2 = mc.p, mc.p0, mc.p1, mc.p2
    disc = p0 * p2 - p1 * p1
    zeta = p * (p + p0 * b2 + p1 * beta) + disc * (alpha * alpha * b2 - beta * beta)
    if abs(zeta) < 1e-12:
        raise SingularCoefficientError(f"zeta = {zeta} is numerically singular")
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


# -- assembly

def _four_term(a, b, y_low, c, c0, c1, c2) -> np.ndarray:
    """c a_ij + c0 b_i b_j + c1 (b_i y_j + b_j y_i) + c2 y_i y_j.  Arrays sit
    on the left, so the coefficients may be duals and y_low an object array."""
    return (
        a * c
        + np.outer(b, b) * c0
        + (np.outer(b, y_low) + np.outer(y_low, b)) * c1
        + np.outer(y_low, y_low) * c2
    )


def angular_tensor(ac: AngularCoefficients, a, b, y_low) -> np.ndarray:
    return _four_term(a, b, y_low, ac.p, ac.q0, ac.q1, ac.q2)


def fundamental_tensor(mc: MetricCoefficients, a, b, y_low) -> np.ndarray:
    return _four_term(a, b, y_low, mc.p, mc.p0, mc.p1, mc.p2)


def reciprocal_tensor(rc: ReciprocalCoefficients, p, a_inv, b_up, y) -> np.ndarray:
    return (
        a_inv / p
        - rc.S0 * np.outer(b_up, b_up)
        - rc.S1 * (np.outer(b_up, y) + np.outer(y, b_up))
        - rc.S2 * np.outer(y, y)
    )


def support_covector(pp: PhiPartials, alpha, b, y_low) -> np.ndarray:
    """Normalized support element l_i = F_a y_i/alpha + F_b b_i."""
    return pp.Fa * y_low / alpha + pp.Fb * b


def orthogonal_covector(flag: FlagPoint) -> np.ndarray:
    """m_i = b_i - y_i beta/alpha^2; annihilates y by construction."""
    return flag.b - flag.y_low * (flag.beta / flag.alpha ** 2)


def gamma_one(mc: MetricCoefficients, ac: AngularCoefficients) -> float:
    """gamma_1 = p dp0/dbeta - 3 p1 q0 (hv-torsion cubic coefficient)."""
    return mc.p * mc.dp0_dbeta - 3.0 * mc.p1 * ac.q0


def hv_torsion(mc: MetricCoefficients, h, gamma1: float, m) -> np.ndarray:
    """C_ijk = [p1 (h_ij m_k + h_jk m_i + h_ki m_j) + gamma1 m_i m_j m_k] / (2p)."""
    sym = (
        np.einsum("ij,k->ijk", h, m)
        + np.einsum("jk,i->ijk", h, m)
        + np.einsum("ki,j->ijk", h, m)
    )
    return (mc.p1 * sym + gamma1 * np.einsum("i,j,k->ijk", m, m, m)) / (2.0 * mc.p)


@dataclass
class TensorBundle:
    """All pointwise tensors at one flag, with their coefficient records."""

    flag: FlagPoint
    phi: PhiPartials
    angular: AngularCoefficients
    metric: MetricCoefficients
    reciprocal: ReciprocalCoefficients
    F: float
    l: np.ndarray        # support covector l_i
    g: np.ndarray        # fundamental tensor g_ij
    g_inv: np.ndarray    # reciprocal tensor g^ij
    h: np.ndarray        # angular tensor h_ij
    C: np.ndarray        # hv-torsion C_ijk
    gamma1: float
    m: np.ndarray        # covector orthogonal to the support element
    a_inv: np.ndarray
    b_up: np.ndarray     # b^i = a^ij b_j
    b2: float            # b^2 = a_ij b^i b^j


def bundle_at(spec: SpaceSpec, x, y) -> TensorBundle:
    """Materialize every pointwise tensor at the flag (x, y) from closed
    forms; x may be a BasePoint."""
    flag = flag_point(spec, x, y)
    pp = phi_partials(spec.family, spec.k, flag.alpha, flag.beta)
    ac = angular_coefficients(pp, flag.alpha)
    mc = metric_coefficients(pp, spec.family, spec.k, flag.alpha, flag.beta)
    rc = reciprocal_coefficients(mc, flag.alpha, flag.beta, flag.b2)
    g = fundamental_tensor(mc, flag.a, flag.b, flag.y_low)
    g_inv = reciprocal_tensor(rc, mc.p, flag.a_inv, flag.b_up, flag.y)
    h = angular_tensor(ac, flag.a, flag.b, flag.y_low)
    l = support_covector(pp, flag.alpha, flag.b, flag.y_low)
    m = orthogonal_covector(flag)
    gamma1 = gamma_one(mc, ac)
    c = hv_torsion(mc, h, gamma1, m)
    return TensorBundle(
        flag=flag, phi=pp, angular=ac, metric=mc, reciprocal=rc, F=pp.F,
        l=l, g=g, g_inv=g_inv, h=h, C=c, gamma1=gamma1, m=m,
        a_inv=flag.a_inv, b_up=flag.b_up, b2=flag.b2,
    )


# -- oracle plumbing: the closed forms evaluated on generic scalars

def half_f_squared(spec: SpaceSpec, x):
    """Callable y -> F(x, y)^2 / 2 that stays generic over the scalar type;
    x may be a BasePoint.

    This is the oracle seed: its y-Hessian is the fundamental tensor.  It
    reads only F, so it stays independent of the closed-form partials.
    """
    point = base_point(spec, x)
    a, b = point.a.tolist(), point.b.tolist()  # float * Jet2 is the cheap product

    def f(ys):
        alpha, beta, _ = alpha_beta_generic(a, b, ys)
        F = finsler_norm(spec.family, spec.k, alpha, beta)
        return 0.5 * F * F

    return f


def torsion_oracle(spec: SpaceSpec, x, y) -> np.ndarray:
    """C_ijk oracle = (1/2) d g_ij / d y^k, by dual differentiation of the
    closed-form `fundamental_tensor` in the direction argument; x may be a
    BasePoint."""
    point = base_point(spec, x)
    a, b = point.a.tolist(), point.b.tolist()
    out = np.zeros((spec.dim,) * 3)
    for kk in range(spec.dim):
        ys = [Jet2(v, m == kk) for m, v in enumerate(y)]
        alpha, beta, y_low = alpha_beta_generic(a, b, ys)
        pp = phi_partials(spec.family, spec.k, alpha, beta)
        mc = metric_coefficients(pp, spec.family, spec.k, alpha, beta)
        g = fundamental_tensor(mc, point.a, point.b, np.array(y_low, dtype=object))
        out[:, :, kk] = [[0.5 * e.d1 for e in row] for row in g]
    return out


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


def rel_error(a: np.ndarray, ref: np.ndarray) -> float:
    """Max elementwise deviation scaled by the reference magnitude."""
    a = np.asarray(a, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.abs(a - ref).max() / (1.0 + np.abs(ref).max()))


# central-difference step of the finite-difference Hessian oracle
FD_STEP = 1e-4


def audit_flag(spec: SpaceSpec, x, y) -> list[AuditRow]:
    """Audit the closed forms at one flag against both oracles; x may be a
    BasePoint.

    Checks: g vs half-F^2 Hessian (dual and finite-difference routes),
    h vs g - l (x) l, g_inv vs direct inversion, C vs half dg/dy, and the
    expanded q2 bracket vs its defining expression (documented mismatch).
    """
    bundle = bundle_at(spec, x, y)
    f = half_f_squared(spec, bundle.flag)
    jet = jet_eval(f, y)
    fd = fd_hessian(f, y, step=FD_STEP)
    rows = [
        _row("fundamental-vs-jet-oracle", rel_error(bundle.g, jet.hessian)),
        _row("fundamental-vs-fd-oracle", rel_error(bundle.g, fd)),
        _row("angular-identity", rel_error(bundle.h, bundle.g - np.outer(bundle.l, bundle.l))),
        _row("reciprocal-vs-inversion", rel_error(bundle.g_inv, np.linalg.inv(bundle.g))),
        _row("hv-torsion-vs-jet-oracle", rel_error(bundle.C, torsion_oracle(spec, bundle.flag, y))),
    ]
    if spec.family == "generalized-square":
        q2 = bundle.angular.q2
        q2_printed = q2_expanded_form(spec.k, bundle.flag.alpha, bundle.flag.beta)
        err = abs(q2 - q2_printed) / (1.0 + abs(q2))
        rows.append(
            AuditRow(
                check="q2-expanded-form",
                error=err,
                tol=AUDIT_TOLERANCES["q2-expanded-form"],
                passed=err <= AUDIT_TOLERANCES["q2-expanded-form"],
                expected_mismatch=True,
                note="expanded bracket disagrees with the defining expression "
                     "away from beta = 0 (known misprint, informational)",
            )
        )
    return rows


def _row(check: str, error: float) -> AuditRow:
    tol = AUDIT_TOLERANCES[check]
    return AuditRow(check=check, error=error, tol=tol, passed=error <= tol)


def audit_sweep(spec: SpaceSpec, n: int = 100, seed: int = 0) -> AuditReport:
    """Run the per-flag audit over seeded in-domain flags and keep, for each
    check, the worst error seen.

    Directions are rescaled off the unit sphere (validity is scale-invariant
    by homogeneity) so that degree-sensitive checks are exercised at
    alpha != 1 as well.
    """
    base = sample_flags(spec, n, seed)
    rng = np.random.default_rng(seed)
    scales = np.exp(rng.uniform(-np.log(2.0), np.log(2.0), size=len(base)))
    flags = [(f, f.y * s) for f, s in zip(base, scales)]  # each sampled point is reused
    worst: dict[str, AuditRow] = {}
    for x, y in flags:
        for row in audit_flag(spec, x, y):
            kept = worst.get(row.check)
            if kept is None or row.error > kept.error:
                worst[row.check] = row
    return AuditReport(rows=list(worst.values()), flags=len(flags), seed=seed)
