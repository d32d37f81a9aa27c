"""Hyperplane-kind classification for level hypersurfaces.

Two independent routes are always run and must agree:

* algebraic: pointwise solvability of 2 b_ij = b_i c_j + b_j c_i
  (first kind) and b_ij = e b_i b_j (second kind) in the spatial data;
* geometric: vanishing of the normal curvature H_a (first kind) and
  additionally of the second fundamental h-tensor H_ab (second kind),
  evaluated on tangential flags.

The third kind is decided by the second fundamental v-tensor M_ab, which is
a strictly positive multiple of the induced angular metric whenever the
1-form has positive length, so the verdict is IMPOSSIBLE rather than a
condition.  Classification applies to the power-quotient family
(alpha+beta)^(k+1)/alpha^k only, Randers (k = 0) and square (k = 1) included.

What depends on x alone (surface points, connection, the algebraic tests) runs once per
`classify` as lanes over all points, each table evaluated once there; one frame then holds
every kept direction, point by point: its charts, one bundle and one pass over all flags.
"""

from __future__ import annotations

from dataclasses import field

import numpy as np

from .connection import ConnectionData, covariant_db
from .hypersurface import HypersurfaceFrame, LevelSurface, frame_at
from .metric import SAMPLE_BOX, SpaceSpec, _first_passing
from .numerics import Record, dot, lanewise, matvec, outer


class ClassifierConsistencyError(RuntimeError):
    """Algebraic and geometric routes disagreed: implementation or sampling problem."""


class ClassifyOptions(Record):
    """Settings of `classify`: its fields are the keys and defaults of [classify]."""

    points: int = field(default=25, metadata={"min": 1})
    directions: int = field(default=5, metadata={"min": 1})
    seed: int = 2024
    tol: float = field(default=1e-8, metadata={"min": 0.0})


class KindResult(Record):
    passed: bool
    per_point: list[float]   # each sample point's residual
    bound: float             # what the largest residual is held to: tol * (1 + max |b_ij|)

    @property
    def residual(self) -> float:
        return max(self.per_point, default=0.0)


class ThirdKindResult(Record):
    verdict: str             # "impossible" | "vacuous"
    per_point: list[float]   # each point's min over its directions of max |M_ab|

    @property
    def witness(self) -> float:
        return min(self.per_point, default=0.0)


class ClassificationReport(Record):
    """Residuals and verdicts for the three hyperplane kinds plus the
    cross-route diagnostics and the sampling metadata."""

    first_kind: KindResult
    second_kind: KindResult
    third_kind: ThirdKindResult
    e_samples: list[float]
    proportionality_factors: list[float]
    proportionality_deviation: float | None
    geo_H_a_max: float
    geo_H_ab_max: float
    points: np.ndarray       # (points, d)
    directions: int
    seed: int
    tol: float

    @property
    def summary(self) -> list[tuple[str, str]]:
        return [
            ("first-kind", "PASS" if self.first_kind.passed else "FAIL"),
            ("second-kind", "PASS" if self.second_kind.passed else "FAIL"),
            ("third-kind", self.third_kind.verdict.upper()),
        ]


def surface_points(
    surface: LevelSurface, spec: SpaceSpec, n: int, seed: int
) -> np.ndarray:
    """Deterministic points (n, d) on b(x) = c: seeded samples from the box
    [-SAMPLE_BOX, SAMPLE_BOX]^d projected onto the level set by Newton
    iteration along each seed's starting gradient direction, a block of seeds
    as the lanes of one pass (`metric._first_passing`: a seed whose steps
    leave the potential's domain is a failed try)."""
    rng = np.random.default_rng(seed)
    return _first_passing(n, max(500 * n, 2000),
                          lambda m: (rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=(m, spec.dim)),),
                          lambda raw: _project(surface, raw),
                          "surface sampling stalled; is the level reachable?")


def _project(surface: LevelSurface, raw: np.ndarray) -> np.ndarray:
    """Newton projection of the seeds raw (m, d) along their unit gradients u:
    the end points of the lanes that converged to a regular point."""
    tol = 1e-13 * (1.0 + abs(surface.level))
    with np.errstate(all="ignore"):  # a diverging lane may overflow; it is rejected
        grad = surface.gradient(raw)
        norm = np.sqrt(dot(grad, grad))
        u = grad / norm[:, None]
        x, ok = raw.copy(), np.zeros(len(raw), bool)
        live = np.flatnonzero(~(norm < 1e-10))
        for _ in range(60):
            r = surface.value(x[live]) - surface.level
            done = np.abs(r) <= tol
            ok[live[done]] = True
            if done.all():
                break
            slope = dot(surface.gradient(x[live]), u[live])
            step = ~done & ~(np.abs(slope) < 1e-12)
            if not step.any():
                break
            live, r, slope = live[step], r[step], slope[step]
            x[live] = x[live] - lanewise(r / slope, 1) * u[live]
        grad = surface.gradient(x[ok])
        ok[ok] = np.sqrt(dot(grad, grad)) > 1e-10
    return x[ok]


def first_kind_test(conn: ConnectionData, tol: float) -> tuple[KindResult, list[np.ndarray]]:
    """Least-squares solve of 2 b_ij = b_i c_j + b_j c_i over the d(d+1)/2
    equations i <= j at each point, all the lanes of the stacked connection in one
    pass; FAIL is an answer, not an error.

    The normal equations (|b|^2 I + 2 diag(b o b) + b b^T) c = r b + b o diag(r), with
    r_ij = r_ji = 2 b_ij for i <= j, have a diagonal plus rank-one matrix, which
    Sherman-Morrison inverts in closed form, here scaled to t = b / max_i |b_i| so
    that nothing overflows.  |t|^2 >= 1 where b != 0; its floor of 1 (and a scale of
    1) where b = 0 gives c = 0 there."""
    b, d = conn.point.b, conn.point.b.shape[-1]
    upper = np.arange(d)[:, None] <= np.arange(d)  # the equation (i, j), i <= j
    r = 2.0 * np.where(upper, conn.b_cov, np.swapaxes(conn.b_cov, -1, -2))
    s = np.abs(b).max(-1)
    t = b / (s := lanewise(np.where(s > 0.0, s, 1.0), 1))
    diag = lanewise(np.maximum(dot(t, t), 1.0), 1) + 2.0 * t * t
    w, u = (matvec(r, t) + t * np.diagonal(r, 0, -2, -1)) / diag, t / diag
    c = (w - u * lanewise(dot(t, w) / (1.0 + dot(t, u)), 1)) / s
    residuals = np.abs(outer(b, c) + outer(c, b) - r).max((-2, -1))  # symmetric: (i, j) twice
    bound = tol * _scale(conn.b_cov)
    return KindResult(passed=bool(residuals.max(initial=0.0) <= bound),
                      per_point=residuals.tolist(), bound=bound), list(c)


def second_kind_test(conn: ConnectionData, tol: float) -> tuple[KindResult, list[float]]:
    """Fit e(x) = b^i b^j b_ij / (b^2)^2 and measure ||b_cov - e b (x) b|| at
    every lane of the stacked connection in one pass; a point where b vanishes
    is skipped, with e and residual 0; one where a factor of e overflows raises."""
    p = conn.point
    fitted = ~(p.b2 < 1e-14)
    with np.errstate(all="ignore"):  # refused below
        num, den = dot((p.b_up[:, None] @ conn.b_cov)[:, 0], p.b_up), p.b2 * p.b2
    if not (ok := np.isfinite(num) & np.isfinite(den)).all():
        raise ArithmeticError(f"the second-kind fit overflows at x={p.x[np.argmin(ok)].tolist()}"
                              f": b^2 = {p.b2[np.argmin(ok)]:.3e}")
    e = np.divide(num, den, out=np.zeros(len(fitted)), where=fitted)
    misfit = np.abs(conn.b_cov - lanewise(e, 2) * outer(p.b, p.b)).max((-2, -1))
    residuals, bound = np.where(fitted, misfit, 0.0), tol * _scale(conn.b_cov[fitted])
    return KindResult(passed=bool(residuals.max(initial=0.0) <= bound),
                      per_point=residuals.tolist(), bound=bound), e.tolist()


def _scale(b_cov: np.ndarray) -> float:
    """The scale of the kind tolerances: 1 + max |b_ij| over the points."""
    return 1.0 + float(np.abs(b_cov).max(initial=0.0))


def third_kind_test(frame: HypersurfaceFrame, counts) -> ThirdKindResult:
    """M_ab is a positive multiple of the induced angular metric whenever
    b^2 > 0, so it cannot vanish: verdict IMPOSSIBLE with each point's
    smallest observed ||M_ab|| as its witness, point p owning the next
    counts[p] >= 1 lanes of the frame.  Degenerate b == 0 is VACUOUS."""
    if frame.bundle.flag.b2.max() < 1e-14:
        return ThirdKindResult(verdict="vacuous", per_point=[0.0] * len(counts))
    per_point = np.minimum.reduceat(np.abs(frame.M_ab).max((-2, -1)), np.cumsum(counts) - counts)
    return ThirdKindResult(verdict="impossible", per_point=per_point.tolist())


def proportionality_check(
    frame: HypersurfaceFrame, c: np.ndarray, k: int
) -> tuple[list[float], np.ndarray]:
    """Check H_ab = -(k+1) c_0 sqrt(b^2) / (4 alpha zeta^(3/2)) h_ab with
    c_0 = c_i y^i and zeta = 1 + k(k+1) b^2 on every flag of the frame, with
    c its point's first-kind solution, one row per flag: the factors, and the
    largest deviation |H_ab - factor h_ab| of each flag.

    On a first-kind level set of the 1-form's own potential N_i is
    proportional to b_i and the pullback of b_ij vanishes, so H_ab reduces to
    N_i D^i_jk B^j_a B^k_b, whose only c-dependence is E_k0 = b_k c_0 / 2.
    Where c is parallel to b, c_0 vanishes on tangential flags and so do
    both sides.
    """
    flag = frame.bundle.flag
    zeta = 1.0 + k * (k + 1) * flag.b2
    factors = -(k + 1) * dot(flag.y, c) * np.sqrt(flag.b2) / (4.0 * flag.alpha * zeta ** 1.5)
    return factors.tolist(), np.abs(frame.H_ab - lanewise(factors, 2) * frame.h_ind).max((-2, -1))


def classify(
    surface: LevelSurface, spec: SpaceSpec, opts: ClassifyOptions
) -> ClassificationReport:
    """Run every test on a deterministic sample grid and enforce agreement
    between the algebraic and geometric routes.

    Disagreement raises ClassifierConsistencyError: the equivalences are
    exact, so a mismatch signals an implementation or sampling problem.  They
    need b != 0, so a point where b vanishes but b_ij does not raises
    ValueError naming it; where both vanish the third kind is VACUOUS.
    """
    if spec.family != "generalized-square":
        raise ValueError(
            "classification is specific to the (alpha+beta)^(k+1)/alpha^k family"
        )
    pts = surface_points(surface, spec, opts.points, opts.seed)
    conn = covariant_db(spec, pts)  # the points' base points and connections, as lanes
    geo_scale = _scale(conn.b_cov)
    bare = (conn.point.b2 < 1e-14) & (np.abs(conn.b_cov).max((-2, -1)) > opts.tol * geo_scale)
    if bare.any():
        raise ValueError(f"the 1-form vanishes at x={pts[np.argmax(bare)].tolist()} while b_ij "
                         "does not: the kind tests need b != 0 there")

    first, c = first_kind_test(conn, opts.tol)
    second, e_samples = second_kind_test(conn, opts.tol)

    rng = np.random.default_rng(opts.seed + 1)
    draws = rng.normal(size=(len(pts), opts.directions, spec.dim - 1))
    norms = np.sqrt(dot(draws, draws))
    kept = norms >= 1e-12
    at = np.nonzero(kept)[0]  # the point of each kept draw, point by point
    frame = frame_at(spec, surface, conn, draws[kept] / norms[kept, None], at)
    h_a_max = float(np.abs(frame.H_a).max(initial=0.0))
    h_ab_max = float(np.abs(frame.H_ab).max(initial=0.0))

    geo_first = h_a_max <= opts.tol * geo_scale
    geo_second = geo_first and h_ab_max <= opts.tol * geo_scale
    if geo_first != first.passed or geo_second != second.passed:
        raise ClassifierConsistencyError(
            f"routes disagree: algebraic first/second = {first.passed}/{second.passed}, "
            f"geometric = {geo_first}/{geo_second} "
            f"(max |H_a| = {h_a_max:.3e}, max |H_ab| = {h_ab_max:.3e})"
        )

    third = third_kind_test(frame, kept.sum(1))
    factors, deviation = [], None
    if first.passed:
        factors, deviations = proportionality_check(frame, np.array(c)[at], spec.k)
        deviation, worst = float(np.max(deviations)), np.argmax(deviations)
        if deviation > opts.tol * geo_scale:  # named at its worst flag, whose b^2 may be large
            x, b2 = frame.bundle.flag.x[worst].tolist(), frame.bundle.flag.b2[worst]
            raise ClassifierConsistencyError(
                f"first kind holds, but H_ab deviates from the first-kind multiple of h_ab "
                f"by {deviation:.3e} at x={x}: b^2 = {b2:.3e}")

    return ClassificationReport(
        first_kind=first, second_kind=second, third_kind=third,
        e_samples=e_samples,
        proportionality_factors=factors, proportionality_deviation=deviation,
        geo_H_a_max=h_a_max, geo_H_ab_max=h_ab_max,
        points=pts, directions=opts.directions, seed=opts.seed, tol=opts.tol,
    )
