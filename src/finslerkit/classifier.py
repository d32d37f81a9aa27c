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
(alpha+beta)^(k+1)/alpha^k only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .connection import ConnectionData, covariant_db
from .hypersurface import HypersurfaceFrame, LevelSurface, frame_at
from .metric import SAMPLE_BOX, SpaceSpec
from .numerics import dot, lanewise, least_squares


class ClassifierConsistencyError(RuntimeError):
    """Algebraic and geometric routes disagreed: implementation or sampling problem."""


@dataclass
class ClassifyOptions:
    """Settings of `classify`: its fields are the keys and defaults of [classify]."""

    points: int = field(default=25, metadata={"min": 1})
    directions: int = field(default=5, metadata={"min": 1})
    seed: int = 2024
    tol: float = 1e-8


@dataclass
class KindResult:
    passed: bool
    per_point: list[float]   # each sample point's residual

    @property
    def residual(self) -> float:
        return max(self.per_point, default=0.0)


@dataclass
class ThirdKindResult:
    verdict: str             # "impossible" | "vacuous"
    per_point: list[float]   # each point's min over its directions of max |M_ab|
    note: str = ""

    @property
    def witness(self) -> float:
        return min(self.per_point, default=0.0)


@dataclass
class ClassificationReport:
    """Residuals and verdicts for the three hyperplane kinds plus the
    cross-route diagnostics and the sampling metadata."""

    first_kind: KindResult
    second_kind: KindResult
    third_kind: ThirdKindResult
    c_samples: list[np.ndarray]
    e_samples: list[float]
    proportionality_factors: list[float]
    proportionality_deviation: float | None
    geo_H_a_max: float
    geo_H_ab_max: float
    points: list[np.ndarray]
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
) -> list[np.ndarray]:
    """Deterministic points on b(x) = c: seeded samples from the box
    [-SAMPLE_BOX, SAMPLE_BOX]^d projected onto the level set by Newton
    iteration along the local gradient direction."""
    rng = np.random.default_rng(seed)
    pts: list[np.ndarray] = []
    tries = 0
    while len(pts) < n:
        tries += 1
        if tries > max(500 * n, 2000):
            raise RuntimeError("surface sampling stalled; is the level reachable?")
        raw = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=spec.dim)
        grad = surface.gradient(raw)
        gn = np.linalg.norm(grad)
        if gn < 1e-10:
            continue
        u = grad / gn
        x = raw.copy()
        ok = False
        for _ in range(60):
            r = surface.value(x) - surface.level
            if abs(r) <= 1e-13 * (1.0 + abs(surface.level)):
                ok = True
                break
            slope = float(surface.gradient(x) @ u)
            if abs(slope) < 1e-12:
                break
            x = x - (r / slope) * u
        if ok and np.linalg.norm(surface.gradient(x)) > 1e-10:
            pts.append(x)
    return pts


def first_kind_test(
    conns: list[ConnectionData], tol: float
) -> tuple[KindResult, list[np.ndarray]]:
    """Least-squares solve of 2 b_ij = b_i c_j + b_j c_i over the d(d+1)/2
    independent equations at each sample point's connection; FAIL is an
    answer, not an error."""
    residuals: list[float] = []
    scale = 1.0
    c_samples: list[np.ndarray] = []
    for conn in conns:
        b = conn.point.b
        iu, ju = np.triu_indices(len(b))  # the equation (i, j), i <= j, per row
        rows = np.zeros((len(iu), len(b)))
        rows[np.arange(len(iu)), ju] += b[iu]
        rows[np.arange(len(iu)), iu] += b[ju]
        rhs = 2.0 * conn.b_cov[iu, ju]
        c, _ = least_squares(rows, rhs)
        residuals.append(float(np.abs(rows @ c - rhs).max()))
        scale = max(scale, 1.0 + float(np.abs(conn.b_cov).max()))
        c_samples.append(c)
    return KindResult(passed=max(residuals, default=0.0) <= tol * scale,
                      per_point=residuals), c_samples


def second_kind_test(
    conns: list[ConnectionData], tol: float
) -> tuple[KindResult, list[float]]:
    """Fit e(x) = b^i b^j b_ij / (b^2)^2 and measure ||b_cov - e b (x) b||;
    a point where b vanishes is skipped, with residual 0."""
    residuals: list[float] = []
    scale = 1.0
    e_samples: list[float] = []
    for conn in conns:
        p = conn.point
        if p.b2 < 1e-14:
            residuals.append(0.0)
            e_samples.append(0.0)
            continue
        e = float(p.b_up @ conn.b_cov @ p.b_up) / (p.b2 * p.b2)
        resid = float(np.abs(conn.b_cov - e * np.outer(p.b, p.b)).max())
        residuals.append(resid)
        scale = max(scale, 1.0 + float(np.abs(conn.b_cov).max()))
        e_samples.append(e)
    return KindResult(passed=max(residuals, default=0.0) <= tol * scale,
                      per_point=residuals), e_samples


def third_kind_test(frames: list[HypersurfaceFrame]) -> ThirdKindResult:
    """M_ab is a positive multiple of the induced angular metric whenever
    b^2 > 0, so it cannot vanish: verdict IMPOSSIBLE with each point's
    smallest observed ||M_ab|| as its witness.  Degenerate b == 0 is VACUOUS."""
    if not frames:
        raise ValueError("no frames sampled")
    if max(f.bundle.flag.b2 for f in frames) < 1e-14:
        return ThirdKindResult(verdict="vacuous", per_point=[0.0] * len(frames),
                               note="the 1-form vanishes on the surface")
    per_point = [float(np.abs(f.M_ab).max((-2, -1)).min()) for f in frames]
    return ThirdKindResult(verdict="impossible", per_point=per_point)


def proportionality_check(
    frames: list[HypersurfaceFrame], c_samples: list[np.ndarray], k: int
) -> tuple[list[float], float]:
    """Check H_ab = -(k+1) c_0 sqrt(b^2) / (4 alpha zeta^(3/2)) h_ab with
    c_0 = c_i y^i and zeta = 1 + k(k+1) b^2, on each point's frame.

    On a first-kind level set of the 1-form's own potential N_i is
    proportional to b_i and the pullback of b_ij vanishes, so H_ab reduces to
    N_i D^i_jk B^j_a B^k_b, whose only c-dependence is E_k0 = b_k c_0 / 2.
    Where c is parallel to b, c_0 vanishes on tangential flags and so do
    both sides.
    """
    factors: list[float] = []
    deviation = 0.0
    for frame, c in zip(frames, c_samples):
        flag = frame.bundle.flag
        zeta = 1.0 + k * (k + 1) * flag.b2
        factor = -(k + 1) * dot(flag.y, c) * math.sqrt(flag.b2) / (
            4.0 * flag.alpha * zeta ** 1.5)
        factors.extend(factor.tolist())
        dev = np.abs(frame.H_ab - lanewise(factor, 2) * frame.h_ind).max()
        deviation = max(deviation, float(dev))
    return factors, deviation


def classify(
    surface: LevelSurface, spec: SpaceSpec, opts: ClassifyOptions
) -> ClassificationReport:
    """Run every test on a deterministic sample grid and enforce agreement
    between the algebraic and geometric routes.

    Disagreement raises ClassifierConsistencyError: the equivalences are
    exact, so a mismatch signals an implementation or sampling problem.
    """
    if spec.family != "generalized-square":
        raise ValueError(
            "classification is specific to the (alpha+beta)^(k+1)/alpha^k family"
        )
    pts = surface_points(surface, spec, opts.points, opts.seed)
    conns = [covariant_db(spec, x) for x in pts]  # one base point and connection each

    first, c_samples = first_kind_test(conns, opts.tol)
    second, e_samples = second_kind_test(conns, opts.tol)

    rng = np.random.default_rng(opts.seed + 1)
    frames: list[HypersurfaceFrame] = []  # one per point, its directions as lanes
    for conn in conns:
        draws = rng.normal(size=(opts.directions, spec.dim - 1))
        norms = np.sqrt(dot(draws, draws))
        keep = norms >= 1e-12
        frames.append(frame_at(spec, surface, conn, draws[keep] / norms[keep, None]))
    geo_scale = max([1.0] + [1.0 + float(np.abs(conn.b_cov).max()) for conn in conns])
    h_a_max = max([0.0] + [float(np.abs(f.H_a).max()) for f in frames])
    h_ab_max = max([0.0] + [float(np.abs(f.H_ab).max()) for f in frames])

    geo_first = h_a_max <= opts.tol * geo_scale
    geo_second = geo_first and h_ab_max <= opts.tol * geo_scale
    if geo_first != first.passed or geo_second != second.passed:
        raise ClassifierConsistencyError(
            f"routes disagree: algebraic first/second = {first.passed}/{second.passed}, "
            f"geometric = {geo_first}/{geo_second} "
            f"(max |H_a| = {h_a_max:.3e}, max |H_ab| = {h_ab_max:.3e})"
        )

    third = third_kind_test(frames)
    factors, deviation = [], None
    if first.passed:
        factors, deviation = proportionality_check(frames, c_samples, spec.k)
        if deviation > opts.tol * geo_scale:
            raise ClassifierConsistencyError(
                f"first kind holds, but H_ab deviates from the first-kind multiple "
                f"of h_ab by {deviation:.3e}"
            )

    return ClassificationReport(
        first_kind=first, second_kind=second, third_kind=third,
        c_samples=c_samples, e_samples=e_samples,
        proportionality_factors=factors, proportionality_deviation=deviation,
        geo_H_a_max=h_a_max, geo_H_ab_max=h_ab_max,
        points=pts, directions=opts.directions, seed=opts.seed, tol=opts.tol,
    )
