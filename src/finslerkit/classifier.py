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
from dataclasses import dataclass

import numpy as np

from .connection import ConnectionData, covariant_db, difference_ingredients
from .hypersurface import (
    HTensors,
    HypersurfaceFrame,
    LevelSurface,
    frame_at,
    normal_curvature_and_h,
)
from .metric import SAMPLE_BOX, SpaceSpec
from .numerics import least_squares


class ClassifierConsistencyError(RuntimeError):
    """Algebraic and geometric routes disagreed: implementation or sampling problem."""


@dataclass
class ClassifyOptions:
    points: int = 25
    directions: int = 5
    seed: int = 2024
    tol: float = 1e-8


@dataclass
class KindResult:
    passed: bool
    residual: float


@dataclass
class ThirdKindResult:
    verdict: str          # "impossible" | "vacuous"
    witness: float        # min over samples of max |M_ab|
    note: str = ""


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
        rows = [
            ("first-kind", "PASS" if self.first_kind.passed else "FAIL"),
            ("second-kind", "PASS" if self.second_kind.passed else "FAIL"),
            ("third-kind", self.third_kind.verdict.upper()),
        ]
        return rows


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
    conns: list[ConnectionData], tol: float = 1e-8
) -> tuple[KindResult, list[np.ndarray]]:
    """Least-squares solve of 2 b_ij = b_i c_j + b_j c_i over the d(d+1)/2
    independent equations at each sample point's connection; FAIL is an
    answer, not an error."""
    worst = 0.0
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
        resid = float(np.abs(rows @ c - rhs).max())
        worst = max(worst, resid)
        scale = max(scale, 1.0 + float(np.abs(conn.b_cov).max()))
        c_samples.append(c)
    return KindResult(passed=worst <= tol * scale, residual=worst), c_samples


def second_kind_test(
    conns: list[ConnectionData], tol: float = 1e-8
) -> tuple[KindResult, list[float]]:
    """Fit e(x) = b^i b^j b_ij / (b^2)^2 and measure ||b_cov - e b (x) b||."""
    worst = 0.0
    scale = 1.0
    e_samples: list[float] = []
    for conn in conns:
        p = conn.point
        if p.b2 < 1e-14:
            e_samples.append(0.0)
            continue
        e = float(p.b_up @ conn.b_cov @ p.b_up) / (p.b2 * p.b2)
        resid = float(np.abs(conn.b_cov - e * np.outer(p.b, p.b)).max())
        worst = max(worst, resid)
        scale = max(scale, 1.0 + float(np.abs(conn.b_cov).max()))
        e_samples.append(e)
    return KindResult(passed=worst <= tol * scale, residual=worst), e_samples


def third_kind_test(frames: list[HypersurfaceFrame], h_list: list[HTensors]) -> ThirdKindResult:
    """M_ab is a positive multiple of the induced angular metric whenever
    b^2 > 0, so it cannot vanish: verdict IMPOSSIBLE with the smallest
    observed ||M_ab|| as witness.  Degenerate b == 0 is VACUOUS."""
    if not frames:
        raise ValueError("no frames sampled")
    if max(f.bundle.b2 for f in frames) < 1e-14:
        return ThirdKindResult(verdict="vacuous", witness=0.0,
                               note="the 1-form vanishes on the surface")
    witness = min(float(np.abs(ht.M_ab).max()) for ht in h_list)
    return ThirdKindResult(verdict="impossible", witness=witness)


def proportionality_check(
    frames: list[HypersurfaceFrame],
    h_list: list[HTensors],
    c_for_frame: list[np.ndarray],
    k: int,
) -> tuple[list[float], float]:
    """Check H_ab = c_0 b / sqrt(1 + k(k+1)) * h_ab with c_0 = c_i y^i.

    On level surfaces of the 1-form's own potential, c is parallel to b and
    c_0 vanishes on tangential flags, so both sides are zero there.
    """
    factors: list[float] = []
    deviation = 0.0
    for frame, ht, c in zip(frames, h_list, c_for_frame):
        c0 = float(c @ frame.flag.y)
        factor = c0 * math.sqrt(frame.bundle.b2) / math.sqrt(1.0 + k * (k + 1))
        factors.append(factor)
        deviation = max(deviation, float(np.abs(ht.H_ab - factor * frame.h_ind).max()))
    return factors, deviation


def classify(
    surface: LevelSurface, spec: SpaceSpec, opts: ClassifyOptions | None = None
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
    opts = opts or ClassifyOptions()
    pts = surface_points(surface, spec, opts.points, opts.seed)
    conns = [covariant_db(spec, x) for x in pts]  # one base point and connection each

    first, c_samples = first_kind_test(conns, tol=opts.tol)
    second, e_samples = second_kind_test(conns, tol=opts.tol)

    rng = np.random.default_rng(opts.seed + 1)
    frames: list[HypersurfaceFrame] = []
    h_list: list[HTensors] = []
    c_for_frame: list[np.ndarray] = []
    h_a_max = 0.0
    h_ab_max = 0.0
    geo_scale = 1.0
    for idx, conn in enumerate(conns):
        geo_scale = max(geo_scale, 1.0 + float(np.abs(conn.b_cov).max()))
        draws = rng.normal(size=(opts.directions, spec.dim - 1))
        vs = [v / np.linalg.norm(v) for v in draws if np.linalg.norm(v) >= 1e-12]
        for frame in frame_at(spec, surface, conn.point, vs):
            di = difference_ingredients(frame.bundle, conn, frame.flag)
            ht = normal_curvature_and_h(frame, conn, di)
            frames.append(frame)
            h_list.append(ht)
            c_for_frame.append(c_samples[idx])
            h_a_max = max(h_a_max, float(np.abs(ht.H_a).max()))
            h_ab_max = max(h_ab_max, float(np.abs(ht.H_ab).max()))

    geo_first = h_a_max <= opts.tol * geo_scale
    geo_second = geo_first and h_ab_max <= opts.tol * geo_scale
    if geo_first != first.passed or geo_second != second.passed:
        raise ClassifierConsistencyError(
            f"routes disagree: algebraic first/second = {first.passed}/{second.passed}, "
            f"geometric = {geo_first}/{geo_second} "
            f"(max |H_a| = {h_a_max:.3e}, max |H_ab| = {h_ab_max:.3e})"
        )

    third = third_kind_test(frames, h_list)
    if first.passed:
        factors, deviation = proportionality_check(frames, h_list, c_for_frame, spec.k)
    else:
        factors, deviation = [], None

    return ClassificationReport(
        first_kind=first,
        second_kind=second,
        third_kind=third,
        c_samples=c_samples,
        e_samples=e_samples,
        proportionality_factors=factors,
        proportionality_deviation=deviation,
        geo_H_a_max=h_a_max,
        geo_H_ab_max=h_ab_max,
        points=pts,
        directions=opts.directions,
        seed=opts.seed,
        tol=opts.tol,
    )
