"""Length-minimizing curves by direct discretization of the arc-length
functional s[gamma] = integral of F(gamma, dgamma/dt) dt.

A polyline's length is the sum of F(midpoint, segment) over segments: by
positive 1-homogeneity in the direction argument the parametrization
cancels, so no dt shows up.  `_segment_length` is the one home of that
midpoint rule: it takes the end nodes of all segments as lanes, hyper-dual
ones for the jet whose value, gradient and Hessian drive the damped Newton
steps (one pass per trial), float ones for `polyline_length` (the metric data
evaluates generically through the space's tables).  `polyline_length` is the
float oracle of that length; `minimize` reads it only for a single segment and
to name the first failing segment of a start polyline that leaves the domain.
Each interior node keeps its fraction of the chord and moves only across it,
so a curve must be a graph over its chord.
"""

from __future__ import annotations

import math
from dataclasses import field

import numpy as np

from .metric import SMALLEST_DIRECTION, SpaceSpec, alpha_beta_generic, finsler_norm
from .numerics import Record, jet_eval


class SegmentDomainError(ArithmeticError):
    """Metric evaluation failed on one polyline segment."""

    def __init__(self, segment: int, cause: Exception):
        super().__init__(f"segment {segment}: {cause}")
        self.segment = segment


class _Midpoints(dict):
    """Midpoint columns by coordinate, each built the first time an expression reads it."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def __len__(self):  # the dimension, which `Coord.eval` checks, not the columns built
        return len(self.lo)

    def __missing__(self, i):
        self[i] = (self.lo[i] + self.hi[i]) * 0.5
        return self[i]


def _segment_length(spec: SpaceSpec, lo, hi):
    """F(midpoint, difference) of segments from their end-node columns ``lo``
    and ``hi`` (d entries each: float lanes, or Jet2 lanes); raises on a
    domain exit in any segment.  Constant a and b read no midpoint."""
    mid, delta = _Midpoints(lo, hi), [h - l for l, h in zip(lo, hi)]
    with np.errstate(all="ignore"):  # its callers refuse a value that is not finite
        d, a = spec.dim, spec.a_table.eval(mid)
        alpha, beta, _ = alpha_beta_generic([a[i * d:i * d + d] for i in range(d)],
                                            spec.b_table.eval(mid), delta)
        return finsler_norm(spec.family, spec.k, alpha, beta)


def polyline_length(spec: SpaceSpec, nodes) -> float:
    """Exactly rounded sum of F(midpoint, segment difference) over all segments,
    one lane pass: near the minimum, accumulated rounding would otherwise
    decide whether the reported length falls below the true one."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[0] < 2 or nodes.shape[1] != spec.dim:
        raise ValueError(f"nodes must be an (m+1) x {spec.dim} array with m >= 1")
    lo, hi = nodes[:-1].T, nodes[1:].T
    try:
        lengths = _segment_length(spec, lo, hi)
    except ArithmeticError:  # DomainError and FamilyDomainError among them
        for s in range(len(nodes) - 1):  # the first failing segment, as a batch of one
            try:
                _segment_length(spec, lo[:, s:s + 1], hi[:, s:s + 1])
            except ArithmeticError as err:
                raise SegmentDomainError(s, err) from err
        raise
    return math.fsum(_finite(lengths))


def _finite(*parts):
    """parts[0], when every part of F (segments in front) is finite; else SegmentDomainError."""
    if not all(np.isfinite(p).all() for p in parts):  # then find the first such segment
        ok = np.all([np.isfinite(p).reshape(len(p), -1).all(1) for p in parts], axis=0)
        raise SegmentDomainError(int(np.argmin(ok)), ArithmeticError("F or its jet is not finite"))
    return parts[0]


class GeodesicParams(Record):
    """Settings of `minimize`: its fields are the keys and defaults of [geodesic]."""

    start: np.ndarray | None = None
    end: np.ndarray | None = None
    segments: int = field(default=16, metadata={"min": 1})
    iters: int = field(default=500, metadata={"min": 1})
    tol: float = field(default=1e-8, metadata={"min": 0.0})
    seed: int = 0


class GeodesicResult(Record):
    """Optimized polyline with its length and first-order stationarity."""

    nodes: np.ndarray
    length: float
    grad_norm: float       # max-norm of the length gradient across the chord, final nodes
    iterations: int
    converged: bool
    trace: list[float]     # length after each accepted step
    message: str = ""


# Levenberg-Marquardt damping, as a multiple of the Hessian's largest absolute
# row sum: raised on each rejected trial, lowered on each accepted step.
_DAMPING_START = 1e-3
_DAMPING_MIN = 1e-12
_DAMPING_MAX = 1e20
_DAMPING_FACTOR = 10.0
# A trial length that differs from the current one by at most this much (relative) is
# the same float length: a few units in its last place, F's rounding summed over segments
_LENGTH_ROUNDING = 4 * np.finfo(float).eps


def _length_derivatives(spec: SpaceSpec, nodes, across):
    """Length (exactly rounded, as in `polyline_length`), and its gradient and
    Hessian in the stacked offsets of the interior nodes along the rows of ``across``.

    One hyper-dual jet covers every segment, each a point over its two nodes' 2d coordinates,
    whose gradient and Hessian blocks are projected onto the offsets before assembly.
    Node s + 1 ends segment s (its half 1) and starts s + 1 (half 0): a block-tridiagonal
    Hessian, whose lower off-diagonal blocks are the upper ones transposed.
    """
    (m, d), n, s = (len(nodes) - 1, spec.dim), len(across), np.arange(len(nodes) - 2)
    jet = jet_eval(lambda z: _segment_length(spec, z[:d], z[d:]),
                   np.hstack([nodes[:-1], nodes[1:]]))
    _finite(jet.value, jet.gradient, jet.hessian)
    g = jet.gradient.reshape(m, 2, d) @ across.T
    h = across @ jet.hessian.reshape(m, 2, d, 2, d).swapaxes(2, 3) @ across.T  # [seg, half, half]
    grad, hess = (g[1:, 0] + g[:-1, 1]).ravel(), np.zeros((m - 1, n, m - 1, n))
    hess[s, :, s] = h[1:, 0, 0] + h[:-1, 1, 1]
    hess[s[:-1], :, s[1:]] = h[1:-1, 0, 1]
    hess[s[1:], :, s[:-1]] = h[1:-1, 0, 1].swapaxes(1, 2)
    return math.fsum(jet.value), grad, hess.reshape(grad.size, grad.size)


def minimize(spec: SpaceSpec, params: GeodesicParams) -> GeodesicResult:
    """Damped Newton (Levenberg-Marquardt) steps on the discretized arc length
    from ``params.start`` to ``params.end``.

    Interior node s sits at ``p + (s/m)(q - p) + z_s @ across``, ``across``
    an orthonormal basis of the complement of ``q - p``: the length does not
    change when a node slides along the curve, so only the offsets z move,
    and adjacent nodes never merge.  A geodesic that doubles back along
    ``q - p`` is not a graph over its chord and cannot be represented.  The
    offsets start at 1% of a segment, seeded by ``params.seed``.  Each
    trial factorizes H + mu |H| I (the jet Hessian in z, |H| its largest
    absolute row sum) by Cholesky, solves for the step against the gradient
    g through that factor and accepts it only when the length of the trial's
    own jet passes an Armijo test, so each trial is one jet pass; a trial
    whose matrix does not factorize, that leaves the domain or that the test
    rejects raises the damping mu, an accepted one lowers it.  The loop stops
    when the max-norm of the gradient in z (the length's gradient across the
    chord) is at most ``params.tol``, when the last accepted step left the
    length unchanged or a rejected trial whose gradient is above the tolerance
    has a length within its rounding of the current one (its float minimum, not
    converged, at the current nodes), or after
    ``params.iters`` iterations.  Damping that grows without an acceptance
    ends with a non-converged result rather than an exception; endpoints
    whose difference is not finite, or so small that a segment's alpha^2
    underflows, raise ValueError before any step; an initial
    polyline that leaves the domain raises `SegmentDomainError` at the first
    segment that is not finite in the jet, or else raises in `polyline_length`.
    """
    p = np.asarray(params.start, dtype=float)
    q = np.asarray(params.end, dtype=float)
    segments, tol = params.segments, params.tol
    if p.shape != (spec.dim,) or q.shape != (spec.dim,):
        raise ValueError(f"endpoints must have dimension {spec.dim}")
    with np.errstate(all="ignore"):  # refused below, before any arithmetic reads it
        span = q - p
    if not np.isfinite(span).all():
        raise ValueError(f"end - start is not finite: start = {p.tolist()}, end = {q.tolist()}")
    if not np.any(span):
        raise ValueError("endpoints must differ")
    if segments < 1:
        raise ValueError("need at least one segment")
    if np.abs(span).max() / segments < SMALLEST_DIRECTION:  # each segment's difference
        raise ValueError(f"end - start = {span.tolist()} is too small for {segments} segments: "
                         "alpha^2 underflows")

    rng = np.random.default_rng(params.seed)
    ts = np.linspace(0.0, 1.0, segments + 1)[1:-1]
    chord = p + ts[:, None] * span
    across = np.linalg.svd(span[None])[2][1:]  # (d - 1, d), orthonormal rows
    scale = 0.01 * math.hypot(*span) / segments  # 1% of a segment
    z = (scale * rng.normal(size=chord.shape) @ across.T).ravel()

    def nodes_of(offsets):
        inner = chord + offsets.reshape(-1, len(across)) @ across
        return np.vstack([p[None, :], inner, q[None, :]])

    if len(z) == 0:
        length = polyline_length(spec, nodes_of(z))
        return GeodesicResult(nodes_of(z), length, 0.0, 0, True, [length],
                              "single segment: nothing to optimize")

    try:
        value, grad, hess = _length_derivatives(spec, nodes_of(z), across)
    except SegmentDomainError:  # a part of F is not finite in the jet at that segment
        raise
    except ArithmeticError:
        polyline_length(spec, nodes_of(z))  # raises SegmentDomainError naming the segment
        raise
    trace, damping, eye = [value], _DAMPING_START, np.eye(len(z))
    it, message = 0, ""
    for it in range(1, params.iters + 1):
        if float(np.abs(grad).max()) <= tol:  # converged: the one verdict is given below
            break
        if len(trace) > 1 and trace[-1] == trace[-2]:  # no step can lower the float length
            message = "float minimum reached: the last step left the length unchanged"
            break
        bound = np.linalg.norm(hess, np.inf) or 1.0  # |H| >= every |eigenvalue| of H
        while damping <= _DAMPING_MAX:
            try:
                low = np.linalg.cholesky(hess + damping * bound * eye)
                step = -np.linalg.solve(low.T, np.linalg.solve(low, grad))
                trial = z + step
                tval, tgrad, thess = _length_derivatives(spec, nodes_of(trial), across)
            except (np.linalg.LinAlgError, ArithmeticError):
                pass  # H + mu |H| I not positive definite, or a domain exit: damp harder
            else:
                if tval <= value + 1e-4 * float(grad @ step):
                    break
                if (abs(tval - value) <= _LENGTH_ROUNDING * value  # the same float length,
                        and np.abs(tgrad).max() > tol):  # a stationary one may yet pass when damped
                    message = "float minimum reached: no step lowers the length past its rounding"
                    break
            damping *= _DAMPING_FACTOR
        else:
            message = "line search stalled: persistent step rejection"
        if message:
            break
        z, value, grad, hess = trial, tval, tgrad, thess
        trace.append(value)
        damping = max(damping / _DAMPING_FACTOR, _DAMPING_MIN)
    else:
        message = "iteration budget exhausted"

    gn = float(np.abs(grad).max())  # a budget may end on a stationary point too
    converged = gn <= tol
    message = "stationary point reached" if converged else message
    return GeodesicResult(
        nodes=nodes_of(z), length=value, grad_norm=gn,
        iterations=it, converged=converged, trace=trace, message=message,
    )
