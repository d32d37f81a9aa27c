"""Length-minimizing curves by direct discretization of the arc-length
functional s[gamma] = integral of F(gamma, dgamma/dt) dt.

A polyline's length is the sum of F(midpoint, segment) over segments: by
positive 1-homogeneity in the direction argument the parametrization
cancels, so no dt shows up.  Interior nodes are optimized by damped Newton
steps; the gradient and Hessian are assembled from one hyper-dual jet whose
lanes cover every segment (the metric data evaluates generically through the
space's tables).  A step that moves no node, bit for bit, reuses the current
length, jet and eigendecomposition, so iteration counts and traces are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metric import SpaceSpec, alpha_beta_generic, finsler_norm
from .numerics import jet_eval


class SegmentDomainError(ArithmeticError):
    """Metric evaluation failed on one polyline segment."""

    def __init__(self, segment: int, cause: Exception):
        super().__init__(f"segment {segment}: {cause}")
        self.segment = segment


def _segment_length(spec: SpaceSpec, mid, delta):
    """F(midpoint, delta) with scalars of any type; raises on domain exit."""
    d, a = spec.dim, spec.a_table.eval(mid)
    alpha, beta, _ = alpha_beta_generic([a[i * d:i * d + d] for i in range(d)],
                                        spec.b_table.eval(mid), delta)
    return finsler_norm(spec.family, spec.k, alpha, beta)


def polyline_length(spec: SpaceSpec, nodes) -> float:
    """Sum of F(midpoint, segment difference) over consecutive node pairs."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[0] < 2 or nodes.shape[1] != spec.dim:
        raise ValueError(f"nodes must be an (m+1) x {spec.dim} array with m >= 1")
    parts = []
    for s in range(nodes.shape[0] - 1):
        mid = list(0.5 * (nodes[s] + nodes[s + 1]))
        delta = list(nodes[s + 1] - nodes[s])
        try:
            parts.append(float(_segment_length(spec, mid, delta)))
        except ArithmeticError as err:  # DomainError and FamilyDomainError among them
            raise SegmentDomainError(s, err) from err
    # exactly rounded sum: near the minimum, accumulated rounding would
    # otherwise decide whether the reported length falls below the true one
    return math.fsum(parts)


@dataclass
class GeodesicParams:
    """Settings of `minimize`: its fields are the keys and defaults of [geodesic]."""

    start: np.ndarray | None = None
    end: np.ndarray | None = None
    segments: int = field(default=16, metadata={"min": 1})
    iters: int = field(default=500, metadata={"min": 1})
    tol: float = 1e-8
    seed: int = 0


@dataclass
class GeodesicResult:
    """Optimized polyline with its length and first-order stationarity."""

    nodes: np.ndarray
    length: float
    grad_norm: float       # max-norm of the length gradient at the final nodes
    iterations: int
    converged: bool
    trace: list[float]     # length after each accepted step
    message: str = ""


# Levenberg-Marquardt damping, as a multiple of the Hessian's largest
# |eigenvalue|: raised on each rejected trial, lowered on each accepted step.
_DAMPING_START = 1e-3
_DAMPING_MIN = 1e-12
_DAMPING_MAX = 1e20
_DAMPING_FACTOR = 10.0


def _length_derivatives(spec: SpaceSpec, nodes):
    """Gradient and Hessian of the length in the stacked interior coordinates.

    One hyper-dual jet covers every segment, each a point over its two
    nodes' 2d coordinates; a segment's rows and columns land at the nodes'
    offsets, and those of a fixed endpoint are dropped.  The Hessian is
    block-tridiagonal but stored dense: (m-1)d stays desk-scale.
    """
    d = spec.dim
    n = (len(nodes) - 2) * d

    def segment(z):
        mid = [(z[j] + z[d + j]) * 0.5 for j in range(d)]
        delta = [z[d + j] - z[j] for j in range(d)]
        return _segment_length(spec, mid, delta)

    jet = jet_eval(segment, np.hstack([nodes[:-1], nodes[1:]]))
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for s in range(len(nodes) - 1):
        lo = (s - 1) * d  # offset of node s among the interior coordinates
        a, b = max(lo, 0), min(lo + 2 * d, n)
        grad[a:b] += jet.gradient[s, a - lo:b - lo]
        hess[a:b, a:b] += jet.hessian[s, a - lo:b - lo, a - lo:b - lo]
    return grad, hess


def minimize(spec: SpaceSpec, params: GeodesicParams) -> GeodesicResult:
    """Damped Newton (Levenberg-Marquardt) steps on the discretized arc length
    from ``params.start`` to ``params.end``.

    Interior nodes start on the straight chord plus a small perturbation
    seeded by ``params.seed``.  Each iteration solves (H + mu I) s = -g with
    the jet gradient and Hessian and accepts the step only when the float
    `polyline_length` passes an Armijo test; a rejected or out-of-domain
    trial raises the damping mu, an accepted one lowers it.  The loop stops
    when the length gradient's max-norm is at most ``params.tol``, or after
    ``params.iters`` iterations.  Damping that grows without an acceptance
    ends with a non-converged result rather than an exception.  A step that
    moves no node reuses the current length, gradient, Hessian and
    eigendecomposition; iteration counts and traces do not change.
    """
    p = np.asarray(params.start, dtype=float)
    q = np.asarray(params.end, dtype=float)
    segments, tol = params.segments, params.tol
    if p.shape != (spec.dim,) or q.shape != (spec.dim,):
        raise ValueError(f"endpoints must have dimension {spec.dim}")
    if not np.any(q - p):
        raise ValueError("endpoints must differ")
    if segments < 1:
        raise ValueError("need at least one segment")

    rng = np.random.default_rng(params.seed)
    ts = np.linspace(0.0, 1.0, segments + 1)[1:-1]
    chord = np.array([p + t * (q - p) for t in ts])
    scale = 0.01 * np.linalg.norm(q - p)
    interior = chord + scale * rng.normal(size=chord.shape) if len(chord) else chord
    flat = interior.flatten()

    def nodes_of(flat_vec):
        return np.vstack([p[None, :], flat_vec.reshape(-1, spec.dim), q[None, :]])

    if len(flat) == 0:  # single segment: nothing to optimize
        length = polyline_length(spec, nodes_of(flat))
        return GeodesicResult(nodes_of(flat), length, 0.0, 0, True, [length])

    try:
        value = polyline_length(spec, nodes_of(flat))
        grad, hess = _length_derivatives(spec, nodes_of(flat))
    except ArithmeticError as err:
        return GeodesicResult(nodes_of(flat), float("nan"), float("inf"), 0, False,
                              [], message=f"initial polyline left the domain: {err}")

    trace = [value]
    damping = _DAMPING_START
    it = 0
    converged = False
    message = ""
    here = None  # bytes of the point whose eigh and memo of trial lengths are kept
    for it in range(1, params.iters + 1):
        if float(np.abs(grad).max()) <= tol:
            converged = True
            message = "stationary point reached"
            break
        if flat.tobytes() != here:  # bytes, not values: -0.0 against 0.0 is a move
            lam, vec = np.linalg.eigh(hess)
            g_eig = vec.T @ grad
            lam_scale = float(np.abs(lam).max()) or 1.0
            here = flat.tobytes()
            lengths = {here: value}
        while damping <= _DAMPING_MAX:
            shifted = lam + damping * lam_scale
            if shifted[0] > 0.0:  # H + mu I positive definite: a descent step
                step = -vec @ (g_eig / shifted)
                trial = flat + step
                key = trial.tobytes()
                try:
                    if key not in lengths:
                        lengths[key] = polyline_length(spec, nodes_of(trial))
                    tval = lengths[key]
                    if tval <= value + 1e-4 * float(grad @ step):
                        tgrad, thess = (_length_derivatives(spec, nodes_of(trial))
                                        if key != here else (grad, hess))
                        break
                except ArithmeticError:
                    pass  # domain exit: damp harder
            damping *= _DAMPING_FACTOR
        else:
            message = "line search stalled: persistent step rejection"
            break
        flat, value, grad, hess = trial, tval, tgrad, thess
        trace.append(value)
        damping = max(damping / _DAMPING_FACTOR, _DAMPING_MIN)
    else:
        message = "iteration budget exhausted"

    gn = float(np.abs(grad).max())
    if not converged:
        converged = gn <= tol
        if converged:
            message = "stationary point reached"
    return GeodesicResult(
        nodes=nodes_of(flat), length=value, grad_norm=gn,
        iterations=it, converged=converged, trace=trace, message=message,
    )
