"""Geometry of a level hypersurface b(x) = c.

Charts come from the implicit function theorem applied to the level
potential, re-selected per base point by largest gradient component; chart
second derivatives are exact symbolic quantities, never finite differences,
because the second fundamental h-tensor sits at 1e-8 tolerances.

Tangential flags satisfy beta = 0; on them the induced metric is the
pullback of a_ij (a Riemannian metric) and the normal is the g-unit,
g-orthogonal vector on the side of increasing potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .connection import (
    ConnectionData,
    DifferenceIngredients,
    covariant_db,
    difference_ingredients,
    difference_tensor,
)
from .metric import FlagPoint, SpaceSpec, base_point, flag_point
from .tensors import TensorBundle, bundle_at

BETA_TOL = 1e-10  # tangency bound on |beta|, relative to max|b| max|y|


class OffSurfaceError(ValueError):
    """Base point does not satisfy |b(x) - c| <= tol."""


@dataclass
class LevelSurface:
    """Scalar potential with a level value; working points must be regular."""

    potential: ex.Expr
    level: float
    _grad: list[ex.Expr] | None = field(default=None, repr=False, compare=False)
    _hess: list[list[ex.Expr]] | None = field(default=None, repr=False, compare=False)

    def _dim_tables(self, dim: int):
        if self._grad is None or len(self._grad) != dim:
            self._grad = [ex.diff(self.potential, i) for i in range(dim)]
            self._hess = [
                [ex.diff(self._grad[i], j) for j in range(dim)] for i in range(dim)
            ]

    def value(self, x) -> float:
        return float(self.potential.eval(x))

    def gradient(self, x) -> np.ndarray:
        self._dim_tables(len(x))
        return np.array([g.eval(x) for g in self._grad], dtype=float)

    def hessian(self, x) -> np.ndarray:
        self._dim_tables(len(x))
        d = len(x)
        return np.array(
            [[self._hess[i][j].eval(x) for j in range(d)] for i in range(d)], dtype=float
        )


@dataclass
class Chart:
    """Implicit chart at a base point.

    B[i, a]      = dx^i/du^a (projection factors; columns span the tangent space);
    B2[i, a, b]  = d^2 x^i / du^a du^b (nonzero only in the dependent row);
    dep          = index of the coordinate solved for via the implicit function
                   theorem (largest |gradient| component);
    grad         = gradient of the potential at x0.
    """

    x0: np.ndarray
    dep: int
    free: tuple[int, ...]
    B: np.ndarray
    B2: np.ndarray
    grad: np.ndarray


def chart_at(surface: LevelSurface, x0, tol: float = 1e-10) -> Chart:
    x0 = np.asarray(x0, dtype=float)
    d = len(x0)
    val = surface.value(x0)
    if abs(val - surface.level) > tol * (1.0 + abs(surface.level)):
        raise OffSurfaceError(
            f"point is off the surface: |b(x) - c| = {abs(val - surface.level):.3e}"
        )
    grad = surface.gradient(x0)
    if np.linalg.norm(grad) < 1e-12:
        raise ValueError("vanishing potential gradient: level set is not regular here")
    dep = int(np.argmax(np.abs(grad)))
    free = tuple(i for i in range(d) if i != dep)
    B = np.zeros((d, d - 1))
    for a, i in enumerate(free):
        B[i, a] = 1.0
        B[dep, a] = -grad[i] / grad[dep]
    # second derivatives of the implicit chart: only the dependent row moves.
    # t_a = -G_a/G_D with G_i = d b/d x^i along x(u); dG_i/du^b = (H B)_i.
    hess = surface.hessian(x0)
    hb = hess @ B  # [i, b] = dG_i/du^b
    B2 = np.zeros((d, d - 1, d - 1))
    gd = grad[dep]
    for a, i in enumerate(free):
        for bidx in range(d - 1):
            B2[dep, a, bidx] = -(hb[i, bidx] * gd - grad[i] * hb[dep, bidx]) / (gd * gd)
    return Chart(x0=x0, dep=dep, free=free, B=B, B2=B2, grad=grad)


def tangential_flag(spec: SpaceSpec, chart: Chart, v) -> FlagPoint:
    """Lift a hypersurface direction v to the ambient flag y = B v; B has full
    rank, so `flag_point` rejects v = 0 as a zero direction."""
    return _tangential(flag_point(spec, chart.x0, chart.B @ np.asarray(v, dtype=float)))


def _tangential(flag: FlagPoint) -> FlagPoint:
    """When the surface is a level set of the space's own 1-form potential,
    beta vanishes on tangential flags; that is asserted here."""
    scale = 1.0 + float(np.abs(flag.b).max()) * float(np.abs(flag.y).max())
    if abs(flag.beta) > BETA_TOL * scale:
        raise ValueError(
            f"flag is not tangential: beta = {flag.beta:.3e} "
            "(surface potential and space 1-form disagree?)"
        )
    return flag


def unit_normal(chart: Chart, bundle: TensorBundle):
    """g-unit normal: solves g_ij B^i_a N^j = 0 with g_ij N^i N^j = 1,
    oriented toward increasing potential (b_i N^i > 0)."""
    g = bundle.g
    w = np.linalg.solve(g, chart.grad)
    s = float(chart.grad @ w)
    if s <= 0.0:
        raise ArithmeticError("degenerate fundamental tensor: cannot normalize the normal")
    n_up = w / math.sqrt(s)
    n_dn = g @ n_up
    resid = np.abs(chart.B.T @ n_dn).max()
    if resid > 1e-8 * (1.0 + np.abs(n_dn).max()):
        raise ArithmeticError(f"normal failed tangency orthogonality: {resid:.3e}")
    return n_up, n_dn


def induced_tensors(chart: Chart, bundle: TensorBundle):
    """Pullbacks along the projection factors: g_ab, h_ab, C_abc."""
    B = chart.B
    g_ind = B.T @ bundle.g @ B
    h_ind = B.T @ bundle.h @ B
    c_ind = np.einsum("ijk,ia,jb,kc->abc", bundle.C, B, B, B)
    return g_ind, h_ind, c_ind


@dataclass
class HypersurfaceFrame:
    """Chart, tangential flag, ambient bundle, normal pair and induced tensors."""

    chart: Chart
    flag: FlagPoint
    bundle: TensorBundle
    v: np.ndarray
    N_up: np.ndarray
    N_dn: np.ndarray
    B_dual: np.ndarray       # B_i^a = g^ab g_ij B^j_b, shape (d-1, d)
    g_ind: np.ndarray
    g_ind_inv: np.ndarray
    h_ind: np.ndarray
    C_ind: np.ndarray


def frame_at(spec: SpaceSpec, surface: LevelSurface, x0, directions) -> list[HypersurfaceFrame]:
    """Frames at one surface point x0 (or its BasePoint), one per tangential
    direction v.  The chart (with the potential gradient) and the base point
    are built once; each direction's flag is built once, inside its bundle."""
    point = base_point(spec, x0)
    chart = chart_at(surface, point.x)
    frames = []
    for v in directions:
        v = np.asarray(v, dtype=float)
        bundle = bundle_at(spec, point, chart.B @ v)
        flag = _tangential(bundle.flag)
        n_up, n_dn = unit_normal(chart, bundle)
        g_ind, h_ind, c_ind = induced_tensors(chart, bundle)
        g_ind_inv = np.linalg.inv(g_ind)
        b_dual = g_ind_inv @ (chart.B.T @ bundle.g)
        frames.append(HypersurfaceFrame(
            chart=chart, flag=flag, bundle=bundle, v=v,
            N_up=n_up, N_dn=n_dn, B_dual=b_dual,
            g_ind=g_ind, g_ind_inv=g_ind_inv, h_ind=h_ind, C_ind=c_ind,
        ))
    return frames


def second_fundamental_v(frame: HypersurfaceFrame):
    """M_ab = C_ijk B^i_a B^j_b N^k and M_a = C_ijk B^i_a N^j N^k."""
    B, n = frame.chart.B, frame.N_up
    c = frame.bundle.C
    m_ab = np.einsum("ijk,ia,jb,k->ab", c, B, B, n)
    m_a = np.einsum("ijk,ia,j,k->a", c, B, n, n)
    return m_ab, m_a


@dataclass
class HTensors:
    """Normal curvature H_a, its contraction H_0 = H_a v^a, and the second
    fundamental h-tensor H_ab, with the v-tensor alongside."""

    H_a: np.ndarray
    H0: float
    H_ab: np.ndarray
    M_ab: np.ndarray
    M_a: np.ndarray


def normal_curvature_and_h(
    frame: HypersurfaceFrame,
    conn: ConnectionData,
    di: DifferenceIngredients,
) -> HTensors:
    """H_a = N_i (B^i_0a + G*^i_0j B^j_a) and
    H_ab = N_i (B^i_ab + G*^i_jk B^j_a B^k_b) + M_a H_b,
    with the Cartan horizontal coefficients entering as Christoffel plus
    difference tensor."""
    bundle, flag, chart = frame.bundle, frame.flag, frame.chart
    d_tensor = difference_tensor(di, bundle, conn, flag)
    gstar = conn.gamma + d_tensor
    y, v = flag.y, frame.v
    g0 = np.einsum("ilj,l->ij", gstar, y)        # G*^i_0j
    b0b = np.einsum("iab,a->ib", chart.B2, v)    # B^i_0b
    h_a = frame.N_dn @ (b0b + g0 @ chart.B)
    m_ab, m_a = second_fundamental_v(frame)
    h_ab = (
        np.einsum("i,iab->ab", frame.N_dn, chart.B2)
        + np.einsum("i,ijk,ja,kb->ab", frame.N_dn, gstar, chart.B, chart.B)
        + np.outer(m_a, h_a)
    )
    return HTensors(H_a=h_a, H0=float(h_a @ v), H_ab=h_ab, M_ab=m_ab, M_a=m_a)


def h_tensors_at(spec: SpaceSpec, surface: LevelSurface, x0, v) -> tuple[HypersurfaceFrame, HTensors]:
    """Frame plus curvature tensors for one direction: a batch of one."""
    (frame,) = frame_at(spec, surface, x0, [v])
    conn = covariant_db(spec, frame.flag)
    di = difference_ingredients(frame.bundle, conn, frame.flag)
    return frame, normal_curvature_and_h(frame, conn, di)
