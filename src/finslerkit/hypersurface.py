"""Geometry of a level hypersurface b(x) = c.

Charts come from the implicit function theorem applied to the level
potential, re-selected per base point by largest gradient component; chart
second derivatives are exact symbolic quantities, never finite differences,
because the second fundamental h-tensor sits at 1e-8 tolerances.

Tangential flags satisfy beta = 0; on them the induced metric is the
pullback of a_ij (a Riemannian metric) and the normal is the g-unit,
g-orthogonal vector on the side of increasing potential.  A frame holds all
directions of one surface point as lanes of one pass; the tangency, normal
and orthogonality guards hold in every lane, against that flag's own scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .connection import ConnectionData, difference_tensor
from .metric import FlagPoint, SpaceSpec, flag_point
from .numerics import any_lane, dot, first_lane, lanewise, matvec, outer
from .tensors import TensorBundle, bundle_at

BETA_TOL = 1e-10   # tangency bound on |beta|, relative to max|b| max|y|
LEVEL_TOL = 1e-10  # on-surface bound on |b(x) - c|, relative to 1 + |c|


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
        return np.array([[e.eval(x) for e in row] for row in self._hess], dtype=float)


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


def chart_at(surface: LevelSurface, x0) -> Chart:
    x0 = np.asarray(x0, dtype=float)
    d = len(x0)
    val = surface.value(x0)
    if abs(val - surface.level) > LEVEL_TOL * (1.0 + abs(surface.level)):
        raise OffSurfaceError(
            f"point is off the surface: |b(x) - c| = {abs(val - surface.level):.3e}"
        )
    grad = surface.gradient(x0)
    if np.linalg.norm(grad) < 1e-12:
        raise ValueError("vanishing potential gradient: level set is not regular here")
    dep = int(np.argmax(np.abs(grad)))
    free = tuple(i for i in range(d) if i != dep)
    rows = list(free)
    B = np.zeros((d, d - 1))
    B[rows, range(d - 1)] = 1.0
    B[dep] = -grad[rows] / grad[dep]
    # second derivatives of the implicit chart: only the dependent row moves.
    # t_a = -G_a/G_D with G_i = d b/d x^i along x(u); dG_i/du^b = (H B)_i.
    hess = surface.hessian(x0)
    hb = hess @ B  # [i, b] = dG_i/du^b
    B2 = np.zeros((d, d - 1, d - 1))
    gd = grad[dep]
    B2[dep] = -(hb[rows] * gd - np.outer(grad[rows], hb[dep])) / (gd * gd)
    return Chart(x0=x0, dep=dep, free=free, B=B, B2=B2, grad=grad)


def tangential_flag(spec: SpaceSpec, chart: Chart, v) -> FlagPoint:
    """Lift a hypersurface direction v to the ambient flag y = B v; B has full
    rank, so `flag_point` rejects v = 0 as a zero direction."""
    return _tangential(flag_point(spec, chart.x0, chart.B @ np.asarray(v, dtype=float)))


def _tangential(flag: FlagPoint) -> FlagPoint:
    """When the surface is a level set of the space's own 1-form potential,
    beta vanishes on tangential flags; that is asserted here."""
    scale = 1.0 + np.abs(flag.b).max(-1) * np.abs(flag.y).max(-1)
    off = np.abs(flag.beta) > BETA_TOL * scale
    if any_lane(off):
        raise ValueError(
            f"flag is not tangential: beta = {first_lane(off, flag.beta):.3e} "
            "(surface potential and space 1-form disagree?)"
        )
    return flag


def unit_normal(chart: Chart, bundle: TensorBundle):
    """g-unit normal at each of the bundle's flags: solves g_ij B^i_a N^j = 0
    with g_ij N^i N^j = 1, oriented toward increasing potential (b_i N^i > 0)."""
    g = bundle.g
    # one column per lane: before numpy 2, a 1-D b broadcasts only against a single g
    w = np.linalg.solve(g, np.broadcast_to(chart.grad, g.shape[:-1])[..., None])[..., 0]
    s = dot(chart.grad, w)
    if any_lane(s <= 0.0):
        raise ArithmeticError("degenerate fundamental tensor: cannot normalize the normal")
    n_up = w / lanewise(np.sqrt(s), 1)
    n_dn = matvec(g, n_up)
    resid = np.abs(matvec(chart.B.T, n_dn)).max(-1)
    off = resid > 1e-8 * (1.0 + np.abs(n_dn).max(-1))
    if any_lane(off):
        raise ArithmeticError(
            f"normal failed tangency orthogonality: {first_lane(off, resid):.3e}")
    return n_up, n_dn


def induced_tensors(chart: Chart, bundle: TensorBundle):
    """Pullbacks along the projection factors: g_ab, h_ab, C_abc (k, then j, then i)."""
    B = chart.B
    g_ind = B.T @ bundle.g @ B
    h_ind = B.T @ bundle.h @ B
    c_ind = np.einsum("...icb,ia->...abc", np.swapaxes(bundle.C @ B, -1, -2) @ B, B)
    return g_ind, h_ind, c_ind


@dataclass
class HypersurfaceFrame:
    """Chart, ambient bundle at the tangential flags, normal pairs, induced
    tensors and the second fundamental tensors of the directions v; every
    field but the chart carries the directions' lane axis in front."""

    chart: Chart
    bundle: TensorBundle
    v: np.ndarray
    N_up: np.ndarray
    N_dn: np.ndarray
    B_dual: np.ndarray       # B_i^a = g^ab g_ij B^j_b, shape (d-1, d) per lane
    g_ind: np.ndarray
    g_ind_inv: np.ndarray
    h_ind: np.ndarray
    C_ind: np.ndarray
    H_a: np.ndarray          # normal curvature
    H_ab: np.ndarray         # second fundamental h-tensor
    M_ab: np.ndarray         # second fundamental v-tensor
    M_a: np.ndarray


def frame_at(
    spec: SpaceSpec, surface: LevelSurface, conn: ConnectionData, directions
) -> HypersurfaceFrame:
    """The frame at the surface point of `conn` for one tangential direction
    v (d-1,) or N of them (N, d-1), as lanes of one pass: one chart (with the
    potential gradient), the point's connection, one bundle for all flags."""
    chart = chart_at(surface, conn.point.x)
    v = np.asarray(directions, dtype=float)
    bundle = bundle_at(spec, conn.point, matvec(chart.B, v))
    _tangential(bundle.flag)
    n_up, n_dn = unit_normal(chart, bundle)
    g_ind, h_ind, c_ind = induced_tensors(chart, bundle)
    g_ind_inv = np.linalg.inv(g_ind)
    b_dual = g_ind_inv @ (chart.B.T @ bundle.g)
    h_a, h_ab, m_ab, m_a = normal_curvature_and_h(chart, bundle, conn, v, n_up, n_dn)
    return HypersurfaceFrame(
        chart=chart, bundle=bundle, v=v,
        N_up=n_up, N_dn=n_dn, B_dual=b_dual,
        g_ind=g_ind, g_ind_inv=g_ind_inv, h_ind=h_ind, C_ind=c_ind,
        H_a=h_a, H_ab=h_ab, M_ab=m_ab, M_a=m_a,
    )


def normal_curvature_and_h(
    chart: Chart, bundle: TensorBundle, conn: ConnectionData, v, n_up, n_dn
):
    """(H_a, H_ab, M_ab, M_a) at the flags y = B v with normal pairs (N^i, N_i):
    H_a = N_i (B^i_0a + G*^i_0j B^j_a), M_ab = C_ijk B^i_a B^j_b N^k,
    M_a = C_ijk B^i_a N^j N^k and H_ab = N_i (B^i_ab + G*^i_jk B^j_a B^k_b) + M_a H_b,
    with the Cartan horizontal coefficients entering as Christoffel plus
    difference tensor."""
    B = chart.B
    gstar = conn.gamma + difference_tensor(bundle, conn)
    g0 = (bundle.flag.y[..., None, None, :] @ gstar)[..., 0, :]  # G*^i_0j
    b0b = (v[..., None, None, :] @ chart.B2)[..., 0, :]            # B^i_0b
    h_a = (n_dn[..., None, :] @ (b0b + g0 @ B))[..., 0, :]
    c_n = matvec(bundle.C, n_up[..., None, :])                     # C_ijk N^k
    m_ab = B.T @ c_n @ B
    m_a = matvec(B.T, matvec(c_n, n_up))
    h_ab = (
        np.einsum("...i,iab->...ab", n_dn, chart.B2)
        + B.T @ np.einsum("...i,...ijk->...jk", n_dn, gstar) @ B
        + outer(m_a, h_a)
    )
    return h_a, h_ab, m_ab, m_a
