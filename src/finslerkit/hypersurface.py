"""Geometry of a level hypersurface b(x) = c.

Charts come from the implicit function theorem applied to the level
potential, re-selected per base point by largest gradient component; chart
second derivatives are exact symbolic quantities, never finite differences,
because the second fundamental h-tensor sits at 1e-8 tolerances.

The potential and its derivatives (one `expr.ExprTable`, the space's own for its own
potential, so `chart_at` and the connection share one evaluation at the same points)
take one point (d,) or P points (P, d) as lanes, and so does `chart_at`, each lane with
its own dependent coordinate; its guards hold in every lane and name the failing point.

Tangential flags satisfy beta = 0; on them the induced metric is the
pullback of a_ij (a Riemannian metric) and the normal is the g-unit vector
along g^ij phi_j, the potential's gradient raised by the bundle's closed-form
g^ij, on the side of increasing potential.  A frame is one bundle and one pass
over the flags of all P points, given as one direction array and each flag's point,
each flag with its point's lane of the base points, charts and connections; the
tangency, normal and orthogonality guards hold in every lane, against that flag's own
scale.  The frame keeps what classification reads: the normal pair, the induced
angular tensor h_ab and the second fundamental tensors H_a, H_ab and M_ab.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from . import expr as ex
from .connection import ConnectionData, difference_tensor
from .metric import FlagPoint, SpaceSpec
from .numerics import any_lane, dot, first_lane, lane, lanewise, matvec, outer
from .tensors import TensorBundle, bundle_at

BETA_TOL = 1e-10   # tangency bound on |beta|, relative to max|b| max|y|
LEVEL_TOL = 1e-10  # on-surface bound on |b(x) - c|, relative to 1 + |c|


class OffSurfaceError(ValueError):
    """Base point does not satisfy |b(x) - c| <= tol."""


@dataclass
class LevelSurface:
    """Scalar potential with a level value; working points must be regular.
    Each evaluation takes one point x (d,) or P points (P, d) as lanes.  When
    the potential is the given ``space``'s own `b_potential`, its gradient and
    Hessian tables are the space's `b_table` and that table's partials."""

    potential: ex.Expr
    level: float
    space: InitVar[SpaceSpec | None] = None

    def __post_init__(self, space):
        self.table = ex.ExprTable([self.potential])
        if space is not None and space.b_potential == self.potential:
            self.table._partials[space.dim] = space.b_table  # derived once, by the space

    def value(self, x):
        return self.table.at(x)

    def gradient(self, x) -> np.ndarray:
        return self.table.diff(np.shape(x)[-1]).at(x)

    def hessian(self, x) -> np.ndarray:
        d = np.shape(x)[-1]
        return self.table.diff(d).diff(d).at(x)


@dataclass
class Chart:
    """Implicit chart at a base point x0 (d,), or at P of them (P, d) as lanes in front.

    B[i, a]      = dx^i/du^a (projection factors; columns span the tangent space);
    B2[i, a, b]  = d^2 x^i / du^a du^b (nonzero only in the dependent row);
    dep          = index of the coordinate solved for via the implicit function
                   theorem (largest |gradient| component);
    grad         = gradient of the potential at x0.
    """

    x0: np.ndarray
    dep: np.ndarray
    B: np.ndarray
    B2: np.ndarray
    grad: np.ndarray


def chart_at(surface: LevelSurface, x0) -> Chart:
    """The chart at x0 (d,), or the charts at P points x0 (P, d) as lanes;
    raises at the first point off the surface or with a vanishing gradient."""
    x0 = np.asarray(x0, dtype=float)
    d = x0.shape[-1]
    pts = x0.reshape(-1, d)  # the guards name the first failing point
    r = np.abs(surface.value(x0) - surface.level)
    off = r > LEVEL_TOL * (1.0 + abs(surface.level))
    if any_lane(off):
        raise OffSurfaceError(f"point is off the surface: |b(x) - c| = {first_lane(off, r):.3e}"
                              f" at x={pts[np.argmax(off)].tolist()}")
    grad = surface.gradient(x0)
    flat = np.sqrt(dot(grad, grad)) < 1e-12
    if any_lane(flat):
        raise ValueError("vanishing potential gradient: level set is not regular "
                         f"here, x={pts[np.argmax(flat)].tolist()}")
    dep = np.argmax(np.abs(grad), axis=-1)
    # the other coordinates in order: a stable sort of the mask puts dep last
    free = np.argsort(np.arange(d) == dep[..., None], axis=-1, kind="stable")[..., :-1]
    rows = np.arange(d)[:, None]
    is_dep = rows == dep[..., None, None]                          # (..., d, 1)
    g_free = np.take_along_axis(grad, free, -1)
    gd = np.take_along_axis(grad, dep[..., None], -1)              # (..., 1)
    B = np.where(is_dep, (-g_free / gd)[..., None, :], rows == free[..., None, :])
    # second derivatives of the implicit chart: only the dependent row moves.
    # t_a = -G_a/G_D with G_i = d b/d x^i along x(u); dG_i/du^b = (H B)_i.
    hb = surface.hessian(x0) @ B  # [i, b] = dG_i/du^b
    hb_free = np.take_along_axis(hb, free[..., None], -2)
    hb_dep = np.take_along_axis(hb, dep[..., None, None], -2)[..., 0, :]
    gd = gd[..., None]
    moved = -(hb_free * gd - outer(g_free, hb_dep)) / (gd * gd)
    B2 = np.where(is_dep[..., None], moved[..., None, :, :], 0.0)
    return Chart(x0=x0, dep=dep, B=B, B2=B2, grad=grad)


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
    """g-unit normal N^i = g^ij phi_j / sqrt(g^jk phi_j phi_k) at each of the bundle's flags,
    from the potential's gradient phi_j, toward increasing potential; N_i = g_ij N^j, so the
    tangency-orthogonality guard checks the closed-form g^ij against g_ij as well."""
    w = matvec(bundle.g_inv, chart.grad)
    s = dot(chart.grad, w)
    if any_lane(s <= 0.0):
        raise ArithmeticError("degenerate fundamental tensor: cannot normalize the normal")
    n_up = w / lanewise(np.sqrt(s), 1)
    n_dn = matvec(bundle.g, n_up)
    resid = np.abs(matvec(np.swapaxes(chart.B, -1, -2), n_dn)).max(-1)
    off = resid > 1e-8 * (1.0 + np.abs(n_dn).max(-1))
    if any_lane(off):
        raise ArithmeticError(
            f"normal failed tangency orthogonality: {first_lane(off, resid):.3e}")
    return n_up, n_dn


@dataclass
class HypersurfaceFrame:
    """Chart, ambient bundle at the tangential flags, normal pairs, induced angular
    tensor and second fundamental tensors of the directions v, with the lane axis
    of the flags in front of every field, point by point; the chart and connection
    of a point are repeated in each of its flags' lanes."""

    chart: Chart
    bundle: TensorBundle
    v: np.ndarray
    N_up: np.ndarray
    N_dn: np.ndarray
    h_ind: np.ndarray        # induced angular tensor h_ab = h_ij B^i_a B^j_b
    H_a: np.ndarray          # normal curvature
    H_ab: np.ndarray         # second fundamental h-tensor
    M_ab: np.ndarray         # second fundamental v-tensor


def frame_at(
    spec: SpaceSpec, charts: Chart, conns: ConnectionData, v, at
) -> HypersurfaceFrame:
    """The frame at P points from stacked charts and connections (P of each, one
    point is a stack of one): the flags' directions v (F, d-1), flag f at point
    at[f], each point with at least one; one bundle and one pass over all flags,
    at their points' lanes of the connections' base points."""
    if charts.x0.ndim != 2 or not np.array_equal(charts.x0, conns.point.x):
        raise ValueError("charts and connections must be stacks (P, d) at the same points")
    counts = np.bincount(at, minlength=len(charts.x0))
    if not (len(counts) and counts.all()):
        raise ValueError("no frames sampled" if not len(counts) else
                         f"no direction at x={charts.x0[np.argmin(counts)].tolist()}")
    chart, conn, v = lane(charts, at), lane(conns, at), np.asarray(v, dtype=float)
    bundle = bundle_at(spec, conn.point, matvec(chart.B, v))
    _tangential(bundle.flag)
    n_up, n_dn = unit_normal(chart, bundle)
    B, Bt = chart.B, np.swapaxes(chart.B, -1, -2)
    h_ind = Bt @ bundle.h @ B
    h_a, h_ab, m_ab = normal_curvature_and_h(chart, bundle, conn, v, n_up, n_dn)
    return HypersurfaceFrame(chart=chart, bundle=bundle, v=v, N_up=n_up, N_dn=n_dn,
                             h_ind=h_ind, H_a=h_a, H_ab=h_ab, M_ab=m_ab)


def normal_curvature_and_h(
    chart: Chart, bundle: TensorBundle, conn: ConnectionData, v, n_up, n_dn
):
    """(H_a, H_ab, M_ab) at the flags y = B v with normal pairs (N^i, N_i):
    H_a = N_i (B^i_0a + G*^i_0j B^j_a), H_ab = N_i (B^i_ab + G*^i_jk B^j_a B^k_b)
    and M_ab = C_ijk B^i_a B^j_b N^k, the Cartan horizontal coefficients entering only
    as N_i G*^i_jk: Christoffel plus difference tensor, each contracted with N_i.  H_ab
    has no M_a H_b term: M_a = C_ijk B^i_a N^j N^k vanishes on a tangential flag of every
    (alpha, beta)-metric.  There beta = 0, so h(., y) = 0 forces q1 = 0; the tangency
    guard makes b orthogonal to B_a, so m(B_a) = 0 and N, proportional to g^ij b_j, lies
    in span(b^i, y^i); hence h(B_a, N) = 0 and C(B_a, N, N) = p1 h(B_a, N) m(N)/p = 0."""
    B, Bt = chart.B, np.swapaxes(chart.B, -1, -2)
    n_gstar_b = (np.einsum("...i,...ijk->...jk", n_dn, conn.gamma)
                 + difference_tensor(bundle, conn, n_dn)) @ B            # N_i G*^i_jk B^k_b
    n_b2 = np.einsum("...i,...iab->...ab", n_dn, chart.B2)               # N_i B^i_ab
    h_a = ((v[..., None, :] @ n_b2) + bundle.flag.y[..., None, :] @ n_gstar_b)[..., 0, :]
    m_ab = Bt @ matvec(bundle.C, n_up[..., None, :]) @ B
    h_ab = n_b2 + Bt @ n_gstar_b
    return h_a, h_ab, m_ab
