"""Shared builders for the test fixtures.

Three recurring setups, all on flat 3-space with a gradient 1-form:

* plane_fixture:  b = grad(0.1 x3), surface 0.1 x3 = 0   (constant, tiny b)
* exp_fixture:    b = grad(exp x3), surface exp(x3) = 1  (b^2 = 1 on surface)
* radial_fixture: b = grad(|x|^2/2), unit sphere         (not a hyperplane)

and `varying_space`, a curved space of any family and dimension.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from finslerkit import expr as ex
from finslerkit.hypersurface import Chart, LevelSurface, _tangential
from finslerkit.metric import (
    BasePoint,
    FlagPoint,
    SpaceSpec,
    alpha_beta_generic,
    finsler_norm,
    flag_point,
)
from finslerkit.numerics import fd_hessian, jet_eval
from finslerkit.numerics import lane  # noqa: F401  (re-exported for the test modules)


def euclidean_rows(dim: int) -> list[list[ex.Expr]]:
    return [[ex.Num(1.0 if i == j else 0.0) for j in range(dim)] for i in range(dim)]


def make_space(
    family: str = "generalized-square",
    k: int = 1,
    dim: int = 3,
    potential: str | None = "0.1*x3",
    b: list[str] | None = None,
    a: list[list[str]] | None = None,
) -> SpaceSpec:
    if a is None:
        a_exprs = euclidean_rows(dim)
    else:
        a_exprs = [[ex.parse(t) for t in row] for row in a]
    if b is not None:
        return SpaceSpec(dim, k, family, a_exprs, [ex.parse(t) for t in b])
    return SpaceSpec.from_potential(dim, k, family, a_exprs, ex.parse(potential))


def varying_space(family: str, k: int, d: int, b: list[str] | None = None) -> SpaceSpec:
    """Position-dependent, tridiagonal and diagonally dominant a; curved b,
    a gradient unless ``b`` is given."""
    a = [["0"] * d for _ in range(d)]
    for i in range(d):
        a[i][i] = f"1 + 0.2*x{i + 1}^2"
        if i + 1 < d:
            a[i][i + 1] = a[i + 1][i] = f"0.1*x{d - i}"
    return make_space(family=family, k=k, dim=d, a=a, b=b,
                      potential=f"0.3*x1 + 0.1*x2*x{d} + 0.05*x{d}^2")


def plane_fixture(k: int = 1) -> tuple[SpaceSpec, LevelSurface]:
    spec = make_space(k=k, potential="0.1*x3")
    return spec, LevelSurface(ex.parse("0.1*x3"), 0.0)


def exp_fixture(k: int = 1) -> tuple[SpaceSpec, LevelSurface]:
    spec = make_space(k=k, potential="exp(x3)")
    return spec, LevelSurface(ex.parse("exp(x3)"), 1.0)


def radial_fixture(k: int = 1) -> tuple[SpaceSpec, LevelSurface]:
    spec = make_space(k=k, potential="(x1^2 + x2^2 + x3^2)/2")
    return spec, LevelSurface(ex.parse("(x1^2 + x2^2 + x3^2)/2"), 0.5)


def tangential_points_and_dirs(surface: LevelSurface, spec: SpaceSpec, n: int, seed: int):
    """(surface point, hypersurface direction) pairs, seeded."""
    from finslerkit.classifier import surface_points

    rng = np.random.default_rng(seed)
    pts = surface_points(surface, spec, n, seed)
    dirs = [rng.normal(size=spec.dim - 1) for _ in pts]
    return list(zip(pts, dirs))


def stacked_frame(spec: SpaceSpec, charts, conns, directions):
    """`frame_at` of per-point blocks of directions, directions[p] (N_p, d-1) at point
    p: the blocks joined point by point, with each flag's point index."""
    from finslerkit.hypersurface import frame_at

    vs = [np.asarray(v, dtype=float).reshape(-1, spec.dim - 1) for v in directions]
    at = np.repeat(np.arange(len(vs)), [len(v) for v in vs])
    return frame_at(spec, charts, conns, np.concatenate(vs or [np.empty((0, spec.dim - 1))]), at)


def one_frame(spec: SpaceSpec, surface: LevelSurface, x0, v):
    """The frame of the single tangential direction v at the surface point x0:
    lane 0 of the frame of one point, a stack of one, with one direction."""
    from finslerkit.connection import covariant_db
    from finslerkit.hypersurface import chart_at

    return lane(stacked_frame(spec, chart_at(surface, [x0]), covariant_db(spec, [x0]), [[v]]), 0)


def full_difference(bundle, conn) -> np.ndarray:
    """D^i_jk at the bundle's flags, lanes in front: `difference_tensor`'s contraction
    n_i D^i_jk at the basis covectors n = e_i, stacked along axis -3."""
    from finslerkit.connection import difference_tensor

    return np.stack([difference_tensor(bundle, conn, e) for e in np.eye(bundle.g.shape[-1])], -3)


def induced(frame):
    """(g_ab, g^ab, B_i^a, C_abc) of a frame, lanes in front: the pullbacks of
    g_ij and C_ijk along the projection factors B^i_a, the inverse of g_ab and
    the dual factors B_i^a = g^ab g_ij B^j_b."""
    B, Bt = frame.chart.B, np.swapaxes(frame.chart.B, -1, -2)
    g_ind = Bt @ frame.bundle.g @ B
    g_ind_inv = np.linalg.inv(g_ind)
    c_ind = np.einsum("...ijk,...ia,...jb,...kc->...abc", frame.bundle.C, B, B, B)
    return g_ind, g_ind_inv, g_ind_inv @ Bt @ frame.bundle.g, c_ind


def m_a_of(frame) -> np.ndarray:
    """M_a = C_ijk B^i_a N^j N^k of a frame, lanes in front, from its bundle, chart
    and N^i: the frame keeps no M_a, which vanishes on tangential flags."""
    c_nn = np.einsum("...ijk,...j,...k->...i", frame.bundle.C, frame.N_up, frame.N_up)
    return np.einsum("...ia,...i->...a", frame.chart.B, c_nn)


def spray(spec: SpaceSpec, z) -> tuple[np.ndarray, np.ndarray]:
    """(G, g) at N flags z = (x, y), stacked (N, 2d), from L = F^2/2 alone: one
    `jet_eval` over z gives g = L_yy, L_xy and L_x, hence the spray
    G^i = (1/2) g^il (L_{x^k y^l} y^k - L_{x^l}), with G^i_jk y^j y^k = 2 G^i for the
    Cartan horizontal coefficients (Bao, Chern and Shen, ch. 2).  Shares only
    `finsler_norm` and the coefficient tables with the closed forms."""
    d = spec.dim

    def half_f_squared(cols):  # L(x, y), a and b evaluated on the x columns
        xs, ys = cols[:d], cols[d:]
        a = spec.a_table.eval(xs)
        alpha, beta, _ = alpha_beta_generic([a[i * d:i * d + d] for i in range(d)],
                                            spec.b_table.eval(xs), ys)
        F = finsler_norm(spec.family, spec.k, alpha, beta)
        return 0.5 * F * F

    z = np.asarray(z, dtype=float)
    jet = jet_eval(half_f_squared, z)
    g = jet.hessian[:, d:, d:]
    L_xy, L_x = jet.hessian[:, :d, d:], jet.gradient[:, :d]
    G = 0.5 * np.einsum("sil,sl->si", np.linalg.inv(g),
                        np.einsum("sk,skl->sl", z[:, d:], L_xy) - L_x)
    return G, g


def richardson_hessian(f, y, step: float) -> np.ndarray:
    """`fd_hessian` with its leading O(h^2) error removed: (4 H(h/2) - H(h)) / 3."""
    return (4.0 * fd_hessian(f, y, step / 2.0) - fd_hessian(f, y, step)) / 3.0


def tangential_flag(spec: SpaceSpec, chart: Chart, v) -> FlagPoint:
    """Lift a hypersurface direction v to the ambient flag y = B v at the
    chart's point; B has full rank, so `flag_point` rejects v = 0 as a zero
    direction, and beta = 0 is asserted as in `frame_at`."""
    return _tangential(flag_point(spec, chart.x0, chart.B @ np.asarray(v, dtype=float)))


def each_flag(batch: FlagPoint):
    """The flags of a batch (`sample_flags`) one at a time: lane i, for i < len(batch)."""
    for i in range(len(batch)):
        yield lane(batch, i)


def stack_points(points) -> BasePoint:
    """One BasePoint whose fields stack those of ``points`` along a new first
    axis: N base points, as the derivative oracles and `bundle_at` take them."""
    return BasePoint(**{f.name: np.stack([getattr(p, f.name) for p in points])
                        for f in dataclasses.fields(BasePoint)})


def rel_error(a: np.ndarray, ref: np.ndarray) -> float:
    """Max elementwise deviation scaled by the reference magnitude."""
    a = np.asarray(a, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.abs(a - ref).max() / (1.0 + np.abs(ref).max()))


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` for the test; the returned list gets one entry (the
    positional arguments) per call."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls
