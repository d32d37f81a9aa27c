"""Riemannian connection of a_ij, covariant derivatives of b, and the
difference tensor between the Cartan horizontal coefficients and the
Riemannian Christoffel symbols.

The Cartan coefficients are never materialized on their own: wherever they
appear downstream they enter as Christoffel + difference tensor.  The
connection takes P stacked base points as lanes; the difference tensor runs
over the lanes of a bundle, each flag with its own lane of the connection or
all sharing one.  `difference_tensor` is its one formula, D = S + Q + Q^T:
S holds the terms symmetric in (j, k), Q one half of each swapped pair, each
contracted with one covector n per flag, n_i D^i_jk (a frame reads only the
normal component); no d x d x d tensor is formed.
"""

from __future__ import annotations

import numpy as np

from .metric import BasePoint, SpaceSpec, base_point
from .numerics import Record, dot, lanewise, matvec, outer
from .tensors import TensorBundle


class ConnectionData(Record):
    """Christoffel symbols of a_ij and the covariant derivative of b at a
    base point, or at P of them as lanes in front (`numerics.lane` slices one).

    gamma[i, j, k] = Gamma^i_jk (symmetric in j, k);
    b_cov[i, j]    = nabla_j b_i;
    E / Fij        = symmetric / antisymmetric parts of b_cov.
    """

    point: BasePoint
    gamma: np.ndarray
    b_cov: np.ndarray
    E: np.ndarray
    Fij: np.ndarray


def christoffel(spec: SpaceSpec, x) -> np.ndarray:
    """Gamma^i_jk = a^il (d_j a_lk + d_k a_jl - d_l a_jk) / 2, exact symbolic
    spatial derivatives; x may be a BasePoint, one point or P stacked."""
    point = base_point(spec, x)
    da = spec.da_at(point.x)  # da[l, i, j] = d a_ij / d x^l
    # lowered symbol: [jk, l] = (d_j a_lk + d_k a_jl - d_l a_jk) / 2
    low = 0.5 * (np.einsum("...jlk->...ljk", da) + np.einsum("...kjl->...ljk", da) - da)
    return np.einsum("...il,...ljk->...ijk", point.a_inv, low)


def covariant_db(spec: SpaceSpec, x) -> ConnectionData:
    """b_ij = d_j b_i - b_l Gamma^l_ij, split into symmetric and
    antisymmetric parts (the latter vanishes for gradient fields); x may be
    a BasePoint, one point or P stacked."""
    point = base_point(spec, x)
    gamma = christoffel(spec, point)
    db = spec.db_at(point.x)  # db[i, j] = d b_i / d x^j
    b_cov = db - np.einsum("...l,...lij->...ij", point.b, gamma)
    b_cov_t = np.swapaxes(b_cov, -1, -2)
    return ConnectionData(point=point, gamma=gamma, b_cov=b_cov,
                          E=0.5 * (b_cov + b_cov_t), Fij=0.5 * (b_cov - b_cov_t))


def difference_tensor(bundle: TensorBundle, conn: ConnectionData, n) -> np.ndarray:
    """n_i D^i_jk at the bundle's flags (lanes in front), one covector n per flag or
    one for all, each flag with its lane of conn or all with one, where '0' denotes
    contraction with the flag direction y:

        B_k = p0 b_k + p1 y_k,  B^i = g^ij B_j,
        B_jk = [p1 (a_jk - y_j y_k / alpha^2) + (dp0/dbeta) m_j m_k] / 2,
        A^m_k = B^m_k E_00 + B^m E_k0 + F^m_0 B_k + B_0 F^m_k,
        lambda^m = B^m E_00 + 2 B_0 F^m_0,  b0_k = y^m b_mk,  M_lm = C_lmk lambda^k,

    with indices raised by g^ij, n~ = g^-1 n, (C.v)_jk = C_jkm v^m and
    n.D = n.S + n.Q + (n.Q)^T, the transpose swapping j and k:

        n.S = (n.B^) E - (n~.b0) B_jk + C.(A n~ - g^-1 M n~),
        n.Q = (F^T n~) (x) B_k + (B_jk n~) (x) b0 + (C.n~)(g^-1 M - A).

    Each term is n_i times one term of D = S + Q + Q^T, so D^i_jk is n.D at the basis
    covectors; the tests check Christoffel + D against the Cartan coefficients from F."""
    mc, flag, g_inv, C = bundle.metric, bundle.flag, bundle.g_inv, bundle.C
    y, y_low, E = flag.y, flag.y_low, conn.E
    B_low = lanewise(mc.p0, 1) * flag.b + lanewise(mc.p1, 1) * y_low
    B_up = matvec(g_inv, B_low)
    B_mat = 0.5 * (
        lanewise(mc.p1, 2) * (flag.a - outer(y_low, y_low) / lanewise(flag.alpha ** 2, 2))
        + lanewise(bundle.dp0_dbeta, 2) * outer(bundle.m, bundle.m)
    )
    F_mixed = g_inv @ conn.Fij
    Ek0 = matvec(E, y)
    E00, B0, F0 = dot(y, Ek0), dot(B_low, y), matvec(F_mixed, y)
    A = (g_inv @ B_mat * lanewise(E00, 2) + outer(B_up, Ek0) + outer(F0, B_low)
         + lanewise(B0, 2) * F_mixed)
    lam = B_up * lanewise(E00, 1) + 2.0 * lanewise(B0, 1) * F0
    b0 = (y[..., None, :] @ conn.b_cov)[..., 0, :]
    n_up = matvec(g_inv, n)
    C_lam = g_inv @ np.einsum("...lmk,...k->...lm", C, lam)  # (g^-1 M)^i_m = (C lambda)^i_m
    S = (lanewise(dot(n, B_up), 2) * E - lanewise(dot(n_up, b0), 2) * B_mat
         + np.einsum("...jkm,...m->...jk", C, matvec(A - C_lam, n_up)))
    Q = (outer((n_up[..., None, :] @ conn.Fij)[..., 0, :], B_low)
         + outer(matvec(B_mat, n_up), b0) + np.einsum("...jkm,...m->...jk", C, n_up) @ (C_lam - A))
    return S + Q + np.swapaxes(Q, -1, -2)
