"""Riemannian connection of a_ij, covariant derivatives of b, and the
difference tensor between the Cartan horizontal coefficients and the
Riemannian Christoffel symbols.

The Cartan coefficients are never materialized on their own: wherever they
appear downstream they enter as Christoffel + difference tensor.  The
connection takes P stacked base points as lanes; the difference tensor runs
over the lanes of a bundle, each flag with its own lane of the connection or
all sharing one.  `difference_tensor` is its one formula, D = S + Q + Q^T:
S holds the terms symmetric in (j, k), Q one half of each swapped pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import BasePoint, SpaceSpec, base_point
from .numerics import dot, lanewise, matvec, outer
from .tensors import TensorBundle


@dataclass
class ConnectionData:
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


def difference_tensor(bundle: TensorBundle, conn: ConnectionData) -> np.ndarray:
    """D^i_jk at the bundle's flags (lanes in front), each with its lane of
    conn or all with one, where '0' denotes contraction with the flag direction y:

        B_k = p0 b_k + p1 y_k,  B^i = g^ij B_j,
        B_jk = [p1 (a_jk - y_j y_k / alpha^2) + (dp0/dbeta) m_j m_k] / 2,
        A^m_k = B^m_k E_00 + B^m E_k0 + F^m_0 B_k + B_0 F^m_k,
        lambda^m = B^m E_00 + 2 B_0 F^m_0,  b0_k = y^m b_mk,

    with indices raised by g^ij, and D = S + Q + Q^T (Q^T swaps j and k):

        S^i_jk = B^i E_jk - (g^-1 b0)^i B_jk + C_jkm (g^-1 A^T)^im
                 - (C lambda)^i_m C^m_jk,
        Q^i_jk = F^i_j B_k + B^i_j b0_k + C^i_jm [(lambda C)^m_k - A^m_k].

    The tests check Christoffel + D against the Cartan coefficients taken
    from F alone, through the spray."""
    mc, flag, g_inv, C = bundle.metric, bundle.flag, bundle.g_inv, bundle.C
    y, y_low, E = flag.y, flag.y_low, conn.E
    B_low = lanewise(mc.p0, 1) * flag.b + lanewise(mc.p1, 1) * y_low
    B_up = matvec(g_inv, B_low)
    B_mat = 0.5 * (
        lanewise(mc.p1, 2) * (flag.a - outer(y_low, y_low) / lanewise(flag.alpha ** 2, 2))
        + lanewise(bundle.dp0_dbeta, 2) * outer(bundle.m, bundle.m)
    )
    B_mixed = g_inv @ B_mat
    F_mixed = g_inv @ conn.Fij
    Ek0 = matvec(E, y)
    E00, B0, F0 = dot(y, Ek0), dot(B_low, y), matvec(F_mixed, y)
    A = (B_mixed * lanewise(E00, 2) + outer(B_up, Ek0) + outer(F0, B_low)
         + lanewise(B0, 2) * F_mixed)
    lam = B_up * lanewise(E00, 1) + 2.0 * lanewise(B0, 1) * F0
    b0 = (y[..., None, :] @ conn.b_cov)[..., 0, :]
    C_mixed = np.einsum("...il,...ljk->...ijk", g_inv, C)  # C^i_jk
    C_lam = matvec(C_mixed, lam[..., None, :])  # (C lambda)^i_m = (lambda C)^i_m, C symmetric
    S = (np.einsum("...i,...jk->...ijk", B_up, E)
         - np.einsum("...i,...jk->...ijk", matvec(g_inv, b0), B_mat)
         + np.einsum("...jkm,...im->...ijk", C, g_inv @ np.swapaxes(A, -1, -2))
         - np.einsum("...im,...mjk->...ijk", C_lam, C_mixed))
    Q = (F_mixed[..., None] * B_low[..., None, None, :]
         + B_mixed[..., None] * b0[..., None, None, :]
         + C_mixed @ (C_lam - A)[..., None, :, :])
    return S + Q + np.swapaxes(Q, -1, -2)
