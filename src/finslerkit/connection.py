"""Riemannian connection of a_ij, covariant derivatives of b, and the
difference tensor between the Cartan horizontal coefficients and the
Riemannian Christoffel symbols.

The Cartan coefficients are never materialized on their own: wherever they
appear downstream they enter as Christoffel + difference tensor.  The
connection takes P stacked base points as lanes; the difference tensor runs
over the lanes of a bundle whose flags share one base point (and its
connection).
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


@dataclass
class DifferenceIngredients:
    """Ingredient tensors of the difference tensor at a bundle's flags (lanes in front).

    '0' denotes contraction with the flag direction y throughout.
    """

    B_low: np.ndarray    # B_k = p0 b_k + p1 y_k
    B_up: np.ndarray     # B^i = g^ij B_j
    B_mat: np.ndarray    # B_ij = [p1 (a_ij - y_i y_j / alpha^2) + (dp0/dbeta) m_i m_j] / 2
    B_mixed: np.ndarray  # B^k_i = g^kj B_ji
    F_mixed: np.ndarray  # F^k_i = g^kj F_ji
    A: np.ndarray        # A^m_k = B^m_k E_00 + B^m E_k0 + B_k F^m_0 + B_0 F^m_k
    lam: np.ndarray      # lambda^m = B^m E_00 + 2 B_0 F^m_0
    B0: np.ndarray       # B_i y^i
    E00: np.ndarray
    b0: np.ndarray       # b_{0k} = y^m b_mk


def difference_ingredients(bundle: TensorBundle, conn: ConnectionData) -> DifferenceIngredients:
    mc, flag = bundle.metric, bundle.flag
    y, y_low, a = flag.y, flag.y_low, flag.a
    alpha2 = flag.alpha ** 2
    m = bundle.m
    B_low = lanewise(mc.p0, 1) * flag.b + lanewise(mc.p1, 1) * y_low
    B_up = matvec(bundle.g_inv, B_low)
    B_mat = 0.5 * (
        lanewise(mc.p1, 2) * (a - outer(y_low, y_low) / lanewise(alpha2, 2))
        + lanewise(bundle.dp0_dbeta, 2) * outer(m, m)
    )
    B_mixed = bundle.g_inv @ B_mat
    F_mixed = bundle.g_inv @ conn.Fij
    Ek0 = matvec(conn.E, y)   # E_{k0} = E_kj y^j
    E00 = dot(y, Ek0)
    F0 = matvec(F_mixed, y)   # F^m_0 = F^m_j y^j
    B0 = dot(B_low, y)
    A = (
        B_mixed * lanewise(E00, 2)
        + outer(B_up, Ek0)
        + outer(F0, B_low)
        + lanewise(B0, 2) * F_mixed
    )
    lam = B_up * lanewise(E00, 1) + 2.0 * lanewise(B0, 1) * F0
    b0 = y @ conn.b_cov       # b_{0k} = y^m b_{mk}
    return DifferenceIngredients(
        B_low=B_low, B_up=B_up, B_mat=B_mat, B_mixed=B_mixed, F_mixed=F_mixed,
        A=A, lam=lam, B0=B0, E00=E00, b0=b0,
    )


def difference_tensor(bundle: TensorBundle, conn: ConnectionData) -> np.ndarray:
    """D^i_jk at the bundle's flags (lanes in front): the full sum, assembled
    term by term from the ingredient tensors and summed in their conventional
    order.  The tests check Christoffel + D against the Cartan coefficients
    taken from F alone, through the spray."""
    di = difference_ingredients(bundle, conn)
    g_inv, C = bundle.g_inv, bundle.C
    C_mixed = np.einsum("...il,...ljk->...ijk", g_inv, C)  # C^i_jk
    # pairwise contractions; (j, k) and (k, j) of one product are its two terms
    CA = C_mixed @ di.A[..., None, :, :]  # C^i_jm A^m_k
    CL = C_mixed @ np.einsum("...s,...msk->...mk", di.lam, C_mixed)[..., None, :, :]
    terms = [
        np.einsum("...i,jk->...ijk", di.B_up, conn.E),
        np.einsum("...ik,...j->...ijk", di.F_mixed, di.B_low),
        np.einsum("...ij,...k->...ijk", di.F_mixed, di.B_low),
        np.einsum("...ij,...k->...ijk", di.B_mixed, di.b0),
        np.einsum("...ik,...j->...ijk", di.B_mixed, di.b0),
        -np.einsum("...i,...jk->...ijk", matvec(g_inv, di.b0), di.B_mat),
        -CA,
        -np.swapaxes(CA, -1, -2),
        np.einsum("...jkm,...im->...ijk", C, g_inv @ np.swapaxes(di.A, -1, -2)),
        CL,
        np.swapaxes(CL, -1, -2),
        -np.einsum("...im,...mjk->...ijk", matvec(C_mixed, di.lam[..., None, :]), C_mixed),
    ]
    return sum(terms[1:], terms[0])
