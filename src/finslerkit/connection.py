"""Riemannian connection of a_ij, covariant derivatives of b, and the
difference tensor between the Cartan horizontal coefficients and the
Riemannian Christoffel symbols.

The Cartan coefficients are never materialized on their own: wherever they
appear downstream they enter as Christoffel + difference tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import BasePoint, FlagPoint, SpaceSpec, base_point
from .tensors import TensorBundle


@dataclass
class ConnectionData:
    """Christoffel symbols of a_ij and the covariant derivative of b at a
    base point.

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
    spatial derivatives; x may be a BasePoint."""
    point = base_point(spec, x)
    da = spec.da_at(point.x)  # da[l, i, j] = d a_ij / d x^l
    # lowered symbol: [jk, l] = (d_j a_lk + d_k a_jl - d_l a_jk) / 2
    low = 0.5 * (
        np.einsum("jlk->ljk", da)
        + np.einsum("kjl->ljk", da)
        - np.einsum("ljk->ljk", da)
    )
    return np.einsum("il,ljk->ijk", point.a_inv, low)


def covariant_db(spec: SpaceSpec, x) -> ConnectionData:
    """b_ij = d_j b_i - b_l Gamma^l_ij, split into symmetric and
    antisymmetric parts (the latter vanishes for gradient fields); x may be
    a BasePoint."""
    point = base_point(spec, x)
    gamma = christoffel(spec, point)
    db = spec.db_at(point.x)  # db[i, j] = d b_i / d x^j
    b_cov = db - np.einsum("l,lij->ij", point.b, gamma)
    return ConnectionData(
        point=point,
        gamma=gamma,
        b_cov=b_cov,
        E=0.5 * (b_cov + b_cov.T),
        Fij=0.5 * (b_cov - b_cov.T),
    )


@dataclass
class DifferenceIngredients:
    """Ingredient tensors of the difference tensor at one flag.

    '0' denotes contraction with the flag direction y throughout.
    """

    B_low: np.ndarray    # B_k = p0 b_k + p1 y_k
    B_up: np.ndarray     # B^i = g^ij B_j
    B_mat: np.ndarray    # B_ij = [p1 (a_ij - y_i y_j / alpha^2) + (dp0/dbeta) m_i m_j] / 2
    B_mixed: np.ndarray  # B^k_i = g^kj B_ji
    F_mixed: np.ndarray  # F^k_i = g^kj F_ji
    A: np.ndarray        # A^m_k = B^m_k E_00 + B^m E_k0 + B_k F^m_0 + B_0 F^m_k
    lam: np.ndarray      # lambda^m = B^m E_00 + 2 B_0 F^m_0
    B0: float            # B_i y^i
    E00: float
    b0: np.ndarray       # b_{0k} = y^m b_mk


def difference_ingredients(
    bundle: TensorBundle, conn: ConnectionData, flag: FlagPoint
) -> DifferenceIngredients:
    mc = bundle.metric
    y, y_low, a = flag.y, flag.y_low, flag.a
    alpha2 = flag.alpha ** 2
    m = bundle.m
    B_low = mc.p0 * flag.b + mc.p1 * y_low
    B_up = bundle.g_inv @ B_low
    B_mat = 0.5 * (
        mc.p1 * (a - np.outer(y_low, y_low) / alpha2)
        + mc.dp0_dbeta * np.outer(m, m)
    )
    B_mixed = bundle.g_inv @ B_mat
    F_mixed = bundle.g_inv @ conn.Fij
    E00 = float(y @ conn.E @ y)
    Ek0 = conn.E @ y          # E_{k0} = E_kj y^j
    F0 = F_mixed @ y          # F^m_0 = F^m_j y^j
    B0 = float(B_low @ y)
    A = (
        B_mixed * E00
        + np.outer(B_up, Ek0)
        + np.outer(F0, B_low)
        + B0 * F_mixed
    )
    lam = B_up * E00 + 2.0 * B0 * F0
    b0 = y @ conn.b_cov       # b_{0k} = y^m b_{mk}
    return DifferenceIngredients(
        B_low=B_low, B_up=B_up, B_mat=B_mat, B_mixed=B_mixed, F_mixed=F_mixed,
        A=A, lam=lam, B0=B0, E00=E00, b0=b0,
    )


def difference_tensor(
    di: DifferenceIngredients,
    bundle: TensorBundle,
    conn: ConnectionData,
    flag: FlagPoint,
) -> np.ndarray:
    """D^i_jk: the full sum, assembled term by term.

    The terms are summed in their conventional order and re-summed in
    reverse as a floating-point sanity check (the two must agree to a
    relative 1e-12).
    """
    g_inv, C = bundle.g_inv, bundle.C
    C_mixed = np.einsum("il,ljk->ijk", g_inv, C)  # C^i_jk
    terms = [
        np.einsum("i,jk->ijk", di.B_up, conn.E),
        np.einsum("ik,j->ijk", di.F_mixed, di.B_low),
        np.einsum("ij,k->ijk", di.F_mixed, di.B_low),
        np.einsum("ij,k->ijk", di.B_mixed, di.b0),
        np.einsum("ik,j->ijk", di.B_mixed, di.b0),
        -np.einsum("m,im,jk->ijk", di.b0, g_inv, di.B_mat),
        -np.einsum("ijm,mk->ijk", C_mixed, di.A),
        -np.einsum("ikm,mj->ijk", C_mixed, di.A),
        np.einsum("jkm,ms,is->ijk", C, di.A, g_inv),
        np.einsum("s,ijm,msk->ijk", di.lam, C_mixed, C_mixed),
        np.einsum("s,ikm,msj->ijk", di.lam, C_mixed, C_mixed),
        -np.einsum("s,mjk,ims->ijk", di.lam, C_mixed, C_mixed),
    ]
    forward = terms[0].copy()
    for t in terms[1:]:
        forward = forward + t
    backward = terms[-1].copy()
    for t in terms[-2::-1]:
        backward = backward + t
    scale = 1.0 + np.abs(forward).max()
    if np.abs(forward - backward).max() > 1e-12 * scale:
        raise ArithmeticError("difference-tensor summation is numerically unstable")
    return forward


def difference_tensor_at(spec: SpaceSpec, bundle: TensorBundle) -> tuple[ConnectionData, np.ndarray]:
    """Convenience: connection data plus D^i_jk at the bundle's flag."""
    conn = covariant_db(spec, bundle.flag)
    di = difference_ingredients(bundle, conn, bundle.flag)
    return conn, difference_tensor(di, bundle, conn, bundle.flag)
