import dataclasses

import numpy as np
import pytest

from conftest import (
    count_calls,
    each_flag,
    exp_fixture,
    make_space,
    plane_fixture,
    radial_fixture,
    rel_error,
    varying_space,
)
from finslerkit import metric
from finslerkit.metric import SpaceSpec, flag_point, phi_partials, sample_flags
from finslerkit.numerics import fd_hessian, jet_eval
from finslerkit.tensors import (
    AUDIT_TOLERANCES,
    FD_EDGE,
    FD_STEP,
    AuditParams,
    SingularCoefficientError,
    angular_coefficients,
    angular_tensor,
    audit_flag,
    audit_sweep,
    bundle_at,
    dp0_dbeta,
    fd_step,
    fundamental_tensor,
    gamma_one,
    half_f_squared,
    hv_torsion,
    metric_coefficients,
    q2_expanded_form,
    reciprocal_coefficients,
    reciprocal_tensor,
    torsion_oracle,
)

E1_MATRIX = np.array([[1.0, 0.0, 0.2], [0.0, 1.0, 0.0], [0.2, 0.0, 1.06]])


def _coeffs(k, alpha, beta):
    pp = phi_partials("generalized-square", k, alpha, beta)
    ac = angular_coefficients(pp, alpha)
    mc = metric_coefficients(pp, ac)
    return pp, ac, mc


def test_angular_coefficients_at_beta_zero():
    _, ac, _ = _coeffs(1, 1.0, 0.0)
    assert (ac.p, ac.q0, ac.q1, ac.q2) == (1.0, 2.0, 0.0, -1.0)
    _, ac2, _ = _coeffs(2, 1.0, 0.0)
    assert ac2.q0 == 6.0 and ac2.p == 1.0


def test_q2_defining_value_away_from_beta_zero():
    # k = 1, alpha = 1, beta = 0.2: bracket k(k+2)b^2 + (k-1)ab - a^2 = -0.88,
    # scaled by (a+b)^(2k)/a^(2k+4) = 1.44
    _, ac, _ = _coeffs(1, 1.0, 0.2)
    assert ac.q2 == pytest.approx(1.44 * -0.88, rel=1e-12)
    assert ac.q2 == pytest.approx(-1.2672, rel=1e-12)
    # and the often-printed expansion does NOT reproduce it off alpha = 1 flags
    assert q2_expanded_form(1, 1.3, 0.2) != pytest.approx(
        angular_coefficients(phi_partials("generalized-square", 1, 1.3, 0.2), 1.3).q2,
        rel=1e-3,
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_beta_zero_specializations_exact(k):
    rng = np.random.default_rng(21)
    for _ in range(25):
        alpha = float(rng.uniform(0.3, 2.5))
        pp, ac, mc = _coeffs(k, alpha, 0.0)
        assert abs(mc.p - 1.0) <= 1e-12
        assert abs(mc.p0 - (k + 1) * (2 * k + 1)) <= 1e-12 * mc.p0
        assert abs(mc.p1 - (k + 1) / alpha) <= 1e-12 * abs(mc.p1)
        assert abs(mc.p2) <= 1e-12
        assert abs(ac.q0 - k * (k + 1)) <= 1e-12 * ac.q0
        assert abs(ac.q1) <= 1e-12
        assert abs(ac.q2 + 1.0 / alpha ** 2) <= 1e-12 * abs(ac.q2)
        gamma1 = gamma_one(mc, ac, dp0_dbeta("generalized-square", k, alpha, 0.0))
        assert abs(gamma1 - k * (k * k - 1) / alpha) <= 1e-12 * max(
            1.0, k * (k * k - 1) / alpha
        )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_zeta_at_beta_zero(k):
    b2 = 0.01
    _, _, mc = _coeffs(k, 1.4, 0.0)
    rc = reciprocal_coefficients(mc, 1.4, 0.0, b2)
    assert rc.zeta == pytest.approx(1.0 + k * (k + 1) * b2, abs=1e-14)


def test_fundamental_matrix_on_small_b_plane_flag():
    spec = make_space(k=1, potential="0.1*x3")
    bundle = bundle_at(spec, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert np.abs(bundle.g - E1_MATRIX).max() < 1e-14
    # cross-check against the dual oracle of half F^2
    jet = jet_eval(half_f_squared(spec, [0.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
    assert np.abs(jet.hessian - E1_MATRIX).max() < 1e-12


def test_fundamental_reduces_to_a_without_one_form():
    spec = make_space(k=2, b=["0", "0", "0"])
    bundle = bundle_at(spec, [0.1, 0.2, 0.3], [0.5, -0.4, 1.0])
    assert np.abs(bundle.g - bundle.flag.a).max() < 1e-14
    assert np.abs(bundle.g_inv - bundle.flag.a_inv).max() < 1e-14
    assert np.abs(bundle.C).max() == 0.0


def test_fundamental_beta_zero_structure_k2():
    spec = make_space(k=2, potential="0.1*x3")
    fl = flag_point(spec, [0.0, 0.0, 0.0], [2.0, 0.0, 0.0])  # alpha = 2, beta = 0
    bundle = bundle_at(spec, fl.x, fl.y)
    expected = (
        fl.a
        + 15.0 * np.outer(fl.b, fl.b)
        + (3.0 / fl.alpha) * (np.outer(fl.b, fl.y_low) + np.outer(fl.y_low, fl.b))
    )
    assert np.abs(bundle.g - expected).max() < 1e-14


def test_reciprocal_inverts_fundamental():
    spec = make_space(k=1, potential="0.1*x3")
    bundle = bundle_at(spec, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert np.abs(bundle.g @ bundle.g_inv - np.eye(3)).max() < 1e-10


def test_reciprocal_contraction_with_one_form_at_beta_zero():
    # g^ij b_i b_j = b^2 / (1 + k(k+1) b^2) = b^2 / zeta; with b^2 = 0.01 and
    # k = 1 this is 0.01/1.02 (verified against direct inversion)
    spec = make_space(k=1, potential="0.1*x3")
    bundle = bundle_at(spec, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    value = float(bundle.flag.b @ bundle.g_inv @ bundle.flag.b)
    direct = float(bundle.flag.b @ np.linalg.solve(bundle.g, bundle.flag.b))
    assert value == pytest.approx(direct, rel=1e-12)
    assert value == pytest.approx(0.01 / 1.02, rel=1e-12)
    assert value == pytest.approx(bundle.flag.b2 / bundle.reciprocal.zeta, rel=1e-12)


def test_reciprocal_singularity_guard():
    _, _, mc = _coeffs(1, 1.0, 0.0)
    mc.p0 = -1.0 / 0.01  # forces p + p0 b^2 = 0 with the disc term vanishing
    mc.p1 = 0.0
    mc.p2 = 0.0
    with pytest.raises(SingularCoefficientError):
        reciprocal_coefficients(mc, 1.0, 0.0, 0.01)


def test_gamma_one_reference_values():
    _, ac1, mc1 = _coeffs(1, 1.7, 0.0)
    gamma1 = gamma_one(mc1, ac1, dp0_dbeta("generalized-square", 1, 1.7, 0.0))
    assert gamma1 == pytest.approx(0.0, abs=1e-14)  # k(k^2-1) = 0
    _, ac2, mc2 = _coeffs(2, 1.0, 0.0)
    gamma2 = gamma_one(mc2, ac2, dp0_dbeta("generalized-square", 2, 1.0, 0.0))
    assert gamma2 == pytest.approx(6.0, rel=1e-14)


@pytest.mark.parametrize(
    "family,k,beta",
    [
        ("generalized-square", 1, 0.3),
        ("generalized-square", 3, -0.2),
        ("square", 1, 0.25),
        ("randers", 1, 0.4),
        ("kropina", 1, 0.6),
        ("generalized-kropina", 2, 0.7),
        ("matsumoto", 1, 0.3),
        ("matsumoto", 1, 0.5),  # alpha - beta = 0.8: (alpha - beta)^4 and ^5 differ
        ("riemannian", 1, 0.1),
    ],
)
def test_dp0_dbeta_against_finite_differences(family, k, beta):
    alpha, h = 1.3, 1e-6

    def p0(b):
        pp = phi_partials(family, k, alpha, b)
        return angular_coefficients(pp, alpha).q0 + pp.Fb ** 2

    fd = (p0(beta + h) - p0(beta - h)) / (2 * h)
    closed = dp0_dbeta(family, k, alpha, beta)
    assert closed == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_torsion_matches_jet_oracle_on_fixture_flags():
    for spec, _ in (plane_fixture(1), exp_fixture(2), radial_fixture(3)):
        fl = flag_point(spec, [0.2, -0.1, 0.3], [0.5, 1.0, -0.4])
        bundle = bundle_at(spec, fl.x, fl.y)
        oracle = torsion_oracle(spec, fl.x, fl.y)
        assert rel_error(bundle.C, oracle) < 1e-12


def test_torsion_beta_zero_structure():
    # at beta = 0: C = (k+1)/(2a) [h b + h b + h b + k(k-1) b b b] termwise
    spec = make_space(k=3, potential="0.1*x3")
    fl = flag_point(spec, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    bundle = bundle_at(spec, fl.x, fl.y)
    k, al, b, h = 3, fl.alpha, fl.b, bundle.h
    sym = (
        np.einsum("ij,k->ijk", h, b)
        + np.einsum("jk,i->ijk", h, b)
        + np.einsum("ki,j->ijk", h, b)
    )
    expected = (k + 1) / (2 * al) * (sym + k * (k - 1) * np.einsum("i,j,k->ijk", b, b, b))
    assert np.abs(bundle.C - expected).max() < 1e-13


def test_bundle_structural_identities_on_random_flags():
    rng = np.random.default_rng(31)
    for family, k, pot in (
        ("generalized-square", 1, "0.1*x3"),
        ("generalized-square", 3, "0.1*x3 + 0.05*x1*x2"),
        ("randers", 1, "0.2*x3"),
        ("matsumoto", 1, "0.1*x3"),
    ):
        spec = make_space(family=family, k=k, potential=pot)
        for fl in each_flag(sample_flags(spec, 20, seed=int(rng.integers(1e6)))):
            bundle = bundle_at(spec, fl.x, fl.y)
            scale = 1.0 + np.abs(bundle.g).max()
            assert np.abs(bundle.g - bundle.g.T).max() < 1e-12 * scale
            assert np.abs(bundle.g @ bundle.g_inv - np.eye(3)).max() < 1e-8
            assert abs(fl.y @ bundle.g @ fl.y - bundle.phi.F ** 2) < 1e-10 * bundle.phi.F ** 2
            assert np.abs(bundle.l - bundle.g @ fl.y / bundle.phi.F).max() < 1e-10
            assert np.abs(bundle.h @ fl.y).max() < 1e-8
            assert np.abs(np.einsum("ijk,k->ij", bundle.C, fl.y)).max() < 1e-8
            for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
                assert np.abs(bundle.C - np.transpose(bundle.C, perm)).max() < 1e-10 * (
                    1.0 + np.abs(bundle.C).max()
                )


def test_homogeneity_degrees_in_direction():
    spec = make_space(k=2, potential="exp(x3)")
    x = [0.2, 0.1, -0.5]
    base = bundle_at(spec, x, [0.7, -0.3, 0.4])
    for lam in (0.5, 2.0):
        scaled = bundle_at(spec, x, [lam * 0.7, lam * -0.3, lam * 0.4])
        assert rel_error(scaled.g, base.g) < 1e-10
        assert rel_error(scaled.l, base.l) < 1e-10
        assert rel_error(scaled.C, base.C / lam) < 1e-10


def test_composition_identities_random_sweep():
    rng = np.random.default_rng(55)
    for _ in range(10_000):
        k = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(-0.9, 0.9)) * alpha
        pp, ac, mc = _coeffs(k, alpha, beta)
        assert abs(mc.p0 - (ac.q0 + pp.Fb ** 2)) <= 1e-10 * max(1.0, abs(mc.p0))
        assert abs(mc.p1 - (ac.q1 + ac.p * pp.Fb / pp.F)) <= 1e-10 * max(1.0, abs(mc.p1))
        assert abs(mc.p2 - (ac.q2 + ac.p ** 2 / pp.F ** 2)) <= 1e-10 * max(1.0, abs(mc.p2))


def test_audit_rows_pass_except_expanded_q2():
    spec = make_space(k=1, potential="0.1*x3")
    rows = audit_flag(spec, [0.1, -0.2, 0.3], [0.4, 1.1, -0.3])  # beta != 0, alpha != 1
    by_name = {r.check: r for r in rows}
    for name, row in by_name.items():
        if name == "q2-expanded-form":
            assert row.expected_mismatch and not row.passed
        else:
            assert row.passed, f"{name}: {row.error}"


def test_audit_riemannian_all_pass_without_q2_row():
    spec = make_space(family="riemannian", b=["0", "0", "0"])
    rows = audit_flag(spec, [0.5, 0.1, 0.0], [1.0, 0.2, -0.4])
    assert all(r.passed for r in rows)
    assert "q2-expanded-form" not in {r.check for r in rows}


def test_audit_randers_keeps_five_rows_without_q2_row():
    # randers is generalized-square at k = 0, where the expanded q2 bracket is exact
    spec = make_space(family="randers", potential="0.2*x3")
    rows = audit_flag(spec, [0.1, -0.2, 0.3], [0.4, 1.1, -0.3])
    assert len(rows) == 5 and all(r.passed for r in rows)
    assert "q2-expanded-form" not in {r.check for r in rows}


def test_audit_sweep_k3_fundamental_error_bound():
    spec = make_space(k=3, potential="0.1*x3")
    report = audit_sweep(spec, AuditParams(samples=100, seed=13))
    by_name = {r.check: r for r in report.rows}
    assert by_name["fundamental-vs-jet-oracle"].error < 1e-7
    assert report.ok


FD_TOL = AUDIT_TOLERANCES["fundamental-vs-fd-oracle"]


def _fd_error(g, ref) -> float:
    """The audit's fd-row error: max deviation over 1 + max |ref|, worst flag."""
    return float((np.abs(g - ref).max((-2, -1)) / (1.0 + np.abs(ref).max((-2, -1)))).max())


KROPINA_B = np.array([0.3, 0.1, 0.05])


def _kropina_flag(k, beta):
    """A generalized-Kropina space with constant b, and a flag (x, y) at b . y = beta, alpha ~ 1."""
    b = KROPINA_B
    spec = make_space(family="generalized-kropina", k=k, b=[str(c) for c in b])
    x = [0.1, -0.2, 0.3]
    y = np.array([-0.3, 0.9, 0.0]) / np.sqrt(0.9) + beta * b / (b @ b)
    bundle = bundle_at(spec, x, y)
    assert bundle.flag.beta == pytest.approx(beta, rel=1e-12)
    return spec, x, y, bundle


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fd_step_scales_to_the_kropina_edge(k):
    # at beta = 1e-3 the fixed step's remainder, (h |b| / beta)^2, is far above the
    # tolerance; the step scaled to the edge passes, and its stencil keeps beta > 0
    b = KROPINA_B
    spec, x, y, bundle = _kropina_flag(k, 1e-3)
    f, betas = half_f_squared(spec, x), []

    def recorded(ys):
        betas.append(sum(c * v for c, v in zip(b, ys)))
        return f(ys)

    assert _fd_error(bundle.g, fd_hessian(f, y, FD_STEP)) > 10 * FD_TOL
    step = fd_step(spec, bundle.flag)
    assert 0.0 < step < 1e-6
    assert _fd_error(bundle.g, fd_hessian(recorded, y, step)) < 0.1 * FD_TOL
    assert 0.99e-3 < np.min(betas)
    rows = {r.check: r for r in audit_flag(spec, x, y)}
    assert rows["fundamental-vs-fd-oracle"].passed


def test_fd_step_outgrows_the_rounding_of_beta_at_the_very_edge():
    # at beta = 1e-5, beta's rounding error, about eps alpha relative to beta, is
    # amplified by (dist / h)^2: a step of FD_EDGE dist fails the tolerance, the
    # step balanced against the rounding term passes
    spec, x, y, bundle = _kropina_flag(1, 1e-5)
    f, dist = half_f_squared(spec, x), bundle.flag.beta / np.linalg.norm(KROPINA_B)
    assert _fd_error(bundle.g, fd_hessian(f, y, FD_EDGE * dist)) > FD_TOL
    step = fd_step(spec, bundle.flag)
    assert FD_EDGE * dist < step < 0.01 * dist
    assert _fd_error(bundle.g, fd_hessian(f, y, step)) < 0.2 * FD_TOL
    rows = {r.check: r for r in audit_flag(spec, x, y)}
    assert rows["fundamental-vs-fd-oracle"].passed


@pytest.mark.parametrize("k", [1, 2, 3])
def test_scaled_fd_oracle_still_sees_a_small_error_on_kropina_flags(k):
    # a 1e-4 relative error in one entry of g, or in p1, fails the fd row on
    # sampled Kropina flags although the step shrinks near the edge
    spec = varying_space("generalized-kropina", k, 3)
    flags = sample_flags(spec, 60, seed=3)
    bundle = bundle_at(spec, flags, flags.y)
    fd = fd_hessian(half_f_squared(spec, flags), flags.y, fd_step(spec, bundle.flag))
    assert _fd_error(bundle.g, fd) <= FD_TOL
    g_entry = bundle.g.copy()
    g_entry[..., 0, 0] *= 1.0001
    mc = dataclasses.replace(bundle.metric, p1=1.0001 * bundle.metric.p1)
    g_p1 = fundamental_tensor(mc, flags.a, flags.b, flags.y_low)
    assert _fd_error(g_entry, fd) > 2 * FD_TOL
    assert _fd_error(g_p1, fd) > 2 * FD_TOL


def test_fd_step_is_alpha_relative_away_from_an_edge():
    for family in ("generalized-square", "randers", "riemannian"):
        spec = varying_space(family, 2, 3)
        flags = sample_flags(spec, 5, seed=4)
        assert np.array_equal(fd_step(spec, flags), FD_STEP * flags.alpha)
    spec = varying_space("matsumoto", 2, 3)  # (alpha - beta)/(1 + |b|) bounds the step
    flags = sample_flags(spec, 5, seed=4)
    dist = (flags.alpha - flags.beta) / (1.0 + np.sqrt(flags.b2))
    assert np.array_equal(fd_step(spec, flags), np.minimum(FD_STEP * flags.alpha, 2e-4 * dist))


def test_assembly_helpers_match_bundle():
    spec = make_space(k=2, potential="exp(x3)")
    fl = flag_point(spec, [0.3, 0.0, -0.2], [1.0, 0.5, 0.2])
    pp = phi_partials(spec.family, spec.k, fl.alpha, fl.beta)
    ac = angular_coefficients(pp, fl.alpha)
    mc = metric_coefficients(pp, ac)
    bundle = bundle_at(spec, fl.x, fl.y)
    assert np.allclose(angular_tensor(ac, fl.a, fl.b, fl.y_low), bundle.h)
    assert np.allclose(fundamental_tensor(mc, fl.a, fl.b, fl.y_low), bundle.g)
    rc = reciprocal_coefficients(mc, fl.alpha, fl.beta, bundle.flag.b2)
    assert np.allclose(
        reciprocal_tensor(rc, mc.p, bundle.flag.a_inv, bundle.flag.b_up, fl.y), bundle.g_inv
    )
    assert np.allclose(hv_torsion(mc, bundle.h, bundle.gamma1, bundle.m), bundle.C)


def test_audit_evaluates_each_point_once(monkeypatch):
    spec = make_space(k=2, potential="exp(x3) + 0.2*x1*x2")
    flags = list(each_flag(sample_flags(spec, 4, seed=3)))
    a_calls = count_calls(monkeypatch, SpaceSpec, "a_at")
    for f in flags:
        audit_flag(spec, f.x, 1.5 * f.y)
    assert len(a_calls) == len(flags)
    # the sweep audits each sampled point without evaluating it again
    a_calls.clear()
    draws = count_calls(monkeypatch, metric, "validity_check")
    assert audit_sweep(spec, AuditParams(samples=4, seed=3)).flags == 4
    assert len(a_calls) == len(draws)
