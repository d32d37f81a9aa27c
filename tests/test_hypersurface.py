import math

import numpy as np
import pytest

from conftest import (
    exp_fixture,
    induced,
    m_a_of,
    make_space,
    one_frame,
    plane_fixture,
    radial_fixture,
    stacked_frame,
    tangential_flag,
    tangential_points_and_dirs,
    varying_space,
)
from finslerkit import expr as ex
from finslerkit.classifier import surface_points
from finslerkit.connection import covariant_db
from finslerkit.hypersurface import (
    LevelSurface,
    OffSurfaceError,
    chart_at,
)


def test_chart_on_coordinate_plane():
    surface = LevelSurface(ex.parse("x3"), 0.0)
    chart = chart_at(surface, [0.7, -0.2, 0.0])
    assert chart.dep == 2
    assert np.allclose(chart.B[:, 0], [1, 0, 0])
    assert np.allclose(chart.B[:, 1], [0, 1, 0])
    assert np.abs(chart.B2).max() == 0.0


def test_chart_on_sphere_pole():
    surface = LevelSurface(ex.parse("x1^2 + x2^2 + x3^2"), 16.0)
    chart = chart_at(surface, [0.0, 0.0, 4.0])
    assert chart.dep == 2
    assert np.allclose(chart.B[:, 0], [1, 0, 0])
    assert np.allclose(chart.B[:, 1], [0, 1, 0])
    # curvature shows up in the second derivatives of the dependent row
    assert np.allclose(chart.B2[2], -np.eye(2) / 4.0)


def test_chart_on_exponential_level():
    surface = LevelSurface(ex.parse("exp(x3)"), 1.0)
    chart = chart_at(surface, [0.0, 0.0, 0.0])
    assert chart.dep == 2
    assert np.abs(chart.B[2, :]).max() == 0.0


def test_chart_rejects_off_surface_and_critical_points():
    surface = LevelSurface(ex.parse("x3"), 0.0)
    with pytest.raises(OffSurfaceError):
        chart_at(surface, [0.0, 0.0, 0.5])
    radial = LevelSurface(ex.parse("x1^2 + x2^2 + x3^2"), 0.0)
    with pytest.raises(ValueError, match="gradient"):
        chart_at(radial, [0.0, 0.0, 0.0])


def test_tangential_flag_on_plane_and_sphere():
    spec, surface = plane_fixture(1)
    chart = chart_at(surface, [0.0, 0.0, 0.0])
    flag = tangential_flag(spec, chart, [1.0, 0.0])
    assert np.allclose(flag.y, [1, 0, 0]) and flag.beta == 0.0

    spec3, surface3 = radial_fixture(1)
    chart3 = chart_at(LevelSurface(surface3.potential, 8.0), [0.0, 0.0, 4.0])
    flag3 = tangential_flag(spec3, chart3, [0.0, 1.0])
    assert np.allclose(flag3.y, [0, 1, 0]) and abs(flag3.beta) < 1e-12


def test_tangential_flags_have_vanishing_beta():
    spec, surface = exp_fixture(2)
    rng = np.random.default_rng(8)
    chart = chart_at(surface, [0.4, -0.9, 0.0])
    for _ in range(10):
        flag = tangential_flag(spec, chart, rng.normal(size=2))
        assert abs(flag.beta) < 1e-12


def test_tangential_flag_rejects_foreign_surface():
    # surface potential unrelated to the space 1-form: beta does not vanish
    spec, _ = plane_fixture(1)
    chart = chart_at(LevelSurface(ex.parse("x1"), 0.0), [0.0, 0.3, 0.2])
    with pytest.raises(ValueError, match="tangential"):
        tangential_flag(spec, chart, [1.0, 1.0])


def test_induced_metric_is_pullback_of_a():
    for spec, surface in (exp_fixture(1), radial_fixture(2)):
        for x0, v in tangential_points_and_dirs(surface, spec, 5, seed=5):
            frame = one_frame(spec, surface, x0, v)
            a_pullback = frame.chart.B.T @ frame.bundle.flag.a @ frame.chart.B
            assert np.abs(induced(frame)[0] - a_pullback).max() < 1e-11


def test_induced_tensors_on_small_b_plane():
    spec, surface = plane_fixture(1)
    frame = one_frame(spec, surface, [0.3, 0.4, 0.0], [1.0, 0.0])
    g_ind, _, _, c_ind = induced(frame)
    assert np.abs(g_ind - np.eye(2)).max() < 1e-14
    assert np.allclose(frame.chart.B.T @ frame.bundle.h @ frame.chart.B, frame.h_ind)
    assert np.abs(c_ind).max() < 1e-15  # every torsion term carries a normal factor


def test_unit_normal_value_on_small_b_plane():
    # N_i = b_i * sqrt(zeta / b^2): with b = (0,0,0.1), k = 1 this gives
    # N_3 = sqrt(1.02) (g-unit and g-orthogonal; verified by direct solve)
    spec, surface = plane_fixture(1)
    frame = one_frame(spec, surface, [0.0, 0.0, 0.0], [1.0, 0.0])
    assert frame.N_dn[2] == pytest.approx(math.sqrt(1.02), rel=1e-12)
    assert float(frame.N_up @ frame.bundle.g @ frame.N_up) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(frame.chart.B.T @ frame.bundle.g @ frame.N_up).max() < 1e-12


def test_unit_normal_euclidean_plane():
    spec = make_space(family="riemannian", b=["0", "0", "0"])
    surface = LevelSurface(ex.parse("x3"), 0.0)
    frame = one_frame(spec, surface, [0.2, -0.5, 0.0], [0.6, 1.0])
    assert np.allclose(frame.N_up, [0, 0, 1], atol=1e-14)
    assert np.allclose(frame.N_dn, [0, 0, 1], atol=1e-14)


def test_one_form_proportional_to_normal_at_tangential_flags():
    # b_i = sqrt(b^2 / zeta) N_i holds at every tangential flag; the printed
    # sqrt(b^2/(1+k(k+1))) form only matches where b^2 = 1 (exp fixture), so
    # on the plane fixture (b^2 = 0.01) it must not be the normal factor
    for k in (1, 2, 3):
        for fixture in (exp_fixture, plane_fixture):
            spec, surface = fixture(k)
            for x0, v in tangential_points_and_dirs(surface, spec, 4, seed=k):
                frame = one_frame(spec, surface, x0, v)
                fl, zeta = frame.bundle.flag, frame.bundle.reciprocal.zeta
                assert np.abs(fl.b - math.sqrt(fl.b2 / zeta) * frame.N_dn).max() < 1e-9
                if fixture is plane_fixture:
                    printed = math.sqrt(fl.b2 / (1 + k * (k + 1)))
                    assert np.abs(fl.b - printed * frame.N_dn).max() > 1e-3


def test_raised_one_form_decomposes_into_normal_and_support():
    # b^i = sqrt(b^2 zeta) N^i + (k+1) (b^2/alpha) y^i at tangential flags
    for k in (1, 2):
        for fixture in (plane_fixture, exp_fixture):
            spec, surface = fixture(k)
            for x0, v in tangential_points_and_dirs(surface, spec, 4, seed=10 + k):
                frame = one_frame(spec, surface, x0, v)
                fl, zeta = frame.bundle.flag, frame.bundle.reciprocal.zeta
                expected = (
                    math.sqrt(fl.b2 * zeta) * frame.N_up
                    + (k + 1) * fl.b2 / fl.alpha * fl.y
                )
                assert np.abs(fl.b_up - expected).max() < 1e-10


def test_second_fundamental_v_tensor_proportional_to_angular():
    # M_ab = (k+1)/(2 alpha) sqrt(b^2/zeta) h_ab; with the plane fixture's
    # b^2 = 0.01 and k = 1 the factor is 0.1/sqrt(1.02) / 2 at alpha = 1
    for k in (1, 2, 3):
        for fixture in (plane_fixture, exp_fixture):
            spec, surface = fixture(k)
            for x0, v in tangential_points_and_dirs(surface, spec, 4, seed=20 + k):
                frame = one_frame(spec, surface, x0, v)
                fl, zeta = frame.bundle.flag, frame.bundle.reciprocal.zeta
                factor = (k + 1) / (2 * fl.alpha) * math.sqrt(fl.b2 / zeta)
                assert np.abs(frame.M_ab - factor * frame.h_ind).max() <= 1e-8 * (
                    1.0 + np.abs(frame.h_ind).max()
                )
                assert np.abs(m_a_of(frame)).max() < 1e-8


def test_second_fundamental_v_factor_value_on_plane():
    spec, surface = plane_fixture(1)
    frame = one_frame(spec, surface, [0.0, 0.0, 0.0], [1.0, 0.0])
    factor = 0.1 / math.sqrt(1.02) / 2.0 * 2.0  # (k+1)/(2 alpha) sqrt(b2/zeta)
    assert np.abs(frame.M_ab - factor * frame.h_ind).max() < 1e-12


def test_riemannian_second_fundamental_v_vanishes():
    spec = make_space(family="riemannian", b=["0", "0", "0"])
    surface = LevelSurface(ex.parse("x3"), 0.0)
    frame = one_frame(spec, surface, [0.1, 0.2, 0.0], [1.0, -0.5])
    assert np.abs(frame.M_ab).max() == 0.0


def test_flat_plane_with_constant_one_form_has_no_curvature():
    spec, surface = plane_fixture(2)
    for v in ([1.0, 0.0], [0.4, -1.1]):
        frame = one_frame(spec, surface, [0.5, -0.2, 0.0], v)
        assert np.abs(frame.H_a).max() == 0.0
        assert np.abs(frame.H_ab).max() == 0.0


def test_exponential_level_has_vanishing_normal_curvature():
    for k in (1, 2, 3):
        spec, surface = exp_fixture(k)
        for x0, v in tangential_points_and_dirs(surface, spec, 5, seed=30 + k):
            frame = one_frame(spec, surface, x0, v)
            assert np.abs(frame.H_a).max() < 1e-10
            assert np.abs(frame.H_ab).max() < 1e-10


def test_h_tensor_antisymmetry_matches_v_tensor_coupling():
    # H_ab - H_ba = M_a H_b - M_b H_a; with M_a = 0 the h-tensor is symmetric
    spec, surface = radial_fixture(2)
    for x0, v in tangential_points_and_dirs(surface, spec, 5, seed=77):
        frame = one_frame(spec, surface, x0, v)
        lhs, m_a = frame.H_ab - frame.H_ab.T, m_a_of(frame)
        rhs = np.outer(m_a, frame.H_a) - np.outer(frame.H_a, m_a)
        assert np.abs(lhs - rhs).max() <= 1e-8 * (1.0 + np.abs(frame.H_ab).max())
        assert np.abs(lhs).max() <= 1e-8 * (1.0 + np.abs(frame.H_ab).max())


def test_contraction_relations_of_h_tensor():
    # H_{0g} = H_g and H_{g0} = H_g + M_g H_0
    spec, surface = radial_fixture(1)
    for x0, v in tangential_points_and_dirs(surface, spec, 5, seed=78):
        frame = one_frame(spec, surface, x0, v)
        scale = 1.0 + np.abs(frame.H_ab).max()
        assert np.abs(frame.H_ab.T @ frame.v - frame.H_a).max() <= 1e-8 * scale
        h0 = frame.H_a @ frame.v
        m_a = m_a_of(frame)
        assert np.abs(frame.H_ab @ frame.v - (frame.H_a + m_a * h0)).max() <= 1e-8 * scale


def test_normal_curvature_contraction_closed_form_on_sphere():
    # H_0 = -b_00 / sqrt(b^2 zeta) on tangential flags (radial fixture has
    # b_cov = identity, so b_00 = |y|^2)
    spec, surface = radial_fixture(2)
    for x0, v in tangential_points_and_dirs(surface, spec, 5, seed=79):
        frame = one_frame(spec, surface, x0, v)
        fl = frame.bundle.flag
        predicted = -float(fl.y @ fl.y) / math.sqrt(fl.b2 * frame.bundle.reciprocal.zeta)
        assert frame.H_a @ frame.v == pytest.approx(predicted, rel=1e-10)


@pytest.mark.parametrize("level", [0.08, 2.0])
def test_normal_curvature_contraction_off_unit_length(level):
    # the unit sphere (level 0.5) has b^2 = 1, where sqrt(b^2 zeta) and the
    # printed sqrt(b^2 (1 + k(k+1))) agree; the spheres |x|^2 = 2 level have
    # b = x with b^2 = 0.16 and 4, and there only H_0 = -b_00 / sqrt(b^2 zeta),
    # zeta = 1 + k(k+1) b^2, holds (the printed form misses by over 40%)
    k = 2
    spec, unit = radial_fixture(k)
    surface = LevelSurface(unit.potential, level)
    for x0, v in tangential_points_and_dirs(surface, spec, 5, seed=79):
        frame = one_frame(spec, surface, x0, v)
        fl, h0 = frame.bundle.flag, frame.H_a @ frame.v
        assert fl.b2 == pytest.approx(2.0 * level, rel=1e-12)
        b00 = float(fl.y @ fl.y)
        assert h0 == pytest.approx(-b00 / math.sqrt(fl.b2 * (1 + k * (k + 1) * fl.b2)), rel=1e-10)
        printed = -b00 / math.sqrt(fl.b2 * (1 + k * (k + 1)))
        assert abs(h0 - printed) > 0.4 * abs(h0)


def test_frame_identities_sweep():
    spec, surface = exp_fixture(2)
    rng = np.random.default_rng(91)
    pts = tangential_points_and_dirs(surface, spec, 100, seed=91)
    for x0, _ in pts:
        # ten directions share the point's chart and connection
        frame = stacked_frame(spec, chart_at(surface, [x0]), covariant_db(spec, [x0]),
                         [rng.normal(size=(10, 2))])
        for B, Bd, n_up, n_dn, g, h in zip(frame.chart.B, induced(frame)[2], frame.N_up, frame.N_dn,
                                           frame.bundle.g, frame.bundle.h):
            assert np.abs(Bd @ B - np.eye(2)).max() < 1e-10
            assert np.abs(B @ Bd + np.outer(n_up, n_dn) - np.eye(3)).max() < 1e-10
            assert np.abs(Bd @ n_up).max() < 1e-10
            assert np.abs(n_dn @ B).max() < 1e-10
            assert float(n_up @ g @ n_up) == pytest.approx(1.0, abs=1e-10)
            # angular tensor is unit on the normal and null on tangents
            assert float(n_up @ h @ n_up) == pytest.approx(1.0, abs=1e-10)
            assert np.abs(B.T @ h @ n_up).max() < 1e-10


def test_ambient_torsion_decomposes_into_tangential_and_normal_parts():
    # C^i_jk B^j_a B^k_b = C^g_ab B^i_g + M_ab N^i (frame completeness)
    spec, surface = exp_fixture(1)
    for x0, v in tangential_points_and_dirs(surface, spec, 5, seed=17):
        frame = one_frame(spec, surface, x0, v)
        B = frame.chart.B
        c_mixed = np.einsum("il,ljk->ijk", frame.bundle.g_inv, frame.bundle.C)
        pulled = np.einsum("ijk,ja,kb->iab", c_mixed, B, B)
        _, g_ind_inv, _, c_ind = induced(frame)
        c_up = np.einsum("gd,dab->gab", g_ind_inv, c_ind)
        m_ab = np.einsum("ijk,ia,jb,k->ab", frame.bundle.C, B, B, frame.N_up)
        recomposed = np.einsum("gab,ig->iab", c_up, B) + np.einsum("ab,i->iab", m_ab, frame.N_up)
        assert np.abs(pulled - recomposed).max() < 1e-10


@pytest.mark.parametrize("text, level", [
    ("exp(x3)", 1.0), ("(x1^2 + x2^2 + x3^2)/2", 0.5), ("0.1*x3", 0.0),
])
def test_the_space_potential_is_derived_once(text, level):
    # a surface of the space's own potential reads the space's b table and its
    # partials, derives no tree of its own, and evaluates to the same bits
    spec = make_space(potential=text)
    shared = LevelSurface(ex.parse(text), level, spec)
    own = LevelSurface(ex.parse(text), level)
    assert shared.table.diff(3) is spec.b_table
    assert shared.table.diff(3).diff(3) is spec.b_table.diff(3)
    xs = np.random.default_rng(3).uniform(-1.0, 1.0, size=(5, 3))
    for x in (xs, xs[0]):
        assert np.array_equal(shared.gradient(x), own.gradient(x))
        assert np.array_equal(shared.hessian(x), own.hessian(x))
        assert np.array_equal(shared.hessian(x), spec.db_at(x))


def test_another_potential_derives_its_own_tables():
    spec = make_space(potential="0.1*x3")
    surface = LevelSurface(ex.parse("x3"), 0.0, spec)
    assert surface.table.diff(3) is not spec.b_table
    assert np.array_equal(surface.gradient([0.2, 0.1, 0.0]), [0.0, 0.0, 1.0])


@pytest.mark.parametrize("family, k", [("randers", 1), ("generalized-square", 1),
                                       ("generalized-square", 2), ("generalized-square", 3),
                                       ("matsumoto", 1), ("riemannian", 1)])
def test_m_a_vanishes_on_tangential_flags(family, k):
    # M_a = C_ijk B^i_a N^j N^k = 0 at beta = 0 for every (alpha, beta)-metric, which is
    # why the frame's H_ab has no M_a H_b term; frame_at, unlike classify, takes any family
    spec = varying_space(family, k, 3)
    surface = LevelSurface(spec.b_potential, 0.2, spec)
    pts = surface_points(surface, spec, 4, seed=61)
    rng = np.random.default_rng(61)
    frame = stacked_frame(spec, chart_at(surface, pts), covariant_db(spec, pts),
                     [rng.normal(size=(3, 2)) for _ in pts])
    scale = 1.0 + np.abs(frame.bundle.C).max(axis=(-3, -2, -1))
    assert (np.abs(m_a_of(frame)).max(-1) <= 1e-13 * scale).all()
