import numpy as np
import pytest

from conftest import count_calls, exp_fixture, make_space, plane_fixture, radial_fixture
from finslerkit import classifier, connection, hypersurface
from finslerkit import expr as ex
from finslerkit.classifier import (
    ClassifyOptions,
    classify,
    first_kind_test,
    second_kind_test,
    surface_points,
)
from finslerkit.connection import covariant_db
from finslerkit.hypersurface import LevelSurface
from finslerkit.metric import SpaceSpec

FAST = ClassifyOptions(points=8, directions=3, seed=5)


def test_surface_points_deterministic_and_on_surface():
    spec, surface = radial_fixture(1)
    pts_a = surface_points(surface, spec, 10, seed=3)
    pts_b = surface_points(surface, spec, 10, seed=3)
    for pa, pb in zip(pts_a, pts_b):
        assert np.array_equal(pa, pb)
        assert abs(surface.value(pa) - surface.level) < 1e-12
        assert abs(np.linalg.norm(pa) - 1.0) < 1e-12  # unit sphere


def test_first_kind_constant_one_form():
    spec, surface = plane_fixture(1)
    pts = surface_points(surface, spec, 6, seed=1)
    result, c_samples = first_kind_test([covariant_db(spec, x) for x in pts])
    assert result.passed and result.residual == 0.0
    for c in c_samples:
        assert np.abs(c).max() < 1e-14


def test_first_kind_exponential_gradient_solves_exactly():
    spec, surface = exp_fixture(1)
    pts = surface_points(surface, spec, 6, seed=2)
    result, c_samples = first_kind_test([covariant_db(spec, x) for x in pts])
    assert result.passed and result.residual < 1e-12
    for c in c_samples:  # c = exp(-x3) b = (0, 0, 1) on the level exp(x3) = 1
        assert np.allclose(c, [0.0, 0.0, 1.0], atol=1e-10)


def test_first_kind_radial_field_fails_with_unit_residual():
    spec, surface = radial_fixture(1)
    result, _ = first_kind_test([covariant_db(spec, [1.0, 0.0, 0.0])])
    assert not result.passed
    assert result.residual >= 1.0


def test_second_kind_constant_and_exponential():
    spec, surface = plane_fixture(1)
    pts = surface_points(surface, spec, 6, seed=1)
    result, e_samples = second_kind_test([covariant_db(spec, x) for x in pts])
    assert result.passed and result.residual == 0.0
    assert all(e == 0.0 for e in e_samples)

    spec2, surface2 = exp_fixture(1)
    pts2 = surface_points(surface2, spec2, 6, seed=2)
    result2, e_samples2 = second_kind_test([covariant_db(spec2, x) for x in pts2])
    assert result2.passed and result2.residual < 1e-12
    for e in e_samples2:  # e(x) = exp(-x3) = 1 on the surface
        assert e == pytest.approx(1.0, abs=1e-10)


def test_second_kind_radial_field_fails():
    spec, surface = radial_fixture(1)
    result, _ = second_kind_test([covariant_db(spec, [1.0, 0.0, 0.0])])
    assert not result.passed
    assert result.residual >= 1.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_classification_matrix(k):
    for fixture, first, second in (
        (plane_fixture, True, True),
        (exp_fixture, True, True),
        (radial_fixture, False, False),
    ):
        spec, surface = fixture(k)
        report = classify(surface, spec, FAST)
        assert report.first_kind.passed is first
        assert report.second_kind.passed is second
        assert report.third_kind.verdict == "impossible"
        assert report.third_kind.witness > 0.0


def test_third_kind_vacuous_when_one_form_vanishes():
    spec = make_space(k=1, b=["0", "0", "0"])
    surface = LevelSurface(ex.parse("x3"), 0.0)
    report = classify(surface, spec, FAST)
    assert report.third_kind.verdict == "vacuous"


def test_proportionality_check_vanishes_on_level_surfaces():
    # c is parallel to b on these fixtures, so c_0 = 0 on tangential flags and
    # both sides of the proportionality vanish
    for fixture in (plane_fixture, exp_fixture):
        spec, surface = fixture(2)
        report = classify(surface, spec, FAST)
        assert report.proportionality_deviation is not None
        assert report.proportionality_deviation <= 1e-7
        assert max(abs(f) for f in report.proportionality_factors) < 1e-10


def test_second_kind_implies_first_kind_over_potential_family():
    potentials = [
        "0.1*x3",
        "x1 + 2*x3",
        "exp(x3)",
        "exp(x1 + x3)",
        "(x1^2 + x2^2 + x3^2)/2",
        "x1*x3",
        "x1^2/2 + x3",
    ]
    for pot in potentials:
        spec = make_space(k=1, potential=pot)
        surface = LevelSurface(ex.parse(pot), 0.0)  # level unused by the algebra
        pts = []
        rng = np.random.default_rng(13)
        while len(pts) < 6:  # algebraic tests are pointwise; any regular point works
            x = rng.uniform(-1.0, 1.0, size=3)
            if np.linalg.norm(spec.b_at(x)) > 1e-6:
                pts.append(x)
        first, _ = first_kind_test([covariant_db(spec, x) for x in pts])
        second, _ = second_kind_test([covariant_db(spec, x) for x in pts])
        if second.passed:
            assert first.passed, pot


def test_normal_curvature_tracks_b00_both_directions():
    # |H_0| small <-> |b_00| small, through H_0 = -b_00 / sqrt(b^2 zeta)
    from finslerkit.hypersurface import h_tensors_at
    from conftest import tangential_points_and_dirs

    spec, surface = exp_fixture(1)
    for x0, v in tangential_points_and_dirs(surface, spec, 4, seed=3):
        frame, ht = h_tensors_at(spec, surface, x0, v)
        from finslerkit.connection import covariant_db

        b00 = float(frame.flag.y @ covariant_db(spec, x0).b_cov @ frame.flag.y)
        assert abs(ht.H0) < 1e-10 and abs(b00) < 1e-10

    spec3, surface3 = radial_fixture(1)
    for x0, v in tangential_points_and_dirs(surface3, spec3, 4, seed=4):
        frame, ht = h_tensors_at(spec3, surface3, x0, v)
        b00 = float(frame.flag.y @ frame.flag.y)
        scale = np.sqrt(frame.bundle.b2 * frame.bundle.reciprocal.zeta)
        assert abs(ht.H0) > 1e-3 and abs(b00) > 1e-3
        assert ht.H0 * scale == pytest.approx(-b00, rel=1e-9)


@pytest.mark.parametrize("mu", [0.5, 2.0])
def test_verdicts_invariant_under_one_form_rescaling(mu):
    base_reports = {}
    for name, potential in (("exp", "exp(x3)"), ("radial", "(x1^2 + x2^2 + x3^2)/2")):
        level = 1.0 if name == "exp" else 0.5
        spec = make_space(k=1, potential=potential)
        surface = LevelSurface(ex.parse(potential), level)
        base_reports[name] = classify(surface, spec, FAST)

        scaled_potential = ex.Mul(ex.Num(mu), ex.parse(potential))
        scaled_spec = make_space(k=1, potential=f"{mu}*({potential})")
        scaled_surface = LevelSurface(scaled_potential, mu * level)
        scaled = classify(scaled_surface, scaled_spec, FAST)
        assert scaled.first_kind.passed == base_reports[name].first_kind.passed
        assert scaled.second_kind.passed == base_reports[name].second_kind.passed
        assert scaled.third_kind.verdict == base_reports[name].third_kind.verdict
        if name == "exp":
            # the fitted e field rescales as 1/mu while the verdict is unchanged
            assert np.allclose(scaled.e_samples, np.array(base_reports[name].e_samples) / mu)


def test_classify_rejects_other_families():
    spec = make_space(family="randers", k=1, potential="0.1*x3")
    surface = LevelSurface(ex.parse("0.1*x3"), 0.0)
    with pytest.raises(ValueError, match="family"):
        classify(surface, spec, FAST)


def test_report_metadata_records_grid_and_seed():
    spec, surface = plane_fixture(1)
    report = classify(surface, spec, FAST)
    assert len(report.points) == FAST.points
    assert report.directions == FAST.directions
    assert report.seed == FAST.seed
    assert report.tol == FAST.tol
    assert report.summary[0] == ("first-kind", "PASS")
    assert report.summary[2] == ("third-kind", "IMPOSSIBLE")


def test_classify_evaluates_each_surface_point_once(monkeypatch):
    spec, surface = exp_fixture(2)
    a_calls = count_calls(monkeypatch, SpaceSpec, "a_at")
    conns = [count_calls(monkeypatch, module, "covariant_db")
             for module in (classifier, connection, hypersurface)]
    report = classify(surface, spec, FAST)
    assert len(report.points) == FAST.points
    # one a(x) and one connection per point, shared by both kind tests and
    # by the frames of all FAST.directions directions
    assert len(a_calls) == FAST.points
    assert sum(map(len, conns)) == FAST.points
