import dataclasses
import re
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    count_calls,
    exp_fixture,
    make_space,
    one_frame,
    plane_fixture,
    radial_fixture,
    tangential_points_and_dirs,
)
from finslerkit import classifier, connection, hypersurface, tensors
from finslerkit import expr as ex
from finslerkit.classifier import (
    ClassifierConsistencyError,
    ClassifyOptions,
    classify,
    first_kind_test,
    second_kind_test,
    surface_points,
)
from finslerkit.config import load_config
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
    result, c_samples = first_kind_test(covariant_db(spec, pts), 1e-8)
    assert result.passed and result.residual == 0.0
    for c in c_samples:
        assert np.abs(c).max() < 1e-14


def test_first_kind_exponential_gradient_solves_exactly():
    spec, surface = exp_fixture(1)
    pts = surface_points(surface, spec, 6, seed=2)
    result, c_samples = first_kind_test(covariant_db(spec, pts), 1e-8)
    assert result.passed and result.residual < 1e-12
    for c in c_samples:  # c = exp(-x3) b = (0, 0, 1) on the level exp(x3) = 1
        assert np.allclose(c, [0.0, 0.0, 1.0], atol=1e-10)


def test_first_kind_radial_field_fails_with_unit_residual():
    spec, surface = radial_fixture(1)
    result, _ = first_kind_test(covariant_db(spec, [[1.0, 0.0, 0.0]]), 1e-8)
    assert not result.passed
    assert result.residual >= 1.0


def test_second_kind_constant_and_exponential():
    spec, surface = plane_fixture(1)
    pts = surface_points(surface, spec, 6, seed=1)
    result, e_samples = second_kind_test(covariant_db(spec, pts), 1e-8)
    assert result.passed and result.residual == 0.0
    assert all(e == 0.0 for e in e_samples)

    spec2, surface2 = exp_fixture(1)
    pts2 = surface_points(surface2, spec2, 6, seed=2)
    result2, e_samples2 = second_kind_test(covariant_db(spec2, pts2), 1e-8)
    assert result2.passed and result2.residual < 1e-12
    for e in e_samples2:  # e(x) = exp(-x3) = 1 on the surface
        assert e == pytest.approx(1.0, abs=1e-10)


def test_second_kind_radial_field_fails():
    spec, surface = radial_fixture(1)
    result, _ = second_kind_test(covariant_db(spec, [[1.0, 0.0, 0.0]]), 1e-8)
    assert not result.passed
    assert result.residual >= 1.0


def test_kind_tolerances_scale_by_one_plus_the_largest_b_ij():
    # max |b_ij| = 0.5 < 1: each residual lies between tol * 0.5 and tol * (1 + 0.5), so
    # both kinds pass on the scale 1 + max |b_ij| and would fail on max |b_ij| alone
    point = types.SimpleNamespace(b=np.array([[1.0, 0.0]]), b_up=np.array([[1.0, 0.0]]),
                                  b2=np.array([1.0]))
    conn = types.SimpleNamespace(point=point, b_cov=np.array([[[0.5, 0.0], [0.0, 6e-9]]]))
    first, _ = first_kind_test(conn, 1e-8)   # 2 b_11 = 0 is the one equation left over
    second, _ = second_kind_test(conn, 1e-8)  # e = b_00, and b_11 is the misfit
    assert first.per_point == [1.2e-8] and second.per_point == [6e-9]
    assert first.passed is True and second.passed is True


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


def test_classify_refuses_a_one_form_that_vanishes_where_b_ij_does_not():
    # b = grad(0.05 x3^2) = (0, 0, 0.1 x3) vanishes on x3 = 0, but b_33 = 0.1 there:
    # the algebraic and geometric kind tests are equivalent only where b != 0
    spec = make_space(k=1, potential="0.05*x3^2")
    surface = LevelSurface(ex.parse("0.1*x3"), 0.0)
    with pytest.raises(ValueError, match=r"the 1-form vanishes at x=\[.*, 0\.0\] while b_ij "
                                         r"does not: the kind tests need b != 0 there"):
        classify(surface, spec, FAST)


def test_proportionality_check_vanishes_on_level_surfaces():
    # c is parallel to b on these fixtures, so c_0 = 0 on tangential flags and
    # both sides of the proportionality vanish
    for fixture in (plane_fixture, exp_fixture):
        spec, surface = fixture(2)
        report = classify(surface, spec, FAST)
        assert report.proportionality_deviation is not None
        assert report.proportionality_deviation <= 1e-7
        assert max(abs(f) for f in report.proportionality_factors) < 1e-10


def _orthogonal_c_plane(k):
    # configs/e4.cfg with exponent k: b = grad(x3 (2 + x1)) on x3 = 0 is
    # (0, 0, 2 + x1) with b_13 = 1, so c = (2 / (2 + x1), 0, 0) is orthogonal
    # to b and c_0 = c_1 y^1 != 0 on tangential flags
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "e4.cfg")
    return dataclasses.replace(cfg.space, k=k), cfg.surface


@pytest.mark.parametrize("k", [1, 2, 3])
def test_first_kind_factor_where_c_is_orthogonal_to_b(k):
    # H_ab = -(k+1) c_0 sqrt(b^2) / (4 alpha zeta^(3/2)) h_ab, zeta = 1 + k(k+1) b^2;
    # the printed factor c_0 sqrt(b^2) / sqrt(1 + k(k+1)) misses it by O(1)
    spec, surface = _orthogonal_c_plane(k)
    report = classify(surface, spec, FAST)  # raises unless the derived factor holds
    assert report.first_kind.passed and not report.second_kind.passed
    assert report.proportionality_deviation <= 1e-10 * report.geo_H_ab_max
    assert max(abs(f) for f in report.proportionality_factors) > 1e-2

    _, c_samples = first_kind_test(covariant_db(spec, report.points), 1e-8)
    printed_dev = 0.0
    for x, c in zip(report.points, c_samples):
        for v in ([1.0, 0.3], [-0.4, 1.0]):
            frame = one_frame(spec, surface, x, v)
            fl = frame.bundle.flag
            printed = float(c @ fl.y) * np.sqrt(fl.b2) / np.sqrt(1 + k * (k + 1))
            printed_dev = max(printed_dev, float(np.abs(frame.H_ab - printed * frame.h_ind).max()))
    assert printed_dev > 0.1


def test_first_kind_factor_mismatch_raises(monkeypatch):
    # a wrong factor is not just printed: it stops the classification
    spec, surface = _orthogonal_c_plane(1)
    monkeypatch.setattr(classifier, "proportionality_check",
                        lambda frames, c_samples, k: ([], 1.0))
    with pytest.raises(ClassifierConsistencyError, match="first-kind"):
        classify(surface, spec, FAST)


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
        first, _ = first_kind_test(covariant_db(spec, pts), 1e-8)
        second, _ = second_kind_test(covariant_db(spec, pts), 1e-8)
        if second.passed:
            assert first.passed, pot


def test_normal_curvature_tracks_b00_both_directions():
    # |H_0| small <-> |b_00| small, through H_0 = -b_00 / sqrt(b^2 zeta)
    spec, surface = exp_fixture(1)
    for x0, v in tangential_points_and_dirs(surface, spec, 4, seed=3):
        frame = one_frame(spec, surface, x0, v)
        y = frame.bundle.flag.y
        b00 = float(y @ covariant_db(spec, x0).b_cov @ y)
        assert abs(frame.H_a @ frame.v) < 1e-10 and abs(b00) < 1e-10

    spec3, surface3 = radial_fixture(1)
    for x0, v in tangential_points_and_dirs(surface3, spec3, 4, seed=4):
        frame = one_frame(spec3, surface3, x0, v)
        h0, fl = frame.H_a @ frame.v, frame.bundle.flag
        b00 = float(fl.y @ fl.y)
        scale = np.sqrt(fl.b2 * frame.bundle.reciprocal.zeta)
        assert abs(h0) > 1e-3 and abs(b00) > 1e-3
        assert h0 * scale == pytest.approx(-b00, rel=1e-9)


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


@pytest.mark.parametrize("name, first, second", [
    ("e1", True, True), ("e2", True, True), ("e3", False, False), ("e4", True, False),
])
def test_randers_classifies_on_the_shipped_surfaces(tmp_path, name, first, second):
    # randers is generalized-square at k = 0: the shipped configs with that family
    # classify as at k = 1, both routes agreeing (classify raises otherwise)
    text = (Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg").read_text()
    path = tmp_path / f"{name}.cfg"
    path.write_text(re.sub(r"(?m)^family = .*$", "family = randers", text))
    cfg = load_config(path)
    assert (cfg.space.family, cfg.space.k) == ("generalized-square", 0)
    report = classify(cfg.surface, cfg.space, cfg.classify_options)
    assert (report.first_kind.passed, report.second_kind.passed) == (first, second)
    assert report.third_kind.verdict == "impossible" and report.third_kind.witness > 0.0
    if first:  # H_ab = -c_0 sqrt(b^2) / (4 alpha) h_ab at k = 0
        assert report.proportionality_deviation <= report.tol
    else:
        assert report.proportionality_deviation is None


def test_classify_rejects_other_families():
    spec = make_space(family="matsumoto", k=1, potential="0.1*x3")
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
             for module in (classifier, connection)]
    charts = [count_calls(monkeypatch, module, "chart_at")
              for module in (classifier, hypersurface)]
    bundles = [count_calls(monkeypatch, module, "bundle_at") for module in (hypersurface, tensors)]
    report = classify(surface, spec, FAST)
    assert len(report.points) == FAST.points
    # one a(x) pass and one connection over all points as lanes, shared by
    # both kind tests and by the frames; one bundle over every kept flag,
    # FAST.directions at each point
    assert len(a_calls) == 1 and a_calls[0][1].shape == (FAST.points, spec.dim)
    assert sum(map(len, conns)) == 1 and sum(map(len, charts)) == 1
    calls = [args for module in bundles for args in module]
    assert len(calls) == 1 and calls[0][2].shape == (FAST.points * FAST.directions, spec.dim)


def test_projection_takes_no_gradient_after_its_last_newton_pass(monkeypatch):
    # every lane of the sphere converges: the pass that finds them all done
    # evaluates the potential and no gradient, so each pass but the last takes
    # one gradient, plus the seeds' directions and the regularity check
    _, surface = radial_fixture()
    raw = np.random.default_rng(3).uniform(-1.0, 1.0, size=(6, 3))
    values = count_calls(monkeypatch, LevelSurface, "value")
    grads = count_calls(monkeypatch, LevelSurface, "gradient")
    pts = classifier._project(surface, raw)
    assert len(pts) == len(raw) and len(values) > 2
    assert len(grads) == len(values) + 1
    assert np.array_equal(grads[0][1], raw) and np.array_equal(grads[-1][1], pts)


def test_classify_evaluates_the_space_tables_once_at_the_surface_points(monkeypatch):
    # the surface of the space's own potential reads b and Db from the space's tables:
    # chart_at (gradient, Hessian) and the connection (b, Db) share one evaluation of each
    spec, _ = exp_fixture(2)
    surface = LevelSurface(spec.b_potential, 1.0, spec)
    evals = count_calls(monkeypatch, ex.ExprTable, "eval")
    pts = classify(surface, spec, FAST).points
    for table in (spec.b_table, spec.b_table.diff(spec.dim)):
        at_pts = [cols for t, cols in evals if t is table and np.shape(cols) == pts.T.shape
                  and np.array_equal(cols, pts.T)]
        assert len(at_pts) == 1


@pytest.mark.parametrize("fixture", [exp_fixture, radial_fixture])
def test_per_point_results_match_direction_by_direction_frames(fixture):
    # the reference redraws classify's directions and builds one frame per
    # direction: each point's witness is the min over them of max |M_ab|
    spec, surface = fixture(2)
    report = classify(surface, spec, FAST)
    rng = np.random.default_rng(FAST.seed + 1)
    for n, x in enumerate(report.points):
        frames = [one_frame(spec, surface, x, v / np.linalg.norm(v))
                  for v in rng.normal(size=(FAST.directions, spec.dim - 1))]
        witness = min(float(np.abs(f.M_ab).max()) for f in frames)
        assert report.third_kind.per_point[n] == pytest.approx(witness, rel=1e-12)
    first, _ = first_kind_test(covariant_db(spec, report.points), FAST.tol)
    second, _ = second_kind_test(covariant_db(spec, report.points), FAST.tol)
    assert report.first_kind.per_point == first.per_point and len(first.per_point) == 8
    assert report.second_kind.per_point == second.per_point
    assert report.third_kind.witness == min(report.third_kind.per_point)


def _drop_draws(monkeypatch, dropped) -> None:
    """Zero classify's direction draws at each entry of ``dropped``, a point
    index or a (point, direction) pair: they fall below the 1e-12 cut."""
    default_rng = np.random.default_rng

    def rng(seed):
        real = default_rng(seed)
        if seed != FAST.seed + 1:  # surface_points draws from its own seed
            return real

        def normal(size):
            draws = real.normal(size=size)
            for at in dropped:
                draws[at] = 0.0
            return draws
        return types.SimpleNamespace(normal=normal)

    monkeypatch.setattr(np.random, "default_rng", rng)


def test_point_without_a_direction_raises_naming_it(monkeypatch):
    spec, surface = exp_fixture(2)
    x = surface_points(surface, spec, FAST.points, FAST.seed)[2]
    _drop_draws(monkeypatch, [(1, 0), 2])
    with pytest.raises(ValueError, match=re.escape(f"no direction at x={x.tolist()}")):
        classify(surface, spec, FAST)


def test_dropped_draws_leave_each_point_its_own_witness(monkeypatch):
    # points 1 and 4 keep 2 and 1 of their 3 directions: each witness is the
    # min over that point's kept directions, not over a neighbour's
    spec, surface = exp_fixture(2)
    draws = np.random.default_rng(FAST.seed + 1).normal(
        size=(FAST.points, FAST.directions, spec.dim - 1))
    dropped = [(1, 0), (4, 1), (4, 2)]
    _drop_draws(monkeypatch, dropped)
    report = classify(surface, spec, FAST)
    for at in dropped:
        draws[at] = 0.0
    for n, x in enumerate(report.points):
        witness = min(float(np.abs(one_frame(spec, surface, x, v / np.linalg.norm(v)).M_ab).max())
                      for v in draws[n] if v.any())
        assert report.third_kind.per_point[n] == pytest.approx(witness, rel=1e-12)
