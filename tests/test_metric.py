import dataclasses
import math

import numpy as np
import pytest

from conftest import count_calls, each_flag, make_space
from finslerkit import expr as ex
from finslerkit import metric
from finslerkit.connection import christoffel, covariant_db
from finslerkit.metric import (
    FAMILIES,
    SMALLEST_DIRECTION,
    DegenerateMetricError,
    FamilyDomainError,
    SpaceSpec,
    base_point,
    finsler_norm,
    flag_point,
    phi_partials,
    sample_flags,
    validity_check,
)
from finslerkit.numerics import Jet2
from finslerkit.tensors import bundle_at, half_f_squared, torsion_oracle


def test_alpha_beta_flat_space():
    spec = make_space(k=1, b=["0", "0", "0.1"])
    fl = flag_point(spec, [0, 0, 0], [1, 0, 0])
    assert (fl.alpha, fl.beta) == (1.0, 0.0)
    fl = flag_point(spec, [0, 0, 0], [0, 0, 2])
    al, be = fl.alpha, fl.beta
    assert al == 2.0 and be == pytest.approx(0.2)


def test_alpha_beta_anisotropic():
    spec = make_space(k=1, dim=2, b=["0.3", "0"], a=[["4", "0"], ["0", "1"]])
    fl = flag_point(spec, [0, 0], [1, 0])
    al, be = fl.alpha, fl.beta
    assert al == 2.0 and be == pytest.approx(0.3)


def test_phi_partials_reference_values_k1():
    pp = phi_partials("generalized-square", 1, 1.0, 0.0)
    assert (pp.F, pp.Fa, pp.Fb) == (1.0, 1.0, 2.0)
    assert (pp.Faa, pp.Fbb, pp.Fab) == (0.0, 2.0, 0.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_phi_partials_beta_zero_any_k(k):
    pp = phi_partials("generalized-square", k, 1.0, 0.0)
    assert pp.Fb == k + 1
    assert pp.Fbb == k * (k + 1)


def test_riemannian_family_is_beta_independent():
    pp = phi_partials("riemannian", 1, 2.5, 0.7)
    assert (pp.Fb, pp.Fbb, pp.Fab, pp.Fa) == (0.0, 0.0, 0.0, 1.0)
    assert pp.F == 2.5


def test_square_equals_exponent_one_exactly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        al = float(rng.uniform(0.2, 3.0))
        be = float(rng.uniform(-0.5, 0.5)) * al
        a = phi_partials("square", 7, al, be)  # exponent argument ignored
        b = phi_partials("generalized-square", 1, al, be)
        assert (a.F, a.Fa, a.Fb, a.Faa, a.Fbb, a.Fab) == (b.F, b.Fa, b.Fb, b.Faa, b.Fbb, b.Fab)


def _domain_sample(family, rng):
    al = float(rng.uniform(0.2, 3.0))
    if family in ("kropina", "generalized-kropina"):
        be = float(rng.uniform(0.05, 1.0)) * al
    elif family == "matsumoto":
        be = float(rng.uniform(-0.9, 0.9)) * al
    else:
        be = float(rng.uniform(-0.9, 0.9)) * al
    return al, be


@pytest.mark.parametrize("family", FAMILIES)
def test_euler_homogeneity_identities(family):
    rng = np.random.default_rng(17)
    k = 2
    for _ in range(10_000):
        al, be = _domain_sample(family, rng)
        pp = phi_partials(family, k, al, be)
        assert abs(al * pp.Fa + be * pp.Fb - pp.F) <= 1e-10 * max(1.0, abs(pp.F))
        assert abs(al * pp.Faa + be * pp.Fab) <= 1e-10 * max(1.0, abs(pp.Faa), abs(pp.Fab))
        assert abs(al * pp.Fab + be * pp.Fbb) <= 1e-10 * max(1.0, abs(pp.Fab), abs(pp.Fbb))


@pytest.mark.parametrize("family", FAMILIES)
def test_positive_homogeneity_in_direction(family):
    spec = make_space(family=family, k=2, potential="0.2*x3 + 1.1*x3" if family in
                      ("kropina", "generalized-kropina") else "0.2*x3")
    x = np.array([0.1, -0.3, 0.2])
    y = np.array([0.4, 0.2, 1.0]) if family in ("kropina", "generalized-kropina") \
        else np.array([0.4, 0.2, -0.3])
    fl = flag_point(spec, x, y)
    al, be = fl.alpha, fl.beta
    f1 = finsler_norm(family, 2, al, be)
    for lam in (0.5, 2.0, 10.0):
        fl2 = flag_point(spec, x, lam * y)
        al2, be2 = fl2.alpha, fl2.beta
        f2 = finsler_norm(family, 2, al2, be2)
        assert abs(f2 - lam * f1) <= 1e-12 * max(1.0, abs(f2))


def test_family_domain_errors_are_named():
    with pytest.raises(FamilyDomainError, match="kropina"):
        phi_partials("kropina", 1, 1.0, -0.1)
    with pytest.raises(FamilyDomainError, match="matsumoto"):
        phi_partials("matsumoto", 1, 1.0, 1.5)
    # the k = 0 partials hold 1/(alpha + beta); one failing lane fails the batch
    for alpha, beta in ((1.0, -1.0), (np.ones(2), np.array([0.3, -1.0]))):
        with pytest.raises(FamilyDomainError, match=r"^randers: requires alpha \+ beta > 0$"):
            phi_partials("randers", 1, alpha, beta)
    with pytest.raises(ValueError, match="unknown metric family"):
        phi_partials("euclid", 1, 1.0, 0.0)


def test_flag_point_invariants_and_zero_direction():
    spec = make_space(k=1, potential="0.1*x3")
    fl = flag_point(spec, [0.5, 0.1, -0.2], [0.3, -1.0, 0.7])
    assert fl.alpha == pytest.approx(math.sqrt(fl.y @ fl.a @ fl.y), abs=1e-12)
    assert fl.beta == pytest.approx(float(fl.b @ fl.y), abs=1e-12)
    assert np.allclose(fl.y_low, fl.a @ fl.y)
    with pytest.raises(ValueError, match="nonzero"):
        flag_point(spec, [0, 0, 0], [0, 0, 0])


def test_a_direction_whose_alpha_squared_underflows_is_refused_by_its_scale():
    # F is 1-homogeneous, so a tiny y is a valid flag in exact arithmetic; below
    # SMALLEST_DIRECTION, a_ij y^i y^j underflows, which the validity check once read as
    # F <= 0 (1e-300) or an indefinite g (1e-160)
    spec = make_space(k=1, potential="0.1*x3")
    ys = np.array([[0.3, -1.0, 0.7], [1e-160, 0.0, -1e-170], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError) as err:
        flag_point(spec, np.zeros((3, 3)), ys)
    assert str(err.value) == "direction y = [1e-160, 0.0, -1e-170] is too small: alpha^2 underflows"
    for y in ([1e-300, 0.0, 0.0], [0.0, -0.5 * SMALLEST_DIRECTION, 0.0]):
        with pytest.raises(ValueError, match=r"is too small: alpha\^2 underflows"):
            validity_check(spec, [0.0, 0.0, 0.0], y)
    at_floor = flag_point(spec, [0.0, 0.0, 0.0], [SMALLEST_DIRECTION, 0.0, 0.0])
    assert at_floor.alpha == SMALLEST_DIRECTION  # alpha^2 is the smallest normal float


def test_degenerate_a_reports_pivot():
    spec = make_space(k=1, b=["0", "0"], dim=2, a=[["1", "0"], ["0", "x1"]])
    with pytest.raises(DegenerateMetricError) as err:
        flag_point(spec, [-1.0, 0.0], [1.0, 0.0])
    assert err.value.pivot == 2


def test_validity_passes_on_small_b_plane_flag():
    spec = make_space(k=1, potential="0.1*x3")
    report = validity_check(spec, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert report.ok
    assert report.F_positive
    assert report.family_domain and report.fundamental_pd
    # at a BasePoint, a(x) was checked there: every field has the lane shape
    lanes = validity_check(spec, base_point(spec, np.zeros((2, 3))), np.eye(3)[:2])
    assert all(np.shape(getattr(lanes, f)) == (2,) for f in ("a_pd", "pd_pivot", "F", "ok"))
    assert lanes.ok.all() and not lanes.pd_pivot.any()


def test_validity_records_pivot_when_convexity_fails():
    # s = beta/alpha past 1/k loses positive definiteness; pivot is recorded
    spec = make_space(k=2, b=["0.7", "0", "0"])
    report = validity_check(spec, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert report.F_positive and report.family_domain
    assert not report.fundamental_pd
    assert report.pd_pivot == 2
    # strongly negative beta at k = 1 stays positive definite pointwise
    spec2 = make_space(k=1, b=["-0.9", "0", "0"])
    report2 = validity_check(spec2, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert report2.ok


def test_validity_rejects_zero_direction_before_flags():
    spec = make_space(k=1, potential="0.1*x3")
    with pytest.raises(ValueError, match="nonzero"):
        validity_check(spec, [0, 0, 0], [0, 0, 0])


def test_sample_flags_deterministic_and_in_domain():
    spec = make_space(k=2, potential="exp(x3)")
    flags_a = sample_flags(spec, 10, seed=5)
    flags_b = sample_flags(spec, 10, seed=5)
    assert np.array_equal(flags_a.x, flags_b.x) and np.array_equal(flags_a.y, flags_b.y)
    for f in each_flag(flags_a):
        assert validity_check(spec, f.x, f.y).ok


def test_space_spec_validation():
    rows = [[ex.Num(1.0), ex.Num(0.0)], [ex.Num(0.0), ex.Num(1.0)]]
    with pytest.raises(ValueError, match="dimension"):
        SpaceSpec(1, 1, "riemannian", [[ex.Num(1.0)]], [ex.Num(0.0)])
    with pytest.raises(ValueError, match="positive integer"):
        SpaceSpec(2, 0, "riemannian", rows, [ex.Num(0.0), ex.Num(0.0)])
    with pytest.raises(ValueError, match="unknown metric family"):
        SpaceSpec(2, 1, "euclidean", rows, [ex.Num(0.0), ex.Num(0.0)])


def test_space_spec_refuses_a_and_b_of_another_dimension():
    one, zero = ex.Num(1.0), ex.Num(0.0)
    with pytest.raises(ValueError, match="^a must be a 2x2 block$"):
        SpaceSpec(2, 1, "riemannian", [[one, zero, zero], [zero, one, zero]], [zero, zero])
    with pytest.raises(ValueError, match="^b must have 2 components$"):
        SpaceSpec(2, 1, "riemannian", [[one, zero], [zero, one]], [zero, zero, zero])


def test_flag_point_refuses_a_direction_of_another_dimension():
    spec = make_space(k=1, potential="0.1*x3")
    with pytest.raises(ValueError, match="^y must have dimension 3$"):
        flag_point(spec, [0.5, 0.1, -0.2], [0.3, -1.0, 0.7, 1.0])


def test_gradient_potential_matches_symbolic_derivatives():
    spec = make_space(k=1, potential="exp(x3) + x1*x2")
    x = np.array([0.3, -0.7, 0.2])
    assert np.allclose(spec.b_at(x), [x[1], x[0], math.exp(x[2])], atol=1e-14)


def test_space_spec_stores_canonical_family():
    rows = [[ex.Num(1.0), ex.Num(0.0)], [ex.Num(0.0), ex.Num(1.0)]]
    b = [ex.Num(0.3), ex.Num(0.0)]
    square = SpaceSpec(2, 3, "square", rows, b)
    assert (square.family, square.k) == ("generalized-square", 1)
    kropina = SpaceSpec(2, 2, "kropina", rows, b)
    assert (kropina.family, kropina.k) == ("generalized-kropina", 1)
    randers = SpaceSpec(2, 2, "randers", rows, b)
    assert (randers.family, randers.k) == ("generalized-square", 0)


def test_randers_partials_are_those_of_alpha_plus_beta():
    # generalized-square at k = 0 gives F = alpha + beta, F_a = F_b = 1 and no
    # second partials, for floats and for lanes
    alpha, beta = np.array([1.0, 0.7, 2.5]), np.array([0.0, 0.3, -1.2])
    for a, b in [*zip(alpha.tolist(), beta.tolist()), (alpha, beta)]:
        pp = phi_partials("randers", 1, a, b)
        assert np.array_equal(pp.F, a + b)
        assert np.array_equal(finsler_norm("randers", 1, a, b), a + b)
        for value, expected in ((pp.Fa, 1.0), (pp.Fb, 1.0), (pp.Faa, 0.0), (pp.Fbb, 0.0),
                                (pp.Fab, 0.0)):
            assert np.all(value == expected)


def test_validity_masks_randers_lanes_outside_alpha_plus_beta_positive():
    spec = make_space(family="randers", dim=2, b=["1", "0"])
    y = np.array([[1.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]])  # alpha + beta = 2, 0 and 0
    report = validity_check(spec, np.zeros((3, 2)), y)
    assert report.family_domain.tolist() == [True, False, False]
    assert report.F[0] == 2.0 and np.isnan(report.F[1:]).all() and not report.ok[1:].any()
    # where b^2 > 1 some draws have alpha + beta <= 0: masked, never raised
    flags = sample_flags(make_space(family="randers", dim=2, b=["2*x1", "0"]), 20, seed=3)
    assert np.all(flags.alpha + flags.beta > 0.0)


def _same_bits(u, v) -> bool:
    if dataclasses.is_dataclass(u):
        return all(_same_bits(getattr(u, f.name), getattr(v, f.name))
                   for f in dataclasses.fields(u))
    u, v = np.asarray(u), np.asarray(v)
    return u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


@pytest.mark.parametrize("alias, canonical", [("square", "generalized-square"),
                                              ("kropina", "generalized-kropina")])
def test_alias_bundle_equals_exponent_one_bit_for_bit(alias, canonical):
    potential = "exp(x3) + 0.2*x1*x2"
    via_alias = make_space(family=alias, k=3, potential=potential)
    direct = make_space(family=canonical, k=1, potential=potential)
    for x, y in (([0.1, -0.3, 0.2], [0.4, 0.2, 1.0]), ([0.5, 0.4, -0.6], [-0.3, 0.1, 0.9])):
        assert _same_bits(bundle_at(via_alias, x, y), bundle_at(direct, x, y))


def test_half_f_squared_rejects_zero_direction_on_jets():
    f = half_f_squared(make_space(k=2, potential="exp(x3)"), [0.1, 0.2, 0.3])
    with pytest.raises(ArithmeticError, match="alpha\\^2 <= 0"):
        f([Jet2(0.0, 1.0, 1.0), Jet2(0.0), Jet2(0.0)])


def test_base_point_record_is_passed_through():
    spec = make_space(k=2, potential="exp(x3) + 0.2*x1*x2",
                      a=[["2", "0.3", "0"], ["0.3", "1", "0"], ["0", "0", "1 + x1^2"]])
    x, y = [0.1, -0.3, 0.2], [0.4, 0.2, 1.0]
    point = base_point(spec, x)
    assert base_point(spec, point) is point
    flag = flag_point(spec, point, y)
    assert base_point(spec, flag) is flag
    assert _same_bits(flag, flag_point(spec, x, y))
    assert np.allclose(point.a @ point.a_inv, np.eye(3), atol=1e-14)
    assert np.allclose(point.a @ point.b_up, point.b, atol=1e-14)
    assert point.b2 == pytest.approx(float(point.b @ np.linalg.solve(point.a, point.b)), rel=1e-14)


def test_entry_points_accept_a_base_point_in_place_of_x(monkeypatch):
    spec = make_space(k=2, potential="exp(x3) + 0.2*x1*x2", a=[["1 + x3^2", "0", "0"],
                                                            ["0", "2", "0.1*x1"],
                                                            ["0", "0.1*x1", "1"]])
    x, y = np.array([0.1, -0.3, 0.2]), np.array([0.4, 0.2, 1.0])
    point = base_point(spec, x)
    a_calls = count_calls(monkeypatch, SpaceSpec, "a_at")
    from_point = (christoffel(spec, point), covariant_db(spec, point).b_cov,
                  bundle_at(spec, point, y).C, torsion_oracle(spec, point, y),
                  half_f_squared(spec, point)(list(y)))
    assert a_calls == []
    from_x = (christoffel(spec, x), covariant_db(spec, x).b_cov, bundle_at(spec, x, y).C,
              torsion_oracle(spec, x, y), half_f_squared(spec, x)(list(y)))
    assert all(_same_bits(u, v) for u, v in zip(from_point, from_x))


def test_sample_flags_evaluates_each_draw_once(monkeypatch):
    spec = make_space(k=2, potential="exp(x3)")
    a_calls = count_calls(monkeypatch, SpaceSpec, "a_at")
    checks = count_calls(monkeypatch, metric, "validity_check")
    flags = sample_flags(spec, 100, seed=7)
    # each block of draws is one validity_check over its lanes (x is args[1])
    draws = sum(len(args[1]) for args in checks)
    assert len(flags) == 100 and draws > 100  # some draws are rejected
    assert sum(len(args[1]) for args in a_calls) == draws
