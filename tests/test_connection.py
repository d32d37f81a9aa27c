import numpy as np
import pytest

from conftest import exp_fixture, make_space, radial_fixture
from finslerkit.connection import (
    covariant_db,
    christoffel,
    difference_ingredients,
    difference_tensor,
)
from finslerkit.metric import flag_point, sample_flags
from finslerkit.tensors import bundle_at


def test_christoffel_vanishes_for_flat_metric():
    spec = make_space(k=1, potential="0.1*x3")
    assert np.abs(christoffel(spec, [0.4, -0.2, 0.7])).max() == 0.0


def test_christoffel_polar_like_metric():
    spec = make_space(
        family="riemannian", dim=2, b=["0", "0"], a=[["1", "0"], ["0", "x1^2"]]
    )
    g = christoffel(spec, [2.0, 0.3])
    assert g[1, 0, 1] == pytest.approx(0.5)   # 1/x1
    assert g[1, 1, 0] == pytest.approx(0.5)
    assert g[0, 1, 1] == pytest.approx(-2.0)  # -x1
    # all other entries vanish for this diagonal metric
    mask = np.zeros_like(g, dtype=bool)
    mask[1, 0, 1] = mask[1, 1, 0] = mask[0, 1, 1] = True
    assert np.abs(g[~mask]).max() == 0.0


def test_christoffel_symmetry_and_fd_cross_check():
    spec = make_space(
        family="riemannian",
        dim=2,
        b=["0", "0"],
        a=[["1 + x2^2", "0.1*x1*x2"], ["0.1*x1*x2", "2 + x1^2"]],
    )
    x = np.array([0.4, -0.6])
    g = christoffel(spec, x)
    assert np.abs(g - np.transpose(g, (0, 2, 1))).max() == 0.0
    # finite-difference reconstruction of the lowered symbol
    h = 1e-6
    da = np.zeros((2, 2, 2))
    for l in range(2):
        xp, xm = x.copy(), x.copy()
        xp[l] += h
        xm[l] -= h
        da[l] = (spec.a_at(xp) - spec.a_at(xm)) / (2 * h)
    a_inv = np.linalg.inv(spec.a_at(x))
    low = 0.5 * (np.einsum("jlk->ljk", da) + np.einsum("kjl->ljk", da) - da)
    assert np.abs(g - np.einsum("il,ljk->ijk", a_inv, low)).max() < 1e-8


def test_covariant_db_constant_one_form():
    spec = make_space(k=1, b=["0", "0", "0.1"])
    conn = covariant_db(spec, [0.3, 0.1, -0.2])
    assert np.abs(conn.b_cov).max() == 0.0
    assert np.abs(conn.E).max() == 0.0 and np.abs(conn.Fij).max() == 0.0


def test_covariant_db_exponential_gradient():
    spec, _ = exp_fixture(1)
    x = np.array([0.5, -0.1, 0.4])
    conn = covariant_db(spec, x)
    expected = np.zeros((3, 3))
    expected[2, 2] = np.exp(x[2])
    assert np.abs(conn.b_cov - expected).max() < 1e-12


def test_gradient_field_on_curved_metric_has_symmetric_derivative():
    spec = make_space(
        k=1,
        potential="exp(x3) + 0.2*x1",
        a=[["1 + 0.3*x2^2", "0", "0"], ["0", "1", "0.1*x1"], ["0", "0.1*x1", "2"]],
    )
    for x in ([0.2, -0.4, 0.1], [0.0, 0.3, -0.5]):
        conn = covariant_db(spec, x)
        assert np.abs(conn.Fij).max() < 1e-10 * (1.0 + np.abs(conn.b_cov).max())


def test_ingredients_at_beta_zero_reference():
    spec = make_space(k=1, potential="0.1*x3")
    fl = flag_point(spec, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])  # alpha = 1, beta = 0
    bundle = bundle_at(spec, fl.x, fl.y)
    conn = covariant_db(spec, fl.x)
    di = difference_ingredients(bundle, conn)
    assert np.abs(di.B_low - (6.0 * fl.b + 2.0 * fl.y_low)).max() < 1e-14
    assert di.B0 == pytest.approx(float(di.B_low @ fl.y), abs=1e-15)


def test_ingredients_vanish_for_constant_one_form():
    spec = make_space(k=2, b=["0", "0", "0.1"])
    fl = flag_point(spec, [0.4, 0.2, -0.3], [0.6, -1.0, 0.2])
    bundle = bundle_at(spec, fl.x, fl.y)
    conn = covariant_db(spec, fl.x)
    di = difference_ingredients(bundle, conn)
    assert np.abs(di.A).max() == 0.0
    assert np.abs(di.lam).max() == 0.0


def test_b_matrix_annihilates_direction_at_any_flag():
    # B_ij y^j = 0 always: the m-covector and the angular projector both kill y
    spec = make_space(k=2, potential="exp(x3)")
    for fl in sample_flags(spec, 15, seed=3):
        bundle = bundle_at(spec, fl.x, fl.y)
        conn = covariant_db(spec, fl.x)
        di = difference_ingredients(bundle, conn)
        assert np.abs(di.B_mat @ fl.y).max() < 1e-12 * (1.0 + np.abs(di.B_mat).max())


def test_difference_tensor_vanishes_for_constant_one_form():
    spec = make_space(k=1, b=["0", "0", "0.1"])
    bundle = bundle_at(spec, [0.2, -0.1, 0.3], [0.4, 1.0, -0.2])
    d = difference_tensor(bundle, covariant_db(spec, bundle.flag))
    assert np.abs(d).max() == 0.0


def test_difference_tensor_vanishes_without_one_form():
    spec = make_space(family="riemannian", b=["0", "0", "0"])
    rng = np.random.default_rng(23)
    for _ in range(100):
        x = rng.uniform(-1, 1, size=3)
        y = rng.normal(size=3)
        bundle = bundle_at(spec, x, y)
        d = difference_tensor(bundle, covariant_db(spec, bundle.flag))
        assert np.abs(d).max() == 0.0


def test_difference_tensor_symmetric_for_gradient_field():
    spec, _ = exp_fixture(2)
    for fl in sample_flags(spec, 10, seed=9):
        bundle = bundle_at(spec, fl.x, fl.y)
        d = difference_tensor(bundle, covariant_db(spec, bundle.flag))
        assert np.abs(d - np.transpose(d, (0, 2, 1))).max() < 1e-10 * (
            1.0 + np.abs(d).max()
        )


def test_zero_contractions_computed_two_ways():
    # assemble-then-contract equals contract-then-assemble:
    # D^i_00 = B^i E_00 + 2 F^i_0 B_0 (exact consequence of B_i0 = 0 and the
    # y-annihilation of the torsion); checked on a NON-gradient field too
    spec = make_space(k=1, b=["0.05*x2", "-0.05*x1", "0.1"])
    for fl in sample_flags(spec, 10, seed=11):
        bundle = bundle_at(spec, fl.x, fl.y)
        conn = covariant_db(spec, fl.x)
        assert np.abs(conn.Fij).max() > 0.0  # genuinely non-gradient
        di = difference_ingredients(bundle, conn)
        d = difference_tensor(bundle, conn)
        d00 = np.einsum("ijk,j,k->i", d, fl.y, fl.y)
        f0 = di.F_mixed @ fl.y
        assembled = di.B_up * di.E00 + 2.0 * di.B0 * f0
        assert np.abs(d00 - assembled).max() < 1e-10 * (1.0 + np.abs(d00).max())
        # B_0 both ways
        assert di.B0 == pytest.approx(float((bundle.metric.p0 * fl.b
                                             + bundle.metric.p1 * fl.y_low) @ fl.y), abs=1e-12)


def _tangential_radial_flag(spec, rng):
    # point on the unit sphere and direction orthogonal to it: beta = 0
    x = rng.normal(size=3)
    x /= np.linalg.norm(x)
    y = rng.normal(size=3)
    y -= (y @ x) * x
    return x, y


def test_contracted_difference_identity_at_tangential_flags():
    # b_i D^i_00 = k(k+1) b^2 b_00 / zeta at beta = 0 (direct contraction);
    # with b^2 = 1 this equals k(k+1) b_00 / (1 + k(k+1))
    rng = np.random.default_rng(41)
    for k in (1, 2, 3):
        spec, _ = radial_fixture(k)
        for _ in range(5):
            x, y = _tangential_radial_flag(spec, rng)
            bundle = bundle_at(spec, x, y)
            assert abs(bundle.flag.beta) < 1e-12
            conn = covariant_db(spec, bundle.flag)
            d = difference_tensor(bundle, conn)
            d00 = np.einsum("ijk,j,k->i", d, y, y)
            b00 = float(y @ conn.b_cov @ y)
            got = float(bundle.flag.b @ d00)
            expected = k * (k + 1) * bundle.flag.b2 * b00 / bundle.reciprocal.zeta
            assert got == pytest.approx(expected, rel=1e-10)


def test_cartan_covariant_scalar_identity_on_unit_length_one_form():
    # b_{i|j} y^i y^j = b_00 - b_r D^r_00 = b_00 / (1 + k(k+1) b^2); on the
    # unit sphere of the radial fixture b^2 = 1, where this coincides with the
    # printed b^2 b_00 / (1 + k(k+1)); b^2 != 1 is covered by the next test
    rng = np.random.default_rng(42)
    for k in (1, 2, 3):
        spec, _ = radial_fixture(k)
        for _ in range(5):
            x, y = _tangential_radial_flag(spec, rng)
            bundle = bundle_at(spec, x, y)
            conn = covariant_db(spec, bundle.flag)
            d = difference_tensor(bundle, conn)
            d00 = np.einsum("ijk,j,k->i", d, y, y)
            b00 = float(y @ conn.b_cov @ y)
            got = b00 - float(bundle.flag.b @ d00)
            assert got == pytest.approx(b00 / bundle.reciprocal.zeta, rel=1e-8)
            assert bundle.flag.b2 == pytest.approx(1.0, abs=1e-12)
            assert got == pytest.approx(bundle.flag.b2 * b00 / (1 + k * (k + 1)), rel=1e-8)


@pytest.mark.parametrize("c", [0.3, 2.0])
@pytest.mark.parametrize("k", [1, 2])
def test_cartan_covariant_scalar_identity_off_unit_length(k, c):
    # potential c|x|^2/2 has b = c x, so on the unit sphere b^2 = c^2 (0.09 or
    # 4) and b_00 = c |y|^2; the identity is b_00 / (1 + k(k+1) b^2), which the
    # printed b^2 b_00 / (1 + k(k+1)) misses by a factor of 12 to 50 here
    spec = make_space(k=k, potential=f"{c}*(x1^2 + x2^2 + x3^2)/2")
    b2 = c * c
    rng = np.random.default_rng(43)
    for _ in range(5):
        x, y = _tangential_radial_flag(spec, rng)
        bundle = bundle_at(spec, x, y)
        assert abs(bundle.flag.beta) < 1e-12
        assert bundle.flag.b2 == pytest.approx(b2, rel=1e-12)
        conn = covariant_db(spec, bundle.flag)
        d = difference_tensor(bundle, conn)
        d00 = np.einsum("ijk,j,k->i", d, y, y)
        b00 = float(y @ conn.b_cov @ y)
        got = b00 - float(bundle.flag.b @ d00)
        assert got == pytest.approx(b00 / (1 + k * (k + 1) * b2), rel=1e-8)
        printed = b2 * b00 / (1 + k * (k + 1))
        assert abs(got - printed) > 0.5 * abs(got)
