import numpy as np
import pytest

from conftest import (
    each_flag,
    exp_fixture,
    full_difference,
    lane,
    make_space,
    radial_fixture,
    spray,
    tangential_flag,
    tangential_points_and_dirs,
    varying_space,
)
from finslerkit.connection import covariant_db, christoffel, difference_tensor
from finslerkit.hypersurface import chart_at
from finslerkit.metric import (
    FAMILIES,
    flag_point,
    sample_flags,
)
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
    # generalized square, k = 1, at beta = 0: p0 = 6, p1 = 2, so B_k = 6 b_k + 2 y_k
    # and, b being a gradient (F_ij = 0), D^i_00 = B^i E_00
    spec = make_space(k=1, potential="0.1*x3 + 0.2*x1^2")
    fl = flag_point(spec, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])  # alpha = 1, beta = 0
    bundle = bundle_at(spec, fl.x, fl.y)
    conn = covariant_db(spec, fl.x)
    assert (bundle.metric.p0, bundle.metric.p1) == (6.0, 2.0)
    B_up = bundle.g_inv @ (6.0 * fl.b + 2.0 * fl.y_low)
    E00 = fl.y @ conn.E @ fl.y
    assert E00 == pytest.approx(0.4, abs=1e-15)
    d00 = np.einsum("ijk,j,k->i", full_difference(bundle, conn), fl.y, fl.y)
    assert np.abs(d00 - B_up * E00).max() < 1e-14


def test_ingredients_vanish_for_constant_one_form():
    # b_ij = 0, so E, F, A, lambda and b0 all vanish and D does exactly
    spec = make_space(k=2, b=["0", "0", "0.1"])
    fl = flag_point(spec, [0.4, 0.2, -0.3], [0.6, -1.0, 0.2])
    bundle = bundle_at(spec, fl.x, fl.y)
    conn = covariant_db(spec, fl.x)
    assert np.abs(conn.b_cov).max() == 0.0
    assert np.abs(full_difference(bundle, conn)).max() == 0.0


def test_b_matrix_annihilates_direction_at_any_flag():
    # B_ij y^j = 0 always: the m-covector and the angular projector both kill y.
    # So no B_j0 term survives in D^i_00, which for a gradient b is B^i E_00.
    spec = make_space(k=2, potential="exp(x3)")
    for fl in each_flag(sample_flags(spec, 15, seed=3)):
        bundle = bundle_at(spec, fl.x, fl.y)
        conn = covariant_db(spec, fl.x)
        mc = bundle.metric
        B_mat = 0.5 * (mc.p1 * (fl.a - np.outer(fl.y_low, fl.y_low) / fl.alpha ** 2)
                       + bundle.dp0_dbeta * np.outer(bundle.m, bundle.m))
        assert np.abs(B_mat @ fl.y).max() < 1e-12 * (1.0 + np.abs(B_mat).max())
        B_up = bundle.g_inv @ (mc.p0 * fl.b + mc.p1 * fl.y_low)
        d00 = np.einsum("ijk,j,k->i", full_difference(bundle, conn), fl.y, fl.y)
        E00 = fl.y @ conn.E @ fl.y
        assert np.abs(d00 - B_up * E00).max() < 1e-10 * (1.0 + np.abs(d00).max())


def test_difference_tensor_vanishes_for_constant_one_form():
    spec = make_space(k=1, b=["0", "0", "0.1"])
    bundle = bundle_at(spec, [0.2, -0.1, 0.3], [0.4, 1.0, -0.2])
    d = full_difference(bundle, covariant_db(spec, bundle.flag))
    assert np.abs(d).max() == 0.0


def test_difference_tensor_vanishes_without_one_form():
    spec = make_space(family="riemannian", b=["0", "0", "0"])
    rng = np.random.default_rng(23)
    for _ in range(100):
        x = rng.uniform(-1, 1, size=3)
        y = rng.normal(size=3)
        bundle = bundle_at(spec, x, y)
        d = full_difference(bundle, covariant_db(spec, bundle.flag))
        assert np.abs(d).max() == 0.0


def test_difference_tensor_symmetric_for_gradient_field():
    spec, _ = exp_fixture(2)
    for fl in each_flag(sample_flags(spec, 10, seed=9)):
        bundle = bundle_at(spec, fl.x, fl.y)
        d = full_difference(bundle, covariant_db(spec, bundle.flag))
        assert np.abs(d - np.transpose(d, (0, 2, 1))).max() < 1e-10 * (
            1.0 + np.abs(d).max()
        )


def test_zero_contractions_computed_two_ways():
    # assemble-then-contract equals contract-then-assemble:
    # D^i_00 = B^i E_00 + 2 F^i_0 B_0 (exact consequence of B_i0 = 0 and the
    # y-annihilation of the torsion); checked on a NON-gradient field too
    spec = make_space(k=1, b=["0.05*x2", "-0.05*x1", "0.1"])
    for fl in each_flag(sample_flags(spec, 10, seed=11)):
        bundle = bundle_at(spec, fl.x, fl.y)
        conn = covariant_db(spec, fl.x)
        assert np.abs(conn.Fij).max() > 0.0  # genuinely non-gradient
        d = full_difference(bundle, conn)
        d00 = np.einsum("ijk,j,k->i", d, fl.y, fl.y)
        B_low = bundle.metric.p0 * fl.b + bundle.metric.p1 * fl.y_low
        B_up = bundle.g_inv @ B_low
        F0 = bundle.g_inv @ conn.Fij @ fl.y   # F^i_0
        E00 = fl.y @ conn.E @ fl.y
        B0 = B_low @ fl.y
        assembled = B_up * E00 + 2.0 * B0 * F0
        assert np.abs(d00 - assembled).max() < 1e-10 * (1.0 + np.abs(d00).max())


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
            d = full_difference(bundle, conn)
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
            d = full_difference(bundle, conn)
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
        d = full_difference(bundle, conn)
        d00 = np.einsum("ijk,j,k->i", d, y, y)
        b00 = float(y @ conn.b_cov @ y)
        got = b00 - float(bundle.flag.b @ d00)
        assert got == pytest.approx(b00 / (1 + k * (k + 1) * b2), rel=1e-8)
        printed = b2 * b00 / (1 + k * (k + 1))
        assert abs(got - printed) > 0.5 * abs(got)


# -- the Cartan horizontal coefficients from F alone


def _cartan_oracle(spec, x, y) -> np.ndarray:
    """F^i_jk of the Cartan connection at the flag (x, y), from L = F^2/2 alone.

    One `spray` pass over the stencil points z +- h e_m and z +- (h/2) e_m of
    z = (x, y) gives g = L_yy and the spray G^i there.  Central differences with
    the two steps, combined as (4 D(h/2) - D(h)) / 3, give d_x g, d_y g and
    N^i_j = dG^i/dy^j; then delta_k g_ij = d_k g_ij - N^m_k d_{y^m} g_ij and
    F^i_jk = (1/2) g^ih (delta_j g_hk + delta_k g_hj - delta_h g_jk)
    (Bao, Chern and Shen, An Introduction to Riemann-Finsler Geometry, ch. 2).
    """
    d, h = spec.dim, 1e-3
    eye = np.eye(2 * d)
    z = np.concatenate([x, y])
    points = z + np.concatenate([np.zeros((1, 2 * d)), h * eye, -h * eye,
                                 0.5 * h * eye, -0.5 * h * eye])
    G, g = spray(spec, points)

    def derivative(v):  # [m, ...] = d v / d z^m at z
        plus, minus, half_plus, half_minus = np.split(v[1:], 4)
        return (4.0 * (half_plus - half_minus) / h - (plus - minus) / (2.0 * h)) / 3.0

    dg, N = derivative(g), derivative(G)[d:].T  # N[i, j] = dG^i / dy^j
    delta = dg[:d] - np.einsum("mk,mij->kij", N, dg[d:])  # delta[k, i, j] = delta_k g_ij
    low = np.einsum("jhk->hjk", delta) + np.einsum("khj->hjk", delta) - delta
    return 0.5 * np.einsum("ih,hjk->ijk", np.linalg.inv(g[0]), low)


def _assert_cartan(spec, flag):
    bundle = bundle_at(spec, flag.x, flag.y)
    conn = covariant_db(spec, flag.x)
    got = conn.gamma + full_difference(bundle, conn)
    oracle = _cartan_oracle(spec, flag.x, flag.y)
    assert np.abs(got - oracle).max() <= 1e-6 * (1.0 + np.abs(got).max())


def _general_flags(spec, n: int, seed: int):
    """In-domain flags with beta != 0; Kropina's keep beta >= alpha |b| / 2."""
    kropina = spec.family == "generalized-kropina"
    flags = [f for f in each_flag(sample_flags(spec, 8 * n, seed)) if abs(f.beta) > 1e-3 * f.alpha
             and (not kropina or f.beta >= 0.5 * f.alpha * np.sqrt(f.b2))]
    assert len(flags) >= n
    return flags[:n]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_cartan_coefficients_match_the_oracle_at_general_flags(family, k, d):
    """Christoffel + D against the Cartan coefficients taken from F alone, on
    a curved a and a b that is no gradient (s_ij != 0), so that every term of
    D counts.  Kropina flags keep beta >= alpha |b| / 2: the oracle's fixed
    step meets the singular edge beta = 0 at distance beta / |b| from y, and
    its remainder grows like (h |b| / beta)^2.  On these spaces flags above
    that bound agree to 1.3e-7; below it the error reaches 7e-3 at
    beta = 0.02 alpha |b| and exceeds 1 nearer the edge."""
    curl = [f"0.2 + 0.3*x{i + 1}" for i in range(1, d)] + ["0.2 - 0.3*x1"]
    spec = varying_space(family, k, d, b=curl)
    for flag in _general_flags(spec, 2, seed=10 * k + d):
        assert np.abs(covariant_db(spec, flag.x).Fij).max() > 0.1
        _assert_cartan(spec, flag)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("fixture", [exp_fixture, radial_fixture])
def test_cartan_coefficients_match_the_oracle_at_tangential_flags(fixture, k):
    """The beta = 0 flags of a level surface, on which `classify` evaluates D."""
    spec, surface = fixture(k)
    for x0, v in tangential_points_and_dirs(surface, spec, 3, seed=50 + k):
        _assert_cartan(spec, tangential_flag(spec, chart_at(surface, x0), v))


# -- the difference tensor contracted with a covector, as the frames read it


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("family, k", [("randers", 1), ("generalized-square", 1),
                                       ("generalized-square", 2), ("generalized-square", 3),
                                       ("matsumoto", 1)])
def test_contracted_difference_tensor_is_linear_in_the_covector(family, k, d):
    """difference_tensor(bundle, conn, n) = n_i D^i_jk, with D from the basis covectors,
    and is linear in n: general flags (beta != 0) on a curved a, b no gradient and
    b^2 != 1, one covector per flag; Randers is the generalized square metric at k = 0."""
    curl = [f"0.2 + 0.3*x{i + 1}" for i in range(1, d)] + ["0.2 - 0.3*x1"]
    spec = varying_space(family, k, d, b=curl)
    batch = sample_flags(spec, 12, seed=80 + 10 * k + d)
    flags = lane(batch, np.flatnonzero(np.abs(batch.beta) > 1e-3 * batch.alpha))
    assert len(flags) >= 6 and (np.abs(flags.b2 - 1.0) > 1e-3).all()
    bundle, conn = bundle_at(spec, flags, flags.y), covariant_db(spec, flags.x)
    assert np.abs(conn.Fij).max() > 0.1
    rng = np.random.default_rng(k + d)
    n1, n2 = rng.normal(size=(2, len(flags), d))
    one, two = difference_tensor(bundle, conn, n1), difference_tensor(bundle, conn, n2)

    def rel(got, ref):
        return float(np.abs(got - ref).max() / np.abs(ref).max())

    assert rel(one, np.einsum("ni,nijk->njk", n1, full_difference(bundle, conn))) <= 1e-14
    assert rel(difference_tensor(bundle, conn, 0.7 * n1 - 1.3 * n2), 0.7 * one - 1.3 * two) <= 1e-14
