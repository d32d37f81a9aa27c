import math

import numpy as np
import pytest

from conftest import make_space
from finslerkit.numerics import (
    Jet2,
    fd_hessian,
    jet_eval,
    pd_check,
)
from finslerkit.tensors import half_f_squared


def test_jet_scalar_rules():
    # f(x) = x^3 / (1 + x) at x = 2 against hand derivatives
    x = 2.0
    j = Jet2(x, 1.0, 1.0, 0.0)
    out = j ** 3 / (1.0 + j)
    f = x ** 3 / (1 + x)
    fp = (3 * x ** 2 * (1 + x) - x ** 3) / (1 + x) ** 2
    fpp = (6 * x * (1 + x) ** 2 - 2 * (3 * x ** 2 * (1 + x) - x ** 3)) / (1 + x) ** 3
    assert out.value == pytest.approx(f, rel=1e-15)
    assert out.d1 == pytest.approx(fp, rel=1e-14)
    assert out.d12 == pytest.approx(fpp, rel=1e-13)


def test_jet_elementary_functions():
    x = 0.7
    j = Jet2(x, 1.0, 1.0, 0.0)
    for fn, f, fp, fpp in (
        ("exp", math.exp(x), math.exp(x), math.exp(x)),
        ("log", math.log(x), 1 / x, -1 / x ** 2),
        ("sin", math.sin(x), math.cos(x), -math.sin(x)),
        ("cos", math.cos(x), -math.sin(x), -math.cos(x)),
        ("sqrt", math.sqrt(x), 0.5 / math.sqrt(x), -0.25 / x ** 1.5),
    ):
        out = getattr(j, fn)()
        assert out.value == pytest.approx(f, rel=1e-15)
        assert out.d1 == pytest.approx(fp, rel=1e-14)
        assert out.d12 == pytest.approx(fpp, rel=1e-13)


def test_jet_negative_base_integer_power():
    j = Jet2(-2.0, 1.0, 1.0, 0.0)
    out = j ** 3
    assert out.value == -8.0
    assert out.d1 == pytest.approx(12.0)   # 3 x^2
    assert out.d12 == pytest.approx(-12.0)  # 6 x
    with pytest.raises(ValueError):
        j ** 0.5


def test_jet_minus_a_number_shifts_the_value_alone():
    out = Jet2(2.0, 1.0, 0.5, 0.25) - 3.0
    assert (out.value, out.d1, out.d2, out.d12) == (-1.0, 1.0, 0.5, 0.25)


def test_jet_over_a_zero_number_raises():
    with pytest.raises(ZeroDivisionError, match="^division by zero$"):
        Jet2(2.0, 1.0) / 0.0
    with pytest.raises(ZeroDivisionError, match="^division by zero$"):
        Jet2(np.array([2.0, 3.0]), 1.0) / np.array([1.0, 0.0])  # one lane is enough


def test_number_to_a_jet_power():
    # f(x) = 2^x: f' = ln 2 * 2^x, f'' = (ln 2)^2 * 2^x
    x, ln2 = 0.7, math.log(2.0)
    out = 2.0 ** Jet2(x, 1.0, 1.0, 0.0)
    assert out.value == pytest.approx(2.0 ** x, rel=1e-15)
    assert out.d1 == out.d2 == pytest.approx(ln2 * 2.0 ** x, rel=1e-15)
    assert out.d12 == pytest.approx(ln2 * ln2 * 2.0 ** x, rel=1e-15)
    with pytest.raises(ValueError, match="^non-positive base with dual exponent$"):
        (-1.0) ** Jet2(x, 1.0)


def test_jet_eval_sum_of_squares():
    jet = jet_eval(lambda y: sum(v * v for v in y), [1.0, 2.0])
    assert jet.value == 5.0
    assert np.allclose(jet.gradient, [2.0, 4.0])
    assert np.allclose(jet.hessian, 2.0 * np.eye(2))


def test_jet_eval_norm_squared_via_sqrt():
    # (sqrt(sum y^2))^2 keeps the Hessian 2*I despite the sqrt in the middle
    def f(y):
        s = sum(v * v for v in y)
        r = s.sqrt() if hasattr(s, "sqrt") else math.sqrt(s)
        return r * r

    jet = jet_eval(f, [0.3, -1.2, 0.7])
    assert np.abs(jet.hessian - 2.0 * np.eye(3)).max() < 1e-12


def test_jet_eval_hessian_symmetric():
    jet = jet_eval(lambda y: y[0] ** 3 * y[1] + (y[2] * y[0]).sin()
                   if hasattr(y[0], "sin") else y[0] ** 3 * y[1] + math.sin(y[2] * y[0]),
                   [0.5, -0.3, 0.9])
    assert np.abs(jet.hessian - jet.hessian.T).max() <= 1e-12


def test_small_b_plane_metric_matrix_from_oracle():
    # flat 3-space, k = 1, b = (0, 0, 0.1): half the y-Hessian of F^2 at
    # y = e1 must be the frozen matrix below (checked against direct FD too)
    spec = make_space(k=1, potential="0.1*x3")
    f = half_f_squared(spec, [0.0, 0.0, 0.0])
    jet = jet_eval(f, [1.0, 0.0, 0.0])
    expected = np.array([[1.0, 0.0, 0.2], [0.0, 1.0, 0.0], [0.2, 0.0, 1.06]])
    assert np.abs(jet.hessian - expected).max() < 1e-12
    assert np.abs(fd_hessian(f, [1.0, 0.0, 0.0]) - expected).max() < 1e-5


def test_fd_hessian_basics():
    h = fd_hessian(lambda y: y[0] * y[1], [0.3, -0.7], step=1e-4)
    assert abs(h[0, 1] - 1.0) < 1e-6
    h = fd_hessian(lambda y: sum(v * v for v in y), [0.5, 0.5], step=1e-4)
    assert np.abs(h - 2.0 * np.eye(2)).max() < 1e-6
    with pytest.raises(ValueError):
        fd_hessian(lambda y: y[0], [1.0], step=0.0)


def test_fd_hessian_takes_one_step_per_point():
    # lane n of a batch with steps h_n has the bits of the single point at step h_n
    f = _random_smooth(np.random.default_rng(5), 3)
    ys = np.random.default_rng(6).normal(size=(4, 3))
    steps = np.array([1e-4, 3e-5, 2e-6, 1e-3])
    batch = fd_hessian(f, ys, steps)
    for y, h, got in zip(ys, steps, batch):
        assert np.array_equal(got, fd_hessian(f, y, h))
    with pytest.raises(ValueError):
        fd_hessian(f, ys, np.array([1e-4, 0.0, 1e-4, 1e-4]))


def _random_smooth(rng, dim):
    w1 = rng.normal(size=dim)
    w2 = rng.normal(size=dim)
    c = rng.normal(size=3) * 0.5

    def f(y):
        s1 = sum(w * v for w, v in zip(w1, y))
        s2 = sum(w * v for w, v in zip(w2, y)) * 0.25
        sin1 = s1.sin() if hasattr(s1, "sin") else np.sin(s1)  # arrays from fd_hessian
        exp2 = s2.exp() if hasattr(s2, "exp") else np.exp(s2)
        quad = sum(v * v for v in y)
        return c[0] * sin1 + c[1] * exp2 + c[2] * quad

    return f


def test_oracles_agree_on_random_smooth_functions():
    rng = np.random.default_rng(99)
    for _ in range(500):
        dim = int(rng.integers(2, 5))
        f = _random_smooth(rng, dim)
        y = rng.uniform(-1.0, 1.0, size=dim)
        jet = jet_eval(f, y)
        fd = fd_hessian(f, y, step=1e-4)
        scale = 1.0 + np.abs(jet.hessian).max()
        assert np.abs(jet.hessian - fd).max() / scale < 1e-5


def test_pd_check_identity_and_indefinite():
    assert pd_check(np.eye(3)).ok
    res = pd_check(np.diag([1.0, -1.0]))
    assert not res.ok and res.pivot == 2


def test_pd_check_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        pd_check(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("shape", [(2, 3), (3,), (4, 2, 3)])
def test_pd_check_requires_square_matrices(shape):
    with pytest.raises(ValueError, match="^square matrix required$"):
        pd_check(np.ones(shape))


def test_pd_check_agrees_with_power_iteration():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        r = rng.normal(size=(d, d))
        m = r.T @ r + 0.05 * np.eye(d)
        assert pd_check(m).ok
        # smallest eigenvalue estimate via power iteration on (c I - m)
        v = rng.normal(size=d)
        for _ in range(200):
            v = m @ v
            v /= np.linalg.norm(v)
        lam_max = float(v @ m @ v)
        w = rng.normal(size=d)
        shifted = lam_max * np.eye(d) - m
        for _ in range(300):
            w = shifted @ w
            n = np.linalg.norm(w)
            if n < 1e-300:
                break
            w /= n
        lam_min = lam_max - float(w @ shifted @ w)
        assert lam_min >= -1e-8

