"""Lane-valued evaluation: a batch of points gives, point by point, what the
same points give as batches of one, and a lane outside the domain raises the
typed error of the per-point call."""

import numpy as np
import pytest

from conftest import count_calls, make_space
from finslerkit import expr as ex
from finslerkit import geodesic, tensors
from finslerkit.geodesic import _length_derivatives, _segment_length
from finslerkit.metric import (
    FAMILIES,
    FamilyDomainError,
    base_point,
    finsler_norm,
    phi_partials,
    sample_flags,
    stack_points,
)
from finslerkit.numerics import Jet2, fd_hessian, jet_eval
from finslerkit.tensors import (
    AuditParams,
    audit_flag,
    audit_sweep,
    half_f_squared,
    torsion_oracle,
)


def _varying_space(family: str, k: int, d: int):
    """Position-dependent, tridiagonal and diagonally dominant a; curved b."""
    a = [["0"] * d for _ in range(d)]
    for i in range(d):
        a[i][i] = f"1 + 0.2*x{i + 1}^2"
        if i + 1 < d:
            a[i][i + 1] = a[i + 1][i] = f"0.1*x{d - i}"
    return make_space(family=family, k=k, dim=d, a=a,
                      potential=f"0.3*x1 + 0.1*x2*x{d} + 0.05*x{d}^2")


def _flags(spec, n: int, seed: int):
    flags = sample_flags(spec, n, seed)
    scales = np.exp(np.random.default_rng(seed).uniform(-0.7, 0.7, size=n))
    return flags, np.array([f.y * s for f, s in zip(flags, scales)])


def _same_bits(u, v) -> bool:
    u, v = np.asarray(u), np.asarray(v)
    return u.shape == v.shape and u.tobytes() == v.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_batched_oracles_match_batches_of_one(family, k, d):
    spec = _varying_space(family, k, d)
    flags, ys = _flags(spec, 3, seed=10 * k + d)
    batch = stack_points(flags)
    f = half_f_squared(spec, batch)
    jet = jet_eval(f, ys)
    fd = fd_hessian(f, ys, step=1e-4)
    torsion = torsion_oracle(spec, batch, ys)
    assert jet.hessian.shape == fd.shape == (3, d, d) and torsion.shape == (3, d, d, d)
    for n, (flag, y) in enumerate(zip(flags, ys)):
        one = half_f_squared(spec, flag)
        single = jet_eval(one, y)
        assert _same_bits(jet.value[n], single.value)
        assert _same_bits(jet.gradient[n], single.gradient)
        assert _same_bits(jet.hessian[n], single.hessian)
        assert _same_bits(torsion[n], torsion_oracle(spec, flag, y))
        fd_one = fd_hessian(one, y, step=1e-4)
        assert np.abs(fd[n] - fd_one).max() <= 1e-15 * np.abs(fd_one).max()


@pytest.mark.parametrize("family", ["generalized-square", "matsumoto"])
def test_segment_jets_match_one_segment_at_a_time(family):
    spec = _varying_space(family, 2, 3)
    rng = np.random.default_rng(5)
    z = rng.uniform(-0.3, 0.3, size=(4, 6)) + np.array([0, 0, 0, 0.5, 0.2, 0.1])

    def segment(v):
        return _segment_length(spec, [(v[j] + v[3 + j]) * 0.5 for j in range(3)],
                               [v[3 + j] - v[j] for j in range(3)])

    batch = jet_eval(segment, z)
    for s in range(len(z)):
        one = jet_eval(segment, z[s])
        assert _same_bits(batch.gradient[s], one.gradient)
        assert _same_bits(batch.hessian[s], one.hessian)


def test_batched_audit_reports_each_checks_worst_flag():
    spec = _varying_space("generalized-square", 2, 3)
    flags, ys = _flags(spec, 6, seed=4)
    per_flag = [audit_flag(spec, f, y) for f, y in zip(flags, ys)]
    rows = audit_flag(spec, flags, ys)
    assert [r.check for r in rows] == [r.check for r in per_flag[0]]
    for row in rows:
        errors = [next(r.error for r in fr if r.check == row.check) for fr in per_flag]
        if row.check == "fundamental-vs-fd-oracle":
            assert row.error == pytest.approx(max(errors), rel=1e-6)
        else:
            assert row.error == max(errors)


def _counted(f):
    calls = []

    def wrapper(ys):
        calls.append(np.shape(getattr(ys[0], "value", ys[0])))  # a jet's lanes, or an array's
        return f(ys)

    return wrapper, calls


def test_each_oracle_calls_its_function_once_per_batch():
    spec = _varying_space("randers", 1, 3)
    flags, ys = _flags(spec, 5, seed=2)
    f, calls = _counted(half_f_squared(spec, stack_points(flags)))
    jet_eval(f, ys)
    assert calls == [(6, 5)]  # 6 index pairs i <= j, 5 points
    calls.clear()
    fd_hessian(f, ys)
    assert calls == [(19, 5)]  # 1 + 2d + 4 d(d-1)/2 stencil points
    calls.clear()
    fd_hessian(f, ys, richardson=True)
    assert calls == [(38, 5)]  # both steps in the one call


def test_audit_sweep_runs_each_oracle_once(monkeypatch):
    spec = make_space(k=2, potential="exp(x3) + 0.2*x1*x2")
    counts = {name: count_calls(monkeypatch, tensors, name)
              for name in ("jet_eval", "fd_hessian", "torsion_oracle")}
    assert audit_sweep(spec, AuditParams(samples=20, seed=3)).flags == 20
    assert {name: len(calls) for name, calls in counts.items()} == dict.fromkeys(counts, 1)


def test_length_derivatives_evaluate_the_norm_once(monkeypatch):
    spec = make_space(k=1, dim=2, potential="0.2*x1*x2")
    nodes = np.array([[0.0, 0.0], [0.3, 0.1], [0.5, 0.45], [0.8, 0.7], [1.0, 1.0]])
    calls = count_calls(monkeypatch, geodesic, "finsler_norm")
    _length_derivatives(spec, nodes)
    assert len(calls) == 1


def test_numpy_operands_defer_to_jets():
    jet = Jet2(3.0, 1.0)
    for out in (np.float64(2.0) * jet, jet * np.float64(2.0), np.ones(3) * jet,
                np.ones(3) + jet, np.ones(3) - jet, np.ones(3) / jet):
        assert isinstance(out, Jet2)
        assert np.asarray(out.value).dtype == np.float64


# -- guards: one lane outside the domain raises the per-point error


def _message(call) -> tuple[type, str]:
    with pytest.raises(ArithmeticError) as info:
        call()
    return type(info.value), str(info.value)


def _lanes(edge: float, inside: list[float]):
    return np.array(inside + [edge])


# the edges of test_precision_edges_raise_typed_errors, each as one lane
@pytest.mark.parametrize("family, k, alpha, beta", [
    ("generalized-kropina", 3, 1.0, 1e-105),
    ("generalized-kropina", 1, 1.0, 1e-200),
    ("kropina", 2, 1.0, 1e-105),
    ("matsumoto", 1, 1e200, 1e200 * (1 - 1e-15)),
    ("matsumoto", 1, 1e-200, 1e-200 * (1 - 2.0 ** -52)),
])
def test_edge_lane_raises_the_per_point_domain_error(family, k, alpha, beta):
    expected = _message(lambda: finsler_norm(family, k, alpha, beta))
    assert expected[0] is FamilyDomainError
    a, b = _lanes(alpha, [1.0, 1.3, 0.8]), _lanes(beta, [0.2, 0.1, 0.3])
    for args in ((a, b), (Jet2(a, 1.0), Jet2(b, 0.0, 1.0))):
        assert _message(lambda: finsler_norm(family, k, *args)) == expected
        assert _message(lambda: phi_partials(family, k, *args)) == expected
    inside = (Jet2(a[:-1], 1.0), Jet2(b[:-1], 0.0, 1.0))
    assert np.all(np.isfinite(phi_partials(family, k, *inside).Fab.d12))


def test_kropina_flag_lane_raises_in_every_oracle():
    spec = make_space(family="kropina", b=["0.5", "0.2", "0"])
    x = [0.1, -0.2, 0.3]
    point = base_point(spec, x)
    edge = np.array([2e-105, 0.0, 1.0])  # beta = 1e-105, alpha = 1
    ys = np.array([[1.0, 0.3, 0.2], [0.4, 1.0, -0.3], edge, [0.9, -0.2, 0.5]])
    batch = stack_points([point] * len(ys))
    expected = _message(lambda: jet_eval(half_f_squared(spec, point), edge))
    assert expected == (FamilyDomainError,
                        "generalized-kropina: requires beta > 0 (and finite partials)")
    f = half_f_squared(spec, batch)
    assert _message(lambda: jet_eval(f, ys)) == expected
    assert _message(lambda: fd_hessian(f, ys)) == expected
    assert _message(lambda: torsion_oracle(spec, batch, ys)) == expected
    assert _message(lambda: torsion_oracle(spec, point, edge)) == expected
    assert _message(lambda: audit_flag(spec, [point] * len(ys), ys)) == expected
    rows = audit_flag(spec, [point] * 3, np.delete(ys, 2, axis=0))
    assert all(np.isfinite(r.error) for r in rows)


def test_zero_direction_lane_raises_degenerate_direction():
    spec = make_space(k=2, potential="exp(x3)")
    point = base_point(spec, [0.1, 0.2, 0.3])
    ys = np.array([[1.0, 0.0, 0.2], [0.0, 0.0, 0.0]])
    expected = _message(lambda: half_f_squared(spec, point)(list(ys[1])))
    assert expected == (ArithmeticError, "degenerate direction: alpha^2 <= 0")
    f = half_f_squared(spec, stack_points([point, point]))
    assert _message(lambda: jet_eval(f, ys)) == expected


@pytest.mark.parametrize("text, edge", [
    ("1/x1", 0.0),
    ("x1^-2", 0.0),
    ("x1^0.5", -0.5),
    ("x1^-0.5", 0.0),
    ("x1^x1", 0.0),
    ("log(x1)", 0.0),
    ("sqrt(x1)", -1.0),
])
def test_expression_guards_raise_when_any_lane_fails(text, edge):
    e = ex.parse(text)
    expected = _message(lambda: e.eval([Jet2(edge, 1.0)]))
    assert expected[0] is ex.DomainError
    lanes = _lanes(edge, [0.5, 1.5])
    assert _message(lambda: e.eval([lanes])) == expected
    assert _message(lambda: e.eval([Jet2(lanes, 1.0)])) == expected
    assert np.all(np.isfinite(e.eval([Jet2(lanes[:-1], 1.0)]).d1))


@pytest.mark.parametrize("call, edge", [
    (lambda j: 1.0 / j, 0.0),
    (lambda j: j ** -1, 0.0),
    (lambda j: j.sqrt(), -1.0),
    (lambda j: j.sqrt(), 0.0),
    (lambda j: j ** 0.5, -1.0),
    (lambda j: j ** 0.5, 0.0),
    (lambda j: j ** j, 0.0),
    (lambda j: j.log(), 0.0),
])
def test_jet_guards_raise_when_any_lane_fails(call, edge):
    with pytest.raises((ArithmeticError, ValueError)) as one:
        call(Jet2(edge, 1.0, 1.0))
    with pytest.raises(type(one.value)) as lanes:
        call(Jet2(_lanes(edge, [0.5, 2.0]), 1.0, 1.0))
    assert str(lanes.value) == str(one.value)
