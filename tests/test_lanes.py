"""Lane-valued evaluation: a batch of points gives, point by point, what the
same points give as batches of one, and a lane outside the domain raises the
typed error of the per-point call.  This holds for the derivative oracles,
for the float kernels (bundles, difference tensors and hypersurface frames)
and for sampling: base points, the positive-definiteness test and the
validity check, which masks a failing lane instead of raising; and for the
x-only pass of classification: surface points, connections and charts.
The hv-torsion oracle's complex step agrees with a dual-number derivative,
and scales with each flag's direction."""

import dataclasses
import types

import numpy as np
import pytest

from conftest import (
    count_calls,
    each_flag,
    exp_fixture,
    full_difference,
    lane,
    make_space,
    one_frame,
    plane_fixture,
    radial_fixture,
    rel_error,
    stack_points,
    stacked_frame,
    varying_space,
)
from finslerkit import expr as ex
from finslerkit import classifier, connection, geodesic, hypersurface, metric, tensors
from finslerkit.classifier import surface_points
from finslerkit.connection import covariant_db
from finslerkit.geodesic import _length_derivatives, _segment_length
from finslerkit.hypersurface import LevelSurface, OffSurfaceError, chart_at, unit_normal
from finslerkit.metric import (
    FAMILIES,
    SAMPLE_BOX,
    DegenerateMetricError,
    FamilyDomainError,
    FlagPoint,
    alpha_beta_generic,
    base_point,
    finsler_norm,
    phi_partials,
    sample_flags,
    validity_check,
)
from finslerkit.numerics import Jet2, dot, fd_hessian, jet_eval, pd_check
from finslerkit.tensors import (
    AuditParams,
    SingularCoefficientError,
    angular_coefficients,
    audit_flag,
    audit_sweep,
    bundle_at,
    fundamental_tensor,
    half_f_squared,
    metric_coefficients,
    torsion_oracle,
)


def _flags(spec, n: int, seed: int):
    flags = list(each_flag(sample_flags(spec, n, seed)))
    scales = np.exp(np.random.default_rng(seed).uniform(-0.7, 0.7, size=n))
    return flags, np.array([f.y * s for f, s in zip(flags, scales)])


def _same_bits(u, v) -> bool:
    u, v = np.asarray(u), np.asarray(v)
    return u.shape == v.shape and u.tobytes() == v.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_batched_oracles_match_batches_of_one(family, k, d):
    spec = varying_space(family, k, d)
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
    spec = varying_space(family, 2, 3)
    rng = np.random.default_rng(5)
    z = rng.uniform(-0.3, 0.3, size=(4, 6)) + np.array([0, 0, 0, 0.5, 0.2, 0.1])

    def segment(v):
        return _segment_length(spec, v[:3], v[3:])

    batch = jet_eval(segment, z)
    for s in range(len(z)):
        one = jet_eval(segment, z[s])
        assert _same_bits(batch.gradient[s], one.gradient)
        assert _same_bits(batch.hessian[s], one.hessian)


def test_batched_audit_reports_each_checks_worst_flag():
    spec = varying_space("generalized-square", 2, 3)
    flags, ys = _flags(spec, 6, seed=4)
    per_flag = [audit_flag(spec, f, y) for f, y in zip(flags, ys)]
    rows = audit_flag(spec, stack_points(flags), ys)
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
        parts = [getattr(ys[0], p) for p in Jet2.__slots__] if isinstance(ys[0], Jet2) else ys[:1]
        calls.append(np.broadcast_shapes(*map(np.shape, parts)))  # a jet's lanes, or an array's
        return f(ys)

    return wrapper, calls


def test_each_oracle_calls_its_function_once_per_batch():
    spec = varying_space("randers", 1, 3)
    flags, ys = _flags(spec, 5, seed=2)
    f, calls = _counted(half_f_squared(spec, stack_points(flags)))
    jet_eval(f, ys)
    assert calls == [(6, 5)]  # 6 index pairs i <= j, 5 points
    calls.clear()
    fd_hessian(f, ys)
    assert calls == [(19, 5)]  # 1 + 2d + 4 d(d-1)/2 stencil points


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_segment_lanes_match_one_segment_at_a_time(family, k):
    spec = varying_space(family, k, 3)
    rng = np.random.default_rng(10 + k)
    nodes = np.cumsum(rng.uniform(0.05, 0.3, size=(9, 3)), axis=0)  # beta > 0: Kropina too
    lo, hi = nodes[:-1].T, nodes[1:].T
    lengths = _segment_length(spec, lo, hi)
    assert lengths.shape == (8,)
    for s in range(8):
        assert _same_bits(lengths[s:s + 1], _segment_length(spec, lo[:, s:s + 1], hi[:, s:s + 1]))


def test_polyline_length_evaluates_the_norm_once(monkeypatch):
    spec = make_space(family="matsumoto", k=1, dim=2, potential="0.2*x1*x2")
    nodes = np.array([[0.0, 0.0], [0.3, 0.1], [0.5, 0.45], [0.8, 0.7], [1.0, 1.0]])
    calls = count_calls(monkeypatch, geodesic, "finsler_norm")
    geodesic.polyline_length(spec, nodes)
    assert len(calls) == 1


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


# -- the hv-torsion oracle: a complex step per flag


class _Dual:
    """First-order dual number value + d1 eps (eps^2 = 0) with array parts: the
    reference derivative of `torsion_oracle`, which shares no arithmetic with
    `Jet2` or with the oracle's complex lanes."""

    __array_ufunc__ = None

    def __init__(self, value, d1):
        self.value, self.d1 = value, d1

    def __getitem__(self, key):
        return _Dual(np.asarray(self.value)[key], np.asarray(self.d1)[key])

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.value + o.value, self.d1 + o.d1)
        return _Dual(self.value + o, self.d1)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.value, -self.d1)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.value * o.value, self.value * o.d1 + self.d1 * o.value)
        return _Dual(self.value * o, self.d1 * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return self * o ** -1 if isinstance(o, _Dual) else self * (1.0 / o)

    def __rtruediv__(self, o):
        return self ** -1 * o

    def __pow__(self, n):  # the closed forms raise to integer powers only
        return _Dual(self.value ** n, n * self.value ** (n - 1) * self.d1)

    def sqrt(self):
        f = np.sqrt(self.value)
        return _Dual(f, 0.5 * self.d1 / f)


def _dual_torsion(spec, point, y) -> np.ndarray:
    """(1/2) d g_ij / d y^k at one flag: the closed-form `fundamental_tensor` on
    first-order duals, seeded with e_k for one k at a time."""
    columns = []
    for k in range(spec.dim):
        ys = [_Dual(y[m], float(m == k)) for m in range(spec.dim)]
        alpha, beta, y_low = alpha_beta_generic(point.a, point.b, ys)
        pp = phi_partials(spec.family, spec.k, alpha, beta)
        mc = metric_coefficients(pp, angular_coefficients(pp, alpha))
        y_low = _Dual(np.array([v.value for v in y_low]), np.array([v.d1 for v in y_low]))
        columns.append(0.5 * fundamental_tensor(mc, point.a, point.b, y_low).d1)
    return np.stack(columns, axis=-1)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_complex_step_torsion_matches_a_dual_derivative(family, k, d):
    spec = varying_space(family, k, d)
    flags, ys = _flags(spec, 3, seed=30 * k + d)
    oracle = torsion_oracle(spec, stack_points(flags), ys)
    ref = np.array([_dual_torsion(spec, flag, y) for flag, y in zip(flags, ys)])
    # C vanishes for a Riemannian metric: both routes give roundoff there
    scale = 1.0 if spec.family == "riemannian" else np.abs(ref).max()
    assert np.abs(oracle - ref).max() <= 1e-13 * scale


@pytest.mark.parametrize("lam", [2.0 ** 300, 2.0 ** -300])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_complex_step_torsion_is_minus_one_homogeneous_at_any_scale(family, d, lam):
    # k = 1 keeps every closed form finite at |y| = 2^+-300; the step scales with
    # each flag's y by a power of two, so C(x, lam y) = C(x, y) / lam bit for bit
    spec = varying_space(family, 1, d)
    flags, ys = _flags(spec, 4, seed=8 + d)
    batch = stack_points(flags)
    assert _same_bits(torsion_oracle(spec, batch, lam * ys) * lam,
                      torsion_oracle(spec, batch, ys))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_complex_step_torsion_lanes_of_mixed_scales_match_single_flags(family, d):
    # each flag's step follows its own y, so a batch that mixes scales
    # gives each lane the bits of its single-flag call
    spec = varying_space(family, 1, d)
    flags, ys = _flags(spec, 5, seed=9 + d)
    ys = ys * np.array([2.0 ** -300, 1e-7, 1.0, 3.7e5, 2.0 ** 300])[:, None]
    torsion = torsion_oracle(spec, stack_points(flags), ys)
    for n, (flag, y) in enumerate(zip(flags, ys)):
        assert _same_bits(torsion[n], torsion_oracle(spec, flag, y))


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
    assert _message(lambda: audit_flag(spec, batch, ys)) == expected
    assert _message(lambda: audit_flag(spec, point, ys)) == expected
    rows = audit_flag(spec, point, np.delete(ys, 2, axis=0))
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


# -- float kernels: one pass over a point's directions, or over stacked points


def _fields(record, path: str = "") -> dict:
    """Every leaf of a bundle or frame record, by dotted field path."""
    if dataclasses.is_dataclass(record):
        out = {}
        for f in dataclasses.fields(record):
            out.update(_fields(getattr(record, f.name), f"{path}{f.name}."))
        return out
    return {path[:-1]: record}


def _scale(name: str, single) -> float:
    """The magnitude a field's roundoff is relative to: gamma1 = p dp0/dbeta
    - 3 p1 q0 cancels to 0 for Kropina k = 1, so its terms set the scale."""
    if name.endswith("gamma1"):
        bundle = single.bundle if hasattr(single, "bundle") else single
        mc, ac = bundle.metric, bundle.angular
        return 1.0 + abs(mc.p * bundle.dp0_dbeta) + abs(3.0 * mc.p1 * ac.q0)
    return 1.0


def _assert_lanes_match(batched, singles, tol: float) -> None:
    """Lane n of ``batched`` equals ``singles[n]`` field by field, to ``tol``
    relative (`rel_error`); fields without a lane axis are shared by all."""
    got = _fields(batched)
    for n, single in enumerate(singles):
        for name, ref in _fields(single).items():
            value, ref = np.asarray(got[name], dtype=float), np.asarray(ref, dtype=float)
            lane = value[n] if value.ndim > ref.ndim else value
            assert lane.shape == ref.shape, name
            err = rel_error(lane, ref) / _scale(name, single)
            assert err <= tol, (name, n, err)


def _directions_at(spec, point, n: int, seed: int) -> np.ndarray:
    """n seeded unit directions that pass every validity flag at the point."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        y = rng.normal(size=spec.dim)
        y /= np.linalg.norm(y)
        if validity_check(spec, point, y).ok:
            out.append(y)
    return np.array(out)


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_bundle_lanes_match_batches_of_one(family, k, d):
    spec = varying_space(family, k, d)
    flags, ys = _flags(spec, 5, seed=20 * k + d)
    stacked = stack_points(flags)  # N base points, one direction each
    batched = bundle_at(spec, stacked, ys)
    _assert_lanes_match(batched, [bundle_at(spec, f, y) for f, y in zip(flags, ys)], 1e-13)
    # a batch of one runs the lanes' numpy code: the same bits
    _assert_lanes_match(batched, [lane(bundle_at(spec, stack_points([f]), y[None]), 0)
                                  for f, y in zip(flags, ys)], 0.0)
    # one base point, N directions; b = 0.2 + 0.3 (x2, ..., xd, -x1) is no
    # gradient, so the antisymmetric part F_ij of its covariant derivative enters D
    curl = [f"0.2 + 0.3*x{i + 1}" for i in range(1, d)] + ["0.2 - 0.3*x1"]
    spec = varying_space(family, k, d, b=curl)
    conn = covariant_db(spec, flags[0].x)
    assert np.abs(conn.Fij).max() > 0.1
    ys = _directions_at(spec, conn.point, 5, seed=k + d)
    bundle = bundle_at(spec, conn.point, ys)
    singles = [bundle_at(spec, conn.point, y) for y in ys]
    _assert_lanes_match(bundle, singles, 1e-13)
    if "kropina" in family:
        return  # D cancels terms of order gamma1 (up to 1e26 here): 1-ulp inputs show at 1e-10
    d_tensor = full_difference(bundle, conn)
    for n, single in enumerate(singles):
        assert rel_error(d_tensor[n], full_difference(single, conn)) <= 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("fixture", [exp_fixture, radial_fixture])
def test_frame_lanes_match_single_direction_frames(fixture, k):
    spec, surface = fixture(k)
    for x0 in surface_points(surface, spec, 3, seed=40 + k):
        x0 = x0[None]  # one point is a stack of one
        conn = covariant_db(spec, x0)
        vs = np.random.default_rng(k).normal(size=(5, spec.dim - 1))
        frame = stacked_frame(spec, surface, conn, [vs])
        assert frame.H_ab.shape == (5, 2, 2) and frame.chart.B.shape == (5, 3, 2)
        _assert_lanes_match(frame, [lane(stacked_frame(spec, surface, conn, [[v]]), 0)
                                    for v in vs], 1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("fixture", [exp_fixture, radial_fixture])
def test_stacked_frame_matches_single_point_frames(monkeypatch, fixture, k):
    # three points with 5, 2 and 4 directions: one frame over all 11 flags,
    # from one bundle over them
    spec, surface = fixture(k)
    pts = surface_points(surface, spec, 3, seed=50 + k)
    rng = np.random.default_rng(k)
    vs = [rng.normal(size=(n, spec.dim - 1)) for n in (5, 2, 4)]
    bundles = count_calls(monkeypatch, hypersurface, "bundle_at")
    frame = stacked_frame(spec, surface, covariant_db(spec, pts), vs)
    assert len(bundles) == 1 and len(bundles[0][2]) == 11
    assert frame.H_ab.shape == (11, 2, 2) and frame.chart.B.shape == (11, 3, 2)
    singles = [one_frame(spec, surface, x, v) for x, block in zip(pts, vs) for v in block]
    _assert_lanes_match(frame, singles, 1e-12)


def test_bundle_at_computes_the_angular_coefficients_once(monkeypatch):
    spec = varying_space("generalized-square", 2, 3)
    flags, ys = _flags(spec, 4, seed=1)
    calls = count_calls(monkeypatch, tensors, "angular_coefficients")
    bundle_at(spec, flags[0], ys[0])
    assert len(calls) == 1
    bundle_at(spec, stack_points(flags), ys)
    assert len(calls) == 2


def test_singular_zeta_lane_raises_the_per_flag_error():
    # |b| = 2 and alpha + beta = 1e-3 at the bad direction: zeta underflows
    c = (1.0 - 1e-3) / 2.0
    bad = [np.sqrt(1.0 - c * c), 0.0, -c]
    good = [[1.0, 0.0, 0.0], [0.3, 1.0, 0.2]]
    for k in (1, 2, 3):
        spec = make_space(k=k, b=["0", "0", "2"])
        point = base_point(spec, [0.1, 0.2, 0.3])
        expected = _message(lambda: bundle_at(spec, point, bad))
        assert expected[0] is SingularCoefficientError
        assert _message(lambda: bundle_at(spec, point, good + [bad] + good)) == expected
        assert _message(lambda: bundle_at(spec, stack_points([point] * 3), good + [bad])) \
            == expected
        bundle_at(spec, point, good)  # the good lanes alone pass


def _foreign_surface():
    # b = grad(0.1 x3) but the surface is x1 + x3 = 0: the chart's first
    # column (0, 1, 0) is tangential, its second (-1, 0, 1) has beta = 0.1
    spec, _ = plane_fixture(1)
    surface = LevelSurface(ex.parse("x1 + x3"), 0.0)
    x0 = [[0.2, 0.1, -0.2]]
    return spec, surface, covariant_db(spec, x0)


def test_non_tangential_lane_raises_the_per_flag_error():
    spec, surface, conn = _foreign_surface()
    with pytest.raises(ValueError, match="not tangential") as one:
        stacked_frame(spec, surface, conn, [[[0.0, 1.0]]])
    with pytest.raises(ValueError, match="not tangential") as lanes:
        stacked_frame(spec, surface, conn, [[[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 0.0]]])
    assert str(lanes.value) == str(one.value)
    stacked_frame(spec, surface, conn, [[[1.0, 0.0], [2.0, 0.0]]])  # the good lanes alone pass


def test_tangency_bound_is_per_flag():
    # beta = 1e-7 at |y| = 1e-6 exceeds that flag's bound 1e-10 (1 + 0.1 * 1e-6);
    # a bound taken from the |y| = 1e6 lane (about 1e-5) would let it through
    spec, surface, conn = _foreign_surface()
    with pytest.raises(ValueError, match="beta = 1.000e-07") as one:
        stacked_frame(spec, surface, conn, [[[0.0, 1e-6]]])
    with pytest.raises(ValueError) as lanes:
        stacked_frame(spec, surface, conn, [[[1e6, 0.0], [0.0, 1e-6]]])
    assert str(lanes.value) == str(one.value)
    stacked_frame(spec, surface, conn, [[[1e6, 0.0], [1e-6, 0.0]]])


def test_degenerate_normal_lane_raises_the_per_flag_error():
    # unit_normal reads only the bundle's g and g^-1: an indefinite pair in one lane
    spec, surface = exp_fixture(1)
    x0 = [[0.1, 0.2, 0.0]]
    good = stacked_frame(spec, surface, covariant_db(spec, x0), [[[1.0, 0.0], [0.3, 1.0]]])
    chart, g = chart_at(surface, x0[0]), good.bundle.g  # one chart serves every lane
    g = np.stack([g[0], -np.eye(3), g[1]])
    x, b2 = np.array([[0.1, 0.2, 0.0], [0.3, -0.2, 0.0], [0.5, 0.1, 0.0]]), np.arange(1.0, 4.0)
    bad = types.SimpleNamespace(g=g, g_inv=np.linalg.inv(g), flag=types.SimpleNamespace(x=x, b2=b2))
    with pytest.raises(ArithmeticError, match="cannot normalize") as one:
        unit_normal(chart, types.SimpleNamespace(g=-np.eye(3), g_inv=-np.eye(3),
                                                 flag=types.SimpleNamespace(x=x[1], b2=b2[1])))
    assert str(one.value).endswith("at x=[0.3, -0.2, 0.0]: b^2 = 2.000e+00")
    with pytest.raises(ArithmeticError) as lanes:
        unit_normal(chart, bad)
    assert str(lanes.value) == str(one.value)
    n_up, _ = unit_normal(good.chart, good.bundle)
    assert np.array_equal(n_up, good.N_up)
    # one flag with no lane axis, as the first lane's chart and bundle
    n_one, _ = unit_normal(chart, lane(good.bundle, 0))
    assert np.allclose(n_one, good.N_up[0], rtol=1e-13, atol=0)


# -- sampling: base points, pd_check and validity_check over lanes

def _draws(spec, n: int, seed: int):
    """n seeded points in the sampling box and directions, checked or not."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=(n, spec.dim)),
            rng.normal(size=(n, spec.dim)))


def test_base_point_lanes_match_single_points_bit_for_bit():
    spec = varying_space("generalized-square", 2, 3,
                          b=["exp(x1)*sin(x2)", "log(2 + x3)^1.5", "x1^3 - cos(x2)/x3^-2"])
    xs, _ = _draws(spec, 40, seed=3)
    batch = base_point(spec, xs)
    for n, x in enumerate(xs):
        single = base_point(spec, x)
        for f in dataclasses.fields(single):
            assert _same_bits(getattr(batch, f.name)[n], getattr(single, f.name)), f.name


def test_base_point_lane_with_degenerate_a_raises_its_pivot_and_x():
    spec = make_space(k=1, dim=2, b=["0.3", "0.1"], a=[["1", "0"], ["0", "x1"]])
    xs = np.array([[0.5, 0.1], [0.2, -0.4], [-0.25, 0.3], [-0.5, 0.0]])
    with pytest.raises(DegenerateMetricError) as one:
        base_point(spec, xs[2])
    with pytest.raises(DegenerateMetricError) as lanes:
        base_point(spec, xs)
    with pytest.raises(DegenerateMetricError) as pair:
        base_point(spec, xs[1:3])
    assert lanes.value.pivot == one.value.pivot == pair.value.pivot == 2
    assert str(lanes.value) == str(one.value) == str(pair.value)
    # plain floats, not numpy 2 reprs such as np.float64(-0.25)
    assert str(one.value).endswith("x=[-0.25, 0.3] (pivot 2)")
    base_point(spec, xs[:2])  # the good lanes alone pass


def _cholesky_pivot(m) -> int:
    """The 1-based first Cholesky pivot that is not positive (0 for none), by
    the column loop on one matrix that `pd_check` ran before it took lanes."""
    d = len(m)
    low = np.zeros((d, d))
    for j in range(d):
        s = m[j, j] - np.dot(low[j, :j], low[j, :j])
        if not s > 0.0:
            return j + 1
        low[j, j] = np.sqrt(s)
        for i in range(j + 1, d):
            low[i, j] = (m[i, j] - np.dot(low[i, :j], low[j, :j])) / low[j, j]
    return 0


def test_pd_check_pivots_per_lane():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4, 6, 8):
        r = rng.normal(size=(40, d, d))
        m = r @ np.swapaxes(r, -1, -2) + rng.uniform(-2.0, 1.0, size=(40, 1, 1)) * np.eye(d)
        m[::7] = np.diag(np.r_[np.ones(d - 1), -1.0])  # fails at the last pivot
        m[3] = 0.0  # fails at the first
        check = pd_check(m)
        singles = [pd_check(one) for one in m]  # 0-d fields, with pivot 0 where PD
        assert 0 < check.ok.sum() < len(m)
        for n, single in enumerate(singles):
            assert _same_bits(check.ok[n], single.ok) and _same_bits(check.pivot[n], single.pivot)
        assert check.pivot.tolist() == [_cholesky_pivot(one) for one in m]
        assert check.pivot[3] == 1 and check.pivot[7] == d
        assert pd_check(m.reshape(5, 8, d, d)).pivot.tolist() == check.pivot.reshape(5, 8).tolist()
    nan = pd_check(np.array([[1.0, 0.0], [0.0, np.nan]]))
    assert not nan.ok and nan.pivot == 2


def test_pd_check_symmetry_is_judged_per_lane():
    small = np.array([[1.0, 1e-6], [0.0, 1.0]])  # 1e-6 past its own scale 1
    huge = 1e8 * np.eye(2)  # a scale of 1e8 would let 1e-6 pass
    with pytest.raises(ValueError, match="not symmetric"):
        pd_check(small)
    with pytest.raises(ValueError, match="not symmetric"):
        pd_check(np.stack([huge, small]))
    assert pd_check(np.stack([huge, huge + 1e-3 * small])).ok.all()


_REPORT_FIELDS = ("F_positive", "family_domain", "fundamental_pd", "pd_pivot", "F", "a_pd", "ok")


def _assert_lanes_match_singles(spec, xs, ys):
    """Each lane n of the report on all flags has the bits of the 0-d fields of
    the report on flag n alone (pd_pivot 0 where g is PD, F NaN outside the domain).
    xs holds a point per direction (N, d), or is one point for all of them."""
    report = validity_check(spec, xs, ys)
    for n, y in enumerate(ys):
        one = validity_check(spec, xs[n] if np.ndim(xs) == 2 else xs, y)
        for name in _REPORT_FIELDS:
            assert _same_bits(getattr(report, name)[n], getattr(one, name)), (n, name)
    return report


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_validity_lanes_match_per_flag_reports(family, k, d):
    spec = varying_space(family, k, d)
    xs, ys = _draws(spec, 24, seed=30 * k + d)
    report = _assert_lanes_match_singles(spec, xs, 1.7 * ys)
    if "kropina" in family:
        assert 0 < report.ok.sum() < len(xs)  # beta <= 0 fails: lanes of both kinds


@pytest.mark.parametrize("family", FAMILIES)
def test_validity_takes_one_point_with_n_directions(family):
    # the point's a, b and b^2 broadcast to its N directions, as bundle_at takes them
    spec = varying_space(family, 2, 3)
    x0 = np.array([0.3, -0.2, 0.5])
    ys = 1.7 * _draws(spec, 12, seed=5)[1]
    tiled = validity_check(spec, np.tile(x0, (len(ys), 1)), ys)
    for x in (x0, list(x0), base_point(spec, x0)):
        report = _assert_lanes_match_singles(spec, x, ys)
        for name in _REPORT_FIELDS:
            assert _same_bits(getattr(report, name), getattr(tiled, name)), name
    if "kropina" in family:
        assert 0 < report.ok.sum() < len(ys)  # beta <= 0 fails: lanes of both kinds
    spec = make_space(k=1, potential="0.1*x3")  # the space of configs/e1.cfg
    assert validity_check(spec, [0, 0, 0], np.eye(3)[:2]).ok.tolist() == [True, True]


def test_validity_masks_each_bad_lane_among_good_ones():
    x0 = np.zeros(3)
    good = [[0.6, 0.5, 0.2], [0.3, 1.0, -0.2]]
    # Kropina: beta < 0, beta = 0 and beta = 1e-105, whose partials overflow
    spec = make_space(family="kropina", b=["1", "0", "0"])
    ys = good + [[-0.5, 1.0, 0.0], [0.0, 1.0, 0.0], [1e-105, 1.0, 0.0]] + good
    report = _assert_lanes_match_singles(spec, np.tile(x0, (len(ys), 1)), np.array(ys))
    assert report.family_domain.tolist() == [True] * 2 + [False] * 3 + [True] * 2
    assert np.isnan(report.F[2:5]).all() and report.ok[[0, 1, 5, 6]].all()
    # Matsumoto: alpha - beta = 0 in floating point, and alpha - beta = 5e-15
    spec = make_space(family="matsumoto", b=["1", "0", "0"])
    ys = good + [[1.0, 1e-9, 0.0], [1.0, 1e-7, 0.0]] + good
    report = _assert_lanes_match_singles(spec, np.tile(x0, (len(ys), 1)), np.array(ys))
    assert not report.family_domain[2] and report.family_domain[3]
    # an indefinite g: s = beta/alpha past 1/k, pivot 2
    spec = make_space(k=2, b=["0.7", "0", "0"])
    ys = [[0.1, 1.0, 0.2], [0.2, -0.3, 1.0], [1.0, 0.0, 0.0], [-0.9, 0.2, 0.1]]
    report = _assert_lanes_match_singles(spec, np.tile(x0, (len(ys), 1)), np.array(ys))
    assert report.pd_pivot.tolist() == [0, 0, 2, 0]
    assert report.fundamental_pd.tolist() == [True, True, False, True]
    # a singular zeta: |b| = 2 and alpha + beta = 1e-3
    c = (1.0 - 1e-3) / 2.0
    spec = make_space(k=1, b=["0", "0", "2"])
    ys = good + [[np.sqrt(1.0 - c * c), 0.0, -c]] + good
    report = _assert_lanes_match_singles(spec, np.tile(x0 + 0.1, (len(ys), 1)), np.array(ys))
    assert report.family_domain.all()
    assert report.fundamental_pd.tolist() == [True, True, False, True, True]
    with pytest.raises(SingularCoefficientError):
        bundle_at(spec, x0 + 0.1, ys[2])
    # a g that is not finite: F = (alpha + beta)^4 / alpha^3 overflows at beta = 1e150
    spec = make_space(k=3, b=["1e150", "0", "0"])
    ys = [[1e-160, 1.0, 0.0], [1.0, 0.2, 0.0], [-1e-160, 0.3, 1.0]]
    report = _assert_lanes_match_singles(spec, np.tile(x0, (3, 1)), np.array(ys))
    assert report.fundamental_pd.tolist() == [True, False, True] and report.pd_pivot[1] == 0


def test_validity_masks_lanes_whose_a_is_not_positive_definite():
    spec = make_space(k=1, dim=2, b=["0.3", "0.1"], a=[["1", "0"], ["0", "x1"]])
    xs, ys = _draws(spec, 30, seed=8)
    report = _assert_lanes_match_singles(spec, xs, ys)
    assert report.a_pd.tolist() == (xs[:, 0] > 0).tolist()
    assert not report.ok[~report.a_pd].any() and report.ok[report.a_pd].any()


def _sample_flags_per_draw(spec, n: int, seed: int) -> list[FlagPoint]:
    """One validity_check per draw, with the draws of `sample_flags`."""
    rng = np.random.default_rng(seed)
    out, tries, limit = [], 0, max(200 * n, 1000)
    while len(out) < n:
        tries += 1
        if tries > limit:
            raise RuntimeError(f"in-domain sampling stalled after {tries} draws")
        x = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=spec.dim)
        y = rng.normal(size=spec.dim)
        norm = np.linalg.norm(y)
        if norm < 1e-12:
            continue
        y /= norm
        try:
            report = validity_check(spec, x, y)
        except (ArithmeticError, ValueError):
            continue
        if report.ok:
            out.append(report.flag)
    return out


_SAMPLED = [
    varying_space("generalized-square", 3, 4),
    varying_space("kropina", 1, 3),
    varying_space("generalized-kropina", 2, 2),
    varying_space("matsumoto", 2, 3),
    varying_space("randers", 1, 2, b=["0.5*exp(x1)", "0.2*sin(3*x2)"]),
    # a(x) indefinite on half the box
    make_space(k=2, dim=2, b=["0.3", "0.1*x2"], a=[["1", "0"], ["0", "x1"]]),
    # b(x) raises a DomainError on half the box
    make_space(family="kropina", dim=2, b=["sqrt(x1)", "0.1"], a=[["1", "0"], ["0", "2"]]),
]


def _assert_batch_matches(flags: FlagPoint, reference: list[FlagPoint]) -> None:
    """Lane i of the batch has the bits of the i-th per-draw flag, field by field."""
    assert len(flags) == len(reference)
    for i, ref in enumerate(reference):
        got = lane(flags, i)
        for f in dataclasses.fields(FlagPoint):
            assert _same_bits(getattr(got, f.name), getattr(ref, f.name)), (i, f.name)


@pytest.mark.parametrize("spec", _SAMPLED)
def test_sample_flags_match_the_per_draw_reference(spec):
    for seed in (1, 2):
        flags = sample_flags(spec, 17, seed)
        assert len(flags) == 17
        _assert_batch_matches(flags, _sample_flags_per_draw(spec, 17, seed))


def test_sample_flags_join_two_blocks_in_draw_order(monkeypatch):
    # the space of configs/e1.cfg as Kropina: beta <= 0 fails about half the
    # draws, so the 100 flags of its [audit] come from two blocks, joined once
    spec = make_space(family="kropina", potential="0.1*x3")
    checks = count_calls(monkeypatch, metric, "validity_check")
    flags = sample_flags(spec, 100, seed=7)
    assert [len(args[1]) for args in checks] == [127, 116]
    _assert_batch_matches(flags, _sample_flags_per_draw(spec, 100, seed=7))


def test_a_batch_has_the_length_of_its_flags():
    spec = varying_space("kropina", 1, 3)
    flags = sample_flags(spec, 9, seed=1)
    assert len(flags) == 9 and flags.y.shape == (9, 3)
    with pytest.raises(TypeError):
        len(lane(flags, 0))  # one flag has no length, as a 0-d array has none


@pytest.mark.parametrize("spec", _SAMPLED + [make_space(family="kropina", potential="0.1*x3")])
def test_audit_sweep_audits_the_per_draw_flags(spec):
    # the sweep's rows, bit for bit, from the per-draw flags stacked and rescaled
    reference = _sample_flags_per_draw(spec, 20, seed=3)
    scales = np.exp(np.random.default_rng(3).uniform(-np.log(2.0), np.log(2.0), size=20))
    rows = audit_flag(spec, stack_points(reference), [f.y * s for f, s in zip(reference, scales)])
    assert audit_sweep(spec, AuditParams(samples=20, seed=3)).rows == rows


def test_sampling_stall_keeps_its_message_and_draw_count(monkeypatch):
    spec = make_space(family="kropina", b=["0", "0", "0"])  # beta = 0: every draw fails
    checks = count_calls(monkeypatch, metric, "validity_check")
    for n, limit in ((1, 1000), (6, 1200)):
        checks.clear()
        with pytest.raises(RuntimeError, match=f"^in-domain sampling stalled after {limit + 1} "
                                               "draws$"):
            sample_flags(spec, n, seed=4)
        assert sum(len(args[1]) for args in checks) == limit  # never past the limit
        with pytest.raises(RuntimeError, match=f"after {limit + 1} draws$"):
            _sample_flags_per_draw(spec, n, seed=4)


# -- the spatial pass of classify: surface points, connection and charts as lanes

def _assert_bits_match(batched, singles) -> None:
    """Lane n of ``batched`` has the bits of ``singles[n]``, leaf by leaf."""
    for n, single in enumerate(singles):
        got = _fields(lane(batched, n))
        for name, ref in _fields(single).items():
            assert _same_bits(got[name], ref), (name, n)


def _level(potential: str, level: float, dim: int = 3):
    """A generalized-square space whose 1-form is the gradient of the surface potential."""
    return make_space(k=2, dim=dim, potential=potential), LevelSurface(ex.parse(potential), level)


_CURVED = "sin(x1) + x2*x3 + exp(0.5*x3)^1.5"
_LOG = "log(x1 + 1.2) + 0.1*x2"  # Newton steps from some seeds leave the log's domain


@pytest.mark.parametrize("d", [2, 3, 4])
def test_connection_lanes_match_single_points_bit_for_bit(d):
    curl = [f"0.2 + 0.3*x{i + 1}" for i in range(1, d)] + ["0.2 - 0.3*exp(x1)"]
    for spec in (varying_space("generalized-square", 2, d),
                 varying_space("generalized-square", 1, d, b=curl)):
        xs, _ = _draws(spec, 12, seed=d)
        conn = covariant_db(spec, xs)
        assert conn.gamma.shape == (12, d, d, d) and conn.point.b2.shape == (12,)
        _assert_bits_match(conn, [covariant_db(spec, x) for x in xs])
        assert _same_bits(connection.christoffel(spec, xs), conn.gamma)


def test_level_surface_lanes_match_single_points_bit_for_bit():
    _, surface = _level("exp(x1)*sin(x2) + log(2 + x3)^1.5 - x1^3*cos(x2)/x3^-2", 0.0)
    xs, _ = _draws(make_space(), 20, seed=8)
    for method in (surface.value, surface.gradient, surface.hessian):
        batch = method(xs)
        assert batch.shape[0] == len(xs)
        for x, got in zip(xs, batch):
            assert _same_bits(got, method(x)), method.__name__


def test_chart_lanes_match_single_points_bit_for_bit():
    spec, surface = radial_fixture(1)
    pts = surface_points(surface, spec, 12, seed=9)
    charts = chart_at(surface, pts)
    assert charts.B.shape == (12, 3, 2) and charts.hess.shape == (12, 2, 2)
    assert len(set(charts.dep.tolist())) == 3  # every coordinate is solved for somewhere
    _assert_bits_match(charts, [chart_at(surface, x) for x in pts])
    spec, surface = _level(_CURVED, 0.3)
    pts = surface_points(surface, spec, 12, seed=10)
    charts = chart_at(surface, pts)
    assert len(set(charts.dep.tolist())) >= 2
    _assert_bits_match(charts, [chart_at(surface, x) for x in pts])


def test_chart_guards_name_the_failing_lane():
    surface = LevelSurface(ex.parse("x1^2 + x2^2 + x3^2"), 0.0)
    xs = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    xs[1] = [0.0, 1e-3, 0.0]  # off the surface
    with pytest.raises(OffSurfaceError) as one:
        chart_at(surface, xs[1])
    with pytest.raises(OffSurfaceError) as lanes:
        chart_at(surface, xs)
    assert str(lanes.value) == str(one.value)
    assert "x=[0.0, 0.001, 0.0]" in str(one.value)
    # x3^2 = x1^3 is singular where x1 = x3 = 0: the gradient vanishes there
    cusp = LevelSurface(ex.parse("x3^2 - x1^3"), 0.0)
    xs = np.array([[1.0, 0.2, 1.0], [0.0, 0.7, 0.0], [1.0, 0.5, -1.0]])
    with pytest.raises(ValueError, match="vanishing potential gradient") as one:
        chart_at(cusp, xs[1])
    with pytest.raises(ValueError, match="vanishing potential gradient") as lanes:
        chart_at(cusp, xs)
    assert str(lanes.value) == str(one.value)
    assert "x=[0.0, 0.7, 0.0]" in str(one.value)
    chart_at(cusp, xs[[0, 2]])  # the good lanes alone pass


def test_frame_takes_the_chart_of_its_own_point():
    spec, surface = exp_fixture(1)
    pts = surface_points(surface, spec, 2, seed=4)
    with pytest.raises(ValueError, match=r"a stack \(P, d\)"):  # one point, unstacked
        stacked_frame(spec, surface, covariant_db(spec, pts[0]), [[[1.0, 0.0]]])


# surface_points of the per-seed code on two surfaces (float.hex): the radial
# fixture, seed 5, and the curved level, seed 6; four points each
_RECORDED = {
    "radial": [
        ["0x1.6813013a17f13p-1", "0x1.6b8ae58049c3bp-1", "0x1.217be0beea0efp-5"],
        ["-0x1.af702a39962a9p-2", "-0x1.c13c532d32bb1p-1", "-0x1.d5d60578eca68p-3"],
        ["-0x1.21a928d3986aap-3", "-0x1.67c63659e17dep-1", "-0x1.6504d89b41548p-1"],
        ["0x1.b478355503638p-1", "0x1.0a74fc8a43580p-2", "-0x1.d04723bb7434bp-2"],
    ],
    "curved": [
        ["-0x1.058e8595cff7ep-1", "-0x1.4623172ebb4f0p-3", "-0x1.c2c02c63edfb1p-2"],
        ["-0x1.dd5309f382768p-2", "0x1.d4f3c21793b79p-1", "-0x1.3bf2923e82fe6p-3"],
        ["-0x1.ebf2fa1164e67p-1", "-0x1.aed0ca76e5112p-1", "-0x1.11f380db0c653p-1"],
        ["-0x1.9c1b334d1d03dp-1", "-0x1.e40a4a8ee3e8bp-1", "0x1.5952d67064fbcp-1"],
    ],
}


def test_surface_points_match_the_recorded_per_seed_points():
    for name, (spec, surface), seed in (("radial", radial_fixture(1), 5),
                                        ("curved", _level(_CURVED, 0.3), 6)):
        recorded = np.array([[float.fromhex(c) for c in p] for p in _RECORDED[name]])
        pts = surface_points(surface, spec, 4, seed)
        assert _same_bits(pts, recorded), name
        longer = surface_points(surface, spec, 7, seed)
        assert _same_bits(longer[:4], pts), name  # the first n are a prefix of the first n + 3


def _surface_points_per_seed(surface, spec, n: int, seed: int) -> np.ndarray:
    """One Newton projection per seed, with the draws of `surface_points`; a
    seed whose projection raises is rejected."""
    rng = np.random.default_rng(seed)
    pts, tries = [], 0
    while len(pts) < n:
        tries += 1
        if tries > max(500 * n, 2000):
            raise RuntimeError("surface sampling stalled; is the level reachable?")
        x = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=spec.dim)
        try:
            grad = surface.gradient(x)
            if np.linalg.norm(grad) < 1e-10:
                continue
            u, ok = grad / np.linalg.norm(grad), False
            for _ in range(60):
                r = surface.value(x) - surface.level
                if abs(r) <= 1e-13 * (1.0 + abs(surface.level)):
                    ok = True
                    break
                slope = float(surface.gradient(x) @ u)
                if abs(slope) < 1e-12:
                    break
                x = x - (r / slope) * u
            if ok and np.linalg.norm(surface.gradient(x)) > 1e-10:
                pts.append(x)
        except ArithmeticError:
            continue
    return np.array(pts)


@pytest.mark.parametrize("spec_surface", [
    radial_fixture(2), exp_fixture(1), _level(_CURVED, 0.3), _level(_LOG, -1.386294),
    _level("x1^2 - x2^2 + 0.5*x2", 0.02, dim=2),
])
def test_surface_points_match_the_per_seed_reference(spec_surface):
    spec, surface = spec_surface
    for seed in (1, 2, 3):
        assert _same_bits(surface_points(surface, spec, 9, seed),
                          _surface_points_per_seed(surface, spec, 9, seed))


def test_seed_that_leaves_the_domain_is_rejected_alone(monkeypatch):
    spec, surface = _level(_LOG, -1.386294)
    passes = count_calls(monkeypatch, classifier, "_project")
    pts = surface_points(surface, spec, 25, seed=1)
    assert len(pts) == 25 and np.abs(surface.value(pts) - surface.level).max() <= 1e-12
    # a raising pass is retried on halves: blocks of one seed are reached
    assert min(len(args[1]) for args in passes) == 1


def test_surface_sampling_stall_keeps_its_message_and_try_count(monkeypatch):
    spec, surface = _level("x1^2 + x2^2 + x3^2", -1.0)  # an empty level set
    passes = count_calls(monkeypatch, classifier, "_project")
    with pytest.raises(RuntimeError, match="^surface sampling stalled; is the level reachable"):
        surface_points(surface, spec, 3, seed=2)
    assert sum(len(args[1]) for args in passes) == 2000  # max(500 n, 2000) tries, no more


def test_surface_points_reject_converged_points_where_the_gradient_vanishes():
    # |x|^6 = 0 holds only at the origin, a critical point: Newton steps reach
    # |x|^6 <= 1e-13 where the gradient 6 |x|^5 is below 1e-10, so no seed passes
    spec, surface = _level("(x1^2 + x2^2 + x3^2)^3", 0.0)
    with pytest.raises(RuntimeError, match="surface sampling stalled"):
        surface_points(surface, spec, 1, seed=3)


def test_second_kind_scale_skips_the_points_where_b_vanishes():
    # lane 0 misses b_ij = e b_i b_j by 1e-6, against the scale 1 + max |b_ij| = 2
    # of the fitted points; lane 1 (b = 0, skipped) must not raise it to 1 + 1e6
    point = types.SimpleNamespace(b=np.array([[1.0, 0.0], [0.0, 0.0]]),
                                  b_up=np.array([[1.0, 0.0], [0.0, 0.0]]), b2=np.array([1.0, 0.0]))
    b_cov = np.array([[[1.0, 1e-6], [1e-6, 0.0]], [[1e6, 0.0], [0.0, 1e6]]])
    result, e_samples = classifier.second_kind_test(
        types.SimpleNamespace(point=point, b_cov=b_cov), 1e-8)
    assert e_samples == [1.0, 0.0] and result.per_point == [1e-6, 0.0]
    assert not result.passed


# -- expression tables: a, b, their partials and the level potential's value, gradient, Hessian

def _table_fixture(d: int):
    """A d-dimensional space and surface whose entries use exp, log, sin, cos,
    sqrt, fractional and negative powers, defined on the sampling box.  Each
    entry is a tree of its own: a_ij and a_ji multiply in opposite orders."""
    xs = [f"x{i + 1}" for i in range(d)]
    a = [[f"0.05*exp({xs[i]}*{xs[j]})" for j in range(d)] for i in range(d)]
    for i, x in enumerate(xs):
        a[i][i] = f"2 + sin({x})*cos({xs[i - 1]}) + (1.5 + {xs[i - 1]})^-2 + sqrt(1.2 + {x})"
    b = [f"log(2 + {x})^1.5 - {xs[-1 - i]}^3/(3 + {x})" for i, x in enumerate(xs)]
    potential = " + ".join(f"(1.5 + {x})^0.75*cos({xs[-1 - i]}) - exp(-{x})*(2 + {xs[i - 1]})^-2"
                           for i, x in enumerate(xs))
    return make_space(dim=d, a=a, b=b), LevelSurface(ex.parse(potential), 0.0)


def _tables(d: int) -> dict:
    spec, surface = _table_fixture(d)
    table = surface.table
    return {"a": spec.a_table, "b": spec.b_table, "da": spec.a_table.diff(d),
            "db": spec.b_table.diff(d), "value": table, "gradient": table.diff(d),
            "hessian": table.diff(d).diff(d)}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_table_lanes_match_single_points_bit_for_bit(d):
    xs = np.random.default_rng(d).uniform(-SAMPLE_BOX, SAMPLE_BOX, size=(7, d))
    for name, table in _tables(d).items():
        batch = table.at(xs)
        assert batch.shape == (7,) + table.shape and batch.flags.c_contiguous, name
        for x, got in zip(xs, batch):
            assert _same_bits(got, table.at(x)), name


def _jet_parts(jets, shape) -> tuple[np.ndarray, np.ndarray]:
    """The value and e1 parts of a table's entries on jet columns; a constant
    entry is a plain float."""
    value = [np.broadcast_to(getattr(v, "value", v), shape[:1]) for v in jets]
    d1 = [np.broadcast_to(getattr(v, "d1", 0.0), shape[:1]) for v in jets]
    return np.stack(value, -1).reshape(shape), np.stack(d1, -1).reshape(shape)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_table_on_jet_columns_matches_float_values_and_partials(d):
    xs = np.random.default_rng(10 + d).uniform(-SAMPLE_BOX, SAMPLE_BOX, size=(7, d))
    for name, table in _tables(d).items():
        values, partials = table.at(xs), table.diff(d).at(xs)
        for m in range(d):  # the e1 part seeded along coordinate m
            value, d1 = _jet_parts(table.eval([Jet2(xs[:, j], float(j == m)) for j in range(d)]),
                                   values.shape)
            # numpy's vector exp/log/sin/cos/pow may differ from libm's by an ulp
            assert np.allclose(value, values, rtol=1e-14, atol=1e-14), name
            assert np.allclose(d1, partials[..., m], rtol=1e-12, atol=1e-12), name


def test_each_object_builds_its_derivative_trees_once(monkeypatch):
    spec, surface = _table_fixture(5)
    xs, _ = _draws(spec, 25, seed=5)
    builds = []

    def counted(diff):
        def wrapper(e, var):
            builds.append(type(e).__name__)
            return diff(e, var)
        return wrapper

    for cls in ex.Expr.__subclasses__():
        monkeypatch.setattr(cls, "diff", counted(cls.diff))
    calls = (spec.da_at, spec.db_at, surface.gradient, surface.hessian)
    first = [call(xs) for call in calls]
    assert builds  # the first calls build the 125 da, 25 db, 5 gradient and 25 Hessian trees
    builds.clear()
    for _ in range(3):
        for call, ref in zip(calls, first):
            assert _same_bits(call(xs), ref)
    assert builds == []


def _stacked_b(rng, d: int):
    """A stacked connection of five lanes in d dimensions: a random b and a
    non-symmetric b_cov in each, b = 0 in lane 2, and in lane 3 a b_cov of the
    first kind, (b_i c_j + b_j c_i) / 2 with c = (1, ..., d)."""
    b = rng.normal(size=(5, d))
    b[2] = 0.0
    b_cov = rng.normal(size=(5, d, d))
    b_cov[3] = 0.5 * (np.outer(b[3], np.arange(1.0, d + 1)) + np.outer(np.arange(1.0, d + 1), b[3]))
    b_up = b @ np.diag(np.linspace(1.0, 2.0, d))  # a diagonal a^ij raises the index
    point = types.SimpleNamespace(b=b, b_up=b_up, b2=dot(b, b_up))
    return types.SimpleNamespace(point=point, b_cov=b_cov)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_first_kind_lanes_match_per_point_least_squares(d):
    conn = _stacked_b(np.random.default_rng(d), d)
    result, c_samples = classifier.first_kind_test(conn, 1e-8)
    iu, ju = np.triu_indices(d)
    for n, (b, b_cov) in enumerate(zip(conn.point.b, conn.b_cov)):
        rows = np.zeros((len(iu), d))
        for eq, (i, j) in enumerate(zip(iu, ju)):  # 2 b_ij = b_i c_j + b_j c_i
            rows[eq, j] += b[i]
            rows[eq, i] += b[j]
        rhs = 2.0 * b_cov[iu, ju]
        c = np.linalg.lstsq(rows, rhs, rcond=None)[0]
        residual = np.abs(rows @ c - rhs).max()
        assert rel_error(c_samples[n], c) <= 1e-14, n
        assert rel_error(result.per_point[n], residual) <= 1e-14, n
    assert np.all(c_samples[2] == 0.0)  # b = 0: the minimum-norm solution
    assert result.per_point[2] == np.abs(2.0 * conn.b_cov[2][iu, ju]).max()
    assert result.per_point[3] < 1e-14 * (1.0 + np.abs(conn.b_cov[3]).max())
    assert rel_error(c_samples[3], np.arange(1.0, d + 1)) < 1e-14
    assert type(result.passed) is bool and not result.passed


def _second_kind_per_point(conn):
    """The per-point loop of the second kind: e and the residual of each lane."""
    p, residuals, e_samples = conn.point, [], []
    for b, b_up, b2, b_cov in zip(p.b, p.b_up, p.b2, conn.b_cov):
        fit = not b2 < 1e-14
        e = float(b_up @ b_cov @ b_up) / (b2 * b2) if fit else 0.0
        residuals.append(float(np.abs(b_cov - e * np.outer(b, b)).max()) if fit else 0.0)
        e_samples.append(e)
    return residuals, e_samples


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("fixture", [exp_fixture, radial_fixture, plane_fixture])
def test_second_kind_lanes_match_the_per_point_loop_bit_for_bit(fixture, k):
    spec, surface = fixture(k)
    conns = [covariant_db(spec, surface_points(surface, spec, 12, seed=60 + k)),
             _stacked_b(np.random.default_rng(k), 3)]
    for conn in conns:
        result, e_samples = classifier.second_kind_test(conn, 1e-8)
        residuals, e_ref = _second_kind_per_point(conn)
        assert _same_bits(result.per_point, residuals) and _same_bits(e_samples, e_ref)
        assert type(result.passed) is bool
