import math

import numpy as np
import pytest

from conftest import count_calls, make_space, richardson_hessian, spray
from finslerkit import geodesic
from finslerkit.expr import DomainError
from finslerkit.geodesic import (
    GeodesicParams,
    SegmentDomainError,
    _length_derivatives,
    _segment_length,
    minimize,
    polyline_length,
)
from finslerkit.numerics import jet_eval


def _euclid2():
    return make_space(family="riemannian", dim=2, b=["0", "0"])


def _randers2():
    return make_space(family="randers", dim=2, b=["0.1", "0"])


def test_straight_line_lengths():
    assert polyline_length(_euclid2(), [[0, 0], [1, 0]]) == 1.0
    assert polyline_length(_randers2(), [[0, 0], [1, 0]]) == pytest.approx(1.1, abs=1e-15)


def test_refinement_keeps_length_for_constant_coefficients():
    spec = _randers2()
    coarse = polyline_length(spec, [[0, 0], [1, 0]])
    fine = polyline_length(spec, [[0, 0], [0.25, 0], [0.7, 0], [1, 0]])
    assert abs(coarse - fine) < 1e-12


def test_reparametrization_invariance_along_straight_segments():
    # redistribute nodes along the same two straight legs: length unchanged
    spec = make_space(k=1, b=["0", "0", "0.1"])
    legs = [np.array([0.0, 0.0, 0.0]), np.array([0.6, 0.4, 0.0]), np.array([1.0, 0.0, 0.5])]

    def path(ts1, ts2):
        nodes = [legs[0]]
        nodes += [legs[0] + t * (legs[1] - legs[0]) for t in ts1]
        nodes.append(legs[1])
        nodes += [legs[1] + t * (legs[2] - legs[1]) for t in ts2]
        nodes.append(legs[2])
        return np.array(nodes)

    base = polyline_length(spec, path([0.5], [0.5]))
    redistributed = polyline_length(spec, path([0.2, 0.9], [0.3, 0.4, 0.8]))
    assert abs(base - redistributed) < 1e-12


def test_degenerate_segment_reports_index():
    spec = _euclid2()
    with pytest.raises(SegmentDomainError) as err:
        polyline_length(spec, [[0, 0], [1, 0], [1, 0], [2, 0]])
    assert err.value.segment == 1


@pytest.mark.parametrize("spec, nodes, cause", [
    (_euclid2(), [[0, 0], [1, 0], [1, 0], [2, 0], [2, 0]], ArithmeticError),  # alpha^2 = 0
    # sqrt(x1) of a(x) at the midpoints x1 = -0.1 of segments 1 and 3
    (make_space(family="riemannian", dim=2, b=["0", "0"], a=[["sqrt(x1)", "0"], ["0", "1"]]),
     [[0.5, 0], [0.7, 0], [-0.9, 0.2], [1.3, 0.4], [-1.5, 0.6]], DomainError),
])
def test_first_failing_segment_is_named_among_several(spec, nodes, cause):
    with pytest.raises(SegmentDomainError, match="^segment 1: ") as err:
        polyline_length(spec, nodes)
    assert err.value.segment == 1
    assert isinstance(err.value.__cause__, cause)


def test_minimize_euclidean_straightens():
    res = minimize(_euclid2(), GeodesicParams(start=[0, 0], end=[1, 0],
                                              segments=8, iters=600, tol=1e-7, seed=1))
    assert res.converged
    assert abs(res.length - 1.0) <= 1e-6
    assert res.grad_norm <= 1e-7
    assert res.trace[0] > res.trace[-1]  # random init strictly improved


def test_minimize_randers_constant_drift():
    res = minimize(_randers2(), GeodesicParams(start=[0, 0], end=[1, 0],
                                               segments=8, iters=600, tol=1e-7, seed=1))
    assert res.converged
    assert abs(res.length - 1.1) <= 1e-5


def test_minimize_power_metric_matches_straight_line_oracle():
    spec = make_space(k=1, b=["0", "0", "0.1"])
    straight = polyline_length(spec, [[0, 0, 0], [1, 0, 0]])
    assert straight == pytest.approx(1.0, abs=1e-15)
    res = minimize(spec, GeodesicParams(start=[0, 0, 0], end=[1, 0, 0],
                                        segments=8, iters=800, tol=1e-7, seed=2))
    assert res.length <= straight + 1e-9
    assert abs(res.length - 1.0) <= 1e-6
    # dense random restarts do not find anything shorter
    best = min(
        minimize(spec, GeodesicParams(start=[0, 0, 0], end=[1, 0, 0],
                                      segments=6, iters=300, tol=1e-6, seed=s)).length
        for s in range(3)
    )
    assert best >= res.length - 1e-6


def test_triangle_consistency():
    spec = _randers2()
    kw = dict(segments=6, iters=400, tol=1e-6, seed=0)
    pq = minimize(spec, GeodesicParams(start=[0, 0], end=[1, 1], **kw)).length
    pr = minimize(spec, GeodesicParams(start=[0, 0], end=[0.3, 0.8], **kw)).length
    rq = minimize(spec, GeodesicParams(start=[0.3, 0.8], end=[1, 1], **kw)).length
    assert pq <= pr + rq + 1e-9


def test_minimize_validates_endpoints():
    spec = _euclid2()
    with pytest.raises(ValueError, match="differ"):
        minimize(spec, GeodesicParams(start=[0, 0], end=[0, 0]))
    with pytest.raises(ValueError, match="dimension"):
        minimize(spec, GeodesicParams(start=[0, 0, 0], end=[1, 0, 0]))


def test_polyline_and_segment_count_must_have_a_segment():
    spec = _euclid2()
    with pytest.raises(ValueError, match=r"^nodes must be an \(m\+1\) x 2 array with m >= 1$"):
        polyline_length(spec, [[0.0, 0.0]])
    with pytest.raises(ValueError, match="^need at least one segment$"):
        minimize(spec, GeodesicParams(start=[0, 0], end=[1, 0], segments=0))


def test_single_segment_shortcut():
    spec = _euclid2()
    res = minimize(spec, GeodesicParams(start=[0, 0], end=[1, 0], segments=1))
    assert res.converged and res.length == 1.0 and res.iterations == 0
    assert res.message == "single segment: nothing to optimize"


def test_trace_is_monotone_nonincreasing():
    res = minimize(_euclid2(), GeodesicParams(start=[0, 0], end=[1, 0],
                                              segments=8, iters=200, tol=1e-6, seed=4))
    trace = np.array(res.trace)
    assert np.all(np.diff(trace) <= 1e-15)


def _assert_derivatives_match_differences_of_the_float_length(across, offsets):
    """`_length_derivatives` at interior nodes p + t (q - p) + z @ across, against
    central differences of `polyline_length` in the offsets z: a curved 3-D
    generalized-square space, uneven chord fractions t.  The oracle differentiates
    the float polyline length, which shares no code with the per-segment jets."""
    spec = make_space(k=2, potential="0.15*x1*x2 + 0.05*x3^2")
    p, q = np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.6, 0.4])
    ts = np.array([0.13, 0.35, 0.52, 0.8])

    def nodes(flat):
        inner = p + ts[:, None] * (q - p) + np.reshape(flat, (len(ts), -1)) @ across
        return np.vstack([p, inner, q])

    def length(flat):
        return polyline_length(spec, nodes(flat))

    flat = np.ravel(offsets)
    value, grad, hess = _length_derivatives(spec, nodes(flat), across)
    assert value == pytest.approx(length(flat), rel=1e-15)
    h = 1e-6
    fd_grad = np.array([
        (length(flat + h * e) - length(flat - h * e)) / (2 * h) for e in np.eye(len(flat))
    ])
    assert np.abs(grad - fd_grad).max() <= 1e-7

    def lengths(coords):  # fd_hessian passes every stencil point at once, as lanes
        return np.array([length(point) for point in np.stack(coords, axis=-1)])

    fd_hess = richardson_hessian(lengths, flat, step=1e-3)
    assert np.abs(hess - fd_hess).max() <= 1e-5 * np.abs(fd_hess).max()


def test_assembled_derivatives_match_differences_of_the_float_length():
    # interior nodes off the chord in all three node coordinates
    offsets = [[0.02, -0.03, 0.01], [-0.04, 0.02, 0.03], [0.01, 0.05, -0.02], [0.03, -0.01, 0.02]]
    _assert_derivatives_match_differences_of_the_float_length(np.eye(3), offsets)


def test_offset_derivatives_match_differences_of_the_float_length():
    # the two orthonormal rows across the chord that `minimize` builds: an identity
    # basis cannot tell a projection from its transpose
    across = np.linalg.svd(np.array([[1.0, 0.6, 0.4]]))[2][1:]
    offsets = [[0.02, -0.03], [-0.04, 0.02], [0.01, 0.05], [0.03, -0.01]]
    _assert_derivatives_match_differences_of_the_float_length(across, offsets)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_assembly_has_the_bits_of_a_scatter_add_of_the_segment_jets(m):
    # the reference adds each segment's 2d x 2d jet blocks into (m+1)d scratch
    # arrays at its two nodes' offsets and drops the endpoints' rows and columns;
    # at m = 2 the one interior node has no off-diagonal block
    spec = make_space(k=2, potential="0.15*x1*x2 + 0.05*x3^2")
    rng = np.random.default_rng(m)
    nodes = np.linspace([0.0, 0.0, 0.0], [1.0, 0.6, 0.4], m + 1)
    nodes[1:-1] += rng.uniform(-0.05, 0.05, size=(m - 1, 3))
    d = 3
    jet = jet_eval(lambda z: _segment_length(spec, z[:d], z[d:]),
                   np.hstack([nodes[:-1], nodes[1:]]))
    g, h = jet.gradient.reshape(m, 2, d), jet.hessian.reshape(m, 2, d, 2, d)
    grad, hess = np.zeros((m + 1, d)), np.zeros((m + 1, d, m + 1, d))
    for s in range(m):
        for a in (0, 1):
            grad[s + a] += g[s, a]
            for b in (0, 1):
                hess[s + a, :, s + b] += h[s, a, :, b]
    n = (m + 1) * d
    value, got_grad, got_hess = _length_derivatives(spec, nodes, np.eye(d))
    assert value == math.fsum(jet.value)
    assert got_grad.tobytes() == grad.ravel()[d:-d].tobytes()
    assert got_hess.shape == ((m - 1) * d,) * 2
    assert got_hess.tobytes() == hess.reshape(n, n)[d:-d, d:-d].tobytes()


def test_constant_coefficients_build_no_midpoint(monkeypatch):
    built = count_calls(monkeypatch, geodesic._Midpoints, "__missing__")
    nodes = np.array([[0.0, 0.0, 0.0], [0.3, 0.1, 0.05], [0.7, -0.1, 0.1], [1.0, 0.0, 0.0]])
    spec = make_space(k=1, b=["0", "0", "0.1"])
    _length_derivatives(spec, nodes, np.eye(3))
    polyline_length(spec, nodes)
    assert built == []


def test_curved_coefficients_build_each_midpoint_read_at_most_once(monkeypatch):
    # b = (0.1 x1 + 0.1 x2, 0.1 x1, 0) reads x1 twice and never reads x3
    built = count_calls(monkeypatch, geodesic._Midpoints, "__missing__")
    nodes = np.array([[0.0, 0.0, 0.0], [0.3, 0.1, 0.05], [0.7, -0.1, 0.1], [1.0, 0.0, 0.0]])
    spec = make_space(k=1, potential="0.05*x1^2 + 0.1*x1*x2")
    for run in (lambda: _length_derivatives(spec, nodes, np.eye(3)),
                lambda: polyline_length(spec, nodes)):
        built.clear()
        run()
        assert sorted(i for _, i in built) == [0, 1]


def _spray_residual_across(spec, nodes) -> float:
    """max over interior nodes of |r_s| across the chord of its neighbours, with
    r_s = (x_{s+1} - 2 x_s + x_{s-1})/h^2 + 2 G(x_s, (x_{s+1} - x_{s-1})/(2h)), h = 1/m:
    the nodes sit at fixed chord fractions, not at constant speed, so x'' + 2G is
    parallel to x' and only its part across x' vanishes, to O(h^2)."""
    h = 1.0 / (len(nodes) - 1)
    vel = (nodes[2:] - nodes[:-2]) / (2 * h)
    G, _ = spray(spec, np.hstack([nodes[1:-1], vel]))
    r = (nodes[2:] - 2 * nodes[1:-1] + nodes[:-2]) / h ** 2 + 2 * G
    u = vel / np.linalg.norm(vel, axis=1, keepdims=True)
    return float(np.linalg.norm(r - np.sum(r * u, axis=1, keepdims=True) * u, axis=1).max())


@pytest.mark.parametrize("family, k", [
    ("randers", 1), ("generalized-square", 1), ("generalized-square", 2),
    ("generalized-square", 3), ("matsumoto", 1), ("kropina", 1),
])
def test_solved_geodesics_solve_the_spray_equation_to_second_order(family, k):
    # curved a and a 1-form b that is not closed, so that no family's geodesic
    # is a straight line; beta > 0 along the path, Kropina's domain
    a = [["1 + 0.2*x2^2", "0.1*x1"], ["0.1*x1", "1 + 0.1*x1^2"]]
    spec = make_space(family=family, k=k, dim=2, a=a, b=["0.12 + 0.05*x2", "0.08*x1"])
    residuals = []
    for m in (16, 32, 64):
        res = minimize(spec, GeodesicParams(start=[0, 0], end=[1, 0.5], segments=m,
                                            iters=600, tol=1e-12, seed=1))
        assert res.converged
        mid, step = (res.nodes[1:] + res.nodes[:-1]) / 2, np.diff(res.nodes, axis=0)
        assert np.all(np.sum(spec.b_at(mid) * step, axis=1) > 0.0)  # beta > 0 on every segment
        residuals.append(_spray_residual_across(spec, res.nodes))
    assert residuals[1] / residuals[2] == pytest.approx(4.0, abs=0.3)


def test_minimize_curved_randers_exact_length():
    # b = grad(0.2 x1 x2) is exact and linear, so the midpoint rule integrates
    # beta exactly: the minimal length is |q - p| + phi(q) - phi(p)
    spec = make_space(family="randers", dim=2, potential="0.2*x1*x2")
    res = minimize(spec, GeodesicParams(start=[0, 0], end=[1, 1],
                                        segments=8, iters=600, tol=1e-7, seed=1))
    assert res.converged
    assert res.length == pytest.approx(np.sqrt(2.0) + 0.2, rel=1e-7)


def test_minimize_shipped_config_converges_in_few_newton_steps():
    # the problem of configs/geodesic_randers.cfg
    res = minimize(_randers2(), GeodesicParams(start=[0, 0], end=[1, 0],
                                               segments=8, iters=600, tol=1e-7, seed=1))
    assert res.converged
    assert res.iterations <= 20
    assert abs(res.length - 1.1) <= 1e-12


@pytest.mark.parametrize("family, potential, end, segments", [
    ("matsumoto", "0.1*x1*x2", [1, 1], 8),
    ("generalized-square", "0.05*x1^2 + 0.1*x1*x2", [1, 0.5], 4),
])
def test_budget_problems_converge_in_few_newton_steps(family, potential, end, segments):
    # the two curved problems that used up all 600 iterations while nodes
    # could slide along the curve and merge, where the length has no gradient
    spec = make_space(family=family, k=1, dim=2, potential=potential)
    res = minimize(spec, GeodesicParams(start=[0, 0], end=end, segments=segments,
                                        iters=600, tol=1e-7, seed=1))
    assert res.converged and res.message == "stationary point reached"
    assert res.iterations <= 10
    assert res.grad_norm <= 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_start_offsets_scale_with_the_segment_count(seed):
    # offsets of 1% of |q - p| at every m are about 2/3 of a segment at m = 64,
    # and took up to 58 iterations to shrink before Newton's quadratic phase
    spec = make_space(family="matsumoto", k=1, dim=2, potential="0.1*x1*x2")
    res = minimize(spec, GeodesicParams(start=[0, 0], end=[1, 1], segments=64,
                                        iters=600, tol=1e-7, seed=seed))
    assert res.converged and res.iterations <= 10


def test_pinned_matsumoto_follows_the_diagonal_with_second_order_error():
    # a = I and phi = 0.1 x1 x2 are symmetric in x1 and x2, so the diagonal is
    # the geodesic to (1, 1); along it F = 2/(sqrt(2) - 0.2 t), whose integral
    # is the exact length
    spec = make_space(family="matsumoto", k=1, dim=2, potential="0.1*x1*x2")
    exact = 10 * np.log(np.sqrt(2.0) / (np.sqrt(2.0) - 0.2))
    assert exact == pytest.approx(1.5247699682656415, abs=1e-15)
    errors = []
    for m in (8, 16, 32):
        res = minimize(spec, GeodesicParams(start=[0, 0], end=[1, 1], segments=m,
                                            iters=600, tol=1e-7, seed=1))
        assert res.converged
        assert np.abs(res.nodes[:, 0] - res.nodes[:, 1]).max() <= 1e-6
        # each node stays at its chord fraction: only its offset across the chord moves
        fractions = res.nodes.sum(axis=1) / 2.0
        assert np.abs(fractions - np.arange(m + 1) / m).max() <= 1e-15
        errors.append(res.length - exact)
    assert errors[0] == pytest.approx(-4.642e-5, rel=1e-3)
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.abs(ratios - 4.0).max() <= 0.01


def test_a_budget_that_ends_on_a_stationary_point_is_converged():
    # the pinned Matsumoto problem reaches tol at the test of iteration 3; a budget of
    # 2 ends after the step that got there, and the result still says it converged
    spec = make_space(family="matsumoto", k=1, dim=2, potential="0.1*x1*x2")
    params = GeodesicParams(start=[0, 0], end=[1, 1], segments=8, iters=600, tol=1e-7, seed=1)
    full = minimize(spec, params)
    assert full.converged and full.iterations == 3
    params.iters = 2
    res = minimize(spec, params)
    assert res.iterations == 2 and res.grad_norm <= 1e-7
    assert res.converged and res.message == "stationary point reached"
    assert res.length == full.length


@pytest.mark.parametrize("segments, tol, stop, passes", [
    (16, 1e-10, "float minimum reached: no step lowers the length past its rounding", 10),
    (16, 1e-15, "float minimum reached: no step lowers the length past its rounding", 5),
    (64, 1e-12, "float minimum reached: the last step left the length unchanged", 5),
])
def test_a_geodesic_at_its_float_minimum_stops_at_once(monkeypatch, segments, tol, stop, passes):
    # curved Randers reaches its exact length |q - p| + phi(q) - phi(p) in 3 steps. At
    # m = 16 the gradient is then 1.6e-10, and every trial from there is 1 ulp longer,
    # so the Armijo test rejects it. A trial whose gradient meets tol is damped, as a
    # smaller step may yet pass; the first one above tol ends the solve at the current
    # nodes: the 6th trial at tol 1e-10, the 1st at 1e-15. Damping on until the step
    # vanished once took 18 jet passes at tol 1e-10, and before that the budget of 200
    # ran out. At m = 64 an accepted step leaves the length unchanged
    spec = make_space(family="randers", dim=2, potential="0.2*x1*x2 + 0.1*x2^2")
    jets = count_calls(monkeypatch, geodesic, "jet_eval")
    res = minimize(spec, GeodesicParams(start=[0, 0], end=[1, 0.7], segments=segments,
                                        iters=200, tol=tol, seed=27))
    assert res.message == stop
    assert not res.converged and res.grad_norm > tol
    assert res.iterations <= 6 and len(jets) == passes
    assert res.length == res.trace[-1] == pytest.approx(1.4096555615733701, abs=1e-15)
    assert np.all(np.diff(res.trace) <= 0.0)


def test_an_indefinite_hessian_is_damped_until_it_factorizes(monkeypatch):
    # the chord's direction leaves the strongly convex cone at some midpoints, so
    # H + mu |H| I is not positive definite at the lower damping levels of some
    # iterations; each failed factorization damps harder, and a higher level
    # factorizes. The stationary polyline is a zig-zag, not a geodesic: this test
    # reads only the damping
    real, factored = np.linalg.cholesky, []

    def cholesky(a):
        try:
            low = real(a)
        except np.linalg.LinAlgError:
            factored.append(False)
            raise
        factored.append(True)
        return low

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    a = [["1 + 0.2*x2^2", "0.1*x1"], ["0.1*x1", "1 + 0.1*x1^2"]]
    spec = make_space(family="generalized-square", k=3, dim=2, a=a, b=["0.3 + 0.1*x2", "0.2*x1"])
    res = minimize(spec, GeodesicParams(start=[0, 0], end=[1, 0.5], segments=16,
                                        iters=500, tol=1e-10, seed=0))
    assert res.converged and res.message == "stationary point reached"
    assert factored.count(False) >= 10 and factored[-1]
    assert np.all(np.diff(res.trace) <= 0.0)


def test_each_newton_trial_is_one_jet_pass(monkeypatch):
    # the Armijo test reads the trial's own jet length: one jet for the start
    # offsets and one per trial, and no float length at all; every trial of
    # this solve is accepted, so the trials are the trace's later entries
    jets = count_calls(monkeypatch, geodesic, "jet_eval")
    floats = count_calls(monkeypatch, geodesic, "polyline_length")
    spec = make_space(family="matsumoto", k=1, dim=2, potential="0.1*x1*x2")
    res = minimize(spec, GeodesicParams(start=[0, 0], end=[1, 1], segments=8,
                                        iters=600, tol=1e-7, seed=1))
    trials = len(res.trace) - 1
    assert res.converged and trials >= 2
    assert len(jets) == 1 + trials
    assert floats == []


def test_a_start_polyline_off_the_domain_names_its_first_failing_segment():
    # sqrt(x1) of a(x): segments 0-1 of the chord from x1 = 1 lie at x1 > 0,
    # segment 2 is the first whose midpoint has x1 < 0
    spec = make_space(family="riemannian", dim=2, b=["0", "0"], a=[["sqrt(x1)", "0"], ["0", "1"]])
    with pytest.raises(SegmentDomainError, match="^segment 2: ") as err:
        minimize(spec, GeodesicParams(start=[1, 0], end=[-1, 0.5], segments=4, seed=1))
    assert err.value.segment == 2
    assert isinstance(err.value.__cause__, DomainError)


def test_a_start_polyline_that_fails_only_in_the_jet_raises_the_jet_error():
    # the middle segment's midpoint is x1 = 0 exactly: sqrt(x1^2) is 0 there, so the float
    # length names no failing segment (no SegmentDomainError), but the jet has no
    # derivative of sqrt at zero
    spec = make_space(family="riemannian", dim=2, b=["0", "0"],
                      a=[["1 + sqrt(x1^2)", "0"], ["0", "1"]])
    params = GeodesicParams(start=[-1.5, 0], end=[1.5, 0], segments=3, seed=1)
    with pytest.raises(DomainError, match=r"^derivative of sqrt at zero in 'sqrt\(x1\^2\.0\)'$"):
        minimize(spec, params)


def test_a_segment_whose_length_overflows_is_a_domain_exit():
    # beta = 5e199 at the midpoint of segment 1: F = (alpha + beta)^2 / alpha is inf there
    spec = make_space(family="generalized-square", dim=2, b=["1e200*x1", "0"])
    with pytest.raises(SegmentDomainError, match="^segment 1: F or its jet is not finite$") as err:
        polyline_length(spec, [[0, 0], [0, 1], [1, 1], [1, 2]])
    assert err.value.segment == 1


def test_a_segment_whose_jet_overflows_is_a_domain_exit():
    # every F is finite (2.0e307 on segment 1), but segment 1's Hessian is not
    spec = make_space(family="generalized-square", dim=2, b=["9e153*x1", "0"])
    nodes = np.array([[0, 0], [0, 1], [1, 1], [1, 2]], dtype=float)
    assert math.isfinite(polyline_length(spec, nodes))
    with pytest.raises(SegmentDomainError, match="^segment 1: F or its jet is not finite$") as err:
        _length_derivatives(spec, nodes, np.eye(2))
    assert err.value.segment == 1


def test_a_trial_whose_jet_is_not_finite_is_rejected(monkeypatch):
    # a NaN in the first trial's jet: that trial is rejected and damped harder, and
    # the solve still reaches the unpatched length
    spec = make_space(family="matsumoto", k=1, dim=2, potential="0.1*x1*x2")
    params = GeodesicParams(start=[0, 0], end=[1, 1], segments=8, iters=600, tol=1e-7, seed=1)
    ref = minimize(spec, params)
    real, jets = geodesic.jet_eval, []

    def poisoned(f, y):
        jets.append(out := real(f, y))
        if len(jets) == 2:
            out.hessian[0, 0, 0] = np.nan
        return out

    monkeypatch.setattr(geodesic, "jet_eval", poisoned)
    res = minimize(spec, params)
    assert res.converged and len(jets) == len(res.trace) + 1  # one rejected trial
    assert res.length == pytest.approx(ref.length, abs=1e-12)
