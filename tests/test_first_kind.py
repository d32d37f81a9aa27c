"""The first kind from its definition, on a curved a.

Matsumoto (1985) calls a hypersurface a hyperplane of the first kind when its
paths are paths of the ambient space.  So an ambient geodesic between two of
its points stays on it: the nodes of a solved polyline stray from it by O(h^2)
only, while off a hyperplane of the first kind they tend to a nonzero limit.
`geodesic.minimize` shares only `finsler_norm` with the classifier's two
routes, and the plane x3 = 0 below is of the first kind in one a and not in
the other through the Christoffel symbols alone: a_11 even in x3 gives
Gamma^3_ab = 0 on the plane, a_11 linear in x3 gives Gamma^3_11 = -1/4.
Pointwise, the same definition reads H_a v^a = N_i (B^i_ab v^a v^b + 2 G^i(x, y)),
with the spray G taken from F^2/2 alone.
"""

import numpy as np
import pytest

from conftest import make_space, spray, stacked_frame
from finslerkit import expr as ex
from finslerkit.classifier import ClassifyOptions, classify, surface_points
from finslerkit.connection import covariant_db
from finslerkit.geodesic import GeodesicParams, minimize
from finslerkit.hypersurface import LevelSurface

POTENTIAL = "0.2*x3*exp(0.5*x1)*(1 + 0.3*x2^2)"  # the plane x3 = 0 is its level 0
A_11 = {"pass": "1 + 0.3*x2^2 + x3^2", "fail": "1 + 0.3*x2^2 + 0.5*x3"}
POWER_QUOTIENT = [("randers", 1), ("generalized-square", 1), ("generalized-square", 2),
                  ("generalized-square", 3)]
SEGMENTS = (16, 32, 64)


def _space(case: str, family: str, k: int):
    a = [[A_11[case], "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    return make_space(family=family, k=k, a=a, potential=POTENTIAL)


def _deviations(spec) -> np.ndarray:
    """max |x3| over the nodes of the ambient geodesic from (0, 0, 0) to (1, 1, 0)
    at each segment count."""
    out = []
    for m in SEGMENTS:
        res = minimize(spec, GeodesicParams(start=[0, 0, 0], end=[1, 1, 0], segments=m,
                                            tol=1e-10, seed=0))
        assert res.converged
        out.append(np.abs(res.nodes[:, 2]).max())
    return np.array(out)


@pytest.mark.parametrize("case, verdict", [("pass", "PASS"), ("fail", "FAIL")])
@pytest.mark.parametrize("family, k", POWER_QUOTIENT)
def test_classify_decides_the_first_kind_through_the_christoffel_symbols(family, k, case,
                                                                         verdict):
    spec = _space(case, family, k)
    surface = LevelSurface(ex.parse(POTENTIAL), 0.0, spec)
    report = classify(surface, spec, ClassifyOptions(points=6, directions=3, seed=11))
    assert report.summary[0] == ("first-kind", verdict)


@pytest.mark.parametrize("case", ["pass", "fail"])
@pytest.mark.parametrize("family, k", POWER_QUOTIENT)
def test_normal_curvature_is_the_spray_across_the_surface(family, k, case):
    # H_a v^a = N_i (B^i_0a + G*^i_0j B^j_a) v^a, and G*^i_jk y^j y^k = 2 G^i
    spec = _space(case, family, k)
    surface = LevelSurface(ex.parse(POTENTIAL), 0.0, spec)
    pts = surface_points(surface, spec, 6, seed=k)
    vs = np.random.default_rng(k).normal(size=(len(pts), 3, 2))
    frame = stacked_frame(spec, surface, covariant_db(spec, pts), vs)
    got = np.einsum("na,na->n", frame.H_a, frame.v)
    G, _ = spray(spec, np.concatenate([frame.chart.x0, frame.bundle.flag.y], axis=-1))
    # N_i B^i_00 = -(N_D / phi_D) phi_ij y^i y^j, and N_i is a multiple of phi_i
    grad, hess = frame.chart.grad, frame.chart.hess
    ratio = np.einsum("ni,ni->n", frame.N_dn, grad) / np.einsum("ni,ni->n", grad, grad)
    n_b00 = -ratio * np.einsum("nab,na,nb->n", hess, frame.v, frame.v)
    ref = n_b00 + 2.0 * np.einsum("ni,ni->n", frame.N_dn, G)
    assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(got).max())
    if case == "fail":
        assert np.abs(got).max() > 0.1


@pytest.mark.parametrize("family, k", POWER_QUOTIENT + [("matsumoto", 1)])
def test_ambient_geodesics_stay_on_a_hyperplane_of_the_first_kind(family, k):
    # Matsumoto, which classify refuses, follows the same h^2 law
    dev = _deviations(_space("pass", family, k))
    assert dev.max() < 1e-4
    assert np.abs(dev[:-1] / dev[1:] - 4.0).max() <= 0.3


@pytest.mark.parametrize("family, k", POWER_QUOTIENT + [("matsumoto", 1)])
def test_ambient_geodesics_leave_a_plane_that_is_not_of_the_first_kind(family, k):
    dev = _deviations(_space("fail", family, k))
    assert dev.min() > 1e-3
    assert dev.max() / dev.min() < 1.05


def test_randers_deviations_on_the_curved_pair():
    # the figures of the probe that set up this pair
    assert _deviations(_space("pass", "randers", 1)) == pytest.approx(
        [2.06e-5, 5.14e-6, 1.28e-6], rel=5e-3)
    assert _deviations(_space("fail", "randers", 1))[-1] == pytest.approx(3.21e-2, rel=5e-3)
