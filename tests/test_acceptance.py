"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them all).  Tolerances are
pinned here and nowhere else.

Criteria 5, 6 and 8 use the normal-field factor sqrt(b^2/zeta) with
zeta = 1 + k(k+1) b^2.  At beta = 0, in the a-orthonormal pair b/|b|, y/alpha,
g is the block [[1 + (k+1)(2k+1) b^2, (k+1)|b|], [(k+1)|b|, 1]] (and the
identity on the complement), whose determinant is zeta; hence
g^ij b_i b_j = b^2/zeta and the g-unit normal gives b_i = sqrt(b^2/zeta) N_i.
The printed factor sqrt(b^2/(1+k(k+1))) agrees with it only where b^2 = 1,
so the plane fixture (b^2 = 0.01) is kept in criteria 5 and 6 to tell the
two apart.
"""

import math

import numpy as np
import pytest

from conftest import (
    each_flag,
    exp_fixture,
    full_difference,
    lane,
    m_a_of,
    make_space,
    plane_fixture,
    radial_fixture,
    rel_error,
    stacked_frame,
    tangential_flag,
)
from finslerkit.classifier import ClassifyOptions, classify, surface_points
from finslerkit.connection import covariant_db
from finslerkit.geodesic import GeodesicParams, minimize, polyline_length
from finslerkit.hypersurface import chart_at
from finslerkit.metric import finsler_norm, flag_point, sample_flags
from finslerkit.numerics import fd_hessian, jet_eval
from finslerkit.tensors import (
    AuditParams,
    audit_sweep,
    bundle_at,
    half_f_squared,
)

KS = (1, 2, 3)
FIXTURES = {"plane": plane_fixture, "exp": exp_fixture, "radial": radial_fixture}


def _line(num: int, ok: bool, desc: str, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}{tail}")


@pytest.fixture(scope="module")
def oracle_sweep():
    """Per k: 1000 seeded in-domain flags (500 on each of two spaces, one with
    constant and one with position-dependent 1-form), with the closed-form
    bundle and both oracle Hessians at each flag.  Each space's 500 flags
    go through the bundle and each oracle as one batch."""
    data = {}
    for k in KS:
        rows = []
        for spec, seed in ((plane_fixture(k)[0], 100 + k), (exp_fixture(k)[0], 200 + k)):
            flags = sample_flags(spec, 500, seed=seed)
            bundle = bundle_at(spec, flags, flags.y)
            f = half_f_squared(spec, flags)
            jet, fd = jet_eval(f, flags.y).hessian, fd_hessian(f, flags.y, step=1e-4)
            rows += [(spec, flag, lane(bundle, i), jet[i], fd[i])
                     for i, flag in enumerate(each_flag(flags))]
        data[k] = rows
    return data


@pytest.fixture(scope="module")
def tangential_frames():
    """Per (fixture, k): 100 tangential flags with frames and curvature data.
    Flag j lies at point j % 20; each (fixture, k) is one frame over its flags."""
    cache = {}
    for name, fixture in FIXTURES.items():
        for k in KS:
            spec, surface = fixture(k)
            rng = np.random.default_rng(1000 + 10 * k + len(name))
            pts = surface_points(surface, spec, 20, seed=300 + k)
            vs = rng.normal(size=(5, len(pts), spec.dim - 1))  # [j // 20, j % 20]
            frame = stacked_frame(spec, chart_at(surface, pts), covariant_db(spec, pts),
                             list(np.swapaxes(vs, 0, 1)))  # 5 lanes per point, point by point
            cache[(name, k)] = [(spec, lane(frame, 5 * p + r))
                                for r in range(5) for p in range(len(pts))]
    return cache


def test_criterion_01_oracle_equivalence(oracle_sweep):
    worst_jet = worst_fd = 0.0
    for k in KS:
        for _, _, bundle, jet_h, fd_h in oracle_sweep[k]:
            worst_jet = max(worst_jet, rel_error(bundle.g, jet_h))
            worst_fd = max(worst_fd, rel_error(bundle.g, fd_h))
    ok = worst_jet <= 1e-7 and worst_fd <= 1e-5
    _line(1, ok, "closed-form fundamental tensor matches dual (1e-7) and "
          "finite-difference (1e-5) oracles on 1000 flags per k",
          f"max dual {worst_jet:.2e}, max fd {worst_fd:.2e}")
    assert worst_jet <= 1e-7
    assert worst_fd <= 1e-5


def test_criterion_02_inverse_identity(oracle_sweep):
    worst = 0.0
    eye = np.eye(3)
    for k in KS:
        for _, _, bundle, _, _ in oracle_sweep[k]:
            worst = max(worst, float(np.abs(bundle.g @ bundle.g_inv - eye).max()))
    ok = worst <= 1e-8
    _line(2, ok, "closed-form reciprocal tensor inverts the fundamental tensor "
          "to 1e-8 on the sweep", f"max |g g^-1 - I| = {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_03_structural_identities(oracle_sweep):
    worst_h = worst_c = worst_f2 = worst_hom = 0.0
    for k in KS:
        for spec, flag, bundle, _, _ in oracle_sweep[k]:
            worst_h = max(worst_h, float(np.abs(bundle.h @ flag.y).max()))
            worst_c = max(worst_c, float(np.abs(np.einsum("ijk,k->ij", bundle.C, flag.y)).max()))
            f2 = float(flag.y @ bundle.g @ flag.y)
            worst_f2 = max(worst_f2, abs(f2 - bundle.phi.F ** 2) / bundle.phi.F ** 2)
            for lam in (0.5, 2.0, 10.0):
                scaled = flag_point(spec, flag.x, lam * flag.y)
                f_scaled = finsler_norm(spec.family, spec.k, scaled.alpha, scaled.beta)
                worst_hom = max(worst_hom, abs(f_scaled - lam * bundle.phi.F) / abs(f_scaled))
    ok = worst_h <= 1e-8 and worst_c <= 1e-8 and worst_f2 <= 1e-10 and worst_hom <= 1e-12
    _line(3, ok, "h y = 0, C y = 0, g y y = F^2, F(x, s y) = s F(x, y) within "
          "stated tolerances on the sweep",
          f"h {worst_h:.1e}, C {worst_c:.1e}, F^2 {worst_f2:.1e}, hom {worst_hom:.1e}")
    assert worst_h <= 1e-8 and worst_c <= 1e-8
    assert worst_f2 <= 1e-10
    assert worst_hom <= 1e-12


def test_criterion_04_beta_zero_specializations(tangential_frames):
    worst = 0.0

    def check(value, expected):
        nonlocal worst
        worst = max(worst, abs(value - expected) / max(1.0, abs(expected)))

    for (name, k), rows in tangential_frames.items():
        for spec, frame in rows:
            fl, bundle = frame.bundle.flag, frame.bundle
            al = fl.alpha
            check(bundle.metric.p, 1.0)
            check(bundle.metric.p0, (k + 1) * (2 * k + 1))
            check(bundle.metric.p1, (k + 1) / al)
            check(bundle.metric.p2, 0.0)
            check(bundle.angular.q0, k * (k + 1))
            check(bundle.angular.q1, 0.0)
            check(bundle.angular.q2, -1.0 / al ** 2)
            check(bundle.gamma1, k * (k * k - 1) / al)
            check(bundle.reciprocal.zeta, 1.0 + k * (k + 1) * fl.b2)
    ok = worst <= 1e-12
    _line(4, ok, "beta = 0 coefficient specializations exact to 1e-12 at 100 "
          "tangential flags per fixture and k", f"max deviation {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_05_normal_field_identities(tangential_frames):
    worst = {}
    for name in ("plane", "exp"):
        for k in KS:
            dev_prop = dev_contr = 0.0
            for spec, frame in tangential_frames[(name, k)]:
                fl = frame.bundle.flag
                b2 = fl.b2
                zeta = 1 + k * (k + 1) * b2
                dev_prop = max(dev_prop, float(
                    np.abs(fl.b - math.sqrt(b2 / zeta) * frame.N_dn).max()))
                contraction = float(fl.b @ frame.bundle.g_inv @ fl.b)
                dev_contr = max(dev_contr, abs(contraction - b2 / zeta))
            worst[(name, k)] = (dev_prop, dev_contr)
    ok = all(dp <= 1e-9 and dc <= 1e-9 for dp, dc in worst.values())
    detail = "; ".join(
        f"{name} k={k}: prop {dp:.1e}, contr {dc:.1e}"
        for (name, k), (dp, dc) in sorted(worst.items())
    )
    _line(5, ok, "one-form aligns with the normal at factor "
          "sqrt(b^2/(1+k(k+1)b^2)) and g^ij b_i b_j = b^2/(1+k(k+1)b^2) to 1e-9 "
          "on plane and exp fixtures", detail)
    assert ok


def test_criterion_06_second_fundamental_tensors(tangential_frames):
    worst_ma = worst_sym = 0.0
    worst_prop = {}
    for name in ("plane", "exp"):
        for k in KS:
            dev = 0.0
            for spec, frame in tangential_frames[(name, k)]:
                worst_ma = max(worst_ma, float(np.abs(m_a_of(frame)).max()))
                worst_sym = max(worst_sym, float(np.abs(frame.H_ab - frame.H_ab.T).max()))
                b2 = frame.bundle.flag.b2
                zeta = 1 + k * (k + 1) * b2
                factor = (k + 1) / (2 * frame.bundle.flag.alpha) * math.sqrt(b2 / zeta)
                dev = max(dev, float(np.abs(frame.M_ab - factor * frame.h_ind).max()))
            worst_prop[(name, k)] = dev
    ok = worst_ma <= 1e-8 and worst_sym <= 1e-8 and all(
        v <= 1e-8 for v in worst_prop.values())
    detail = (f"M_a {worst_ma:.1e}, H_ab asym {worst_sym:.1e}; M_ab factor dev: "
              + "; ".join(f"{n} k={k}: {v:.1e}" for (n, k), v in sorted(worst_prop.items())))
    _line(6, ok, "M_a = 0 and H_ab symmetric to 1e-8; M_ab = "
          "(k+1)/(2 alpha) sqrt(b^2/(1+k(k+1)b^2)) h_ab to 1e-8 on plane and exp "
          "fixtures", detail)
    assert worst_ma <= 1e-8
    assert worst_sym <= 1e-8
    assert all(v <= 1e-8 for v in worst_prop.values())


def test_criterion_07_classification_matrix():
    expected = {"plane": (True, True), "exp": (True, True), "radial": (False, False)}
    opts = ClassifyOptions(points=25, directions=5, seed=42, tol=1e-8)
    results = []
    ok = True
    for name, fixture in FIXTURES.items():
        for k in KS:
            spec, surface = fixture(k)
            report = classify(surface, spec, opts)  # raises if routes disagree
            got = (report.first_kind.passed, report.second_kind.passed)
            third_ok = report.third_kind.verdict == "impossible"
            ok = ok and got == expected[name] and third_ok
            results.append(f"{name} k={k}: first {'Y' if got[0] else 'N'} "
                           f"second {'Y' if got[1] else 'N'} third {report.third_kind.verdict}")
    _line(7, ok, "plane/exp are hyperplanes of first and second kind, radial is "
          "neither, third kind impossible throughout; algebraic and geometric "
          "routes agree", "; ".join(results))
    assert ok


def test_criterion_08_connection_consistency():
    # constant 1-form: difference tensor vanishes identically
    worst_d = 0.0
    spec_const = make_space(k=2, b=["0", "0", "0.1"])
    for flag in each_flag(sample_flags(spec_const, 50, seed=8)):
        d = full_difference(bundle_at(spec_const, flag.x, flag.y), covariant_db(spec_const, flag))
        worst_d = max(worst_d, float(np.abs(d).max()))

    # scalar identity b_{i|j} y^i y^j = b_00 / (1 + k(k+1) b^2) at tangential
    # flags; trivial on the exp fixture (b_00 = 0 there) and non-trivial on
    # the radial fixture (b^2 = 1, b_00 = |y|^2 > 0)
    worst_rel = 0.0
    for k in KS:
        for fixture in (exp_fixture, radial_fixture):
            spec, surface = fixture(k)
            rng = np.random.default_rng(60 + k)
            for x0 in surface_points(surface, spec, 10, seed=70 + k):
                chart = chart_at(surface, x0)
                flag = tangential_flag(spec, chart, rng.normal(size=spec.dim - 1))
                bundle = bundle_at(spec, flag.x, flag.y)
                conn = covariant_db(spec, bundle.flag)
                d = full_difference(bundle, conn)
                b00 = float(flag.y @ conn.b_cov @ flag.y)
                got = b00 - float(flag.b @ np.einsum("ijk,j,k->i", d, flag.y, flag.y))
                stated = b00 / (1 + k * (k + 1) * flag.b2)
                worst_rel = max(worst_rel, abs(got - stated) / max(1e-30, abs(stated), abs(got)))
    ok = worst_d == 0.0 and worst_rel <= 1e-8
    _line(8, ok, "difference tensor vanishes for constant b; Cartan-covariant "
          "scalar identity holds to relative 1e-8 at tangential flags",
          f"max |D| {worst_d:.1e}, max rel {worst_rel:.2e}")
    assert worst_d == 0.0
    assert worst_rel <= 1e-8


def test_criterion_09_geodesics():
    euclid = make_space(family="riemannian", dim=2, b=["0", "0"])
    res_e = minimize(euclid, GeodesicParams(start=[0, 0], end=[1, 0],
                                            segments=8, iters=800, tol=1e-7, seed=1))
    err_e = abs(res_e.length - 1.0)

    randers = make_space(family="randers", dim=2, b=["0.1", "0"])
    straight = polyline_length(randers, [[0, 0], [1, 0]])
    res_r = minimize(randers, GeodesicParams(start=[0, 0], end=[1, 0],
                                             segments=8, iters=800, tol=1e-7, seed=1))
    err_r = abs(res_r.length - straight)

    ok = err_e <= 1e-6 and err_r <= 1e-5 and res_e.converged and res_r.converged
    _line(9, ok, "arc-length minimization recovers the straight line (flat: "
          "1e-6; constant drift: 1e-5)",
          f"flat err {err_e:.2e}, drift err {err_r:.2e} vs straight {straight!r}")
    assert res_e.converged and err_e <= 1e-6
    assert res_r.converged and err_r <= 1e-5


def test_criterion_10_audit_flags_exactly_one_expected_discrepancy():
    failing = set()
    passing = set()
    for name, fixture in FIXTURES.items():
        for k in KS:
            spec, _ = fixture(k)
            report = audit_sweep(spec, AuditParams(samples=25, seed=500 + k))
            for row in report.rows:
                if row.passed:
                    passing.add(row.check)
                else:
                    failing.add((row.check, row.expected_mismatch))
    ok = failing == {("q2-expanded-form", True)}
    _line(10, ok, "audit flags exactly the documented q2 expansion mismatch and "
          "nothing else across all fixtures",
          f"failing rows: {sorted(failing)}")
    assert failing == {("q2-expanded-form", True)}
    assert "fundamental-vs-jet-oracle" in passing
