"""Seeded input generator and per-item reference checks.

A workload is a *cycle*: a fixed list of CLI items built from the seed.  The
seed chooses the numbers (coefficients, levels, endpoints, section seeds);
the mix of traffic dimensions (family, k, d, constant or position-dependent
coefficients, segment count) is the same for every seed, so throughput and
latency figures of different seeds measure the same kind of work.

Every item carries the outcome a correct program must produce: its exit
status and a check of its ``--out`` rows.  The references are analytic; none
of them is taken from the program under test.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field

FAMILIES = (
    "generalized-square",
    "square",
    "randers",
    "kropina",
    "generalized-kropina",
    "matsumoto",
    "riemannian",
)

AUDIT_TOLERANCES = {
    "fundamental-vs-jet-oracle": 1e-7,
    "fundamental-vs-fd-oracle": 1e-5,
    "angular-identity": 1e-8,
    "reciprocal-vs-inversion": 1e-8,
    "hv-torsion-vs-jet-oracle": 1e-7,
    "q2-expanded-form": 1e-7,
}
Q2_INFORMATIONAL = "FAIL-known-misprint-informational"

AUDIT_SAMPLES = 20
CLASSIFY_POINTS = 25
CLASSIFY_DIRECTIONS = 5
GEODESIC_ITERS = 600
GEODESIC_TOL = 1e-7
# Seeded draws per grid cell of the audit and classify cycles: more distinct
# items per run, so that one seed's numbers weigh less in its figures
DRAWS = 2

@dataclass
class Item:
    """One CLI invocation with the outcome a correct program produces."""

    key: str
    command: str
    config: str
    expect_status: int
    reference: dict = field(default_factory=dict)
    known_defect: str | None = None


# -- number and expression formatting

def _num(rng: random.Random, lo: float, hi: float) -> float:
    """A uniform draw rounded to the 4 decimals written into the config."""
    return round(rng.uniform(lo, hi), 4)


def _spd(rng: random.Random, d: int) -> list[list[float]]:
    """Diagonally dominant symmetric matrix, positive definite for d <= 4."""
    a = [[0.0] * d for _ in range(d)]
    for i in range(d):
        a[i][i] = _num(rng, 0.9, 1.3)
        for j in range(i + 1, d):
            a[i][j] = a[j][i] = _num(rng, -0.15, 0.15)
    return a


def _poly(linear: list[float], quad: dict[tuple[int, int], float]) -> str:
    """sum c_i x_i + sum w_ij x_i x_j as config expression text."""
    terms = [f"{c}*x{i + 1}" for i, c in enumerate(linear) if c != 0.0]
    for (i, j), w in sorted(quad.items()):
        terms.append(f"{w}*x{i + 1}^2" if i == j else f"{w}*x{i + 1}*x{j + 1}")
    return " + ".join(terms) if terms else "0"


def _space(family: str, k: int, a_rows: list[str], b_line: str) -> str:
    return "\n".join(
        ["[space]", f"family = {family}", f"k = {k}"]
        + [f"a_row = {row}" for row in a_rows]
        + [b_line]
    )


def _const_rows(a: list[list[float]]) -> list[str]:
    return [", ".join(str(v) for v in row) for row in a]


# -- audit-sweep

def _audit_item(rng: random.Random, family: str, k: int, d: int, varying: bool) -> Item:
    a = _spd(rng, d)
    linear = [_num(rng, 0.05, 0.25) * rng.choice((-1, 1)) for _ in range(d)]
    if varying:
        j = rng.randrange(d)
        factor = f"(1 + {_num(rng, 0.05, 0.2)}*x{j + 1}^2)"
        rows = [", ".join(f"{factor}*{v}" for v in row) for row in a]
        i1, i2 = rng.sample(range(d), 2)
        b_line = "b_potential = " + _poly(linear, {(min(i1, i2), max(i1, i2)): _num(rng, 0.03, 0.1)})
    else:
        rows = _const_rows(a)
        b_line = "b = " + ", ".join(str(c) for c in linear)
    seed = rng.randrange(1, 10_000)
    config = "\n".join([
        _space(family, k, rows, b_line),
        "[audit]", f"samples = {AUDIT_SAMPLES}", f"seed = {seed}", "",
    ])
    checks = sorted(c for c in AUDIT_TOLERANCES
                    if c != "q2-expanded-form" or family in ("generalized-square", "square"))
    coeffs = "varying" if varying else "constant"
    return Item(
        key=f"audit/{family}/k{k}/d{d}/{coeffs}", command="audit", config=config,
        expect_status=0, reference={"seed": seed, "checks": checks},
        known_defect="kropina-fd-step" if "kropina" in family else None,
    )


def audit_cycle(rng: random.Random) -> list[Item]:
    items = [
        _audit_item(rng, family, k, d, varying=(k + d + fi) % 2 == 1)
        for fi, family in enumerate(FAMILIES) for k in (1, 2, 3) for d in (2, 3, 4)
        for _draw in range(DRAWS)
    ]
    rng.shuffle(items)
    return items


# -- classify-levels

def _classify_item(rng: random.Random, family: str, k: int, d: int, potential: str) -> Item:
    a = _spd(rng, d)
    x0 = [_num(rng, -0.4, 0.4) for _ in range(d)]
    c = [_num(rng, 0.2, 0.5) * rng.choice((-1, 1)) for _ in range(d)]
    if potential == "affine":
        text = _poly(c, {})
        level = round(sum(ci * xi for ci, xi in zip(c, x0)), 6)
    elif potential == "exp":
        text = f"exp({_poly(c, {})})"
        level = round(math.exp(sum(ci * xi for ci, xi in zip(c, x0))), 6)
    else:  # full-rank quadratic form x^T Q x / 2, Q = the SPD draw scaled down
        q = [[0.5 * v for v in row] for row in _spd(rng, d)]
        quad = {(i, j): round(q[i][j] / 2 if i == j else q[i][j], 6)
                for i in range(d) for j in range(i, d)}
        text = _poly([0.0] * d, quad)
        r = [_num(rng, 0.5, 0.8) * rng.choice((-1, 1)) for _ in range(d)]
        level = round(sum(w * r[i] * r[j] for (i, j), w in quad.items()), 6)
    hyperplane = potential != "quadratic"
    seed = rng.randrange(1, 10_000)
    config = "\n".join([
        _space(family, k, _const_rows(a), f"b_potential = {text}"),
        "[hypersurface]", f"level = {level}",
        "[classify]", f"points = {CLASSIFY_POINTS}", f"directions = {CLASSIFY_DIRECTIONS}",
        f"seed = {seed}", "tol = 1e-8", "",
    ])
    return Item(
        key=f"classify/{family}/k{k}/d{d}/{potential}", command="classify", config=config,
        expect_status=0 if hyperplane else 1,
        reference={"seed": seed, "points": CLASSIFY_POINTS, "hyperplane": hyperplane, "dim": d},
    )


def classify_cycle(rng: random.Random) -> list[Item]:
    items = [
        _classify_item(rng, family, k, d, potential)
        for d in (2, 3, 4)
        for potential in ("affine", "exp", "quadratic")
        for family, k in (("generalized-square", 1), ("generalized-square", 2),
                          ("generalized-square", 3), ("square", 1))
        for _draw in range(DRAWS)
    ]
    rng.shuffle(items)
    return items


# -- geodesic-solve

def finsler_norm(family: str, k: int, alpha: float, beta: float) -> float:
    """F(alpha, beta) of each family, written out independently of the program."""
    if family == "generalized-square":
        return (alpha + beta) ** (k + 1) / alpha ** k
    if family == "square":
        return (alpha + beta) ** 2 / alpha
    if family == "randers":
        return alpha + beta
    if family == "kropina":
        return alpha * alpha / beta
    if family == "generalized-kropina":
        return alpha ** (k + 1) / beta ** k
    if family == "matsumoto":
        return alpha * alpha / (alpha - beta)
    return alpha


def _phi(ref: dict, x: list[float]) -> float:
    return (sum(c * xi for c, xi in zip(ref["linear"], x))
            + sum(w * x[i] * x[j] for (i, j), w in ref["quad"].items()))


def _b(ref: dict, x: list[float]) -> list[float]:
    b = list(ref["linear"])
    for (i, j), w in ref["quad"].items():
        b[i] += w * x[j]
        b[j] += w * x[i]
    return b


def polyline_length(ref: dict, nodes: list[list[float]]) -> float:
    """Sum of F(midpoint, segment) over the polyline, by the midpoint rule."""
    a, total = ref["a"], 0.0
    d = len(a)
    for n0, n1 in zip(nodes, nodes[1:]):
        delta = [v1 - v0 for v0, v1 in zip(n0, n1)]
        mid = [0.5 * (v0 + v1) for v0, v1 in zip(n0, n1)]
        alpha = math.sqrt(sum(a[i][j] * delta[i] * delta[j] for i in range(d) for j in range(d)))
        beta = sum(bi * di for bi, di in zip(_b(ref, mid), delta))
        total += finsler_norm(ref["family"], ref["k"], alpha, beta)
    return total


def chord(ref: dict) -> list[list[float]]:
    p, q, m = ref["start"], ref["end"], ref["segments"]
    return [[pi + (qi - pi) * s / m for pi, qi in zip(p, q)] for s in range(m + 1)]


def reference_length(ref: dict) -> float | None:
    """Exact minimal polyline length where one is known, else None.

    Constant coefficients: the straight line, length F(q - p).  Randers with
    b = grad(phi) and constant a: |q - p|_alpha + phi(q) - phi(p), because the
    beta part is exact and the midpoint rule integrates a linear b exactly.
    """
    if not ref["quad"]:
        return polyline_length(ref, [ref["start"], ref["end"]])
    if ref["family"] == "randers":
        flat = dict(ref, family="riemannian")
        return (polyline_length(flat, [ref["start"], ref["end"]])
                + _phi(ref, ref["end"]) - _phi(ref, ref["start"]))
    return None


# Seeded shapes (family, k, d, curved, segments) seen to exhaust the
# iteration budget at baseline: the 4-segment one in 2 of about 500 draws,
# the 8-segment one in 1 of 80.  Non-convergence of any other seeded shape
# is an unexpected failure.
BUDGET_SHAPES = {
    ("generalized-square", 2, 3, False, 4),
    ("randers", 1, 2, False, 8),
}


def _geodesic_item(rng: random.Random, family: str, k: int, d: int, curved: bool,
                   segments: int = 4) -> Item:
    """A seeded problem from near the origin to near (0.9, 0.45, ...)."""
    a = [[_num(rng, 0.95, 1.1) if i == j else 0.0 for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            a[i][j] = a[j][i] = _num(rng, -0.05, 0.05)
    linear = [_num(rng, 0.05, 0.2) for _ in range(d)]
    quad = {(0, 1): _num(rng, 0.05, 0.2)} if curved else {}
    if curved and d > 2:
        quad[(d - 1, d - 1)] = _num(rng, 0.03, 0.1)
    ref = {"family": family, "k": k, "a": a, "linear": linear, "quad": quad,
           "start": [_num(rng, -0.2, 0.0) for _ in range(d)],
           "end": [_num(rng, 0.8, 1.0)] + [_num(rng, 0.3, 0.6) for _ in range(d - 1)],
           "segments": segments}
    shape = (family, k, d, curved, segments)
    known = "geodesic-budget" if shape in BUDGET_SHAPES else None
    return _geodesic_config(ref, "curved" if curved else "flat", rng.randrange(1, 10_000), known)


def _pinned(family: str, k: int, linear: list[float], quad: dict, end: list[float],
            segments: int, known_defect: str | None = None) -> Item:
    """A fixed 2-D problem from the origin with a = identity, the same for every seed."""
    ref = {"family": family, "k": k, "a": [[1.0, 0.0], [0.0, 1.0]], "linear": linear,
           "quad": quad, "start": [0.0, 0.0], "end": end, "segments": segments}
    return _geodesic_config(ref, "pinned", 1, known_defect)


def _geodesic_config(ref: dict, shape: str, seed: int, known_defect: str | None = None) -> Item:
    b_line = ("b = " + ", ".join(str(c) for c in ref["linear"]) if not ref["quad"]
              else "b_potential = " + _poly(ref["linear"], ref["quad"]))
    config = "\n".join([
        _space(ref["family"], ref["k"], _const_rows(ref["a"]), b_line),
        "[geodesic]",
        "start = " + ", ".join(str(v) for v in ref["start"]),
        "end = " + ", ".join(str(v) for v in ref["end"]),
        f"segments = {ref['segments']}", f"iters = {GEODESIC_ITERS}",
        f"tol = {GEODESIC_TOL}", f"seed = {seed}", "",
    ])
    d = len(ref["a"])
    return Item(
        key=f"geodesic/{ref['family']}/k{ref['k']}/d{d}/{shape}/m{ref['segments']}",
        command="geodesic", config=config, expect_status=0,
        reference=dict(ref, seed=seed), known_defect=known_defect,
    )


# Fixed 2-D problems, run in every cycle.  The first is the problem of
# configs/geodesic_randers.cfg, the repo's shipped geodesic config.  The
# curved Randers case has the exact length sqrt(2) + 0.2 (105 iterations).
# The others exhaust the iteration budget at baseline: the curved Matsumoto
# case phi = 0.1 x1 x2 to (1, 1) with 8 segments, a curved
# generalized-square case and a flat generalized-Kropina case (Kropina-type
# problems converge for some seeded draws and not for others).
PINNED_GEODESICS = (
    ("randers", 1, [0.1, 0.0], {}, [1.0, 0.0], 8, None),
    ("randers", 1, [0.0, 0.0], {(0, 1): 0.2}, [1.0, 1.0], 8, None),
    ("matsumoto", 1, [0.0, 0.0], {(0, 1): 0.1}, [1.0, 1.0], 8, "geodesic-budget"),
    ("generalized-square", 1, [0.0, 0.0], {(0, 0): 0.05, (0, 1): 0.1}, [1.0, 0.5], 4,
     "geodesic-budget"),
    ("generalized-kropina", 2, [0.2, 0.1], {}, [1.0, 0.5], 4, "geodesic-budget"),
)


def geodesic_cycle(rng: random.Random) -> list[Item]:
    items = [
        _geodesic_item(rng, family, k, d, curved)
        for family, k, curved in (("randers", 1, False), ("generalized-square", 1, False),
                                  ("generalized-square", 2, False), ("matsumoto", 1, False),
                                  ("riemannian", 1, False), ("randers", 1, True))
        for d in (2, 3) for _draw in range(3)
    ]
    # 8 segments, as in configs/geodesic_randers.cfg (flat 2-D Randers) and
    # the 2-D and 3-D minimizer tests.  Curved 2-D Randers at 8 segments is
    # pinned rather than seeded: seeded draws needed up to 523 of the 600
    # iterations.
    items += [_geodesic_item(rng, "randers", 1, d, False, segments=8) for d in (2, 3)]
    items += [_pinned(*spec) for spec in PINNED_GEODESICS]
    rng.shuffle(items)
    return items


CYCLES = {
    "audit-sweep": audit_cycle,
    "classify-levels": classify_cycle,
    "geodesic-solve": geodesic_cycle,
}


def build(workload: str, seed: int) -> tuple[Item, list[Item]]:
    """(warm-up item, measured cycle) for a workload; same seed, same inputs."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(CYCLES)}")
    fixed = random.Random(workload)  # the warm-up item is the same for every seed
    if workload == "audit-sweep":
        warm = _audit_item(fixed, "generalized-square", 1, 2, varying=False)
    elif workload == "classify-levels":
        warm = _classify_item(fixed, "generalized-square", 1, 2, "affine")
    else:
        warm = _geodesic_item(fixed, "randers", 1, 2, curved=False)
    return warm, CYCLES[workload](random.Random(f"{workload}:{seed}"))


# -- checks

def _rows(out: bytes, seed: int, header: str) -> list[list[str]]:
    lines = out.decode().splitlines()
    if lines[:2] != [f"# seed={seed}", header]:
        raise ValueError(f"bad preamble {lines[:2]!r}")
    return list(csv.reader(io.StringIO("\n".join(lines[2:]))))


def _check_audit(item: Item, rows: list[list[str]], status: int) -> str | None:
    ref = item.reference
    if sorted(r[0] for r in rows) != ref["checks"]:
        return f"audit checks {[r[0] for r in rows]} differ from {ref['checks']}"
    failing = []
    for check, err, tol, verdict, _note in rows:
        err, tol = float(err), float(tol)
        if tol != AUDIT_TOLERANCES[check] or not math.isfinite(err):
            return f"{check}: tol {tol} or error {err} is wrong"
        if check == "q2-expanded-form" and verdict == Q2_INFORMATIONAL:
            continue
        if verdict != ("PASS" if err <= tol else "FAIL"):
            return f"{check}: verdict {verdict} does not match error {err:.3e}"
        if verdict == "FAIL":
            failing.append(check)
    if failing:
        return "failed checks " + ", ".join(failing)
    return None


def _check_classify(item: Item, rows: list[list[str]], status: int) -> str | None:
    ref = item.reference
    if len(rows) != 3 * ref["points"]:
        return f"{len(rows)} rows for {ref['points']} points"
    verdict = "PASS" if ref["hyperplane"] else "FAIL"
    for n, (point, test, residual, got) in enumerate(rows):
        if int(point) != n // 3 + 1:
            return f"row {n + 1}: point index {point}"
        r = float(residual)
        if test in ("first-kind", "second-kind"):
            ok = r <= 1e-9 if ref["hyperplane"] else r > 1e-6
            if got != verdict or not ok:
                return f"point {point} {test}: {got} with residual {r:.3e}, expected {verdict}"
        elif test != "third-kind":
            return f"row {n + 1}: unknown test {test}"
        elif ref["dim"] == 2 and not r <= 1e-12:
            # the induced angular metric of a curve vanishes, and M_ab with it
            return f"point {point} third-kind: witness {r:.3e} on a curve"
        elif ref["dim"] > 2 and (got != "IMPOSSIBLE" or not r > 0.0):
            return f"point {point} third-kind: {got} with witness {r:.3e}"
    return None


def _check_geodesic(item: Item, rows: list[list[str]], status: int) -> str | None:
    ref = item.reference
    d, m = len(ref["a"]), ref["segments"]
    nodes = [[0.0] * d for _ in range(m + 1)]
    trace = []
    for context, quantity, i, j, _k, value in rows:
        if quantity == "node":
            nodes[int(i) - 1][int(j) - 1] = float(value)
        elif quantity == "trace":
            trace.append(float(value))
    if len([r for r in rows if r[1] == "node"]) != (m + 1) * d or not trace:
        return "missing node or trace rows"
    if nodes[0] != ref["start"] or nodes[-1] != ref["end"]:
        return "endpoints moved"
    if any(t1 > t0 for t0, t1 in zip(trace, trace[1:])):
        return "length trace increases"
    length = trace[-1]
    if abs(polyline_length(ref, nodes) - length) > 1e-9 * length:
        return "reported length is not the length of the reported nodes"
    if status != 0:
        return "not converged"
    exact = reference_length(ref)
    if exact is not None and abs(length - exact) > 1e-7 * exact:
        return f"length {length!r} differs from the exact {exact!r}"
    if exact is None and length > polyline_length(ref, chord(ref)) * (1 + 1e-12):
        return "length exceeds the straight chord"
    return None


_CHECKS = {
    "audit": (_check_audit, "check,max_error,tol,verdict,note"),
    "classify": (_check_classify, "point-index,test,residual,verdict"),
    "geodesic": (_check_geodesic, "context,quantity,i,j,k,value"),
}


def check(item: Item, status, out: bytes | None, text: str) -> tuple[str | None, bool]:
    """(failure reason or None, whether the failure is the item's known defect)."""
    problem = _problem(item, status, out, text)
    if problem is None:
        return None, False
    return problem, _is_known(item, status, problem, text)


def _problem(item: Item, status, out: bytes | None, text: str) -> str | None:
    if status not in (0, 1):
        return f"exit status {status!r}: {text.strip()[-200:]}"
    if out is None:
        return "no --out file"
    func, header = _CHECKS[item.command]
    try:
        problem = func(item, _rows(out, item.reference["seed"], header), status)
    except (ValueError, IndexError) as err:
        return f"unreadable rows: {err}"
    if problem is None and status != item.expect_status:
        problem = f"exit status {status}, expected {item.expect_status}"
    return problem


def _is_known(item: Item, status, problem: str, text: str) -> bool:
    """Baseline defects that still count as failed items but keep the run correct."""
    if item.known_defect == "kropina-fd-step":
        # The fixed FD step 1e-4 is too coarse near beta -> 0+: the Hessian is
        # off by more than 1e-5, or the stencil leaves the domain beta > 0.
        return ((status == 1 and problem == "failed checks fundamental-vs-fd-oracle")
                or (status == 2 and "requires beta > 0" in text))
    if item.known_defect == "geodesic-budget":
        # Gradient descent exhausts its iteration budget (ROADMAP item 2).
        return (status == 1 and problem == "not converged"
                and "(iteration budget exhausted)" in text)
    return False
