"""Mutation check: the tests must tell a right closed form from a wrong one.

Each entry of MUTANTS is (file, old, new, name, test files): it replaces the
one occurrence of ``old`` in ``file`` by ``new`` in a temporary copy of
``src/``, ``tests/``, ``configs/`` (some tests read the shipped configs) and
``pyproject.toml``, and runs the named test files (or single tests, by pytest
node id) there with ``pytest -x``.  ``os.cpu_count()`` mutants run at a time,
each in a copy of its own; the verdicts are printed in list order.
The copy carries the tests' own ``pythonpath``, so they import the mutated
package.  A mutant is caught when the tests fail.

SURVIVORS names the mutants known to survive, each with the open ROADMAP item
meant to kill it.  The check exits non-zero when an unlisted mutant survives,
when a listed one is caught (the list can only shrink), or when the tests fail
on the unmutated copy.  pytest does not collect this file; run it from
anywhere as

    python tests/mutants.py
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

METRIC = "src/finslerkit/metric.py"
TENSORS = "src/finslerkit/tensors.py"
CONNECTION = "src/finslerkit/connection.py"
HYPERSURFACE = "src/finslerkit/hypersurface.py"
CLASSIFIER = "src/finslerkit/classifier.py"
METRIC_TESTS = ("tests/test_metric.py",)
TENSORS_TESTS = ("tests/test_tensors.py",)
CONNECTION_TESTS = ("tests/test_connection.py",)
KROPINA_FD_TESTS = (
    "tests/test_tensors.py::test_scaled_fd_oracle_still_sees_a_small_error_on_kropina_flags",)
SURFACE_TESTS = ("tests/test_hypersurface.py", "tests/test_classifier.py")
CLASSIFIER_TESTS = ("tests/test_classifier.py",)
GEODESIC = "src/finslerkit/geodesic.py"
EXPR = "src/finslerkit/expr.py"
EXPR_TESTS = ("tests/test_expr.py",)
GEODESIC_FD_TESTS = (
    "tests/test_geodesic.py::test_assembled_derivatives_match_differences_of_the_float_length",)
GEODESIC_OFFSET_TESTS = (
    "tests/test_geodesic.py::test_offset_derivatives_match_differences_of_the_float_length",)


def _drop_and_flip(file: str, terms: dict[str, str], tests: tuple[str, ...]) -> list[tuple]:
    """Two mutants per term: the term dropped, and its sign flipped."""
    return [entry for name, term in terms.items() for entry in (
        (file, term, "0.0", f"drop {name}", tests),
        (file, term, f"(-{term})", f"flip {name}", tests),
    )]


# The difference tensor D = S + Q + Q^T of `connection.difference_tensor`, each term
# contracted with the covector n (n~ = g^-1 n, (C.v)_jk = C_jkm v^m)
_S_TERMS = {
    "S: (n.B^) E_jk": "lanewise(dot(n, B_up), 2) * E",
    "S: (n~.b0) B_jk": "lanewise(dot(n_up, b0), 2) * B_mat",
}
_Q_TERMS = {
    "Q: (F^T n~) B_k": "outer((n_up[..., None, :] @ conn.Fij)[..., 0, :], B_low)",
    "Q: (B_jk n~) b0_k": "outer(matvec(B_mat, n_up), b0)",
}

MUTANTS = [
    # the generalized-square partials of `metric.phi_partials`, which Randers (k = 0) runs
    # through too, and the alias that sends it there
    (METRIC, "Fab=-(k * (k + 1)) * beta", "Fab=(k * (k + 1)) * beta", "flip F_ab",
     METRIC_TESTS),
    (METRIC, "Fb=(k + 1) * s ** k", "Fb=k * s ** k", "k in place of k + 1 in F_b", METRIC_TESTS),
    (METRIC, "Fa=(alpha - k * beta)", "Fa=(alpha + k * beta)", "flip k beta in F_a",
     METRIC_TESTS),
    (METRIC, "Faa=k * (k + 1) * beta * beta * s", "Faa=k * (k + 1) * beta * s",
     "beta in place of beta^2 in F_aa", METRIC_TESTS),
    (METRIC, "Fbb=k * (k + 1) * s ** (k - 1) / alpha ** k,",
     "Fbb=k * (k + 1) * s ** (k - 1) / alpha ** (k + 1),",
     "alpha^(k+1) in place of alpha^k in F_bb", METRIC_TESTS),
    (METRIC, '"randers": ("generalized-square", 0)', '"randers": ("generalized-square", 1)',
     "randers as the square metric", METRIC_TESTS),
    # the Kropina and Matsumoto partials of `metric.phi_partials`, and p2 of `tensors`
    (METRIC, "Fb=-k * alpha ** (k + 1)", "Fb=k * alpha ** (k + 1)", "flip Kropina F_b",
     METRIC_TESTS),
    (METRIC, "Fbb=k * (k + 1) * alpha ** (k + 1) / beta ** (k + 2)",
     "Fbb=k * (k + 1) * alpha ** (k + 1) / beta ** (k + 1)",
     "beta^(k+1) in place of beta^(k+2) in Kropina F_bb", METRIC_TESTS),
    (METRIC, "Faa=2 * beta * beta / w ** 3", "Faa=2 * beta / w ** 3",
     "beta in place of beta^2 in Matsumoto F_aa", METRIC_TESTS),
    (METRIC, "Fab=-2 * alpha * beta / w ** 3", "Fab=2 * alpha * beta / w ** 3",
     "flip Matsumoto F_ab", METRIC_TESTS),
    (TENSORS, "ac.p * ac.p / (pp.F * pp.F)", "ac.p * ac.p / pp.F",
     "p^2/F in place of p^2/F^2 in p2", METRIC_TESTS),
    # the dp0/dbeta of each family, the coefficients of `tensors` and the audit's k >= 1 q2 row
    (TENSORS, "2 * k * (k + 1) * (2 * k + 1) *", "2 * k * (k + 1) * (2 * k - 1) *",
     "2k - 1 in place of 2k + 1 in dp0/dbeta", TENSORS_TESTS),
    (TENSORS, "-(2 * k + 2) * k * (2 * k + 1)", "-(2 * k + 1) * k * (2 * k + 1)",
     "2k + 1 in place of 2k + 2 in Kropina dp0/dbeta", TENSORS_TESTS),
    (TENSORS, "12 * alpha ** 4 / (alpha - beta) ** 5", "12 * alpha ** 4 / (alpha - beta) ** 4",
     "(alpha - beta)^4 in place of ^5 in Matsumoto dp0/dbeta", TENSORS_TESTS),
    (TENSORS, "(p * p1 - disc * beta)", "(p * p1 + disc * beta)", "flip disc beta in S1",
     TENSORS_TESTS),
    (TENSORS, "- 3.0 * mc.p1 * ac.q0", "- 2.0 * mc.p1 * ac.q0", "2 in place of 3 in gamma_1",
     TENSORS_TESTS),
    (TENSORS, "(pp.Faa - pp.Fa / alpha)", "(pp.Faa + pp.Fa / alpha)", "flip F_a/alpha in q2",
     TENSORS_TESTS),
    (TENSORS, 'spec.family == "generalized-square" and spec.k >= 1',
     'spec.family == "generalized-square"', "q2-expanded-form row at k = 0", TENSORS_TESTS),
    # the reciprocal coefficients, the hv-torsion and the oracles' beta
    (TENSORS, "(p * p0 + disc * alpha * alpha)", "(p * p0 - disc * alpha * alpha)",
     "flip disc alpha^2 in S0", TENSORS_TESTS),
    (TENSORS, "(p * p2 + disc * b2)", "(p * p2 - disc * b2)", "flip disc b^2 in S2",
     TENSORS_TESTS),
    (METRIC, "reduce(add, map(mul, b, y))", "reduce(add, map(mul, b, y[::-1]))",
     "beta against reversed y in alpha_beta_generic", TENSORS_TESTS),
    (TENSORS, "return mc.p * dp0 - 3.0 * mc.p1 * ac.q0",
     "return 1.0001 * (mc.p * dp0 - 3.0 * mc.p1 * ac.q0)", "1e-4 relative error in gamma_1",
     TENSORS_TESTS),
    (TENSORS, '        + np.einsum("...ki,...j->...ijk", h, m)\n', "",
     "drop h_ki m_j from C_ijk", TENSORS_TESTS),
    (TENSORS, "return (lanewise(mc.p1, 3) * sym", "return 1.0001 * (lanewise(mc.p1, 3) * sym",
     "1e-4 relative error in C_ijk", TENSORS_TESTS),
    # the complex step of `tensors.torsion_oracle`: the derivative is Im g / h, and lane k
    # seeds coordinate k
    (TENSORS, "g.imag * lanewise(0.5 / h, 2)", "g.real * lanewise(0.5 / h, 2)",
     "torsion oracle reads Re g in place of Im g", TENSORS_TESTS),
    (TENSORS, "1j * np.eye(spec.dim)", "1j * np.roll(np.eye(spec.dim), -1, 1)",
     "torsion oracle seeds coordinate k + 1 mod d in lane k", TENSORS_TESTS),
    # the finite-difference oracle's step shrinks near Kropina's edge and must still see
    # a 1e-4 relative error in g on Kropina flags
    (TENSORS, "    g = fundamental_tensor(mc, flag.a, flag.b, flag.y_low)\n",
     "    g = fundamental_tensor(mc, flag.a, flag.b, flag.y_low)\n    g[..., 0, 0] *= 1.0001\n",
     "1e-4 relative error in g_11", KROPINA_FD_TESTS),
    (TENSORS, "p1=ac.q1 + ac.p * pp.Fb / pp.F,", "p1=1.0001 * (ac.q1 + ac.p * pp.Fb / pp.F),",
     "1e-4 relative error in p1", KROPINA_FD_TESTS),
    *_drop_and_flip(CONNECTION, _S_TERMS, CONNECTION_TESTS),
    *_drop_and_flip(CONNECTION, _Q_TERMS, CONNECTION_TESTS),
    (CONNECTION, "matvec(A - C_lam,", "matvec(-C_lam,", "drop S: C.(A n~)", CONNECTION_TESTS),
    (CONNECTION, "matvec(A - C_lam,", "matvec(-A - C_lam,", "flip S: C.(A n~)",
     CONNECTION_TESTS),
    (CONNECTION, "matvec(A - C_lam,", "matvec(A,", "drop S: C.(g^-1 M n~)", CONNECTION_TESTS),
    (CONNECTION, "matvec(A - C_lam,", "matvec(A + C_lam,", "flip S: C.(g^-1 M n~)",
     CONNECTION_TESTS),
    (CONNECTION, "(C_lam - A)", "(C_lam)", "drop Q: (C.n~) A", CONNECTION_TESTS),
    (CONNECTION, "(C_lam - A)", "(C_lam + A)", "flip Q: (C.n~) A", CONNECTION_TESTS),
    (CONNECTION, "(C_lam - A)", "(-A)", "drop Q: (C.n~) g^-1 M", CONNECTION_TESTS),
    (CONNECTION, "(C_lam - A)", "(-C_lam - A)", "flip Q: (C.n~) g^-1 M", CONNECTION_TESTS),
    (CONNECTION, "S + Q + np.swapaxes(Q, -1, -2)", "S + Q + Q", "n.Q in place of its swap",
     CONNECTION_TESTS),
    (CONNECTION, "+ 2.0 * lanewise(B0, 1) * F0", "", "drop 2 B_0 F^m_0 from lambda",
     CONNECTION_TESTS),
    (CONNECTION, "C_lam = g_inv @", "C_lam = 0.0 * g_inv @", "drop both C lambda C terms",
     CONNECTION_TESTS),
    (CONNECTION, "+ lanewise(bundle.dp0_dbeta, 2) * outer(bundle.m, bundle.m)", "",
     "drop dp0_dbeta m m from B_jk", CONNECTION_TESTS),
    (CONNECTION, "2.0 * lanewise(B0, 1) * F0", "2.0002 * lanewise(B0, 1) * F0",
     "1e-4 relative error in 2 B_0 F^m_0", CONNECTION_TESTS),
    (CONNECTION, "lanewise(bundle.dp0_dbeta, 2)", "1.0001 * lanewise(bundle.dp0_dbeta, 2)",
     "1e-4 relative error in dp0_dbeta m m", CONNECTION_TESTS),
    # the Christoffel term of b_ij in `connection.covariant_db`: the first-kind pair on a
    # curved a sees it dropped; its sign shows in the Cartan oracle and in the first kind's
    # pointwise check against the spray
    (CONNECTION, 'np.einsum("...l,...lij->...ij", point.b, gamma)', "0.0",
     "drop b_ij: b_l Gamma^l_ij", ("tests/test_first_kind.py",)),
    (CONNECTION, 'np.einsum("...l,...lij->...ij", point.b, gamma)',
     '(-np.einsum("...l,...lij->...ij", point.b, gamma))', "flip b_ij: b_l Gamma^l_ij",
     CONNECTION_TESTS),
    # the second fundamental tensors of `hypersurface.normal_curvature_and_h`
    (HYPERSURFACE, "((v[..., None, :] @ n_b2) + ", "(", "drop H_a: B^i_0a", SURFACE_TESTS),
    (HYPERSURFACE, "matvec(bundle.C, n_up[..., None, :])", "matvec(bundle.C, n_dn[..., None, :])",
     "N_i in place of N^i in M_ab", SURFACE_TESTS),
    (HYPERSURFACE, "h_ab = n_b2 + ", "h_ab = ", "drop H_ab: B^i_ab", SURFACE_TESTS),
    # the normal, the induced tensors and the chart of `hypersurface`
    (HYPERSURFACE, "w / lanewise(np.sqrt(s), 1)", "w / lanewise(s, 1)",
     "normal over s in place of sqrt(s)", SURFACE_TESTS),
    (HYPERSURFACE, "matvec(bundle.g_inv, chart.grad)", "matvec(bundle.flag.a_inv, chart.grad)",
     "a^-1 in place of g^-1 in the normal", SURFACE_TESTS),
    (HYPERSURFACE, "h_ind = Bt @ bundle.h @ B", "h_ind = Bt @ bundle.g @ B",
     "g in place of h in h_ab", SURFACE_TESTS),
    (HYPERSURFACE, "-(n_d / phi_d)", "(n_d / phi_d)", "flip N_i B^i_ab: -(N_D / phi_D)",
     SURFACE_TESTS),
    (HYPERSURFACE, "(n_d / phi_d)", "(phi_d / phi_d)", "phi_D in place of N_D in N_i B^i_ab",
     SURFACE_TESTS),
    # the algebraic kind tests and the first-kind factor of `classifier`
    (CLASSIFIER, "    rows[:, eq, iu] += b[:, ju]\n", "", "drop b_j c_i from the first-kind system",
     CLASSIFIER_TESTS),
    (CLASSIFIER, "p.b2 * p.b2", "p.b2", "second-kind e over b^2 in place of (b^2)^2",
     CLASSIFIER_TESTS),
    (CLASSIFIER, "(4.0 * flag.alpha", "(2.0 * flag.alpha", "2 in place of 4 in the first-kind factor",
     CLASSIFIER_TESTS),
    (CLASSIFIER, "k * (k + 1) * flag.b2", "k * k * flag.b2", "k^2 in place of k(k+1) in zeta",
     CLASSIFIER_TESTS),
    (CLASSIFIER, "np.minimum.reduceat", "np.maximum.reduceat", "third-kind witness as a maximum",
     CLASSIFIER_TESTS),
    (CLASSIFIER, "fitted = ~(p.b2 < 1e-14)", "fitted = ~(p.b2 < 0.0)",
     "second kind fits where b vanishes", CLASSIFIER_TESTS),
    (CLASSIFIER, "return 1.0 + float(np.abs(b_cov)", "return float(np.abs(b_cov)",
     "kind tolerance scale without its 1 +", CLASSIFIER_TESTS),
    # the block-tridiagonal assembly of `geodesic._length_derivatives`, seen by the
    # differences of the float length, which share no code with the jets; a projection
    # onto the offsets that is transposed shows only in a basis other than the identity
    (GEODESIC, "    hess[s[:-1], :, s[1:]] = h[1:-1, 0, 1]\n", "",
     "drop the upper off-diagonal block of the geodesic Hessian", GEODESIC_FD_TESTS),
    (GEODESIC, "h[1:, 0, 0] + h[:-1, 1, 1]", "h[1:, 1, 1] + h[:-1, 0, 0]",
     "swap the halves of the geodesic Hessian's diagonal block", GEODESIC_FD_TESTS),
    (GEODESIC, "h[1:-1, 0, 1].swapaxes(1, 2)", "h[1:-1, 0, 1]",
     "lower off-diagonal block without its transpose", GEODESIC_OFFSET_TESTS),
    (GEODESIC, "h = across @ jet.hessian", "h = across.T @ jet.hessian",
     "Hessian blocks projected with across.T on the left", GEODESIC_OFFSET_TESTS),
    # the Levenberg-Marquardt trial factorizes the damped Hessian, not the Hessian
    (GEODESIC, "np.linalg.cholesky(hess + damping * bound * eye)", "np.linalg.cholesky(hess)",
     "drop the damping from the factorized matrix",
     ("tests/test_geodesic.py::test_an_indefinite_hessian_is_damped_until_it_factorizes",)),
    # the last result an expression table keeps must be keyed by its points' values
    (EXPR, "(x.shape, x.tobytes())", "(x.shape,)",
     "table memo keyed by the points' shape alone", EXPR_TESTS),
    # binary minus is the sum with a negation: printed with the tight parentheses of a
    # difference, and folded so that 0.0 + -0.0 gives the +0.0 of 0.0 - 0.0
    (EXPR, "{self._wrap_tight(self.rhs.arg)}", "{self._wrap(self.rhs.arg)}",
     "a - (b + c) printed as a - b + c", EXPR_TESTS),
    (EXPR, "def _add(a: Expr, b: Expr) -> Expr:\n",
     "def _add(a: Expr, b: Expr) -> Expr:\n    if _is_num(a, 0.0):\n        return b\n",
     "_add drops a zero before it folds two constants", EXPR_TESTS),
    # a node equals only a node of its own class with equal fields, as a frozen dataclass does
    (EXPR, "if other.__class__ is self.__class__ else NotImplemented",
     "if isinstance(other, Expr) else NotImplemented",
     "Expr.__eq__ ignores the node's class", ("tests/test_records.py",)),
]

# Known survivors: name -> why it survives and which open item is meant to kill it.
SURVIVORS: dict[str, str] = {}


def _pytest(tree: Path, tests) -> int:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # no stale bytecode of an equal-sized mutant
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def _copy(tree: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__")
    for part in ("src", "tests", "configs"):
        shutil.copytree(ROOT / part, tree / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", tree)
    return tree


def _run(trees: queue.SimpleQueue, mutant) -> tuple[int | None, float]:
    """(pytest's exit status, seconds) of one mutant in a tree of its own, taken from
    ``trees`` and put back unmutated; status None when ``old`` does not occur once."""
    file, old, new, _name, files = mutant
    tree = trees.get()
    path = tree / file
    original = path.read_text()
    try:
        if original.count(old) != 1:
            return None, 0.0
        path.write_text(original.replace(old, new))
        start = time.perf_counter()
        return _pytest(tree, files), time.perf_counter() - start
    finally:
        path.write_text(original)
        trees.put(tree)


def main() -> int:
    problems = []
    start, workers = time.perf_counter(), os.cpu_count() or 1
    with tempfile.TemporaryDirectory() as tmp:
        trees = queue.SimpleQueue()
        for n in range(workers):  # one copy per worker, each mutated by one mutant at a time
            trees.put(_copy(Path(tmp) / f"tree{n}"))
        tests = sorted({t for *_, files in MUTANTS for t in files})
        status = _pytest(Path(tmp) / "tree0", tests)
        if status != 0:
            print(f"the unmutated tests exit {status}; no mutant can be judged")
            return 1
        with ThreadPoolExecutor(workers) as pool:  # results come back in list order
            for (file, old, _, name, _), (status, seconds) in zip(
                    MUTANTS, pool.map(lambda m: _run(trees, m), MUTANTS)):
                if status is None:
                    problems.append(f"{name}: {old!r} does not occur exactly once in {file}")
                    continue
                if status not in (0, 1):
                    problems.append(f"{name}: pytest exits {status}, not a test failure")
                    continue
                caught = status == 1
                print(f"{'caught ' if caught else 'SURVIVED'} {name} ({seconds:.1f} s)")
                if not caught and name not in SURVIVORS:
                    problems.append(f"{name}: survives and is not a listed survivor")
                if caught and name in SURVIVORS:
                    problems.append(f"{name}: caught now; remove it from SURVIVORS")
    unknown = set(SURVIVORS) - {name for *_, name, _ in MUTANTS}
    problems += [f"{name}: listed survivor with no mutant" for name in sorted(unknown)]
    for name, why in SURVIVORS.items():
        print(f"known survivor: {name}: {why}")
    for problem in problems:
        print(f"error: {problem}")
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.0f} s, {workers} at a time")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
