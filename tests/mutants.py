"""Mutation check: the tests must tell a right closed form from a wrong one.

Each entry of MUTANTS is (file, old, new, name, test files): it replaces the
one occurrence of ``old`` in ``file`` by ``new`` in a temporary copy of
``src/``, ``tests/``, ``configs/`` (some tests read the shipped configs) and
``pyproject.toml``, and runs the named test files there with ``pytest -x``.
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
import shutil
import subprocess
import sys
import tempfile
import time
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
FRAME_TESTS = ("tests/test_hypersurface.py", "tests/test_classifier.py",
               "tests/test_acceptance.py")
SURFACE_TESTS = ("tests/test_hypersurface.py", "tests/test_classifier.py")
CLASSIFIER_TESTS = ("tests/test_classifier.py",)


def _drop_and_flip(file: str, terms: dict[str, str], tests: tuple[str, ...]) -> list[tuple]:
    """Two mutants per term: the term dropped, and its sign flipped."""
    return [entry for name, term in terms.items() for entry in (
        (file, term, "0.0", f"drop {name}", tests),
        (file, term, f"(-{term})", f"flip {name}", tests),
    )]


# The difference tensor D = S + Q + Q^T of `connection.difference_tensor`.
_S_TERMS = {
    "S: B^i E_jk": 'np.einsum("...i,...jk->...ijk", B_up, E)',
    "S: (g^-1 b0)^i B_jk": 'np.einsum("...i,...jk->...ijk", matvec(g_inv, b0), B_mat)',
    "S: C_jkm (g^-1 A^T)^im":
        'np.einsum("...jkm,...im->...ijk", C, g_inv @ np.swapaxes(A, -1, -2))',
    "S: (C lambda)^i_m C^m_jk": 'np.einsum("...im,...mjk->...ijk", C_lam, C_mixed)',
}
_Q_TERMS = {
    "Q: F^i_j B_k": "F_mixed[..., None] * B_low[..., None, None, :]",
    "Q: B^i_j b0_k": "B_mixed[..., None] * b0[..., None, None, :]",
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
    # the generalized-square dp0/dbeta of `tensors` and the audit's k >= 1 q2 row
    (TENSORS, "2 * k * (k + 1) * (2 * k + 1) *", "2 * k * (k + 1) * (2 * k - 1) *",
     "2k - 1 in place of 2k + 1 in dp0/dbeta", TENSORS_TESTS),
    (TENSORS, 'spec.family == "generalized-square" and spec.k >= 1',
     'spec.family == "generalized-square"', "q2-expanded-form row at k = 0", TENSORS_TESTS),
    *_drop_and_flip(CONNECTION, _S_TERMS, CONNECTION_TESTS),
    *_drop_and_flip(CONNECTION, _Q_TERMS, CONNECTION_TESTS),
    (CONNECTION, "(C_lam - A)", "(C_lam)", "drop Q: C^i_jm A^m_k", CONNECTION_TESTS),
    (CONNECTION, "(C_lam - A)", "(C_lam + A)", "flip Q: C^i_jm A^m_k", CONNECTION_TESTS),
    (CONNECTION, "(C_lam - A)", "(-A)", "drop Q: C^i_jm (lambda C)^m_k", CONNECTION_TESTS),
    (CONNECTION, "(C_lam - A)", "(-C_lam - A)", "flip Q: C^i_jm (lambda C)^m_k",
     CONNECTION_TESTS),
    (CONNECTION, "S + Q + np.swapaxes(Q, -1, -2)", "S + Q + Q", "Q in place of its swap",
     CONNECTION_TESTS),
    (CONNECTION, "+ 2.0 * lanewise(B0, 1) * F0", "", "drop 2 B_0 F^m_0 from lambda",
     CONNECTION_TESTS),
    (CONNECTION, "C_lam = matvec(", "C_lam = 0.0 * matvec(", "drop both C lambda C terms",
     CONNECTION_TESTS),
    (CONNECTION, "+ lanewise(bundle.dp0_dbeta, 2) * outer(bundle.m, bundle.m)", "",
     "drop dp0_dbeta m m from B_jk", CONNECTION_TESTS),
    (CONNECTION, "2.0 * lanewise(B0, 1) * F0", "2.0002 * lanewise(B0, 1) * F0",
     "1e-4 relative error in 2 B_0 F^m_0", CONNECTION_TESTS),
    (CONNECTION, "lanewise(bundle.dp0_dbeta, 2)", "1.0001 * lanewise(bundle.dp0_dbeta, 2)",
     "1e-4 relative error in dp0_dbeta m m", CONNECTION_TESTS),
    (HYPERSURFACE, "+ outer(m_a, h_a)", "- outer(m_a, h_a)", "flip H_ab: M_a H_b", FRAME_TESTS),
    # the second fundamental tensors of `hypersurface.normal_curvature_and_h`
    (HYPERSURFACE, "(b0b + g0 @ B)", "(g0 @ B)", "drop H_a: B^i_0a", SURFACE_TESTS),
    (HYPERSURFACE, "matvec(bundle.C, n_up[..., None, :])", "matvec(bundle.C, n_dn[..., None, :])",
     "N_i in place of N^i in M_ab", SURFACE_TESTS),
    (HYPERSURFACE, 'np.einsum("...i,...iab->...ab", n_dn, chart.B2)', "0.0",
     "drop H_ab: B^i_ab", SURFACE_TESTS),
    # the normal, the induced tensors and the chart of `hypersurface`
    (HYPERSURFACE, "w / lanewise(np.sqrt(s), 1)", "w / lanewise(s, 1)",
     "normal over s in place of sqrt(s)", SURFACE_TESTS),
    (HYPERSURFACE, "np.linalg.solve(g, ", "np.linalg.solve(bundle.flag.a, ",
     "a in place of g in the normal's solve", SURFACE_TESTS),
    (HYPERSURFACE, "h_ind = Bt @ bundle.h @ B", "h_ind = Bt @ bundle.g @ B",
     "g in place of h in h_ab", SURFACE_TESTS),
    (HYPERSURFACE, "hb_free * gd - outer(g_free, hb_dep)", "hb_free * gd + outer(g_free, hb_dep)",
     "flip the chart's B2: G_a H_Db", SURFACE_TESTS),
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
]

# Known survivors: name -> why it survives and which open item is meant to kill it.
SURVIVORS = {
    "flip H_ab: M_a H_b": "M_a stays below 3e-15 on every surface classify reaches "
                          "(ROADMAP items 6 and 10)",
}


def _pytest(tree: Path, tests) -> int:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # no stale bytecode of an equal-sized mutant
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests", "configs"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        tests = sorted({t for *_, files in MUTANTS for t in files})
        status = _pytest(tree, tests)
        if status != 0:
            print(f"the unmutated tests exit {status}; no mutant can be judged")
            return 1
        for file, old, new, name, files in MUTANTS:
            path = tree / file
            original = path.read_text()
            if original.count(old) != 1:
                problems.append(f"{name}: {old!r} does not occur exactly once in {file}")
                continue
            path.write_text(original.replace(old, new))
            start = time.perf_counter()
            status = _pytest(tree, files)
            path.write_text(original)
            if status not in (0, 1):
                problems.append(f"{name}: pytest exits {status}, not a test failure")
                continue
            caught = status == 1
            print(f"{'caught ' if caught else 'SURVIVED'} {name} "
                  f"({time.perf_counter() - start:.1f} s)")
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
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
