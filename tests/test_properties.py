"""Property sweep over the (alpha, beta) evaluation core.

Each example draws a constant positive-definite a (d = 2..4), a 1-form b, a
direction y, one of the family names and an exponent k.  Coefficients sit on
a dyadic grid, so a power-of-two rescaling of y is exact in floating point
and the homogeneity check can be tight.  Draws outside the family's domain
must raise FamilyDomainError; the other checks then do not apply.  Three
explicit examples sit exactly on the Kropina, Matsumoto and Randers domain
edges, and explicit points inside the open domain but past working precision
must raise the same typed error instead of returning inf or raising
ZeroDivisionError.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslerkit import expr as ex
from finslerkit.metric import (
    FAMILIES,
    FamilyDomainError,
    SpaceSpec,
    alpha_beta_generic,
    finsler_norm,
    phi_partials,
)
from finslerkit.numerics import Jet2

# written out here, independently of the resolver under test
CANONICAL = {"square": ("generalized-square", 1), "kropina": ("generalized-kropina", 1),
             "randers": ("generalized-square", 0)}


def _grid(lo: int, hi: int, denom: int):
    return st.integers(lo, hi).map(lambda i: i / denom)


@st.composite
def draws(draw):
    d = draw(st.integers(2, 4))
    m = np.array(draw(st.lists(_grid(-16, 16, 16), min_size=d * d, max_size=d * d)))
    a = m.reshape(d, d) @ m.reshape(d, d).T + 0.25 * np.eye(d)
    b = draw(st.lists(_grid(-16, 16, 16), min_size=d, max_size=d))
    y = draw(st.lists(_grid(-16, 16, 8), min_size=d, max_size=d).filter(any))
    family = draw(st.sampled_from(FAMILIES))
    k = draw(st.integers(1, 3))
    lam = 2.0 ** draw(st.integers(-3, 3))
    return a, b, y, family, k, lam


def _in_domain(family: str, alpha: float, beta: float) -> bool:
    if family.endswith("kropina"):
        return beta > 0.0
    if family == "matsumoto":
        return alpha - beta > 0.0
    if family == "randers":
        return alpha + beta > 0.0
    return True


_A = 0.25 * np.eye(2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(draws())
@example((_A, [0.0, 1.0], [2.0, 0.0], "kropina", 1, 2.0))      # beta = 0 exactly
@example((_A, [0.5, 0.0], [2.0, 0.0], "matsumoto", 1, 2.0))    # alpha = beta exactly
@example((_A, [-0.5, 0.0], [2.0, 0.0], "randers", 1, 2.0))     # alpha + beta = 0 exactly
def test_core_identities(case):
    a, b, y, family, k, lam = case
    alpha, beta, _ = alpha_beta_generic(a, b, y)
    if not _in_domain(family, alpha, beta):
        with pytest.raises(FamilyDomainError):
            finsler_norm(family, k, alpha, beta)
        with pytest.raises(FamilyDomainError):
            phi_partials(family, k, alpha, beta)
        return

    F = finsler_norm(family, k, alpha, beta)
    pp = phi_partials(family, k, alpha, beta)
    assert all(math.isfinite(v) for v in (pp.F, pp.Fa, pp.Fb, pp.Faa, pp.Fbb, pp.Fab))
    assert pp.F == F

    # positive 1-homogeneity in the direction
    alpha_l, beta_l, _ = alpha_beta_generic(a, b, [lam * v for v in y])
    assert finsler_norm(family, k, alpha_l, beta_l) == pytest.approx(lam * F, rel=1e-13, abs=0)

    # an alias evaluates exactly as its generalized family at the k it fixes
    family_c, k_c = CANONICAL.get(family, (family, k))
    assert finsler_norm(family_c, k_c, alpha, beta) == F
    assert phi_partials(family_c, k_c, alpha, beta) == pp
    d = len(y)
    spec = SpaceSpec(d, k, family, [[ex.Num(float(v)) for v in row] for row in a],
                     [ex.Num(v) for v in b])
    assert (spec.family, spec.k) == (family_c, k_c)


# beta^(k+2) underflows to 0 (Kropina) or a power of alpha or alpha - beta
# overflows or underflows (Matsumoto): the partials cannot be formed at
# working precision
@pytest.mark.parametrize("family, k, alpha, beta, text", [
    ("generalized-kropina", 3, 1.0, 1e-105, "requires beta > 0"),
    ("generalized-kropina", 1, 1.0, 1e-110, "requires beta > 0"),
    ("generalized-kropina", 1, 1.0, 1e-200, "requires beta > 0"),
    ("kropina", 2, 1.0, 1e-200, "requires beta > 0"),
    ("matsumoto", 1, 1e200, 1e200 * (1 - 1e-15), "requires alpha - beta > 0"),
    ("matsumoto", 1, 1e-200, 1e-200 * (1 - 2.0 ** -52), "requires alpha - beta > 0"),
])
def test_precision_edges_raise_typed_errors(family, k, alpha, beta, text):
    for a, b in ((alpha, beta), (Jet2(alpha, 1.0), Jet2(beta, 0.0, 1.0))):
        with pytest.raises(FamilyDomainError, match=text):
            finsler_norm(family, k, a, b)
        with pytest.raises(FamilyDomainError, match=text):
            phi_partials(family, k, a, b)


@pytest.mark.parametrize("family, k, alpha, beta", [
    ("generalized-kropina", 3, 1.0, 1e-60),
    ("matsumoto", 1, 1.0, 1.0 - 2.0 ** -40),
    ("matsumoto", 1, 1e100, 0.5e100),
])
def test_small_but_representable_edges_stay_finite(family, k, alpha, beta):
    pp = phi_partials(family, k, alpha, beta)
    assert all(math.isfinite(v) for v in (pp.F, pp.Fa, pp.Fb, pp.Faa, pp.Fbb, pp.Fab))
