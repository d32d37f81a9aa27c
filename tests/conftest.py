"""Shared builders for the test fixtures.

Three recurring setups, all on flat 3-space with a gradient 1-form:

* plane_fixture:  b = grad(0.1 x3), surface 0.1 x3 = 0   (constant, tiny b)
* exp_fixture:    b = grad(exp x3), surface exp(x3) = 1  (b^2 = 1 on surface)
* radial_fixture: b = grad(|x|^2/2), unit sphere         (not a hyperplane)
"""

from __future__ import annotations

import numpy as np

from finslerkit import expr as ex
from finslerkit.hypersurface import LevelSurface
from finslerkit.metric import SpaceSpec


def euclidean_rows(dim: int) -> list[list[ex.Expr]]:
    return [[ex.Num(1.0 if i == j else 0.0) for j in range(dim)] for i in range(dim)]


def make_space(
    family: str = "generalized-square",
    k: int = 1,
    dim: int = 3,
    potential: str | None = "0.1*x3",
    b: list[str] | None = None,
    a: list[list[str]] | None = None,
) -> SpaceSpec:
    if a is None:
        a_exprs = euclidean_rows(dim)
    else:
        a_exprs = [[ex.parse(t) for t in row] for row in a]
    if b is not None:
        return SpaceSpec(dim, k, family, a_exprs, [ex.parse(t) for t in b])
    return SpaceSpec.from_potential(dim, k, family, a_exprs, ex.parse(potential))


def plane_fixture(k: int = 1) -> tuple[SpaceSpec, LevelSurface]:
    spec = make_space(k=k, potential="0.1*x3")
    return spec, LevelSurface(ex.parse("0.1*x3"), 0.0)


def exp_fixture(k: int = 1) -> tuple[SpaceSpec, LevelSurface]:
    spec = make_space(k=k, potential="exp(x3)")
    return spec, LevelSurface(ex.parse("exp(x3)"), 1.0)


def radial_fixture(k: int = 1) -> tuple[SpaceSpec, LevelSurface]:
    spec = make_space(k=k, potential="(x1^2 + x2^2 + x3^2)/2")
    return spec, LevelSurface(ex.parse("(x1^2 + x2^2 + x3^2)/2"), 0.5)


def tangential_points_and_dirs(surface: LevelSurface, spec: SpaceSpec, n: int, seed: int):
    """(surface point, hypersurface direction) pairs, seeded."""
    from finslerkit.classifier import surface_points

    rng = np.random.default_rng(seed)
    pts = surface_points(surface, spec, n, seed)
    dirs = [rng.normal(size=spec.dim - 1) for _ in pts]
    return list(zip(pts, dirs))


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` for the test; the returned list gets one entry (the
    positional arguments) per call."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls
