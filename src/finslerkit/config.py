"""Sectioned key-value run configuration.

Format (``#`` starts a comment; keys marked * may repeat):

    [space]
    family = generalized-square
    k = 1
    a_row = 1, 0, 0          * one per row; dimension is inferred from the block
    a_row = 0, 1, 0
    a_row = 0, 0, 1
    b_potential = 0.1*x3       or:  b = 0, 0, 0.1
    constant = q 0.1         * named constants usable inside expressions

    [hypersurface]
    potential = 0.1*x3         defaults to the space's b_potential
    level = 0

    [audit]      samples, seed
    [classify]   points, directions, seed, tol
    [geodesic]   start, end, segments, iters, tol, seed
    [tensors]
    flag = 0, 0, 0 ; 1, 0, 0 * base point ; direction

The keys and defaults of [audit], [classify] and [geodesic] are the fields of
`tensors.AuditParams`, `classifier.ClassifyOptions` and `geodesic.GeodesicParams`.
A value is parsed by the type of its field's default (int, float, or a vector
for start and end).  Every number (k, level, a constant's value, an options
value, each entry of a vector or a flag) is read in one pass over the entries
and checked as the command-line overrides are (`checked`): at least its
field's "min" metadata, if any, and finite if a float.  Expressions are parsed
after that pass, so a constant may follow its first use; a number literal in
an expression must be finite too.

Unknown sections or keys are rejected (typo safety), and so are an expression
that uses a coordinate beyond the dimension and a constant set twice or named
so that no expression can use it; every error carries its line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from . import expr as ex
from .classifier import ClassifyOptions
from .geodesic import GeodesicParams
from .hypersurface import LevelSurface
from .metric import FAMILIES, SpaceSpec
from .numerics import SYM_TOL
from .tensors import AuditParams


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


# the options record of each section, and of the command of the same name
OPTIONS = {"audit": AuditParams, "classify": ClassifyOptions, "geodesic": GeodesicParams}
_OPTION_FIELDS = {name: {f.name: f for f in fields(rec)} for name, rec in OPTIONS.items()}
_SECTIONS = {
    "space": {"family", "k", "a_row", "b", "b_potential", "constant"},
    "hypersurface": {"potential", "level"},
    "tensors": {"flag"},
    **_OPTION_FIELDS,
}
_REPEATABLE = {("space", "a_row"), ("space", "constant"), ("tensors", "flag")}
_SYMMETRY_SAMPLES = 4  # random points at which a(x) is checked for symmetry


@dataclass
class RunConfig:
    """Everything one workbench run needs; seeds are recorded in every report."""

    space: SpaceSpec
    surface: LevelSurface | None
    audit: AuditParams
    classify_options: ClassifyOptions
    geodesic: GeodesicParams
    flags: list[tuple[np.ndarray, np.ndarray, int]] = field(default_factory=list)  # x, y, line
    constants: dict[str, float] = field(default_factory=dict)


def _entries(path: Path) -> Iterator[tuple[int, str, str, str]]:
    """(line_no, section, key, value) of each entry, with structure validated."""
    section = None
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", line_no)
            continue
        if section is None:
            raise ConfigError("key outside of any section", line_no)
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key '{key}' in [{section}]", line_no)
        yield line_no, section, key, value


def checked(what: str, value, low: float = -math.inf, line: int | None = None):
    """A number read from a config line or a command-line override: at least
    `low` (a field's "min" metadata), and finite if a float."""
    if value >= low and (isinstance(value, int) or math.isfinite(value)):
        return value
    need = [] if isinstance(value, int) else ["finite"]
    if low > -math.inf:
        need.append(f">= {low}")
    raise ConfigError(f"{what} must be {' and '.join(need)}", line)


def _number(text: str, line: int, what: str, kind: type = float, low: float = -math.inf):
    try:
        value = kind(text)
    except ValueError as err:
        raise ConfigError(f"expected {'an integer' if kind is int else 'a number'} for {what}",
                          line) from err
    return checked(what, value, low, line)


def _floats(text: str, line: int, what: str) -> np.ndarray:
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError as err:
        raise ConfigError(f"expected comma-separated numbers: {err}", line) from err
    return np.array([checked(what, v, line=line) for v in values])


def _expr(text: str, constants: dict[str, float], line: int, dim: int) -> ex.Expr:
    try:
        return ex.parse(text, constants, dim)
    except ex.ExprSyntaxError as err:
        raise ConfigError(f"bad expression: {err}", line) from err


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file in one pass over its entries.
    Expressions are parsed after it, so a constant may follow its first use."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    seen: set[tuple[str, str]] = set()
    family, k, level = None, 1, None
    constants: dict[str, float] = {}
    texts: dict[str, tuple[int, str]] = {}  # b, b_potential, potential: (line, text)
    a_rows: list[tuple[int, list[str]]] = []
    options = {name: rec() for name, rec in OPTIONS.items()}
    flags: list[tuple[np.ndarray, np.ndarray, int]] = []
    vectors: list[tuple[int, str, int]] = []  # (line, what, length) to check against the dimension

    for line_no, section, key, value in _entries(path):
        if (section, key) in seen and (section, key) not in _REPEATABLE:
            raise ConfigError(f"duplicate key '{key}' in [{section}]", line_no)
        seen.add((section, key))
        if section in options:
            f = _OPTION_FIELDS[section][key]
            kind = type(f.default)
            if kind in (int, float):
                value = _number(value, line_no, key, kind, f.metadata.get("min", -math.inf))
            else:
                value = _floats(value, line_no, key)
                vectors.append((line_no, key, len(value)))
            setattr(options[section], key, value)
        elif key == "family":
            if value not in FAMILIES:
                raise ConfigError(
                    f"unknown family '{value}' (choose from {', '.join(FAMILIES)})", line_no)
            family = value
        elif key == "k":
            k = _number(value, line_no, "exponent k", int, 1)
        elif key == "level":
            level = _number(value, line_no, "level")
        elif key == "a_row":
            a_rows.append((line_no, [p.strip() for p in value.split(",")]))
        elif key == "constant":
            parts = value.split()
            if len(parts) != 2:
                raise ConfigError("constant needs 'name value'", line_no)
            name = parts[0]
            if not ex._IDENT.fullmatch(name) or ex._COORD.match(name):
                raise ConfigError(f"constant name '{name}' is not an identifier "
                                  "other than a coordinate", line_no)
            if name in constants:
                raise ConfigError(f"duplicate constant '{name}'", line_no)
            constants[name] = _number(parts[1], line_no, "constant value")
        elif key == "flag":
            parts = value.split(";")
            if len(parts) != 2:
                raise ConfigError("flag needs 'x1, ..., xd ; y1, ..., yd'", line_no)
            flag = (_floats(parts[0], line_no, "flag base point"),
                    _floats(parts[1], line_no, "flag direction"))
            vectors.extend((line_no, "flag entries", len(v)) for v in flag)
            flags.append((*flag, line_no))
        else:
            texts[key] = (line_no, value)

    if family is None:
        raise ConfigError("[space] must set 'family'")
    if not a_rows:
        raise ConfigError("[space] must give the a-matrix via a_row lines")
    dim = len(a_rows)
    a: list[list[ex.Expr]] = []
    for line_no, row in a_rows:
        if len(row) != dim:
            raise ConfigError(
                f"dimension mismatch: {len(a_rows)} a_row lines but this row has "
                f"{len(row)} entries", line_no,
            )
        a.append([_expr(t, constants, line_no, dim) for t in row])

    if ("b" in texts) == ("b_potential" in texts):
        raise ConfigError("[space] needs exactly one of 'b' or 'b_potential'")

    try:
        if "b_potential" in texts:
            line_no, text = texts["b_potential"]
            space = SpaceSpec.from_potential(dim, k, family, a,
                                             _expr(text, constants, line_no, dim))
        else:
            line_no, text = texts["b"]
            b = [p.strip() for p in text.split(",")]
            if len(b) != dim:
                raise ConfigError(
                    f"dimension mismatch: b has {len(b)} entries for dimension {dim}",
                    line_no,
                )
            space = SpaceSpec(dim, k, family, a, [_expr(t, constants, line_no, dim) for t in b])
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(str(err)) from err

    _probe_symmetry(space)
    for line_no, what, length in vectors:
        if length != dim:
            raise ConfigError(f"{what} must have dimension {dim}", line_no)

    surface = None
    if "potential" in texts or level is not None:
        if "potential" in texts:
            line_no, text = texts["potential"]
            potential = _expr(text, constants, line_no, dim)
        elif space.b_potential is not None:
            potential = space.b_potential
        else:
            raise ConfigError("[hypersurface] needs 'potential' when the space has none")
        surface = LevelSurface(potential, level if level is not None else 0.0, space)

    return RunConfig(
        space=space, surface=surface, audit=options["audit"],
        classify_options=options["classify"], geodesic=options["geodesic"],
        flags=flags, constants=constants,
    )


def _probe_symmetry(space: SpaceSpec) -> None:
    """Refuse an a(x) that is not symmetric: rows that mirror each other as
    expressions are symmetric at every x, otherwise a(x) is sampled."""
    d, a = space.dim, space.a
    if all(a[i][j] == a[j][i] for i in range(d) for j in range(i + 1, d)):
        return
    rng = np.random.default_rng(0)
    for _ in range(_SYMMETRY_SAMPLES):
        x = rng.uniform(-1.0, 1.0, size=space.dim)
        try:
            a = space.a_at(x)
        except (ArithmeticError, ex.DomainError):
            continue
        if np.abs(a - a.T).max() > SYM_TOL * (1.0 + np.abs(a).max()):
            raise ConfigError("a(x) is not symmetric at sampled points")
