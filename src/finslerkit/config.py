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
for start and end), bounded below by the field's "min" metadata, if any, and
finite if a float (`checked`, which the command-line overrides share).

Unknown sections or keys are rejected (typo safety), and so are an expression
that uses a coordinate beyond the dimension and a constant set twice or named
so that no expression can use it; every error carries its line number.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields
from pathlib import Path

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
    flags: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    constants: dict[str, float] = field(default_factory=dict)


def _parse_lines(path: Path) -> list[tuple[int, str, str, str]]:
    """(line_no, section, key, value) tuples, with structure validated."""
    out = []
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
        out.append((line_no, section, key, value))
    return out


def _floats(value: str, line: int) -> list[float]:
    try:
        return [float(p) for p in value.split(",")]
    except ValueError as err:
        raise ConfigError(f"expected comma-separated numbers: {err}", line) from err


def _int(value: str, line: int, minimum: int | None, what: str) -> int:
    try:
        n = int(value)
    except ValueError as err:
        raise ConfigError(f"expected an integer for {what}", line) from err
    if minimum is not None and n < minimum:
        raise ConfigError(f"{what} must be >= {minimum}", line)
    return n


def _float(value: str, line: int, what: str) -> float:
    try:
        return float(value)
    except ValueError as err:
        raise ConfigError(f"expected a number for {what}", line) from err


def _option(f: Field, value: str, line: int):
    """An options-record value, parsed by the type of the field's default."""
    if isinstance(f.default, int):
        return checked(f, _int(value, line, None, f.name), line)
    if isinstance(f.default, float):
        return checked(f, _float(value, line, f.name), line)
    return np.array(_floats(value, line))


def checked(f: Field, value, line: int | None = None):
    """A number for an options-record field, from a config line or a command-line
    override: at least the field's "min" metadata, if any, and finite if a float."""
    low = f.metadata.get("min", -math.inf)
    if not (value >= low and (isinstance(value, int) or math.isfinite(value))):
        what = "" if isinstance(value, int) else "finite and "
        raise ConfigError(f"{f.name} must be {what}>= {low}", line)
    return value


def _expr(text: str, constants: dict[str, float], line: int, dim: int) -> ex.Expr:
    try:
        return ex.parse(text, constants, dim)
    except ex.ExprSyntaxError as err:
        raise ConfigError(f"bad expression: {err}", line) from err


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    entries = _parse_lines(path)

    seen: dict[tuple[str, str], int] = {}
    for line_no, section, key, _ in entries:
        tag = (section, key)
        if tag in seen and tag not in _REPEATABLE:
            raise ConfigError(f"duplicate key '{key}' in [{section}]", line_no)
        seen[tag] = line_no

    # constants first: expressions elsewhere may use them
    constants: dict[str, float] = {}
    for line_no, section, key, value in entries:
        if (section, key) == ("space", "constant"):
            parts = value.split()
            if len(parts) != 2:
                raise ConfigError("constant needs 'name value'", line_no)
            name = parts[0]
            if not ex._IDENT.fullmatch(name) or ex._COORD.match(name):
                raise ConfigError(f"constant name '{name}' is not an identifier "
                                  "other than a coordinate", line_no)
            if name in constants:
                raise ConfigError(f"duplicate constant '{name}'", line_no)
            constants[name] = _float(parts[1], line_no, "constant value")

    family = None
    k = 1
    a_rows: list[tuple[int, list[str]]] = []
    b_texts: tuple[int, list[str]] | None = None
    b_potential: tuple[int, str] | None = None
    surface_potential: tuple[int, str] | None = None
    surface_level: float | None = None
    options = {name: rec() for name, rec in OPTIONS.items()}
    flags_raw: list[tuple[int, str]] = []

    for line_no, section, key, value in entries:
        if section == "space":
            if key == "family":
                if value not in FAMILIES:
                    raise ConfigError(
                        f"unknown family '{value}' (choose from {', '.join(FAMILIES)})",
                        line_no,
                    )
                family = value
            elif key == "k":
                k = _int(value, line_no, minimum=1, what="exponent k")
            elif key == "a_row":
                a_rows.append((line_no, [p.strip() for p in value.split(",")]))
            elif key == "b":
                b_texts = (line_no, [p.strip() for p in value.split(",")])
            elif key == "b_potential":
                b_potential = (line_no, value)
        elif section == "hypersurface":
            if key == "potential":
                surface_potential = (line_no, value)
            else:
                surface_level = _float(value, line_no, "level")
        elif section in options:
            setattr(options[section], key, _option(_OPTION_FIELDS[section][key], value, line_no))
        elif section == "tensors":
            flags_raw.append((line_no, value))

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

    if (b_texts is None) == (b_potential is None):
        raise ConfigError("[space] needs exactly one of 'b' or 'b_potential'")

    try:
        if b_potential is not None:
            line_no, text = b_potential
            space = SpaceSpec.from_potential(dim, k, family, a,
                                             _expr(text, constants, line_no, dim))
        else:
            line_no, texts = b_texts
            if len(texts) != dim:
                raise ConfigError(
                    f"dimension mismatch: b has {len(texts)} entries for dimension {dim}",
                    line_no,
                )
            space = SpaceSpec(dim, k, family, a,
                              [_expr(t, constants, line_no, dim) for t in texts])
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(str(err)) from err

    _probe_symmetry(space)

    for key in ("start", "end"):
        point = getattr(options["geodesic"], key)
        if point is not None and len(point) != dim:
            raise ConfigError(f"{key} must have dimension {dim}", seen["geodesic", key])

    surface = None
    if surface_potential is not None or surface_level is not None:
        if surface_potential is not None:
            line_no, text = surface_potential
            potential = _expr(text, constants, line_no, dim)
        elif space.b_potential is not None:
            potential = space.b_potential
        else:
            raise ConfigError("[hypersurface] needs 'potential' when the space has none")
        surface = LevelSurface(potential, surface_level if surface_level is not None else 0.0)

    flags: list[tuple[np.ndarray, np.ndarray]] = []
    for line_no, value in flags_raw:
        parts = value.split(";")
        if len(parts) != 2:
            raise ConfigError("flag needs 'x1, ..., xd ; y1, ..., yd'", line_no)
        x = np.array(_floats(parts[0], line_no))
        y = np.array(_floats(parts[1], line_no))
        if len(x) != dim or len(y) != dim:
            raise ConfigError(f"flag entries must have dimension {dim}", line_no)
        flags.append((x, y))

    return RunConfig(
        space=space, surface=surface, audit=options["audit"],
        classify_options=options["classify"], geodesic=options["geodesic"],
        flags=flags, constants=constants,
    )


def _probe_symmetry(space: SpaceSpec) -> None:
    rng = np.random.default_rng(0)
    for _ in range(_SYMMETRY_SAMPLES):
        x = rng.uniform(-1.0, 1.0, size=space.dim)
        try:
            a = space.a_at(x)
        except (ArithmeticError, ex.DomainError):
            continue
        if np.abs(a - a.T).max() > SYM_TOL * (1.0 + np.abs(a).max()):
            raise ConfigError("a(x) is not symmetric at sampled points")
