"""Expression nodes and records against the dataclasses they replaced.

`expr` nodes are slotted classes and the other records dataclasses declared with
``repr=False, eq=False`` under `numerics.Record`, so that importing the package compiles
no method from a string but a record's ``__init__``.  Each test here holds them to the
repr text, equality, hashing and immutability that ``@dataclass(frozen=True)`` nodes
and plain ``@dataclass`` records had.
"""

import dataclasses
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import finslerkit
from finslerkit import expr as ex
from finslerkit.classifier import ClassifyOptions, KindResult
from finslerkit.config import load_config
from finslerkit.hypersurface import LevelSurface
from finslerkit.metric import BasePoint, PhiPartials, base_point, flag_point
from finslerkit.numerics import Record
from finslerkit.tensors import AuditRow, bundle_at

from conftest import make_space

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MODULES = [importlib.import_module(f"finslerkit.{m.name}")
           for m in pkgutil.iter_modules(finslerkit.__path__)]
NODES = (ex.Num, ex.Coord, ex.Neg, ex.Add, ex.Mul, ex.Div, ex.Pow, ex.Fn)
TEXTS = ("x1 - 2*exp(x2)^2", "sin(x1)/(x2 + 0.5) - -x3", "x1^-2 + sqrt(x2*x3)", "-0.0 + x1",
         "log(x1)^x2", "cos(x1 - (x2 + x3))")


# -- what a class compiles from a string: dataclasses' exec leaves co_filename "<string>"

def _compiled_from_strings(cls) -> list[str]:
    """The methods of cls (properties' accessors and wrapped functions unwrapped) whose
    code was compiled from a string, apart from a record's __init__."""
    found = []
    for name, attr in vars(cls).items():
        funcs = ((attr.fget, attr.fset, attr.fdel) if isinstance(attr, property)
                 else (getattr(attr, "__func__", attr),))
        for f in funcs:
            code = getattr(inspect.unwrap(f), "__code__", None) if callable(f) else None
            if code is not None and code.co_filename == "<string>" and not (
                    name == "__init__" and dataclasses.is_dataclass(cls)):
                found.append(f"{cls.__module__}.{cls.__qualname__}.{name}")
    return found


def test_no_class_of_the_package_compiles_a_method_from_a_string():
    # deterministic where an import-time bound is not: a frozen dataclass compiles six
    # methods, a plain one three, a record under `Record` its __init__ alone
    classes = [c for m in MODULES for c in vars(m).values()
               if inspect.isclass(c) and c.__module__ == m.__name__]
    assert len([c for c in classes if issubclass(c, Record) and c is not Record]) == 25
    assert {c for c in classes if issubclass(c, ex.Expr)} == {ex.Expr, *NODES}
    assert [name for c in classes for name in _compiled_from_strings(c)] == []


def test_the_string_guard_sees_what_a_dataclass_compiles():
    @dataclasses.dataclass(frozen=True)
    class Frozen:
        a: int

    @dataclasses.dataclass
    class Plain:
        a: int

        @property
        def twice(self):
            return 2 * self.a

    assert sorted(n.rsplit(".", 1)[1] for n in _compiled_from_strings(Frozen)) == [
        "__delattr__", "__eq__", "__hash__", "__repr__", "__setattr__"]
    assert sorted(n.rsplit(".", 1)[1] for n in _compiled_from_strings(Plain)) == [
        "__eq__", "__repr__"]


# -- expression nodes: the frozen dataclasses they were, rebuilt here as a reference

REFERENCE = {cls: dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)
             for cls in NODES}


def _reference(e):
    """The tree of frozen dataclasses, with the same class names and fields, that e was."""
    return REFERENCE[type(e)](*(_reference(v) if isinstance(v, ex.Expr) else v
                                for v in e.args))


@pytest.mark.parametrize("text", TEXTS)
def test_a_node_prints_as_the_frozen_dataclass_did(text):
    e = ex.parse(text, dim=3)
    assert repr(e) == repr(_reference(e))
    assert repr(ex.Add(ex.Coord(0), ex.Num(1.0))) == "Add(lhs=Coord(index=0), rhs=Num(value=1.0))"


def test_nodes_compare_and_hash_as_the_frozen_dataclasses_did():
    trees = [ex.parse(t, dim=3) for t in TEXTS]
    trees += [e.diff(v) for e in trees[:3] for v in range(3)] + [ex.parse(TEXTS[0], dim=3)]
    for a in trees:
        for b in trees:
            ra, rb = _reference(a), _reference(b)
            assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
            if a == b:
                assert hash(a) == hash(b) == hash(ra)
    assert ex.Num(0.0) == ex.Num(-0.0) and hash(ex.Num(0.0)) == hash(ex.Num(-0.0))


def test_equal_fields_of_another_class_are_not_equal():
    a, b = ex.Coord(0), ex.Num(2.0)
    assert ex.Add(a, b) != ex.Mul(a, b) and ex.Neg(a) != ex.Fn("exp", a)
    assert ex.Add(a, b).__eq__(ex.Mul(a, b)) is NotImplemented
    assert ex.Num(2.0).__eq__(2.0) is NotImplemented and ex.Num(2.0) != 2.0
    assert len({ex.Add(a, b), ex.Add(ex.Coord(0), ex.Num(2.0)), ex.Mul(a, b)}) == 2


def test_a_node_is_built_by_position_and_rebuilt_from_its_args():
    for e in (ex.parse(t, dim=3) for t in TEXTS):
        assert type(e)(*e.args) == e and e.args == tuple(getattr(e, f) for f in e.__slots__)
    assert ex.Pow(ex.Coord(1), ex.Num(3.0)).args == (ex.Coord(1), ex.Num(3.0))
    with pytest.raises(TypeError):
        ex.Add(ex.Coord(0))


def test_a_node_is_immutable():
    e = ex.parse("x1 + 2", dim=1)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'lhs'"):
        e.lhs = ex.Num(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.note = "a field the node does not have"
    assert not hasattr(e, "__dict__") and e == ex.parse("x1 + 2", dim=1)


# -- records: plain dataclasses of the same fields as the reference

@functools.cache
def _plain(cls):
    """The plain @dataclass that cls was: the same name and fields."""
    plain = dataclasses.make_dataclass(cls.__name__, [f.name for f in dataclasses.fields(cls)])
    plain.__qualname__ = cls.__qualname__
    return plain


def _as_plain_dataclass(record):
    return _plain(type(record))(**{f.name: getattr(record, f.name)
                                   for f in dataclasses.fields(record)})


def _records():
    spec = make_space(k=2)
    flag = flag_point(spec, [0.2, -0.1, 0.4], [0.3, 1.0, -0.2])
    cfg = load_config(CONFIGS / "e1.cfg")
    return [flag, base_point(spec, [0.2, -0.1, 0.4]), bundle_at(spec, flag, flag.y), cfg,
            AuditRow("angular-identity", 1e-9, 1e-8, True),
            PhiPartials(1.0, 2.0, 3.0, 4.0, 5.0, 6.0), ClassifyOptions(points=3),
            KindResult(False, [0.5, 0.25], 1e-8), cfg.surface]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_a_record_prints_as_its_dataclass_did(record):
    with np.printoptions(threshold=5):
        assert repr(record) == repr(_as_plain_dataclass(record))
    assert dataclasses.is_dataclass(record) and isinstance(record, Record)


def test_records_compare_by_value_as_their_dataclasses_did():
    row = AuditRow("angular-identity", 1e-9, 1e-8, True)
    assert row == AuditRow("angular-identity", 1e-9, 1e-8, True, False, "")
    assert row != dataclasses.replace(row, note="another")
    pp = PhiPartials(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert pp == PhiPartials(1.0, 2.0, 3.0, 4.0, 5.0, 6.0) != dataclasses.replace(pp, Fab=0.0)
    assert pp.__eq__(_as_plain_dataclass(pp)) is NotImplemented
    nan = float("nan")  # the same object: equal by identity inside the compared tuples
    assert KindResult(True, [nan], 1.0) != KindResult(True, [float("nan")], 1.0)
    same = [nan]
    assert KindResult(True, same, 1.0) == KindResult(True, same, 1.0)


def test_a_record_holding_arrays_raises_on_comparison_and_records_are_unhashable():
    spec = make_space(k=1)
    point, copy = base_point(spec, [0.1, 0.2, 0.3]), base_point(spec, [0.1, 0.2, 0.3])
    assert point == point  # identical arrays: the tuple comparison never asks numpy
    with pytest.raises(ValueError, match="ambiguous"):
        _ = point == copy
    with pytest.raises(ValueError, match="ambiguous"):
        _ = _as_plain_dataclass(point) == _as_plain_dataclass(copy)
    flag = flag_point(spec, point, [1.0, 0.0, 0.0])
    assert point != flag and BasePoint.__eq__(point, flag) is NotImplemented
    for record in _records():
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


def test_a_level_surface_keeps_its_init_var_out_of_its_fields():
    cfg = load_config(CONFIGS / "e1.cfg")
    surface = cfg.surface
    assert [f.name for f in dataclasses.fields(surface)] == ["potential", "level"]
    assert surface == LevelSurface(surface.potential, surface.level)
    assert repr(surface).startswith("LevelSurface(potential=Mul(lhs=Num(value=0.1), ")
