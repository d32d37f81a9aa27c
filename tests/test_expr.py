import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import count_calls
from finslerkit import expr as ex
from finslerkit.numerics import Jet2


def test_eval_polynomial():
    e = ex.parse("x1^2 + x2^2")
    assert e.eval((3.0, 4.0)) == 25.0


def test_eval_exp():
    e = ex.parse("exp(x3)")
    assert e.eval((0.0, 0.0, 1.0)) == pytest.approx(math.e, rel=1e-12)


def test_syntax_error_position():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("x1 +")
    assert err.value.offset == 4


def test_diff_product_rule():
    d = ex.parse("x1*x2").diff(0)
    assert str(d) == "x2"
    assert d.eval((5.0, 7.0)) == 7.0


def test_diff_exp_fixed_point():
    e = ex.parse("exp(x3)")
    d = e.diff(2)
    for x3 in (-1.0, 0.0, 0.7):
        assert d.eval((0.0, 0.0, x3)) == pytest.approx(math.exp(x3), rel=1e-14)


def test_mixed_partial_value():
    e = ex.parse("x1^2*x2")
    d12 = e.diff(0).diff(1)
    assert d12.eval((1.0, 1.0)) == pytest.approx(2.0, abs=1e-14)


def test_division_by_zero_reports_subexpression():
    e = ex.parse("x1/x2")
    with pytest.raises(ex.DomainError) as err:
        e.eval((1.0, 0.0))
    assert "x1/x2" in str(err.value)


def test_sqrt_and_integer_power():
    assert ex.parse("sqrt(x1)").eval((4.0, 0.0)) == 2.0
    assert ex.parse("x1^3").eval((2.0, 0.0)) == 8.0


@pytest.mark.parametrize("text, message", [
    ("x1 + $", "unexpected character '$' at offset 5"),
    ("x1 ) $", "trailing input at offset 3"),   # the parser stops before the bad character
    ("zeta $ x1", "unknown identifier 'zeta' at offset 0"),
    ("x1 +\t* !", "unexpected '*' at offset 5"),
    ("sin(x1 !", "unexpected character '!' at offset 7"),
    ("x1 + ", "expected an operand at offset 5"),
])
def test_the_first_fault_the_parser_meets_wins(text, message):
    # the text is tokenized once; a bad character raises only when it is taken
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse(text)
    assert str(err.value) == message


def test_number_literal_must_be_finite():
    with pytest.raises(ex.ExprSyntaxError, match="^number 1e400 is not finite at offset 3$"):
        ex.parse("x1*1e400")


@pytest.mark.parametrize("text, x", [
    ("exp(x1)", [1000.0]), ("exp(x1)", np.array([0.0, 1000.0])),
    ("x1^400", [10.0]), ("x1^400", np.array([1.0, 10.0])),
    ("x1^400", [np.float64(10.0)]),  # one point of ExprTable.at
])
def test_overflow_is_a_domain_error_naming_the_subexpression(text, x):
    # a Python float, an np.float64 or a float lane overflows; a power says so (Python's
    # message is the errno tuple "(34, 'Numerical result out of range')")
    e = ex.parse(text)
    what = "power overflows" if "^" in text else "math range error"
    with pytest.raises(ex.DomainError, match=f"^{what} in '{re.escape(str(e))}'$") as err:
        e.eval([x] if isinstance(x, np.ndarray) else x)
    assert err.value.subexpr == e


def test_log_domain_error():
    with pytest.raises(ex.DomainError):
        ex.parse("log(x1)").eval((-1.0,))
    with pytest.raises(ex.DomainError):
        ex.parse("log(x1)").eval((0.0,))


def test_negative_base_fractional_power_is_domain_error():
    with pytest.raises(ex.DomainError):
        ex.parse("x1^0.5").eval((-4.0,))
    # integer exponents on negative bases stay real
    assert ex.parse("x1^2").eval((-3.0,)) == 9.0
    assert ex.parse("x1^-2").eval((-2.0,)) == 0.25


def test_constants_bound_at_parse_time():
    e = ex.parse("q*x1 + r", {"q": 2.5, "r": -1.0})
    assert e.eval((2.0,)) == 4.0
    # constants do not leak into later parses
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("q*x1")


def test_unknown_identifier_and_function():
    with pytest.raises(ex.ExprSyntaxError, match="unknown identifier"):
        ex.parse("x1 + zeta")
    assert str(ex.parse("x1 + x2", dim=2)) == "x1 + x2"
    with pytest.raises(ex.ExprSyntaxError, match="^coordinate x3 is beyond dimension 2 at offset 5$"):
        ex.parse("x1 + x3", dim=2)
    with pytest.raises(ex.ExprSyntaxError, match="unknown function"):
        ex.parse("sinh(x1)")


def test_function_arity():
    with pytest.raises(ex.ExprSyntaxError, match="expects 1 argument"):
        ex.parse("exp(x1, x2)")


def test_precedence_and_associativity():
    # '^' binds tightest and chains left: 2^3^2 = (2^3)^2
    assert ex.parse("2^3^2").eval(()) == 64.0
    # unary minus below '^': -x1^2 = -(x1^2)
    assert ex.parse("-x1^2").eval((3.0,)) == -9.0
    assert ex.parse("2 - 3 - 4").eval(()) == -5.0
    assert ex.parse("2*x1 + x2/4").eval((1.0, 8.0)) == 4.0
    assert ex.parse("2^-1").eval(()) == 0.5


def test_coordinates_are_one_based():
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("x0")


def test_dimension_mismatch_at_eval():
    with pytest.raises(ex.DomainError):
        ex.parse("x3").eval((1.0, 2.0))


# -- binary minus is read as the sum with a negation


def test_binary_minus_is_the_sum_with_a_negation():
    assert ex.parse("x1 - 2") == ex.parse("x1 + -2") == ex.Add(ex.Coord(0), ex.Neg(ex.Num(2.0)))
    # an exact zero difference keeps the sign of the matching sum: the x3 partial is +0.0
    d = ex.parse("x1 - x2").diff(2)
    assert d == ex.Num(0.0) and math.copysign(1.0, d.value) == 1.0


@pytest.mark.parametrize("text, shown", [
    ("x1 - (x2 + x3)", "x1 - (x2 + x3)"),  # parens at equal precedence on the right
    ("x1 - x2 - x3", "x1 - x2 - x3"),
    ("x1 - x2*x3", "x1 - x2*x3"),
    ("x1 + -x2", "x1 - x2"),
    ("x1 - -x2", "x1 - -x2"),
    ("-(x1 - x2)", "-(x1 - x2)"),
])
def test_a_negated_right_operand_prints_as_a_difference(text, shown):
    e = ex.parse(text)
    assert str(e) == shown and ex.parse(shown) == e


def test_a_domain_error_names_the_difference():
    with pytest.raises(ex.DomainError, match=r"^log of non-positive value in 'log\(x1 - 2\.0\)'$"):
        ex.parse("log(x1 - 2)").eval((1.0,))


def test_fractional_power_of_jet_lanes_at_zero_is_a_domain_error():
    lanes = [Jet2(np.array([1.0, 0.0]), 1.0)]
    message = r"^derivative of fractional power at zero in 'x1\^0\.5'$"
    with pytest.raises(ex.DomainError, match=message):
        ex.parse("x1^0.5").eval(lanes)


def test_quotient_by_one_folds_to_the_numerator():
    assert ex.parse("x1/1").diff(0) == ex.Num(1.0)
    assert ex.parse("x1/1").diff(1) == ex.Num(0.0)


@pytest.mark.parametrize("text, message", [
    ("exp(x1", "expected ')' at offset 6"),
    ("", "empty expression at offset 0"),
    ("   ", "empty expression at offset 0"),
])
def test_unclosed_and_empty_text_are_syntax_errors(text, message):
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse(text)
    assert str(err.value) == message


def test_table_refuses_points_of_the_wrong_shape():
    table = ex.ExprTable([ex.parse("x1*x2"), ex.parse("x1 - x2")], (2,))
    with pytest.raises(ValueError, match=r"^x must be a point \(d,\) or N points \(N, d\)$"):
        table.at(np.zeros((2, 3, 2)))
    with pytest.raises(ValueError, match="^x must have dimension 2$"):
        table.at(np.zeros((4, 3)))


# -- random-expression properties

_FN = ("exp", "sin", "cos")


def _random_polynomial(rng, depth: int, dim: int) -> ex.Expr:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ex.Coord(int(rng.integers(0, dim)))
        return ex.Num(float(rng.integers(-3, 4)))
    op = rng.integers(0, 4)
    a = _random_polynomial(rng, depth - 1, dim)
    b = _random_polynomial(rng, depth - 1, dim)
    if op == 0:
        return ex.Add(a, b)
    if op == 1:
        return ex.Add(a, ex.Neg(b))
    if op == 2:
        return ex.Mul(a, b)
    return ex.Pow(a, ex.Num(float(rng.integers(1, 4))))


def test_symbolic_derivative_matches_finite_differences():
    rng = np.random.default_rng(811)
    dim = 3
    step = 1e-5
    checked = 0
    for _ in range(200):
        e = _random_polynomial(rng, depth=int(rng.integers(1, 6)), dim=dim)
        x = rng.uniform(-1.0, 1.0, size=dim)
        var = int(rng.integers(0, dim))
        d = e.diff(var)
        xp, xm = x.copy(), x.copy()
        xp[var] += step
        xm[var] -= step
        fd = (e.eval(tuple(xp)) - e.eval(tuple(xm))) / (2.0 * step)
        sym = d.eval(tuple(x))
        assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym)), f"{e} wrt x{var + 1}"
        checked += 1
    assert checked == 200


def test_mixed_partials_commute():
    rng = np.random.default_rng(812)
    dim = 3
    for _ in range(100):
        e = _random_polynomial(rng, depth=int(rng.integers(1, 6)), dim=dim)
        i, j = rng.integers(0, dim, size=2)
        dij = e.diff(int(i)).diff(int(j))
        dji = e.diff(int(j)).diff(int(i))
        x = tuple(rng.uniform(-1.0, 1.0, size=dim))
        vij, vji = dij.eval(x), dji.eval(x)
        assert abs(vij - vji) <= 1e-10 * max(1.0, abs(vij))


def test_evaluation_is_generic_over_duals():
    e = ex.parse("exp(x1)*sin(x2) + x1^2/x2")
    x = (0.4, 1.3)
    seeded = [Jet2(x[0], 1.0), Jet2(x[1], 0.0)]
    out = e.eval(seeded)
    step = 1e-6
    fd = (e.eval((x[0] + step, x[1])) - e.eval((x[0] - step, x[1]))) / (2 * step)
    assert out.value == pytest.approx(e.eval(x), rel=1e-14)
    assert out.d1 == pytest.approx(fd, rel=1e-8)


# -- expression tables: the last result kept, shared function nodes evaluated once


def _unshared(e: ex.Expr) -> ex.Expr:
    """A copy of e with a node object of its own at every occurrence, so that no two
    entries of a table share a node."""
    return type(e)(*(_unshared(v) if isinstance(v, ex.Expr) else v for v in e.args))


def test_table_keeps_its_last_result_read_only_for_the_same_points(monkeypatch):
    table = ex.ExprTable([ex.parse("x1*x2"), ex.parse("exp(x1) - x2")], (2,))
    xs = np.random.default_rng(1).uniform(-1.0, 1.0, size=(4, 2))
    evals = count_calls(monkeypatch, ex.ExprTable, "eval")
    first = table.at(xs)
    assert table.at(xs.copy()) is first and len(evals) == 1  # the same shape and bytes
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 1.0
    assert table.at(xs[0]).shape == (2,) and len(evals) == 2  # another shape


def test_changing_one_coordinate_forces_a_new_evaluation(monkeypatch):
    table = ex.ExprTable([ex.parse("x1*x2"), ex.parse("exp(x1) - x2")], (2,))
    xs = np.random.default_rng(2).uniform(-1.0, 1.0, size=(4, 2))
    evals = count_calls(monkeypatch, ex.ExprTable, "eval")
    before = table.at(xs)
    for moved in (np.nextafter(xs[2, 1], 2.0), xs[2, 1] + 0.25):  # one ulp, then a step
        xs = xs.copy()
        xs[2, 1] = moved
        after = table.at(xs)
        fresh = ex.ExprTable(table.exprs, table.shape).at(xs)
        assert after.tobytes() == fresh.tobytes()
    assert len(evals) == 3 + 2  # three evaluations of `table`, two of the fresh tables
    assert not np.array_equal(after[2], before[2]) and np.array_equal(after[0], before[0])


@pytest.mark.parametrize("order", [1, 2])
def test_exp_partials_make_one_per_lane_exp_call(monkeypatch, order):
    # the gradient and the Hessian of exp(c.x): every entry reads one shared exp node,
    # with the bits of a tree whose entries hold nodes of their own (d or d^2 exps)
    table = ex.ExprTable([ex.parse("2*exp(0.3*x1 - 0.5*x2 + 0.2*x3)")])
    for _ in range(order):
        table = table.diff(3)
    xs = np.random.default_rng(3).uniform(-1.0, 1.0, size=(7, 3))
    per_lane = count_calls(monkeypatch, ex, "_per_lane")
    shared = table.at(xs)
    assert [f for f, *_ in per_lane] == [math.exp]
    separate = ex.ExprTable([_unshared(e) for e in table.exprs], table.shape).at(xs)
    assert len(per_lane) == 1 + 3 ** order
    assert shared.tobytes() == separate.tobytes()


def test_a_reused_column_list_gets_fresh_values():
    # shared node values live for one `at` evaluation, never for a column container
    table = ex.ExprTable([ex.parse("exp(x1 + x2)")]).diff(2)
    xs = np.random.default_rng(4).uniform(-1.0, 1.0, size=(5, 2))
    cols = [xs[:, 0], xs[:, 1]]
    before = table.eval(cols)
    cols[0] = cols[0] + 0.5
    after = table.eval(cols)
    for got, was, ref in zip(after, before, table.eval([xs[:, 0] + 0.5, xs[:, 1]])):
        assert np.array_equal(got, ref) and not np.array_equal(got, was)
