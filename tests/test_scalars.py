from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from loopcert.envelop import enveloping_context
from loopcert.liealg import preset
from loopcert.scalars import RatFunc, SymPoly, leibniz_det, parse_rational, ratstr

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
polys = st.builds(lambda cs: SymPoly("eps", cs),
                  st.lists(rationals, min_size=0, max_size=5))


def test_ratstr_roundtrip():
    assert ratstr(F(3, 4)) == "3/4"
    assert ratstr(F(5)) == "5"
    assert parse_rational("-7/2") == F(-7, 2)
    with pytest.raises(ValueError):
        parse_rational("x")


def test_sympoly_basic():
    eps = SymPoly.gen("eps")
    p = (1 + eps) * (1 - eps)
    assert p == 1 - eps ** 2
    assert p.at_zero() == 1
    assert (eps ** 3).valuation() == 3
    assert (eps ** 3).shift_down(2) == eps
    assert SymPoly("eps", []).is_zero()


def test_sympoly_mixed_symbols_rejected():
    with pytest.raises(TypeError):
        SymPoly.gen("eps") + SymPoly.gen("v")


@given(polys, polys, polys)
def test_sympoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + SymPoly("eps", []) == a


@given(polys, polys)
def test_ratfunc_field(a, b):
    ra = RatFunc.from_scalar(a, "eps")
    rb = RatFunc.from_scalar(b, "eps")
    assert ra + rb == rb + ra
    if not rb.is_zero():
        assert (ra / rb) * rb == ra


def test_ratfunc_reduction():
    eps = SymPoly.gen("eps")
    q = RatFunc(eps ** 2 - 1, eps - 1)
    assert q == RatFunc.from_scalar(eps + 1, "eps")
    with pytest.raises(ZeroDivisionError):
        RatFunc(eps, SymPoly("eps", []))


def _cofactor_det(m):
    """Determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = F(0)
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _cofactor_det(minor)
    return total


square_matrices = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(rationals, min_size=k, max_size=k),
                       min_size=k, max_size=k))


@given(square_matrices)
def test_leibniz_det_matches_cofactor_expansion(m):
    assert leibniz_det(len(m), lambda i, j: m[i][j]) == _cofactor_det(m)


def test_leibniz_det_multiplies_in_column_order():
    # noncommuting entries: the column determinant a00 a11 - a10 a01
    ctx = enveloping_context(preset("sl2"))
    e, h, f = (ctx.gen(a) for a in range(3))
    a = [[e, h], [f, e + h]]
    got = leibniz_det(2, lambda i, j: a[i][j])
    assert got == a[0][0] * a[1][1] - a[1][0] * a[0][1]
    assert got != a[1][1] * a[0][0] - a[0][1] * a[1][0]


def test_leibniz_det_rejects_empty():
    with pytest.raises(ValueError):
        leibniz_det(0, lambda i, j: F(1))
