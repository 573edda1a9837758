from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from loopcert.envelop import _weyl_join, current_context, word
from loopcert.liealg import preset
from loopcert.scalars import RatFunc, Series, SymPoly, leibniz_det, parse_rational, ratstr
from loopcert.yangian import t_series, yangian

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
polys = st.builds(lambda cs: SymPoly("eps", cs),
                  st.lists(rationals, min_size=0, max_size=5))


def test_ratstr_roundtrip():
    assert ratstr(F(3, 4)) == "3/4"
    assert ratstr(F(5)) == "5"
    assert parse_rational("-7/2") == F(-7, 2)
    with pytest.raises(ValueError):
        parse_rational("x")


@pytest.mark.parametrize("text,value", [
    ("9" * 1000, 10 ** 1000 - 1), ("-1/" + "9" * 1000, F(-1, 10 ** 1000 - 1)),
    ("1e999", 10 ** 999), ("2.5e-998", F(25, 10 ** 999)),
    ("0." + "0" * 998 + "1", F(1, 10 ** 999)),
])
def test_parse_rational_admits_the_digit_bound(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1e1000", "1" + "0" * 1000, "3/" + "1" * 1001, "1e-1000",
                                  "0." + "0" * 999 + "1"])
def test_parse_rational_refuses_past_the_digit_bound(text):
    with pytest.raises(ValueError, match="past the bound of 1000 digits"):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1e1001", "1E+3000000", "1e-" + "9" * 5000, "7" * 2001,
                                  "1/" + "3" * 2001])
def test_parse_rational_refuses_past_the_bound_unread(monkeypatch, text):
    # the text is measured before Fraction reads it, so no power of ten past
    # the bound is built: Fraction("1e3000000") ran past 30 s
    def unread(*args):
        raise AssertionError("Fraction read the text")

    monkeypatch.setattr("loopcert.scalars.Fraction", unread)
    with pytest.raises(ValueError, match="past the bound of 1000 digits"):
        parse_rational(text)


def test_sympoly_basic():
    eps = SymPoly.gen("eps")
    p = (1 + eps) * (1 - eps)
    assert p == 1 - eps ** 2
    assert p.constant_term() == 1
    assert SymPoly("eps", []).is_zero()


def test_sympoly_coefficients_are_fractions():
    """Coefficients become Fractions; one that is a Fraction already is kept
    as it is, not rebuilt."""
    half = F(1, 2)
    p = SymPoly("eps", [half, 3, "1/3", 0])
    assert p.coeffs == (F(1, 2), F(3), F(1, 3))
    assert all(type(c) is F for c in p.coeffs)
    assert p.coeffs[0] is half


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
    ctx = current_context(preset("sl2"), 1)
    e, h, f = (ctx.gen((0, a)) for a in range(3))
    a = [[e, h], [f, e + h]]
    got = leibniz_det(2, lambda i, j: a[i][j])
    assert got == a[0][0] * a[1][1] - a[1][0] * a[0][1]
    assert got != a[1][1] * a[0][0] - a[0][1] * a[1][0]


def test_leibniz_det_rejects_empty():
    with pytest.raises(ValueError):
        leibniz_det(0, lambda i, j: F(1))


def test_series_weyl_join_moves_d_past_z():
    # d z^-s = z^-s d - s z^-(s+1), keys (s, k, word) for z^-s d^k word
    d = Series({(0, 1, ""): 1}, _weyl_join)
    for s in range(1, 5):
        z = Series({(s, 0, ""): 1}, _weyl_join)
        assert (d * z).terms == {(s, 1, ""): 1, (s + 1, 0, ""): -s}
        assert (z * d).terms == {(s, 1, ""): 1}


def test_series_product_past_truncation_vanishes():
    Y = yangian(2, 4)
    a, b = t_series(Y, 1, 2, 2), t_series(Y, 2, 1, 2)
    t = Y.index
    # u^-1 t12^(1) + u^-2 t12^(2) times u^-1 t21^(1) + u^-2 t21^(2): only
    # u^-2 survives at Nmax = 2
    assert (a * b).terms == {(2, word((t[(1, 1, 2)], t[(1, 2, 1)]))): 1}
    top = Series({(2, word((t[(2, 1, 1)],))): F(1)}, a.join)
    assert (top * b).terms == {}
    assert (top - top).terms == {} and top.scale(0).terms == {}


def test_series_2x2_leibniz_det_by_hand():
    # cdet(d - L(z)) for gl2, L_ij = e_ij z^-1, letters ij:
    # (d - L11)(d - L22) - L21 L12
    #   = d^2 - (L11 + L22) z^-1 d + (L11 L22 - L21 L12 + L22) z^-2
    def entry(i, j):
        terms = {(0, 1, ""): F(1)} if i == j else {}
        terms[(1, 0, word((10 * (i + 1) + j + 1,)))] = F(-1)
        return Series(terms, _weyl_join)

    assert leibniz_det(2, entry).terms == {
        (0, 2, ""): 1, (1, 1, word((11,))): -1, (1, 1, word((22,))): -1,
        (2, 0, word((22,))): 1, (2, 0, word((11, 22))): 1, (2, 0, word((21, 12))): -1}
