import itertools
import json
import sys
from collections import defaultdict
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from loopcert.commpoly import (B, CommPoly, LoopAlgebra, ZhPoly, letter, mono_deg1,
                               mono_deg2, mono_mul, monomial, var_of, weighted_words)
from loopcert.errors import BoundsError
from loopcert.families import diag_to_basis, gaudin_generators, soa_generators
from loopcert.liealg import algebra_from_dict, preset

sl2 = preset("sl2")
E, H, FF = 0, 1, 2  # basis order e12, h1, e21


def var(a, r):
    return CommPoly.variable(a, r)


def bidegrees(p):
    """(deg1, deg2) of each monomial of p."""
    return {m: (mono_deg1(m), mono_deg2(m)) for m in p.terms}


@pytest.fixture(scope="module")
def loop():
    return LoopAlgebra(sl2)


class TestPoissonBrackets:
    def test_generators_bracket0(self, loop):
        assert loop.poisson0(var(E, 0), var(FF, 0)) == var(H, 0)
        assert loop.poisson0(var(H, 2), var(H, 3)).is_zero()
        assert loop.poisson0(var(E, 1), var(FF, 2)) == var(H, 3)

    def test_generators_bracket1(self, loop):
        assert loop.poisson1(var(E, 0), var(FF, 0)) == var(H, 1)
        assert loop.poisson1(CommPoly.const(5), var(H, 0)).is_zero()

    def test_leibniz_example(self, loop):
        # {e[0]f[0], h[0]}_1 = {e,h}_1 f + e {f,h}_1 = -2 e[1]f[0] + 2 e[0]f[1]
        # (hand Leibniz with [e,h] = -2e, [f,h] = 2f)
        got = loop.poisson1(var(E, 0) * var(FF, 0), var(H, 0))
        expected = (var(E, 0) * var(FF, 1)).scale(2) - (var(E, 1) * var(FF, 0)).scale(2)
        assert got == expected
        # antisymmetry pins the orientation
        assert loop.poisson1(var(H, 0), var(E, 0) * var(FF, 0)) == -got

    def test_pencil_jacobi_example(self, loop):
        # cyclic Jacobi sum for the (1,1) pencil member on (e[0], f[0], h[1])
        a, b, c = var(E, 0), var(FF, 0), var(H, 1)
        br = lambda x, y: loop.poisson0(x, y) + loop.poisson1(x, y)
        total = br(a, br(b, c)) + br(b, br(c, a)) + br(c, br(a, b))
        assert total.is_zero()

    def test_bracket_bihomogeneous(self, loop):
        p = var(E, 1) * var(H, 0)  # bidegree (3, 1)
        q = var(FF, 2)             # bidegree (3, 2)
        out = loop.poisson0(p, q)
        assert not out.is_zero()
        assert set(bidegrees(out).values()) == {(5, 3)}
        out1 = loop.poisson1(p, q)
        assert set(bidegrees(out1).values()) == {(6, 4)}


small_polys = st.lists(
    st.tuples(st.sampled_from([E, H, FF]), st.integers(0, 2),
              st.fractions(min_value=-6, max_value=6, max_denominator=3)),
    min_size=1, max_size=3,
).map(lambda spec: sum((CommPoly.variable(a, r).scale(c) for a, r, c in spec),
                       CommPoly()))


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_jacobi_and_antisymmetry_random(p, q, r):
    loop = LoopAlgebra(sl2)
    for br in (loop.poisson0, loop.poisson1):
        assert (br(p, q) + br(q, p)).is_zero()
        assert (br(p, br(q, r)) + br(q, br(r, p)) + br(r, br(p, q))).is_zero()


def test_jacobi_exhaustive_sl2_generators():
    """Exhaustive Jacobi over all generator triples with t-degree <= 3,
    for both brackets and the (1,1) pencil member."""
    import itertools
    loop = LoopAlgebra(sl2)
    gens = [var(a, r) for a in range(3) for r in range(4)]
    brackets = [loop.poisson0, loop.poisson1,
                lambda x, y: loop.poisson0(x, y) + loop.poisson1(x, y)]
    for br in brackets:
        for p, q, r in itertools.product(gens, repeat=3):
            assert (br(p, br(q, r)) + br(q, br(r, p)) + br(r, br(p, q))).is_zero()


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_leibniz_random(p, q, r):
    loop = LoopAlgebra(sl2)
    assert loop.poisson0(p, q * r) == loop.poisson0(p, q) * r + q * loop.poisson0(p, r)


def _monomial_polys(dim, tmax):
    """Sums of up to three terms c * x_a[r]^k x_b[s]^l ..., k, l in {1, 2},
    with t-degrees 0..tmax."""
    factor = st.tuples(st.integers(0, dim - 1), st.integers(0, tmax), st.integers(1, 2))
    term = st.tuples(st.lists(factor, max_size=3),
                     st.fractions(min_value=-4, max_value=4, max_denominator=3))
    return st.lists(term, min_size=1, max_size=3).map(
        lambda spec: sum((_product(m).scale(c) for m, c in spec), CommPoly()))


def _product(m):
    out = CommPoly.const(1)
    for a, r, k in m:
        out = out * CommPoly.variable(a, r) ** k
    return out


def _readme_sl2r():
    """The README's "Custom algebras" JSON block: sl2 in a rescaled basis."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return algebra_from_dict(json.loads(text.split("```json\n", 1)[1].split("```", 1)[0]))


# sl2r with its first basis vector halved: [x, f] = h/2 and (x, f) = 1/2
SL2_HALF = {
    "name": "sl2-half", "size": 2, "labels": ["x", "h", "f"],
    "matrices": [[[0, 1, "1/2"]], [[0, 0, "1"], [1, 1, "-1"]], [[1, 0, "1"]]],
    "cartan": [1], "blocks": [[[0, 1], [2]]]}
ALGEBRAS = {"sl2": lambda: sl2, "gl2": lambda: preset("gl2"), "sl2r": _readme_sl2r,
            "sl2-half": lambda: algebra_from_dict(SL2_HALF)}
# t-degrees of the drawn polynomials: their brackets reach t-degree 2 TMAX + 1
TMAX = 3


def _partial(p, a, r):
    """d p / d x_a[r], one letter removed from each monomial holding it."""
    v = letter(a, r)
    return CommPoly({m.replace(v, "", 1): c * m.count(v) for m, c in p.terms.items() if v in m})


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("shift", [0, 1])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_poisson_matches_partial_derivative_formula(name, shift, data):
    """{p, q}_k = sum_{u, v} dp/du * dq/dv * {u, v}_k, with the generator
    brackets {x_a[r], x_b[s]}_k = [x_a, x_b][r + s + k] built from
    bracket_coeffs directly, at every t-degree they reach."""
    alg = ALGEBRAS[name]()
    p = data.draw(_monomial_polys(alg.dim, TMAX))
    q = data.draw(_monomial_polys(alg.dim, TMAX))
    expected = CommPoly()
    for a, r in {var_of(ch) for m in p.terms for ch in m}:
        for b, s in {var_of(ch) for m in q.terms for ch in m}:
            cs = alg.bracket_coeffs(a, b)
            uv = sum((var(d, r + s + shift).scale(c) for d, c in cs.items()), CommPoly())
            expected = expected + _partial(p, a, r) * _partial(q, b, s) * uv
    loop = LoopAlgebra(alg)
    assert (loop.poisson0, loop.poisson1)[shift](p, q) == expected


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_coadjoint_images_match_poisson0(name):
    """{x_a[0], m}_0 for every a from one pass over m equals one poisson0
    call per basis index, on whole components (Fraction brackets too).  The
    images are sums over the bracket table, so ``int`` exactly where its
    entries are: on an integral table every coefficient is an ``int``."""
    loop = LoopAlgebra(ALGEBRAS[name]())
    integral = all(type(c) is int for cs in loop._brackets.values() for c in cs.values())
    for d in range(4):
        comp = loop.component_monomials(d)
        assert loop.component_monomials(d) is comp
        for m in comp:
            expected = {(a, mm): c for a in range(loop.alg.dim)
                        for mm, c in loop.poisson0(var(a, 0), CommPoly({m: F(1)})).terms.items()}
            got = loop.coadjoint_images(m)
            assert got == expected
            assert {type(c) for c in got.values()} <= ({int} if integral else {int, F})


def _reference_poisson(alg, p, q, shift):
    """The Leibniz extension of {x_a[r], x_b[s]} = [x_a, x_b][r + s + shift]
    over every pair of terms and every pair of their variables, in Fraction
    arithmetic."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            for i, (a, r) in enumerate(map(var_of, m1)):
                for j, (b, s) in enumerate(map(var_of, m2)):
                    cs = alg.bracket_coeffs(a, b)
                    tdeg = r + s + shift
                    rest = m1[:i] + m1[i + 1:] + m2[:j] + m2[j + 1:]
                    for d, cd in cs.items():
                        mono = mono_mul(rest, letter(d, tdeg))
                        out[mono] = out.get(mono, 0) + c1 * c2 * cd
    return CommPoly(out)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("shift", [0, 1])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_poisson_matches_term_pair_reference(name, shift, data):
    alg = ALGEBRAS[name]()
    p = data.draw(_monomial_polys(alg.dim, TMAX))
    q = data.draw(_monomial_polys(alg.dim, TMAX))
    loop = LoopAlgebra(alg)
    got = (loop.poisson0, loop.poisson1)[shift](p, q)
    assert got.terms == _reference_poisson(alg, p, q, shift).terms
    assert all(type(c) is F for c in got.terms.values())


def _reference_product(p, q):
    """p * q over every pair of terms, one coefficient product each, summed
    per monomial with cancelled sums dropped."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _terms_polys(coeff):
    """Up to five terms over monomials in three variables of t-degree 0..1."""
    mono = st.lists(st.sampled_from([(0, 0), (1, 0), (0, 1)]), max_size=3).map(monomial)
    return st.dictionaries(mono, coeff, max_size=5).map(CommPoly)


# non-integral coefficients with denominators up to 6
rational = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)


@settings(max_examples=150, deadline=None)
@given(_terms_polys(rational), _terms_polys(rational), st.sampled_from([F(1), F(-1), F(1, 2)]))
def test_product_matches_term_pair_reference(p, q, s):
    """CommPoly products with non-integral coefficients, (p + s q)(p - s q)
    among them, whose cross terms cancel, equal the term-pair reference,
    every coefficient a Fraction."""
    for a, b in ((p, q), (p + q, p - q), (p + q.scale(s), p - q.scale(s))):
        got = a * b
        assert got.terms == _reference_product(a, b)
        assert all(type(c) is F for c in got.terms.values())


def test_product_cancels_cross_terms():
    x, y = var(0, 0).scale(F(1, 2)), var(1, 0).scale(F(-2, 3))
    got = (x + y) * (x - y)
    assert got.terms == {monomial([(0, 0)] * 2): F(1, 4), monomial([(1, 0)] * 2): F(-4, 9)}
    assert all(type(c) is F for c in got.terms.values())


@settings(max_examples=100, deadline=None)
@given(_terms_polys(st.lists(st.integers(-2, 2), min_size=1, max_size=4)),
       _terms_polys(st.lists(st.integers(-2, 2), min_size=1, max_size=4)))
def test_zh_product_matches_product_over_q_h(p, q):
    """ZhPoly products over Z[h] equal the term-pair products of their
    coefficient lists, each an explicit convolution, with trailing zeros
    trimmed and cancelled terms dropped."""
    p, q = ZhPoly(p.terms), ZhPoly(q.terms)
    ref = defaultdict(lambda: defaultdict(int))  # {monomial: {power of h: coefficient}}
    for m1, a in p.terms.items():
        for m2, b in q.terms.items():
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    ref[mono_mul(m1, m2)][i + j] += x * y
    got = p * q
    assert all(c and c[-1] for c in got.terms.values())
    assert {m: {i: x for i, x in enumerate(c) if x} for m, c in got.terms.items()} == \
        {m: nz for m, c in ref.items() if (nz := {i: x for i, x in c.items() if x})}


@pytest.mark.parametrize("family", ["gaudin", "soa"])
def test_pairwise_brackets_match_fresh_loop_algebra(family):
    """Partials and {v, q}_s reused across pairs give, on every pair, the
    bracket of a fresh LoopAlgebra; three extra elements make most pairs
    with them nonzero."""
    alg = preset("sl3")
    if family == "gaudin":
        shifts = (0, 1)
        gens = gaudin_generators(alg, 2)
        extra = [var(0, 1), var(3, 2) * var(5, 0), var(7, 0) * var(1, 1) * var(1, 1)]
    else:
        shifts = (0,)
        gens = soa_generators(alg, diag_to_basis(alg, [F(1), F(2), F(-3)]))
        extra = [var(0, 0), var(3, 0) * var(5, 0), var(7, 0) * var(1, 0) * var(1, 0)]
    polys = [extra[0]] + [g.poly for g in gens] + extra[1:]
    got = list(LoopAlgebra(alg).pairwise_brackets(polys, shifts))
    n = len(polys)
    assert sorted(key for *key, _ in got) == [
        [i, j, s] for i in range(n) for j in range(i + 1, n) for s in shifts]
    nonzero = 0
    for i, j, s, bracket in got:
        fresh = LoopAlgebra(alg)
        assert bracket.terms == (fresh.poisson0, fresh.poisson1)[s](polys[i], polys[j]).terms
        nonzero += bool(bracket)
    assert nonzero >= n


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pairwise_brackets_match_poisson(name, data):
    alg = ALGEBRAS[name]()
    polys = [data.draw(_monomial_polys(alg.dim, TMAX)) for _ in range(4)]
    loop = LoopAlgebra(alg)
    expected = {(i, j, s): _reference_poisson(alg, polys[i], polys[j], s).terms
                for i in range(4) for j in range(i + 1, 4) for s in (0, 1)}
    got = {(i, j, s): p.terms for i, j, s, p in loop.pairwise_brackets(polys, (0, 1))}
    assert got == expected


class TestDerivation:
    def test_generator(self, loop):
        assert loop.derivation_D(var(E, 0)) == var(E, 1)
        assert loop.derivation_D(CommPoly.const(1)).is_zero()

    def test_leibniz(self, loop):
        got = loop.derivation_D(var(E, 0) * var(FF, 1))
        expected = var(E, 1) * var(FF, 1) + (var(E, 0) * var(FF, 2)).scale(2)
        assert got == expected

    def test_derivation_property_random(self, loop):
        p = var(E, 0) * var(H, 1) + var(FF, 2).scale(F(1, 3))
        q = var(H, 0) ** 2
        assert loop.derivation_D(p * q) == \
            loop.derivation_D(p) * q + p * loop.derivation_D(q)


class TestCasimirs:
    def test_omega_dual_basis(self, loop):
        expected = (var(H, 0) ** 2).scale(F(1, 2)) + (var(E, 0) * var(FF, 0)).scale(2)
        assert loop.omega() == expected

    def test_D_omega_is_2_Omega(self, loop):
        assert loop.derivation_D(loop.omega()) == loop.Omega().scale(2)

    def test_omega_invariant(self, loop):
        for a in range(sl2.dim):
            assert loop.poisson0(var(a, 0), loop.omega()).is_zero()


class TestBigrade:
    def test_single_variable(self):
        assert set(bidegrees(var(E, 2)).values()) == {(3, 2)}

    def test_constant(self):
        assert set(bidegrees(CommPoly.const(F(5))).values()) == {(0, 0)}

    def test_mixed(self):
        p = var(E, 0) * var(FF, 1) + var(H, 2)
        grades = bidegrees(p)
        assert set(grades.values()) == {(3, 1), (3, 2)}
        assert CommPoly({m: p.terms[m] for m in p.terms if grades[m] == (3, 1)}) == \
            var(E, 0) * var(FF, 1)
        assert CommPoly({m: p.terms[m] for m in p.terms if grades[m] == (3, 2)}) == \
            var(H, 2)


def _graded_lex_key(vs):
    """The reference monomial order on lists of variables (a, r): deg1, then
    the tuple of their (r, a) pairs in ascending order."""
    return (sum(r + 1 for _, r in vs), tuple(sorted((r, a) for a, r in vs)))


def test_enumerate_monomials_weights():
    vs = [(0, 0), (1, 0), (0, 1)]
    weights = [r + 1 for _, r in vs]
    words = list(weighted_words(weights, 2))
    # nondecreasing words of weight <= 2, depth first with the later indices
    # first, the empty word first
    assert words == [(), (2,), (1,), (1, 1), (0,), (0, 1), (0, 0)]
    # deg1 = 2: x^2, xy, y^2 over t-deg 0 vars, plus the single t-deg-1 var
    exact = [w for w in words if sum(weights[i] for i in w) == 2]
    assert list(weighted_words(weights, 2, exact=True)) == exact
    assert len(exact) == 4
    # the sl2 component of deg1 = 2: 6 quadratics in x[0] and 3 variables x[1]
    assert len(LoopAlgebra(sl2).component_monomials(2)) == 9
    # each component is every multiset of variables with deg1 = d, in the
    # reference order; a variable x_a[r] has deg1 r + 1, so r < d
    for name, dmax in [("sl2", 5), ("gl2", 4), ("gl3", 3)]:
        loop = LoopAlgebra(preset(name))
        variables = [(a, r) for a in range(loop.alg.dim) for r in range(dmax)]
        for d in range(dmax + 1):
            brute = {tuple(sorted(c)) for k in range(d + 1)
                     for c in itertools.combinations_with_replacement(variables, k)
                     if sum(r + 1 for _, r in c) == d}
            expected = tuple(monomial(c) for c in sorted(brute, key=_graded_lex_key))
            assert loop.component_monomials(d) == expected


variable_lists = st.lists(st.tuples(st.integers(0, B - 1), st.integers(0, 3)), max_size=5)


@settings(max_examples=200, deadline=None)
@given(variable_lists, variable_lists)
def test_letter_format(v1, v2):
    """Monomials ordered by (deg1, str) are in the reference order, decode
    to their sorted variables, and multiply as joined lists."""
    m1, m2 = monomial(v1), monomial(v2)
    assert ((mono_deg1(m1), m1) < (mono_deg1(m2), m2)) == (_graded_lex_key(v1) < _graded_lex_key(v2))
    assert (m1 == m2) == (_graded_lex_key(v1) == _graded_lex_key(v2))
    assert [var_of(ch) for ch in m1] == sorted(v1, key=lambda v: (v[1], v[0]))
    assert mono_mul(m1, m2) == monomial(v1 + v2)
    assert (mono_deg1(m1), mono_deg2(m1)) == (sum(r + 1 for _, r in v1), sum(r for _, r in v1))


def test_letter_bounds():
    # no variable is truncated or wrapped onto another's letter
    rmax = sys.maxunicode // B
    assert var_of(letter(B - 1, rmax)) == (B - 1, rmax)
    for a, r in [(B, 0), (-1, 0), (0, -1), (0, rmax + 1)]:
        with pytest.raises(BoundsError, match="has no letter"):
            letter(a, r)
    with pytest.raises(BoundsError):
        CommPoly.variable(B, 0)
    with pytest.raises(BoundsError):
        LoopAlgebra(SimpleNamespace(dim=B + 1))


@pytest.mark.parametrize("weight", [0, -1])
def test_weighted_words_reject_nonpositive_weight(weight):
    # a zero weight would extend a word forever without using up dmax
    with pytest.raises(BoundsError):
        list(weighted_words([1, weight], 2))


def test_render_canonical():
    # graded-lex: within deg1 = 2 the all-t-degree-0 monomial sorts first
    p = var(H, 0) ** 2 + var(E, 1).scale(F(-1, 2))
    assert p.render() == "1*x1[0]^2 + -1/2*x0[1]"
