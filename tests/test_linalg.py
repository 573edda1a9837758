import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from loopcert.commpoly import CommPoly, LoopAlgebra, ZhPoly, mono_deg1, mono_deg2, monomial
from loopcert.errors import BoundsError
from loopcert.families import gaudin_generators
from loopcert.liealg import preset
from loopcert.envelop import current_context
from loopcert.linalg import (Subspace, bigraded_block, degree_buckets, drawn_jacobian_pivots,
                             free_series_coeffs, generator_products, jacobian_pivots,
                             limit_subspace, relations, rref)

M1, M2, M3 = (monomial([(a, 0)]) for a in range(3))
AMB = [M1, M2, M3]


def vec(*pairs):
    return CommPoly({m: F(c) for m, c in pairs})


class TestSubspace:
    def test_span_rank(self):
        s = Subspace.span_of([vec((M1, 1), (M2, 2))], AMB)
        assert s.dim == 1

    def test_intersection(self):
        # sum_i a_i u_i = sum_j b_j w_j for the bases u of s1 and w of s2:
        # the relations (a, -b) among [u..., w...] give s1 & s2 as sum a_i u_i
        us = [vec((M1, 1)), vec((M2, 1))]
        ws = [vec((M2, 1)), vec((M3, 1))]
        common = [sum((us[i].scale(a) for i, a in c.items() if i < len(us)), CommPoly())
                  for c in relations([p.terms for p in us + ws])]
        inter = Subspace.span_of(common, AMB)
        assert inter.dim == 1
        assert inter.contains_poly(vec((M2, 5)))
        assert not inter.contains_poly(vec((M1, 1)))

    def test_equality_is_canonical(self):
        a = Subspace.span_of([vec((M1, 2), (M2, 4))], AMB)
        b = Subspace.span_of([vec((M1, 1), (M2, 2)), vec((M1, 3), (M2, 6))], AMB)
        assert a == b

    def test_outside_component_rejected(self):
        with pytest.raises(BoundsError):
            Subspace.span_of([vec((M3, 1))], [M1, M2])

    def test_witness(self):
        s1 = Subspace.span_of([vec((M1, 1))], AMB)
        s2 = Subspace.span_of([vec((M2, 1))], AMB)
        assert s1.witness_missing_from(s2) == {0: F(1)}
        assert s1.witness_missing_from(s1) is None


class TestGeneratedComponents:
    def test_single_generator_square(self):
        x = CommPoly.variable(0, 0)
        amb = [monomial([(0, 0)] * k) for k in range(3)]
        comp = Subspace.span_of(degree_buckets([(x, 1)], 2)[2], amb)
        assert comp.dim == 1
        assert comp.contains_poly(x * x)

    def test_empty_generators(self):
        comp = Subspace.span_of(degree_buckets([], 3)[3], AMB)
        assert comp.dim == 0

    def test_sl2_gaudin_deg4_partition_count(self):
        sl2 = preset("sl2")
        loop = LoopAlgebra(sl2)
        gens = [(g.poly, g.deg1) for g in gaudin_generators(sl2, 2)]
        comp = Subspace.span_of(degree_buckets(gens, 4)[4], loop.component_monomials(4))
        # free on generators of degrees 2,3,4: q^4 coefficient of
        # prod_{r>=2}(1-q^r)^{-1} is 2 (2+2 and 4)
        assert comp.dim == free_series_coeffs([2, 3, 4], 4)[4] == 2


class TestJacobian:
    # x0 x1 and x0^2 + x1^2 have gradients (x1, x0) and (2 x0, 2 x1): rank 2
    # exactly where x0^2 != x1^2
    POLYS = [vec((M1 + M2, 1)), vec((M1 + M1, 1), (M2 + M2, 1))]

    @pytest.mark.parametrize("point,pivots", [
        ({M1: 1, M2: 2}, [0, 1]), ({M1: 3, M2: -3}, [0]), ({M1: 0, M2: 0}, []),
        ({M1: F(1, 2), M2: F(1, 3)}, [0, 1]), ({M1: F(1, 2), M2: F(-1, 2)}, [0]),
        ({M1: 2}, [0, 1]), ({M3: 5}, []),  # absent letters are 0
    ])
    def test_pivots_at_a_point(self, point, pivots):
        assert jacobian_pivots(self.POLYS, point) == pivots

    def test_draw_resamples_until_the_rank_is_reached(self):
        # x0 and 2 x0 have rank 1 at every point: a rank of 2 is never
        # reached, so every one of the 20 points is resampled
        polys = [vec((M1, 1)), vec((M1, 2))]
        assert drawn_jacobian_pivots(polys, 1, random.Random(0)) == ([0], 0)
        assert drawn_jacobian_pivots(polys, 2, random.Random(0)) == ([0], 20)
        # x0^2 is rank-deficient only at x0 = 0, which Random(88) draws first
        assert random.Random(88).randint(-50, 50) == 0
        assert drawn_jacobian_pivots([vec((M1 + M1, 1))], 1, random.Random(88)) == ([0], 1)


class TestFreeSeries:
    def test_coefficients(self):
        assert free_series_coeffs([1, 2, 3, 4, 2, 3, 4], 4) == [1, 1, 3, 5, 10]
        assert free_series_coeffs([1, 2, 3, 4] * 2, 4) == [1, 2, 5, 10, 20]


def zsum(*vectors):
    """The sum of ``ZhPoly`` vectors, coefficient list by coefficient list."""
    out = {}
    for v in vectors:
        for m, c in v.terms.items():
            acc = out.setdefault(m, [])
            acc.extend([0] * (len(c) - len(acc)))
            for i, x in enumerate(c):
                acc[i] += x
    return ZhPoly(out)


class TestLimits:
    def test_continuity(self):
        lim, _ = limit_subspace([M1, M2], [ZhPoly({M1: [1], M2: [0, 1]})])
        assert lim.dim == 1
        assert lim.contains_poly(vec((M1, 1)))
        assert not lim.contains_poly(vec((M2, 1)))

    def test_blowup_to_plane(self):
        v1 = ZhPoly({M1: [1], M2: [1]})
        v2 = ZhPoly({M1: [1], M2: [1, 1]})
        lim, _ = limit_subspace([M1, M2], [v1, v2])
        assert lim.dim == 2

    def test_eps_independent_family(self):
        lim, _ = limit_subspace(AMB, [ZhPoly({M1: [2], M3: [-3]})])
        assert lim == Subspace.span_of([vec((M1, 2), (M3, -3))], AMB)

    def test_dimension_preserved(self):
        v1 = ZhPoly({M1: [1], M2: [0, 1]})
        v2 = ZhPoly({M2: [1], M3: [0, 0, 1]})
        lim, _ = limit_subspace(AMB, [v1, v2])
        assert lim.dim == 2

    def test_unit_pivot_is_inverted(self):
        # the pivot entry 1 + eps is a unit of Z[[eps]]: v2 - (1 + eps)^-1 v1
        # = (0, eps - eps^2 + ...) keeps the second direction
        v1 = ZhPoly({M1: [1, 1], M2: [1]})
        v2 = ZhPoly({M1: [1], M2: [1]})
        lim, _ = limit_subspace([M1, M2], [v1, v2])
        assert lim.dim == 2

    def test_non_unit_pivot(self):
        # the pivot entry 2 + eps is no unit of Z[[eps]], so the other row is
        # cleared fraction-free: (2 + eps) v2 - (2 + eps) v1 = (0, 0, 2 eps + eps^2)
        v1 = ZhPoly({M1: [2, 1], M2: [1]})
        v2 = ZhPoly({M1: [2, 1], M2: [1], M3: [0, 1]})
        lim, _ = limit_subspace(AMB, [v1, v2])
        assert lim == Subspace.span_of([vec((M1, 2), (M2, 1)), vec((M3, 1))], AMB)

    def test_row_close_to_another_is_kept(self, monkeypatch):
        # v2 - v1 = eps^20 e2 vanishes mod eps^K until K = 32; a zero row at
        # K = 4, 8, 16 is not certified (degree bound 2 * 20), so K doubles
        precisions = spy_precisions(monkeypatch)
        v1 = ZhPoly({M1: [1], M2: [0, 1]})
        v2 = ZhPoly({M1: [1], M2: [0, 1] + [0] * 18 + [1]})
        lim, K = limit_subspace(AMB, [v1, v2])
        assert lim == Subspace.span_of([vec((M1, 1)), vec((M2, 1))], AMB)
        assert precisions == [4, 8, 16, 32] and K == 32
        # started at the certified precision, one elimination is enough
        precisions.clear()
        assert limit_subspace(AMB, [v1, v2], 32) == (lim, 32)
        assert precisions == [32]

    def test_zero_row_at_the_bound_is_kept(self, monkeypatch):
        # v2 - eps^2 v1 = (0, -eps^4), whose minor with v1 is -eps^4 of degree
        # (1 + 1) * 2: at K = 4, K + 0 > 4 fails, so it is not dropped
        precisions = spy_precisions(monkeypatch)
        v1 = ZhPoly({M1: [1], M2: [0, 0, 1]})
        v2 = ZhPoly({M1: [0, 0, 1]})
        lim, K = limit_subspace([M1, M2], [v1, v2])
        assert lim.dim == 2
        assert precisions == [4, 8] and K == 8

    def test_dependent_row_dropped_by_degree_bound(self, monkeypatch):
        # v3 = v1 + 2 v2 reduces to zero after two pivots of valuation 0, and
        # K + 0 = 4 > (2 + 1) * 1 certifies it at once: no doubling
        precisions = spy_precisions(monkeypatch)
        v1 = ZhPoly({M1: [1], M2: [0, 1]})
        v2 = ZhPoly({M2: [1], M3: [0, 1]})
        v3 = ZhPoly({M1: [1], M2: [2, 1], M3: [0, 2]})
        lim, K = limit_subspace(AMB, [v1, v2, v3])
        assert precisions == [4] and K == 4
        assert lim == limit_subspace(AMB, [v1, v2])[0]
        assert lim.dim == 2


def spy_precisions(monkeypatch):
    """The precisions K that limit_subspace eliminates at, in call order."""
    import loopcert.linalg as linalg
    seen = []
    inner = linalg._hadic_pivots

    def spy(rows, K, degree):
        seen.append(K)
        return inner(rows, K, degree)

    monkeypatch.setattr(linalg, "_hadic_pivots", spy)
    return seen


unimodular_entries = st.integers(-2, 2)


@settings(max_examples=25, deadline=None)
@given(unimodular_entries, unimodular_entries, unimodular_entries)
def test_limit_invariant_under_unimodular_change(a, b, c):
    """Changing the spanning set by a Z[eps]-matrix invertible at eps = 0
    leaves the limit fixed."""
    v1 = ZhPoly({M1: [1], M2: [0, 1], M3: [2]})
    v2 = ZhPoly({M2: [1, 1], M3: [0, 0, 1]})
    base, _ = limit_subspace(AMB, [v1, v2])
    # transform matrix [[1, a+b*eps], [c*eps, 1]]: determinant is 1 at eps = 0
    w1 = zsum(v1, ZhPoly({"": [a, b]}) * v2)
    w2 = zsum(v2, ZhPoly({"": [0, c]}) * v1)
    got, _ = limit_subspace(AMB, [w1, w2])
    assert got == base


class TestBigradedBlock:
    def test_leading_blocks(self):
        x0 = CommPoly.variable(0, 0)   # bidegree (1, 0)
        x1 = CommPoly.variable(0, 1)   # bidegree (2, 1)
        amb = [monomial([(0, 0)]), monomial([(0, 1)]), monomial([(0, 0), (0, 0)])]
        bidegs = [(mono_deg1(m), mono_deg2(m)) for m in amb]
        u = [x0 + x1]   # leading bidegree (2, 1)
        blk20, blk21 = bigraded_block(u, amb, bidegs, 2)
        assert blk21.dim == 1 and blk21.ambient == (amb[1],)
        assert blk20.dim == 0 and blk20.ambient == (amb[2],)
        (blk10,) = bigraded_block(u, amb, bidegs, 1)
        assert blk10.dim == 0


def test_rref_canonical():
    rows = [[F(2), F(4), F(0)], [F(1), F(2), F(1)]]
    out = rref(rows)
    assert out == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]


def test_rref_entries_are_fractions():
    # zeros included, so that ratstr renders every entry the same way
    out = rref([[F(0), F(3), F(0), F(6)], [F(0), F(1), F(1), F(0)]])
    assert out == [[0, 1, 0, 2], [0, 0, 1, -2]]
    assert all(type(x) is F for r in out for x in r)


def test_rref_empty_and_zero_matrices():
    assert rref([]) == []
    assert rref([[F(0)] * 3, [F(0)] * 3]) == []


def test_rref_drops_row_that_cancels_midway():
    # the second row cancels once the first pivot column is cleared from it
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(0), F(1)]]
    assert rref(rows) == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]


class Mat2:
    """2 x 2 integer matrices: noncommutative, with zero divisors."""

    def __init__(self, a, b, c, d):
        self.m = (a, b, c, d)

    def __mul__(self, o):
        a, b, c, d = self.m
        e, f, g, h = o.m
        return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __bool__(self):
        return any(self.m)

    def __eq__(self, o):
        return self.m == o.m

    def __repr__(self):
        return f"Mat2{self.m}"


def _brute_force_products(gens, dmax, one):
    """Nonzero left-to-right products over nondecreasing index tuples, in the
    enumerator's order: a prefix before its extensions, later indices first."""
    found = []
    for length in range(dmax + 1):
        for idxs in itertools.combinations_with_replacement(range(len(gens)), length):
            deg = sum(gens[i][1] for i in idxs)
            if deg > dmax:
                continue
            p = one
            for i in idxs:
                p = p * gens[i][0]
            if p:
                found.append((tuple(-i for i in idxs), p, deg))
    found.sort(key=lambda t: t[0])
    return [(p, deg) for _, p, deg in found]


mat2 = st.builds(Mat2, *[st.integers(-1, 1)] * 4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(mat2, st.integers(1, 3)), max_size=4), st.integers(0, 5))
def test_generator_products_match_brute_force(gens, dmax):
    one = Mat2(1, 0, 0, 1)
    got = list(generator_products(gens, dmax, one))
    assert got == _brute_force_products(gens, dmax, one)
    assert all(p for p, _ in got)


def test_generator_products_drop_zero_products():
    nil = Mat2(0, 1, 0, 0)   # nil * nil = 0
    got = list(generator_products([(nil, 1)], 3, Mat2(1, 0, 0, 1)))
    assert got == [(Mat2(1, 0, 0, 1), 0), (nil, 1)]


def test_generator_products_noncommuting_ncpoly():
    ctx = current_context(preset("sl2"), 1)
    e, h, f = (ctx.gen((0, a)) for a in range(3))
    gens = [(e, 1), (f + h, 1), (h, 2)]
    got = list(generator_products(gens, 3, ctx.one()))
    assert got == _brute_force_products(gens, 3, ctx.one())
    # the order of the factors follows the generator indices
    assert (e * (f + h), 2) in got and ((f + h) * e, 2) not in got


@pytest.mark.parametrize("deg", [0, -1])
def test_generator_products_reject_nonpositive_degree(deg):
    with pytest.raises(BoundsError):
        list(generator_products([(F(2), 1), (F(3), deg)], 2, F(1)))
