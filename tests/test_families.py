import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from loopcert.certify import _clear_denominators, _curve_exponents
from loopcert.commpoly import CommPoly, LoopAlgebra, letter, mono_deg1, var_of
from loopcert.errors import RegularityError
from loopcert.families import (bethe_component_polys, centralizer_subalgebra,
                               classical_bethe, diag_to_basis,
                               directional_derivative, embed_subalgebra_poly, gamma_var,
                               gaudin_generators, invariant_component, soa_generators)
from loopcert.liealg import centralizer, preset
from loopcert.linalg import drawn_jacobian_pivots, jacobian_pivots

sl2 = preset("sl2")
E, H, FF = 0, 1, 2


class TestGaudinGenerators:
    def test_sl2_first_two(self):
        loop = LoopAlgebra(sl2)
        gens = gaudin_generators(sl2, 1)
        assert [g.label for g in gens] == ["D^0 Phi_1", "D^1 Phi_1"]
        assert gens[0].poly == loop.omega()
        assert gens[1].poly == loop.Omega().scale(2)

    def test_k0_is_invariants(self):
        gens = gaudin_generators(preset("sl3"), 0)
        invs = preset("sl3").invariant_generators()
        assert [g.poly for g in gens] == [p.poly for p in invs]

    def test_bracket1_with_D2(self):
        loop = LoopAlgebra(sl2)
        gens = gaudin_generators(sl2, 2)
        phi, d2phi = gens[0].poly, gens[2].poly
        assert loop.poisson1(phi, d2phi).is_zero()


class TestSOA:
    def test_zeroth_derivative(self):
        gens = soa_generators(sl2, diag_to_basis(sl2, [1, -1]))
        assert gens[0].poly == sl2.invariant_generators()[0].poly

    def test_sl2_derivative_value(self):
        # d_h(1/2 h^2 + 2ef) = <h,h> h = 2h under the trace form
        chi = diag_to_basis(sl2, [1, -1])
        got = directional_derivative(sl2, chi, sl2.invariant_generators()[0].poly)
        assert got == CommPoly.variable(H, 0).scale(2)

    def test_derivative_matches_matrix_oracle(self):
        # independent check: expand tr((X + s chi)^3) at a rational point X0
        sl3 = preset("sl3")
        chi = diag_to_basis(sl3, [1, 2, -3])
        phi3 = sl3.invariant_generators()[1].poly  # degree 3
        d1 = directional_derivative(sl3, chi, phi3)
        rng = random.Random(3)
        coords = [F(rng.randint(-5, 5)) for _ in range(sl3.dim)]
        size = 3
        mats = sl3.matrices
        X0 = [[sum(coords[a] * mats[a].get((i, j), 0) for a in range(sl3.dim))
               for j in range(size)] for i in range(size)]
        chi_m = [[F(int(i == j)) * [1, 2, -3][i] for j in range(size)]
                 for i in range(size)]

        def tr_cube(M):
            return sum(M[i][j] * M[j][k] * M[k][i]
                       for i in range(size) for j in range(size) for k in range(size))

        # coefficient of s in tr((X0 + s chi)^3) = 3 tr(X0^2 chi)
        lin = 3 * sum(X0[i][j] * X0[j][k] * chi_m[k][i]
                      for i in range(size) for j in range(size) for k in range(size))
        point = {letter(a, 0): sum(sl3.gram[a][b] * coords[b] for b in range(sl3.dim))
                 for a in range(sl3.dim)}
        assert sum(c * math.prod(point[ch] for ch in m) for m, c in d1.terms.items()) == lin

    def test_count_and_labels(self):
        sl3 = preset("sl3")
        gens = soa_generators(sl3, diag_to_basis(sl3, [1, 2, -3]))
        assert len(gens) == 5 == (sl3.dim + sl3.rank) // 2

    def test_irregular_chi_rejected(self):
        sl3 = preset("sl3")
        with pytest.raises(RegularityError):
            soa_generators(sl3, diag_to_basis(sl3, [1, 1, -2]))

    def test_jacobian_rank(self):
        # full rank at the first integer point drawn, and at a rational point
        sl3 = preset("sl3")
        polys = [g.poly for g in soa_generators(sl3, diag_to_basis(sl3, [1, 2, -3]))]
        assert drawn_jacobian_pivots(polys, 5, random.Random(11)) == ([0, 1, 2, 3, 4], 0)
        rng = random.Random(11)
        pt = {letter(a, 0): F(rng.randint(-9, 9), rng.randint(1, 4))
              for a in range(sl3.dim)}
        assert len(jacobian_pivots(polys, pt)) == 5


def constant_bethe(n, c, Rmax):
    """The classical Bethe family at the integer C = diag(c), over Q."""
    return {key: s.at_zero() for key, s in classical_bethe(n, c, [0] * n, Rmax).items()}


class TestClassicalBethe:
    def test_sigma1(self):
        sig = constant_bethe(2, [1, 2], 3)
        for r in range(1, 4):
            assert sig[(1, r)] == gamma_var(2, 1, 1, r) + gamma_var(2, 2, 2, r).scale(2)

    def test_sigma2_gl2(self):
        sig = constant_bethe(2, [1, 2], 2)
        assert sig[(2, 1)] == (gamma_var(2, 1, 1, 1) + gamma_var(2, 2, 2, 1)).scale(2)
        expected = (gamma_var(2, 1, 1, 2) + gamma_var(2, 2, 2, 2) +
                    gamma_var(2, 1, 1, 1) * gamma_var(2, 2, 2, 1) -
                    gamma_var(2, 1, 2, 1) * gamma_var(2, 2, 1, 1)).scale(2)
        assert sig[(2, 2)] == expected

    def test_component_spanning_sets(self):
        sig = constant_bethe(2, [1, 2], 2)
        polys = bethe_component_polys(sig, 2)[2]
        # sigma_1^(2), sigma_2^(2), and the three quadratic products
        assert len(polys) == 5
        assert all({mono_deg1(m) for m in p.terms} == {2} for p in polys)

    def test_constant_terms_are_elementary_symmetric(self):
        # [u^0] tr Lambda^k(C g(u)) = e_k(c1..cn) since g(u) = 1 + O(u^-1);
        # each subset minor has constant term 1, so the weighted sum is e_k
        import itertools as it
        from loopcert.families import _minor_series
        cs = [F(2), F(3), F(5)]
        elementary = {1: F(10), 2: F(31), 3: F(30)}
        for k in (1, 2, 3):
            total = F(0)
            for subset in it.combinations(range(1, 4), k):
                minor = _minor_series(3, subset, 2).terms
                assert {m: c for (r, m), c in minor.items() if r == 0} == {"": 1}
                w = F(1)
                for i in subset:
                    w *= cs[i - 1]
                total += w
            assert total == elementary[k]


class TestCentralizerComponents:
    def test_invariant_component_dims(self):
        loop = LoopAlgebra(sl2)
        # deg1 = 2 invariants of S(sl2[t]): only omega
        inv2 = invariant_component(loop, 2)
        assert len(inv2) == 1
        # deg1 = 3: D(omega) spans the line
        inv3 = invariant_component(loop, 3)
        assert len(inv3) == 1

    def test_constants_component(self):
        loop = LoopAlgebra(sl2)
        sub = centralizer_subalgebra(loop, loop.omega(), 0)
        assert sub.dim == 1

    def test_embedding(self):
        z = centralizer(3, [1, 1, 2])
        p = z.invariant_generators()[0].poly
        q = embed_subalgebra_poly(z, p)
        assert {var_of(ch) for m in q.terms for ch in m} <= {(a, 0) for a in z.ambient_indices}


# -- the curve of limit over Z[h] ----------------------------------------------


def at(z, t):
    """A ``ZhPoly`` read at h = t, as a CommPoly over Z."""
    return CommPoly({m: sum(x * t ** i for i, x in enumerate(c)) for m, c in z.terms.items()})


nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


@st.composite
def curves(draw):
    """gl2 through degree 4 or gl3 through degree 3, with C0 integral or not
    and chi with denominators up to 2."""
    n = draw(st.sampled_from([2, 3]))
    c0 = draw(st.lists(st.one_of(st.integers(-2, 3).filter(bool).map(F), nonzero),
                       min_size=n, max_size=n))
    chi = draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=2),
                        min_size=n, max_size=n))
    return n, c0, chi, 6 - n


@settings(max_examples=15, deadline=None)
@given(curves())
def test_integer_curve_spans_match_sympoly_curve(case):
    """The curve of ``classical_bethe`` over Z[h] is the family of the
    polynomial C(h) = L C0 diag((1+h)^p), L the lcm of the denominators of
    C0: each of its products, read at h = t for t = 0..D past its degree D
    in h, is the same product of the constant family at C = L C0 (1+t)^p
    (dropping the products that vanish at h = t, as the constant family
    lists none that vanish)."""
    n, c0, chi, dmax = case
    p, _ = _curve_exponents(chi)
    c, _ = _clear_denominators(c0)
    got = bethe_component_polys(classical_bethe(n, c, p, dmax), dmax)
    degree = max(len(e) - 1 for comp in got for z in comp for e in z.terms.values())
    for t in range(degree + 1):
        ct = [x * (1 + t) ** e for x, e in zip(c, p)]
        ref = bethe_component_polys(constant_bethe(n, ct, dmax), dmax)
        for d in range(dmax + 1):
            assert [q for q in (at(z, t) for z in got[d]) if q] == ref[d]
