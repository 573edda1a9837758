import itertools
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from loopcert.commpoly import CommPoly
from loopcert.envelop import NCPoly, current_context, word
from loopcert.errors import TruncationError
from loopcert.liealg import preset
from loopcert.yangian import (YangianContext, bethe_generators, f1_degree, f2_degree, gr1,
                              gr2, quantum_minor, r_major, rtt_relation_checks,
                              u_coefficient, yangian)


@pytest.fixture(scope="module")
def Y2():
    return yangian(2, 8)


def commutator(Y, a, b):
    """[t_a, t_b] for generator keys a = (r, i, j), normal-ordered."""
    return Y.gen(a).commutator(Y.gen(b))


def quantum_determinant(Y, N):
    idx = list(range(1, Y.n + 1))
    return quantum_minor(Y, idx, idx, N)


class TestCommutator:
    def test_spec_examples(self, Y2):
        assert commutator(Y2, (1, 1, 1), (2, 1, 2)) == Y2.t(1, 2, 2)
        # [t_ij^(1), t_kl^(1)] = delta_kj t_il^(1) - delta_il t_kj^(1)
        for i, j, k, l in itertools.product((1, 2), repeat=4):
            got = commutator(Y2, (1, i, j), (1, k, l))
            expected = Y2.zero()
            if k == j:
                expected = expected + Y2.t(i, l, 1)
            if i == l:
                expected = expected - Y2.t(k, j, 1)
            assert got == expected

    def test_self_commutator_zero(self, Y2):
        assert commutator(Y2, (2, 1, 2), (2, 1, 2)).is_zero()

    def test_bracket_coefficients_are_int(self):
        Y = YangianContext(2, 4)
        # [t^(r), t^(s)] has F1-weight r + s - 1
        brackets = [Y._yangian_bracket(gi, gj)
                    for gi, a in enumerate(Y.gens) for gj, b in enumerate(Y.gens)
                    if a[0] + b[0] - 1 <= Y.max_weight]
        assert any(brackets)
        assert all(type(c) is int and c for br in brackets for c in br.values())
        assert all(type(w) is str for br in brackets for w in br)

    def test_truncation_overflow(self):
        # [t_21^(2), t_12^(2)] = t_22^(3) - t_11^(3) + ..., past N = 2
        tight = yangian(2, 2)
        with pytest.raises(TruncationError, match=r"needs a letter t\^\(3\)"):
            commutator(tight, (2, 2, 1), (2, 1, 2))


class TestNormalOrder:
    def test_ordered_word_fixed(self, Y2):
        w = word((Y2.index[(1, 1, 2)], Y2.index[(1, 2, 1)]))
        assert NCPoly(Y2, {w: F(1)}).terms == {w: F(1)}

    def test_single_rewrite(self, Y2):
        got = Y2.t(2, 1, 1) * Y2.t(1, 2, 1)
        expected = Y2.t(1, 2, 1) * Y2.t(2, 1, 1) + Y2.t(2, 2, 1) - Y2.t(1, 1, 1)
        assert got == expected

    def test_word_past_bound_normalizes_exactly(self):
        # no word is weighed: t_11^(2) t_22^(2) has weight 4 > N = 3, and
        # rewriting either order asks for no letter past N, so both come back
        # exact; r-major letters have the same code points at any N
        tight, wide = yangian(2, 3), yangian(2, 8)
        for a, b in [(1, 1), (2, 2)], [(2, 2), (1, 1)]:
            got = tight.t(*a, 2) * tight.t(*b, 2)
            assert got.terms == (wide.t(*a, 2) * wide.t(*b, 2)).terms
            assert f1_degree(tight, got) == 4
        # [t_11^(3), t_11^(2)] writes t_11^(4) twice, with opposite signs
        assert commutator(tight, (3, 1, 1), (2, 1, 1)).is_zero()

    def test_truncation_repeats_after_cache_fills(self):
        # a bracket that raised is not cached, so the raise repeats after
        # lighter products have filled the normal-form and bracket caches
        tight = YangianContext(2, 2)
        for _ in range(2):
            with pytest.raises(TruncationError):
                tight.t(2, 1, 2) * tight.t(1, 2, 2)
            tight.t(1, 2, 1) * tight.t(2, 1, 1) * tight.t(1, 1, 1)
            tight.t(2, 2, 2) * tight.t(1, 2, 1)
            assert len(tight._nf_cache) > 2 and tight._br_cache
        with pytest.raises(TruncationError):
            tight.t(1, 1, 1) * tight.t(2, 1, 2) * tight.t(1, 2, 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
                min_size=3, max_size=3))
def test_confluence_association(keys):
    Y = yangian(2, 8)
    a, b, c = (Y.gen((r, i, j)) for (r, i, j) in keys)
    assert (a * b) * c == a * (b * c)


class TestMatrixMajor:
    """The matrix-major context normalizes the same algebra in another PBW order."""

    @staticmethod
    def in_r_major(Y, p):
        # the words of p, letter by letter by key, normalized in Y
        return NCPoly(Y, {word(Y.index[p.ctx.gens[ord(g)]] for g in w): c
                          for w, c in p.terms.items()})

    def test_letters_sort_as_i_j_r(self):
        M = yangian(2, 3, matrix_major=True)
        assert M.gens == sorted(M.gens, key=lambda g: (g[1], g[2], g[0]))
        assert sorted(M.gens) == yangian(2, 3).gens

    def test_bracket_words_ordered_when_kj_below_il(self):
        M = YangianContext(3, 5, matrix_major=True)
        for gi, (r, i, j) in enumerate(M.gens):
            for gj, (s, k, l) in enumerate(M.gens):
                if r + s - 1 <= M.max_weight and (k, j) < (i, l):
                    assert all(list(w) == sorted(w) for w in M._yangian_bracket(gi, gj))

    def test_taus_equal_r_major_taus(self):
        for entries, smax in ([1, 2], 4), ([3, -1], 3), ([1, 2, 3], 3), ([1, 1, 2], 2):
            n = len(entries)
            Y = yangian(n, 2 * smax)
            M = yangian(n, 2 * smax, matrix_major=True)
            taus = bethe_generators(Y, entries, smax)
            mm = bethe_generators(M, entries, smax)
            assert set(mm) == set(taus)
            assert any(p.terms != taus[key].terms for key, p in mm.items())
            for key, p in mm.items():
                assert r_major(p) == self.in_r_major(Y, p) == taus[key]

    def test_one_context_per_letter_order(self):
        Y, M = yangian(2, 4), yangian(2, 4, matrix_major=True)
        assert Y is yangian(2, 4, matrix_major=False)
        assert M is not Y and M.matrix_major and not Y.matrix_major
        # a pickled context is the cached one, and so is an element's
        for ctx in Y, M:
            assert pickle.loads(pickle.dumps(ctx)) is ctx
            p = ctx.t(1, 2, 1) * ctx.t(2, 1, 2)
            assert pickle.loads(pickle.dumps(p)) == p


class TestRTT:
    def test_oracle_low_order(self):
        assert all(ok for _, ok in rtt_relation_checks(2, 2))

    def test_oracle_n3_low_order(self):
        assert all(ok for _, ok in rtt_relation_checks(3, 2))


class TestQuantumMinor:
    def test_k1_is_t_series(self, Y2):
        m = quantum_minor(Y2, [1], [2], 3)
        for s in range(1, 4):
            assert u_coefficient(Y2, m, s) == Y2.t(1, 2, s)

    def test_qdet_u1_coefficient(self, Y2):
        assert u_coefficient(Y2, quantum_determinant(Y2, 3), 1) == \
            Y2.t(1, 1, 1) + Y2.t(2, 2, 1)

    def test_row_swap_antisymmetry(self):
        Y3 = yangian(3, 6)
        m12 = quantum_minor(Y3, [1, 2], [1, 2], 3)
        m21 = quantum_minor(Y3, [2, 1], [1, 2], 3)
        for s in range(4):
            assert u_coefficient(Y3, m12, s) == -u_coefficient(Y3, m21, s)

    def test_qdet_central(self, Y2):
        # quantum determinant coefficients commute with every generator
        # within truncation
        qd = quantum_determinant(Y2, 3)
        for s in range(1, 4):
            c = u_coefficient(Y2, qd, s)
            for (r, i, j) in [(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2)]:
                assert c.commutator(Y2.t(i, j, r)).is_zero()


class TestBethe:
    def test_tau1_weighted_trace(self, Y2):
        taus = bethe_generators(Y2, [1, 2], 3)
        for s in range(1, 4):
            assert taus[(1, s)] == Y2.t(1, 1, s) + Y2.t(2, 2, s).scale(2)

    def test_tau_n_is_qdet_at_identity(self, Y2):
        taus = bethe_generators(Y2, [1, 1], 3)
        qd = quantum_determinant(Y2, 3)
        for s in range(1, 4):
            assert taus[(2, s)] == u_coefficient(Y2, qd, s)

    def test_commutator_example(self, Y2):
        taus = bethe_generators(Y2, [1, 2], 2)
        assert taus[(1, 1)].commutator(taus[(2, 2)]).is_zero()

    def test_scaling_C_rescales_tau(self, Y2):
        # tau_k(u, cC) = c^k tau_k(u, C): the generated family is scale-invariant
        t1 = bethe_generators(Y2, [1, 2], 2)
        t2 = bethe_generators(Y2, [3, 6], 2)
        for (k, s), p in t1.items():
            assert t2[(k, s)] == p.scale(F(3) ** k)


class TestGradedMaps:
    def test_gr1_generator(self, Y2):
        p = Y2.t(1, 2, 3)
        assert gr1(Y2, p) == CommPoly.variable(0 * 2 + 1, 2)

    def test_gr1_scalar(self, Y2):
        assert gr1(Y2, Y2.one()) == CommPoly.const(1)

    def test_gr1_top_part_only(self, Y2):
        p = Y2.t(1, 2, 1) * Y2.t(2, 1, 1) + Y2.t(1, 1, 1)
        got = gr1(Y2, p)
        expected = CommPoly.variable(1, 0) * CommPoly.variable(2, 0)
        assert got == expected

    def test_gr2_generator(self, Y2):
        cur = current_context(preset("gl2"), 3)
        assert gr2(Y2, Y2.t(1, 2, 3), 3) == cur.gen((2, 1))

    def test_gr2_respects_level1_bracket(self, Y2):
        gl2 = preset("gl2")
        cur = current_context(gl2, 2)
        for i, j, k, l in itertools.product((1, 2), repeat=4):
            comm = commutator(Y2, (1, i, j), (1, k, l))
            lie = cur.gen((0, (i - 1) * 2 + (j - 1))).commutator(
                cur.gen((0, (k - 1) * 2 + (l - 1))))
            if comm.is_zero():
                assert lie.is_zero()
            else:
                assert gr2(Y2, comm, 2) == lie

    def test_gr2_beyond_truncation_is_zero(self, Y2):
        # e[r-1] = 0 in U(gl_n[t]/t^R) once r > R
        R = 2
        cur = current_context(preset("gl2"), R)
        assert gr2(Y2, Y2.t(1, 2, R + 1), R).is_zero()
        assert gr2(Y2, Y2.t(1, 1, 1) * Y2.t(2, 1, R + 1), R).is_zero()
        assert gr2(Y2, Y2.t(1, 1, 1) * Y2.t(2, 1, R), R) == \
            cur.gen((0, 0)) * cur.gen((R - 1, 2))

    def test_gr2_mixed_degrees_top_only(self, Y2):
        p = Y2.t(1, 1, 2) + Y2.t(1, 1, 1)  # F2-degrees 1 and 0
        cur = current_context(preset("gl2"), 2)
        assert gr2(Y2, p, 2) == cur.gen((1, 0))

    def test_gr1_of_bethe_is_classical(self):
        # the quantum minors and the minors of g(u) are independent expansions
        from loopcert.families import classical_bethe
        for entries, smax in ([1, 2], 4), ([1, 1], 4), ([1, 1, 2], 3):
            n = len(entries)
            Y = yangian(n, smax)
            taus = bethe_generators(Y, entries, smax)
            sigma = classical_bethe(n, entries, [0] * n, smax)
            assert set(taus) == set(sigma)
            for (k, s), tau in taus.items():
                assert gr1(Y, tau) == sigma[(k, s)].at_zero()

    def test_filtration_degrees(self, Y2):
        p = Y2.t(1, 1, 3) * Y2.t(1, 2, 2)
        assert f1_degree(Y2, p) == 5
        assert f2_degree(Y2, p) == 3
