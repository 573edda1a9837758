from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from loopcert.commpoly import CommPoly, LoopAlgebra, var_of
from loopcert.envelop import (NCPoly, PBWContext, current_context, gaudin_evaluation,
                              symmetrize, talalaev_generators, tensor_context, word)
from loopcert.errors import ValidationError
from loopcert.liealg import algebra_from_dict, preset
from loopcert.yangian import YangianContext

sl2 = preset("sl2")
E, H, FF = 0, 1, 2


@pytest.fixture(scope="module")
def U():
    return current_context(sl2, 1)


class TestNormalOrder:
    def test_single_swap(self, U):
        # f e = e f - h  in the order e < h < f
        fe = U.gen((0, FF)) * U.gen((0, E))
        expected = U.gen((0, E)) * U.gen((0, FF)) - U.gen((0, H))
        assert fe == expected

    def test_ordered_word_unchanged(self, U):
        w = word((E, E, H, FF))
        p = NCPoly(U, {w: F(1)})
        assert p.terms == {w: F(1)}

    def test_casimir_central(self, U):
        cas = U.gen((0, E)) * U.gen((0, FF)) + U.gen((0, FF)) * U.gen((0, E)) + \
            (U.gen((0, H)) * U.gen((0, H))).scale(F(1, 2))
        for a in (E, H, FF):
            assert cas.commutator(U.gen((0, a))).is_zero()

    def test_homomorphism_certificate(self, U):
        # normal_order(p*q) == normal_order(nf(p) * nf(q)) by construction;
        # check on raw mixed words via direct dictionaries
        raw_p = NCPoly(U, {word((FF, E)): F(1), word((H,)): F(2)})
        raw_q = NCPoly(U, {word((FF, H, E)): F(1)})
        assert (raw_p * raw_q).terms == U.normalize_terms(
            {w1 + w2: c1 * c2 for w1, c1 in raw_p.terms.items()
             for w2, c2 in raw_q.terms.items()})


words = st.lists(st.sampled_from([E, H, FF]), min_size=0, max_size=5).map(word)


@settings(max_examples=50, deadline=None)
@given(words, words, words)
def test_confluence_association(wa, wb, wc):
    """(ab)c and a(bc) normalize identically regardless of rewrite grouping."""
    U = current_context(sl2, 1)
    a, b, c = (NCPoly(U, {w: F(1)}) for w in (wa, wb, wc))
    assert (a * b) * c == a * (b * c)


@settings(max_examples=30, deadline=None)
@given(words, words)
def test_pbw_commutator_antisymmetry(wa, wb):
    U = current_context(sl2, 1)
    a, b = NCPoly(U, {wa: F(1)}), NCPoly(U, {wb: F(1)})
    assert a.commutator(b) == -(b.commutator(a))


def _swap_normal_form(ctx, letters, memo):
    """Reference rewriting by adjacent swaps on words spelled as tuples of
    letter indices, independent of the context's word encoding: the first
    out-of-order pair x_i x_j becomes x_j x_i + [x_i, x_j], recursively,
    memoized in ``memo``."""
    if letters in memo:
        return memo[letters]
    pos = next((k for k in range(len(letters) - 1) if letters[k] > letters[k + 1]), None)
    if pos is None:
        out = {letters: F(1)}
    else:
        swapped = letters[:pos] + (letters[pos + 1], letters[pos]) + letters[pos + 2:]
        rewrites = [(swapped, F(1))] + [
            (letters[:pos] + tuple(map(ord, bw)) + letters[pos + 2:], c)
            for bw, c in ctx.bracket_fn(letters[pos], letters[pos + 1]).items()]
        out = {}
        for w, c in rewrites:
            for v, d in _swap_normal_form(ctx, w, memo).items():
                out[v] = out.get(v, 0) + c * d
        out = {v: c for v, c in out.items() if c != 0}
    memo[letters] = out
    return out


def _fresh(ctx: PBWContext) -> PBWContext:
    """A copy of ctx with empty caches, so every word goes through insertion."""
    return PBWContext(ctx.gens, ctx.bracket_fn, ctx.labels)


ORACLE_CONTEXTS = {
    "U(sl3)": lambda: _fresh(current_context(preset("sl3"), 1)),
    "U(sl2)^3": lambda: _fresh(tensor_context(sl2, 3)),
    "U(gl2[t]/t^3)": lambda: _fresh(current_context(preset("gl2"), 3)),
    "Y(gl2), N=6": lambda: YangianContext(2, 6),
    # 272 letters, past the 256 of one byte each
    "U(gl4[t]/t^17)": lambda: _fresh(current_context(preset("gl4"), 17)),
}

# letters >= 240 straddle code point 256; they bracket to 0 among
# themselves (t-degree >= 30), so the t-degree 0 letters 0..15 are drawn too
ORACLE_LETTERS = {"U(gl4[t]/t^17)": [(0, 15), (240, 271)]}


def _within_weight(ctx, w):
    """The longest prefix of word w that a Yangian context admits."""
    if not isinstance(ctx, YangianContext):
        return w
    while ctx.word_weight(w) > ctx.max_weight:
        w = w[:-1]
    return w


@pytest.mark.parametrize("name", ORACLE_CONTEXTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_insertion_matches_adjacent_swaps(name, data):
    ctx = ORACLE_CONTEXTS[name]()
    ranges = ORACLE_LETTERS.get(name, [(0, len(ctx.gens) - 1)])
    letters = st.one_of(*(st.integers(lo, hi) for lo, hi in ranges))
    for _ in range(3):
        w = _within_weight(ctx, word(data.draw(st.lists(letters, max_size=6))))
        expected = _swap_normal_form(ctx, tuple(map(ord, w)), {})
        assert ctx.normalize_terms({w: 1}) == {word(v): c for v, c in expected.items()}


big_letters = st.one_of(st.integers(0, 300), st.integers(0xFF00, 0x10100),
                        st.integers(0, 0x10FFFF))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(big_letters, max_size=5), max_size=8))
@example([[255], [256], [0xFFFF], [0x10000], [255, 0x10000], [256, 0], [], [0x10FFFF]])
def test_str_words_sort_as_letter_tuples(letter_lists):
    tuples = [tuple(ls) for ls in letter_lists]
    assert sorted(map(word, tuples)) == [word(t) for t in sorted(tuples)]
    by_length = sorted(map(word, tuples), key=lambda w: (len(w), w))
    assert by_length == [word(t) for t in sorted(tuples, key=lambda t: (len(t), t))]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 8), max_size=9))
@example([6, 3, 0, 7, 4, 1, 8, 5, 2])
def test_interleaved_copies_sort_to_one_word(letters):
    # each copy's letters in order, the copies interleaved as drawn: only
    # letters of different copies are out of order, and those commute
    ctx = _fresh(tensor_context(sl2, 3))
    per_copy = {c: iter(sorted(g for g in letters if g // 3 == c)) for c in range(3)}
    interleaved = [next(per_copy[g // 3]) for g in letters]
    assert ctx.normal_form(word(interleaved)) == {word(sorted(interleaved)): 1}


@pytest.mark.parametrize("L", [2, 5, 8])
def test_commuting_letters_cache_at_most_L_words(L):
    # one letter in each of L tensor copies, reversed: adjacent swaps cached
    # every one of the L(L-1)/2 intermediate words, insertion caches none
    ctx = _fresh(tensor_context(sl2, L))
    letters = [3 * c + 1 for c in reversed(range(L))]
    assert ctx.normalize_terms({word(letters): 1}) == {word(reversed(letters)): F(1)}
    assert len(ctx._nf_cache) <= L


# sl2 in the basis (x, h, f) with x = e/2: [x, f] = h/2 and (x, f) = 1/2,
# the only structure constants with a denominator that any test reaches
sl2_half = algebra_from_dict({
    "name": "sl2-half", "size": 2, "labels": ["x", "h", "f"],
    "matrices": [[[0, 1, "1/2"]], [[0, 0, "1"], [1, 1, "-1"]], [[1, 0, "1"]]],
    "cartan": [1], "blocks": [[[0, 1], [2]]]})

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
tensor_terms = st.dictionaries(
    st.lists(st.integers(0, 5), max_size=4).map(word), coeffs, max_size=4)


def _is_fraction_form(p: NCPoly) -> bool:
    return all(type(c) is F and c != 0 for c in p.terms.values())


def _x_to_half_e(p: NCPoly, ctx) -> NCPoly:
    """The basis change x -> e/2 from sl2_half to sl2, letter by letter.  It
    keeps generator order, so normal words stay normal."""
    return NCPoly(ctx, {w: c * F(1, 2) ** sum(1 for g in w if ord(g) % 3 == 0)
                        for w, c in p.terms.items()}, normalized=True)


@settings(max_examples=40, deadline=None)
@given(tensor_terms, tensor_terms)
def test_non_integral_brackets_match_integral_sl2(tu, tv):
    half, whole = tensor_context(sl2_half, 2), tensor_context(sl2, 2)
    u, v = NCPoly(half, tu), NCPoly(half, tv)
    assert all(_is_fraction_form(p) for p in (u, v, u * v, u.commutator(v)))
    hu, hv = _x_to_half_e(u, whole), _x_to_half_e(v, whole)
    assert _x_to_half_e(u * v, whole) == hu * hv
    assert _x_to_half_e(u.commutator(v), whole) == hu.commutator(hv)


def test_non_integral_bracket_reached():
    half = tensor_context(sl2_half, 2)
    fx = NCPoly(half, {word((2, 0)): F(1)})
    assert fx.terms == {word((0, 2)): F(1), word((1,)): F(-1, 2)}


@settings(max_examples=60, deadline=None)
@given(tensor_terms, tensor_terms)
def test_commutator_is_difference_of_products(tu, tv):
    ctx = tensor_context(sl2, 2)
    u, v = NCPoly(ctx, tu), NCPoly(ctx, tv)
    comm = u.commutator(v)
    assert comm == u * v - v * u
    assert all(_is_fraction_form(p) for p in (u, v, u * v, comm))


class TestSymmetrize:
    def test_linear(self):
        ctx = current_context(sl2, 2)
        p = CommPoly.variable(E, 1).scale(F(3))
        assert symmetrize(ctx, p) == ctx.gen((1, E)).scale(F(3))

    def test_quadratic_split(self):
        ctx = current_context(sl2, 1)
        p = CommPoly.variable(E, 0) * CommPoly.variable(FF, 0)
        s = symmetrize(ctx, p)
        # (ef + fe)/2 = ef - h/2
        expected = ctx.gen((0, E)) * ctx.gen((0, FF)) - ctx.gen((0, H)).scale(F(1, 2))
        assert s == expected


class TestGaudinEvaluation:
    def test_single_point_at_zero(self):
        ctx = current_context(sl2, 3)
        tctx = tensor_context(sl2, 1)
        assert gaudin_evaluation(sl2, ctx.gen((2, E)), [F(0)]).is_zero()
        assert gaudin_evaluation(sl2, ctx.gen((0, E)), [F(0)]) == \
            tctx.gen((0, E))

    def test_repeated_points_rejected(self):
        with pytest.raises(ValidationError):
            gaudin_evaluation(sl2, CommPoly.variable(E, 0), [F(1), F(1)])

    def test_homomorphism(self):
        ctx = current_context(sl2, 3)
        zs = [F(2), F(5)]
        p = ctx.gen((0, E)) * ctx.gen((1, FF))
        lhs = gaudin_evaluation(sl2, p, zs)
        rhs = gaudin_evaluation(sl2, ctx.gen((0, E)), zs) * \
            gaudin_evaluation(sl2, ctx.gen((1, FF)), zs)
        assert lhs == rhs

    def test_symmetrization_keeps_brackets_past_each_letters_degree(self):
        # sym(e[1] f[1]) = e[1] f[1] - h[2]/2: the bracket [e[1], f[1]] has
        # t-degree 2, past that of either letter, and ev_z is defined on
        # U(g[t]), so ev(p) = ev(sym p) with sym taken where h[2] survives
        p = CommPoly.variable(E, 1) * CommPoly.variable(FF, 1)
        zs = [F(0), F(1)]
        got = gaudin_evaluation(sl2, p, zs)
        assert got == gaudin_evaluation(sl2, symmetrize(current_context(sl2, 3), p), zs)
        assert got.render() == "-1/2*h1(2) + 1*e12(2)*e21(2)"

    def test_omega_image_formula(self):
        # ev of Omega at (z1, z2): sum_a sym(x_a[0] x^a[1]) evaluated
        loop = LoopAlgebra(sl2)
        zs = [F(0), F(1)]
        tctx = tensor_context(sl2, 2)
        got = gaudin_evaluation(sl2, loop.Omega(), zs)
        ginv = sl2.gram_inv
        expected = tctx.zero()
        for a in range(sl2.dim):
            for b in range(sl2.dim):
                if ginv[b][a] == 0:
                    continue
                eva = tctx.gen((0, a)) + tctx.gen((1, a))
                evb = tctx.gen((0, b)).scale(zs[0]) + tctx.gen((1, b)).scale(zs[1])
                expected = expected + (eva * evb + evb * eva).scale(
                    F(1, 2) * ginv[b][a])
        assert got == expected

    def test_classical_quadratic_span(self):
        # commutative shadow: images of D^k omega span Casimirs + Hamiltonians
        from loopcert.linalg import Subspace
        zs = [F(0), F(1), F(4)]
        n, d = 3, sl2.dim
        loop = LoopAlgebra(sl2)

        def ev_cl(p):
            # the algebra map x_a[r] -> sum_i z_i^r x_a^(i)
            out = CommPoly()
            for m, c in p.terms.items():
                term = CommPoly.const(c)
                for a, r in map(var_of, m):
                    term = term * sum((CommPoly.variable(i * d + a, 0).scale(zs[i] ** r)
                                       for i in range(n)), CommPoly())
                out = out + term
            return out

        gens = []
        q = loop.omega()
        for k in range(6):
            if k:
                q = loop.derivation_D(q)
            gens.append(ev_cl(q))
        ginv = sl2.gram_inv

        def omega_pair(i, j):
            out = CommPoly()
            for a in range(d):
                for b in range(d):
                    if ginv[b][a]:
                        out = out + (CommPoly.variable(i * d + a, 0) *
                                     CommPoly.variable(j * d + b, 0)).scale(ginv[b][a])
            return out

        hams = []
        for i in range(n):
            h = CommPoly()
            for j in range(n):
                if j != i:
                    h = h + omega_pair(i, j).scale(F(1) / (zs[i] - zs[j]))
            hams.append(h)
        casimirs = [omega_pair(i, i) for i in range(n)]
        ambient = sorted({m for p in gens + hams + casimirs for m in p.terms})
        span_ev = Subspace.span_of(gens, ambient)
        span_ref = Subspace.span_of(casimirs + hams, ambient)
        assert span_ev == span_ref
        assert span_ev.dim == 5  # 3 Casimirs + 2 independent Hamiltonians


class TestTalalaev:
    def test_n1_abelian(self):
        tal = talalaev_generators(1, 3)
        ctx = current_context(preset("gl1"), 3)
        assert [(i, s) for (i, s, _) in tal] == [(1, 1), (1, 2), (1, 3)]
        for (_, s, p) in tal:
            assert p == ctx.gen((s - 1, 0)).scale(F(-1))

    @pytest.mark.parametrize("n,R", [(2, 2), (2, 3), (3, 2)])
    def test_pairwise_commutators_vanish(self, n, R):
        tal = talalaev_generators(n, R)
        for a in range(len(tal)):
            for b in range(a + 1, len(tal)):
                assert tal[a][2].commutator(tal[b][2]).is_zero()
