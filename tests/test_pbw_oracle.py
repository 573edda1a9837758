"""An independent oracle for PBW normal ordering: exact matrix
representations of U(g ox A).

The preset's own matrices E_a realize g.  ``current_context(g, R)`` maps
x_a[r] to E_a ox N^r on C^m ox C^R, N the nilpotent shift (N^R = 0): a Lie
algebra map, since [E_a ox N^r, E_b ox N^s] = [E_a, E_b] ox N^(r+s), which
vanishes exactly where the truncation kills the bracket.
``tensor_context(g, n)`` maps x_a^(i) to I ox ... ox E_a ox ... ox I, E_a in
slot i of n.  Each extends to an algebra map rho, so rho of the normal form
of a raw word is the product of rho over its letters.  These
representations are not faithful, so a pass does not prove a normal form,
but a mismatch is a witness.

``yangian(n, W)`` is checked the same way, in both letter orders, through
the tensor product of evaluation modules at points z_1..z_N:
rho(t_ij(u)) = [L_1(u) ... L_N(u)]_ij with L_a(u)_ij = delta_ij +
E_ij^(a) / (u - z_a), E_ij^(a) the matrix unit in slot a of (C^n)^{ox N},
and rho(t_ij^(r)) the u^(-r) coefficient.  With E_ji in place of E_ij the
map is no algebra map, and the words disagree: a control that the oracle
can fail.

Two builders are checked against the same representations.  rho of
``bethe_generators``' tau_k^(s) must equal sum_S c_S [u^-s] of the column
determinant sum_sigma sgn sigma prod_c rho(T)_{S_sigma(c) S_c}(u - c), where
rho(T(u - c)) is read off the points shifted by c; with u + c in the
quantum minors it must not.  rho of ``symmetrize(ctx, p)`` in
U(g[t]/t^R) must equal sum_m c_m (1/k!) sum_sigma of the products of rho
over the k letters of m in sigma order; the identity permutation alone
must not.
"""

import functools
import importlib
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from loopcert.commpoly import var_of
from loopcert.envelop import current_context, symmetrize, tensor_context
from loopcert.families import gaudin_generators
from loopcert.liealg import preset
from loopcert.scalars import leibniz_det
from loopcert.yangian import bethe_generators, yangian

# the module, which the package's ``yangian`` function shadows as an attribute
ymod = importlib.import_module("loopcert.yangian")

# (preset, context, size): U(g[t]/t^R) at R = size, or U(g)^{ox n} at n = size
CASES = [(alg, kind, size) for alg in ("sl2", "gl2", "sl3")
         for kind, size in (("current", 2), ("current", 3), ("tensor", 2), ("tensor", 3))]
IDS = ["-".join(map(str, case)) for case in CASES]


def mat_mul(A, B):
    """The product of sparse matrices {(row, col): entry}."""
    rows = {}
    for (j, k), y in B.items():
        rows.setdefault(j, []).append((k, y))
    out = {}
    for (i, j), x in A.items():
        for k, y in rows.get(j, ()):
            out[i, k] = out.get((i, k), 0) + x * y
    return {ij: x for ij, x in out.items() if x}


def kron(A, B, size_b):
    """A ox B, for B of size size_b."""
    return {(i * size_b + k, j * size_b + l): x * y
            for (i, j), x in A.items() for (k, l), y in B.items()}


def identity(n):
    return {(i, i): F(1) for i in range(n)}


def in_slot(M, i, n, m):
    """I ox ... ox M ox ... ox I, M of size m in slot i of n."""
    out = {(0, 0): F(1)}
    for slot in range(n):
        out = kron(out, M if slot == i else identity(m), m)
    return out


@functools.cache
def representation(alg_name, kind, size):
    """(context, rho of each generator in the context's order, matrix size)."""
    alg = preset(alg_name)
    mats, m = alg.matrices, alg.size
    if kind == "current":
        ctx = current_context(alg, size)
        shift = [{(k + r, k): F(1) for k in range(size - r)} for r in range(size)]  # N^r
        return ctx, [kron(mats[a], shift[r], size) for r, a in ctx.gens], m * size
    ctx = tensor_context(alg, size)
    return ctx, [in_slot(mats[a], i, size, m) for i, a in ctx.gens], m ** size


def rho_terms(terms, image, m):
    """sum_w c_w times the product of ``image`` over the letters of w, for
    {word: c} and matrices of size m."""
    out = {}
    for w, c in terms.items():
        M = identity(m)
        for letter in w:
            M = mat_mul(M, image(letter))
        for ij, x in M.items():
            out[ij] = out.get(ij, 0) + c * x
    return {ij: x for ij, x in out.items() if x}


def assert_normal_form_matches(case, word):
    ctx, images, m = representation(*case)
    image = lambda letter: images[ord(letter)]  # noqa: E731
    assert rho_terms(ctx.normal_form(word), image, m) == rho_terms({word: 1}, image, m), word


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_every_letter_pair(case):
    # every bracket the rewriting reads, [h, x] for a letter h above x, and
    # every pair in order, which must stay as it is
    gens = range(len(representation(*case)[0].gens))
    for h in gens:
        for x in gens:
            assert_normal_form_matches(case, chr(h) + chr(x))


@pytest.mark.parametrize("case", CASES, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_words(case, data):
    letters = st.integers(0, len(representation(*case)[0].gens) - 1)
    word = data.draw(st.lists(letters, min_size=3, max_size=6))
    assert_normal_form_matches(case, "".join(map(chr, word)))


# (n, letter order): Y(gl_n) at weight bound W, evaluated at the points ZS
W = 6
ZS = (F(1), F(3))
YCASES = [(n, order) for n in (2, 3) for order in ("r-major", "matrix-major")]
YIDS = [f"gl{n}-{order}" for n, order in YCASES]


def yangian_context(n, order):
    return yangian(n, W, matrix_major=order == "matrix-major")


@functools.cache
def evaluation_images(n, transpose=False, points=ZS):
    """{(r, i, j): rho(t_ij^(r))} for r <= W, 1-based i and j, read off the
    product L_1(u) ... L_N(u) at the z_a of ``points`` as u^(-k)
    coefficients, k <= W; with ``transpose``, E_ji in place of E_ij."""
    m = n ** len(points)
    T = [[{0: identity(m)} if i == j else {} for j in range(n)] for i in range(n)]
    for a, z in enumerate(points):
        # 1/(u - z) = sum_{k >= 1} z^(k-1) u^(-k)
        E = [[in_slot({(j, i) if transpose else (i, j): F(1)}, a, len(points), n)
              for j in range(n)] for i in range(n)]
        new = [[{k: dict(M) for k, M in T[i][j].items()} for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    for k, M in T[i][l].items():
                        P = mat_mul(M, E[l][j])
                        for kk in range(1, W - k + 1):
                            acc = new[i][j].setdefault(k + kk, {})
                            for ij, x in P.items():
                                acc[ij] = acc.get(ij, 0) + x * z ** (kk - 1)
        T = new
    return {(r, i + 1, j + 1): {ij: x for ij, x in T[i][j].get(r, {}).items() if x}
            for r in range(1, W + 1) for i in range(n) for j in range(n)}


def yangian_mismatch(n, order, word, transpose=False):
    """Whether rho of the normal form of ``word`` differs from the product
    of rho over its letters."""
    ctx = yangian_context(n, order)
    images = evaluation_images(n, transpose)
    image = lambda letter: images[ctx.gens[ord(letter)]]  # noqa: E731
    m = n ** len(ZS)
    return rho_terms(ctx.normalize_terms({word: 1}), image, m) != rho_terms({word: 1}, image, m)


def letter_pairs(n, order):
    ctx = yangian_context(n, order)
    return [chr(g) + chr(h) for g in range(len(ctx.gens)) for h in range(len(ctx.gens))
            if ctx.word_weight(chr(g) + chr(h)) <= W]


@pytest.mark.parametrize("n,order", YCASES, ids=YIDS)
def test_yangian_every_letter_pair(n, order):
    assert [w for w in letter_pairs(n, order) if yangian_mismatch(n, order, w)] == []


@pytest.mark.parametrize("n,order", YCASES, ids=YIDS)
def test_yangian_oracle_fails_on_transposed_units(n, order):
    assert any(yangian_mismatch(n, order, w, transpose=True) for w in letter_pairs(n, order))


@pytest.mark.parametrize("n,order", YCASES, ids=YIDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_yangian_random_words(n, order, data):
    # letters of weight r <= W - 2 in words of 3 to 5 letters, total weight <= W
    ctx = yangian_context(n, order)
    word = "".join(data.draw(st.lists(
        st.sampled_from([chr(g) for g, (r, _, _) in enumerate(ctx.gens) if r <= W - 2]),
        min_size=3, max_size=5).filter(lambda w: ctx.word_weight("".join(w)) <= W)))
    assert not yangian_mismatch(n, order, word)


# tau_k^(s) for s <= S at C = diag(C), in both letter orders
S = 3
TAU_CASES = [(n, C, order) for n, C in ((2, (1, 2)), (3, (1, 2, 3)), (3, (1, 1, 2)))
             for order in ("r-major", "matrix-major")]
TAU_IDS = [f"gl{n}-C{''.join(map(str, C))}-{order}" for n, C, order in TAU_CASES]


def series_mul(A, B):
    """The product of u^(-1)-series {power: matrix}, through u^(-S)."""
    out = {}
    for r, M in A.items():
        for q, N in B.items():
            if r + q <= S:
                acc = out.setdefault(r + q, {})
                for ij, x in mat_mul(M, N).items():
                    acc[ij] = acc.get(ij, 0) + x
    return out


@functools.cache
def quantum_minor_taus(n, C):
    """{(k, s): sum_S c_S [u^-s] sum_sigma sgn sigma prod_c rho(T)_{S_sigma(c) S_c}(u - c)}
    over the k-subsets S of 1..n, c_S the product of the C_i over S, each
    factor rho(T(u - c)) the product of the L_a at the points z_a + c."""
    m = n ** len(ZS)
    shifted = [evaluation_images(n, points=tuple(z + c for z in ZS)) for c in range(n)]

    def entry(i, j, c):
        series = {r: shifted[c][r, i, j] for r in range(1, S + 1)}
        return {0: identity(m), **series} if i == j else series

    taus = {}
    for k in range(1, n + 1):
        total = {}
        for sub in itertools.combinations(range(1, n + 1), k):
            weight = math.prod(C[i - 1] for i in sub)
            for perm in itertools.permutations(range(k)):
                sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
                term = {0: identity(m)}
                for c in range(k):
                    term = series_mul(term, entry(sub[perm[c]], sub[c], c))
                for s, M in term.items():
                    acc = total.setdefault(s, {})
                    for ij, x in M.items():
                        acc[ij] = acc.get(ij, 0) + sign * weight * x
        for s in range(1, S + 1):
            taus[k, s] = {ij: x for ij, x in total.get(s, {}).items() if x}
    return taus


def rho_taus(n, C, order):
    """{(k, s): rho(tau_k^(s))} of ``bethe_generators``."""
    ctx = yangian_context(n, order)
    images = evaluation_images(n)
    image = lambda letter: images[ctx.gens[ord(letter)]]  # noqa: E731
    return {key: rho_terms(p.terms, image, n ** len(ZS))
            for key, p in bethe_generators(ctx, list(C), S).items()}


def wrong_shift(ctx, rows, cols, Nmax):
    """Quantum minors with column c at u + c instead of u - c, the fault
    that ``tests/test_certify.py`` injects into ``verify-bethe``."""
    rows, cols = list(rows), list(cols)
    return leibniz_det(len(rows), lambda a, c: ymod.t_series(
        ctx, rows[a], cols[c], Nmax, shift=-c))


@pytest.mark.parametrize("n,C,order", TAU_CASES, ids=TAU_IDS)
def test_bethe_taus_are_quantum_minor_sums(n, C, order):
    assert rho_taus(n, C, order) == quantum_minor_taus(n, C)


@pytest.mark.parametrize("n,C,order", TAU_CASES, ids=TAU_IDS)
def test_bethe_oracle_fails_on_wrong_shift(monkeypatch, n, C, order):
    monkeypatch.setattr(ymod, "quantum_minor", wrong_shift)
    got, expected = rho_taus(n, C, order), quantum_minor_taus(n, C)
    assert [key for key in expected if got[key] != expected[key]]


# symmetrize in U(g[t]/t^R) on the Gaudin generators D^k Phi_i, k <= KMAX,
# whose t-degrees k stay below R
KMAX, R = 2, 3
SYM_ALGEBRAS = ["sl2", "sl3"]


def symmetrized_images(alg_name, p, permute=True):
    """sum_m c_m (1/k!) sum_sigma prod rho(letters of m in sigma order), or
    with ``permute`` off the identity permutation alone: c_m prod rho."""
    ctx, images, m = representation(alg_name, "current", R)
    image = lambda key: images[ctx.index[key]]  # noqa: E731
    terms = {}
    for mono, c in p.terms.items():
        keys = [(r, a) for a, r in map(var_of, mono)]
        orders = list(itertools.permutations(keys)) if permute else [keys]
        for order in orders:
            terms[tuple(order)] = terms.get(tuple(order), 0) + F(c) / len(orders)
    return rho_terms(terms, image, m)


def rho_symmetrize(alg_name, p):
    ctx, images, m = representation(alg_name, "current", R)
    return rho_terms(symmetrize(ctx, p).terms, lambda letter: images[ord(letter)], m)


@pytest.mark.parametrize("alg_name", SYM_ALGEBRAS)
def test_symmetrize_is_the_symmetrized_product(alg_name):
    for g in gaudin_generators(preset(alg_name), KMAX):
        assert rho_symmetrize(alg_name, g.poly) == symmetrized_images(alg_name, g.poly), g.label


@pytest.mark.parametrize("alg_name", SYM_ALGEBRAS)
def test_symmetrize_oracle_fails_on_one_order(alg_name):
    assert any(rho_symmetrize(alg_name, g.poly) != symmetrized_images(alg_name, g.poly, False)
               for g in gaudin_generators(preset(alg_name), KMAX))
