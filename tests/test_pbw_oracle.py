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
"""

import functools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from loopcert.envelop import current_context, tensor_context
from loopcert.liealg import preset
from loopcert.yangian import yangian

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


def rho(case, word):
    """The product of rho over the letters of a word."""
    _, images, n = representation(*case)
    M = identity(n)
    for letter in word:
        M = mat_mul(M, images[ord(letter)])
    return M


def assert_normal_form_matches(case, word):
    ctx = representation(*case)[0]
    got = {}
    for v, c in ctx.normal_form(word).items():
        for ij, x in rho(case, v).items():
            got[ij] = got.get(ij, 0) + c * x
    assert {ij: x for ij, x in got.items() if x} == rho(case, word), word


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
def evaluation_images(n, transpose=False):
    """{(r, i, j): rho(t_ij^(r))} for r <= W, 1-based i and j, read off the
    product L_1(u) ... L_N(u) as u^(-k) coefficients, k <= W; with
    ``transpose``, E_ji in place of E_ij."""
    m = n ** len(ZS)
    T = [[{0: identity(m)} if i == j else {} for j in range(n)] for i in range(n)]
    for a, z in enumerate(ZS):
        # 1/(u - z) = sum_{k >= 1} z^(k-1) u^(-k)
        E = [[in_slot({(j, i) if transpose else (i, j): F(1)}, a, len(ZS), n) for j in range(n)]
             for i in range(n)]
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
    m = n ** len(ZS)

    def rho_word(w):
        M = identity(m)
        for letter in w:
            M = mat_mul(M, images[ctx.gens[ord(letter)]])
        return M

    got = {}
    for v, c in ctx.normalize_terms({word: 1}).items():
        for ij, x in rho_word(v).items():
            got[ij] = got.get(ij, 0) + c * x
    return {ij: x for ij, x in got.items() if x} != rho_word(word)


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
