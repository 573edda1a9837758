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
"""

import functools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from loopcert.envelop import current_context, tensor_context
from loopcert.liealg import preset

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
    images = []
    for i, a in ctx.gens:
        M = {(0, 0): F(1)}
        for slot in range(size):
            M = kron(M, mats[a] if slot == i else identity(m), m)
        images.append(M)
    return ctx, images, m ** size


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
