"""Differential oracle: the one elimination of ``loopcert.linalg``
(``echelon``, on sparse rows, and its dense adapter ``rref``), the kernels
read off it and membership in its rows (``Subspace.residue``), against
sympy's independent rational linear algebra on small random ``Fraction``
matrices, on wide sparse ones, and on their rows as integers and rescaled;
and the h-adic limit engine ``limit_subspace`` against sympy's
minors of small random families over Q[h]."""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from loopcert.commpoly import ZhPoly  # noqa: E402
from loopcert.linalg import (Subspace, _clear, bigraded_block, echelon,  # noqa: E402
                             limit_subspace, relations, rref)

# sparse entries with small numerators and denominators
entry = st.one_of(st.just(F(0)), st.just(F(0)),
                  st.fractions(min_value=-2, max_value=2, max_denominator=3))


def matrices(max_rows: int = 5, max_cols: int = 6):
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), max_size=max_rows)
        .map(lambda rows, n=n: (rows, n)))


def to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r])


def from_sympy(M):
    return [[F(int(M[i, j].p), int(M[i, j].q)) for j in range(M.cols)]
            for i in range(M.rows)]


def dense(rows, ncols):
    """Sparse rows {column: entry} as dense lists of ``ncols`` entries."""
    return [[r.get(j, F(0)) for j in range(ncols)] for r in rows]


def sympy_rref(M):
    """Nonzero rows of sympy's reduced row echelon form."""
    R, pivots = M.rref()
    return from_sympy(R[:len(pivots), :])


nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def wide_sparse(draw):
    """Up to 8 rows by 5..40 columns with at most a fifth of the columns
    nonzero (so at least 80% zeros and whole zero columns), then rows that
    repeat a row or combine two."""
    n = draw(st.integers(5, 40))
    live = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n // 5, unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = [F(0)] * n
        for j, x in draw(st.dictionaries(st.sampled_from(live), nonzero, min_size=1)).items():
            row[j] = x
        rows.append(row)
    for _ in range(draw(st.integers(0, 8 - len(rows)))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(nonzero), draw(st.sampled_from([F(0), F(1), F(-2)]))
        rows.append([s * x + t * y for x, y in zip(a, b)])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], n


any_matrix = st.one_of(matrices(), wide_sparse())


@settings(max_examples=120, deadline=None)
@given(any_matrix)
def test_rref_matches_sympy(mat):
    rows, n = mat
    assert rref(rows) == sympy_rref(to_sympy(rows, n))


def sparse(rows):
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


@settings(max_examples=120, deadline=None)
@given(any_matrix)
def test_echelon_matches_sympy(mat):
    rows, n = mat
    R, pivots = to_sympy(rows, n).rref()
    found = echelon(sparse(rows))
    assert [col for col, _ in found] == list(pivots)
    # the rows are sparse: exactly the nonzero entries of sympy's RREF
    assert [r for _, r in found] == sparse(from_sympy(R[:len(pivots), :]))
    assert all(type(x) is F for _, r in found for x in r.values())


def integral(rows):
    """Each row times the lcm of its denominators, as ``int``s."""
    out = []
    for r in rows:
        lcm = math.lcm(*(x.denominator for x in r))
        out.append([int(x * lcm) for x in r])
    return out


@settings(max_examples=120, deadline=None)
@given(any_matrix, st.data())
def test_integer_rows_match_fraction_rows_and_sympy(mat, data):
    """Integer rows, the same rows as Fractions, and the rows each scaled
    by a nonzero rational give one RREF: sympy's, every entry a Fraction."""
    rows, n = mat
    ints = integral(rows)
    fracs = [[F(x) for x in r] for r in ints]
    scaled = [[s * x for x in r] for r, s in
              zip(fracs, data.draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows))))]
    R, pivots = to_sympy(fracs, n).rref()
    expected = list(zip(pivots, sparse(from_sympy(R[:len(pivots), :]))))
    for variant in (ints, fracs, scaled):
        found = echelon(sparse(variant))
        assert found == expected
        assert all(type(x) is F for _, r in found for x in r.values())


@pytest.mark.parametrize("rows", [
    # the pivot 2 does not divide 3: the row is scaled, then divided by its
    # content 6
    [[3, 3, 3], [2, 0, 4]],
    # a pivot of -1
    [[-1, 2, 0, 1], [5, 0, 3, 7], [0, 4, 1, 0]],
    # the second row is twice the first: it cancels to zero midway
    [[1, 2, 3, 0], [2, 4, 6, 0], [0, 0, 5, 1]],
    # back-substitution into an earlier row with the non-unit entry 2
    # against the pivot 3
    [[1, 2, 0], [0, 3, 1]],
])
def test_integer_echelon_cases_match_sympy(rows):
    n = len(rows[0])
    R, pivots = to_sympy([[F(x) for x in r] for r in rows], n).rref()
    found = echelon(sparse(rows))
    assert found == list(zip(pivots, sparse(from_sympy(R[:len(pivots), :]))))
    assert all(type(x) is F for _, r in found for x in r.values())


def test_clear_integer_updates():
    """r <- a r - b p with (a, b) = (p[c], r[c]) over their gcd, a > 0."""
    # 2 does not divide 3: a = 2, b = 3, then the content 6 is divided out
    r = {0: 3, 1: 3, 2: 3}
    _clear(r, 0, {0: 2, 2: 4})
    assert r == {1: 1, 2: -1}
    # a pivot of -1 divides everything: a = 1, b = -5, and the entry at
    # column 3, which the pivot row lacks, is untouched
    r = {0: 5, 2: 1, 3: 7}
    _clear(r, 0, {0: -1, 1: 2, 2: 1})
    assert r == {1: 10, 2: 6, 3: 7}
    # a = -2 is made positive: a = 2, b = -1, then the content 2 is divided out
    r = {0: 1, 1: 1, 2: 1}
    _clear(r, 0, {0: -2, 1: 4})
    assert r == {1: 3, 2: 1}
    # entries that cancel are dropped
    r = {0: 2, 1: 4}
    _clear(r, 0, {0: 1, 1: 2})
    assert r == {}


class Vec:
    """A vector as a ``.terms`` dict over basis labels."""

    def __init__(self, terms):
        self.terms = terms


@settings(max_examples=120, deadline=None)
@given(any_matrix, st.data())
def test_membership_matches_sympy_rank(mat, data):
    """Membership by one reduction pass against sympy's ranks: every input
    row has an empty residue; a combination of the rows, perturbed at one
    entry or not, is in the span iff appending it keeps the rank; and one
    span lies inside another iff ``witness_missing_from`` finds no row."""
    rows, n = mat
    labels = list(range(n))
    span = Subspace(labels, echelon(sparse(rows)))
    assert all(not span.residue(r) for r in sparse(rows))
    rank = to_sympy(rows, n).rank()
    vectors = []
    for _ in range(data.draw(st.integers(1, 4))):
        cs = data.draw(st.lists(st.one_of(st.just(F(0)), nonzero),
                                min_size=len(rows), max_size=len(rows)))
        v = [sum((c * r[j] for c, r in zip(cs, rows)), F(0)) for j in range(n)]
        if data.draw(st.booleans()):
            v[data.draw(st.integers(0, n - 1))] += data.draw(nonzero)
        inside = to_sympy(rows + [v], n).rank() == rank
        assert span.contains_poly(Vec({j: x for j, x in enumerate(v) if x})) == inside
        vectors.append(v)
    other = Subspace(labels, echelon(sparse(vectors)))
    for a, b, a_rows, b_rows in ((other, span, vectors, rows), (span, other, rows, vectors)):
        inside = to_sympy(a_rows + b_rows, n).rank() == to_sympy(b_rows, n).rank()
        witness = a.witness_missing_from(b)
        assert (witness is None) == inside
        if witness is not None:
            assert witness in [r for _, r in a.rows] and b.residue(witness)


@settings(max_examples=120, deadline=None)
@given(any_matrix, st.data())
def test_relations_match_sympy_nullspace(mat, data):
    vectors, n = mat
    # sparse images with tuple keys, an explicit zero at every even zero
    # column, and an empty image at a drawn position
    images = [{(j % 3, j): x for j, x in enumerate(v) if x or j % 2 == 0} for v in vectors]
    at = data.draw(st.integers(0, len(images)))
    images.insert(at, {})
    vectors = vectors[:at] + [[F(0)] * n] + vectors[at:]
    k = len(vectors)
    got = dense(relations(images), k)
    ref = [from_sympy(v.T)[0] for v in to_sympy(vectors, n).T.nullspace()]
    # same span, and in fact the same free-variable basis
    assert rref(got) == (sympy_rref(to_sympy(ref, k)) if ref else [])
    assert got == ref


@st.composite
def filtered_spans(draw):
    # bidegrees (d +- 1, j) with j < d, so that labels share bidegrees, every
    # level has members and deg1 > d labels sit beside them; small denser
    # rows or wide sparse ones
    d = draw(st.integers(1, 3))
    dense = st.one_of(st.just(F(0)), st.fractions(min_value=-2, max_value=2, max_denominator=3))
    small = st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(dense, min_size=n, max_size=n), max_size=4)
        .map(lambda rows, n=n: (rows, n)))
    rows, nlab = draw(st.one_of(small, wide_sparse()))
    bidegs = draw(st.lists(st.tuples(st.integers(d - 1, d + 1), st.integers(0, d - 1)),
                           min_size=nlab, max_size=nlab))
    return bidegs, rows, d


def reference_block(bidegs, rows, d, j):
    """(d, j) block from the definition: the kernel on the columns outside the
    level-(d, j) space, then the projection onto the (d, j) labels, then rref."""
    n = len(bidegs)
    eq = [k for k in range(n) if bidegs[k] == (d, j)]
    hi = [k for k in range(n) if not (bidegs[k][0] <= d and bidegs[k][1] <= j)]
    if not rows or not eq:
        return eq, []
    M = to_sympy(rows, n)
    combos = M.extract(list(range(M.rows)), hi).T.nullspace() if hi else \
        [sympy.eye(M.rows)[:, i] for i in range(M.rows)]
    proj = [(c.T * M).extract([0], eq) for c in combos]
    return eq, (sympy_rref(sympy.Matrix.vstack(*proj)) if proj else [])


@settings(max_examples=200, deadline=None)
@given(filtered_spans())
# x[(2, 1)] + x[(3, 0)] is outside the level-(2, 1) space: deg1 3 > 2
@example(([(2, 1), (3, 0)], [[F(1), F(1)]], 2))
# the block-(2, 1) pivot rows run on into the later block (2, 0), and into
# a (1, 0) label past it
@example(([(2, 0), (2, 1), (1, 0), (2, 1)],
          [[F(1), F(1), F(2), F(0)], [F(3), F(0), F(1), F(1)]], 2))
def test_bigraded_blocks_match_definition(case):
    bidegs, rows, d = case
    labels = list(range(len(bidegs)))
    vectors = [Vec({lab: x for lab, x in zip(labels, r) if x}) for r in rows]
    blocks = bigraded_block(vectors, labels, bidegs, d)
    assert len(blocks) == d
    for j, blk in enumerate(blocks):
        eq, ref = reference_block(bidegs, rows, d, j)
        assert blk.ambient == tuple(eq)
        assert dense([r for _, r in blk.rows], len(eq)) == ref


# -- eps -> 0 limits against Pluecker coordinates ---------------------------------

h = sympy.Symbol("h")
small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
polys = st.lists(small, min_size=1, max_size=3).map(
    lambda cs: sum((sympy.Rational(c.numerator, c.denominator) * h ** i
                    for i, c in enumerate(cs)), sympy.Integer(0)))


@st.composite
def h_families(draw):
    """Up to 5 rows of 2..5 entries in Q[h]: random rows of degree <= 2,
    then rows that are Q[h]-combinations of two earlier ones (exactly
    dependent) or that agree with an earlier one to order h^6 or more."""
    n = draw(st.integers(2, 5))
    rows = [draw(st.lists(polys, min_size=n, max_size=n)) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 5 - len(rows)))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        if draw(st.booleans()):
            p, q = draw(polys), draw(polys)
            rows.append([sympy.expand(p * x + q * y) for x, y in zip(a, b)])
        else:
            e = draw(st.integers(6, 12))
            c = draw(st.lists(polys, min_size=n, max_size=n))
            rows.append([sympy.expand(x + h ** e * y) for x, y in zip(a, c)])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], n


def lowest_order_pluecker(rows, n):
    """(k, P): the rank of the rows over Q(h), and the lowest-order
    h-coefficients of the k x k minors of k rows of rank k, one per k-set of
    columns in lexicographic order."""
    from sympy.polys.matrices import DomainMatrix
    M = DomainMatrix.from_Matrix(sympy.Matrix(rows)).convert_to(sympy.QQ[h])
    for k in range(min(len(rows), n), 0, -1):
        for rset in itertools.combinations(range(len(rows)), k):
            minors = [M.extract(list(rset), list(cset)).det()
                      for cset in itertools.combinations(range(n), k)]
            if any(minors):
                v = min(e for p in minors for (e,), _ in p.terms())
                return k, [dict(p.terms()).get((v,), 0) for p in minors]
    return 0, []


def integral_row(r):
    """A row of sympy polynomials in h, times the lcm of its coefficient
    denominators, as the integer coefficient lists of ``limit_subspace``'s
    rows (``ZhPoly``): {column: ascending coefficients}, zero entries left out."""
    cs = {j: [sympy.Rational(c) for c in sympy.Poly(x, h).all_coeffs()[::-1]]
          for j, x in enumerate(r) if x != 0}
    L = math.lcm(*(int(c.q) for e in cs.values() for c in e))
    return ZhPoly({j: [int(c * L) for c in e] for j, e in cs.items()})


@settings(max_examples=60, deadline=None)
@given(h_families())
def test_limit_subspace_matches_pluecker_coordinates(case):
    """The Pluecker coordinates of the limit are proportional to the
    lowest-order h-coefficients of the family's k x k minors."""
    rows, n = case
    labels = list(range(n))
    lim, _ = limit_subspace(labels, [integral_row(r) for r in rows])
    k, ref = lowest_order_pluecker(rows, n)
    assert lim.dim == k
    if k == 0:
        return
    L = to_sympy(dense([r for _, r in lim.rows], n), n)
    got = [L.extract(list(range(k)), list(cset)).det()
           for cset in itertools.combinations(range(n), k)]
    j0 = next(j for j, x in enumerate(got) if x != 0)
    scale = ref[j0] / got[j0]
    assert scale != 0
    assert all(r == scale * g for r, g in zip(ref, got))
