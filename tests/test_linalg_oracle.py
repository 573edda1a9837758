"""Differential oracle: the one elimination of ``loopcert.linalg`` and the
kernels read off it, against sympy's independent rational linear algebra
on small random ``Fraction`` matrices."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from loopcert.linalg import bigraded_block, relations, rref, rref_tail  # noqa: E402

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


def sympy_rref(M):
    """Nonzero rows of sympy's reduced row echelon form."""
    R, pivots = M.rref()
    return from_sympy(R[:len(pivots), :])


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rref_matches_sympy(mat):
    rows, n = mat
    assert rref(rows) == sympy_rref(to_sympy(rows, n))


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_relations_match_sympy_nullspace(mat):
    vectors, n = mat
    got = relations(vectors)
    ref = [from_sympy(v.T)[0] for v in to_sympy(vectors, n).T.nullspace()]
    # same span, and in fact the same free-variable basis
    k = len(vectors)
    assert rref(got) == (sympy_rref(to_sympy(ref, k)) if ref else [])
    assert got == ref


@settings(max_examples=80, deadline=None)
@given(matrices(), st.integers(0, 6))
def test_rref_tail_matches_definition(mat, k):
    rows, n = mat
    k = min(k, n)
    M = to_sympy(rows, n)
    # span(rows) with x[:k] = 0: the combinations c with (c M)[:k] = 0
    combos = M[:, :k].T.nullspace() if rows else []
    inter = [(c.T * M)[:, k:] for c in combos]
    ref = sympy_rref(sympy.Matrix.vstack(*inter)) if inter else []
    assert rref_tail(rows, k) == ref


class Vec:
    """A vector as a ``.terms`` dict over basis labels."""

    def __init__(self, terms):
        self.terms = terms


@st.composite
def filtered_spans(draw):
    # bidegrees (d +- 1, j) with j < d, so that labels share bidegrees, every
    # level has members and deg1 > d labels sit beside them; denser rows
    d = draw(st.integers(1, 3))
    nlab = draw(st.integers(1, 8))
    bidegs = draw(st.lists(st.tuples(st.integers(d - 1, d + 1), st.integers(0, d - 1)),
                           min_size=nlab, max_size=nlab))
    dense = st.one_of(st.just(F(0)), st.fractions(min_value=-2, max_value=2, max_denominator=3))
    rows = draw(st.lists(st.lists(dense, min_size=nlab, max_size=nlab), max_size=4))
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
def test_bigraded_blocks_match_definition(case):
    bidegs, rows, d = case
    labels = list(range(len(bidegs)))
    vectors = [Vec({lab: x for lab, x in zip(labels, r) if x}) for r in rows]
    blocks = bigraded_block(vectors, labels, lambda lab: bidegs[lab], d)
    assert len(blocks) == d
    for j, blk in enumerate(blocks):
        eq, ref = reference_block(bidegs, rows, d, j)
        assert blk.ambient == tuple(eq)
        assert [list(r) for r in blk.rows] == ref
