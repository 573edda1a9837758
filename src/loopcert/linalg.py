"""Exact linear algebra over Q and over Q(eps): canonical subspaces,
associated-bigraded blocks of doubly filtered spans, products of
generators, and Grassmannian limits of parametrized subspace families as
eps -> 0.

A ``Subspace`` is a reduced row echelon basis over an explicit ambient
monomial list, so equality of subspaces is equality of matrices.  The field
is pluggable: the same elimination code runs over ``Fraction`` and over
``RatFunc`` (rational functions of the formal parameter).  ``rref`` is the
one elimination, over sparse rows, so its cost follows the nonzeros rather
than the width; ``rref_tail`` (intersection with a coordinate subspace)
and ``relations`` (linear relations among vectors) are read off it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (Any, Callable, Dict, Hashable, Iterator, List, Sequence, Tuple,
                    TypeVar)

from .commpoly import CommPoly, Monomial
from .errors import BoundsError, TruncationError
from .scalars import RatFunc, SymPoly, sc_is_zero

T = TypeVar("T")


def rref(rows: List[List]) -> List[List]:
    """Reduced row echelon form over any exact field; drops zero rows.

    Dense rows in and out, sparse rows ({column: entry}) in between, so the
    cost follows the nonzeros rather than the width.  The pivot is the
    smallest leading column, taken from its shortest row; its column is
    cleared from the other rows leading there, then from the pivot rows
    above by back-substitution.  The RREF is unique, so the choice of pivot
    row does not change the result.  Zero tests are truthiness, defined
    alike on ``Fraction`` and ``RatFunc``; the gaps are filled with the
    field's own zero, the row's pivot entry minus itself.
    """
    ncols = len(rows[0]) if rows else 0
    by_lead: Dict[int, List[Dict[int, Any]]] = {}
    for r in rows:
        s = {j: x for j, x in enumerate(r) if x}
        if s:
            by_lead.setdefault(min(s), []).append(s)
    found: List[Tuple[int, Dict[int, Any]]] = []
    while by_lead:
        col = min(by_lead)
        bucket = by_lead.pop(col)
        row = bucket.pop(min(range(len(bucket)), key=lambda i: len(bucket[i])))
        inv = row[col]
        row = {j: x / inv for j, x in row.items()}
        for r in bucket:
            _clear(r, col, row)
            if r:
                by_lead.setdefault(min(r), []).append(r)
        found.append((col, row))
    for i in range(len(found) - 1, 0, -1):
        col, row = found[i]
        for _, r in found[:i]:
            if col in r:
                _clear(r, col, row)
    out = []
    for col, row in found:
        dense = [row[col] - row[col]] * ncols
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    return out


def _clear(r: Dict[int, Any], col: int, pivot_row: Dict[int, Any]) -> None:
    """r -= r[col] * pivot_row in place, for a pivot row whose entry at col
    is one; entries that cancel are dropped."""
    f = r.pop(col)
    for j, x in pivot_row.items():
        if j != col:
            y = r.get(j)
            y = -(f * x) if y is None else y - f * x
            if y:
                r[j] = y
            else:
                del r[j]


def rref_tail(rows: List[List], k: int) -> List[List]:
    """Canonical basis of the vectors of span(rows) with x[:k] = 0, cut to
    columns k on: the rows of rref(rows) whose pivot is at column >= k."""
    return [r[k:] for r in rref(rows)
            if all(sc_is_zero(x) for x in r[:k])]


def relations(vectors: Sequence[Sequence]) -> List[List]:
    """Basis of {c : sum_i c_i vectors[i] = 0}, one vector per free column
    of the rref of the matrix whose columns are ``vectors``."""
    n = len(vectors)
    R = rref([list(col) for col in zip(*vectors)])
    pivots = [next(j for j in range(n) if not sc_is_zero(r[j])) for r in R]
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in zip(R, pivots):
            v[c] = -r[f]
        basis.append(v)
    return basis


class Subspace:
    """Subspace of a finite component, canonical RREF basis over Q."""

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: Sequence[Hashable], rows: List[List[Fraction]],
                 already_reduced: bool = False) -> None:
        self.ambient = tuple(ambient)
        if not already_reduced:
            rows = rref([[x if isinstance(x, Fraction) else Fraction(x) for x in r]
                         for r in rows])
        self.rows = tuple(tuple(r) for r in rows)

    @classmethod
    def span_of(cls, elements: Sequence[CommPoly], ambient: Sequence[Monomial]) -> "Subspace":
        """Span of polynomials inside an explicit monomial component."""
        index = {m: i for i, m in enumerate(ambient)}
        rows = []
        for p in elements:
            v = [Fraction(0)] * len(ambient)
            for m, c in p.terms.items():
                if m not in index:
                    raise BoundsError(f"element has monomial outside the component: {m}")
                v[index[m]] = Fraction(c)
            rows.append(v)
        return cls(ambient, rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        v = [Fraction(x) for x in v]
        for row in self.rows:
            c = next(j for j in range(len(row)) if row[j] != 0)
            if v[c] != 0:
                f = v[c]
                v = [x - f * y for x, y in zip(v, row)]
        return all(x == 0 for x in v)

    def contains_poly(self, p: CommPoly) -> bool:
        index = {m: i for i, m in enumerate(self.ambient)}
        v = [Fraction(0)] * len(self.ambient)
        for m, c in p.terms.items():
            if m not in index:
                return False
            v[index[m]] = Fraction(c)
        return self.contains_vector(v)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def witness_missing_from(self, other: "Subspace") -> List[Fraction] | None:
        """A basis vector of self not contained in other, if any."""
        for r in self.rows:
            if not other.contains_vector(r):
                return list(r)
        return None


# -- generated subalgebra components --------------------------------------------


def generator_products(gens: Sequence[Tuple[T, int]], dmax: int, one: T
                       ) -> Iterator[Tuple[T, int]]:
    """Every nonzero product of generators, with multiplicity, of total
    degree <= dmax, as (product, degree); the empty product (one, 0) first.

    Products grow by right multiplication along nondecreasing generator
    indices, depth first with the later generators first; a zero product
    ends its branch (every extension of it is zero).  Degrees must be
    positive.
    """
    if any(dg <= 0 for _, dg in gens):
        raise BoundsError("generator degrees must be positive")

    def rec(start: int, acc: T, deg: int) -> Iterator[Tuple[T, int]]:
        for i in range(len(gens) - 1, start - 1, -1):
            e, dg = gens[i]
            if deg + dg <= dmax:
                p = acc * e
                if p:
                    yield p, deg + dg
                    yield from rec(i, p, deg + dg)

    yield one, 0
    yield from rec(0, one, 0)


def degree_buckets(gens: Sequence[Tuple[CommPoly, int]], dmax: int
                   ) -> List[List[CommPoly]]:
    """The nonzero products of commuting generators, listed by degree 0..dmax."""
    out: List[List[CommPoly]] = [[] for _ in range(dmax + 1)]
    for p, d in generator_products(gens, dmax, CommPoly.const(1)):
        out[d].append(p)
    return out


def free_series_coeffs(degree_multiset: Sequence[int], cutoff: int) -> List[int]:
    """Coefficients of prod_d (1 - q^d)^(-1) over the generator degree multiset."""
    coeffs = [1] + [0] * cutoff
    for d in degree_multiset:
        if d <= 0:
            raise BoundsError("generator degrees must be positive")
        for i in range(d, cutoff + 1):
            coeffs[i] += coeffs[i - d]
    return coeffs


# -- filtered splitting ------------------------------------------------------------


def bigraded_block(vectors, ambient: Sequence[Hashable],
                   bideg_fn: Callable[[Hashable], Tuple[int, int]],
                   d: int) -> List[Subspace]:
    """Associated-bigraded components (d, j), j = 0..d-1, of a doubly
    filtered span, from one elimination.

    For the two filtrations whose level-(i, j) space is spanned by basis
    labels with bidegree <= (i, j) componentwise, the (d, j) component of
    span(vectors) is the projection onto the bidegree-(d, j) block of the
    intersection with the level space.  The columns are ordered deg1 > d
    first, then deg2 descending, then deg1 descending (stable in ambient
    order), so each level space is the set of vectors vanishing on a column
    prefix, and the (d, j) labels lead its columns: the rows of the rref whose
    pivot is at a (d, j) label, cut to those labels, are that block's
    canonical basis.  ``vectors`` may be CommPoly or NCPoly (anything with a
    ``.terms`` dict over ambient labels).
    """
    bidegs = [bideg_fn(m) for m in ambient]
    order = sorted(range(len(ambient)),
                   key=lambda k: (bidegs[k][0] <= d, -bidegs[k][1], -bidegs[k][0]))
    index = {ambient[k]: c for c, k in enumerate(order)}
    rows = []
    for p in vectors:
        v = [Fraction(0)] * len(ambient)
        for m, c in p.terms.items():
            v[index[m]] = Fraction(c)
        rows.append(v)
    base = rref(rows)
    pivots = [next(c for c, x in enumerate(r) if x) for r in base]
    blocks = []
    for j in range(d):
        eq = [c for c, k in enumerate(order) if bidegs[k] == (d, j)]
        lo, hi = (eq[0], eq[-1] + 1) if eq else (0, 0)
        blocks.append(Subspace([ambient[order[c]] for c in eq],
                               [r[lo:hi] for r, p in zip(base, pivots) if lo <= p < hi],
                               already_reduced=True))
    return blocks


# -- eps -> 0 limits -----------------------------------------------------------------


class EpsFamily:
    """Spanning vectors with entries in Q[eps] over a fixed ambient."""

    def __init__(self, ambient: Sequence[Monomial], vectors: Sequence[CommPoly],
                 symbol: str = "eps") -> None:
        self.ambient = tuple(ambient)
        self.symbol = symbol
        index = {m: i for i, m in enumerate(self.ambient)}
        self.rows: List[List[SymPoly]] = []
        zero = SymPoly(symbol, [])
        for p in vectors:
            v = [zero] * len(self.ambient)
            for m, c in p.terms.items():
                if m not in index:
                    raise BoundsError(f"element has monomial outside the component: {m}")
                v[index[m]] = c if isinstance(c, SymPoly) else SymPoly.const(symbol, c)
            self.rows.append(v)


def limit_subspace(family: EpsFamily) -> Subspace:
    """Grassmannian limit at eps = 0 of the span of an eps-family.

    Reduces to a basis over Q(eps), clears denominators, scales each row by
    eps^(-valuation), and iterates elimination until the specialization at
    eps = 0 attains the generic rank.  The result does not depend on the
    spanning set.

    At most k * D passes run, D the largest eps-degree of the cleared rows:
    each divides the wedge of the k rows, a nonzero polynomial vector of
    degree <= k * D, by eps^v with v >= 1.
    """
    sym = family.symbol
    field_rows = [[RatFunc.from_scalar(x, sym) for x in r] for r in family.rows]
    reduced = rref(field_rows)
    k = len(reduced)
    if k == 0:
        return Subspace(family.ambient, [], already_reduced=True)

    def clear_row(row: List[RatFunc]) -> List[SymPoly]:
        den = SymPoly.const(sym, 1)
        for x in row:
            if not x.is_zero():
                den = den * x.den
        cleared = [(x.num * _poly_div_exact(den, x.den)) if not x.is_zero()
                   else SymPoly(sym, []) for x in row]
        return _strip_eps(cleared, sym)

    rows = [clear_row(r) for r in reduced]
    D = max(x.degree() for r in rows for x in r)

    for _ in range(k * D + 1):
        spec = [[x.at_zero() for x in r] for r in rows]
        # the rational combinations of rows vanishing at eps = 0
        rel = relations(spec)
        if not rel:
            return Subspace(family.ambient, rref(spec), already_reduced=True)
        c = rel[0]
        tgt = max(i for i in range(k) if c[i] != 0)
        newrow = [SymPoly(sym, [])] * len(family.ambient)
        for i, ci in enumerate(c):
            if ci != 0:
                newrow = [a + ci * b for a, b in zip(newrow, rows[i])]
        rows[tgt] = _strip_eps(newrow, sym)
    raise TruncationError(f"limit_subspace ran past its bound of {k * D} passes")


def _poly_div_exact(a: SymPoly, b: SymPoly) -> SymPoly:
    from .scalars import _poly_divmod
    q, r = _poly_divmod(a, b)
    if not r.is_zero():
        raise ArithmeticError("inexact polynomial division")
    return q


def _strip_eps(row: List[SymPoly], sym: str) -> List[SymPoly]:
    vals = [x.valuation() for x in row if not x.is_zero()]
    if not vals:
        return row
    v = min(vals)
    if v <= 0:
        return row
    return [x.shift_down(v) if not x.is_zero() else x for x in row]
