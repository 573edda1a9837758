"""Exact linear algebra over Q and over Z[h]: canonical subspaces,
associated-bigraded blocks of doubly filtered spans, products of
generators, and Grassmannian limits of parametrized subspace families as
h -> 0.

``echelon`` is the one elimination, on sparse rows ({column: entry}) of
rationals read straight from the ``.terms`` of polynomials, so its cost
follows the nonzeros rather than the width.  Each row is eliminated
fraction-free over Z, as integer numerators over the lcm of its
denominators, and becomes ``Fraction``s once, at the output.  Its (pivot
column, row) pairs are the one row format: a ``Subspace`` is those rows
over an explicit ambient list, so equality of subspaces is equality of
rows, and membership is one reduction pass (``Subspace.residue``).  A column
that no row holds changes no echelon row, so an ambient list need only hold
the labels its elements hold, in the component's order: the suites span
over that support (``support``), and the rows keyed by label are the full component's.
``relations`` returns sparse vectors; ``rref``, a dense adapter that no
suite calls, is the only dense code.  ``jacobian_pivots``, the one Jacobian
rank, hands ``echelon`` the gradients of polynomials at a point, one column
each, and ``free_generators`` is the one Jacobian walk that proves a family
free: it alone draws the points, seeded integers over the letters the
polynomials hold, resampled at most 20 times.
``limit_subspace`` takes rows over Z[h] (``ZhPoly``) and eliminates them
mod h^K instead, with minimum-valuation pivots, no division and a
certified precision (``_hadic_pivots``), and hands the rows it finds at
h = 0 to ``echelon``.
"""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction
from typing import (Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, TypeVar)

from .commpoly import CommPoly, Monomial, ZhPoly, partials, weighted_words
from .errors import BoundsError
from .scalars import mul_into, over_common_denominator

T = TypeVar("T")
Row = Dict[int, Any]  # {column: nonzero entry}, an int or a Fraction


def echelon(rows: Iterable[Row]) -> List[Tuple[int, Row]]:
    """Reduced row echelon form of sparse rows of rationals (``int`` or
    ``Fraction``), as (pivot column, row) pairs in pivot order; each row is
    one at its pivot and zero at every other pivot column.  Empty rows are
    dropped, and the rows passed in may be consumed (cleared in place).

    A row enters as integer numerators over the lcm of its denominators,
    which leaves its span unchanged; the elimination is then fraction-free
    over Z, and each row becomes ``Fraction``s once, divided by its pivot
    entry at the output.  The pivot is the smallest leading column, taken
    from its shortest row; ``_clear`` clears its column from the other rows
    leading there, then from the pivot rows above by back-substitution.
    The RREF is unique, so neither the choice of pivot row nor the scaling
    of rows changes the result.  Entries must be nonzero.
    """
    by_lead: Dict[int, List[Row]] = {}
    for r in rows:
        if r:
            by_lead.setdefault(min(r), []).append(over_common_denominator(r)[0])
    leads = list(by_lead)
    heapq.heapify(leads)
    found: List[Tuple[int, Row]] = []
    while leads:
        col = heapq.heappop(leads)
        bucket = by_lead.pop(col)
        row = bucket.pop(min(range(len(bucket)), key=lambda i: len(bucket[i])))
        for r in bucket:
            _clear(r, col, row)
            if r:
                lead = min(r)
                if lead in by_lead:
                    by_lead[lead].append(r)
                else:
                    by_lead[lead] = [r]
                    heapq.heappush(leads, lead)
        found.append((col, row))
    # back-substitution, last row first: a reduced row holds no pivot column
    # but its own, so clearing one adds none, and one pass over the pivot
    # columns a row holds reduces it
    reduced: Dict[int, Row] = {}
    for col, row in reversed(found):
        for j in [j for j in row if j in reduced]:
            _clear(row, j, reduced[j])
        reduced[col] = row
    return [(col, {j: Fraction(x, row[col]) for j, x in row.items()}) for col, row in found]

def _clear(r: Row, col: int, pivot_row: Row) -> None:
    """r <- a r - b pivot_row in place, with (a, b) = (pivot_row[col],
    r[col]) over their gcd and a > 0, so that r's entry at col cancels;
    entries that cancel are dropped.  A pivot entry other than one is an
    ``int``: ``echelon``'s rows are integers, and a ``Subspace``'s are monic.
    When the pivot entry divides r[col], a = 1 and only the pivot row's
    entries are touched; a row that was scaled is divided by its content."""
    b = r.pop(col)
    a = pivot_row[col]
    if a != 1:
        g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            for j in r:
                r[j] *= a
    for j, x in pivot_row.items():
        if j != col:
            y = r.get(j)
            y = -(b * x) if y is None else y - b * x
            if y:
                r[j] = y
            else:
                del r[j]
    if a != 1 and r:
        g = math.gcd(*r.values())
        if g != 1:
            for j in r:
                r[j] //= g


def rref(rows: List[List]) -> List[List]:
    """Reduced row echelon form of a dense matrix of rationals, as
    ``Fraction``s; drops zero rows.  The dense adapter of ``echelon``."""
    ncols = len(rows[0]) if rows else 0
    out = []
    for col, row in echelon({j: x for j, x in enumerate(r) if x} for r in rows):
        dense = [Fraction(0)] * ncols
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    return out


def _rows(elements, ambient: Sequence[Hashable]) -> List[Row]:
    """The sparse rows {column: c} of the ``.terms`` of elements over the
    ambient labels."""
    index = {m: i for i, m in enumerate(ambient)}
    try:
        return [{index[m]: c for m, c in p.terms.items() if c} for p in elements]
    except KeyError as exc:
        raise BoundsError(
            f"element has monomial outside the component: {exc.args[0]!r}") from None


def relations(images: Sequence[Dict[Hashable, Any]]) -> List[Row]:
    """Basis of {c : sum_i c_i images[i] = 0} for sparse vectors
    {key: entry} with any hashable keys, as sparse vectors {i: c_i}: one per
    free column of the echelon form of the matrix whose columns are
    ``images`` (a row per key that some image holds)."""
    by_key: Dict[Hashable, Row] = {}
    for i, img in enumerate(images):
        for key, x in img.items():
            if x:
                by_key.setdefault(key, {})[i] = x
    found = echelon(by_key.values())
    basis = []
    for f in sorted(set(range(len(images))) - {col for col, _ in found}):
        v = {col: -r[f] for col, r in found if f in r}
        v[f] = Fraction(1)
        basis.append(v)
    return basis


def support(*families: Iterable, key: Optional[Callable] = None) -> list:
    """The monomials or words that the elements of the families hold, sorted
    (by ``key``): the only columns where a span of them can be nonzero.
    Sorted as their full component is, they give every echelon row, keyed by
    label, that the full component gives."""
    return sorted({m for family in families for p in family for m in p.terms}, key=key)


class Subspace:
    """Subspace of a finite component: canonical ``echelon`` rows, (pivot
    column, {column: entry}) pairs in pivot order, over an explicit ambient
    list, so equality of subspaces is equality of rows.  Every constructor
    here passes canonical rows: an ``echelon`` output, or rows cut from one.
    """

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: Sequence[Hashable], rows: List[Tuple[int, Row]]) -> None:
        self.ambient = tuple(ambient)
        self.rows = rows

    @classmethod
    def span_of(cls, elements: Sequence[CommPoly], ambient: Sequence[Monomial]) -> "Subspace":
        """Span of polynomials inside an explicit monomial component."""
        return cls(ambient, echelon(_rows(elements, ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residue(self, row: Row) -> Row:
        """A copy of the sparse row with every pivot column it holds
        cleared, in pivot order; empty iff the row lies in the subspace.
        One pass is enough, as each basis row is zero at the other pivots."""
        r = dict(row)
        for col, pivot_row in self.rows:
            if col in r:
                _clear(r, col, pivot_row)
        return r

    def contains_poly(self, p: CommPoly) -> bool:
        try:
            (row,) = _rows([p], self.ambient)
        except BoundsError:
            return False
        return not self.residue(row)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def witness_missing_from(self, other: "Subspace") -> Row | None:
        """The first basis row of self outside other, as a sparse row over
        the shared ambient, if any."""
        for _, r in self.rows:
            if other.residue(r):
                return dict(r)
        return None


# -- algebraic independence ---------------------------------------------------------


def jacobian_pivots(polys: Sequence[CommPoly], point: Dict[str, Any]) -> List[int]:
    """Indices of the polys whose gradients at ``point`` (rationals keyed by
    letter, absent letters 0) are independent of the earlier polys'
    gradients, in order: the pivot columns of the Jacobian with a column per
    poly, so their number is its rank at the point.  Each column is scaled by
    its ``partials`` lcm, which moves no pivot, so at an integer point every
    entry is an ``int``.  In characteristic 0 polynomials whose Jacobian has
    full rank at some point are algebraically independent."""
    rows: Dict[str, Row] = {}
    for i, p in enumerate(polys):
        for v, dv in partials(p)[0].items():
            if x := sum(c * math.prod(point.get(ch, 0) for ch in m) for m, c in dv.items()):
                rows.setdefault(v, {})[i] = x
    return [col for col, _ in echelon(rows.values())]


def free_generators(gens: Sequence[Tuple[CommPoly, int]], wanted: Sequence[int], seed: int
                    ) -> Tuple[List[int], int, bool]:
    """Whether the (poly, degree) generators are proven to generate the
    polynomial algebra free on generators of the ``wanted`` degrees.

    The generators are walked by degree, in a stable sort, and the Jacobian
    is taken at integer points drawn from [-50, 50] by ``Random(seed)``, one
    entry per letter the polys hold, in letter order (a letter they do not
    hold changes no partial): at most 20 points, stopping at the first whose
    rank reaches ``len(wanted)``.  The generators kept there are
    algebraically independent, so their products are linearly independent.
    When their degrees are ``wanted`` and every other generator lies in the
    span of the products of theirs in its degree, the generators generate
    the same algebra, free on them.  Full rank alone proves nothing when a
    generator is missing.

    Returns the kept generators' indices into ``gens``, in walk order (their
    number is the rank), the number of points resampled (20 when no rank reached
    ``len(wanted)``) and whether freeness is proven."""
    order = sorted(range(len(gens)), key=lambda i: gens[i][1])
    polys = [gens[i][0] for i in order]
    rng = random.Random(seed)
    letters = sorted({ch for p in polys for m in p.terms for ch in m})
    for resampled in range(20):
        pivots = jacobian_pivots(polys, {v: rng.randint(-50, 50) for v in letters})
        if len(pivots) >= len(wanted):
            break
    else:
        resampled = 20
    kept = [order[j] for j in pivots]
    if sorted(gens[i][1] for i in kept) != sorted(wanted):
        return kept, resampled, False
    dropped = [i for i in order if i not in kept]
    buckets = degree_buckets([gens[i] for i in kept], max((gens[i][1] for i in dropped), default=0))
    spans = {d: Subspace.span_of(buckets[d], support(buckets[d]))
             for d in {gens[i][1] for i in dropped}}
    return kept, resampled, all(spans[gens[i][1]].contains_poly(gens[i][0]) for i in dropped)


# -- generated subalgebra components --------------------------------------------


def generator_products(gens: Sequence[Tuple[T, int]], dmax: int, one: T
                       ) -> Iterator[Tuple[T, int]]:
    """Every nonzero product of generators, with multiplicity, of total
    degree <= dmax, as (product, degree); the empty product (one, 0) first.

    A fold of right multiplication over the ``weighted_words`` of the
    degrees, which must be positive: a stack holds the products and degrees
    of the current word's prefixes, so each product costs one
    multiplication.  A zero product is not listed, and neither is any word
    extending it (every extension of it is zero).
    """
    stack = [(one, 0)]
    for w in weighted_words([dg for _, dg in gens], dmax):
        if w:
            del stack[len(w):]
            (acc, deg), (e, dg) = stack[-1], gens[w[-1]]
            stack.append((acc * e if acc else acc, deg + dg))
        if stack[-1][0]:
            yield stack[-1]


def degree_buckets(gens: Sequence[Tuple[T, int]], dmax: int) -> List[List[T]]:
    """The nonzero products of commuting generators, listed by degree
    0..dmax, in the generators' ring: ``CommPoly``, or ``ZhPoly`` over Z[h]."""
    out: List[List[T]] = [[] for _ in range(dmax + 1)]
    one = (type(gens[0][0]) if gens else CommPoly).const(1)
    for p, d in generator_products(gens, dmax, one):
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
                   bidegs: Sequence[Tuple[int, int]], d: int) -> List[Subspace]:
    """Associated-bigraded components (d, j), j = 0..d-1, of a doubly
    filtered span, from one elimination.

    For the two filtrations whose level-(i, j) space is spanned by basis
    labels with bidegree <= (i, j) componentwise, the (d, j) component of
    span(vectors) is the projection onto the bidegree-(d, j) block of the
    intersection with the level space.  The columns are ordered deg1 > d
    first, then deg2 descending, then deg1 descending (stable in ambient
    order), so each level space is the set of vectors vanishing on a column
    prefix, and the (d, j) labels lead its columns: the echelon rows whose
    pivot is at a (d, j) label, cut to those labels, are that block's
    canonical basis.  ``bidegs`` holds the bidegree of each ambient label, in
    ambient order.  ``vectors`` may be CommPoly or NCPoly (anything with a
    ``.terms`` dict over ambient labels).
    """
    order = sorted(range(len(ambient)),
                   key=lambda k: (bidegs[k][0] <= d, -bidegs[k][1], -bidegs[k][0]))
    found = echelon(_rows(vectors, [ambient[k] for k in order]))
    blocks = []
    for j in range(d):
        eq = [c for c, k in enumerate(order) if bidegs[k] == (d, j)]
        lo, hi = (eq[0], eq[-1] + 1) if eq else (0, 0)
        # a pivot row is zero before its pivot; cut it at the block's end
        rows = [(col - lo, {c - lo: x for c, x in r.items() if c < hi})
                for col, r in found if lo <= col < hi]
        blocks.append(Subspace([ambient[order[c]] for c in eq], rows))
    return blocks


# -- h -> 0 limits -------------------------------------------------------------------


def limit_subspace(ambient: Sequence[Monomial], vectors: Sequence[ZhPoly], K: int = 4
                   ) -> Tuple[Subspace, int]:
    """Grassmannian limit at h = 0 of the span V over Q(h) of vectors over
    Z[h] (``ZhPoly``) over a fixed ambient: the values at h = 0 of the
    saturated lattice V ∩ Q[[h]]^N, which do not depend on the spanning set;
    with the precision that certified it.

    ``_hadic_pivots`` eliminates the rows mod h^K, K doubling from the given
    start until its certificate holds, and ``echelon`` makes the rows it
    finds at h = 0 canonical.  The certified K is returned so that a caller
    can start the next, larger component there.
    """
    rows = [r for r in _rows(vectors, ambient) if r]
    degree = max((len(e) - 1 for r in rows for e in r.values()), default=0)
    while (found := _hadic_pivots(rows, K, degree)) is None:
        K *= 2
    return Subspace(ambient, echelon(found)), K


def _hadic_pivots(rows: List[Dict[int, List[int]]], K: int, degree: int
                  ) -> List[Row] | None:
    """Pivot rows of an elimination over Z[h] mod h^K, at h = 0; None when
    precision K cannot certify a row that reduced to zero.

    The pivot is the entry of least valuation v among all remaining rows
    (ties by column, then by row length).  Its row r is divided by h^v and
    by its integer content, so its pivot entry u is a unit of Q[[h]] and r
    is known mod h^(K - v).  When u is a unit of Z[[h]] (u(0) = ±1), r is
    multiplied once by the inverse of u mod h^(K - v), and each remaining
    row s holding the pivot column c becomes s - s[c] r; otherwise s becomes
    u s - s[c] r, fraction-free.  All of s has valuation >= v, so s stays
    known mod h^K, and no row is divided.  The pivot rows are unit-triangular
    on their pivot columns: they span the saturated lattice.

    A row s that reduces to zero mod h^K after t pivots of valuations v_i
    is dropped only if K + sum v_i > (t + 1) * degree.  Rows r_1..r_t, s are
    their input rows times a triangular matrix of determinant
    h^(-sum v_i) times a unit, so every (t + 1)-minor of those input rows,
    a polynomial of degree <= (t + 1) * degree, vanishes mod
    h^(K + sum v_i): it is zero, and so is s.
    """
    live = []
    for r in rows:
        t = {j: (e + [0] * K)[:K] for j, e in r.items() if any(e[:K])}
        if not t:
            return None  # a nonzero row of degree <= degree vanishing mod h^K
        live.append(t)
    lead = [_lead(r) for r in live]
    found: List[Row] = []
    vsum = 0
    while live:
        i = min(range(len(live)), key=lambda i: (lead[i], len(live[i])))
        r = live.pop(i)
        v, c = lead.pop(i)
        g = math.gcd(*(x for e in r.values() for x in e))
        r = {j: [x // g for x in e[v:]] for j, e in r.items()}
        found.append({j: e[0] for j, e in r.items() if e[0]})
        vsum += v
        certified = K + vsum > (len(found) + 1) * degree
        u = r.pop(c)
        unit = u[0] in (1, -1)
        if unit:
            inv = _unit_inverse(u)
            r = {j: mul_into([0] * (K - v), inv, e) for j, e in r.items()}
        kept, keys = [], []
        for s, key in zip(live, lead):
            f = s.pop(c, None)
            if f is not None:
                if not unit:
                    for j, e in s.items():
                        s[j] = mul_into([0] * K, u, e)
                f = [-x for x in f]
                for j, e in r.items():
                    old = s.get(j)
                    e = s[j] = mul_into([0] * K if old is None else old, f, e)
                    if not any(e):  # only entries r touched can vanish
                        del s[j]
                if not s:
                    if not certified:
                        return None
                    continue
                key = _lead(s)
            kept.append(s)
            keys.append(key)
        live, lead = kept, keys
    return found


def _lead(row: Dict[int, List[int]]) -> Tuple[int, int]:
    """(least valuation, first column attaining it) of a nonzero row: the
    first coefficient index at which some entry is nonzero, and the least
    column nonzero there."""
    i = 0
    while True:
        cols = [j for j, e in row.items() if e[i]]
        if cols:
            return i, min(cols)
        i += 1


def _unit_inverse(u: List[int]) -> List[int]:
    """The inverse mod h^len(u) of a coefficient list with u[0] = ±1."""
    inv = [u[0]]
    for k in range(1, len(u)):
        inv.append(-u[0] * sum(u[i] * inv[k - i] for i in range(1, k + 1)))
    return inv
