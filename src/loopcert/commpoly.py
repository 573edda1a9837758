"""Exact commutative polynomials in loop variables x_a[r].

A variable is a pair ``(a, r)``: basis index ``a`` of the underlying Lie
algebra and t-degree ``r >= 0``.  The two gradings are

    deg1(x_a[r]) = r + 1,      deg2(x_a[r]) = r,

additive on monomials.  Monomials are stored as ascending tuples of
variables ordered by ``(r, a)``; the global monomial order is graded-lex on
(deg1, variable tuple), fixed once so echelon bases are canonical.

``CommPoly`` itself is ring-agnostic.  A product of two rational
polynomials multiplies integer numerators over the two operands' common
denominators and builds one ``Fraction`` per output term; other
coefficients (``SymPoly``) multiply term by term.  The two Poisson
brackets and the derivation D live on ``LoopAlgebra``, which couples a
structure-constant table (an ``int`` where the denominator is 1) with a
truncation level R (max t-degree, exclusive).  Operations that would
create a t-degree >= R raise ``TruncationError`` instead of silently
dropping terms.

``_derive`` is every derivation, {p, q} = sum_v dp/dv * {v, q} too: each
dp/dv comes from ``partials`` in integers over the lcm of p's denominators,
each {v, q} once, in integers over q's, and the sum is divided once.  Every
bracket of two polynomials, ``poisson0`` and ``poisson1`` included, goes
through ``LoopAlgebra.pairwise_brackets``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Dict, Iterator, Sequence, Tuple

from .errors import BoundsError, TruncationError
from .scalars import Scalar, SymPoly, over_common_denominator, sc_str

Var = Tuple[int, int]  # (basis index a, t-degree r)
Monomial = Tuple[Var, ...]


var_key: Callable[[Var], Tuple[int, int]] = itemgetter(1, 0)  # (a, r) -> (r, a)


def mono_deg1(m: Monomial) -> int:
    return sum(r + 1 for _, r in m)


def mono_deg2(m: Monomial) -> int:
    return sum(r for _, r in m)


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(sorted(m1 + m2, key=var_key))


def mono_order_key(m: Monomial):
    return (mono_deg1(m), tuple(var_key(v) for v in m))


def _rational(terms: Dict[Monomial, Scalar]) -> bool:
    """Whether every coefficient is an ``int`` or a ``Fraction``."""
    return set(map(type, terms.values())) <= {int, Fraction}


class CommPoly:
    """Sparse commutative polynomial; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, Scalar] | None = None) -> None:
        t: Dict[Monomial, Scalar] = {}
        if terms:
            for m, c in terms.items():
                if c:
                    t[m] = c
        self.terms = t

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> "CommPoly":
        c = c if isinstance(c, SymPoly) else Fraction(c)
        return cls({(): c})

    @classmethod
    def variable(cls, a: int, r: int) -> "CommPoly":
        return cls({((a, r),): Fraction(1)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def deg1(self) -> int:
        """Max deg1 over monomials (-1 for the zero polynomial)."""
        return max((mono_deg1(m) for m in self.terms), default=-1)

    def max_tdeg(self) -> int:
        return max((r for m in self.terms for _, r in m), default=-1)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "CommPoly") -> "CommPoly":
        if not isinstance(other, CommPoly):
            return NotImplemented
        t = dict(self.terms)
        for m, c in other.terms.items():
            nc = t.get(m, 0) + c
            if not nc:
                t.pop(m, None)
            else:
                t[m] = nc
        return CommPoly(t)

    def __neg__(self) -> "CommPoly":
        return CommPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "CommPoly") -> "CommPoly":
        return self + (-other)

    def scale(self, c) -> "CommPoly":
        if not c:
            return CommPoly()
        return CommPoly({m: co * c for m, co in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SymPoly)):
            return self.scale(other)
        if not isinstance(other, CommPoly):
            return NotImplemented
        if _rational(self.terms) and _rational(other.terms):
            a, da = over_common_denominator(self.terms)
            b, db = over_common_denominator(other.terms)
            den = da * db
            raw: Dict[Monomial, int] = {}
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    m = mono_mul(m1, m2)
                    raw[m] = raw.get(m, 0) + c1 * c2
            return CommPoly({m: Fraction(c, den) for m, c in raw.items() if c})
        t: Dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                nc = t.get(m, 0) + c1 * c2
                if not nc:
                    t.pop(m, None)
                else:
                    t[m] = nc
        return CommPoly(t)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CommPoly":
        if k < 0:
            raise ValueError("negative power")
        r = CommPoly.const(1)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def __eq__(self, other):
        if not isinstance(other, CommPoly):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure -----------------------------------------------------------

    def partial(self, v: Var) -> "CommPoly":
        """Partial derivative with respect to one variable (rational coefficients)."""
        return derivation(self, lambda w: {(): 1} if w == v else {})

    def evaluate(self, point: Dict[Var, Fraction]) -> Scalar:
        acc: Scalar = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v in m:
                val = val * point.get(v, Fraction(0))
            acc = acc + val
        return acc

    # -- serialization ---------------------------------------------------------

    def render(self, varname: Callable[[Var], str] | None = None) -> str:
        """Canonical text form: terms in the global monomial order."""
        if not self.terms:
            return "0"
        if varname is None:
            varname = lambda v: f"x{v[0]}[{v[1]}]"
        parts = []
        for m in sorted(self.terms, key=mono_order_key):
            c = self.terms[m]
            factors = []
            i = 0
            while i < len(m):
                j = i
                while j < len(m) and m[j] == m[i]:
                    j += 1
                factors.append(varname(m[i]) + (f"^{j - i}" if j - i > 1 else ""))
                i = j
            mono = "*".join(factors) if factors else "1"
            parts.append(f"{sc_str(c)}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return self.render()


def partials(p: CommPoly) -> Tuple[Dict[Var, Dict[Monomial, int]], int]:
    """({v: L * dp/dv} for every variable v of p, L), L the lcm of p's
    denominators; monomials sorted by (a, r), an order needing no sort key."""
    nums, L = over_common_denominator(p.terms)
    out: Dict[Var, Dict[Monomial, int]] = {}
    for m, c in nums.items():
        m = tuple(sorted(m))
        for i, v in enumerate(m):
            if i == 0 or m[i - 1] != v:
                out.setdefault(v, {})[m[:i] + m[i + 1:]] = c * m.count(v)
    return out, L


def derivation(p: CommPoly, image: Callable[[Var], Dict[Monomial, Scalar]]) -> CommPoly:
    """sum_v dp/dv * image(v), divided by p's denominator once; products are
    sorted by (a, r) and the result once by ``var_key``."""
    return _derive(partials(p), image, 1)


def _derive(p_partials: Tuple[Dict[Var, Dict[Monomial, int]], int],
            image: Callable[[Var], Dict[Monomial, Scalar]], den: int) -> CommPoly:
    """``derivation`` of the p whose ``partials`` are given."""
    dp, L = p_partials
    out: Dict[Monomial, Scalar] = defaultdict(int)
    for v, dv in dp.items():
        for m2, c2 in image(v).items():
            for m1, c1 in dv.items():
                out[tuple(sorted(m1 + m2))] += c1 * c2
    return CommPoly({tuple(sorted(m, key=var_key)): Fraction(c, L * den)
                     for m, c in out.items() if c})


def weighted_words(weights: Sequence[int], dmax: int) -> Iterator[Tuple[int, ...]]:
    """Nondecreasing index words i1 <= i2 <= ... with total weight
    weights[i1] + weights[i2] + ... <= dmax, depth first with the later
    indices first, the empty word first.  Every weight must be positive."""
    if any(wt <= 0 for wt in weights):
        raise BoundsError("weights must be positive")

    def rec(start: int, rem: int, word: Tuple[int, ...]):
        yield word
        for i in range(len(weights) - 1, start - 1, -1):
            if weights[i] <= rem:
                yield from rec(i, rem - weights[i], word + (i,))

    return rec(0, dmax, ())


class LoopAlgebra:
    """S(g[t]) truncated at t-degree < R, with both Poisson brackets and D.

    ``alg`` must expose ``dim``, ``bracket_coeffs(a, b) -> dict d -> Fraction``
    and ``gram_inverse()`` (see ``liealg.LieAlgebraData``).
    """

    def __init__(self, alg, R: int) -> None:
        if R < 1:
            raise ValueError("truncation level R must be >= 1")
        self.alg = alg
        self.R = R
        self._brackets = {(a, b): {d: c.numerator if c.denominator == 1 else c
                                   for d, c in alg.bracket_coeffs(a, b).items()}
                          for a in range(alg.dim) for b in range(alg.dim)}
        self._components: Dict[int, Tuple[Monomial, ...]] = {}

    # -- Poisson brackets --------------------------------------------------

    def _bracket_with(self, dq: Dict[Var, Dict[Monomial, int]], v: Var,
                      shift: int) -> Dict[Monomial, Scalar]:
        """{v, q} = sum_w dq/dw * {v, w} in integers over q's denominator, from
        q's partials dq, with {x_a[r], x_b[s]} = [x_a, x_b][r + s + shift]."""
        a, r = v
        out: Dict[Monomial, Scalar] = defaultdict(int)
        for (b, s), dw in dq.items():
            cs, t = self._brackets[a, b], r + s + shift
            if cs and t >= self.R:
                raise TruncationError(
                    f"bracket output t-degree {t} exceeds truncation R={self.R}")
            for d, cd in cs.items():
                for m, c in dw.items():
                    i = bisect_right(m, (d, t))
                    out[m[:i] + ((d, t),) + m[i:]] += cd * c
        return {m: c for m, c in out.items() if c}

    def pairwise_brackets(self, polys: Sequence[CommPoly], shifts: Sequence[int]
                          ) -> Iterator[Tuple[int, int, int, CommPoly]]:
        """(i, j, s, {polys[i], polys[j]}_s) for every i < j and s in
        ``shifts``, j in the outer loop.  Each poly's partials are computed
        once, and each {v, polys[j]}_s once per variable v, reused for every
        i and dropped when j moves on."""
        dps = [partials(p) for p in polys]
        for j in range(1, len(polys)):
            dq, Lq = dps[j]
            for s in shifts:
                field: Dict[Var, Dict[Monomial, Scalar]] = {}

                def image(v: Var) -> Dict[Monomial, Scalar]:
                    img = field.get(v)
                    if img is None:
                        img = field[v] = self._bracket_with(dq, v, s)
                    return img
                for i in range(j):
                    yield i, j, s, _derive(dps[i], image, Lq)

    def coadjoint_images(self, m: Monomial) -> Dict[Tuple[int, Monomial], Scalar]:
        """{x_a[0], m}_0 for every basis index a, keyed (a, monomial): each
        distinct variable (b, r) of m adds its multiplicity times m without
        it times [x_a, x_b][r].  The t-degree is unchanged, so nothing
        truncates.  The coefficients are sums over the bracket table, so
        ``int``s where its entries are."""
        out: Dict[Tuple[int, Monomial], Scalar] = defaultdict(int)
        for i, (b, r) in enumerate(m):
            if i and m[i - 1] == (b, r):
                continue
            k = m.count((b, r))
            rest = m[:i] + m[i + 1:]
            for a in range(self.alg.dim):
                for d, c in self._brackets[a, b].items():
                    j = bisect_right(rest, (r, d), key=var_key)
                    out[a, rest[:j] + ((d, r),) + rest[j:]] += k * c
        return {key: c for key, c in out.items() if c}

    def poisson0(self, p: CommPoly, q: CommPoly) -> CommPoly:
        """{x[n], y[m]}_0 = [x,y][n+m], extended by Leibniz."""
        return next(self.pairwise_brackets((p, q), (0,)))[3]

    def poisson1(self, p: CommPoly, q: CommPoly) -> CommPoly:
        """{x[n], y[m]}_1 = [x,y][n+m+1], extended by Leibniz."""
        return next(self.pairwise_brackets((p, q), (1,)))[3]

    # -- derivation ----------------------------------------------------------

    def derivation_D(self, p: CommPoly) -> CommPoly:
        """D(x[n]) = (n+1) x[n+1], extended as a derivation."""
        def raise_degree(v: Var) -> Dict[Monomial, Scalar]:
            a, r = v
            if r + 1 >= self.R:
                raise TruncationError(
                    f"D output t-degree {r + 1} exceeds truncation R={self.R}")
            return {((a, r + 1),): r + 1}
        return derivation(p, raise_degree)

    # -- canonical quadratic invariants --------------------------------------

    def omega(self) -> CommPoly:
        """Dual-basis Casimir sum_a x_a[0] x^a[0]."""
        return self._casimir_element(0)

    def Omega(self) -> CommPoly:
        """Loop-raised Casimir sum_a x_a[0] x^a[1]; satisfies D(omega) = 2*Omega."""
        if self.R < 2:
            raise TruncationError("Omega needs R >= 2")
        return self._casimir_element(1)

    def _casimir_element(self, r: int) -> CommPoly:
        ginv = self.alg.gram_inverse()
        n = self.alg.dim
        out: Dict[Monomial, Scalar] = {}
        for a in range(n):
            for b in range(n):
                c = ginv[b][a]
                if c:
                    mono = mono_mul(((a, 0),), ((b, r),))
                    out[mono] = out.get(mono, 0) + c
        return CommPoly(out)

    # -- ambient component bases ---------------------------------------------

    def component_monomials(self, d: int) -> Tuple[Monomial, ...]:
        """Monomial basis of the deg1 = d component within truncation R, in
        the global monomial order; built once per d."""
        comp = self._components.get(d)
        if comp is None:
            vs = [(a, r) for r in range(min(self.R, d)) for a in range(self.alg.dim)]  # var_key order
            monos = (tuple(vs[i] for i in w) for w in weighted_words([r + 1 for _, r in vs], d))
            comp = self._components[d] = tuple(
                sorted((m for m in monos if mono_deg1(m) == d), key=mono_order_key))
        return comp
