"""Exact commutative polynomials in loop variables x_a[r].

A variable x_a[r] has a basis index ``a`` of the underlying Lie algebra and
a t-degree ``r >= 0``.  The two gradings are

    deg1(x_a[r]) = r + 1,      deg2(x_a[r]) = r,

additive on monomials.  x_a[r] is stored as one letter, the code point
r * B + a (``letter``; ``var_of`` decodes it), and a monomial as the sorted
``str`` of its letters, one per factor (``monomial``), "" for 1.  Code-point
order is (r, a) order, so the one monomial order, graded-lex on (deg1, str),
is fixed once and echelon bases are canonical.  No other module builds,
sorts or reads monomials.

``CommPoly`` has rational coefficients (``int`` or ``Fraction``).  A
product multiplies integer numerators over the two operands' common
denominators and builds one ``Fraction`` per output term.  ``ZhPoly`` holds
the classical Bethe family over Z[h] (``families.classical_bethe``):
coefficients as integer lists in h, multiplied by ``scalars.mul_into``, and
read at h = 0 as a ``CommPoly``.  The two Poisson
brackets and the derivation D live on ``LoopAlgebra``, which reads the
bracket table of its Lie algebra as it is (``int`` where the denominator
is 1).  S(g[t]) is graded and a polynomial has finitely many t-degrees, so
nothing is truncated.

``_derive`` is every derivation, {p, q} = sum_v dp/dv * {v, q} too: each
dp/dv comes from ``partials`` in integers over the lcm of p's denominators,
each {v, q} once, in integers over q's, and the sum is divided once.  Every
bracket of two polynomials, ``poisson0`` and ``poisson1`` included, goes
through ``LoopAlgebra.pairwise_brackets``.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from .errors import BoundsError
from .scalars import mul_into, over_common_denominator, ratstr

Var = Tuple[int, int]  # (basis index a, t-degree r)
Monomial = str  # sorted letters, one per factor

# Letters per t-degree: the presets have dim <= 16, a config's number of
# matrices is capped at 121 (BOUNDS["config"]["dim"]) and the CLI's t-degrees
# stay below 20, so 256 leaves room for gl16, at t-degrees up to
# sys.maxunicode // 256 = 4351; past that, BoundsError.
B = 256


def letter(a: int, r: int) -> str:
    """The letter of x_a[r], code point r * B + a."""
    if not (0 <= a < B and 0 <= r * B + a <= sys.maxunicode):
        raise BoundsError(f"variable x{a}[{r}] has no letter: the basis index must be "
                          f"below {B} and the t-degree at most {sys.maxunicode // B}")
    return chr(r * B + a)


def var_of(ch: str) -> Var:
    """The variable (a, r) of a letter."""
    r, a = divmod(ord(ch), B)
    return a, r


def monomial(variables: Iterable[Var]) -> Monomial:
    """The monomial of a list of variables (a, r), with multiplicity."""
    return "".join(sorted(letter(a, r) for a, r in variables))


def mono_deg2(m: Monomial) -> int:
    return sum(ord(ch) // B for ch in m)


def mono_deg1(m: Monomial) -> int:
    return len(m) + mono_deg2(m)


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return "".join(sorted(m1 + m2))


class CommPoly:
    """Sparse commutative polynomial; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, Fraction] | None = None) -> None:
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> "CommPoly":
        return cls({"": Fraction(c)})

    @classmethod
    def variable(cls, a: int, r: int) -> "CommPoly":
        return cls({letter(a, r): Fraction(1)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "CommPoly") -> "CommPoly":
        if not isinstance(other, CommPoly):
            return NotImplemented
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t.get(m, 0) + c
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
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, CommPoly):
            return NotImplemented
        a, da = over_common_denominator(self.terms)
        b, db = over_common_denominator(other.terms)
        den = da * db
        raw: Dict[Monomial, int] = defaultdict(int)
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                raw[mono_mul(m1, m2)] += c1 * c2
        return CommPoly({m: Fraction(c, den) for m, c in raw.items() if c})

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

    # -- serialization ---------------------------------------------------------

    def render(self, varname: Callable[[Var], str] | None = None) -> str:
        """Canonical text form: terms in the monomial order (deg1, str),
        each variable (a, r) named by ``varname``."""
        if not self.terms:
            return "0"
        if varname is None:
            varname = lambda v: f"x{v[0]}[{v[1]}]"
        parts = []
        for m in sorted(self.terms, key=lambda m: (mono_deg1(m), m)):
            factors = [varname(var_of(ch)) + (f"^{k}" if (k := m.count(ch)) > 1 else "")
                       for ch in sorted(set(m))]
            parts.append(f"{ratstr(self.terms[m])}*{'*'.join(factors) or '1'}")
        return " + ".join(parts)

    def __repr__(self):
        return self.render()


class ZhPoly:
    """Sparse polynomial over Z[h]: {monomial: ascending integer coefficient
    list in h}, each list without trailing zeros and not empty; immutable by
    convention.  ``linalg.limit_subspace`` reads its rows from the ``.terms``."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, List[int]] | None = None) -> None:
        self.terms = {}
        for m, c in (terms or {}).items():
            n = len(c)
            while n and not c[n - 1]:
                n -= 1
            if n:
                self.terms[m] = c if n == len(c) else c[:n]

    @classmethod
    def const(cls, c: int) -> "ZhPoly":
        return cls({"": [c]})

    def __bool__(self):
        return bool(self.terms)

    def at_zero(self) -> CommPoly:
        """The value at h = 0."""
        return CommPoly({m: Fraction(c[0]) for m, c in self.terms.items()})

    def __mul__(self, other: "ZhPoly") -> "ZhPoly":
        if not (self.terms and other.terms):
            return ZhPoly()
        n = max(map(len, self.terms.values())) + max(map(len, other.terms.values())) - 1
        raw: Dict[Monomial, List[int]] = {}
        for m1, a in self.terms.items():
            for m2, b in other.terms.items():
                m = mono_mul(m1, m2)
                acc = raw.get(m)
                if acc is None:
                    acc = raw[m] = [0] * n
                mul_into(acc, a, b)
        return ZhPoly(raw)


Partials = Tuple[Dict[str, Dict[Monomial, int]], int]


def partials(p: CommPoly) -> Partials:
    """({v: L * dp/dv} for every letter v of p, L), L the lcm of p's
    denominators."""
    nums, L = over_common_denominator(p.terms)
    out: Dict[str, Dict[Monomial, int]] = {}
    for m, c in nums.items():
        for i, v in enumerate(m):
            if i == 0 or m[i - 1] != v:
                out.setdefault(v, {})[m[:i] + m[i + 1:]] = c * m.count(v)
    return out, L


def derivation(p: CommPoly, image: Callable[[int, int], CommPoly]) -> CommPoly:
    """sum_v dp/dv * image(a, r) over the variables v = x_a[r] of p, divided
    by p's denominator once."""
    return _derive(partials(p), lambda v: image(*var_of(v)).terms, 1)


def _derive(p_partials: Partials, image: Callable[[str], Dict[Monomial, Fraction]],
            den: int) -> CommPoly:
    """``derivation`` of the p whose ``partials`` are given, with ``image``
    keyed by letter and its coefficients over the denominator ``den``."""
    dp, L = p_partials
    out: Dict[Monomial, Fraction] = defaultdict(int)
    for v, dv in dp.items():
        for m2, c2 in image(v).items():
            for m1, c1 in dv.items():
                out["".join(sorted(m1 + m2))] += c1 * c2
    return CommPoly({m: Fraction(c, L * den) for m, c in out.items() if c})


def weighted_words(weights: Sequence[int], dmax: int, exact: bool = False
                   ) -> Iterator[Tuple[int, ...]]:
    """Nondecreasing index words i1 <= i2 <= ... with total weight
    weights[i1] + weights[i2] + ... <= dmax (== dmax if ``exact``), depth
    first with the later indices first, the empty word first.  Every weight
    must be positive."""
    if any(wt <= 0 for wt in weights):
        raise BoundsError("weights must be positive")

    def rec(start: int, rem: int, word: Tuple[int, ...]):
        if rem == 0 or not exact:
            yield word
        for i in range(len(weights) - 1, start - 1, -1):
            if weights[i] <= rem:
                yield from rec(i, rem - weights[i], word + (i,))

    return rec(0, dmax, ())


class LoopAlgebra:
    """S(g[t]), with both Poisson brackets and D.

    ``alg`` must expose ``dim``, ``bracket_coeffs(a, b) -> dict d -> coefficient``
    and ``gram_inv`` (see ``liealg.LieAlgebraData``).
    """

    def __init__(self, alg) -> None:
        letter(alg.dim - 1, 0)  # every basis index has a letter
        self.alg = alg
        self._brackets = {(a, b): alg.bracket_coeffs(a, b)
                          for a in range(alg.dim) for b in range(alg.dim)}
        self._components: Dict[int, Tuple[Monomial, ...]] = {}

    # -- Poisson brackets --------------------------------------------------

    def _bracket_with(self, dq: Dict[str, Dict[Monomial, int]], v: str,
                      shift: int) -> Dict[Monomial, Fraction]:
        """{v, q} = sum_w dq/dw * {v, w} in integers over q's denominator, from
        q's partials dq, with {x_a[r], x_b[s]} = [x_a, x_b][r + s + shift]."""
        r, a = divmod(ord(v), B)
        out: Dict[Monomial, Fraction] = defaultdict(int)
        for w, dw in dq.items():
            s, b = divmod(ord(w), B)
            t = (r + s + shift) * B
            for d, cd in self._brackets[a, b].items():
                x = chr(t + d)
                for m, c in dw.items():
                    i = bisect_right(m, x)
                    out[m[:i] + x + m[i:]] += cd * c
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
                field: Dict[str, Dict[Monomial, Fraction]] = {}

                def image(v: str) -> Dict[Monomial, Fraction]:
                    img = field.get(v)
                    if img is None:
                        img = field[v] = self._bracket_with(dq, v, s)
                    return img
                for i in range(j):
                    yield i, j, s, _derive(dps[i], image, Lq)

    def coadjoint_images(self, m: Monomial) -> Dict[Tuple[int, Monomial], Fraction]:
        """{x_a[0], m}_0 for every basis index a, keyed (a, monomial): each
        distinct variable x_b[r] of m adds its multiplicity times m without
        it times [x_a, x_b][r].  The coefficients are sums over the bracket
        table, so ``int``s where its entries are."""
        out: Dict[Tuple[int, Monomial], Fraction] = defaultdict(int)
        for i, v in enumerate(m):
            if i and m[i - 1] == v:
                continue
            k, rest = m.count(v), m[:i] + m[i + 1:]
            r, b = divmod(ord(v), B)
            for a in range(self.alg.dim):
                for d, c in self._brackets[a, b].items():
                    x = chr(r * B + d)
                    j = bisect_right(rest, x)
                    out[a, rest[:j] + x + rest[j:]] += k * c
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
        return _derive(partials(p), lambda v: {chr(ord(v) + B): ord(v) // B + 1}, 1)

    # -- canonical quadratic invariants --------------------------------------

    def omega(self) -> CommPoly:
        """Dual-basis Casimir sum_a x_a[0] x^a[0]."""
        return self._casimir_element(0)

    def Omega(self) -> CommPoly:
        """Loop-raised Casimir sum_a x_a[0] x^a[1]; satisfies D(omega) = 2*Omega."""
        return self._casimir_element(1)

    def _casimir_element(self, r: int) -> CommPoly:
        ginv = self.alg.gram_inv
        out: Dict[Monomial, Fraction] = defaultdict(int)
        for a in range(self.alg.dim):
            for b in range(self.alg.dim):
                out[monomial([(a, 0), (b, r)])] += ginv[b][a]
        return CommPoly(out)

    # -- ambient component bases ---------------------------------------------

    def component_monomials(self, d: int) -> Tuple[Monomial, ...]:
        """Monomial basis of the deg1 = d component, in the monomial order,
        which on one deg1 is ``str`` order; built once per d.  A variable
        x_a[r] has deg1 r + 1, so its t-degree r is below d."""
        comp = self._components.get(d)
        if comp is None:
            vs = [chr(r * B + a) for r in range(d) for a in range(self.alg.dim)]
            words = weighted_words([ord(v) // B + 1 for v in vs], d, exact=True)
            comp = self._components[d] = tuple(sorted("".join(vs[i] for i in w) for w in words))
        return comp
