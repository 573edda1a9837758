"""PBW normal ordering for enveloping algebras, Gaudin evaluation, and the
column-determinant generators of the commutative family in U(gl_n[t]/t^R).

The rewriting engine is generic: a context supplies an ordered generator
list and a bracket callback returning [x_i, x_j] as a word combination.
``normal_form`` collects from the left by one-step insertion (Leedham-Green
and Soicher, J. Symbolic Comput. 9, 1990): the first letter x below its left
neighbour moves to its place in the nondecreasing head h_1..h_k at once, and
each letter h_i it passes adds the word with h_i x replaced by [h_i, x].
Letters with an empty bracket add nothing, so the copies of a tensor
context commute for free.  This terminates because every bracket term
lowers the (weight, length, inversions) well-order.  The cache of a context
holds normal forms of whole words only: the raw words given to
``normalize_terms`` and the bracket words met on the way, never the partly
sorted words in between.

Rewriting runs in integers: a context reads its brackets as they are, and
``LieAlgebraData``'s table and the Yangian's brackets hold ``int`` where the
denominator is 1, so for integral structure constants (every preset and
the Yangian) a word's normal form is integral; other algebras mix ``int``
and ``Fraction``.  ``normalize_terms`` takes integer numerators over one
denominator, accumulates normal forms, and divides once at the end.  An
``NCPoly`` built from raw ``Fraction`` terms clears their denominators once,
with their lcm.  A product or commutator builds its raw words with integer
coefficients over the two operands' common denominators and is normalized
once; a commutator never normalizes u*v and v*u separately, and a raw word
whose coefficient cancels to 0 is skipped.
``NCPoly.terms`` always holds nonzero ``Fraction``s.

A word is a ``str`` with one code point per letter: letter i is ``chr(i)``
and the empty word is ``""``; ``word`` turns letter indices into a word.  A
``str`` caches its hash, so a word key hashes once however many dicts it
enters, and ``str`` order on code points is tuple order on the letter
indices, so sorting words by (len(w), w) is unchanged.  Every code point is
a letter, so there is no 256-letter limit as with ``bytes``.

Talalaev's cdet(d_z - L(z)) is ``scalars.leibniz_det`` over ``Series``
entries with keys (s, k, word) for z^(-s) d_z^k word, multiplied by the
Weyl rule for d_z past z^(-s); the expansion is exact in z.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, Sequence, Tuple

from .commpoly import CommPoly, mono_deg2, var_of
from .errors import ValidationError
from .liealg import LieAlgebraData, gl_algebra
from .scalars import Series, leibniz_det, over_common_denominator, ratstr

Word = str  # letter i is chr(i)
Terms = Dict[Word, Fraction]


def word(letters: Iterable[int]) -> Word:
    """The word of a sequence of letter indices."""
    return "".join(map(chr, letters))


class PBWContext:
    """Fixed-order generators plus a bracket table; hosts normal forms."""

    def __init__(self, gens: Sequence[Hashable],
                 bracket_fn: Callable[[int, int], Terms],
                 labels: Sequence[str] | None = None) -> None:
        self.gens = list(gens)
        self.index = {g: i for i, g in enumerate(self.gens)}
        self.bracket_fn = bracket_fn
        self.labels = list(labels) if labels else [str(g) for g in self.gens]
        self._nf_cache: Dict[Word, Terms] = {}
        self._br_cache: Dict[Tuple[str, str], Terms] = {}

    def gen(self, key: Hashable) -> "NCPoly":
        return NCPoly(self, {chr(self.index[key]): Fraction(1)})

    def one(self) -> "NCPoly":
        return NCPoly(self, {"": Fraction(1)})

    def zero(self) -> "NCPoly":
        return NCPoly(self, {})

    def normal_form(self, word: Word) -> Terms:
        """The normal form of ``word`` by one-step insertion, memoized on the
        whole word; the words on the way to it are not memoized."""
        cached = self._nf_cache.get
        out = cached(word)
        if out is not None:
            return out
        out = {}
        get = out.get
        brackets = self._br_cache
        w = word
        for k in range(1, len(w)):
            x = w[k]
            if w[k - 1] <= x:
                continue
            # x moves past the letters h = w[pos:k], each adding h x -> [h, x]
            pos = bisect_right(w, x, 0, k)
            rest = w[k + 1:]
            for i in range(pos, k):
                h = w[i]
                br = brackets.get((h, x))
                if br is None:
                    br = brackets[h, x] = self.bracket_fn(ord(h), ord(x))
                if br:
                    pre, post = w[:i], w[i + 1:k] + rest
                    for bw, c in br.items():
                        u = pre + bw + post
                        nf = cached(u)
                        if nf is None:
                            nf = self.normal_form(u)
                        for v, d in nf.items():
                            out[v] = get(v, 0) + c * d
            w = w[:pos] + x + w[pos:k] + rest
        out[w] = get(w, 0) + 1
        out = {v: c for v, c in out.items() if c != 0}
        self._nf_cache[word] = out
        return out

    def normalize_terms(self, terms: Dict[Word, int], den: int = 1) -> Terms:
        """The normal form of (sum of terms) / den for integer numerators
        ``terms``, as nonzero Fractions."""
        out: Terms = {}
        get = out.get
        cached = self._nf_cache.get
        for w, c in terms.items():
            if not c:
                continue
            nf = cached(w)
            if nf is None:
                nf = self.normal_form(w)
            for v, d in nf.items():
                out[v] = get(v, 0) + c * d
        return {w: Fraction(c, den) for w, c in out.items() if c != 0}


class NCPoly:
    """Enveloping-algebra element in PBW normal form (nondecreasing words)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: PBWContext, terms: Terms, normalized: bool = False) -> None:
        self.ctx = ctx
        self.terms = terms if normalized else ctx.normalize_terms(
            *over_common_denominator(terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        assert self.ctx is other.ctx
        t = dict(self.terms)
        for w, c in other.terms.items():
            nc = t.get(w, Fraction(0)) + c
            if nc == 0:
                t.pop(w, None)
            else:
                t[w] = nc
        return NCPoly(self.ctx, t, normalized=True)

    def __neg__(self):
        return NCPoly(self.ctx, {w: -c for w, c in self.terms.items()}, normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "NCPoly":
        c = Fraction(c)
        if c == 0:
            return NCPoly(self.ctx, {}, normalized=True)
        return NCPoly(self.ctx, {w: x * c for w, x in self.terms.items()}, normalized=True)

    def _product(self, other: "NCPoly", commute: bool) -> "NCPoly":
        """self*other, or self*other - other*self, normalized once."""
        assert self.ctx is other.ctx
        a, da = over_common_denominator(self.terms)
        b, db = over_common_denominator(other.terms)
        raw: Dict[Word, int] = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                c = c1 * c2
                w = w1 + w2
                raw[w] = raw.get(w, 0) + c
                if commute:
                    w = w2 + w1
                    raw[w] = raw.get(w, 0) - c
        return NCPoly(self.ctx, self.ctx.normalize_terms(raw, da * db), normalized=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._product(other, False)

    __rmul__ = __mul__

    def commutator(self, other: "NCPoly") -> "NCPoly":
        return self._product(other, True)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def render(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda w: (len(w), w))
        parts = []
        for w in keys:
            mono = "*".join(self.ctx.labels[ord(g)] for g in w) if w else "1"
            parts.append(f"{ratstr(self.terms[w])}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return self.render()


# -- concrete contexts -----------------------------------------------------------


def _loop_context(alg: LieAlgebraData, n: int, product: Callable[[int, int], int | None],
                  label: Callable[[str, int], str]) -> PBWContext:
    """U(g ox A) for a commutative A with basis b_0..b_(n-1) whose products
    are basis elements or 0: ``product(i, j)`` is the index of b_i b_j, or
    None.  Generators (i, a) = b_i x_a in that order, with
    [b_i x_a, b_j x_b] = b_i b_j [x_a, x_b]."""
    gens = [(i, a) for i in range(n) for a in range(alg.dim)]

    def bracket(gi: int, gj: int) -> Terms:
        (i, a), (j, b) = gens[gi], gens[gj]
        k = product(i, j)
        if k is None:
            return {}
        return {chr(k * alg.dim + d): c for d, c in alg.bracket_coeffs(a, b).items()}

    return PBWContext(gens, bracket, labels=[label(alg.labels[a], i) for i, a in gens])


@functools.cache
def tensor_context(alg: LieAlgebraData, n: int) -> PBWContext:
    """U(g)^{tensor n} = U(g ox C^n), b_i b_j = delta_ij b_i; generators
    (copy, basis index), copies commute."""
    return _loop_context(alg, n, lambda i, j: i if i == j else None,
                         lambda lab, i: f"{lab}({i + 1})")


@functools.cache
def current_context(alg: LieAlgebraData, R: int) -> PBWContext:
    """U(g ox C[t]/t^R), t^i t^j = t^(i+j) or 0; generators (t-degree,
    basis index), honest quotient."""
    return _loop_context(alg, R, lambda i, j: i + j if i + j < R else None,
                         lambda lab, r: f"{lab}[{r}]")


def symmetrize(ctx: PBWContext, p: CommPoly) -> NCPoly:
    """PBW symmetrization CommPoly -> NCPoly.

    Variables (a, r) map to current-context generators (r, a); for an
    R-independent context pass any context whose generator keys are (r, a).
    """
    raw: Terms = {}
    for m, c in p.terms.items():
        w = word(ctx.index[(r, a)] for a, r in map(var_of, m))
        share = Fraction(c) / math.factorial(len(w))
        for perm in map("".join, itertools.permutations(w)):
            raw[perm] = raw.get(perm, Fraction(0)) + share
    return NCPoly(ctx, raw)


# -- Gaudin evaluation -------------------------------------------------------------


def gaudin_evaluation(alg: LieAlgebraData, p, zs: Sequence[Fraction]) -> NCPoly:
    """Evaluation x[r] -> sum_i z_i^r x^(i) into U(g)^{tensor n}.

    Accepts a CommPoly (symmetrized first, in a current context that keeps
    every bracket [x[r], y[s]] of its monomials) or an NCPoly over a current
    context.  Each word expands over the copies into raw tensor words, and
    all of them are normalized once.  Repeated evaluation points are
    rejected.
    """
    zs = [Fraction(z) for z in zs]
    if len(set(zs)) != len(zs):
        raise ValidationError("evaluation points must be pairwise distinct")
    tctx = tensor_context(alg, len(zs))
    if isinstance(p, CommPoly):
        R = max(map(mono_deg2, p.terms), default=0) + 1
        p = symmetrize(current_context(alg, R), p)
    images: Dict[str, list] = {}  # letter -> [(tensor letter, coefficient)]
    raw: Terms = {}
    for w, c in p.terms.items():
        partial = {"": c}
        for g in w:
            image = images.get(g)
            if image is None:
                r, a = p.ctx.gens[ord(g)]
                image = images[g] = [(chr(tctx.index[(copy, a)]), zr)
                                     for copy, zr in enumerate(z ** r for z in zs) if zr]
            partial = {u + x: cu * cx for u, cu in partial.items() for x, cx in image}
        for u, cu in partial.items():
            raw[u] = raw.get(u, 0) + cu
    return NCPoly(tctx, raw)


def casimir_tensor(alg: LieAlgebraData, tctx: PBWContext, i: int, j: int) -> NCPoly:
    """Omega_ij = sum_a x_a^(i) x^{a,(j)} acting in copies i, j."""
    ginv = alg.gram_inv
    raw: Terms = {}
    for a in range(alg.dim):
        for b in range(alg.dim):
            c = ginv[b][a]
            if c:
                w = word((tctx.index[(i, a)], tctx.index[(j, b)]))
                raw[w] = raw.get(w, Fraction(0)) + c
    return NCPoly(tctx, raw)


# -- column-determinant generators ---------------------------------------------------


def _weyl_join(k1, k2):
    """Basis product of z^(-s) d^k w, keys (s, k, w): the words w commute with z
    and d, and d^k z^(-s) = sum_j C(k,j) (-1)^j s(s+1)..(s+j-1) z^(-s-j) d^(k-j)."""
    (s1, d1, w1), (s2, d2, w2) = k1, k2
    for j in range(d1 + 1):
        c = math.comb(d1, j)
        for t in range(j):
            c *= -(s2 + t)
        if c:
            yield (s1 + s2 + j, d1 - j + d2, w1 + w2), c


def talalaev_generators(n: int, R: int):
    """Coefficients of cdet(d_z - L(z)), L(z)_ij = sum_{r<R} e_ij[r] z^(-r-1).

    Returns records (family index i, z-power s, NCPoly) for the z^(-s)
    coefficient of the d_z^(n-i) part, normal-ordered in U(gl_n ox C[t]/t^R).
    The expansion is exact in z.
    """
    ctx = current_context(gl_algebra(n), R)

    def entry(i: int, j: int) -> Series:
        terms = {(0, 1, ""): 1} if i == j else {}
        for r in range(R):
            terms[(r + 1, 0, chr(ctx.index[(r, i * n + j)]))] = -1
        return Series(terms, _weyl_join)

    coeffs: Dict[Tuple[int, int], Terms] = {}
    for (s, k, w), c in leibniz_det(n, entry).terms.items():
        coeffs.setdefault((s, k), {})[w] = c
    out = []
    for (s, k), terms in sorted(coeffs.items()):
        if s == 0:
            continue  # the pure d^n term
        p = NCPoly(ctx, terms)
        if not p.is_zero():
            out.append((n - k, s, p))
    return out
