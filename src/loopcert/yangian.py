"""The Yangian of gl_n in RTT presentation: generators t_ij^(r), the
defining commutation relations as a rewriting system, quantum minors,
Bethe generator series tau_k(u, C), and both associated-graded maps.

The expanded pairwise relation

    [t_ij^(r), t_kl^(s)] = sum_{p=1}^{min(r,s)}
        ( t_kj^(p-1) t_il^(r+s-p) - t_kj^(r+s-p) t_il^(p-1) ),  t^(0) = delta,

is the working form; ``rtt_relation_checks`` certifies it against the
R-matrix relation R(u-v) T1(u) T2(v) = T2(v) T1(u) R(u-v) with the Yang
R-matrix R(u) = 1 - P/u, order by order.

Quantum minors are ``scalars.leibniz_det`` over ``Series`` entries with keys
(s, word) for u^(-s) times a raw word; ``u_coefficient`` reads the u^(-s)
coefficient as a normal-ordered ``NCPoly``.

Truncation discipline: a context's weight bound N fixes its letters,
t_ij^(r) for r <= N.  No word is weighed: rewriting lowers the weight, so a
bracket is the only place a letter past N can be asked for, and
``_yangian_bracket`` raises ``TruncationError`` there.  Nothing is dropped;
a word past N whose rewriting needs no such letter normalizes exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .commpoly import CommPoly, monomial
from .envelop import NCPoly, PBWContext, Terms, current_context, word
from .errors import TruncationError, ValidationError
from .liealg import gl_algebra
from .scalars import Series, leibniz_det, truncated_join

GenKey = Tuple[int, int, int]  # (r, i, j), r >= 1, 1-based matrix indices


class YangianContext(PBWContext):
    """PBW context for Y(gl_n) on the letters t_ij^(r), r <= max_weight.

    Letters sort r-major, as (r, i, j), the order every rendered Yangian word
    and ``gr2``'s letter map read.  With ``matrix_major`` they sort as
    (i, j, r).  By the PBW theorem the ordered words are a basis in either
    order, so a zero test may normalize in whichever rewrites less, and
    matrix-major rewrites less: every word of [t_ij^(r), t_kl^(s)] is
    already ordered whenever (k, j) < (i, l), whatever r, s and p are, while
    r-major puts t_kj^(r+s-p) before t_il^(p-1) for every p >= 2.

    A context pickles as its ``yangian`` cache key, so a process that
    unpickles an ``NCPoly`` reads the context it already holds, or builds
    its own.
    """

    def __init__(self, n: int, max_weight: int, matrix_major: bool = False) -> None:
        self.n = n
        self.max_weight = max_weight
        self.matrix_major = matrix_major
        gens: List[GenKey] = [(r, i, j)
                              for r in range(1, max_weight + 1)
                              for i in range(1, n + 1)
                              for j in range(1, n + 1)]
        if matrix_major:
            gens.sort(key=lambda g: (g[1], g[2], g[0]))
        labels = [f"t[{i},{j};{r}]" for (r, i, j) in gens]
        self._weights = [r for r, _, _ in gens]
        super().__init__(gens, self._yangian_bracket, labels=labels)

    def _yangian_bracket(self, gi: int, gj: int) -> Dict[str, int]:
        """[t_ij^(r), t_kl^(s)] with ``int`` coefficients; ``TruncationError``
        if a word with a letter t^(q), q > N, which the context lacks, keeps a
        nonzero coefficient (in [t_ii^(r), t_ii^(s)] the two cancel)."""
        r, i, j = self.gens[gi]
        s, k, l = self.gens[gj]
        out: Dict[str | Tuple[GenKey, ...], int] = {}

        def put(c: int, *keys: GenKey):
            # a word past N has no letters: it is kept as its keys
            w = keys if max(keys)[0] > self.max_weight else word(self.index[key] for key in keys)
            out[w] = out.get(w, 0) + c

        for p in range(1, min(r, s) + 1):
            # + t_kj^(p-1) t_il^(r+s-p)
            if p - 1 == 0:
                if k == j:
                    put(1, (r + s - p, i, l))
            else:
                put(1, (p - 1, k, j), (r + s - p, i, l))
            # - t_kj^(r+s-p) t_il^(p-1)
            if p - 1 == 0:
                if i == l:
                    put(-1, (r + s - p, k, j))
            else:
                put(-1, (r + s - p, k, j), (p - 1, i, l))
        for w, c in out.items():
            if c and type(w) is tuple:
                raise TruncationError(f"[{self.labels[gi]}, {self.labels[gj]}] needs a letter "
                                      f"t^({max(w)[0]}), past truncation N={self.max_weight}")
        return {w: c for w, c in out.items() if c != 0}

    def word_weight(self, w: str) -> int:
        return sum(map(self._weights.__getitem__, map(ord, w)))

    def t(self, i: int, j: int, r: int) -> NCPoly:
        return self.gen((r, i, j))

    def __reduce__(self):
        return _yangian, (self.n, self.max_weight, self.matrix_major)


@functools.cache
def _yangian(n: int, max_weight: int, matrix_major: bool) -> YangianContext:
    return YangianContext(n, max_weight, matrix_major)


def yangian(n: int, max_weight: int, *, matrix_major: bool = False) -> YangianContext:
    """The context of Y(gl_n) at weight bound max_weight: one per (n,
    max_weight, letter order), however the order is passed."""
    return _yangian(n, max_weight, matrix_major)


yangian.cache_clear = _yangian.cache_clear


def r_major(p: NCPoly) -> NCPoly:
    """An element of a matrix-major context, normal-ordered in the r-major
    context of the same n and weight bound.  Each letter is renamed to the
    letter of its key: ordered words are a basis in either order (PBW), so
    the result is p's unique r-major normal form."""
    Y = yangian(p.ctx.n, p.ctx.max_weight)
    letters = {i: chr(Y.index[key]) for i, key in enumerate(p.ctx.gens)}
    return NCPoly(Y, {w.translate(letters): c for w, c in p.terms.items()})


def f1_degree(ctx: YangianContext, p: NCPoly) -> int:
    """Top F1 weight: max over words of sum r_k."""
    return max((ctx.word_weight(w) for w in p.terms), default=0)


def f2_degree(ctx: YangianContext, p: NCPoly) -> int:
    return max((ctx.word_weight(w) - len(w) for w in p.terms), default=0)


# -- series in u^{-1} with Yangian coefficients ----------------------------------


def t_series(ctx: YangianContext, i: int, j: int, Nmax: int, shift: int = 0) -> Series:
    """t_ij(u - shift) = delta_ij + sum_r t_ij^(r) (u - shift)^(-r), through
    u^(-Nmax), with keys (s, word) and ``int`` coefficients.  Words multiply
    by concatenation and stay raw until ``u_coefficient``, which keeps the
    minor expansion cheap."""
    terms = {(0, ""): 1} if i == j else {}
    for r in range(1, Nmax + 1):
        gi = ctx.index[(r, i, j)]
        # (u-m)^(-r) = sum_c C(r-1+c, c) m^c u^(-r-c)
        for c in range(0, Nmax - r + 1):
            coeff = math.comb(r - 1 + c, c) * shift ** c
            if coeff != 0:
                key = (r + c, chr(gi))
                terms[key] = terms.get(key, 0) + coeff
    return Series(terms, truncated_join(Nmax, operator.add))


def u_coefficient(ctx: YangianContext, series: Series, s: int) -> NCPoly:
    """The normal-ordered u^(-s) coefficient of a series with keys (s, word)."""
    return NCPoly(ctx, {w: c for (r, w), c in series.terms.items() if r == s})


def quantum_minor(ctx: YangianContext, rows: Sequence[int], cols: Sequence[int],
                  Nmax: int) -> Series:
    """Quantum minor sum_sigma sgn(sigma) t_{a_sigma(1) b_1}(u) ... t_{a_sigma(k) b_k}(u-k+1)."""
    rows = list(rows)
    cols = list(cols)
    k = len(rows)
    if k != len(cols) or k > ctx.n:
        raise ValidationError("minor shape mismatch")
    return leibniz_det(k, lambda a, c: t_series(ctx, rows[a], cols[c], Nmax, shift=c))


def bethe_generators(ctx: YangianContext, C: Sequence[Fraction], Nmax: int
                     ) -> Dict[Tuple[int, int], NCPoly]:
    """tau_k^(s) for 1 <= k <= n, 1 <= s <= Nmax, for C = diag(C_1..C_n).

    tau_k(u, C) = sum over k-subsets S of (prod_{i in S} c_i) qminor_{S,S}(u);
    all pairwise commutators vanish within the truncation weight.
    """
    if len(C) != ctx.n:
        raise ValidationError("C must be diagonal with n entries")
    out: Dict[Tuple[int, int], NCPoly] = {}
    for k in range(1, ctx.n + 1):
        series = Series({}, truncated_join(Nmax, operator.add))
        for subset in itertools.combinations(range(1, ctx.n + 1), k):
            weight = Fraction(1)
            for i in subset:
                weight *= C[i - 1]
            series = series + quantum_minor(ctx, subset, subset, Nmax).scale(weight)
        for s in range(1, Nmax + 1):
            out[(k, s)] = u_coefficient(ctx, series, s)
    return out


# -- associated graded maps ---------------------------------------------------------


def gr1(ctx: YangianContext, p: NCPoly) -> CommPoly:
    """Top-F1 part with t_ij^(r) replaced by the commuting coordinate
    Delta_ij^(r), stored as the variable (i*n + j in 0-based packing, r - 1)."""
    if p.is_zero():
        return CommPoly()
    top = f1_degree(ctx, p)
    n = ctx.n
    terms = {}
    for w, c in p.terms.items():
        if ctx.word_weight(w) != top:
            continue
        mono = monomial(((i - 1) * n + (j - 1), r - 1)
                        for r, i, j in (ctx.gens[ord(g)] for g in w))
        terms[mono] = terms.get(mono, Fraction(0)) + c
    return CommPoly(terms)


def gr2(ctx: YangianContext, p: NCPoly, R: int) -> NCPoly:
    """Top-F2 part with t_ij^(r) -> e_ij[r-1] in U(gl_n ox C[t]/t^R).

    A word holding some t^(r) with r > R maps to 0, as e[r-1] = 0 there.
    The letter map preserves the r-major generator order, so normal words of
    an r-major ``ctx`` stay normal.
    """
    tgt = current_context(gl_algebra(ctx.n), R)
    top = f2_degree(ctx, p)
    n = ctx.n
    terms: Terms = {}
    for w, c in p.terms.items():
        keys = [ctx.gens[ord(g)] for g in w]
        if ctx.word_weight(w) - len(w) != top or any(r > R for r, _, _ in keys):
            continue
        terms[word(tgt.index[(r - 1, (i - 1) * n + (j - 1))] for r, i, j in keys)] = c
    return NCPoly(tgt, terms, normalized=True)


# -- the RTT relation oracle ---------------------------------------------------------


def rtt_relation_checks(n: int, order: int) -> List[Tuple[Tuple[int, int, int, int, int, int], bool]]:
    """Certify (u-v)[t_ij(u), t_kl(v)] = t_kj(u) t_il(v) - t_kj(v) t_il(u)
    entrywise through u^(-order) v^(-order).

    This is the entrywise content of R(u-v) T1 T2 = T2 T1 R(u-v) after
    clearing the (u-v)^(-1) pole of the Yang R-matrix.  Returns one record
    per (i, j, k, l, a, b) with the boolean outcome.
    """
    ctx = yangian(n, 2 * (order + 1), matrix_major=True)  # only zero tests are read

    def pair_word(i1, j1, r1, i2, j2, r2):
        # the word of t_{i1 j1}^(r1) t_{i2 j2}^(r2) with t^(0) = delta, or
        # None where the product is 0
        if r1 < 0 or r2 < 0:
            return None
        if r1 == 0 and r2 == 0:
            return "" if (i1 == j1 and i2 == j2) else None
        if r1 == 0:
            return chr(ctx.index[(r2, i2, j2)]) if i1 == j1 else None
        if r2 == 0:
            return chr(ctx.index[(r1, i1, j1)]) if i2 == j2 else None
        return chr(ctx.index[(r1, i1, j1)]) + chr(ctx.index[(r2, i2, j2)])

    results = []
    rng = range(1, n + 1)
    for i, j, k, l in itertools.product(rng, rng, rng, rng):
        for a in range(-1, order + 1):
            for b in range(-1, order + 1):
                # the u^(-a) v^(-b) coefficient, where t_ij(u) t_kl(v) has the word
                # pair_word(i, j, a, k, l, b) and t_kl(v) t_ij(u) has
                # pair_word(k, l, b, i, j, a)
                terms = (
                    # (u-v) t_ij(u) t_kl(v)
                    (pair_word(i, j, a + 1, k, l, b), 1), (pair_word(i, j, a, k, l, b + 1), -1),
                    # - (u-v) t_kl(v) t_ij(u)
                    (pair_word(k, l, b, i, j, a + 1), -1), (pair_word(k, l, b + 1, i, j, a), 1),
                    # - t_kj(u) t_il(v) + t_kj(v) t_il(u)
                    (pair_word(k, j, a, i, l, b), -1), (pair_word(k, j, b, i, l, a), 1))
                acc: Dict[str, int] = {}
                for w, sign in terms:
                    if w is not None:
                        acc[w] = acc.get(w, 0) + sign
                results.append(((i, j, k, l, a, b), not ctx.normalize_terms(acc)))
    return results
