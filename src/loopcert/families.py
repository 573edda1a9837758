"""Named commutative families in the commutative settings: the universal
Gaudin family D^k Phi_i in S(g[t]), shift-of-argument families in S(g),
classical Bethe coefficients on the congruence-subgroup coordinates, and
the centralizer of a seed in the invariant components of S(g[t]), read on
weight-zero monomials through ``commpoly.derivation``.

Congruence coordinates gamma_ij^(r), r >= 1 (entries of g(u) = 1 + sum
g_r u^(-r)) are stored as the CommPoly variables x_(i*n + j)[r - 1], which
makes deg1/deg2 bookkeeping and the leading-term substitution
gamma_ij^(s) -> x_ij[s-1] the identity on variables.  The minors of g(u)
are ``scalars.leibniz_det`` over ``Series`` entries with keys (r, monomial)
for u^(-r) times a ``CommPoly`` monomial, with integer coefficients;
``classical_bethe``, the one builder of the classical Bethe family, weights
them along a curve C(h) over Z[h], a constant C being its value at h = 0.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .commpoly import (CommPoly, LoopAlgebra, Monomial, ZhPoly, derivation, letter,
                       monomial, mono_mul, var_of)
from .errors import RegularityError, ValidationError
from .liealg import LieAlgebraData, regular_cartan_check
from .linalg import degree_buckets, relations
from .scalars import Series, leibniz_det, mul_into, truncated_join


class FamilyElement(NamedTuple):
    poly: CommPoly
    label: str
    deg1: int
    deg2: int


# -- universal Gaudin family ---------------------------------------------------------


def gaudin_generators(alg: LieAlgebraData, kmax: int) -> List[FamilyElement]:
    """D^k Phi_i for 0 <= k <= kmax; commutative under both brackets."""
    loop = LoopAlgebra(alg)
    out = []
    for idx, inv in enumerate(alg.invariant_generators()):
        p = inv.poly
        for k in range(kmax + 1):
            if k > 0:
                p = loop.derivation_D(p)
            out.append(FamilyElement(p, f"D^{k} Phi_{idx + 1}", inv.degree + k, k))
    return out


# -- shift of argument ----------------------------------------------------------------


def directional_derivative(alg: LieAlgebraData, chi: Sequence[Fraction],
                           p: CommPoly) -> CommPoly:
    """d/ds p(x + s chi) at s = 0; chi in basis coordinates, pairing via the form."""
    pair = [sum((alg.gram[a][b] * chi[b] for b in range(alg.dim)), Fraction(0))
            for a in range(alg.dim)]
    return derivation(p, lambda a, r: CommPoly() if r else CommPoly.const(pair[a]))


def diag_to_basis(alg: LieAlgebraData, entries: Sequence[Fraction]) -> List[Fraction]:
    """Coordinates of a diagonal matrix in the basis of the algebra."""
    if len(entries) != alg.size:
        raise ValidationError("wrong number of diagonal entries")
    diag = {(i, i): x for i, x in enumerate(map(Fraction, entries)) if x}
    return alg.coordinates(diag, "diagonal matrix is not in the algebra")


def cartan_coords(alg: LieAlgebraData, chi: Sequence[Fraction]) -> List[Fraction]:
    return [Fraction(chi[c]) for c in alg.cartan_indices]


def soa_generators(alg: LieAlgebraData, chi: Sequence[Fraction]) -> List[FamilyElement]:
    """d_chi^k Phi_l for 0 <= k <= deg Phi_l - 1; chi must be regular.

    The generator count is (dim g + rk g)/2.
    """
    chi = [Fraction(x) for x in chi]
    regular_cartan_check(alg, cartan_coords(alg, chi))
    out = []
    for idx, inv in enumerate(alg.invariant_generators()):
        p = inv.poly
        for k in range(inv.degree):
            if k > 0:
                p = directional_derivative(alg, chi, p)
            if p.is_zero():
                raise RegularityError(
                    f"d_chi^{k} Phi_{idx + 1} vanished; chi is too special")
            out.append(FamilyElement(p, f"d_chi^{k} Phi_{idx + 1}",
                                     inv.degree - k, 0))
    expected = (alg.dim + alg.rank) // 2
    if len(out) != expected:
        raise ValidationError(f"generator count {len(out)} != {expected}")
    return out


# -- classical Bethe family ------------------------------------------------------------


def gamma_var(n: int, i: int, j: int, r: int) -> CommPoly:
    """gamma_ij^(r) with 1-based matrix indices, r >= 1."""
    if r < 1:
        raise ValidationError("congruence coordinates start at Fourier degree 1")
    return CommPoly.variable((i - 1) * n + (j - 1), r - 1)


def gamma_label(n: int):
    def fmt(v):
        a, r = v
        return f"gamma[{a // n + 1},{a % n + 1};{r + 1}]"
    return fmt


def _minor_series(n: int, subset: Sequence[int], Rmax: int) -> Series:
    """u-expansion of det of the (subset x subset) block of g(u), through
    u^(-Rmax), with integer coefficients."""
    join = truncated_join(Rmax, mono_mul)

    def entry(a: int, c: int) -> Series:
        i, j = subset[a], subset[c]
        terms = {(0, monomial(())): 1} if i == j else {}
        for r in range(1, Rmax + 1):
            (m,) = gamma_var(n, i, j, r).terms
            terms[(r, m)] = 1
        return Series(terms, join)

    return leibniz_det(len(subset), entry)


def classical_bethe(n: int, c: Sequence[int], p: Sequence[int], Rmax: int
                    ) -> Dict[Tuple[int, int], ZhPoly]:
    """sigma_k^(r) = [u^-r] tr Lambda^k(C g(u)) for 1 <= k <= n, 1 <= r <= Rmax,
    over Z[h] along C(h) = diag(c_i (1+h)^(p_i)), the c_i nonzero integers and
    the p_i >= 0: sum_S c_S (1+h)^(p_S) minor_S^(r) over the k-subsets S of
    1..n, c_S the product of the c_i and p_S the sum of the p_i over S.
    sigma_k has degree k in C, so a caller scales a rational C to integers by
    the lcm L of its denominators, which multiplies sigma_k by L^k and keeps
    every span; a constant C is p = 0, read by ``ZhPoly.at_zero``."""
    if len(c) != n:
        raise ValidationError("C must be diagonal with n entries")
    out: Dict[Tuple[int, int], ZhPoly] = {}
    width = sum(p) + 1  # past the sum of the p_i over any subset
    for k in range(1, n + 1):
        acc: Dict[int, Dict[Monomial, List[int]]] = {r: {} for r in range(1, Rmax + 1)}
        for S in itertools.combinations(range(1, n + 1), k):
            cS, pS = math.prod(c[i - 1] for i in S), sum(p[i - 1] for i in S)
            wS = [cS * math.comb(pS, e) for e in range(pS + 1)]
            for (r, m), x in _minor_series(n, S, Rmax).terms.items():
                if r:
                    mul_into(acc[r].setdefault(m, [0] * width), wS, (x,))
        out.update({(k, r): ZhPoly(terms) for r, terms in acc.items()})
    return out


def bethe_component_polys(sigma: Dict[Tuple[int, int], CommPoly | ZhPoly], dmax: int
                          ) -> List[List[CommPoly | ZhPoly]]:
    """Spanning sets of the graded components of degree 0..dmax: the nonzero
    products of sigma_k^(r) by total Fourier degree (each sigma_k^(r) is
    deg1-homogeneous of degree r), with 1 in degree 0; over Z[h] for a
    curve of ``classical_bethe``, over Q for its value at h = 0."""
    return degree_buckets([(sigma[key], key[1]) for key in sorted(sigma)], dmax)


# -- centralizer components ---------------------------------------------------------------


def centralizer_subalgebra(loop: LoopAlgebra, seed: CommPoly, d: int) -> List[CommPoly]:
    """Basis of the kernel of p -> {seed, p}_0 on the g-invariant part of the
    deg1 = d component of S(g[t]).

    A Cartan x_c[0] multiplies a monomial by its weight, the sum of its
    letters' ``weights`` (every basis vector is a weight vector), so the
    invariants lie on the weight-zero monomials.  There they are the common
    kernel of the derivations {x_a[0], .}_0 for a outside the Cartan, whose
    image of x_b[r] is [x_a, x_b][r]; each preserves deg1.
    """
    alg = loop.alg
    monos = [m for m in loop.component_monomials(d)
             if not any(map(sum, zip(*(alg.weights[var_of(v)[0]] for v in m))))]

    def ad(a):  # x_b[r] -> {x_a[0], x_b[r]}_0 = [x_a, x_b][r]
        return lambda b, r: CommPoly({letter(e, r): x for e, x in alg.bracket_coeffs(a, b).items()})
    outside = [a for a in range(alg.dim) if a not in alg.cartan_indices]
    images = [{(a, n): c for a in outside
               for n, c in derivation(CommPoly({m: 1}), ad(a)).terms.items()} for m in monos]
    basis = [CommPoly({monos[i]: x for i, x in v.items()}) for v in relations(images)]
    images = [loop.poisson0(seed, p).terms for p in basis]
    return [sum((basis[i].scale(ci) for i, ci in c.items()), CommPoly())
            for c in relations(images)]


def embed_subalgebra_poly(sub: LieAlgebraData, p: CommPoly) -> CommPoly:
    """Reindex a polynomial over a centralizer into the ambient algebra's
    variables via the stored embedding."""
    if sub.ambient_indices is None:
        raise ValidationError("subalgebra has no ambient embedding")
    amb = sub.ambient_indices
    return CommPoly({monomial((amb[a], r) for a, r in map(var_of, m)): c
                     for m, c in p.terms.items()})
