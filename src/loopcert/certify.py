"""Named certificate suites: each builds the relevant families, runs the
exact checks, and returns a structured report (consumed by the CLI and by
the acceptance tests).

Every check is exact rational arithmetic; a failing check carries a minimal
witness: a nonzero normal form, a dimension mismatch, or a vector in one
span and not the other (``_span_check``).  A span is taken over its
support (``_support``), the monomials or words its sides hold in the order
of their component, since a column that no row holds changes no row; only
the centralizer suite enumerates whole components.  The Jacobian points
are drawn by one function, ``linalg.drawn_jacobian_pivots``, over the
letters the family holds: ``verify_soa`` seeds it and logs resampling
events; ``poincare_bethe`` seeds 0, and its point only decides whether a
PASS is proven there or by elimination, so its report does not depend on it.

The PBW commutativity suites (``verify_bethe``, ``verify_eval_gaudin`` and
``verify_talalaev``) share one sweep, ``_commutes``.  It brackets the
reduced echelon basis of the family's span (``_span_basis``), not the
family: the commutator is bilinear, so a family commutes pairwise iff that
basis does, and the basis is usually far sparser than the family.
``verify-bethe --workers`` sends the basis pairs to a process pool.  Only
when a basis pair fails are the family's own pairs bracketed, in this
process, for the witness: the first failing pair in index order.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .commpoly import CommPoly, LoopAlgebra, mono_deg1, mono_deg2
from .envelop import (NCPoly, casimir_tensor, current_context, gaudin_evaluation,
                      talalaev_generators, tensor_context)
from .errors import BoundsError, RegularityError, ValidationError
from .families import (bethe_component_polys, centralizer_subalgebra,
                       classical_bethe, diag_to_basis,
                       embed_subalgebra_poly, gamma_label, gaudin_generators,
                       soa_generators)
from .liealg import centralizer, gl_algebra, preset, resolve_algebra
from .linalg import (Subspace, bigraded_block, degree_buckets, drawn_jacobian_pivots,
                     echelon, free_series_coeffs, generator_products, limit_subspace)
from .scalars import over_common_denominator, parse_rational, ratstr
from .yangian import bethe_generators, gr2, r_major, rtt_relation_checks, yangian


# -- admission ------------------------------------------------------------------------------

# The range of every bounded job parameter: BOUNDS[suite][name] = (lo, hi), hi
# a {n: hi} entry where it depends on n for gl_n.  Each hi is the largest value
# measured to finish (README, "Time at the CLI bounds").  The CLI checks every
# option here before it calls a suite, and a refusal names the parameter by its
# key; verify_centralizer and verify_eval_gaudin read their measured rules here.
BOUNDS = {
    "verify-rtt": {"n": (1, 3), "order": (1, 6)},  # 0.2 s and 21 MB at the bounds
    # max-deg: time and memory grow 6-10x per degree; gl3 took 5.0 s and 217 MB
    # at 7, gl4 6.2 s and 278 MB at 5 and 61 s and 1.88 GB at 6.
    # workers: the pool starts all of its workers at once; at gl3 degree 7,
    # pools of 2, 4 and 8 peaked at 343, 512 and 728 MB summed over their
    # workers (the largest worker 177, 147 and 147 MB), and 8 is the largest
    # pool measured
    "verify-bethe": {"n": (1, 4), "max-deg": (1, {1: 8, 2: 8, 3: 7, 4: 5}), "workers": (1, 8)},
    "verify-gaudin": {"kmax": (0, 6)},  # sl3 1.3 s and 24 MB, gl3 1.4 s and 27 MB
    "verify-talalaev": {"n": (1, 3), "R": (1, 4), "max-deg": (1, 6)},  # 2.5 s, 156 MB
    "gr theorem-A": {"max-deg": (1, 5)},  # gl4: 0.38 s and 32 MB
    # monomials in one deg1-component, counted before anything is built: gl4 at
    # degree 5 has 33440 and takes 4.5 s and 304 MB; at degree 6 it has 155584
    "gr centralizer": {"max-deg": (0, 6), "monomials": (0, 33440)},
    # cutoff: the bound is the elimination's, which a FAIL still runs (gl4 at
    # regular C: 7.7-8.8 s and 135 MB at 6, alone in a fresh process); a PASS,
    # proven by a Jacobian rank at one point, took at most 0.3 s in process at
    # cutoff 10
    "poincare bethe": {"cutoff": (1, 6)},
    # deg at C0 = E, the slowest C0 tried: gl3 took 20 s at 5 and 190 s at 6,
    # gl4 20 s at 4 (it ran past 200 s at 5 with the curve over Q[h]); gl2
    # took 7.8 s at 8, and gl1 and gl2 are capped at 8 as verify-bethe is
    # curve degree: sum(p - min p) (_curve_exponents), the degree in h of
    # sigma_n, checked by verify_theorem_B before the curve is built; at the
    # deg bounds and C0 = E, 100 took 78 s and 298 MB (gl2), 57 s (gl3) and
    # 62 s (gl4); gl2 took 178 s and 456 MB at 136, and 127 s at 1999 (--deg 2)
    "limit": {"n": (1, 4), "deg": (1, {1: 8, 2: 8, 3: 5, 4: 4}), "curve degree": (0, 100)},
    # n points need kmax >= 2(n-1), so kmax 8 admits 5; verify_eval_gaudin
    # admits fewer past invariant degree 2: sl3 took 7.4 s and 231 MB with four
    # points (105 s and 848 MB with five, in an earlier sitting), and gl4 34 s
    # and 1237 MB with two
    "eval-gaudin": {"number of --z points": (1, 5), "kmax": (1, 8)},
    # bethe and classical-bethe: gl4 at max-deg 6 under 1 s and 20 MB;
    # classical-bethe ran past 60 s at gl8
    "gens bethe": {"n": (1, 4), "max-deg": (1, 6)},
    "gens gaudin": {"max-deg": (0, 6)},  # gl4: 0.6 s and 21 MB
    "gens talalaev": {"n": (1, 3), "R": (1, 4)},  # 0.2 s and 17 MB
    # digits of a numerator or denominator that parse_rational reads: a product
    # of n <= 4 entries stays under the 4300-digit int-to-str limit, which
    # ratstr hit; 1e3000000 ran past 30 s in Fraction
    "rationals": {"digits": (1, 1000)},
    # config, read by algebra_from_dict before anything is built: dim, the number
    # of basis matrices, whose pairs the closure check multiplies: gl11's matrix
    # units (121) load in 0.3-0.4 s with block degrees 1..4, gl16's (256) in 0.7-0.8 s,
    # and gl11 in a unitriangular basis in 2.3-2.8 s (25-32 s with every matrix
    # entry and coordinate a Fraction); degree, the largest invariant
    # degree of a block, as tr X^k is built at load: gl11 took 2.2 s with
    # degrees 1..5 and 31 s and 310 MB with 1..6, gl8 28 s with 1..7
    "config": {"dim": (0, 121), "degree": (1, 6)},
}


class Check:
    """One exact check: its details for the JSON report and, when it fails,
    a witness.  It passes iff it has no witness, so no FAIL lacks one.
    ``details`` defaults to a new dict per check."""

    __slots__ = ("name", "details", "witness")

    def __init__(self, name: str, details: Optional[dict] = None,
                 witness: Optional[str] = None) -> None:
        self.name = name
        self.details = {} if details is None else details
        self.witness = witness

    @property
    def passed(self) -> bool:
        return self.witness is None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self):
        return f"Check({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"


class Report(NamedTuple):
    command: str
    params: dict
    checks: List[Check]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": "loopcert-report/1",
            "command": self.command,
            "params": _jsonable(self.params),
            "pass": self.passed,
            "checks": [
                {"name": c.name, "pass": c.passed,
                 "details": _jsonable(c.details), "witness": c.witness}
                for c in self.checks
            ],
        }

    def summary_lines(self) -> List[str]:
        return [f"[PASS] {c.name}" if c.passed else f"[FAIL] {c.name}  witness: {c.witness}"
                for c in self.checks] + [
            f"=> {self.command}: {'all checks passed' if self.passed else 'FAILURES present'}"]


def _jsonable(x):
    if isinstance(x, Fraction):
        return ratstr(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def parse_entries(spec: Sequence) -> List[Fraction]:
    """The entries of ``spec`` as exact rationals: each an ``int``, a
    ``Fraction`` or a ``str`` read by ``parse_rational``.  A float would carry
    its binary expansion into every coefficient, so it is refused, as is
    anything else."""
    if not all(isinstance(e, (int, str, Fraction)) for e in spec):
        raise ValidationError(f"entries {list(spec)!r} must be exact: int, str or Fraction")
    try:
        return [parse_rational(str(e)) for e in spec]
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def parse_torus(spec: Sequence) -> List[Fraction]:
    """The diagonal entries C_1..C_n of a torus element C, each nonzero."""
    C = parse_entries(spec)
    if not all(C):
        raise ValidationError("torus entries must be invertible (nonzero)")
    return C


def _clear_denominators(entries: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(L * entries as integers, L), L the lcm of the entries' denominators."""
    nums, L = over_common_denominator(dict(enumerate(entries)))
    return list(nums.values()), L


def _constant_bethe(n: int, C: Sequence[Fraction], Rmax: int) -> Dict[Tuple[int, int], CommPoly]:
    """sigma_k^(r)(L C) = L^k sigma_k^(r)(C), L the lcm of C's denominators."""
    sigma = classical_bethe(n, _clear_denominators(C)[0], [0] * n, Rmax)
    return {key: s.at_zero() for key, s in sigma.items()}


def _commutators(elems: Sequence) -> Iterator[Tuple[int, int, object]]:
    """(i, j, [elems[i], elems[j]]) for every i < j, in (i, j) order."""
    for (i, a), (j, b) in itertools.combinations(enumerate(elems), 2):
        yield i, j, a.commutator(b)


def _first_failing(brackets: Iterable[tuple]) -> Optional[tuple]:
    """The first (i, j, ..., value) of ``brackets`` with a nonzero value, in
    index order, or None when every value is zero."""
    return min((b for b in brackets if b[-1]), key=lambda b: b[:-1], default=None)


def _span_basis(elems: Sequence[NCPoly]) -> List[NCPoly]:
    """The reduced echelon basis of span(elems), as normalized ``NCPoly``s.
    Its columns are the words of elems ordered by (len(w), w) descending, so
    each row's pivot is its largest word."""
    if not elems:
        return []
    words = sorted({w for p in elems for w in p.terms}, key=lambda w: (len(w), w), reverse=True)
    index = {w: j for j, w in enumerate(words)}
    ctx = elems[0].ctx
    return [NCPoly(ctx, {words[j]: c for j, c in row.items()}, normalized=True)
            for _, row in echelon({index[w]: c for w, c in p.terms.items()} for p in elems)]


def _support(*families: Iterable, key: Optional[Callable] = None) -> list:
    """The monomials or words that the elements of the families hold, sorted
    (by ``key``): the only columns where a span of them can be nonzero.
    Sorted as their full component is, they give every echelon row, keyed by
    label, that the full component gives."""
    return sorted({m for family in families for p in family for m in p.terms}, key=key)


def _span_check(name: str, left: Tuple[str, Subspace], right: Tuple[str, Subspace],
                render: Callable[[dict], str]) -> Check:
    """Whether two (name, subspace) sides of one component have equal rows,
    with each dim as "<name>_dim".  A FAIL's witness gives both dims and the
    first basis row of one side outside the other, its terms {ambient label:
    coefficient} written by ``render``; one exists when the spans differ."""
    (a, A), (b, B) = left, right
    witness = None if A.rows == B.rows else f"dims {A.dim} vs {B.dim}"
    for (x, X), (y, Y) in [(left, right), (right, left)] if witness else []:
        row = X.witness_missing_from(Y)
        if row is not None:
            terms = {X.ambient[j]: c for j, c in row.items()}
            witness += f": {x} holds {render(terms)} outside {y}"
            break
    return Check(name, {f"{a}_dim": A.dim, f"{b}_dim": B.dim}, witness)


def _loop_text(alg) -> Callable[[dict], str]:
    """Terms {monomial: c} as ``CommPoly.render`` writes them, x_a[r] as label_a[r]."""
    return lambda terms: CommPoly(terms).render(lambda v: f"{alg.labels[v[0]]}[{v[1]}]")


def _commutes(elems: Sequence[NCPoly], workers: int = 1) -> bool:
    """Whether elems commute pairwise, decided on the pairs of
    ``_span_basis(elems)``: elems commute iff that basis does.  With
    workers > 1 the pairs go, pickled, to a pool of at most that many
    processes, and every result is read, so no error raised in a worker goes
    unseen."""
    pairs = list(itertools.combinations(_span_basis(elems), 2))
    workers = min(workers, len(pairs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers) as pool:
            return not any(list(pool.map(_fails, pairs)))
    return not any(map(_fails, pairs))


def _fails(pair: Tuple[NCPoly, NCPoly]) -> bool:
    """Whether the two elements of a pair fail to commute."""
    a, b = pair
    return bool(a.commutator(b))


def _first_noncommuting(elems: Sequence[NCPoly]) -> Optional[tuple]:
    """``_first_failing(_commutators(elems))``, or None when ``_commutes(elems)``:
    only a FAIL brackets the pairs of elems themselves, for the witness."""
    return None if _commutes(elems) else _first_failing(_commutators(elems))


# -- 1. RTT relation oracle -------------------------------------------------------------


def verify_rtt(n: int, order: int) -> Report:
    """R(u-v) T1(u) T2(v) = T2(v) T1(u) R(u-v) entrywise through the given order."""
    results = rtt_relation_checks(n, order)
    bad = [key for key, ok in results if not ok]
    checks = [Check(
        name=f"rtt entrywise identity n={n} through u^-{order} v^-{order}",
        details={"checked_coefficients": len(results), "failures": len(bad)},
        witness=None if not bad else f"first failing (i,j,k,l,a,b) = {bad[0]}")]
    return Report("verify-rtt", {"n": n, "order": order}, checks)


# -- 2. Bethe commutativity ----------------------------------------------------------------


def verify_bethe(n: int, entries: Sequence, smax: int, workers: int = 1) -> Report:
    """All pairwise commutators of tau_k^(s), s <= smax, are exactly zero.
    The taus are built once, normalized matrix-major, which rewrites less,
    and ``_commutes`` decides on them with at most ``workers`` processes,
    never more than the measured bound.  Only a FAIL brackets every pair of
    taus, in this process, each commutator written in r-major words
    (``r_major``) for the listing and the witness."""
    entries = parse_torus(entries)
    taus = bethe_generators(yangian(n, 2 * smax, matrix_major=True), entries, smax)
    pairs = list(itertools.combinations(sorted(taus), 2))
    if _commutes([taus[k] for k in sorted(taus)],
                 min(workers, BOUNDS["verify-bethe"]["workers"][1])):
        comms = ["0"] * len(pairs)
    else:
        comms = [r_major(taus[ka].commutator(taus[kb])).render() for ka, kb in pairs]
    nonzero = [(ka, kb, w) for (ka, kb), w in zip(pairs, comms) if w != "0"]
    pair_listing = [{"pair": f"tau_{ka[0]}^({ka[1]}) vs tau_{kb[0]}^({kb[1]})", "commutator": w}
                    for (ka, kb), w in zip(pairs, comms)]
    checks = [Check(
        name=f"bethe commutativity gl{n}, C=diag({','.join(map(ratstr, entries))}), "
             f"s<={smax}: {len(pairs)} pairs",
        details={"pairs_checked": len(pairs), "nonzero_pairs": len(nonzero),
                 "pairs": pair_listing},
        witness=None if not nonzero else
        f"[tau{nonzero[0][0]}, tau{nonzero[0][1]}] = {nonzero[0][2]}")]
    return Report("verify-bethe",
                  {"n": n, "C": entries, "smax": smax}, checks)


# -- 3. size / Poincare series ---------------------------------------------------------------


def _free_at_a_point(sigma: Dict[Tuple[int, int], CommPoly], degrees: Sequence[int]) -> bool:
    """Whether the sigma_k^(r) are proven to generate the polynomial algebra
    on generators of the given degrees, r being the degree of sigma_k^(r).

    Walked by degree, the sigmas that raise the Jacobian rank at a seeded
    integer point (``drawn_jacobian_pivots``) are algebraically independent, so
    their products are linearly independent.  When their degrees are
    ``degrees`` and every other sigma lies in the span of the products of
    theirs in its degree, the sigmas generate the same algebra, free on
    them.  A point is resampled, at most 20 times, while the rank is short.
    False when it stays short, or when a degree or a membership does not
    match; full rank alone proves nothing when a sigma is missing."""
    keys = sorted(sigma, key=lambda key: key[::-1])
    polys, degs = [sigma[key] for key in keys], [r for _, r in keys]
    kept, _ = drawn_jacobian_pivots(polys, len(degrees), random.Random(0))
    if sorted(degs[i] for i in kept) != sorted(degrees):
        return False
    dropped = sorted(set(range(len(polys))) - set(kept))
    if not dropped:
        return True
    buckets = degree_buckets([(polys[i], degs[i]) for i in kept], max(degs[i] for i in dropped))
    spans = {d: Subspace.span_of(buckets[d], _support(buckets[d]))
             for d in {degs[i] for i in dropped}}
    return all(spans[degs[i]].contains_poly(polys[i]) for i in dropped)


def _eliminated_dims(sigma: Dict[Tuple[int, int], CommPoly], cutoff: int) -> List[int]:
    """The dimensions of the graded components of degree 0..cutoff of the
    algebra the sigmas generate, each the rank of the products in its degree."""
    buckets = bethe_component_polys(sigma, cutoff)
    return [1] + [Subspace.span_of(b, _support(b)).dim for b in buckets[1:]]


def poincare_bethe(n: int, entries: Sequence, cutoff: int) -> Report:
    """Graded dimensions of the classical Bethe subalgebra against the free
    predictions.

    Two checks: the exact dimensions equal the free series on the degree
    sets {m_i+1, m_i+2, ...} for the exponents of the centralizer z(C)
    (reductive conventions), and they dominate the free series built from
    the ambient gl_n exponents, which is the universal-in-C lower bound.
    The first is proven by a Jacobian rank at one point
    (``_free_at_a_point``); only when that proof fails are the dimensions
    found by eliminating every product, which gives a FAIL its witness.
    """
    entries = parse_torus(entries)
    gl = preset(f"gl{n}")
    sigma = _constant_bethe(n, entries, cutoff)
    z = centralizer(n, entries)
    degrees = [d for m in z.exponents for k in range(cutoff) if (d := m + 1 + k) <= cutoff]
    expected = free_series_coeffs(degrees, cutoff)
    lower = free_series_coeffs([m + 1 + k for m in gl.exponents for k in range(cutoff)], cutoff)
    dims = expected if _free_at_a_point(sigma, degrees) else _eliminated_dims(sigma, cutoff)
    checks = [
        Check(
            name=f"poincare gl{n} C=diag({','.join(map(ratstr, entries))}): free series on "
                 f"centralizer exponent degree sets through q^{cutoff}",
            details={"dims": dims, "expected": expected,
                     "centralizer_exponents": z.exponents},
            witness=None if dims == expected else f"dims {dims} != expected {expected}"),
        Check(
            name=f"poincare gl{n}: dominates the ambient-exponent lower-bound series",
            details={"dims": dims, "lower_bound": lower,
                     "ambient_exponents": gl.exponents},
            witness=None if all(a >= b for a, b in zip(dims, lower)) else
            f"dims {dims} below bound {lower}"),
    ]
    return Report("poincare", {"n": n, "C": entries, "cutoff": cutoff}, checks)


# -- 4. bihamiltonian Gaudin family ---------------------------------------------------------


def verify_gaudin(alg_name: str, kmax: int) -> Report:
    """D^k Phi_i pairwise commute under both brackets (and hence the pencil)."""
    alg = resolve_algebra(alg_name)
    loop = LoopAlgebra(alg)
    gens = gaudin_generators(alg, kmax)
    bad = _first_failing(loop.pairwise_brackets([g.poly for g in gens], (0, 1)))
    npairs = math.comb(len(gens), 2)
    return Report("verify-gaudin", {"algebra": alg_name, "kmax": kmax}, [
        Check(name=f"gaudin family {alg_name}, k<={kmax}: {npairs} pairs under "
                   "poisson0 and poisson1",
              details={"generators": [g.label for g in gens],
                       "pairs_checked": npairs},
              witness=None if bad is None else
              f"{{{gens[bad[0]].label}, {gens[bad[1]].label}}}_{bad[2]} = "
              f"{_loop_text(alg)(bad[3].terms)}")])


# -- 5. centralizer characterization ----------------------------------------------------------


def _component_sizes(dim: int, dmax: int) -> List[int]:
    """Monomials per deg1-component 0..dmax: prod over x_a[r] of (1 - q^(r+1))^(-1)."""
    return free_series_coeffs([r + 1 for r in range(dmax) for _ in range(dim)], dmax)


def verify_centralizer(alg_name: str, dmax: int) -> Report:
    """The invariant centralizer of Omega under {,}_0 per deg1-component
    equals the Gaudin component."""
    alg = resolve_algebra(alg_name)
    most = BOUNDS["gr centralizer"]["monomials"][1]
    for d, size in enumerate(_component_sizes(alg.dim, dmax)):
        if size > most:
            raise BoundsError(
                f"gr centralizer: the deg1 = {d} component of {alg_name} has {size} monomials, "
                f"past the {most} of the largest one measured to finish")
    loop = LoopAlgebra(alg)
    Om = loop.Omega()
    mindeg = min(m + 1 for m in alg.exponents)
    gens = [(g.poly, g.deg1) for g in gaudin_generators(alg, max(0, dmax - mindeg))]
    buckets = degree_buckets(gens, dmax)
    checks = [_span_check(
        f"Omega-centralizer (invariant, bracket 0) == Gaudin component, deg1={d}",
        ("centralizer", centralizer_subalgebra(loop, Om, d)),
        ("gaudin", Subspace.span_of(buckets[d], loop.component_monomials(d))), _loop_text(alg))
        for d in range(dmax + 1)]
    return Report("gr", {"algebra": alg_name, "dmax": dmax,
                         "comparison": "omega-centralizer"}, checks)


# -- 6. Theorem A at truncation -----------------------------------------------------------------


def _bideg(m) -> Tuple[int, int]:
    return (mono_deg1(m), mono_deg2(m))


def verify_theorem_A(n: int, entries: Sequence, rmax: int) -> Report:
    """Leading-term spans of the classical Bethe family equal the Gaudin
    family of the centralizer, per bidegree, through deg1 = rmax."""
    entries = parse_torus(entries)
    gl = preset(f"gl{n}")
    buckets = bethe_component_polys(_constant_bethe(n, entries, rmax), rmax)
    z = centralizer(n, entries)
    zbuckets = degree_buckets([(embed_subalgebra_poly(z, g.poly), g.deg1)
                               for g in gaudin_generators(z, rmax - 1)], rmax)
    checks = []
    for d in range(1, rmax + 1):
        ambient = _support(buckets[d], zbuckets[d])
        bidegs = [_bideg(m) for m in ambient]
        for j, (B, A) in enumerate(zip(bigraded_block(buckets[d], ambient, bidegs, d),
                                       bigraded_block(zbuckets[d], ambient, bidegs, d))):
            checks.append(_span_check(f"gr2 Bethe == Gaudin(z(C)) at bidegree ({d},{j})",
                                      ("gr2_bethe", B), ("gaudin", A), _loop_text(gl)))
    return Report("gr", {"n": n, "C": entries, "rmax": rmax,
                         "comparison": "theorem-A"}, checks)


# -- 7. Talalaev generators ------------------------------------------------------------------


def verify_talalaev(n: int, R: int, dmax: int) -> Report:
    """Column-determinant coefficients pairwise commute; their bigraded spans
    equal gr2 of the quantum Bethe family at C = E through F1-degree dmax."""
    cur = current_context(gl_algebra(n), R)
    tal = talalaev_generators(n, R)
    bad = _first_noncommuting([p for _, _, p in tal])
    npairs = math.comb(len(tal), 2)
    checks = [Check(
        name=f"talalaev gl{n} R={R}: {npairs} pairwise commutators vanish",
        details={"generators": len(tal), "pairs_checked": npairs},
        witness=None if bad is None else
        f"[{tal[bad[0]][:2]}, {tal[bad[1]][:2]}] = {bad[2].render()}")]

    # bigraded span comparison against gr2 of quantum Bethe at C = E
    ctx = yangian(n, dmax)
    taus = bethe_generators(ctx, [1] * n, dmax)
    tau_list = [(p, s) for (k, s), p in sorted(taus.items()) if not p.is_zero()]
    Bprods = list(generator_products(tau_list, dmax, ctx.one()))
    tal_list = [(p, s) for (i, s, p) in tal if s <= dmax and not p.is_zero()]
    Tprods = list(generator_products(tal_list, dmax, cur.one()))
    # each block spans over the words its side holds; the gr2 side's span
    # does not depend on the order of its words, and the talalaev side's rows
    # are those of ``weighted_words``'s order (later letters first)
    for d in range(1, dmax + 1):
        bethe = [p for p, dg in Bprods if dg <= d]
        words = _support(bethe)
        blocks = bigraded_block(bethe, words, [(ctx.word_weight(w), ctx.word_weight(w) - len(w))
                                               for w in words], d)
        # each row is bihomogeneous, so gr2 maps all of it
        images = [[gr2(ctx, NCPoly(ctx, {B.ambient[k]: c for k, c in row.items()},
                                   normalized=True), R) for _, row in B.rows] for B in blocks]
        talalaev = [p for p, dg in Tprods if dg <= d]
        words = _support(talalaev, *images, key=lambda w: [-ord(g) for g in w])
        deg2 = [sum(cur.gens[ord(g)][0] for g in w) for w in words]
        blocks = bigraded_block(talalaev, words, [(d2 + len(w), d2)
                                                  for w, d2 in zip(words, deg2)], d)
        for j, (T, gr2_bethe) in enumerate(zip(blocks, images)):
            checks.append(_span_check(
                f"talalaev span == gr2 Bethe(E) at bidegree ({d},{j})", ("talalaev", T),
                ("gr2_bethe", Subspace.span_of(gr2_bethe, T.ambient)),
                lambda terms: NCPoly(cur, terms, normalized=True).render()))
    return Report("verify-talalaev", {"n": n, "R": R, "dmax": dmax}, checks)


# -- 8. Gaudin evaluation ---------------------------------------------------------------------


def verify_eval_gaudin(alg_name: str, zs: Sequence, kmax: int) -> Report:
    """Images of the Gaudin generators commute in U(g)^{ox n}; the quadratic
    span contains the Gaudin Hamiltonians H_i = sum_j Omega_ij/(z_i - z_j)."""
    alg = resolve_algebra(alg_name)
    zs = parse_entries(zs)
    n = len(zs)
    # H_i is in the quadratic span only if some P has P(0) = 0, P'(z_j) = 0 and
    # P(z_i) - P(z_j) = 1 (j != i): Hermite interpolation, needing kmax >= 2(n-1)
    if kmax < 2 * (n - 1):
        raise BoundsError(f"eval-gaudin with {n} points needs kmax >= 2(n-1) = "
                          f"{2 * (n - 1)} for the Gaudin Hamiltonians; got {kmax}")
    # H_i = sum_j Omega_ij/(z_i - z_j) is quadratic, so the span below is empty
    # without a degree-2 invariant (gl1): refused, not reported as FAIL
    degrees = [inv.degree for inv in alg.invariant_generators()]
    if n >= 2 and 2 not in degrees:
        raise ValidationError(f"eval-gaudin with {n} points needs a degree-2 invariant, whose "
                              f"family spans the Gaudin Hamiltonians; {alg_name} has "
                              f"invariant degrees {degrees}")
    # fewer points are admitted as the top invariant degree rises, each rule
    # decided by counting before anything is built and naming its measurement
    most = BOUNDS["eval-gaudin"]["number of --z points"][1]
    for deg, points, seen in ((4, 3, "gl4 with three points ran out of 3 GB after 42 s"),
                              (3, most, "sl3 with five points took 105 s and 848 MB")):
        if n >= points and max(degrees) >= deg:
            raise BoundsError(f"eval-gaudin with {n} points (kmax {2 * n - 2}) is past the "
                              f"measured bound for {alg_name}, whose invariant degrees {degrees} "
                              f"reach {deg}: {seen}; at most {points - 1} points are admitted")
    gens = gaudin_generators(alg, kmax)
    images = [gaudin_evaluation(alg, g.poly, zs) for g in gens]
    bad = _first_noncommuting(images)
    checks = [Check(
        name=f"eval-gaudin {alg_name} n={n}: {math.comb(len(images), 2)} image pairs commute",
        details={"z": zs, "generators": [g.label for g in gens]},
        witness=None if bad is None else
        f"[ev {gens[bad[0]].label}, ev {gens[bad[1]].label}] = {bad[2].render()}")]

    # D^k Phi_i has deg1 - deg2 = deg Phi_i: keep the family of the quadratic
    # invariants (the centre of a gl_n preset adds a degree-1 invariant)
    quad = [img for img, g in zip(images, gens)
            if g.deg1 - g.deg2 == 2]
    tctx = tensor_context(alg, n)
    hams = []
    for i in range(n):
        h = tctx.zero()
        for j in range(n):
            if j != i:
                h = h + casimir_tensor(alg, tctx, i, j).scale(
                    Fraction(1) / (zs[i] - zs[j]))
        hams.append(h)
    words = sorted({w for p in quad + hams for w in p.terms} | {""})
    span = Subspace.span_of(quad, words)
    missing = [i for i, h in enumerate(hams) if not span.contains_poly(h)]
    checks.append(Check(
        name=f"quadratic span contains H_1..H_{n}",
        details={"quadratic_span_dim": span.dim},
        witness=None if not missing else f"H_{missing[0] + 1} not in span"))
    return Report("eval-gaudin", {"algebra": alg_name, "z": zs, "kmax": kmax}, checks)


# -- 9. shift of argument -----------------------------------------------------------------------


def verify_soa(alg_name: str, chi_diag: Sequence, seed: int) -> Report:
    """The (dim+rk)/2 derivative generators Poisson-commute and are
    algebraically independent (Jacobian rank at a seeded integer point)."""
    alg = resolve_algebra(alg_name)
    chi_diag = parse_entries(chi_diag)
    gens = soa_generators(alg, diag_to_basis(alg, chi_diag))
    loop = LoopAlgebra(alg)
    bad = _first_failing(loop.pairwise_brackets([g.poly for g in gens], (0,)))
    checks = [Check(
        name=f"soa {alg_name}: {len(gens)} generators, {math.comb(len(gens), 2)} pairs commute",
        details={"generators": [g.label for g in gens],
                 "count_expected": (alg.dim + alg.rank) // 2},
        witness=None if bad is None else
        f"{{{gens[bad[0]].label}, {gens[bad[1]].label}}} = {_loop_text(alg)(bad[3].terms)}")]

    kept, resamples = drawn_jacobian_pivots([g.poly for g in gens], len(gens),
                                            random.Random(seed))
    rank = len(kept)
    checks.append(Check(
        name=f"soa {alg_name}: Jacobian rank {len(gens)} at a rational point",
        details={"rank": rank, "expected": len(gens), "seed": seed,
                 "resampled": resamples},
        witness=None if rank == len(gens) else f"rank {rank} < {len(gens)}"))
    return Report("verify-soa", {"algebra": alg_name, "chi": chi_diag, "seed": seed}, checks)


# -- 10. limits (Theorem B) -----------------------------------------------------------------------


def _curve_exponents(chi: Sequence[Fraction]) -> Tuple[List[int], Fraction]:
    """(p - min p, g/m) for chi = (g/m) p, m the lcm of the denominators of chi,
    p integral with gcd(p) = 1; chi = 0 gives p = 0, g = 0."""
    m = math.lcm(*(x.denominator for x in chi))
    ints = [int(x * m) for x in chi]
    g = math.gcd(*ints)
    p = [a // g for a in ints] if g else ints
    return [a - min(p) for a in p], Fraction(g, m)


def verify_theorem_B(n: int, c0: Sequence, chi_diag: Sequence, dmax: int) -> Report:
    """The eps -> 0 limit of the classical Bethe family along C0 exp(eps chi)
    equals the product of the C0 family and the embedded shift-of-argument
    family of z(C0), per graded component.

    The curve is exact: with chi = (g/m) p (``_curve_exponents``) and
    h = exp(eps g/m) - 1, C0 exp(eps chi) = C0 diag((1+h)^p); rescaling by
    (1+h)^(-min p) keeps every span, as sigma_k^(r) has degree k in C.  Since
    h = (g/m) eps + O(eps^2), Q[[h]] = Q[[eps]] and the limits at 0 agree.
    The curve is built over Z[h] (``classical_bethe``), at C0 scaled to integers.
    """
    c0 = parse_torus(c0)
    chi_diag = parse_entries(chi_diag)
    if len(c0) != n or len(chi_diag) != n:
        raise ValidationError(f"C0 and chi need {n} diagonal entries each")
    exponents, g_over_m = _curve_exponents(chi_diag)
    lo, hi = BOUNDS["limit"]["curve degree"]
    if not lo <= sum(exponents) <= hi:
        raise BoundsError(f"curve degree sum(p - min p) = {sum(exponents)} outside "
                          f"documented bounds [{lo}, {hi}]")
    gl = preset(f"gl{n}")
    # the entries c0_i (1+h)^(p_i) are nonzero, and two are equal iff their
    # (c0_i, p_i) are
    if len(set(zip(c0, exponents))) < n:
        raise RegularityError("C0 exp(eps chi) is not regular for generic eps")
    sigma = classical_bethe(n, _clear_denominators(c0)[0], exponents, dmax)
    curve = bethe_component_polys(sigma, dmax)
    z = centralizer(n, c0)
    chi_z = diag_to_basis(z, chi_diag)
    # B(C0) * A_chi is spanned by the products of both generator lists; the
    # curve at h = 0 gives B(C0)'s, each sigma_k^(r)(C0) times L^k
    prods = degree_buckets([(s.at_zero(), key[1]) for key, s in sorted(sigma.items())]
                           + [(embed_subalgebra_poly(z, g.poly), g.deg1)
                              for g in soa_generators(z, chi_z)], dmax)
    # both sides of degree d span over the monomials either holds; degree d
    # starts at the precision that certified degree d - 1
    limits, K = {}, 4
    for d in range(1, dmax + 1):
        limits[d], K = limit_subspace(_support(curve[d], prods[d]), curve[d], K)

    # the generic member of the curve is regular: n generators in each degree
    dims = [1] + [limits[d].dim for d in range(1, dmax + 1)]
    expected = free_series_coeffs(list(range(1, dmax + 1)) * n, dmax)
    checks = [Check(
        name=f"limit dims == free series on {n} generators of each degree 1..{dmax}",
        details={"exponents": exponents, "g_over_m": g_over_m,
                 "dims": dims, "expected": expected},
        witness=None if dims == expected else f"dims {dims} != expected {expected}")]
    checks += [_span_check(f"limit == B(C0) * A_chi at deg1 = {d}", ("limit", limits[d]),
                           ("product", Subspace.span_of(prods[d], limits[d].ambient)),
                           _loop_text(gl))
               for d in range(1, dmax + 1)]
    return Report("limit", {"n": n, "C0": c0, "chi": chi_diag, "dmax": dmax}, checks)


# -- generator dumps --------------------------------------------------------------------------


def dump_generators(family: str, **kw) -> Report:
    """Canonical text dumps of a generator family, with provenance labels."""
    params = dict(kw)
    if family in ("bethe", "classical-bethe"):
        n, smax = kw["n"], kw["smax"]
        C = params["C"] = parse_torus(kw["C"])
        if family == "bethe":
            taus = bethe_generators(yangian(n, smax), C, smax)
            listing = {f"tau_{k}^({s})": p.render() for (k, s), p in sorted(taus.items())}
        else:
            L, lbl = _clear_denominators(C)[1], gamma_label(n)
            listing = {f"sigma_{k}^({s})": p.scale(Fraction(1, L ** k)).render(lbl)
                       for (k, s), p in sorted(_constant_bethe(n, C, smax).items())}
    elif family in ("gaudin", "soa"):
        alg = resolve_algebra(kw["algebra"])
        if family == "gaudin":
            gens = gaudin_generators(alg, kw["kmax"])
        else:
            params["chi"] = parse_entries(kw["chi"])
            gens = soa_generators(alg, diag_to_basis(alg, params["chi"]))
        listing = {g.label: _loop_text(alg)(g.poly.terms) for g in gens}
    elif family == "talalaev":
        tal = talalaev_generators(kw["n"], kw["R"])
        listing = {f"QI_{i}^({s})": p.render() for (i, s, p) in tal}
    else:
        raise BoundsError(f"unknown family {family!r}")
    return Report("gens", params, [Check(f"gens {family}", {"generators": listing})])
