"""Lie algebra data: matrix algebras with the trace form, centralizers of
diagonal elements in gl_n and invariant polynomial generators.

Every algebra, preset or config, is a ``LieAlgebraData``: a basis of
sparse ``{(i, j): entry}`` matrices E_a and a list of (block of matrix
indices, invariant degrees).  From the matrices it derives the trace form,
the dual basis E^a, exact coordinates of a matrix in the basis
(``coordinates``), the bracket table from commutators, and, on first use,
the invariants tr(X_B^k) of the generic matrix X = sum_a x_a E^a
restricted to each block B.  Matrix entries and bracket coefficients are
``int`` where the denominator is 1, and the table holds [x_a, x_b] and
[x_b, x_a] both, so ``commpoly.LoopAlgebra`` and the PBW contexts of
``envelop`` read it as it is.  The paper-level assumption of an orthonormal
basis is relaxed to an arbitrary nondegenerate invariant form with dual
bases, so all arithmetic stays rational.  Jacobi and the form's
ad-invariance hold by construction; ``validate`` checks what outside input
can break: closure under the commutator, a nondegenerate form, the label
count, a positive rank and supplied invariants.  ``bracket_coeffs`` is the
one way structure constants are applied.
"""

from __future__ import annotations

import functools
import json
import os
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .commpoly import CommPoly, LoopAlgebra, monomial
from .errors import BoundsError, RegularityError, ValidationError
from .linalg import echelon
from .scalars import parse_rational

Matrix = Tuple[Tuple[Fraction, ...], ...]
Sparse = Dict[Tuple[int, int], object]  # {(i, j): nonzero entry}, Fraction or CommPoly


def mat_inverse(A: Sequence[Sequence[Fraction]]) -> Matrix:
    """A^-1, read off the echelon rows of [A | I]; A is invertible iff their
    pivots are the columns of A."""
    n = len(A)
    R = echelon({**{j: x for j, x in enumerate(row) if x}, n + i: 1}
                for i, row in enumerate(A))
    if [col for col, _ in R] != list(range(n)):
        raise ValidationError("singular matrix (form is degenerate)")
    return tuple(tuple(row.get(n + j, Fraction(0)) for j in range(n)) for _, row in R)


def _integral(x):
    """x as an ``int`` where its denominator is 1, else as it is: the one
    normalization of matrix entries and bracket coefficients."""
    return x.numerator if x.denominator == 1 else x


def _mat_mul(A: Sparse, B: Sparse, zero=0) -> Sparse:
    rows: Dict[int, list] = {}
    for (j, k), y in B.items():
        rows.setdefault(j, []).append((k, y))
    out: Dict[Tuple[int, int], object] = {}
    for (i, j), x in A.items():
        for k, y in rows.get(j, ()):
            out[(i, k)] = out.get((i, k), zero) + x * y
    return {ik: v for ik, v in out.items() if v}


def _combine(coeffs: Sequence[Fraction], mats: Sequence[Sparse]) -> Sparse:
    """sum_a coeffs[a] mats[a]."""
    out: Dict[Tuple[int, int], Fraction] = {}
    for c, M in zip(coeffs, mats):
        if c:
            for ij, x in M.items():
                out[ij] = out.get(ij, 0) + c * x
    return {ij: v for ij, v in out.items() if v}


def _trace_pair(A: Sparse, B: Sparse, zero=0):
    """tr(A B)."""
    return sum((x * B[(j, i)] for (i, j), x in A.items() if (j, i) in B), zero)


class RootDatum(NamedTuple):
    """One root: its functional on the Cartan (coordinates in the Cartan
    basis of the ambient algebra) and the indices of e_alpha, e_{-alpha}."""

    alpha: Tuple[Fraction, ...]
    e_idx: int
    f_idx: int


class InvariantPolynomial(NamedTuple):
    """Ad-invariant generator of S(g)^g, supported on t-degree-0 variables."""

    poly: CommPoly
    degree: int


class LieAlgebraData:
    """The Lie algebra spanned by sparse ``size`` x ``size`` ``matrices`` E_a,
    with the trace form <E_a, E_b> = tr(E_a E_b) and the dual basis
    E^a = sum_b gram_inv[b][a] E_b, so that <E_a, E^b> = delta_ab.

    ``blocks`` lists (block of matrix indices, invariant degrees); the
    invariant generators are tr(X_B^k), so the rank is their number and the
    exponents are their degrees minus one.  ``invariants``, if given,
    replace them and must have the same degrees.
    """

    def __init__(self, name: str, labels: Sequence[str], size: int,
                 matrices: Sequence[Sparse], cartan_indices: Sequence[int],
                 root_data: List[RootDatum], blocks,
                 ambient_indices: Optional[List[int]] = None,
                 invariants: Optional[List[InvariantPolynomial]] = None) -> None:
        self.name = name
        self.labels = list(labels)
        self.size = size
        self.matrices = [{ij: _integral(Fraction(x)) for ij, x in M.items() if x}
                         for M in matrices]
        self.dim = len(self.matrices)
        self.cartan_indices = list(cartan_indices)
        self.root_data = root_data
        self.blocks = blocks
        degrees = sorted(k for _, ks in blocks for k in ks)
        self.rank = len(degrees)
        self.exponents = [k - 1 for k in degrees]
        self.ambient_indices = ambient_indices  # embedding into a parent algebra
        self._invariants = invariants
        self.validate()

    def validate(self) -> None:
        """The checks on outside input: the label count, a nondegenerate
        trace form, closure under the commutator (which yields the bracket
        table), a positive rank and any supplied invariants.  Jacobi,
        antisymmetry and ad-invariance of the form hold by construction for
        commutators of matrices under the trace form."""
        if len(self.labels) != self.dim:
            raise ValidationError("labels length != dim")
        mats = self.matrices
        self.gram = tuple(tuple(_trace_pair(A, B) for B in mats) for A in mats)
        self.gram_inv = mat_inverse(self.gram)
        # the echelon rows of [E_a | e_a], E_a flattened to i * size + j and
        # e_a at column size^2 + a, keyed by pivot: they express a matrix in
        # the basis at the cost of its entries' rows, however dense the duals;
        # integral entries as ``int``, so integral coordinates cost no Fraction
        rows = echelon({**{i * self.size + j: x for (i, j), x in M.items()},
                        self.size ** 2 + a: 1} for a, M in enumerate(mats))
        self._rows = {col: {k: _integral(y) for k, y in row.items()} for col, row in rows}
        self._brackets: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                comm = _combine((1, -1), (_mat_mul(mats[a], mats[b]), _mat_mul(mats[b], mats[a])))
                if comm:
                    coords = self.coordinates(comm, "matrices are not closed under bracket")
                    br = self._brackets[a, b] = {d: _integral(c) for d, c in enumerate(coords) if c}
                    self._brackets[b, a] = {d: -c for d, c in br.items()}
        if self.rank < 1:
            raise ValidationError(f"rank must be positive, got {self.rank}: every family is "
                                  "built from the rank's invariant generators")
        if self._invariants is not None:
            if sorted(p.degree for p in self._invariants) != [m + 1 for m in self.exponents]:
                raise ValidationError("invariant degrees do not match the blocks' degrees")
            loop = LoopAlgebra(self)
            for inv in self._invariants:
                for a in range(self.dim):
                    if not loop.poisson0(CommPoly.variable(a, 0), inv.poly).is_zero():
                        raise ValidationError(
                            f"polynomial of degree {inv.degree} is not ad-invariant")

    def bracket_coeffs(self, a: int, b: int) -> Dict[int, Fraction]:
        """[x_a, x_b] as a sparse coefficient vector, ``int`` where the
        denominator is 1; the table is shared, so do not modify it."""
        return self._brackets.get((a, b), {})

    def coordinates(self, A: Sparse, message: str) -> List[Fraction]:
        """The c with sum_a c_a E_a = A: the sum over A's entries at pivots of
        the entry times its echelon row, whose matrix part must give back A
        and whose tags are c; raises ``ValidationError(message)`` unless A
        lies in the span."""
        n2 = self.size ** 2
        flat = {i * self.size + j: x for (i, j), x in A.items()}
        acc: Dict[int, Fraction] = {}
        for col, x in flat.items():
            for k, y in self._rows.get(col, {}).items():
                acc[k] = acc.get(k, 0) + x * y
        if {k: v for k, v in acc.items() if k < n2 and v} != flat:
            raise ValidationError(message)
        return [acc.get(n2 + a, Fraction(0)) for a in range(self.dim)]

    def invariant_generators(self) -> List[InvariantPolynomial]:
        """Free generators of S(g)^g: the supplied invariants, else the
        trace invariants, built on first use."""
        if self._invariants is None:
            self._invariants = self._trace_invariants()
        return self._invariants

    def _trace_invariants(self) -> List[InvariantPolynomial]:
        """tr(X_B^k) for each (block B, degrees) and k in degrees, where X_B
        is the generic matrix X = sum_a x_a E^a restricted to the rows and
        columns in B, read off as tr(X_B^(k-1) X_B) after k - 1 products."""
        X: Dict[Tuple[int, int], CommPoly] = {}
        for a, D in enumerate(_combine(col, self.matrices) for col in zip(*self.gram_inv)):
            for ij, c in D.items():
                X[ij] = X.get(ij, CommPoly()) + CommPoly.variable(a, 0).scale(c)
        out = []
        for blk, degrees in self.blocks:
            XB = {(i, j): p for (i, j), p in X.items() if i in blk and j in blk}
            power = {(i, i): CommPoly.const(1) for i in blk}  # X_B^(k-1)
            top = max(degrees, default=0)
            for k in range(1, top + 1):
                if k in degrees:
                    tr = _trace_pair(power, XB, CommPoly())
                    if tr.is_zero():
                        raise ValidationError(f"trace power {k} vanishes identically")
                    out.append(InvariantPolynomial(tr, k))
                if k < top:
                    power = _mat_mul(power, XB, CommPoly())
        out.sort(key=lambda p: p.degree)
        return out


# -- centralizers and presets ----------------------------------------------------------


def centralizer(n: int, C: Sequence[Fraction]) -> LieAlgebraData:
    """z(C), the fixed subalgebra of Ad(C) in gl_n for C = diag(C_1..C_n):
    the matrix units E_ij with C_i = C_j, one block per group of equal
    entries of C.

    Conventions for the reductive output: rank equals rank of gl_n;
    exponents are those of the derived subalgebra padded with zeros.
    """
    if len(C) != n:
        raise ValidationError("torus entry count != n")
    blocks: List[List[int]] = []
    for i in range(n):
        if not any(i in blk for blk in blocks):
            blocks.append([j for j in range(n) if C[i] == C[j]])
    return _gl_units(n, blocks, f"z_gl{n}(" + ",".join(str(e) for e in C) + ")")


def _gl_units(n: int, blocks: List[List[int]], name: str) -> LieAlgebraData:
    """The matrix units E_ij of gl_n with i and j in one block, in the order
    of their gl_n index i*n + j; invariants tr X_B^k, k = 1..|B|.  The
    result embeds into gl_n by these indices, its ``ambient_indices``: the
    identity when one block holds all n indices and the result is gl_n."""
    block = {i: b for b, blk in enumerate(blocks) for i in blk}
    keep = [i * n + j for i in range(n) for j in range(n) if block[i] == block[j]]
    pos = {amb: k for k, amb in enumerate(keep)}
    roots = [RootDatum(
        alpha=tuple(Fraction(int(d == i)) - Fraction(int(d == j)) for d in range(n)),
        e_idx=pos[i * n + j], f_idx=pos[j * n + i])
        for blk in blocks for i in blk for j in blk if i != j]
    return LieAlgebraData(
        name, [f"e{a // n + 1}{a % n + 1}" for a in keep],
        n, [{divmod(a, n): 1} for a in keep], [pos[i * n + i] for i in range(n)],
        roots, [(blk, range(1, len(blk) + 1)) for blk in blocks], ambient_indices=keep)


@functools.cache
def _sl_preset(n: int) -> LieAlgebraData:
    # basis: e_ij (i<j), then h_i = e_ii - e_{i+1,i+1}, then e_ij (i>j)
    upper = [(i, j) for i in range(n) for j in range(n) if i < j]
    lower = [(i, j) for i in range(n) for j in range(n) if i > j]
    mats = ([{ij: 1} for ij in upper]
            + [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]
            + [{ij: 1} for ij in lower])
    labels = ([f"e{i + 1}{j + 1}" for i, j in upper] + [f"h{i + 1}" for i in range(n - 1)]
              + [f"e{i + 1}{j + 1}" for i, j in lower])
    idx = {ij: k for k, ij in enumerate(upper)}
    idx.update({ij: len(upper) + n - 1 + k for k, ij in enumerate(lower)})
    roots = []
    for (i, j) in upper + lower:
        # alpha(h_d) = delta_{d,i} - delta_{d,i+1} - (delta_{d,j} - delta_{d,j+1})
        alpha = tuple(
            Fraction(int(d == i)) - Fraction(int(d + 1 == i))
            - Fraction(int(d == j)) + Fraction(int(d + 1 == j))
            for d in range(n - 1))
        roots.append(RootDatum(alpha=alpha, e_idx=idx[(i, j)], f_idx=idx[(j, i)]))
    return LieAlgebraData(f"sl{n}", labels, n, mats,
                          list(range(len(upper), len(upper) + n - 1)), roots,
                          [(range(n), range(2, n + 1))])


def preset(name: str) -> LieAlgebraData:
    """Built-in algebras: sl2, sl3, gl1, gl2, gl3, gl4 (trace form)."""
    if name.startswith("gl") and name[2:] in {"1", "2", "3", "4"}:
        return gl_algebra(int(name[2:]))
    if not (name.startswith("sl") and name[2:] in {"2", "3"}):
        raise ValidationError(f"unknown preset {name!r}")
    return _sl_preset(int(name[2:]))


@functools.cache
def gl_algebra(n: int) -> LieAlgebraData:
    """gl_n with the trace form, for any n >= 1."""
    return _gl_units(n, [list(range(n))], f"gl{n}")


def load_config(path: str) -> LieAlgebraData:
    """Load a user algebra from a JSON config (see README for the schema)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read algebra config {path!r}: {exc}") from exc
    return algebra_from_dict(data)


def resolve_algebra(spec: str) -> LieAlgebraData:
    """A preset name, or the path of a JSON config (ends in .json or holds a
    path separator)."""
    if spec.endswith(".json") or os.path.sep in spec:
        return load_config(spec)
    return preset(spec)


def _basis_index(a, n: int, what: str) -> int:
    """int(a), which a config must give in 0..n-1: a basis index (n = dim)
    or a matrix row or column (n = size)."""
    i = int(a)
    if not 0 <= i < n:
        raise ValidationError(f"{what} index {i} outside 0..{n - 1}")
    return i


def algebra_from_dict(data: dict) -> LieAlgebraData:
    """A config algebra, the span of sparse ``size`` x ``size`` matrices, built
    as a preset is (README, "Custom algebras"); its invariants are built, or
    the supplied ones checked, at load."""
    try:
        if "brackets" in data or "form" in data:
            raise ValidationError(
                "structure constants ('brackets', 'form') are no longer read: a config gives "
                "'size', 'matrices', 'labels', 'cartan' and 'blocks' (README, \"Custom algebras\")")
        from .certify import BOUNDS  # the admission table, which imports this module
        lo, hi = BOUNDS["config"]["dim"]
        if not lo <= (dim := len(data["matrices"])) <= hi:
            raise BoundsError(f"config dim = {dim} outside documented bounds [{lo}, {hi}]: "
                              "closure multiplies every pair of basis matrices, and gl11 (dim 121) "
                              "in a unitriangular basis took 2.3-2.8 s to load")
        size = int(data["size"])
        blocks = [([_basis_index(i, size, "block") for i in blk], [int(k) for k in degrees])
                  for blk, degrees in data["blocks"]]
        if any(len(set(degrees)) < len(degrees) for _, degrees in blocks):
            raise ValidationError("a block repeats an invariant degree: its trace powers "
                                  "would count twice in the rank")
        lo, hi = BOUNDS["config"]["degree"]
        for k in (k for _, degrees in blocks for k in degrees if not lo <= k <= hi):
            raise BoundsError(f"config block degree {k} outside documented bounds [{lo}, {hi}]: "
                              "tr X^k is built at load, and gl11 took 31 s with degrees 1..6")
        matrices = [{(_basis_index(i, size, "matrix entry"), _basis_index(j, size, "matrix entry")):
                     parse_rational(str(x)) for i, j, x in M} for M in data["matrices"]]
        labels = list(data["labels"])
        cartan = [_basis_index(c, dim, "cartan") for c in data["cartan"]]
        roots = [RootDatum(alpha=tuple(parse_rational(str(x)) for x in r["alpha"]),
                           e_idx=_basis_index(r["e"], dim, "root e"),
                           f_idx=_basis_index(r["f"], dim, "root f"))
                 for r in data.get("roots", [])]
        invs = None
        if "invariants" in data:
            invs = []
            for spec in data["invariants"]:
                terms: Dict[str, Fraction] = {}
                for t in spec["terms"]:
                    vs = []
                    for a, mult in t["monomial"]:
                        if int(mult) < 1:
                            raise ValidationError(f"invariant multiplicity {mult} is not positive")
                        vs += [(_basis_index(a, dim, "invariant"), 0)] * int(mult)
                    mono = monomial(vs)
                    terms[mono] = terms.get(mono, Fraction(0)) + parse_rational(str(t["coeff"]))
                invs.append(InvariantPolynomial(CommPoly(terms), int(spec["degree"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed algebra config: {exc}") from exc
    alg = LieAlgebraData(str(data.get("name", "custom")), labels, size, matrices, cartan, roots,
                         blocks, invariants=invs)
    alg.invariant_generators()  # a trace power that vanishes is refused at load
    return alg


def root_pairing(root: RootDatum, cartan_coords: Sequence[Fraction]) -> Fraction:
    """alpha(h) for h given by its coordinates in the Cartan basis."""
    return sum((a * c for a, c in zip(root.alpha, cartan_coords)), Fraction(0))


def regular_cartan_check(alg: LieAlgebraData, cartan_coords: Sequence[Fraction]) -> None:
    """Raise unless (alpha, chi) != 0 for every root."""
    for root in alg.root_data:
        if root_pairing(root, cartan_coords) == 0:
            raise RegularityError("vector lies on a root hyperplane")
