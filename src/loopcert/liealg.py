"""Lie algebra data: structure constants, invariant form, torus elements,
centralizers and invariant polynomial generators.

Presets sl2, sl3, gl2, gl3, gl4 carry the trace form of their defining
matrix realization.  The paper-level assumption of an orthonormal basis is
relaxed to an arbitrary nondegenerate invariant form with dual bases, so all
arithmetic stays rational.  Arbitrary algebras are accepted from config
files and validated (indices, antisymmetry, Jacobi, form invariance) at
construction.  The sparse table ``bracket_coeffs`` is the one way structure
constants are applied: by the validation, the Poisson brackets and the PBW
rewriting.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .commpoly import CommPoly, LoopAlgebra
from .errors import RegularityError, ValidationError
from .linalg import rref
from .scalars import Scalar, SymPoly, parse_rational, ratstr, sc_is_zero

Matrix = Tuple[Tuple[Fraction, ...], ...]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n = len(A)
    m = len(B[0])
    k = len(B)
    return tuple(
        tuple(sum((A[i][t] * B[t][j] for t in range(k)), Fraction(0)) for j in range(m))
        for i in range(n)
    )


def mat_trace(A: Matrix) -> Fraction:
    return sum((A[i][i] for i in range(len(A))), Fraction(0))


def mat_inverse(A: Sequence[Sequence[Fraction]]) -> Matrix:
    """A^-1, read off rref([A | I]); A is invertible iff the left half
    reduces to the identity."""
    n = len(A)
    R = rref([[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
              for i, row in enumerate(A)])
    if any(R[i][j] != int(i == j) for i in range(n) for j in range(n)):
        raise ValidationError("singular matrix (form is degenerate)")
    return tuple(tuple(row[n:]) for row in R)


@dataclass(frozen=True)
class RootDatum:
    """One root: its functional on the Cartan (coordinates in the Cartan
    basis of the ambient algebra) and the indices of e_alpha, e_{-alpha}."""

    alpha: Tuple[Fraction, ...]
    e_idx: int
    f_idx: int


@dataclass(frozen=True)
class InvariantPolynomial:
    """Ad-invariant generator of S(g)^g, supported on t-degree-0 variables."""

    poly: CommPoly
    degree: int


class LieAlgebraData:
    """Validated structure-constant presentation of a finite-dimensional
    Lie algebra with a nondegenerate invariant form."""

    def __init__(
        self,
        dim: int,
        labels: Sequence[str],
        brackets: Dict[Tuple[int, int], Dict[int, Fraction]],
        gram: Sequence[Sequence[Fraction]],
        rank: int,
        exponents: Sequence[int],
        cartan_indices: Sequence[int],
        root_data: Optional[List[RootDatum]] = None,
        matrices: Optional[List[Matrix]] = None,
        name: str = "custom",
        gl_size: Optional[int] = None,
        ambient_indices: Optional[List[int]] = None,
        invariants: Optional[List[InvariantPolynomial]] = None,
    ) -> None:
        self.dim = dim
        self.labels = list(labels)
        self._brackets = {k: {d: Fraction(c) for d, c in v.items() if c != 0}
                          for k, v in brackets.items()}
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        self.rank = rank
        self.exponents = list(exponents)
        self.cartan_indices = list(cartan_indices)
        self.root_data = root_data or []
        self.matrices = matrices
        self.name = name
        self.gl_size = gl_size  # n when this is gl_n in the matrix-unit basis
        self.ambient_indices = ambient_indices  # embedding into a parent algebra
        self._gram_inv: Optional[Matrix] = None
        self._invariants = invariants
        self.validate()

    # -- structure access ----------------------------------------------------

    def bracket_coeffs(self, a: int, b: int) -> Dict[int, Fraction]:
        """[x_a, x_b] as a sparse coefficient vector."""
        if a == b:
            return {}
        c = self._brackets.get((a, b))
        if c is not None:
            return c
        c = self._brackets.get((b, a))
        if c is not None:
            return {d: -x for d, x in c.items()}
        return {}

    def gram_inverse(self) -> Matrix:
        if self._gram_inv is None:
            self._gram_inv = mat_inverse(self.gram)
        return self._gram_inv

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        n = self.dim
        if len(self.labels) != n:
            raise ValidationError("labels length != dim")
        if len(self.gram) != n or any(len(r) != n for r in self.gram):
            raise ValidationError("form must be a dim x dim matrix")
        for a in range(n):
            for b in range(n):
                if self.gram[a][b] != self.gram[b][a]:
                    raise ValidationError("form is not symmetric")
        self.gram_inverse()  # raises if degenerate
        for (a, b), cs in self._brackets.items():
            if not all(0 <= i < n for i in (a, b, *cs)):
                raise ValidationError(f"bracket index outside 0..{n - 1} at ({a},{b})")
            if a == b and cs:
                raise ValidationError(f"nonzero bracket [{a},{a}]")
            rev = self._brackets.get((b, a))
            if rev is not None:
                for d in set(cs) | set(rev):
                    if cs.get(d, Fraction(0)) != -rev.get(d, Fraction(0)):
                        raise ValidationError(f"bracket not antisymmetric at ({a},{b})")
        bc = self.bracket_coeffs
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(b + 1, n):
                    # [[a,b],c] + [[b,c],a] + [[c,a],b], expanded in the basis
                    acc: Dict[int, Fraction] = {}
                    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                        for d, cd in bc(x, y).items():
                            for e, ce in bc(d, z).items():
                                acc[e] = acc.get(e, 0) + cd * ce
                    if any(acc.values()):
                        raise ValidationError(f"Jacobi identity fails on triple ({a},{b},{c})")
        # ad-invariance of the form: <[x,y],z> + <y,[x,z]> = 0
        g = self.gram
        for a in range(n):
            for b in range(n):
                ab = bc(a, b).items()
                for c in range(n):
                    s = sum(cd * g[d][c] for d, cd in ab) + \
                        sum(cd * g[b][d] for d, cd in bc(a, c).items())
                    if s != 0:
                        raise ValidationError(f"form is not ad-invariant at ({a},{b},{c})")
        if len(self.exponents) != self.rank:
            raise ValidationError("number of exponents != rank")

    # -- invariant generators ----------------------------------------------------

    def invariant_generators(self) -> List[InvariantPolynomial]:
        """Free generators of S(g)^g; built in for gl_n/sl_n, else user-supplied."""
        if self._invariants is None:
            if self.gl_size is not None:
                n = self.gl_size  # tr X^k, k = 1..n: the one-block case
                self._invariants = _blockwise_trace_invariants(
                    n, [list(range(n))], {i: i for i in range(n * n)})
            elif self.matrices is not None and self.name.startswith("sl"):
                self._invariants = _trace_invariants_from_matrices(
                    self, range(2, len(self.matrices[0]) + 1))
            else:
                raise ValidationError(
                    f"no built-in invariants for algebra {self.name!r}; supply them in config")
            self._check_invariants(self._invariants)
        return self._invariants

    def _check_invariants(self, invs: List[InvariantPolynomial]) -> None:
        if len(invs) != self.rank:
            raise ValidationError("number of invariant generators != rank")
        degs = sorted(p.degree for p in invs)
        if degs != sorted(m + 1 for m in self.exponents):
            raise ValidationError("invariant degrees do not match exponents + 1")
        loop = LoopAlgebra(self, R=1)
        for inv in invs:
            for a in range(self.dim):
                if not loop.poisson0(CommPoly.variable(a, 0), inv.poly).is_zero():
                    raise ValidationError(
                        f"polynomial of degree {inv.degree} is not ad-invariant")

    # -- serialization --------------------------------------------------------------

    def to_config(self) -> dict:
        brackets = []
        for (a, b), cs in sorted(self._brackets.items()):
            for d, c in sorted(cs.items()):
                brackets.append([a, b, d, ratstr(c)])
        form = []
        for a in range(self.dim):
            for b in range(a, self.dim):
                if self.gram[a][b] != 0:
                    form.append([a, b, ratstr(self.gram[a][b])])
        return {
            "dim": self.dim,
            "labels": self.labels,
            "brackets": brackets,
            "form": form,
            "rank": self.rank,
            "exponents": self.exponents,
            "cartan": self.cartan_indices,
        }


def _sparse_brackets_from_matrices(mats: List[Matrix], gram: Matrix) -> Dict:
    """Structure constants by expanding matrix commutators in the basis,
    using the form for coordinate extraction."""
    n = len(mats)
    ginv = mat_inverse(gram)
    out: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for a in range(n):
        for b in range(a + 1, n):
            comm = tuple(
                tuple(x - y for x, y in zip(r1, r2))
                for r1, r2 in zip(mat_mul(mats[a], mats[b]), mat_mul(mats[b], mats[a]))
            )
            pair = [mat_trace(mat_mul(comm, m)) for m in mats]  # <comm, x_c>
            coeffs = {}
            for d in range(n):
                c = sum((ginv[d][e] * pair[e] for e in range(n)), Fraction(0))
                if c != 0:
                    coeffs[d] = c
            if coeffs:
                out[(a, b)] = coeffs
    return out


def _trace_invariants_from_matrices(alg: "LieAlgebraData", degrees) -> List[InvariantPolynomial]:
    """tr X^k via the matrix realization, expanded in form-dual coordinates."""
    mats = alg.matrices
    assert mats is not None
    n = alg.dim
    ginv = alg.gram_inverse()
    duals = []
    for a in range(n):
        rows = len(mats[0])
        acc = [[Fraction(0)] * rows for _ in range(rows)]
        for b in range(n):
            c = ginv[b][a]
            if c:
                for i in range(rows):
                    for j in range(rows):
                        acc[i][j] += c * mats[b][i][j]
        duals.append(tuple(tuple(r) for r in acc))
    out = []
    for k in degrees:
        terms: Dict[tuple, Fraction] = {}
        for tup in itertools.product(range(n), repeat=k):
            prod = duals[tup[0]]
            for a in tup[1:]:
                prod = mat_mul(prod, duals[a])
            c = mat_trace(prod)
            if c == 0:
                continue
            mono = tuple(sorted(((a, 0) for a in tup), key=lambda v: (v[1], v[0])))
            terms[mono] = terms.get(mono, Fraction(0)) + c
        poly = CommPoly(terms)
        if poly.is_zero():
            raise ValidationError(f"trace power {k} vanishes identically")
        out.append(InvariantPolynomial(poly, k))
    return out


# -- torus elements ---------------------------------------------------------------


class TorusElement:
    """A diagonal torus element of gl_n, stored by its diagonal entries
    (rationals, or rationals with a formal parameter)."""

    def __init__(self, entries: Sequence[Scalar]) -> None:
        # a float would carry its binary expansion into every coefficient
        if not all(isinstance(e, (int, str, Fraction, SymPoly)) for e in entries):
            raise ValidationError(f"torus entries {list(entries)!r} must be exact: "
                                  "int, str, Fraction or SymPoly")
        try:
            self.entries = [e if isinstance(e, SymPoly) else Fraction(e) for e in entries]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"torus entry is not a rational: {exc}") from exc
        if any(sc_is_zero(e) for e in self.entries):
            raise ValidationError("torus entries must be invertible (nonzero)")

    @classmethod
    def diagonal(cls, entries) -> "TorusElement":
        return cls(entries=entries)

    @classmethod
    def identity(cls, n: int) -> "TorusElement":
        return cls(entries=[Fraction(1)] * n)

    def is_regular(self) -> bool:
        """True iff no root eigenvalue c_i / c_j equals 1: the entries are
        pairwise distinct."""
        n = len(self.entries)
        return all(not sc_is_zero(self.entries[i] - self.entries[j])
                   for i in range(n) for j in range(i + 1, n))


def centralizer(alg: LieAlgebraData, C: TorusElement) -> LieAlgebraData:
    """Fixed subalgebra of Ad(C), with inherited structure constants,
    restricted form and (for gl_n) blockwise trace invariants.

    Conventions for the reductive output: rank equals rank of the ambient
    algebra; exponents are those of the derived subalgebra padded with zeros.
    """
    if alg.gl_size is None:
        raise ValidationError("centralizer is implemented for gl_n presets with diagonal C")
    n = alg.gl_size
    if len(C.entries) != n:
        raise ValidationError("torus entry count != n")
    keep = [i * n + j for i in range(n) for j in range(n)
            if sc_is_zero(C.entries[i] - C.entries[j])]
    return _gl_subalgebra(alg, C, keep)


def _gl_subalgebra(alg: LieAlgebraData, C: TorusElement, keep: List[int]) -> LieAlgebraData:
    n = alg.gl_size
    pos = {amb: k for k, amb in enumerate(keep)}
    dim = len(keep)
    brackets: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for ka, amb_a in enumerate(keep):
        for kb, amb_b in enumerate(keep):
            if ka >= kb:
                continue
            cs = alg.bracket_coeffs(amb_a, amb_b)
            sub = {}
            for d, c in cs.items():
                if d not in pos:
                    raise ValidationError("centralizer is not closed under bracket")
                sub[pos[d]] = c
            if sub:
                brackets[(ka, kb)] = sub
    gram = [[alg.gram[keep[a]][keep[b]] for b in range(dim)] for a in range(dim)]
    # block decomposition by equal diagonal entries
    blocks: List[List[int]] = []
    seen: List[int] = []
    for i in range(n):
        if i in seen:
            continue
        blk = [j for j in range(n) if sc_is_zero(C.entries[i] - C.entries[j])]
        seen.extend(blk)
        blocks.append(blk)
    exponents = sorted(e for blk in blocks for e in range(len(blk)))
    cartan = [pos[i * n + i] for i in range(n)]
    roots = [RootDatum(
        alpha=tuple(Fraction(int(d == i)) - Fraction(int(d == j)) for d in range(n)),
        e_idx=pos[i * n + j], f_idx=pos[j * n + i])
        for blk in blocks for i in blk for j in blk if i != j]
    invs = _blockwise_trace_invariants(n, blocks, pos)
    mats = [alg.matrices[amb] for amb in keep] if alg.matrices else None
    return LieAlgebraData(
        dim=dim, labels=[alg.labels[amb] for amb in keep], brackets=brackets,
        gram=gram, rank=alg.rank, exponents=exponents, cartan_indices=cartan,
        root_data=roots, matrices=mats,
        name=f"z_{alg.name}(" + ",".join(str(e) for e in C.entries) + ")",
        ambient_indices=keep, invariants=invs)


def _blockwise_trace_invariants(n: int, blocks: List[List[int]],
                                pos: Dict[int, int]) -> List[InvariantPolynomial]:
    out = []
    for blk in blocks:
        for k in range(1, len(blk) + 1):
            terms: Dict[tuple, Fraction] = {}
            for cyc in itertools.product(blk, repeat=k):
                mono = tuple(sorted(
                    ((pos[cyc[i] * n + cyc[(i + 1) % k]], 0) for i in range(k)),
                    key=lambda v: (v[1], v[0])))
                terms[mono] = terms.get(mono, Fraction(0)) + 1
            out.append(InvariantPolynomial(CommPoly(terms), k))
    out.sort(key=lambda p: p.degree)
    return out


# -- presets ------------------------------------------------------------------------


def _gl_preset(n: int) -> LieAlgebraData:
    labels = [f"e{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    mats = []
    for i in range(n):
        for j in range(n):
            mats.append(tuple(
                tuple(Fraction(int(r == i and c == j)) for c in range(n))
                for r in range(n)))
    # closed forms in the matrix-unit basis E_ij = index i*n + j:
    # tr(E_ij E_kl) = d_jk d_il and [E_ij, E_kl] = d_jk E_il - d_li E_kj
    gram = [[Fraction(int(j == k and i == l)) for k in range(n) for l in range(n)]
            for i in range(n) for j in range(n)]
    brackets: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for a in range(n * n):
        i, j = divmod(a, n)
        for b in range(a + 1, n * n):
            k, l = divmod(b, n)
            coeffs = {}
            if j == k:
                coeffs[i * n + l] = Fraction(1)
            if l == i:
                coeffs[k * n + j] = Fraction(-1)
            if coeffs:
                brackets[(a, b)] = dict(sorted(coeffs.items()))
    roots = [RootDatum(
        alpha=tuple(Fraction(int(d == i)) - Fraction(int(d == j)) for d in range(n)),
        e_idx=i * n + j, f_idx=j * n + i)
        for i in range(n) for j in range(n) if i != j]
    return LieAlgebraData(
        dim=n * n, labels=labels, brackets=brackets, gram=gram, rank=n,
        exponents=list(range(n)), cartan_indices=[i * n + i for i in range(n)],
        root_data=roots, matrices=mats, name=f"gl{n}", gl_size=n)


def _sl_preset(n: int) -> LieAlgebraData:
    # basis: e_ij (i<j), then h_i = e_ii - e_{i+1,i+1}, then e_ij (i>j)
    upper = [(i, j) for i in range(n) for j in range(n) if i < j]
    lower = [(i, j) for i in range(n) for j in range(n) if i > j]
    mats: List[Matrix] = []
    labels: List[str] = []

    def unit(i, j):
        return tuple(tuple(Fraction(int(r == i and c == j)) for c in range(n))
                     for r in range(n))

    for (i, j) in upper:
        mats.append(unit(i, j))
        labels.append(f"e{i + 1}{j + 1}")
    for i in range(n - 1):
        m = tuple(tuple(
            Fraction(int(r == c and r == i)) - Fraction(int(r == c and r == i + 1))
            for c in range(n)) for r in range(n))
        mats.append(m)
        labels.append(f"h{i + 1}")
    for (i, j) in lower:
        mats.append(unit(i, j))
        labels.append(f"e{i + 1}{j + 1}")
    gram = [[mat_trace(mat_mul(ma, mb)) for mb in mats] for ma in mats]
    brackets = _sparse_brackets_from_matrices(mats, tuple(map(tuple, gram)))
    cartan = list(range(len(upper), len(upper) + n - 1))
    idx = {}
    for k, (i, j) in enumerate(upper):
        idx[(i, j)] = k
    for k, (i, j) in enumerate(lower):
        idx[(i, j)] = len(upper) + n - 1 + k
    roots = []
    for (i, j) in upper + lower:
        # alpha(h_d) = delta_{d,i} - delta_{d,i+1} - (delta_{d,j} - delta_{d,j+1})
        alpha = tuple(
            Fraction(int(d == i)) - Fraction(int(d + 1 == i))
            - Fraction(int(d == j)) + Fraction(int(d + 1 == j))
            for d in range(n - 1))
        roots.append(RootDatum(alpha=alpha, e_idx=idx[(i, j)], f_idx=idx[(j, i)]))
    return LieAlgebraData(
        dim=n * n - 1, labels=labels, brackets=brackets, gram=gram, rank=n - 1,
        exponents=list(range(1, n)), cartan_indices=cartan,
        root_data=roots, matrices=mats, name=f"sl{n}")


_PRESETS = {}


def preset(name: str) -> LieAlgebraData:
    """Built-in algebras: sl2, sl3, gl2, gl3, gl4 (trace form)."""
    if name not in _PRESETS:
        if name.startswith("gl") and name[2:] in {"1", "2", "3", "4"}:
            _PRESETS[name] = _gl_preset(int(name[2:]))
        elif name.startswith("sl") and name[2:] in {"2", "3"}:
            _PRESETS[name] = _sl_preset(int(name[2:]))
        else:
            raise ValidationError(f"unknown preset {name!r}")
    return _PRESETS[name]


def gl_algebra(n: int) -> LieAlgebraData:
    """gl_n with the trace form, for any n >= 1 (cached)."""
    key = f"gl{n}"
    if key not in _PRESETS:
        _PRESETS[key] = _gl_preset(n)
    return _PRESETS[key]


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


def algebra_from_dict(data: dict) -> LieAlgebraData:
    try:
        dim = int(data["dim"])
        labels = list(data["labels"])
        brackets: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for a, b, d, c in data["brackets"]:
            brackets.setdefault((int(a), int(b)), {})[int(d)] = parse_rational(str(c))
        gram = [[Fraction(0)] * dim for _ in range(dim)]
        for a, b, c in data["form"]:
            val = parse_rational(str(c))
            gram[int(a)][int(b)] = val
            gram[int(b)][int(a)] = val
        rank = int(data["rank"])
        exponents = [int(e) for e in data["exponents"]]
        cartan = [int(c) for c in data["cartan"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed algebra config: {exc}") from exc
    roots = [RootDatum(alpha=tuple(parse_rational(str(x)) for x in r["alpha"]),
                       e_idx=int(r["e"]), f_idx=int(r["f"]))
             for r in data.get("roots", [])]
    invs = None
    if "invariants" in data:
        invs = []
        for spec in data["invariants"]:
            terms: Dict[tuple, Fraction] = {}
            for t in spec["terms"]:
                mono = tuple(sorted(
                    ((int(a), 0) for a, mult in t["monomial"] for _ in range(int(mult))),
                    key=lambda v: (v[1], v[0])))
                terms[mono] = terms.get(mono, Fraction(0)) + parse_rational(str(t["coeff"]))
            invs.append(InvariantPolynomial(CommPoly(terms), int(spec["degree"])))
    alg = LieAlgebraData(
        dim=dim, labels=labels, brackets=brackets, gram=gram, rank=rank,
        exponents=exponents, cartan_indices=cartan, root_data=roots,
        name=str(data.get("name", "custom")), invariants=invs)
    if invs is not None:
        alg._check_invariants(invs)  # reject non-invariant user input
    return alg


def root_pairing(root: RootDatum, cartan_coords: Sequence[Fraction]) -> Fraction:
    """alpha(h) for h given by its coordinates in the Cartan basis."""
    return sum((a * c for a, c in zip(root.alpha, cartan_coords)), Fraction(0))


def regular_cartan_check(alg: LieAlgebraData, cartan_coords: Sequence[Fraction]) -> None:
    """Raise unless (alpha, chi) != 0 for every root."""
    for root in alg.root_data:
        if root_pairing(root, cartan_coords) == 0:
            raise RegularityError("vector lies on a root hyperplane")
