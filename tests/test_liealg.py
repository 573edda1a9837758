import itertools
import json
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import pytest

from loopcert.commpoly import CommPoly, LoopAlgebra, monomial
from loopcert.errors import BoundsError, ValidationError
from loopcert.certify import (BOUNDS, dump_generators, parse_entries, parse_torus,
                              verify_eval_gaudin, verify_soa)
from loopcert.cli import main
from loopcert.liealg import (LieAlgebraData, algebra_from_dict, centralizer, gl_algebra,
                             load_config, preset)
from loopcert.scalars import SymPoly


class TestBracket:
    def test_sl2_relations(self):
        sl2 = preset("sl2")
        e, h, f = 0, 1, 2
        assert sl2.bracket_coeffs(h, e) == {e: F(2)}
        assert sl2.bracket_coeffs(e, f) == {h: F(1)}

    def test_antisymmetry_on_vectors(self):
        # [x, x] = sum_{a,b} x_a x_b [x_a, x_b] vanishes for a generic x
        gl3 = preset("gl3")
        x = [F(i + 1) for i in range(9)]
        out = {}
        for a in range(9):
            for b in range(9):
                for d, c in gl3.bracket_coeffs(a, b).items():
                    out[d] = out.get(d, 0) + x[a] * x[b] * c
        assert not any(out.values())
        assert all(gl3.bracket_coeffs(b, a) == {d: -c for d, c in
                                                gl3.bracket_coeffs(a, b).items()}
                   for a in range(9) for b in range(9))

    def test_gl3_matrix_units(self):
        gl3 = preset("gl3")
        e12 = 0 * 3 + 1
        e23 = 1 * 3 + 2
        e13 = 0 * 3 + 2
        assert gl3.bracket_coeffs(e12, e23) == {e13: F(1)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gl_closed_form_matches_matrices(n):
    """In the matrix-unit basis E_ij = index i*n + j, the builder's gl_n
    brackets are [E_ij, E_kl] = d_jk E_il - d_li E_kj, for every ordered
    pair, and its form is tr(E_ij E_kl) = d_jk d_il."""
    gl = preset(f"gl{n}")
    for a, b in itertools.product(range(n * n), repeat=2):
        (i, j), (k, l) = divmod(a, n), divmod(b, n)
        expected = {}
        if j == k:
            expected[i * n + l] = 1
        if l == i:
            expected[k * n + j] = expected.get(k * n + j, 0) - 1
        assert gl.bracket_coeffs(a, b) == {d: c for d, c in expected.items() if c}
    assert gl.gram == tuple(tuple(F(int(j == k and i == l)) for k in range(n) for l in range(n))
                            for i in range(n) for j in range(n))


# sl2 with x = E12/2 in place of e: [x, f] = h/2
SL2_HALF = {"name": "sl2-half", "size": 2, "labels": ["x", "h", "f"],
            "matrices": [[[0, 1, "1/2"]], [[0, 0, "1"], [1, 1, "-1"]], [[1, 0, "1"]]],
            "cartan": [1], "blocks": [[[0, 1], [2]]]}


@pytest.mark.parametrize("build", [
    lambda: preset("sl3"), lambda: preset("gl3"),
    lambda: centralizer(3, [1, 1, 2]),
    lambda: load_config(str(Path(__file__).parent / "data" / "sp4.json")),
    lambda: algebra_from_dict(SL2_HALF)], ids=["sl3", "gl3", "z_gl3", "sp4", "sl2-half"])
def test_bracket_table_holds_both_orientations(build):
    """bracket_coeffs(b, a) is the negative of bracket_coeffs(a, b), each
    read off the table, and every coefficient and matrix entry is an ``int``
    where its denominator is 1: LoopAlgebra and the PBW contexts read them
    as they are."""
    alg = build()
    fractions = 0
    for a, b in itertools.product(range(alg.dim), repeat=2):
        ab = alg.bracket_coeffs(a, b)
        assert alg.bracket_coeffs(b, a) == {d: -c for d, c in ab.items()}
        assert all(type(c) is (int if c.denominator == 1 else F) for c in ab.values())
        fractions += sum(type(c) is F for c in ab.values())
    assert all(type(x) is (int if x.denominator == 1 else F)
               for M in alg.matrices for x in M.values())
    # sl2-half has one non-integral coefficient, [x, f] = h/2, in each orientation
    assert fractions == (2 if alg.name == "sl2-half" else 0)


def _dense_matrices(alg):
    """The basis matrices of a matrix algebra as dense lists of rows."""
    size = alg.size
    return [[[M.get((i, j), F(0)) for j in range(size)] for i in range(size)]
            for M in alg.matrices]


def _trace_power_by_tuples(alg, k, indices):
    """tr X^k for X = sum_a x_a E^a over the basis elements in ``indices``,
    expanded over every index tuple (a_1..a_k) as
    tr(E^{a_1} ... E^{a_k}) x_{a_1} ... x_{a_k}, with dense matrices: the
    definition, at |indices|^k matrix products."""
    size = alg.size
    mats = _dense_matrices(alg)
    ginv = alg.gram_inv
    duals = [[[sum(ginv[b][a] * mats[b][i][j] for b in range(alg.dim))
               for j in range(size)] for i in range(size)] for a in range(alg.dim)]

    def mul(A, B):
        return [[sum(A[i][t] * B[t][j] for t in range(size)) for j in range(size)]
                for i in range(size)]

    terms = {}
    for tup in itertools.product(indices, repeat=k):
        prod = duals[tup[0]]
        for a in tup[1:]:
            prod = mul(prod, duals[a])
        c = sum(prod[i][i] for i in range(size))
        mono = monomial((a, 0) for a in tup)
        terms[mono] = terms.get(mono, 0) + c
    return CommPoly(terms)


@pytest.mark.parametrize("name,C", [("sl2", None), ("sl3", None), ("gl2", None),
                                    ("gl3", None), ("gl3", [1, 1, 2]), ("gl4", [1, 1, 2, 2])])
def test_invariants_match_tuple_expansion(name, C):
    """The generic-matrix invariants equal tr X_B^k expanded over index
    tuples.  An sl_n or gl_n preset is one block, degrees 2..n or 1..n; z(C)
    has one block B per group of equal entries of C, degrees 1..|B|, whose
    basis elements are the matrix units inside B x B."""
    alg = preset(name)
    size = alg.size
    if C is None:
        blocks = [(range(size), range(2 if name.startswith("sl") else 1, size + 1))]
    else:
        alg = centralizer(size, C)
        groups = [[i for i in range(size) if C[i] == c] for c in dict.fromkeys(C)]
        blocks = [(blk, range(1, len(blk) + 1)) for blk in groups]
    expected = []
    mats = _dense_matrices(alg)
    for blk, degrees in blocks:
        inside = [a for a in range(alg.dim)
                  if all(mats[a][i][j] == 0 or (i in blk and j in blk)
                         for i in range(size) for j in range(size))]
        expected += [(k, _trace_power_by_tuples(alg, k, inside)) for k in degrees]
    expected.sort(key=lambda kp: kp[0])
    assert [(p.degree, p.poly) for p in alg.invariant_generators()] == expected


def test_non_subalgebra_rejected():
    """Negative control: E12 and E21 of gl2 span no subalgebra, since
    [E12, E21] = E11 - E22 lies outside their span."""
    e12, e21 = {(0, 1): F(1)}, {(1, 0): F(1)}
    with pytest.raises(ValidationError, match="not closed under bracket"):
        LieAlgebraData("bad", ["e12", "e21"], 2, [e12, e21], [], [], [([0, 1], [1, 2])])


def test_coordinates_are_exact():
    """A matrix's coordinates reproduce it; one outside the span raises."""
    sl2 = preset("sl2")
    assert sl2.coordinates({(0, 0): F(3), (1, 1): F(-3), (0, 1): F(2)}, "x") == \
        [F(2), F(3), F(0)]
    with pytest.raises(ValidationError, match="^outside$"):
        sl2.coordinates({(0, 0): F(1)}, "outside")


class TestValidation:
    def test_presets_validate(self):
        for name in ("sl2", "sl3", "gl2", "gl3", "gl4"):
            alg = preset(name)
            assert alg.dim == len(alg.labels)

    @pytest.mark.parametrize("name, C", [
        ("sl2", None), ("sl3", None), ("gl1", None), ("gl2", None), ("gl3", None),
        ("gl4", None), ("gl5", None), ("gl3", (1, 1, 2)), ("gl3", (1, 2, 3)),
        ("gl4", (1, 1, 2, 2))])
    def test_matrix_algebras_validate_as_configs(self, name, C):
        # a matrix algebra written as a config loads through algebra_from_dict
        # into the same bracket table, form, weights and invariants
        alg = gl_algebra(5) if name == "gl5" else preset(name)
        if C is not None:
            alg = centralizer(alg.size, C)
        cfg = algebra_from_dict(json.loads(json.dumps(_as_config(alg))))
        assert cfg._brackets == alg._brackets and cfg.gram == alg.gram
        assert cfg.weights == alg.weights
        assert cfg.invariant_generators() == alg.invariant_generators()

    def test_degenerate_form_rejected(self):
        # strictly upper-triangular matrices are closed but trace-orthogonal
        with pytest.raises(ValidationError, match="singular matrix"):
            LieAlgebraData("n3", ["e12", "e13", "e23"], 3,
                           [{(0, 1): 1}, {(0, 2): 1}, {(1, 2): 1}], [], [([0, 1, 2], [1])])


class TestTorus:
    """A torus element C is its diagonal entries, parsed once by
    ``parse_torus``; chi and z are parsed by ``parse_entries``."""

    def test_zero_entry_rejected(self):
        for C in ([1, 0], ["0", "2"], [F(0), 1]):
            with pytest.raises(ValidationError, match=r"^torus entries must be invertible"):
                parse_torus(C)
        assert parse_entries([1, 0]) == [1, 0]  # chi and z may hold a zero

    def test_entries_exact(self):
        for parse in (parse_torus, parse_entries):
            entries = parse([2, "1/10", F(3, 4)])
            assert entries == [F(2), F(1, 10), F(3, 4)]
            assert all(type(e) is F for e in entries)
        # a float would carry its binary expansion into every coefficient; a
        # formal parameter is no entry; a string is read by parse_rational,
        # which refuses a power of ten past its digit bound unexpanded
        for bad in (0.1, 1.0, "x", SymPoly("h", [1, 1]), "1e3000000"):
            for refuse in (lambda: parse_torus([bad, 1]), lambda: parse_entries([bad, 1]),
                           lambda: verify_eval_gaudin("sl2", [0, bad], 2),
                           lambda: verify_soa("sl3", [bad, 1, -3], 0),
                           lambda: dump_generators("soa", algebra="sl2", chi=[bad, -1])):
                with pytest.raises(ValidationError):
                    refuse()
        listing = dump_generators("classical-bethe", n=2, C=["1/10", 1], smax=1)
        assert listing.checks[0].details["generators"] == {
            "sigma_1^(1)": "1/10*gamma[1,1;1] + 1*gamma[2,2;1]",
            "sigma_2^(1)": "1/10*gamma[1,1;1] + 1/10*gamma[2,2;1]"}


class TestCentralizer:
    def test_block_case(self):
        z = centralizer(3, [1, 1, 2])
        assert z.dim == 5
        assert z.rank == 3
        assert sorted(z.exponents) == [0, 0, 1]
        assert [p.degree for p in z.invariant_generators()] == [1, 1, 2]

    def test_regular_case_is_cartan(self):
        gl3 = preset("gl3")
        z = centralizer(3, [1, 2, 3])
        assert z.dim == gl3.rank
        assert all(not z.bracket_coeffs(a, b) for a in range(3) for b in range(3))

    def test_identity_case(self):
        gl2 = preset("gl2")
        z = centralizer(2, [1, 1])
        assert z.dim == gl2.dim
        assert sorted(z.exponents) == [0, 1]
        # z(E) = gl_n embeds into gl_n by the identity, as limit at C0 = E reads it
        assert z.ambient_indices == gl2.ambient_indices == list(range(gl2.dim))
        assert z._brackets == gl2._brackets

    def test_output_validates(self):
        z = centralizer(4, [1, 1, 2, 2])
        z.validate()
        assert z.dim == 8


class TestInvariants:
    def test_sl2_casimir(self):
        sl2 = preset("sl2")
        invs = sl2.invariant_generators()
        assert [p.degree for p in invs] == [2]
        e, h, f = 0, 1, 2
        expected = (CommPoly.variable(h, 0) ** 2).scale(F(1, 2)) + \
            (CommPoly.variable(e, 0) * CommPoly.variable(f, 0)).scale(2)
        assert invs[0].poly == expected

    def test_degrees(self):
        assert [p.degree for p in preset("gl2").invariant_generators()] == [1, 2]
        assert [p.degree for p in preset("sl3").invariant_generators()] == [2, 3]

    def test_ad_invariance(self):
        for name in ("sl2", "gl2", "sl3", "gl3"):
            alg = preset(name)
            loop = LoopAlgebra(alg)
            for inv in alg.invariant_generators():
                for a in range(alg.dim):
                    assert loop.poisson0(CommPoly.variable(a, 0), inv.poly).is_zero()


def _roots(alg):
    """The derived roots: {basis index: alpha} over the nonzero weights."""
    return {b: alpha for b, alpha in enumerate(alg.weights) if any(alpha)}


def _pairing(alpha, cartan_coords):
    return sum(a * c for a, c in zip(alpha, cartan_coords))


def _typed_gl_roots(alg):
    """The formula gl_n and z(C) once typed: alpha(E_dd) = delta_di - delta_dj
    for E_ij, i != j in one block."""
    n = alg.size
    return {alg.labels.index(f"e{i + 1}{j + 1}"):
            tuple(F(int(d == i)) - F(int(d == j)) for d in range(n))
            for blk, _ in alg.blocks for i in blk for j in blk if i != j}


def _typed_sl_roots(alg):
    """The formula sl_n once typed: alpha(h_d) = delta_di - delta_(d+1)i
    - (delta_dj - delta_(d+1)j) for e_ij, h_d = e_dd - e_(d+1)(d+1)."""
    n = alg.size
    return {alg.labels.index(f"e{i + 1}{j + 1}"):
            tuple(F(int(d == i)) - F(int(d + 1 == i)) - F(int(d == j)) + F(int(d + 1 == j))
                  for d in range(n - 1))
            for i in range(n) for j in range(n) if i != j}


# the roots tests/data/sp4.json typed as (alpha, e, f) before they were derived
SP4_TYPED = [((1, -1), 0, 6), ((2, 0), 1, 7), ((0, 2), 2, 8), ((1, 1), 3, 9)]


class TestRootData:
    def test_gl_pairings(self):
        gl3 = preset("gl3")
        assert len(_roots(gl3)) == 6
        for alpha in _roots(gl3).values():
            assert _pairing(alpha, [F(1), F(2), F(4)]) != 0  # 1,2,4 is regular

    def test_sl3_pairings(self):
        sl3 = preset("sl3")
        # chi = diag(1,2,-3) has cartan coordinates via h1, h2
        from loopcert.families import cartan_coords, diag_to_basis
        chi = diag_to_basis(sl3, [1, 2, -3])
        cc = cartan_coords(sl3, chi)
        assert len(_roots(sl3)) == 6
        assert all(_pairing(alpha, cc) != 0 for alpha in _roots(sl3).values())

    @pytest.mark.parametrize("build, typed", [
        *((partial(gl_algebra, n), _typed_gl_roots) for n in range(1, 6)),
        (partial(preset, "sl2"), _typed_sl_roots), (partial(preset, "sl3"), _typed_sl_roots),
        (partial(centralizer, 3, [1, 1, 2]), _typed_gl_roots),
        (partial(centralizer, 4, [1, 1, 2, 2]), _typed_gl_roots)],
        ids=["gl1", "gl2", "gl3", "gl4", "gl5", "sl2", "sl3", "z(1,1,2)", "z(1,1,2,2)"])
    def test_derived_roots_match_the_typed_formulas(self, build, typed):
        # every basis vector is a weight vector, and the nonzero weights are
        # the roots the presets once typed, both signs, at the same indices
        alg = build()
        assert len(alg.weights) == alg.dim
        assert _roots(alg) == typed(alg)

    def test_sp4_roots_are_the_typed_ones_in_both_signs(self):
        sp4 = load_config(str(Path(__file__).parent / "data" / "sp4.json"))
        expected = {}
        for alpha, e, f in SP4_TYPED:
            expected[e], expected[f] = alpha, tuple(-a for a in alpha)
        assert _roots(sp4) == expected

    def test_stale_roots_key_is_ignored(self, tmp_path, capsys):
        # a config's "roots" is no longer read: a wrong alpha, which refused
        # every chi, leaves the derived weights and a regular chi as they are
        data = json.loads((Path(__file__).parent / "data" / "sp4.json").read_text())
        plain = algebra_from_dict(data)
        data["roots"] = [{"alpha": ["0", "0"], "e": 0, "f": 6}]
        assert algebra_from_dict(data).weights == plain.weights
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["verify-soa", "--algebra", str(path), "--chi", "1,3,-1,-3"]) == 0
        assert "all checks passed" in capsys.readouterr().out


def _as_config(alg):
    """A matrix algebra written in the config schema."""
    return {"name": alg.name, "size": alg.size, "labels": alg.labels,
            "matrices": [[[i, j, str(x)] for (i, j), x in M.items()] for M in alg.matrices],
            "cartan": alg.cartan_indices,
            "blocks": [[list(blk), list(degrees)] for blk, degrees in alg.blocks]}


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        sl2 = preset("sl2")
        path = tmp_path / "sl2.json"
        path.write_text(json.dumps(_as_config(sl2)))
        loaded = load_config(str(path))
        assert loaded.dim == 3
        assert loaded.bracket_coeffs(0, 2) == sl2.bracket_coeffs(0, 2)

    def test_rational_coefficients(self):
        data = {
            "size": 2, "labels": ["x", "y"], "matrices": [[[0, 0, "1/2"]], [[1, 1, "3"]]],
            "cartan": [0, 1], "blocks": [[[0], [1]], [[1], [1]]],
        }
        alg = algebra_from_dict(data)
        assert alg.gram[0][0] == F(1, 4)
        assert [p.poly for p in alg.invariant_generators()] == [
            CommPoly.variable(0, 0).scale(2), CommPoly.variable(1, 0).scale(F(1, 3))]

    def test_bad_invariant_rejected(self):
        data = _sl2r()
        data["invariants"] = [{"degree": 2, "terms": [{"monomial": [[1, 2]], "coeff": "1"}]}]
        with pytest.raises(ValidationError, match="not ad-invariant"):
            algebra_from_dict(data)  # h^2 alone is not ad-invariant

    def test_supplied_invariants_replace_trace_powers(self):
        # the README's example invariant of sl2r is tr X^2 itself
        data = _sl2r()
        supplied = algebra_from_dict(data).invariant_generators()
        del data["invariants"]
        assert algebra_from_dict(data).invariant_generators() == supplied
        data["blocks"] = [[[0, 1], [2, 4]]]
        with pytest.raises(ValidationError, match="invariant degrees do not match"):
            algebra_from_dict({**data, "invariants": _sl2r()["invariants"]})


def _sl2r():
    """The README's sl2r config, with its invariant supplied."""
    return {
        "size": 2, "labels": ["e", "h", "f"],
        "matrices": [[[0, 1, "1"]], [[0, 0, "1"], [1, 1, "-1"]], [[1, 0, "1"]]],
        "cartan": [1],
        "blocks": [[[0, 1], [2]]],
        "invariants": [
            {"degree": 2, "terms": [{"monomial": [[1, 2]], "coeff": "1/2"},
                                    {"monomial": [[0, 1], [2, 1]], "coeff": "2"}]}
        ],
    }


def _drop_terms(d):
    del d["invariants"][0]["terms"]


def _bad_coeff(d):
    d["invariants"][0]["terms"][0]["coeff"] = "one half"


def _huge_coeff(d):
    d["matrices"][0][0][2] = "1e3000000"


def _invariant_index_7(d):
    d["invariants"][0]["terms"][0]["monomial"] = [[7, 2]]


def _multiplicity_0(d):
    d["invariants"][0]["terms"][1]["monomial"] = [[0, 1], [2, 0]]


def _matrix_index_7(d):
    d["matrices"][0][0] = [0, 7, "1"]


def _cartan_index_9(d):
    d["cartan"] = [9]


def _not_closed(d):
    # (E12, E11, E21): [E12, E21] = E11 - E22 leaves the span
    d["matrices"][1] = [[0, 0, "1"]]


def _upper_triangular(d):
    # E12, E13, E23 are closed, and every trace pairing among them is zero
    d["size"], d["matrices"] = 3, [[[0, 1, "1"]], [[0, 2, "1"]], [[1, 2, "1"]]]


def _repeated_degree(d):
    # one tr X^2 would be built for a rank of 2, and verify-soa passed on it
    d["blocks"] = [[[0, 1], [2, 2]]]


def _old_schema(d):
    d["brackets"] = [[0, 1, 0, "-2"], [0, 2, 1, "1"], [1, 2, 2, "-2"]]


@pytest.mark.parametrize("corrupt, message", [
    (_drop_terms, "malformed algebra config: 'terms'"),
    (_bad_coeff, "cannot parse rational from 'one half'"),
    (_huge_coeff, "rational '1e3000000' is past the bound of 1000 digits"),
    (_invariant_index_7, "invariant index 7 outside 0..2"),
    (_multiplicity_0, "invariant multiplicity 0 is not positive"),
    (_matrix_index_7, "matrix entry index 7 outside 0..1"),
    (_cartan_index_9, "cartan index 9 outside 0..2"),
    (_not_closed, "matrices are not closed under bracket"),
    (_upper_triangular, "singular matrix"),
    (_repeated_degree, "a block repeats an invariant degree"),
    (_old_schema, "structure constants .* are no longer read: a config gives 'size', 'matrices'"),
])
def test_malformed_config_rejected(tmp_path, capsys, corrupt, message):
    data = _sl2r()
    assert algebra_from_dict(json.loads(json.dumps(data))).dim == 3
    corrupt(data)
    with pytest.raises(ValidationError, match=message):
        algebra_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify-gaudin", "--algebra", str(path), "--kmax", "1"]) == 2
    assert "error [ValidationError]" in capsys.readouterr().err


def _nothing_built(*args, **kw):
    raise AssertionError("an algebra was built")


def test_config_past_dim_bound_refused_before_validate(monkeypatch):
    # diagonal matrices and no block: the bound admits its own dim, and
    # validate then refuses rank 0; past it, not even the matrices are read
    def abelian(dim):
        return {"size": dim, "matrices": [[[a, a, "1"]] for a in range(dim)],
                "labels": [f"x{a}" for a in range(dim)], "cartan": list(range(dim)),
                "blocks": []}

    lo, hi = BOUNDS["config"]["dim"]
    with pytest.raises(ValidationError, match="rank must be positive, got 0"):
        algebra_from_dict(abelian(hi))
    monkeypatch.setattr(LieAlgebraData, "__init__", _nothing_built)
    for dim in (hi + 1, 256, 257, 300):
        with pytest.raises(BoundsError, match=rf"config dim = {dim} outside documented bounds "
                                              rf"\[{lo}, {hi}\]: .* took 2\.3-2\.8 s"):
            algebra_from_dict(abelian(dim))


def test_config_degree_bound_refused_before_anything_is_built(monkeypatch):
    lo, hi = BOUNDS["config"]["degree"]
    data = _sl2r()
    del data["invariants"]
    data["blocks"] = [[[0, 1], [hi]]]
    assert [p.degree for p in algebra_from_dict(data).invariant_generators()] == [hi]
    monkeypatch.setattr(LieAlgebraData, "__init__", _nothing_built)
    for k in (lo - 1, hi + 1):
        data["blocks"] = [[[0, 1], [2, k]]]
        with pytest.raises(BoundsError, match=rf"config block degree {k} outside documented "
                                              rf"bounds \[{lo}, {hi}\]: .* took 31 s"):
            algebra_from_dict(data)
