"""Golden-file regression anchors for the canonical serializations."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from loopcert.certify import _bideg, _curve_exponents, dump_generators
from loopcert.cli import main
from loopcert.commpoly import LoopAlgebra
from loopcert.envelop import talalaev_generators
from loopcert.families import (bethe_component_polys, classical_bethe, embed_subalgebra_poly,
                               gamma_label, gaudin_generators)
from loopcert.liealg import centralizer, preset
from loopcert.linalg import bigraded_block, degree_buckets, limit_subspace, Subspace
from loopcert.yangian import bethe_generators, yangian

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("n,entries", [(2, [1, 2]), (3, [1, 2, 3])])
def test_tau_coefficients(n, entries):
    ctx = yangian(n, 4)
    taus = bethe_generators(ctx, entries, 4)
    got = {f"tau_{k}^({s})": p.render()
           for (k, s), p in sorted(taus.items())}
    name = f"tau_gl{n}_N4_C{'_'.join(map(str, entries))}.json"
    expected = json.loads((GOLDEN / name).read_text())
    assert got == expected


@pytest.mark.parametrize("n,entries,smax", [(3, [1, 1, 2], 3), (2, [1, 2], 4)])
def test_classical_bethe_coefficients(n, entries, smax):
    sigma = classical_bethe(n, entries, [0] * n, smax)
    got = {f"sigma_{k}^({r})": p.at_zero().render(gamma_label(n))
           for (k, r), p in sorted(sigma.items())}
    name = f"classical_bethe_gl{n}_S{smax}_C{'_'.join(map(str, entries))}.json"
    expected = json.loads((GOLDEN / name).read_text())
    assert got == expected


def test_classical_bethe_rational_C():
    """``gens --family classical-bethe`` at a rational C: the family is built
    at L C, L the lcm of the denominators, and each sigma_k divided by L^k."""
    got = dump_generators("classical-bethe", n=3, C=["1/2", "2/3", "3"], smax=3)
    name = "classical_bethe_gl3_S3_C1over2_2over3_3.json"
    assert got.checks[0].details["generators"] == json.loads((GOLDEN / name).read_text())


@pytest.mark.parametrize("n,R", [(2, 3), (3, 2)])
def test_talalaev_generators(n, R):
    tal = talalaev_generators(n, R)
    got = {f"QI_{i}^({s})": p.render() for (i, s, p) in tal}
    expected = json.loads((GOLDEN / f"talalaev_gl{n}_R{R}.json").read_text())
    assert got == expected


@pytest.mark.parametrize("name,family,kw", [
    ("gaudin_sl2_K3.json", "gaudin", {"algebra": "sl2", "kmax": 3}),
    ("gaudin_sl3_K3.json", "gaudin", {"algebra": "sl3", "kmax": 3}),
    ("gaudin_gl3_K3.json", "gaudin", {"algebra": "gl3", "kmax": 3}),
    ("soa_sl3_chi1_2_-3.json", "soa", {"algebra": "sl3", "chi": ["1", "2", "-3"]}),
])
def test_invariant_families(name, family, kw):
    """The Gaudin and shift-of-argument families, as ``gens`` lists them:
    they are built from the invariant generators of the matrix presets."""
    got = dump_generators(family, **kw).checks[0].details["generators"]
    assert got == json.loads((GOLDEN / name).read_text())


def test_golden_qi22_hand_derivation():
    """z^-2 coefficient of the d^0 part for n=2, derived by hand:
    L11 L22 - L21 L12 - L22' at z^-2 = e11[0] + e11[0]e22[0] - e12[0]e21[0]."""
    expected = json.loads((GOLDEN / "talalaev_gl2_R3.json").read_text())
    assert expected["QI_2^(2)"] == "1*e11[0] + 1*e11[0]*e22[0] + -1*e12[0]*e21[0]"


def subspace_json(S: Subspace) -> dict:
    """Canonical rows as JSON: (pivot column, [[column, entry], ...]) pairs
    in pivot order, each row's entries by column, every entry a Fraction."""
    assert all(type(x) is Fraction for _, r in S.rows for x in r.values())
    return {"ambient_size": len(S.ambient),
            "rows": [[col, [[j, str(x)] for j, x in sorted(r.items())]] for col, r in S.rows]}


def poincare_gl3_rows() -> Subspace:
    """The degree-4 component of the classical Bethe subalgebra of gl3 at
    C = diag(1, 2, 3), as ``poincare --cutoff 4`` spans it."""
    sigma = classical_bethe(3, [1, 2, 3], [0, 0, 0], 4)
    buckets = bethe_component_polys({k: s.at_zero() for k, s in sigma.items()}, 4)
    return Subspace.span_of(buckets[4], LoopAlgebra(preset("gl3")).component_monomials(4))


def theorem_a_gl3_block() -> Subspace:
    """The bidegree-(4, 0) block of the Gaudin family of z(C) in gl3 at
    C = diag(1, 1, 2), as ``gr --comparison theorem-A --max-deg 4`` compares it."""
    gl = preset("gl3")
    z = centralizer(3, [1, 1, 2])
    zgens = [(embed_subalgebra_poly(z, g.poly), g.deg1)
             for g in gaudin_generators(z, 3) if g.deg1 <= 4]
    ambient = LoopAlgebra(gl).component_monomials(4)
    bidegs = [_bideg(m) for m in ambient]
    return bigraded_block(degree_buckets(zgens, 4)[4], ambient, bidegs, 4)[0]


@pytest.mark.parametrize("name,build", [
    ("subspace_poincare_gl3_C1_2_3_d4.json", poincare_gl3_rows),
    ("subspace_theorem_A_gl3_C1_1_2_block4_0.json", theorem_a_gl3_block),
])
def test_canonical_subspace_rows(name, build):
    """The exact canonical rows, pivots and entries, of one ``poincare`` and
    one ``theorem-A`` subspace."""
    assert subspace_json(build()) == json.loads((GOLDEN / name).read_text())


@pytest.mark.parametrize("name,n,c0,chi,dmax", [
    ("subspace_limit_gl2_C0_1_1_chi_1_-1_d4.json", 2, [1, 1], [1, -1], 4),
    ("subspace_limit_gl3_C0_1_1_2_chi_1_-1_0_d3.json", 3, [1, 1, 2], [1, -1, 0], 3),
])
def test_limit_subspace_rows(name, n, c0, chi, dmax):
    """The exact canonical rows of the ``limit`` components along
    C0 exp(eps chi), degrees 1..dmax, chained as the suite chains them."""
    exponents, _ = _curve_exponents([Fraction(x) for x in chi])
    curve = bethe_component_polys(classical_bethe(n, c0, exponents, dmax), dmax)
    loop = LoopAlgebra(preset(f"gl{n}"))
    got, K = {}, 4
    for d in range(1, dmax + 1):
        lim, K = limit_subspace(loop.component_monomials(d), curve[d], K)
        got[str(d)] = subspace_json(lim)
    assert got == json.loads((GOLDEN / name).read_text())


@pytest.mark.parametrize("name,argv", [
    ("report_gr_centralizer_sl2_d6.json", "gr --comparison centralizer --algebra sl2 --max-deg 6"),
    ("report_gr_theorem_A_gl3_C1_1_2_d4.json",
     "gr --comparison theorem-A --algebra gl3 --C 1,1,2 --max-deg 4"),
    ("report_talalaev_n2_R3_d5.json", "verify-talalaev --n 2 --R 3 --max-deg 5"),
    ("report_limit_gl2_C0_1_1_chi_1_-1_d4.json", "limit --algebra gl2 --C0 1,1 --chi 1,-1 --deg 4"),
    ("report_bethe_gl3_C1_2_3_d4.json", "verify-bethe --algebra gl3 --C 1,2,3 --max-deg 4"),
])
def test_span_suite_reports(name, argv, tmp_path):
    """The ``--json`` reports of the four span suites and of verify-bethe,
    byte for byte: a passing span check reports the dims of its two sides
    and nothing more, and a passing verify-bethe lists every pair of taus
    with the commutator "0"."""
    path = tmp_path / name
    assert main(argv.split() + ["--json", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


# sl2 with x = E12/2 in place of e: [x, f] = h/2 and (x, f) = 1/2
SL2_HALF = {"name": "sl2-half", "size": 2, "labels": ["x", "h", "f"],
            "matrices": [[[0, 1, "1/2"]], [[0, 0, "1"], [1, 1, "-1"]], [[1, 0, "1"]]],
            "cartan": [1], "blocks": [[[0, 1], [2]]]}


@pytest.mark.parametrize("name,argv", [
    ("report_config_sl2r_verify_gaudin_k2.json", "verify-gaudin --algebra sl2r.json --kmax 2"),
    ("report_config_sl2r_gr_centralizer_d4.json",
     "gr --comparison centralizer --algebra sl2r.json --max-deg 4"),
    ("report_config_sl2r_eval_gaudin_z0_1_k2.json",
     "eval-gaudin --algebra sl2r.json --z 0,1 --kmax 2"),
    ("report_config_sl2r_gens_gaudin.json", "gens --family gaudin --algebra sl2r.json"),
    ("report_config_sl2_half_verify_gaudin_k2.json",
     "verify-gaudin --algebra sl2-half.json --kmax 2"),
    ("report_config_sp4_verify_soa_chi1_3_-1_-3.json",
     "verify-soa --algebra sp4.json --chi 1,3,-1,-3"),
    ("report_config_sp4_verify_gaudin_k2.json", "verify-gaudin --algebra sp4.json --kmax 2"),
    ("report_config_sp4_gr_centralizer_d4.json",
     "gr --comparison centralizer --algebra sp4.json --max-deg 4"),
])
def test_config_reports(name, argv, tmp_path, monkeypatch):
    """The ``--json`` reports of config algebras given as matrices, byte for
    byte: the README's sl2r and sl2-half, recorded when a config gave
    structure constants, a form and its invariant instead, and sp4 = so5
    (``tests/data/sp4.json``, outside type A), recorded when ``LoopAlgebra``
    still took a truncation level."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (tmp_path / "sl2r.json").write_text(readme.split("```json\n", 1)[1].split("```", 1)[0],
                                        encoding="utf-8")
    (tmp_path / "sl2-half.json").write_text(json.dumps(SL2_HALF), encoding="utf-8")
    (tmp_path / "sp4.json").write_bytes((Path(__file__).parent / "data" / "sp4.json").read_bytes())
    monkeypatch.chdir(tmp_path)
    assert main(argv.split() + ["--json", "report.json"]) == 0
    assert (tmp_path / "report.json").read_bytes() == (GOLDEN / name).read_bytes()
