"""Golden-file regression anchors for the canonical serializations."""

import json
from pathlib import Path

import pytest

from loopcert.certify import dump_generators
from loopcert.envelop import talalaev_generators
from loopcert.families import classical_bethe, gamma_label
from loopcert.liealg import TorusElement
from loopcert.yangian import bethe_generators, yangian

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("n,entries", [(2, [1, 2]), (3, [1, 2, 3])])
def test_tau_coefficients(n, entries):
    ctx = yangian(n, 4)
    taus = bethe_generators(ctx, TorusElement.diagonal(entries), 4)
    got = {f"tau_{k}^({s})": p.render()
           for (k, s), p in sorted(taus.items())}
    name = f"tau_gl{n}_N4_C{'_'.join(map(str, entries))}.json"
    expected = json.loads((GOLDEN / name).read_text())
    assert got == expected


@pytest.mark.parametrize("n,entries,smax", [(3, [1, 1, 2], 3), (2, [1, 2], 4)])
def test_classical_bethe_coefficients(n, entries, smax):
    sigma = classical_bethe(n, TorusElement.diagonal(entries), smax)
    got = {f"sigma_{k}^({r})": p.render(gamma_label(n))
           for (k, r), p in sorted(sigma.items())}
    name = f"classical_bethe_gl{n}_S{smax}_C{'_'.join(map(str, entries))}.json"
    expected = json.loads((GOLDEN / name).read_text())
    assert got == expected


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
