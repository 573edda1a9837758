import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import types
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loopcert import certify, envelop
from loopcert.cli import main
from loopcert.commpoly import CommPoly, LoopAlgebra, mono_deg1, var_of, weighted_words
from loopcert.errors import BoundsError, RegularityError, ValidationError
from loopcert.families import (bethe_component_polys, classical_bethe, diag_to_basis,
                               embed_subalgebra_poly, gaudin_generators, soa_generators)
from loopcert.liealg import centralizer, gl_algebra, load_config, preset
from loopcert.linalg import (Subspace, bigraded_block, degree_buckets, free_generators,
                             free_series_coeffs, generator_products, jacobian_pivots,
                             limit_subspace)
from loopcert.scalars import leibniz_det

# the module, which the package's ``yangian`` function shadows as an attribute
ymod = importlib.import_module("loopcert.yangian")
GOLDEN = Path(__file__).parent / "golden"


def spy_span_checks(monkeypatch):
    """The (check, left side, right side, render) of every ``_span_check``
    that the suites make from now on."""
    calls = []
    real = certify._span_check

    def spy(name, left, right, render):
        calls.append((real(name, left, right, render), left, right, render))
        return calls[-1][0]

    monkeypatch.setattr(certify, "_span_check", spy)
    return calls


def assert_witness_vectors(calls):
    """Some span check failed, and each FAIL's witness names both dims and a
    vector, read back from its text, that lies in the side it names and not
    in the other."""
    failed = [call for call in calls if not call[0].passed]
    assert failed
    for check, (a, A), (b, B), render in failed:
        dims, _, rest = check.witness.partition(": ")
        assert dims == f"dims {A.dim} vs {B.dim}"
        side, _, rest = rest.partition(" holds ")
        text, _, other = rest.rpartition(" outside ")
        assert (side, other) in ((a, b), (b, a))
        inside, outside = (A, B) if side == a else (B, A)
        # each ambient label as render writes it in a term with coefficient 1
        label = {render({m: F(1)}).split("*", 1)[1]: m for m in A.ambient}
        terms = {}
        for term in text.split(" + "):
            c, mono = term.split("*", 1)
            terms[label[mono]] = F(c)
        vector = types.SimpleNamespace(terms=terms)
        assert inside.contains_poly(vector) and not outside.contains_poly(vector)


def label_rows(S):
    """The canonical rows of a subspace, keyed by ambient label."""
    return [(S.ambient[col], {S.ambient[j]: c for j, c in row.items()}) for col, row in S.rows]


def assert_support_matches(calls, full):
    """The two sides of each span check, spanned over the labels they hold,
    have the rows keyed by label of the same sides spanned over the full
    component (``full``, in check order), and each such ambient is the full
    one cut to its labels, in the full one's order."""
    assert len(calls) == len(full)
    for (_, (_, A), (_, B), _), sides in zip(calls, full):
        for S, whole in zip((A, B), sides):
            assert label_rows(S) == label_rows(whole)
            held = set(S.ambient)
            assert [m for m in whole.ambient if m in held] == list(S.ambient)


class TestReportPlumbing:
    def test_failing_check_summary(self):
        rep = certify.Report("demo", {"x": F(1, 2)}, [
            certify.Check("good"),
            certify.Check("bad", witness="1*t[1,1;1]"),
        ])
        assert not rep.passed
        lines = rep.summary_lines()
        assert lines[0] == "[PASS] good"
        assert lines[1].startswith("[FAIL] bad")
        assert "1*t[1,1;1]" in lines[1]
        assert "FAILURES" in lines[-1]

    def test_json_rationals_as_strings(self):
        rep = certify.Report("demo", {"C": [F(1, 2), F(-3)]},
                             [certify.Check("c", details={"v": F(7, 3)})])
        doc = rep.to_dict()
        assert doc["params"]["C"] == ["1/2", "-3"]
        assert doc["checks"][0]["details"]["v"] == "7/3"
        json.dumps(doc)  # JSON-serializable end to end

    def test_check_defaults_and_equality(self):
        a, b = certify.Check("c"), certify.Check("c")
        assert a.details == {} and a.witness is None
        assert a.details is not b.details
        a.details["k"] = 1
        assert b.details == {}
        assert a != b
        b.details["k"] = 1
        assert a == b
        assert certify.Check("c", witness="w") != certify.Check("c")

    def test_verdict_is_the_absence_of_a_witness(self):
        # a FAIL cannot be built without a witness, nor a PASS with one
        bad, good = certify.Check("bad", witness="w"), certify.Check("good")
        assert not bad.passed and good.passed
        doc = certify.Report("demo", {}, [good, bad]).to_dict()
        assert doc["pass"] is False
        assert [(c["pass"], c["witness"]) for c in doc["checks"]] == [(True, None), (False, "w")]
        with pytest.raises(AttributeError):
            good.passed = False

    def test_parse_entries_diagnostics(self):
        with pytest.raises(ValidationError):
            certify.parse_entries(["1", "two"])


class TestSuites:
    def test_bethe_parallel_workers_match_sequential(self):
        seq = certify.verify_bethe(2, ["1", "2"], 2, workers=1)
        par = certify.verify_bethe(2, ["1", "2"], 2, workers=2)
        assert seq.passed and par.passed
        assert seq.to_dict()["checks"] == par.to_dict()["checks"]

    def test_poincare_gl3_regular(self):
        rep = certify.poincare_bethe(3, ["1", "2", "3"], 3)
        assert rep.passed
        assert rep.checks[0].details["dims"] == [1, 3, 9, 22]

    def test_theorem_B_generic_dims_check(self):
        # chi = (1, -1) = 1 * (1, -1): C(h) = diag((1+h)^2, 1), h = exp(eps) - 1
        rep = certify.verify_theorem_B(2, ["1", "1"], ["1", "-1"], dmax=2)
        assert rep.passed
        assert len(rep.checks) == 3
        doc = rep.to_dict()["checks"][0]
        assert doc["details"] == {"exponents": [2, 0], "g_over_m": "1",
                                  "dims": [1, 2, 5], "expected": [1, 2, 5]}

    @pytest.mark.parametrize("chi,exponents,g_over_m", [
        (["1", "-1"], [2, 0], F(1)),
        (["2", "-2"], [2, 0], F(2)),
        (["1/2", "-1/3", "0"], [5, 0, 2], F(1, 6)),
        (["-3", "6", "3"], [0, 3, 2], F(3)),
        (["0", "0"], [0, 0], F(0)),
    ])
    def test_curve_exponents(self, chi, exponents, g_over_m):
        got = certify._curve_exponents(certify.parse_entries(chi))
        assert got == (exponents, g_over_m)

    def test_theorem_B_product_check_can_fail(self, monkeypatch):
        # negative control: drop one shift-of-argument generator
        real = certify.soa_generators
        monkeypatch.setattr(certify, "soa_generators",
                            lambda alg, chi: real(alg, chi)[:-1])
        calls = spy_span_checks(monkeypatch)
        rep = certify.verify_theorem_B(2, ["1", "1"], ["1", "-1"], dmax=2)
        assert rep.checks[0].passed
        assert [c for c, *_ in calls] == rep.checks[1:]
        assert_witness_vectors(calls)

    def test_theorem_B_product_check_names_a_vector_at_equal_dims(self, monkeypatch):
        # negative control: d_chi^1 Phi_2 = 2 e11[0] - 2 e22[0] replaced by
        # e12[0], of the same degree, so both sides keep their dims and only a
        # vector can tell them apart (the witness read "dims 2 vs 2" before)
        real = certify.soa_generators
        monkeypatch.setattr(certify, "soa_generators", lambda alg, chi: real(alg, chi)[:-1] + [
            real(alg, chi)[-1]._replace(poly=CommPoly.variable(1, 0))])
        calls = spy_span_checks(monkeypatch)
        rep = certify.verify_theorem_B(2, ["1", "1"], ["1", "-1"], dmax=2)
        assert rep.checks[0].passed
        assert [c.witness for c in rep.checks[1:]] == [
            "dims 2 vs 2: limit holds 1*e11[0] outside product",
            "dims 5 vs 5: limit holds 1*e11[0]^2 outside product"]
        assert_witness_vectors(calls)

    def test_theorem_B_generic_dims_check_can_fail(self, monkeypatch):
        # negative control: drop sigma_n^(1) from the curve, and so from its
        # value B(C0) at h = 0
        real = certify.classical_bethe

        def drop_one(n, *args):
            sigma = real(n, *args)
            del sigma[(n, 1)]
            return sigma

        monkeypatch.setattr(certify, "classical_bethe", drop_one)
        rep = certify.verify_theorem_B(2, ["1", "1"], ["1", "-1"], dmax=2)
        check = rep.checks[0]
        assert not check.passed
        assert check.witness == "dims [1, 1, 3] != expected [1, 2, 5]"

    def test_poincare_check_can_fail(self, monkeypatch):
        # negative control: drop sigma_n^(1) from the Bethe family
        real = certify.classical_bethe

        def drop_one(n, *args):
            sigma = real(n, *args)
            del sigma[(n, 1)]
            return sigma

        monkeypatch.setattr(certify, "classical_bethe", drop_one)
        rep = certify.poincare_bethe(2, ["1", "2"], 3)
        check = rep.checks[0]
        assert not check.passed
        assert check.witness == "dims [1, 1, 3, 5] != expected [1, 2, 5, 10]"

    def test_poincare_lower_bound_check_can_fail(self, monkeypatch):
        # negative control: drop every sigma_k^(1) from the Bethe family
        real = certify.classical_bethe
        monkeypatch.setattr(certify, "classical_bethe", lambda *args: {
            key: p for key, p in real(*args).items() if key[1] != 1})
        rep = certify.poincare_bethe(2, ["1", "2"], 3)
        check = rep.checks[1]
        assert not check.passed
        assert check.witness == "dims [1, 0, 2, 2] below bound [1, 1, 3, 5]"

    def test_poincare_product_control_falls_back_and_fails(self, monkeypatch):
        # negative control: sigma_2^(2) replaced by sigma_1^(1) sigma_2^(1), of
        # the same degree; the Jacobian comes out one short at every point, and
        # the elimination finds the dims for the witness
        real = certify.classical_bethe

        def product(n, *args):
            sigma = real(n, *args)
            sigma[(2, 2)] = sigma[(1, 1)] * sigma[(2, 1)]
            return sigma

        monkeypatch.setattr(certify, "classical_bethe", product)
        sigma = certify._constant_bethe(2, [F(1), F(2)], 3)
        point = {ch: 3 + ord(ch) % 7 for p in sigma.values() for m in p.terms for ch in m}
        assert len(jacobian_pivots(list(sigma.values()), point)) == len(sigma) - 1
        rep = certify.poincare_bethe(2, ["1", "2"], 3)
        check = rep.checks[0]
        assert not check.passed
        assert check.witness == "dims [1, 2, 4, 8] != expected [1, 2, 5, 10]"

    @pytest.mark.parametrize("n,C", [(2, [1, 2]), (3, [1, 2, 3]), (3, [1, 1, 2]),
                                     (4, [1, 1, 2, 2])])
    @pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
    def test_poincare_jacobian_dims_match_elimination(self, n, C, cutoff):
        # oracle: the dims the Jacobian proof asserts are the ones that
        # eliminating every product finds
        sigma = certify._constant_bethe(n, [F(c) for c in C], cutoff)
        degrees = [d for m in centralizer(n, C).exponents for k in range(cutoff)
                   if (d := m + 1 + k) <= cutoff]
        assert free_generators([(sigma[key], key[1]) for key in sorted(sigma)], degrees, 0)[2]
        assert free_series_coeffs(degrees, cutoff) == certify._eliminated_dims(sigma, cutoff)

    @pytest.mark.parametrize("C", [["1", "2", "3"], ["1", "1", "2"], ["1", "1", "1"]])
    def test_poincare_pass_eliminates_nothing(self, monkeypatch, C):
        # a PASS is proven at a point: no product of every sigma is built and
        # no component is enumerated
        def eliminated(*args):
            raise AssertionError("poincare eliminated")

        monkeypatch.setattr(certify, "bethe_component_polys", eliminated)
        monkeypatch.setattr(LoopAlgebra, "component_monomials", eliminated)
        assert certify.poincare_bethe(3, C, 4).passed

    def test_centralizer_pass_derives_weight_zero_only(self, monkeypatch):
        # the invariant elimination of each component is handed its weight-zero
        # monomials, in gl3 those whose row indices e_ij are their column
        # indices as multisets: fewer than the component has, so a return to
        # whole components fails here
        import loopcert.families as families
        handed = {}
        real = families.derivation

        def spy(p, image):
            (m,) = p.terms
            handed.setdefault(mono_deg1(m), set()).add(m)
            return real(p, image)

        monkeypatch.setattr(families, "derivation", spy)
        assert certify.verify_centralizer("gl3", 4).passed
        loop = LoopAlgebra(preset("gl3"))
        for d in range(5):
            comp = loop.component_monomials(d)
            labels = [[loop.alg.labels[a] for a, _ in map(var_of, m)] for m in comp]
            zero = {m for m, ls in zip(comp, labels)
                    if sorted(x[1] for x in ls) == sorted(x[2] for x in ls)}
            assert handed[d] == zero
            assert d == 0 or len(zero) < len(comp)

    @pytest.mark.parametrize("name,argv", [
        ("report_gr_theorem_A_gl3_C1_1_2_d4.json",
         "gr --comparison theorem-A --algebra gl3 --C 1,1,2 --max-deg 4"),
        ("report_limit_gl2_C0_1_1_chi_1_-1_d4.json",
         "limit --algebra gl2 --C0 1,1 --chi 1,-1 --deg 4"),
        ("report_talalaev_n2_R3_d5.json", "verify-talalaev --n 2 --R 3 --max-deg 5"),
    ])
    def test_span_suites_enumerate_no_component(self, monkeypatch, tmp_path, name, argv):
        # the span suites span over the monomials their sides hold: with no
        # component enumerable, their reports are the golden ones
        def enumerated(*args):
            raise AssertionError("a component was enumerated")

        monkeypatch.setattr(LoopAlgebra, "component_monomials", enumerated)
        assert main(argv.split() + ["--json", str(tmp_path / name)]) == 0
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_poincare_fail_enumerates_no_component(self, monkeypatch):
        # the fault of test_poincare_check_can_fail: the elimination that
        # finds a FAIL's dims spans over the monomials the products hold
        def enumerated(*args):
            raise AssertionError("a component was enumerated")

        real = certify.classical_bethe
        monkeypatch.setattr(LoopAlgebra, "component_monomials", enumerated)
        monkeypatch.setattr(certify, "classical_bethe", lambda n, *args: {
            key: p for key, p in real(n, *args).items() if key != (n, 1)})
        check = certify.poincare_bethe(2, ["1", "2"], 3).checks[0]
        assert check.witness == "dims [1, 1, 3, 5] != expected [1, 2, 5, 10]"

    def test_theorem_A_support_rows_match_full_component(self, monkeypatch):
        calls = spy_span_checks(monkeypatch)
        assert certify.verify_theorem_A(3, ["1", "1", "2"], 4).passed
        buckets = bethe_component_polys(certify._constant_bethe(3, [F(1), F(1), F(2)], 4), 4)
        z = centralizer(3, [1, 1, 2])
        zbuckets = degree_buckets([(embed_subalgebra_poly(z, g.poly), g.deg1)
                                   for g in gaudin_generators(z, 3)], 4)
        loop = LoopAlgebra(preset("gl3"))
        full = []
        for d in range(1, 5):
            ambient = loop.component_monomials(d)
            bidegs = [certify._bideg(m) for m in ambient]
            full += zip(bigraded_block(buckets[d], ambient, bidegs, d),
                        bigraded_block(zbuckets[d], ambient, bidegs, d))
        assert_support_matches(calls, full)

    @pytest.mark.parametrize("n,c0,chi,dmax", [(2, [1, 1], [1, -1], 4),
                                               (3, [1, 1, 2], [1, -1, 0], 3)])
    def test_limit_support_rows_match_full_component(self, monkeypatch, n, c0, chi, dmax):
        calls = spy_span_checks(monkeypatch)
        assert certify.verify_theorem_B(n, c0, chi, dmax).passed
        sigma = classical_bethe(n, c0, certify._curve_exponents([F(x) for x in chi])[0], dmax)
        curve = bethe_component_polys(sigma, dmax)
        z = centralizer(n, c0)
        prods = degree_buckets([(s.at_zero(), key[1]) for key, s in sorted(sigma.items())]
                               + [(embed_subalgebra_poly(z, g.poly), g.deg1)
                                  for g in soa_generators(z, diag_to_basis(z, chi))], dmax)
        loop = LoopAlgebra(preset(f"gl{n}"))
        full, K = [], 4
        for d in range(1, dmax + 1):
            ambient = loop.component_monomials(d)
            lim, K = limit_subspace(ambient, curve[d], K)
            full.append((lim, Subspace.span_of(prods[d], ambient)))
        assert_support_matches(calls, full)

    def test_talalaev_support_rows_match_full_words(self, monkeypatch):
        # the blocks over every word of weight <= d, as weighted_words lists them
        n, R, dmax = 2, 3, 4
        calls = spy_span_checks(monkeypatch)
        assert certify.verify_talalaev(n, R, dmax).passed
        ctx, cur = ymod.yangian(n, dmax), envelop.current_context(gl_algebra(n), R)
        taus = ymod.bethe_generators(ctx, [1] * n, dmax)
        bethe = list(generator_products([(p, s) for (_, s), p in sorted(taus.items()) if p],
                                        dmax, ctx.one()))
        tal = list(generator_products([(p, s) for _, s, p in envelop.talalaev_generators(n, R)
                                       if s <= dmax and p], dmax, cur.one()))
        ywords = [(w, (ctx.word_weight(w), ctx.word_weight(w) - len(w))) for w in
                  map(envelop.word, weighted_words([r for r, _, _ in ctx.gens], dmax))]
        cwords = [(w, (d2 + len(w), d2)) for w in
                  map(envelop.word, weighted_words([r + 1 for r, _ in cur.gens], dmax))
                  for d2 in [sum(cur.gens[ord(g)][0] for g in w)]]

        def blocks(prods, words, d):
            kept = [(w, b) for w, b in words if b[0] <= d]
            return bigraded_block([p for p, dg in prods if dg <= d], [w for w, _ in kept],
                                  [b for _, b in kept], d)

        full = []
        for d in range(1, dmax + 1):
            for B, T in zip(blocks(bethe, ywords, d), blocks(tal, cwords, d)):
                images = [ymod.gr2(ctx, envelop.NCPoly(ctx, {B.ambient[k]: c for k, c in row.items()},
                                                       normalized=True), R) for _, row in B.rows]
                full.append((T, Subspace.span_of(images, T.ambient)))
        assert_support_matches(calls, full)

    def test_theorem_A_check_can_fail(self, monkeypatch):
        # negative control: drop one Gaudin generator of z(C)
        real = certify.gaudin_generators
        monkeypatch.setattr(certify, "gaudin_generators",
                            lambda *args: real(*args)[:-1])
        calls = spy_span_checks(monkeypatch)
        rep = certify.verify_theorem_A(2, ["1", "2"], 3)
        assert [c for c, *_ in calls] == rep.checks
        assert_witness_vectors(calls)

    def test_talalaev_span_check_can_fail(self, monkeypatch):
        # negative control: drop one cdet generator
        real = certify.talalaev_generators
        monkeypatch.setattr(certify, "talalaev_generators",
                            lambda *args, **kw: real(*args, **kw)[1:])
        calls = spy_span_checks(monkeypatch)
        rep = certify.verify_talalaev(2, 2, 3)
        assert rep.checks[0].passed
        assert [c for c, *_ in calls] == rep.checks[1:]
        assert_witness_vectors(calls)

    def test_centralizer_check_can_fail(self, monkeypatch):
        # negative control: drop one Gaudin generator
        real = certify.gaudin_generators
        monkeypatch.setattr(certify, "gaudin_generators",
                            lambda *args: real(*args)[:-1])
        calls = spy_span_checks(monkeypatch)
        rep = certify.verify_centralizer("sl2", 4)
        assert [c for c, *_ in calls] == rep.checks
        assert_witness_vectors(calls)

    def test_gaudin_check_can_fail(self, monkeypatch):
        # negative control: add x_e[1], which brackets nontrivially with omega
        from loopcert.commpoly import CommPoly
        from loopcert.families import FamilyElement
        real = certify.gaudin_generators
        extra = FamilyElement(CommPoly.variable(0, 1), "x_e[1]", 2, 1)
        monkeypatch.setattr(certify, "gaudin_generators",
                            lambda *args: real(*args) + [extra])
        rep = certify.verify_gaudin("sl2", 1)
        check = rep.checks[0]
        assert not check.passed
        assert "x_e[1]" in check.witness and check.witness.split(" = ")[1] != "0"

    def test_gaudin_witness_is_first_failing_pair(self, monkeypatch):
        # {x_e[1], D^0 Phi_1}_0 is computed before {x_e[0], D^0 Phi_1}_1, as
        # the brackets are built per second element of a pair; the witness is
        # still the first failing pair in (i, j, shift) order
        from loopcert.commpoly import CommPoly
        from loopcert.families import FamilyElement
        real = certify.gaudin_generators
        extra = [FamilyElement(CommPoly.variable(0, 0), "x_e[0]", 1, 0),
                 FamilyElement(CommPoly.variable(0, 1), "x_e[1]", 2, 1)]
        monkeypatch.setattr(certify, "gaudin_generators", lambda *args: extra + real(*args))
        check = certify.verify_gaudin("sl2", 2).checks[0]
        assert not check.passed
        assert check.witness.startswith("{x_e[0], D^0 Phi_1}_1 = ")

    def test_soa_commutation_check_can_fail(self, monkeypatch):
        # negative control: add x_e[0], which is not invariant under ad(chi)
        from loopcert.commpoly import CommPoly
        from loopcert.families import FamilyElement
        real = certify.soa_generators
        extra = FamilyElement(CommPoly.variable(0, 0), "x_e[0]", 1, 0)
        monkeypatch.setattr(certify, "soa_generators",
                            lambda alg, chi: real(alg, chi) + [extra])
        rep = certify.verify_soa("sl3", ["1", "2", "-3"], seed=0)
        check = rep.checks[0]
        assert not check.passed
        assert "x_e[0]" in check.witness and check.witness.split(" = ")[1] != "0"

    def test_gaudin_and_soa_witnesses_use_labels(self, monkeypatch):
        # a bracket in a FAIL's witness names variables as gens and the span
        # witnesses do, label[r]; it read x0[0]*x1[1] before
        from loopcert.commpoly import CommPoly
        from loopcert.families import FamilyElement
        real_gaudin, real_soa = certify.gaudin_generators, certify.soa_generators
        x_e = [FamilyElement(CommPoly.variable(0, r), f"x_e[{r}]", r + 1, r) for r in (0, 1)]
        monkeypatch.setattr(certify, "gaudin_generators", lambda *a: real_gaudin(*a) + [x_e[1]])
        monkeypatch.setattr(certify, "soa_generators", lambda *a: real_soa(*a) + [x_e[0]])
        assert certify.verify_gaudin("sl2", 1).checks[0].witness == \
            "{D^0 Phi_1, x_e[1]}_0 = -2*e12[0]*h1[1] + 2*h1[0]*e12[1]"
        assert certify.verify_soa("sl2", ["1", "-1"], seed=0).checks[0].witness == \
            "{d_chi^1 Phi_1, x_e[0]} = 4*e12[0]"

    def test_limit_dims_dominate_irregular_member(self):
        # filtered-limit dimensions are never below those of the family
        # member at eps = 0 (the smaller, irregular subalgebra)
        from loopcert.commpoly import LoopAlgebra
        from loopcert.families import bethe_component_polys, classical_bethe
        from loopcert.liealg import preset
        from loopcert.linalg import Subspace
        rep = certify.verify_theorem_B(2, ["1", "1"], ["1", "-1"], dmax=3)
        loop = LoopAlgebra(preset("gl2"))
        sig0 = classical_bethe(2, [1, 1], [0, 0], 3)
        buckets = bethe_component_polys({k: s.at_zero() for k, s in sig0.items()}, 3)
        for d in (1, 2, 3):
            at_zero = Subspace.span_of(buckets[d],
                                       loop.component_monomials(d)).dim
            limit_dim = rep.checks[d].details["limit_dim"]
            assert limit_dim >= at_zero

    def test_theorem_B_degree_starts_at_certified_precision(self, monkeypatch):
        # each degree's elimination starts at the K that certified the degree
        # before it, and degree 1 at K = 4
        import loopcert.linalg as linalg
        calls = []
        real_limit, real_pivots = certify.limit_subspace, linalg._hadic_pivots

        def limit(ambient, vectors, K=4):
            calls.append([])
            lim, got = real_limit(ambient, vectors, K)
            assert calls[-1][-1] == got
            return lim, got

        def pivots(rows, K, degree):
            calls[-1].append(K)
            return real_pivots(rows, K, degree)

        monkeypatch.setattr(certify, "limit_subspace", limit)
        monkeypatch.setattr(linalg, "_hadic_pivots", pivots)
        rep = certify.verify_theorem_B(2, ["1", "1"], ["1", "-1"], dmax=5)
        assert rep.passed
        assert all(calls[d][0] == calls[d - 1][-1] for d in range(1, 5))
        # K = 4 cannot certify degree 4, so degree 5 starts at 8
        assert calls == [[4], [4], [4], [4, 8], [8]]

    def test_theorem_B_irregular_path_rejected(self):
        # chi = 0 keeps C(eps) = C0 irregular for all eps, and so do equal
        # (c0_i, chi_i) pairs; refused before the curve is built
        for n, c0, chi in [(2, ["1", "1"], ["0", "0"]), (3, ["1", "1", "2"], ["1", "1", "0"])]:
            with pytest.raises(RegularityError, match="not regular for generic eps"):
                certify.verify_theorem_B(n, c0, chi, dmax=2)

    @pytest.mark.parametrize("c0,chi", [(["1", "1"], []), (["1", "1"], ["1"]),
                                        (["1"], ["1", "-1"])])
    def test_theorem_B_entry_count_checked(self, c0, chi):
        with pytest.raises(ValidationError):
            certify.verify_theorem_B(2, c0, chi, dmax=1)

    @pytest.mark.parametrize("alg,zs,kmax", [("gl2", ["0", "1", "3"], 5),
                                             ("gl3", ["0", "2"], 2)])
    def test_eval_gaudin_gl_quadratic_span(self, alg, zs, kmax):
        # the centre of gl_n gives a degree-1 invariant; the Hamiltonians lie
        # in the span of the quadratic-invariant family, not the trace family
        rep = certify.verify_eval_gaudin(alg, zs, kmax=kmax)
        assert rep.passed, rep.summary_lines()

    @pytest.mark.parametrize("alg,zs,kmax", [("sl2", ["0", "1", "4"], 3),
                                             ("gl2", ["0", "1", "3"], 3),
                                             ("gl3", ["0", "2"], 1)])
    def test_eval_gaudin_kmax_below_hermite_bound(self, alg, zs, kmax):
        # below kmax = 2(n-1) the quadratic span misses H_i on correct
        # mathematics, so the job is refused instead of reported as FAIL
        with pytest.raises(BoundsError, match=r"kmax >= 2\(n-1\)"):
            certify.verify_eval_gaudin(alg, zs, kmax=kmax)

    @pytest.mark.parametrize("alg,zs", [("sl2", ["0", "1"]),
                                        ("gl2", ["0", "1", "3"]),
                                        ("sl2", ["0", "1", "3", "7"]),
                                        ("gl2", ["0", "1", "2", "3", "4"])])
    def test_eval_gaudin_passes_at_hermite_bound(self, alg, zs):
        rep = certify.verify_eval_gaudin(alg, zs, kmax=2 * (len(zs) - 1))
        assert rep.passed, rep.summary_lines()

    def test_eval_gaudin_without_quadratic_invariant_refused(self):
        # gl1 has only the degree-1 invariant, so its quadratic span is empty
        # and H_1 = Omega_12/(z_1 - z_2) cannot lie in it: refused, not FAIL
        with pytest.raises(ValidationError, match=r"needs a degree-2 invariant.*gl1 has "
                                                  r"invariant degrees \[1\]"):
            certify.verify_eval_gaudin("gl1", ["0", "1"], kmax=2)
        assert certify.verify_eval_gaudin("gl1", ["0"], kmax=2).passed  # H_1 = 0

    def test_centralizer_component_bound(self):
        # gl4 degree 5 (33440 monomials) is the largest component measured to
        # finish
        loop = LoopAlgebra(preset("gl4"))
        assert len(loop.component_monomials(5)) == certify.BOUNDS["gr centralizer"]["monomials"][1]

    def test_centralizer_refused_before_any_component_is_built(self, monkeypatch):
        # gl4 degree 6 (155584 monomials) is refused by counting
        def no_build(*args):
            raise AssertionError("a component was built")

        monkeypatch.setattr(LoopAlgebra, "component_monomials", no_build)
        with pytest.raises(BoundsError, match="deg1 = 6 component of gl4 has 155584 monomials, "
                                              "past the 33440"):
            certify.verify_centralizer("gl4", 6)

    @pytest.mark.parametrize("alg,dmax", [("sl2", 6), ("sl3", 6), ("gl3", 6), ("gl4", 5)])
    def test_component_sizes_count_the_components(self, alg, dmax):
        loop = LoopAlgebra(preset(alg))
        assert certify._component_sizes(loop.alg.dim, dmax) == \
            [len(loop.component_monomials(d)) for d in range(dmax + 1)]

    @pytest.mark.parametrize("alg", ["sl3", "gl3", "gl4"])
    def test_eval_gaudin_five_points_refused_past_degree_two(self, alg, monkeypatch):
        # five points need kmax 8; with an invariant of degree >= 3 that ran
        # past 200 s and 3 GB, so it is refused before any generator is built:
        # a generator built fails the test at once instead of running the job
        def built(*args):
            raise AssertionError("gaudin_generators called for a refused job")

        monkeypatch.setattr(certify, "gaudin_generators", built)
        with pytest.raises(BoundsError, match=f"5 points .* past the measured bound for {alg}"):
            certify.verify_eval_gaudin(alg, ["0", "1", "2", "3", "4"], kmax=8)

    @pytest.mark.parametrize("zs", [["0", "1", "2"], ["0", "1", "2", "3"]])
    def test_eval_gaudin_three_points_refused_past_degree_three(self, zs, monkeypatch):
        # with an invariant of degree 4, three points at kmax 4 ran out of
        # 3 GB (gl4): refused before any generator is built
        def built(*args):
            raise AssertionError("gaudin_generators called for a refused job")

        monkeypatch.setattr(certify, "gaudin_generators", built)
        with pytest.raises(BoundsError, match=f"{len(zs)} points .* past the measured bound for "
                                              r"gl4, whose invariant degrees \[1, 2, 3, 4\] "
                                              "reach 4: .*; at most 2 points are admitted"):
            certify.verify_eval_gaudin("gl4", zs, kmax=2 * len(zs) - 2)

    def test_eval_gaudin_two_points_admitted_at_degree_four(self, monkeypatch):
        # the job passes the refusals and reaches the generators
        class Built(Exception):
            pass

        def built(*args):
            raise Built

        monkeypatch.setattr(certify, "gaudin_generators", built)
        with pytest.raises(Built):
            certify.verify_eval_gaudin("gl4", ["0", "1"], kmax=2)

    def test_soa_rank_check_can_fail(self, monkeypatch):
        # negative control: the last generator replaced by twice the first,
        # so the Jacobian is one short of full rank at every point
        real = certify.soa_generators

        def doubled(alg, chi):
            gens = real(alg, chi)
            return gens[:-1] + [gens[0]._replace(poly=gens[0].poly.scale(2))]

        monkeypatch.setattr(certify, "soa_generators", doubled)
        rep = certify.verify_soa("sl3", ["1", "2", "-3"], seed=0)
        assert rep.checks[0].passed
        check = rep.checks[1]
        assert not check.passed
        assert check.witness == "rank 4 < 5"

    def test_soa_rank_check_fails_on_dependent_sp4_invariants(self):
        # negative control with nothing patched: sp4_dependent.json is sp4.json
        # with tr X^2 and (tr X^2)^2 supplied as its invariants, of the blocks'
        # degrees 2 and 4; they commute, but they are algebraically dependent
        data = Path(__file__).parent / "data"
        q = load_config(str(data / "sp4.json")).invariant_generators()[0].poly
        assert [p.poly for p in load_config(str(data / "sp4_dependent.json"))
                .invariant_generators()] == [q, q * q]
        rep = certify.verify_soa(str(data / "sp4_dependent.json"), ["1", "3", "-1", "-3"], seed=0)
        assert rep.checks[0].passed
        assert rep.checks[1].witness == "rank 2 < 6"

    def test_soa_details_record_seed(self):
        rep = certify.verify_soa("sl2", ["1", "-1"], seed=5)
        assert rep.passed
        assert rep.checks[1].details["seed"] == 5
        assert rep.checks[1].details["resampled"] == 0


def r_major_taus(n, entries, smax):
    """The taus of verify-bethe built in the r-major Yangian, whose words
    every report renders: the sweep's matrix-major order must not reach
    the report."""
    return ymod.bethe_generators(ymod.yangian(n, 2 * smax), certify.parse_torus(entries), smax)


def r_major_witness(n, entries, smax):
    """The witness of verify-bethe written from ``r_major_taus``."""
    taus = r_major_taus(n, entries, smax)
    ka, kb = next((a, b) for a, b in itertools.combinations(sorted(taus), 2)
                  if taus[a].commutator(taus[b]))
    return f"[tau{ka}, tau{kb}] = {taus[ka].commutator(taus[kb]).render()}"


def wrong_shift(ctx, rows, cols, Nmax):
    """Quantum minors with column c at u + c instead of u - c."""
    rows, cols = list(rows), list(cols)
    return leibniz_det(len(rows), lambda a, c: ymod.t_series(
        ctx, rows[a], cols[c], Nmax, shift=-c))


# the wrong-shift control under the spawn start method, in a fresh process:
# the fault is set in the parent only, as a spawned worker runs none of this
SPAWN_CONTROL = """
import importlib, json, multiprocessing
multiprocessing.set_start_method("spawn", force=True)
from loopcert import certify
from loopcert.scalars import leibniz_det
ymod = importlib.import_module("loopcert.yangian")

def wrong_shift(ctx, rows, cols, Nmax):
    rows, cols = list(rows), list(cols)
    return leibniz_det(len(rows), lambda a, c: ymod.t_series(
        ctx, rows[a], cols[c], Nmax, shift=-c))

ymod.quantum_minor = wrong_shift
print(json.dumps([certify.verify_bethe(2, ["1", "2"], 3, workers=w).to_dict() for w in (1, 2)]))
"""


class TestPBWNegativeControls:
    """Faults injected into the PBW suites must give FAIL with a witness.

    Each test starts from empty context caches, so no normal form cached by
    another test hides the fault, and empties them again afterwards, so no
    normal form computed under the fault outlives the test.
    """

    @pytest.fixture(autouse=True)
    def fresh_contexts(self):
        builders = (ymod.yangian, envelop.tensor_context, envelop.current_context)
        for build in builders:
            build.cache_clear()
        yield
        for build in builders:
            build.cache_clear()

    def test_rtt_check_can_fail(self, monkeypatch):
        # flip the sign of one term of [t_21^(1), t_12^(1)] = t_22^(1) - t_11^(1)
        real = ymod.YangianContext._yangian_bracket

        def flipped(self, gi, gj):
            out = real(self, gi, gj)
            if self.gens[gi] == (1, 2, 1) and self.gens[gj] == (1, 1, 2):
                w = min(out)
                out = {**out, w: -out[w]}
            return out

        monkeypatch.setattr(ymod.YangianContext, "_yangian_bracket", flipped)
        rep = certify.verify_rtt(2, 2)
        check = rep.checks[0]
        assert not check.passed
        assert check.details["failures"] > 0
        assert check.witness.startswith("first failing (i,j,k,l,a,b) = ")

    def test_bethe_check_can_fail(self, monkeypatch):
        monkeypatch.setattr(ymod, "quantum_minor", wrong_shift)
        rep = certify.verify_bethe(2, ["1", "2"], 3)
        check = rep.checks[0]
        assert not check.passed
        assert check.details["nonzero_pairs"] > 0
        assert check.witness == r_major_witness(2, ["1", "2"], 3)
        # every pair of the listing, zero or not, as the r-major taus render it
        taus = r_major_taus(2, ["1", "2"], 3)
        assert check.details["pairs"] == [
            {"pair": f"tau_{a[0]}^({a[1]}) vs tau_{b[0]}^({b[1]})",
             "commutator": taus[a].commutator(taus[b]).render()}
            for a, b in itertools.combinations(sorted(taus), 2)]

    def test_bethe_check_fails_alike_under_workers(self, monkeypatch):
        # the taus are built once, in this process, so the fault reaches the
        # pool under any start method
        parent = os.getpid()
        calls = []

        def counted(*args):
            assert os.getpid() == parent
            calls.append(args)
            return ymod.bethe_generators(*args)

        monkeypatch.setattr(ymod, "quantum_minor", wrong_shift)
        monkeypatch.setattr(certify, "bethe_generators", counted)
        seq = certify.verify_bethe(2, ["1", "2"], 3, workers=1).checks[0]
        par = certify.verify_bethe(2, ["1", "2"], 3, workers=2).checks[0]
        assert not seq.passed
        assert par == seq
        assert par.witness == r_major_witness(2, ["1", "2"], 3)
        assert len(calls) == 2

    def test_bethe_check_fails_alike_under_spawn(self):
        src = Path(certify.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", SPAWN_CONTROL], check=True,
                             env={**os.environ, "PYTHONPATH": str(src)},
                             capture_output=True, text=True).stdout
        seq, par = json.loads(out)
        assert not seq["pass"]
        assert par == seq

    def test_talalaev_commutator_check_can_fail(self, monkeypatch):
        # e12[1] first and last: it commutes with QI_1^(1), QI_1^(2) and
        # QI_2^(1) but not with QI_2^(2); z-powers past dmax = 2 keep it out
        # of the span checks
        real = certify.talalaev_generators(2, 2)
        x = envelop.current_context(preset("gl2"), 2).gen((1, 1))
        monkeypatch.setattr(certify, "talalaev_generators",
                            lambda n, R: [(9, 9, x)] + real + [(8, 8, x)])
        rep = certify.verify_talalaev(2, 2, 2)
        check = rep.checks[0]
        assert not check.passed
        assert [rec[:2] for rec in real if x.commutator(rec[2])][0] == (2, 2)
        qi22 = next(p for i, s, p in real if (i, s) == (2, 2))
        assert check.witness == f"[(9, 9), (2, 2)] = {x.commutator(qi22).render()}"
        assert all(c.passed for c in rep.checks[1:])

    def test_eval_gaudin_commutator_check_can_fail(self, monkeypatch):
        # x_e[1] first and last: its image sum_i z_i e^(i) does not commute
        # with that of the Casimir; deg1 - deg2 = 1 keeps it out of the
        # quadratic span
        from loopcert.commpoly import CommPoly
        from loopcert.families import FamilyElement
        real = certify.gaudin_generators
        x = FamilyElement(CommPoly.variable(0, 1), "x_e[1]", 2, 1)
        monkeypatch.setattr(certify, "gaudin_generators", lambda *args: [x] + real(*args) + [x])
        rep = certify.verify_eval_gaudin("sl2", ["0", "1", "4"], 4)
        check = rep.checks[0]
        assert not check.passed
        assert check.witness == (
            "[ev x_e[1], ev D^0 Phi_1] = 2*e12(1)*h1(2) + 8*e12(1)*h1(3) + -2*h1(1)*e12(2)"
            " + -8*h1(1)*e12(3) + 6*e12(2)*h1(3) + -6*h1(2)*e12(3)")
        assert rep.checks[1].passed

    def test_eval_gaudin_span_check_can_fail(self, monkeypatch):
        # build H_1 at z_1 + 1/2: Omega_1j / (z_1 - z_j) becomes
        # Omega_1j / (z_1 + 1/2 - z_j); the images are untouched
        zs = [F(0), F(1), F(4)]
        real = certify.casimir_tensor

        def perturbed(alg, tctx, i, j):
            omega = real(alg, tctx, i, j)
            if i != 0:
                return omega
            return omega.scale((zs[0] - zs[j]) / (zs[0] + F(1, 2) - zs[j]))

        monkeypatch.setattr(certify, "casimir_tensor", perturbed)
        rep = certify.verify_eval_gaudin("sl2", ["0", "1", "4"], 4)
        assert rep.checks[0].passed
        check = rep.checks[1]
        assert not check.passed
        assert check.witness == "H_1 not in span"


# -- the span-basis sweep ---------------------------------------------------------------

# (context, number of its first letters used): in yangian(2, 4) the four
# t^(1), so words of length <= 2 have F1-weight <= 2 and no commutator of two
# of them passes the weight bound
_CONTEXTS = {
    "U(sl2)": (lambda: envelop.current_context(preset("sl2"), 1), 3),
    "U(gl2)^2": (lambda: envelop.tensor_context(preset("gl2"), 2), 8),
    "Y(gl2)": (lambda: ymod.yangian(2, 4), 4),
}
_small = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-3, 4)])


@st.composite
def _families(draw):
    """A family over one of the contexts: random elements of words of length
    <= 2, linear combinations of 1, a and a*a for one linear element a,
    scalar multiples of earlier members (zero among them), and optionally one
    letter first and last."""
    build, k = _CONTEXTS[draw(st.sampled_from(sorted(_CONTEXTS)))]
    ctx = build()
    letters = [chr(i) for i in range(k)]
    words = [""] + letters + [x + y for x in letters for y in letters]
    a = envelop.NCPoly(ctx, draw(st.dictionaries(st.sampled_from(letters), _small,
                                                 min_size=1, max_size=3)))
    seeds = [ctx.one(), a, a * a]
    randoms = st.dictionaries(st.sampled_from(words), _small, max_size=3).map(
        lambda t: envelop.NCPoly(ctx, t))
    combos = st.lists(_small, min_size=3, max_size=3).map(
        lambda cs: seeds[0].scale(cs[0]) + seeds[1].scale(cs[1]) + seeds[2].scale(cs[2]))
    family = draw(st.lists(st.one_of(combos, randoms) if draw(st.booleans()) else combos,
                           max_size=4))
    for i, s in draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([F(1), F(-2), F(0)])),
                              max_size=3)):
        if family:
            family.insert(i % (len(family) + 1), family[i % len(family)].scale(s))
    if draw(st.booleans()):
        x = envelop.NCPoly(ctx, {draw(st.sampled_from(letters)): F(1)})
        family = [x] + family + [x]
    return family


class TestSpanBasis:
    @settings(max_examples=120, deadline=None)
    @given(_families())
    def test_basis_spans_the_family_and_decides_alike(self, family):
        rows = certify._span_basis(family)
        words = sorted({w for p in family for w in p.terms})
        assert Subspace.span_of(rows, words) == Subspace.span_of(family, words)
        assert len(rows) == Subspace.span_of(family, words).dim
        # each row is one at its largest word, which no other row holds
        for r in rows:
            top = max(r.terms, key=lambda w: (len(w), w))
            assert r.terms[top] == 1
            assert all(top not in other.terms for other in rows if other is not r)
        assert certify._first_noncommuting(family) == \
            certify._first_failing(certify._commutators(family))

    def test_empty_and_single_families(self):
        assert certify._span_basis([]) == []
        assert certify._first_noncommuting([]) is None
        x = envelop.current_context(preset("sl2"), 1).gen((0, 0))
        assert certify._span_basis([x.scale(F(-2, 3))]) == [x]
        assert certify._first_noncommuting([x]) is None

    @pytest.mark.parametrize("suite, args", [
        (certify.verify_bethe, (2, ["1", "2"], 3)),
        (certify.verify_eval_gaudin, ("sl3", ["0", "1"], 3)),
    ])
    def test_passing_sweep_brackets_each_basis_pair_once(self, monkeypatch, suite, args):
        real_basis, real_commutator = certify._span_basis, envelop.NCPoly.commutator
        sizes, calls = [], []

        def basis(elems):
            rows = real_basis(elems)
            sizes.append(len(rows))
            return rows

        def commutator(self, other):
            calls.append(1)
            return real_commutator(self, other)

        monkeypatch.setattr(certify, "_span_basis", basis)
        monkeypatch.setattr(envelop.NCPoly, "commutator", commutator)
        assert suite(*args).passed
        assert len(sizes) == 1 and 1 < sizes[0]
        assert len(calls) == math.comb(sizes[0], 2)
