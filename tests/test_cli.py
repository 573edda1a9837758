import concurrent.futures
import errno
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import loopcert
from loopcert import certify
from loopcert.cli import build_parser, main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_bethe_exit_zero(capsys):
    code, out = run(["verify-bethe", "--algebra", "gl2", "--C", "1,2",
                     "--max-deg", "2"], capsys)
    assert code == 0
    assert "PASS" in out and "all checks passed" in out


def test_json_report_deterministic(tmp_path, capsys):
    paths = []
    for i in range(2):
        p = tmp_path / f"r{i}.json"
        code, _ = run(["verify-gaudin", "--algebra", "sl2", "--kmax", "2",
                       "--json", str(p)], capsys)
        assert code == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]
    doc = json.loads(paths[0])
    assert doc["schema"] == "loopcert-report/1"
    assert doc["pass"] is True


def test_rational_entries_parse(capsys):
    code, _ = run(["verify-bethe", "--algebra", "gl2", "--C", "1/2,-3",
                   "--max-deg", "2"], capsys)
    assert code == 0


def test_bounds_violation_exit_two(capsys):
    code = main(["verify-bethe", "--algebra", "gl2", "--C", "1,2",
                 "--max-deg", "99"])
    err = capsys.readouterr().err
    assert code == 2
    assert "bounds" in err


@pytest.mark.parametrize("n,bound", [(2, 8), (3, 7), (4, 5)])
def test_bethe_degree_bound_per_n_exit_two(monkeypatch, capsys, n, bound):
    # one degree past the bound would run for minutes and gigabytes: refused
    # before any generator is built
    def no_run(*args, **kwargs):
        raise AssertionError("verify_bethe ran")

    monkeypatch.setattr("loopcert.certify.verify_bethe", no_run)
    C = ",".join(str(i) for i in range(1, n + 1))
    code = main(["verify-bethe", "--algebra", f"gl{n}", "--C", C,
                 "--max-deg", str(bound + 1)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"max-deg for gl{n} = {bound + 1} outside documented bounds [1, {bound}]" in err


# per suite of certify.BOUNDS: the certify function the CLI calls, and an
# admitted command line that the bounded parameter is appended to
SUITES = {
    "verify-rtt": ("verify_rtt", ["verify-rtt"]),
    "verify-bethe": ("verify_bethe", ["verify-bethe", "--C", "1"]),
    "verify-gaudin": ("verify_gaudin", ["verify-gaudin"]),
    "verify-talalaev": ("verify_talalaev", ["verify-talalaev"]),
    "gr theorem-A": ("verify_theorem_A", ["gr", "--comparison", "theorem-A", "--C", "1"]),
    "gr centralizer": ("verify_centralizer", ["gr", "--comparison", "centralizer"]),
    "poincare bethe": ("poincare_bethe", ["poincare", "--family", "bethe", "--C", "1"]),
    "limit": ("verify_theorem_B", ["limit", "--C0", "1", "--chi", "1"]),
    "eval-gaudin": ("verify_eval_gaudin", ["eval-gaudin", "--z", "0"]),
    "gens bethe": ("dump_generators", ["gens", "--family", "classical-bethe"]),
    "gens gaudin": ("dump_generators", ["gens", "--family", "gaudin"]),
    "gens talalaev": ("dump_generators", ["gens", "--family", "talalaev"]),
}
GL_N = {"verify-bethe", "limit", "gens bethe"}  # n from --algebra glN


def _option(suite, name, value):
    """The command-line words that set the bounded parameter to value."""
    if name == "n" and suite in GL_N:
        return ["--algebra", f"gl{value}"]
    if name == "number of --z points":
        return ["--z", ",".join(map(str, range(value)))]
    return [f"--{name}", str(value)]


# every range the CLI enforces, a per-n range once per n; the monomial count
# of a centralizer component and the degree of a limit curve are checked by
# certify itself (test_gr_centralizer_past_measured_bound_exit_two,
# test_limit_curve_degree_past_measured_bound_exit_two), the digits of a
# rational by scalars.parse_rational (test_oversized_rational_exit_two), and
# the dim of a config algebra by liealg.algebra_from_dict
# (test_config_past_dim_bound_exit_two)
RANGES = [(suite, name, n)
          for suite, names in certify.BOUNDS.items() if suite not in ("rationals", "config")
          for name, (lo, hi) in names.items() if name not in ("monomials", "curve degree")
          for n in (sorted(hi) if isinstance(hi, dict) else [None])]


@pytest.mark.parametrize("suite, name, n", RANGES,
                         ids=[f"{s}:{m}" + (f":gl{n}" if n else "") for s, m, n in RANGES])
def test_range_admits_its_bound_and_refuses_past_it(monkeypatch, capsys, suite, name, n):
    fn, argv = SUITES[suite]
    lo, hi = certify.BOUNDS[suite][name]
    what = name
    if n is not None:
        hi, what, argv = hi[n], f"{name} for gl{n}", argv + ["--algebra", f"gl{n}"]
    calls = []
    monkeypatch.setattr(f"loopcert.certify.{fn}",
                        lambda *a, **kw: calls.append(a) or certify.Report("stub", {}, []))
    assert main(argv + _option(suite, name, hi)) == 0 and len(calls) == 1
    for past in (lo - 1, hi + 1):
        assert main(argv + _option(suite, name, past)) == 2
        err = capsys.readouterr().err
        assert f"BoundsError]: {what} = {past} outside documented bounds [{lo}, {hi}]" in err
    assert len(calls) == 1


def test_per_n_bounds_cover_the_admitted_n():
    for names in certify.BOUNDS.values():
        for _, hi in names.values():
            if isinstance(hi, dict):
                n_lo, n_hi = names["n"]
                assert sorted(hi) == list(range(n_lo, n_hi + 1))


def test_bad_rational_exit_two(capsys):
    code = main(["verify-bethe", "--algebra", "gl2", "--C", "1,zebra",
                 "--max-deg", "2"])
    assert code == 2


@pytest.mark.parametrize("argv,option", [
    (["verify-bethe", "--algebra", "gl2", "--C", "1,,2", "--max-deg", "2"], "--C"),
    (["limit", "--algebra", "gl2", "--C0", "1,1,", "--chi", ",1,-1"], "--C0"),
    (["limit", "--algebra", "gl2", "--C0", "1,1", "--chi", ",1,-1"], "--chi"),
    (["verify-soa", "--algebra", "sl3", "--chi", "1,2,-3,"], "--chi"),
    (["eval-gaudin", "--algebra", "sl2", "--z", "0,1, ,4"], "--z"),
    (["gens", "--family", "classical-bethe", "--algebra", "gl2", "--C", ","], "--C"),
])
def test_empty_entry_exit_two(capsys, argv, option):
    # empty entries were dropped: --C 1,,2 certified diag(1, 2) and exited 0
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"error [ValidationError]: {option} " in err and "has an empty entry" in err


@pytest.mark.parametrize("argv", [
    ["verify-bethe", "--algebra", "gl2", "--C", "1,0", "--max-deg", "2"],
    ["poincare", "--algebra", "gl2", "--C", "1,0"],
    ["gr", "--comparison", "theorem-A", "--algebra", "gl2", "--C", "1,0"],
    ["gens", "--family", "bethe", "--algebra", "gl2", "--C", "1,0"],
    ["gens", "--family", "classical-bethe", "--algebra", "gl2", "--C", "1,0"],
    ["limit", "--algebra", "gl2", "--C0", "0,1", "--chi", "1,2", "--deg", "2"],
])
def test_zero_torus_entry_exit_two(capsys, argv):
    # C and C0 are torus elements: a zero entry is no invertible diagonal
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "error [ValidationError]: " in err and "invertible" in err


@pytest.mark.parametrize("argv", [
    ["verify-bethe", "--algebra", "gl2", "--C", "1e100000,1", "--max-deg", "3"],
    ["verify-bethe", "--algebra", "gl2", "--C", "1e3000000,1", "--max-deg", "2"],
    ["gens", "--family", "classical-bethe", "--algebra", "gl3", "--C", "1e2500,1e2500,1"],
    ["verify-bethe", "--algebra", "gl2", "--C", "1e1000,1", "--max-deg", "2"],
    ["verify-bethe", "--algebra", "gl2", "--C", "1," + "7" * 1001, "--max-deg", "2"],
    ["poincare", "--algebra", "gl2", "--C", "1/" + "7" * 1001 + ",1"],
    ["limit", "--algebra", "gl2", "--C0", "1,1", "--chi", "1e-1001,0"],
])
def test_oversized_rational_exit_two(capsys, argv):
    # ratstr raised past Python's 4300-digit int-to-str limit (exit 1), and
    # Fraction("1e3000000") ran past 30 s expanding the power of ten
    assert certify.BOUNDS["rationals"]["digits"] == (1, 1000)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "error [ValidationError]: rational " in err and "past the bound of 1000 digits" in err


def test_rationals_at_the_digit_bound_are_admitted(capsys):
    # a product of four 1000-digit entries, or of their reciprocals, stays
    # under the 4300 digits that ratstr can write
    assert certify.BOUNDS["rationals"]["digits"] == (1, 1000)
    big = "9" * 1000
    code, out = run(["gens", "--family", "classical-bethe", "--algebra", "gl4", "--C",
                     f"{big},{big},1/{big},1e999", "--max-deg", "1", "--json", "-"], capsys)
    assert code == 0
    gens = json.loads(out)["checks"][0]["details"]["generators"]
    assert gens["sigma_4^(1)"].startswith(f"{10 ** 999 * (10 ** 1000 - 1)}*gamma[1,1;1]")


def test_gens_dump(capsys):
    code, out = run(["gens", "--family", "classical-bethe", "--algebra", "gl2",
                     "--C", "1,2", "--max-deg", "2", "--json", "-"], capsys)
    assert code == 0
    payload = json.loads(out)
    gens = payload["checks"][0]["details"]["generators"]
    assert gens["sigma_1^(1)"] == "1*gamma[1,1;1] + 2*gamma[2,2;1]"


def test_poincare_table(capsys):
    code, out = run(["poincare", "--family", "bethe", "--algebra", "gl2",
                     "--C", "1,2", "--cutoff", "3", "--json", "-"], capsys)
    assert code == 0
    payload = json.loads(out)
    dims = payload["checks"][0]["details"]["dims"]
    assert dims == [1, 2, 5, 10]


def test_json_stdout_is_the_report_alone(capsys):
    # the summary lines went to stdout ahead of the payload, so that
    # `--json - | python3 -m json.tool` failed; they go to stderr now
    code = main(["verify-rtt", "--n", "1", "--order", "1", "--json", "-"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["pass"] is True
    assert captured.out.startswith("{") and captured.out.endswith("}\n")
    assert captured.err.splitlines() == ["[PASS] rtt entrywise identity n=1 through u^-1 v^-1",
                                         "=> verify-rtt: all checks passed"]


def test_limit_cli(capsys):
    code, out = run(["limit", "--algebra", "gl2", "--C0", "1,1",
                     "--chi", "1,-1", "--deg", "2"], capsys)
    assert code == 0
    assert "all checks passed" in out


@pytest.mark.parametrize("argv, bound", [
    (["--algebra", "gl4", "--C0", "1,1,1,2", "--chi", "1,2,-3,0", "--deg", "5"],
     "deg for gl4 = 5 outside documented bounds [1, 4]"),
    (["--algebra", "gl5", "--C0", "1,1,1,1,2", "--chi", "1,2,-3,0,0", "--deg", "2"],
     "n = 5 outside documented bounds [1, 4]"),
])
def test_limit_past_measured_bound_exit_two(argv, bound, capsys):
    code = main(["limit", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "BoundsError" in err and bound in err


def test_eval_gaudin_cli(capsys):
    code, _ = run(["eval-gaudin", "--algebra", "sl2", "--z", "0,1,4",
                   "--kmax", "4"], capsys)
    assert code == 0


def test_eval_gaudin_kmax_below_bound_exit_two(capsys):
    code = main(["eval-gaudin", "--algebra", "sl2", "--z", "0,1,4", "--kmax", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "BoundsError" in err and "kmax >= 2(n-1) = 4" in err


def test_eval_gaudin_too_many_points_exit_two(capsys):
    # six points would need kmax >= 10, past the kmax bound of 8
    code = main(["eval-gaudin", "--algebra", "sl2", "--z", "0,1,2,3,4,5", "--kmax", "8"])
    err = capsys.readouterr().err
    assert code == 2
    assert "number of --z points = 6 outside documented bounds [1, 5]" in err


def test_eval_gaudin_five_points_sl3_exit_two(capsys):
    code = main(["eval-gaudin", "--algebra", "sl3", "--z", "0,1,2,3,4", "--kmax", "8"])
    err = capsys.readouterr().err
    assert code == 2
    assert "BoundsError" in err and "at most 4 points are admitted" in err


def test_eval_gaudin_three_points_gl4_exit_two(capsys):
    code = main(["eval-gaudin", "--algebra", "gl4", "--z", "0,1,2", "--kmax", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "BoundsError" in err and "gl4 with three points ran out of 3 GB" in err
    assert "at most 2 points are admitted" in err


def test_eval_gaudin_without_quadratic_invariant_exit_two(capsys):
    code = main(["eval-gaudin", "--algebra", "gl1", "--z", "0,1", "--kmax", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "ValidationError" in err and "needs a degree-2 invariant" in err


@pytest.mark.parametrize("family", ["bethe", "classical-bethe"])
@pytest.mark.parametrize("n", [1, 3])
def test_gens_bethe_default_C(family, n, capsys):
    # without --C the torus element is diag(1, ..., n)
    code, out = run(["gens", "--family", family, "--algebra", f"gl{n}", "--json", "-"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["params"]["C"] == [str(i) for i in range(1, n + 1)]


@pytest.mark.parametrize("argv, suite", [
    (["verify-bethe", "--algebra", "gl30", "--C", "1"], "verify_bethe"),
    (["limit", "--algebra", "gl5", "--C0", "1", "--chi", "1"], "verify_theorem_B"),
    (["gens", "--family", "classical-bethe", "--algebra", "gl8", "--max-deg", "6"],
     "dump_generators"),
    (["gens", "--family", "bethe", "--algebra", "gl5", "--max-deg", "1"], "dump_generators"),
    (["verify-bethe", "--algebra", "gl0", "--C", "1"], "verify_bethe"),
])
def test_gl_size_past_bethe_bound_exit_two(monkeypatch, capsys, argv, suite):
    # n is read from glN with no preset behind it, and classical-bethe ran
    # past 60 s at gl8: refused before any generator is built
    def no_run(*args, **kwargs):
        raise AssertionError(f"{suite} ran")

    monkeypatch.setattr(f"loopcert.certify.{suite}", no_run)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "BoundsError" in err and "outside documented bounds [1, 4]" in err


def test_poincare_gr1_family_exit_two(capsys):
    # gr1 is no family: its monomial count compared two enumerations of the
    # same words and certified nothing about Y(gl_n)
    with pytest.raises(SystemExit) as exc:
        main(["poincare", "--family", "gr1", "--algebra", "gl2", "--cutoff", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'gr1'" in capsys.readouterr().err


def test_limit_curve_degree_past_measured_bound_exit_two(monkeypatch, capsys):
    # chi = (k + 1, 1) gives the curve diag((1+h)^k, 1) of degree k in h;
    # (1+h)^(10^30 - 1) cannot be built, so the degree is refused first
    def no_build(*args):
        raise AssertionError("the curve was built")

    monkeypatch.setattr("loopcert.certify.classical_bethe", no_build)
    hi = certify.BOUNDS["limit"]["curve degree"][1]
    argv = ["limit", "--algebra", "gl2", "--C0", "1,2", "--deg", "1", "--chi"]
    assert main(argv + ["1e30,1"]) == 2
    err = capsys.readouterr().err
    assert (f"BoundsError]: curve degree sum(p - min p) = {10 ** 30 - 1} outside "
            f"documented bounds [0, {hi}]") in err
    assert main(argv + [f"{hi + 2},1"]) == 2
    with pytest.raises(AssertionError, match="the curve was built"):
        main(argv + [f"{hi + 1},1"])


def test_gr_centralizer_past_measured_bound_exit_two(monkeypatch, capsys):
    # the component sizes are counted, so no component is built to refuse
    def no_build(*args):
        raise AssertionError("a component was built")

    monkeypatch.setattr("loopcert.commpoly.LoopAlgebra.component_monomials", no_build)
    code = main(["gr", "--comparison", "centralizer", "--algebra", "gl4", "--max-deg", "6"])
    err = capsys.readouterr().err
    assert code == 2
    assert "BoundsError" in err and "155584 monomials" in err


def test_readme_cli_lines_parse():
    # every documented command line names only options the parser has
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text(encoding="utf-8").splitlines()
             if line.startswith("loopcert ")]
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_gr_centralizer_cli(capsys):
    code, _ = run(["gr", "--comparison", "centralizer", "--algebra", "sl2",
                   "--max-deg", "3"], capsys)
    assert code == 0


def _readme_algebra(tmp_path):
    """The README's "Custom algebras" JSON block, written to a file."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "sl2r.json"
    path.write_text(block, encoding="utf-8")
    return str(path)


def test_config_algebra_suites(tmp_path, capsys):
    path = _readme_algebra(tmp_path)
    code, out = run(["verify-gaudin", "--algebra", path, "--kmax", "2"], capsys)
    assert code == 0 and "all checks passed" in out
    code, out = run(["gr", "--comparison", "centralizer", "--algebra", path,
                     "--max-deg", "3"], capsys)
    assert code == 0 and "all checks passed" in out


def test_config_algebra_soa_matches_preset(tmp_path, capsys):
    # the README config is sl2's matrices, so its shift-of-argument checks
    # report what the preset's do (a config had no matrices to place chi in)
    details = []
    for algebra in (_readme_algebra(tmp_path), "sl2"):
        code, out = run(["verify-soa", "--algebra", algebra, "--chi", "1,-1", "--json", "-"],
                        capsys)
        assert code == 0
        details.append([c["details"] for c in json.loads(out)["checks"]])
    assert details[0] == details[1] and len(details[0]) == 2


RANK_ZERO = {
    "dim0": {"size": 0, "matrices": [], "labels": [], "cartan": [], "blocks": []},
    "abelian3": {"size": 3, "matrices": [[[a, a, "1"]] for a in range(3)],
                 "labels": ["a", "b", "c"], "cartan": [], "blocks": []},
}


@pytest.mark.parametrize("config", sorted(RANK_ZERO))
@pytest.mark.parametrize("argv", [["verify-gaudin"], ["gr", "--comparison", "centralizer"],
                                  ["gens", "--family", "gaudin"]])
def test_rank_zero_config_exit_two(tmp_path, capsys, config, argv):
    # with no invariant generator these suites took max() or min() of an
    # empty exponent list and crashed with exit 1
    path = tmp_path / f"{config}.json"
    path.write_text(json.dumps(RANK_ZERO[config]), encoding="utf-8")
    code = main(argv + ["--algebra", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "ValidationError" in err and "rank must be positive, got 0" in err


def _no_algebra(*args, **kw):
    raise AssertionError("an algebra was built")


def test_config_past_dim_bound_exit_two(monkeypatch, tmp_path, capsys):
    # refused by its number of matrices, before any of them is read
    monkeypatch.setattr("loopcert.liealg.LieAlgebraData.__init__", _no_algebra)
    dim = certify.BOUNDS["config"]["dim"][1] + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"size": 1, "matrices": [[]] * dim, "labels": [], "cartan": [],
                                "blocks": [[[0], [1]]]}), encoding="utf-8")
    code = main(["verify-gaudin", "--algebra", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"BoundsError]: config dim = {dim} outside documented bounds" in err
    assert "took 2.3-2.8 s" in err


def test_malformed_config_exit_two(tmp_path, capsys):
    # a root without "e" raised KeyError (exit 1, as for a FAILed check)
    data = json.loads(Path(_readme_algebra(tmp_path)).read_text(encoding="utf-8"))
    data["roots"] = [{"alpha": ["2"], "f": 2}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["verify-gaudin", "--algebra", str(path), "--kmax", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "ValidationError" in err and "malformed algebra config" in err


def test_missing_config_exit_two(tmp_path, capsys):
    code = main(["verify-gaudin", "--algebra", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read algebra config" in err


@pytest.mark.parametrize("flag", ["0", str(certify.BOUNDS["verify-bethe"]["workers"][1] + 1),
                                  "100000"])
def test_workers_out_of_bounds_exit_two(monkeypatch, capsys, flag):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code = main(["verify-bethe", "--algebra", "gl2", "--C", "1,2", "--max-deg", "2",
                 "--workers", flag])
    err = capsys.readouterr().err
    assert code == 2
    assert "workers" in err


def _no_suite(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("verify_rtt ran")

    monkeypatch.setattr("loopcert.certify.verify_rtt", no_run)


@pytest.mark.parametrize("target,message", [
    ("absent/r.json", "does not exist"),
    (".", "is a directory"),
    (None, "needs a path"),
])
def test_json_target_unwritable_exit_two(monkeypatch, tmp_path, capsys, target, message):
    # the job ran to the end, then a traceback exited 1, as for a FAILed
    # check; an empty path wrote nothing and exited 0
    _no_suite(monkeypatch)
    path = "" if target is None else str(tmp_path / target)
    code = main(["verify-rtt", "--n", "1", "--order", "1", "--json", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "OutputError" in err and path in err and message in err
    assert list(tmp_path.iterdir()) == []


def test_json_target_not_writable_exit_two(monkeypatch, tmp_path, capsys):
    # root may write anywhere, so the permission test is simulated
    _no_suite(monkeypatch)
    monkeypatch.setattr("loopcert.cli.os.access", lambda path, mode: False)
    code = main(["verify-rtt", "--n", "1", "--order", "1", "--json", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "OutputError" in err and "is not writable" in err
    assert list(tmp_path.iterdir()) == []


def test_json_write_error_exit_two_leaves_no_file(monkeypatch, tmp_path, capsys):
    class FullDisk:
        """A file opened for real whose every write fails with ENOSPC."""

        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr("loopcert.cli.open", FullDisk, raising=False)
    code = main(["verify-rtt", "--n", "1", "--order", "1", "--json", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "OutputError" in err and "No space left on device" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["verify-soa", "--algebra", "sl3", "--chi", "1,2,-3", "--json", "REPORT"],
    ["poincare", "--algebra", "gl3", "--C", "1,1,2", "--cutoff", "3", "--json", "-"],
    ["verify-bethe", "--algebra", "gl2", "--C", "1,2", "--max-deg", "2", "--workers", "2",
     "--json", "REPORT"],
    ["poincare", "--algebra", "gl2", "--C", "1,0"],
])
def test_fresh_process_matches_in_process_main(tmp_path, capsys, argv):
    # the CLI freezes the collector at exit (atexit): a job run as its own
    # process reports what main reports in this one, through its exit
    def job(report):
        return [str(report) if a == "REPORT" else a for a in argv]

    code = main(job(tmp_path / "in.json"))
    captured = capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": str(Path(loopcert.__file__).parents[1])}
    fresh = subprocess.run([sys.executable, "-m", "loopcert.cli", *job(tmp_path / "fresh.json")],
                           capture_output=True, text=True, env=env, timeout=120)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, captured.out, captured.err)
    if "REPORT" in argv:
        assert (tmp_path / "fresh.json").read_bytes() == (tmp_path / "in.json").read_bytes()
