"""Command-line front end: run named certificate suites, dump generator
families, and emit deterministic human-readable or JSON reports.

Every bounded option is checked against its range in ``certify.BOUNDS``
before a suite is called.  Exit status is 0 iff every check in the job
passed.  Rationals are parsed and serialized as "p/q" strings; no floats
enter any computation.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from typing import List, Optional

from . import certify
from .errors import BoundsError, LoopcertError, OutputError, ValidationError

# a job's caches die with the process: skip the cyclic collection at exit
atexit.register(gc.freeze)


def _parse_list(spec: str, option: str) -> List[str]:
    """The comma-separated entries of ``option``, none for an empty spec."""
    entries = spec.split(",") if spec else []
    if not all(map(str.strip, entries)):
        raise ValidationError(f"{option} {spec!r} has an empty entry")
    return entries


def _bounded(value: int, suite: str, name: str, n: Optional[int] = None) -> int:
    """value, if it lies in the range certify.BOUNDS[suite][name], whose
    upper bound is read at n when it is given per gl_n; else BoundsError."""
    lo, hi = certify.BOUNDS[suite][name]
    if n is not None:
        hi, name = hi[n], f"{name} for gl{n}"
    if not (lo <= value <= hi):
        raise BoundsError(f"{name} = {value} outside documented bounds [{lo}, {hi}]")
    return value


def _gl_size(name: str) -> int:
    if not name.startswith("gl") or not name[2:].isdigit():
        raise LoopcertError(f"this suite needs a gl_n preset, got {name!r}")
    return int(name[2:])


def _check_json_target(path: str) -> None:
    """Refuse a --json PATH that cannot be written, before any computation."""
    if not path:
        raise OutputError("--json needs a path, or '-' for stdout")
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise OutputError(f"--json {path!r} is a directory")
    if not os.path.isdir(parent):
        raise OutputError(f"--json {path!r}: directory {parent!r} does not exist")
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise OutputError(f"--json {path!r} is not writable")


def _write_json(path: str, payload: str) -> None:
    """Write the report to ``path``; a failed write leaves no file behind."""
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot write --json {path!r}: {exc.strerror}") from exc
    try:
        with fh:
            fh.write(payload + "\n")
    except OSError as exc:
        if os.path.isfile(path):
            os.remove(path)
        raise OutputError(f"cannot write --json {path!r}: {exc.strerror}") from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="loopcert",
        description="Exact certificates for commutative subalgebra families "
                    "of loop algebras and Yangians.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", default=None,
                        help="write the JSON report to PATH ('-': stdout, the summary to stderr)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_):
        return sub.add_parser(name, help=help_, parents=[common])

    p = add("verify-rtt", "certify the RTT defining relation")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--order", type=int, default=4)

    p = add("verify-bethe", "pairwise commutators of tau_k^(s)")
    p.add_argument("--algebra", default="gl2")
    p.add_argument("--C", required=True, help="diagonal entries, e.g. 1,2")
    p.add_argument("--max-deg", type=int, default=4)
    p.add_argument("--workers", type=int, default=1,
                   help=f"processes, 1..{certify.BOUNDS['verify-bethe']['workers'][1]} (default 1)")

    p = add("verify-gaudin", "bihamiltonian commutativity of D^k Phi_i")
    p.add_argument("--algebra", default="sl2")
    p.add_argument("--kmax", type=int, default=3)

    p = add("verify-soa", "shift-of-argument family checks")
    p.add_argument("--algebra", default="sl3")
    p.add_argument("--chi", required=True, help="diagonal entries of chi")
    p.add_argument("--seed", type=int, default=0)

    p = add("verify-talalaev", "cdet coefficients: commutativity and spans")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--R", type=int, default=3)
    p.add_argument("--max-deg", type=int, default=4)

    p = add("gr", "associated-graded comparisons")
    p.add_argument("--comparison", choices=["theorem-A", "centralizer"],
                   default="theorem-A")
    p.add_argument("--algebra", default="gl2")
    p.add_argument("--C", default=None, help="diagonal entries (theorem-A)")
    p.add_argument("--max-deg", type=int, default=4)

    p = add("poincare", "graded component dimensions")
    p.add_argument("--family", choices=["bethe"], default="bethe")
    p.add_argument("--algebra", default="gl2")
    p.add_argument("--C", default=None)
    p.add_argument("--cutoff", type=int, default=4)

    p = add("limit", "eps->0 limit of Bethe along C0 exp(eps chi)")
    p.add_argument("--algebra", default="gl3")
    p.add_argument("--C0", required=True)
    p.add_argument("--chi", required=True)
    p.add_argument("--deg", type=int, default=3)

    p = add("eval-gaudin", "Gaudin evaluation into U(g)^{x n}")
    p.add_argument("--algebra", default="sl2")
    p.add_argument("--z", required=True, help="distinct rational points")
    p.add_argument("--kmax", type=int, default=5)

    p = add("gens", "dump a generator family")
    p.add_argument("--family", required=True,
                   choices=["bethe", "classical-bethe", "gaudin", "soa", "talalaev"])
    p.add_argument("--algebra", default="gl2")
    p.add_argument("--C", default=None, help="diagonal entries (default 1,...,n)")
    p.add_argument("--chi", default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--R", type=int, default=3)
    p.add_argument("--max-deg", type=int, default=3)
    return ap


def run(args: argparse.Namespace) -> certify.Report:
    cmd = args.command
    if cmd == "verify-rtt":
        return certify.verify_rtt(_bounded(args.n, cmd, "n"), _bounded(args.order, cmd, "order"))
    if cmd == "verify-bethe":
        n = _bounded(_gl_size(args.algebra), cmd, "n")
        return certify.verify_bethe(n, _parse_list(args.C, "--C"),
                                    _bounded(args.max_deg, cmd, "max-deg", n),
                                    workers=_bounded(args.workers, cmd, "workers"))
    if cmd == "verify-gaudin":
        return certify.verify_gaudin(args.algebra, _bounded(args.kmax, cmd, "kmax"))
    if cmd == "verify-soa":
        return certify.verify_soa(args.algebra, _parse_list(args.chi, "--chi"), seed=args.seed)
    if cmd == "verify-talalaev":
        return certify.verify_talalaev(_bounded(args.n, cmd, "n"), _bounded(args.R, cmd, "R"),
                                       _bounded(args.max_deg, cmd, "max-deg"))
    if cmd == "gr":
        key = f"gr {args.comparison}"
        if args.comparison == "centralizer":
            return certify.verify_centralizer(args.algebra, _bounded(args.max_deg, key, "max-deg"))
        n = _gl_size(args.algebra)
        if args.C is None:
            raise LoopcertError("gr --comparison theorem-A needs --C")
        return certify.verify_theorem_A(n, _parse_list(args.C, "--C"),
                                        _bounded(args.max_deg, key, "max-deg"))
    if cmd == "poincare":
        n = _gl_size(args.algebra)
        if args.C is None:
            raise LoopcertError("poincare --family bethe needs --C")
        return certify.poincare_bethe(n, _parse_list(args.C, "--C"),
                                      _bounded(args.cutoff, "poincare bethe", "cutoff"))
    if cmd == "limit":
        n = _bounded(_gl_size(args.algebra), cmd, "n")
        return certify.verify_theorem_B(n, _parse_list(args.C0, "--C0"),
                                        _parse_list(args.chi, "--chi"),
                                        _bounded(args.deg, cmd, "deg", n))
    if cmd == "eval-gaudin":
        z = _parse_list(args.z, "--z")
        _bounded(len(z), cmd, "number of --z points")
        return certify.verify_eval_gaudin(args.algebra, z, _bounded(args.kmax, cmd, "kmax"))
    if cmd == "gens":
        if args.family in ("bethe", "classical-bethe"):
            n = _bounded(_gl_size(args.algebra), "gens bethe", "n")
            C = args.C or ",".join(map(str, range(1, n + 1)))
            kw = {"n": n, "C": _parse_list(C, "--C"),
                  "smax": _bounded(args.max_deg, "gens bethe", "max-deg")}
        elif args.family == "gaudin":
            kw = {"algebra": args.algebra,
                  "kmax": _bounded(args.max_deg, "gens gaudin", "max-deg")}
        elif args.family == "soa":
            if args.chi is None:
                raise LoopcertError("gens --family soa needs --chi")
            kw = {"algebra": args.algebra, "chi": _parse_list(args.chi, "--chi")}
        elif args.family == "talalaev":
            kw = {"n": _bounded(args.n, "gens talalaev", "n"),
                  "R": _bounded(args.R, "gens talalaev", "R")}
        return certify.dump_generators(args.family, **kw)
    raise LoopcertError(f"unknown command {cmd!r}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.json not in (None, "-"):
            _check_json_target(args.json)
        report = run(args)
        for line in report.summary_lines():  # with --json -, stdout is the report alone
            print(line, file=sys.stderr if args.json == "-" else sys.stdout)
        if args.json is not None:
            payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
            if args.json == "-":
                print(payload)
            else:
                _write_json(args.json, payload)
    except LoopcertError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
