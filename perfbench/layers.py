"""Per-layer accounting for one traced CLI job, installed from outside loopcert.

``Tracer.install`` replaces the public entry points of each loopcert module
(a layer) with wrappers that time every call and count its work, without
any change to the package.  A span's self time is its duration minus the
time of the wrapped spans nested in it.  Scalar operations (``Fraction``
arithmetic) are not wrapped: there are millions of them, and they count
toward the span that runs them.

For each span ``<name>_s`` is its self time in seconds and ``<name>_calls``
its number of calls.  ``linalg.rref`` is reported as ``linalg.rref_q`` or
``linalg.rref_eps`` by the field of its input (``Fraction`` or ``RatFunc``).
The counters:

* ``envelop.terms_in`` / ``terms_out``: terms of the argument and of the
  result of ``PBWContext.normalize_terms``;
* ``commpoly.poisson_term_pairs``: len(p) * len(q) per Poisson bracket;
* ``linalg.rref_q_cells`` / ``rref_eps_cells``: rows * columns of the input;
  ``rref_q_nnz`` its nonzeros, ``rref_q_rows`` its rows, ``rref_q_rank`` the
  rows of the output, ``rref_q_max_bits`` the largest numerator or
  denominator bit length in any output;
* ``certify.checks``: checks in the suite's report.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute) for every wrapped entry point.  Methods are
# wrapped on the class that defines them: PBWContext.normalize_terms only,
# because YangianContext's override reaches it through super().
SPANS: List[Tuple[str, str, str]] = [
    ("liealg.validate", "liealg", "LieAlgebraData.validate"),
    ("liealg.preset", "liealg", "preset"),
    ("liealg.preset", "liealg", "gl_algebra"),
    ("liealg.centralizer", "liealg", "centralizer"),
    ("yangian.bethe_generators", "yangian", "bethe_generators"),
    ("yangian.rtt_checks", "yangian", "rtt_relation_checks"),
    ("envelop.normalize", "envelop", "PBWContext.normalize_terms"),
    ("envelop.talalaev_generators", "envelop", "talalaev_generators"),
    ("envelop.gaudin_evaluation", "envelop", "gaudin_evaluation"),
    ("commpoly.poisson", "commpoly", "LoopAlgebra.poisson0"),
    ("commpoly.poisson", "commpoly", "LoopAlgebra.poisson1"),
    ("families.classical_bethe", "families", "classical_bethe"),
    ("families.component_polys", "families", "bethe_component_polys"),
    ("families.gaudin_generators", "families", "gaudin_generators"),
    ("families.soa_generators", "families", "soa_generators"),
    ("families.centralizer_subalgebra", "families", "centralizer_subalgebra"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.bigraded_block", "linalg", "bigraded_block"),
    ("linalg.limit_subspace", "linalg", "limit_subspace"),
    ("scalars.ratfunc_new", "scalars", "RatFunc.__init__"),
    ("cli.self", "cli", "main"),
]


# Span names as reported: rref is split by the field of its input.
NAMES = sorted({s for s, _, _ in SPANS} - {"linalg.rref"}
               | {"linalg.rref_q", "linalg.rref_eps", "certify.suite_self"})
COUNTERS = ["envelop.terms_in", "envelop.terms_out", "commpoly.poisson_term_pairs",
            "linalg.rref_q_cells", "linalg.rref_q_nnz", "linalg.rref_q_rows",
            "linalg.rref_q_rank", "linalg.rref_q_max_bits", "linalg.rref_eps_cells",
            "certify.checks"]


def _suites(certify) -> List[str]:
    return sorted(n for n in vars(certify)
                  if n.startswith(("verify_", "poincare_")) and callable(getattr(certify, n)))


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Self time, call counts and work counters of the wrapped spans."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = dict.fromkeys(NAMES, 0)
        self.calls: Dict[str, int] = dict.fromkeys(NAMES, 0)
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        # time of the wrapped spans nested in each open span
        self._stack: List[int] = []

    # -- counters per span, computed outside the timed interval -------------

    def _count_normalize(self, name: str, args, result) -> None:
        self.counters["envelop.terms_in"] += len(args[1])
        self.counters["envelop.terms_out"] += len(result)

    def _count_poisson(self, name: str, args, result) -> None:
        self.counters["commpoly.poisson_term_pairs"] += len(args[1].terms) * len(args[2].terms)

    def _count_rref(self, name: str, args, result) -> None:
        rows = args[0]
        ncols = len(rows[0]) if rows else 0
        self.counters[f"{name}_cells"] += len(rows) * ncols
        if name == "linalg.rref_q":
            self.counters["linalg.rref_q_nnz"] += sum(1 for r in rows for x in r if x)
            self.counters["linalg.rref_q_rows"] += len(rows)
            self.counters["linalg.rref_q_rank"] += len(result)
            bits = max((_bits(x) for r in result for x in r), default=0)
            key = "linalg.rref_q_max_bits"
            self.counters[key] = max(self.counters[key], bits)

    def _count_suite(self, name: str, args, result) -> None:
        self.counters["certify.checks"] += len(result.checks)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable, name_of: Callable, count: Optional[Callable]) -> Callable:
        perf = time.perf_counter_ns
        stack = self._stack

        def wrapper(*args, **kwargs):
            name = name_of(args)
            stack.append(0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self.self_ns[name] += t1 - t0 - stack.pop()
                self.calls[name] += 1
            if count is not None:
                count(name, args, result)
            if stack:
                # the parent's self time excludes this span and its counting
                stack[-1] += perf() - t0
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in SPANS and the certificate suites, and
        rebind the names other loopcert modules imported from them."""
        mods = {m: importlib.import_module(f"loopcert.{m}")
                for m in {mod for _, mod, _ in SPANS} | {"certify"}}
        ratfunc = mods["scalars"].RatFunc
        counters = {
            "envelop.normalize": self._count_normalize,
            "commpoly.poisson": self._count_poisson,
            "linalg.rref": self._count_rref,
            "certify.suite_self": self._count_suite,
        }

        def rref_name(args) -> str:
            rows = args[0]
            eps = bool(rows) and bool(rows[0]) and isinstance(rows[0][0], ratfunc)
            return "linalg.rref_eps" if eps else "linalg.rref_q"

        targets = list(SPANS) + [("certify.suite_self", "certify", n)
                                 for n in _suites(mods["certify"])]
        replaced: Dict[int, Tuple[Callable, Callable]] = {}
        for span, mod, attr in targets:
            owner = mods[mod]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
            name_of = rref_name if span == "linalg.rref" else (lambda args, s=span: s)
            wrapped = self._wrap(fn, name_of, counters.get(span))
            setattr(owner, leaf, wrapped)
            if not path:
                replaced[id(fn)] = (fn, wrapped)
        # `from .x import f` made copies of the module-level names; the
        # package itself re-exports some (`loopcert.yangian` is a function).
        for modname, module in list(sys.modules.items()):
            if modname == "loopcert" or modname.startswith("loopcert."):
                for key, value in list(vars(module).items()):
                    entry = replaced.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, key, entry[1])

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, ns in self.self_ns.items():
            out[f"{name}_s"] = ns / 1e9
            out[f"{name}_calls"] = self.calls[name]
        out.update(self.counters)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.totals(), fh, sort_keys=True)
