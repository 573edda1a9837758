"""Workloads of the certificate-job benchmark and their seeded parameters.

A workload is a fixed list of CLI certificate jobs.  The seed only draws the
diagonal entries a job takes (``--C``, ``--C0``, ``--chi``, ``--z``) as small
integers, nonzero wherever the seed-0 entry is; every job keeps the
regularity pattern of its seed-0 parameters, so the dimensions and pair
counts it certifies, and the number of checks in its report, do not depend
on the seed.  Seed 0 gives exactly the parameters listed in ``SEED0``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, List, Sequence

# Seed-0 job lists: the jobs each workload runs, in order.  BENCHMARK.json
# gives the reason for each workload.
SEED0: Dict[str, List[str]] = {
    "pbw-commutators": [
        "verify-bethe --algebra gl3 --C 1,2,3 --max-deg 4",
        "verify-bethe --algebra gl2 --C 1,2 --max-deg 7",
        "verify-bethe --algebra gl4 --C 1,2,3,4 --max-deg 3",
        "verify-rtt --n 3 --order 6",
        "eval-gaudin --algebra sl3 --z 0,1 --kmax 3",
    ],
    "graded-spans": [
        "poincare --family bethe --algebra gl3 --C 1,2,3 --cutoff 4",
        "gr --comparison theorem-A --algebra gl3 --C 1,1,2 --max-deg 4",
        "verify-talalaev --n 2 --R 3 --max-deg 5",
        "gr --comparison centralizer --algebra sl2 --max-deg 6",
    ],
    "poisson-eps-limit": [
        "verify-gaudin --algebra sl3 --kmax 2",
        "verify-soa --algebra sl3 --chi 1,2,-3",
        "limit --algebra gl3 --C0 1,1,2 --chi 1,-1,0 --deg 2",
        "limit --algebra gl2 --C0 1,1 --chi 1,-1 --deg 4",
    ],
}

# Larger numerators or any denominator grow the Fraction coefficients of
# every job (eval-gaudin sl3 ran 1.7 times as long at z = 3/2,-2 as at
# z = 0,1 on a 2-vCPU Xeon VM), so entries are small integers, which keeps a
# job's cost nearly the same from one seed to the next.
POOL = [Fraction(p) for p in (1, 2, 3, -1, -2, -3)]


def _distinct(rng: random.Random, k: int) -> List[Fraction]:
    return rng.sample(POOL, k)


def _aab(rng: random.Random) -> List[Fraction]:
    """The non-regular pattern (a, a, b) with a != b."""
    a, b = rng.sample(POOL, 2)
    return [a, a, b]


def _trace_zero_distinct(rng: random.Random) -> List[Fraction]:
    """(a, b, -a-b): distinct, nonzero and trace zero (regular in sl3)."""
    while True:
        a, b = rng.sample(POOL, 2)
        c = -a - b
        if c != 0 and c not in (a, b):
            return [a, b, c]


def _fmt(entries: Sequence[Fraction]) -> str:
    return ",".join(str(x) for x in entries)


# For each seed-0 job, the options the seed redraws and how.  Each draw keeps
# the zero entries of the seed-0 parameters, which set how many terms the
# job's elements have: z = (0, a) for eval-gaudin, and chi = (c, d, 0) for
# the gl3 limit, where chi is regular on z(C0) = gl2 + gl1 when c != d.
Drawer = Callable[[random.Random], Dict[str, List[Fraction]]]
_DRAW: Dict[str, List[Drawer | None]] = {
    "pbw-commutators": [
        lambda rng: {"--C": _distinct(rng, 3)},
        lambda rng: {"--C": _distinct(rng, 2)},
        lambda rng: {"--C": _distinct(rng, 4)},
        None,
        lambda rng: {"--z": [Fraction(0), rng.choice(POOL)]},
    ],
    "graded-spans": [
        lambda rng: {"--C": _distinct(rng, 3)},
        lambda rng: {"--C": _aab(rng)},
        None,
        None,
    ],
    "poisson-eps-limit": [
        None,
        lambda rng: {"--chi": _trace_zero_distinct(rng)},
        lambda rng: {"--C0": _aab(rng), "--chi": _distinct(rng, 2) + [Fraction(0)]},
        lambda rng: {"--C0": [rng.choice(POOL)] * 2, "--chi": _distinct(rng, 2)},
    ],
}


def jobs(workload: str, seed: int) -> List[List[str]]:
    """The workload's job list for ``seed``, each job as CLI arguments."""
    if workload not in SEED0:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(SEED0)}")
    rng = random.Random(seed)
    out = []
    for line, draw in zip(SEED0[workload], _DRAW[workload]):
        argv = line.split()
        if seed != 0 and draw is not None:
            for opt, entries in draw(rng).items():
                # "--C=-1,2", since argparse would read a separate "-1,2" as an option
                i = argv.index(opt)
                argv[i:i + 2] = [f"{opt}={_fmt(entries)}"]
        out.append(argv)
    return out
