"""Sample the speed of this CPU while benchmark jobs run on it.

    python perfbench/refloop.py OUT PERIOD

Every PERIOD seconds, runs one pass of a fixed pure-Python loop (Fraction
arithmetic and dict updates, the operations that dominate loopcert's own
profile, but none of its code) and appends a line ``START END CPU`` to the
file OUT: the pass's ``time.perf_counter()`` readings before and after, and
the CPU time the pass took (``time.thread_time``, so time spent waiting for
a job that shares the CPU does not count).  Stops when it gets SIGTERM or
when its parent has exited.
"""

import os
import sys
import time
from fractions import Fraction

ITERS = 800


def one_pass() -> float:
    """CPU seconds of one pass of the reference loop."""
    acc = {}
    start = time.thread_time()
    for i in range(ITERS):
        k = i % 97
        acc[k] = acc.get(k, 0) + Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, k + 1)
    return time.thread_time() - start


def main() -> int:
    out, period = sys.argv[1], float(sys.argv[2])
    parent = os.getppid()
    with open(out, "a", encoding="utf-8") as fh:
        while os.getppid() == parent:
            start = time.perf_counter()
            cpu = one_pass()
            fh.write(f"{start!r} {time.perf_counter()!r} {cpu!r}\n")
            fh.flush()
            time.sleep(period)
    return 0


if __name__ == "__main__":
    sys.exit(main())
