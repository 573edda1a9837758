"""Run one loopcert CLI job in a fresh process, as `python -m loopcert.cli` would.

    python perfbench/child.py STAMP TRACE ARGS...

Imports ``loopcert.cli`` (found through PYTHONPATH), writes the
``time.perf_counter()`` reading taken right after the import to the file
STAMP, then calls ``loopcert.cli.main(ARGS)`` and exits with its status.
``perf_counter`` reads CLOCK_MONOTONIC on Linux, which the parent shares,
so STAMP minus the parent's spawn time is the job's set-up time.

TRACE is ``-`` for an untraced job.  Otherwise the layer wrappers of
``layers.py`` are installed before ``main`` runs and their totals are
written to the file TRACE as JSON when it returns.
"""

import sys
import time


def main() -> int:
    stamp_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import loopcert.cli as cli
    imported = time.perf_counter()
    with open(stamp_path, "w", encoding="utf-8") as fh:
        fh.write(repr(imported))
    if trace_path == "-":
        return cli.main(argv)
    import layers
    tracer = layers.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
