"""Record the seed-0 report of every job in ``seed0.json``.

    python3 perfbench/record_seed0.py

Run from the root of a loopcert checkout.  For each workload's seed-0 job
it stores the CLI arguments, the SHA-256 of the JSON report and the number
of checks in it.  The benchmark requires the same check count at every seed
and, in a traced run, counts the reports whose hash has changed
(``certify.reports_changed``).
"""

import hashlib
import json
import sys
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    out = {}
    with run.Runner(Path.cwd(), time.perf_counter() + 3600) as runner:
        for name in workloads.SEED0:
            out[name] = []
            for argv in workloads.jobs(name, 0):
                job = runner.run(argv, traced=False)
                if job.status != "ok" or job.report is None:
                    print(f"error: {' '.join(argv)}: {job.failure}", file=sys.stderr)
                    return 1
                out[name].append({"argv": " ".join(argv),
                                  "sha256": hashlib.sha256(job.report).hexdigest(),
                                  "checks": len(json.loads(job.report)["checks"])})
    (run.HERE / "seed0.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
