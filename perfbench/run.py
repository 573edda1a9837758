"""Certificate-job benchmark for loopcert.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a loopcert checkout.  A workload is a fixed list of CLI
certificate jobs (``workloads.py``); the seed draws their diagonal
parameters.  The jobs run as a closed loop with one client: each is a fresh
``python perfbench/child.py ... ARGS --json REPORT`` process, which runs
``loopcert.cli.main(ARGS)`` as ``python -m loopcert.cli ARGS`` would, and
the next job starts when it has exited, so at most one child runs at a time.
The whole job list is repeated in rounds for S seconds (at least one round);
a job's figure is its median over the rounds.

Times are given at a reference CPU speed.  On the shared 2-vCPU host this
benchmark was written on, each vCPU runs the same job at ~0.65 s in some
phases and ~1.1 s in others, phases of a few to 60 s that differ between the
two vCPUs, and child CPU time tracks wall time.  So the run pins itself, and
with it every child, to one CPU, and ``refloop.py`` runs a short pass of a
fixed pure-Python loop on that CPU every ``REF_PERIOD_S`` seconds, also while
a job runs.  A job's times lose the CPU time those passes took inside them
and are scaled by ``REF_NOMINAL_S`` over the mean CPU time of the passes
made during the job: they are the job's times on a CPU that makes a pass in
``REF_NOMINAL_S``.  The raw times are printed as well.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported:

* ``wall_s``: sum over jobs of the time from spawn to the child's exit, at
  the reference speed.
* ``setup_s``: sum over jobs of the time from spawn until the child has
  imported ``loopcert.cli`` (interpreter start-up and imports), at the
  reference speed.
* ``peak_rss_mb``: max over jobs of the child's own ``ru_maxrss``, taken
  from ``os.wait4``.
* ``ok_frac``: jobs passed over jobs attempted, i.e. 1 - failed_frac.  A job
  fails on a nonzero exit, a crash, a timeout, an unparsable report, a
  schema other than ``loopcert-report/1``, ``"pass": false``, parameters
  other than those given, or a check count other than its seed-0 count.

With ``--trace 1`` each round runs the jobs untraced and then traced, with
the wrappers of ``layers.py`` installed in the child, and the per-layer
metrics of BENCHMARK.json are reported: the layer totals of ``layers.py``
summed over the jobs, ``linalg.rref_q_rank_frac`` (output rows over input
rows of every Q rref), ``traced_wall_s``, ``unattributed_s`` (traced wall
time minus the sum of self times: start-up, imports and counting; these and
the layer times are raw, not scaled), ``trace_overhead_frac`` ((traced -
untraced) / untraced wall time, both at the reference speed) and
``certify.reports_changed`` (reports whose SHA-256 differs from the one
``seed0.json`` holds for the same job; only seed-0 jobs have one).  A traced
report must be byte-identical to the untraced one.

Every line but the last is for people; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--workload all`` each workload runs in turn, and the last line maps each
workload to its object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import layers
import workloads

HERE = Path(__file__).resolve().parent
SCHEMA = "loopcert-report/1"
# Untimed first job: compiles and caches the package's bytecode and warms the
# file cache, so neither lands in a timed job's set-up time.
WARMUP = ["verify-rtt", "--n", "1", "--order", "1"]
JOB_TIMEOUT_S = 60.0
# No round starts that would end later than this many seconds into the run,
# and no job runs past it, so one run ends well within three minutes.
RUN_BUDGET_S = 150.0
# CLI option -> report params key, for the options a seed draws.
PARAM_KEYS = {"--C": "C", "--C0": "C0", "--chi": "chi", "--z": "z"}
# refloop.py makes one pass every REF_PERIOD_S seconds; times are scaled to
# a CPU whose pass takes REF_NOMINAL_S of CPU time (a pass took 0.0033 to
# 0.0053 s on the 2-vCPU Xeon VM this benchmark was written on).
REF_PERIOD_S = 0.1
REF_NOMINAL_S = 0.004


@dataclass
class Job:
    """One finished child process."""

    argv: List[str]
    traced: bool
    wall_s: float
    setup_s: Optional[float]
    rss_mb: float
    status: str  # "ok", "timeout", "exit N" or "signal N"
    report: Optional[bytes]
    trace: Optional[dict]
    failure: Optional[str] = None
    # REF_NOMINAL_S over the mean CPU time of the reference passes made
    # during the job, and the CPU time those passes took inside each time
    speed: float = 1.0
    ref_cpu: Dict[str, float] = field(default_factory=dict)

    def scaled(self, attr: str) -> Optional[float]:
        """The time ``attr`` at the reference speed."""
        val = getattr(self, attr)
        return None if val is None else (val - self.ref_cpu.get(attr, 0.0)) * self.speed


class Runner:
    """Spawns one child at a time from the checkout at ``root``."""

    def __init__(self, root: Path, deadline: float) -> None:
        self.root = root
        self.deadline = deadline
        self.tmp = root / ".perfbench_tmp" / str(os.getpid())
        self.env = dict(os.environ)
        self.env.pop("LOOPCERT_WORKERS", None)  # verify-bethe stays serial
        # the warm-up job caches the bytecode that later jobs load, as an
        # installed package's would be
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = str(root / "src")

    def __enter__(self) -> "Runner":
        self.tmp.mkdir(parents=True, exist_ok=True)
        # children inherit the mask, so every job and the reference loop
        # run on the same CPU
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        self.ref_log = self.tmp / "ref.log"
        self.ref_log.touch()
        self.ref_read = 0
        self.ref_samples: List[tuple] = []
        self.refloop = subprocess.Popen(
            [sys.executable, str(HERE / "refloop.py"), str(self.ref_log), str(REF_PERIOD_S)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        while self.ref_log.stat().st_size == 0:  # until its first pass is logged
            if self.refloop.poll() is not None:
                raise RuntimeError(f"the reference loop exited with {self.refloop.returncode}")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self.refloop.terminate()
        self.refloop.wait()
        os.sched_setaffinity(0, self.cpus)
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone

    def run(self, argv: List[str], traced: bool) -> Job:
        stamp, report, trace, err = (self.tmp / n for n in
                                     ("stamp", "report.json", "trace.json", "stderr"))
        for p in (stamp, report, trace):
            p.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(stamp),
               str(trace) if traced else "-", *argv, "--json", str(report)]
        timeout = max(0.1, min(JOB_TIMEOUT_S, self.deadline - time.perf_counter()))
        killed = threading.Event()
        with open(err, "wb") as errfh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=errfh)
            reaped = threading.Event()

            def kill() -> None:
                if not reaped.is_set():
                    killed.set()
                    proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, wstatus, usage = os.wait4(proc.pid, 0)
                end = time.perf_counter()
                reaped.set()
                proc.returncode = os.waitstatus_to_exitcode(wstatus)
            finally:
                timer.cancel()
                timer.join()
        code = proc.returncode
        if killed.is_set():
            status = "timeout"
        elif code < 0:
            status = f"signal {-code}"
        else:
            status = "ok" if code == 0 else f"exit {code}"
        setup = float(stamp.read_text()) - start if stamp.exists() else None
        try:
            totals = json.loads(trace.read_text()) if traced else None
        except (OSError, ValueError):
            totals = None  # the child died before it wrote them
        job = Job(argv=list(argv), traced=traced, wall_s=end - start, setup_s=setup,
                  rss_mb=usage.ru_maxrss / 1024.0, status=status,
                  report=report.read_bytes() if report.exists() else None, trace=totals)
        self._scale(job, start, end, None if setup is None else start + setup)
        if status != "ok":
            detail = err.read_text(errors="replace").strip().splitlines()
            job.failure = status + (f": {detail[-1]}" if detail else "")
        return job


    def _scale(self, job: Job, start: float, end: float, stamp: Optional[float]) -> None:
        """Set the job's speed and the reference passes' CPU time inside its
        wall and set-up times, from the passes logged so far."""
        if self.refloop.poll() is not None:
            raise RuntimeError(f"the reference loop exited with {self.refloop.returncode}")
        with open(self.ref_log, "rb") as fh:
            fh.seek(self.ref_read)
            new = fh.read()
        done = new[:new.rfind(b"\n") + 1]  # complete lines only
        self.ref_read += len(done)
        self.ref_samples += [tuple(map(float, line.split())) for line in done.splitlines()]

        def cpu_inside(a: float, b: float) -> float:
            # each pass's CPU time, spread evenly over its wall-clock span
            return sum(cpu * max(0.0, min(b, s1) - max(a, s0)) / (s1 - s0)
                       for s0, s1, cpu in self.ref_samples if s1 > a and s0 < b and s1 > s0)

        during = [cpu for s0, s1, cpu in self.ref_samples if start <= (s0 + s1) / 2 <= end]
        if not during:  # a job shorter than a period: the latest passes before it ended
            during = [cpu for s0, s1, cpu in self.ref_samples if s1 <= end][-3:]
        if not during:
            raise RuntimeError("the reference loop logged no pass")
        # passes come at a steady rate, so their mean time follows the CPU's
        # mean speed over the job, the one its time depends on
        job.speed = REF_NOMINAL_S / statistics.fmean(during)
        job.ref_cpu["wall_s"] = cpu_inside(start, end)
        if stamp is not None:
            job.ref_cpu["setup_s"] = cpu_inside(start, stamp)


def _options(argv: List[str]):
    """(option, value) pairs of job arguments, written "--opt value" or "--opt=value"."""
    args = iter(argv)
    for arg in args:
        if arg.startswith("--"):
            opt, eq, value = arg.partition("=")
            yield opt, value if eq else next(args, "")


def check_report(job: Job, expected_checks: int) -> Optional[str]:
    """Why the job's output is wrong, or None if it is a passing certificate
    for exactly the parameters it was given."""
    if job.failure is not None:
        return job.failure
    if job.setup_s is None:
        return "no set-up stamp"
    if job.traced and job.trace is None:
        return "no trace"
    try:
        rep = json.loads(job.report or b"")
    except ValueError:
        return "unparsable report"
    if not isinstance(rep, dict) or rep.get("schema") != SCHEMA:
        return f"schema {rep.get('schema') if isinstance(rep, dict) else None!r}"
    if rep.get("pass") is not True:
        return "pass false"
    if len(rep.get("checks", [])) != expected_checks:
        return f"{len(rep.get('checks', []))} checks, expected {expected_checks}"
    params = rep.get("params", {})
    for opt, value in _options(job.argv):
        if opt in PARAM_KEYS and ",".join(params.get(PARAM_KEYS[opt], [])) != value:
            return f"params {PARAM_KEYS[opt]}={params.get(PARAM_KEYS[opt])}, given {value}"
    return None


def _per_job_median(rounds: List[List[Job]], attr: str,
                    scaled: bool = False) -> List[Optional[float]]:
    """For each job of the list, the median over the rounds of ``attr``, at
    the reference speed if ``scaled`` (None if no round measured it)."""
    out = []
    for j in range(len(rounds[0])):
        vals = [r[j].scaled(attr) if scaled else getattr(r[j], attr) for r in rounds]
        vals = _measured(vals)
        out.append(statistics.median(vals) if vals else None)
    return out


def _measured(values: List[Optional[float]]) -> List[float]:
    return [v for v in values if v is not None]


def end_to_end(plain: List[List[Job]], failed: int, attempted: int) -> Dict[str, float]:
    return {
        "wall_s": sum(_measured(_per_job_median(plain, "wall_s", scaled=True))),
        "setup_s": sum(_measured(_per_job_median(plain, "setup_s", scaled=True))),
        "peak_rss_mb": max(_measured(_per_job_median(plain, "rss_mb"))),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(plain: List[List[Job]], traced: List[List[Job]],
              seed0_sha: Dict[str, str]) -> Dict[str, float]:
    """Per-layer totals of each traced round, as medians over the rounds."""
    per_round: List[Dict[str, float]] = []
    for rnd in traced:
        m: Dict[str, float] = layers.Tracer().totals()  # all zero
        for job in rnd:
            for key, val in (job.trace or {}).items():
                m[key] = max(m.get(key, 0), val) if key.endswith("max_bits") \
                    else m.get(key, 0) + val
        self_s = sum(v for k, v in m.items() if k.endswith("_s"))
        rows = m.get("linalg.rref_q_rows", 0)
        m["linalg.rref_q_rank_frac"] = m.get("linalg.rref_q_rank", 0) / rows if rows else 0.0
        m["traced_wall_s"] = sum(j.wall_s for j in rnd)
        m["unattributed_s"] = m["traced_wall_s"] - self_s
        per_round.append(m)
    out = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    untraced, traced_s = (statistics.median(sum(j.scaled("wall_s") for j in r) for r in rounds)
                          for rounds in (plain, traced))
    out["trace_overhead_frac"] = (traced_s - untraced) / untraced
    reports = {" ".join(j.argv): j.report for r in plain + traced for j in r}
    out["certify.reports_changed"] = sum(
        1 for key, rep in reports.items()
        if key in seed0_sha and hashlib.sha256(rep or b"").hexdigest() != seed0_sha[key])
    return out


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict, seed0: dict, log) -> dict:
    jobs = workloads.jobs(workload, seed)
    expected = [e["checks"] for e in seed0[workload]]
    seed0_sha = {e["argv"]: e["sha256"] for e in seed0[workload]}
    start = time.perf_counter()
    with Runner(root, start + RUN_BUDGET_S) as runner:
        warm = runner.run(WARMUP, traced=False)
        if check_report(warm, 1) is not None:
            raise RuntimeError(f"warm-up job failed: {check_report(warm, 1)}")
        plain: List[List[Job]] = []
        traced: List[List[Job]] = []
        while True:
            plain.append([runner.run(argv, False) for argv in jobs])
            if trace:
                traced.append([runner.run(argv, True) for argv in jobs])
            elapsed = time.perf_counter() - start
            # start another round only if it should end within the time
            if elapsed * (len(plain) + 1) / len(plain) > min(seconds, RUN_BUDGET_S):
                break
    failures = []
    for rnd in plain + traced:
        for j, job in enumerate(rnd):
            why = check_report(job, expected[j])
            if why is not None:
                failures.append((job, why))
    correct = not failures
    for rnd_p, rnd_t in zip(plain, traced):
        for jp, jt in zip(rnd_p, rnd_t):
            if jp.report is not None and jt.report is not None and jp.report != jt.report:
                correct = False
                log(f"  report differs with tracing on: {' '.join(jp.argv)}")
    attempted = sum(len(r) for r in plain + traced)
    values = end_to_end(plain, len(failures), attempted)
    if trace:
        values.update(per_layer(plain, traced, seed0_sha))
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    log(f"workload {workload} seed {seed}: {len(plain)} round(s) of {len(jobs)} jobs"
        f"{' untraced + traced' if trace else ''}, {attempted} attempted, "
        f"{len(failures)} failed")
    for job, why in failures:
        log(f"  FAILED{' (traced)' if job.traced else ''} {' '.join(job.argv)}: {why}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        log(f"  {name:32s} {values[name]:12.4f} {units[name]}")
    log(f"  {'failed_frac':32s} {len(failures) / attempted:12.4f} ratio")
    setups = _per_job_median(plain, "setup_s", scaled=True)
    for j, (argv, setup) in enumerate(zip(jobs, setups)):
        setup = "-" if setup is None else f"{setup:.3f}"
        walls = " ".join(f"{r[j].scaled('wall_s'):.3f}" for r in plain)
        raw = " ".join(f"{r[j].wall_s:.3f}" for r in plain)
        log(f"  job set-up {setup:>6s} s, wall {walls} s (raw {raw} s): {' '.join(argv)}")
    if trace:
        for name in metrics:
            log(f"  {name:32s} {values[name]:12.4f} {units[name]}")
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(workloads.SEED0)}, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "loopcert" / "cli.py").is_file():
        print(f"error: {root} is not a loopcert checkout (no src/loopcert/cli.py)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seed0 = json.loads((HERE / "seed0.json").read_text())
    names = list(workloads.SEED0) if args.workload == "all" else [args.workload]
    if any(n not in workloads.SEED0 for n in names):
        ap.error(f"unknown workload {args.workload!r}")
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds,
                                         bool(args.trace), spec, seed0, print)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
