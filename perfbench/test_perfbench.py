"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Run from the root of a loopcert checkout; they spawn a few short CLI jobs.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED0 = json.loads((HERE / "seed0.json").read_text())
# The cheapest seed-0 job of each workload.
CHEAP = {"pbw-commutators": 3, "graded-spans": 3, "poisson-eps-limit": 1}
OK_JOB = ["verify-rtt", "--n", "2", "--order", "2"]
# exits 2: --max-deg is documented within [1, 8]
FAILING_JOB = ["verify-bethe", "--algebra", "gl2", "--C", "1,2", "--max-deg", "9"]

# Every metric the benchmark is specified to emit.
END_TO_END = ["wall_s", "setup_s", "peak_rss_mb", "ok_frac"]
PER_LAYER = [
    "liealg.validate_s", "liealg.validate_calls", "liealg.preset_s", "liealg.centralizer_s",
    "yangian.bethe_generators_s", "yangian.rtt_checks_s",
    "envelop.normalize_s", "envelop.normalize_calls", "envelop.terms_in", "envelop.terms_out",
    "envelop.talalaev_generators_s", "envelop.gaudin_evaluation_s",
    "commpoly.poisson_s", "commpoly.poisson_calls", "commpoly.poisson_term_pairs",
    "families.classical_bethe_s", "families.component_polys_s",
    "families.gaudin_generators_s", "families.soa_generators_s",
    "families.centralizer_subalgebra_s",
    "linalg.rref_q_s", "linalg.rref_q_calls", "linalg.rref_q_cells", "linalg.rref_q_nnz",
    "linalg.rref_q_rank_frac", "linalg.rref_q_max_bits",
    "linalg.rref_eps_s", "linalg.rref_eps_calls", "linalg.rref_eps_cells",
    "linalg.bigraded_block_s", "linalg.limit_subspace_s", "linalg.limit_subspace_calls",
    "scalars.ratfunc_new_s", "scalars.ratfunc_new_calls",
    "certify.suite_self_s", "certify.checks", "certify.reports_changed",
    "cli.self_s", "traced_wall_s", "unattributed_s", "trace_overhead_frac",
]


def _run_jobs(monkeypatch, jobs, trace):
    monkeypatch.setattr(workloads, "jobs", lambda name, seed: [list(j) for j in jobs])
    seed0 = {"w": [{"argv": " ".join(j), "sha256": "", "checks": 1} for j in jobs]}
    lines = []
    result = run.run_workload(ROOT, "w", 0, 0, trace, SPEC, seed0, lines.append)
    return result, lines


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_report_bytes_identical_with_tracing(workload):
    argv = workloads.jobs(workload, 0)[CHEAP[workload]]
    with run.Runner(ROOT, time.perf_counter() + 600) as runner:
        plain = runner.run(argv, traced=False)
        traced = runner.run(argv, traced=True)
    assert plain.status == traced.status == "ok"
    assert plain.report is not None and plain.report == traced.report
    assert traced.trace["certify.checks"] >= 1
    assert traced.trace["cli.self_calls"] == 1


def test_benchmark_json_lists_every_metric():
    assert [m["name"] for m in SPEC["end_to_end"]] == END_TO_END
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.SEED0)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(monkeypatch, trace):
    result, _ = _run_jobs(monkeypatch, [OK_JOB], trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in listed}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_failing_job_counts_and_is_not_dropped(monkeypatch):
    result, lines = _run_jobs(monkeypatch, [OK_JOB, FAILING_JOB], False)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == 0.5
    assert any("failed_frac" in line and "0.5000" in line for line in lines)
    assert any("FAILED" in line and "exit 2" in line for line in lines)


def test_timeout_is_recorded(monkeypatch):
    monkeypatch.setattr(run, "JOB_TIMEOUT_S", 0.1)
    with run.Runner(ROOT, time.perf_counter() + 600) as runner:
        job = runner.run(["verify-rtt", "--n", "3", "--order", "6"], traced=False)
    assert job.status == "timeout"
    assert run.check_report(job, 1).startswith("timeout")


def test_times_are_scaled_to_the_reference_speed():
    with run.Runner(ROOT, time.perf_counter() + 600) as runner:
        job = runner.run(["verify-rtt", "--n", "3", "--order", "4"], traced=False)
        refloop = runner.refloop
        assert refloop.poll() is None
    assert refloop.returncode is not None  # stopped and reaped on exit
    assert job.status == "ok" and job.speed > 0
    assert 0 < job.ref_cpu["wall_s"] < job.wall_s
    assert 0 <= job.ref_cpu["setup_s"] <= job.ref_cpu["wall_s"]
    assert job.scaled("wall_s") == (job.wall_s - job.ref_cpu["wall_s"]) * job.speed
    assert job.scaled("setup_s") == (job.setup_s - job.ref_cpu["setup_s"]) * job.speed


def test_check_report_rejects_wrong_outputs():
    report = {"schema": run.SCHEMA, "pass": True, "params": {"C": ["1", "2"]},
              "checks": [{"name": "c", "pass": True}]}

    def job(rep, argv=("verify-bethe", "--C=1,2")):
        return run.Job(argv=list(argv), traced=False, wall_s=1.0, setup_s=0.1,
                       rss_mb=1.0, status="ok", report=json.dumps(rep).encode(), trace=None)

    assert run.check_report(job(report), 1) is None
    assert run.check_report(job(report, ("verify-bethe", "--C", "1,2")), 1) is None
    assert run.check_report(job(report), 2) == "1 checks, expected 2"
    assert run.check_report(job(dict(report, schema="x")), 1) == "schema 'x'"
    assert run.check_report(job(dict(report, **{"pass": False})), 1) == "pass false"
    assert run.check_report(job(report, ("verify-bethe", "--C=1,3")), 1).startswith("params")


def _pattern(argv, opt):
    for i, a in enumerate(argv):
        if a.startswith(opt + "="):
            return [Fraction(x) for x in a.split("=", 1)[1].split(",")]
        if a == opt:
            return [Fraction(x) for x in argv[i + 1].split(",")]
    raise KeyError(opt)


def test_seeded_parameters_keep_each_pattern():
    for name, lines in workloads.SEED0.items():
        assert workloads.jobs(name, 0) == [line.split() for line in lines]
        assert [e["argv"] for e in SEED0[name]] == lines
    for seed in range(1, 60):
        assert workloads.jobs("graded-spans", seed) == workloads.jobs("graded-spans", seed)
        pbw = workloads.jobs("pbw-commutators", seed)
        for job, k in zip(pbw[:3], (3, 2, 4)):
            c = _pattern(job, "--C")
            assert len(set(c)) == k and 0 not in c
        z = _pattern(pbw[4], "--z")
        assert z[0] == 0 != z[1]
        spans = workloads.jobs("graded-spans", seed)
        assert len(set(_pattern(spans[0], "--C"))) == 3
        a, b, c = _pattern(spans[1], "--C")
        assert a == b != c and 0 not in (a, c)
        eps = workloads.jobs("poisson-eps-limit", seed)
        chi = _pattern(eps[1], "--chi")
        assert sum(chi) == 0 and len(set(chi)) == 3 and 0 not in chi
        c0, chi = _pattern(eps[2], "--C0"), _pattern(eps[2], "--chi")
        assert c0[0] == c0[1] != c0[2] and chi[0] != chi[1] and chi[2] == 0
        c0, chi = _pattern(eps[3], "--C0"), _pattern(eps[3], "--chi")
        assert c0[0] == c0[1] and chi[0] != chi[1]
        for name, lines in workloads.SEED0.items():
            assert [j[0] for j in workloads.jobs(name, seed)] == [s.split()[0] for s in lines]


def test_refuses_a_directory_without_the_program():
    bare = ROOT / ".perfbench_tmp" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "graded-spans", "--seed", "0", "--seconds", "1",
                               "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    assert proc.returncode != 0
    assert proc.stdout == ""
