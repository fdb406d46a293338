"""Jobs repeat exactly, and their output checks hold on a held-out seed."""

import pytest

import run
import workloads
from spans import Tracer

TR = Tracer("test", enabled=False)
# a seed not used while the benchmark's checks were written
HELD_OUT_SEED = 20261017


@pytest.fixture
def small(monkeypatch):
    for name, value in (("N_TRAJECTORY", 3000), ("N_SWEEP", 2000), ("N_AUDIT", 300),
                        ("MARTINGALE_DEPTH", 6), ("N_SPEED", 2000), ("N_PARITY", 3000)):
        monkeypatch.setattr(workloads, name, value)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_jobs_repeat_bytes_and_counts(tmp_path, monkeypatch, small, name):
    monkeypatch.chdir(tmp_path)
    job_fn, _ = workloads.WORKLOADS[name]
    refs = workloads.build_references(name, TR)[0]
    first, second = (job_fn(TR, 3, refs, ".") for _ in range(2))
    assert workloads.fingerprint(first) == workloads.fingerprint(second)
    assert first["counts"] == second["counts"]


def test_traced_job_counts_match_untraced(tmp_path, monkeypatch, small):
    monkeypatch.chdir(tmp_path)
    refs = workloads.build_references("trajectory", TR)[0]
    untraced = workloads.trajectory_job(TR, 3, refs, ".")
    traced = workloads.trajectory_job(Tracer("test"), 3, refs, ".")
    assert untraced["counts"] == traced["counts"]
    assert workloads.fingerprint(untraced) == workloads.fingerprint(traced)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_on_held_out_seed(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    job_fn, check_fn = workloads.WORKLOADS[name]
    refs, _, valid = workloads.build_references(name, TR)
    assert valid
    checks = run.Checks(check_fn, workloads.fingerprint, HELD_OUT_SEED)
    checks.evaluate(0, job_fn(TR, HELD_OUT_SEED, refs, "."))
    assert checks.attempted > 0 and checks.failures == []
