"""Each benchmark step writes what the shipped CLI writes for the same config.

The benchmark re-implements the CLI's calls so that it can put spans
between them; these tests keep the two from drifting apart.  Artifacts
embed their own paths, so both sides write to the same relative path.
"""

import os

import pytest

import workloads
from spans import Tracer
from galelab import cli

SEED = 7
N = 3000
TR = Tracer("test", enabled=False)


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.fixture(scope="module")
def refs():
    return {**workloads.build_references("trajectory", TR)[0],
            **workloads.build_references("exact_audit", TR)[0]}


def _same_as_cli(path, bench_step, argv):
    bench_step()
    with open(path, "rb") as fh:
        ours = fh.read()
    os.remove(path)
    assert cli.main(argv) == 0
    with open(path, "rb") as fh:
        assert fh.read() == ours


def _gen_seq(path="seq.bin", h=2):
    workloads.gen_seq(TR, SEED, h, N, path)


def test_gen_seq():
    _same_as_cli("seq.bin", _gen_seq,
                 ["gen-seq", "--variant", "F", "--h", "2", "--seed", str(SEED),
                  "--n", str(N), "--out", "seq.bin"])


def test_simulate(refs):
    _gen_seq()
    sgale = ["--sgale=" + s for s in workloads.SGALE]
    _same_as_cli(
        "traj.csv",
        lambda: workloads.simulate(TR, refs["parity:h=2"], "parity:h=2", "seq.bin", N,
                                   workloads.SGALE, "traj.csv"),
        ["simulate", "--gambler", "parity:h=2", "--seq", "seq.bin", "--n", str(N),
         "--mode", "log2", *sgale, "--out", "traj.csv"])


def test_estimate_dim(refs):
    _gen_seq()
    gamblers = [arg for ref in workloads.DIM_GAMBLERS for arg in ("--gambler", ref)]
    _same_as_cli(
        "dim.jsonl",
        lambda: workloads.estimate_dim(TR, [refs[r] for r in workloads.DIM_GAMBLERS],
                                       "seq.bin", N, "dim.jsonl"),
        ["estimate-dim", "--seq", "seq.bin", *gamblers, "--n", str(N), "--out", "dim.jsonl"])


def test_instability():
    _same_as_cli(
        "inst.jsonl",
        lambda: workloads.instability(TR, 2, SEED, N, "inst.jsonl"),
        ["instability", "--h", "2", "--seed", str(SEED), "--n", str(N),
         "--epsilon", str(workloads.EPS), "--out", "inst.jsonl"])


def test_sweep(refs):
    _same_as_cli(
        "sweep.jsonl",
        lambda: workloads.sweep(TR, refs["parity:h=1"], SEED, 1, N, "sweep.jsonl"),
        ["sweep", "--h", "1", "--n", str(N), "--seq-seed", str(SEED), "--seq-variant", "F",
         "--rng-seed", str(SEED), "--include", "parity:h=1", "--out", "sweep.jsonl"])


@pytest.mark.parametrize("ref", ["parity:h=1", "parity:h=2", "fprime:h=2",
                                 "fdoubleprime:h=2", "uniform", "allin:sym=0"])
def test_verify_checks(refs, ref):
    ok, _ = workloads.check_martingale(TR, refs[ref], 8)
    assert ok and cli.main(["verify", "--check", "martingale", "--gambler", ref,
                            "--depth", "8"]) == 0
    ok = workloads.check_speeds(TR, refs[ref], N)
    assert ok and cli.main(["verify", "--check", "speeds", "--gambler", ref,
                            "--n-max", str(N)]) == 0


def test_verify_parity():
    ok, _ = workloads.verify_parity(TR, SEED, workloads.PARITY_H, N)
    assert ok and cli.main(["verify", "--check", "parity", "--h", str(workloads.PARITY_H),
                            "--variant", "F", "--n", str(N), "--seed", str(SEED)]) == 0
