"""Golden digests: every artifact must stay byte for byte what it was.

Each case runs the CLI (or the batch runner) in a temporary directory with
relative paths, so the embedded config lines are reproducible, and
compares the sha256 of what it wrote with a recorded digest.  CSV floats
are written with ``repr``, which round-trips, so equal digests also mean
bit-identical log2 capitals.  The digests were recorded with the
per-step reference simulator that preceded the compiled walk kernel.
"""

import hashlib
from fractions import Fraction

import pytest

import galelab.engine as engine
from galelab import cli
from galelab.constructions import averaging_audit, build_variant_gambler
from galelab.core import save_gambler
from galelab.engine import run_log2_capitals
from galelab.sequences import f_family, prng_source

from gamblers import random_valid_gambler, two_state_swing_gambler

GOLDEN = {
    "averaging_audit":
        "e7459a6e25a549bd73e3db0d33e95862c5c3e84dde5bad4a18dbb90cc3e26d1f",
    "batch_log2":
        "36f8369888b8d0da84ee896a0e772e25daead19e284ae91f852400d7a58ed03f",
    "estimate_dim":
        "db5d97810dbcf6e0010c227645d00f615dbe0ba9454d09bbbf8648e9ed1f7a02",
    "instability":
        "36885d8da0ec379482210f995136281c43f62bfe3919a90cca698a7a85d047a0",
    "simulate_allin_bankrupt":
        "77e51498405a15814db99a56f24708403898935f224c4ba247ad9c039a4299f0",
    "simulate_parity":
        "cf07e7fa35093199dc22353da184c3e7cf57da986a368f225c1f15d43130905f",
    "simulate_parity_exact":
        "278bb98c630ac207e305210d5ae8a01f15cbf70f12c86cc72a3e5bc57a509e27",
    "simulate_subsampled":
        "d5c070d948eda0edf56f1fdf608e4ebf60a32740060aeb1a529aa4aa90f23e2b",
    "simulate_swing":
        "0fa7e0b42c6504944cebc55fdf8ef5fa69f24bcbe57a540ac3ed57b2ab7f4beb",
    "simulate_swing_exact":
        "1555233f5b63d6e25839eea187f64c682208c8703b91d5572145cd2f2d47fd7a",
    "sweep_h1":
        "94a63eab9896f7101595cb3feff4afe77492013bc436ccecd48220b7ab62187a",
    "sweep_h2":
        "3ca521e79263f75fd9ff58e6dfd72ed2bae0089af02119885f5deb617d5f6098",
}

SIMULATE = {
    "parity": ("parity:h=2", "log2"),
    "allin_bankrupt": ("allin:sym=0", "log2"),
    "swing": ("swing.json", "log2"),
    "swing_exact": ("swing.json", "exact"),
    "parity_exact": ("parity:h=2", "exact"),
}


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_gambler(two_state_swing_gambler(), "swing.json")
    assert cli.main(["gen-seq", "--variant", "F", "--h", "2", "--seed", "1",
                     "--n", "5000", "--out", "y.seq"]) == 0
    return tmp_path


@pytest.mark.parametrize("case", sorted(SIMULATE))
def test_simulate_csv_digest(workdir, case):
    gambler, mode = SIMULATE[case]
    n = "2000" if mode == "exact" else "5000"
    assert cli.main(["simulate", "--gambler", gambler, "--seq", "y.seq",
                     "--n", n, "--mode", mode, "--sgale", "1", "--sgale", "0.8",
                     "--out", "t.csv"]) == 0
    assert sha(workdir / "t.csv") == GOLDEN[f"simulate_{case}"]


def test_subsampled_trace_csv_digest(workdir, monkeypatch):
    monkeypatch.setattr(engine, "TRACE_CAP", 100)
    assert cli.main(["simulate", "--gambler", "parity:h=2", "--seq", "y.seq",
                     "--sgale", "0.8", "--out", "t.csv"]) == 0
    assert sha(workdir / "t.csv") == GOLDEN["simulate_subsampled"]


def test_estimate_dim_jsonl_digest(workdir):
    assert cli.main(["estimate-dim", "--seq", "y.seq", "--gambler", "parity:h=2",
                     "--gambler", "uniform", "--gambler", "allin:sym=0",
                     "--gambler", "swing.json", "--out", "d.jsonl"]) == 0
    assert sha(workdir / "d.jsonl") == GOLDEN["estimate_dim"]


def test_instability_jsonl_digest(workdir):
    assert cli.main(["instability", "--h", "2", "--seed", "1", "--n", "5000",
                     "--epsilon", "1/10", "--out", "i.jsonl"]) == 0
    assert sha(workdir / "i.jsonl") == GOLDEN["instability"]


def test_sweep_jsonl_digest(workdir):
    assert cli.main(["sweep", "--h", "1", "--n", "5000", "--seq-seed", "1",
                     "--rng-seed", "1", "--samples", "60",
                     "--include", "parity:h=1", "--out", "s.jsonl"]) == 0
    assert sha(workdir / "s.jsonl") == GOLDEN["sweep_h1"]


def test_sweep_h2_jsonl_digest(workdir):
    """Two-head samples, whose positional orbits differ from gambler to
    gambler, alongside the three-head parity winner."""
    assert cli.main(["sweep", "--h", "2", "--n", "5000", "--seq-seed", "1",
                     "--rng-seed", "1", "--samples", "60",
                     "--include", "parity:h=2", "--out", "s.jsonl"]) == 0
    assert sha(workdir / "s.jsonl") == GOLDEN["sweep_h2"]


def test_batch_log2_capitals_digest():
    """Raw float bytes of the batch runner over random gamblers, h = 1..4."""
    digest = hashlib.sha256()
    src = f_family(2, "F", prng_source(3))
    for h in (1, 2, 3, 4):
        for seed in range(25):
            caps = run_log2_capitals(random_valid_gambler(seed, h), src, 3000)
            digest.update(caps.tobytes())
    assert digest.hexdigest() == GOLDEN["batch_log2"]


def test_averaging_audit_digest():
    """Audit outcome and log2 columns on both variants, where one component dies."""
    digest = hashlib.sha256()
    g1 = build_variant_gambler(2, "Fprime")
    g2 = build_variant_gambler(2, "Fdoubleprime")
    for variant in ("Fprime", "Fdoubleprime"):
        audit = averaging_audit(g1, g2, Fraction(1, 10),
                                f_family(2, variant, prng_source(2)), 1500)
        assert audit.ok
        digest.update(repr((audit.first_identity_violation,
                            audit.first_shadow_violation,
                            audit.first_sum_bound_violation,
                            audit.first_engine_mismatch)).encode())
        for arr in (audit.log2_combined,) + audit.log2_components:
            digest.update(arr.tobytes())
    assert digest.hexdigest() == GOLDEN["averaging_audit"]
