"""Dimension reports, adversarial sweeps, and the instability experiment."""

import json
from fractions import Fraction

import pytest

from galelab.analysis import (
    SweepBudget,
    adversarial_sweep,
    encode_float,
    estimate_predim_upper,
    instability_experiment,
    upper_bound,
    write_jsonl,
)
from galelab.constructions import (
    build_parity_gambler,
    single_minded_gambler,
    uniform_gambler,
)
from galelab.sequences import constant_source, f_family, prng_source

from gamblers import diagonal, off_diagonal


# ---------------------------------------------------------------------------
# dimension upper bounds
# ---------------------------------------------------------------------------

def test_upper_bound_from_parity_gambler():
    src = f_family(2, "F", prng_source(1))
    report = estimate_predim_upper(src, [build_parity_gambler(2)], 20_000)
    assert abs(report.aggregate - 0.8) <= 0.01
    record = report.records[0]
    assert record.gambler_id == "parity_h2"
    assert upper_bound(record) == report.aggregate


def test_upper_bound_zero_for_fully_predictable_sequence():
    report = estimate_predim_upper(constant_source(0),
                                   [single_minded_gambler(0)], 10_000)
    assert abs(report.aggregate - 0.0) <= 0.01


def test_uniform_witness_gives_trivial_bound_exactly():
    report = estimate_predim_upper(prng_source(1), [uniform_gambler()], 5_000)
    assert report.aggregate == 1.0


def test_bankrupt_witness_certifies_nothing():
    report = estimate_predim_upper(constant_source(1),
                                   [single_minded_gambler(0)], 1_000)
    assert upper_bound(report.records[0]) == 1.0
    assert report.records[0].exponent == float("-inf")


def test_aggregate_shrinks_as_witnesses_are_added():
    src = f_family(2, "F", prng_source(1))
    weak = estimate_predim_upper(src, [uniform_gambler()], 20_000)
    both = estimate_predim_upper(
        src, [uniform_gambler(), build_parity_gambler(2)], 20_000)
    assert both.aggregate <= weak.aggregate
    assert both.aggregate == min(upper_bound(r) for r in both.records)


def test_dimension_report_jsonl_objects():
    src = f_family(2, "F", prng_source(1))
    report = estimate_predim_upper(src, [uniform_gambler()], 1_000)
    objs = report.to_objs()
    assert objs[0]["type"] == "config"
    assert objs[-1]["type"] == "summary"
    run = objs[1]
    assert set(run) >= {"gambler_id", "seq_id", "n", "exponent"}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _small_budget(seed=0, samples=25):
    return SweepBudget(max_t=4, max_q=6, bet_denominator_max=8,
                       samples=samples, seed=seed)


def test_sweep_is_deterministic(tmp_path):
    src = f_family(1, "F", prng_source(1))
    a = adversarial_sweep(1, src, 5_000, _small_budget())
    b = adversarial_sweep(1, src, 5_000, _small_budget())
    assert [r.to_obj() for r in a.records] == [r.to_obj() for r in b.records]
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(pa, a.to_objs())
    write_jsonl(pb, b.to_objs())
    assert pa.read_bytes() == pb.read_bytes()


def test_sweep_seed_changes_population():
    src = f_family(1, "F", prng_source(1))
    a = adversarial_sweep(1, src, 2_000, _small_budget(seed=0))
    b = adversarial_sweep(1, src, 2_000, _small_budget(seed=1))
    assert [r.to_obj() for r in a.records] != [r.to_obj() for r in b.records]


def test_sweep_identifies_a_planted_winner():
    src = f_family(1, "F", prng_source(1))
    report = adversarial_sweep(1, src, 10_000, _small_budget(),
                               include=[build_parity_gambler(1)])
    assert report.best_overall_id == "parity_h1"
    ref = report.included[0]
    assert abs(ref.exponent - 1 / 3) <= 0.01
    assert report.max_sampled_exponent <= 0.02


def test_sweep_records_have_report_fields():
    src = f_family(1, "F", prng_source(1))
    report = adversarial_sweep(1, src, 2_000, _small_budget(samples=5))
    obj = report.records[0].to_obj()
    assert set(obj) >= {"gambler_id", "seq_id", "n", "exponent",
                        "log2_capital_final"}
    json.dumps(report.to_objs())  # everything JSON-serializable


@pytest.mark.parametrize("h", [0, -1])
def test_sweep_refuses_h_below_1_on_any_source(h):
    # no source built from h refuses it first, as f_family would
    with pytest.raises(ValueError, match="h must be at least 1"):
        adversarial_sweep(h, prng_source(1), 100, _small_budget(samples=2))


def test_encode_float_sentinels():
    assert encode_float(float("-inf")) == "-inf"
    assert encode_float(1.5) == 1.5


# ---------------------------------------------------------------------------
# instability experiment
# ---------------------------------------------------------------------------

def test_instability_pattern_matched_vs_mismatched():
    report = instability_experiment(2, seed=2, n=30_000, eps=Fraction(1, 10))
    for value in diagonal(report):
        assert abs(value - 0.2) <= 0.01
    for value in off_diagonal(report):
        # mismatched all-in boundary bets are coin flips; the first loss
        # bankrupts the run, so no growth survives the window
        assert value <= 0.02
    for value in report.averaged.values():
        assert value >= 0.2 - Fraction(1, 10) - 0.01


def test_instability_diagonal_stable_across_seeds():
    diagonals = []
    for seed in (1, 2):
        report = instability_experiment(2, seed=seed, n=20_000,
                                        eps=Fraction(1, 10))
        diagonals.append(tuple(round(v, 3) for v in diagonal(report)))
    assert diagonals[0] == diagonals[1]


def test_instability_requires_two_variants():
    with pytest.raises(ValueError):
        instability_experiment(1, seed=1, n=1000, eps=Fraction(1, 10))


def test_instability_jsonl_round_trip(tmp_path):
    report = instability_experiment(2, seed=1, n=2_000, eps=Fraction(1, 10))
    path = tmp_path / "inst.jsonl"
    write_jsonl(path, report.to_objs())
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["type"] == "config"
    assert lines[-1]["type"] == "summary"
    assert len([obj for obj in lines if obj["type"] == "run"]) == 6


def test_instability_reads_one_inner_stream(monkeypatch):
    from galelab import analysis

    made = []

    def counted(seed):
        made.append(prng_source(seed))
        return made[-1]

    monkeypatch.setattr(analysis, "prng_source", counted)
    report = instability_experiment(2, seed=4, n=2000, eps=Fraction(1, 10))
    assert len(made) == 1
    assert report.matrix["fprime"]["X"] == pytest.approx(0.2, abs=0.02)
