"""The benchmark's workloads, built from the calls the galelab CLI makes.

Each CLI step is a function here that makes the same library calls as
the matching ``galelab.cli`` subcommand, with the same configuration,
and writes a byte-identical artifact (``tests/test_cli_parity.py``
holds the two together).  Each call into a galelab module sits inside
a span named after that module, so a traced job splits its time by
layer.  Steps return the counts they produce; a job sums them.

Inputs come only from the workload seed.  See ``NOTES.md`` for why each
workload exists and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tracemalloc
from fractions import Fraction

from galelab import analysis, constructions, core, engine, sequences

EPS = Fraction(1, 10)

N_TRAJECTORY = 200_000
SGALE = ("0.8",)
DIM_GAMBLERS = ("parity:h=2", "uniform", "allin:sym=0")

N_SWEEP = 100_000
SWEEP_H = 1

N_AUDIT = 10_000
MARTINGALE_DEPTH = 12
N_SPEED = 100_000
PARITY_H = 4
N_PARITY = 200_000

AVERAGED = "avg:h=2,eps=1/10"

# reference gamblers per workload, keyed by CLI shorthand where one exists;
# each build function receives the gamblers built before it
REFERENCES = {
    "trajectory": (
        ("parity:h=2", lambda refs: constructions.build_parity_gambler(2)),
        ("uniform", lambda refs: constructions.uniform_gambler()),
        ("allin:sym=0", lambda refs: constructions.single_minded_gambler(0)),
    ),
    "sweep": (
        ("parity:h=1", lambda refs: constructions.build_parity_gambler(1)),
    ),
    "exact_audit": (
        ("parity:h=1", lambda refs: constructions.build_parity_gambler(1)),
        ("parity:h=2", lambda refs: constructions.build_parity_gambler(2)),
        ("fprime:h=2", lambda refs: constructions.build_variant_gambler(2, "Fprime")),
        ("fdoubleprime:h=2",
         lambda refs: constructions.build_variant_gambler(2, "Fdoubleprime")),
        (AVERAGED, lambda refs: constructions.average_gamblers(
            refs["fprime:h=2"], refs["fdoubleprime:h=2"], EPS)),
        ("uniform", lambda refs: constructions.uniform_gambler()),
        ("allin:sym=0", lambda refs: constructions.single_minded_gambler(0)),
    ),
}


def build_references(workload: str, tr) -> tuple[dict, dict, bool]:
    """Build and validate a workload's reference gamblers (its set-up).

    Returns the gamblers, the set-up counts and whether all are valid.
    """
    refs: dict[str, core.GamblerSpec] = {}
    for ref, build in REFERENCES[workload]:
        with tr.span("constructions.build"):
            refs[ref] = build(refs)
    valid = True
    for spec in refs.values():
        with tr.span("core.validate"):
            valid = core.validate_gambler(spec).ok and valid
    counts = {"core.betting_states": sum(len(s.betting) for s in refs.values())}
    return refs, counts, valid


def _add(counts: dict, more: dict) -> None:
    for key, value in more.items():
        counts[key] = counts.get(key, 0) + value


def _prefill(tr, src: sequences.DerivedSource, n: int) -> dict:
    """Fill a derived source's prefix with the bit source and the fill timed apart.

    The inner stream is filled to ``n`` symbols first; the derived fill
    needs fewer than ``n`` inner symbols, so it then reads only retained
    bits.  The symbols are those the later calls would have generated.
    """
    with tr.span("sequences.prng_fill"):
        src.inner.prefix_array(n)
    with tr.span("sequences.derived_fill"):
        src.prefix_array(n)
    return {"sequences.derived_symbols": n}


# ---------------------------------------------------------------------------
# CLI steps
# ---------------------------------------------------------------------------

def gen_seq(tr, seed: int, h: int, n: int, out: str) -> dict:
    """``galelab gen-seq --variant F --h H --seed SEED --n N --out OUT``."""
    src = sequences.f_family(h, "F", sequences.prng_source(seed))
    counts = _prefill(tr, src, n)
    with tr.span("sequences.write"):
        sequences.write_sequence(src, n, out)
    counts["sequences.file_bytes"] = os.path.getsize(out)
    return counts


def simulate(tr, spec, gambler_ref: str, seq: str, n: int, sgale, out: str) -> dict:
    """``galelab simulate --gambler REF --seq SEQ --n N --mode log2 --sgale S... --out OUT``."""
    with tr.span("sequences.read"):
        src = sequences.read_sequence(seq)
    s_values = [(s, core.parse_rational(s)) for s in sgale]
    config = {"command": "simulate", "gambler": gambler_ref, "seq": seq, "n": n,
              "mode": "log2", "sgale": list(sgale), "out": out}
    with tr.span("engine.run_martingale"):
        trace = engine.run_martingale(spec, src, n, mode="log2")
    with tr.span("engine.write_csv"):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            engine.write_trajectory_csv(trace, fh, s_values, config=config)
    return {"engine.trace_steps": len(trace.steps),
            "engine.csv_bytes": os.path.getsize(out)}


def _write_jsonl(tr, out: str, objs) -> dict:
    with tr.span("analysis.write_jsonl"):
        analysis.write_jsonl(out, objs)
    return {"analysis.jsonl_bytes": os.path.getsize(out)}


def estimate_dim(tr, specs, seq: str, n: int, out: str) -> dict:
    """``galelab estimate-dim --seq SEQ --gambler REF... --n N --out OUT``."""
    with tr.span("sequences.read"):
        src = sequences.read_sequence(seq)
    with tr.span("analysis.estimate_dim"):
        report = analysis.estimate_predim_upper(src, specs, n)
    return _write_jsonl(tr, out, report.to_objs())


def instability(tr, h: int, seed: int, n: int, out: str) -> dict:
    """``galelab instability --h H --seed SEED --n N --epsilon 1/10 --out OUT``."""
    with tr.span("analysis.instability"):
        report = analysis.instability_experiment(h, seed, n, EPS)
    return _write_jsonl(tr, out, report.to_objs())


def sweep(tr, spec, seed: int, h: int, n: int, out: str) -> dict:
    """``galelab sweep --h H --n N --seq-seed SEED --rng-seed SEED --include parity:h=H --out OUT``.

    The CLI's default budget (500 samples) with the sampler seeded by SEED.
    """
    src = sequences.f_family(h, "F", sequences.prng_source(seed))
    counts = _prefill(tr, src, n)
    budget = analysis.SweepBudget(seed=seed)
    with tr.span("analysis.sweep"):
        report = analysis.adversarial_sweep(h, src, n, budget, include=[spec])
    bankrupt = sum(1 for r in report.records if r.log2_capital_final == core.BANKRUPT_LOG2)
    counts["analysis.sweep_gamblers"] = len(report.records) + len(report.included)
    counts["analysis.sweep_bankrupt_share"] = bankrupt / len(report.records)
    _add(counts, _write_jsonl(tr, out, report.to_objs()))
    return counts


def verify_parity(tr, seed: int, h: int, n: int) -> tuple[bool, dict]:
    """``galelab verify --check parity --h H --variant F --n N --seed SEED``."""
    src = sequences.f_family(h, "F", sequences.prng_source(seed))
    counts = _prefill(tr, src, n + 1)
    with tr.span("sequences.parity_verify"):
        result = sequences.verify_parity_structure(h, src, n)
    counts["sequences.parity_boundaries"] = n // src.block_prime + 1
    return result.ok, counts


def check_martingale(tr, spec, depth: int) -> tuple[bool, dict]:
    """``galelab verify --check martingale --gambler REF --depth D``."""
    with tr.span("engine.check_martingale"):
        ok = engine.check_martingale_property(spec, depth)
    # nodes of the full k-ary tree the check walks when it holds
    k = spec.k
    return ok, {"engine.check_martingale_nodes": (k ** (depth + 1) - 1) // (k - 1)}


def check_speeds(tr, spec, n_max: int) -> bool:
    """``galelab verify --check speeds --gambler REF --n-max N``."""
    with tr.span("engine.check_speed_bounds"):
        return engine.check_speed_bounds(spec, n_max)


# ---------------------------------------------------------------------------
# jobs: one repetition of a workload
# ---------------------------------------------------------------------------

def _paths(workdir: str, *names: str) -> list[str]:
    return [os.path.join(workdir, name) for name in names]


def _digests(paths) -> dict:
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def trajectory_job(tr, seed: int, refs: dict, workdir: str) -> dict:
    n = N_TRAJECTORY
    seq, csv_out, dim_out, inst_out = _paths(
        workdir, "seq.bin", "trajectory.csv", "dim.jsonl", "instability.jsonl")
    counts: dict = {}
    with tr.span("bench.gen_seq"):
        _add(counts, gen_seq(tr, seed, 2, n, seq))
    with tr.span("bench.simulate"):
        _add(counts, simulate(tr, refs["parity:h=2"], "parity:h=2", seq, n, SGALE, csv_out))
    with tr.span("bench.estimate_dim"):
        _add(counts, estimate_dim(tr, [refs[r] for r in DIM_GAMBLERS], seq, n, dim_out))
    with tr.span("bench.instability"):
        _add(counts, instability(tr, 2, seed, n, inst_out))
    return {"counts": counts, "artifacts": [seq, csv_out, dim_out, inst_out]}


def sweep_job(tr, seed: int, refs: dict, workdir: str) -> dict:
    (out,) = _paths(workdir, "sweep.jsonl")
    with tr.span("bench.sweep"):
        counts = sweep(tr, refs[f"parity:h={SWEEP_H}"], seed, SWEEP_H, N_SWEEP, out)
    return {"counts": counts, "artifacts": [out]}


def exact_audit_job(tr, seed: int, refs: dict, workdir: str) -> dict:
    n = N_AUDIT
    counts: dict = {}
    outcome: dict = {}
    with tr.span("bench.averaging_audit"):
        for variant in ("Fprime", "Fdoubleprime"):
            src = sequences.f_family(2, variant, sequences.prng_source(seed))
            with tr.span("constructions.averaging_audit"):
                audit = constructions.averaging_audit(
                    refs["fprime:h=2"], refs["fdoubleprime:h=2"], EPS, src, n)
            outcome[f"audit {variant}"] = audit.ok
            _add(counts, {"constructions.averaging_audit_steps": n})
    with tr.span("bench.exact_vs_log2"):
        for ref, variant in (("parity:h=2", "F"), (AVERAGED, "Fprime")):
            src = sequences.f_family(2, variant, sequences.prng_source(seed))
            with tr.span("engine.run_martingale_exact"):
                exact = engine.run_martingale(refs[ref], src, n, mode="exact")
            with tr.span("engine.run_martingale"):
                log2 = engine.run_martingale(refs[ref], src, n, mode="log2")
            value = exact.final_capital.exact_value()
            outcome[f"exact {ref}"] = exact.final_capital.log2()
            outcome[f"log2 {ref}"] = log2.final_capital.log2()
            _add(counts, {
                "core.exact_capital_bits":
                    value.numerator.bit_length() + value.denominator.bit_length(),
                "engine.trace_steps": len(exact.steps) + len(log2.steps)})
    with tr.span("bench.verify"):
        for ref, spec in refs.items():
            ok, more = check_martingale(tr, spec, MARTINGALE_DEPTH)
            outcome[f"martingale {ref}"] = ok
            _add(counts, more)
            outcome[f"speeds {ref}"] = check_speeds(tr, spec, N_SPEED)
        ok, more = verify_parity(tr, seed, PARITY_H, N_PARITY)
        outcome["parity"] = ok
        _add(counts, more)
    return {"counts": counts, "artifacts": [], "outcome": outcome}


def trace_memory_probe(workload: str, refs: dict, workdir: str) -> float:
    """tracemalloc peak (MB) over the trajectory's ``run_martingale`` call.

    Run apart from the traced job so that tracemalloc's own cost stays
    out of every span; 0 for workloads without a long single run.
    """
    if workload != "trajectory":
        return 0.0
    (seq,) = _paths(workdir, "seq.bin")
    src = sequences.read_sequence(seq)
    tracemalloc.start()
    try:
        engine.run_martingale(refs["parity:h=2"], src, N_TRAJECTORY, mode="log2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _last_csv_row(path: str) -> list[str]:
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - 4096))
        return fh.read().decode("utf-8").rstrip("\n").rsplit("\n", 1)[-1].split(",")


def trajectory_checks(seed: int, job: dict) -> list[tuple[str, bool]]:
    n = N_TRAJECTORY
    seq, csv_out, dim_out, inst_out = job["artifacts"]
    last = _last_csv_row(csv_out)
    expected = sequences.f_family(2, "F", sequences.prng_source(seed)).prefix_array(n)
    read_back = sequences.read_sequence(seq).prefix_array(n)
    dim = _jsonl(dim_out)[-1]
    inst = _jsonl(inst_out)[-1]
    matrix = {g: {s: float(v) for s, v in row.items()} for g, row in inst["matrix"].items()}
    averaged = [float(v) for v in inst["averaged"].values()]
    return [
        ("gen-seq read-back equals generator prefix", bool((read_back == expected).all())),
        ("simulate trace has one step per symbol", job["counts"]["engine.trace_steps"] == n),
        ("simulate final log2 capital is ceil(n/5) - 1",
         int(last[0]) == n and float(last[1]) == math.ceil(n / 5) - 1),
        ("estimate-dim aggregate is 0.8 +- 0.01",
         abs(float(dim["aggregate_upper_bound"]) - 0.8) <= 0.01),
        ("instability diagonal is 0.2 +- 0.01",
         all(abs(v - 0.2) <= 0.01 for v in (matrix["fprime"]["X"], matrix["fdoubleprime"]["Z"]))),
        ("instability off-diagonal is <= 0.02",
         all(v <= 0.02 for v in (matrix["fprime"]["Z"], matrix["fdoubleprime"]["X"]))),
        ("instability averaged is >= 0.2 - 1/10 - 0.01",
         all(v >= 0.2 - 0.1 - 0.01 for v in averaged)),
    ]


def sweep_checks(seed: int, job: dict) -> list[tuple[str, bool]]:
    objs = _jsonl(job["artifacts"][0])
    summary = objs[-1]
    max_sampled = float(summary["max_sampled_exponent"])
    winner = next(float(o["exponent"]) for o in objs
                  if o.get("type") == "run" and o["gambler_id"] == f"parity_h{SWEEP_H}")
    return [
        ("sweep max sampled exponent is <= 0.02", max_sampled <= 0.02),
        ("sweep winner is within 0.01 of 1/3", abs(winner - 1 / 3) <= 0.01),
        ("sweep best overall is parity_h1", summary["best_overall_id"] == "parity_h1"),
        ("sweep winner is >= 10x the max sampled exponent", winner >= 10 * max_sampled),
        ("sweep report has one run per gambler",
         sum(o.get("type") == "run" for o in objs) == job["counts"]["analysis.sweep_gamblers"]),
    ]


def exact_audit_checks(seed: int, job: dict) -> list[tuple[str, bool]]:
    outcome = job["outcome"]
    checks = [(name, ok) for name, ok in outcome.items()
              if not name.startswith(("exact ", "log2 "))]
    for ref in ("parity:h=2", AVERAGED):
        exact, log2 = outcome[f"exact {ref}"], outcome[f"log2 {ref}"]
        checks.append((f"exact and log2 agree for {ref}",
                       abs(exact - log2) <= 1e-9 * max(abs(exact), 1.0)))
    return checks


def fingerprint(job: dict) -> dict:
    """What must repeat exactly across jobs of one seed: artifact bytes and outcomes."""
    return {"artifacts": _digests(job["artifacts"]), "outcome": job.get("outcome")}


WORKLOADS = {
    "trajectory": (trajectory_job, trajectory_checks),
    "sweep": (sweep_job, sweep_checks),
    "exact_audit": (exact_audit_job, exact_audit_checks),
}
