"""Empirical dimension bounds, adversarial sweeps, and instability runs.

Everything here is finite-horizon, statistical evidence: "the capital
grows without bound" is not decidable from a prefix, so the working
proxy is the sliding-window growth exponent of a run (see
:func:`galelab.engine.window_exponents`).  A dimension witness is its
run record: a run with exponent ``e`` bounds the dimension by ``1 - e``
(:func:`upper_bound`).  Reports echo their full configuration and
seeds, and identical configurations reproduce reports byte for byte.

A sweep walks its whole population of gamblers together, in one
:func:`galelab.engine.walk_population`, and reports them in sample
order, so the report is deterministic.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .core import (
    Alphabet,
    BANKRUPT_LOG2,
    BettingState,
    GamblerSpec,
    PositionalState,
    ProbVector,
)
from .constructions import average_gamblers, build_variant_gambler
from .engine import compile_gambler, walk, walk_population, window_exponents
from .sequences import SequenceSource, f_family, prng_source

__all__ = [
    "RunRecord",
    "upper_bound",
    "DimensionReport",
    "estimate_predim_upper",
    "SweepBudget",
    "SweepReport",
    "adversarial_sweep",
    "InstabilityReport",
    "instability_experiment",
    "encode_float",
    "write_jsonl",
]


def encode_float(x: float) -> float | str:
    """JSON-safe float: the bankrupt sentinel becomes the string "-inf"."""
    if x == BANKRUPT_LOG2:
        return "-inf"
    if x == float("inf"):
        return "inf"
    return float(x)


@dataclass(frozen=True)
class RunRecord:
    """One (gambler, sequence) run summarized for reports."""

    gambler_id: str
    seq_id: str
    n: int
    exponent: float
    liminf: float
    log2_capital_final: float

    def to_obj(self) -> dict:
        return {
            "type": "run",
            "gambler_id": self.gambler_id,
            "seq_id": self.seq_id,
            "n": self.n,
            "exponent": encode_float(self.exponent),
            "liminf": encode_float(self.liminf),
            "log2_capital_final": encode_float(self.log2_capital_final),
        }


def _run_record(spec: GamblerSpec, source: SequenceSource, n: int,
                gambler_id: str | None = None) -> RunRecord:
    caps = walk(compile_gambler(spec), source, n).log2
    est = window_exponents(caps, spec.k)
    return RunRecord(
        gambler_id=gambler_id or spec.label(),
        seq_id=source.describe(),
        n=n,
        exponent=est.limsup_est,
        liminf=est.liminf_est,
        log2_capital_final=float(caps[-1]),
    )


# ---------------------------------------------------------------------------
# dimension upper bounds
# ---------------------------------------------------------------------------

def upper_bound(record: RunRecord) -> float:
    """The bound a witness run puts on the dimension: ``1 - exponent``,
    or the trivial 1 for a bankrupt run, which certifies nothing."""
    return 1.0 if record.exponent == BANKRUPT_LOG2 else 1.0 - record.exponent


@dataclass
class DimensionReport:
    """Per-gambler growth evidence and the aggregate upper bound.

    The aggregate is the least :func:`upper_bound` over the witness runs,
    so it can only decrease as witnesses are added.
    """

    seq_id: str
    n: int
    records: list[RunRecord]

    @property
    def aggregate(self) -> float:
        return min(map(upper_bound, self.records), default=1.0)

    def to_objs(self) -> list[dict]:
        out = [{"type": "config", "seq_id": self.seq_id, "n": self.n}]
        out.extend({"type": "run", "gambler_id": r.gambler_id, "seq_id": r.seq_id,
                    "n": r.n, "exponent": encode_float(r.exponent),
                    "upper_bound": encode_float(upper_bound(r)),
                    "bankrupt": r.exponent == BANKRUPT_LOG2} for r in self.records)
        out.append({"type": "summary", "aggregate_upper_bound":
                    encode_float(self.aggregate)})
        return out


def estimate_predim_upper(
    source: SequenceSource,
    gamblers: Sequence[GamblerSpec],
    n: int,
) -> DimensionReport:
    """Upper-bound the dimension-like quantity of a prefix from witnesses.

    Runs every gambler over the first ``n`` symbols and converts each
    window growth exponent ``e`` into the bound ``1 - e``.  Only upper
    bounds are possible by running concrete gamblers; the infimum over
    all gamblers is not computable.
    """
    return DimensionReport(seq_id=source.describe(), n=n,
                           records=[_run_record(spec, source, n) for spec in gamblers])


# ---------------------------------------------------------------------------
# adversarial sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepBudget:
    """Sampling budget for an adversarial sweep."""

    max_t: int = 4
    max_q: int = 6
    bet_denominator_max: int = 8
    samples: int = 500
    seed: int = 0

    def to_obj(self) -> dict:
        return {
            "max_t": self.max_t,
            "max_q": self.max_q,
            "bet_denominator_max": self.bet_denominator_max,
            "samples": self.samples,
            "seed": self.seed,
        }


# distinct sampled rows kept as shared objects: 44 for two symbols at the
# default denominator bound of 8
_BETS_MEMO = 4096


@functools.lru_cache(maxsize=_BETS_MEMO)
def _bets(den: int, parts: tuple[int, ...]) -> ProbVector:
    """The row of weights ``p / den`` for ``p`` in ``parts``: one object per
    row drawn, so every state that draws it shares its analysis."""
    return ProbVector(tuple(Fraction(p, den) for p in parts))


def _random_bets(rng: random.Random, k: int, max_den: int) -> ProbVector:
    den = rng.randint(1, max_den)
    cuts = [0, *sorted(rng.randint(0, den) for _ in range(k - 1)), den]
    return _bets(den, tuple(b - a for a, b in zip(cuts, cuts[1:])))


def _sample_gambler(rng: random.Random, h: int, k: int,
                    budget: SweepBudget, tag: str) -> GamblerSpec:
    n_t = rng.randint(1, budget.max_t) if h > 1 else 1
    n_q = rng.randint(1, budget.max_q)
    positional = {
        f"t{i}": PositionalState(
            next_id=f"t{rng.randrange(n_t)}",
            move_bits=tuple(rng.randint(0, 1) for _ in range(h - 1)),
        )
        for i in range(n_t)
    }
    n_codes = k ** h
    betting = {
        f"q{i}": BettingState(
            _random_bets(rng, k, budget.bet_denominator_max),
            tuple(f"q{rng.randrange(n_q)}" for _ in range(n_codes)),
        )
        for i in range(n_q)
    }
    return GamblerSpec(
        alphabet=Alphabet.from_size(k),
        head_count=h,
        positional=positional,
        betting=betting,
        initial_t="t0",
        initial_q="q0",
        name=tag,
    )


def _best_id(records: Sequence[RunRecord]) -> str | None:
    """The id of the first record with the greatest exponent, if any."""
    best = max(records, key=lambda r: r.exponent, default=None)
    return None if best is None else best.gambler_id


@dataclass
class SweepReport:
    """Outcome of sampling many gamblers against one sequence.

    ``max_sampled_exponent``/``best_sampled_id`` summarize the random
    population; ``included`` holds reference gamblers run alongside for
    comparison, and ``best_overall_id`` names the top performer across
    both groups.
    """

    h: int
    seq_id: str
    n: int
    budget: SweepBudget
    records: list[RunRecord]
    included: list[RunRecord]

    @property
    def max_sampled_exponent(self) -> float:
        return max((r.exponent for r in self.records), default=BANKRUPT_LOG2)

    @property
    def best_sampled_id(self) -> str | None:
        return _best_id(self.records)

    @property
    def best_overall_id(self) -> str | None:
        return _best_id(self.records + self.included)

    def to_objs(self) -> list[dict]:
        out = [{
            "type": "config",
            "h": self.h,
            "seq_id": self.seq_id,
            "n": self.n,
            "budget": self.budget.to_obj(),
        }]
        out.extend(r.to_obj() for r in self.records)
        out.extend(r.to_obj() for r in self.included)
        out.append({
            "type": "summary",
            "max_sampled_exponent": encode_float(self.max_sampled_exponent),
            "best_sampled_id": self.best_sampled_id,
            "best_overall_id": self.best_overall_id,
        })
        return out


def adversarial_sweep(
    h: int,
    source: SequenceSource,
    n: int,
    budget: SweepBudget,
    include: Sequence[GamblerSpec] = (),
) -> SweepReport:
    """Sample random ``h``-head gamblers against a sequence prefix.

    Transition maps and movement bits are drawn uniformly within the
    budget and bet rows from the bounded-denominator grid (zero weights
    included, so sampled gamblers can and do go bankrupt).  The same
    budget, sampler seed, and source reproduce the report byte for byte.
    The sweep is the artifact's own adversary design: random machines
    plus whatever references are passed in; it certifies nothing, it
    measures.
    """
    if h < 1:  # as ``f_family`` refuses it, also for a sequence file
        raise ValueError("h must be at least 1")
    rng = random.Random(budget.seed)
    k = source.alphabet_size
    sampled = (_sample_gambler(rng, h, k, budget, f"sample_{i:04d}")
               for i in range(budget.samples))
    run = walk_population(chain(sampled, include), source, n)
    seq_id = source.describe()
    records = [RunRecord(label, seq_id, n, limsup, liminf, final)
               for label, limsup, liminf, final in zip(
                   run.labels, run.limsup_est.tolist(), run.liminf_est.tolist(),
                   run.log2_final.tolist())]
    sampled_count = len(records) - len(include)
    return SweepReport(
        h=h,
        seq_id=seq_id,
        n=n,
        budget=budget,
        records=records[:sampled_count],
        included=records[sampled_count:],
    )


# ---------------------------------------------------------------------------
# instability experiment
# ---------------------------------------------------------------------------

@dataclass
class InstabilityReport:
    """The 2x2 exponent matrix of variant winners versus variant sequences.

    ``matrix[gambler][sequence]`` holds the window growth exponent; the
    matched pairs sit on the diagonal.  ``averaged`` holds the combined
    gambler's exponents on both sequences.  A losing all-in run is
    bankrupt, so off-diagonal entries are the ``-inf`` sentinel rather
    than small noise.
    """

    h: int
    seed: int
    n: int
    eps: Fraction
    matrix: dict[str, dict[str, float]]
    averaged: dict[str, float]
    records: list[RunRecord]

    def diagonal(self) -> list[float]:
        return [self.matrix["fprime"]["X"], self.matrix["fdoubleprime"]["Z"]]

    def off_diagonal(self) -> list[float]:
        return [self.matrix["fprime"]["Z"], self.matrix["fdoubleprime"]["X"]]

    def to_objs(self) -> list[dict]:
        out = [{
            "type": "config",
            "h": self.h,
            "seed": self.seed,
            "n": self.n,
            "eps": str(self.eps),
        }]
        out.extend(r.to_obj() for r in self.records)
        out.append({
            "type": "summary",
            "matrix": {g: {s: encode_float(v) for s, v in row.items()}
                       for g, row in self.matrix.items()},
            "averaged": {s: encode_float(v) for s, v in self.averaged.items()},
        })
        return out


def instability_experiment(h: int, seed: int, n: int,
                           eps: Fraction) -> InstabilityReport:
    """Cross-run the two variant winners and their average.

    Builds both variant sequences from one seeded inner stream, runs each
    variant winner on each sequence (the 2x2 matrix), then runs the
    averaged gambler (with ``2h - 1`` heads) on both sequences.  The
    expected picture: matched runs grow at one doubling per block,
    mismatched all-in runs die, and the averaged gambler grows near the
    diagonal rate on both.
    """
    if h < 2:
        raise ValueError("instability needs h >= 2 (two distinct variants)")
    eps = Fraction(eps)
    inner = prng_source(seed)
    seq_x, seq_z = f_family(h, "Fprime", inner), f_family(h, "Fdoubleprime", inner)
    g_x = build_variant_gambler(h, "Fprime")
    g_z = build_variant_gambler(h, "Fdoubleprime")
    combined = average_gamblers(g_x, g_z, eps)

    records = []
    matrix: dict[str, dict[str, float]] = {"fprime": {}, "fdoubleprime": {}}
    for tag, spec in (("fprime", g_x), ("fdoubleprime", g_z)):
        for seq_tag, src in (("X", seq_x), ("Z", seq_z)):
            rec = _run_record(spec, src, n, gambler_id=tag)
            records.append(rec)
            matrix[tag][seq_tag] = rec.exponent
    averaged = {}
    for seq_tag, src in (("X", seq_x), ("Z", seq_z)):
        rec = _run_record(combined, src, n, gambler_id="averaged")
        records.append(rec)
        averaged[seq_tag] = rec.exponent

    return InstabilityReport(
        h=h, seed=seed, n=n, eps=eps,
        matrix=matrix, averaged=averaged, records=records,
    )


def write_jsonl(path, objs: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
