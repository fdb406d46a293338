"""Shared gambler and source builders for the test suite."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import numpy as np

from galelab.analysis import SweepBudget, _sample_gambler
from galelab.core import (
    BettingState,
    GamblerSpec,
    PositionalState,
    ProbVector,
)
from galelab.engine import RunTrace
from galelab.sequences import FileSource


def encode_symbol_vector(vec, k: int) -> int:
    """The reference code of a scanned symbol vector: the base-``k``
    integer whose digits are the trailing-head symbols in head order, then
    the leading-head symbol as the least significant digit."""
    code = 0
    for s in vec:
        code = code * k + s
    return code


def decode_symbol_code(code: int, h: int, k: int) -> tuple[int, ...]:
    """Inverse of ``encode_symbol_vector`` for ``h`` symbols."""
    out = [0] * h
    for i in range(h - 1, -1, -1):
        code, out[i] = divmod(code, k)
    return tuple(out)


def all_in_wins(trace: RunTrace) -> int:
    """Steps of the run whose full-capital bet was on the realized symbol,
    read off the visit counts of every step (subsampled rows included)."""
    g = trace.compiled
    return int(trace.rows.counts[np.array(g.factors) == g.k].sum())


def diagonal(report) -> list[float]:
    """The matched entries of an instability matrix: each variant winner
    on its own variant's sequence."""
    return [report.matrix["fprime"]["X"], report.matrix["fdoubleprime"]["Z"]]


def off_diagonal(report) -> list[float]:
    """The mismatched entries: each variant winner on the other sequence."""
    return [report.matrix["fprime"]["Z"], report.matrix["fdoubleprime"]["X"]]


def array_source(bits, k: int = 2) -> FileSource:
    """In-memory source over explicit symbols (exhausts at the end)."""
    return FileSource("<memory>", k, np.asarray(list(bits), dtype=np.uint8))


def two_state_swing_gambler() -> GamblerSpec:
    """Two betting states with non-dyadic bets, toggled by the symbol read.

    Exercises log-domain arithmetic on bets whose logs are irrational.
    """
    return GamblerSpec(
        k=2,
        head_count=1,
        positional={"t0": PositionalState("t0", ())},
        betting={
            "a": BettingState(
                ProbVector((Fraction(1, 3), Fraction(2, 3))), ("a", "b")),
            "b": BettingState(
                ProbVector((Fraction(3, 5), Fraction(2, 5))), ("b", "a")),
        },
        initial_t="t0",
        initial_q="a",
        name="swing",
    )


def overbetting_gambler() -> GamblerSpec:
    """One state betting 3/4 on each symbol: bets sum to 3/2."""
    return GamblerSpec(
        k=2,
        head_count=1,
        positional={"t0": PositionalState("t0", ())},
        betting={"q0": BettingState(
            ProbVector((Fraction(3, 4), Fraction(3, 4))), ("q0", "q0"))},
        initial_t="t0",
        initial_q="q0",
    )


def random_valid_gambler(seed: int, h: int = 1, k: int = 2) -> GamblerSpec:
    """Deterministic pseudo-random gambler over ``k`` symbols; always
    structurally valid."""
    rng = random.Random(seed)
    budget = SweepBudget(max_t=3, max_q=3, bet_denominator_max=6, samples=1,
                         seed=seed)
    return _sample_gambler(rng, h, k, budget, f"rand_{seed}")


def orbit_gambler(seed: int, h: int, pre: int, cyc: int, k: int = 2) -> GamblerSpec:
    """A random gambler whose positional orbit has a preperiod of ``pre``
    states and a cycle of ``cyc``: states ``t0`` to ``t{pre + cyc - 1}``
    in a line, the last one leading back to ``t{pre}``, each with random
    move bits.  Every bet weight is positive, so it never goes bankrupt."""
    rng = random.Random(seed)
    budget = SweepBudget(max_t=1, max_q=3, samples=1, seed=seed)
    spec = _sample_gambler(rng, h, k, budget, f"orbit_{seed}")
    ids = [f"t{i}" for i in range(pre + cyc)] + [f"t{pre}"]
    positional = {ids[i]: PositionalState(ids[i + 1], tuple(rng.randint(0, 1) for _ in range(h - 1)))
                  for i in range(pre + cyc)}
    betting = {}
    for q, state in spec.betting.items():
        parts = [rng.randint(1, 5) for _ in range(k)]
        betting[q] = BettingState(ProbVector(tuple(Fraction(p, sum(parts)) for p in parts)),
                                  state.transitions)
    return dataclasses.replace(spec, positional=positional, betting=betting)


def run_killer(run: int, orbit: GamblerSpec) -> GamblerSpec:
    """A binary gambler with the heads and positional orbit of ``orbit``
    that bets evenly until it has read ``run - 1`` ones in a row and then
    everything on 0: it goes bankrupt on the last one of the first run of
    ``run`` ones.  Its transitions read only the leading symbol, ``code % 2``."""
    ids = [f"r{i}" for i in range(run)]
    betting = {q: BettingState(ProbVector.uniform(2) if i < run - 1 else ProbVector.point(2, 0),
                               tuple(ids[min(i + 1, run - 1)] if code % 2 else ids[0]
                                     for code in range(2 ** orbit.head_count)))
               for i, q in enumerate(ids)}
    return dataclasses.replace(orbit, betting=betting, initial_q=ids[0], name=f"killer_{run}")


def planted_runs(seed: int, n: int, deaths: list[int], shortest: int) -> np.ndarray:
    """``n`` random bits whose runs of ones are shorter than ``shortest``,
    but for a run of ``shortest + i`` ones that ends at the ``i``-th of
    the increasing steps ``deaths``, set off by zeros on both sides: the
    ``run_killer`` of that run goes bankrupt there and nowhere before."""
    rng = random.Random(seed)
    bits, ones = [], 0
    for _ in range(n):
        bit = rng.randint(0, 1) if ones < shortest - 1 else 0
        ones = ones + 1 if bit else 0
        bits.append(bit)
    end = -2
    for i, d in enumerate(deaths):
        first = d + 1 - shortest - i
        assert first >= end + 2 and first >= 0, "runs must not touch"
        bits[max(first - 1, 0):d + 2] = [0] * (first > 0) + [1] * (d + 1 - first) + [0]
        end = d
    return np.array(bits[:n], dtype=np.uint8)
