"""Shared gambler and source builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from galelab.analysis import SweepBudget, _sample_gambler
from galelab.core import (
    Alphabet,
    BettingState,
    GamblerSpec,
    PositionalState,
    ProbVector,
)
from galelab.sequences import FileSource


def array_source(bits, k: int = 2) -> FileSource:
    """In-memory source over explicit symbols (exhausts at the end)."""
    return FileSource("<memory>", k, np.asarray(list(bits), dtype=np.uint8))


def two_state_swing_gambler() -> GamblerSpec:
    """Two betting states with non-dyadic bets, toggled by the symbol read.

    Exercises log-domain arithmetic on bets whose logs are irrational.
    """
    return GamblerSpec(
        alphabet=Alphabet.from_size(2),
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
        alphabet=Alphabet.from_size(2),
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
