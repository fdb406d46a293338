"""Visit counts as a run's summary.

A walk counts how often each betting state met each symbol.  From those
counts alone come the final exact capital, the number of all-in wins
and a stated bound on the error of the log2 capitals; each is checked
here against a step-by-step or high-precision reference.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import galelab.engine as engine
from galelab.constructions import build_parity_gambler, single_minded_gambler
from galelab.engine import compile_gambler, run_martingale, walk
from galelab.sequences import f_family, prng_source

from gamblers import all_in_wins, random_valid_gambler, two_state_swing_gambler


def _non_dyadic(x: Fraction) -> bool:
    return bool(x.denominator & (x.denominator - 1))


@pytest.mark.parametrize("h", [1, 2, 3])
def test_counts_route_final_capital_matches_the_step_by_step_product(h):
    finals = []
    for seed in range(15):
        spec = random_valid_gambler(seed, h)
        for n in (0, 1, 2, 300):
            trace = run_martingale(spec, f_family(2, "F", prng_source(seed)), n,
                                   mode="exact")
            last = trace.compiled.initial
            for last in engine._exact_capitals(trace.compiled, trace.rows):
                pass
            final = trace.final_capital.exact
            # a Fraction equals another only in the same lowest terms
            assert (final.numerator, final.denominator) == (last.numerator,
                                                            last.denominator)
            finals.append(final)
    assert any(c == 0 for c in finals)
    assert any(_non_dyadic(c) for c in finals)


def test_coprime_fraction_cancels_shared_bases():
    rng = random.Random(5)
    for _ in range(300):
        powers = {rng.randint(1, 60): rng.randint(-40, 40) for _ in range(rng.randint(0, 6))}
        want = Fraction(1)
        for b, e in powers.items():
            want *= Fraction(b) ** e
        got = engine._coprime_fraction(powers)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_counts_cover_every_step_and_the_bankrupting_one():
    spec = single_minded_gambler(0)
    src = f_family(2, "F", prng_source(4))
    w = walk(compile_gambler(spec), src, 50)
    first_loss = int(np.argmax(src.prefix_array(50) != 0))
    assert w.counts.tolist() == [[first_loss, 1]]


def test_exact_mode_memory_grows_only_with_the_live_capital():
    """Beyond the trace's own 24 bytes a step, an exact run holds a fixed
    amount plus a few copies of its one capital, at every horizon."""
    for spec, make in ((build_parity_gambler(2), lambda: f_family(2, "F", prng_source(4))),
                       (two_state_swing_gambler(), lambda: prng_source(2))):
        for n in (10_000, 100_000):
            src = make()
            src.prefix_array(n)
            tracemalloc.start()
            try:
                trace = run_martingale(spec, src, n, mode="exact")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            cap = trace.final_capital.exact
            capital_bytes = (cap.numerator.bit_length() + cap.denominator.bit_length()) // 8
            rows = trace.rows.states.nbytes + trace.rows.log2.nbytes + trace.steps.nbytes
            # measured: 31-165 KB over the rows, the capital 0.25-38 KB
            assert peak - rows < 256 * 2**10 + 8 * capital_bytes


def test_all_in_wins_count_every_step_of_a_subsampled_run(monkeypatch):
    monkeypatch.setattr(engine, "TRACE_CAP", 1000)
    spec, n = build_parity_gambler(2), 10_007
    src = f_family(2, "F", prng_source(4))
    trace = run_martingale(spec, src, n)
    assert trace.recorded_every == 11
    g = compile_gambler(spec)
    w = walk(g, src, n)
    wins = sum(spec.betting[g.state_ids[q]].bets[s] == 1
               for q, s in zip(w.states.tolist(), w.symbols.tolist()))
    assert wins == -(-n // 5) - 1
    assert all_in_wins(trace) == wins


def _mpmath_log2(spec, g, counts) -> mpmath.mpf:
    """log2 of a run's final capital, as a 60-digit sum over its visit
    counts, with the bet weights read from ``spec``."""
    with mpmath.workdps(60):
        initial = spec.initial_capital
        total = mpmath.log(initial.numerator, 2) - mpmath.log(initial.denominator, 2)
        for (q, s), c in zip(np.argwhere(counts).tolist(), counts[counts > 0].tolist()):
            f = spec.k * spec.betting[g.state_ids[q]].bets[s]
            total += c * (mpmath.log(f.numerator, 2) - mpmath.log(f.denominator, 2))
        return total


def _error(value: float, spec, g, counts) -> mpmath.mpf:
    with mpmath.workdps(60):
        return abs(mpmath.mpf(value) - _mpmath_log2(spec, g, counts))


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_log2_error_bound_holds_against_mpmath(n):
    src, spec = prng_source(2), two_state_swing_gambler()
    trace = run_martingale(spec, src, n)
    g, bound = trace.compiled, trace.log2_error_bound()
    error = _error(trace.final_capital.bits, spec, g, trace.rows.counts)
    assert error <= bound < 1e-5
    assert error > 0   # the sum drifts, so the check is not vacuous
    for m in (1, 10, 1000, n // 2):   # the bound covers every prefix
        prefix = walk(g, src, m)
        assert prefix.log2[-1] == trace.rows.log2[m - 1]
        assert _error(prefix.log2[-1], spec, g, prefix.counts) <= bound


def test_exact_mode_log2_error_bound_holds_against_mpmath():
    spec = two_state_swing_gambler()
    trace = run_martingale(spec, prng_source(2), 10_000, mode="exact")
    bound = trace.log2_error_bound()
    assert _error(trace.final_capital.bits, spec, trace.compiled,
                  trace.rows.counts) <= bound < 1e-10


def test_log2_error_bound_covers_bankrupt_and_dyadic_runs():
    for spec in (single_minded_gambler(0), build_parity_gambler(2)):
        trace = run_martingale(spec, f_family(2, "F", prng_source(4)), 1000)
        bound = trace.log2_error_bound()
        assert math.isfinite(bound) and 0 < bound < 1e-9
