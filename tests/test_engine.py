"""Simulation, exponents, brute-force identity checks, and speeds."""

import io
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import galelab.engine as engine
from galelab.core import (
    Alphabet,
    BettingState,
    GamblerSpec,
    PositionalState,
    ProbVector,
    validate_gambler,
)
from galelab.constructions import (
    build_parity_gambler,
    single_minded_gambler,
    uniform_gambler,
)
from galelab.engine import (
    check_martingale_property,
    check_speed_bounds,
    compile_gambler,
    measure_speeds,
    positions,
    run_martingale,
    sgale_log2,
    success_exponent,
    walk,
    window_exponents,
    write_trajectory_csv,
)
from galelab.sequences import constant_source, f_family, prng_source

from gamblers import array_source, random_valid_gambler, two_state_swing_gambler


def frozen_gambler(move_bits=(0, 0)) -> GamblerSpec:
    """Three-head gambler whose trailing heads move per one fixed bit vector."""
    return GamblerSpec(
        alphabet=Alphabet.from_size(2),
        head_count=3,
        positional={"t0": PositionalState("t0", tuple(move_bits))},
        betting={"q0": BettingState(ProbVector.uniform(2),
                                    tuple("q0" for _ in range(8)))},
        initial_t="t0",
        initial_q="q0",
    )


# ---------------------------------------------------------------------------
# positions
# ---------------------------------------------------------------------------

def test_positions_start_at_origin():
    assert positions(build_parity_gambler(2), [0]) == [(0, 0)]


def test_positions_parity_gambler_after_one_block():
    assert positions(build_parity_gambler(2), [5]) == [(2, 3)]


def test_positions_all_zero_movement():
    assert positions(frozen_gambler((0, 0)), [12345]) == [(0, 0)]


@pytest.mark.parametrize("horizons", [[-1], [0, 5, -5], [-(10**30)]])
def test_positions_refuse_a_negative_horizon(horizons):
    """A negative horizon would index the orbit's prefix sums from the end."""
    with pytest.raises(ValueError, match="negative horizon"):
        positions(build_parity_gambler(2), horizons)


def test_positions_match_step_by_step_recursion():
    for h in (1, 2, 3, 4):
        specs = [random_valid_gambler(seed, h) for seed in range(30)]
        # preperiodic orbits, which the parity gamblers lack, are in the sample
        assert h == 1 or any(measure_speeds(s).preperiod_length for s in specs)
        for spec in specs + [build_parity_gambler(3)]:
            pos, expected = [0] * (spec.head_count - 1), []
            t = spec.initial_t
            for n in range(301):
                expected.append(tuple(pos))
                bits = spec.positional[t].move_bits
                pos = [p + b for p, b in zip(pos, bits)]
                t = spec.positional[t].next_id
            assert positions(spec, range(301)) == expected


def test_positions_exact_beyond_int64():
    assert positions(build_parity_gambler(2), [5 * 10**30]) == [(2 * 10**30, 3 * 10**30)]


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_uniform_bettor_keeps_initial_capital():
    trace = run_martingale(uniform_gambler(), prng_source(0), 500)
    assert trace.final_capital.bits == 0.0
    exact = run_martingale(uniform_gambler(), prng_source(0), 500, mode="exact")
    assert exact.final_capital.exact == 1


@pytest.mark.parametrize("n", [4, 5, 6, 997, 1000, 1001, 5000])
def test_parity_gambler_doubles_once_per_block(n):
    spec = build_parity_gambler(2)
    src = f_family(2, "F", prng_source(1))
    trace = run_martingale(spec, src, n)
    expected = -(-n // 5) - 1  # ceil(n/5) - 1
    assert trace.final_capital.bits == float(expected)
    assert abs(trace.final_capital.bits - n / 5) <= 1.0


def test_parity_gambler_capital_independent_of_inner_sequence():
    spec = build_parity_gambler(2)
    for seed in (1, 2, 3):
        src = f_family(2, "F", prng_source(seed))
        assert run_martingale(spec, src, 1000).final_capital.bits == 199.0


def test_all_in_gambler_bankrupts_at_first_loss():
    trace = run_martingale(single_minded_gambler(0), constant_source(1), 10)
    assert trace.log2_capitals()[0] == float("-inf")
    assert trace.final_capital.is_bankrupt


def test_trace_capital_recursion_and_positions_bound():
    spec = build_parity_gambler(2)
    src = f_family(2, "F", prng_source(2))
    trace = run_martingale(spec, src, 300, mode="exact")
    cap = Fraction(1)
    rows = zip(trace.steps.tolist(), trace.rows.states.tolist(),
               trace.rows.symbols.tolist(), trace.exact_capitals(),
               positions(spec, trace.steps.tolist()))
    for m, q, symbol, exact, pos in rows:
        cap *= 2 * spec.betting[trace.compiled.state_ids[q]].bets[symbol]
        assert exact == cap
        assert all(p <= m for p in pos)


def test_bets_cannot_depend_on_the_symbol_they_cover():
    spec = build_parity_gambler(2)
    a = list(f_family(2, "F", prng_source(3)).prefix_array(100))
    b = list(a)
    b[60] ^= 1  # not a boundary; plain copy position
    ta = run_martingale(spec, array_source(a), 61)
    tb = run_martingale(spec, array_source(b), 61)
    qa, qb = ta.rows.states[60], tb.rows.states[60]
    assert qa >= 0 and qb >= 0
    assert ta.compiled.factors[qa] == tb.compiled.factors[qb]
    assert ta.compiled.state_ids[qa] == tb.compiled.state_ids[qb]


def test_source_alphabet_mismatch_rejected():
    with pytest.raises(ValueError, match="alphabet"):
        run_martingale(uniform_gambler(2), array_source([0, 1, 2], k=3), 3)


@pytest.mark.parametrize("mode", ["log2", "exact"])
def test_float_bet_weights_are_refused_naming_the_state(mode):
    """Floats that sum to 1 pass validation, but the run refuses them with
    the state that holds them rather than failing inside ``log2_fraction``."""
    swing = two_state_swing_gambler()
    spec = replace(swing, betting={
        **swing.betting, "b": BettingState(ProbVector((0.5, 0.5)), ("b", "a"))})
    assert validate_gambler(spec).ok
    with pytest.raises(ValueError, match=r"^invalid gambler swing: betting\[b\]: "
                                         "bet weights must be exact rationals, not floats$"):
        run_martingale(spec, prng_source(5), 100, mode=mode)


def test_exact_and_log_runs_agree():
    spec = two_state_swing_gambler()
    src = prng_source(5)
    exact = run_martingale(spec, src, 2000, mode="exact")
    logt = run_martingale(spec, src, 2000, mode="log2")
    ref = exact.final_capital.bits
    assert abs(ref - logt.final_capital.bits) <= 1e-9 * max(1.0, abs(ref))


def test_fast_runner_matches_trace_runner():
    for spec in (build_parity_gambler(2), two_state_swing_gambler(),
                 random_valid_gambler(7, h=2)):
        src = f_family(2, "F", prng_source(9))
        caps = walk(compile_gambler(spec), src, 400).log2
        trace = run_martingale(spec, src, 400)
        assert np.allclose(caps, trace.log2_capitals(), atol=1e-9)


def test_fast_runner_fills_bankrupt_tail():
    caps = walk(compile_gambler(single_minded_gambler(0)), constant_source(1), 50).log2
    assert np.all(caps == float("-inf"))


def test_trace_subsampling_keeps_last_step(monkeypatch):
    monkeypatch.setattr(engine, "TRACE_CAP", 100)
    trace = run_martingale(uniform_gambler(), prng_source(1), 250)
    assert trace.recorded_every == 3
    assert trace.steps[-1] == 249
    assert len(trace.steps) <= 100 + 1


# ---------------------------------------------------------------------------
# exponents and gales
# ---------------------------------------------------------------------------

def test_success_exponent_constant_capital_is_zero():
    trace = run_martingale(uniform_gambler(), prng_source(0), 1000)
    est = success_exponent(trace)
    assert est.limsup_est == 0.0 and est.liminf_est == 0.0


def test_success_exponent_parity_gambler():
    spec = build_parity_gambler(2)
    trace = run_martingale(spec, f_family(2, "F", prng_source(1)), 100_000)
    est = success_exponent(trace)
    assert abs(est.limsup_est - 0.2) <= 0.01
    assert abs(est.liminf_est - 0.2) <= 0.01


def test_success_exponent_all_in_winner_is_one():
    trace = run_martingale(single_minded_gambler(0), constant_source(0), 1000)
    est = success_exponent(trace)
    assert est.limsup_est == 1.0 and est.liminf_est == 1.0


def test_success_exponent_requires_long_trace():
    trace = run_martingale(uniform_gambler(), prng_source(0), 50)
    with pytest.raises(ValueError, match="100"):
        success_exponent(trace)


def test_success_exponent_bankrupt_sentinel():
    trace = run_martingale(single_minded_gambler(0), constant_source(1), 200)
    est = success_exponent(trace)
    assert est.limsup_est == float("-inf")


def test_window_exponents_uses_trailing_window():
    caps = np.concatenate([np.zeros(900), np.arange(1, 101)])
    est = window_exponents(caps, 2)
    assert est.limsup_est == pytest.approx(0.1, abs=0.001)


def test_sgale_identity_at_s_one():
    out = sgale_log2([7.5, -3.25], [1234, 99], Fraction(1), 2)
    assert out.tolist() == [7.5, -3.25]


def test_sgale_log_mode_shift():
    out = sgale_log2([2.0], [10], Fraction(9, 10), 2)
    assert out[0] == pytest.approx(1.0, abs=1e-12)


def test_sgale_bankrupt_stays_bankrupt():
    assert sgale_log2([float("-inf")], [5], Fraction(2), 2)[0] == float("-inf")


@pytest.mark.parametrize("s", [Fraction(4, 5), Fraction(1, 3), Fraction(999, 1000),
                               Fraction(1, 7), Fraction(3, 2),
                               Fraction(12345678901, 10**11), Fraction(1, 2**54 + 1),
                               1 + Fraction(7, 2**55 + 3)])
def test_sgale_shift_is_one_correctly_rounded_division(s):
    # the float path (small numerators) and the Python-int path (the last
    # three s: a large numerator, or a denominator that a float64 rounds)
    # must both give the correctly rounded Python-int quotient
    lengths = np.arange(1, 200_001)
    caps = np.linspace(-50.0, 3000.0, len(lengths))
    e = s - 1
    want = caps + np.array([e.numerator * n / e.denominator for n in lengths.tolist()]) * 2.0
    for given_lengths in (lengths, lengths.tolist()):
        assert sgale_log2(caps, given_lengths, s, 4).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def test_martingale_property_holds_for_parity_gambler():
    assert check_martingale_property(build_parity_gambler(2), 8)


def test_martingale_property_uniform():
    assert check_martingale_property(uniform_gambler(), 10)


def test_martingale_property_detects_unfair_rows():
    spec = GamblerSpec(
        alphabet=Alphabet.from_size(2),
        head_count=1,
        positional={"t0": PositionalState("t0", ())},
        betting={"q0": BettingState(
            ProbVector((Fraction(1, 4), Fraction(1, 4))), ("q0", "q0"))},
        initial_t="t0",
        initial_q="q0",
    )
    assert not check_martingale_property(spec, 2)


def test_martingale_property_depth_cap():
    with pytest.raises(ValueError):
        check_martingale_property(uniform_gambler(), 21)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=st.integers(0, 5000), h=st.integers(1, 3))
def test_brute_force_never_disagrees_with_validation(seed, h):
    # sampled gamblers are always valid, so the tree check must pass
    assert check_martingale_property(random_valid_gambler(seed, h), 5)


def test_measure_speeds_parity_gambler():
    profile = measure_speeds(build_parity_gambler(2))
    assert profile.speeds == (Fraction(2, 5), Fraction(3, 5))
    assert profile.cycle_length == 5
    assert profile.preperiod_length == 0
    for s in profile.speeds:
        assert (s * profile.cycle_length).denominator == 1


def test_measure_speeds_extremes():
    assert measure_speeds(frozen_gambler((0, 0))).speeds == (0, 0)
    assert measure_speeds(frozen_gambler((1, 1))).speeds == (1, 1)


def preperiod_gambler() -> GamblerSpec:
    """Head frozen for three steps, then advancing every step."""
    positional = {
        "a": PositionalState("b", (0,)),
        "b": PositionalState("c", (0,)),
        "c": PositionalState("d", (0,)),
        "d": PositionalState("d", (1,)),
    }
    return GamblerSpec(
        alphabet=Alphabet.from_size(2),
        head_count=2,
        positional=positional,
        betting={"q0": BettingState(ProbVector.uniform(2),
                                    tuple("q0" for _ in range(4)))},
        initial_t="a",
        initial_q="q0",
    )


def test_preperiod_speeds_and_bounds():
    profile = measure_speeds(preperiod_gambler())
    assert profile.speeds == (Fraction(1),)
    assert profile.preperiod_length == 3
    assert profile.cycle_length == 1
    assert check_speed_bounds(preperiod_gambler(), 100)
    # the deviation is exactly the preperiod length, within |T| = 4
    assert positions(preperiod_gambler(), [50]) == [(47,)]


def test_speed_bounds_parity_gambler():
    assert check_speed_bounds(build_parity_gambler(2), 10_000)


def test_speed_bounds_detect_wrong_cycle_claim():
    # a head advancing only in the preperiod but frozen forever after
    # still satisfies the bound (speed 0, positions bounded by |T|)
    positional = {
        "a": PositionalState("b", (1,)),
        "b": PositionalState("b", (0,)),
    }
    spec = GamblerSpec(
        alphabet=Alphabet.from_size(2),
        head_count=2,
        positional=positional,
        betting={"q0": BettingState(ProbVector.uniform(2),
                                    tuple("q0" for _ in range(4)))},
        initial_t="a",
        initial_q="q0",
    )
    assert measure_speeds(spec).speeds == (0,)
    assert check_speed_bounds(spec, 1000)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 5000), h=st.integers(2, 3))
def test_positions_stay_near_speed_line(seed, h):
    spec = random_valid_gambler(seed, h)
    profile = measure_speeds(spec)
    t_count = len(spec.positional)
    horizons = (0, 7, 100, 999)
    for n, pos in zip(horizons, positions(spec, horizons)):
        for i, s in enumerate(profile.speeds):
            assert abs(Fraction(pos[i]) - s * n) <= t_count


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------

def test_trajectory_csv_format():
    spec = build_parity_gambler(2)
    trace = run_martingale(spec, f_family(2, "F", prng_source(1)), 50)
    buf = io.StringIO()
    write_trajectory_csv(trace, buf, [("1", Fraction(1)), ("0.8", Fraction(4, 5))],
                         config={"n": 50})
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "n,log2_capital,sgale_1,sgale_0.8"
    assert len(lines) == 2 + 50
    first = lines[2].split(",")
    assert first[0] == "1"
    assert first[1] == first[2]  # s = 1 column equals the raw log2 column


def test_trajectory_csv_bankrupt_literal():
    trace = run_martingale(single_minded_gambler(0), constant_source(1), 3)
    buf = io.StringIO()
    write_trajectory_csv(trace, buf)
    rows = buf.getvalue().strip().splitlines()[1:]
    assert all(row.split(",")[1] == "-inf" for row in rows)


ENGINE_API = {
    "Capital", "RunTrace", "SpeedProfile", "ExponentEstimate", "CompiledGambler",
    "compile_gambler", "walk", "PopulationRun", "walk_population", "positions",
    "run_martingale", "window_exponents", "success_exponent", "sgale_log2",
    "check_martingale_property", "measure_speeds", "check_speed_bounds",
    "write_trajectory_csv", "TRACE_CAP", "CSV_ROWS", "CHUNK", "WINDOW_FRAC",
}


def test_engine_public_surface_is_pinned():
    """Adding or removing engine API is a deliberate change to this set."""
    assert len(engine.__all__) == len(ENGINE_API)
    assert set(engine.__all__) == ENGINE_API
    assert all(hasattr(engine, name) for name in ENGINE_API)
