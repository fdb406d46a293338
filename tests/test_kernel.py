"""The compiled walk kernel against an independent per-step reference.

The reference below runs a gambler straight from its spec, one step at a
time: trailing positions by stepping the positional states, the scanned
symbol vector encoded with ``encode_symbol_vector``, the transition looked
up by state id, and the log2 capital advanced by a running sum of
``log2_fraction(k * p)`` (``-inf`` once bankrupt or on a zero bet ``p``).
The kernel must match it exactly: the same betting states, which the
scanned codes decide, and bit-identical log2 capitals.
"""

import tracemalloc

import numpy as np
import pytest

from galelab.core import (
    BANKRUPT_LOG2,
    Alphabet,
    BettingState,
    GamblerSpec,
    PositionalState,
    ProbVector,
    encode_symbol_vector,
    log2_fraction,
)
from galelab.constructions import build_parity_gambler, single_minded_gambler
from galelab.engine import (
    check_speed_bounds,
    compile_gambler,
    measure_speeds,
    run_log2_capitals,
    run_martingale,
    walk,
)
from galelab.sequences import constant_source, f_family, prng_source

from gamblers import overbetting_gambler, random_valid_gambler


def reference_walk(spec: GamblerSpec, buf, n: int):
    """Betting-state indices (up to a bankrupting step) and log2 capitals
    of a run, one step at a time."""
    q_ids = list(spec.betting)
    q, t = spec.initial_q, spec.initial_t
    pos = [0] * (spec.head_count - 1)
    cap = log2_fraction(spec.initial_capital)
    states, caps = [], []
    for m in range(n):
        if cap != BANKRUPT_LOG2:
            states.append(q_ids.index(q))
        sym = int(buf[m])
        p = spec.betting[q].bets[sym]
        if cap == BANKRUPT_LOG2 or p == 0:
            cap = BANKRUPT_LOG2
        else:
            cap = cap + log2_fraction(spec.k * p)
        caps.append(cap)
        code = encode_symbol_vector([int(buf[p]) for p in pos] + [sym], spec.k)
        q = spec.betting[q].transitions[code]
        pos = [p + b for p, b in zip(pos, spec.positional[t].move_bits)]
        t = spec.positional[t].next_id
    return states, np.array(caps, dtype=np.float64)


def assert_walk_matches(spec, buf, n):
    states, caps = reference_walk(spec, buf, n)
    w = walk(compile_gambler(spec), buf, n)
    assert w.states.tolist() == states
    assert w.symbols.tolist() == [int(b) for b in buf[:n]]
    assert w.log2.tobytes() == caps.tobytes()
    return len(states) < n


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_walk_matches_reference_on_random_gamblers(h):
    n = 400
    preperiodic = bankrupt = 0
    for seed in range(30):
        spec = random_valid_gambler(seed, h)
        buf = f_family(2, "F", prng_source(seed)).prefix_array(n)
        bankrupt += assert_walk_matches(spec, buf, n)
        preperiodic += measure_speeds(spec).preperiod_length > 0
    # the sample exercises both kinds of run the kernel treats specially
    assert bankrupt > 0
    assert h == 1 or preperiodic > 0


@pytest.mark.parametrize("n", [0, 1, 2])
def test_walk_matches_reference_on_tiny_horizons(n):
    buf = prng_source(4).prefix_array(2)
    for h in (1, 2, 3, 4):
        for seed in range(10):
            assert_walk_matches(random_valid_gambler(seed, h), buf, n)


def test_walk_stops_at_the_bankrupting_step():
    buf = constant_source(1).prefix_array(50)
    w = walk(compile_gambler(single_minded_gambler(0)), buf, 50)
    assert len(w.states) == 1
    assert np.all(w.log2 == float("-inf"))


def test_walk_memory_peak():
    """A 1e5-step walk of the two-head parity:h=1 winner peaks at little
    more than its own result (states and log2 capitals, 0.8 MB each): the
    codes and the log terms are computed in chunks."""
    g = compile_gambler(build_parity_gambler(1))
    buf = f_family(1, "F", prng_source(7)).prefix_array(100_000)
    tracemalloc.start()
    try:
        w = walk(g, buf, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.head_count == 2 and len(w.states) == 100_000
    assert peak <= 2.7 * 2**20


def test_batch_and_trace_runners_agree_bit_for_bit():
    src = f_family(2, "F", prng_source(6))
    for h in (1, 2, 3):
        for seed in range(10):
            spec = random_valid_gambler(seed, h)
            caps = run_log2_capitals(spec, src, 500)
            trace = run_martingale(spec, src, 500)
            assert caps.tobytes() == trace.log2_capitals().tobytes()
            assert trace.final_capital.log2() == caps[-1]


def test_trace_columns_after_bankruptcy():
    trace = run_martingale(single_minded_gambler(0), constant_source(1), 5)
    assert trace.steps.tolist() == [0, 1, 2, 3, 4]
    # the gambler bets from q0 at step 0, loses it all and bets no more
    assert trace.compiled.state_ids[trace.rows.states[0]] == "q0"
    assert trace.rows.states.tolist() == [0, -1, -1, -1, -1]
    assert np.all(trace.log2_capitals() == BANKRUPT_LOG2)


# ---------------------------------------------------------------------------
# validation at compile time
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("run", [run_martingale, run_log2_capitals])
def test_runs_reject_an_invalid_gambler(run):
    with pytest.raises(ValueError, match="sum to 3/2"):
        run(overbetting_gambler(), prng_source(0), 1000)


def test_compile_names_every_violation():
    spec = overbetting_gambler()
    bad = GamblerSpec(spec.alphabet, 1, spec.positional, spec.betting,
                      "t0", "missing")
    with pytest.raises(ValueError, match="sum to 3/2.*'missing' unknown"):
        compile_gambler(bad)


# ---------------------------------------------------------------------------
# speed bounds decided over one preperiod and one cycle
# ---------------------------------------------------------------------------

def brute_force_deviations(spec: GamblerSpec, n_max: int) -> list[list[int]]:
    """``|pi_i(n) * den_i - num_i * n|`` for every ``n <= n_max``, stepping
    the positional states one at a time."""
    speeds = measure_speeds(spec).speeds
    pos = [0] * (spec.head_count - 1)
    t = spec.initial_t
    out = []
    for n in range(n_max + 1):
        out.append([abs(p * s.denominator - s.numerator * n)
                    for p, s in zip(pos, speeds)])
        st = spec.positional[t]
        pos = [p + b for p, b in zip(pos, st.move_bits)]
        t = st.next_id
    return out


def brute_force_bounds(spec: GamblerSpec, n_max: int) -> bool:
    t_count = len(spec.positional)
    speeds = measure_speeds(spec).speeds
    return all(d <= t_count * s.denominator
               for row in brute_force_deviations(spec, n_max)
               for d, s in zip(row, speeds))


@pytest.mark.parametrize("h", [2, 3, 4])
def test_deviation_repeats_with_the_cycle(h):
    for seed in range(40):
        spec = random_valid_gambler(seed, h)
        profile = measure_speeds(spec)
        span = profile.preperiod_length + profile.cycle_length
        devs = brute_force_deviations(spec, 600)
        for n in range(span, 601):
            assert devs[n] == devs[n - profile.cycle_length]


def runaway_gambler(pre: list[int], cycle: list[int]) -> GamblerSpec:
    """One trailing head moving by the given amounts through a preperiod
    and then a cycle; amounts above 1 are invalid, and they can push the
    head off its speed line."""
    ids = [f"t{i}" for i in range(len(pre) + len(cycle))]
    nxt = ids[1:] + [ids[len(pre)]]
    return GamblerSpec(
        alphabet=Alphabet.from_size(2),
        head_count=2,
        positional={t: PositionalState(u, (b,))
                    for t, u, b in zip(ids, nxt, pre + cycle)},
        betting={"q0": BettingState(ProbVector.uniform(2), ("q0",) * 4)},
        initial_t="t0",
        initial_q="q0",
    )


def test_speed_bounds_agree_with_brute_force():
    in_preperiod = runaway_gambler([7, 0], [0])
    # speed 6/5 and |T| = 11: the head first strays at n = 10, in the cycle
    in_cycle = runaway_gambler([0], [0] * 9 + [12])
    specs = [random_valid_gambler(seed, h) for h in (1, 2, 3) for seed in range(20)]
    for spec in specs + [in_preperiod, in_cycle]:
        for n_max in (-1, 0, 1, 2, 5, 9, 10, 300):
            assert check_speed_bounds(spec, n_max) == brute_force_bounds(spec, n_max)
    assert not check_speed_bounds(in_preperiod, 300)
    assert check_speed_bounds(in_cycle, 9)
    assert not check_speed_bounds(in_cycle, 10)
