"""The compiled walk kernel against an independent per-step reference.

The reference below runs a gambler straight from its spec, one step at a
time: trailing positions by stepping the positional states, the scanned
symbol vector encoded with ``encode_symbol_vector``, the transition looked
up by state id, and the log2 capital advanced by a running sum of
``log2_fraction(k * p)`` (``-inf`` once bankrupt or on a zero bet ``p``).
The kernel must match it exactly: the same betting states, which the
scanned codes decide, and bit-identical log2 capitals.
"""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import galelab.engine as engine
from galelab.analysis import SweepBudget, _sample_gambler
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
from galelab.constructions import (
    average_gamblers,
    build_parity_gambler,
    build_variant_gambler,
    single_minded_gambler,
    uniform_gambler,
)
from galelab.engine import (
    _tables,
    check_speed_bounds,
    compile_gambler,
    measure_speeds,
    run_martingale,
    walk,
)
from galelab.sequences import constant_source, f_family, prng_source

from gamblers import (
    array_source,
    overbetting_gambler,
    random_valid_gambler,
    two_state_swing_gambler,
)


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


def assert_walk_matches(spec, source, n):
    """``walk`` against the reference in states, symbols and log2 bytes,
    and its ``counts`` against a ``bincount`` of the reference's (state,
    symbol) pairs; whether the run went bankrupt."""
    buf = source.prefix_array(n)
    states, caps = reference_walk(spec, buf, n)
    w = walk(compile_gambler(spec), source, n)
    assert w.states.dtype == np.int64 and w.states.tolist() == states
    assert w.symbols.tolist() == [int(b) for b in buf]
    assert w.log2.tobytes() == caps.tobytes()
    pairs = np.array(states, dtype=np.int64) * spec.k + buf[:len(states)]
    counts = np.bincount(pairs, minlength=len(spec.betting) * spec.k)
    assert w.counts.tolist() == counts.reshape(-1, spec.k).tolist()
    return len(states) < n


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_walk_matches_reference_on_random_gamblers(h):
    n = 400
    preperiodic = bankrupt = 0
    for seed in range(30):
        spec = random_valid_gambler(seed, h)
        src = f_family(2, "F", prng_source(seed))
        bankrupt += assert_walk_matches(spec, src, n)
        preperiodic += measure_speeds(spec).preperiod_length > 0
    # the sample exercises both kinds of run the kernel treats specially
    assert bankrupt > 0
    assert h == 1 or preperiodic > 0


@pytest.mark.parametrize("n", [0, 1, 2])
def test_walk_matches_reference_on_tiny_horizons(n):
    src = prng_source(4)
    for h in (1, 2, 3, 4):
        for seed in range(10):
            assert_walk_matches(random_valid_gambler(seed, h), src, n)


def test_walk_stops_at_the_bankrupting_step():
    w = walk(compile_gambler(single_minded_gambler(0)), constant_source(1), 50)
    assert len(w.states) == 1
    assert np.all(w.log2 == float("-inf"))


def test_walk_memory_peak():
    """A 1e5-step walk of the two-head parity:h=1 winner peaks at little
    more than its own result (states and log2 capitals, 0.8 MB each): the
    codes and the log terms are computed in chunks."""
    g = compile_gambler(build_parity_gambler(1))
    src = f_family(1, "F", prng_source(7))
    src.prefix_array(100_000)  # filled before measuring
    tracemalloc.start()
    try:
        w = walk(g, src, 100_000)
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
            caps = walk(compile_gambler(spec), src, 500).log2
            trace = run_martingale(spec, src, 500)
            assert caps.tobytes() == trace.log2_capitals().tobytes()
            assert trace.final_capital.bits == caps[-1]


def test_trace_columns_after_bankruptcy():
    trace = run_martingale(single_minded_gambler(0), constant_source(1), 5)
    assert trace.steps.tolist() == [0, 1, 2, 3, 4]
    # the gambler bets from q0 at step 0, loses it all and bets no more
    assert trace.compiled.state_ids[trace.rows.states[0]] == "q0"
    assert trace.rows.states.tolist() == [0, -1, -1, -1, -1]
    assert np.all(trace.log2_capitals() == BANKRUPT_LOG2)


# ---------------------------------------------------------------------------
# the blocked walk: B steps per loop iteration, chunk edges and padded tails
# ---------------------------------------------------------------------------

# steps per gather of codes in these tests, so that runs of a few hundred
# steps cross many gathers; it holds whole blocks of every stride below
SMALL_GATHER = 48


def stride_of(spec) -> int:
    return _tables([compile_gambler(spec)]).stride


def compiled_strides(run, *args) -> list[int]:
    """The strides of the tables that ``run(*args)`` compiles."""
    strides, compile_tables = [], engine._tables

    def spy(gamblers):
        tables = compile_tables(gamblers)
        strides.append(tables.stride)
        return tables

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_tables", spy)
        run(*args)
    return strides


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), h=st.integers(1, 4), k=st.sampled_from([2, 3]),
       data=st.data())
def test_blocked_walk_matches_reference(seed, h, k, data):
    """Random 1-4-head gamblers over two and three symbols, at horizons
    up to ``3 * B * GATHER`` steps, with ``GATHER`` shrunk so that they
    cross many gathers of codes."""
    rng = random.Random(seed)
    spec = _sample_gambler(rng, h, k, SweepBudget(max_t=3, max_q=4, bet_denominator_max=6),
                           "g")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "GATHER", SMALL_GATHER)
        n = data.draw(st.integers(0, 3 * stride_of(spec) * SMALL_GATHER), label="n")
        if k == 2:
            source = f_family(h, "F", prng_source(seed))
        else:
            source = array_source([rng.randrange(3) for _ in range(n)], k=3)
        assert_walk_matches(spec, source, n)


@pytest.mark.parametrize("gather", [SMALL_GATHER, engine.GATHER])
def test_blocked_walk_bankrupt_at_each_step_of_a_block(gather):
    """All-in on 0 over zeros with one 1 at step ``death``: the run ends
    at that step whether it is the first, the last or an inner step of a
    block, and on either side of a gather's edge."""
    spec = single_minded_gambler(0)
    b = stride_of(spec)
    span = b * (gather // b)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "GATHER", gather)
        for death in range(span - b, span + b):
            bits = [0] * (span + 2 * b)
            bits[death] = 1
            assert assert_walk_matches(spec, array_source(bits), len(bits))


def test_blocked_walk_ignores_a_bankrupting_padded_tail():
    """All-in on 1 over ones would die on the code 0 that pads a last
    block: the run ends alive, doubled at every one of its ``n`` steps."""
    spec = single_minded_gambler(1)
    b = stride_of(spec)
    for n in (1, b - 1, b + 1, 2 * engine.GATHER + 1):
        assert n % b
        assert not assert_walk_matches(spec, constant_source(1), n)
        assert walk(compile_gambler(spec), constant_source(1), n).log2[-1] == n


def ring_gambler(states: int, all_in: bool) -> GamblerSpec:
    """One head over ``states`` betting states in a ring, moving one state
    on a 0 and two on a 1, with non-dyadic bets; when ``all_in``, the last
    state bets everything on 0."""
    bets = [ProbVector((Fraction(1, 3), Fraction(2, 3))),
            ProbVector((Fraction(3, 5), Fraction(2, 5))), ProbVector.uniform(2)]
    ids = [f"q{i}" for i in range(states)]
    betting = {q: BettingState(bets[i % 3], (ids[(i + 1) % states], ids[(i + 2) % states]))
               for i, q in enumerate(ids)}
    if all_in:
        betting[ids[-1]] = BettingState(ProbVector.point(2, 0), betting[ids[-1]].transitions)
    return GamblerSpec(alphabet=Alphabet.from_size(2), head_count=1,
                       positional={"t0": PositionalState("t0", ())}, betting=betting,
                       initial_t="t0", initial_q=ids[0])


@pytest.mark.parametrize("states", [255, 256, 300])
def test_walk_matches_reference_past_a_byte_of_rows(states):
    """The rows before a gather's blocks fit a byte up to 255 betting
    states and the absorbing row; past that the walk takes the other
    path.  Both run live, and bankrupt in the second gather."""
    n = 2 * engine.GATHER + 5
    rng = random.Random(states)
    bits = [rng.randrange(2) for _ in range(n)]
    assert not assert_walk_matches(ring_gambler(states, False), array_source(bits), n)
    q = 0  # the bankrupting gambler sees a 1 in its last state only past the first gather
    for m in range(n):
        if q == states - 1:
            bits[m] = int(m > engine.GATHER)
        q = (q + 1 + bits[m]) % states
    spec = ring_gambler(states, True)
    assert assert_walk_matches(spec, array_source(bits), n)
    assert len(walk(compile_gambler(spec), array_source(bits), n).states) > engine.GATHER


def test_walk_and_population_pick_the_same_stride():
    fprime, fdoubleprime = (build_variant_gambler(2, v) for v in ("Fprime", "Fdoubleprime"))
    averaged = average_gamblers(fprime, fdoubleprime, Fraction(1, 10))
    specs = {"uniform": uniform_gambler(), "parity:h=2": build_parity_gambler(2),
             "fprime:h=2": fprime, "fdoubleprime:h=2": fdoubleprime, "averaged": averaged}
    # the strides the documentation quotes
    want = {"uniform": 12, "parity:h=2": 3, "fprime:h=2": 5, "fdoubleprime:h=2": 5,
            "averaged": 3}
    assert {name: stride_of(spec) for name, spec in specs.items()} == want
    others = [single_minded_gambler(0), two_state_swing_gambler(), build_parity_gambler(1),
              build_parity_gambler(3)]
    others += [random_valid_gambler(seed, h) for h in (1, 2, 3, 4) for seed in range(10)]
    src = prng_source(0)
    for spec in [*specs.values(), *others]:
        b = stride_of(spec)
        assert compiled_strides(walk, compile_gambler(spec), src, 10) == [b]
        assert compiled_strides(engine.walk_population, [spec], src, 10) == [b]


# ---------------------------------------------------------------------------
# validation at compile time
# ---------------------------------------------------------------------------

def walk_spec(spec, source, n):
    return walk(compile_gambler(spec), source, n)


@pytest.mark.parametrize("run", [run_martingale, walk_spec])
def test_runs_reject_an_invalid_gambler(run):
    with pytest.raises(ValueError, match="sum to 3/2"):
        run(overbetting_gambler(), prng_source(0), 1000)


def test_compile_names_every_violation():
    spec = overbetting_gambler()
    bad = GamblerSpec(spec.alphabet, 1, spec.positional, spec.betting,
                      "t0", "missing")
    with pytest.raises(ValueError, match="sum to 3/2.*'missing' unknown"):
        compile_gambler(bad)


def test_compiled_factors_are_the_fair_factors_of_the_spec():
    """``factors[q][s]`` is ``k * w`` for each state's bet weight, and the
    log terms are ``log2_fraction`` of those very factors, bit for bit."""
    kinds = set()
    for h in (1, 2, 3, 4):
        for seed in range(20):
            spec = random_valid_gambler(seed, h)
            g = compile_gambler(spec)
            want = [[spec.k * w for w in spec.betting[qid].bets.weights]
                    for qid in g.state_ids]
            assert g.factors == want
            logs = np.array([[log2_fraction(f) for f in row] for row in g.factors])
            assert g.log_rows.tobytes() == logs.tobytes()
            factors = [f for row in want for f in row]
            kinds |= {"zero" for f in factors if f == 0}
            kinds |= {"all-in" for f in factors if f == spec.k}
            kinds |= {"non-dyadic" for f in factors if f.denominator & (f.denominator - 1)}
    assert kinds == {"zero", "all-in", "non-dyadic"}


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
