"""The population walk against one walk per gambler.

For every gambler, ``walk_population`` must give the very floats that its
own run gives: the last log2 capital of its ``walk`` and both estimates of
``window_exponents``, compared as bytes.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import galelab.engine as engine
from galelab.analysis import SweepBudget, _sample_gambler, estimate_predim_upper
from galelab.constructions import (
    build_parity_gambler,
    single_minded_gambler,
    uniform_gambler,
)
from galelab.engine import (
    _TABLE_ENTRIES,
    CHUNK,
    WINDOW_FRAC,
    _tables,
    _window_start,
    compile_gambler,
    run_martingale,
    walk,
    walk_population,
    window_exponents,
)
from galelab.sequences import constant_source, f_family, prng_source

from gamblers import (
    array_source,
    orbit_gambler,
    overbetting_gambler,
    planted_runs,
    random_valid_gambler,
    run_killer,
    two_state_swing_gambler,
)


def single_runs(specs, src, n):
    rows = []
    for spec in specs:
        caps = walk(compile_gambler(spec), src, n).log2
        est = window_exponents(caps, spec.k)
        rows.append((caps[-1], est.limsup_est, est.liminf_est))
    return np.array(rows)


def assert_population_matches(specs, src, n):
    run = walk_population((spec for spec in specs), src, n)
    assert run.labels == [spec.label() for spec in specs]
    got = np.stack([run.log2_final, run.limsup_est, run.liminf_est], axis=1)
    assert got.tobytes() == single_runs(specs, src, n).tobytes()
    return run


def mixed_population():
    """Random gamblers with 1 to 4 heads and both parity winners (2 and 3 heads)."""
    return ([random_valid_gambler(seed, h) for h in (1, 2, 3, 4) for seed in range(15)]
            + [build_parity_gambler(1), build_parity_gambler(2)])


def one_of_each_head_count():
    """One random gambler with each of 1 to 4 heads: few rows, so long blocks."""
    return [random_valid_gambler(seed, h) for seed, h in ((1, 1), (2, 2), (3, 3), (4, 4))]


def wide_population():
    """Enough 4-head gamblers that two-step tables would overflow the budget."""
    return [random_valid_gambler(seed, 4) for seed in range(120)]


def assert_stride(specs, least) -> int:
    """The stride of the population's tables: ``least``, or at least 3."""
    got = _tables(map(compile_gambler, specs)).stride
    assert got == least if least < 3 else got >= least
    return got


def never_bankrupt(spec) -> bool:
    return all(w > 0 for state in spec.betting.values() for w in state.bets.weights)


@pytest.mark.parametrize("n", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1])
def test_mixed_population_matches_single_runs(n):
    run = assert_population_matches(mixed_population(), f_family(2, "F", prng_source(11)), n)
    assert np.isinf(run.log2_final).any() and np.isfinite(run.log2_final).any()


def test_one_head_population_matches_single_runs():
    specs = [random_valid_gambler(seed, 1) for seed in range(30)] + [two_state_swing_gambler()]
    run = assert_population_matches(specs, f_family(1, "F", prng_source(3)), 2 * CHUNK + 9)
    assert np.isinf(run.log2_final).any() and np.isfinite(run.log2_final).any()


def test_window_starting_inside_a_chunk():
    n = 5 * CHUNK + 77
    start = n - max(1, int(n * WINDOW_FRAC))
    assert start > CHUNK and start % CHUNK
    run = assert_population_matches(mixed_population(), f_family(2, "F", prng_source(5)), n)
    assert np.isfinite(run.log2_final).any()


def test_run_dying_inside_the_window():
    """All zeros but one 1, just after the window starts: the all-in
    gambler doubles up to there and dies: limsup 1, liminf -inf."""
    n = 3 * CHUNK + 10
    start = n - max(1, int(n * WINDOW_FRAC))
    bits = [0] * n
    bits[start + 3] = 1
    specs = mixed_population() + [single_minded_gambler(0)]
    run = assert_population_matches(specs, array_source(bits), n)
    assert run.limsup_est[-1] == 1.0 and run.liminf_est[-1] == float("-inf")


def test_one_live_gambler_over_many_chunks():
    """A population of one: its single column of capitals must be summed
    in step order before the window too, never pairwise."""
    n = 10 * CHUNK + 7
    assert_population_matches([two_state_swing_gambler()], prng_source(4), n)


def test_one_survivor_long_before_the_window():
    """All-in gamblers die on an early 1; the survivor then walks alone
    for several chunks before the window."""
    n = 10 * CHUNK + 7
    bits = [0] * n
    bits[5] = 1
    all_in = single_minded_gambler(0)
    specs = [all_in, all_in, two_state_swing_gambler(), all_in, all_in]
    assert _window_start(n) > 5 * CHUNK
    run = assert_population_matches(specs, array_source(bits), n)
    assert np.isfinite(run.log2_final).tolist() == [False, False, True, False, False]


def test_column_reduce_adds_rows_in_order():
    """A chunk before the window carries its capital as
    ``np.add.reduce(caps, axis=0)``, which must be the float of the last
    row of the chunk's ``np.cumsum``.  numpy sums pairwise only along the
    fast axis; down axis 0 of a C-contiguous array with two or more
    columns it adds row by row.  A single contiguous column is itself the
    fast axis, which numpy sums pairwise, so the walk keeps the cumsum for
    one live gambler and that shape is left out here."""
    rng = np.random.default_rng(24)
    for width in (2, 3, 501):
        for height in (1, 2, 255, 256):
            shape = (height, width)
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 10, shape)
            a[rng.random(shape) < 0.01] = -np.inf
            a[-1, 1] = -np.inf
            assert a.flags.c_contiguous
            assert np.add.reduce(a, axis=0).tobytes() == np.cumsum(a, axis=0)[-1].tobytes()


def test_population_bankrupt_at_step_zero():
    """Every gambler bets nothing on the first symbol, a 1."""
    specs = [single_minded_gambler(0)] + [
        spec for h in (1, 2, 3, 4)
        for spec in (random_valid_gambler(seed, h) for seed in range(40))
        if spec.betting[spec.initial_q].bets.weights[1] == 0]
    assert {spec.head_count for spec in specs} == {1, 2, 3, 4}
    run = assert_population_matches(specs, constant_source(1), CHUNK + 3)
    assert np.all(run.log2_final == float("-inf"))
    assert np.all(run.limsup_est == float("-inf"))


def test_population_without_bankruptcies():
    specs = [spec for h in (1, 2, 3, 4)
             for spec in (random_valid_gambler(seed, h) for seed in range(40))
             if never_bankrupt(spec)]
    specs += [uniform_gambler(), two_state_swing_gambler()]
    assert len(specs) > 20
    run = assert_population_matches(specs, f_family(3, "F", prng_source(2)), 3 * CHUNK + 5)
    assert np.all(np.isfinite(run.log2_final))


@pytest.mark.parametrize("bad", [overbetting_gambler(), uniform_gambler(3)],
                         ids=["invalid", "alphabet"])
def test_population_rejects_what_a_single_run_rejects(bad):
    src = prng_source(0)
    with pytest.raises(ValueError) as single:
        run_martingale(bad, src, 10)
    runs = [lambda: walk(compile_gambler(bad), src, 10),
            lambda: walk_population(iter([uniform_gambler(), bad]), src, 10),
            lambda: estimate_predim_upper(src, [uniform_gambler(), bad], 10)]
    for run in runs:
        with pytest.raises(ValueError) as other:
            run()
        assert str(other.value) == str(single.value)


def test_empty_population_and_empty_horizon():
    src = prng_source(0)
    assert walk_population([], src, 0).labels == []
    with pytest.raises(ValueError, match="empty trace"):
        walk_population([uniform_gambler()], src, 0)


# ---------------------------------------------------------------------------
# the block walk: strides, padded tails and deaths inside a block
# ---------------------------------------------------------------------------

POPULATIONS = {  # name: (gamblers, the stride their tables allow)
    "stride_1": (wide_population, 1),
    "stride_2": (mixed_population, 2),
    "stride_3_plus": (one_of_each_head_count, 3),
}


def test_sweep_populations_fit_the_table_budget():
    """The sweep's default budget: 500 sampled gamblers and the planted winner."""
    for h, expected in ((1, 3), (2, 2)):
        rng = random.Random(5)
        specs = [_sample_gambler(rng, h, 2, SweepBudget(seed=5), f"s{i}") for i in range(500)]
        tables = _tables(map(compile_gambler, specs + [build_parity_gambler(h)]))
        assert tables.stride == expected
        assert tables.jump.size + tables.reads.size <= _TABLE_ENTRIES


@pytest.mark.parametrize("name", POPULATIONS)
def test_all_in_run_alive_at_a_padded_tail(name):
    """All-in on 1 over all ones doubles every step and would die on the
    code 0 that pads a last block: it must end alive at n bits."""
    make, least = POPULATIONS[name]
    specs, src = make() + [single_minded_gambler(1)], constant_source(1)
    b = assert_stride(specs, least)
    for n in sorted({b * 7 + 1, CHUNK - 1, CHUNK + 1}):
        run = assert_population_matches(specs, src, n)
        assert run.log2_final[-1] == n and run.liminf_est[-1] == 1.0


@pytest.mark.parametrize("name", POPULATIONS)
def test_bankrupt_at_each_step_of_a_block(name):
    """All-in on 0 over zeros with one 1: it dies at each offset in a block."""
    make, least = POPULATIONS[name]
    specs = make() + [single_minded_gambler(0)] * 2
    b = assert_stride(specs, least)
    n = 2 * CHUNK + 3 * b + 2
    for death in range(CHUNK - b, CHUNK + b):
        bits = [0] * n
        bits[death] = 1
        run = assert_population_matches(specs, array_source(bits), n)
        assert np.all(run.log2_final[-2:] == float("-inf"))


@settings(max_examples=30, deadline=None)
@given(members=st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 4)),
                        min_size=1, max_size=12),
       n=st.integers(1, 3 * CHUNK), seed=st.integers(0, 50), h=st.integers(1, 3))
def test_random_mixed_populations_match_single_runs(members, n, seed, h):
    specs = [random_valid_gambler(s, heads) for s, heads in members]
    assert_population_matches(specs, f_family(h, "F", prng_source(seed)), n)


# ---------------------------------------------------------------------------
# block values gathered for whole chunks at a time, across gathers
# ---------------------------------------------------------------------------

# the shortest run of ones that bankrupts a killer below; the i-th killer
# of a population needs SHORTEST + i ones in a row
SHORTEST = 4


def gather_steps(specs) -> tuple[int, int]:
    """Steps per chunk and per gather of block values of the population."""
    b = _tables(map(compile_gambler, specs)).stride
    span = b * (CHUNK // b)
    return span, span * max(engine.GATHER // span, 1)


def killers(orbits):
    """The i-th goes bankrupt on the first run of ``SHORTEST + i`` ones."""
    return [run_killer(SHORTEST + i, orbit) for i, orbit in enumerate(orbits)]


def assert_deaths_match(specs, deaths, n, seed):
    """The population of ``specs``, led by ``killers``, over bits whose
    runs of ones bankrupt the first killers at the increasing ``deaths``
    and no other killer: each dies where planned, every other gambler
    lives, and the population matches one walk per gambler."""
    bits = planted_runs(seed, n, deaths, SHORTEST)
    for killer, death in zip(specs, deaths):
        assert len(walk(compile_gambler(killer), array_source(bits), n).states) == death + 1
    run = assert_population_matches(specs, array_source(bits), n)
    assert np.isfinite(run.log2_final).tolist() == [i >= len(deaths) for i in range(len(specs))]


def test_deaths_across_gathers():
    """Gathers of two chunks over four gathers: killers die in the first
    chunk, inside a gather, on the last step of a gather and on the first
    step of the next; survivors with 1-3 heads and preperiods of 0-3
    steps walk on through every gather after each death."""
    orbits = [orbit_gambler(seed, h, pre, cyc)
              for seed, (h, pre, cyc) in enumerate([(2, 3, 2), (3, 1, 5), (1, 0, 1), (3, 2, 3)])]
    specs = killers(orbits) + [orbit_gambler(10 + seed, 1 + seed % 3, seed % 4, 1 + seed % 5)
                               for seed in range(12)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "GATHER", 2 * CHUNK)
        span, gather = gather_steps(specs)
        assert gather == 2 * span
        assert_deaths_match(specs, [10, gather + span + 40, 2 * gather - 1, 3 * gather],
                            4 * gather, 3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), spans=st.integers(2, 3),
       members=st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 3),
                                  st.integers(0, 3), st.integers(1, 5)),
                        min_size=4, max_size=12))
def test_random_populations_across_gathers(data, spans, members):
    """Mixed 1-3-head populations with preperiods over up to four gathers
    of 2-3 chunks, led by three killers of which up to three die: in the
    first chunk, inside a gather or next to a gather's edge."""
    orbits = [orbit_gambler(*member) for member in members]
    specs = killers(orbits[:3]) + orbits[3:]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "GATHER", spans * CHUNK)
        span, gather = gather_steps(specs)
        gathers = data.draw(st.integers(1, 4), label="gathers")
        n = data.draw(st.integers((gathers - 1) * gather + 1, gathers * gather), label="n")
        edges = [m + d for m in range(gather, n, gather) for d in (-1, 0, 1)]
        steps = st.integers(0, n - 1) | st.sampled_from(edges + [0, span // 2])
        deaths = sorted(data.draw(st.lists(steps, unique=True, max_size=3), label="deaths"))
        assume(all(SHORTEST + i - 1 <= d < n for i, d in enumerate(deaths)))
        assume(all(b - a > SHORTEST + 4 for a, b in zip(deaths, deaths[1:])))
        assert_deaths_match(specs, deaths, n, len(members))


# ---------------------------------------------------------------------------
# one table per distinct orbit
# ---------------------------------------------------------------------------

def on_orbit(orbit, seed: int):
    """A never-bankrupt gambler with the positional orbit of ``orbit`` and
    the bets of ``orbit_gambler(seed, ...)``."""
    bets = orbit_gambler(seed, orbit.head_count, 0, 1)
    return dataclasses.replace(bets, positional=orbit.positional, initial_t=orbit.initial_t)


def shared_orbit_population():
    """60 gamblers over three orbits with 1, 2 and 3 heads, led by three
    killers on the three-head orbit, the only gamblers on it."""
    a, b, c = orbit_gambler(1, 1, 0, 1), orbit_gambler(2, 2, 2, 3), orbit_gambler(3, 3, 1, 4)
    return killers([c] * 3) + [on_orbit((a, b)[i % 2], 100 + i) for i in range(57)]


# the killers of ``shared_orbit_population`` die at these steps of
# ``planted_runs(5, ...)``, all in the first of three gathers
SHARED_DEATHS = [10, 700, 3000]


def blocks_calls(specs, src, n) -> list[tuple[int, int]]:
    """The codes per step and first step of each ``_Orbits.blocks`` call
    that ``walk_population`` makes."""
    calls, blocks = [], engine._Orbits.blocks

    def counted(table, buf, start, stop, stride):
        calls.append((table.width, start))
        return blocks(table, buf, start, stop, stride)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine._Orbits, "blocks", counted)
        walk_population(specs, src, n)
    return calls


def test_a_population_reads_each_live_orbit_once_per_gather():
    """Gamblers on one orbit share its table, so a gather reads each
    distinct live orbit's block values once; the three-head orbit is read
    only in the first gather, in which its killers die."""
    specs, n = shared_orbit_population(), 2 * engine.GATHER + 100
    _, gather = gather_steps(specs)
    assert 3 * gather > n > 2 * gather > SHARED_DEATHS[-1]
    calls = blocks_calls(specs, array_source(planted_runs(5, n, SHARED_DEATHS, SHORTEST)), n)
    assert sorted(calls) == sorted([(2, 0), (4, 0), (8, 0), (2, gather), (4, gather),
                                    (2, 2 * gather), (4, 2 * gather)])
    assert_deaths_match(specs, SHARED_DEATHS, n, 5)


class ClearedBetweenDraws(list):
    """Gamblers whose every iteration clears the orbit memo before each
    one, so each compile of a gambler builds its own orbit table."""

    def __iter__(self):
        for spec in super().__iter__():
            engine._orbit_table.cache_clear()
            yield spec


def test_equal_orbits_with_distinct_tables_walk_alike():
    """Equal orbits with distinct tables are read once each, one column
    apiece, and the population still matches one walk per gambler."""
    specs, n = ClearedBetweenDraws(shared_orbit_population()), 2 * engine.GATHER + 100
    bits = array_source(planted_runs(5, n, SHARED_DEATHS, SHORTEST))
    assert [start for _, start in blocks_calls(specs, bits, n)].count(0) == len(specs)
    run = assert_population_matches(specs, bits, n)
    assert np.isfinite(run.log2_final).tolist() == [i >= 3 for i in range(len(specs))]
