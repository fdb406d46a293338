"""The population walk against one walk per gambler.

For every gambler, ``walk_population`` must give the very floats that its
own run gives: the last of ``run_log2_capitals`` and both estimates of
``window_exponents``, compared as bytes.
"""

import numpy as np
import pytest

from galelab.constructions import (
    build_parity_gambler,
    single_minded_gambler,
    uniform_gambler,
)
from galelab.engine import (
    CHUNK,
    WINDOW_FRAC,
    run_log2_capitals,
    walk_population,
    window_exponents,
)
from galelab.sequences import constant_source, f_family, prng_source

from gamblers import (
    array_source,
    overbetting_gambler,
    random_valid_gambler,
    two_state_swing_gambler,
)


def single_runs(specs, src, n):
    rows = []
    for spec in specs:
        caps = run_log2_capitals(spec, src, n)
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
        run_log2_capitals(bad, src, 10)
    with pytest.raises(ValueError) as population:
        walk_population(iter([uniform_gambler(), bad]), src, 10)
    assert str(population.value) == str(single.value)


def test_empty_population_and_empty_horizon():
    src = prng_source(0)
    assert walk_population([], src, 0).labels == []
    with pytest.raises(ValueError, match="empty trace"):
        walk_population([uniform_gambler()], src, 0)
