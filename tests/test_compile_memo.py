"""Compilation at the cost of a population's distinct parts.

Bet-row checks, fair factors and orbit tables are memoised on their
values and the values' types; every compiled gambler must equal what the
unmemoised expressions give for its very objects, whatever the memos
held before.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import galelab.core as core
import galelab.engine as engine
from galelab.analysis import SweepBudget, _random_bets, adversarial_sweep
from galelab.constructions import build_parity_gambler
from galelab.core import (
    Alphabet,
    BettingState,
    GamblerSpec,
    PositionalState,
    ProbVector,
    log2_fraction,
    validate_gambler,
)
from galelab.engine import _positional_orbit, compile_gambler, window_exponents
from galelab.sequences import f_family, prng_source

from gamblers import random_valid_gambler


def _clear_memos():
    core._row_faults.cache_clear()
    engine._fair_row.cache_clear()
    engine._orbit_table.cache_clear()


def _one_state(weights, k: int = 2) -> GamblerSpec:
    return GamblerSpec(
        alphabet=Alphabet.from_size(k),
        head_count=1,
        positional={"t0": PositionalState("t0", ())},
        betting={"q0": BettingState(ProbVector(tuple(weights)), ("q0",) * k)},
        initial_t="t0",
        initial_q="q0",
    )


def _reference(spec: GamblerSpec):
    """Factors, log rows, next states and orbit arrays by the unmemoised
    expressions."""
    k = spec.k
    q_index = {q: i for i, q in enumerate(spec.betting)}
    factors = [[k * w for w in st.bets.weights] for st in spec.betting.values()]
    logs = np.array([[log2_fraction(f) for f in row] for row in factors])
    nxt = [[-1 if fs[code % k] == 0 else q_index[t] for code, t in enumerate(st.transitions)]
           for st, fs in zip(spec.betting.values(), factors)]
    pre, cyc = _positional_orbit(spec)
    sums = np.cumsum(np.concatenate([np.zeros_like(cyc[:1]), pre, cyc]), axis=0)
    orbit = (sums[None], np.array([len(pre)]), np.array([len(cyc)]), cyc.sum(0)[None],
             (k ** np.arange(spec.head_count - 1, 0, -1))[None])
    return factors, logs, nxt, orbit


def _assert_compiles_as_reference(spec: GamblerSpec):
    g = compile_gambler(spec)
    factors, logs, nxt, orbit = _reference(spec)
    assert g.factors == factors
    assert [list(map(type, row)) for row in g.factors] == [list(map(type, row)) for row in factors]
    assert g.log_rows.dtype == logs.dtype and g.log_rows.tobytes() == logs.tobytes()
    assert g.next_state == nxt
    for a, b in zip(g.orbit, orbit):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seeds=st.lists(st.integers(0, 10_000), min_size=2, max_size=6),
       h=st.integers(1, 3))
def test_a_compile_that_hits_the_memos_equals_the_unmemoised_one(seeds, h):
    specs = [random_valid_gambler(seed, h) for seed in seeds]
    _clear_memos()
    for spec in specs:  # every spec after the first finds parts in the memos
        _assert_compiles_as_reference(spec)
    assert engine._fair_row.cache_info().hits > 0
    for spec in specs:  # and all of them a second time
        _assert_compiles_as_reference(spec)


def test_equal_rows_of_other_types_get_their_own_factors():
    """``1 == Fraction(1)`` and both hash alike; an int row compiled after
    a ``Fraction`` row of the same values keeps int factors, and the other
    way round."""
    fractions, ints = (Fraction(1), Fraction(0)), (1, 0)
    for first, second in ((fractions, ints), (ints, fractions)):
        _clear_memos()
        compile_gambler(_one_state(first))
        g = compile_gambler(_one_state(second))
        assert g.factors == [[2, 0]]
        assert [type(f) for f in g.factors[0]] == [type(w) for w in second]
        _assert_compiles_as_reference(_one_state(second))


def test_a_float_row_is_validated_as_floats_after_an_equal_fraction_row():
    """``(0.1, 0.9)`` as exact binary fractions sums to just above 1, and as
    floats to 1.0: each row keeps the verdict it gets in a fresh process,
    whichever was validated first."""
    floats = (0.1, 0.9)
    exact = tuple(map(Fraction, floats))
    assert exact == floats and hash(exact) == hash(floats)
    too_much = [f"betting[q0]: bet weights sum to {sum(exact)}, expected 1"]
    for order in ((exact, floats), (floats, exact)):
        _clear_memos()
        for weights in order:
            report = validate_gambler(_one_state(weights))
            assert [str(v) for v in report] == ([] if weights is floats else too_much)


def test_compiled_gamblers_share_no_mutable_factor_rows():
    spec = build_parity_gambler(2)
    a, b = compile_gambler(spec), compile_gambler(spec)
    assert all(x is not y for x, y in zip(a.factors, b.factors))
    a.factors[0][0] = Fraction(7)
    assert compile_gambler(spec).factors == b.factors


def test_a_shared_orbit_table_is_read_only():
    spec = build_parity_gambler(2)
    shared = compile_gambler(spec).orbit
    assert compile_gambler(spec).orbit is shared
    before = [a.copy() for a in shared]
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert all(np.array_equal(a, b) for a, b in zip(shared, before))


def test_every_memo_is_bounded():
    for memo in (core._row_faults, engine._fair_row, engine._orbit_table):
        assert memo.cache_info().maxsize is not None


def test_orbit_codes_without_trailing_heads_are_the_leading_symbols():
    buf = prng_source(3).prefix_array(600)
    table = engine._Orbits.stack([engine._Orbits.of(_one_state(ProbVector.uniform(2).weights))] * 3)
    codes = table.codes(buf, 100, 357)
    assert codes.dtype == np.int64 and codes.shape == (257, 3)
    assert (codes == buf[100:357, None]).all()


def test_sampled_rows_share_one_object_per_weight():
    rng = random.Random(4)
    rows = [_random_bets(rng, 3, 8) for _ in range(200)]
    objects = {}
    for w in (w for row in rows for w in row.weights):
        assert objects.setdefault(w, w) is w
    assert all(sum(row.weights) == 1 for row in rows)


def test_window_exponents_default_lengths_are_the_prefix_lengths():
    caps = np.cumsum(np.random.default_rng(5).normal(size=2345))
    lengths = np.arange(1, len(caps) + 1, dtype=np.float64)
    for k in (2, 3):
        got = window_exponents(caps, k)
        want = window_exponents(caps, k, lengths)
        assert np.array([*got]).tobytes() == np.array([*want]).tobytes()


def test_a_sweep_reports_the_same_bytes_with_cold_and_warm_memos():
    src = f_family(2, "F", prng_source(6))
    budget = SweepBudget(samples=60, seed=9)
    include = [build_parity_gambler(2)]
    _clear_memos()
    cold = adversarial_sweep(2, src, 3000, budget, include).to_objs()
    warm = adversarial_sweep(2, src, 3000, budget, include).to_objs()
    assert engine._orbit_table.cache_info().hits > 0
    assert repr(cold) == repr(warm)
