"""Compilation at the cost of a population's distinct parts.

A bet row is analysed once, on the row itself (``ProbVector.faults`` and
``ProbVector.fair``); the sampler shares one object per drawn row, and
orbit tables are memoised on their ints.  Every compiled gambler must
equal what the unmemoised expressions give for its very objects,
whatever the memos held before.
"""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import galelab
import galelab.core as core
import galelab.engine as engine
from galelab.analysis import SweepBudget, _random_bets, adversarial_sweep
from galelab.constructions import build_parity_gambler
from galelab.core import (
    BettingState,
    GamblerSpec,
    PositionalState,
    ProbVector,
    log2_fraction,
    validate_gambler,
)
from galelab.engine import _orbit_moves, compile_gambler, window_exponents
from galelab.sequences import f_family, prng_source

from gamblers import random_valid_gambler

# every module-level memo of the package
MEMOS = [obj for module in vars(galelab).values() if isinstance(module, type(galelab))
         for obj in vars(module).values() if hasattr(obj, "cache_info")]


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def _one_state(weights, k: int = 2) -> GamblerSpec:
    return GamblerSpec(
        k=k,
        head_count=1,
        positional={"t0": PositionalState("t0", ())},
        betting={"q0": BettingState(ProbVector(tuple(weights)), ("q0",) * k)},
        initial_t="t0",
        initial_q="q0",
    )


def _reference(spec: GamblerSpec):
    """Factors, log rows, next states and orbit table fields by the
    unmemoised expressions."""
    k = spec.k
    q_index = {q: i for i, q in enumerate(spec.betting)}
    factors = [[k * w for w in st.bets.weights] for st in spec.betting.values()]
    logs = np.array([[log2_fraction(f) for f in row] for row in factors])
    nxt = [[-1 if fs[code % k] == 0 else q_index[t] for code, t in enumerate(st.transitions)]
           for st, fs in zip(spec.betting.values(), factors)]
    moves, pre = _orbit_moves(spec)
    mu = np.array(moves, dtype=np.int64).reshape(len(moves), spec.head_count - 1)
    pre, cyc = mu[:pre], mu[pre:]
    sums = np.cumsum(np.concatenate([np.zeros_like(cyc[:1]), pre, cyc]), axis=0)
    orbit = (sums, len(pre), len(cyc), cyc.sum(0), k ** np.arange(spec.head_count - 1, 0, -1),
             k ** spec.head_count)
    return factors, logs, nxt, orbit


def _assert_compiles_as_reference(spec: GamblerSpec):
    g = compile_gambler(spec)
    factors, logs, nxt, orbit = _reference(spec)
    assert g.factors == factors
    assert [list(map(type, row)) for row in g.factors] == [list(map(type, row)) for row in factors]
    assert g.log_rows.dtype == logs.dtype and g.log_rows.tobytes() == logs.tobytes()
    assert g.next_state == nxt
    assert len(g.orbit) == len(orbit)
    for a, b in zip(g.orbit, orbit):
        assert type(a) is type(b)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        else:
            assert a == b


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seeds=st.lists(st.integers(0, 10_000), min_size=2, max_size=6),
       h=st.integers(1, 3))
def test_a_compile_that_hits_the_memos_equals_the_unmemoised_one(seeds, h):
    specs = [random_valid_gambler(seed, h) for seed in seeds]
    _clear_memos()
    for spec in specs:  # later specs find shared rows and orbits analysed
        _assert_compiles_as_reference(spec)
    for spec in specs:  # and all of them a second time
        _assert_compiles_as_reference(spec)
    assert engine._orbit_table.cache_info().hits >= len(specs)


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
    arrays = [a for a in shared if isinstance(a, np.ndarray)]
    assert len(arrays) == 3
    before = [a.copy() for a in arrays]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))


def test_every_memo_is_bounded():
    assert {memo.__name__ for memo in MEMOS} == {"_orbit_table", "_bets"}
    for memo in MEMOS:
        assert memo.cache_info().maxsize is not None


def test_orbit_blocks_without_trailing_heads_are_the_leading_symbols():
    buf = prng_source(3).prefix_array(600)
    table = engine._Orbits.of(_one_state(ProbVector.uniform(2).weights))
    values = table.blocks(buf, 100, 357, 3)
    codes = np.append(buf[100:357], 0)  # 257 steps: the last block is padded with code 0
    assert values.dtype == np.int64 and values.shape == (86,)
    assert (values == codes.reshape(-1, 3) @ [1, 2, 4]).all()


def test_equal_sampled_rows_with_one_denominator_are_one_object():
    rng, probe = random.Random(4), random.Random()
    rows = {}
    for _ in range(2000):
        probe.setstate(rng.getstate())
        den = probe.randint(1, 8)  # the denominator the row is drawn over
        row = _random_bets(rng, 2, 8)
        assert rows.setdefault((den, row.weights), row) is row
        assert sum(row.weights) == 1
    assert len(rows) == sum(den + 1 for den in range(1, 9))  # every row, each once


def test_a_second_compile_analyses_no_row(monkeypatch):
    _clear_memos()
    spec = random_valid_gambler(11, 2)
    first = compile_gambler(spec)
    logs = []
    monkeypatch.setattr(core, "log2_fraction", lambda x: logs.append(x) or log2_fraction(x))
    again = compile_gambler(spec)
    assert logs == []
    assert again.factors == first.factors and np.array_equal(again.log_rows, first.log_rows)
    fresh = dataclasses.replace(spec, betting={  # equal rows, new objects
        q: BettingState(ProbVector(tuple(st.bets.weights)), st.transitions)
        for q, st in spec.betting.items()})
    assert compile_gambler(fresh).factors == first.factors
    assert len(logs) == spec.k * len(spec.betting)


def _faults(weights) -> tuple[str, ...]:
    faults = ("negative bet weight",) if any(w < 0 for w in weights) else ()
    total = sum(weights, Fraction(0))
    return faults + ((f"bet weights sum to {total}, expected 1",) if total != 1 else ())


def _fair(weights):
    factors = tuple(len(weights) * w for w in weights)
    return factors, tuple(map(log2_fraction, factors))


def _outcome(compute):
    """The repr of what ``compute()`` returns (it shows each number's
    type), or the type of what it raises."""
    try:
        return repr(compute())
    except (AttributeError, ValueError) as err:  # a float's log2, a negative one
        return type(err)


def _as(kind: str, w: Fraction):
    if kind == "float":
        return float(w)
    return int(w) if kind == "int" and w.denominator == 1 else w


@settings(max_examples=60, derandomize=True, deadline=None)
@given(values=st.lists(st.fractions(-1, 2, max_denominator=10), min_size=2, max_size=4),
       to_one=st.booleans(),
       kinds=st.lists(st.lists(st.sampled_from(["int", "Fraction", "float"]),
                               min_size=4, max_size=4), min_size=1, max_size=6))
def test_a_row_analysis_equals_the_unmemoised_expressions(values, to_one, kinds):
    """Rows of equal values and mixed types (``1 == Fraction(1) == 1.0``,
    all hashing alike) each get the analysis of their own numbers."""
    if to_one:
        values[-1] = 1 - sum(values[:-1])
    rows = [tuple(_as(kind, w) for kind, w in zip(ks, values)) for ks in kinds]
    vectors = [ProbVector(row) for row in rows]
    for _ in range(2):  # computed, then read back
        for row, vector in zip(rows, vectors):
            assert _outcome(lambda: vector.faults) == _outcome(lambda: _faults(row))
            assert _outcome(lambda: vector.fair) == _outcome(lambda: _fair(row))


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
