"""Bounded-memory trajectories: the row-block CSV writer, the trace as a
view of the walk, and exact capitals generated one at a time.

The one-shot writer below formats every row of a trace at once; the
block writer must write the same bytes.  The step-by-step product of
``k * w`` factors is the reference for the exact capitals.
"""

import csv
import functools
import io
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import galelab.engine as engine
from galelab import cli
from galelab.constructions import build_parity_gambler, single_minded_gambler
from galelab.core import BANKRUPT_LOG2, log2_fraction
from galelab.engine import (
    CSV_ROWS,
    compile_gambler,
    run_martingale,
    sgale_log2,
    walk,
    write_trajectory_csv,
)
from galelab.sequences import constant_source, f_family, prng_source

from gamblers import random_valid_gambler, two_state_swing_gambler

S_VALUES = [("1", Fraction(1)), ("0.8", Fraction(4, 5)), ("1/3", Fraction(1, 3)),
            ("7/5", Fraction(7, 5))]


def reference_write_trajectory_csv(trace, out, s_values=(), config=None):
    """The one-shot writer: every column of the trace as one list."""
    if config is not None:
        out.write("# " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "log2_capital"] + [f"sgale_{label}" for label, _ in s_values])
    log2 = trace.log2_capitals()
    columns = [(trace.steps + 1).tolist(), log2.tolist()]
    k = trace.compiled.k
    columns += [sgale_log2(log2, trace.steps + 1, s, k).tolist() for _, s in s_values]
    row = ",".join(["{!r}"] * len(columns)) + "\n"
    out.writelines(map(row.format, *columns))


def assert_same_csv(trace, s_values=S_VALUES):
    got, ref = io.StringIO(), io.StringIO()
    write_trajectory_csv(trace, got, s_values, config={"n": len(trace.steps)})
    reference_write_trajectory_csv(trace, ref, s_values, config={"n": len(trace.steps)})
    assert got.getvalue() == ref.getvalue()
    return got.getvalue()


def reference_exact_capitals(spec, source, n):
    """Exact capital after each of ``n`` steps, multiplied step by step."""
    g = compile_gambler(spec)
    buf = source.prefix_array(n)
    states = walk(g, source, n).states.tolist()
    factors = (spec.k * spec.betting[g.state_ids[q]].bets[s]
               for q, s in zip(states, buf.tolist()))
    caps = list(accumulate(factors, mul, initial=g.initial))[1:]
    return caps + [Fraction(0)] * (n - len(caps))


# ---------------------------------------------------------------------------
# the block writer against the one-shot writer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, CSV_ROWS - 1, CSV_ROWS, CSV_ROWS + 1,
                               3 * CSV_ROWS + 5])
def test_block_csv_matches_one_shot_writer(n):
    src = f_family(2, "F", prng_source(4))
    for spec in (build_parity_gambler(2), two_state_swing_gambler()):
        text = assert_same_csv(run_martingale(spec, src, n))
        assert text.count("\n") == 2 + n
    # non-dyadic bets: every log2 capital of these runs is a distinct float
    for seed, h in ((9, 1), (4, 2), (13, 2)):
        trace = run_martingale(random_valid_gambler(seed, h), src, n)
        assert len(np.unique(trace.log2_capitals().view(np.int64))) == n
        assert assert_same_csv(trace).count("\n") == 2 + n
    # a log2 column holding both zeros: grouped by bit pattern, -0.0 keeps its sign
    trace = run_martingale(build_parity_gambler(2), src, n)
    signed = trace.rows.log2.copy()
    signed[1::2][signed[1::2] == 0] = -0.0
    text = assert_same_csv(replace(trace, rows=trace.rows._replace(log2=signed)))
    if n >= 2:
        assert "\n1,0.0," in text and "\n2,-0.0," in text


def test_block_csv_matches_on_bankrupt_runs():
    src = f_family(2, "F", prng_source(4))
    for spec in (single_minded_gambler(0), random_valid_gambler(11, 2)):
        trace = run_martingale(spec, src, 3 * CSV_ROWS + 5)
        assert trace.final_capital.bits == BANKRUPT_LOG2
        assert ",-inf," in assert_same_csv(trace)


def test_block_csv_matches_in_exact_mode():
    for spec, src in ((two_state_swing_gambler(), prng_source(4)),
                      (single_minded_gambler(0), constant_source(0)),
                      (single_minded_gambler(0), f_family(2, "F", prng_source(4)))):
        assert_same_csv(run_martingale(spec, src, CSV_ROWS + 7, mode="exact"))


def test_block_csv_matches_on_integral_exact_log2_columns():
    """Exact-mode log2 columns of dyadic gamblers are whole numbers
    (``_log2_runs`` of capitals that are powers of 2): one that keeps
    doubling, and one whose block holds both whole capitals and ``-inf``."""
    n = 3 * CSV_ROWS // 2
    live = run_martingale(build_parity_gambler(2), f_family(2, "F", prng_source(4)), n,
                          mode="exact")
    bankrupt = run_martingale(build_parity_gambler(2), f_family(2, "Fprime", prng_source(4)),
                              n, mode="exact")
    for trace, bankrupts in ((live, False), (bankrupt, True)):
        log2 = trace.log2_capitals()
        finite = log2[np.isfinite(log2)]
        assert len(np.unique(finite)) > 5 and np.all(finite == np.trunc(finite))
        assert (trace.final_capital.bits == BANKRUPT_LOG2) == bankrupts
        assert (",-inf," in assert_same_csv(trace)) == bankrupts


def test_block_csv_matches_on_a_subsampled_trace(monkeypatch):
    monkeypatch.setattr(engine, "TRACE_CAP", CSV_ROWS + 404)
    trace = run_martingale(build_parity_gambler(2), f_family(2, "F", prng_source(4)),
                           3 * CSV_ROWS + 5)
    assert trace.recorded_every == 3 and len(trace.steps) == CSV_ROWS + 3
    assert_same_csv(trace)


@functools.cache
def non_dyadic_trace():
    """A live two-head run with distinct non-dyadic log2 capitals, as long
    as two blocks of rows."""
    return run_martingale(random_valid_gambler(13, 2), f_family(2, "F", prng_source(4)),
                          2 * CSV_ROWS)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(boundary=st.sampled_from([10, 1000, 100_000_000]), into=st.integers(2, 9),
       below=st.lists(st.integers(1, 40), max_size=CSV_ROWS - 2),
       above=st.lists(st.integers(1, 40), max_size=CSV_ROWS))
def test_block_csv_matches_on_strictly_increasing_steps(boundary, into, below, above):
    """Traces whose lengths rise by gaps, at least one of them above 1,
    and cross a digit-count boundary (9 to 10, 999 to 1000, 99 999 999 to
    100 000 000) inside their first block."""
    lengths = boundary - np.cumsum([into, *below])[::-1]
    lengths = np.concatenate([lengths[lengths >= 1], boundary + np.cumsum([0, *above])])
    assert 1 <= np.searchsorted(lengths, boundary) < CSV_ROWS
    trace = non_dyadic_trace()
    rows = trace.rows._replace(**{name: getattr(trace.rows, name)[:len(lengths)]
                                  for name in ("states", "symbols", "log2")})
    assert_same_csv(replace(trace, steps=lengths - 1, rows=rows))


def texts(rows):
    """The text of each NUL-padded row of a byte matrix."""
    return [row[row != 0].tobytes().decode("ascii") for row in rows]


# signed zeros, infinities, NaNs (quiet, negative, with a payload), the
# smallest and largest subnormals and the extremes of the normal range
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                  float(np.int64(0x7FF8_0000_0000_0001).view(np.float64)),
                  5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
                  2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]


# whole numbers across the float64 range: the largest below 1e16 (written
# as digits), 1e16 and 2^60 (written in exponent form)
INTEGRAL_FLOATS = st.one_of(
    st.integers(-2**53, 2**53).map(float),
    st.integers(-3000, 3000).map(float),
    st.sampled_from([0.0, -0.0, 9999999999999998.0, -9999999999999998.0, 1e16, -1e16,
                     2.0**53, 2.0**60, -2.0**60, 1e300]),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pool=st.lists(st.one_of(INTEGRAL_FLOATS, INTEGRAL_FLOATS,
                               st.sampled_from(SPECIAL_FLOATS), st.floats()),
                     min_size=1, max_size=40),
       picks=st.lists(st.integers(0, 1000), max_size=600))
def test_block_formatter_is_repr_of_every_value(pool, picks):
    """Blocks mostly of whole numbers, mixed with non-integral values,
    infinities and NaNs."""
    # drawing the block from a small pool makes values repeat
    col = np.array([pool[i % len(pool)] for i in picks], dtype=np.float64)
    assert texts(engine._cells(col, "{!r}")) == list(map(repr, col.tolist()))
    assert texts(engine._cells(col, ",{!r}\n")) == [f",{x!r}\n" for x in col.tolist()]


def test_only_whole_numbers_below_1e16_take_the_digit_path(monkeypatch):
    digits, digit_inputs = engine._digits, []

    def recording_digits(values):
        digit_inputs.extend(values.tolist())
        return digits(values)

    monkeypatch.setattr(engine, "_digits", recording_digits)
    col = np.array([9999999999999998.0, 1e16, 2.0**60, -0.0, 0.0, -3.0, 0.5, math.inf,
                    -math.inf, math.nan], dtype=np.float64)
    assert texts(engine._cells(col, ",{!r}")) == [f",{x!r}" for x in col.tolist()]
    assert sorted(digit_inputs) == [0, 0, 3, 9999999999999998]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(first=st.one_of(st.integers(0, 3000), st.integers(0, 10**12)),
       count=st.integers(0, 2 * CSV_ROWS))
def test_consecutive_lengths_are_their_str(first, count):
    """The ``n`` column of a trace that is not subsampled: every length's
    digits, across every digit-count boundary in the range."""
    want = list(map(str, range(first, first + count)))
    assert texts(engine._digits(np.arange(first, first + count, dtype=np.int64))) == want


@settings(max_examples=100, derandomize=True, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from([0, 9, 2**32 - 1, 2**32, 2**32 + 1,
                                                  10**17, 10**18]),
                                 st.integers(2**32 - 5, 2**32 + 5), st.integers(0, 10**18)),
                       max_size=50))
def test_lengths_across_the_32_bit_lanes_are_their_str(values):
    """``_digits`` divides in 32-bit lanes only while every value fits."""
    assert texts(engine._digits(np.array(values, dtype=np.int64))) == list(map(str, values))


def test_csv_writer_memory_is_flat_in_the_trace_length(tmp_path):
    n = 200_000
    trace = run_martingale(build_parity_gambler(2), f_family(2, "F", prng_source(4)), n)
    with open(tmp_path / "t.csv", "w", encoding="utf-8", newline="") as fh:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_trajectory_csv(trace, fh, S_VALUES[1:2], config={"n": n})
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2**20


# ---------------------------------------------------------------------------
# the trace is a view of the walk
# ---------------------------------------------------------------------------

def test_trace_rows_are_the_walk_arrays():
    n = 200_000
    src = f_family(2, "F", prng_source(4))
    src.prefix_array(n)
    tracemalloc.start()
    try:
        trace = run_martingale(build_parity_gambler(2), src, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(trace.rows.symbols, src.prefix_array(n))
    assert not trace.rows.states.flags.owndata  # the walk's buffer, not a copy
    # states, log2 capitals and steps at 8 bytes a step; copies of the
    # rows took 9.4 MB
    assert peak < 6 * 2**20


def test_bankrupt_trace_pads_states_after_the_bankrupting_step():
    trace = run_martingale(single_minded_gambler(0), f_family(2, "F", prng_source(4)), 50)
    first_loss = int(np.argmax(trace.rows.symbols != 0))
    states = trace.rows.states.tolist()
    assert states == [0] * (first_loss + 1) + [-1] * (49 - first_loss)


# ---------------------------------------------------------------------------
# exact capitals, one at a time
# ---------------------------------------------------------------------------

def test_exact_capitals_match_step_by_step_product():
    n = 700
    finals = []
    for h in (1, 2, 3):
        for seed in range(15):
            spec = random_valid_gambler(seed, h)
            src = f_family(2, "F", prng_source(seed))
            trace = run_martingale(spec, src, n, mode="exact")
            ref = reference_exact_capitals(spec, src, n)
            assert list(trace.exact_capitals()) == ref
            assert trace.final_capital.exact == ref[-1]
            assert trace.final_capital.bits == log2_fraction(ref[-1])
            finals.append(ref[-1])
    # bankrupt runs and non-dyadic capitals are both in the sample
    assert any(c == 0 for c in finals)
    assert any(c.denominator & (c.denominator - 1) for c in finals)


def test_exact_log2_column_takes_one_log_per_capital_move(monkeypatch):
    n = 2000
    src = f_family(2, "F", prng_source(4))
    calls = []

    def counted(x):
        calls.append(x)
        return log2_fraction(x)

    monkeypatch.setattr(engine, "log2_fraction", counted)
    logs = []
    for spec in (build_parity_gambler(2), two_state_swing_gambler(),
                 single_minded_gambler(0)):
        trace = run_martingale(spec, src, n, mode="exact")
        ref = reference_exact_capitals(spec, src, n)
        calls.clear()
        assert trace.log2_capitals().tolist() == [log2_fraction(c) for c in ref]
        assert len(calls) == 1 + sum(a != b for a, b in zip(ref, ref[1:]))
        logs.append(len(calls))
    # the parity winner doubles once per 5-step block, the swing gambler's
    # capital moves at every step and the all-in gambler's stops at 0
    assert logs[0] == n // 5 and logs[1] == n and logs[2] < 20


def test_exact_mode_memory_stays_far_below_one_rational_per_step():
    # a list of 1e5 capitals of this run took 145 MB
    n = 100_000
    src = f_family(2, "F", prng_source(4))
    src.prefix_array(n)
    tracemalloc.start()
    try:
        trace = run_martingale(build_parity_gambler(2), src, n, mode="exact")
        log2 = trace.log2_capitals()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.final_capital.exact == 2 ** 19_999
    assert log2[-1] == 19_999.0
    assert peak < 16 * 2**20


def test_exact_mode_refuses_horizons_beyond_the_trace_cap(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(engine, "TRACE_CAP", 100)
    src = f_family(2, "F", prng_source(4))
    assert len(run_martingale(build_parity_gambler(2), src, 100, mode="exact").steps) == 100
    with pytest.raises(ValueError, match="exact mode runs at most 100 steps, not 101"):
        run_martingale(build_parity_gambler(2), src, 101, mode="exact")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-seq", "--variant", "F", "--h", "2", "--seed", "1",
                     "--n", "101", "--out", "y.seq"]) == 0
    capsys.readouterr()
    assert cli.main(["simulate", "--gambler", "parity:h=2", "--seq", "y.seq",
                     "--mode", "exact", "--out", "t.csv"]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before the config is echoed
    assert "exact mode runs at most 100 steps" in captured.err
    assert not (tmp_path / "t.csv").exists()


def test_exact_capitals_are_refused_in_log2_mode():
    trace = run_martingale(build_parity_gambler(2), f_family(2, "F", prng_source(4)), 10)
    with pytest.raises(ValueError, match="log2 mode"):
        next(trace.exact_capitals())
