"""Bounded-memory trajectories: the row-block CSV writer, the trace as a
view of the walk, and exact capitals generated one at a time.

The one-shot writer below formats every row of a trace at once; the
block writer must write the same bytes.  The step-by-step product of
``k * w`` factors is the reference for the exact capitals.
"""

import csv
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
from galelab.core import log2_fraction
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
        assert trace.final_capital.is_bankrupt
        assert ",-inf," in assert_same_csv(trace)


def test_block_csv_matches_in_exact_mode():
    for spec, src in ((two_state_swing_gambler(), prng_source(4)),
                      (single_minded_gambler(0), constant_source(0)),
                      (single_minded_gambler(0), f_family(2, "F", prng_source(4)))):
        assert_same_csv(run_martingale(spec, src, CSV_ROWS + 7, mode="exact"))


def test_block_csv_matches_on_a_subsampled_trace(monkeypatch):
    monkeypatch.setattr(engine, "TRACE_CAP", CSV_ROWS + 404)
    trace = run_martingale(build_parity_gambler(2), f_family(2, "F", prng_source(4)),
                           3 * CSV_ROWS + 5)
    assert trace.recorded_every == 3 and len(trace.steps) == CSV_ROWS + 3
    assert_same_csv(trace)


# signed zeros, infinities, NaNs (quiet, negative, with a payload), the
# smallest and largest subnormals and the extremes of the normal range
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                  float(np.int64(0x7FF8_0000_0000_0001).view(np.float64)),
                  5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
                  2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(pool=st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                     min_size=1, max_size=40),
       picks=st.lists(st.integers(0, 1000), max_size=600))
def test_block_formatter_is_repr_of_every_value(pool, picks):
    # drawing the block from a small pool makes values repeat
    col = np.array([pool[i % len(pool)] for i in picks], dtype=np.float64)
    assert engine._float_reprs(col, "{!r}") == list(map(repr, col.tolist()))
    assert engine._float_reprs(col, ",{!r}\n") == [f",{x!r}\n" for x in col.tolist()]


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
