"""Run gamblers over sequence prefixes and measure what they earn.

A run advances the leading head one symbol per step.  The bet placed at
step ``m`` is the bet distribution of the betting state reached *before*
symbol ``m`` is revealed, so a bet can never depend on the symbol it is
placed on; trailing heads sit at or behind the leading head and their
reads feed the *next* state, not the current bet.  Capital follows the
fair rule ``capital *= k * bet(realized symbol)``.

Besides the simulator this module provides the scale-``s`` reweighting
of capital, sliding-window growth-exponent estimates (finite-horizon
proxies for limsup/liminf behaviour), an exact brute-force check of the
fair-betting identity over all short strings, and exact positional-cycle
analysis (head speeds and the position-deviation bound).

Every run is one :func:`walk` of a compiled gambler, in which only the
betting-state recurrence is serial.  Distinct runs over shared immutable
sources may execute concurrently.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import NamedTuple, TextIO

import numpy as np

from .core import (
    BANKRUPT_LOG2,
    Capital,
    GamblerSpec,
    ProbVector,
    log2_fraction,
    validate_gambler,
)
from .sequences import SequenceSource

__all__ = [
    "TraceStep",
    "RunTrace",
    "SpeedProfile",
    "ExponentEstimate",
    "CompiledGambler",
    "compile_gambler",
    "walk",
    "positions",
    "run_martingale",
    "run_log2_capitals",
    "window_exponents",
    "success_exponent",
    "sgale_value",
    "check_martingale_property",
    "measure_speeds",
    "check_speed_bounds",
    "write_trajectory_csv",
    "TRACE_CAP",
]

# full per-step traces up to this many steps; beyond it, capital is
# recorded on a subsampled grid (memory guard)
TRACE_CAP = 1_000_000


class TraceStep(NamedTuple):
    """One recorded step; ``betting_state`` and ``bet`` are None once bankrupt."""

    n: int
    leading_pos: int
    trailing_positions: tuple[int, ...]
    betting_state: str | None
    bet: ProbVector | None
    realized_symbol: int
    capital: Capital


@dataclass
class RunTrace:
    """Columnar per-step record of a run.

    Row ``i`` is step ``step[i]``; ``rows`` holds its betting-state index
    (``-1`` once bankrupt), realized symbol, trailing positions and log2
    capital *after* its bet, which exact mode also keeps as ``exact``
    rationals.  The last row is the martingale value of the whole prefix.
    Runs longer than ``TRACE_CAP`` keep every ``recorded_every``-th step
    plus the last.  ``steps`` builds ``TraceStep`` records on demand.
    """

    gambler: str
    source: str
    k: int
    mode: str
    n: int
    final_capital: Capital
    recorded_every: int
    compiled: CompiledGambler
    step: np.ndarray
    rows: Walk
    exact: list[Fraction] | None

    @property
    def steps(self) -> TraceSteps:
        return TraceSteps(self)

    def log2_capitals(self) -> np.ndarray:
        if self.exact is None:
            return self.rows.log2
        return np.array([log2_fraction(c) if c else BANKRUPT_LOG2 for c in self.exact],
                        dtype=np.float64)

    def all_in_win_count(self) -> int:
        """Number of steps whose full-capital bet was on the realized symbol."""
        all_in = np.array([[w == 1 for w in b.weights] for b in self.compiled.bets])
        live = self.rows.states >= 0
        return int(all_in[self.rows.states[live], self.rows.symbols[live]].sum())


class TraceSteps(Sequence):
    """The rows of a ``RunTrace`` as ``TraceStep`` records, built on demand."""

    def __init__(self, trace: RunTrace):
        self.trace = trace

    def __len__(self) -> int:
        return len(self.trace.step)

    def __getitem__(self, i: int) -> TraceStep:
        t, g = self.trace, self.trace.compiled
        m, q = int(t.step[i]), int(t.rows.states[i])
        cap = (Capital(Capital.LOG2, float(t.rows.log2[i])) if t.exact is None
               else Capital(Capital.EXACT, t.exact[i]))
        return TraceStep(m, m, tuple(t.rows.trailing[i].tolist()),
                         g.state_ids[q] if q >= 0 else None,
                         g.bets[q] if q >= 0 else None, int(t.rows.symbols[i]), cap)


@dataclass(frozen=True)
class SpeedProfile:
    """Exact trailing-head speeds from the positional cycle.

    ``speeds[i] * cycle_length`` is the integer number of advances head
    ``i`` makes per cycle; positions stay within the number of positional
    states of ``speed * n``.
    """

    speeds: tuple[Fraction, ...]
    cycle_length: int
    preperiod_length: int


class ExponentEstimate(NamedTuple):
    limsup_est: float
    liminf_est: float


# ---------------------------------------------------------------------------
# compilation and the walk
# ---------------------------------------------------------------------------

def _positional_orbit(spec: GamblerSpec) -> tuple[np.ndarray, np.ndarray]:
    """Movement bits along the positional orbit from the initial state, as
    preperiod and cycle arrays with one row per step."""
    seen: dict[str, int] = {}
    t = spec.initial_t
    while t not in seen:
        seen[t] = len(seen)
        t = spec.positional[t].next_id
    mu = np.array([spec.positional[s].move_bits for s in seen], dtype=np.int64)
    mu = mu.reshape(len(seen), spec.head_count - 1)
    return mu[:seen[t]], mu[seen[t]:]


def _compile_betting(spec: GamblerSpec):
    q_ids = list(spec.betting)
    q_index = {qid: i for i, qid in enumerate(q_ids)}
    trans = [[q_index[t] for t in spec.betting[qid].transitions] for qid in q_ids]
    bet_rows = [spec.betting[qid].bets for qid in q_ids]
    return q_ids, q_index, trans, bet_rows


class CompiledGambler(NamedTuple):
    """A validated gambler as flat tables, built once per run.

    ``next_state[q][code]`` is ``-1`` where state ``q`` bets nothing on the
    leading symbol of ``code`` (the gambler is bankrupt and stops), and
    ``log_rows[q, s]`` is ``log2(k * w)`` of its bet weight ``w`` on ``s``.
    """

    k: int
    head_count: int
    initial: Fraction
    q0: int
    state_ids: list[str]
    bets: list[ProbVector]
    next_state: list[list[int]]
    log_rows: np.ndarray
    mu_pre: np.ndarray
    mu_cyc: np.ndarray


def compile_gambler(spec: GamblerSpec) -> CompiledGambler:
    """Validate a gambler and flatten it; an invalid one raises ``ValueError``."""
    report = validate_gambler(spec)
    if not report.ok:
        raise ValueError(f"invalid gambler {spec.label()}: "
                         + "; ".join(str(v) for v in report))
    k = spec.k
    q_ids, q_index, trans, bet_rows = _compile_betting(spec)
    next_state = [[-1 if bets.weights[code % k] == 0 else t
                   for code, t in enumerate(row)] for row, bets in zip(trans, bet_rows)]
    log_rows = np.array([[BANKRUPT_LOG2 if w == 0 else log2_fraction(k * w)
                          for w in bets.weights] for bets in bet_rows])
    return CompiledGambler(k, spec.head_count, spec.initial_capital,
                           q_index[spec.initial_q], q_ids, bet_rows, next_state,
                           log_rows, *_positional_orbit(spec))


class Walk(NamedTuple):
    """Per-step betting states (up to a bankrupting step), and per-step
    leading symbols, trailing positions (before the step) and log2
    capitals (after it, ``-inf`` once bankrupt)."""

    states: np.ndarray
    symbols: np.ndarray
    trailing: np.ndarray
    log2: np.ndarray


def walk(g: CompiledGambler, buf: np.ndarray, n: int) -> Walk:
    """Walk a compiled gambler over the first ``n`` symbols of ``buf``.

    Trailing positions are a cumulative sum of the tiled movement bits
    and the scanned codes are array gathers; only the betting-state
    recurrence ``q = next_state[q][code]`` runs step by step.  The log2
    capitals are one sequential cumulative sum, so each is the float a
    step-by-step running sum gives.
    """
    reps = -(-max(n - len(g.mu_pre), 0) // len(g.mu_cyc))
    trailing = np.concatenate([np.zeros_like(g.mu_cyc[:1]), g.mu_pre[:n],
                               np.tile(g.mu_cyc, (reps, 1))])[:n]
    np.cumsum(trailing, axis=0, out=trailing)  # row m sums the moves before step m
    symbols = buf[:n]
    powers = g.k ** np.arange(g.head_count - 1, 0, -1)
    codes = symbols if g.head_count == 1 else buf[trailing] @ powers + symbols
    q, table, states = g.q0, g.next_state, array("q")
    record = states.append
    for code in memoryview(codes):  # Python ints, converted as the walk reaches them
        record(q)
        q = table[q][code]
        if q < 0:
            break
    states = np.frombuffer(states, dtype=np.int64)
    terms = g.log_rows[states, symbols[:len(states)]]
    terms[:1] += log2_fraction(g.initial)  # the running sum starts at log2(initial)
    log2 = np.cumsum(terms, out=terms)
    if len(states) < n:
        log2 = np.concatenate([log2, np.full(n - len(states), BANKRUPT_LOG2)])
    return Walk(states, symbols, trailing, log2)


def _walk_source(spec: GamblerSpec, source: SequenceSource, n: int):
    g = compile_gambler(spec)
    if source.alphabet_size != g.k:
        raise ValueError(
            f"source alphabet size {source.alphabet_size} != gambler's {g.k}")
    return g, walk(g, source.prefix_array(n), n)


# ---------------------------------------------------------------------------
# positions and runs
# ---------------------------------------------------------------------------

def positions(spec: GamblerSpec, n: int) -> tuple[int, ...]:
    """Trailing-head position vector after ``n`` steps.

    The movement bits of the first ``n`` steps of the positional orbit,
    summed as the preperiod, whole cycles and a partial cycle, so large
    ``n`` costs only the preperiod plus one cycle.
    """
    mu_pre, mu_cyc = _positional_orbit(spec)
    full, partial = divmod(max(n - len(mu_pre), 0), len(mu_cyc))
    base = (mu_pre[:n].sum(0) + mu_cyc[:partial].sum(0)).tolist()
    return tuple(b + full * c for b, c in zip(base, mu_cyc.sum(0).tolist()))


def run_martingale(spec: GamblerSpec, source: SequenceSource, n: int,
                   mode: str = Capital.LOG2) -> RunTrace:
    """Simulate ``n`` steps and return the full trace.

    The final capital is the martingale value of the scanned prefix.  In
    exact mode every capital is an exact rational (bit counts grow with
    ``n``; intended for horizons up to about 10^4).  Log2 mode stores
    base-2 logs and is the default for long runs; bankruptcy is the
    absorbing ``-inf``.  An invalid gambler raises ``ValueError``.
    """
    if mode not in (Capital.EXACT, Capital.LOG2):
        raise ValueError(f"unknown capital mode {mode!r}")
    g, w = _walk_source(spec, source, n)
    every = 1 if n <= TRACE_CAP else -(-n // TRACE_CAP)
    step = np.append(np.arange(0, n - 1, every), n - 1) if n else np.arange(0)
    states = np.append(w.states, np.full(n - len(w.states), -1))
    rows = Walk(states[step], w.symbols[step], w.trailing[step], w.log2[step])
    final = Capital(Capital.LOG2, float(w.log2[-1]) if n else log2_fraction(g.initial))
    exact = None
    if mode == Capital.EXACT:
        kw = [[g.k * p for p in row.weights] for row in g.bets]
        walked = zip(w.states.tolist(), w.symbols.tolist())
        caps = list(accumulate((kw[q][s] for q, s in walked), mul, initial=g.initial))
        caps += [Fraction(0)] * (n + 1 - len(caps))
        exact = [caps[m + 1] for m in step.tolist()]
        final = Capital(Capital.EXACT, caps[-1])
    return RunTrace(gambler=spec.label(), source=source.describe(), k=g.k, mode=mode,
                    n=n, final_capital=final, recorded_every=every, compiled=g,
                    step=step, rows=rows, exact=exact)


def run_log2_capitals(spec: GamblerSpec, source: SequenceSource, n: int) -> np.ndarray:
    """Per-step log2 capitals without building a trace (batch runs).

    Agrees step for step with ``run_martingale(..., mode="log2")``; once
    bankrupt the remainder is ``-inf``.  An invalid gambler raises
    ``ValueError``.
    """
    return _walk_source(spec, source, n)[1].log2


# ---------------------------------------------------------------------------
# exponents and gales
# ---------------------------------------------------------------------------

def window_exponents(log2_caps: np.ndarray, k: int,
                     prefix_lengths: np.ndarray | None = None,
                     window_frac: float = 0.1) -> ExponentEstimate:
    """Max/min of ``log_k(capital)/n`` over the trailing window.

    The window is the final ``window_frac`` of the trace, which discards
    start-up transients; the max estimates the limsup and the min the
    liminf of the growth exponent.  A window that is entirely bankrupt
    yields the ``-inf`` sentinel in both slots.
    """
    m = log2_caps.shape[0]
    if m == 0:
        raise ValueError("empty trace")
    if prefix_lengths is None:
        prefix_lengths = np.arange(1, m + 1, dtype=np.float64)
    start = m - max(1, int(m * window_frac))
    denom = prefix_lengths[start:] * math.log2(k)
    with np.errstate(invalid="ignore"):
        ratios = log2_caps[start:] / denom
    return ExponentEstimate(float(np.max(ratios)), float(np.min(ratios)))


def success_exponent(trace: RunTrace, k: int) -> ExponentEstimate:
    """Sliding-window growth-exponent estimates for a trace.

    ``1 - limsup_est`` is the empirical upper bound on the dimension-like
    quantity this trace supports.  Requires at least 100 recorded steps;
    bankrupt capital shows up as the ``-inf`` sentinel.
    """
    if len(trace.steps) < 100:
        raise ValueError("trace too short for exponent estimation (need >= 100)")
    return window_exponents(trace.log2_capitals(), k, trace.step + 1.0)


def sgale_value(c: Capital, s: Fraction, n: int, k: int) -> Capital:
    """Reweight a capital by ``k**((s-1)*n)``.

    ``s = 1`` is the identity (plain martingale).  Exact mode is possible
    only when ``(s-1)*n`` is an integer; otherwise use log2 mode, where
    the reweighting is a float addition.
    """
    s = Fraction(s)
    if s < 0:
        raise ValueError("s must be non-negative")
    exponent = (s - 1) * n
    if c.mode == Capital.EXACT:
        if exponent.denominator != 1:
            raise ValueError(
                f"k**({exponent}) is not rational; run in log2 mode instead")
        return Capital(Capital.EXACT, c.value * Fraction(k) ** int(exponent))
    if c.value == BANKRUPT_LOG2:
        return Capital(Capital.LOG2, BANKRUPT_LOG2)
    return Capital(Capital.LOG2, c.value + float(exponent) * math.log2(k))


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def check_martingale_property(spec: GamblerSpec, depth: int) -> bool:
    """Brute-force the fair-betting identity over all strings below ``depth``.

    For every string ``w`` with ``|w| < depth`` the children values must
    satisfy ``sum_b d(wb) = k * d(w)`` in exact arithmetic, with trailing
    reads drawn consistently from the enumerated string itself.  Node
    count is ``k**depth``; keep ``depth`` small.
    """
    if depth > 20:
        raise ValueError("depth > 20 would enumerate too many nodes")
    k = spec.k
    h = spec.head_count
    mu_pre, mu_cyc = (mu.tolist() for mu in _positional_orbit(spec))
    q_ids, q_index, trans, bet_rows = _compile_betting(spec)
    path: list[int] = []

    def node(m: int, q: int, cap: Fraction, pos: tuple[int, ...]) -> bool:
        if m >= depth:
            return True
        row = bet_rows[q].weights
        children = [cap * k * row[b] for b in range(k)]
        if sum(children) != k * cap:
            return False
        bits = mu_pre[m] if m < len(mu_pre) else mu_cyc[(m - len(mu_pre)) % len(mu_cyc)]
        nxt = tuple(p + b for p, b in zip(pos, bits))
        for b in range(k):
            code = 0
            for i in range(h - 1):
                code = code * k + (path[pos[i]] if pos[i] < m else b)
            code = code * k + b
            path.append(b)
            ok = node(m + 1, trans[q][code], children[b], nxt)
            path.pop()
            if not ok:
                return False
        return True

    return node(0, q_index[spec.initial_q], spec.initial_capital,
                tuple([0] * (h - 1)))


def measure_speeds(spec: GamblerSpec) -> SpeedProfile:
    """Detect the positional cycle and return exact head speeds.

    Iterating the positional successor from the initial state must enter
    a cycle; the speed of head ``i`` is its advances per cycle divided by
    the cycle length.
    """
    mu_pre, mu_cyc = _positional_orbit(spec)
    cyc = len(mu_cyc)
    speeds = tuple(Fraction(a, cyc) for a in mu_cyc.sum(0).tolist())
    return SpeedProfile(speeds, cyc, len(mu_pre))


def check_speed_bounds(spec: GamblerSpec, n_max: int) -> bool:
    """Exact check that every head stays within ``|T|`` of its speed line.

    Verifies ``|pi_i(n) - speed_i * n| <= |T|`` for all ``n <= n_max``
    using integer arithmetic only.  Past the preperiod every cycle moves
    head ``i`` by exactly ``speed_i`` times the cycle length, so the
    deviation repeats with the cycle: ``n`` up to preperiod plus cycle
    decide every horizon.
    """
    mu_pre, mu_cyc = _positional_orbit(spec)
    moves = np.concatenate([np.zeros_like(mu_cyc[:1]), mu_pre, mu_cyc])
    n = np.arange(min(len(moves), max(n_max, 0) + 1))[:, None]
    pos = np.cumsum(moves, axis=0)[:len(n)]
    cyc = len(mu_cyc)  # the bound times the cycle length, which keeps it integral
    deviation = np.abs(pos * cyc - mu_cyc.sum(0) * n)
    return bool(np.all(deviation <= len(spec.positional) * cyc))


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------

def write_trajectory_csv(trace: RunTrace, out: TextIO,
                         s_values: Sequence[tuple[str, Fraction]] = (),
                         config: dict | None = None) -> None:
    """Write ``n,log2_capital`` plus one scale-``s`` column per request.

    Bankrupt capital is the literal string ``-inf``.  The producing
    config, when given, is embedded as a leading comment line so the file
    records how to reproduce it.  A scale-``s`` value is
    ``log2_capital + float((s - 1) * n) * log2(k)``; the float of the
    rational exponent comes from correctly rounded integer division.
    """
    if config is not None:
        out.write("# " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "log2_capital"] + [f"sgale_{label}" for label, _ in s_values])
    lengths = (trace.step + 1).tolist()
    log2 = trace.log2_capitals()
    columns = [lengths, log2.tolist()]
    for _, s in s_values:
        e = Fraction(s) - 1
        shift = np.array([e.numerator * n / e.denominator for n in lengths],
                         dtype=np.float64)
        columns.append((log2 + shift * math.log2(trace.k)).tolist())
    row = ",".join(["{!r}"] * len(columns)) + "\n"
    out.writelines(map(row.format, *columns))
