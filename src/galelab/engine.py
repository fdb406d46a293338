"""Run gamblers over sequence prefixes and measure what they earn.

A run advances the leading head one symbol per step.  The bet placed at
step ``m`` is the bet distribution of the betting state reached *before*
symbol ``m`` is revealed, so a bet can never depend on the symbol it is
placed on; trailing heads sit at or behind the leading head and their
reads feed the *next* state, not the current bet.  Capital follows the
fair rule ``capital *= k * bet(realized symbol)``.

Besides the simulator this module provides the log2 of the scale-``s``
gale ``k**((s-1)*n) * d(w)``, sliding-window growth-exponent estimates
(finite-horizon proxies for limsup/liminf behaviour), an exact brute-force check of the
fair-betting identity over all short strings, and exact positional-cycle
analysis (head speeds and the position-deviation bound).

A single run is one :func:`walk` of a compiled gambler, in which only
the betting-state recurrence is serial.  A population of gamblers over
one source is one :func:`walk_population`, which moves every live
gambler at each step with one array gather.  Distinct runs over shared
immutable sources may execute concurrently.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from operator import mul
from typing import NamedTuple, TextIO

import numpy as np

from .core import (
    BANKRUPT_LOG2,
    GamblerSpec,
    ProbVector,
    log2_fraction,
    validate_gambler,
)
from .sequences import SequenceSource

__all__ = [
    "Capital",
    "RunTrace",
    "SpeedProfile",
    "ExponentEstimate",
    "CompiledGambler",
    "compile_gambler",
    "walk",
    "PopulationRun",
    "walk_population",
    "positions",
    "run_martingale",
    "run_log2_capitals",
    "window_exponents",
    "success_exponent",
    "sgale_log2",
    "check_martingale_property",
    "measure_speeds",
    "check_speed_bounds",
    "write_trajectory_csv",
    "TRACE_CAP",
    "CHUNK",
    "WINDOW_FRAC",
]

# full per-step traces up to this many steps; beyond it, capital is
# recorded on a subsampled grid (memory guard)
TRACE_CAP = 1_000_000

# the trailing share of a run whose growth exponents estimate its
# limsup and liminf
WINDOW_FRAC = 0.1

# steps per block of a population walk: a block of 500 gamblers holds
# 128k elements, 1 MB per int64 or float64 array
CHUNK = 256

# elements per log-term gather of a single walk: its index arrays stay
# at 32 KB however long the run
GATHER = 4096


@dataclass(frozen=True)
class Capital:
    """A capital value: its base-2 log ``bits`` (``BANKRUPT_LOG2`` once
    bankrupt) and, from an exact-mode run, the rational ``exact`` itself,
    of which ``bits`` is then ``log2_fraction(exact)``."""

    bits: float
    exact: Fraction | None = None

    def log2(self) -> float:
        return self.bits

    def exact_value(self) -> Fraction:
        if self.exact is None:
            raise ValueError("capital is in log2 mode; exact value unavailable")
        return self.exact

    @property
    def is_bankrupt(self) -> bool:
        return self.bits == BANKRUPT_LOG2


@dataclass
class RunTrace:
    """Columnar per-step record of a run.

    Row ``i`` is step ``steps[i]``; ``rows`` holds its betting-state index
    (``-1`` once bankrupt), realized symbol and log2 capital *after* its
    bet, which exact mode also keeps as ``exact`` rationals.  The last
    row is the martingale value of the whole prefix.  Runs longer than
    ``TRACE_CAP`` keep every ``recorded_every``-th step plus the last.
    """

    gambler: str
    source: str
    k: int
    n: int
    final_capital: Capital
    recorded_every: int
    compiled: CompiledGambler
    steps: np.ndarray
    rows: Walk
    exact: list[Fraction] | None

    def log2_capitals(self) -> np.ndarray:
        if self.exact is None:
            return self.rows.log2
        return np.array([log2_fraction(c) for c in self.exact], dtype=np.float64)

    def all_in_win_count(self) -> int:
        """Number of steps whose full-capital bet was on the realized symbol."""
        all_in = np.array([[w == 1 for w in b.weights] for b in self.compiled.bets])
        live = self.rows.states >= 0
        return int(all_in[self.rows.states[live], self.rows.symbols[live]].sum())


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


class _Orbits(NamedTuple):
    """Positional orbits as padded tables, one row per orbit: every
    trailing-head position of a run is read off this table.

    ``sums[o, r]`` is the sum of the first ``r`` movement bits of orbit
    ``o`` (preperiod then one cycle), ``pre``/``cyc`` its preperiod and
    cycle lengths, ``per_cycle`` its advances per cycle and ``powers`` the
    place values of its trailing reads in a code.  Orbits with fewer
    heads are padded with heads that never move and weigh nothing.
    """

    sums: np.ndarray
    pre: np.ndarray
    cyc: np.ndarray
    per_cycle: np.ndarray
    powers: np.ndarray

    @classmethod
    def of(cls, spec: GamblerSpec) -> _Orbits:
        """The one-row table of a gambler's orbit."""
        pre, cyc = _positional_orbit(spec)
        sums = np.cumsum(np.concatenate([np.zeros_like(cyc[:1]), pre, cyc]), axis=0)
        powers = spec.k ** np.arange(spec.head_count - 1, 0, -1)
        return cls(sums[None], np.array([len(pre)]), np.array([len(cyc)]),
                   cyc.sum(0)[None], powers[None])

    @classmethod
    def stack(cls, tables: list[_Orbits]) -> _Orbits:
        """The rows of one-row ``tables`` as one table, zero-padded to the
        longest orbit and the most heads."""
        count, rows, width = len(tables), *np.max([t.sums.shape[1:] for t in tables], 0)
        shapes = [(rows, width), (), (), (width,), (width,)]
        out = cls._make(np.zeros((count, *shape), dtype=np.int64) for shape in shapes)
        for o, table in enumerate(tables):
            for into, a in zip(out, table):
                into[(o, *map(slice, a.shape[1:]))] = a[0]
        return out

    def select(self, rows: np.ndarray) -> _Orbits:
        return self._make(a[rows] for a in self)

    def codes(self, buf: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Scanned codes of steps ``start..stop-1``, one column per orbit.

        The trailing positions before step ``m`` are the movement bits of
        the preperiod, of the whole cycles and of a partial cycle, read
        off ``sums`` one head at a time; the codes are array gathers.
        """
        m = np.arange(start, stop)[:, None]
        cycles = np.maximum(m - self.pre, 0) // self.cyc
        flat = m - cycles * self.cyc + np.arange(len(self.pre)) * self.sums.shape[1]
        codes = buf[start:stop, None] + np.zeros(len(self.pre), dtype=np.int64)
        for i in range(self.sums.shape[2]):
            trailing = self.sums[..., i].ravel()[flat] + cycles * self.per_cycle[:, i]
            codes += buf[trailing] * self.powers[:, i]
        return codes


def _compile_betting(spec: GamblerSpec):
    q_ids = list(spec.betting)
    q_index = {qid: i for i, qid in enumerate(q_ids)}
    trans = [[q_index[t] for t in spec.betting[qid].transitions] for qid in q_ids]
    bet_rows = [spec.betting[qid].bets for qid in q_ids]
    return q_ids, q_index, trans, bet_rows


class CompiledGambler(NamedTuple):
    """A validated gambler as flat tables, built once per run.

    ``next_state[q][code]`` is ``-1`` where state ``q`` bets nothing on the
    leading symbol of ``code`` (the gambler is bankrupt and stops),
    ``log_rows[q, s]`` is ``log2(k * w)`` of its bet weight ``w`` on ``s``
    and ``orbit`` is the one-row table of its positional orbit.
    """

    k: int
    head_count: int
    initial: Fraction
    q0: int
    state_ids: list[str]
    bets: list[ProbVector]
    next_state: list[list[int]]
    log_rows: np.ndarray
    orbit: _Orbits


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
    log_rows = np.array([[log2_fraction(k * w) for w in bets.weights]
                         for bets in bet_rows])
    return CompiledGambler(k, spec.head_count, spec.initial_capital,
                           q_index[spec.initial_q], q_ids, bet_rows, next_state,
                           log_rows, _Orbits.of(spec))


class Walk(NamedTuple):
    """Per-step betting states (up to a bankrupting step), and per-step
    leading symbols and log2 capitals (after the step, ``-inf`` once
    bankrupt)."""

    states: np.ndarray
    symbols: np.ndarray
    log2: np.ndarray


def walk(g: CompiledGambler, buf: np.ndarray, n: int) -> Walk:
    """Walk a compiled gambler over the first ``n`` symbols of ``buf``.

    The scanned codes are read off the orbit table ``GATHER`` steps at a
    time; only the betting-state recurrence ``q = next_state[q][code]``
    runs step by step.  The log2 capitals are one sequential cumulative
    sum, so each is the float a step-by-step running sum gives.
    """
    codes = chain.from_iterable(  # Python ints, converted as the walk reaches them
        memoryview(g.orbit.codes(buf, i, min(i + GATHER, n)).ravel())
        for i in range(0, n, GATHER))
    q, table, states = g.q0, g.next_state, array("q")
    record = states.append
    for code in codes:
        record(q)
        q = table[q][code]
        if q < 0:
            break
    states = np.frombuffer(states, dtype=np.int64)
    symbols = buf[:n]
    flat = g.log_rows.ravel()  # log_rows[q, s] is flat[q * k + s]
    terms = np.empty(len(states))
    for i in range(0, len(states), GATHER):
        j = min(i + GATHER, len(states))
        terms[i:j] = flat[states[i:j] * g.k + symbols[i:j]]
    terms[:1] += log2_fraction(g.initial)  # the running sum starts at log2(initial)
    log2 = np.cumsum(terms, out=terms)
    if len(states) < n:
        log2 = np.concatenate([log2, np.full(n - len(states), BANKRUPT_LOG2)])
    return Walk(states, symbols, log2)


def _compile_for(spec: GamblerSpec, source: SequenceSource) -> CompiledGambler:
    g = compile_gambler(spec)
    if source.alphabet_size != g.k:
        raise ValueError(
            f"source alphabet size {source.alphabet_size} != gambler's {g.k}")
    return g


def _walk_source(spec: GamblerSpec, source: SequenceSource, n: int):
    g = _compile_for(spec, source)
    return g, walk(g, source.prefix_array(n), n)


# ---------------------------------------------------------------------------
# population walks
# ---------------------------------------------------------------------------

class PopulationRun(NamedTuple):
    """Per-gambler outcome of a population walk, in input order: the
    label, the final log2 capital and the window growth exponents that
    :func:`window_exponents` gives for the gambler's own run."""

    labels: list[str]
    log2_final: np.ndarray
    limsup_est: np.ndarray
    liminf_est: np.ndarray


def walk_population(specs: Iterable[GamblerSpec], source: SequenceSource,
                    n: int) -> PopulationRun:
    """Walk many gamblers together over the first ``n`` symbols of a source.

    Each gambler is compiled as it is drawn from ``specs`` (an invalid one,
    or one over another alphabet, raises ``ValueError`` as a single run
    does) and only its table rows and label are kept.  Every betting
    state is a row of one flat table, and one shared absorbing row stands
    for bankruptcy.  A row's entries are the offsets of the next rows, so
    one step of the whole live population is one add and one gather,
    ``q = next_flat[q + code]``, and the log2 bet terms are a gather at
    the same indices.  Gamblers with one positional orbit read the same
    codes, which are computed once per orbit and per ``CHUNK`` steps.
    Each chunk's log2 capitals are a sequential cumulative sum seeded
    with the carried capital, so every value, and hence every exponent,
    is the float that :func:`walk` and :func:`window_exponents` give.
    Bankrupt gamblers leave the population at the end of a chunk.
    """
    k = source.alphabet_size
    labels: list[str] = []
    next_flat, log_flat, start, init = array("q"), array("d"), array("q"), array("d")
    orbits: dict[tuple, tuple[int, _Orbits]] = {}
    orbit_of, widest = array("q"), k
    for spec in specs:
        g = _compile_for(spec, source)
        width = k ** g.head_count  # codes per betting state
        base, widest = len(next_flat), max(widest, width)
        for row in g.next_state:
            next_flat.extend(-1 if t < 0 else base + t * width for t in row)
        log_flat.extend(np.tile(g.log_rows, width // k).ravel().tolist())
        key = tuple(a.tobytes() for a in g.orbit)  # powers fix the head count
        orbit_of.append(orbits.setdefault(key, (len(orbits), g.orbit))[0])
        start.append(base + g.q0 * width)
        init.append(log2_fraction(g.initial))
        labels.append(spec.label())
    out = [np.full(len(labels), BANKRUPT_LOG2) for _ in range(3)]
    if not labels:
        return PopulationRun(labels, *out)
    if n <= 0:
        raise ValueError("empty trace")
    log2_final, limsup, liminf = out
    bankrupt = len(next_flat)
    nxt = np.array(next_flat, dtype=np.int64)
    nxt = np.append(np.where(nxt < 0, bankrupt, nxt), np.full(widest, bankrupt))
    logs = np.append(np.array(log_flat), np.full(widest, BANKRUPT_LOG2))
    all_orbits = _Orbits.stack([orbit for _, orbit in orbits.values()])
    orbit_of = np.array(orbit_of, dtype=np.int64)
    buf = source.prefix_array(n)
    window = _window_start(n)

    live = np.arange(len(labels))
    q, carry = np.array(start, dtype=np.int64), np.array(init)
    hi, lo = np.full(len(live), -math.inf), np.full(len(live), math.inf)
    used, column = np.unique(orbit_of, return_inverse=True)
    for m0 in range(0, n, CHUNK):
        m1 = min(m0 + CHUNK, n)
        idx = all_orbits.select(used).codes(buf, m0, m1)[:, column]
        for row in idx:  # row becomes the flat index q + code of its step
            row += q
            q = nxt[row]
        caps = logs[idx]
        caps[0] += carry
        np.cumsum(caps, axis=0, out=caps)
        carry = caps[-1].copy()
        if m1 > window:
            ratios = caps[max(window - m0, 0):]
            ratios /= (np.arange(max(window, m0) + 1, m1 + 1, dtype=np.float64)
                       * math.log2(k))[:, None]
            np.maximum(hi, ratios.max(0), out=hi)
            np.minimum(lo, ratios.min(0), out=lo)
        alive = q != bankrupt
        if not alive.all():  # a bankrupt run's last capital, so its liminf, is -inf
            limsup[live[~alive]] = hi[~alive]
            live, q, carry, hi, lo = (a[alive] for a in (live, q, carry, hi, lo))
            if not len(live):
                break
            used, column = np.unique(orbit_of[live], return_inverse=True)
    log2_final[live], limsup[live], liminf[live] = carry, hi, lo
    return PopulationRun(labels, log2_final, limsup, liminf)


# ---------------------------------------------------------------------------
# positions and runs
# ---------------------------------------------------------------------------

def positions(spec: GamblerSpec, n: int) -> tuple[int, ...]:
    """Trailing-head position vector after ``n`` steps, read off the orbit
    table in Python integers, so it is exact for any ``n``."""
    o = _Orbits.of(spec)
    cyc = int(o.cyc[0])
    cycles = max(n - int(o.pre[0]), 0) // cyc
    base = o.sums[0, n - cycles * cyc].tolist()
    return tuple(b + cycles * c for b, c in zip(base, o.per_cycle[0].tolist()))


def run_martingale(spec: GamblerSpec, source: SequenceSource, n: int,
                   mode: str = "log2") -> RunTrace:
    """Simulate ``n`` steps and return the full trace.

    The final capital is the martingale value of the scanned prefix.  In
    exact mode every capital is an exact rational (bit counts grow with
    ``n``; intended for horizons up to about 10^4).  Log2 mode stores
    base-2 logs and is the default for long runs; bankruptcy is the
    absorbing ``-inf``.  An invalid gambler raises ``ValueError``.
    """
    if mode not in ("exact", "log2"):
        raise ValueError(f"unknown capital mode {mode!r}")
    g, w = _walk_source(spec, source, n)
    every = 1 if n <= TRACE_CAP else -(-n // TRACE_CAP)
    steps = np.append(np.arange(0, n - 1, every), n - 1) if n else np.arange(0)
    states = np.append(w.states, np.full(n - len(w.states), -1))
    rows = Walk(states[steps], w.symbols[steps], w.log2[steps])
    final = Capital(float(w.log2[-1]) if n else log2_fraction(g.initial))
    exact = None
    if mode == "exact":
        kw = [[g.k * p for p in row.weights] for row in g.bets]
        walked = zip(w.states.tolist(), w.symbols.tolist())
        caps = list(accumulate((kw[q][s] for q, s in walked), mul, initial=g.initial))
        caps += [Fraction(0)] * (n + 1 - len(caps))
        exact = [caps[m + 1] for m in steps.tolist()]
        final = Capital(log2_fraction(caps[-1]), caps[-1])
    return RunTrace(gambler=spec.label(), source=source.describe(), k=g.k, n=n,
                    final_capital=final, recorded_every=every, compiled=g,
                    steps=steps, rows=rows, exact=exact)


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

def _window_start(n: int) -> int:
    """First step of the trailing window of an ``n``-step run: its last
    ``WINDOW_FRAC`` share, and at least its last step."""
    return n - max(1, int(n * WINDOW_FRAC))


def window_exponents(log2_caps: np.ndarray, k: int,
                     prefix_lengths: np.ndarray | None = None) -> ExponentEstimate:
    """Max/min of ``log_k(capital)/n`` over the trailing window.

    The window is the final ``WINDOW_FRAC`` of the trace, which discards
    start-up transients; the max estimates the limsup and the min the
    liminf of the growth exponent.  A window that is entirely bankrupt
    yields the ``-inf`` sentinel in both slots.
    """
    m = log2_caps.shape[0]
    if m == 0:
        raise ValueError("empty trace")
    if prefix_lengths is None:
        prefix_lengths = np.arange(1, m + 1, dtype=np.float64)
    start = _window_start(m)
    denom = prefix_lengths[start:] * math.log2(k)
    with np.errstate(invalid="ignore"):
        ratios = log2_caps[start:] / denom
    return ExponentEstimate(float(np.max(ratios)), float(np.min(ratios)))


def success_exponent(trace: RunTrace) -> ExponentEstimate:
    """Sliding-window growth-exponent estimates for a trace.

    ``1 - limsup_est`` is the empirical upper bound on the dimension-like
    quantity this trace supports.  Requires at least 100 recorded steps;
    bankrupt capital shows up as the ``-inf`` sentinel.
    """
    if len(trace.steps) < 100:
        raise ValueError("trace too short for exponent estimation (need >= 100)")
    return window_exponents(trace.log2_capitals(), trace.k, trace.steps + 1.0)


def sgale_log2(log2_caps, lengths: Iterable[int], s: Fraction, k: int) -> np.ndarray:
    """Log2 of the scale-``s`` gale ``k**((s-1)*n) * d(w)`` at each prefix
    length ``n``, from the log2 capitals ``d(w)`` of those prefixes.

    ``s = 1`` is the identity (the plain martingale) and bankrupt stays
    ``-inf``.  The float of the rational exponent ``(s - 1) * n`` comes
    from correctly rounded integer division of Python ints.
    """
    e = Fraction(s) - 1
    shift = np.array([e.numerator * n / e.denominator for n in lengths],
                     dtype=np.float64)
    return np.asarray(log2_caps, dtype=np.float64) + shift * math.log2(k)


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
    o = _Orbits.of(spec)
    cyc = int(o.cyc[0])
    speeds = tuple(Fraction(a, cyc) for a in o.per_cycle[0].tolist())
    return SpeedProfile(speeds, cyc, int(o.pre[0]))


def check_speed_bounds(spec: GamblerSpec, n_max: int) -> bool:
    """Exact check that every head stays within ``|T|`` of its speed line.

    Verifies ``|pi_i(n) - speed_i * n| <= |T|`` for all ``n <= n_max``
    using integer arithmetic only.  Past the preperiod every cycle moves
    head ``i`` by exactly ``speed_i`` times the cycle length, so the
    deviation repeats with the cycle: ``n`` up to preperiod plus cycle
    decide every horizon.
    """
    o = _Orbits.of(spec)
    pos = o.sums[0, :max(n_max, 0) + 1]  # row n is the position after n steps
    n = np.arange(len(pos))[:, None]
    cyc = int(o.cyc[0])  # the bound times the cycle length, which keeps it integral
    deviation = np.abs(pos * cyc - o.per_cycle[0] * n)
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
    records how to reproduce it.  The scale-``s`` columns are
    :func:`sgale_log2` of the ``log2_capital`` column.
    """
    if config is not None:
        out.write("# " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "log2_capital"] + [f"sgale_{label}" for label, _ in s_values])
    lengths = (trace.steps + 1).tolist()
    log2 = trace.log2_capitals()
    columns = [lengths, log2.tolist()]
    columns += [sgale_log2(log2, lengths, s, trace.k).tolist() for _, s in s_values]
    row = ",".join(["{!r}"] * len(columns)) + "\n"
    out.writelines(map(row.format, *columns))
