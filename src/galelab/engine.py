"""Run gamblers over sequence prefixes and measure what they earn.

A run advances the leading head one symbol per step.  The bet placed at
step ``m`` is the bet distribution of the betting state reached *before*
symbol ``m`` is revealed, so a bet can never depend on the symbol it is
placed on; trailing heads sit at or behind the leading head and their
reads feed the *next* state, not the current bet.  Capital follows the
fair rule ``capital *= k * bet(realized symbol)``, whose factors
:func:`compile_gambler` tabulates once as ``CompiledGambler.factors``;
every capital, exact or log2, is read off that table.

Besides the simulator this module provides the log2 of the scale-``s``
gale ``k**((s-1)*n) * d(w)``, sliding-window growth-exponent estimates
(finite-horizon proxies for limsup/liminf behaviour), an exact brute-force check of the
fair-betting identity over all short strings, and exact positional-cycle
analysis (head speeds and the position-deviation bound).

Both walks move ``B`` steps per serial iteration through the jump tables
of one compiler, :func:`_tables`, which flattens compiled gamblers into
one-step rows and one absorbing row, and sizes the tables to a fixed
budget.  A single run is one :func:`walk` of a compiled gambler, a Python
list lookup per block; a population of gamblers over one source is one
:func:`walk_population`, one array gather per block for every live
gambler.  Distinct runs over shared immutable sources may execute
concurrently.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, TextIO

import numpy as np

from .core import (
    BANKRUPT_LOG2,
    LOG2_ERROR,
    GamblerSpec,
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
    "window_exponents",
    "success_exponent",
    "sgale_log2",
    "check_martingale_property",
    "measure_speeds",
    "check_speed_bounds",
    "write_trajectory_csv",
    "TRACE_CAP",
    "CSV_ROWS",
    "CHUNK",
    "WINDOW_FRAC",
]

# full per-step traces up to this many steps; beyond it, capital is
# recorded on a subsampled grid, and exact mode refuses.  The cap bounds
# the retained trace and the CSV's rows, not the walk: ``walk`` holds
# the whole run before ``run_martingale`` subsamples it
TRACE_CAP = 1_000_000

# rows per block of a trajectory CSV: a block's columns are formatted
# together, so the writer's memory stays flat in the trace length
CSV_ROWS = 4096

# the trailing share of a run whose growth exponents estimate its
# limsup and liminf
WINDOW_FRAC = 0.1

# most steps per chunk of a population walk, which holds whole blocks of
# its stride: a chunk of 500 gamblers holds 128k elements, 1 MB per int64
# or float64 array
CHUNK = 256

# entries of a walk's jump table and per-step tables together, as many
# as one chunk of 500 gamblers: 1 MB at 8 bytes each
_TABLE_ENTRIES = 2**17

# steps per gather of block values off the orbit tables, in both walks:
# a single walk gathers its entries as often, so its arrays stay at 32 KB
# however long the run; a population walk gathers whole chunks for its
# live gamblers' orbits, 32 KB of codes per orbit
GATHER = 4096

# nodes per level block of the fair-betting check: a block's states and
# live flags take 320 KB, so the check's memory stays flat in its depth
NODE_BLOCK = 2**16


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
    bet.  The last row is the martingale value of the whole prefix.  Runs
    longer than ``TRACE_CAP`` keep every ``recorded_every``-th step plus
    the last; otherwise ``rows`` is the walk itself.  Either way
    ``rows.counts`` counts every step of the run.  An exact-mode run is
    one whose final capital holds an exact rational.
    """

    final_capital: Capital
    recorded_every: int
    compiled: CompiledGambler
    steps: np.ndarray
    rows: Walk

    def exact_capitals(self) -> Iterator[Fraction]:
        """Exact capital after each recorded step of an exact-mode run.

        A fresh generator on each call, keeping one capital live; exact
        runs are never subsampled, so it yields one capital per step.
        """
        if self.final_capital.exact is None:
            raise ValueError("trace is in log2 mode; exact capitals unavailable")
        yield from _exact_capitals(self.compiled, self.rows)

    def log2_capitals(self) -> np.ndarray:
        if self.final_capital.exact is None:
            return self.rows.log2
        return np.fromiter(_log2_runs(self.exact_capitals()), np.float64,
                           count=len(self.steps))

    def all_in_win_count(self) -> int:
        """Number of steps whose full-capital bet was on the realized symbol,
        over every step of the run (subsampled rows included)."""
        all_in = np.array(self.compiled.factors) == self.compiled.k
        return int(self.rows.counts[all_in].sum())

    def log2_error_bound(self) -> float:
        """A bound, in bits, on the error of every finite value of
        :meth:`log2_capitals` and of the final capital's ``bits``.

        In log2 mode a value is a sequential float sum of ``log2(initial)``
        and one ``log_rows`` entry per step.  Against the exact sum of
        those floats it errs by at most ``gamma(m) * S``, with ``S`` the sum
        of their magnitudes, ``m`` the number of additions and
        ``gamma(m) = m*u / (1 - m*u)``, ``u = 2**-53`` (Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2nd ed., 2002, 4.2).  Each
        float term errs by at most ``LOG2_ERROR * (1 + |term|)`` against its
        logarithm, once per visit.  Both are read off the visit counts of
        the whole run, so the bound covers every prefix.  In exact mode a
        value is one ``log2_fraction`` of an exact capital, whose magnitude
        is at most ``S`` plus the log2-mode bound.
        """
        g = self.compiled
        finite = np.isfinite(g.log_rows)  # a zero bet ends the finite values
        visits = self.rows.counts[finite].astype(np.float64)
        terms = np.abs(g.log_rows[finite])
        start = abs(log2_fraction(g.initial))
        magnitude = start + float(visits @ terms)
        mu = float(visits.sum()) * 2.0 ** -53
        bound = (mu / (1 - mu) * magnitude
                 + LOG2_ERROR * (1 + start + float(visits @ (1 + terms))))
        if self.final_capital.exact is None:
            return bound
        largest = (magnitude + bound + LOG2_ERROR) / (1 - LOG2_ERROR)
        return LOG2_ERROR * (1 + largest)


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

def _orbit_moves(spec: GamblerSpec) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Movement bits of each state of the positional orbit from the
    initial state, in orbit order, and the length of its preperiod."""
    seen: dict[str, int] = {}
    t = spec.initial_t
    while t not in seen:
        seen[t] = len(seen)
        t = spec.positional[t].next_id
    return tuple(spec.positional[s].move_bits for s in seen), seen[t]


class _Orbits(NamedTuple):
    """A positional orbit as a table: every trailing-head position of a
    run is read off it, and both walks read their block values off it
    (:meth:`blocks`).

    ``sums[r]`` holds the sums of the first ``r`` movement bits of each
    trailing head (preperiod then one cycle), ``pre``/``cyc`` are the
    preperiod and cycle lengths, ``per_cycle`` each head's advances per
    cycle, ``powers`` the place values of the trailing reads in a code and
    ``width`` the codes per step, ``k**h``.
    """

    sums: np.ndarray
    pre: int
    cyc: int
    per_cycle: np.ndarray
    powers: np.ndarray
    width: int

    @classmethod
    def of(cls, spec: GamblerSpec) -> _Orbits:
        """The table of a gambler's orbit.

        Gamblers with one orbit share one table, built once per alphabet
        size, head count, and movement bits of the preperiod and the
        cycle; its arrays are read-only."""
        return _orbit_table(spec.k, spec.head_count, *_orbit_moves(spec))

    def blocks(self, buf: np.ndarray, start: int, stop: int, stride: int) -> np.ndarray:
        """Block values of steps ``start..stop-1``.

        Step ``m`` scans the code ``c_m = buf[m] + sum_i powers[i] *
        buf[p_i]``, ``p_i`` the position of trailing head ``i`` before it,
        and a block of ``stride`` steps has the value ``v = sum_j c_j *
        width**j``; the last block is padded with code 0.  Before the
        preperiod ends a head's position is ``sums[m]``; after it, the
        head's in-cycle prefix sum plus whole cycles times its advances per
        cycle, one outer sum per head, sliced at the first step's phase in
        the cycle.
        """
        pre, cyc, count = self.pre, self.cyc, stop - start
        codes = np.zeros(-(-count // stride) * stride, dtype=np.int64)
        codes[:count] = buf[start:stop]
        cycles, phase = divmod(max(start - pre, 0), cyc)
        late = stop - max(start, pre)  # steps past the preperiod
        rounds = np.arange(cycles, cycles - (-(phase + late) // cyc))
        for sums, advance, power in zip(self.sums.T, self.per_cycle, self.powers):
            ring = np.add.outer(rounds * advance, sums[pre:pre + cyc])
            at = np.concatenate([sums[start:min(stop, pre)], ring.ravel()[phase:phase + late]])
            codes[:count] += buf[at] * power
        return codes.reshape(-1, stride) @ self.width ** np.arange(stride)


# distinct orbits whose tables are kept: the sweeps' populations share
# one orbit at h = 1 and a few dozen at h = 2
_ORBIT_MEMO = 256


@functools.lru_cache(maxsize=_ORBIT_MEMO, typed=True)
def _orbit_table(k: int, h: int, moves: tuple, pre: int) -> _Orbits:
    """The orbit table of :meth:`_Orbits.of`, with read-only arrays.
    Move bits of any type become int64; ``typed`` keeps apart a float ``k``,
    whose ``powers`` would be floats."""
    mu = np.array(moves, dtype=np.int64).reshape(len(moves), h - 1)
    pre_bits, cyc = mu[:pre], mu[pre:]
    sums = np.cumsum(np.concatenate([np.zeros_like(cyc[:1]), pre_bits, cyc]), axis=0)
    per_cycle, powers = cyc.sum(0), k ** np.arange(h - 1, 0, -1)
    for a in (sums, per_cycle, powers):
        a.flags.writeable = False
    return _Orbits(sums, pre, len(cyc), per_cycle, powers, k ** h)


def _compile_betting(spec: GamblerSpec):
    q_ids = list(spec.betting)
    q_index = {qid: i for i, qid in enumerate(q_ids)}
    trans = [[q_index[t] for t in spec.betting[qid].transitions] for qid in q_ids]
    bet_rows = [spec.betting[qid].bets for qid in q_ids]
    return q_ids, q_index, trans, bet_rows


class CompiledGambler(NamedTuple):
    """A validated gambler as flat tables, built once per run.

    ``factors[q][s]`` is the fair factor ``k * w`` of betting state ``q``'s
    bet weight ``w`` on symbol ``s``: a step from ``q`` on ``s`` multiplies
    the capital by it.  ``next_state[q][code]`` is ``-1`` where that factor
    is 0 for the leading symbol of ``code`` (the gambler is bankrupt and
    stops), ``log_rows[q, s]`` is ``log2(factors[q][s])`` and ``orbit`` is
    the table of its positional orbit.
    """

    k: int
    head_count: int
    initial: Fraction
    q0: int
    state_ids: list[str]
    factors: list[list[Fraction]]
    next_state: list[list[int]]
    log_rows: np.ndarray
    orbit: _Orbits


def compile_gambler(spec: GamblerSpec) -> CompiledGambler:
    """Validate a gambler and flatten it; an invalid one raises ``ValueError``.

    The work grows with a population's distinct parts, not its gamblers:
    each bet row object is checked and turned into fair factors and their
    logs once (``ProbVector.faults`` and ``ProbVector.fair``), and each
    distinct orbit into one shared read-only table (:meth:`_Orbits.of`).
    Every gambler gets its own ``factors`` lists.  A float bet weight,
    which validation lets through when its row sums to 1, is refused here."""
    report = validate_gambler(spec)
    if not report.ok:
        raise ValueError(f"invalid gambler {spec.label()}: {report}")
    k = spec.k
    q_ids, q_index, trans, bet_rows = _compile_betting(spec)
    fair = []
    for qid, bets in zip(q_ids, bet_rows):
        try:
            fair.append(bets.fair)
        except AttributeError:  # a float has no numerator for log2_fraction
            raise ValueError(f"invalid gambler {spec.label()}: betting[{qid}]: "
                             "bet weights must be exact rationals, not floats") from None
    # a factor's log2 is -inf exactly where the factor is 0
    next_state = [[-1 if logs[code % k] == BANKRUPT_LOG2 else t for code, t in enumerate(row)]
                  for row, (_, logs) in zip(trans, fair)]
    factors = [list(fs) for fs, _ in fair]
    log_rows = np.array([logs for _, logs in fair])
    return CompiledGambler(k, spec.head_count, spec.initial_capital,
                           q_index[spec.initial_q], q_ids, factors, next_state,
                           log_rows, _Orbits.of(spec))


class Walk(NamedTuple):
    """Per-step betting states (up to a bankrupting step), and per-step
    leading symbols and log2 capitals (after the step, ``-inf`` once
    bankrupt).  ``counts[q, s]`` is how often betting state ``q`` met
    symbol ``s`` over every step walked, the bankrupting step included."""

    states: np.ndarray
    symbols: np.ndarray
    log2: np.ndarray
    counts: np.ndarray


def _check_alphabet(source: SequenceSource, k: int) -> None:
    if source.alphabet_size != k:
        raise ValueError(f"source alphabet size {source.alphabet_size} != gambler's {k}")


class _Tables(NamedTuple):
    """Compiled gamblers as ``stride``-step jump tables (see :func:`_tables`):
    from the row at offset ``r`` the block of codes ``v`` leads to the row
    at ``jump[r + v]``, and its step ``j`` reads the one-step entry
    ``reads[j, r + v]``, a row's one-step offset plus that step's code,
    whose log2 term is ``logs[reads[j, r + v]]``.  Gambler ``i`` starts at
    the row at jump-table offset ``start[i]``; the absorbing row is last,
    at one-step offset ``bankrupt``."""

    stride: int
    jump: np.ndarray
    reads: np.ndarray
    logs: np.ndarray
    start: np.ndarray
    bankrupt: int


def _tables(gamblers: Iterable[CompiledGambler]) -> _Tables:
    """Compile ``gamblers``, drawn one at a time, into one set of jump tables.

    Each betting state is first a row of its ``w = k**h`` codes in one-step
    tables: ``nxt[o + c]`` is the one-step offset of the row that code
    ``c`` leads to from the row at offset ``o``, and ``logs[o + c]`` the log2
    term of that step.  One absorbing row, as wide as the widest and with
    ``-inf`` terms, follows them all and stands for bankruptcy.  The
    stride ``B`` is the largest whose jump table and ``B`` per-step
    tables, ``B + 1`` arrays of ``sum(w**B)`` entries over the rows, fit in
    ``_TABLE_ENTRIES``, and 1 when even two-step tables do not.  The entry
    at ``v = sum(c_j * w**j)`` of a row walks its ``B`` codes ``c_j`` in
    the one-step tables, all entries at once; ``reads`` takes the smallest
    unsigned dtype that holds the one-step offsets.
    """
    next_flat, log_flat, start, row_widths = array("q"), array("d"), array("q"), array("q")
    for g in gamblers:
        width, base = g.k ** g.head_count, len(next_flat)  # codes per betting state
        for row, logs in zip(g.next_state, g.log_rows.tolist()):
            next_flat.extend(-1 if t < 0 else base + t * width for t in row)
            log_flat.extend(logs * (width // g.k))  # code c bets on symbol c % k
        row_widths.extend([width] * len(g.next_state))
        start.append(base + g.q0 * width)
    bankrupt, widest = len(next_flat), max(row_widths, default=1)
    row_widths.append(widest)
    nxt = np.array(next_flat, dtype=np.int64)
    nxt = np.append(np.where(nxt < 0, bankrupt, nxt), np.full(widest, bankrupt))
    logs = np.append(np.array(log_flat), np.full(widest, BANKRUPT_LOG2))
    widths = np.array(row_widths, dtype=np.int64)
    counts, stride = Counter(row_widths), 1
    while stride < CHUNK and (stride + 2) * sum(
            c * w ** (stride + 1) for w, c in counts.items()) <= _TABLE_ENTRIES:
        stride += 1
    rows, sizes = np.cumsum(widths) - widths, widths ** stride
    offsets = np.cumsum(sizes) - sizes
    moved = np.zeros(len(nxt), dtype=np.int64)  # jump-table offset of each row
    moved[rows] = offsets
    at, w = np.repeat(rows, sizes), np.repeat(widths, sizes)  # each entry's row
    block = np.arange(len(at)) - np.repeat(offsets, sizes)
    reads = np.empty((stride, len(at)), dtype=np.min_scalar_type(len(nxt)))
    for into in reads:  # step j reads digit j of the block
        block, code = np.divmod(block, w)
        at += code
        into[:] = at
        at = nxt[at]
    return _Tables(stride, moved[at], reads, logs,
                   moved[np.array(start, dtype=np.int64)], bankrupt)


def walk(g: CompiledGambler, source: SequenceSource, n: int) -> Walk:
    """Walk a compiled gambler over the first ``n`` symbols of ``source``.

    A source over another alphabet raises ``ValueError``.  The gambler's
    :func:`_tables` are those of a population of one, with the stride
    ``B`` that :func:`walk_population` would give it; the jump table is
    one plain list per row whose values are the ``|Q| + 1`` row indices,
    one shared int object each.  Each block's ``B`` scanned codes are one
    entry ``v`` of a row, and :meth:`_Orbits.blocks` reads the blocks'
    ``v`` off the orbit table ``GATHER`` steps at a time (a whole number
    of blocks, the last one padded with code 0): the only serial work is
    one list lookup per block, ``q = jump[q][v]``.  The rows before the blocks become one array,
    through ``bytes`` while they fit a byte, and each block's entry is
    ``v`` plus its row's offset.  The one-step entry each step reads is
    then one gather per step of a block, at the blocks' entries;
    bankruptcy is read off the absorbing row once per gather of codes,
    and the run ends at the bankrupting step, so padded steps are never
    counted.  After the loop the entries give everything else: the visit
    counts are one ``bincount``, the log terms one gather whose
    sequential cumulative sum makes each log2 capital the float a
    step-by-step running sum gives, and the betting states the entries
    divided by ``w = k**h``.
    """
    _check_alphabet(source, g.k)
    symbols = source.prefix_array(n)
    t, rows, w = _tables([g]), len(g.next_state), g.k ** g.head_count
    stride, size = t.stride, w ** t.stride
    ids = np.arange(rows + 1).astype(object)  # the lists share one int per row
    jump, q = ids[t.jump // size].reshape(rows + 1, size).tolist(), g.q0
    packed = (lambda a: np.frombuffer(bytes(a), np.uint8)) if rows < 256 else np.array
    entries, end = np.empty(n, dtype=np.int64), n
    span = stride * (GATHER // stride)
    for m0 in range(0, n, span):
        m1 = min(m0 + span, n)
        blocks = g.orbit.blocks(symbols, m0, m1, stride)  # each block's v
        before = packed([q] + [q := jump[q][v] for v in memoryview(blocks)])[:-1]
        blocks += np.multiply(before, size, dtype=np.int64)  # each block's entry
        for j, table in enumerate(t.reads):
            into = entries[m0 + j:m1:stride]
            into[:] = table[blocks[:len(into)]]
        if q == rows:  # the first entry in the absorbing row ends the run
            dead = np.flatnonzero(entries[m0:m1] >= t.bankrupt)
            end = m0 + int(dead[0]) if len(dead) else m1
            break
    entries = entries[:end]
    counts = np.bincount(entries, minlength=t.bankrupt).reshape(rows, -1, g.k).sum(1)
    terms = np.take(t.logs, entries)
    terms[:1] += log2_fraction(g.initial)  # the running sum starts at log2(initial)
    log2 = np.cumsum(terms, out=terms)
    if end < n:
        log2 = np.concatenate([log2, np.full(n - end, BANKRUPT_LOG2)])
    entries //= w  # each step's betting state
    return Walk(entries, symbols, log2, counts)


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
    does) and fed to :func:`_tables`; only its label, initial capital and
    positional orbit are kept besides its rows.  Every betting state is a
    row of one flat jump table, and one shared absorbing row stands for
    bankruptcy.  The walk moves ``B`` steps at a time: the row of a state
    with ``w`` codes per step has one entry per block of ``B`` codes
    ``c_j``, at ``v = sum(c_j * w**j)``, holding the offset of the row
    reached after them.  One block of the whole live population is then
    one add and one gather, ``q = jump[q + v]``, and the log2 bet terms of
    its steps are ``B`` gathers at the same indices, one in each step's
    log table, ``logs`` taken at that step's ``reads``.  ``B`` is derived
    from the population by :func:`_tables` (1 MB at 8 bytes an entry): the
    sweep's 500 sampled gamblers and planted winner get ``B = 3`` at
    ``h = 1`` and ``B = 2`` at ``h = 2``.  Gamblers with one positional
    orbit read the same block values ``v``, which :meth:`_Orbits.blocks`
    reads off each live gambler's orbit table, one column per distinct
    table, once per gather: as many whole chunks of at most ``CHUNK``
    steps, each a whole number of blocks, as fit ``GATHER`` steps, and
    one chunk if none does.
    A chunk slices its rows of the gather's values and takes one column
    per live gambler; a bankrupt gambler's column leaves with it.  A run's
    last block is padded with code 0 and the padded steps' terms are
    dropped, so liveness is read from the carried capital, ``-inf`` once
    bankrupt, never from the state after the padding.  Per-step log2
    capitals are formed only in chunks that reach the trailing window, as
    a sequential cumulative sum seeded with the carried capital; a chunk
    before it only carries its capital, one ``np.add.reduce`` down the
    chunk's columns.  numpy sums pairwise only along the fast axis, so
    down two or more columns of a C-contiguous array it adds row by row,
    the float of the cumsum's last row; a single live column is the fast
    axis and keeps the cumsum.  Every value, and hence every exponent, is
    thus the float that :func:`walk` and :func:`window_exponents` give.
    Bankrupt gamblers leave the population at the end of a chunk.
    """
    k = source.alphabet_size
    labels: list[str] = []
    init, orbit_of = array("d"), array("q")
    orbits: dict[int, tuple[int, _Orbits]] = {}  # by id; holding each table keeps its id unique

    def compiled() -> Iterator[CompiledGambler]:
        for spec in specs:
            g = compile_gambler(spec)
            _check_alphabet(source, g.k)
            orbit_of.append(orbits.setdefault(id(g.orbit), (len(orbits), g.orbit))[0])
            init.append(log2_fraction(g.initial))
            labels.append(spec.label())
            yield g

    stride, jump, reads, logs, q, _ = _tables(compiled())
    out = [np.full(len(labels), BANKRUPT_LOG2) for _ in range(3)]
    if not labels:
        return PopulationRun(labels, *out)
    if n <= 0:
        raise ValueError("empty trace")
    log2_final, limsup, liminf = out
    step_logs = np.take(logs, reads)
    tables = [table for _, table in orbits.values()]
    orbit_of = np.array(orbit_of, dtype=np.int64)
    buf = source.prefix_array(n)
    window = _window_start(n)

    live = np.arange(len(labels))
    carry = np.array(init)
    hi, lo = np.full(len(live), -math.inf), np.full(len(live), math.inf)
    span = stride * (CHUNK // stride)
    gather = span * max(GATHER // span, 1)
    for m0 in range(0, n, span):
        m1 = min(m0 + span, n)
        if not m0 % gather:  # the block values of the live gamblers' orbits
            used, column = np.unique(orbit_of[live], return_inverse=True)
            values = np.stack([tables[o].blocks(buf, m0, min(m0 + gather, n), stride)
                               for o in used]).T  # rows stack 3-4x faster than columns
        first = m0 % gather // stride
        idx = np.take(values[first:first + span // stride], column, axis=1)
        blocks = len(idx)
        for row in idx:  # row becomes the jump index q + v of its block
            row += q
            q = jump[row]
        caps = np.empty((blocks, stride, len(live)))
        for j, table in enumerate(step_logs):
            np.take(table, idx, out=caps[:, j])
        caps = caps.reshape(-1, len(live))[:m1 - m0]
        caps[0] += carry
        if m1 <= window and len(live) > 1:  # row by row: the cumsum's last row
            carry = np.add.reduce(caps, axis=0)
        else:  # the window reads every step; a lone column would sum pairwise
            np.cumsum(caps, axis=0, out=caps)
            carry = caps[-1].copy()
        if m1 > window:
            lengths = np.arange(max(window, m0) + 1, m1 + 1, dtype=np.float64)
            top, bottom = _window_extremes(caps[max(window - m0, 0):],
                                           lengths[:, None], k)
            np.maximum(hi, top, out=hi)
            np.minimum(lo, bottom, out=lo)
        alive = carry != BANKRUPT_LOG2  # q may have passed the padded codes
        if not alive.all():  # a bankrupt run's last capital, so its liminf, is -inf
            limsup[live[~alive]] = hi[~alive]
            live, q, carry, hi, lo, column = (a[alive] for a in (live, q, carry, hi, lo, column))
            if not len(live):
                break
    log2_final[live], limsup[live], liminf[live] = carry, hi, lo
    return PopulationRun(labels, log2_final, limsup, liminf)


# ---------------------------------------------------------------------------
# positions and runs
# ---------------------------------------------------------------------------

def positions(spec: GamblerSpec, horizons: Iterable[int]) -> list[tuple[int, ...]]:
    """Trailing-head position vectors after each of ``horizons`` steps,
    read off one orbit table in Python integers, so exact for any horizon."""
    o = _Orbits.of(spec)
    sums, per_cycle = o.sums.tolist(), o.per_cycle.tolist()
    out = []
    for n in horizons:
        if n < 0:
            raise ValueError(f"negative horizon {n}")
        cycles = max(n - o.pre, 0) // o.cyc
        out.append(tuple(b + cycles * c for b, c in zip(sums[n - cycles * o.cyc], per_cycle)))
    return out


def _exact_capitals(g: CompiledGambler, rows: Walk) -> Iterator[Fraction]:
    """Exact capital after each step of ``rows``, multiplied by its factor
    along the walk, so one capital is live at a time.  A factor of 1 is
    skipped, so the same object is yielded until the capital moves."""
    moves = [[None if f == 1 else f for f in row] for row in g.factors]
    cap = g.initial
    for q, s in zip(memoryview(rows.states), memoryview(rows.symbols)):
        if cap:  # q is -1 only after the capital reached 0
            factor = moves[q][s]
            if factor is not None:
                cap *= factor
        yield cap


def _log2_runs(caps: Iterable[Fraction]) -> Iterator[float]:
    """``log2_fraction`` of each of ``caps``, computed once per run of the
    same capital object."""
    last = bits = None
    for cap in caps:
        if cap is not last:
            last, bits = cap, log2_fraction(cap)
        yield bits


def _coprime_fraction(powers: Mapping[int, int]) -> Fraction:
    """The rational ``prod(b ** e)`` over ``powers``, ``{b: e}`` with
    positive integer bases.

    Bases that share a factor are split on their gcd until every two are
    coprime, which cancels small bases before any is raised to its power.
    The numerator (the powers with ``e > 0``) and the denominator (``e < 0``)
    are then coprime by construction, so the big powers need no gcd.  For
    the non-dyadic swing gambler of the tests at 1e6 steps, that gcd of
    two 1.5-million-bit integers takes 4.5 s, against 0.4 s for the whole
    exact run without it (2-core x86-64 host).
    """
    bases: dict[int, int] = {}
    pending = list(powers.items())
    while pending:
        b, e = pending.pop()
        if b == 1 or e == 0:
            continue
        for a in bases:
            common = math.gcd(a, b)
            if common > 1:  # a * b shrinks by a factor of common, so this ends
                ea = bases.pop(a)
                pending += [(common, ea + e), (a // common, ea), (b // common, e)]
                break
        else:
            bases[b] = e
    num = math.prod(b ** e for b, e in bases.items() if e > 0)
    den = math.prod(b ** -e for b, e in bases.items() if e < 0)
    try:
        return Fraction._from_coprime_ints(num, den)  # Python >= 3.12
    except AttributeError:
        return Fraction(num, den, _normalize=False)


def _exact_final(g: CompiledGambler, counts: np.ndarray) -> Fraction:
    """The final exact capital from a walk's visit counts,
    ``initial * prod(factors[q][s] ** counts[q, s])``."""
    factors = [g.factors[q][s] for q, s in np.argwhere(counts).tolist()]
    if not all(factors):
        return Fraction(0)
    powers = Counter({g.initial.numerator: 1})
    powers[g.initial.denominator] -= 1
    for f, c in zip(factors, counts[counts > 0].tolist()):
        powers[f.numerator] += c
        powers[f.denominator] -= c
    return _coprime_fraction(powers)


def run_martingale(spec: GamblerSpec, source: SequenceSource, n: int,
                   mode: str = "log2") -> RunTrace:
    """Simulate ``n`` steps and return the trace.

    The final capital is the martingale value of the scanned prefix.  Up
    to ``TRACE_CAP`` steps the trace's rows are the walk's own arrays;
    beyond it they are a subsampled copy.  The cap bounds what the trace
    keeps and the CSV rows written from it, not the peak: the whole walk,
    17 bytes per step, is held before it is subsampled.  Log2 mode stores
    base-2 logs and is the default for long runs; bankruptcy is the
    absorbing ``-inf``.  In exact mode the final capital is an exact
    rational, read off the walk's visit counts as one product of powers;
    the per-step capitals, which :meth:`RunTrace.exact_capitals`
    multiplies out one at a time, are computed only when asked for.  Exact capitals grow to
    Theta(n) bits, so the per-step ones take time quadratic in ``n``, and
    exact mode refuses more than ``TRACE_CAP`` steps.  An invalid gambler,
    an unknown mode or such a horizon raises ``ValueError``.
    """
    if mode not in ("exact", "log2"):
        raise ValueError(f"unknown capital mode {mode!r}")
    if mode == "exact" and n > TRACE_CAP:
        raise ValueError(f"exact mode runs at most {TRACE_CAP} steps, not {n}")
    g = compile_gambler(spec)
    w = walk(g, source, n)
    if len(w.states) < n:  # bankrupt: no betting state from the next step on
        w = w._replace(states=np.concatenate([w.states, np.full(n - len(w.states), -1)]))
    every = 1 if n <= TRACE_CAP else -(-n // TRACE_CAP)
    if every == 1:
        steps = np.arange(n)
    else:
        steps = np.append(np.arange(0, n - 1, every), n - 1)
        w = w._replace(states=w.states[steps], symbols=w.symbols[steps],
                       log2=w.log2[steps])
    final = Capital(float(w.log2[-1]) if n else log2_fraction(g.initial))
    if mode == "exact":
        exact = _exact_final(g, w.counts)
        final = Capital(log2_fraction(exact), exact)
    return RunTrace(final_capital=final, recorded_every=every, compiled=g,
                    steps=steps, rows=w)


# ---------------------------------------------------------------------------
# exponents and gales
# ---------------------------------------------------------------------------

def _window_start(n: int) -> int:
    """First step of the trailing window of an ``n``-step run: its last
    ``WINDOW_FRAC`` share, and at least its last step."""
    return n - max(1, int(n * WINDOW_FRAC))


def _window_extremes(log2_caps: np.ndarray, lengths: np.ndarray, k: int):
    """Max and min over axis 0 of log_k(capital)/n; divides ``log2_caps`` in place."""
    with np.errstate(invalid="ignore"):
        log2_caps /= lengths * math.log2(k)
    return log2_caps.max(0), log2_caps.min(0)


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
    start = _window_start(m)
    if prefix_lengths is None:  # the window's own lengths only
        lengths = np.arange(start + 1, m + 1, dtype=np.float64)
    else:
        lengths = prefix_lengths[start:]
    top, bottom = _window_extremes(log2_caps[start:].astype(np.float64), lengths, k)
    return ExponentEstimate(float(top), float(bottom))


def success_exponent(trace: RunTrace) -> ExponentEstimate:
    """Sliding-window growth-exponent estimates for a trace.

    ``1 - limsup_est`` is the empirical upper bound on the dimension-like
    quantity this trace supports.  Requires at least 100 recorded steps;
    bankrupt capital shows up as the ``-inf`` sentinel.
    """
    if len(trace.steps) < 100:
        raise ValueError("trace too short for exponent estimation (need >= 100)")
    return window_exponents(trace.log2_capitals(), trace.compiled.k, trace.steps + 1.0)


def sgale_log2(log2_caps, lengths: Iterable[int], s: Fraction, k: int) -> np.ndarray:
    """Log2 of the scale-``s`` gale ``k**((s-1)*n) * d(w)`` at each prefix
    length ``n``, from the log2 capitals ``d(w)`` of those prefixes.

    ``s = 1`` is the identity (the plain martingale) and bankrupt stays
    ``-inf``.  The float of the rational exponent ``(s - 1) * n`` is one
    correctly rounded division: of float64 numbers over an int64 array
    when the numerator ``num * n`` and the denominator are exact in a
    float64, and of Python ints otherwise, with the same value.
    """
    e = Fraction(s) - 1
    num, den = e.numerator, e.denominator
    n = lengths if isinstance(lengths, np.ndarray) else np.array(list(lengths))
    if (n.dtype.kind in "iu" and den <= 2**53
            and abs(num) * max(int(n.max(initial=0)), -int(n.min(initial=0))) < 2**53):
        shift = n * float(num)
        shift /= float(den)
    else:
        shift = np.array([num * m / den for m in n.tolist()], dtype=np.float64)
    # in place: freeing column-sized temporaries fragments the heap, which
    # raised the peak RSS of a 2e5-row trajectory job by 3 MB
    shift *= math.log2(k)
    shift += np.asarray(log2_caps, dtype=np.float64)
    return shift


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def check_martingale_property(spec: GamblerSpec, depth: int) -> bool:
    """Brute-force the fair-betting identity over all strings below ``depth``.

    For every string ``w`` with ``|w| < depth`` the children values must
    satisfy ``sum_b d(wb) = k * d(w)`` in exact arithmetic, with trailing
    reads drawn from the enumerated string itself.  A child's value is
    ``d(wb) = d(w) * k * w_b`` for the bet row ``w`` of the betting state
    reached after ``w``, so the identity reads ``d(w) * sum_b k * w_b =
    k * d(w)``: it holds when ``d(w) = 0``, and otherwise exactly when
    ``sum_b k * w_b == k``.  The verdict therefore depends only on which
    rows are reached with nonzero capital, and no capital is multiplied.

    The strings are enumerated level by level in numpy.  Node ``x`` of
    level ``m + 1`` is its string read as a base-``k`` number: its parent
    is ``x // k``, its newest symbol ``x % k``, and a trailing head at
    position ``p`` reads the digit ``(x // k**(m - p)) % k`` (a head at
    or past the newest symbol reads that symbol).  Each node carries its
    betting state, ``trans[q[parent], code]``, and whether its capital is
    nonzero; every state a live node reaches must pass the exact row
    test.  The cost is ``k**depth`` nodes at ``O(h)`` array operations
    per level.  A level wider than ``NODE_BLOCK`` nodes is expanded depth
    first in blocks of that many, so memory is at most ``NODE_BLOCK``
    nodes per level however deep the tree.  A block without a live node
    is not expanded, since every capital below it is zero.
    """
    if depth > 20:
        raise ValueError("depth > 20 would enumerate too many nodes")
    k, h = spec.k, spec.head_count
    _, q_index, trans, bet_rows = _compile_betting(spec)
    trans = np.array(trans, dtype=np.int32)
    rows = [[bets[b] for b in range(k)] for bets in bet_rows]
    fair = np.array([sum(k * w for w in row) == k for row in rows])
    nonzero = np.array([[w != 0 for w in row] for row in rows], dtype=bool)
    places = [k ** i for i in range(h - 1, 0, -1)]  # of the trailing reads in a code
    # node numbers stay below k**depth: int64 up to 2**63, Python ints past it
    number = np.int64 if k ** depth < 2**63 else object
    heads = positions(spec, range(depth))  # heads[m]: trailing positions before step m

    def below(m: int, x0: int, q: np.ndarray, live: np.ndarray) -> bool:
        """Whether every live node under level-``m`` nodes ``x0, x0+1, ...``
        with states ``q`` and live flags ``live`` passes, to level depth-1."""
        if m + 1 >= depth:
            return True
        step = max(NODE_BLOCK // k, 1)
        for i in range(0, len(q), step):
            qs, ls = q[i:i + step], live[i:i + step]
            if not ls.any():
                continue
            # a child's read at offset r >= 1 behind its newest symbol is
            # its parent's digit at offset r - 1
            x = np.arange(x0 + i, x0 + i + len(qs), dtype=number)
            code, newest = np.zeros(len(qs), dtype=np.int64), 1
            for p, place in zip(heads[m], places):
                r = m - min(p, m)
                if r:
                    code += (x // k ** (r - 1) % k * place).astype(np.int64)
                else:
                    newest += place
            qc = trans[qs[:, None], code[:, None] + np.arange(k) * newest].ravel()
            lc = (ls[:, None] & nonzero[qs]).ravel()
            if not fair[qc[lc]].all() or not below(m + 1, (x0 + i) * k, qc, lc):
                return False
        return True

    q = np.array([q_index[spec.initial_q]])
    live = np.array([spec.initial_capital != 0])
    return depth <= 0 or (bool(fair[q[live]].all()) and below(0, 0, q, live))


def measure_speeds(spec: GamblerSpec) -> SpeedProfile:
    """Detect the positional cycle and return exact head speeds.

    Iterating the positional successor from the initial state must enter
    a cycle; the speed of head ``i`` is its advances per cycle divided by
    the cycle length.
    """
    o = _Orbits.of(spec)
    return SpeedProfile(tuple(Fraction(a, o.cyc) for a in o.per_cycle.tolist()), o.cyc, o.pre)


def check_speed_bounds(spec: GamblerSpec, n_max: int) -> bool:
    """Exact check that every head stays within ``|T|`` of its speed line.

    Verifies ``|pi_i(n) - speed_i * n| <= |T|`` for all ``n <= n_max``
    using integer arithmetic only.  Past the preperiod every cycle moves
    head ``i`` by exactly ``speed_i`` times the cycle length, so the
    deviation repeats with the cycle: ``n`` up to preperiod plus cycle
    decide every horizon.
    """
    o = _Orbits.of(spec)
    pos = o.sums[:max(n_max, 0) + 1]  # row n is the position after n steps
    n = np.arange(len(pos))[:, None]
    # the bound times the cycle length, which keeps it integral
    deviation = np.abs(pos * o.cyc - o.per_cycle * n)
    return bool(np.all(deviation <= len(spec.positional) * o.cyc))


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------

def _digits(values: np.ndarray) -> np.ndarray:
    """The decimal text of each non-negative int64 of ``values``, one row
    of ASCII bytes each, right-aligned and padded on the left with NUL."""
    top = int(values.max(initial=0))
    places = 10 ** np.arange(len(str(top)) - 1, -1, -1)[:, None]
    digits = np.empty((len(places), len(values)), dtype=np.uint8)
    rest = values.astype(np.uint32) if top < 2**32 else values  # 32-bit lanes divide faster
    for row in digits[::-1]:  # one division by 10 per place, the ones first
        quotient = rest // 10
        row[:] = rest - quotient * 10
        rest = quotient
    digits += ord("0")
    digits[:-1] *= values >= places[:-1]  # NUL for a leading zero; the ones stay
    return digits.T


def _cells(col: np.ndarray, template: str) -> np.ndarray:
    """``template.format(x)`` for each value ``x`` of the float64 array
    ``col``, where ``template`` formats ``x`` as ``{!r}``: one row of ASCII
    bytes each, whose text is the row without its NULs.

    Values are grouped by bit pattern, so each distinct pattern is
    formatted once and ``-0.0`` keeps its sign; a gale at its critical
    ``s`` takes a few dozen distinct values in a block of ``CSV_ROWS``.
    An integral value below 1e16 in magnitude, such as every log2 capital
    of a dyadic gambler, is its sign, :func:`_digits` and ``.0``, which
    is its ``repr``; ``repr`` formats the rest.
    """
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    # from 1e16 up, repr writes whole numbers in exponent form
    whole = (np.abs(values) < 1e16) & (values == np.trunc(values))
    prefix, suffix = template.encode().split(b"{!r}")
    ints = values[whole]
    digit_texts = np.hstack([
        np.tile(np.frombuffer(prefix, np.uint8), (len(ints), 1)),
        np.where(np.signbit(ints), ord("-"), 0).astype(np.uint8)[:, None],
        _digits(np.abs(ints).astype(np.int64)),
        np.tile(np.frombuffer(b".0" + suffix, np.uint8), (len(ints), 1))])
    others = np.array(list(map(template.format, values[~whole].tolist())), dtype=np.bytes_)
    texts = np.zeros((len(values), max(digit_texts.shape[1], others.itemsize)), np.uint8)
    texts[whole, :digit_texts.shape[1]] = digit_texts
    texts[~whole, :others.itemsize] = others.view(np.uint8).reshape(len(others), others.itemsize)
    return np.take(texts, inverse, axis=0)  # several times faster than texts[inverse]


def write_trajectory_csv(trace: RunTrace, out: TextIO,
                         s_values: Sequence[tuple[str, Fraction]] = (),
                         config: dict | None = None) -> None:
    """Write ``n,log2_capital`` plus one scale-``s`` column per request.

    Bankrupt capital is the literal string ``-inf``.  The producing
    config, when given, is embedded as a leading comment line so the file
    records how to reproduce it.  The scale-``s`` columns are
    :func:`sgale_log2` of the ``log2_capital`` column.  Rows are
    formatted ``CSV_ROWS`` at a time into one byte matrix with a
    NUL-padded row per CSV row, :func:`_digits` of the lengths beside
    :func:`_cells` of each float column; the block's text is the matrix
    without its NULs, written as one string, so beyond the trace's log2
    column the writer's memory does not grow with the trace.
    """
    if config is not None:
        out.write("# " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "log2_capital"] + [f"sgale_{label}" for label, _ in s_values])
    # each float cell carries the separator before it; the last ends the row
    templates = [",{!r}"] * len(s_values) + [",{!r}\n"]
    log2, k = trace.log2_capitals(), trace.compiled.k
    for i in range(0, len(trace.steps), CSV_ROWS):
        lengths, block = trace.steps[i:i + CSV_ROWS] + 1, log2[i:i + CSV_ROWS]
        floats = [block] + [sgale_log2(block, lengths, s, k) for _, s in s_values]
        rows = np.hstack([_digits(lengths), *map(_cells, floats, templates)])
        out.write(rows[rows != 0].tobytes().decode("ascii"))
