"""Explicit winning gamblers and the capital-averaging combinator.

The block-schedule winners exploit the parity structure of the derived
sequence families: over each block of ``p`` steps (``p`` the family's
block prime) trailing head ``i`` advances exactly ``p_{k_i}`` times,
finishing all advances by the final block step.  At that final step the
betting component reads the trailing symbols, records their parity, and
bets the entire capital on that parity at the next step, which is the
block boundary carrying exactly that parity; everywhere else it bets
uniformly.  On a matching sequence every boundary bet from the second
block on wins, doubling capital once per block.

The averaging combinator builds, from gamblers with ``h1`` and ``h2``
heads, a single gambler with ``h1 + h2 - 1`` heads whose capital tracks
the average of the two component capitals up to a per-step factor
``1 - 2**(1-r)``.  The exact capital split between the components cannot
be carried in finite state, so the combinator keeps an allocation ratio
snapped to the ``r``-dyadic grid (rounding toward 1/2) as part of the
betting state; the resolution ``r`` is chosen from the tolerated
per-symbol loss ``eps`` so the combined capital stays within
``2**(-eps*n)`` of the component average.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    BANKRUPT_LOG2,
    BettingState,
    GamblerSpec,
    PositionalState,
    ProbVector,
    frac_geq_product,
    geq_pow2_scaled,
    log2_ratio,
)
from .engine import compile_gambler, walk
from .sequences import (
    SequenceSource,
    max_supported_h,
    nth_prime,
    parity_prime_indices,
)

__all__ = [
    "round_dyadic",
    "rounding_resolution",
    "build_parity_gambler",
    "build_variant_gambler",
    "uniform_gambler",
    "single_minded_gambler",
    "average_gamblers",
    "AveragingAudit",
    "averaging_audit",
]


# ---------------------------------------------------------------------------
# dyadic rounding
# ---------------------------------------------------------------------------

def round_dyadic(x: Fraction, r: int) -> Fraction:
    """Snap ``x`` in [0, 1] to the r-dyadic grid, rounding toward 1/2.

    The grid is the ``2**r + 1`` rationals ``z / 2**r`` in [0, 1], each of
    which rounds to itself.
    """
    if not 0 <= x <= 1:
        raise ValueError(f"{x} outside [0, 1]")
    if r < 1:
        raise ValueError("resolution must be a positive integer")
    scaled = x * 2 ** r
    if x <= Fraction(1, 2):
        return Fraction(math.ceil(scaled), 2 ** r)
    return Fraction(math.floor(scaled), 2 ** r)


def rounding_resolution(eps: Fraction) -> int:
    """Smallest grid resolution tolerating per-symbol loss ``eps``.

    The combinator loses at most a factor ``1 - 2**(1-r)`` per symbol; the
    returned ``r`` is the least positive integer with
    ``1 - 2**(1-r) >= 2**(-eps/2)``, that is, whose loss
    ``-log2(1 - 2**(1-r))`` is at most ``eps/2`` bits.  Each ``r`` is
    decided by comparing the two in floats, each within a few ulp of its
    value; only when they lie within a relative 2**-40 of each other is it
    decided exactly, through integer powers (the irrational right side
    cannot be formed).  Such a near-tie whose powers would exceed 2**24
    bits is refused with ``ValueError``, as is an eps below every loss.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    half = eps / 2
    a, b = half.numerator, half.denominator
    bound = float(min(half, 2))  # r = 2 loses 1 bit; a huge half would overflow
    for r in range(2, 257):  # r = 1 loses everything: 1 - 2**0 = 0
        loss = -math.log1p(-2.0 ** (1 - r)) / math.log(2)
        if abs(loss - bound) > bound * 2.0 ** -40:
            if loss < bound:
                return r
            continue
        if b * (r - 1) > 2 ** 24:
            raise ValueError(f"eps={eps} is too near a resolution's loss to decide")
        num = 2 ** (r - 1) - 1
        # (num / 2^(r-1)) >= 2^(-a/b)  <=>  num^b * 2^a >= 2^(b*(r-1))
        if num ** b << a >= 1 << (b * (r - 1)):
            return r
    raise ValueError(f"no resolution below 257 tolerates eps={eps}")


# ---------------------------------------------------------------------------
# block-schedule winners
# ---------------------------------------------------------------------------

def _block_gambler(block_prime_index: int, trailing_prime_indices: Sequence[int],
                   name: str) -> GamblerSpec:
    p = nth_prime(block_prime_index)
    trail = [nth_prime(i) for i in trailing_prime_indices]
    heads = len(trail) + 1

    positional = {
        f"t{j}": PositionalState(
            next_id=f"t{(j + 1) % p}",
            move_bits=tuple(1 if j < tp else 0 for tp in trail),
        )
        for j in range(p)
    }

    n_codes = 2 ** heads
    uniform = ProbVector.uniform(2)
    betting = {f"n{j}": BettingState(uniform, (f"n{j + 1}",) * n_codes)
               for j in range(p - 1)}
    # the final block step: sample the parity of the trailing symbols (the
    # code's bits above the leading symbol's) and commit to an all-in bet
    # on it at the boundary
    betting[f"n{p - 1}"] = BettingState(uniform, tuple(
        f"bet{(code >> 1).bit_count() & 1}" for code in range(n_codes)))
    betting["bet0"] = BettingState(ProbVector.point(2, 0), ("n1",) * n_codes)
    betting["bet1"] = BettingState(ProbVector.point(2, 1), ("n1",) * n_codes)

    return GamblerSpec(
        k=2,
        head_count=heads,
        positional=positional,
        betting=betting,
        initial_t="t0",
        initial_q="n0",
        name=name,
    )


def _check_h(h: int, minimum: int = 1) -> None:
    if not minimum <= h <= max_supported_h():
        raise ValueError(
            f"h={h} unsupported (need {minimum} <= h <= {max_supported_h()})")


def build_parity_gambler(h: int) -> GamblerSpec:
    """The ``h + 1``-head winner for family ``F`` at parameter ``h``.

    Trailing head ``k`` runs at speed ``p_k / p_{h+1}``; on ``F`` applied
    to *any* inner sequence, every boundary bet from the second block on
    is on the realized symbol, so the capital after ``n`` steps is
    ``2**(ceil(n / p_{h+1}) - 1)`` exactly.
    """
    _check_h(h)
    return _block_gambler(h + 1, list(range(1, h + 1)), f"parity_h{h}")


def build_variant_gambler(h: int, variant: str) -> GamblerSpec:
    """The ``h``-head winner for one of the two variant families.

    ``Fprime`` keeps trailing heads at speeds ``p_k / p_{h+1}`` for
    ``k = 1 .. h-1``; ``Fdoubleprime`` for ``k = 2 .. h``.  Each wins
    every boundary bet on its matching variant.
    """
    _check_h(h, minimum=2)
    if variant not in ("Fprime", "Fdoubleprime"):
        raise ValueError(f"variant must be Fprime or Fdoubleprime, got {variant!r}")
    idx = parity_prime_indices(h, variant)
    tag = "fprime" if variant == "Fprime" else "fdoubleprime"
    return _block_gambler(h + 1, idx, f"{tag}_h{h}")


def _one_state(k: int, bets: ProbVector, name: str) -> GamblerSpec:
    """One-head gambler over ``k`` symbols placing ``bets`` at every step."""
    return GamblerSpec(
        k=k,
        head_count=1,
        positional={"t0": PositionalState("t0", ())},
        betting={"q0": BettingState(bets, ("q0",) * k)},
        initial_t="t0",
        initial_q="q0",
        name=name,
    )


def uniform_gambler(k: int = 2) -> GamblerSpec:
    """One-state gambler betting uniformly forever (capital is constant)."""
    return _one_state(k, ProbVector.uniform(k), "uniform")


def single_minded_gambler(symbol: int, k: int = 2) -> GamblerSpec:
    """One-state gambler betting everything on one symbol at every step."""
    return _one_state(k, ProbVector.point(k, symbol), f"all_in_{symbol}")


# ---------------------------------------------------------------------------
# averaging combinator
# ---------------------------------------------------------------------------

def _alpha_step(alpha: Fraction, w1: Fraction, w2: Fraction) -> Fraction:
    """Unrounded allocation update for realized bet weights w1, w2, or
    for their fair factors k*w1, k*w2, which give the same ratio.

    A zero denominator means the combined bet on the realized symbol was
    zero, so the capital is already gone; the update resets to 1/2 to
    stay total.
    """
    den = alpha * w1 + (1 - alpha) * w2
    if den == 0:
        return Fraction(1, 2)
    return alpha * w1 / den


def _row_numbers(g: GamblerSpec) -> dict[str, int]:
    """Each betting state's bet row as a number, one per distinct row object."""
    numbers: dict[int, int] = {}
    return {q: numbers.setdefault(id(st.bets), len(numbers)) for q, st in g.betting.items()}


def average_gamblers(g1: GamblerSpec, g2: GamblerSpec, eps: Fraction) -> GamblerSpec:
    """Combine two gamblers into one tracking the average of their capitals.

    The result has ``h1 + h2 - 1`` heads (the leading head is shared, the
    trailing heads are g1's followed by g2's), carries the dyadic
    allocation ratio in its betting state, bets the ratio-weighted
    mixture of the component bets, and re-snaps the ratio to the grid
    after each symbol using only the realized leading symbol.  Component
    state ids are renamed, so overlapping ids are harmless; reachable
    product states are materialized on demand rather than eagerly.

    Requires matching alphabets and unit initial capitals; the combined
    initial capital is 1 (the average) and the initial ratio 1/2.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    if g1.k != g2.k:
        raise ValueError("cannot average gamblers over mismatched alphabets")
    if g1.initial_capital != 1 or g2.initial_capital != 1:
        raise ValueError("averaging assumes both initial capitals are 1")
    k = g1.k
    h1, h2 = g1.head_count, g2.head_count
    h = h1 + h2 - 1
    r = rounding_resolution(eps)

    # positional product: walk the joint successor orbit once, fresh ids
    t_ids: dict[tuple[str, str], str] = {}
    pair = (g1.initial_t, g2.initial_t)
    while pair not in t_ids:
        t_ids[pair] = f"T{len(t_ids)}"
        pair = (g1.positional[pair[0]].next_id, g2.positional[pair[1]].next_id)
    positional = {
        tid: PositionalState(
            next_id=t_ids[g1.positional[t1].next_id, g2.positional[t2].next_id],
            move_bits=g1.positional[t1].move_bits + g2.positional[t2].move_bits)
        for (t1, t2), tid in t_ids.items()
    }

    # betting product with the dyadic ratio, reachable states only.  A
    # product code lists g1's trailing symbols, then g2's, then the leading
    # one: per code, g1's code, g2's code (its last h2 digits) and the lead
    low = k ** h2
    splits = [(code // low * k + code % k, code % low, code % k)
              for code in range(k ** h)]
    # a product state is (q1, q2, z), its allocation ratio z / 2**r.  Its
    # mixture row and snapped updates depend only on z and the two bet
    # rows, so they are built once per distinct triple, and mixtures of
    # equal weights share one row object, which a compile analyses once
    grid = 2 ** r
    number1, number2 = _row_numbers(g1), _row_numbers(g2)
    mixtures: dict[tuple[int, int, int], tuple[ProbVector, list[int]]] = {}
    shared: dict[tuple, ProbVector] = {}
    rows: dict[str, BettingState] = {}
    start = (g1.initial_q, g2.initial_q, grid // 2)
    queue = [start]
    q_ids: dict[tuple[str, str, int], str] = {start: "Q0"}
    while queue:
        q1, q2, z = triple = queue.pop()
        key = (z, number1[q1], number2[q2])
        if key not in mixtures:
            alpha = Fraction(z, grid)
            beta1, beta2 = g1.betting[q1].bets, g2.betting[q2].bets
            weights = tuple(alpha * beta1[b] + (1 - alpha) * beta2[b] for b in range(k))
            # the update reads only the realized leading symbol
            snapped = [round_dyadic(_alpha_step(alpha, beta1[b], beta2[b]), r)
                       for b in range(k)]
            kinds = tuple(map(type, weights))  # equal values of other types stay apart
            mixtures[key] = (shared.setdefault((weights, kinds), ProbVector(weights)),
                             [x.numerator * (grid // x.denominator) for x in snapped])
        bets, z_next = mixtures[key]
        row1, row2 = g1.betting[q1].transitions, g2.betting[q2].transitions
        targets = []
        for code1, code2, lead in splits:
            nxt = (row1[code1], row2[code2], z_next[lead])
            if nxt not in q_ids:
                q_ids[nxt] = f"Q{len(q_ids)}"
                queue.append(nxt)
            targets.append(q_ids[nxt])
        rows[q_ids[triple]] = BettingState(bets, tuple(targets))

    return GamblerSpec(
        k=k,
        head_count=h,
        positional=positional,
        betting=rows,
        initial_t=t_ids[(g1.initial_t, g2.initial_t)],
        initial_q="Q0",
        name=f"avg({g1.label()},{g2.label()};eps={eps})",
    )


# ---------------------------------------------------------------------------
# exact audit of the averaging guarantees
# ---------------------------------------------------------------------------

# Float slack of the audit's log2 decisions, per unit of a margin's scale.
# A value v of ``log2_fraction`` lies within ``LOG2_ERROR`` (8u, u = 2**-53)
# times (1 + |v|) of the true logarithm.  A margin is a signed sum of at
# most five such values, ``n``
# times ``log2(1 - 2**(1-r))`` and ``eps * n``, and each of its few float
# operations rounds once more, so its error is below 16u times its scale,
# the sum of ``1 + |term|`` over its terms.  2**-40 is 2**13 u.
LOG2_SLACK = 2.0 ** -40


@dataclass
class AveragingAudit:
    """Exact per-step audit of the combinator against its components.

    Tracks, alongside the combined capital ``d``, the standalone
    component capitals ``d1, d2`` and two shadow capitals that follow
    their own recursion from the component bets,
    ``dt_j <- dt_j * (alpha_j / alpha_hat_j) * k * w_j`` (``alpha_hat_j``
    the unrounded share of component ``j`` after the previous step,
    ``alpha_j`` its snapped value, ``w_j`` its realized bet weight), from
    ``dt_1 = dt_2 = 1``.  Verified at every step:

    * ``2 d == dt1 + dt2``, in exact arithmetic;
    * ``dt_j >= (1 - 2**(1-r))**n * d_j``;
    * the combined capital as simulated here equals the engine's run of
      the materialized combined gambler: both routes multiply by the same
      factor ``k * w`` at every step at which the capital is nonzero;

    and from ``sum_bound_start`` on, ``d >= 2**(-eps*n) * (d1 + d2)``;
    ``sum_bound_start`` defaults to ``ceil(2 / eps)``, where the other
    checks imply it.  :func:`averaging_audit` says how each check is
    decided.  ``first_*`` fields hold the earliest violating step (1-based
    prefix length) or ``None``.
    """

    eps: Fraction
    r: int
    n: int
    first_identity_violation: int | None = None
    first_shadow_violation: tuple[int | None, int | None] = (None, None)
    first_sum_bound_violation: int | None = None
    first_engine_mismatch: int | None = None
    sum_bound_start: int | None = None
    log2_combined: np.ndarray = field(default_factory=lambda: np.empty(0))
    log2_components: tuple[np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.empty(0), np.empty(0)))

    def __post_init__(self) -> None:
        if self.sum_bound_start is None:
            self.sum_bound_start = math.ceil(2 / Fraction(self.eps))

    @property
    def ok(self) -> bool:
        return (self.first_identity_violation is None
                and self.first_shadow_violation == (None, None)
                and self.first_sum_bound_violation is None
                and self.first_engine_mismatch is None)


# a rational as its normalised (numerator, denominator) pair of ints
Pair = tuple[int, int]


def _factor(x: Fraction) -> Pair | None:
    """A capital's step factor as a ``Pair``, ``None`` when it is exactly 1
    (the step leaves that capital and its log2 as they are)."""
    return None if x == 1 else (x.numerator, x.denominator)


def _times(x: Pair, f: Pair) -> Pair:
    """``x * f`` by the two gcds ``Fraction`` multiplies with: the same
    integers it holds."""
    (num, den), (fnum, fden) = x, f
    g = math.gcd(num, fden)
    if g > 1:
        num //= g
        fden //= g
    g = math.gcd(fnum, den)
    if g > 1:
        fnum //= g
        den //= g
    return num * fnum, den * fden


def _verdicts(margin: np.ndarray, scale: np.ndarray, holds: np.ndarray,
              fails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where a bound is known to hold and where to fail, per checked step.

    ``holds`` and ``fails`` mark the steps a zero capital decides; at the
    others the float margin decides when it clears ``LOG2_SLACK`` times
    its scale.  A step in neither result is a near-tie.
    """
    slack = LOG2_SLACK * scale
    floats = ~(holds | fails)
    return holds | floats & (margin > slack), fails | floats & (margin < -slack)


def averaging_audit(
    g1: GamblerSpec,
    g2: GamblerSpec,
    eps: Fraction,
    source: SequenceSource,
    n: int,
    sum_bound_start: int | None = None,
) -> AveragingAudit:
    """Run the combined gambler and both components exactly and audit.

    The combined capital is simulated twice, by two independent routes:
    directly from the component gamblers (carrying the snapped allocation
    ratio, the component capitals and the two shadows), and through the
    engine on the materialized product gambler; any disagreement is
    reported.  The sum bound is checked from ``sum_bound_start`` on, by
    default from ``ceil(2 / eps)``, where it follows from the identity and
    shadow bounds: ``2 d = dt1 + dt2 >= 2**(-eps*n/2) * (d1 + d2)``.
    The direct route's allocation update depends only on the snapped
    ratio and the two realized factors, which take finitely many values,
    so it is computed once per distinct step of the audit, and the
    recurrence over distinct steps is the only per-step loop.

    Exact work is done only where a capital moves: at a step whose factor
    for it is not 1 while it is not yet 0 (zero is absorbing).  Between
    moves every capital is fixed while the right-hand sides
    ``(1 - 2**(1-r))**n * d_j`` and ``2**(-eps*n) * (d1 + d2)`` only shrink,
    so a bound that holds at a move holds until the next one, and one
    that fails first fails at a move.  The capitals are multiplied, their
    logs taken and the identity tested at the moving steps, at step 1 and
    at ``sum_bound_start`` (the checked steps); the log2 columns hold each
    value until the next move.  The capitals are multiplied as int pairs
    (``_times``): ``Fraction``s are built only per distinct step and at
    near-ties.  The engine route is compared on interned factors, at every
    step before the combined capital reaches 0.

    The loop over the checked steps does only what needs Python ints: the
    products, their ``log2_ratio`` and the identity.  It records the five
    logs of each checked step, and the shadow and sum bounds are then
    decided for all checked steps at once, as numpy margins against
    ``LOG2_SLACK`` times their scales (``_verdicts``), a zero capital
    read as a ``-inf`` log.  The steps whose margin is within the slack
    are decided exactly, ``frac_geq_product`` and ``geq_pow2_scaled`` on
    the capitals of one more pass over the checked steps, in step order
    and only up to each bound's first violation; the variant winners'
    audits have none.  This gives the verdicts of the exact comparisons:
    a margin computed in numpy differs from the same expression in
    Python floats only where numpy's ``exp2`` and ``log1p`` differ from
    libm's, by an ulp or a few of a term at most 1, which adds a few u
    to the 16u times the scale that bounds its error, against a slack of
    2**13 u times the scale.  So a decided margin has the sign of the
    exact one, and the first violations are the exact ones.  The float
    screen is the one that pays: deciding every bound exactly makes a
    pair of 1e4-step audits of the variant winners several times slower.
    """
    if n < 0:
        raise ValueError(f"negative prefix length {n}")
    eps = Fraction(eps)
    combined = average_gamblers(g1, g2, eps)
    r = rounding_resolution(eps)
    audit = AveragingAudit(eps=eps, r=r, n=n, sum_bound_start=sum_bound_start)
    sum_bound_start = audit.sum_bound_start

    # every step factor as an id: equal rationals share one, a factor of 1
    # (``_factor``'s None: the step leaves the capital as it is) is ``one``
    # and a factor of 0 is ``zero``
    one, zero = 0, 1
    factor_ids: dict[Pair | None, int] = {None: one, (0, 1): zero}

    def ids_of(rows) -> np.ndarray:
        return np.array([[factor_ids.setdefault(f, len(factor_ids)) for f in row]
                         for row in rows], dtype=np.int64)

    def realized(table: np.ndarray, g, fill: int) -> np.ndarray:
        """``table[q, s]`` along ``g``'s walk, ``fill`` from a bankrupting
        step on, where its walk ends."""
        w = walk(g, source, n)
        out = np.full(n, fill, dtype=np.int64)
        out[:len(w.states)] = table[w.states, w.symbols[:len(w.states)]]
        return out

    # direct route: the components' realized factors k*w, as indices into
    # their distinct factors, one pair number i1 * width + i2 per step.  A
    # component's realized factor is 0 from its bankrupting step on, which
    # changes nothing: its capital stays 0, and the allocation ratio, once
    # snapped to 0 (or 1), keeps its bet out of the mixture until the
    # combined capital is 0 too.  The allocation update and the combined
    # factor are homogeneous in the factors: the same rationals as on weights.
    factors_of, pairs = [], np.zeros(n, dtype=np.int64)
    for g in (g1, g2):
        compiled = compile_gambler(g)
        distinct = sorted({f for row in compiled.factors for f in row} | {Fraction(0)})
        index = {f: i for i, f in enumerate(distinct)}
        table = np.array([[index[f] for f in row] for row in compiled.factors])
        pairs *= len(distinct)
        pairs += realized(table, compiled, index[0])
        factors_of.append(distinct)
    width = len(factors_of[1])

    # One distinct step: the snapped ratio and shadow corrections left by
    # the previous step (``after[e]``) meet the realized factors (i1, i2).
    # Its entry holds the ``_factor``s of d, d1, d2, dt1 and dt2, and leads to
    # ``after[next_after[entry]]``.
    after: list[tuple[Fraction, Fraction, Fraction]] = [
        (Fraction(1, 2), Fraction(1), Fraction(1))]
    after_ids = {after[0]: 0}
    factors: list[tuple] = []
    next_after: list[int] = []

    def distinct_step(e: int, pair: int) -> int:
        alpha, rho1, rho2 = after[e]
        f1, f2 = factors_of[0][pair // width], factors_of[1][pair % width]
        alpha_hat = _alpha_step(alpha, f1, f2)
        snapped = round_dyadic(alpha_hat, r)
        nxt = (snapped,
               snapped / alpha_hat if alpha_hat else Fraction(0),
               (1 - snapped) / (1 - alpha_hat) if alpha_hat != 1 else Fraction(0))
        if nxt not in after_ids:
            after_ids[nxt] = len(after)
            after.append(nxt)
        next_after.append(after_ids[nxt])
        factors.append((_factor(alpha * f1 + (1 - alpha) * f2), _factor(f1), _factor(f2),
                        _factor(rho1 * f1), _factor(rho2 * f2)))
        return len(factors) - 1

    span = len(factors_of[0]) * width
    entries: dict[int, int] = {}
    trail, e = array("q"), 0
    record = trail.append
    for pair in pairs.tolist():
        key = e * span + pair
        j = entries.get(key)
        if j is None:
            j = entries[key] = distinct_step(e, pair)
        record(j)
        e = next_after[j]
    trail = np.frombuffer(trail, dtype=np.int64)
    del pairs  # a step-sized array: keep the audit's peak memory to its columns

    # per distinct step and capital (d, d1, d2, dt1, dt2), the factor's id;
    # per step, the step index that zeroes each capital (n for one never
    # zeroed) and whether the step moves it: zero is absorbing
    ids = ids_of(factors).reshape(-1, 5)
    zeroed = np.argmax(np.vstack([(ids == zero)[trail], np.ones(5, dtype=bool)]), axis=0)
    moving = (ids != one)[trail]
    for c, z in enumerate(zeroed.tolist()):
        moving[z + 1:, c] = False

    # engine route: the materialized gambler must move the combined
    # capital by the same factor up to the step at which it reaches 0
    product = compile_gambler(combined)
    kw_ids = ids_of([map(_factor, row) for row in product.factors])
    upto = zeroed[0] + 1
    differs = np.flatnonzero(realized(kw_ids, product, zero)[:upto] != ids[trail[:upto], 0])
    audit.first_engine_mismatch = int(differs[0]) + 1 if len(differs) else None

    checked = moving.any(1)
    checked[:1] = True
    if 1 < sum_bound_start <= n:
        checked[sum_bound_start - 1] = True
    at = np.flatnonzero(checked)
    rows = trail[at].tolist()
    masks = (moving[at] @ (1 << np.arange(5))).tolist()  # bit c: capital c moves
    logs = np.empty((len(at), 5))  # log2 of d, d1, d2, dt1, dt2 at each checked step
    d = d1 = d2 = dt1 = dt2 = (1, 1)
    ld = ld1 = ld2 = ldt1 = ldt2 = 0.0
    identity = None
    for i, (j, mask) in enumerate(zip(rows, masks)):
        f, f1, f2, ft1, ft2 = factors[j]
        if mask & 1:
            d = _times(d, f)
            ld = log2_ratio(*d)
        if mask & 2:
            d1 = _times(d1, f1)
            ld1 = log2_ratio(*d1)
        if mask & 4:
            d2 = _times(d2, f2)
            ld2 = log2_ratio(*d2)
        if mask & 8:
            dt1 = _times(dt1, ft1)
            ldt1 = log2_ratio(*dt1)
        if mask & 16:
            dt2 = _times(dt2, ft2)
            ldt2 = log2_ratio(*dt2)
        # 2 d == dt1 + dt2, cross-multiplied, where one of them moves
        if (identity is None and mask & 0b11001
                and 2 * d[0] * dt1[1] * dt2[1] != d[1] * (dt1[0] * dt2[1] + dt2[0] * dt1[1])):
            identity = int(at[i]) + 1
        logs[i] = ld, ld1, ld2, ldt1, ldt2

    # the bounds at every checked step: dt_j >= (1 - 2**(1-r))**step * d_j
    # and, from sum_bound_start on, d >= 2**(-eps*step) * (d1 + d2)
    base_num, base_den = 2 ** (r - 1) - 1, 2 ** (r - 1)
    log_loss = log2_ratio(base_num, base_den)
    steps = at + 1.0
    broke = logs == BANKRUPT_LOG2  # a zero capital
    verdicts = []
    with np.errstate(invalid="ignore"):  # margins between -inf logs
        for c in (1, 2):
            ldt, ldj = logs[:, c + 2], logs[:, c]
            verdicts.append(_verdicts(
                ldt - ldj - steps * log_loss,
                2 + np.abs(ldt) + np.abs(ldj) + steps * (1 - log_loss),
                broke[:, c], broke[:, c + 2] & ~broke[:, c]))
        log_d, hi, lo = logs[:, 0], logs[:, 1:3].max(1), logs[:, 1:3].min(1)
        eps_steps = float(eps) * steps
        scale = (4 + np.abs(log_d) + np.abs(hi) + eps_steps
                 + np.where(broke[:, 1:3].any(1), 0, np.abs(lo)))
        log_sum = hi + np.log1p(np.exp2(lo - hi)) / math.log(2)
        both = broke[:, 1] & broke[:, 2]
        holds, fails = _verdicts(log_d - log_sum + eps_steps, scale, both, broke[:, 0] & ~both)
    on = steps >= sum_bound_start
    verdicts.append((holds | ~on, fails & on))

    # each bound fails first at its first decided failure or at a near-tie
    # before it that the exact test refutes
    first = [int(np.argmax(fails)) if fails.any() else len(at) for _, fails in verdicts]
    near = [set(np.flatnonzero(~(holds | fails)[:stop]).tolist())
            for (holds, fails), stop in zip(verdicts, first)]
    exact = (
        lambda step, c: frac_geq_product(Fraction(*c[3]), base_num ** step,
                                         base_den ** step, Fraction(*c[1])),
        lambda step, c: frac_geq_product(Fraction(*c[4]), base_num ** step,
                                         base_den ** step, Fraction(*c[2])),
        lambda step, c: geq_pow2_scaled(Fraction(*c[0]), Fraction(*c[1]) + Fraction(*c[2]),
                                        -eps.numerator * step, eps.denominator),
    )
    last = max((max(s) for s in near if s), default=-1)
    caps = [(1, 1)] * 5
    for i, (j, mask) in enumerate(zip(rows[:last + 1], masks)):
        for c in range(5):
            if mask >> c & 1:
                caps[c] = _times(caps[c], factors[j][c])
        for b in range(3):
            if i in near[b] and i < first[b] and not exact[b](int(at[i]) + 1, caps):
                first[b] = i
    s1, s2, sum_bound = (int(at[i]) + 1 if i < len(at) else None for i in first)

    audit.first_identity_violation = identity
    audit.first_shadow_violation = (s1, s2)
    audit.first_sum_bound_violation = sum_bound
    held = np.diff(at, append=n)  # steps until the next check
    columns = np.repeat(logs[:, :3].T, held, axis=1)
    audit.log2_combined = columns[0]
    audit.log2_components = (columns[1], columns[2])
    return audit
