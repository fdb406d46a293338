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
    Alphabet,
    BettingState,
    GamblerSpec,
    PositionalState,
    ProbVector,
    decode_symbol_code,
    encode_symbol_vector,
    frac_geq_product,
    geq_pow2_scaled,
    log2_fraction,
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
    ``1 - 2**(1-r) >= 2**(-eps/2)``, decided in exact arithmetic (the
    irrational right side is compared through integer powers).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    half = eps / 2
    a, b = half.numerator, half.denominator
    for r in range(1, 257):
        num = 2 ** (r - 1) - 1
        if num <= 0:
            continue
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
    k = 2

    positional = {
        f"t{j}": PositionalState(
            next_id=f"t{(j + 1) % p}",
            move_bits=tuple(1 if j < tp else 0 for tp in trail),
        )
        for j in range(p)
    }

    n_codes = k ** heads
    uniform = ProbVector.uniform(k)

    def same(target: str) -> tuple[str, ...]:
        return tuple(target for _ in range(n_codes))

    betting: dict[str, BettingState] = {}
    betting["n0"] = BettingState(uniform, same("n1"))
    for j in range(1, p - 1):
        betting[f"n{j}"] = BettingState(uniform, same(f"n{j + 1}"))
    # the final block step: sample the parity of the trailing symbols and
    # commit to an all-in bet on it at the boundary
    sampler = []
    for code in range(n_codes):
        vec = decode_symbol_code(code, heads, k)
        parity = 0
        for b in vec[:-1]:
            parity ^= b
        sampler.append(f"bet{parity}")
    betting[f"n{p - 1}"] = BettingState(uniform, tuple(sampler))
    betting["bet0"] = BettingState(ProbVector.point(k, 0), same("n1"))
    betting["bet1"] = BettingState(ProbVector.point(k, 1), same("n1"))

    return GamblerSpec(
        alphabet=Alphabet.from_size(k),
        head_count=heads,
        positional=positional,
        betting=betting,
        initial_t="t0",
        initial_q="n0",
        initial_capital=Fraction(1),
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


def uniform_gambler(k: int = 2) -> GamblerSpec:
    """One-state gambler betting uniformly forever (capital is constant)."""
    return GamblerSpec(
        alphabet=Alphabet.from_size(k),
        head_count=1,
        positional={"t0": PositionalState("t0", ())},
        betting={"q0": BettingState(ProbVector.uniform(k),
                                    tuple("q0" for _ in range(k)))},
        initial_t="t0",
        initial_q="q0",
        name="uniform",
    )


def single_minded_gambler(symbol: int, k: int = 2) -> GamblerSpec:
    """One-state gambler betting everything on one symbol at every step."""
    return GamblerSpec(
        alphabet=Alphabet.from_size(k),
        head_count=1,
        positional={"t0": PositionalState("t0", ())},
        betting={"q0": BettingState(ProbVector.point(k, symbol),
                                    tuple("q0" for _ in range(k)))},
        initial_t="t0",
        initial_q="q0",
        name=f"all_in_{symbol}",
    )


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
    if g1.alphabet != g2.alphabet:
        raise ValueError("cannot average gamblers over mismatched alphabets")
    if g1.initial_capital != 1 or g2.initial_capital != 1:
        raise ValueError("averaging assumes both initial capitals are 1")
    k = g1.k
    h1, h2 = g1.head_count, g2.head_count
    h = h1 + h2 - 1
    r = rounding_resolution(eps)

    # positional product: walk the joint successor orbit, fresh ids
    t_ids: dict[tuple[str, str], str] = {}
    positional: dict[str, PositionalState] = {}
    pair = (g1.initial_t, g2.initial_t)
    order: list[tuple[str, str]] = []
    while pair not in t_ids:
        t_ids[pair] = f"T{len(order)}"
        order.append(pair)
        pair = (g1.positional[pair[0]].next_id, g2.positional[pair[1]].next_id)
    for this in order:
        nxt = (g1.positional[this[0]].next_id, g2.positional[this[1]].next_id)
        positional[t_ids[this]] = PositionalState(
            next_id=t_ids[nxt],
            move_bits=(g1.positional[this[0]].move_bits
                       + g2.positional[this[1]].move_bits),
        )

    # betting product with the dyadic ratio, reachable states only
    n_codes = k ** h
    q_ids: dict[tuple[str, str, Fraction], str] = {}
    rows: dict[str, BettingState] = {}
    start = (g1.initial_q, g2.initial_q, Fraction(1, 2))
    queue = [start]
    q_ids[start] = "Q0"
    while queue:
        q1, q2, alpha = triple = queue.pop()
        beta1 = g1.betting[q1].bets
        beta2 = g2.betting[q2].bets
        bets = ProbVector(tuple(
            alpha * beta1[b] + (1 - alpha) * beta2[b] for b in range(k)
        ))
        targets = []
        for code in range(n_codes):
            vec = decode_symbol_code(code, h, k)
            lead = vec[-1]
            vec1 = vec[: h1 - 1] + (lead,)
            vec2 = vec[h1 - 1:]
            nq1 = g1.betting[q1].transitions[encode_symbol_vector(vec1, k)]
            nq2 = g2.betting[q2].transitions[encode_symbol_vector(vec2, k)]
            alpha2 = round_dyadic(_alpha_step(alpha, beta1[lead], beta2[lead]), r)
            nxt = (nq1, nq2, alpha2)
            if nxt not in q_ids:
                q_ids[nxt] = f"Q{len(q_ids)}"
                queue.append(nxt)
            targets.append(q_ids[nxt])
        rows[q_ids[triple]] = BettingState(bets, tuple(targets))

    return GamblerSpec(
        alphabet=g1.alphabet,
        head_count=h,
        positional=positional,
        betting=rows,
        initial_t=t_ids[(g1.initial_t, g2.initial_t)],
        initial_q="Q0",
        initial_capital=Fraction(1),
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

    and from ``sum_bound_start`` on, ``d >= 2**(-eps*n) * (d1 + d2)``.
    Every capital is an exact rational.  Each check is monotone between
    the steps at which a capital moves: the capitals are fixed there and
    both right-hand sides shrink with ``n``, so deciding the checks at
    the moving steps, at step 1 and at ``sum_bound_start`` finds every
    earliest violation.  The two bounds are decided on ``log2_fraction``
    of those rationals, in float: a margin counts only when it clears
    ``LOG2_SLACK`` (2**-40) times its scale, the sum of ``1 + |term|``
    over its log2 terms (``n`` times for the loss exponent).  A zero
    capital is decided directly, and a margin within that slack exactly
    by ``frac_geq_product`` / ``geq_pow2_scaled``.  ``first_*`` fields
    hold the earliest violating step (1-based prefix length) or ``None``.
    """

    eps: Fraction
    r: int
    n: int
    first_identity_violation: int | None = None
    first_shadow_violation: tuple[int | None, int | None] = (None, None)
    first_sum_bound_violation: int | None = None
    first_engine_mismatch: int | None = None
    sum_bound_start: int = 20
    log2_combined: np.ndarray = field(default_factory=lambda: np.empty(0))
    log2_components: tuple[np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.empty(0), np.empty(0)))

    @property
    def ok(self) -> bool:
        return (self.first_identity_violation is None
                and self.first_shadow_violation == (None, None)
                and self.first_sum_bound_violation is None
                and self.first_engine_mismatch is None)


def _factor(x: Fraction) -> Fraction | None:
    """A capital's step factor, ``None`` when it is exactly 1 (the step
    leaves that capital and its log2 as they are)."""
    return None if x == 1 else x


def _decided(margin: float, scale: float) -> bool | None:
    """The sign of a float margin when it clears the slack, else ``None``."""
    slack = LOG2_SLACK * scale
    if margin > slack:
        return True
    if margin < -slack:
        return False
    return None


def averaging_audit(
    g1: GamblerSpec,
    g2: GamblerSpec,
    eps: Fraction,
    source: SequenceSource,
    n: int,
    sum_bound_start: int = 20,
) -> AveragingAudit:
    """Run the combined gambler and both components exactly and audit.

    The combined capital is simulated twice, by two independent routes:
    directly from the component gamblers (carrying the snapped allocation
    ratio, the component capitals and the two shadows), and through the
    engine on the materialized product gambler; any disagreement is
    reported.  The direct route's allocation update depends only on the
    snapped ratio and the two realized factors, which take finitely many
    values, so it is computed once per distinct step of the audit, and
    the recurrence over distinct steps is the only per-step loop.

    Exact work is done only where a capital moves: at a step whose factor
    for it is not 1 while it is not yet 0 (zero is absorbing).  Between
    moves every capital is fixed while the right-hand sides
    ``(1 - 2**(1-r))**n * d_j`` and ``2**(-eps*n) * (d1 + d2)`` only shrink,
    so a bound that holds at a move holds until the next one, and one
    that fails first fails at a move.  The capitals are multiplied, their
    logs taken and every check decided at the moving steps, at step 1 and
    at ``sum_bound_start``; the log2 columns hold each value until the
    next move.  The engine route is compared on interned factors, at
    every step before the combined capital reaches 0.

    The certified float margin (``LOG2_SLACK``, ``_decided``) is the only
    screen in front of the exact comparisons, which multiply out in full.
    It is the one that pays: deciding every bound exactly makes a pair of
    1e4-step audits of the variant winners several times slower.
    Only a near-tie reaches ``frac_geq_product`` or ``geq_pow2_scaled``,
    and there the two sides' log2 values agree to within ``LOG2_SLACK``
    of the margin's scale, so a second screen on bit lengths would
    almost never decide.
    """
    eps = Fraction(eps)
    combined = average_gamblers(g1, g2, eps)
    r = rounding_resolution(eps)
    audit = AveragingAudit(eps=eps, r=r, n=n, sum_bound_start=sum_bound_start)

    # every step factor as an id: equal rationals share one, a factor of 1
    # (``_factor``'s None: the step leaves the capital as it is) is ``one``
    # and a factor of 0 is ``zero``
    one, zero = 0, 1
    factor_ids: dict[Fraction | None, int] = {None: one, Fraction(0): zero}

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
    # Its entry holds the factors of d, d1, d2, dt1 and dt2, and leads to
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

    base_num, base_den = 2 ** (r - 1) - 1, 2 ** (r - 1)
    log_loss = log2_fraction(Fraction(base_num, base_den))
    eps_float = float(eps)

    def shadow_holds(step: int, dt: Fraction, ldt: float,
                     dj: Fraction, ldj: float) -> bool:
        """``dt >= (1 - 2**(1-r))**step * dj``."""
        if not dj:
            return True
        if not dt:
            return False
        verdict = _decided(ldt - ldj - step * log_loss,
                           2 + abs(ldt) + abs(ldj) + step * (1 - log_loss))
        if verdict is None:
            return frac_geq_product(dt, base_num ** step, base_den ** step, dj)
        return verdict

    def sum_holds(step: int, d: Fraction, ld: float, d1: Fraction, ld1: float,
                  d2: Fraction, ld2: float) -> bool:
        """``d >= 2**(-eps*step) * (d1 + d2)``."""
        if not (d1 or d2):
            return True
        if not d:
            return False
        hi, lo = max(ld1, ld2), min(ld1, ld2)
        scale = 4 + abs(ld) + abs(hi) + eps_float * step
        if lo != BANKRUPT_LOG2:
            scale += abs(lo)
        log_sum = hi + math.log1p(2.0 ** (lo - hi)) / math.log(2)
        verdict = _decided(ld - log_sum + eps_float * step, scale)
        if verdict is None:
            return geq_pow2_scaled(d, d1 + d2, -eps.numerator * step, eps.denominator)
        return verdict

    checked = moving.any(1)
    checked[:1] = True
    if 1 < sum_bound_start <= n:
        checked[sum_bound_start - 1] = True
    at = np.flatnonzero(checked)
    masks = moving[at] @ (1 << np.arange(5))  # bit c: capital c moves
    values = array("d")
    d = d1 = d2 = dt1 = dt2 = Fraction(1)
    ld = ld1 = ld2 = ldt1 = ldt2 = 0.0
    identity = sum_bound = s1 = s2 = None
    for m, j, mask in zip(at.tolist(), trail[at].tolist(), masks.tolist()):
        step = m + 1
        f, f1, f2, ft1, ft2 = factors[j]
        if mask & 1:
            d *= f
            ld = log2_fraction(d)
        if mask & 2:
            d1 *= f1
            ld1 = log2_fraction(d1)
        if mask & 4:
            d2 *= f2
            ld2 = log2_fraction(d2)
        if mask & 8:
            dt1 *= ft1
            ldt1 = log2_fraction(dt1)
        if mask & 16:
            dt2 *= ft2
            ldt2 = log2_fraction(dt2)
        if identity is None and mask & 0b11001 and 2 * d != dt1 + dt2:  # d, dt1, dt2
            identity = step
        if s1 is None and not shadow_holds(step, dt1, ldt1, d1, ld1):
            s1 = step
        if s2 is None and not shadow_holds(step, dt2, ldt2, d2, ld2):
            s2 = step
        if (sum_bound is None and step >= sum_bound_start
                and not sum_holds(step, d, ld, d1, ld1, d2, ld2)):
            sum_bound = step
        values.extend((ld, ld1, ld2))

    audit.first_identity_violation = identity
    audit.first_shadow_violation = (s1, s2)
    audit.first_sum_bound_violation = sum_bound
    held = np.diff(at, append=n)  # steps until the next check
    columns = np.repeat(np.frombuffer(values).reshape(-1, 3).T, held, axis=1)
    audit.log2_combined = columns[0]
    audit.log2_components = (columns[1], columns[2])
    return audit
