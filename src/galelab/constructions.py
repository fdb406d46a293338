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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
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
    """Unrounded allocation update for realized bet weights w1, w2.

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

@dataclass
class AveragingAudit:
    """Exact per-step audit of the combinator against its components.

    Tracks, alongside the combined capital ``d``, the two shadow
    capitals ``dt1 = 2 d alpha_hat`` and ``dt2 = 2 d (1 - alpha_hat)``
    (``alpha_hat`` the unrounded allocation ratio) and the standalone
    component capitals ``d1, d2``.  Verified at every step, all in exact
    arithmetic:

    * ``d == (dt1 + dt2) / 2``;
    * ``dt_j >= (1 - 2**(1-r))**n * d_j``;
    * combined capital as simulated here equals the engine's run of the
      materialized combined gambler;

    and from ``sum_bound_start`` on, ``d >= 2**(-eps*n) * (d1 + d2)``.
    ``first_*`` fields hold the earliest violating step (1-based prefix
    length) or ``None``.
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
    directly from the component gamblers (carrying the exact allocation
    ratio and its unrounded shadow), and through the engine on the
    materialized product gambler; any disagreement is reported.
    """
    from .engine import compile_gambler, run_martingale, walk  # avoid a cycle

    eps = Fraction(eps)
    combined = average_gamblers(g1, g2, eps)
    r = rounding_resolution(eps)
    k = g1.k
    buf = source.prefix_array(n)

    # engine route on the materialized gambler
    engine_capital = run_martingale(combined, source, n, mode="exact").exact

    # direct route: shadow-simulate the pair from the components' walks.  A
    # component's walk ends at the step that bankrupts it; its realized
    # weight is 0 from then on, which changes nothing: its capital stays 0,
    # and the allocation ratio, once snapped to 0 (or 1), keeps its bet out
    # of the mixture until the combined capital is 0 too.
    weights = []
    for g in (g1, g2):
        compiled = compile_gambler(g)
        states = walk(compiled, buf, n).states.tolist()
        weights.append([compiled.bets[q].weights[int(buf[m])]
                        for m, q in enumerate(states)]
                       + [Fraction(0)] * (n - len(states)))

    audits = AveragingAudit(eps=eps, r=r, n=n, sum_bound_start=sum_bound_start)
    alpha = Fraction(1, 2)
    d = Fraction(1)
    d1 = Fraction(1)
    d2 = Fraction(1)
    loss_base_num = 2 ** (r - 1) - 1      # running (1 - 2^(1-r))**n as a pair
    loss_base_den = 2 ** (r - 1)
    loss_num, loss_den = 1, 1

    log_d = np.empty(n)
    log_d1 = np.empty(n)
    log_d2 = np.empty(n)

    ae = Fraction(eps).numerator
    be = Fraction(eps).denominator

    for m, (w1, w2) in enumerate(zip(*weights)):
        alpha_hat = _alpha_step(alpha, w1, w2)
        d = d * k * (alpha * w1 + (1 - alpha) * w2)
        d1 = d1 * k * w1
        d2 = d2 * k * w2
        dt1 = 2 * d * alpha_hat
        dt2 = 2 * d * (1 - alpha_hat)
        loss_num *= loss_base_num
        loss_den *= loss_base_den
        step = m + 1

        if audits.first_identity_violation is None and 2 * d != dt1 + dt2:
            audits.first_identity_violation = step
        s1, s2 = audits.first_shadow_violation
        if s1 is None and not frac_geq_product(dt1, loss_num, loss_den, d1):
            s1 = step
        if s2 is None and not frac_geq_product(dt2, loss_num, loss_den, d2):
            s2 = step
        audits.first_shadow_violation = (s1, s2)
        if (audits.first_sum_bound_violation is None and step >= sum_bound_start
                and not geq_pow2_scaled(d, d1 + d2, -ae * step, be)):
            audits.first_sum_bound_violation = step
        if audits.first_engine_mismatch is None and engine_capital[m] != d:
            audits.first_engine_mismatch = step

        log_d[m] = log2_fraction(d)
        log_d1[m] = log2_fraction(d1)
        log_d2[m] = log2_fraction(d2)
        alpha = round_dyadic(alpha_hat, r)

    audits.log2_combined = log_d
    audits.log2_components = (log_d1, log_d2)
    return audits
