"""The averaging audit against an independent cumulative-capital reference.

``reference_audit`` below is the audit as first written: it carries the
combined, component and shadow capitals as cumulative ``Fraction``s,
decides every bound on those exact values and compares the combined
capital with the engine's exact ``run_martingale`` column at every step.
The audit must report the same first violations and bit-identical log2
columns, on valid gambler pairs and on deliberately broken combinators.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galelab import constructions
from galelab.constructions import (
    AveragingAudit,
    averaging_audit,
    build_variant_gambler,
    rounding_resolution,
    single_minded_gambler,
    uniform_gambler,
)
from galelab.core import (
    BANKRUPT_LOG2,
    BettingState,
    ProbVector,
    frac_geq_product,
    geq_pow2_scaled,
    log2_fraction,
)
from galelab.engine import compile_gambler, run_martingale, walk
from galelab.sequences import f_family, prng_source

from gamblers import array_source, random_valid_gambler, two_state_swing_gambler


def reference_capitals(g1, g2, eps, source, n):
    """The cumulative exact capitals ``(d, d1, d2, dt1, dt2)`` after each
    step, the shadows as ``2 d`` times the unrounded shares.

    Reads ``round_dyadic`` and ``_alpha_step`` through the module, so a
    patched combinator is followed the same way.
    """
    r = rounding_resolution(Fraction(eps))
    k = g1.k
    buf = source.prefix_array(n)
    weights = []
    for g in (g1, g2):
        compiled = compile_gambler(g)
        states = walk(compiled, source, n).states.tolist()
        weights.append([g.betting[compiled.state_ids[q]].bets[int(buf[m])]
                        for m, q in enumerate(states)]
                       + [Fraction(0)] * (n - len(states)))
    alpha, d, d1, d2 = Fraction(1, 2), Fraction(1), Fraction(1), Fraction(1)
    for w1, w2 in zip(*weights):
        alpha_hat = constructions._alpha_step(alpha, w1, w2)
        d = d * k * (alpha * w1 + (1 - alpha) * w2)
        d1 = d1 * k * w1
        d2 = d2 * k * w2
        yield d, d1, d2, 2 * d * alpha_hat, 2 * d * (1 - alpha_hat)
        alpha = constructions.round_dyadic(alpha_hat, r)


def reference_audit(g1, g2, eps, source, n, sum_bound_start=20):
    """The averaging audit on cumulative exact capitals, one step at a time.

    Reads ``average_gamblers`` through the module, as ``reference_capitals``
    reads the rounding, so a patched combinator is audited the same way.
    """
    eps = Fraction(eps)
    combined = constructions.average_gamblers(g1, g2, eps)
    r = rounding_resolution(eps)
    engine_capital = list(run_martingale(combined, source, n, mode="exact").exact_capitals())

    audit = AveragingAudit(eps=eps, r=r, n=n, sum_bound_start=sum_bound_start)
    loss_num, loss_den = 1, 1
    log_d, log_d1, log_d2 = np.empty(n), np.empty(n), np.empty(n)
    for m, (d, d1, d2, dt1, dt2) in enumerate(reference_capitals(g1, g2, eps, source, n)):
        loss_num *= 2 ** (r - 1) - 1
        loss_den *= 2 ** (r - 1)
        step = m + 1
        if audit.first_identity_violation is None and 2 * d != dt1 + dt2:
            audit.first_identity_violation = step
        s1, s2 = audit.first_shadow_violation
        if s1 is None and not frac_geq_product(dt1, loss_num, loss_den, d1):
            s1 = step
        if s2 is None and not frac_geq_product(dt2, loss_num, loss_den, d2):
            s2 = step
        audit.first_shadow_violation = (s1, s2)
        if (audit.first_sum_bound_violation is None and step >= sum_bound_start
                and not geq_pow2_scaled(d, d1 + d2, -eps.numerator * step,
                                        eps.denominator)):
            audit.first_sum_bound_violation = step
        if audit.first_engine_mismatch is None and engine_capital[m] != d:
            audit.first_engine_mismatch = step
        log_d[m] = log2_fraction(d)
        log_d1[m] = log2_fraction(d1)
        log_d2[m] = log2_fraction(d2)
    audit.log2_combined = log_d
    audit.log2_components = (log_d1, log_d2)
    return audit


def outcome(audit):
    return (audit.first_identity_violation, audit.first_shadow_violation,
            audit.first_sum_bound_violation, audit.first_engine_mismatch)


def assert_audits_agree(g1, g2, eps, make_source, n, sum_bound_start=20):
    got = averaging_audit(g1, g2, eps, make_source(), n, sum_bound_start)
    want = reference_audit(g1, g2, eps, make_source(), n, sum_bound_start)
    assert outcome(got) == outcome(want)
    assert (got.eps, got.r, got.n, got.sum_bound_start) == (
        want.eps, want.r, want.n, want.sum_bound_start)
    assert got.log2_combined.tobytes() == want.log2_combined.tobytes()
    for a, b in zip(got.log2_components, want.log2_components):
        assert a.tobytes() == b.tobytes()
    return got


def _non_dyadic(spec):
    return any(w.denominator & (w.denominator - 1)
               for row in spec.betting.values() for w in row.bets.weights)


def test_audit_matches_reference_on_random_pairs():
    n = 300
    bankrupt = non_dyadic = 0
    for seed in range(12):
        h1, h2 = 1 + seed % 2, 1 + (seed // 2) % 2
        g1 = random_valid_gambler(2 * seed, h1)
        g2 = random_valid_gambler(2 * seed + 1, h2)
        eps = (Fraction(1, 10), Fraction(1, 2), Fraction(1, 3))[seed % 3]
        audit = assert_audits_agree(g1, g2, eps, lambda: prng_source(seed), n)
        bankrupt += any(c[-1] == BANKRUPT_LOG2 for c in audit.log2_components)
        non_dyadic += _non_dyadic(g1) or _non_dyadic(g2)
    assert bankrupt and non_dyadic   # the sample covers both cases


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seeds=st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
       heads=st.tuples(st.sampled_from([1, 2]), st.sampled_from([1, 2])),
       eps=st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(1, 2)]),
       n=st.integers(1, 200), source_seed=st.integers(0, 1000))
# both components bet non-dyadic weights and the first goes bankrupt
@example(seeds=(3, 1003), heads=(2, 2), eps=Fraction(1, 3), n=200, source_seed=3)
# both bet non-dyadic weights and neither goes bankrupt
@example(seeds=(4, 1004), heads=(2, 1), eps=Fraction(1, 3), n=200, source_seed=4)
def test_audit_matches_reference_on_drawn_pairs(seeds, heads, eps, n, source_seed):
    g1, g2 = (random_valid_gambler(seed, h) for seed, h in zip(seeds, heads))
    assert_audits_agree(g1, g2, eps, lambda: prng_source(source_seed), n)


def test_audit_matches_reference_with_bankrupt_and_non_dyadic_components():
    swing = two_state_swing_gambler()
    doomed = single_minded_gambler(1)
    audit = assert_audits_agree(swing, doomed, Fraction(1, 10),
                                lambda: prng_source(6), 400)
    assert audit.log2_components[1][-1] == BANKRUPT_LOG2
    assert np.isfinite(audit.log2_combined[-1])
    assert audit.ok


@pytest.mark.parametrize("variant", ["Fprime", "Fdoubleprime"])
def test_audit_matches_reference_on_variant_pair(variant):
    g1 = build_variant_gambler(2, "Fprime")
    g2 = build_variant_gambler(2, "Fdoubleprime")
    audit = assert_audits_agree(g1, g2, Fraction(1, 10),
                                lambda: f_family(2, variant, prng_source(3)), 1500)
    assert audit.ok


def test_tampered_bet_row_sets_engine_mismatch(monkeypatch):
    """A combined gambler with one reachable bet row swapped disagrees with
    the component route at the first step that bets from that row."""
    real = constructions.average_gamblers

    def tampered(g1, g2, eps):
        spec = real(g1, g2, eps)
        row = spec.betting["Q17"]    # first bet from at step 11 on F'3(prng(3))
        spec.betting["Q17"] = BettingState(ProbVector(row.bets.weights[::-1]),
                                           row.transitions)
        return spec

    monkeypatch.setattr(constructions, "average_gamblers", tampered)
    g1 = build_variant_gambler(2, "Fprime")
    g2 = build_variant_gambler(2, "Fdoubleprime")
    audit = assert_audits_agree(g1, g2, Fraction(1, 10),
                                lambda: f_family(2, "Fprime", prng_source(3)), 400)
    assert outcome(audit) == (None, (None, None), None, 11)


def _round_away_from_half(x, r):
    if not 0 <= x <= 1:
        raise ValueError(f"{x} outside [0, 1]")
    scaled = x * 2 ** r
    if x <= Fraction(1, 2):
        return Fraction(math.floor(scaled), 2 ** r)
    return Fraction(math.ceil(scaled), 2 ** r)


@pytest.mark.parametrize("eps, expected", [
    (Fraction(1, 10), (None, (3, None), None, None)),
    (Fraction(1, 2), (None, (5, None), 20, None)),
])
def test_rounding_away_from_half_breaks_the_bounds(monkeypatch, eps, expected):
    """Rounding the allocation away from 1/2 can lose more than the per-step
    factor; the shadow bound, and at coarse grids the sum bound, catch it."""
    monkeypatch.setattr(constructions, "round_dyadic", _round_away_from_half)
    g1 = random_valid_gambler(4, 2)
    g2 = random_valid_gambler(5, 1)
    audit = assert_audits_agree(g1, g2, eps, lambda: prng_source(3), 300)
    assert outcome(audit) == expected


@pytest.mark.parametrize("eps, expected", [
    (Fraction(1, 10), (None, (None, 3), None, None)),
    (Fraction(1, 2), (None, (None, 5), 20, None)),
])
def test_the_second_shadow_can_fail_first(monkeypatch, eps, expected):
    """The pair above in the other order: component 2's shadow breaks."""
    monkeypatch.setattr(constructions, "round_dyadic", _round_away_from_half)
    g1 = random_valid_gambler(5, 1)
    g2 = random_valid_gambler(4, 2)
    audit = assert_audits_agree(g1, g2, eps, lambda: prng_source(3), 300)
    assert outcome(audit) == expected


def _count_exact_decisions(monkeypatch):
    calls = {"shadow": 0, "sum": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(constructions, "frac_geq_product",
                        counted("shadow", constructions.frac_geq_product))
    monkeypatch.setattr(constructions, "geq_pow2_scaled",
                        counted("sum", constructions.geq_pow2_scaled))
    return calls


def test_log2_margins_decide_every_step_of_the_variant_audit(monkeypatch):
    calls = _count_exact_decisions(monkeypatch)
    g1 = build_variant_gambler(2, "Fprime")
    g2 = build_variant_gambler(2, "Fdoubleprime")
    for variant in ("Fprime", "Fdoubleprime"):
        assert averaging_audit(g1, g2, Fraction(1, 10),
                               f_family(2, variant, prng_source(3)), 1500).ok
    assert calls == {"shadow": 0, "sum": 0}


@pytest.mark.parametrize("fault", [False, True])
def test_infinite_slack_takes_the_exact_path_everywhere(monkeypatch, fault):
    """With no float margin trusted, every bound between two nonzero
    capitals is decided exactly, with the same outcome."""
    if fault:
        monkeypatch.setattr(constructions, "round_dyadic", _round_away_from_half)
    monkeypatch.setattr(constructions, "LOG2_SLACK", math.inf)
    calls = _count_exact_decisions(monkeypatch)
    g1, g2 = random_valid_gambler(4, 2), random_valid_gambler(5, 1)
    n, start = 300, 20
    audit = assert_audits_agree(g1, g2, Fraction(1, 2), lambda: prng_source(3), n, start)
    assert audit.ok is not fault
    assert calls["shadow"] > 0
    assert 0 < calls["sum"] <= n - start + 1 or fault   # the faulty d dies at 20


def _margin_ratios(g1, g2, eps, source, n, start):
    """Per bound (the two shadows, then the sum), the checked steps whose
    bound the float margin may decide, each with its margin over its
    scale, from the reference's capitals: a step is checked where a
    capital changes, at step 1 and at ``start``, and a zero capital
    decides its bounds directly."""
    r = rounding_resolution(eps)
    log_loss = log2_fraction(Fraction(2 ** (r - 1) - 1, 2 ** (r - 1)))
    ratios = ([], [], [])
    previous = None
    for m, caps in enumerate(reference_capitals(g1, g2, eps, source, n)):
        step = m + 1
        if caps == previous and step not in (1, start):
            continue
        previous = caps
        ld, ld1, ld2, ldt1, ldt2 = map(log2_fraction, caps)
        for b, (ldt, ldj) in enumerate(((ldt1, ld1), (ldt2, ld2))):
            if ldt != BANKRUPT_LOG2 and ldj != BANKRUPT_LOG2:
                ratios[b].append((step, (ldt - ldj - step * log_loss)
                                  / (2 + abs(ldt) + abs(ldj) + step * (1 - log_loss))))
        if step >= start and ld != BANKRUPT_LOG2 and (caps[1] or caps[2]):
            scale = 4 + abs(ld) + float(eps) * step + sum(
                abs(v) for v in (ld1, ld2) if v != BANKRUPT_LOG2)
            margin = ld - log2_fraction(caps[1] + caps[2]) + float(eps) * step
            ratios[2].append((step, margin / scale))
    return ratios


@pytest.mark.parametrize("fault, expected", [
    (False, (None, (None, None), None, None)),
    (True, (None, (3, None), None, None)),
])
def test_a_finite_slack_sends_only_the_near_ties_to_the_exact_tests(
        monkeypatch, fault, expected):
    """A slack of 0.01 leaves some checked steps to the exact tests and
    decides the others in float; the faulty pair's first shadow breaks at
    a near-tie, which only the exact test refutes.  Each bound is decided
    exactly at its near-ties up to its first violation, and nowhere else."""
    if fault:
        monkeypatch.setattr(constructions, "round_dyadic", _round_away_from_half)
    slack, eps, n, start = 0.01, Fraction(1, 10), 300, 20
    r = rounding_resolution(eps)
    calls = {"shadow": [], "sum": []}

    def shadow(x, a_num, a_den, y):
        calls["shadow"].append((a_den.bit_length() - 1) // (r - 1))
        return frac_geq_product(x, a_num, a_den, y)

    def sum_bound(x, y, shift_num, shift_den):
        calls["sum"].append(-shift_num // eps.numerator)
        return geq_pow2_scaled(x, y, shift_num, shift_den)

    monkeypatch.setattr(constructions, "frac_geq_product", shadow)
    monkeypatch.setattr(constructions, "geq_pow2_scaled", sum_bound)
    monkeypatch.setattr(constructions, "LOG2_SLACK", slack)
    g1, g2 = random_valid_gambler(4, 2), random_valid_gambler(5, 1)
    audit = assert_audits_agree(g1, g2, eps, lambda: prng_source(3), n, start)
    assert outcome(audit) == expected

    # each bound up to its first violation, none of its margins on the fence
    last = [*audit.first_shadow_violation, audit.first_sum_bound_violation]
    ratios = [[(step, x) for step, x in bound if stop is None or step <= stop]
              for bound, stop in zip(_margin_ratios(g1, g2, eps, prng_source(3), n, start),
                                     last)]
    assert not any(0.99 < abs(x) / slack < 1.01 for bound in ratios for _, x in bound)
    near = [[step for step, x in bound if abs(x) <= slack] for bound in ratios]
    assert 0 < sum(map(len, near)) < sum(map(len, ratios))   # some undecided, some not
    assert sorted(calls["shadow"]) == sorted(near[0] + near[1])
    assert calls["sum"] == near[2]
    assert (3 in near[0]) is fault


def test_identity_fires_when_the_allocation_ignores_the_bets(monkeypatch):
    """An allocation update that keeps the ratio whatever the bets won still
    makes a fair combined gambler, so the engine route agrees with it; but
    its capital is no longer the average of the shadows, which the shadow
    recursion exposes.  The old identity, with both shadows defined from
    the combined capital, cannot see it."""
    monkeypatch.setattr(constructions, "_alpha_step", lambda alpha, w1, w2: alpha)
    g1, g2 = two_state_swing_gambler(), uniform_gambler()
    audit = averaging_audit(g1, g2, Fraction(1, 10), prng_source(3), 200)
    reference = reference_audit(g1, g2, Fraction(1, 10), prng_source(3), 200)
    assert audit.first_identity_violation == 2
    assert reference.first_identity_violation is None
    assert audit.first_engine_mismatch is None
    assert audit.log2_combined.tobytes() == reference.log2_combined.tobytes()


# ---------------------------------------------------------------------------
# edges of the moving-step schedule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps, start, expected", [
    (Fraction(1, 2), 1, 1), (Fraction(1, 2), 2, None),
    (Fraction(1, 10), 5, 5), (Fraction(1, 10), 10, None), (Fraction(1, 10), 41, None),
])
def test_sum_bound_is_checked_from_its_start_when_no_capital_moves(eps, start, expected):
    """Two uniform gamblers never move a capital, so only step 1 and
    ``sum_bound_start`` are checked.  The bound ``1 >= 2**(-eps*n) * 2``
    fails exactly at the steps ``n < 1/eps``."""
    n = 40
    audit = assert_audits_agree(uniform_gambler(), uniform_gambler(), eps,
                                lambda: prng_source(3), n, start)
    assert outcome(audit) == (None, (None, None), expected, None)
    assert not audit.log2_combined.any() and not audit.log2_components[0].any()


def test_sum_bound_start_past_the_horizon_skips_the_sum_bound(monkeypatch):
    """With the allocation rounded away from 1/2 the sum bound fails at
    step 20; started past the last step it is never checked."""
    monkeypatch.setattr(constructions, "round_dyadic", _round_away_from_half)
    g1, g2 = random_valid_gambler(4, 2), random_valid_gambler(5, 1)
    for start, expected in ((20, 20), (301, None)):
        audit = assert_audits_agree(g1, g2, Fraction(1, 2), lambda: prng_source(3),
                                    300, start)
        assert audit.first_sum_bound_violation == expected


def test_a_capital_zeroed_at_step_1_stops_moving(monkeypatch):
    """A component that goes bankrupt at step 1 has factor 0 at every later
    step; those steps move nothing, so the audit takes the same number of
    logarithms however long it runs, and its reported column stays -inf."""
    logs = []
    real = constructions.log2_ratio
    monkeypatch.setattr(constructions, "log2_ratio",
                        lambda num, den: logs.append(num) or real(num, den))
    bits = [0, 1, 1, 0, 1, 0, 0, 1] * 40
    counts = []
    for n in (50, len(bits)):
        logs.clear()
        audit = assert_audits_agree(two_state_swing_gambler(), single_minded_gambler(1),
                                    Fraction(1, 10), lambda: array_source(bits), n)
        assert audit.ok
        assert (audit.log2_components[1] == BANKRUPT_LOG2).all()
        counts.append(sum(x == 0 for x in logs))
    assert counts[0] == counts[1] == 2   # d2 and its shadow dt2, once each


def test_fraction_products_do_not_grow_with_the_moving_steps(monkeypatch):
    """Exact ``Fraction`` work is per distinct step (and per near-tie, of
    which the variant audit has none): a variant audit makes as many
    products at 1500 steps as at 10 000, though its capitals move at
    hundreds more steps."""
    products = [0]

    def counted(real):
        def product(a, b):
            products[0] += 1
            return real(a, b)
        return product

    monkeypatch.setattr(Fraction, "__mul__", counted(Fraction.__mul__))
    monkeypatch.setattr(Fraction, "__rmul__", counted(Fraction.__rmul__))
    g1 = build_variant_gambler(2, "Fprime")
    g2 = build_variant_gambler(2, "Fdoubleprime")
    # the first audit of g1 and g2 also analyses their bet rows, once
    averaging_audit(g1, g2, Fraction(1, 10), f_family(2, "Fprime", prng_source(3)), 100)
    counts = []
    for n in (1500, 10_000):
        products[0] = 0
        assert averaging_audit(g1, g2, Fraction(1, 10),
                               f_family(2, "Fprime", prng_source(3)), n).ok
        counts.append(products[0])
    assert counts[0] == counts[1]


def test_identity_is_checked_where_only_the_shadows_move(monkeypatch):
    """Mirrored swing gamblers average to a uniform bet while the ratio
    stays at 1/2, so with an allocation that ignores the bets the combined
    capital never moves; the shadows do, and break the identity at step 2."""
    monkeypatch.setattr(constructions, "_alpha_step", lambda alpha, w1, w2: alpha)
    swing = two_state_swing_gambler()
    mirror = replace(swing, name="mirror", betting={
        q: BettingState(ProbVector(row.bets.weights[::-1]), row.transitions)
        for q, row in swing.betting.items()})
    audit = averaging_audit(swing, mirror, Fraction(1, 10), prng_source(3), 200)
    assert audit.first_identity_violation == 2
    assert not audit.log2_combined.any()
