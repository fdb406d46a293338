"""Winning gamblers, dyadic rounding, and the averaging combinator."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galelab.constructions import (
    average_gamblers,
    averaging_audit,
    build_parity_gambler,
    build_variant_gambler,
    round_dyadic,
    rounding_resolution,
    single_minded_gambler,
    uniform_gambler,
)
from galelab.core import validate_gambler
from galelab.engine import (
    check_martingale_property,
    check_speed_bounds,
    measure_speeds,
    positions,
    run_log2_capitals,
    run_martingale,
    window_exponents,
)
from galelab.sequences import f_family, nth_prime, prng_source


# ---------------------------------------------------------------------------
# dyadic rounding
# ---------------------------------------------------------------------------

def test_round_dyadic_fixed_points_and_examples():
    for r in range(1, 10):
        assert round_dyadic(Fraction(1, 2), r) == Fraction(1, 2)
    assert round_dyadic(Fraction(3, 10), 6) == Fraction(20, 64)
    assert round_dyadic(Fraction(7, 10), 6) == Fraction(44, 64)


unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=997)


@settings(max_examples=200, derandomize=True)
@given(x=unit_rationals, r=st.integers(1, 12))
def test_round_dyadic_properties(x, r):
    out = round_dyadic(x, r)
    assert 0 <= out <= 1 and (out * 2 ** r).denominator == 1  # on the r-dyadic grid
    assert abs(out - x) < Fraction(1, 2 ** r)
    if x <= Fraction(1, 2):
        assert x <= out <= Fraction(1, 2) or out == x  # rounds up toward 1/2
        assert out >= x
    else:
        assert out <= x
    assert round_dyadic(out, r) == out


def test_dyadic_grid_size_and_closure():
    # round_dyadic maps [0, 1] onto the 2**r + 1 grid points z / 2**r
    pts = {Fraction(z, 2 ** 3) for z in range(2 ** 3 + 1)}
    assert len(pts) == 2 ** 3 + 1
    assert {round_dyadic(Fraction(i, 1000), 3) for i in range(1001)} == pts
    # the grid is closed: each point rounds to itself
    for r in (1, 3, 6):
        for z in range(2 ** r + 1):
            assert round_dyadic(Fraction(z, 2 ** r), r) == Fraction(z, 2 ** r)


def test_rounding_resolution_examples():
    assert rounding_resolution(Fraction(1, 10)) == 6
    assert rounding_resolution(Fraction(2)) == 2


@settings(max_examples=40, derandomize=True)
@given(eps=st.fractions(min_value=Fraction(1, 64), max_value=1,
                        max_denominator=64))
def test_rounding_resolution_is_minimal(eps):
    r = rounding_resolution(eps)
    target = 2 ** float(-eps / 2)
    assert 1 - 2 ** (1 - r) >= target - 1e-12
    if r > 1:
        assert 1 - 2 ** (1 - (r - 1)) < target + 1e-12


# ---------------------------------------------------------------------------
# block-schedule winners
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_parity_gambler_shape(h):
    spec = build_parity_gambler(h)
    assert spec.head_count == h + 1
    assert validate_gambler(spec).ok
    profile = measure_speeds(spec)
    p = nth_prime(h + 1)
    assert profile.speeds == tuple(Fraction(nth_prime(k), p)
                                   for k in range(1, h + 1))


def test_parity_gambler_unsupported_h():
    with pytest.raises(ValueError):
        build_parity_gambler(0)
    with pytest.raises(ValueError):
        build_parity_gambler(99)


@pytest.mark.parametrize("h,n,expected", [(2, 1000, 199), (3, 700, 99)])
def test_parity_gambler_doubling_count(h, n, expected):
    spec = build_parity_gambler(h)
    src = f_family(h, "F", prng_source(1))
    assert run_martingale(spec, src, n).final_capital.log2() == float(expected)


def test_parity_gambler_boundary_bets_always_win():
    spec = build_parity_gambler(2)
    p = 5
    for seed in range(10):
        src = f_family(2, "F", prng_source(seed))
        trace = run_martingale(spec, src, 500)
        wins = 0
        rows = zip(trace.steps.tolist(), trace.rows.states.tolist(),
                   trace.rows.symbols.tolist())
        for m, q, symbol in rows:
            bet = trace.compiled.bets[q][symbol]
            if m % p == 0 and m > 0:
                assert bet == 1, f"boundary bet lost at step {m}, seed {seed}"
                wins += 1
            else:
                assert bet == Fraction(1, 2)
        assert wins == -(-500 // p) - 1
        assert trace.all_in_win_count() == wins


def test_variant_gamblers_shape_and_speeds():
    xp = build_variant_gambler(2, "Fprime")
    xpp = build_variant_gambler(2, "Fdoubleprime")
    assert xp.head_count == 2 and xpp.head_count == 2
    assert measure_speeds(xp).speeds == (Fraction(2, 5),)
    assert measure_speeds(xpp).speeds == (Fraction(3, 5),)
    assert validate_gambler(xp).ok and validate_gambler(xpp).ok
    with pytest.raises(ValueError):
        build_variant_gambler(1, "Fprime")
    with pytest.raises(ValueError):
        build_variant_gambler(2, "F")


@pytest.mark.parametrize("variant", ["Fprime", "Fdoubleprime"])
def test_variant_gambler_wins_on_matching_sequence(variant):
    spec = build_variant_gambler(2, variant)
    src = f_family(2, variant, prng_source(1))
    assert run_martingale(spec, src, 1000).final_capital.log2() == 199.0


def test_variant_gambler_fails_on_mismatched_sequence():
    spec = build_variant_gambler(2, "Fprime")
    src = f_family(2, "Fdoubleprime", prng_source(1))
    caps = run_log2_capitals(spec, src, 100_000)
    est = window_exponents(caps, 2)
    assert est.limsup_est <= 0.02  # all-in losses leave it bankrupt


def test_wrong_speed_schedule_gains_nothing():
    from galelab.constructions import _block_gambler

    # block machinery intact, but both heads run at speed 2/5: the parity
    # it samples is not the boundary parity, so boundary bets are blind
    wrong = _block_gambler(3, [1, 1], "wrong_speeds")
    src = f_family(2, "F", prng_source(1))
    caps = run_log2_capitals(wrong, src, 50_000)
    assert window_exponents(caps, 2).limsup_est <= 0.02


def test_scaled_capital_clears_threshold_at_every_prefix():
    eps = Fraction(1, 20)
    s = 1 - Fraction(1, 5) + eps
    spec = build_parity_gambler(2)
    src = f_family(2, "F", prng_source(1))
    trace = run_martingale(spec, src, 300)
    wins = 0
    rows = zip(trace.steps.tolist(), trace.rows.states.tolist(),
               trace.rows.symbols.tolist())
    for m, q, symbol in rows:
        if trace.compiled.bets[q][symbol] == 1:
            wins += 1
        n = m + 1
        # exact arithmetic: doubling count plus the scale shift
        assert wins + (s - 1) * n >= eps * n - 2


def test_constructed_gamblers_satisfy_structural_checks():
    specs = [build_parity_gambler(1), build_parity_gambler(2),
             build_variant_gambler(2, "Fprime"),
             build_variant_gambler(2, "Fdoubleprime")]
    for spec in specs:
        assert validate_gambler(spec).ok
        assert check_martingale_property(spec, 6)
        assert check_speed_bounds(spec, 5000)


# ---------------------------------------------------------------------------
# averaging combinator
# ---------------------------------------------------------------------------

def test_average_head_count_and_movement_concatenation():
    g1 = build_variant_gambler(2, "Fprime")
    g2 = build_variant_gambler(2, "Fdoubleprime")
    combined = average_gamblers(g1, g2, Fraction(1, 10))
    assert combined.head_count == g1.head_count + g2.head_count - 1
    assert validate_gambler(combined).ok
    for n in (0, 1, 7, 100, 999):
        assert positions(combined, n) == positions(g1, n) + positions(g2, n)
    assert measure_speeds(combined).speeds == (
        measure_speeds(g1).speeds + measure_speeds(g2).speeds)


def test_average_of_identical_gamblers_is_the_gambler():
    g = build_parity_gambler(2)
    combined = average_gamblers(g, g, Fraction(1, 10))
    src = f_family(2, "F", prng_source(3))
    t1 = run_martingale(g, src, 400, mode="exact")
    t2 = run_martingale(combined, src, 400, mode="exact")
    assert t1.exact == t2.exact


def test_average_rejects_bad_inputs():
    g1 = build_variant_gambler(2, "Fprime")
    g3 = uniform_gambler(3)
    with pytest.raises(ValueError, match="alphabet"):
        average_gamblers(g1, g3, Fraction(1, 10))
    with pytest.raises(ValueError, match="eps"):
        average_gamblers(g1, g1, Fraction(3, 2))
    bad = single_minded_gambler(0)
    object.__setattr__(bad, "initial_capital", Fraction(2))
    with pytest.raises(ValueError, match="capital"):
        average_gamblers(g1, bad, Fraction(1, 10))


def test_average_is_a_fair_gambler():
    g1 = build_variant_gambler(2, "Fprime")
    g2 = build_variant_gambler(2, "Fdoubleprime")
    combined = average_gamblers(g1, g2, Fraction(1, 10))
    assert check_martingale_property(combined, 6)
    assert check_speed_bounds(combined, 5000)


@pytest.mark.parametrize("variant", ["Fprime", "Fdoubleprime"])
def test_averaging_audit_passes_on_both_variants(variant):
    g1 = build_variant_gambler(2, "Fprime")
    g2 = build_variant_gambler(2, "Fdoubleprime")
    src = f_family(2, variant, prng_source(1))
    audit = averaging_audit(g1, g2, Fraction(1, 10), src, 2000)
    assert audit.r == 6
    assert audit.ok, (audit.first_identity_violation,
                      audit.first_shadow_violation,
                      audit.first_sum_bound_violation,
                      audit.first_engine_mismatch)


def test_averaging_audit_on_uniform_pair():
    g = uniform_gambler()
    audit = averaging_audit(g, g, Fraction(1, 2), prng_source(4), 300)
    assert audit.ok
    assert audit.log2_combined[-1] == 0.0


def test_averaged_gambler_grows_on_both_variants():
    g1 = build_variant_gambler(2, "Fprime")
    g2 = build_variant_gambler(2, "Fdoubleprime")
    combined = average_gamblers(g1, g2, Fraction(1, 10))
    for variant in ("Fprime", "Fdoubleprime"):
        src = f_family(2, variant, prng_source(1))
        caps = run_log2_capitals(combined, src, 30_000)
        est = window_exponents(caps, 2)
        assert est.limsup_est >= 0.2 - 0.1 - 0.01
