"""End-to-end acceptance checks at full desk scale.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line.  These pin
the headline quantitative behaviour: exact doubling counts, the scaled
capital growth rate, generator/oracle agreement, the exact fair-betting
identity, head-speed bounds, the exact averaging guarantees, the
sweep-separation gap, the instability matrix, and exact/log agreement.
"""

import time
from fractions import Fraction

from galelab.analysis import (
    SweepBudget,
    adversarial_sweep,
    instability_experiment,
)
from galelab.constructions import (
    average_gamblers,
    averaging_audit,
    build_parity_gambler,
    build_variant_gambler,
    rounding_resolution,
    single_minded_gambler,
    uniform_gambler,
)
from galelab.core import BANKRUPT_LOG2, validate_gambler
from galelab.engine import (
    check_martingale_property,
    check_speed_bounds,
    run_martingale,
)
from galelab.sequences import (
    constant_source,
    expand_index,
    f_family,
    nth_prime,
    prng_source,
)

from gamblers import two_state_swing_gambler


def check(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else f"FAIL ({detail})"
    print(f"ACCEPTANCE {name}: {verdict}")
    assert ok, f"{name}: {detail}"


def constructed_gamblers():
    specs = [build_parity_gambler(h) for h in (1, 2, 3, 4)]
    g1 = build_variant_gambler(2, "Fprime")
    g2 = build_variant_gambler(2, "Fdoubleprime")
    specs += [g1, g2, average_gamblers(g1, g2, Fraction(1, 10))]
    return specs


def test_capital_identity_doubling():
    """One exact doubling per block: log2 capital = ceil(n/p) - 1."""
    worst = 0.0
    for h in (1, 2, 3):
        n = 100_000 if h <= 2 else 70_000
        p = nth_prime(h + 1)
        expected = -(-n // p) - 1
        spec = build_parity_gambler(h)
        for seed in (1, 2, 3):
            src = f_family(h, "F", prng_source(seed))
            t0 = time.perf_counter()
            trace = run_martingale(spec, src, n)
            elapsed = time.perf_counter() - t0
            worst = max(worst, elapsed)
            got = trace.final_capital.log2()
            check(f"capital-identity h={h} seed={seed}",
                  got == float(expected) and abs(got - n / p) <= 1.0,
                  f"log2 capital {got}, expected {expected}")
    check("capital-identity runtime", worst < 10.0, f"slowest run {worst:.1f}s")


def test_gale_growth_rate():
    """The (1 - 1/5 + eps)-scaled capital clears 2^(eps*n - 2), exactly."""
    eps = Fraction(1, 20)
    n = 100_000
    spec = build_parity_gambler(2)
    trace = run_martingale(spec, f_family(2, "F", prng_source(1)), n)
    wins = trace.all_in_win_count()
    s = 1 - Fraction(1, 5) + eps
    gale_log2 = wins + (s - 1) * n  # doublings plus the exact scale shift
    threshold = eps * n - 2
    check("gale-growth-rate",
          wins == 19_999 and gale_log2 >= threshold,
          f"wins={wins}, scaled log2={gale_log2}, need >= {threshold}")


def test_expansion_oracle_agreement():
    """Streaming generator equals the parity-reduced recursion expansion."""
    check("expansion-cancellation",
          expand_index(2, 150).source_indices == frozenset({20, 44}),
          f"expand(2, 150) = {sorted(expand_index(2, 150).source_indices)}")
    t0 = time.perf_counter()
    bad = []
    for h in (1, 2, 3, 4):
        for seed in (1, 2, 3):
            inner = prng_source(seed)
            src = f_family(h, "F", inner)
            src.prefix_array(10_001)
            for i in range(10_001):
                parity = 0
                for idx in expand_index(h, i).source_indices:
                    parity ^= inner.get(idx)
                if parity != src.get(i):
                    bad.append((h, seed, i))
                    break
    elapsed = time.perf_counter() - t0
    check("expansion-oracle-agreement", not bad, f"mismatches at {bad[:3]}")
    check("expansion-oracle runtime", elapsed < 30.0, f"{elapsed:.1f}s")


def test_martingale_tree_identity():
    """Exact fair-betting identity to depth 12 for every built gambler."""
    t0 = time.perf_counter()
    for spec in constructed_gamblers():
        ok = validate_gambler(spec).ok and check_martingale_property(spec, 12)
        check(f"martingale-identity {spec.label()}", ok, "identity violated")
    elapsed = time.perf_counter() - t0
    check("martingale-identity runtime", elapsed < 60.0, f"{elapsed:.1f}s")


def test_speed_bounds_all_gamblers():
    """Exact position-deviation bound for all n <= 1e5, every built gambler."""
    for spec in constructed_gamblers():
        check(f"speed-bounds {spec.label()}",
              check_speed_bounds(spec, 100_000),
              "position strayed beyond the state-count bound")


def test_averaging_exact_bounds():
    """Exact averaging guarantees on both variant sequences to n = 1e4."""
    eps = Fraction(1, 10)
    r = rounding_resolution(eps)
    check("averaging resolution", r == 6, f"r={r}, expected 6")
    g1 = build_variant_gambler(2, "Fprime")
    g2 = build_variant_gambler(2, "Fdoubleprime")
    for variant in ("Fprime", "Fdoubleprime"):
        src = f_family(2, variant, prng_source(1))
        audit = averaging_audit(g1, g2, eps, src, 10_000, sum_bound_start=20)
        detail = (f"identity@{audit.first_identity_violation} "
                  f"shadow@{audit.first_shadow_violation} "
                  f"sum@{audit.first_sum_bound_violation} "
                  f"engine@{audit.first_engine_mismatch}")
        check(f"averaging-bounds on {src.describe()}", audit.ok, detail)


def test_sweep_separation_gap():
    """500 random one-head gamblers never approach the two-head winner."""
    t0 = time.perf_counter()
    src = f_family(1, "F", prng_source(1))
    budget = SweepBudget(max_t=4, max_q=6, bet_denominator_max=8,
                         samples=500, seed=0)
    report = adversarial_sweep(1, src, 100_000, budget,
                               include=[build_parity_gambler(1)])
    elapsed = time.perf_counter() - t0
    max_sampled = report.max_sampled_exponent
    parity_exp = report.included[0].exponent
    check("sweep max sampled exponent", max_sampled <= 0.02,
          f"max sampled {max_sampled}")
    check("sweep planted winner rate", abs(parity_exp - 1 / 3) <= 0.01,
          f"winner exponent {parity_exp}")
    check("sweep separation gap",
          parity_exp >= 10 * max_sampled and report.best_overall_id == "parity_h1",
          f"gap {parity_exp} vs 10 x {max_sampled}")
    check("sweep runtime", elapsed < 600.0, f"{elapsed:.1f}s")


def test_instability_matrix_window():
    """Matched runs grow at 0.2; mismatched runs are bankrupt (-inf).

    Each variant winner bets all-in on its own boundary parity.  On the
    other variant's sequence that boundary symbol is a fair coin flip, so
    the first lost all-in bet zeroes the capital for good and the window
    estimate is exactly the ``BANKRUPT_LOG2`` sentinel, which also shows
    no growth (at most 0.02).  To escape it, a mismatched run would have
    to win every boundary flip before the final tenth of its 1e5 steps.
    """
    diag_ok, offdiag_ok = True, True
    offdiag_values = []
    for seed in (1, 2, 3, 4, 5):
        report = instability_experiment(2, seed=seed, n=100_000,
                                        eps=Fraction(1, 10))
        print(f"  seed {seed}: matrix={report.matrix} averaged={report.averaged}")
        for value in report.diagonal():
            diag_ok = diag_ok and abs(value - 0.2) <= 0.01
        for value in report.off_diagonal():
            offdiag_values.append(value)
            offdiag_ok = (offdiag_ok and value == BANKRUPT_LOG2
                          and value <= 0.02)
    check("instability diagonal", diag_ok, "diagonal outside 0.2 +/- 0.01")
    check("instability off-diagonal", offdiag_ok,
          f"mismatched all-in runs must be bankrupt (-inf); window "
          f"estimates are {sorted(set(offdiag_values))}")


def test_exact_log_agreement():
    """Every representative run at n <= 1e4 agrees across capital modes."""
    n = 10_000
    runs = [
        (build_parity_gambler(1), f_family(1, "F", prng_source(1))),
        (build_parity_gambler(2), f_family(2, "F", prng_source(1))),
        (build_parity_gambler(3), f_family(3, "F", prng_source(1))),
        (build_variant_gambler(2, "Fprime"),
         f_family(2, "Fprime", prng_source(1))),
        (build_variant_gambler(2, "Fdoubleprime"),
         f_family(2, "Fdoubleprime", prng_source(1))),
        (average_gamblers(build_variant_gambler(2, "Fprime"),
                          build_variant_gambler(2, "Fdoubleprime"),
                          Fraction(1, 10)),
         f_family(2, "Fprime", prng_source(1))),
        (two_state_swing_gambler(), prng_source(2)),
        (uniform_gambler(), prng_source(3)),
        (single_minded_gambler(0), prng_source(4)),
        (single_minded_gambler(0), constant_source(0)),
    ]
    for spec, src in runs:
        exact = run_martingale(spec, src, n, mode="exact")
        logt = run_martingale(spec, src, n, mode="log2")
        worst = 0.0
        agree = True
        for ref, got in zip(exact.log2_capitals().tolist(),
                            logt.log2_capitals().tolist()):
            if ref == BANKRUPT_LOG2 or got == BANKRUPT_LOG2:
                agree = agree and ref == got
                continue
            err = abs(ref - got) / max(1.0, abs(ref))
            worst = max(worst, err)
        check(f"exact-log agreement {spec.label()} on {src.describe()}",
              agree and worst <= 1e-9,
              f"worst relative log2 error {worst:.2e}")
