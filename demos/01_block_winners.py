"""Capital growth of the block-schedule winners.

A derived sequence repeats a simple promise: in every block of p indices
(p prime), the symbol at the block boundary is the parity of a few
well-spaced earlier symbols.  A gambler with one trailing head per
parity reference can park those heads exactly on the referenced symbols,
know every boundary symbol in advance, and double its capital once per
block while betting uniformly elsewhere.
"""

from fractions import Fraction

from galelab import (
    build_parity_gambler,
    f_family,
    nth_prime,
    prng_source,
    run_martingale,
    sgale_log2,
    success_exponent,
)

N = 50_000

for h in (1, 2, 3):
    p = nth_prime(h + 1)
    spec = build_parity_gambler(h)
    src = f_family(h, "F", prng_source(1))
    trace = run_martingale(spec, src, N)
    log2_cap = trace.final_capital.bits
    est = success_exponent(trace)
    print(f"h={h}: {spec.head_count}-head gambler on {src.describe()}")
    print(f"  block prime p={p}, steps n={N}")
    print(f"  log2 capital = {log2_cap:.0f}  (one doubling per block: "
          f"ceil(n/p) - 1 = {-(-N // p) - 1})")
    print(f"  growth exponent ~ {est.limsup_est:.4f}  (1/p = {1 / p:.4f})")

# scale the h=2 run: at s = 1 - 1/5 + 1/20 the reweighted capital still
# grows like 2^(n/20), so the growth survives a substantial handicap
spec = build_parity_gambler(2)
src = f_family(2, "F", prng_source(1))
trace = run_martingale(spec, src, N)
s = 1 - Fraction(1, 5) + Fraction(1, 20)
scaled = sgale_log2([trace.final_capital.bits], [N], s, 2)[0]
print(f"\nscaled capital at s = {s}: log2 = {scaled:.0f} "
      f"(~ n/20 = {N / 20:.0f})")
