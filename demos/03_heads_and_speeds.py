"""Oblivious head movement: speeds and the position-deviation bound.

Trailing heads move on a fixed schedule driven only by the positional
state cycle, never by the data.  Each head therefore has a speed (its
advances per cycle over the cycle length), and its position can never
stray from the speed line by more than the number of positional states.
"""

from galelab import (
    build_parity_gambler,
    check_speed_bounds,
    measure_speeds,
    positions,
)

spec = build_parity_gambler(2)
profile = measure_speeds(spec)
print(f"{spec.label()}: {spec.head_count} heads, "
      f"positional cycle length {profile.cycle_length}, "
      f"preperiod {profile.preperiod_length}")
print(f"trailing speeds: {[str(s) for s in profile.speeds]}")

print("\nhead positions over the first three blocks:")
for n, pos in enumerate(positions(spec, range(16))):
    print(f"  step {n:2d}: trailing at {pos}")

print("\nwithin-bound check for all n <= 100000:",
      check_speed_bounds(spec, 100_000))

horizons = (10, 1_000, 100_000)
for n, pos in zip(horizons, positions(spec, horizons)):
    drift = [float(p - s * n) for p, s in zip(pos, profile.speeds)]
    print(f"  n={n:>6}: positions {pos}, deviation from speed line {drift}")
