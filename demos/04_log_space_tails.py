"""
Why the p-value pipeline lives in log space
===========================================

Under a strong signal the standardized scores reach the hundreds, where
the plain normal survival function underflows to exactly 0 and a naive
Fisher combination would blow up to infinity.  The log-tail evaluation
stays finite and exact, so the fused per-split profile remains a smooth,
comparable curve even when every p-value underflows.
"""

import math

from cpjoint import fisher_combine_log, normal_log_sf, normal_sf

print("score   1 - Phi(score)      log(1 - Phi(score))")
for z in (1.0, 5.0, 10.0, 38.0, 50.0, 200.0):
    print(f"{z:6.1f}  {normal_sf(z):18.6e}  {normal_log_sf(z):18.6f}")
print()

z1, z2 = 45.0, 52.0
lp1, lp2 = normal_log_sf(z1), normal_log_sf(z2)
print(f"two huge scores: {z1} and {z2}")
print(f"  their p-values both print as {normal_sf(z1):.2e} and {normal_sf(z2):.2e},")
print("  clamped at the smallest positive double, yet their logs differ cleanly:")
print(f"  log p1 = {lp1:.2f},  log p2 = {lp2:.2f}")
print(f"  fused statistic from logs: {fisher_combine_log(lp1, lp2):.2f}")
print()

x = 10.0
upper = -0.5 * x * x - math.log(x) - 0.5 * math.log(2 * math.pi)
lower = upper + math.log(x * x / (1 + x * x))
print("classical tail bracket at x=10 (value must sit between the bounds):")
print(f"  {lower:.6f}  <=  {normal_log_sf(x):.6f}  <=  {upper:.6f}")
