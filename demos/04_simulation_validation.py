"""Monte Carlo vs closed forms, with a negative control.

The simulation draws chaotic-light intensities, converts them to shot
probabilities, and counts.  The closed forms predict every entry of the
probability table.  This script scores a million-trial run against those
predictions (z-scores), shows that worker-count does not change a single
count, and then deliberately scores the run against the WRONG closed forms
to prove the test has teeth.
"""

import sys
import time

from bellsim import RunConfig, compare_to_analytic, estimate_table

K, N, SEED = 4.0, 1_000_000, 2024

print(f"=== Split-window run: k = {K}, n = {N:,}, seed = {SEED} ===")
t0 = time.perf_counter()
cfg = RunConfig(k=K, scheme="halves", n_trials=N, seed=SEED)
report = compare_to_analytic(cfg)
print("\n".join(report.summary_lines()))
print(f"(run + scoring took {time.perf_counter() - t0:.1f} s)", file=sys.stderr)

print()
print("note the pairing-law joints sitting ABOVE their marginals -- the")
print(f"recorded inflation: {list(report.monotonicity_violations)}")
print(f"estimated CH = {report.estimated.ch.ch:+.5f} "
      f"+- {report.estimated.ch_std_error:.5f}  (negative: the apparent")
print("violation, reproduced by a local simulation)")

print()
print("=== Determinism across worker counts ===")
counts = {}
for workers in (1, 2, 8):
    table = estimate_table(
        RunConfig(k=K, scheme="halves", n_trials=N, seed=SEED, workers=workers)
    )
    counts[workers] = {name: e.count for name, e in table.entries.items()}
    print(f"workers={workers}: P_AB count = {counts[workers]['p_ab']}")
identical = counts[1] == counts[2] == counts[8]
print(f"all counts bit-identical: {identical}")

print()
print("=== Negative control ===")
print("scoring the k = 4 run against the k = 2 closed forms MUST fail:")
bad = compare_to_analytic(cfg, analytic_k=2.0)
print(f"max|z| = {bad.max_abs_z:.1f}  passed = {bad.passed}")
print()
print("If this control ever passes, the z-test has lost its power and no")
print("agreement claim from this engine should be believed.")
