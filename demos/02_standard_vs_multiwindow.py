"""The sign flip: single-window counting vs split-window pairing.

Both columns below come from the same chaotic-light source and the same
detectors.  The only difference is bookkeeping: the split-window scheme
fires two shots per trial and counts a coincidence whenever any pairing of
shots succeeds.  That inflated pairing count drives the CH combination
negative for strong response (k above roughly 1) -- an apparent Bell
violation produced by a completely local model.
"""

from bellsim import (
    ch_curve_value,
    ch_zero_crossing,
    multiwindow_table,
    small_k_expansion,
)

print("=== CH vs detector response k ===")
print(f"{'k':>8} | {'standard':>10} | {'split-window':>12} | "
      f"{'two-term':>10} | {'union':>10}")
print("-" * 62)
for k in (0.03, 0.1, 0.3, 1.0, 1.036, 2.0, 4.0, 10.0, 40.0):
    standard = ch_curve_value(k, mode="standard")
    split = ch_curve_value(k, mode="multiwindow-exact")
    two_term = ch_curve_value(k, mode="multiwindow-two-term")
    union = ch_curve_value(k, mode="multiwindow-union")
    print(f"{k:>8.3f} | {standard:>+10.5f} | {split:>+12.5f} | "
          f"{two_term:>+10.5f} | {union:>+10.5f}")

print()
print("standard: one window per trial -- positive everywhere (no anomaly).")
print("split-window: pairing-channel counting -- flips sign near k = 1.")
print("two-term: the published closed-form shortcut -- same story, shifted.")
print("union: same split windows, but coincidence = (any A shot) AND")
print("       (any B shot) -- dead-time safe, never negative.")

print()
print("=== Zero crossings ===")
for mode in ("multiwindow-exact", "multiwindow-two-term", "multiwindow-paper",
             "standard", "multiwindow-union"):
    root = ch_zero_crossing(mode=mode)
    label = f"{root:.6f}" if root is not None else "none (no sign change)"
    print(f"  {mode:>22}: {label}")

print()
print("=== Where the violation lives ===")
t = multiwindow_table(4.0)
print(f"at k = 4 the pairing-law joint P_AB = {t.p_ab:.6f} EXCEEDS the")
print(f"marginal P_A = {t.p_a:.6f} -- a negative 'no-coincidence' weight")
print("that no genuine probability assignment could produce:")
print(f"  flagged entries: {t.monotonicity_violations()}")

print()
print("=== Small-k behaviour ===")
for mode in ("standard", "multiwindow-exact", "multiwindow-two-term"):
    rep = small_k_expansion(mode=mode)
    print(f"  {mode:>22}: CH ~ {rep.slope:.4f} * k  "
          f"(intercept {rep.ch_at_zero:+.1e})")
print()
print("All split-window variants rise twice as fast as the standard curve")
print("at small k, then crash through zero near k = 1.")
