"""Acceptance suite: the nine headline claims, one labeled pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines on the terminal (without ``-s`` they appear only for failures).

[A8c] is marked xfail(strict=True): the quoted quarter-period band for the
median nearest-event delay of independent constant-rate streams contradicts
the exact law (the median is (ln 2 / 2) T for every rate).  The claim is
implemented faithfully and fails; the companion test [A8c'] verifies the
true law.  See the repository notes for the derivation.
"""

import math
import time

import numpy as np
import pytest

from bellsim.analytic import ch_curve_value, ch_zero_crossing, small_k_expansion
from bellsim.detector import HalfWindowParams, gain
from bellsim.inequalities import (
    ch_to_chsh,
    ch_value,
    chsh_value,
    eval_discrete_lhv,
    pointwise_ch_inequality_check,
    random_discrete_model,
)
from bellsim.montecarlo import RunConfig, compare_to_analytic, estimate_table
from bellsim.waveform import (
    delay_statistics,
    intensity_at,
    intensity_stats,
    sample_events,
    sample_homogeneous_events,
    three_wave,
)

CH_MULTIWINDOW_K01 = 0.2726103966797514
CH_MULTIWINDOW_K4 = -0.0311736746484375


def report(label, ok, detail):
    line = f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    return line


def make_rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def test_a1_standard_analysis_stays_positive():
    """Single-window CH is positive over six decades of detector response."""
    t0 = time.perf_counter()
    ks = np.geomspace(1e-3, 1e3, 200)
    values = [ch_curve_value(float(k), mode="standard") for k in ks]
    elapsed = time.perf_counter() - t0
    ok = all(v > 0.0 for v in values) and elapsed < 1.0
    line = report(
        "A1", ok,
        f"standard CH > 0 on 200 log-spaced k in [1e-3, 1e3]; "
        f"min={min(values):.3e} at k={float(ks[int(np.argmin(values))]):.3g}, "
        f"{elapsed * 1e3:.0f} ms",
    )
    assert ok, line


def test_a2_multiwindow_sign_flip_analytic_and_monte_carlo():
    """Split-window CH: +0.273 at k = 0.1, -0.031 at k = 4 (1e-9 analytic),
    and a 10^6-trial simulation within 5 sigma of both tables."""
    t0 = time.perf_counter()
    v01 = ch_curve_value(0.1, mode="multiwindow-exact")
    v4 = ch_curve_value(4.0, mode="multiwindow-exact")
    analytic_ok = (
        abs(v01 - CH_MULTIWINDOW_K01) <= 1e-9 and abs(v4 - CH_MULTIWINDOW_K4) <= 1e-9
    )

    reports = [
        compare_to_analytic(
            RunConfig(k=k, scheme="halves", n_trials=1_000_000, seed=2024)
        )
        for k in (0.1, 4.0)
    ]
    elapsed = time.perf_counter() - t0
    mc_ok = all(r.passed for r in reports) and elapsed < 120.0
    ok = analytic_ok and mc_ok
    line = report(
        "A2", ok,
        f"CH(0.1)={v01:+.10f} CH(4)={v4:+.10f} (refs {CH_MULTIWINDOW_K01:+.10f}/"
        f"{CH_MULTIWINDOW_K4:+.10f}); MC max|z|="
        f"{max(r.max_abs_z for r in reports):.2f} at n=1e6; {elapsed:.1f} s",
    )
    assert ok, line


def test_a3_zero_crossing_near_unity():
    """The sign flip of the split-window CH happens between k = 0.5 and 1.5."""
    t0 = time.perf_counter()
    root = ch_zero_crossing()
    elapsed = time.perf_counter() - t0
    ok = root is not None and 0.5 < root < 1.5 and elapsed < 1.0
    line = report("A3", ok, f"zero crossing k*={root}; {elapsed * 1e3:.0f} ms")
    assert ok, line


def test_a4_published_end_formula_asymptotics():
    """The published two-term law: slope 4 +- 0.01 at k -> 0+, negative for
    k >= 4, and approaching zero from below."""
    t0 = time.perf_counter()
    slope = small_k_expansion(mode="multiwindow-two-term").slope
    slope_ok = abs(slope - 4.0) <= 0.01

    tail = [
        ch_curve_value(float(k), mode="multiwindow-two-term") for k in np.geomspace(4.0, 1e3, 50)
    ]
    negative_ok = all(v < 0.0 for v in tail)
    decay_ok = abs(tail[-1]) < 1e-8 and abs(tail[-1]) < abs(tail[0])
    elapsed = time.perf_counter() - t0
    ok = slope_ok and negative_ok and decay_ok and elapsed < 1.0
    line = report(
        "A4", ok,
        f"small-k slope {slope:.6f} (target 4 +- 0.01); CH < 0 on k in [4, 1e3]; "
        f"CH(1e3)={tail[-1]:.3e} -> 0-; {elapsed * 1e3:.0f} ms",
    )
    assert ok, line


def test_a5_gain_positivity_grid():
    """Conditional detection gain is non-negative on the full (p, q) grid,
    vanishing only at saturation."""
    t0 = time.perf_counter()
    min_gain, argmin = math.inf, None
    negative = []
    for i in range(1, 101):
        p = i / 100.0
        for j in range(i, 101):
            q = j / 100.0
            g = gain(HalfWindowParams(p=p, q=q))
            if g < 0.0:
                negative.append((p, q, g))
            if (p, q) != (1.0, 1.0) and g < min_gain:
                min_gain, argmin = g, (p, q)
    saturation = gain(HalfWindowParams(p=1.0, q=1.0))
    elapsed = time.perf_counter() - t0
    ok = not negative and saturation == 0.0 and min_gain > 0.0 and elapsed < 1.0
    line = report(
        "A5", ok,
        f"gain >= 0 on 5050 grid points; min off-saturation {min_gain:.3e} at "
        f"{argmin}; gain(1,1)={saturation}; {elapsed * 1e3:.0f} ms",
    )
    assert ok, line


def test_a6_no_local_model_violates_ch():
    """10^4 random discrete LHV models (1-64 hidden states) all satisfy
    CH >= -1e-12, and the 16-case pointwise inequality has slack >= 0."""
    t0 = time.perf_counter()
    rng = make_rng(20240819)
    min_ch = math.inf
    for _ in range(10_000):
        table = eval_discrete_lhv(random_discrete_model(rng))
        min_ch = min(min_ch, ch_value(table).ch)
    pointwise = pointwise_ch_inequality_check()
    elapsed = time.perf_counter() - t0
    ok = (
        min_ch >= -1e-12
        and pointwise.all_nonnegative
        and len(pointwise.cases) == 16
        and elapsed < 10.0
    )
    line = report(
        "A6", ok,
        f"min CH over 1e4 random models = {min_ch:.3e} (>= -1e-12); "
        f"pointwise min slack = {pointwise.min_slack}; {elapsed:.1f} s",
    )
    assert ok, line


def test_a7_simulation_matches_closed_forms_and_parallelism_is_exact():
    """k in {0.1, 1, 4} x both window schemes at n = 10^6: every estimate
    within 5 sigma; counts bit-identical across 1/2/8 workers."""
    t0 = time.perf_counter()
    worst = 0.0
    all_passed = True
    for k in (0.1, 1.0, 4.0):
        for scheme in ("single", "halves"):
            rep = compare_to_analytic(
                RunConfig(k=k, scheme=scheme, n_trials=1_000_000, seed=2024)
            )
            worst = max(worst, rep.max_abs_z)
            all_passed = all_passed and rep.passed

    def snapshot(workers):
        table = estimate_table(
            RunConfig(k=4.0, scheme="halves", n_trials=1_000_000, seed=2024,
                      workers=workers)
        )
        return (
            {name: e.count for name, e in table.entries.items()},
            {name: e.count for name, e in table.union_joints.items()},
        )

    counts = [snapshot(w) for w in (1, 2, 8)]
    deterministic = counts[0] == counts[1] == counts[2]
    elapsed = time.perf_counter() - t0
    ok = all_passed and deterministic and elapsed < 300.0
    line = report(
        "A7", ok,
        f"6 configs at n=1e6: max|z|={worst:.2f} (limit 5); workers 1/2/8 "
        f"bit-identical={deterministic}; {elapsed:.1f} s",
    )
    assert ok, line


def test_a8a_peak_intensity():
    """Three-wave peak intensity is 16|A|^2, at t = (2n+1) pi/omega."""
    t0 = time.perf_counter()
    w = three_wave(omega=1.0, amplitude=1.0)
    s = intensity_stats(w)
    peak_ok = abs(s.maximum - 16.0) / 16.0 <= 1e-3
    loc_ok = len(s.argmax_times) == 1 and abs(s.argmax_times[0] - math.pi) <= 1e-6
    odd_ok = all(
        abs(float(intensity_at(w, (2 * n + 1) * math.pi)) - 16.0) <= 1e-9
        for n in range(4)
    )
    elapsed = time.perf_counter() - t0
    ok = peak_ok and loc_ok and odd_ok
    line = report(
        "A8a", ok,
        f"max intensity {s.maximum:.6f} (target 16 within 0.1%) at "
        f"t={s.argmax_times[0]:.6f} (pi), repeating at odd multiples; "
        f"{elapsed * 1e3:.0f} ms",
    )
    assert ok, line


def test_a8b_mean_intensity():
    """Three-wave period-average intensity is 3|A|^2 (the quoted 0.96|A|^2
    figure is recorded as a discrepancy note on the stats object)."""
    t0 = time.perf_counter()
    s = intensity_stats(three_wave())
    elapsed = time.perf_counter() - t0
    ok = abs(s.mean - 3.0) / 3.0 <= 1e-3 and s.note is not None
    line = report(
        "A8b", ok,
        f"mean intensity {s.mean:.9f} (target 3 within 0.1%); quoted-average "
        f"discrepancy note attached; {elapsed * 1e3:.0f} ms",
    )
    assert ok, line


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The stated quarter-period band contradicts the exact law: for two "
        "independent rate-r streams the nearest-event |delay| is "
        "exponential(2r), so with T = 1/r the median is (ln 2 / 2) T "
        "= 0.3466 T for every rate - outside [0.1875 T, 0.3125 T]. "
        "Companion test [A8c'] checks the true law."
    ),
)
def test_a8c_independent_delay_median_quarter_period_band():
    """Claimed: independent constant-rate streams (>= 10^4 events) have
    median nearest-delay T/4 +- 25%."""
    rng = make_rng(424242)
    a = sample_homogeneous_events(rate=1.0, span=20_000.0, rng=rng)
    b = sample_homogeneous_events(rate=1.0, span=20_000.0, rng=rng)
    assert a.n >= 10_000
    median = delay_statistics(a, b).median_abs_delay  # T = 1/rate = 1
    in_band = 0.25 * 0.75 <= median <= 0.25 * 1.25
    report(
        "A8c", in_band,
        f"median |delay| / T = {median:.4f}, claimed band [0.1875, 0.3125] "
        f"(exact law: ln2/2 = {math.log(2) / 2:.4f})",
    )
    assert in_band


def test_a8c_companion_independent_delay_true_law():
    """The exact law the band test contradicts: median = (ln 2 / 2) T."""
    t0 = time.perf_counter()
    rng = make_rng(424242)
    a = sample_homogeneous_events(rate=1.0, span=20_000.0, rng=rng)
    b = sample_homogeneous_events(rate=1.0, span=20_000.0, rng=rng)
    median = delay_statistics(a, b).median_abs_delay
    elapsed = time.perf_counter() - t0
    ok = a.n >= 10_000 and abs(median - math.log(2) / 2) <= 0.015
    line = report(
        "A8c'", ok,
        f"median |delay| / T = {median:.4f} vs exact ln2/2 = "
        f"{math.log(2) / 2:.4f} (n={a.n}); {elapsed * 1e3:.0f} ms",
    )
    assert ok, line


def test_a8d_shared_fluctuations_halve_the_delay_median():
    """Streams thinned from one shared waveform: median nearest-delay under
    half the matched-rate independent baseline."""
    t0 = time.perf_counter()
    w = three_wave(omega=2 * math.pi)  # period T = 1
    rng = make_rng(424242)
    shared_a = sample_events(w, span=2000.0, rate_scale=10.0 / 3.0, rng=rng)
    shared_b = sample_events(w, span=2000.0, rate_scale=10.0 / 3.0, rng=rng)
    indep_a = sample_homogeneous_events(rate=10.0, span=2000.0, rng=rng)
    indep_b = sample_homogeneous_events(rate=10.0, span=2000.0, rng=rng)
    med_shared = delay_statistics(shared_a, shared_b).median_abs_delay
    med_indep = delay_statistics(indep_a, indep_b).median_abs_delay
    ratio = med_shared / med_indep
    elapsed = time.perf_counter() - t0
    ok = ratio < 0.5 and elapsed < 30.0
    line = report(
        "A8d", ok,
        f"median ratio shared/independent = {ratio:.3f} (< 0.5); "
        f"{elapsed * 1e3:.0f} ms",
    )
    assert ok, line


def test_a9_ch_chsh_identity():
    """CHSH == 2 - 4*CH under the standard change of variables, to 1e-12,
    on 10^3 random local tables."""
    t0 = time.perf_counter()
    rng = make_rng(777)
    worst = 0.0
    for _ in range(1000):
        table = eval_discrete_lhv(random_discrete_model(rng))
        resid = abs(chsh_value(ch_to_chsh(table)) - (2.0 - 4.0 * ch_value(table).ch))
        worst = max(worst, resid)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    line = report(
        "A9", ok,
        f"max |CHSH - (2 - 4 CH)| = {worst:.3e} over 1e3 random tables; "
        f"{elapsed * 1e3:.0f} ms",
    )
    assert ok, line
