"""Closed-form detection probabilities, CH curves for every window mode,
zero crossings, and the small-k expansion.

Reference values in this file were frozen from independent high-precision
evaluations (mpmath with 50-digit arithmetic) of the same closed forms; the
library must reproduce them in float64.
"""

import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.analytic import (
    CH_CURVE_MODES,
    SWEEP_MODES,
    SmallKReport,
    ch_curve_value,
    ch_multiwindow,
    ch_multiwindow_two_term,
    ch_standard,
    ch_union,
    ch_zero_crossing,
    multiwindow_table,
    q_joint,
    q_single,
    qset,
    small_k_expansion,
    standard_table,
    table_for_mode,
    union_coincidence_table,
)
from bellsim.errors import InvalidInputError
from bellsim.inequalities import DEFAULT_QUAD, AngleQuad, ch_value

# Frozen high-precision reference values (50-digit evaluation, rounded to
# float64).
CH_MULTIWINDOW_K01 = 0.2726103966797514
CH_MULTIWINDOW_K4 = -0.0311736746484375
CH_STANDARD_K01 = 0.1613411482952034
CH_STANDARD_K4 = 0.16666666666666666  # exactly 1/6
CH_TWO_TERM_K4 = -0.018360956790123457
CH_PAPER_FULL_K4 = -0.03321230679012377
CH_UNION_K4 = 0.0277777777777779
ROOT_MULTIWINDOW_EXACT = 1.0359500170058693
ROOT_TWO_TERM = 1.392013100098068
ROOT_PAPER_FULL = 0.8318696332158679

k_values = st.floats(min_value=1e-4, max_value=1e4, allow_nan=False)
angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestQSingle:
    def test_on_axis(self):
        # theta = 0 kills the k^2 term: Q = 1/(1+k).
        assert q_single(3.0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_default_alice_angle(self):
        # k = 4, theta = pi/6: 1/(1 + 4 + 16*(3/4)*(1/4)) = 1/8.
        assert q_single(4.0, math.pi / 6) == pytest.approx(0.125, abs=1e-15)

    def test_complementary_angles_equal(self):
        # cos^2*sin^2 is symmetric about pi/4.
        assert q_single(2.5, math.pi / 6) == pytest.approx(
            q_single(2.5, math.pi / 3), abs=1e-15
        )

    @given(k_values, angles)
    def test_q_in_unit_interval(self, k, theta):
        q = q_single(k, theta)
        assert 0.0 < q < 1.0

    @given(angles)
    def test_q_decreasing_in_k(self, theta):
        ks = np.geomspace(1e-3, 1e3, 40)
        qs = [q_single(k, theta) for k in ks]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_rejects_nonpositive_k(self):
        for bad in (0.0, -2.0):
            with pytest.raises(InvalidInputError):
                q_single(bad, 0.5)


class TestQJoint:
    def test_orthogonal_settings_factorize(self):
        # theta = 0, phi = pi/2 selects opposite modes; joint no-click
        # factorizes into the product of singles: 1/(1+k)^2.
        k = 4.0
        assert q_joint(k, 0.0, math.pi / 2) == pytest.approx(
            q_single(k, 0.0) * q_single(k, math.pi / 2), abs=1e-15
        )
        assert q_joint(k, 0.0, math.pi / 2) == pytest.approx(1.0 / 25.0, abs=1e-15)

    def test_default_pair(self):
        # k = 4, (pi/6, pi/3): 1/(1 + 8 + 16*(3/4+1/4... )) evaluates to 1/25?
        # Direct: c^2=3/4, s^2=1/4, c'^2=1/4, s'^2=3/4;
        # (c^2+c'^2)(s^2+s'^2) = 1*1 = 1 -> 1/(1+8+16) = 1/25.
        assert q_joint(4.0, math.pi / 6, math.pi / 3) == pytest.approx(0.04, abs=1e-15)

    def test_unprimed_primed_cross_pair(self):
        # k = 4, (pi/6, pi/2): (3/4+0)(1/4+1) = 15/16 -> 1/(9+15) = 1/24.
        assert q_joint(4.0, math.pi / 6, math.pi / 2) == pytest.approx(1.0 / 24.0, abs=1e-15)

    @given(k_values, angles, angles)
    def test_joint_below_singles(self, k, theta, phi):
        q = q_joint(k, theta, phi)
        assert 0.0 < q < 1.0
        assert q <= q_single(k, theta) + 1e-15
        assert q <= q_single(k, phi) + 1e-15

    @given(k_values, angles, angles)
    def test_symmetric_in_settings(self, k, theta, phi):
        assert q_joint(k, theta, phi) == pytest.approx(q_joint(k, phi, theta), abs=1e-15)


class TestQSet:
    def test_matches_scalar_functions(self):
        qs = qset(4.0, DEFAULT_QUAD)
        assert qs.q_a == q_single(4.0, DEFAULT_QUAD.a)
        assert qs.q_b_prime == q_single(4.0, DEFAULT_QUAD.b_prime)
        assert qs.q_ab == q_joint(4.0, DEFAULT_QUAD.a, DEFAULT_QUAD.b)
        assert qs.q_a_prime_b_prime == q_joint(
            4.0, DEFAULT_QUAD.a_prime, DEFAULT_QUAD.b_prime
        )


class TestStandardTable:
    def test_strong_response_values(self):
        t = standard_table(4.0)
        assert t.p_a == pytest.approx(0.875, abs=1e-15)
        assert t.p_b == pytest.approx(0.875, abs=1e-15)
        assert t.p_a_prime == pytest.approx(0.8, abs=1e-15)
        assert t.p_b_prime == pytest.approx(0.8, abs=1e-15)

    def test_ch_is_simple_difference(self):
        """At the default settings Q_A = Q_B = Q_AB'... collapses CH to
        2*Q_AB' - 2*Q_A... i.e. the standard curve equals 2Q_A - 2Q_AB'."""
        for k in (0.1, 0.7, 4.0, 25.0):
            b = ch_standard(k)
            q_a = q_single(k, DEFAULT_QUAD.a)
            q_ab_prime = q_joint(k, DEFAULT_QUAD.a, DEFAULT_QUAD.b_prime)
            assert b.ch == pytest.approx(2 * q_a - 2 * q_ab_prime, abs=1e-12)

    def test_frozen_values(self):
        assert ch_standard(0.1).ch == pytest.approx(CH_STANDARD_K01, abs=1e-15)
        assert ch_standard(4.0).ch == pytest.approx(CH_STANDARD_K4, abs=1e-15)

    def test_always_positive(self):
        for k in np.geomspace(1e-3, 1e3, 200):
            assert ch_standard(float(k)).ch > 0.0

    def test_matches_generic_functional(self):
        t = standard_table(2.0)
        assert ch_standard(2.0).ch == pytest.approx(ch_value(t).ch, abs=1e-15)


class TestMultiwindowTable:
    def test_strong_response_probabilities(self):
        t = multiwindow_table(4.0)
        assert t.p_a == pytest.approx(0.984375, abs=1e-15)
        assert t.p_b == pytest.approx(0.984375, abs=1e-15)
        assert t.p_a_prime == pytest.approx(0.96, abs=1e-15)
        assert t.p_b_prime == pytest.approx(0.96, abs=1e-15)
        assert t.p_ab == pytest.approx(0.9975775146484375, abs=1e-15)
        assert t.p_ab_prime == pytest.approx(0.992775, abs=1e-12)
        assert t.p_a_prime_b == pytest.approx(0.992775, abs=1e-12)
        assert t.p_a_prime_b_prime == pytest.approx(0.98320384, abs=1e-12)

    def test_frozen_ch_values(self):
        assert ch_multiwindow(0.1).ch == pytest.approx(CH_MULTIWINDOW_K01, abs=1e-9)
        assert ch_multiwindow(4.0).ch == pytest.approx(CH_MULTIWINDOW_K4, abs=1e-9)

    def test_exact_vs_paper_variant_differ(self):
        exact = ch_multiwindow(4.0).ch
        paper = ch_curve_value(4.0, mode="multiwindow-paper")
        assert exact == pytest.approx(CH_MULTIWINDOW_K4, abs=1e-12)
        assert paper == pytest.approx(CH_PAPER_FULL_K4, abs=1e-12)
        assert exact != paper

    def test_joint_exceeds_marginal_at_strong_response(self):
        """The split-window inflation is the whole point: the paired-OR
        coincidence probability exceeds the single-side rate."""
        t = multiwindow_table(4.0)
        assert t.p_ab > t.p_a
        assert t.monotonicity_violations() != []

    def test_sign_pattern(self):
        for k in np.geomspace(1e-3, 0.3, 40):
            assert ch_multiwindow(float(k)).ch > 0.0, k
        for k in np.geomspace(2.0, 50.0, 40):
            assert ch_multiwindow(float(k)).ch < 0.0, k

    def test_two_term_shortcut_frozen(self):
        assert ch_multiwindow_two_term(4.0) == pytest.approx(CH_TWO_TERM_K4, abs=1e-12)

    def test_two_term_shortcut_formula(self):
        # 2*(Q_A + Q_B' - Q_AB')^4 - 2*Q_A^2 from the same Q values.
        k = 2.3
        qs = qset(k, DEFAULT_QUAD)
        expected = 2 * (qs.q_a + qs.q_b_prime - qs.q_ab_prime) ** 4 - 2 * qs.q_a**2
        assert ch_multiwindow_two_term(k) == pytest.approx(expected, abs=1e-15)


class TestUnionTable:
    def test_frozen_joints(self):
        t = union_coincidence_table(4.0)
        assert t.p_ab == pytest.approx(0.970350, abs=5e-7)
        assert t.p_ab_prime == pytest.approx(0.946111, abs=5e-7)
        assert t.p_a_prime_b == pytest.approx(0.946111, abs=5e-7)
        assert t.p_a_prime_b_prime == pytest.approx(0.921600, abs=5e-7)

    def test_union_ch_frozen(self):
        assert ch_union(4.0).ch == pytest.approx(CH_UNION_K4, abs=1e-12)

    def test_union_never_violates(self):
        """Union counting is dead-time safe: its CH stays non-negative."""
        for k in np.geomspace(1e-3, 1e3, 120):
            assert ch_union(float(k)).ch >= 0.0

    def test_union_joint_below_marginal(self):
        t = union_coincidence_table(4.0)
        assert t.monotonicity_violations() == []


class TestTableForMode:
    def test_modes_route_correctly(self):
        builders = {
            "standard": standard_table,
            "multiwindow-exact": multiwindow_table,
            "multiwindow-union": union_coincidence_table,
        }
        for mode, builder in builders.items():
            for k in (0.3, 4.0, 1e6):
                assert asdict(table_for_mode(k, mode=mode)) == asdict(builder(k))
        # The paper law has no helper of its own: its joints are the
        # published fourth powers.
        for k in (0.3, 4.0, 1e6):
            q = qset(k)
            paper = table_for_mode(k, mode="multiwindow-paper")
            assert paper.p_ab == 1.0 - (q.q_a + q.q_b - q.q_ab) ** 4
            assert paper.p_a_prime_b_prime == 1.0 - (
                q.q_a_prime + q.q_b_prime - q.q_a_prime_b_prime
            ) ** 4

    def test_marginals_follow_their_settings(self):
        # No two settings share cos^2 sin^2, so a swapped marginal shows.
        quad = AngleQuad(a=0.1, b=0.4, a_prime=0.7, b_prime=1.2)
        for mode in ("standard", "multiwindow-exact", "multiwindow-paper", "multiwindow-union"):
            table = table_for_mode(2.0, quad, mode)
            power = 1 if mode == "standard" else 2
            for name in ("a", "b", "a_prime", "b_prime"):
                expected = 1.0 - q_single(2.0, getattr(quad, name)) ** power
                assert getattr(table, f"p_{name}") == pytest.approx(expected, abs=1e-15)

    def test_registry_covers_the_table_modes(self):
        import bellsim.analytic as an

        assert set(an._LAWS) == set(CH_CURVE_MODES) - {"multiwindow-two-term"}

    def test_unknown_mode_rejected(self):
        for mode in ("imaginary", "multiwindow-two-term", ["standard"], None):
            with pytest.raises(InvalidInputError, match="mode"):
                table_for_mode(1.0, mode=mode)

    def test_mode_tuples(self):
        assert SWEEP_MODES == ("standard", "multiwindow-exact", "multiwindow-paper")
        assert CH_CURVE_MODES == SWEEP_MODES + ("multiwindow-two-term", "multiwindow-union")


def _exact_joint(mode, qx, qy, qxy):
    """The joint of one law evaluated exactly from the float Q values."""
    qx, qy, qxy = Fraction(qx), Fraction(qy), Fraction(qxy)
    if mode == "standard":
        return 1 - qx - qy + qxy
    if mode == "multiwindow-exact":
        return 1 - ((qx + qy - qxy) * (qx + qy - qx * qy)) ** 2
    if mode == "multiwindow-paper":
        return 1 - (qx + qy - qxy) ** 4
    return 1 - qx * qx - qy * qy + qxy * qxy


class TestSmallKJoints:
    """At k below ~1e-8 the joints cancel to ~1e-16 and used to round to
    -2e-16 (about 15% of log-spaced k for every law), which ``ch_value``
    rejected."""

    @pytest.mark.parametrize("mode", [m for m in CH_CURVE_MODES if m != "multiwindow-two-term"])
    def test_tables_validate_and_match_exact_joints(self, mode):
        eps = Fraction(np.finfo(float).eps)
        worst = Fraction(0)
        for k in np.geomspace(1e-18, 1e-4, 4000):
            table = table_for_mode(float(k), mode=mode)
            table.validate()
            q = qset(float(k))
            for joint, qx, qy, qxy in (
                (table.p_ab, q.q_a, q.q_b, q.q_ab),
                (table.p_ab_prime, q.q_a, q.q_b_prime, q.q_ab_prime),
                (table.p_a_prime_b, q.q_a_prime, q.q_b, q.q_a_prime_b),
                (table.p_a_prime_b_prime, q.q_a_prime, q.q_b_prime, q.q_a_prime_b_prime),
            ):
                worst = max(worst, abs(Fraction(joint) - _exact_joint(mode, qx, qy, qxy)))
        assert worst <= 16 * eps

    @pytest.mark.parametrize("mode", CH_CURVE_MODES)
    def test_ch_curve_defined_at_tiny_k(self, mode):
        for k in np.geomspace(1e-12, 1e-6, 5):
            assert math.isfinite(ch_curve_value(float(k), mode=mode))


class TestChCurveValue:
    def test_matches_tables(self):
        for mode in SWEEP_MODES:
            expected = ch_value(table_for_mode(3.0, mode=mode)).ch
            assert ch_curve_value(3.0, mode=mode) == pytest.approx(expected, abs=1e-15)

    def test_two_term_mode(self):
        assert ch_curve_value(4.0, mode="multiwindow-two-term") == pytest.approx(
            CH_TWO_TERM_K4, abs=1e-12
        )

    def test_union_mode(self):
        assert ch_curve_value(4.0, mode="multiwindow-union") == pytest.approx(
            CH_UNION_K4, abs=1e-12
        )

    def test_unknown_mode_names_every_curve_mode(self):
        for call in (
            lambda: ch_curve_value(1.0, mode="bogus"),
            lambda: small_k_expansion(mode="bogus"),
        ):
            with pytest.raises(InvalidInputError, match="multiwindow-two-term"):
                call()


class TestZeroCrossing:
    def test_exact_multiwindow_root(self):
        root = ch_zero_crossing()
        assert root == pytest.approx(ROOT_MULTIWINDOW_EXACT, abs=1e-12)
        assert abs(ch_curve_value(root)) < 1e-12

    def test_two_term_root(self):
        root = ch_zero_crossing(mode="multiwindow-two-term")
        assert root == pytest.approx(ROOT_TWO_TERM, abs=1e-9)

    def test_paper_full_root(self):
        root = ch_zero_crossing(mode="multiwindow-paper")
        assert root == pytest.approx(ROOT_PAPER_FULL, abs=1e-9)

    def test_standard_mode_has_no_root(self):
        assert ch_zero_crossing(mode="standard") is None

    def test_union_mode_has_no_root(self):
        assert ch_zero_crossing(mode="multiwindow-union") is None

    def test_collapsed_quad_crosses_at_unity(self):
        """All four settings equal: Q = 1/(1+k), joint Q = 1/(1+2k), and the
        split-window probabilities coincide exactly at k = 1."""
        quad = AngleQuad(0.0, 0.0, 0.0, 0.0)
        assert ch_zero_crossing(quad=quad) == pytest.approx(1.0, abs=1e-12)

    def test_root_within_stated_window(self):
        root = ch_zero_crossing()
        assert 0.5 < root < 1.5

    def test_rounding_noise_is_not_a_crossing(self):
        """Past k ~ 1e7 the standard CH (~0.085/k^2) is below the rounding
        of Ps - Pc ~ 2 and flickers between +-2.2e-16 and 0.0."""
        assert ch_zero_crossing(mode="standard", bracket=(1e3, 1e12)) is None

    @pytest.mark.parametrize("mode", CH_CURVE_MODES)
    def test_all_zero_scan_has_no_crossing(self, mode):
        assert ch_zero_crossing(mode=mode, bracket=(1e100, 1e300)) is None

    @pytest.mark.parametrize(
        "mode, root",
        [
            ("multiwindow-exact", ROOT_MULTIWINDOW_EXACT),
            ("multiwindow-two-term", ROOT_TWO_TERM),
            ("multiwindow-paper", ROOT_PAPER_FULL),
        ],
    )
    def test_wide_bracket_finds_the_same_root(self, mode, root):
        assert ch_zero_crossing(mode=mode, bracket=(1e-3, 1e30)) == pytest.approx(root, abs=1e-9)

    def test_scan_points_within_rounding_are_bisected_across(self, monkeypatch):
        """CH = 1 - (1 + 1e-14 (k - 2)) is within rounding of 0 (|CH| <=
        16 eps * 2) for |k - 2| < 0.71, so the scan over [1, 3] reads +,
        noise, noise, noise, - and bisection must run across the noise."""
        import bellsim.analytic as an

        monkeypatch.setattr(an, "_ch_parts", lambda k, quad, mode: (1.0, 1.0 + 1e-14 * (k - 2.0)))
        ks = np.geomspace(1.0, 3.0, 5)
        parts = np.array([an._ch_parts(k, None, None) for k in ks])
        noise = 16 * np.finfo(float).eps * parts.sum(axis=1)
        assert list(np.abs(parts[:, 0] - parts[:, 1]) > noise) == [True, False, False, False, True]
        monkeypatch.setattr(an, "_SCAN_POINTS", 5)
        root = ch_zero_crossing(bracket=(1.0, 3.0))
        assert root == pytest.approx(2.0, abs=0.03)
        assert abs(ch_curve_value(root)) <= 16 * np.finfo(float).eps * 2


class TestSmallK:
    def test_slopes(self):
        for mode, slope in [
            ("multiwindow-exact", 4.0),
            ("multiwindow-paper", 4.0),
            ("multiwindow-two-term", 4.0),
            ("multiwindow-union", 4.0),
            ("standard", 2.0),
        ]:
            report = small_k_expansion(mode=mode)
            assert isinstance(report, SmallKReport)
            assert report.slope == pytest.approx(slope, abs=1e-6), mode
            assert abs(report.ch_at_zero) < 1e-10, mode

    def test_curve_tracks_linear_term(self):
        report = small_k_expansion(mode="multiwindow-exact")
        for h in (1e-3, 1e-4):
            assert ch_curve_value(h) == pytest.approx(report.slope * h, rel=5e-3)


class TestDomain:
    def test_k_must_be_positive_everywhere(self):
        for fn in (
            lambda: q_single(0.0, 0.1),
            lambda: q_joint(-1.0, 0.1, 0.2),
            lambda: standard_table(0.0),
            lambda: multiwindow_table(-4.0),
            lambda: ch_curve_value(0.0),
            lambda: union_coincidence_table(0.0),
        ):
            with pytest.raises(InvalidInputError):
                fn()

    def test_overflowing_k_on_axis(self):
        """k*k overflows from ~1.3e154 on; the on-axis Q must not turn NaN."""
        assert q_single(1e200, 0.0) == pytest.approx(1e-200, rel=1e-15)
        assert q_joint(1e200, 0.0, 0.0) == pytest.approx(5e-201, rel=1e-15)
        ch = ch_standard(1e200).ch
        assert math.isfinite(ch) and ch >= 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-3.0, max_value=300.0), angles, angles)
    def test_q_in_unit_interval_up_to_1e300(self, log_k, theta, phi):
        k = 10.0 ** log_k
        for q in (q_single(k, theta), q_joint(k, theta, phi)):
            assert math.isfinite(q) and 0.0 <= q <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-3.0, max_value=300.0))
    def test_ch_finite_up_to_1e300(self, log_k):
        k = 10.0 ** log_k
        for mode in CH_CURVE_MODES:
            assert math.isfinite(ch_curve_value(k, DEFAULT_QUAD, mode))

    def test_large_k_limit(self):
        """CH approaches zero from below as the response constant grows."""
        values = [ch_multiwindow(float(k)).ch for k in (1e2, 1e3, 1e4)]
        assert all(v < 0.0 for v in values)
        assert all(abs(a) > abs(b) for a, b in zip(values, values[1:]))
        assert abs(values[-1]) < 1e-3
