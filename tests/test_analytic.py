"""Closed-form detection probabilities, CH curves for every window mode,
zero crossings, and the small-k expansion.

Reference values in this file were frozen from independent high-precision
evaluations (mpmath with 50-digit arithmetic) of the same closed forms; the
library must reproduce them in float64.
"""

import math
from dataclasses import asdict, astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import analytic
from bellsim.analytic import (
    CH_CURVE_MODES,
    SWEEP_MODES,
    SmallKReport,
    ch_curve_value,
    ch_zero_crossing,
    multiwindow_table,
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


def q_value(k, theta, *phi):
    """Q_single(k, theta), or Q_joint(k, theta, phi) given phi, as ``qset``
    reports it: its ``q_a`` or ``q_ab`` at a quad that sets A to theta and
    B to phi."""
    qs = qset(k, AngleQuad(theta, phi[0] if phi else 0.0, 0.0, 0.0))
    return qs.q_ab if phi else qs.q_a


class TestQSingle:
    def test_on_axis(self):
        # theta = 0 kills the k^2 term: Q = 1/(1+k).
        assert q_value(3.0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_default_alice_angle(self):
        # k = 4, theta = pi/6: 1/(1 + 4 + 16*(3/4)*(1/4)) = 1/8.
        assert q_value(4.0, math.pi / 6) == pytest.approx(0.125, abs=1e-15)

    def test_complementary_angles_equal(self):
        # cos^2*sin^2 is symmetric about pi/4.
        assert q_value(2.5, math.pi / 6) == pytest.approx(
            q_value(2.5, math.pi / 3), abs=1e-15
        )

    @given(k_values, angles)
    def test_q_in_unit_interval(self, k, theta):
        q = q_value(k, theta)
        assert 0.0 < q < 1.0

    @given(angles)
    def test_q_decreasing_in_k(self, theta):
        ks = np.geomspace(1e-3, 1e3, 40)
        qs = [q_value(k, theta) for k in ks]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_rejects_nonpositive_k(self):
        for bad in (0.0, -2.0):
            with pytest.raises(InvalidInputError):
                q_value(bad, 0.5)


class TestQJoint:
    def test_orthogonal_settings_factorize(self):
        # theta = 0, phi = pi/2 selects opposite modes; joint no-click
        # factorizes into the product of singles: 1/(1+k)^2.
        k = 4.0
        assert q_value(k, 0.0, math.pi / 2) == pytest.approx(
            q_value(k, 0.0) * q_value(k, math.pi / 2), abs=1e-15
        )
        assert q_value(k, 0.0, math.pi / 2) == pytest.approx(1.0 / 25.0, abs=1e-15)

    def test_default_pair(self):
        # k = 4, (pi/6, pi/3): 1/(1 + 8 + 16*(3/4+1/4... )) evaluates to 1/25?
        # Direct: c^2=3/4, s^2=1/4, c'^2=1/4, s'^2=3/4;
        # (c^2+c'^2)(s^2+s'^2) = 1*1 = 1 -> 1/(1+8+16) = 1/25.
        assert q_value(4.0, math.pi / 6, math.pi / 3) == pytest.approx(0.04, abs=1e-15)

    def test_unprimed_primed_cross_pair(self):
        # k = 4, (pi/6, pi/2): (3/4+0)(1/4+1) = 15/16 -> 1/(9+15) = 1/24.
        assert q_value(4.0, math.pi / 6, math.pi / 2) == pytest.approx(1.0 / 24.0, abs=1e-15)

    @given(k_values, angles, angles)
    def test_joint_below_singles(self, k, theta, phi):
        q = q_value(k, theta, phi)
        assert 0.0 < q < 1.0
        assert q <= q_value(k, theta) + 1e-15
        assert q <= q_value(k, phi) + 1e-15

    @given(k_values, angles, angles)
    def test_symmetric_in_settings(self, k, theta, phi):
        assert q_value(k, theta, phi) == pytest.approx(q_value(k, phi, theta), abs=1e-15)


class TestQSet:
    def test_matches_scalar_functions(self):
        """Each field reads its own settings: it equals Q_single or Q_joint
        read from a quad that holds only those angles."""
        qs = qset(4.0, DEFAULT_QUAD)
        assert qs.q_a == q_value(4.0, DEFAULT_QUAD.a)
        assert qs.q_b_prime == q_value(4.0, DEFAULT_QUAD.b_prime)
        assert qs.q_ab == q_value(4.0, DEFAULT_QUAD.a, DEFAULT_QUAD.b)
        assert qs.q_a_prime_b_prime == q_value(
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
            ch = ch_curve_value(k, mode="standard")
            q_a = q_value(k, DEFAULT_QUAD.a)
            q_ab_prime = q_value(k, DEFAULT_QUAD.a, DEFAULT_QUAD.b_prime)
            assert ch == pytest.approx(2 * q_a - 2 * q_ab_prime, abs=1e-12)

    def test_frozen_values(self):
        assert ch_curve_value(0.1, mode="standard") == pytest.approx(CH_STANDARD_K01, abs=1e-15)
        assert ch_curve_value(4.0, mode="standard") == pytest.approx(CH_STANDARD_K4, abs=1e-15)

    def test_always_positive(self):
        for k in np.geomspace(1e-3, 1e3, 200):
            assert ch_curve_value(float(k), mode="standard") > 0.0

    def test_matches_generic_functional(self):
        t = standard_table(2.0)
        assert ch_curve_value(2.0, mode="standard") == pytest.approx(ch_value(t).ch, abs=1e-15)


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
        for k, frozen in ((0.1, CH_MULTIWINDOW_K01), (4.0, CH_MULTIWINDOW_K4)):
            assert ch_curve_value(k, mode="multiwindow-exact") == pytest.approx(frozen, abs=1e-9)

    def test_exact_vs_paper_variant_differ(self):
        exact = ch_curve_value(4.0, mode="multiwindow-exact")
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
            assert ch_curve_value(float(k), mode="multiwindow-exact") > 0.0, k
        for k in np.geomspace(2.0, 50.0, 40):
            assert ch_curve_value(float(k), mode="multiwindow-exact") < 0.0, k

    def test_two_term_shortcut_formula(self):
        # 2*(Q_A + Q_B' - Q_AB')^4 - 2*Q_A^2 from the same Q values.
        k = 2.3
        qs = qset(k, DEFAULT_QUAD)
        expected = 2 * (qs.q_a + qs.q_b_prime - qs.q_ab_prime) ** 4 - 2 * qs.q_a**2
        assert ch_curve_value(k, mode="multiwindow-two-term") == pytest.approx(expected, abs=1e-15)


class TestUnionTable:
    def test_frozen_joints(self):
        t = union_coincidence_table(4.0)
        assert t.p_ab == pytest.approx(0.970350, abs=5e-7)
        assert t.p_ab_prime == pytest.approx(0.946111, abs=5e-7)
        assert t.p_a_prime_b == pytest.approx(0.946111, abs=5e-7)
        assert t.p_a_prime_b_prime == pytest.approx(0.921600, abs=5e-7)

    def test_union_ch_frozen(self):
        table = table_for_mode(4.0, mode="multiwindow-union")
        assert ch_value(table).ch == pytest.approx(CH_UNION_K4, abs=1e-12)

    def test_union_never_violates(self):
        """Union counting is dead-time safe: its CH stays non-negative."""
        for k in np.geomspace(1e-3, 1e3, 120):
            assert ch_curve_value(float(k), mode="multiwindow-union") >= 0.0

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
                expected = 1.0 - q_value(2.0, getattr(quad, name)) ** power
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

    @pytest.mark.parametrize("bracket", [(1e-18, 1e-10), (1e-300, 1e-6)])
    @pytest.mark.parametrize("mode", CH_CURVE_MODES)
    def test_dark_end_rounding_is_not_a_crossing(self, mode, bracket):
        """Below k ~ 1e-15 each entry is 1 minus a value near 1, so CH ~ 1e-14
        lies under the ~eps absolute rounding of the entries, although it
        is large against 16 eps (|Ps| + |Pc|)."""
        assert ch_zero_crossing(mode=mode, bracket=bracket) is None

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

        # The scan reads the array seam and the bisection the scalar one.
        def parts(k, quad, mode):
            return 1.0 + 0.0 * k, 1.0 + 1e-14 * (k - 2.0)

        monkeypatch.setattr(an, "_ch_parts", parts)
        monkeypatch.setattr(an, "_ch_parts_at", parts)
        plus, minus = parts(np.geomspace(1.0, 3.0, 5), None, None)
        noise = 16 * np.finfo(float).eps * (plus + minus)
        assert list(np.abs(plus - minus) > noise) == [True, False, False, False, True]
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
            lambda: q_value(0.0, 0.1),
            lambda: q_value(-1.0, 0.1, 0.2),
            lambda: standard_table(0.0),
            lambda: multiwindow_table(-4.0),
            lambda: ch_curve_value(0.0),
            lambda: union_coincidence_table(0.0),
        ):
            with pytest.raises(InvalidInputError):
                fn()

    def test_overflowing_k_on_axis(self):
        """k*k overflows from ~1.3e154 on; the on-axis Q must not turn NaN."""
        assert q_value(1e200, 0.0) == pytest.approx(1e-200, rel=1e-15)
        assert q_value(1e200, 0.0, 0.0) == pytest.approx(5e-201, rel=1e-15)
        ch = ch_curve_value(1e200, mode="standard")
        assert math.isfinite(ch) and ch >= 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-3.0, max_value=300.0), angles, angles)
    def test_q_in_unit_interval_up_to_1e300(self, log_k, theta, phi):
        k = 10.0 ** log_k
        for q in (q_value(k, theta), q_value(k, theta, phi)):
            assert math.isfinite(q) and 0.0 <= q <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-3.0, max_value=300.0))
    def test_ch_finite_up_to_1e300(self, log_k):
        k = 10.0 ** log_k
        for mode in CH_CURVE_MODES:
            assert math.isfinite(ch_curve_value(k, DEFAULT_QUAD, mode))

    def test_large_k_limit(self):
        """CH approaches zero from below as the response constant grows."""
        values = [ch_curve_value(float(k), mode="multiwindow-exact") for k in (1e2, 1e3, 1e4)]
        assert all(v < 0.0 for v in values)
        assert all(abs(a) > abs(b) for a, b in zip(values, values[1:]))
        assert abs(values[-1]) < 1e-3


def _reference_q_single(k, theta):
    """Q_single written out, with its own trig and formula."""
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    if k > analytic._FACTORED_K:
        return 1.0 / (1.0 + k * (1.0 + k * c2 * s2))
    return 1.0 / (1.0 + k + k * k * c2 * s2)


def _reference_q_joint(k, theta, phi):
    """Q_joint written out, with its own trig and formula."""
    c2t, s2t = math.cos(theta) ** 2, math.sin(theta) ** 2
    c2p, s2p = math.cos(phi) ** 2, math.sin(phi) ** 2
    if k > analytic._FACTORED_K:
        return 1.0 / (1.0 + k * (2.0 + k * (c2t + c2p) * (s2t + s2p)))
    return 1.0 / (1.0 + 2.0 * k + k * k * (c2t + c2p) * (s2t + s2p))


def _reference_qs(k, quad):
    """The eight Q values in QSet field order, one scalar call each."""
    a, b, ap, bp = quad.a, quad.b, quad.a_prime, quad.b_prime
    return [
        _reference_q_single(k, a), _reference_q_single(k, b),
        _reference_q_single(k, ap), _reference_q_single(k, bp),
        _reference_q_joint(k, a, b), _reference_q_joint(k, a, bp),
        _reference_q_joint(k, ap, b), _reference_q_joint(k, ap, bp),
    ]


def _reference_table(k, quad, mode):
    """table_for_mode's entries in field order, built from the reference Qs."""
    single, pair = analytic._LAWS[mode]
    qa, qb, qap, qbp, qab, qabp, qapb, qapbp = _reference_qs(k, quad)
    joints = [pair(qa, qb, qab), pair(qa, qbp, qabp), pair(qap, qb, qapb), pair(qap, qbp, qapbp)]
    return [single(qa), single(qb), *[0.0 if p < 0.0 else p for p in joints],
            single(qap), single(qbp)]


def _bits(values):
    return [float(v).hex() for v in values]


# k log-uniform in (1e-300, 1e300), plus the two floats either side of the
# switch to the factored form.
wide_k = st.one_of(
    st.floats(min_value=-300.0, max_value=300.0, exclude_min=True, exclude_max=True).map(
        lambda e: 10.0 ** e
    ),
    st.sampled_from([analytic._FACTORED_K, math.nextafter(analytic._FACTORED_K, math.inf)]),
)
quad_angles = st.one_of(st.sampled_from([0.0, math.pi / 2]), angles)


class TestOneEvaluationPerTable:
    """The tables evaluate the closed forms once per (k, quad), on the
    squares the quad keeps, and match the scalar forms bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(wide_k, quad_angles, quad_angles, quad_angles, quad_angles)
    @example(1.5, math.pi / 6, math.pi / 3, 0.0, math.pi / 2)
    @example(1e200, 0.0, math.pi / 2, 0.0, math.pi / 2)
    def test_bit_identical_to_scalar_forms(self, k, a, b, a_prime, b_prime):
        quad = AngleQuad(a, b, a_prime, b_prime)
        expected = _reference_qs(k, quad)
        assert _bits(analytic._q_values(k, quad)) == _bits(expected)
        assert _bits(astuple(qset(k, quad))) == _bits(expected)
        assert _bits([q_value(k, a), q_value(k, a_prime, b)]) == _bits(
            [expected[0], expected[6]]
        )
        for mode in analytic._LAWS:
            table = table_for_mode(k, quad, mode)
            assert _bits(astuple(table)) == _bits(_reference_table(k, quad, mode)), mode

    def test_one_k_check_per_table(self, monkeypatch):
        checked = []

        def counting_positive(name, value, *args, **kwargs):
            checked.append(name)
            return positive(name, value, *args, **kwargs)

        positive = analytic._positive
        monkeypatch.setattr(analytic, "_positive", counting_positive)
        for mode in analytic._LAWS:
            checked.clear()
            table_for_mode(1.5, DEFAULT_QUAD, mode)
            assert checked == ["k"], mode


def _scalar_parts_bits(ks, quad, mode):
    return [_bits(analytic._ch_parts(k, quad, mode)) for k in ks]


def _array_parts_bits(ks, quad, mode):
    plus, minus = analytic._ch_parts_at(np.array(ks), quad, mode)
    return [_bits(parts) for parts in zip(plus.tolist(), minus.tolist())]


class TestArrayPath:
    """The crossing scan and the small-k expansion evaluate CH on arrays;
    every point must carry the bits of the scalar path that the sweep rows
    and the bisection use."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(wide_k, min_size=1, max_size=12), quad_angles, quad_angles,
           quad_angles, quad_angles)
    @example([1e-300, 1e-8, 1.0359500170058935, analytic._FACTORED_K, 1e160, 1e300],
             math.pi / 6, math.pi / 3, 0.0, math.pi / 2)
    def test_bit_identical_to_scalar_path(self, ks, a, b, a_prime, b_prime):
        quad = AngleQuad(a, b, a_prime, b_prime)
        for mode in CH_CURVE_MODES:
            assert _array_parts_bits(ks, quad, mode) == _scalar_parts_bits(ks, quad, mode), mode

    def test_small_k_expansion_reads_the_scalar_curve(self):
        hs = [1e-2 / 2.0**i for i in range(8)]
        for mode in CH_CURVE_MODES:
            plus, minus = analytic._ch_parts_at(np.array(hs), DEFAULT_QUAD, mode)
            assert _bits(plus - minus) == _bits([ch_curve_value(h, mode=mode) for h in hs])

    def test_power_terms_are_libm_pow(self):
        x = np.array([0.1, 0.7, 1.0 - 2.0**-40]).view(analytic._LibmPow)
        for exponent in (2, 4):
            assert _bits(x**exponent) == _bits([v**exponent for v in x.tolist()])


# One check per SIMD level, in a child interpreter that has numpy's kernels
# above that level switched off: pseudo-random k over (1e-300, 1e300), the
# two floats either side of the factored-form switch, and six quads.
_SIMD_CHECK = """
import math, random
from numpy._core._multiarray_umath import __cpu_features__
from bellsim import analytic
from bellsim.inequalities import DEFAULT_QUAD, AngleQuad
import numpy as np

rnd = random.Random(24)
ks = [10.0 ** rnd.uniform(-300.0, 300.0) for _ in range(400)]
ks += [analytic._FACTORED_K, math.nextafter(analytic._FACTORED_K, math.inf)]
quads = [DEFAULT_QUAD, AngleQuad(0.0, math.pi / 2, 0.0, math.pi / 2)]
quads += [AngleQuad(*(rnd.uniform(-10.0, 10.0) for _ in range(4))) for _ in range(4)]
bad = 0
for quad in quads:
    for mode in analytic.CH_CURVE_MODES:
        plus, minus = analytic._ch_parts_at(np.array(ks), quad, mode)
        for k, parts in zip(ks, zip(plus.tolist(), minus.tolist())):
            bad += list(map(float.hex, parts)) != list(map(float.hex, analytic._ch_parts(k, quad, mode)))
print(bad, *sorted(name for name, on in __cpu_features__.items() if on))
"""


def test_array_path_bits_at_each_simd_level(simd_disabled, simd_child):
    proc = simd_child(_SIMD_CHECK)
    assert proc.returncode == 0, proc.stderr
    mismatches, *features_on = proc.stdout.split()
    assert not set(simd_disabled) & set(features_on)
    assert mismatches == "0"
