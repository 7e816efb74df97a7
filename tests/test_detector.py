"""Detection law, trial semantics for both window schemes, and the
half-window gain algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.detector import (
    COUNT_KEYS,
    DetectorParams,
    HalfWindowParams,
    WindowScheme,
    detect_prob,
    gain,
    multi_coincidence_prob,
    multi_single_prob,
    run_trials,
)
from bellsim.analytic import union_coincidence_table
from bellsim.errors import InvalidInputError

A, B = math.pi / 6, math.pi / 3


def make_rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestDetectorParams:
    def test_rejects_nonpositive_k(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                DetectorParams(k=bad)

    def test_accepts_positive_k(self):
        assert DetectorParams(k=4.0).k == 4.0


class TestDetectProb:
    def test_zero_intensity(self):
        assert detect_prob(DetectorParams(k=1.0), 0.0) == 0.0

    def test_unit_intensity_unit_efficiency(self):
        assert detect_prob(DetectorParams(k=1.0), 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-15
        )

    def test_saturates_toward_one(self):
        assert detect_prob(DetectorParams(k=1.0), 1e3) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_intensity(self):
        with pytest.raises(InvalidInputError):
            detect_prob(DetectorParams(k=1.0), -0.5)

    def test_vectorized(self):
        p = detect_prob(DetectorParams(k=2.0), np.array([0.0, 0.5, 1.0]))
        assert np.allclose(p, 1.0 - np.exp(-2.0 * np.array([0.0, 0.5, 1.0])), atol=1e-15)

    @given(
        st.floats(min_value=1e-6, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    )
    def test_valid_probability(self, k, intensity):
        p = detect_prob(DetectorParams(k=k), intensity)
        assert 0.0 <= p < 1.0 or p == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(min_value=1e-3, max_value=10.0, allow_nan=False))
    def test_monotone_in_intensity(self, k):
        params = DetectorParams(k=k)
        # Cap k*I at 20 so the exponential tail stays resolvable in float64
        # (beyond that the probability saturates to exactly 1.0).
        grid = np.linspace(0.0, 20.0 / k, 101)
        probs = detect_prob(params, grid)
        assert np.all(np.diff(probs) > 0)


class TestRunTrialsSingle:
    def test_counts_keys(self):
        counts = run_trials(DetectorParams(k=1.0), WindowScheme.SINGLE, A, B,
                            make_rng(0), 100)
        assert tuple(counts) == COUNT_KEYS == (
            "any_alice", "any_bob", "any_coincidence", "any_paired_coincidence",
            "paired_and_alice", "paired_and_bob",
        )

    def test_single_union_equals_paired(self):
        """With one window per trial there is only one pairing, so the union
        and paired coincidence counts coincide."""
        counts = run_trials(DetectorParams(k=2.0), WindowScheme.SINGLE, A, B,
                            make_rng(3), 20_000)
        assert counts["any_coincidence"] == counts["any_paired_coincidence"]
        assert counts["paired_and_alice"] == counts["paired_and_bob"] == counts["any_coincidence"]

    def test_deterministic_under_seed(self):
        c1 = run_trials(DetectorParams(k=4.0), WindowScheme.SINGLE, A, B,
                        make_rng(11), 5000)
        c2 = run_trials(DetectorParams(k=4.0), WindowScheme.SINGLE, A, B,
                        make_rng(11), 5000)
        assert c1 == c2

    def test_tiny_k_detects_nothing(self):
        counts = run_trials(DetectorParams(k=1e-6), WindowScheme.SINGLE, A, B,
                            make_rng(1), 100_000)
        assert counts["any_alice"] <= 2
        assert counts["any_coincidence"] == 0

    def test_single_window_marginal_rate(self):
        # P_A = 1 - 1/(1 + k + k^2 cos^2 sin^2) at theta = pi/6, k = 4:
        # Q = 1/(1+4+16*(3/4)*(1/4)) = 1/8, P = 7/8.
        n = 200_000
        counts = run_trials(DetectorParams(k=4.0), WindowScheme.SINGLE, A, B,
                            make_rng(21), n)
        p_hat = counts["any_alice"] / n
        se = math.sqrt(0.875 * 0.125 / n)
        assert abs(p_hat - 0.875) <= 5 * se


class TestRunTrialsHalves:
    def test_union_never_exceeds_marginals(self):
        counts = run_trials(DetectorParams(k=1.0), WindowScheme.HALVES, A, B,
                            make_rng(2), 50_000)
        assert counts["any_coincidence"] <= counts["any_alice"]
        assert counts["any_coincidence"] <= counts["any_bob"]
        assert counts["any_coincidence"] <= counts["any_paired_coincidence"]

    def test_dead_time_blanking_leaves_union_unchanged(self):
        """A dead time that blanks a detector's second-half shot after a
        first-half shot records a1 | (a2 & ~a1), which is a1 | a2: every
        "at least one shot" count, and so the union coincidence, is immune
        to it."""
        rng = np.random.default_rng(9)
        for p in (0.1, 0.5, 0.9):
            a1, a2 = rng.random((2, 10_000)) < p
            assert np.array_equal(a1 | (a2 & ~a1), a1 | a2)

    def test_strong_response_rates_match_closed_forms(self):
        """k = 4 halves scheme versus the closed forms:
        P_A = 0.984375, paired coincidence 0.9975775..., union 0.970350...."""
        n = 1_000_000
        counts = run_trials(DetectorParams(k=4.0), WindowScheme.HALVES, A, B,
                            make_rng(42), n)

        def check(label, expected):
            p_hat = counts[label] / n
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(p_hat - expected) <= 5 * se, (label, p_hat, expected)

        check("any_alice", 0.984375)
        check("any_paired_coincidence", 0.9975775146484375)
        check("any_coincidence", union_coincidence_table(4.0).p_ab)

    def test_unknown_phase_mode_rejected(self):
        with pytest.raises(InvalidInputError):
            run_trials(DetectorParams(k=1.0), WindowScheme.SINGLE, A, B,
                       make_rng(0), 10, phase_mode="bogus")


class TestTrialCounts:
    def test_counts_are_ints(self):
        for scheme in WindowScheme:
            counts = run_trials(DetectorParams(k=1.0), scheme, A, B, make_rng(5), 1000)
            for v in counts.values():
                assert type(v) is int

    def test_counts_bounded_by_n(self):
        n = 1234
        for phase_mode in ("suppressed", "sampled"):
            c = run_trials(DetectorParams(k=1.0), WindowScheme.HALVES, A, B,
                           make_rng(5), n, phase_mode=phase_mode)
            assert all(0 <= v <= n for v in c.values())
            assert c["paired_and_alice"] <= min(c["any_paired_coincidence"], c["any_alice"])
            assert c["paired_and_bob"] <= min(c["any_paired_coincidence"], c["any_bob"])
            assert c["any_coincidence"] <= min(c["any_alice"], c["any_bob"])


class TestDrawOrder:
    """run_trials consumes exactly the documented draws (the order of RNG
    contracts 2 and 3, which differ only in the bit generator):
    replaying them by hand leaves the generator in the same state, so the
    next draws agree."""

    @staticmethod
    def replay(rng, n, scheme, sampled):
        def field(phases):
            rng.standard_exponential(n)
            rng.standard_exponential(n)
            for _ in range(phases if sampled else 0):
                rng.uniform(0.0, 2.0 * np.pi, size=n)

        field(2)
        rng.random(n), rng.random(n)
        if scheme is WindowScheme.SINGLE:
            return
        field(2)
        rng.random(n), rng.random(n)
        for _ in range(4):  # both sides of both cross channels
            field(1)
            rng.random(n)

    @pytest.mark.parametrize("scheme", list(WindowScheme))
    @pytest.mark.parametrize("phase_mode", ["suppressed", "sampled"])
    def test_generator_state_matches_documented_order(self, scheme, phase_mode):
        n = 777
        used, replayed = make_rng(13), make_rng(13)
        run_trials(DetectorParams(k=2.0), scheme, A, B, used, n, phase_mode=phase_mode)
        self.replay(replayed, n, scheme, phase_mode == "sampled")
        assert np.array_equal(used.random(16), replayed.random(16))


class TestHalfWindowAlgebra:
    def test_params_validate_ordering(self):
        HalfWindowParams(p=0.3, q=0.7)
        with pytest.raises(InvalidInputError):
            HalfWindowParams(p=0.8, q=0.2)
        with pytest.raises(InvalidInputError):
            HalfWindowParams(p=-0.1, q=0.5)
        with pytest.raises(InvalidInputError):
            HalfWindowParams(p=0.5, q=1.1)

    def test_multi_single_examples(self):
        assert multi_single_prob(0.0) == 0.0
        assert multi_single_prob(1.0) == 1.0
        assert multi_single_prob(0.5) == 0.75

    def test_multi_coincidence_examples(self):
        assert multi_coincidence_prob(HalfWindowParams(p=0.0, q=0.0)) == 0.0
        assert multi_coincidence_prob(HalfWindowParams(p=1.0, q=1.0)) == 1.0
        assert multi_coincidence_prob(HalfWindowParams(p=0.5, q=0.5)) == pytest.approx(
            0.68359375, abs=1e-15
        )

    def test_gain_example(self):
        # (p, q) = (0.5, 0.5): coincidence 0.68359375, single 0.75,
        # conditional 0.91145833..., gain = conditional - q = 0.41145833...
        assert gain(HalfWindowParams(p=0.5, q=0.5)) == pytest.approx(
            0.68359375 / 0.75 - 0.5, abs=1e-15
        )

    def test_gain_vanishes_at_saturation(self):
        assert gain(HalfWindowParams(p=1.0, q=1.0)) == 0.0

    def test_gain_positive_off_saturation(self):
        assert gain(HalfWindowParams(p=0.1, q=0.9)) > 0.0
        assert gain(HalfWindowParams(p=0.6, q=0.9)) == pytest.approx(0.187296, abs=1e-6)

    def test_gain_rejects_zero_p(self):
        with pytest.raises(InvalidInputError):
            gain(HalfWindowParams(p=0.0, q=0.5))

    @settings(max_examples=300)
    @given(
        st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_gain_never_negative(self, p, q_extra):
        """The conditional detection probability never falls below the
        unconditional one, for any ordered pair 0 < p <= q <= 1."""
        q = p + (1.0 - p) * q_extra
        assert gain(HalfWindowParams(p=p, q=q)) >= -1e-15

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_multi_single_matches_complement_square(self, p):
        assert multi_single_prob(p) == pytest.approx(1.0 - (1.0 - p) ** 2, abs=1e-15)
