"""Detection law, trial semantics for both window schemes, and the
half-window gain algebra."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.detector import (
    COUNT_KEYS,
    SCHEMES,
    DetectorParams,
    HalfWindowParams,
    _shot_prob,
    detect_prob,
    gain,
    multi_coincidence_prob,
    multi_single_prob,
    run_trials,
)
from bellsim.analytic import standard_table, union_coincidence_table
from bellsim.errors import BellsimError, InvalidInputError, NumericalInconsistencyError
from bellsim.inequalities import DEFAULT_QUAD, AngleQuad
from bellsim.montecarlo import CHUNK_TRIALS
from bellsim.source import FieldSample, intensities, sample_field

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

    def test_overflowing_product_is_saturation(self):
        """k*I beyond the float range is the law's limit, exactly 1, with no
        overflow warning (warnings are errors here)."""
        params = DetectorParams(1e308)
        assert detect_prob(params, 10.0) == 1.0
        p = detect_prob(params, np.array([10.0, 0.0, 1e300]))
        assert p.tolist() == [1.0, 0.0, 1.0]

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
        counts = run_trials(DetectorParams(k=1.0), "single", A, B,
                            make_rng(0), 100)
        assert tuple(counts) == COUNT_KEYS == (
            "any_alice", "any_bob", "any_coincidence", "any_paired_coincidence",
            "paired_and_alice", "paired_and_bob",
        )

    def test_single_union_equals_paired(self):
        """With one window per trial there is only one pairing, so the union
        and paired coincidence counts coincide."""
        counts = run_trials(DetectorParams(k=2.0), "single", A, B,
                            make_rng(3), 20_000)
        assert counts["any_coincidence"] == counts["any_paired_coincidence"]
        assert counts["paired_and_alice"] == counts["paired_and_bob"] == counts["any_coincidence"]

    def test_deterministic_under_seed(self):
        c1 = run_trials(DetectorParams(k=4.0), "single", A, B,
                        make_rng(11), 5000)
        c2 = run_trials(DetectorParams(k=4.0), "single", A, B,
                        make_rng(11), 5000)
        assert c1 == c2

    def test_tiny_k_detects_nothing(self):
        counts = run_trials(DetectorParams(k=1e-6), "single", A, B,
                            make_rng(1), 100_000)
        assert counts["any_alice"] <= 2
        assert counts["any_coincidence"] == 0

    def test_single_window_marginal_rate(self):
        # P_A = 1 - 1/(1 + k + k^2 cos^2 sin^2) at theta = pi/6, k = 4:
        # Q = 1/(1+4+16*(3/4)*(1/4)) = 1/8, P = 7/8.
        n = 200_000
        counts = run_trials(DetectorParams(k=4.0), "single", A, B,
                            make_rng(21), n)
        p_hat = counts["any_alice"] / n
        se = math.sqrt(0.875 * 0.125 / n)
        assert abs(p_hat - 0.875) <= 5 * se


class TestRunTrialsHalves:
    def test_union_never_exceeds_marginals(self):
        counts = run_trials(DetectorParams(k=1.0), "halves", A, B,
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
        counts = run_trials(DetectorParams(k=4.0), "halves", A, B,
                            make_rng(42), n)

        def check(label, expected):
            p_hat = counts[label] / n
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(p_hat - expected) <= 5 * se, (label, p_hat, expected)

        check("any_alice", 0.984375)
        check("any_paired_coincidence", 0.9975775146484375)
        check("any_coincidence", union_coincidence_table(4.0).p_ab)

    def test_unknown_phase_mode_rejected(self):
        """Rejected with the message of ``intensities``, before any draw."""
        for scheme in SCHEMES:
            rng = make_rng(0)
            before = str(rng.bit_generator.state)
            with pytest.raises(InvalidInputError, match=r"phase_mode must be one of .*'bogus'"):
                run_trials(DetectorParams(k=1.0), scheme, A, B, rng, 10, phase_mode="bogus")
            assert str(rng.bit_generator.state) == before


class TestTrialCounts:
    def test_counts_are_ints(self):
        for scheme in SCHEMES:
            counts = run_trials(DetectorParams(k=1.0), scheme, A, B, make_rng(5), 1000)
            for v in counts.values():
                assert type(v) is int

    def test_counts_bounded_by_n(self):
        n = 1234
        for phase_mode in ("suppressed", "sampled"):
            c = run_trials(DetectorParams(k=1.0), "halves", A, B,
                           make_rng(5), n, phase_mode=phase_mode)
            assert all(0 <= v <= n for v in c.values())
            assert c["paired_and_alice"] <= min(c["any_paired_coincidence"], c["any_alice"])
            assert c["paired_and_bob"] <= min(c["any_paired_coincidence"], c["any_bob"])
            assert c["any_coincidence"] <= min(c["any_alice"], c["any_bob"])


class TestDrawOrder:
    """run_trials consumes exactly the documented draws (the order of RNG
    contract 4): replaying them by hand leaves the generator in the same
    state, so the next draws agree."""

    @staticmethod
    def replay(rng, n, scheme, sampled):
        def window():
            rng.standard_exponential(n)
            rng.standard_exponential(n)
            for _ in range(2 if sampled else 0):
                rng.uniform(0.0, 2.0 * np.pi, size=n)
            rng.random(n), rng.random(n)

        window()
        if scheme == "single":
            return
        window()
        rng.random(n), rng.random(n)  # one batch per cross channel

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    @pytest.mark.parametrize("phase_mode", ["suppressed", "sampled"])
    def test_generator_state_matches_documented_order(self, scheme, phase_mode):
        n = 777
        used, replayed = make_rng(13), make_rng(13)
        run_trials(DetectorParams(k=2.0), scheme, A, B, used, n, phase_mode=phase_mode)
        self.replay(replayed, n, scheme, phase_mode == "sampled")
        assert np.array_equal(used.random(16), replayed.random(16))


def reference_counts(k, scheme, theta, phi, rng, n, phase_mode):
    """The contract-4 draw order written out plainly: every draw, projection
    and comparison allocates its own array, and each cross-half channel
    fires with the product of the closed-form shot probabilities."""
    sampled = phase_mode == "sampled"

    def project(x, y, angle, phase):
        c, s = np.cos(angle), np.sin(angle)
        if phase is None:
            return x * c**2 + y * s**2
        rx, ry = np.sqrt(x), np.sqrt(y)
        return (rx * c + ry * s * np.cos(phase)) ** 2 + (ry * s * np.sin(phase)) ** 2

    def shots():
        x = rng.standard_exponential(n)
        y = rng.standard_exponential(n)
        phases = [rng.uniform(0.0, 2.0 * np.pi, size=n) if sampled else None for _ in range(2)]
        return [
            rng.random(n) < -np.expm1(-k * project(x, y, angle, phase))
            for angle, phase in zip((theta, phi), phases)
        ]

    a1, b1 = shots()
    if scheme == "single":
        c = a1 & b1
        flags = (a1, b1, c, c, c, c)
    else:
        a2, b2 = shots()
        paired = (a1 & b1) | (a2 & b2)
        p_cross = _shot_prob(k, theta, sampled) * _shot_prob(k, phi, sampled)
        for _ in range(2):
            paired = paired | (rng.random(n) < p_cross)
        alice, bob = a1 | a2, b1 | b2
        flags = (alice, bob, alice & bob, paired, paired & alice, paired & bob)
    return {key: int(f.sum()) for key, f in zip(COUNT_KEYS, flags)}


def sfc64(seed):
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))


class TestKernelEquivalence:
    """run_trials writes into one workspace per call; its counts and its
    generator's end state equal those of the plain allocating kernel."""

    @pytest.mark.parametrize("n", [1, 7, 1000, CHUNK_TRIALS])
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    @pytest.mark.parametrize("phase_mode", ["suppressed", "sampled"])
    def test_matches_allocating_reference(self, n, scheme, phase_mode):
        for seed in (0, 17, 2024):
            used, ref = sfc64(seed), sfc64(seed)
            counts = run_trials(DetectorParams(k=2.5), scheme, A, B, used, n,
                                phase_mode=phase_mode)
            assert counts == reference_counts(2.5, scheme, A, B, ref, n, phase_mode)
            assert np.array_equal(used.random(4), ref.random(4))

    @pytest.mark.parametrize("phase_mode", ["suppressed", "sampled"])
    def test_layers_write_into_out(self, phase_mode):
        n = 1000
        plain = sample_field(sfc64(3), n)
        x, y = np.empty(n), np.empty(n)
        into = sample_field(sfc64(3), n, out=(x, y))
        assert into.x is x and into.y is y
        for name in ("x", "y", "chi", "xi"):
            assert np.array_equal(getattr(into, name), getattr(plain, name))

        want_a, want_b = intensities(plain, 0.4, 1.3, phase_mode)
        # Bob's side may be written over the sample's own x.
        i, work = np.empty(n), np.empty(n)
        got_a, got_b = intensities(into, 0.4, 1.3, phase_mode, out=(i, into.x), work=work)
        assert got_a is i and got_b is x
        assert np.array_equal(got_a, want_a) and np.array_equal(got_b, want_b)
        fresh_a, fresh_b = intensities(plain, 0.4, 1.3, phase_mode, out=(np.empty(n), np.empty(n)))
        assert np.array_equal(fresh_a, want_a) and np.array_equal(fresh_b, want_b)

        params = DetectorParams(k=3.0)
        expected = detect_prob(params, want_a)
        out = np.empty(n)
        assert detect_prob(params, want_a, out=out) is out
        assert np.array_equal(out, expected)
        assert detect_prob(params, i, out=i) is i
        assert np.array_equal(i, expected)


class TestCrossShotLaw:
    """The law behind contract 4's cross-half channels: the closed-form
    probability that one shot on a fresh source realization fires."""

    EPS = 2.0**-52
    QUADS = [
        DEFAULT_QUAD,
        AngleQuad(0.3, 1.1, 2.0, -0.7),
        AngleQuad(math.radians(10), 0.4, 1.0, math.radians(80)),
    ]

    @pytest.mark.parametrize("quad", QUADS, ids=["default", "quad1", "quad2"])
    def test_suppressed_matches_standard_marginals(self, quad):
        """Within 4 ulp of 1 of every marginal of ``standard_table`` (1.5 ulp
        measured).  The bound is absolute: 1 - Q loses P's leading digits at
        small k, which the closed form here does not."""
        for k in np.geomspace(1e-6, 1e3, 91):
            table = standard_table(float(k), quad)
            for angle, p in ((quad.a, table.p_a), (quad.b, table.p_b),
                             (quad.a_prime, table.p_a_prime), (quad.b_prime, table.p_b_prime)):
                assert abs(_shot_prob(float(k), angle, False) - p) <= 4 * self.EPS, (k, angle)

    @pytest.mark.parametrize("angle", [0.0, math.pi / 6, math.pi / 2, 0.3, -0.7, 2.0])
    def test_suppressed_is_accurate_at_every_finite_k(self, angle):
        """Within 4 eps relative of the exact mean of 1 - exp(-k (x c^2 +
        y s^2)), 1 - 1/((1 + k c^2)(1 + k s^2)) in rationals at the float c^2
        and s^2 (1.2 eps measured), from k = 1e-300, where 1 - Q is 0, to
        k = 1e300, where k^2 overflows."""
        c, s = np.cos(angle), np.sin(angle)
        c2, s2 = Fraction(float(c**2)), Fraction(float(s**2))
        for k in np.geomspace(1e-300, 1e300, 61):
            exact = 1 - 1 / ((1 + Fraction(k) * c2) * (1 + Fraction(k) * s2))
            assert abs(Fraction(_shot_prob(float(k), angle, False)) - exact) <= 4 * self.EPS * exact

    @pytest.mark.parametrize("k", [1e-300, 1e-6, 0.5, 4.0, 1e300])
    def test_sampled_is_k_over_one_plus_k(self, k):
        for angle in (0.0, math.pi / 6, 1.1):
            assert _shot_prob(k, angle, True) == k / (1.0 + k)

    @pytest.mark.parametrize("phase_mode", ["suppressed", "sampled"])
    @pytest.mark.parametrize("k, angle", [(0.05, math.pi / 6), (1.0, 1.1), (8.0, -0.7)])
    def test_fresh_field_shot_rate(self, phase_mode, k, angle):
        """Contract 3's cross shot written out, at n = 2^22 in four batches:
        a fresh field, its projection, the detection probability and a
        uniform.  Its rate is the closed form's within 5 standard errors."""
        sampled = phase_mode == "sampled"
        rng, batch, fired = sfc64(2028), 1 << 20, 0
        for _ in range(4):
            sample = sample_field(rng, batch, sampled)
            i_a, _ = intensities(sample, angle, angle, phase_mode)
            fired += np.count_nonzero(rng.random(batch) < detect_prob(DetectorParams(k), i_a))
        n, p = 4 * batch, _shot_prob(k, angle, sampled)
        assert abs(fired / n - p) <= 5 * math.sqrt(p * (1 - p) / n)


# (exception class, message) of each check for each bad value, captured from
# the kernel before it moved to per-chunk workspaces; None: accepted.
_NOT_FINITE_OR_NEGATIVE = ["nan", "inf", "-inf", "-1.0"]
_NEGATIVE_INTENSITY = (
    NumericalInconsistencyError, "negative intensity: squared-modulus algebra was violated"
)


def _unchecked_sample(x, y):
    """A FieldSample that skipped its checks, with no phases."""
    sample = object.__new__(FieldSample)
    for name, value in (("x", x), ("y", y), ("chi", None), ("xi", None)):
        object.__setattr__(sample, name, value)
    return sample


def _outcome(call):
    try:
        call()
    except BellsimError as exc:
        return type(exc), str(exc)
    return None


class TestInputChecks:
    """Every layer rejects NaN, +-inf and negatives with the same class and
    message as before; -0.0 passes."""

    @pytest.mark.parametrize("text", _NOT_FINITE_OR_NEGATIVE + ["-0.0"])
    def test_field_sample(self, text):
        v = float(text)

        def expected(name):
            message = f"{name} must be finite and >= 0"
            return None if text == "-0.0" else (InvalidInputError, message)

        assert _outcome(lambda: FieldSample(x=v, y=1.0)) == expected("x")
        y = np.array([1.0, v, 2.0])
        assert _outcome(lambda: FieldSample(x=np.ones(3), y=y)) == expected("y")
        assert _outcome(lambda: FieldSample(x=np.array([]), y=np.array([]))) is None

    @pytest.mark.parametrize("text", _NOT_FINITE_OR_NEGATIVE + ["-0.0"])
    def test_detect_prob(self, text):
        v = float(text)
        params = DetectorParams(k=2.0)
        expected = None if text == "-0.0" else (
            InvalidInputError, "intensity must be finite and >= 0"
        )
        arr = np.array([0.5, v])
        assert _outcome(lambda: detect_prob(params, v)) == expected
        assert _outcome(lambda: detect_prob(params, arr)) == expected
        assert _outcome(lambda: detect_prob(params, arr, out=np.empty(2))) == expected
        assert _outcome(lambda: detect_prob(params, arr.copy(), out=arr)) == expected
        assert detect_prob(params, np.array([])).shape == (0,)

    @pytest.mark.parametrize("text, expected", [
        ("nan", None),
        ("inf", None),
        ("-inf", _NEGATIVE_INTENSITY),
        ("-1.0", _NEGATIVE_INTENSITY),
        ("-0.0", None),
    ])
    @pytest.mark.parametrize("with_out", [False, True])
    def test_intensities(self, text, expected, with_out):
        """A sample that skipped FieldSample's checks: only a negative
        projection is caught here, NaN next to a negative included, on
        either side."""
        v = np.array([1.0, float(text)])
        sample = _unchecked_sample(v, np.array([2.0, 0.5]))
        out = {"out": (np.empty(2), np.empty(2)), "work": np.empty(2)} if with_out else {}
        assert _outcome(lambda: intensities(sample, 0.3, 0.3, **out)) == expected
        # At theta = 0 Alice reads y only as y*0, never negative (NaN for an
        # infinite y), so a negative here is Bob's.
        swapped = _unchecked_sample(np.array([2.0, 0.5]), v)
        with np.errstate(invalid="ignore"):
            assert _outcome(lambda: intensities(swapped, 0.0, 1.27, **out)) == expected
        mixed = _unchecked_sample(np.array([math.nan, -1.0]), np.ones(2))
        assert _outcome(lambda: intensities(mixed, 0.3, 0.3, **out)) == _NEGATIVE_INTENSITY

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_angles(self, text):
        v = float(text)
        sample = sample_field(sfc64(0), 4)
        assert _outcome(lambda: intensities(sample, v, 0.1)) == (
            InvalidInputError, f"theta must be a real number, got {v!r}"
        )
        assert _outcome(lambda: intensities(sample, 0.1, v)) == (
            InvalidInputError, f"phi must be a real number, got {v!r}"
        )


class TestTrialCountArgument:
    @pytest.mark.parametrize("n", [True, False, 2.5, 0, -4, "8"])
    def test_rejected_before_any_draw(self, n):
        rng, untouched = sfc64(1), sfc64(1)
        with pytest.raises(InvalidInputError, match=r"n must be an integer >= 1"):
            run_trials(DetectorParams(k=1.0), "halves", A, B, rng, n)
        assert np.array_equal(rng.random(4), untouched.random(4))

    def test_numpy_integer_accepted(self):
        counts = run_trials(DetectorParams(k=1.0), "single", A, B,
                            sfc64(1), np.int64(3))
        assert counts == run_trials(DetectorParams(k=1.0), "single", A, B,
                                    sfc64(1), 3)

    @pytest.mark.parametrize("size", [True, 2.5, 0])
    def test_sample_field_rejects_non_integer_size(self, size):
        with pytest.raises(InvalidInputError, match="size must be an integer >= 1"):
            sample_field(sfc64(0), size)


class TestWorkspacePeak:
    """Timing-free guard on the kernel's memory: the traced allocation peak
    of one full chunk stays at or below that of the allocating kernel it
    replaced, measured this way on numpy 2.4.6 (single 2 623 112 B, halves
    2 754 216 B).  The workspace itself is 2 MiB of floats plus the flags."""

    BOUND = {"single": 2_623_112, "halves": 2_754_216}

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_peak_within_bound(self, scheme):
        rng = sfc64(7)
        run_trials(DetectorParams(k=4.0), scheme, A, B, rng, CHUNK_TRIALS)  # warm up
        tracemalloc.start()
        try:
            run_trials(DetectorParams(k=4.0), scheme, A, B, rng, CHUNK_TRIALS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= self.BOUND[scheme]


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

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_multi_single_rejects_out_of_range(self, p):
        with pytest.raises(InvalidInputError, match=re.escape(f"p must lie in [0, 1], got {p!r}")):
            multi_single_prob(p)

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
