"""Periodic intensity waveforms, harmonic algebra, inhomogeneous-Poisson
event sampling, and nearest-event delay statistics."""

import copy
import gc
import math
import pickle
import re
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from bellsim import waveform as wf
from bellsim.errors import InvalidInputError
from bellsim.montecarlo import _generator
from bellsim.waveform import (
    THREE_WAVE_COEFFS,
    DelayStatistics,
    EventStream,
    Waveform,
    delay_statistics,
    harmonic_expansion,
    intensity_at,
    intensity_stats,
    nearest_delays,
    sample_events,
    sample_homogeneous_events,
    three_wave,
    windowed_coincidence_counts,
    windowed_coincidences,
)


def make_rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestWaveformConstruction:
    def test_three_wave_coefficients(self):
        w = three_wave()
        assert w.components == ((1.0, 1), (-2.0, 2), (1.0, 3))
        assert THREE_WAVE_COEFFS == (1.0, -2.0, 1.0)

    def test_period(self):
        assert three_wave().period == pytest.approx(2 * math.pi, abs=1e-15)
        assert three_wave(omega=2 * math.pi).period == pytest.approx(1.0, abs=1e-15)
        assert three_wave(omega=1e-307).period == pytest.approx(2 * math.pi * 1e307)

    @pytest.mark.parametrize(
        "components, name",
        [
            (((1.0, 1.5),), "harmonic"),
            (((1.0, math.nan),), "harmonic"),
            (((1.0, "x"),), "harmonic"),
            ((("x", 1),), "coefficient"),
            (((None, 1),), "coefficient"),
        ],
    )
    def test_non_integer_harmonic_or_non_numeric_coefficient(self, components, name):
        with pytest.raises(InvalidInputError, match=name):
            Waveform(components)

    def test_integral_float_harmonic_accepted(self):
        assert Waveform(((1.0, 2.0), (0.5, np.int64(3)))).components == ((1.0, 2), (0.5, 3))

    @pytest.mark.parametrize(
        "components, amplitude",
        [
            (((1.0, 1), (-2.0, 2), (1.0, 3)), 1e160),  # |A|^2 alone overflows
            (((1e200, 1),), 1e-200),  # (sum |c_j|)^2 overflows, |A|^2 underflows
            (((1e154, 1), (1e154, 2)), 1e2),  # only the product overflows
        ],
    )
    def test_overflowing_intensity_scale(self, components, amplitude):
        with pytest.raises(InvalidInputError, match=r"\|A\|\^2 \(sum_j \|c_j\|\)\^2 must be finite"):
            Waveform(components, amplitude=amplitude)

    @pytest.mark.parametrize("omega", [1e-320, 5e-324])
    def test_omega_whose_period_overflows(self, omega):
        """A subnormal omega is positive, yet its period 2*pi/omega is inf:
        it is turned away by name, not later by the times it would give."""
        message = "omega's period 2*pi/omega must be positive and finite, got inf"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            Waveform(((1.0, 1),), omega=omega)

    def test_large_finite_intensity_scale(self):
        assert intensity_stats(three_wave(amplitude=1e150)).maximum == pytest.approx(16e300)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Waveform(components=(), omega=1.0)
        with pytest.raises(InvalidInputError):
            Waveform(components=((1.0, 0),), omega=1.0)  # harmonic must be >= 1
        with pytest.raises(InvalidInputError):
            Waveform(components=((math.nan, 1),), omega=1.0)
        with pytest.raises(InvalidInputError):
            Waveform(components=((1.0, 1),), omega=0.0)
        with pytest.raises(InvalidInputError):
            Waveform(components=((1.0, 1),), omega=1.0, amplitude=-1.0)


def _one_event():
    return EventStream(times=np.array([1.0]), rate_scale=1.0)


@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("omega", lambda: three_wave(omega="2"), id="omega"),
        pytest.param("omega", lambda: three_wave(omega=1j), id="complex-omega"),
        pytest.param("amplitude", lambda: three_wave(amplitude=None), id="amplitude"),
        pytest.param("component", lambda: Waveform(((1.0,),)), id="short-component"),
        pytest.param("component", lambda: Waveform((1.0,)), id="scalar-component"),
        pytest.param("span", lambda: sample_events(three_wave(), "5", 1.0, make_rng(0)),
                     id="span"),
        pytest.param("rate_scale", lambda: sample_events(three_wave(), 5.0, "1", make_rng(0)),
                     id="rate_scale"),
        pytest.param("detection_time",
                     lambda: harmonic_expansion(three_wave()).box_filtered("0.3"),
                     id="box_filtered"),
        pytest.param("detection_time",
                     lambda: sample_events(three_wave(), 5.0, 1.0, make_rng(0),
                                           detection_time="0.3"),
                     id="sample_events-detection_time"),
        pytest.param("window",
                     lambda: windowed_coincidence_counts(_one_event(), _one_event(), [0.5, "1"]),
                     id="window"),
        pytest.param("rate", lambda: sample_homogeneous_events("1", 5.0, make_rng(0)),
                     id="homogeneous-rate"),
        pytest.param("span", lambda: sample_homogeneous_events(1.0, "5", make_rng(0)),
                     id="homogeneous-span"),
        pytest.param("rate_scale", lambda: EventStream(times=np.array([1.0]), rate_scale="1"),
                     id="event-stream"),
    ],
)
def test_non_real_scalar_is_rejected_by_name(name, call):
    with pytest.raises(InvalidInputError, match=f"^{name} must be"):
        call()


class TestIntensityAt:
    def test_three_wave_examples(self):
        w = three_wave()
        # Envelope cos(t) - 2cos(2t) + cos(3t): at t=0 it is 0; at t=pi it
        # is -1 - 2 - 1 = -4 -> intensity 16.
        assert intensity_at(w, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert intensity_at(w, math.pi) == pytest.approx(16.0, abs=1e-12)

    def test_intensity_is_squared_envelope(self):
        w = three_wave(omega=1.3, amplitude=2.0)
        t = np.linspace(0.0, w.period, 97)
        env = 1.0 * np.cos(1.3 * t) - 2.0 * np.cos(2.6 * t) + 1.0 * np.cos(3.9 * t)
        assert np.allclose(intensity_at(w, t), 4.0 * env**2, atol=1e-12)

    def test_amplitude_scales_quadratically(self):
        w1 = three_wave(amplitude=1.0)
        w3 = three_wave(amplitude=3.0)
        t = np.linspace(0.0, 6.0, 50)
        assert np.allclose(intensity_at(w3, t), 9.0 * np.asarray(intensity_at(w1, t)),
                           atol=1e-12)

    def test_periodicity(self):
        w = three_wave(omega=0.7)
        t = np.linspace(0.0, w.period, 33)
        assert np.allclose(intensity_at(w, t + w.period), intensity_at(w, t), atol=1e-12)

    @pytest.mark.parametrize("t", [
        None, "1", True, math.inf, -math.inf, math.nan, np.array([1.0, math.nan]),
        np.array([0.0, math.inf]), [1.0, "2"], np.complex128(1.0),
    ], ids=["none", "str", "bool", "inf", "-inf", "nan", "nan-in-array", "inf-in-array",
            "str-in-list", "numpy-complex"])
    def test_time_must_be_finite_and_real(self, t):
        """A time that is no finite real number is turned away, not read as
        a number (a bool as 1) or evaluated to NaN."""
        with pytest.raises(InvalidInputError, match="^t must be finite real numbers$"):
            intensity_at(three_wave(), t)


class TestIntensityStats:
    def test_three_wave_landmarks(self):
        s = intensity_stats(three_wave())
        assert s.mean == pytest.approx(3.0, rel=1e-9)
        assert s.maximum == pytest.approx(16.0, rel=1e-9)
        assert s.peak_to_mean == pytest.approx(16.0 / 3.0, rel=1e-6)
        assert s.peak_to_mean_squared == pytest.approx((16.0 / 3.0) ** 2, rel=1e-6)

    def test_three_wave_peak_location(self):
        s = intensity_stats(three_wave())
        assert len(s.argmax_times) == 1
        assert s.argmax_times[0] == pytest.approx(math.pi, abs=1e-9)

    def test_peak_repeats_every_odd_multiple_of_pi(self):
        w = three_wave()
        for n in range(3):
            t = (2 * n + 1) * math.pi
            assert intensity_at(w, t) == pytest.approx(16.0, rel=1e-12)

    def test_amplitude_scaling(self):
        s = intensity_stats(three_wave(amplitude=2.0))
        assert s.mean == pytest.approx(12.0, rel=1e-9)
        assert s.maximum == pytest.approx(64.0, rel=1e-9)

    def test_quoted_average_note_attached_to_three_wave_only(self):
        assert intensity_stats(three_wave()).note is not None
        assert "0.96" in intensity_stats(three_wave()).note
        single = Waveform(components=((1.0, 1),), omega=1.0)
        assert intensity_stats(single).note is None

    def test_single_component(self):
        # |A cos(2t)|^2 with |A| = 3: mean 9/2, max 9, peaks at 0 and pi/2.
        s = intensity_stats(Waveform(components=((1.0, 1),), omega=2.0, amplitude=3.0))
        assert s.mean == pytest.approx(4.5, rel=1e-9)
        assert s.maximum == pytest.approx(9.0, rel=1e-9)
        assert len(s.argmax_times) == 2

    def test_mean_matches_quadrature(self):
        w = Waveform(components=((0.7, 1), (1.1, 3), (-0.4, 4)), omega=1.9)
        s = intensity_stats(w)
        val, _ = integrate.quad(lambda t: intensity_at(w, t), 0.0, w.period, limit=200)
        assert s.mean == pytest.approx(val / w.period, rel=1e-9)

    def test_detection_time_filter_reduces_peak(self):
        sharp = intensity_stats(three_wave(omega=2 * math.pi))
        blurred = intensity_stats(three_wave(omega=2 * math.pi), detection_time=0.25)
        assert blurred.maximum < sharp.maximum
        # The period average is immune to a time-average filter.
        assert blurred.mean == pytest.approx(sharp.mean, rel=1e-9)

    def test_underflowing_detection_time_leaves_the_series(self):
        """At the smallest width the sinc argument underflows to 0, where
        the factor is sinc's limit 1: the filter changes nothing."""
        w = three_wave()
        assert harmonic_expansion(w).box_filtered(5e-324).terms == harmonic_expansion(w).terms
        plain, filtered = intensity_stats(w), intensity_stats(w, detection_time=5e-324)
        assert (filtered.mean, filtered.maximum, filtered.argmax_times) == (
            plain.mean, plain.maximum, plain.argmax_times)

    def test_overflowing_detection_time_leaves_the_mean(self):
        """At 1e308 the sinc argument m/2 * 1e308 overflows to inf from
        harmonic m = 4 on, where the factor is sinc's limit 0: only the
        mean is left, as at a width of 1e300."""
        w = three_wave()
        terms = dict(harmonic_expansion(w).box_filtered(1e308).terms)
        assert [m for m, a in terms.items() if a == 0.0] == [4, 5, 6]
        assert max(map(abs, terms.values())) < 1e-300
        for width in (1e300, 1e308):
            stats = intensity_stats(w, detection_time=width)
            assert (stats.mean, stats.maximum) == (3.0, 3.0)

    def test_rejects_coarse_sampling(self):
        with pytest.raises(InvalidInputError):
            intensity_stats(three_wave(), samples_per_period=100)

    def test_rejects_float_sample_count(self):
        with pytest.raises(InvalidInputError, match="samples_per_period"):
            intensity_stats(three_wave(), samples_per_period=5000.0)


def scan_max(w, detection_time, n):
    """The exact profile's largest value on an n-point grid over one period."""
    _, profile = wf._exact_profile(w, detection_time)
    return float(np.max(profile(np.linspace(0.0, w.period, n, endpoint=False))))


#: Two peaks 0.0084 of a period apart, after a box filter.  A search that
#: refined one point per cluster of near-maximal grid points put both peaks
#: and the dip between them in one cluster, and reported the dip,
#: 0.002399483592420145 at 0.50024 of the period, 2e-5 relative below the peaks.
TWIN_PEAKS = (
    Waveform(
        ((-0.9197950938228345, 1), (-0.18717500506153661, 6), (-0.520783747795641, 11),
         (0.9392131036783211, 2)),
        omega=9.633708933820337,
        amplitude=0.032155775908378745,
    ),
    0.1727465213674729,
)
#: An unfiltered wave whose maximum the same search put 4.4e-8 relative low
#: (4452.825940548426 against 4452.826134597851), more than the 1e-9 safety
#: margin of sample_events.
UNFILTERED_MISS = (
    Waveform(
        ((-0.6300590611312511, 2), (-0.9768147428020808, 3), (0.03490808724149944, 7),
         (0.2672988569903713, 8), (-0.1991964813635249, 6)),
        omega=0.060427209735608015,
        amplitude=44.36603943600383,
    ),
    None,
)
#: Peaks at t ~ 1.596 and 4.687 (0.8137446497556202) that lie mid-step: the
#: grid maximum is I(0) = 0.8137446478149821, 2.4e-9 relative lower, and
#: both grid neighbours of each peak are lower still.  Only the curvature
#: bound admits the peaks' steps to the slope-root search.
MID_STEP_PEAKS = (
    Waveform(((0.023643249400513433, 1), (0.9009273926518706, 2), (-0.022492681000800565, 3))),
    None,
)
#: A narrow peak (harmonic 40) at t ~ 0.628 and 5.655 whose grid neighbours
#: lie more than 1e-4 relative below the grid maximum, so a fixed 1e-4 band
#: around the grid maximum leaves its steps out: that search reported
#: 3.532070275923544, 1.1e-6 relative below the true 3.5320742947266637.
NARROW_PEAK = (Waveform(((1.0, 1), (1.0, 40), (-0.22769999999999999, 3))), None)


class TestProfileMax:
    def test_twin_peaks(self):
        w, detection_time = TWIN_PEAKS
        s = intensity_stats(w, detection_time=detection_time)
        assert s.maximum >= scan_max(w, detection_time, 2_000_000)
        phases = [t / w.period for t in s.argmax_times]
        assert phases == pytest.approx([0.4958, 0.5042], abs=1e-4)

    def test_unfiltered_peak(self):
        w, _ = UNFILTERED_MISS
        maximum = intensity_stats(w).maximum
        assert maximum >= scan_max(w, None, 2_000_000)
        assert maximum >= 4452.826134597851

    @pytest.mark.parametrize(
        "omega, amplitude",
        [(1.0, 1.0), (5.055119822628568, 0.16878896100122018),
         (1.8008967721801068, 0.8762324454733263)],
    )
    def test_grid_point_wins_a_tie(self, omega, amplitude):
        """The three-wave peaks at the grid point period/2.  In these cases
        the slope root next to it, a few ulps off, has the same value; the
        grid point must be the one reported."""
        w = three_wave(omega=omega, amplitude=amplitude)
        s = intensity_stats(w)
        assert s.argmax_times == (w.period / 2,)
        assert s.maximum == 16.0 * amplitude**2

    def test_narrow_peak_far_below_on_the_grid(self):
        w, _ = NARROW_PEAK
        s = intensity_stats(w)
        assert s.maximum >= scan_max(w, None, 1 << 21)
        assert s.argmax_times == pytest.approx((0.628357, 5.654828), abs=1e-6)

    def test_peaks_between_grid_points_below_the_grid_maximum(self):
        w, _ = MID_STEP_PEAKS
        s = intensity_stats(w)
        assert s.maximum >= scan_max(w, None, 1 << 20)
        assert s.maximum > intensity_at(w, 0.0) * (1.0 + 1e-9)
        assert s.argmax_times == pytest.approx((1.596037, 4.687149), abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.integers(1, 12)), min_size=1, max_size=6
        ),
        st.floats(0.01, 100.0),
        st.floats(0.01, 100.0),
        st.one_of(st.none(), st.floats(0.01, 2.0)),
    )
    @example(list(TWIN_PEAKS[0].components), TWIN_PEAKS[0].omega, TWIN_PEAKS[0].amplitude,
             TWIN_PEAKS[1] * TWIN_PEAKS[0].omega / (2 * math.pi))
    @example(list(UNFILTERED_MISS[0].components), UNFILTERED_MISS[0].omega,
             UNFILTERED_MISS[0].amplitude, None)
    @example(list(MID_STEP_PEAKS[0].components), 1.0, 1.0, None)
    @example(list(NARROW_PEAK[0].components), 1.0, 1.0, None)
    # Twin peaks at t ~ +-0.0015, which meet across t = 0 and t = period.
    @example([(1.0, 1), (1.0, 2), (1.0, 3), (-0.875002625, 4)], 1.0, 1.0, None)
    def test_never_below_a_fine_scan(self, components, omega, amplitude, periods):
        """The maximum is at least the grid maximum and, within the float
        rounding of the profile (the screen's own bound), a 2^18-point scan;
        every argmax time reaches it, and the times are sorted, inside one
        period and more than 4 grid steps apart around the circle."""
        w = Waveform(tuple(components), omega=omega, amplitude=amplitude)
        detection_time = None if periods is None else periods * w.period
        series, profile = wf._exact_profile(w, detection_time)
        maximum, times, grid = wf._profile_max(series, profile, w.period, 4096)
        rounding = wf._screen_tolerance(w, series, w.period)
        assert maximum >= grid.max()
        assert maximum + rounding >= scan_max(w, detection_time, 1 << 18)
        assert times and list(times) == sorted(times)
        assert 0.0 <= times[0] and times[-1] < w.period
        for t in times:
            assert profile(t) >= maximum * (1.0 - 1e-9)
        gaps = np.diff(list(times) + [times[0] + w.period])
        assert len(times) == 1 or gaps.min() > 4.0 * w.period / 4096


class TestHarmonicExpansion:
    def test_three_wave_terms(self):
        e = harmonic_expansion(three_wave())
        assert e.a0 == pytest.approx(3.0, abs=1e-15)
        assert dict(e.terms) == pytest.approx(
            {1: -4.0, 2: 1.5, 3: -2.0, 4: 3.0, 5: -2.0, 6: 0.5}, abs=1e-12
        )

    def test_value_matches_direct_intensity(self):
        w = Waveform(components=((0.9, 1), (-1.3, 2)), omega=1.4, amplitude=1.2)
        e = harmonic_expansion(w)
        t = np.linspace(-2.0, 7.0, 201)
        assert np.allclose(e.value_at(t), intensity_at(w, t), atol=1e-10)

    def test_integral_matches_quadrature(self):
        w = three_wave(omega=0.9)
        e = harmonic_expansion(w)
        val, err = integrate.quad(lambda t: intensity_at(w, t), 0.3, 4.1, limit=200)
        assert e.integral(0.3, 4.1) == pytest.approx(val, abs=max(1e-10, 10 * err))

    def test_full_period_integral_is_dc_term(self):
        w = three_wave()
        e = harmonic_expansion(w)
        assert e.integral(0.0, w.period) == pytest.approx(e.a0 * w.period, abs=1e-12)

    def test_box_filter_limits(self):
        e = harmonic_expansion(three_wave())
        # Short window: unchanged; full period: only the DC term remains.
        tiny = e.box_filtered(1e-9)
        assert dict(tiny.terms) == pytest.approx(dict(e.terms), rel=1e-9)
        full = e.box_filtered(2 * math.pi)
        assert all(abs(a) < 1e-12 for _, a in full.terms)
        assert full.a0 == e.a0

    def test_box_filter_matches_moving_average(self):
        w = three_wave()
        e = harmonic_expansion(w)
        T = 0.8
        filt = e.box_filtered(T)
        for t in (0.0, 1.1, math.pi, 4.9):
            val, _ = integrate.quad(lambda u: intensity_at(w, u), t - T / 2, t + T / 2)
            assert filt.value_at(t) == pytest.approx(val / T, abs=1e-9)


class TestEventStream:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            EventStream(times=np.array([[1.0, 2.0]]), rate_scale=1.0)
        with pytest.raises(InvalidInputError):
            EventStream(times=np.array([2.0, 1.0]), rate_scale=1.0)
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            EventStream(times=np.array([1.0, 2.0, 2.0, 3.0]), rate_scale=1.0)
        with pytest.raises(InvalidInputError):
            EventStream(times=np.array([1.0, math.nan]), rate_scale=1.0)

    @pytest.mark.parametrize("times", [
        [1.0, math.inf], [-math.inf, 1.0], [math.inf], [0.0, math.nan, 1.0], [0.0, 1.0, math.nan],
    ])
    def test_non_finite_times_rejected(self, times):
        """One comparison pass cannot see +-inf at an end, nor a lone
        non-finite time: the end check and the fallback name them, for
        given and for sampled times alike."""
        with pytest.raises(InvalidInputError, match="must be finite"):
            EventStream(times=np.array(times), rate_scale=1.0)
        with pytest.raises(InvalidInputError, match="must be finite"):
            wf._as_stream(np.array(times), 1.0)

    def test_times_read_only(self):
        s = EventStream(times=np.array([1.0, 2.0]), rate_scale=1.0)
        with pytest.raises(ValueError):
            s.times[0] = 0.0

    @pytest.mark.parametrize("times, kept", [
        ([3.0, 1.0, 3.0, 2.0, 1.0, 1.0, 0.5], [0.5, 1.0, 2.0, 3.0]),
        ([2.0, 2.0, 2.0], [2.0]),
        ([0.0, 0.0, 5.0, 7.0, 7.0], [0.0, 5.0, 7.0]),
    ])
    def test_sampled_repeats_are_dropped(self, times, kept):
        """A sampled time drawn twice keeps one copy, the first after the
        sort; the stream then strictly increases and cannot be written."""
        stream = wf._as_stream(np.array(times), 2.0)
        assert stream.times.tolist() == kept
        assert np.all(stream.times[1:] > stream.times[:-1])
        assert not stream.times.flags.writeable
        assert stream.rate_scale == 2.0

    def test_n(self):
        assert EventStream(times=np.array([1.0, 2.0, 5.0]), rate_scale=1.0).n == 3

    def test_callers_array_stays_writable(self):
        times = np.array([1.0, 2.0])
        EventStream(times=times, rate_scale=1.0)
        assert times.flags.writeable
        times[0] = 0.5

    def test_write_to_the_base_of_a_view_does_not_reach_the_stream(self):
        base = np.arange(6.0)
        s = EventStream(times=base[1:4], rate_scale=1.0)
        base[2] = 100.0
        assert s.times.tolist() == [1.0, 2.0, 3.0]

    def test_copies_and_pickles_own_their_times_and_start_without_a_search(self):
        a = EventStream(times=np.array([1.0, 2.0, 4.0]), rate_scale=2.0)
        b = EventStream(times=np.array([1.5, 3.0]), rate_scale=1.0)
        expected = nearest_delays(a, b)
        windowed_coincidences(a, b, 1.0)
        assert a._last_delays is not None
        for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert clone._last_delays is None
            assert not clone.times.flags.writeable
            assert np.array_equal(clone.times, a.times) and clone.rate_scale == 2.0
            assert np.array_equal(nearest_delays(clone, b), expected)


class TestSampleEvents:
    def test_deterministic(self):
        w = three_wave(omega=2 * math.pi)
        a = sample_events(w, span=50.0, rate_scale=1.0, rng=make_rng(4))
        b = sample_events(w, span=50.0, rate_scale=1.0, rng=make_rng(4))
        assert np.array_equal(a.times, b.times)

    def test_underflowing_detection_time_samples_as_a_tiny_one(self):
        """At 5e-324 the filter's sinc factors are their limit 1, as they
        round to at 1e-300, so both widths draw the same stream."""
        w = three_wave()
        a = sample_events(w, 50.0, 1.0, make_rng(4), detection_time=5e-324)
        b = sample_events(w, 50.0, 1.0, make_rng(4), detection_time=1e-300)
        assert a.n > 0 and np.array_equal(a.times, b.times)

    def test_times_inside_span_and_sorted(self):
        s = sample_events(three_wave(), span=100.0, rate_scale=0.5, rng=make_rng(1))
        assert np.all((s.times >= 0.0) & (s.times <= 100.0))
        assert np.all(np.diff(s.times) > 0)

    def test_event_count_matches_mean_rate(self):
        # Mean intensity 3, rate_scale 2 -> expected 6 events per unit time.
        span = 2000.0
        s = sample_events(three_wave(), span=span, rate_scale=2.0, rng=make_rng(7))
        expected = 6.0 * span
        assert abs(s.n - expected) <= 5.0 * math.sqrt(expected)

    def test_zero_amplitude_gives_empty_stream(self):
        w = three_wave(amplitude=0.0)
        s = sample_events(w, span=100.0, rate_scale=1.0, rng=make_rng(0))
        assert s.n == 0

    def test_rejects_bad_inputs(self):
        w = three_wave()
        with pytest.raises(InvalidInputError):
            sample_events(w, span=-1.0, rate_scale=1.0, rng=make_rng(0))
        with pytest.raises(InvalidInputError):
            sample_events(w, span=10.0, rate_scale=-0.5, rng=make_rng(0))

    def test_benchmark_stream_memory_peak(self):
        """The three-wave at span 5e5 and 1/3 rate scale (~5e5 events): the
        traced peak was 17.4 MB, against 42.7 MB for the global-bound stream 2,
        since the screen's work arrays are sized by sub-block."""
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            sample_events(three_wave(), 5e5, 1.0 / 3.0, make_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, peak

    def test_histogram_matches_intensity_profile(self):
        """Event phases within the period follow the normalized intensity;
        chi-square on equal-mass bins (frozen seed)."""
        w = three_wave(omega=2 * math.pi)
        span, rate_scale = 2000.0, 10.0 / 3.0  # ~10 events per period
        s = sample_events(w, span=span, rate_scale=rate_scale, rng=make_rng(2024))
        phases = np.mod(s.times, w.period)

        e = harmonic_expansion(w)
        total = e.a0 * w.period

        def cdf(t):
            return e.integral(0.0, t) / total

        # Equal-mass bin edges by inverting the CDF.
        n_bins = 16
        edges = [0.0]
        for q in np.arange(1, n_bins) / n_bins:
            lo, hi = edges[-1], w.period
            for _ in range(80):  # bisect; cdf is monotone
                mid = 0.5 * (lo + hi)
                if cdf(mid) < q:
                    lo = mid
                else:
                    hi = mid
            edges.append(0.5 * (lo + hi))
        edges.append(w.period)

        counts, _ = np.histogram(phases, bins=np.asarray(edges))
        expected = np.full(n_bins, s.n / n_bins)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        p = stats.chi2.sf(chi2, df=n_bins - 1)
        assert p > 0.01, (chi2, p, counts)

    def test_detection_time_smooths_profile(self):
        """A detection window close to the period flattens the sampled
        profile: the variance of per-bin phase counts drops."""
        w = three_wave(omega=2 * math.pi)
        sharp = sample_events(w, span=3000.0, rate_scale=2.0, rng=make_rng(31))
        blurred = sample_events(w, span=3000.0, rate_scale=2.0, rng=make_rng(31),
                                detection_time=0.9)

        def bin_spread(stream):
            counts, _ = np.histogram(np.mod(stream.times, w.period), bins=20,
                                     range=(0.0, w.period))
            return float(np.std(counts / counts.sum()))

        assert bin_spread(blurred) < 0.5 * bin_spread(sharp)


class TestHomogeneousEvents:
    def test_rate_and_span(self):
        s = sample_homogeneous_events(rate=3.0, span=5000.0, rng=make_rng(8))
        assert np.all((s.times >= 0.0) & (s.times <= 5000.0))
        assert abs(s.n - 15_000) <= 5 * math.sqrt(15_000)

    def test_flat_phase_histogram(self):
        s = sample_homogeneous_events(rate=5.0, span=4000.0, rng=make_rng(9))
        counts, _ = np.histogram(np.mod(s.times, 1.0), bins=10, range=(0.0, 1.0))
        expected = s.n / 10
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, df=9) > 0.01

    def test_median_delay_of_two_independent_streams(self):
        """For two independent rate-1 streams, P(|nearest delay| > t) =
        exp(-2t), so the median |delay| is ln 2 / 2.  On the CLI's two
        homogeneous streams ("events" keys 2 and 3) of span 2e5, seeds 0-39
        gave a mean median of 0.346324 with an SD of 0.00134 across seeds;
        the limit is 5 of those SDs.  A delay taken from the earlier
        neighbour only has a median near ln 2."""
        a = sample_homogeneous_events(1.0, 2e5, _generator("events", 0, 2))
        b = sample_homogeneous_events(1.0, 2e5, _generator("events", 0, 3))
        median = delay_statistics(a, b).median_abs_delay
        assert abs(median - math.log(2.0) / 2.0) <= 5 * 0.00134


class TestNearestDelays:
    def test_hand_case(self):
        a = EventStream(times=np.array([0.0, 10.0]), rate_scale=1.0)
        b = EventStream(times=np.array([1.0, 6.0, 9.5]), rate_scale=1.0)
        d = nearest_delays(a, b)
        # Nearest partner of 0.0 is 1.0 (delay +1.0); of 10.0 is 9.5 (-0.5).
        assert np.allclose(d, [1.0, -0.5], atol=1e-15)

    def test_empty_inputs(self):
        empty = EventStream(times=np.array([]), rate_scale=1.0)
        full = EventStream(times=np.array([1.0]), rate_scale=1.0)
        assert nearest_delays(empty, full).size == 0
        assert nearest_delays(full, empty).size == 0

    def test_median_statistics_empty(self):
        empty = EventStream(times=np.array([]), rate_scale=1.0)
        stats_ = delay_statistics(empty, empty)
        assert stats_.median_abs_delay is None
        assert stats_.counts.sum() == 0

    def test_independent_streams_median_law(self):
        """Independent unit-rate streams (period T = 1): the nearest-event
        |delay| is exponential with rate 2, so the median is ln(2)/2 =
        0.3466 periods."""
        rng = make_rng(123)
        a = sample_homogeneous_events(rate=1.0, span=20_000.0, rng=rng)
        b = sample_homogeneous_events(rate=1.0, span=20_000.0, rng=rng)
        stats_ = delay_statistics(a, b)
        assert abs(stats_.median_abs_delay - math.log(2) / 2) < 0.015

    def test_shared_waveform_halves_the_median(self):
        """Streams thinned from the same waveform bunch together: their
        nearest-delay median is well under half the independent-pair value."""
        w = three_wave(omega=2 * math.pi)
        rng = make_rng(77)
        shared_a = sample_events(w, span=2000.0, rate_scale=10.0 / 3.0, rng=rng)
        shared_b = sample_events(w, span=2000.0, rate_scale=10.0 / 3.0, rng=rng)
        indep_a = sample_homogeneous_events(rate=10.0, span=2000.0, rng=rng)
        indep_b = sample_homogeneous_events(rate=10.0, span=2000.0, rng=rng)
        med_shared = delay_statistics(shared_a, shared_b).median_abs_delay
        med_indep = delay_statistics(indep_a, indep_b).median_abs_delay
        assert med_shared / med_indep < 0.5

    def test_histogram_peaked_at_zero_for_shared_source(self):
        w = three_wave(omega=2 * math.pi)
        rng = make_rng(15)
        a = sample_events(w, span=1000.0, rate_scale=10.0 / 3.0, rng=rng)
        b = sample_events(w, span=1000.0, rate_scale=10.0 / 3.0, rng=rng)
        stats_ = delay_statistics(a, b, bins=32, histogram_range=(-0.5, 0.5))
        counts = stats_.counts
        center = counts[len(counts) // 2 - 1 : len(counts) // 2 + 1].sum()
        edge = counts[:2].sum() + counts[-2:].sum()
        assert center > 3 * max(edge, 1)


class TestWindowedCoincidences:
    def test_hand_case(self):
        a = EventStream(times=np.array([0.0, 5.0, 10.0]), rate_scale=1.0)
        b = EventStream(times=np.array([0.3, 5.6, 9.0]), rate_scale=1.0)
        # window 1.0 -> half-width 0.5: only 0.0~0.3 pairs up.
        assert windowed_coincidences(a, b, window=1.0) == 1
        # window 1.2 -> half-width 0.6: 5.0~5.6 joins.
        assert windowed_coincidences(a, b, window=1.2) == 2
        assert windowed_coincidences(a, b, window=10.0) == 3

    def test_monotone_in_window(self):
        rng = make_rng(21)
        a = sample_homogeneous_events(rate=1.0, span=500.0, rng=rng)
        b = sample_homogeneous_events(rate=1.0, span=500.0, rng=rng)
        widths = [0.01, 0.1, 0.5, 2.0, 10.0]
        counts = [windowed_coincidences(a, b, window=w) for w in widths]
        assert counts == sorted(counts)

    def test_saturates_at_full_span(self):
        rng = make_rng(22)
        a = sample_homogeneous_events(rate=1.0, span=100.0, rng=rng)
        b = sample_homogeneous_events(rate=1.0, span=100.0, rng=rng)
        assert windowed_coincidences(a, b, window=500.0) == a.n

    def test_zero_window(self):
        a = EventStream(times=np.array([1.0]), rate_scale=1.0)
        b = EventStream(times=np.array([2.0]), rate_scale=1.0)
        assert windowed_coincidences(a, b, window=0.1) == 0

    def test_shared_source_beats_independent_across_seeds(self):
        """Sign test: at a tight window the shared-waveform pair yields more
        coincidences than the matched-rate independent pair, for every seed."""
        w = three_wave(omega=2 * math.pi)
        wins = 0
        trials = 20
        for seed in range(trials):
            rng = make_rng(1000 + seed)
            sa = sample_events(w, span=2000.0, rate_scale=1.0 / 3.0, rng=rng)
            sb = sample_events(w, span=2000.0, rate_scale=1.0 / 3.0, rng=rng)
            ia = sample_homogeneous_events(rate=1.0, span=2000.0, rng=rng)
            ib = sample_homogeneous_events(rate=1.0, span=2000.0, rng=rng)
            shared = windowed_coincidences(sa, sb, window=0.05)
            indep = windowed_coincidences(ia, ib, window=0.05)
            if shared > indep:
                wins += 1
        assert wins >= 18, f"shared beat independent only {wins}/{trials} times"


# ---------------------------------------------------------------------------
# Exactness of the fast paths against plain references


def reference_thinning(w, span, rate_scale, rng, detection_time=None):
    """Plain per-bin thinning in the documented draw order: every candidate
    decided with the exact profile."""
    series = harmonic_expansion(w)
    if detection_time is None:
        profile = lambda t: intensity_at(w, t)  # noqa: E731
    else:
        series = series.box_filtered(detection_time)
        profile = series.value_at
    i_max = wf._profile_max(series, profile, w.period, 4096)[0]
    if i_max <= 0.0:
        return np.empty(0)
    bound = rate_scale * i_max * (1.0 + 1e-9)
    table = wf._screen_table(w, series, span, rate_scale, bound)
    if table is None:
        n_bins, width = 1, span
        bin_bounds, periods = np.array([bound]), np.array([1.0])
    else:
        base, slope, margin = table
        n_bins, width = wf._SCREEN_NODES, w.period / wf._SCREEN_NODES
        bin_bounds = np.maximum(base, base + slope) + margin
        periods = np.floor(span / w.period - np.arange(n_bins) / n_bins) + 1.0
    counts = rng.poisson(bin_bounds * width * periods)
    bins = np.repeat(np.arange(n_bins), counts)
    accepted = []
    block = 1 << 22
    for start in range(0, bins.size, block):
        j = bins[start : start + block]
        z = rng.random(j.size) * periods[j]
        period_index = np.floor(z)
        t = (period_index * n_bins + j + (z - period_index)) * width
        u = rng.random(j.size)
        keep = (u * bin_bounds[j] < rate_scale * np.asarray(profile(t), dtype=float)) & (t < span)
        accepted.append(t[keep])
    return np.unique(np.concatenate(accepted) if accepted else np.empty(0))


#: (waveform, span, rate_scale, detection_time): the three-wave at small and
#: large spans (up to 1e7, where cosine arguments reach 6e7 rad), a box
#: filter, a single harmonic, a sparse high-harmonic wave, and a span under
#: half the period (only the bins that start before it are drawn).
THINNING_CASES = [
    (three_wave(), 2e4, 1.0 / 3.0, None),
    (three_wave(omega=2 * math.pi), 300.0, 10.0 / 3.0, None),
    (three_wave(), 1e7, 0.004, None),
    (three_wave(omega=2.5, amplitude=0.7), 3e4, 1.0, 0.05),
    (three_wave(), 1e6, 0.05, 0.9),
    (Waveform(((1.3, 4),)), 5e4, 1.0, None),
    (Waveform.from_coefficients((0.3, 0, -1.2, 0, 0, 0.7)), 1e5, 1.0, None),
    (Waveform.from_coefficients((0.3, 0, -1.2, 0, 0, 0.7)), 1e7, 0.01, 0.2),
    (three_wave(omega=0.01), 300.0, 1.0, None),
]


def _same_generator_state(r1, r2):
    return str(r1.bit_generator.state) == str(r2.bit_generator.state)


class TestThinningMatchesReference:
    @pytest.mark.parametrize("case", range(len(THINNING_CASES)))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_times_and_generator_state(self, case, seed):
        w, span, rate_scale, detection_time = THINNING_CASES[case]
        r_ref, r_new = make_rng(seed), make_rng(seed)
        expected = reference_thinning(w, span, rate_scale, r_ref, detection_time)
        got = sample_events(w, span, rate_scale, r_new, detection_time=detection_time)
        assert got.n > 100
        assert np.array_equal(got.times, expected)
        assert _same_generator_state(r_ref, r_new)

    def test_more_than_one_draw_block(self):
        """A count above 2^22 spans two draw blocks of the documented order."""
        w = three_wave()
        args = (w, 1.5e6, 1.0)
        r_ref, r_new = make_rng(5), make_rng(5)
        expected = reference_thinning(*args, r_ref)
        assert expected.size > 1.05 * (1 << 22)
        assert np.array_equal(sample_events(*args, r_new).times, expected)
        assert _same_generator_state(r_ref, r_new)

    def test_high_degree_wave(self):
        """Harmonic 400 makes an 800-degree series, screened with a wide
        band; the close calls still give the reference stream."""
        w = Waveform(((1.0, 1), (1.0, 400)))
        r_ref, r_new = make_rng(3), make_rng(3)
        expected = reference_thinning(w, 2e3, 1.0, r_ref)
        assert np.array_equal(sample_events(w, 2e3, 1.0, r_new).times, expected)
        assert _same_generator_state(r_ref, r_new)

    @staticmethod
    def _count_exact_decisions(monkeypatch):
        """Record the candidate count and the sizes of the exact-profile calls
        made after it (the peak search runs before the count is drawn)."""
        counts, seen = [], []
        real_counts, real_profile = wf._poisson_counts, wf.intensity_at

        def poisson_counts(rng, means):
            drawn = real_counts(rng, means)
            counts.append(int(np.sum(drawn)))
            return drawn

        def profile(w, t):
            if counts and np.ndim(t):
                seen.append(np.size(t))
            return real_profile(w, t)

        monkeypatch.setattr(wf, "_poisson_counts", poisson_counts)
        monkeypatch.setattr(wf, "intensity_at", profile)
        return counts, seen

    @pytest.mark.parametrize("tol", [1e-301, 1e291, 20.0])
    def test_tolerance_outside_float_limits_decides_every_candidate(self, monkeypatch, tol):
        """A tolerance too small or too large for the screen's rounding
        analysis, or one that makes the margin as wide as the bound (16 for
        the three-wave), skips the table: every candidate is decided with the
        exact profile."""
        monkeypatch.setattr(wf, "_screen_tolerance", lambda *args: tol)
        counts, seen = self._count_exact_decisions(monkeypatch)
        r_ref, r_new = make_rng(4), make_rng(4)
        expected = reference_thinning(three_wave(), 2e3, 1.0, r_ref)
        assert np.array_equal(sample_events(three_wave(), 2e3, 1.0, r_new).times, expected)
        assert _same_generator_state(r_ref, r_new)
        assert sum(seen) == counts[0] > 0

    def test_phase_beyond_2_52_decides_every_candidate(self, monkeypatch):
        """Past 2^52 nodes the table's read point t * (G / period) has no
        fraction left, so every candidate is decided with the exact profile.
        (At such spans the float tolerance alone already makes the margin
        wider than the bound; the test holds whichever guard fires.)"""
        w, span, rate_scale = three_wave(), 7e12, 1e-11
        assert span * wf._SCREEN_NODES / w.period >= 2.0**52
        counts, seen = self._count_exact_decisions(monkeypatch)
        r_ref, r_new = make_rng(6), make_rng(6)
        expected = reference_thinning(w, span, rate_scale, r_ref)
        assert np.array_equal(sample_events(w, span, rate_scale, r_new).times, expected)
        assert _same_generator_state(r_ref, r_new)
        assert sum(seen) == counts[0] > 100

    def test_confirmation_repairs_a_bad_screen(self, monkeypatch):
        """Perturb the table by up to 0.9 of a widened margin: the band then
        holds ~10% of the candidates, and their exact re-decision must still
        give the reference stream."""
        w = three_wave()
        real_table = wf._screen_table
        wide = 0.8

        def screen_table(*args):
            base, slope, _ = real_table(*args)
            return base + 0.9 * wide * np.sin(1e3 * np.arange(base.size)), slope, wide

        monkeypatch.setattr(wf, "_screen_table", screen_table)
        r_ref, r_new = make_rng(8), make_rng(8)
        expected = reference_thinning(w, 2e4, 1.0 / 3.0, r_ref)
        assert np.array_equal(sample_events(w, 2e4, 1.0 / 3.0, r_new).times, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            # Nonzero coefficients far from underflow, so that the rate
            # scale below stays finite.
            st.tuples(
                st.floats(-3.0, 3.0).filter(lambda c: c == 0.0 or abs(c) > 1e-9),
                st.integers(1, 8),
            ),
            min_size=1,
            max_size=4,
        ),
        st.floats(0.1, 10.0),
        st.floats(0.01, 100.0),
        st.one_of(st.none(), st.floats(1e-3, 2.0)),
        st.floats(1.0, 1e6),
        st.integers(100, 20_000),
        st.integers(0, 2**32 - 1),
    )
    def test_random_waveforms(self, components, omega, amplitude, detection_time,
                              span, candidates, seed):
        """Random waves, filtered or not, at up to ~2e4 candidates: the
        stream and the generator's end state are those of plain thinning."""
        w = Waveform(tuple(components), omega=omega, amplitude=amplitude)
        peak_bound = amplitude**2 * sum(abs(c) for c, _ in components) ** 2
        rate_scale = candidates / (peak_bound * span) if peak_bound > 0 else 1.0
        r_ref, r_new = make_rng(seed), make_rng(seed)
        expected = reference_thinning(w, span, rate_scale, r_ref, detection_time)
        got = sample_events(w, span, rate_scale, r_new, detection_time=detection_time)
        assert np.array_equal(got.times, expected)
        assert _same_generator_state(r_ref, r_new)

    def test_few_candidates_reach_the_exact_profile(self, monkeypatch):
        """The per-bin bound draws about one candidate per event (one global
        bound drew 16/3 per event), and besides the peak search, the exact
        profile sees only the rare close calls."""
        counts, seen = self._count_exact_decisions(monkeypatch)
        s = sample_events(three_wave(), 5e5, 1.0 / 3.0, make_rng(11))
        assert s.n > 400_000
        assert counts[0] < 1.005 * s.n
        assert sum(seen) < 200


def read_table(table, w, t):
    """The screen's reading of its table at times ``t``, as ``sample_events``
    computes it."""
    base, slope, _ = table
    x = t * (wf._SCREEN_NODES / w.period)
    c = np.floor(x)
    j = c.astype(np.intp) & (wf._SCREEN_NODES - 1)
    return base[j] + (x - c) * slope[j]


def screen_case(case):
    """(waveform, span, rate_scale, series, exact profile, table) of a case."""
    w, span, rate_scale, detection_time = THINNING_CASES[case]
    series = harmonic_expansion(w)
    if detection_time is None:
        exact = lambda t: intensity_at(w, t)  # noqa: E731
    else:
        series = series.box_filtered(detection_time)
        exact = series.value_at
    table = wf._screen_table(w, series, span, rate_scale, math.inf)
    return w, span, rate_scale, series, exact, table


class TestTimeRescaling:
    """Time-rescaling (Brown et al. 2002, Neural Comput. 14:325): for a
    Poisson process of rate r(t), the increments of Lambda(t) = int_0^t r
    between successive events are independent Exp(1)."""

    @pytest.mark.parametrize("detection_time", [None, 0.3])
    def test_rescaled_gaps_are_unit_exponential(self, detection_time):
        w, span, rate_scale = three_wave(omega=2 * math.pi), 3000.0, 10.0 / 3.0
        s = sample_events(w, span, rate_scale, make_rng(2002), detection_time=detection_time)
        series = harmonic_expansion(w)
        if detection_time is not None:
            series = series.box_filtered(detection_time)
        times = np.concatenate(([0.0], s.times))
        gaps = [rate_scale * series.integral(a, b) for a, b in zip(times[:-1], times[1:])]
        assert s.n > 25_000
        assert stats.kstest(gaps, "expon").pvalue > 0.01


class TestFastSeries:
    @pytest.mark.parametrize("case", range(len(THINNING_CASES)))
    def test_within_a_hundredth_of_the_tolerance(self, case):
        """The table's nodes carry only float rounding: each is within a
        hundredth of the float tolerance of the exact rate there."""
        w, span, rate_scale, series, exact, table = screen_case(case)
        tol = wf._screen_tolerance(w, series, span)
        base, slope, _ = table
        t = np.arange(wf._SCREEN_NODES + 1) * (w.period / wf._SCREEN_NODES)
        nodes = np.append(base, base[-1] + slope[-1])
        gap = np.max(np.abs(nodes - rate_scale * exact(t)))
        assert gap <= rate_scale * tol / 100, (gap, tol)

    @pytest.mark.parametrize("case", range(len(THINNING_CASES)))
    def test_bin_bound_covers_the_rate(self, case):
        """The thinning bound of bin j, max(v_j, v_{j+1}) + margin, is at
        least the exact rate anywhere in the bin, by at least half the margin."""
        w, span, rate_scale, _, exact, table = screen_case(case)
        base, slope, margin = table
        bin_bounds = np.maximum(base, base + slope) + margin
        t = make_rng(case).uniform(0.0, span, 200_000)
        j = np.floor(t * (wf._SCREEN_NODES / w.period)).astype(np.intp) % wf._SCREEN_NODES
        assert np.all(rate_scale * exact(t) <= bin_bounds[j] - margin / 2)
        # Node j closes bin j - 1 and opens bin j.
        nodes = rate_scale * exact(np.arange(wf._SCREEN_NODES) * (w.period / wf._SCREEN_NODES))
        assert np.all(nodes <= np.minimum(bin_bounds, np.roll(bin_bounds, 1)) - margin / 2)

    @pytest.mark.parametrize("case", range(len(THINNING_CASES)))
    def test_within_half_the_margin(self, case):
        """Read at random times, at both ends of the span and at every node,
        the table is within half the margin of the exact rate, and the margin
        is a thousandth of the peak rate or less."""
        w, span, rate_scale, _, exact, table = screen_case(case)
        margin = table[2]
        nodes = np.arange(wf._SCREEN_NODES) * (w.period / wf._SCREEN_NODES)
        t = np.concatenate(
            [make_rng(case).uniform(0.0, span, 200_000), [0.0, span * (1 - 1e-16)], nodes]
        )
        rate = rate_scale * exact(t)
        gap = np.max(np.abs(read_table(table, w, t) - rate))
        assert gap <= margin / 2, (gap, margin)
        assert margin < 1e-3 * float(np.max(rate))


class TestPoissonLimit:
    """Expected counts beyond the sampler's limit fail before any draw."""

    def test_sample_events(self):
        """Each raises and leaves the generator untouched; the last two are
        the cases of one bin and of 4096 bins each within the limit."""
        for span, rate_scale in [(1e300, 1.0), (100.0, 1e300), (1e18, 1.0), (1e9, 1e10)]:
            rng = make_rng(0)
            before = str(rng.bit_generator.state)
            with pytest.raises(InvalidInputError, match="Poisson"):
                sample_events(three_wave(), span=span, rate_scale=rate_scale, rng=rng)
            assert str(rng.bit_generator.state) == before

    def test_total_beyond_the_limit_with_every_bin_within_it(self):
        """At span 1e9 and rate scale 1e10 the screen table is in use, each of
        its bin means (~7e15) is within the limit and their total (~3e19) is
        not: the limit applies to the total."""
        w, span, rate_scale = three_wave(), 1e9, 1e10
        table = wf._screen_table(w, harmonic_expansion(w), span, rate_scale, 16.0 * rate_scale)
        base, slope, margin = table
        width = w.period / wf._SCREEN_NODES
        means = (np.maximum(base, base + slope) + margin) * width * np.ceil(span / w.period)
        assert means.max() < wf._POISSON_LAM_MAX < means.sum()
        with pytest.raises(InvalidInputError, match=r"expected event count 3\.05\d*e\+19 "):
            sample_events(w, span, rate_scale, make_rng(0))

    def test_sample_homogeneous_events(self):
        with pytest.raises(InvalidInputError, match="Poisson"):
            sample_homogeneous_events(rate=1.0, span=1e300, rng=make_rng(0))
        with pytest.raises(InvalidInputError, match="Poisson"):
            sample_homogeneous_events(rate=1e300, span=1e10, rng=make_rng(0))

    def test_generator_untouched(self):
        rng = make_rng(0)
        before = str(rng.bit_generator.state)
        with pytest.raises(InvalidInputError):
            sample_homogeneous_events(rate=1e20, span=1.0, rng=rng)
        assert str(rng.bit_generator.state) == before


def brute_force_windows(a, b, window):
    """A-events whose nearest B-event is within window/2, from every
    |b - x|: rounding is monotone, so the least of them is the nearest
    side's gap bit for bit."""
    half = 0.5 * window
    return sum(bool(np.min(np.abs(b - x)) <= half) for x in a)


def widths_at_gaps(a, b):
    """Every width 2 g and its two float neighbours, for each gap g of the
    pair: the widths at which a count can change."""
    return [
        float(w)
        for g in np.abs(nearest_delays(a, b))
        for w in (np.nextafter(2 * g, 0.0), 2 * g, np.nextafter(2 * g, math.inf))
        if w > 0.0
    ]


def brute_force_delays(a, b):
    out = []
    for x in a:
        d = b - x
        best = np.min(np.abs(d))
        out.append(np.max(d[np.abs(d) == best]))  # the later neighbour wins a tie
    return np.asarray(out)


def _pairs():
    rng = make_rng(404)

    def stream(t):
        return EventStream(times=np.unique(np.asarray(t, dtype=float)), rate_scale=1.0)

    pairs = [
        (stream([]), stream([1.0, 2.0])),
        (stream([1.0, 2.0]), stream([])),
        (stream([0.5]), stream([0.4])),
        (stream([0.5]), stream([0.6])),
        (stream([3.0]), stream([1.0, 2.0, 4.0, 5.0])),
        (stream([0.0, 1.0, 2.0]), stream([0.0, 1.0, 2.0])),  # shared events
        (stream([1.0, 1.5, 9.0]), stream([-3.0, 1.25, 8.0, 10.0])),  # exact ties
    ]
    for _ in range(60):
        n_a, n_b = rng.integers(0, 40, size=2)
        grid = rng.integers(0, 30, size=n_a + n_b) * 0.25  # shared events, ties
        mixed = rng.uniform(0.0, 8.0, size=n_a + n_b)
        t = np.where(rng.random(n_a + n_b) < 0.5, grid, mixed)
        pairs.append((stream(t[:n_a]), stream(t[n_a:])))
    return pairs


PAIRS = _pairs()


class TestNeighbourSearchMatchesBruteForce:
    @pytest.mark.parametrize("window", [1e-3, 0.25, 0.5, 1.0, 2.5, 50.0])
    def test_windowed_coincidences(self, window):
        for a, b in PAIRS:
            expected = brute_force_windows(a.times, b.times, window) if b.n else 0
            assert windowed_coincidences(a, b, window) == expected

    def test_b_events_exactly_at_the_window_edges(self):
        half = 0.5
        a_times = np.array([0.1, 1.3, 7.77, 1e6 + 0.3])
        for sign in (-1.0, 1.0):
            b = EventStream(times=a_times + sign * half, rate_scale=1.0)
            a = EventStream(times=a_times, rate_scale=1.0)
            expected = brute_force_windows(a.times, b.times, 2 * half)
            assert windowed_coincidences(a, b, 2 * half) == expected
            # Just past the edges nothing matches.
            outside = EventStream(times=a_times + sign * half * (1 + 1e-9), rate_scale=1.0)
            assert windowed_coincidences(a, outside, 2 * half) == 0

    def test_counts_for_all_widths(self):
        """One shared search gives every width's count, including B-events
        exactly at a +- half and just past it."""
        windows = [1e-3, 0.25, 0.5, 1.0, 2.5, 50.0]
        a_times = np.array([0.1, 1.3, 7.77, 1e6 + 0.3])
        edges = [
            (EventStream(times=a_times, rate_scale=1.0), EventStream(times=t, rate_scale=1.0))
            for t in (a_times - 0.5, a_times + 0.5, a_times + 0.5 * (1 + 1e-9))
        ]
        for a, b in PAIRS + edges:
            expected = [brute_force_windows(a.times, b.times, w) if b.n else 0 for w in windows]
            assert windowed_coincidence_counts(a, b, windows) == expected

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_counts_reject_the_first_bad_width(self, bad):
        a = EventStream(times=np.array([1.0]), rate_scale=1.0)
        empty = EventStream(times=np.array([]), rate_scale=1.0)
        for b in (a, empty):
            with pytest.raises(InvalidInputError, match=f"positive and finite, got {bad!r}"):
                windowed_coincidence_counts(a, b, [0.5, bad, -2.0])
        assert windowed_coincidence_counts(a, empty, [0.5, 1.0]) == [0, 0]

    def test_nearest_delays(self):
        for a, b in PAIRS:
            got = nearest_delays(a, b)
            if a.n == 0 or b.n == 0:
                assert got.size == 0
                continue
            assert np.array_equal(got, brute_force_delays(a.times, b.times))

    def test_one_event_each_side(self):
        a = EventStream(times=np.array([2.0]), rate_scale=1.0)
        assert nearest_delays(a, EventStream(times=np.array([1.0]), rate_scale=1.0))[0] == -1.0
        assert nearest_delays(a, EventStream(times=np.array([3.5]), rate_scale=1.0))[0] == 1.5
        tie = EventStream(times=np.array([1.0, 3.0]), rate_scale=1.0)
        assert nearest_delays(a, tie)[0] == 1.0

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_small_scan_blocks(self, monkeypatch, block):
        """Scans that cut the A-events into many blocks give the same results."""
        monkeypatch.setattr(wf, "_SCAN_BLOCK", block)
        windows = [1e-3, 0.25, 0.5, 1.0, 2.5, 50.0]
        for a, b in PAIRS:
            expected = [brute_force_windows(a.times, b.times, w) if b.n else 0 for w in windows]
            assert windowed_coincidence_counts(a, b, windows) == expected
            if a.n and b.n:
                assert np.array_equal(nearest_delays(a, b), brute_force_delays(a.times, b.times))


def fresh(stream):
    """An equal stream with no search of its own."""
    return EventStream(times=stream.times, rate_scale=stream.rate_scale)


def scan(a, b, windows=(0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)):
    """Every scan of one pair: delays, their statistics, and window counts in
    both forms."""
    stats_ = delay_statistics(a, b)
    return (
        nearest_delays(a, b).tolist(),
        stats_.counts.tolist(),
        stats_.median_abs_delay,
        windowed_coincidence_counts(a, b, windows),
        [windowed_coincidences(a, b, w) for w in windows],
    )


def counted_scans(monkeypatch):
    """Record the neighbour scans of A in B (the calls of ``nearest_delays``,
    as the ids of the two streams) and the arrays that ``np.searchsorted``
    searches outside them."""
    scans, searched = [], []
    scan, search = wf.nearest_delays, np.searchsorted

    def counted_scan(stream_a, stream_b):
        scans.append((id(stream_a), id(stream_b)))
        before = len(searched)
        try:
            return scan(stream_a, stream_b)
        finally:
            del searched[before:]

    def counted_search(sorted_values, *args, **kwargs):
        searched.append(sorted_values)
        return search(sorted_values, *args, **kwargs)

    monkeypatch.setattr(wf, "nearest_delays", counted_scan)
    monkeypatch.setattr(np, "searchsorted", counted_search)
    return scans, searched


def only_sorted_delays(searched, a, b):
    """Whether every array in ``searched`` is the (a, b) pair's kept sorted
    delays, none of them a slice of B's times."""
    kept = a._last_delays[1]
    return all(x is kept and not np.shares_memory(x, b.times) for x in searched)


class TestSearchMemo:
    """Each stream keeps its last pair's sorted gaps, keyed on the B-stream."""

    @staticmethod
    def streams(n, seed=31, span=200.0):
        rng = make_rng(seed)
        return [sample_homogeneous_events(1.0, span, rng) for _ in range(n)]

    def test_interleaved_pairs_match_fresh_streams(self):
        a, b, c = self.streams(3)
        for x, y in ((a, b), (a, c), (a, b), (b, a), (a, c)):
            assert scan(x, y) == scan(fresh(x), fresh(y))

    def test_one_search_per_pair(self, monkeypatch):
        """Demo 05's sequence: the delays of two pairs, then six widths per
        pair, one call each, scan A in B twice; a third pair scans once
        more.  Each window call searches only the pair's sorted delays, once
        per end of [-window/2, window/2]."""
        shared_a, shared_b, indep_a, indep_b = self.streams(4, seed=32)
        pairs = ((shared_a, shared_b), (indep_a, indep_b))
        scans, searched = counted_scans(monkeypatch)
        for a, b in pairs:
            delay_statistics(a, b, bins=13, histogram_range=(-0.325, 0.325))
        counts, widths = [], (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)
        for a, b in pairs:
            searched.clear()
            counts += [windowed_coincidences(a, b, window=w) for w in widths]
            assert len(searched) == 12 and only_sorted_delays(searched, a, b)
        assert scans == [(id(a), id(b)) for a, b in pairs]
        searched.clear()
        crossed = windowed_coincidences(shared_a, indep_b, 0.5)
        assert scans == [(id(a), id(b)) for a, b in (*pairs, (shared_a, indep_b))]
        assert len(searched) == 2 and only_sorted_delays(searched, shared_a, indep_b)
        monkeypatch.undo()
        assert counts[-1] == windowed_coincidences(fresh(indep_a), fresh(indep_b), 0.5)
        assert crossed == windowed_coincidences(fresh(shared_a), fresh(indep_b), 0.5)

    def test_the_search_does_not_keep_the_b_stream_alive(self):
        a, b, c = self.streams(3, seed=33)
        nearest_delays(a, b)
        dead = weakref.ref(b)
        del b
        gc.collect()
        assert dead() is None
        # The dead reference matches no stream: a new one is searched anew.
        assert scan(a, fresh(c)) == scan(fresh(a), c)

    def test_threads_sharing_one_a_stream(self):
        """8 threads scan one A-stream against 8 B-streams at once, with a
        short switch interval; each result matches the serial one."""
        a, *bs = self.streams(9, seed=34, span=2000.0)
        serial = [scan(fresh(a), fresh(b)) for b in bs]
        barrier = threading.Barrier(len(bs), timeout=60)
        results = [None] * len(bs)

        def work(i):
            barrier.wait()
            results[i] = [scan(a, bs[i]) for _ in range(5)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(bs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[expected] * 5 for expected in serial]

    def test_benchmark_scan_memory_peak(self):
        """The benchmark's scan on four ~5e5-event streams (two three-wave,
        two homogeneous): the delay statistics of both pairs, then 7 widths
        per pair, one call each.  With a new search and full-size neighbour
        arrays per call its traced peak was 29.5 MB; one full search per
        pair with neighbours gathered in blocks measured 22.6 MB, and a
        search of each block in its own slice of B, with no index or padded
        copy of B, 16.0 MB (what each pair keeps: its delays and their
        sorted copy, 4 MB each)."""
        w, span = three_wave(), 5e5
        shared_a, shared_b = (sample_events(w, span, 1.0 / 3.0, make_rng(s)) for s in (1, 2))
        indep_a, indep_b = (sample_homogeneous_events(1.0, span, make_rng(s)) for s in (3, 4))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            pairs = ((shared_a, shared_b), (indep_a, indep_b))
            kept = [delay_statistics(a, b) for a, b in pairs]
            kept += [
                [windowed_coincidences(a, b, x) for x in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)]
                for a, b in pairs
            ]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 29.5e6, peak


class TestGapScreen:
    """Window counts read from the pair's sorted gaps equal the brute-force
    counts of |nearest delay| <= window/2 at widths of twice a gap and its
    float neighbours, and where a window edge would overflow."""

    @staticmethod
    def check_widths_at_gaps(a_times, b_times):
        a, b = (EventStream(times=np.unique(t), rate_scale=1.0) for t in (a_times, b_times))
        widths = widths_at_gaps(a, b)
        expected = [brute_force_windows(a.times, b.times, w) for w in widths]
        assert windowed_coincidence_counts(a, b, widths) == expected
        assert [windowed_coincidences(a, b, w) for w in widths] == expected

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e15, -1e9])
    def test_widths_at_twice_a_gap_and_either_side(self, offset):
        rng = make_rng(505)
        for _ in range(5):
            self.check_widths_at_gaps(*(offset + rng.uniform(0.0, 10.0, (2, 30))))

    def test_widths_at_twice_a_gap_across_zero(self):
        """A-events on one side of 0 and B-events on the other: a gap then
        reaches 2 max|t|."""
        rng = make_rng(506)
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-3.0, 6.0)
            sides = rng.uniform(0.0, scale, (2, 3)) * [[-1.0], [1.0]]
            self.check_widths_at_gaps(*(sides if rng.random() < 0.5 else sides[::-1]))

    def test_widths_at_a_partner_half_a_unit_away(self, monkeypatch):
        """B = A +- 0.5 puts every gap within rounding of 0.5: the widths at
        twice each gap and either side, and 1.0 and 3.0, match the brute
        force.  The pair scans A in B once.  Each call then searches only
        the pair's sorted delays, once per end: one search per end for all
        widths of a call, and so two per one-width call."""
        a_times = np.array([0.1, 1.3, 7.77, 1e6 + 0.3])
        for sign in (-1.0, 1.0):
            a = EventStream(times=a_times, rate_scale=1.0)
            b = EventStream(times=a_times + sign * 0.5, rate_scale=1.0)
            widths = [1.0, 3.0, *widths_at_gaps(a, b)]
            expected = [brute_force_windows(a.times, b.times, w) for w in widths]
            assert expected[:2] == [4, 4]
            scans, searched = counted_scans(monkeypatch)
            assert windowed_coincidence_counts(a, b, widths) == expected
            assert scans == [(id(a), id(b))]
            assert len(searched) == 2 and only_sorted_delays(searched, a, b)
            searched.clear()
            assert [windowed_coincidences(a, b, w) for w in widths] == expected
            assert scans == [(id(a), id(b))]
            assert len(searched) == 2 * len(widths) and only_sorted_delays(searched, a, b)
            monkeypatch.undo()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_missing_neighbour_never_coincides_when_the_edge_overflows(self, sign):
        """x +- half beyond the float range is +-inf: a B-event on that side
        coincides (as in the brute force), a missing one does not, and no
        overflow warning is raised."""
        a = EventStream(times=np.array([sign * 1.5e308]), rate_scale=1.0)
        lone, far = (
            EventStream(times=np.sort(np.array(t)), rate_scale=1.0)
            for t in ([0.0], [0.0, sign * 1.7e308])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert windowed_coincidences(a, lone, 1e308) == 0
            assert windowed_coincidence_counts(a, lone, [1e308, 1.7e308]) == [0, 0]
            assert windowed_coincidences(a, far, 1e308) == 1
            assert windowed_coincidence_counts(a, far, [1e-3, 1e308]) == [0, 1]


@st.composite
def stream_pairs(draw):
    """Two streams of up to ~25 events each, sharing some events, at an
    offset of 0 (so that they may cross 0), +-1e6 or +-1e15."""
    times = st.lists(st.floats(-10.0, 10.0, allow_nan=False), max_size=15)
    offset = draw(st.sampled_from([0.0, 1e6, -1e6, 1e15, -1e15]))
    shared = draw(times)
    a, b = (np.unique(offset + np.array(draw(times) + shared, dtype=float)) for _ in "ab")
    return EventStream(times=a, rate_scale=1.0), EventStream(times=b, rate_scale=1.0)


class TestCoincidenceIsNearestDelay:
    @settings(max_examples=200, deadline=None)
    @given(stream_pairs(), st.lists(st.floats(1e-3, 30.0), max_size=4))
    def test_counts_are_nearest_delays_within_half_a_width(self, pair, drawn):
        """At twice each gap, its float neighbours and drawn widths, the
        count is that of |nearest delay| <= width/2, and it never falls as
        the width grows."""
        a, b = pair
        gaps = np.abs(nearest_delays(a, b))
        widths = widths_at_gaps(a, b) + drawn
        counts = windowed_coincidence_counts(a, b, widths)
        assert counts == [int(np.count_nonzero(gaps <= w / 2)) for w in widths]
        assert [windowed_coincidences(a, b, w) for w in widths] == counts
        by_width = [c for _, c in sorted(zip(widths, counts))]
        assert by_width == sorted(by_width)


def full_search_delays(a, b):
    """Nearest delays from one ``np.searchsorted`` of all of A in B, with B
    padded by -inf and +inf where a neighbour is missing; the later
    neighbour wins a tie."""
    idx = np.searchsorted(b, a)
    padded = np.concatenate(([-np.inf], b, [np.inf]))
    with np.errstate(over="ignore"):
        d_after, d_before = padded[1:][idx] - a, a - padded[idx]
    return np.where(d_after <= d_before, d_after, -d_before)


def same_bits(x, y):
    return np.array_equal(np.asarray(x, dtype=float).view(np.int64),
                          np.asarray(y, dtype=float).view(np.int64))


class TestBlockSearch:
    """:func:`nearest_delays` searches each block of A only in its own slice
    of B, and gives the delays of one search of all of A in B, bit for bit."""

    def test_blocks_match_one_full_search(self):
        """A over 3.5 blocks, with events before B's first and after its
        last, shared events and exact ties; no B-event lies within A's
        second searched block."""
        n = wf._SCAN_BLOCK
        rng = make_rng(808)
        grid = np.arange(0.0, 100.0, 0.5)
        a = np.unique(np.concatenate((rng.uniform(0.0, 100.0, int(3.5 * n)), grid)))
        b = np.concatenate(([1.0], rng.uniform(1.0, 99.0, 3 * n), grid[10:190:7] + 0.25))
        head = int(np.searchsorted(a, 1.0, side="right"))
        quiet_lo, quiet_hi = a[head + n], a[head + 2 * n]
        b = np.unique(np.concatenate((b, rng.choice(a[(a > 1.0) & (a < 99.0)], 300))))
        b = b[(b < quiet_lo) | (b > quiet_hi)]
        assert np.searchsorted(b, quiet_lo) == np.searchsorted(b, quiet_hi)
        assert a[0] < b[0] and a[-1] > b[-1] and a.size > 3 * n
        got = nearest_delays(*(EventStream(times=t, rate_scale=1.0) for t in (a, b)))
        assert same_bits(got, full_search_delays(a, b))

    @pytest.mark.parametrize("a_times, b_times", [
        ([-1.7e308, 0.0], [1e308]),
        ([0.0, 1.7e308], [-1e308]),
        ([-1.7e308, -1.0, 0.0, 1.0, 1.5e308, 1.7e308], [-1e308, 1e308]),
    ])
    def test_delays_beyond_the_float_range(self, monkeypatch, a_times, b_times):
        """Before B's first event, after its last (where a delay beyond the
        float range ties with the missing later neighbour and reads +inf)
        and between, in blocks of two, with no overflow warning."""
        monkeypatch.setattr(wf, "_SCAN_BLOCK", 2)
        a, b = (EventStream(times=np.array(t), rate_scale=1.0) for t in (a_times, b_times))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nearest_delays(a, b)
        assert same_bits(got, full_search_delays(a.times, b.times))


@st.composite
def delays_and_range(draw):
    """Delays with +-0.0, ties, odd and even counts and +-inf, some of them
    at a bin edge or a float either side of one, with a given range (always
    when a delay is infinite) or none."""
    bins = draw(st.integers(1, 12))
    lo = draw(st.floats(-5.0, 4.0))
    histogram_range = (lo, lo + draw(st.floats(1e-3, 10.0)))
    edges = np.histogram_bin_edges(np.empty(0), bins, histogram_range)
    near_edges = [
        float(x) for e in edges for x in (np.nextafter(e, -math.inf), e, np.nextafter(e, math.inf))
    ]
    special = st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.25, -0.25, *near_edges])
    finite = draw(st.lists(st.one_of(special, st.floats(-6.0, 6.0)), max_size=30))
    infinite = draw(st.lists(st.sampled_from([math.inf, -math.inf]), max_size=3))
    delays = np.array(draw(st.permutations(finite + infinite)), dtype=float)
    if not infinite and draw(st.booleans()):
        histogram_range = None
    return delays, bins, histogram_range


class TestStatisticsMatchNumpy:
    """Counts, edges and median read from the sorted delays are those of
    ``np.histogram`` and ``np.median(np.abs(delays))``, bit for bit; where
    ``np.histogram`` rejects the range (bins narrower than a float step),
    the statistics raise ``InvalidInputError``."""

    @staticmethod
    def check(build, delays, bins, histogram_range):
        if histogram_range is None:
            limit = float(np.max(np.abs(delays))) if delays.size else 0.0
            histogram_range = (-(limit or 1.0), limit or 1.0)
        try:
            counts, edges = np.histogram(delays, bins, histogram_range)
        except ValueError:
            with pytest.raises(InvalidInputError, match="histogram_range"):
                build()
            return
        s = build()
        assert np.array_equal(s.counts, counts) and s.counts.dtype == counts.dtype
        assert same_bits(s.bin_edges, edges)
        if delays.size:
            assert same_bits(s.median_abs_delay, np.median(np.abs(delays)))
        else:
            assert s.median_abs_delay is None

    @settings(max_examples=400, deadline=None)
    @given(delays_and_range())
    @example((np.array([-0.0, 0.0, -0.0]), 3, None))
    @example((np.array([math.inf, -math.inf, -0.5, 0.5]), 4, (-1.0, 1.0)))
    @example((np.array([]), 2, (0.0, 1.0)))
    @example((np.array([0.0, 0.0, 0.0, -5e-324]), 3, None))
    def test_from_delays(self, case):
        delays, bins, histogram_range = case
        self.check(lambda: DelayStatistics.from_delays(delays, bins, histogram_range),
                   delays, bins, histogram_range)

    @settings(max_examples=200, deadline=None)
    @given(stream_pairs(), st.integers(1, 12), st.none() | st.just((-0.3, 0.7)),
           st.lists(st.floats(1e-3, 30.0), max_size=4))
    def test_delay_statistics_and_windows(self, pair, bins, histogram_range, widths):
        a, b = pair
        delays = nearest_delays(a, b)
        self.check(lambda: delay_statistics(a, b, bins, histogram_range),
                   delays, bins, histogram_range)
        widths = widths + widths_at_gaps(a, b)
        expected = [brute_force_windows(a.times, b.times, w) if b.n else 0 for w in widths]
        assert windowed_coincidence_counts(a, b, widths) == expected


class TestHistogramRange:
    @pytest.mark.parametrize(
        "bad",
        [
            (1.0, -1.0), (0.5, 0.5), (math.nan, 1.0), (-1.0, math.inf), (-math.inf, 0.0),
            (-1.7e308, 1.7e308),
        ],
    )
    def test_rejected_for_empty_and_full_streams(self, bad):
        empty = EventStream(times=np.array([]), rate_scale=1.0)
        full = EventStream(times=np.array([0.0, 1.0, 2.5]), rate_scale=1.0)
        for a, b in ((empty, empty), (full, empty), (full, full)):
            with pytest.raises(InvalidInputError, match="histogram_range"):
                delay_statistics(a, b, histogram_range=bad)

    def test_default_range_is_the_largest_delay(self):
        rng = make_rng(7)
        a = sample_homogeneous_events(rate=2.0, span=50.0, rng=rng)
        b = sample_homogeneous_events(rate=2.0, span=50.0, rng=rng)
        delays = nearest_delays(a, b)
        limit = float(np.max(np.abs(delays)))
        for s in (delay_statistics(a, b, bins=5), DelayStatistics.from_delays(delays, 5)):
            assert (s.bin_edges[0], s.bin_edges[-1]) == (-limit, limit)

    def test_valid_range_on_empty_streams(self):
        empty = EventStream(times=np.array([]), rate_scale=1.0)
        s = delay_statistics(empty, empty, bins=4, histogram_range=(-2.0, 2.0))
        assert np.array_equal(s.bin_edges, [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_from_delays_matches_delay_statistics(self):
        rng = make_rng(6)
        a = sample_homogeneous_events(rate=2.0, span=300.0, rng=rng)
        b = sample_homogeneous_events(rate=2.0, span=300.0, rng=rng)
        for histogram_range in (None, (-0.7, 0.4)):
            s = delay_statistics(a, b, bins=9, histogram_range=histogram_range)
            t = DelayStatistics.from_delays(nearest_delays(a, b), 9, histogram_range)
            assert np.array_equal(s.counts, t.counts)
            assert np.array_equal(s.bin_edges, t.bin_edges)
            assert s.median_abs_delay == t.median_abs_delay

    @pytest.mark.parametrize("a_times, b_times", [([-1e308], [1e308]), ([0.0], [-1.7e308, 1.7e308])])
    def test_delays_beyond_the_float_range(self, a_times, b_times):
        """A delay beyond the float range, or a +-max|delay| range wider
        than it, needs a given range: without one, InvalidInputError names
        the range, with no warning.  Window counts stay exact."""
        a, b = (EventStream(times=np.array(t), rate_scale=1.0) for t in (a_times, b_times))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # The window scan builds the pair's gaps, which the delay scan reads.
            assert windowed_coincidence_counts(a, b, [1.0, 1e308, 1.7e308]) == [0, 0, 0]
            for build in (lambda: delay_statistics(a, b),
                          lambda: DelayStatistics.from_delays(nearest_delays(a, b))):
                with pytest.raises(InvalidInputError, match="histogram_range"):
                    build()
            s = delay_statistics(a, b, bins=2, histogram_range=(-1.0, 1.0))
        assert s.counts.tolist() == [0, 0]
        assert s.median_abs_delay == abs(nearest_delays(a, b)[0])

    def test_nan_delay_rejected(self):
        """np.median of a NaN is NaN; the median read from sorted gaps would
        skip it, so a NaN delay is turned away with or without a range."""
        for histogram_range in (None, (-1.0, 1.0)):
            with pytest.raises(InvalidInputError, match="NaN"):
                DelayStatistics.from_delays(np.array([0.5, math.nan, -0.1]), 4, histogram_range)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 4096])
    def test_median_is_numpys(self, n):
        """The median read from the sorted gaps is np.median's, bit for bit
        (for even n, the mean of the middle two)."""
        rng = make_rng(n)
        delays = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        delays[: n // 3] = delays[-1]  # ties
        median = DelayStatistics.from_delays(delays).median_abs_delay
        assert median == float(np.median(np.abs(delays)))

    @pytest.mark.parametrize("delays", [np.array([]), np.array([-0.5, 0.2, 1.0])])
    def test_non_integer_bins_rejected(self, delays):
        with pytest.raises(InvalidInputError, match="bins"):
            DelayStatistics.from_delays(delays, bins=2.5)
