"""Time-resolved intensity waveforms and detection-event streams.

This module illustrates why coincidence *timing* matters for strongly
fluctuating light.  A :class:`Waveform` is a superposition of harmonics of a
base frequency whose intensity is the squared envelope

    I(t) = |A|^2 * (sum_j c_j * cos(h_j * omega * t))^2.

Detection events are drawn as an inhomogeneous Poisson process with rate
proportional to I(t) (exact thinning against a piecewise-constant bound on
4096 bins per period, about one candidate per event).
Two detectors watching the *same* fluctuating intensity produce events that
cluster at the intensity bursts, so their nearest-neighbor delays are much
smaller than those of two independent constant-rate streams with the same
mean rate — which is exactly what makes a coincidence-window criterion
select a biased subsample of trials.

The default demonstration waveform has coefficients (1, -2, 1) on harmonics
(1, 2, 3).  Its exact period-averaged intensity is (1+4+1)/2 = 3|A|^2 and
its peak is 16|A|^2 at odd multiples of pi/omega.  A quoted mean of
6|A|^2/(2*pi) ~= 0.96|A|^2 (and the enhancement (16/0.96)^2 ~= 280 built on
it) circulates for this waveform; the exact time average disagrees, and
every report here carries the computed average, with the discrepancy noted.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _EXPORTS
from .analytic import _bisect
from .errors import (
    _MAX_GRID, InvalidInputError, _count, _instance, _interval, _positive, _real, _real_array,
    _sequence,
)

__all__ = list(_EXPORTS["waveform"])

#: Coefficients of the three-component demonstration waveform.
THREE_WAVE_COEFFS = (1.0, -2.0, 1.0)

#: Version of :func:`sample_events`' stream: its draw order and the
#: thinning bound it draws against.  Seeded streams change between versions
#: only when this number changes.  History:
#: 1, the bound from Brent-refined clusters of near-maximal grid points;
#: 2, the bound from the roots of the intensity's slope (same draw order);
#: 3, a bound per bin of the screen table, with per-bin Poisson counts and
#: one position uniform per candidate (a new draw order).
WAVEFORM_STREAM = 3

QUOTED_MEAN_NOTE = (
    "A quoted mean intensity of 6|A|^2/(2*pi) ~= 0.96|A|^2, and the "
    "enhancement (16/0.96)^2 ~= 280 built on it, circulate for the "
    "(1, -2, 1) waveform; the exact period average is (1^2+2^2+1^2)/2 = "
    "3|A|^2, giving peak/mean = 16/3 and (peak/mean)^2 ~= 28.4. "
    "This report uses the computed average."
)


@dataclass(frozen=True)
class Waveform:
    """Superposition of cosine harmonics; intensity is the squared envelope.

    ``components`` is a sequence of (coefficient, harmonic) pairs with
    positive integer harmonics; ``omega`` is the base angular frequency and
    ``amplitude`` the overall field amplitude |A|.
    """

    components: tuple[tuple[float, int], ...]
    omega: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not self.components:
            raise InvalidInputError("waveform needs at least one component")
        for pair in self.components:
            try:
                c, h = pair
            except (TypeError, ValueError):
                raise InvalidInputError(
                    f"component must be a (coefficient, harmonic) pair, got {pair!r}"
                ) from None
            _real("component coefficient", c)
            if not (_real("harmonic", h).is_integer() and h >= 1):
                raise InvalidInputError(f"harmonic must be a positive integer, got {h!r}")
        comps = tuple((float(c), int(h)) for c, h in self.components)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "omega", _positive("omega", self.omega))
        # A subnormal omega is positive, yet its period overflows to inf.
        _positive("omega's period 2*pi/omega", self.period)
        object.__setattr__(self, "amplitude", _positive("amplitude", self.amplitude, zero=True))
        # |A|^2 (sum_j |c_j|)^2 bounds every intensity value and series
        # coefficient; float products give inf (or nan for 0 * inf) where a
        # factor or the whole overflows, and Python's ** would raise instead.
        total = sum(abs(c) for c, _ in comps)
        if not math.isfinite((self.amplitude * self.amplitude) * (total * total)):
            raise InvalidInputError(
                f"|A|^2 (sum_j |c_j|)^2 must be finite, got amplitude {self.amplitude!r} "
                f"and coefficient sum {total!r}"
            )

    @property
    def period(self) -> float:
        """Fundamental period 2*pi/omega."""
        return 2.0 * math.pi / self.omega

    @classmethod
    def from_coefficients(
        cls, coefficients: Sequence[float], omega: float = 1.0, amplitude: float = 1.0
    ) -> "Waveform":
        """Build a waveform with coefficients on consecutive harmonics 1..n."""
        comps = tuple((c, j + 1) for j, c in enumerate(coefficients))
        return cls(components=comps, omega=omega, amplitude=amplitude)


def three_wave(omega: float = 1.0, amplitude: float = 1.0) -> Waveform:
    """The (1, -2, 1) three-component demonstration waveform."""
    return Waveform.from_coefficients(THREE_WAVE_COEFFS, omega=omega, amplitude=amplitude)


def _envelope(w: Waveform, t: np.ndarray | float) -> np.ndarray | float:
    u = np.multiply(w.omega, t)
    total = 0.0
    for c, h in w.components:
        total = total + c * np.cos(h * u)
    return total


def intensity_at(w: Waveform, t: np.ndarray | float):
    """Instantaneous intensity |A|^2 * envelope(t)^2 at finite real t (scalar or array)."""
    env = _envelope(_instance("w", w, Waveform), _real_array("t", t, finite=True))
    out = (w.amplitude**2) * np.square(env)
    if np.ndim(out) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class HarmonicExpansion:
    """Intensity written as a finite cosine series a0 + sum a_m cos(m omega t).

    Exact: the squared envelope is expanded with the product-to-sum identity,
    so evaluation, period averages, and integrals are closed-form.  ``a0`` is
    the exact period-averaged intensity.
    """

    omega: float
    a0: float
    terms: tuple[tuple[int, float], ...]  # (m, a_m), m >= 1, sorted by m

    def value_at(self, t: np.ndarray | float):
        u = np.multiply(self.omega, t)
        total = np.full_like(np.asarray(u, dtype=float), self.a0)
        for m, a in self.terms:
            total = total + a * np.cos(m * u)
        if np.ndim(t) == 0:
            return float(total)
        return total

    def integral(self, t0: float, t1: float) -> float:
        """Exact integral of the intensity over [t0, t1]."""
        total = self.a0 * (t1 - t0)
        for m, a in self.terms:
            mw = m * self.omega
            total += a / mw * (math.sin(mw * t1) - math.sin(mw * t0))
        return total

    def box_filtered(self, detection_time: float) -> "HarmonicExpansion":
        """Moving-average of the intensity over a window of this width.

        A boxcar average multiplies each cos(m omega t) term by
        sinc(m omega detection_time / 2) and leaves a0 unchanged, so the
        filtered intensity is again an exact cosine series.  Models a
        detector that integrates over a finite detection time; negligible
        when the width is much smaller than the fundamental period.
        """
        detection_time = _positive("detection_time", detection_time)
        terms = []
        for m, a in self.terms:
            x = 0.5 * m * self.omega * detection_time
            # sinc's limits where x underflows to 0 or overflows to inf.
            sinc = 1.0 if x == 0.0 else 0.0 if x == math.inf else math.sin(x) / x
            terms.append((m, a * sinc))
        return HarmonicExpansion(omega=self.omega, a0=self.a0, terms=tuple(terms))


def harmonic_expansion(w: Waveform) -> HarmonicExpansion:
    """Expand the squared envelope into its exact cosine series.  It checks
    ``w`` for :func:`intensity_stats` and :func:`sample_events` too."""
    amp2 = _instance("w", w, Waveform).amplitude**2
    coeffs: dict[int, float] = {}
    a0 = 0.0
    comps = w.components
    for c_j, h_j in comps:
        for c_k, h_k in comps:
            prod = 0.5 * c_j * c_k * amp2
            for m in (abs(h_j - h_k), h_j + h_k):
                if m == 0:
                    a0 += prod
                else:
                    coeffs[m] = coeffs.get(m, 0.0) + prod
    terms = tuple(sorted((m, a) for m, a in coeffs.items() if a != 0.0))
    return HarmonicExpansion(omega=w.omega, a0=a0, terms=terms)


@dataclass(frozen=True)
class IntensityStats:
    """Period statistics of an intensity profile."""

    mean: float
    maximum: float
    argmax_times: tuple[float, ...]
    peak_to_mean: float
    peak_to_mean_squared: float
    samples_per_period: int
    detection_time: float | None
    note: str | None


def _exact_profile(
    w: Waveform, detection_time: float | None
) -> tuple[HarmonicExpansion, Callable]:
    """The intensity's cosine series and its exact profile: the unexpanded
    :func:`intensity_at`, or with ``detection_time`` the box-filtered series."""
    series = harmonic_expansion(w)
    if detection_time is None:
        return series, lambda t: intensity_at(w, t)
    series = series.box_filtered(detection_time)
    return series, series.value_at


def _interpolation_gap(series: HarmonicExpansion, h: float) -> float:
    """Bound on |series - its linear interpolation| between points h apart:
    h^2/8 times omega^2 sum_m m^2 |a_m|, a bound on |second derivative|."""
    return (h * series.omega) ** 2 / 8.0 * math.fsum(m * m * abs(a) for m, a in series.terms)


def _profile_max(
    series: HarmonicExpansion, func: Callable, period: float, n_grid: int
) -> tuple[float, tuple[float, ...], np.ndarray]:
    """Global maximum of a periodic profile, all argmax times in [0, period)
    and the profile on the uniform ``n_grid``-point grid it scanned.

    ``func`` is the exact profile and ``series`` its cosine series.  Only a
    grid step whose larger end is within :func:`_interpolation_gap` of the
    grid maximum can hold the global one.  Where the series' slope -sum_m m
    omega a_m sin(m omega t) falls from >= 0 to <= 0 across such a step,
    bisection finds its root.  The step's peak is the best of its two grid
    points and that root by ``func``, a grid point winning a tie, so the
    maximum is never below the grid maximum.  Peaks within 1e-9 relative of
    it are reported, one per 4 grid steps around the circle.
    """
    ts = np.linspace(0.0, period, n_grid, endpoint=False)
    vals = np.asarray(func(ts), dtype=float)
    v_grid = float(vals.max())
    if v_grid <= 0.0:
        # Nonnegative profile that never exceeds 0: flat zero.
        return 0.0, (0.0,), vals
    step = period / n_grid
    rates = [(m * series.omega, m * series.omega * a) for m, a in series.terms]
    slope = lambda t: -sum(ma * math.sin(mw * t) for mw, ma in rates)  # noqa: E731
    ends = np.maximum(vals, np.roll(vals, -1))
    peaks: list[tuple[float, float]] = []
    for j in np.flatnonzero(ends >= v_grid - _interpolation_gap(series, step)):
        right = (int(j) + 1) % n_grid
        lo, hi = float(ts[j]), float(ts[right]) if right else period
        best = [(float(vals[j]), lo), (float(vals[right]), float(ts[right]))]
        if slope(lo) >= 0.0 >= slope(hi):
            t = _bisect(slope, lo, hi, step * 2.0**-60, 4.0 * np.finfo(float).eps) % period
            best.append((float(func(t)), t))
        peaks.append(max(best, key=lambda peak: peak[0]))
    v_max = max(v for v, _ in peaks)
    unique: list[float] = []
    for t in sorted(t for v, t in peaks if v >= v_max * (1.0 - 1e-9)):
        if not unique or t - unique[-1] > 4.0 * step:
            unique.append(t)
    if len(unique) > 1 and unique[0] + period - unique[-1] <= 4.0 * step:
        unique.pop()
    return v_max, tuple(unique), vals


def intensity_stats(
    w: Waveform,
    samples_per_period: int = 4096,
    detection_time: float | None = None,
) -> IntensityStats:
    """Mean, maximum, and argmax times of the intensity over one period.

    The mean is the numerical average over a uniform grid (exact to machine
    precision for a finite cosine series once the grid is finer than the
    highest harmonic); the maximum and its times come from the grid and the
    slope roots of :func:`_profile_max`.  ``detection_time`` applies the
    moving-average pre-filter first.  From 1000 to 2^32 samples per period
    are taken.
    """
    samples_per_period = _count("samples_per_period", samples_per_period, 1000, _MAX_GRID)
    series, profile = _exact_profile(w, detection_time)
    maximum, argmax_times, grid = _profile_max(series, profile, w.period, samples_per_period)
    mean = float(np.mean(grid))
    is_three_wave = w.components == tuple(zip(THREE_WAVE_COEFFS, (1, 2, 3)))
    peak_to_mean = maximum / mean if mean > 0 else math.inf if maximum > 0 else math.nan
    return IntensityStats(
        mean=mean,
        maximum=maximum,
        argmax_times=argmax_times,
        peak_to_mean=peak_to_mean,
        peak_to_mean_squared=peak_to_mean**2,
        samples_per_period=samples_per_period,
        detection_time=detection_time,
        note=QUOTED_MEAN_NOTE if is_three_wave else None,
    )


@dataclass(frozen=True)
class EventStream:
    """Sorted detection instants over an observation span.

    ``rate_scale`` is the proportionality constant between intensity and
    instantaneous event rate (events per unit time per unit intensity).

    The stream owns a read-only copy of ``times``, so the caller's array
    stays writable and a later write to it does not reach the stream.  It
    also keeps the sorted signed nearest-neighbour delays to the last second
    stream it was scanned against, which the delay statistics and every
    window scan of that pair read: an event coincides at window width w when
    its |nearest delay| <= w/2.
    """

    times: np.ndarray
    rate_scale: float

    #: (weak reference to the B-stream, :func:`_sorted_delays` of the pair),
    #: read once and replaced whole; not a field.
    _last_delays = None

    def __post_init__(self) -> None:
        times = np.array(_real_array("event times", self.times), dtype=float)
        if times.ndim != 1:
            raise InvalidInputError("times must be one-dimensional")
        _check_increasing(times)
        self._own(times, self.rate_scale)

    @classmethod
    def _adopt(cls, times: np.ndarray, rate_scale: float) -> "EventStream":
        """The stream of ``times``, a checked 1-d float array that no caller
        holds, taken over without a copy."""
        stream = cls.__new__(cls)
        stream._own(times, rate_scale)
        return stream

    def _own(self, times: np.ndarray, rate_scale: float) -> None:
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "rate_scale", _positive("rate_scale", rate_scale, zero=True))

    def __reduce__(self):
        # Copies and pickles go through the constructor: they own their
        # times and start with no delays (a weak reference cannot be pickled).
        return type(self), (self.times, self.rate_scale)

    @property
    def n(self) -> int:
        return int(self.times.size)


def _increasing(times: np.ndarray) -> bool:
    """Whether the 1-d float ``times`` are finite and strictly increasing,
    from one comparison pass: a strictly increasing array holds no NaN, and
    can hold +-inf only at its ends."""
    return not times.size or bool(
        np.all(times[1:] > times[:-1])
        and math.isfinite(times[0])
        and math.isfinite(times[-1])
    )


def _check_increasing(times: np.ndarray) -> None:
    """Raise unless the 1-d float ``times`` are finite and strictly
    increasing; where they are not, a second pass names what is wrong."""
    if not _increasing(times):
        if not np.all(np.isfinite(times)):
            raise InvalidInputError("event times must be finite")
        raise InvalidInputError("event times must be strictly increasing")


def _as_stream(times: np.ndarray, rate_scale: float) -> EventStream:
    """The stream of ``times``, a fresh 1-d float array that is sorted in
    place.  Exact duplicates are dropped, so that the stream strictly
    increases (a 53-bit uniform draw can repeat at large counts, and a
    repeat carries no information); they are looked for only when the one
    check pass of :func:`_increasing` fails."""
    times.sort()
    if not _increasing(times):
        fresh = times[1:] != times[:-1]
        times = np.concatenate((times[:1], times[1:][fresh]))
        _check_increasing(times)
    return EventStream._adopt(times, rate_scale)


#: Largest Poisson mean that ``Generator.poisson`` accepts (numpy's own limit).
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10

#: Candidates per random draw, and per sub-block of the thinning screen.
_DRAW_BLOCK = 1 << 22
_SCREEN_BLOCK = 1 << 16
#: Nodes per period of the thinning screen's interpolation table (a power of 2).
_SCREEN_NODES = 1 << 12


def _poisson_counts(rng: np.random.Generator, means: np.ndarray | float) -> np.ndarray | int:
    """``rng.poisson(means)``, once the total mean is known to be within the
    sampler's limit, so that a count too large to draw draws nothing."""
    total = float(np.sum(means))
    if not total <= _POISSON_LAM_MAX:
        raise InvalidInputError(
            f"expected event count {total!r} exceeds the Poisson sampler's limit "
            f"{_POISSON_LAM_MAX:.6g}; reduce the span or the rate"
        )
    return rng.poisson(means)


def _screen_tolerance(w: Waveform, series: HarmonicExpansion, span: float) -> float:
    """Bound on the float rounding of the exact profile and of ``series``.

    Holds over [0, span) for the exact profile (:func:`intensity_at`, or
    ``series.value_at`` after a box filter; its coefficients are the same)
    and for ``series`` at the screen's nodes and read from its table.  With
    S = |A|^2 (sum_j |c_j|)^2, which bounds |a0| + sum_m |a_m| before and
    after the filter, and n the larger of the degree M and the component
    count: rounding m*u (u = fl(omega t)) costs at most eps/2 * M * omega *
    span per unit coefficient; the cosines, the envelope sum and square, the
    product-to-sum coefficients and the interpolation cost O(n^3) eps S
    together.  The factor 2^10 is margin.
    """
    degree = series.terms[-1][0] if series.terms else 0
    scale = w.amplitude**2 * math.fsum(abs(c) for c, _ in w.components) ** 2
    n = max(degree, len(w.components))
    return 1024.0 * np.finfo(float).eps * scale * (degree * w.omega * span + (n + 1) ** 3)


def _screen_table(
    w: Waveform, series: HarmonicExpansion, span: float, rate_scale: float, bound: float
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Interpolation table of rate_scale * ``series`` over one period, and its margin.

    Node values v_j = rate_scale * series(j h), h = period / G, G =
    ``_SCREEN_NODES``, are held as ``base[j] = v_j`` and ``slope[j] = v_{j+1}
    - v_j``; the point x = t * (G / period) nodes past 0, with f = x -
    floor(x) and j = floor(x) mod G, reads base[j] + f * slope[j].  The
    margin is twice a bound on |reading - rate_scale * exact profile at t|
    over [0, span), the sum of:

    * interpolation: :func:`_interpolation_gap` at node spacing h;
    * phase: rounding the period, and rounding between t and x (either way:
      x computed from t, or t from a drawn x), moves the read point by a few
      eps * span (bounded with 8 eps * span), and the series moves by at
      most omega sum_m m |a_m| per unit time;
    * float: :func:`_screen_tolerance`.

    The factor 2 is margin, as the interpolation term is nearly reached at
    the peaks; a wider band only sends more candidates to the exact profile.
    Returns None, so that every candidate is decided exactly, when x can
    reach 2^52 (f loses its fraction), when the tolerance or the margin lies
    outside the limits within which no step overflows or rounds to a
    subnormal, or when the margin is as wide as the bound.
    """
    tol = _screen_tolerance(w, series, span)
    h = w.period / _SCREEN_NODES
    curvature = _interpolation_gap(series, h)
    gradient = w.omega * math.fsum(m * abs(a) for m, a in series.terms)
    margin = 2.0 * rate_scale * (curvature + 8.0 * np.finfo(float).eps * span * gradient + tol)
    in_limits = 1e-300 < tol < 1e290 and 1e-300 < margin < min(bound, 1e290)
    if not (in_limits and span * (_SCREEN_NODES / w.period) < 2.0**52):
        return None
    v = rate_scale * series.value_at(h * np.arange(_SCREEN_NODES + 1))
    return v[:-1], np.diff(v), margin


def sample_events(
    w: Waveform,
    span: float,
    rate_scale: float,
    rng: np.random.Generator,
    detection_time: float | None = None,
) -> EventStream:
    """Inhomogeneous Poisson events with rate rate_scale * I(t) over [0, span).

    Thinning runs against a piecewise-constant bound (Lewis & Shedler 1979):
    one bin per step h = period / 4096 of the screen table of
    :func:`_screen_table`, with bound M_j = max(v_j, v_{j+1}) + margin over
    bin j of every period.  The table reads within half the margin of the
    exact rate, and between its nodes it reads at most max(v_j, v_{j+1}), so
    M_j is never below the rate.  The candidates then number about the
    events (1.002 per event on the three-wave, against 16/3 for one global
    bound).  ``detection_time`` applies the moving-average pre-filter to the
    intensity before rates are evaluated.

    The stream is version :data:`WAVEFORM_STREAM`.  Its draw order, which
    makes it a pure function of the generator state: one ``poisson`` call
    over the 4096 bin means M_j * h * n_j, where n_j = floor(span / period
    - j / 4096) + 1 counts the periods whose bin j starts before the span
    ends; then, with the candidates taken bin by bin, per block of 2^22 of
    them their m position uniforms ``random(m)`` followed by their m
    acceptance uniforms ``random`` (drawn in sub-blocks, which is the same
    stream as one ``random(m)`` call).  Position v in bin j gives z = v *
    n_j, the period index p = floor(z), the in-bin offset f = z - p and the
    time t = ((p * 4096 + j) + f) * h; candidates at t >= span are dropped.

    A candidate (t, u) is kept when u * M_j < rate_scale * I(t), with I the
    exact profile (:func:`intensity_at`, or the box-filtered series).  To
    decide that cheaply, the rate is first read from the table at offset f
    of bin j, with no cosine per candidate.  The reading's gap to the exact
    rate has a rigorous bound (curvature, phase and float rounding terms;
    see :func:`_screen_table`), and every candidate within twice that bound
    of its threshold, a few dozen per stream, is decided again with the
    exact profile.  So the accepted times are those of exact thinning, bit
    for bit.  Where there is no table, one bin spans [0, span) at the
    intensity maximum of :func:`_profile_max` (inflated by 1e-9 relative),
    and every candidate is decided with the exact profile.  Raises
    :class:`InvalidInputError`, before any draw, when the total expected
    candidate count is beyond what ``rng.poisson`` accepts.
    """
    span, rate_scale = _positive("span", span), _positive("rate_scale", rate_scale)
    series, profile = _exact_profile(w, detection_time)
    i_max, _, _ = _profile_max(series, profile, w.period, 4096)
    if i_max <= 0.0:
        return EventStream(times=np.empty(0), rate_scale=rate_scale)
    bound = rate_scale * i_max * (1.0 + 1e-9)
    # One column per bin, with rows: periods n_j, bin index j, bound M_j, and
    # the table's base and slope.  Without a table, one bin spans [0, span)
    # at the global bound, and an infinite margin sends every candidate to
    # the exact profile.
    table = _screen_table(w, series, span, rate_scale, bound)
    if table is None:
        n_bins, width, margin = 1, span, math.inf
        per_bin = np.array([[1.0], [0.0], [bound], [0.0], [0.0]])
    else:
        base, slope, margin = table
        n_bins, width = _SCREEN_NODES, w.period / _SCREEN_NODES
        bins = np.arange(n_bins, dtype=float)
        periods = np.floor(span / w.period - bins / n_bins) + 1.0
        per_bin = np.stack([periods, bins, np.maximum(base, base + slope) + margin, base, slope])
    counts = _poisson_counts(rng, per_bin[2] * width * per_bin[0])
    ends = np.cumsum(counts)
    n_candidates = int(ends[-1])

    accepted: list[np.ndarray] = []
    keep = np.empty(min(_DRAW_BLOCK, n_candidates), dtype=bool)
    size = min(_SCREEN_BLOCK, n_candidates)
    u, instance = np.empty((2, size))
    for start in range(0, n_candidates, _DRAW_BLOCK):
        m = min(_DRAW_BLOCK, n_candidates - start)
        t = rng.random(m)
        for lo in range(0, m, _SCREEN_BLOCK):
            k = min(_SCREEN_BLOCK, m - lo)
            ts, ks, a = t[lo : lo + k], keep[lo : lo + k], instance[:k]
            # Candidates first .. last - 1 lie in bins j0 .. j1, and in_block
            # is each of those bins' share of them.
            first, last = start + lo, start + lo + k
            j0, j1 = np.searchsorted(ends, [first, last - 1], side="right") + [0, 1]
            bin_ends = ends[j0:j1]
            in_block = np.minimum(bin_ends, last) - np.maximum(bin_ends - counts[j0:j1], first)
            n, j, bin_bound, reading, slope = np.repeat(per_bin[:, j0:j1], in_block, axis=1)
            ts *= n
            np.floor(ts, out=a)
            ts -= a  # the in-bin offset f, exact
            slope *= ts
            reading += slope
            p = rng.random(out=u[:k])
            p *= bin_bound
            np.less(p, reading, out=ks)
            reading -= p
            close = np.flatnonzero(np.abs(reading, out=reading) <= margin)
            a *= n_bins
            a += j
            ts += a
            ts *= width
            if close.size:
                ks[close] = p[close] < rate_scale * np.asarray(profile(ts[close]), dtype=float)
            ks &= ts < span
        accepted.append(t[keep[:m]])
    times = accepted[0] if len(accepted) == 1 else np.concatenate(accepted or [np.empty(0)])
    return _as_stream(times, rate_scale)


def sample_homogeneous_events(
    rate: float, span: float, rng: np.random.Generator
) -> EventStream:
    """Constant-rate Poisson events over [0, span) (unit-intensity stream).

    Raises :class:`InvalidInputError` when rate * span is beyond what
    ``rng.poisson`` accepts.
    """
    rate, span = _positive("rate", rate), _positive("span", span)
    n = int(_poisson_counts(rng, rate * span))
    return _as_stream(rng.uniform(0.0, span, n), rate)


@dataclass(frozen=True)
class DelayStatistics:
    """Nearest-neighbor delay distribution between two event streams.

    ``delays`` holds, for each first-stream event, the signed time to the
    nearest second-stream event (positive when that event is later).
    ``median_abs_delay`` is None when either stream is empty.  Every figure
    is read from the delays sorted once: the median |delay| and the default
    range from a few entries, and ``counts`` by one binary search per bin
    edge, which gives ``np.histogram``'s counts for the same edges.
    """

    delays: np.ndarray
    median_abs_delay: float | None
    bin_edges: np.ndarray
    counts: np.ndarray

    @property
    def n(self) -> int:
        return int(self.delays.size)

    @classmethod
    def from_delays(
        cls,
        delays: np.ndarray,
        bins: int = 64,
        histogram_range: tuple[float, float] | None = None,
    ) -> "DelayStatistics":
        """Histogram and median of precomputed delays, in ``bins`` bins
        (at most ``2**32``).

        Without ``histogram_range`` the bins span +-max|delay| (+-1 when that
        is 0 or there are no delays).  The range, given or not, must be
        finite with lo < hi and a finite width, and wide enough for ``bins``
        bins of nonzero float width, so a delay beyond the float range, or
        one beyond half of it, needs a given range.  A NaN delay, and one
        that is not a real number (a bool, a complex number or a string), is
        rejected.
        """
        delays = _real_array("delays", delays)
        ordered = np.sort(delays, axis=None)
        if ordered.size and np.isnan(ordered[-1]):  # the sort puts NaN last
            raise InvalidInputError("delays must not be NaN")
        return cls._from_sorted(delays, ordered, bins, histogram_range)

    @classmethod
    def _from_sorted(
        cls,
        delays: np.ndarray,
        ordered: np.ndarray,
        bins: int,
        histogram_range: tuple[float, float] | None,
    ) -> "DelayStatistics":
        """:meth:`from_delays`, with ``ordered`` the sorted ``delays``.

        ``np.histogram`` puts d in bin i when edge_i <= d < edge_i+1, closes
        the last bin and drops d outside the range, so each edge's count of
        smaller delays (of delays up to it, for the last edge) gives the
        counts bit for bit.  max|delay| is the larger of the two ends' |d|.
        The median is the middle |delay| of :func:`_kth_abs`, or for even n
        ``np.mean`` of the middle two, which is ``np.median(np.abs(delays))``
        bit for bit."""
        bins = _count("bins", bins, maximum=_MAX_GRID)
        if histogram_range is None:
            limit = (max(-float(ordered[0]), float(ordered[-1])) if ordered.size else 0.0) or 1.0
            histogram_range = _interval("default histogram_range +-max|delay|", (-limit, limit))
        else:
            histogram_range = _interval("histogram_range", histogram_range)
        try:
            edges = np.histogram_bin_edges(ordered, bins, histogram_range)
        except ValueError as err:  # numpy's "Too many bins": two edges round together
            raise InvalidInputError(f"histogram_range {histogram_range!r}: {err}") from None
        below = np.searchsorted(ordered, edges)
        below[-1] = np.searchsorted(ordered, edges[-1], side="right")
        n = ordered.size
        median = None
        if n:
            negatives = int(np.searchsorted(ordered, 0.0))
            middle = [_kth_abs(ordered, negatives, k) for k in range((n - 1) // 2, n // 2 + 1)]
            median = float(np.mean(middle))
        return cls(delays=delays, median_abs_delay=median, bin_edges=edges, counts=np.diff(below))


def _kth_abs(ordered: np.ndarray, negatives: int, k: int):
    """The k-th smallest |d| (counting from 0) of the sorted delays
    ``ordered``, whose first ``negatives`` are < 0.

    |d| falls along ordered[:negatives] and rises along the rest, so the
    k + 1 smallest are the last i negative delays and the first k + 1 - i
    others, for the least i whose next negative |d| is no smaller than the
    last other one taken.  A binary search finds that i, and the k-th
    smallest is the larger of the two |d| taken last.
    """
    lo, hi = max(0, k + 1 - (ordered.size - negatives)), min(k + 1, negatives)
    while lo < hi:
        i = (lo + hi) // 2
        if -ordered[negatives - 1 - i] >= ordered[negatives + k - i]:
            hi = i
        else:
            lo = i + 1
    taken = [ordered[negatives + k - lo]] if lo <= k else []
    if lo:
        taken.append(-ordered[negatives - lo])
    return abs(max(taken))


#: A-events per block of the neighbour search in :func:`nearest_delays`.  Each
#: block is searched only in its own slice of B, which keeps the search in
#: cache and its temporaries small.
_SCAN_BLOCK = 1 << 13


def _sorted_delays(
    stream_a: EventStream, stream_b: EventStream, delays: np.ndarray | None = None
) -> np.ndarray:
    """The pair's signed nearest-neighbour delays, sorted: ``delays`` when
    they are given, else those of :func:`nearest_delays`.

    They are kept on ``stream_a`` for the next call with the same
    ``stream_b`` (stream times cannot change): they take 8 bytes an event,
    and the median, the histogram and every window width of the pair are
    binary searches in them.  The memo is one tuple, read once and replaced
    whole, so a thread never pairs one stream's key with another's delays;
    it holds B by weak reference, so it keeps no stream alive, and a dead
    reference matches no stream.
    """
    memo = stream_a._last_delays
    if memo is not None and memo[0]() is stream_b:
        return memo[1]
    if delays is None:
        ordered = nearest_delays(stream_a, stream_b)
        ordered.sort()
    else:
        ordered = np.sort(delays)
    ordered.setflags(write=False)
    object.__setattr__(stream_a, "_last_delays", (weakref.ref(stream_b), ordered))
    return ordered


def nearest_delays(stream_a: EventStream, stream_b: EventStream) -> np.ndarray:
    """Signed delay from each Alice event to its nearest Bob event.

    The later neighbour wins a tie, and a missing neighbour is infinitely
    far.  A delay beyond the float range reads as +-inf; past Bob's last
    event such a delay ties with the missing later neighbour and reads +inf.
    Every call searches anew: Alice's events up to Bob's first take their
    delay from it, those past Bob's last from that one, and those between
    are searched in blocks of ``_SCAN_BLOCK`` events, each only in its own
    slice of Bob's times, whose bounds come from one search of the block
    starts.  The delays are bit for bit those of the neighbours that one
    ``np.searchsorted`` of all of A in B picks.
    """
    a = _instance("stream_a", stream_a, EventStream).times
    b = _instance("stream_b", stream_b, EventStream).times
    if a.size == 0 or b.size == 0:
        return np.empty(0)
    # a[:head] has no earlier B-event, and a[tail:] no later one.
    head, tail = np.searchsorted(a, [b[0], b[-1]], side="right").tolist()
    delays = np.empty(a.size)
    with np.errstate(over="ignore"):
        np.subtract(b[0], a[:head], out=delays[:head])
        before = np.subtract(a[tail:], b[-1], out=delays[tail:])
        np.negative(before, out=before, where=before < math.inf)
        # Each block's neighbours lie from one before its first event's
        # insertion point in B up to the next block's (B's last for the
        # last block), and x - before > 0 is bit-equal to |before - x|.
        starts = range(head, tail, _SCAN_BLOCK)
        bounds = np.searchsorted(b, a[head:tail:_SCAN_BLOCK]).tolist() + [b.size - 1]
        for start, lo, hi in zip(starts, bounds, bounds[1:]):
            stop = min(start + _SCAN_BLOCK, tail)
            x, out = a[start:stop], delays[start:stop]
            neighbours = b[lo - 1 : hi + 1]
            i = np.searchsorted(neighbours[1:], x)
            after = neighbours[1:].take(i)
            after -= x
            np.subtract(x, neighbours.take(i), out=out)
            later = after <= out
            np.negative(out, out=out)
            np.copyto(out, after, where=later)
    return delays


def delay_statistics(
    stream_a: EventStream,
    stream_b: EventStream,
    bins: int = 64,
    histogram_range: tuple[float, float] | None = None,
) -> DelayStatistics:
    """Histogram and median of nearest-neighbor delays from A-events to B-events.

    Both are read from the pair's sorted delays (:func:`_sorted_delays`),
    sorted here unless the pair already has them, and kept for its window
    scans.
    """
    delays = nearest_delays(stream_a, stream_b)
    ordered = _sorted_delays(stream_a, stream_b, delays) if delays.size else delays
    return DelayStatistics._from_sorted(delays, ordered, bins, histogram_range)


def windowed_coincidences(
    stream_a: EventStream, stream_b: EventStream, window: float
) -> int:
    """Count A-events that coincide with a B-event at this window width:
    those whose nearest B-event is within window/2, |nearest delay| <=
    window/2 (inclusive), with the delay of :func:`nearest_delays`.

    Monotone nondecreasing in the window width for fixed streams.
    """
    return windowed_coincidence_counts(stream_a, stream_b, [window])[0]


def windowed_coincidence_counts(
    stream_a: EventStream, stream_b: EventStream, windows: Sequence[float]
) -> list[int]:
    """:func:`windowed_coincidences` at each width of ``windows``, in order.

    An A-event coincides when its nearest delay d has |d| <= window/2, so
    each width counts the pair's sorted delays (:func:`_sorted_delays`) in
    [-window/2, window/2], by a binary search at each end, and all widths
    of a call take one ``np.searchsorted`` per end.  A missing neighbour
    never coincides.
    """
    _instance("stream_a", stream_a, EventStream)
    _instance("stream_b", stream_b, EventStream)
    halves = np.array(
        [0.5 * _positive("window", window) for window in _sequence("windows", windows)]
    )
    if stream_a.n == 0 or stream_b.n == 0:
        return [0] * len(halves)
    ordered = _sorted_delays(stream_a, stream_b)
    within = np.searchsorted(ordered, halves, side="right") - np.searchsorted(ordered, -halves)
    return within.tolist()
