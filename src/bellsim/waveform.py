"""Time-resolved intensity waveforms and detection-event streams.

This module illustrates why coincidence *timing* matters for strongly
fluctuating light.  A :class:`Waveform` is a superposition of harmonics of a
base frequency whose intensity is the squared envelope

    I(t) = |A|^2 * (sum_j c_j * cos(h_j * omega * t))^2.

Detection events are drawn as an inhomogeneous Poisson process with rate
proportional to I(t) (exact thinning against the true intensity maximum).
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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "DelayStatistics",
    "EventStream",
    "HarmonicExpansion",
    "IntensityStats",
    "QUOTED_MEAN_NOTE",
    "THREE_WAVE_COEFFS",
    "Waveform",
    "delay_statistics",
    "harmonic_expansion",
    "intensity_at",
    "intensity_stats",
    "sample_events",
    "sample_homogeneous_events",
    "three_wave",
    "windowed_coincidence_counts",
    "windowed_coincidences",
]

#: Coefficients of the three-component demonstration waveform.
THREE_WAVE_COEFFS = (1.0, -2.0, 1.0)

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
        comps = tuple((float(c), int(h)) for c, h in self.components)
        if not comps:
            raise InvalidInputError("waveform needs at least one component")
        for c, h in comps:
            if not math.isfinite(c):
                raise InvalidInputError(f"component coefficient must be finite, got {c!r}")
            if h < 1:
                raise InvalidInputError(f"harmonic must be a positive integer, got {h}")
        object.__setattr__(self, "components", comps)
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise InvalidInputError(f"omega must be positive and finite, got {self.omega!r}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise InvalidInputError(
                f"amplitude must be nonnegative and finite, got {self.amplitude!r}"
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
        comps = tuple((float(c), j + 1) for j, c in enumerate(coefficients))
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
    """Instantaneous intensity |A|^2 * envelope(t)^2 (scalar or array)."""
    env = _envelope(w, t)
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
        if not (math.isfinite(detection_time) and detection_time > 0):
            raise InvalidInputError(
                f"detection_time must be positive and finite, got {detection_time!r}"
            )
        terms = []
        for m, a in self.terms:
            x = 0.5 * m * self.omega * detection_time
            terms.append((m, a * math.sin(x) / x))
        return HarmonicExpansion(omega=self.omega, a0=self.a0, terms=tuple(terms))


def harmonic_expansion(w: Waveform) -> HarmonicExpansion:
    """Expand the squared envelope into its exact cosine series."""
    amp2 = w.amplitude**2
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


def _refine_max(
    func: Callable[[float], float], t_lo: float, t_hi: float, t_best: float
) -> tuple[float, float]:
    t, neg_value = _minimize_bounded(
        lambda t: -func(t), t_lo, t_hi, xatol=(t_hi - t_lo) * 1e-12 + 1e-300
    )
    return max((func(t_best), t_best), (-neg_value, t))


# Function evaluations allowed to the bounded search (scipy's maxiter).
_BOUNDED_MAXFUN = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _step_sign(x: float) -> float:
    # scipy's np.sign(x) + (x == 0): +1 at 0 (either signed zero), as numpy's
    # sign is 0 there.  x is never NaN here.
    return -1.0 if x < 0.0 else 1.0


def _minimize_bounded(
    func: Callable[[float], float], x1: float, x2: float, xatol: float
) -> tuple[float, float]:
    """(x, func(x)) at a local minimum of ``func`` on the finite [x1, x2].

    Brent's golden-section/parabolic search as written in
    ``_minimize_scalar_bounded`` of scipy/optimize/_optimize.py (scipy
    1.17.1, BSD-3-Clause), so the floats are those of
    ``minimize_scalar(func, bounds=(x1, x2), method="bounded",
    options={"xatol": xatol})``.  Its trial points are always finite and
    inside the bounds, so ``x`` is too, whatever ``func`` returns.
    """
    a, b, xatol = float(x1), float(x2), float(xatol)
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _step_sign(xm - xf)
            else:
                golden = True

        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        x = xf + _step_sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _BOUNDED_MAXFUN:
            break

    return xf, fx


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


def _profile_max(
    func: Callable, period: float, n_grid: int
) -> tuple[float, tuple[float, ...], np.ndarray]:
    """Global maximum of a periodic profile, all argmax times in [0, period)
    and the profile on the uniform ``n_grid``-point grid it scanned.

    Grid scan followed by bounded local refinement of every grid point whose
    value is within a small relative band of the grid maximum; refined peaks
    matching the global maximum to 1e-9 relative are all reported.
    """
    ts = np.linspace(0.0, period, n_grid, endpoint=False)
    vals = np.asarray(func(ts), dtype=float)
    v_grid = float(vals.max())
    if v_grid <= 0.0:
        # Nonnegative profile that never exceeds 0: flat zero.
        return 0.0, (0.0,), vals
    step = period / n_grid
    near = np.flatnonzero(vals >= v_grid * (1.0 - 1e-4))
    # Cluster contiguous near-max indices (with wraparound) and refine each.
    clusters: list[list[int]] = []
    for idx in near:
        if clusters and idx == clusters[-1][-1] + 1:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    if len(clusters) > 1 and clusters[0][0] == 0 and clusters[-1][-1] == n_grid - 1:
        clusters[0] = clusters.pop() + clusters[0]

    peaks: list[tuple[float, float]] = []
    for cluster in clusters:
        t_best = ts[cluster[len(cluster) // 2]]
        v, t = _refine_max(lambda x: float(func(x)), t_best - step, t_best + step, t_best)
        peaks.append((v, t % period))
    v_max = max(v for v, _ in peaks)
    argmax = sorted(t for v, t in peaks if v >= v_max * (1.0 - 1e-9))
    # Deduplicate refined times that collapsed onto the same peak.
    unique: list[float] = []
    for t in argmax:
        if not unique or t - unique[-1] > 4.0 * step:
            unique.append(float(t))
    return float(v_max), tuple(unique), vals


def intensity_stats(
    w: Waveform,
    samples_per_period: int = 4096,
    detection_time: float | None = None,
) -> IntensityStats:
    """Mean, maximum, and argmax times of the intensity over one period.

    The mean is the numerical average over a uniform grid (exact to machine
    precision for a finite cosine series once the grid is finer than the
    highest harmonic); the maximum is grid-scanned and then locally refined.
    ``detection_time`` applies the moving-average pre-filter first.  At
    least 1000 samples per period are required.
    """
    if samples_per_period < 1000:
        raise InvalidInputError(
            f"samples_per_period must be >= 1000, got {samples_per_period}"
        )
    _, profile = _exact_profile(w, detection_time)
    maximum, argmax_times, grid = _profile_max(profile, w.period, samples_per_period)
    mean = float(np.mean(grid))
    is_three_wave = tuple(c for c, _ in w.components) == THREE_WAVE_COEFFS and tuple(
        h for _, h in w.components
    ) == (1, 2, 3)
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
    """

    times: np.ndarray
    rate_scale: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1:
            raise InvalidInputError("times must be one-dimensional")
        if times.size and not np.all(np.isfinite(times)):
            raise InvalidInputError("event times must be finite")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise InvalidInputError("event times must be strictly increasing")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        if not (math.isfinite(self.rate_scale) and self.rate_scale >= 0):
            raise InvalidInputError(
                f"rate_scale must be nonnegative and finite, got {self.rate_scale!r}"
            )

    @property
    def n(self) -> int:
        return int(self.times.size)


def _as_stream(times: np.ndarray, rate_scale: float) -> EventStream:
    # np.unique sorts and drops exact duplicates, enforcing the
    # strictly-increasing invariant (duplicates from a 53-bit uniform draw
    # are possible at large counts, and carry no information).
    return EventStream(times=np.unique(times), rate_scale=rate_scale)


#: Largest Poisson mean that ``Generator.poisson`` accepts (numpy's own limit).
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10

#: Candidates per random draw, and per sub-block of the thinning screen.
_DRAW_BLOCK = 1 << 22
_SCREEN_BLOCK = 1 << 16
#: Nodes per period of the thinning screen's interpolation table (a power of 2).
_SCREEN_NODES = 1 << 12


def _poisson_count(rng: np.random.Generator, mean: float) -> int:
    if not mean <= _POISSON_LAM_MAX:
        raise InvalidInputError(
            f"expected event count {mean!r} exceeds the Poisson sampler's limit "
            f"{_POISSON_LAM_MAX:.6g}; reduce the span or the rate"
        )
    return int(rng.poisson(mean))


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
    - v_j``; time t reads base[j] + f * slope[j] at x = t * (G / period), f =
    x - floor(x), j = floor(x) mod G.  The margin is twice a bound on
    |reading - rate_scale * exact profile| over [0, span), the sum of:

    * interpolation: linear interpolation between nodes h apart is off by at
      most h^2/8 times the largest |second derivative| of the series, which
      is at most omega^2 sum_m m^2 |a_m|;
    * phase: rounding the period and x moves the read point by a few
      eps * span (bounded with 8 eps * span), and the series moves by at most
      omega sum_m m |a_m| per unit time;
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
    curvature = (h * w.omega) ** 2 / 8.0 * math.fsum(m * m * abs(a) for m, a in series.terms)
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

    Thinning runs against the refined true intensity maximum (inflated by a
    1e-9 relative safety margin so the bound is never an underestimate),
    which keeps the accepted-event distribution exact rather than
    approximate.  ``detection_time`` applies the moving-average pre-filter
    to the intensity before rates are evaluated.

    Draw order, which makes a stream a pure function of the generator state:
    one ``poisson`` count, then per block of 2^22 candidates their times
    ``uniform(0, span, m)`` followed by their m acceptance uniforms
    ``random`` (drawn in sub-blocks, which is the same stream as one
    ``random(m)`` call).

    A candidate (t, u) is kept when u * bound < rate_scale * I(t), with I
    the exact profile (:func:`intensity_at`, or the box-filtered series).
    To decide that cheaply, the rate is first read, with no cosine per
    candidate, by linear interpolation in a table of the intensity's cosine
    series at 4096 nodes per period.  Its gap to the exact rate has a
    rigorous bound (curvature, phase and float rounding terms; see
    :func:`_screen_table`), and every candidate within twice that bound of
    its threshold, a few dozen per stream, is decided again with the exact
    profile.  So the accepted times are those of exact thinning, bit for
    bit.  Raises :class:`InvalidInputError` when the expected candidate
    count is beyond what ``rng.poisson`` accepts.
    """
    if not (math.isfinite(span) and span > 0):
        raise InvalidInputError(f"span must be positive and finite, got {span!r}")
    if not (math.isfinite(rate_scale) and rate_scale > 0):
        raise InvalidInputError(
            f"rate_scale must be positive and finite, got {rate_scale!r}"
        )
    series, profile = _exact_profile(w, detection_time)
    i_max, _, _ = _profile_max(profile, w.period, 4096)
    if i_max <= 0.0:
        return EventStream(times=np.empty(0), rate_scale=rate_scale)
    bound = rate_scale * i_max * (1.0 + 1e-9)
    n_candidates = _poisson_count(rng, bound * span)

    table = _screen_table(w, series, span, rate_scale, bound)
    nodes_per_time = _SCREEN_NODES / w.period
    accepted: list[np.ndarray] = []
    keep = np.empty(min(_DRAW_BLOCK, n_candidates), dtype=bool)
    size = min(_SCREEN_BLOCK, n_candidates)
    (u, x, s), j = np.empty((3, size)), np.empty(size, dtype=np.intp)
    for start in range(0, n_candidates, _DRAW_BLOCK):
        m = min(_DRAW_BLOCK, n_candidates - start)
        t = rng.uniform(0.0, span, m)
        for lo in range(0, m, _SCREEN_BLOCK):
            k = min(_SCREEN_BLOCK, m - lo)
            ts, ks = t[lo : lo + k], keep[lo : lo + k]
            p = rng.random(out=u[:k])
            p *= bound
            if table is None:
                close = np.arange(k)
            else:
                base, slope, margin = table
                f, sk, jk = np.multiply(ts, nodes_per_time, out=x[:k]), s[:k], j[:k]
                c = np.floor(f, out=sk)
                f -= c  # exact, since f < 2^52
                np.copyto(jk, c, casting="unsafe")
                jk &= _SCREEN_NODES - 1
                np.take(slope, jk, out=sk)
                sk *= f
                sk += np.take(base, jk, out=f)
                np.less(p, sk, out=ks)
                sk -= p
                close = np.flatnonzero(np.abs(sk, out=sk) <= margin)
            if close.size:
                ks[close] = p[close] < rate_scale * np.asarray(profile(ts[close]), dtype=float)
        accepted.append(t[keep[:m]])
    times = np.concatenate(accepted) if accepted else np.empty(0)
    return _as_stream(times, rate_scale)


def sample_homogeneous_events(
    rate: float, span: float, rng: np.random.Generator
) -> EventStream:
    """Constant-rate Poisson events over [0, span) (unit-intensity stream).

    Raises :class:`InvalidInputError` when rate * span is beyond what
    ``rng.poisson`` accepts.
    """
    if not (math.isfinite(rate) and rate > 0):
        raise InvalidInputError(f"rate must be positive and finite, got {rate!r}")
    if not (math.isfinite(span) and span > 0):
        raise InvalidInputError(f"span must be positive and finite, got {span!r}")
    n = _poisson_count(rng, rate * span)
    return _as_stream(rng.uniform(0.0, span, n), rate)


@dataclass(frozen=True)
class DelayStatistics:
    """Nearest-neighbor delay distribution between two event streams.

    ``delays`` holds, for each first-stream event, the signed time to the
    nearest second-stream event (positive when that event is later).
    ``median_abs_delay`` is None when either stream is empty.
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
        """Histogram and median of precomputed delays.

        Without ``histogram_range`` the bins span +-max|delay| (+-1 when that
        is 0 or there are no delays).  A given range must be finite with
        lo < hi.
        """
        if bins < 1:
            raise InvalidInputError(f"bins must be >= 1, got {bins}")
        if histogram_range is not None:
            lo, hi = histogram_range
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise InvalidInputError(
                    f"histogram_range must be finite with lo < hi, got {histogram_range!r}"
                )
        if delays.size == 0:
            lo, hi = (-1.0, 1.0) if histogram_range is None else histogram_range
            return cls(
                delays=delays,
                median_abs_delay=None,
                bin_edges=np.linspace(lo, hi, bins + 1),
                counts=np.zeros(bins, dtype=int),
            )
        if histogram_range is None:
            limit = float(np.max(np.abs(delays))) or 1.0
            histogram_range = (-limit, limit)
        counts, edges = np.histogram(delays, bins=bins, range=histogram_range)
        return cls(
            delays=delays,
            median_abs_delay=float(np.median(np.abs(delays))),
            bin_edges=edges,
            counts=counts,
        )


def _neighbours(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each time in ``a``: the first ``b`` at or after it, and the last
    ``b`` before it, from one search of the sorted ``b``.  A missing
    neighbour reads as +inf after the last B-event and -inf before the first.
    """
    padded = np.concatenate(([-np.inf], b, [np.inf]))
    idx = np.searchsorted(b, a)
    return padded[1:][idx], padded[idx]


def nearest_delays(stream_a: EventStream, stream_b: EventStream) -> np.ndarray:
    """Signed delay from each Alice event to its nearest Bob event.

    The later neighbour wins a tie.
    """
    a, b = stream_a.times, stream_b.times
    if a.size == 0 or b.size == 0:
        return np.empty(0)
    after, before = _neighbours(a, b)
    d_after = after - a
    d_before = before - a
    return np.where(np.abs(d_after) <= np.abs(d_before), d_after, d_before)


def delay_statistics(
    stream_a: EventStream,
    stream_b: EventStream,
    bins: int = 64,
    histogram_range: tuple[float, float] | None = None,
) -> DelayStatistics:
    """Histogram and median of nearest-neighbor delays from A-events to B-events."""
    return DelayStatistics.from_delays(nearest_delays(stream_a, stream_b), bins, histogram_range)


def windowed_coincidences(
    stream_a: EventStream, stream_b: EventStream, window: float
) -> int:
    """Count A-events with at least one B-event within +-window/2 (inclusive).

    Monotone nondecreasing in the window width for fixed streams.
    """
    return windowed_coincidence_counts(stream_a, stream_b, [window])[0]


def windowed_coincidence_counts(
    stream_a: EventStream, stream_b: EventStream, windows: Sequence[float]
) -> list[int]:
    """:func:`windowed_coincidences` at each width of ``windows``, in order,
    from one neighbour search shared by all widths."""
    for window in windows:
        if not (math.isfinite(window) and window > 0):
            raise InvalidInputError(f"window must be positive and finite, got {window!r}")
    a, b = stream_a.times, stream_b.times
    if a.size == 0 or b.size == 0:
        return [0] * len(windows)
    # Since fl(a - half) <= a <= fl(a + half), some B-event lies in the
    # window exactly when the nearest one on either side does.
    after, before = _neighbours(a, b)
    counts = []
    for window in windows:
        half = 0.5 * window
        counts.append(int(np.count_nonzero((after <= a + half) | (before >= a - half))))
    return counts
