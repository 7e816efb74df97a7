"""The two scipy ports give scipy's floats, bit for bit.

``analytic._bisect`` copies the C loop behind ``scipy.optimize.bisect`` and
``waveform._minimize_bounded`` copies ``minimize_scalar(method="bounded")``.
The zero crossings in the ``analytic`` footers come from the first and the
thinning bound of the event streams from the second, so every pinned output
rests on this equality.  This is the only module that imports scipy's
optimizers.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect, minimize_scalar

from bellsim.analytic import _bisect
from bellsim.errors import NumericalInconsistencyError
from bellsim.waveform import _minimize_bounded, _refine_max, intensity_at, three_wave

EPS = np.finfo(float).eps

coordinate = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
# Tolerances as scipy accepts them: xtol > 0 and rtol >= 4 eps.
xtol = st.sampled_from([5e-324, 1e-300, 1e-15, 1e-12, 1e-8, 1e-4])
rtol = st.sampled_from([4 * EPS, 1e-12, 1e-9, 1e-6])


@st.composite
def scalar_functions(draw):
    """A monotone or a trigonometric function of one float.

    Some are scaled down so far that the product of two values underflows to
    0, where a sign test by multiplication would go wrong.
    """
    kind = draw(st.sampled_from(["linear", "cubic", "tanh", "exp", "sin", "cos_sum"]))
    r = draw(coordinate)
    s = draw(st.floats(min_value=0.05, max_value=20.0))
    sign = draw(st.sampled_from([1.0, -1.0, 1e-200, -1e-300]))
    if kind == "linear":
        return lambda x: sign * s * (x - r)
    if kind == "cubic":
        return lambda x: sign * ((x - r) ** 3 + s * (x - r))
    if kind == "tanh":
        return lambda x: sign * math.tanh(s * (x - r))
    if kind == "exp":
        return lambda x: sign * (math.exp(min(s * (x - r), 700.0)) - 1.0)
    if kind == "sin":
        return lambda x: sign * math.sin(s * x + r)
    c = draw(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3))
    return lambda x: sign * (c[0] + c[1] * math.cos(s * x) + c[2] * math.cos(2.0 * s * x + r))


def outcome(solve):
    """The root ``solve()`` returns, or "raised" when it refuses or fails."""
    try:
        return solve()
    except (ValueError, RuntimeError, ArithmeticError):
        return "raised"


class TestBisect:
    @settings(max_examples=400, deadline=None)
    @given(scalar_functions(), coordinate, coordinate, xtol, rtol)
    def test_matches_scipy(self, f, a, b, xt, rt):
        ours = outcome(lambda: _bisect(f, a, b, xt, rt))
        theirs = outcome(lambda: bisect(f, a, b, xtol=xt, rtol=rt))
        assert ours == theirs
        assert type(ours) is type(theirs)

    @given(coordinate, st.floats(min_value=1e-6, max_value=50.0), st.booleans())
    def test_root_at_an_end_is_returned(self, a, width, at_a):
        b = a + width
        root = a if at_a else b
        f = lambda x: x - root  # noqa: E731
        assert _bisect(f, a, b, 1e-12, 1e-12) == bisect(f, a, b, xtol=1e-12, rtol=1e-12) == root

    @given(scalar_functions(), coordinate, coordinate)
    def test_same_sign_bracket_raises_in_both(self, f, a, b):
        assume(f(a) * f(b) > 0.0)
        with pytest.raises(ValueError, match="different signs"):
            bisect(f, a, b)
        with pytest.raises(NumericalInconsistencyError, match="different signs"):
            _bisect(f, a, b, 2e-12, 4 * EPS)

    @pytest.mark.parametrize("nan_at", [-1.0, 2.0, 0.5])
    def test_nan_value_raises_in_both(self, nan_at):
        # NaN at an end of the bracket [-1, 2], or at its first midpoint.
        f = lambda x: math.nan if x == nan_at else x - 0.25  # noqa: E731
        with pytest.raises(ValueError, match="NaN"):
            bisect(f, -1.0, 2.0)
        with pytest.raises(NumericalInconsistencyError, match="NaN"):
            _bisect(f, -1.0, 2.0, 2e-12, 4 * EPS)

    def test_exhausted_budget_raises_in_both(self):
        # The root is at 0, so only xtol can stop the halving: 5e-324 needs
        # ~1000 halvings of the unit bracket, beyond the budget of 100.
        f = lambda x: x  # noqa: E731
        with pytest.raises(RuntimeError, match="converge"):
            bisect(f, -1.0, 2.0, xtol=5e-324, rtol=4 * EPS)
        with pytest.raises(NumericalInconsistencyError, match="converge"):
            _bisect(f, -1.0, 2.0, 5e-324, 4 * EPS)


@st.composite
def trig_profiles(draw):
    """A random cosine series, squared (as an intensity) or not."""
    n = draw(st.integers(min_value=1, max_value=4))
    coeffs = draw(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=n, max_size=n))
    harmonics = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(min_value=0.0, max_value=6.3), min_size=n, max_size=n))
    squared = draw(st.booleans())

    def profile(t):
        v = sum(c * math.cos(h * t + p) for c, h, p in zip(coeffs, harmonics, phases))
        return v * v if squared else v

    return profile


class TestMinimizeBounded:
    @settings(max_examples=400, deadline=None)
    @given(
        trig_profiles(),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=7.0),
        st.sampled_from([None, 1e-12, 1e-8, 1e-5, 1e-2]),
    )
    def test_matches_scipy(self, profile, lo, width, xatol):
        hi = lo + width
        # None: the tolerance _refine_max passes, a numpy float.
        xatol = (np.float64(hi) - np.float64(lo)) * 1e-12 + 1e-300 if xatol is None else xatol
        res = minimize_scalar(profile, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        x, fun = _minimize_bounded(profile, lo, hi, xatol)
        assert x == res.x
        assert fun == res.fun
        assert lo <= x <= hi

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_keep_x_finite(self, value):
        x, _ = _minimize_bounded(lambda t: value, 0.5, 2.0, 1e-10)
        res = minimize_scalar(lambda t: value, bounds=(0.5, 2.0), method="bounded", options={"xatol": 1e-10})
        assert x == res.x and 0.5 <= x <= 2.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=4095), st.sampled_from([1, 2, 8]))
    def test_refine_max_matches_the_scipy_form(self, index, grid_steps):
        """_refine_max against the form it replaced, on the demonstration
        waveform around any grid point of _profile_max's scan."""
        w = three_wave()
        step = w.period / 4096
        t_best = np.linspace(0.0, w.period, 4096, endpoint=False)[index]
        lo, hi = t_best - grid_steps * step, t_best + grid_steps * step
        func = lambda t: float(intensity_at(w, t))  # noqa: E731
        res = minimize_scalar(
            lambda t: -func(t), bounds=(lo, hi), method="bounded",
            options={"xatol": (hi - lo) * 1e-12 + 1e-300},
        )
        expected = max((func(t_best), t_best), (func(float(res.x)), float(res.x)))
        assert _refine_max(func, lo, hi, t_best) == expected
