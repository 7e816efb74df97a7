"""The one scipy port gives scipy's floats, bit for bit.

``analytic._bisect`` copies the C loop behind ``scipy.optimize.bisect``.
The zero crossings in the ``analytic`` footers come from it, so every pinned
footer rests on this equality.  (The waveform maximum also calls it, on the
slope of the intensity series; that use is tested in ``test_waveform.py``.)
This is the only module that imports scipy's optimizers.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect

from bellsim.analytic import _bisect
from bellsim.errors import NumericalInconsistencyError

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
