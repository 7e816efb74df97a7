"""Closed-form detection probabilities and CH curves for the chaotic source.

With unit-mean exponential mode intensities and the threshold law
``p(I) = 1 - exp(-k*I)``, the no-detection probabilities integrate to
rational functions of k:

    Q_single(k, th)     = 1 / (1 + k + k^2 cos^2 th sin^2 th)
    Q_joint(k, th, ph)  = 1 / (1 + 2k + k^2 (cos^2 th + cos^2 ph)
                                           (sin^2 th + sin^2 ph))

Single-window tables follow directly (P = 1 - Q, P_XY = P_X + P_Y - 1 +
Q_XY).  For the split-window scheme three laws are provided:

* ``multiwindow-exact``: coincidence by independent pairing channels with
  the exact cross-channel ingredient,
  ``P_XY = 1 - [(Q_X + Q_Y - Q_XY)(Q_X + Q_Y - Q_X Q_Y)]^2``.
* ``multiwindow-paper``: the published fourth-power variant
  ``P_XY = 1 - [Q_X + Q_Y - Q_XY]^4``, which substitutes the same-half
  quantity ``Q_X + Q_Y - Q_XY`` for the cross-channel factor as well.
* the ``"multiwindow-two-term"`` mode of :func:`ch_curve_value`,
  ``2 [Q_A + Q_B' - Q_AB']^4 - 2 Q_A^2``: the published end formula, which
  additionally drops the AB and A'B' coincidence terms as if they cancelled
  (they do not; the difference is part of the reported spread).

:func:`union_coincidence_table` gives the law of the plain Boolean
coincidence ("both sides fired somewhere"), ``1 - Q_X^2 - Q_Y^2 + Q_XY^2``;
its CH combination is non-negative for every k, which localizes the
split-window violation entirely in the pairing-channel bookkeeping.

Each counting law is one entry of the registry ``_LAWS``: a table mode
mapped to its marginal ``single(Q_X)`` and joint ``pair(Q_X, Q_Y, Q_XY)``.
:func:`table_for_mode` is the one table builder and takes every table law,
``multiwindow-union`` included; :func:`standard_table`,
:func:`multiwindow_table` and :func:`union_coincidence_table` call it.  The
``analytic`` CLI's ``--modes`` stays :data:`SWEEP_MODES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _EXPORTS
from .errors import NumericalInconsistencyError, _instance, _interval, _member, _positive
from .inequalities import DEFAULT_QUAD, AngleQuad, CHBreakdown, ProbabilityTable, ch_value

__all__ = list(_EXPORTS["analytic"])

#: Modes the sweep table/CSV knows how to tabulate (Ps, Pc, CH columns).
SWEEP_MODES = ("standard", "multiwindow-exact", "multiwindow-paper")

#: Modes for scalar CH(k) curves (adds the published two-term end formula
#: and the Boolean-union law).
CH_CURVE_MODES = SWEEP_MODES + ("multiwindow-two-term", "multiwindow-union")


# Above this k, k*k can overflow to inf (from ~1.3e154 on) and inf * 0 gives
# NaN at an on-axis angle, so the denominators are evaluated in the factored
# form 1 + k*(c + k*x).  Below it the expanded form is kept, because its
# rounding is what the sweep CSVs hold.
_FACTORED_K = 1e150


def _q_forms(k: float, operands: tuple[tuple[float, float, float], ...], factored: bool) -> list:
    """Q = 1 / (1 + m k + k^2 c s) for each (m, c, s) of ``operands``, at a
    checked k (a float, or an array) in the form for ``k > _FACTORED_K``.

    Q_single takes m = 1 and (c, s) one angle's (cos^2, sin^2); Q_joint
    takes m = 2 and the sums of two angles' squares.
    """
    # Plain loops, not comprehensions: before Python 3.12 a comprehension is
    # a function call of its own, a sizeable share of eight values' work.
    q = []
    if factored:
        for m, c, s in operands:
            q.append(1.0 / (1.0 + k * (m + k * c * s)))
    else:
        kk = k * k
        # m * k is k itself at m = 1, so this is 1 + k + k*k*c*s to the bit.
        for m, c, s in operands:
            q.append(1.0 / ((1.0 + m * k) + kk * c * s))
    return q


def _q_values(k: float, quad: AngleQuad) -> list[float]:
    """The eight Q closed forms at one (k, quad), in :class:`QSet` field order.

    ``quad`` and k are checked once, and the (m, c, s) operands are those
    the quad keeps, so a table costs no trig and builds no operand.
    """
    k = _positive("k", k)
    return _q_forms(k, _instance("quad", quad, AngleQuad)._operands, k > _FACTORED_K)


@dataclass(frozen=True)
class QSet:
    """All eight no-detection probabilities for one (k, quad) pair."""

    q_a: float
    q_b: float
    q_a_prime: float
    q_b_prime: float
    q_ab: float
    q_ab_prime: float
    q_a_prime_b: float
    q_a_prime_b_prime: float


def qset(k: float, quad: AngleQuad = DEFAULT_QUAD) -> QSet:
    """Evaluate the Q closed forms at every setting and setting pair."""
    return QSet(*_q_values(k, quad))


def _split_single(qx: float) -> float:
    # Detection in either of two independent halves.
    return 1.0 - qx * qx


def _exact_pair(qx: float, qy: float, qxy: float) -> float:
    same_half = qx + qy - qxy          # 1 - P_XY of one half
    cross_half = qx + qy - qx * qy     # 1 - P_X * P_Y
    return 1.0 - (same_half * cross_half) ** 2


#: The counting laws: table mode -> (single(q_x), pair(q_x, q_y, q_xy)),
#: the marginal and the joint detection probability from the Q closed forms.
_LAWS = {
    # One shared window: P_X + P_Y - 1 + Q_XY.
    "standard": (
        lambda qx: 1.0 - qx,
        lambda qx, qy, qxy: (1.0 - qx) + (1.0 - qy) - 1.0 + qxy,
    ),
    "multiwindow-exact": (_split_single, _exact_pair),
    "multiwindow-paper": (_split_single, lambda qx, qy, qxy: 1.0 - (qx + qy - qxy) ** 4),
    # P(any_X and any_Y) over two independent halves.
    "multiwindow-union": (
        _split_single,
        lambda qx, qy, qxy: 1.0 - qx * qx - qy * qy + qxy * qxy,
    ),
}
_TABLE_MODES = tuple(_LAWS)


def table_for_mode(
    k: float, quad: AngleQuad = DEFAULT_QUAD, mode: str = "multiwindow-exact"
) -> ProbabilityTable:
    """Probability table under one counting law.

    ``mode`` is a sweep mode or ``"multiwindow-union"``.  The Q values are
    those of :func:`qset` to the bit, from one check of ``quad`` and of k
    and no :class:`QSet`.  A joint that cancels to a negative value (-2e-16
    to -9e-16 at k below ~1e-8) is rounding of a positive probability and
    is returned as 0.0.
    """
    single, pair = _LAWS[_member("mode", mode, _TABLE_MODES)]
    q_a, q_b, q_ap, q_bp, q_ab, q_abp, q_apb, q_apbp = _q_values(k, quad)
    p_ab, p_abp = pair(q_a, q_b, q_ab), pair(q_a, q_bp, q_abp)
    p_apb, p_apbp = pair(q_ap, q_b, q_apb), pair(q_ap, q_bp, q_apbp)
    return ProbabilityTable._new(
        single(q_a), single(q_b), 0.0 if p_ab < 0.0 else p_ab, 0.0 if p_abp < 0.0 else p_abp,
        0.0 if p_apb < 0.0 else p_apb, 0.0 if p_apbp < 0.0 else p_apbp, single(q_ap), single(q_bp))


def standard_table(k: float, quad: AngleQuad = DEFAULT_QUAD) -> ProbabilityTable:
    """Single-window probability table (marginals included)."""
    return table_for_mode(k, quad, "standard")


def multiwindow_table(k: float, quad: AngleQuad = DEFAULT_QUAD) -> ProbabilityTable:
    """Split-window table under the exact pairing-channel law.

    The published fourth-power law is ``table_for_mode(k, quad,
    "multiwindow-paper")`` (see module docstring).
    """
    return table_for_mode(k, quad, "multiwindow-exact")


def union_coincidence_table(k: float, quad: AngleQuad = DEFAULT_QUAD) -> ProbabilityTable:
    """Split-window table for the plain Boolean coincidence."""
    return table_for_mode(k, quad, "multiwindow-union")


def ch_curve_value(k: float, quad: AngleQuad = DEFAULT_QUAD, mode: str = "multiwindow-exact") -> float:
    """Scalar CH(k) for any curve mode, including the two-term and union laws."""
    _member("mode", mode, CH_CURVE_MODES)
    plus, minus = _ch_parts(k, quad, mode)
    return plus - minus


def _two_term(q_a, q_b, q_ap, q_bp, q_ab, q_abp, *_):
    """The two-term end formula as (positive part, subtracted part)."""
    return 2.0 * (q_a + q_bp - q_abp) ** 4, 2.0 * q_a**2


def _ch_parts(k: float, quad: AngleQuad, mode: str) -> tuple[float, float]:
    """CH(k) of a curve mode as (positive part, subtracted part); the mode is
    checked by the caller, :func:`ch_curve_value`."""
    if mode == "multiwindow-two-term":
        return _two_term(*_q_values(k, quad))
    b = ch_value(table_for_mode(k, quad, mode))
    return b.p_s, b.p_c


class _LibmPow(np.ndarray):
    """A float array whose ``**`` is libm ``pow`` per element, as on a float."""
    _pow = np.frompyfunc(pow, 2, 1)

    def __pow__(self, exponent):
        return self._pow(self, exponent).astype(float)


def _ch_parts_at(ks: np.ndarray, quad: AngleQuad, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_ch_parts` at each k of a float array ``ks`` > 0, bit for bit:
    the same formulas, broadcast, with ``np.where`` for the branch and the
    clamp, and libm's ``**`` (``np.power``'s bits depend on the SIMD level)."""
    operands = _instance("quad", quad, AngleQuad)._operands
    with np.errstate(over="ignore", invalid="ignore"):  # in the form not taken
        q = np.where(ks > _FACTORED_K, _q_forms(ks, operands, True), _q_forms(ks, operands, False))
    if mode == "multiwindow-two-term":
        return _two_term(*q.view(_LibmPow))
    q_a, q_b, q_ap, q_bp, q_ab, q_abp, q_apb, q_apbp = q.view(_LibmPow)
    single, pair = _LAWS[mode]
    joints = np.array([pair(q_a, q_b, q_ab), pair(q_a, q_bp, q_abp),
                       pair(q_ap, q_b, q_apb), pair(q_ap, q_bp, q_apbp)])
    b = CHBreakdown._of(ProbabilityTable._new(
        single(q_a), single(q_b), *np.where(joints < 0.0, 0.0, joints), single(q_ap), single(q_bp)))
    return b.p_s, b.p_c


# Log-spaced points of the crossing scan over the bracket.
_SCAN_POINTS = 241


def ch_zero_crossing(
    quad: AngleQuad = DEFAULT_QUAD,
    mode: str = "multiwindow-exact",
    bracket: tuple[float, float] = (0.01, 100.0),
) -> float | None:
    """Locate the k where CH(k) changes sign, or None if it never does.

    A log-spaced scan of 241 values over ``bracket`` (one array call, with
    the bits of :func:`ch_curve_value` at every value) finds the first sign
    change between scanned values that stand above rounding, i.e. |CH| >
    16 eps max(|Ps| + |Pc|, 1) for CH = Ps - Pc (each table entry is 1
    minus a value near 1, so it carries ~eps of absolute rounding however
    small it is); bisection (robust, no derivatives) then refines it to
    relative tolerance 1e-12.  Where the scan has values within rounding of
    0 between the two signs, bisection runs across them and returns a point
    where the computed CH changes sign inside that band.  A curve that
    cancels to rounding noise without changing sign (the standard CH ~
    0.085/k^2 past k ~ 1e7, every mode near k = 1e100 or below k ~ 1e-15)
    has no crossing.  Modes whose CH keeps one sign on the bracket (the
    single-window curve, the union law, or a quad that never violates)
    yield None rather than an exception.
    """
    _member("mode", mode, CH_CURVE_MODES)
    ks = np.geomspace(*_interval("bracket", bracket, positive=True), _SCAN_POINTS)
    plus, minus = _ch_parts_at(ks, quad, mode)
    values = plus - minus
    noise = 16.0 * np.finfo(float).eps * np.maximum(np.abs(plus) + np.abs(minus), 1.0)
    clear = np.flatnonzero(np.abs(values) > noise)
    signs = np.sign(values[clear])
    change = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    if change.size == 0:
        return None
    i, j = int(clear[change[0]]), int(clear[change[0] + 1])
    return _bisect(lambda k: ch_curve_value(k, quad, mode), float(ks[i]), float(ks[j]),
                   xtol=1e-15, rtol=1e-12)


# Iteration budget of the bisection (scipy's default maxiter).
_BISECT_ITER = 100


def _bisect(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of ``f`` in [a, b], where ``f(a)`` and ``f(b)`` differ in sign.

    Step for step the C loop of ``bisect`` in scipy/optimize/Zeros/bisect.c
    (scipy 1.17.1, BSD-3-Clause), as reached through
    ``scipy.optimize.bisect``, so it returns the same float.  As there, signs
    are compared, not multiplied, so values near 1e-200 cannot underflow the
    test.  Like scipy, it raises on a NaN value of ``f``, on a bracket
    without a sign change and when 100 halvings do not meet the tolerance;
    here every failure is a :class:`NumericalInconsistencyError`, since the
    crossing scan hands it finite values of opposite sign only.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericalInconsistencyError(f"the function value at x={x!r} is NaN")
        return fx

    fa = value(a)
    fb = value(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    positive = fa > 0.0
    if (fb > 0.0) == positive:
        raise NumericalInconsistencyError("f(a) and f(b) must have different signs")
    dm = b - a
    for _ in range(_BISECT_ITER):
        dm *= 0.5
        xm = a + dm
        fm = value(xm)
        if (fm > 0.0) == positive:
            a = xm
        if fm == 0.0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise NumericalInconsistencyError(f"bisection failed to converge after {_BISECT_ITER} iterations")


@dataclass(frozen=True)
class SmallKReport:
    """Measured behavior of a CH curve at the dark end k -> 0+."""

    mode: str
    slope: float
    ch_at_zero: float


def small_k_expansion(
    mode: str = "multiwindow-exact", quad: AngleQuad = DEFAULT_QUAD
) -> SmallKReport:
    """Estimate d(CH)/dk at k -> 0+ by Richardson extrapolation.

    ``CH -> 0`` at the dark end in every mode (all detection probabilities
    vanish), so the slope is the limit of CH(h)/h over h = 1e-2, 1e-2/2,
    ... 1e-2/2^7, extrapolated with the standard Neville tableau;
    ``ch_at_zero`` is the same extrapolation applied to CH(h) itself (k = 0
    is outside the closed forms' domain and never evaluated directly); the
    eight CH(h) are one array call, with the bits of :func:`ch_curve_value`.
    The slope is measured, not assumed: all split-window laws give 4 at the
    default quad, the single-window curve gives 2.
    """
    _member("mode", mode, CH_CURVE_MODES)
    hs = [1e-2 / 2.0**i for i in range(8)]
    plus, minus = _ch_parts_at(np.array(hs), quad, mode)
    values = (plus - minus).tolist()

    def neville(seq: list[float]) -> float:
        t = list(seq)
        # Step-halving tableau: error terms are O(h), O(h^2), ...
        for j in range(1, len(seq)):
            factor = 2.0**j
            t = [
                (factor * t[i + 1] - t[i]) / (factor - 1.0)
                for i in range(len(t) - 1)
            ]
        return t[0]

    slope = neville([v / h for v, h in zip(values, hs)])
    ch_at_zero = neville(values)
    return SmallKReport(mode=mode, slope=slope, ch_at_zero=ch_at_zero)
