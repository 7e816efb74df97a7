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
* the two-term curve :func:`ch_multiwindow_two_term`,
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

from .errors import InvalidInputError, NumericalInconsistencyError
from .inequalities import DEFAULT_QUAD, AngleQuad, CHBreakdown, ProbabilityTable, ch_value

__all__ = [
    "CH_CURVE_MODES",
    "SWEEP_MODES",
    "QSet",
    "SmallKReport",
    "ch_curve_value",
    "ch_multiwindow",
    "ch_multiwindow_two_term",
    "ch_standard",
    "ch_union",
    "ch_zero_crossing",
    "multiwindow_table",
    "q_joint",
    "q_single",
    "qset",
    "small_k_expansion",
    "standard_table",
    "table_for_mode",
    "union_coincidence_table",
]

#: Modes the sweep table/CSV knows how to tabulate (Ps, Pc, CH columns).
SWEEP_MODES = ("standard", "multiwindow-exact", "multiwindow-paper")

#: Modes for scalar CH(k) curves (adds the published two-term end formula
#: and the Boolean-union law).
CH_CURVE_MODES = SWEEP_MODES + ("multiwindow-two-term", "multiwindow-union")


def _check_k(k: float) -> float:
    # Strictly dark (k = 0) and negative responses are rejected; the k -> 0+
    # limit (Q -> 1, CH -> 0) is reached by extrapolation, never evaluated.
    if not (math.isfinite(k) and k > 0.0):
        raise InvalidInputError(f"k must be finite and > 0, got {k!r}")
    return float(k)


# Above this k, k*k can overflow to inf (from ~1.3e154 on) and inf * 0 gives
# NaN at an on-axis angle, so the denominators are evaluated in the factored
# form 1 + k*(c + k*x).  Below it the expanded form is kept, because its
# rounding is what the sweep CSVs hold.
_FACTORED_K = 1e150


def q_single(k: float, theta: float) -> float:
    """No-detection probability of one detector at analyzer angle theta."""
    k = _check_k(k)
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    if k > _FACTORED_K:
        return 1.0 / (1.0 + k * (1.0 + k * c2 * s2))
    return 1.0 / (1.0 + k + k * k * c2 * s2)


def q_joint(k: float, theta: float, phi: float) -> float:
    """Probability that neither side fires in one shared window."""
    k = _check_k(k)
    c2t, s2t = math.cos(theta) ** 2, math.sin(theta) ** 2
    c2p, s2p = math.cos(phi) ** 2, math.sin(phi) ** 2
    if k > _FACTORED_K:
        return 1.0 / (1.0 + k * (2.0 + k * (c2t + c2p) * (s2t + s2p)))
    return 1.0 / (1.0 + 2.0 * k + k * k * (c2t + c2p) * (s2t + s2p))


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
    return QSet(
        q_a=q_single(k, quad.a),
        q_b=q_single(k, quad.b),
        q_a_prime=q_single(k, quad.a_prime),
        q_b_prime=q_single(k, quad.b_prime),
        q_ab=q_joint(k, quad.a, quad.b),
        q_ab_prime=q_joint(k, quad.a, quad.b_prime),
        q_a_prime_b=q_joint(k, quad.a_prime, quad.b),
        q_a_prime_b_prime=q_joint(k, quad.a_prime, quad.b_prime),
    )


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


def table_for_mode(
    k: float, quad: AngleQuad = DEFAULT_QUAD, mode: str = "multiwindow-exact"
) -> ProbabilityTable:
    """Probability table under one counting law.

    ``mode`` is a sweep mode or ``"multiwindow-union"``.  A joint that
    cancels to a negative value (-2e-16 to -9e-16 at k below ~1e-8) is
    rounding of a positive probability and is returned as 0.0.
    """
    law = _LAWS.get(mode) if isinstance(mode, str) else None
    if law is None:
        raise InvalidInputError(f"mode must be one of {tuple(_LAWS)}, got {mode!r}")
    single, pair = law
    q = qset(k, quad)
    joints = [
        0.0 if p < 0.0 else p
        for p in (
            pair(q.q_a, q.q_b, q.q_ab),
            pair(q.q_a, q.q_b_prime, q.q_ab_prime),
            pair(q.q_a_prime, q.q_b, q.q_a_prime_b),
            pair(q.q_a_prime, q.q_b_prime, q.q_a_prime_b_prime),
        )
    ]
    # Field order: p_a, p_b, the four joints, p_a_prime, p_b_prime.
    return ProbabilityTable(
        single(q.q_a), single(q.q_b), *joints, single(q.q_a_prime), single(q.q_b_prime)
    )


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


def ch_standard(k: float, quad: AngleQuad = DEFAULT_QUAD) -> CHBreakdown:
    """Single-window CH; strictly positive for every k > 0 at the default quad."""
    return ch_value(standard_table(k, quad))


def ch_multiwindow(k: float, quad: AngleQuad = DEFAULT_QUAD) -> CHBreakdown:
    """Split-window CH under the exact pairing-channel law."""
    return ch_value(multiwindow_table(k, quad))


def ch_union(k: float, quad: AngleQuad = DEFAULT_QUAD) -> CHBreakdown:
    """CH of the Boolean-union coincidence law (never negative)."""
    return ch_value(union_coincidence_table(k, quad))


def ch_multiwindow_two_term(k: float, quad: AngleQuad = DEFAULT_QUAD) -> float:
    """The published end formula 2*[Q_A + Q_B' - Q_AB']^4 - 2*Q_A^2.

    Keeps only the AB' (and by symmetry A'B) coincidence term, treating the
    AB and A'B' fourth powers as equal and cancelling.  At the default quad
    they are not equal, so this curve differs from the full paper-law table;
    both are exposed on purpose.
    """
    return ch_curve_value(k, quad, "multiwindow-two-term")


def ch_curve_value(k: float, quad: AngleQuad = DEFAULT_QUAD, mode: str = "multiwindow-exact") -> float:
    """Scalar CH(k) for any curve mode, including the two-term and union laws."""
    _check_curve_mode(mode)
    plus, minus = _ch_parts(k, quad, mode)
    return plus - minus


def _check_curve_mode(mode: str) -> None:
    if mode not in CH_CURVE_MODES:
        raise InvalidInputError(f"mode must be one of {CH_CURVE_MODES}, got {mode!r}")


def _ch_parts(k: float, quad: AngleQuad, mode: str) -> tuple[float, float]:
    """CH(k) of a curve mode as (positive part, subtracted part); the mode is
    checked by the callers, since the crossing scan calls this per point."""
    if mode == "multiwindow-two-term":
        q = qset(k, quad)
        return 2.0 * (q.q_a + q.q_b_prime - q.q_ab_prime) ** 4, 2.0 * q.q_a**2
    b = ch_value(table_for_mode(k, quad, mode))
    return b.p_s, b.p_c


# Log-spaced points of the crossing scan over the bracket.
_SCAN_POINTS = 241


def ch_zero_crossing(
    quad: AngleQuad = DEFAULT_QUAD,
    mode: str = "multiwindow-exact",
    bracket: tuple[float, float] = (0.01, 100.0),
) -> float | None:
    """Locate the k where CH(k) changes sign, or None if it never does.

    A log-spaced scan of 241 values over ``bracket`` finds the first sign
    change between scanned values that stand above rounding, i.e. |CH| >
    16 eps (|Ps| + |Pc|) for CH = Ps - Pc; bisection (robust, no
    derivatives) then refines it to relative tolerance 1e-12.  Where the
    scan has values within rounding of 0 between the two signs, bisection
    runs across them and returns a point where the computed CH changes sign
    inside that band.  A curve that cancels to rounding noise without
    changing sign (the standard CH ~ 0.085/k^2 past k ~ 1e7, every mode
    near k = 1e100) has no crossing.  Modes whose CH keeps one sign on the
    bracket (the single-window curve, the union law, or a quad that never
    violates) yield None rather than an exception.
    """
    _check_curve_mode(mode)
    lo, hi = bracket
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise InvalidInputError(f"bracket must satisfy 0 < lo < hi, got {bracket!r}")

    def f(k: float) -> float:
        return ch_curve_value(k, quad, mode)

    ks = np.geomspace(lo, hi, _SCAN_POINTS)
    plus, minus = np.array([_ch_parts(float(k), quad, mode) for k in ks]).T
    values = plus - minus
    noise = 16.0 * np.finfo(float).eps * (np.abs(plus) + np.abs(minus))
    clear = np.flatnonzero(np.abs(values) > noise)
    signs = np.sign(values[clear])
    change = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    if change.size == 0:
        return None
    i, j = int(clear[change[0]]), int(clear[change[0] + 1])
    return _bisect(f, float(ks[i]), float(ks[j]), xtol=1e-15, rtol=1e-12)


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
    is outside the closed forms' domain and never evaluated directly).  The
    slope is measured, not assumed: all split-window laws give 4 at the
    default quad, the single-window curve gives 2.
    """
    hs = [1e-2 / 2.0**i for i in range(8)]
    values = [ch_curve_value(h, quad, mode) for h in hs]

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
