"""Clauser-Horne and CHSH functionals on detection-probability tables.

The central object is a :class:`ProbabilityTable`: the four single-detection
marginals and four joint-detection probabilities measured (or predicted) for
two analyzer settings per side, A/A' and B/B'.  The CH combination

    CH = P_A + P_B + P_A'B' - P_AB - P_AB' - P_A'B

is non-negative for every local hidden-variable model in which the hidden
state fixes, for each side separately, the probability of a detection given
that side's setting.  :func:`eval_discrete_lhv` evaluates such a model with a
finite hidden-state set exactly, :func:`batched_ch` screens many such models
in one array call, and :func:`pointwise_ch_inequality_check`
verifies the underlying scalar inequality on all sixteen 0/1 assignments.

The CHSH form is obtained from the same table through the change of variables
a = 2*theta - 1 on each detection indicator, which maps detection
probabilities to correlators e_jk = 4 P_jk - 2 P_j - 2 P_k + 1 and turns
CH >= 0 into CHSH <= 2 via the exact identity CHSH = 2 - 4*CH.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _EXPORTS
from .errors import (
    _MAX_GRID, InvalidInputError, _count, _nonnegative_array, _probability, _real, _real_array,
    _unit_array,
)

__all__ = list(_EXPORTS["inequalities"])

# Joint entries may exceed 1 - 1e-12 etc. only through float noise; keep the
# domain checks exact and reserve tolerances for derived identities.
_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class AngleQuad:
    """Analyzer settings (radians): Alice uses a/a_prime, Bob b/b_prime.

    Each angle must be a real number.  The quad keeps the operands of the
    eight Q closed forms of :mod:`bellsim.analytic`, so a table takes no
    trig and builds no operand.
    """

    a: float
    b: float
    a_prime: float
    b_prime: float

    #: (m, c, s) of each Q = 1 / (1 + m k + k^2 c s) in ``QSet`` field order,
    #: set once by ``__post_init__``; not a field.
    _operands = None

    def __post_init__(self) -> None:
        squares = []
        for name in ("a", "b", "a_prime", "b_prime"):
            angle = _real(f"angle {name!r}", getattr(self, name))
            squares.append((math.cos(angle) ** 2, math.sin(angle) ** 2))
        (ca, sa), (cb, sb), (cap, sap), (cbp, sbp) = squares
        object.__setattr__(self, "_operands", (
            (1.0, ca, sa), (1.0, cb, sb), (1.0, cap, sap), (1.0, cbp, sbp),
            (2.0, ca + cb, sa + sb), (2.0, ca + cbp, sa + sbp),
            (2.0, cap + cb, sap + sb), (2.0, cap + cbp, sap + sbp),
        ))


#: Canonical settings: A = pi/6, B = pi/3, A' = 0, B' = pi/2.
DEFAULT_QUAD = AngleQuad(math.pi / 6, math.pi / 3, 0.0, math.pi / 2)


@dataclass(frozen=True)
class ProbabilityTable:
    """Marginals and joints of the 2x2 experiment.

    ``p_a``/``p_b`` and ``p_a_prime``/``p_b_prime`` are the single-detection
    probabilities at settings A, B, A' and B'; the four joints cover the
    setting pairs AB, AB', A'B and A'B'.  CH itself reads only ``p_a``,
    ``p_b`` and the joints; CHSH correlators need all four marginals.
    """

    p_a: float
    p_b: float
    p_ab: float
    p_ab_prime: float
    p_a_prime_b: float
    p_a_prime_b_prime: float
    p_a_prime: float
    p_b_prime: float

    @classmethod
    def _new(cls, p_a, p_b, p_ab, p_ab_prime, p_a_prime_b, p_a_prime_b_prime, p_a_prime, p_b_prime):
        """The table the constructor builds, its instance dict filled in one step."""
        table = object.__new__(cls)
        table.__dict__.update(p_a=p_a, p_b=p_b, p_ab=p_ab, p_ab_prime=p_ab_prime,
                              p_a_prime_b=p_a_prime_b, p_a_prime_b_prime=p_a_prime_b_prime,
                              p_a_prime=p_a_prime, p_b_prime=p_b_prime)
        return table

    def validate(self) -> None:
        """Raise :class:`InvalidInputError` unless every entry lies in [0, 1]."""
        # vars() is the eight fields in field order, at a small fraction of
        # asdict()'s cost; every closed-form table passes through here.
        for name, value in vars(self).items():
            # A plain float in range needs no more tests.
            if type(value) is float and 0.0 <= value <= 1.0:
                continue
            _probability(name, value)

    def monotonicity_violations(self) -> list[str]:
        """Names of joints exceeding one of their marginals.

        A joint produced by counting a single pair of detection flags can
        never exceed either marginal.  Pairing-based coincidence counting
        over split windows can, so violations are reported, never rejected.
        """
        joints = {
            "p_ab": (self.p_ab, self.p_a, self.p_b),
            "p_ab_prime": (self.p_ab_prime, self.p_a, self.p_b_prime),
            "p_a_prime_b": (self.p_a_prime_b, self.p_a_prime, self.p_b),
            "p_a_prime_b_prime": (self.p_a_prime_b_prime, self.p_a_prime, self.p_b_prime),
        }
        return [name for name, (joint, m1, m2) in joints.items() if joint > m1 or joint > m2]


@dataclass(frozen=True)
class CHBreakdown:
    """CH value split into its positive part Ps and coincidence part Pc."""

    p_s: float
    p_c: float
    ch: float

    @classmethod
    def _of(cls, table: ProbabilityTable) -> CHBreakdown:
        """:func:`ch_value` without its check, on float or array entries."""
        p_s = table.p_a + table.p_b
        p_c = table.p_ab + table.p_ab_prime + table.p_a_prime_b - table.p_a_prime_b_prime
        breakdown = object.__new__(cls)
        breakdown.__dict__.update(p_s=p_s, p_c=p_c, ch=p_s - p_c)
        return breakdown


@dataclass(frozen=True)
class CorrelatorSet:
    """The four +-1 correlators e_jk (j: Alice setting, k: Bob setting).

    Physically realizable correlators of +-1 observables lie in [-1, 1].
    Construction only requires finiteness, because tables whose joints were
    inflated by pairing bookkeeping map to correlators outside that range --
    that excess is precisely the apparent CHSH violation, and masking it
    would defeat the analysis.  :meth:`range_violations` reports any
    out-of-range entries so callers can tell the two situations apart.
    """

    e11: float
    e12: float
    e21: float
    e22: float

    def __post_init__(self) -> None:
        for name in ("e11", "e12", "e21", "e22"):
            _real(f"correlator {name}", getattr(self, name))

    def range_violations(self) -> list[str]:
        """Entries outside [-1, 1] beyond float noise, 1e-9 (warn, never reject)."""
        violations = []
        for name in ("e11", "e12", "e21", "e22"):
            v = getattr(self, name)
            if abs(v) > 1.0 + 1e-9:
                violations.append(f"{name} = {v!r} outside [-1, 1]")
        return violations


def ch_value(table: ProbabilityTable) -> CHBreakdown:
    """Evaluate the CH combination of a probability table.

    Parameters
    ----------
    table:
        Validated entries in [0, 1].

    Returns
    -------
    CHBreakdown
        ``p_s = p_a + p_b``, ``p_c = p_ab + p_ab' + p_a'b - p_a'b'`` and
        ``ch = p_s - p_c`` computed with exactly that arithmetic, so the
        reported parts always recombine bit-for-bit.
    """
    table.validate()
    return CHBreakdown._of(table)


def chsh_value(correlators: CorrelatorSet) -> float:
    """CHSH combination e11 + e12 + e21 - e22 (algebraic range [-4, 4])."""
    return correlators.e11 + correlators.e12 + correlators.e21 - correlators.e22


def ch_to_chsh(table: ProbabilityTable) -> CorrelatorSet:
    """Map a probability table onto CHSH correlators.

    Uses e_jk = 4 P_jk - 2 P_j - 2 P_k + 1, the correlator of the +-1
    variables 2*theta - 1.  For every consistent table this satisfies the
    exact identity ``chsh_value(ch_to_chsh(t)) == 2 - 4 * ch_value(t).ch``.

    Raises
    ------
    InvalidInputError
        If an entry is invalid.
    """
    table.validate()

    def e(p_jk: float, p_j: float, p_k: float) -> float:
        return 4.0 * p_jk - 2.0 * p_j - 2.0 * p_k + 1.0

    return CorrelatorSet(
        e11=e(table.p_ab, table.p_a, table.p_b),
        e12=e(table.p_ab_prime, table.p_a, table.p_b_prime),
        e21=e(table.p_a_prime_b, table.p_a_prime, table.p_b),
        e22=e(table.p_a_prime_b_prime, table.p_a_prime, table.p_b_prime),
    )


@dataclass(frozen=True)
class DiscreteLHVModel:
    """Local hidden-variable model over a finite hidden-state set.

    ``weights[i]`` is the probability of hidden state i; ``response_a[i]``
    holds Alice's detection probabilities in state i under settings A and
    A' (columns 0 and 1), and likewise ``response_b`` for Bob under B and
    B'.  Locality is structural: each side's responses never see the other
    side's setting.  Entries must be real numbers, the weights >= 0 summing to
    1 within 1e-12 and the responses in [0, 1], or InvalidInputError is raised.
    """

    weights: np.ndarray
    response_a: np.ndarray
    response_b: np.ndarray

    def __post_init__(self) -> None:
        w = _real_array("weights", self.weights)
        ra = _real_array("response_a", self.response_a)
        rb = _real_array("response_b", self.response_b)
        if w.ndim != 1 or w.size == 0:
            raise InvalidInputError("weights must be a non-empty 1-D array")
        if ra.shape != (w.size, 2) or rb.shape != (w.size, 2):
            raise InvalidInputError(
                f"responses must have shape (n_states, 2) = ({w.size}, 2), "
                f"got {ra.shape} and {rb.shape}"
            )
        w = _nonnegative_array("weights", w)
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise InvalidInputError(f"weights must sum to 1 within {_WEIGHT_TOL}, got {total!r}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "response_a", _unit_array("response_a", ra))
        object.__setattr__(self, "response_b", _unit_array("response_b", rb))

    @classmethod
    def _checked(
        cls, weights: np.ndarray, response_a: np.ndarray, response_b: np.ndarray
    ) -> DiscreteLHVModel:
        """A model from float arrays that already pass every check of
        ``__post_init__``, which this skips: the caller vouches for the
        shapes, the range of every entry and the weight sum."""
        model = object.__new__(cls)
        model.__dict__.update(weights=weights, response_a=response_a, response_b=response_b)
        return model

    @property
    def n_states(self) -> int:
        return self.weights.size


def eval_discrete_lhv(model: DiscreteLHVModel) -> ProbabilityTable:
    """Exact probability table of a discrete hidden-variable model.

    Marginals are ``sum_i w_i M(i, s)`` and joints
    ``sum_i w_i M_A(i, s) M_B(i, t)``, with all four marginals filled in, so
    the result feeds :func:`ch_to_chsh` directly.
    """
    w = model.weights
    ma, map_ = model.response_a.T
    mb, mbp = model.response_b.T

    def joint(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.dot(w, x * y))

    return ProbabilityTable(
        p_a=float(np.dot(w, ma)),
        p_b=float(np.dot(w, mb)),
        p_ab=joint(ma, mb),
        p_ab_prime=joint(ma, mbp),
        p_a_prime_b=joint(map_, mb),
        p_a_prime_b_prime=joint(map_, mbp),
        p_a_prime=float(np.dot(w, map_)),
        p_b_prime=float(np.dot(w, mbp)),
    )


def batched_ch(models: Sequence[DiscreteLHVModel]) -> np.ndarray:
    """CH of many discrete models, in one array call.

    The states of all models are concatenated, and one ``np.add.reduceat``
    sums ``w * pointwise`` over each model's segment, where the pointwise
    form ``a0 + b0 - a0*b0 - a0*b1 - a1*b0 + a1*b1`` of a state (``a0``/``a1``
    are its ``response_a`` columns, ``b0``/``b1`` those of ``response_b``)
    is the CH combination of :func:`eval_discrete_lhv`.  The summation
    order differs from ``ch_value(eval_discrete_lhv(m)).ch``, so the two
    agree to float noise (~1e-15), not bit for bit: use this to screen many
    models and the exact path to report a value.

    Raises
    ------
    InvalidInputError
        If ``models`` is empty.
    """
    if not models:
        raise InvalidInputError("batched_ch needs at least one model")
    w = np.concatenate([m.weights for m in models])
    a0, a1 = np.concatenate([m.response_a for m in models]).T
    b0, b1 = np.concatenate([m.response_b for m in models]).T
    # Every model has at least one state, so no segment is empty and each
    # start index is that model's first state.
    starts = np.cumsum([0] + [m.n_states for m in models[:-1]])
    return np.add.reduceat(w * (a0 + b0 - a0 * b0 - a0 * b1 - a1 * b0 + a1 * b1), starts)


@dataclass(frozen=True)
class PointwiseCase:
    """One 0/1 assignment with both sides of the scalar CH inequality."""

    theta1: int
    phi1: int
    theta2: int
    phi2: int
    lhs: int
    rhs: int
    slack: int


@dataclass(frozen=True)
class PointwiseReport:
    """All sixteen assignments of the scalar inequality, with slacks."""

    cases: tuple[PointwiseCase, ...]
    min_slack: int
    all_nonnegative: bool


def pointwise_ch_inequality_check() -> PointwiseReport:
    """Verify theta1 + phi1 + theta2*phi2 >= theta1*phi1 + theta1*phi2 + theta2*phi1.

    Enumerates all sixteen assignments in {0, 1}^4 exactly (integer
    arithmetic).  The inequality holding pointwise is what makes CH >= 0 for
    every mixture of deterministic hidden states, hence for every discrete
    model handled by :func:`eval_discrete_lhv`.
    """
    cases = []
    for theta1 in (0, 1):
        for phi1 in (0, 1):
            for theta2 in (0, 1):
                for phi2 in (0, 1):
                    lhs = theta1 + phi1 + theta2 * phi2
                    rhs = theta1 * phi1 + theta1 * phi2 + theta2 * phi1
                    cases.append(
                        PointwiseCase(
                            theta1=theta1, phi1=phi1, theta2=theta2, phi2=phi2,
                            lhs=lhs, rhs=rhs, slack=lhs - rhs,
                        )
                    )
    min_slack = min(c.slack for c in cases)
    return PointwiseReport(
        cases=tuple(cases),
        min_slack=min_slack,
        all_nonnegative=min_slack >= 0,
    )


def random_discrete_model(
    rng: np.random.Generator, max_states: int = 64
) -> DiscreteLHVModel:
    """Draw a random valid model: uniform responses, normalized weights.

    The state count n is a uniform draw from 1..``max_states``.  Useful for
    randomized sweeps over the model class; every returned model passes
    validation by construction.  After the state-count draw, one
    ``rng.random(5 * n)`` call supplies the weights, then ``response_a`` and
    ``response_b`` row by row: the same stream as three separate calls in
    that order.

    The model is checked once, on that single buffer: one minimum and one
    maximum over all 5n values and one sum of the normalized weights.  A
    buffer inside [0, 1] whose weights sum to 1 within the tolerance is
    accepted as is, since it passes every check of :class:`DiscreteLHVModel`.
    Anything else (NaN, an infinity, a value outside [0, 1], a sum off by
    more than the tolerance) falls through to the validating constructor,
    which raises :class:`InvalidInputError` with its message.

    Raises
    ------
    InvalidInputError
        If ``max_states`` is not an integer from 1 to 2^32.
    """
    n = int(rng.integers(1, _count("max_states", max_states, maximum=_MAX_GRID) + 1))
    draw = rng.random(5 * n)
    weights = draw[:n]  # normalized in place, in the draw buffer
    weights += 1e-12  # keep the sum strictly positive
    # np.add.reduce is what ndarray.sum runs, without its Python wrapper.
    weights /= np.add.reduce(weights)
    # Renormalization can leave the sum one ulp off; nudge the largest weight.
    weights[weights.argmax()] += 1.0 - np.add.reduce(weights)
    response_a = draw[n : 3 * n].reshape(n, 2)
    response_b = draw[3 * n :].reshape(n, 2)
    # min/max propagate NaN, so a NaN or an infinity fails a comparison too.
    if (
        0.0 <= float(np.minimum.reduce(draw))
        and float(np.maximum.reduce(draw)) <= 1.0
        and abs(float(np.add.reduce(weights)) - 1.0) <= _WEIGHT_TOL
    ):
        return DiscreteLHVModel._checked(weights, response_a, response_b)
    return DiscreteLHVModel(weights=weights, response_a=response_a, response_b=response_b)
