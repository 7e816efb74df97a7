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

from .errors import InvalidInputError, ModelInvalidError

__all__ = [
    "DEFAULT_QUAD",
    "AngleQuad",
    "CHBreakdown",
    "CorrelatorSet",
    "DiscreteLHVModel",
    "PointwiseCase",
    "PointwiseReport",
    "ProbabilityTable",
    "batched_ch",
    "ch_to_chsh",
    "ch_value",
    "chsh_value",
    "eval_discrete_lhv",
    "pointwise_ch_inequality_check",
    "random_discrete_model",
]

# Joint entries may exceed 1 - 1e-12 etc. only through float noise; keep the
# domain checks exact and reserve tolerances for derived identities.
_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class AngleQuad:
    """Analyzer settings (radians): Alice uses a/a_prime, Bob b/b_prime."""

    a: float
    b: float
    a_prime: float
    b_prime: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "a_prime", "b_prime"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidInputError(f"angle {name!r} must be finite, got {v!r}")


#: Canonical settings: A = pi/6, B = pi/3, A' = 0, B' = pi/2.
DEFAULT_QUAD = AngleQuad(math.pi / 6, math.pi / 3, 0.0, math.pi / 2)


@dataclass(frozen=True)
class ProbabilityTable:
    """Marginals and joints entering the CH combination.

    ``p_a``/``p_b`` are the single-detection probabilities at settings A and
    B; the four joints cover the setting pairs AB, AB', A'B and A'B'.  The
    optional per-setting marginals ``p_a_prime``/``p_b_prime`` are not needed
    for CH itself but are required to map the table onto CHSH correlators.
    """

    p_a: float
    p_b: float
    p_ab: float
    p_ab_prime: float
    p_a_prime_b: float
    p_a_prime_b_prime: float
    p_a_prime: float | None = None
    p_b_prime: float | None = None

    def entries(self) -> dict[str, float]:
        """The six CH entries by name (marginals first)."""
        return {
            "p_a": self.p_a,
            "p_b": self.p_b,
            "p_ab": self.p_ab,
            "p_ab_prime": self.p_ab_prime,
            "p_a_prime_b": self.p_a_prime_b,
            "p_a_prime_b_prime": self.p_a_prime_b_prime,
        }

    def validate(self) -> None:
        """Raise :class:`InvalidInputError` unless every entry lies in [0, 1]."""
        items = dict(self.entries())
        if self.p_a_prime is not None:
            items["p_a_prime"] = self.p_a_prime
        if self.p_b_prime is not None:
            items["p_b_prime"] = self.p_b_prime
        for name, value in items.items():
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {value!r}")
            if not 0.0 <= value <= 1.0:
                raise InvalidInputError(f"{name} must lie in [0, 1], got {value!r}")

    def monotonicity_violations(self, tol: float = 0.0) -> list[str]:
        """Names of joints exceeding one of their marginals by more than ``tol``.

        A joint produced by counting a single pair of detection flags can
        never exceed either marginal.  Pairing-based coincidence counting
        over split windows can, so violations are reported, never rejected.
        Marginals that were not supplied are skipped.
        """
        bounds = {
            "p_ab": (self.p_a, self.p_b),
            "p_ab_prime": (self.p_a, self.p_b_prime),
            "p_a_prime_b": (self.p_a_prime, self.p_b),
            "p_a_prime_b_prime": (self.p_a_prime, self.p_b_prime),
        }
        out = []
        for joint_name, (m1, m2) in bounds.items():
            joint = getattr(self, joint_name)
            for marginal in (m1, m2):
                if marginal is not None and joint > marginal + tol:
                    out.append(joint_name)
                    break
        return out


@dataclass(frozen=True)
class CHBreakdown:
    """CH value split into its positive part Ps and coincidence part Pc."""

    p_s: float
    p_c: float
    ch: float


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
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidInputError(f"correlator {name} must be finite, got {v!r}")

    def range_violations(self, tol: float = 1e-9) -> list[str]:
        """Entries outside [-1, 1] beyond float noise (warn, never reject)."""
        violations = []
        for name in ("e11", "e12", "e21", "e22"):
            v = getattr(self, name)
            if abs(v) > 1.0 + tol:
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
    p_s = table.p_a + table.p_b
    p_c = table.p_ab + table.p_ab_prime + table.p_a_prime_b - table.p_a_prime_b_prime
    return CHBreakdown(p_s=p_s, p_c=p_c, ch=p_s - p_c)


def chsh_value(correlators: CorrelatorSet) -> float:
    """CHSH combination e11 + e12 + e21 - e22 (algebraic range [-4, 4])."""
    return correlators.e11 + correlators.e12 + correlators.e21 - correlators.e22


def ch_to_chsh(table: ProbabilityTable) -> CorrelatorSet:
    """Map a probability table with full marginals onto CHSH correlators.

    Uses e_jk = 4 P_jk - 2 P_j - 2 P_k + 1, the correlator of the +-1
    variables 2*theta - 1.  For every consistent table this satisfies the
    exact identity ``chsh_value(ch_to_chsh(t)) == 2 - 4 * ch_value(t).ch``.

    Raises
    ------
    InvalidInputError
        If ``p_a_prime`` or ``p_b_prime`` is missing, or entries are invalid.
    """
    table.validate()
    if table.p_a_prime is None or table.p_b_prime is None:
        raise InvalidInputError(
            "ch_to_chsh needs per-setting marginals: p_a_prime and p_b_prime"
        )

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

    ``weights[i]`` is the probability of hidden state i; ``response_a[i, s]``
    is Alice's detection probability in state i under her setting s, and
    likewise ``response_b`` for Bob.  Locality is structural: each side's
    response matrix never sees the other side's setting.
    """

    weights: np.ndarray
    response_a: np.ndarray
    response_b: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        ra = np.asarray(self.response_a, dtype=float)
        rb = np.asarray(self.response_b, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ModelInvalidError("weights must be a non-empty 1-D array")
        if ra.ndim != 2 or rb.ndim != 2:
            raise ModelInvalidError("response matrices must be 2-D (state, setting)")
        if ra.shape[0] != w.size or rb.shape[0] != w.size:
            raise ModelInvalidError("response rows must match the number of hidden states")
        if ra.shape[1] == 0 or rb.shape[1] == 0:
            raise ModelInvalidError("each side needs at least one setting column")
        # min/max propagate NaN and see +-inf, so the six extremes decide
        # both finiteness and range.
        w_lo, w_hi = float(w.min()), float(w.max())
        ra_lo, ra_hi = float(ra.min()), float(ra.max())
        rb_lo, rb_hi = float(rb.min()), float(rb.max())
        if not all(map(math.isfinite, (w_lo, w_hi, ra_lo, ra_hi, rb_lo, rb_hi))):
            raise ModelInvalidError("model arrays must be finite")
        if w_lo < 0.0:
            raise ModelInvalidError("weights must be non-negative")
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ModelInvalidError(
                f"weights must sum to 1 within {_WEIGHT_TOL}, got {total!r}"
            )
        if ra_lo < 0.0 or ra_hi > 1.0 or rb_lo < 0.0 or rb_hi > 1.0:
            raise ModelInvalidError("response probabilities must lie in [0, 1]")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "response_a", ra)
        object.__setattr__(self, "response_b", rb)

    @property
    def n_states(self) -> int:
        return self.weights.size


def eval_discrete_lhv(
    model: DiscreteLHVModel,
    settings: Sequence[int] = (0, 0, 1, 1),
) -> ProbabilityTable:
    """Exact probability table of a discrete hidden-variable model.

    Parameters
    ----------
    model:
        Validated hidden-state model.
    settings:
        Column indices ``(a, b, a_prime, b_prime)``; ``a``/``a_prime`` index
        ``response_a`` columns and ``b``/``b_prime`` index ``response_b``.

    Returns
    -------
    ProbabilityTable
        Marginals ``sum_i w_i M(i, s)`` and joints
        ``sum_i w_i M_A(i, s) M_B(i, t)``, with both per-setting marginals
        filled in, so the result feeds :func:`ch_to_chsh` directly.
    """
    ia, ib, iap, ibp = (int(s) for s in settings)
    for idx, n_cols, side in ((ia, model.response_a.shape[1], "a"),
                              (iap, model.response_a.shape[1], "a_prime"),
                              (ib, model.response_b.shape[1], "b"),
                              (ibp, model.response_b.shape[1], "b_prime")):
        if not 0 <= idx < n_cols:
            raise InvalidInputError(
                f"setting index {side}={idx} outside 0..{n_cols - 1}"
            )
    w = model.weights
    ma, map_ = model.response_a[:, ia], model.response_a[:, iap]
    mb, mbp = model.response_b[:, ib], model.response_b[:, ibp]

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
    """CH of many discrete models at the default settings, in one array call.

    The models are padded with zero-weight states to a common state count,
    and one ``einsum`` contracts the weights with the pointwise form
    ``a0 + b0 - a0*b0 - a0*b1 - a1*b0 + a1*b1`` of each state (``a0``/``a1``
    are ``response_a`` columns 0/1, ``b0``/``b1`` those of ``response_b``),
    which is the CH combination of :func:`eval_discrete_lhv` at settings
    ``(0, 0, 1, 1)``.  The summation order differs from
    ``ch_value(eval_discrete_lhv(m)).ch``, so the two agree to float noise
    (~1e-15), not bit for bit: use this to screen many models and the exact
    path to report a value.

    Raises
    ------
    InvalidInputError
        If ``models`` is empty or a model has fewer than two setting columns
        on a side.
    """
    if not models:
        raise InvalidInputError("batched_ch needs at least one model")
    if min(min(m.response_a.shape[1], m.response_b.shape[1]) for m in models) < 2:
        raise InvalidInputError("batched_ch needs two setting columns per side")
    a = np.concatenate([m.response_a[:, :2] for m in models])
    b = np.concatenate([m.response_b[:, :2] for m in models])
    a0, a1, b0, b1 = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    sizes = np.array([m.n_states for m in models])
    # (model, state) position of every state of the concatenated models.
    rows = np.repeat(np.arange(sizes.size), sizes)
    cols = np.arange(rows.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    w = np.zeros((sizes.size, sizes.max()))
    pointwise = np.zeros_like(w)
    w[rows, cols] = np.concatenate([m.weights for m in models])
    pointwise[rows, cols] = a0 + b0 - a0 * b0 - a0 * b1 - a1 * b0 + a1 * b1
    return np.einsum("ms,ms->m", w, pointwise)


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
    rng: np.random.Generator,
    n_states: int | None = None,
    n_settings_a: int = 2,
    n_settings_b: int = 2,
    max_states: int = 64,
) -> DiscreteLHVModel:
    """Draw a random valid model: uniform responses, normalized weights.

    ``n_states`` defaults to a uniform draw from 1..``max_states``.  Useful
    for randomized sweeps over the model class; every returned model passes
    validation by construction.  After the optional state-count draw, one
    ``rng.random`` call supplies the weights, then ``response_a`` and
    ``response_b`` row by row: the same stream as three separate calls in
    that order.

    Raises
    ------
    InvalidInputError
        If ``max_states`` or ``n_states`` is below 1, or a setting count is
        negative.
    """
    if max_states < 1:
        raise InvalidInputError(f"max_states must be >= 1, got {max_states!r}")
    if n_settings_a < 0 or n_settings_b < 0:
        raise InvalidInputError("setting counts must be >= 0")
    if n_states is None:
        n_states = int(rng.integers(1, max_states + 1))
    if n_states < 1:
        raise InvalidInputError("n_states must be >= 1")
    draw = rng.random(n_states * (1 + n_settings_a + n_settings_b))
    end_a = n_states * (1 + n_settings_a)
    raw = draw[:n_states] + 1e-12  # keep the sum strictly positive
    weights = raw / raw.sum()
    # Renormalization can leave the sum one ulp off; nudge the largest weight.
    weights[weights.argmax()] += 1.0 - weights.sum()
    return DiscreteLHVModel(
        weights=weights,
        response_a=draw[n_states:end_a].reshape(n_states, n_settings_a),
        response_b=draw[end_a:].reshape(n_states, n_settings_b),
    )
