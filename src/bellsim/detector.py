"""Threshold detectors, window schemes, and the per-trial engine.

Detection is a Bernoulli event with probability ``p(I) = 1 - exp(-k*I)``
given the local intensity ``I``; ``k`` is the single dimensionless
sensitivity parameter.  A trial is one time window of a run:

* ``SINGLE`` window -- one source realization shared by Alice and Bob, one
  conditionally independent detection draw per side.

* ``HALVES`` -- the window is split in two; each half gets its own source
  realization and its own pair of detection draws.  A trial has two
  different coincidence flags:

  - ``any_coincidence``: the plain Boolean union, "Alice fired somewhere and
    Bob fired somewhere".  It can never exceed either single rate.
  - ``any_paired_coincidence``: coincidence counted per pairing channel.
    The four half-window pairings (1,1), (2,2), (1,2), (2,1) are treated as
    independently evaluated channels: the two same-half channels reuse that
    half's shot pair, while each cross-half channel stands for one shot of
    each side on its own fresh source realization, so the no-coincidence
    probability factorizes exactly into (1-P_XY)^2 (1-P_X*P_Y)^2.  Counted
    this way, a pairing of shots in different halves is an accidental
    coincidence independent of everything else, which is what makes the
    split-window CH combination go negative at large k; the union flag, by
    contrast, defines a bona fide local model and never violates the
    inequality.

    So each cross-half channel is drawn as one Bernoulli(P_X*P_Y) shot.
    This is exact, not an approximation: two independent shots on fresh
    realizations both fire with probability P_X*P_Y, and a shot's marginal
    P = E[1 - exp(-k*I)] over the thermal field is known in closed form
    (Mandel, Proc. Phys. Soc. 72, 1037 (1958)): 1 - 1/((1 + k c^2)(1 + k s^2))
    with suppressed phases, and k/(1 + k) with sampled ones, whose uniform
    relative phase makes I unit-mean exponential at every angle.

:func:`run_trials` draws a batch of trials and returns only the counts of
these flags, never the per-trial flags.

The two-half "at least one of two shots" bookkeeping also has a small closed
algebra over abstract per-half probabilities (p, q); see
:class:`HalfWindowParams`, :func:`multi_single_prob`,
:func:`multi_coincidence_prob` and :func:`gain`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _count, _member, _nonnegative_array, _positive, _real
from .source import PHASE_MODES, intensities, sample_field

__all__ = [
    "COUNT_KEYS",
    "DetectorParams",
    "HalfWindowParams",
    "WindowScheme",
    "detect_prob",
    "gain",
    "multi_coincidence_prob",
    "multi_single_prob",
    "run_trials",
]


@dataclass(frozen=True)
class DetectorParams:
    """Detector sensitivity; detection probability is 1 - exp(-k*I)."""

    k: float

    def __post_init__(self) -> None:
        _positive("k", self.k)


class WindowScheme(str, enum.Enum):
    """Counting window layout for one trial."""

    SINGLE = "single"
    HALVES = "halves"

    @classmethod
    def _missing_(cls, value: object) -> None:
        _member("scheme", value, tuple(scheme.value for scheme in cls))


def detect_prob(
    params: DetectorParams,
    intensity: float | np.ndarray,
    out: np.ndarray | None = None,
) -> float | np.ndarray:
    """Detection probability 1 - exp(-k*I) for intensity I >= 0.

    Monotone in both k and I; 0 at I = 0; approaches 1 as k*I grows.  For an
    array ``intensity``, ``out`` is an optional float64 array of its shape
    (it may be ``intensity`` itself) that receives the probabilities, with
    the same values as without it.
    """
    arr = _nonnegative_array("intensity", intensity)
    if arr.ndim == 0:
        return float(-np.expm1(-params.k * arr))
    p = np.multiply(arr, -params.k, out=out)
    np.expm1(p, out=p)
    return np.negative(p, out=p)


def _shot_prob(k: float, angle: float, sampled: bool) -> float:
    """Probability that one shot on a fresh source realization fires at
    ``angle``: the mean of 1 - exp(-k*I) over the field (module docstring).

    Suppressed, it is k (1 + k c^2 s^2) / ((1 + k c^2)(1 + k s^2)), with c
    and s as :func:`bellsim.source.intensities` takes them.  Every term is
    positive, so nothing cancels at small k, and the two factors below stay
    finite for every finite k.  Sampled, it is k / (1 + k) at every angle.
    """
    if sampled:
        return k / (1.0 + k)
    c, s = np.cos(angle), np.sin(angle)
    c2, s2 = c**2, s**2
    return float(k / (1.0 + k * c2) * ((1.0 + k * c2 * s2) / (1.0 + k * s2)))


#: Keys of the counts returned by :func:`run_trials`.
COUNT_KEYS = (
    "any_alice",
    "any_bob",
    "any_coincidence",
    "any_paired_coincidence",
    "paired_and_alice",
    "paired_and_bob",
)


def _counts(*counts: int) -> dict[str, int]:
    return {key: int(c) for key, c in zip(COUNT_KEYS, counts, strict=True)}


def run_trials(
    params: DetectorParams,
    scheme: WindowScheme,
    theta: float,
    phi: float,
    rng: np.random.Generator,
    n: int,
    phase_mode: str = "suppressed",
) -> dict[str, int]:
    """Run ``n`` independent trials with a fixed draw order; return counts.

    Parameters
    ----------
    params, scheme:
        Detector sensitivity and window layout.
    theta, phi:
        Alice's and Bob's analyzer angles (radians), finite; like every
        argument, checked before any draw.
    rng:
        Seeded generator; all randomness of the batch comes from it in the
        order below, so equal generator states give identical counts.
    n:
        Number of trials, >= 1.
    phase_mode:
        One of :data:`bellsim.source.PHASE_MODES`, checked before any draw
        and passed to :func:`bellsim.source.intensities`.  Phases are drawn
        only when it is ``"sampled"``.

    Returns
    -------
    dict[str, int]
        Number of trials with each event, keyed by :data:`COUNT_KEYS`:
        Alice fired (``any_alice``), Bob fired (``any_bob``), both fired
        (``any_coincidence``, the Boolean union), a pairing channel fired
        (``any_paired_coincidence``), and the paired coincidence together
        with Alice's or Bob's shot (``paired_and_alice``/``paired_and_bob``,
        which the CH standard error needs).

    Notes
    -----
    Draw order (RNG contract 4, see
    :data:`bellsim.montecarlo.RNG_CONTRACT`); each item is ``n`` values,
    and the bracketed phases are drawn only with ``phase_mode="sampled"``:

    * single: x, y, [chi, xi]; Alice's uniforms; Bob's uniforms.
    * halves: the single-window draws for half 1, then the same for half 2;
      then one batch of uniforms for channel (1,2) and one for channel
      (2,1), each compared with P_X*P_Y (module docstring).

    Every field draw is thus followed by the uniforms of the shots it
    drives, which keeps few ``n``-sized arrays alive at a time.

    That is 4 values per trial on single and 10 on halves in suppressed
    mode, and 6 and 14 in sampled mode.

    Each call allocates one workspace: four float arrays of ``n`` (the field
    x and y, the intensity, the uniforms) and the shot flags (two arrays of
    ``n`` on single, five on halves).  Every field draw, projection,
    detection probability and uniform batch is written into it, so the call
    draws the contract-4 stream above with no other ``n``-sized allocation
    in suppressed mode (sampled phases are still allocated by
    :func:`bellsim.source.sample_field`).
    """
    n = _count("n", n)
    _member("phase_mode", phase_mode, PHASE_MODES)
    scheme = WindowScheme(scheme)
    theta, phi = _real("theta", theta), _real("phi", phi)
    sampled = phase_mode == "sampled"
    x, y, i, u = np.empty((4, n))
    flags = np.empty((5 if scheme is WindowScheme.HALVES else 2, n), dtype=bool)

    def shots(flag_a: np.ndarray, flag_b: np.ndarray) -> None:
        # One fresh field draw projected onto both sides, then a uniform
        # batch per side, Alice first, whose shots land in that side's flags.
        sample = sample_field(rng, n, sampled, sampled, out=(x, y))
        pair = intensities(sample, theta, phi, phase_mode, out=(i, x), work=u)
        for intensity, flag in ((pair.i_a, flag_a), (pair.i_b, flag_b)):
            prob = detect_prob(params, intensity, out=intensity)
            np.less(rng.random(out=u), prob, out=flag)

    if scheme is WindowScheme.SINGLE:
        a, b = flags
        shots(a, b)
        n_a, n_b = np.count_nonzero(a), np.count_nonzero(b)
        coinc = np.count_nonzero(np.logical_and(a, b, out=a))
        return _counts(n_a, n_b, coinc, coinc, coinc, coinc)

    alice, bob, shot_a, shot_b, paired = flags
    shots(alice, bob)
    np.logical_and(alice, bob, out=paired)
    shots(shot_a, shot_b)
    alice |= shot_a
    bob |= shot_b
    paired |= np.logical_and(shot_a, shot_b, out=shot_a)
    # Cross-half pairing channels (1,2) then (2,1), each one Bernoulli(P_X*P_Y).
    p_cross = _shot_prob(params.k, theta, sampled) * _shot_prob(params.k, phi, sampled)
    for _ in range(2):
        paired |= np.less(rng.random(out=u), p_cross, out=shot_a)

    def both(f: np.ndarray, g: np.ndarray) -> int:
        return np.count_nonzero(np.logical_and(f, g, out=shot_a))

    return _counts(
        np.count_nonzero(alice), np.count_nonzero(bob), both(alice, bob),
        np.count_nonzero(paired), both(paired, alice), both(paired, bob),
    )


@dataclass(frozen=True)
class HalfWindowParams:
    """Abstract per-half probabilities of the split-window algebra.

    ``p`` is the probability of a shot in one half-window; ``q`` the
    conditional probability of the partner's shot in the same half given the
    first shot (q >= p captures positive intensity correlation; q = p is
    the independent case).
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        if not 0.0 <= _real("p", self.p) <= _real("q", self.q) <= 1.0:
            raise InvalidInputError(
                f"need 0 <= p <= q <= 1, got p={self.p!r}, q={self.q!r}"
            )


def multi_single_prob(p: float) -> float:
    """Probability of at least one shot in two halves: 1 - (1-p)^2."""
    if not 0.0 <= _real("p", p) <= 1.0:
        raise InvalidInputError(f"p must lie in [0, 1], got {p!r}")
    return 1.0 - (1.0 - p) ** 2


def multi_coincidence_prob(hw: HalfWindowParams) -> float:
    """Coincidence probability under independent pairing channels.

    The same-half channels each fire with probability p*q, the cross-half
    ones with p*p; treating the four channels as independent gives
    ``1 - (1 - p^2)^2 (1 - p*q)^2``.
    """
    return 1.0 - (1.0 - hw.p * hw.p) ** 2 * (1.0 - hw.p * hw.q) ** 2


def gain(hw: HalfWindowParams) -> float:
    """Split-window coincidence rate conditioned on a single, minus q.

    ``multi_coincidence_prob / multi_single_prob - q`` measures how much the
    split-window bookkeeping inflates the apparent conditional detection
    probability over the true per-half value q.  Non-negative on the whole
    domain, and zero only at p = q = 1.
    """
    if hw.p == 0.0:
        raise InvalidInputError("gain is undefined at p = 0 (no singles)")
    return multi_coincidence_prob(hw) / multi_single_prob(hw.p) - hw.q
