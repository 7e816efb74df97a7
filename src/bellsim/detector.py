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
    half's shot pair, while each cross-half channel is evaluated on fresh
    source realizations, so the no-coincidence probability factorizes
    exactly into (1-P_XY)^2 (1-P_X*P_Y)^2.  Counted this way, a pairing of
    shots in different halves is an accidental coincidence independent of
    everything else, which is what makes the split-window CH combination go
    negative at large k; the union flag, by contrast, defines a bona fide
    local model and never violates the inequality.

:func:`run_trials` draws a batch of trials and returns only the counts of
these flags, never the per-trial flags.

The two-half "at least one of two shots" bookkeeping also has a small closed
algebra over abstract per-half probabilities (p, q); see
:class:`HalfWindowParams`, :func:`multi_single_prob`,
:func:`multi_coincidence_prob` and :func:`gain`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .source import intensities, sample_field

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
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise InvalidInputError(f"k must be finite and > 0, got {self.k!r}")


class WindowScheme(str, enum.Enum):
    """Counting window layout for one trial."""

    SINGLE = "single"
    HALVES = "halves"


def detect_prob(params: DetectorParams, intensity: float | np.ndarray) -> float | np.ndarray:
    """Detection probability 1 - exp(-k*I) for intensity I >= 0.

    Monotone in both k and I; 0 at I = 0; approaches 1 as k*I grows.
    """
    arr = np.asarray(intensity, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise InvalidInputError("intensity must be finite and >= 0")
    if arr.ndim == 0:
        return float(-np.expm1(-params.k * arr))
    # In place: one n-sized allocation per call instead of three.
    out = np.multiply(arr, -params.k)
    np.expm1(out, out=out)
    return np.negative(out, out=out)


#: Keys of the counts returned by :func:`run_trials`.
COUNT_KEYS = (
    "any_alice",
    "any_bob",
    "any_coincidence",
    "any_paired_coincidence",
    "paired_and_alice",
    "paired_and_bob",
)


def _bernoulli(rng: np.random.Generator, prob: np.ndarray) -> np.ndarray:
    return rng.random(prob.shape) < prob


def _counts(*flags: np.ndarray) -> dict[str, int]:
    return {key: int(np.count_nonzero(f)) for key, f in zip(COUNT_KEYS, flags, strict=True)}


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
        Alice's and Bob's analyzer angles (radians).
    rng:
        Seeded generator; all randomness of the batch comes from it in the
        order below, so equal generator states give identical counts.
    n:
        Number of trials, >= 1.
    phase_mode:
        Passed to :func:`bellsim.source.intensities`.  Phases are drawn only
        when it is ``"sampled"``.

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
    Draw order (RNG contract 3, see
    :data:`bellsim.montecarlo.RNG_CONTRACT`; it keeps contract 2's order and
    changes only the bit generator); each item is ``n`` values, and the
    bracketed phases are drawn only with ``phase_mode="sampled"``:

    * single: x, y, [chi, xi]; Alice's uniforms; Bob's uniforms.
    * halves: the single-window draws for half 1, then the same for half 2;
      then for channel (1,2) and after it channel (2,1): Alice's side x, y,
      [chi], Alice's uniforms; Bob's side x, y, [xi], Bob's uniforms.

    Every field draw is thus followed by the uniforms of the shots it
    drives, which keeps few ``n``-sized arrays alive at a time.

    In suppressed mode that is 4 values per trial on single and 20 on
    halves.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    scheme = WindowScheme(scheme)
    sampled = phase_mode == "sampled"

    def shots(alice: float | None, bob: float | None, chi: bool, xi: bool) -> list:
        # One fresh field draw projected onto the given sides (None: side not
        # projected), then a uniform batch per projected side, Alice first.
        pair = intensities(sample_field(rng, n, chi, xi), alice, bob, phase_mode)
        return [
            None if i is None else _bernoulli(rng, detect_prob(params, i))
            for i in (pair.i_a, pair.i_b)
        ]

    if scheme is WindowScheme.SINGLE:
        a, b = shots(theta, phi, sampled, sampled)
        coinc = a & b
        return _counts(a, b, coinc, coinc, coinc, coinc)

    a1, b1 = shots(theta, phi, sampled, sampled)
    a2, b2 = shots(theta, phi, sampled, sampled)
    paired = a1 & b1
    paired |= a2 & b2
    # Cross-half pairing channels (1,2) then (2,1), each on fresh
    # realizations: one for Alice's side, one for Bob's.
    for _ in range(2):
        ca, _ = shots(theta, None, sampled, False)
        _, cb = shots(None, phi, False, sampled)
        paired |= ca & cb
    alice = a1 | a2
    bob = b1 | b2
    return _counts(alice, bob, alice & bob, paired, paired & alice, paired & bob)


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
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise InvalidInputError("p and q must be finite")
        if not 0.0 <= self.p <= self.q <= 1.0:
            raise InvalidInputError(
                f"need 0 <= p <= q <= 1, got p={self.p!r}, q={self.q!r}"
            )


def multi_single_prob(p: float) -> float:
    """Probability of at least one shot in two halves: 1 - (1-p)^2."""
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
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
