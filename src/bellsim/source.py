"""Chaotic (thermal) two-mode light source.

A single realization of the source is a pair of complex Gaussian mode
amplitudes; only their squared moduli ``x`` and ``y`` (independent unit-mean
exponential variates) and relative phases ``chi``/``xi`` (uniform on
[0, 2*pi)) matter downstream.  Each polarizer projects the two modes onto its
axis at angle theta, giving the cycle-averaged intensity

    I(theta) = x*cos(theta)**2 + y*sin(theta)**2
               + 2*sqrt(x*y)*cos(chi)*cos(theta)*sin(theta)

The closed-form predictions in :mod:`bellsim.analytic` integrate the phases
out, which is equivalent to fixing chi = xi = pi/2; ``phase_mode`` selects
between that suppressed form and the full sampled cross terms so simulations
can measure how much the phase terms actually move the detection rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalInconsistencyError

__all__ = [
    "FieldSample",
    "IntensityPair",
    "PHASE_MODES",
    "intensities",
    "sample_field",
]

PHASE_MODES = ("suppressed", "sampled")

ArrayOrFloat = "float | np.ndarray"


@dataclass(frozen=True)
class FieldSample:
    """One (or a batch of) source realizations.

    ``x``/``y`` are the squared mode amplitudes, exponential with unit mean;
    ``chi``/``xi`` are the relative phases seen by the two observers, or
    None when they were not drawn.  Fields are scalars or equal-shape arrays.
    """

    x: float | np.ndarray
    y: float | np.ndarray
    chi: float | np.ndarray | None = None
    xi: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("x", "y"):
            v = np.asarray(getattr(self, name))
            if np.any(v < 0.0) or not np.all(np.isfinite(v)):
                raise InvalidInputError(f"{name} must be finite and >= 0")


def sample_field(
    rng: np.random.Generator,
    size: int | None = None,
    chi: bool = True,
    xi: bool = True,
) -> FieldSample:
    """Draw source realizations from a seeded generator.

    Parameters
    ----------
    rng:
        numpy Generator; the only source of randomness.
    size:
        None for a scalar sample, otherwise the batch length.
    chi, xi:
        Whether to draw Alice's and Bob's relative phase; a phase that is
        not drawn is None in the sample and consumes no random numbers.

    Returns
    -------
    FieldSample
        ``x``/``y`` independent Exponential(mean=1), ``chi``/``xi``
        independent Uniform[0, 2*pi).  Draw order is fixed (x, y, then chi
        and xi if requested) so a given generator state always yields the
        same sample.

    Raises
    ------
    InvalidInputError
        If ``size`` is neither None nor a positive integer.
    """
    if size is not None and (not isinstance(size, (int, np.integer)) or size < 1):
        raise InvalidInputError(f"size must be None or a positive integer, got {size!r}")
    # With size=None every draw is already a Python float.
    x = rng.standard_exponential(size)
    y = rng.standard_exponential(size)
    return FieldSample(
        x=x,
        y=y,
        chi=rng.uniform(0.0, 2.0 * np.pi, size=size) if chi else None,
        xi=rng.uniform(0.0, 2.0 * np.pi, size=size) if xi else None,
    )


@dataclass(frozen=True)
class IntensityPair:
    """Cycle-averaged intensities at the two analyzers (None: not projected)."""

    i_a: float | np.ndarray | None
    i_b: float | np.ndarray | None


def _project(
    sample: FieldSample, angle: float, phase: float | np.ndarray | None, phase_mode: str
) -> float | np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    if phase_mode == "suppressed":
        i = sample.x * c**2
        i += sample.y * s**2
        return i
    # |sqrt(x) cos + sqrt(y) e^{i phase} sin|^2 expanded as a sum of two
    # squares: algebraically equal to the cos^2/sin^2 form plus the
    # 2 sqrt(xy) cos(phase) cross term, but nonnegative even under
    # floating-point rounding (the expanded form can cancel to a tiny
    # negative when the two amplitudes nearly interfere away).
    rx, ry = np.sqrt(sample.x), np.sqrt(sample.y)
    return (rx * c + ry * s * np.cos(phase)) ** 2 + (ry * s * np.sin(phase)) ** 2


def intensities(
    sample: FieldSample,
    theta: float | None,
    phi: float | None,
    phase_mode: str = "suppressed",
) -> IntensityPair:
    """Project a source sample onto analyzer angles theta (Alice), phi (Bob).

    Parameters
    ----------
    sample:
        Realization(s) from :func:`sample_field`.
    theta, phi:
        Analyzer angles in radians; None skips that side, whose intensity
        is then None.
    phase_mode:
        ``"suppressed"`` drops the interference cross terms (the phase
        average used by the closed forms); ``"sampled"`` keeps them with the
        sampled ``chi`` (Alice) / ``xi`` (Bob).

    Returns
    -------
    IntensityPair
        Non-negative intensities; each equals x*cos^2 + y*sin^2 of its own
        angle, plus 2*sqrt(x*y)*cos(phase)*cos*sin when sampled.

    Raises
    ------
    InvalidInputError
        Unknown ``phase_mode``, a non-finite angle, or ``"sampled"`` on a
        side whose phase was not drawn.
    NumericalInconsistencyError
        If any computed intensity is negative.  The sampled form is a
        squared modulus, so this is impossible for correct inputs and
        indicates an implementation bug; it is never silently clipped.
    """
    if phase_mode not in PHASE_MODES:
        raise InvalidInputError(
            f"phase_mode must be one of {PHASE_MODES}, got {phase_mode!r}"
        )
    if not all(angle is None or np.isfinite(angle) for angle in (theta, phi)):
        raise InvalidInputError(
            f"analyzer angles must be finite, got theta={theta!r}, phi={phi!r}"
        )
    out = []
    for angle, phase_name in ((theta, "chi"), (phi, "xi")):
        if angle is None:
            out.append(None)
            continue
        phase = getattr(sample, phase_name)
        if phase_mode == "sampled" and phase is None:
            raise InvalidInputError(f"sampled phase_mode needs {phase_name}, which was not drawn")
        i = _project(sample, angle, phase, phase_mode)
        if np.any(np.asarray(i) < 0.0):
            raise NumericalInconsistencyError(
                "negative intensity: squared-modulus algebra was violated"
            )
        out.append(i)
    return IntensityPair(i_a=out[0], i_b=out[1])
