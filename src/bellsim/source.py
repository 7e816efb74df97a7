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
            # min/max propagate NaN and see +-inf, so one pair decides both
            # finiteness and sign without a boolean temporary.
            if v.size and not (v.min() >= 0.0 and v.max() < np.inf):
                raise InvalidInputError(f"{name} must be finite and >= 0")


def sample_field(
    rng: np.random.Generator,
    size: int | None = None,
    chi: bool = True,
    xi: bool = True,
    out: tuple[np.ndarray, np.ndarray] | None = None,
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
    out:
        Optional pair of float64 arrays of shape ``(size,)`` that receive
        ``x`` and ``y`` (the sample then holds these very arrays).  The
        draws are the same as without it; the phases are still allocated.

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
    if size is not None and (
        isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1
    ):
        raise InvalidInputError(f"size must be None or a positive integer, got {size!r}")
    out_x, out_y = (None, None) if out is None else out
    # With size=None every draw is already a Python float.
    x = rng.standard_exponential(size, out=out_x)
    y = rng.standard_exponential(size, out=out_y)
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
    sample: FieldSample,
    angle: float,
    phase: float | np.ndarray | None,
    phase_mode: str,
    out: np.ndarray | None,
    work: np.ndarray | None,
) -> float | np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    if phase_mode == "suppressed":
        # Two rounded products and one rounded sum, as x*c**2 + y*s**2.
        i = np.multiply(sample.x, c**2, out=out)
        i += np.multiply(sample.y, s**2, out=work)
        return i
    # |sqrt(x) cos + sqrt(y) e^{i phase} sin|^2 expanded as a sum of two
    # squares: algebraically equal to the cos^2/sin^2 form plus the
    # 2 sqrt(xy) cos(phase) cross term, but nonnegative even under
    # floating-point rounding (the expanded form can cancel to a tiny
    # negative when the two amplitudes nearly interfere away).
    rx, ry = np.sqrt(sample.x), np.sqrt(sample.y)
    i = (rx * c + ry * s * np.cos(phase)) ** 2 + (ry * s * np.sin(phase)) ** 2
    if out is None:
        return i
    np.copyto(out, i)
    return out


def intensities(
    sample: FieldSample,
    theta: float | None,
    phi: float | None,
    phase_mode: str = "suppressed",
    out: tuple[np.ndarray | None, np.ndarray | None] | None = None,
    work: np.ndarray | None = None,
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
    out:
        Optional ``(i_a, i_b)`` float64 arrays of the sample's shape that
        receive the intensities (an entry for a side not projected is
        unused).  Alice's side is written first, so ``i_b`` may be
        ``sample.x`` itself: Bob's side reads the sample before writing it.
    work:
        Optional float64 scratch array of the sample's shape for the
        ``y*sin^2`` products; overwritten.  The values are the same with and
        without ``out``/``work``.

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
    result = []
    for angle, phase_name, side_out in zip(
        (theta, phi), ("chi", "xi"), (None, None) if out is None else out
    ):
        if angle is None:
            result.append(None)
            continue
        phase = getattr(sample, phase_name)
        if phase_mode == "sampled" and phase is None:
            raise InvalidInputError(f"sampled phase_mode needs {phase_name}, which was not drawn")
        i = _project(sample, angle, phase, phase_mode, side_out, work)
        # fmin skips NaN, so this is any(i < 0) without a boolean temporary.
        if np.fmin.reduce(i, axis=None, initial=0.0) < 0.0:
            raise NumericalInconsistencyError(
                "negative intensity: squared-modulus algebra was violated"
            )
        result.append(i)
    return IntensityPair(i_a=result[0], i_b=result[1])
