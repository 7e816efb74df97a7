"""Every bad argument raises InvalidInputError, whatever its type.

The checks live in ``bellsim/errors.py``; this file tries each public entry
point that takes a number, count, angle, mode, interval or bracket with
values of the wrong type (a string, None, a bool where a count, number or
probability is due, a non-integral float, a complex number, a pair of the
wrong length, a quad or other bellsim object of the wrong class, a mode or
scheme given as an array, a non-finite angle, a count beyond int64 or
beyond the grid a run can hold), and checks that no other module writes out
a copy of the shared checks' messages, tests for a bool or an int beyond
the float range by hand, or defines an exception class of its own.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from bellsim import errors
from bellsim.analytic import (
    ch_curve_value,
    ch_zero_crossing,
    qset,
    small_k_expansion,
    table_for_mode,
)
from bellsim.cli import SweepSpec
from bellsim.detector import (
    DetectorParams,
    HalfWindowParams,
    detect_prob,
    gain,
    multi_coincidence_prob,
    multi_single_prob,
    run_trials,
)
from bellsim.errors import InvalidInputError
from bellsim.inequalities import (
    DEFAULT_QUAD,
    AngleQuad,
    CorrelatorSet,
    ProbabilityTable,
    ch_value,
    random_discrete_model,
)
from bellsim.montecarlo import RunConfig, compare_to_analytic
from bellsim.source import FieldSample, intensities, sample_field
from bellsim.waveform import (
    DelayStatistics,
    EventStream,
    Waveform,
    delay_statistics,
    harmonic_expansion,
    intensity_at,
    intensity_stats,
    nearest_delays,
    sample_events,
    sample_homogeneous_events,
    three_wave,
    windowed_coincidence_counts,
    windowed_coincidences,
)

from test_analytic import q_value

SRC = Path(errors.__file__).resolve().parent


def rng():
    return np.random.Generator(np.random.SFC64(0))


def trials(**kwargs):
    args = {"params": DetectorParams(1.0), "scheme": "single", "theta": 0.1, "phi": 0.2,
            "rng": rng(), "n": 4}
    return run_trials(**{**args, **kwargs})


def stream():
    return EventStream(times=np.array([1.0, 2.0]), rate_scale=1.0)


def sample():
    return sample_field(rng(), 4)


DELAYS = np.array([-0.5, 0.25])

CALLS = {
    # analytic
    "q_single-k-str": lambda: q_value("1", 0.0),
    "q_single-k-none": lambda: q_value(None, 0.0),
    "q_joint-k-str": lambda: q_value("1", 0.0, 0.1),
    "qset-k-str": lambda: qset("1"),
    "ch_curve_value-k-none": lambda: ch_curve_value(None, mode="standard"),
    "table_for_mode-mode-none": lambda: table_for_mode(1.0, mode=None),
    "table_for_mode-mode-list": lambda: table_for_mode(1.0, mode=["standard"]),
    "ch_curve_value-mode-none": lambda: ch_curve_value(1.0, mode=None),
    "small_k_expansion-mode-int": lambda: small_k_expansion(mode=3),
    "ch_zero_crossing-mode-none": lambda: ch_zero_crossing(mode=None),
    "ch_zero_crossing-bracket-str-entry": lambda: ch_zero_crossing(bracket=("a", 2.0)),
    "ch_zero_crossing-bracket-1-tuple": lambda: ch_zero_crossing(bracket=(1.0,)),
    "ch_zero_crossing-bracket-str": lambda: ch_zero_crossing(bracket="ab"),
    "ch_zero_crossing-bracket-none": lambda: ch_zero_crossing(bracket=None),
    "ch_zero_crossing-bracket-zero": lambda: ch_zero_crossing(bracket=(0.0, 1.0)),
    "ch_zero_crossing-bracket-bool": lambda: ch_zero_crossing(bracket=(True, 100.0)),
    "ch_zero_crossing-bracket-numpy-bool": lambda: ch_zero_crossing(bracket=(1e-3, np.True_)),
    "table_for_mode-quad-none": lambda: table_for_mode(1.0, None),
    "qset-quad-tuple": lambda: qset(1.0, (0.0, 0.1, 0.2, 0.3)),
    "ch_curve_value-quad-str": lambda: ch_curve_value(1.0, "quad", "multiwindow-two-term"),
    "ch_zero_crossing-quad-none": lambda: ch_zero_crossing(None),
    "small_k_expansion-quad-none": lambda: small_k_expansion(quad=None),
    "table_for_mode-k-bool": lambda: table_for_mode(True),
    "q_single-theta-bool": lambda: q_value(1.0, False),
    "ch_zero_crossing-bracket-int-beyond-float": lambda: ch_zero_crossing(bracket=(1e-3, 10**400)),
    # detector
    "DetectorParams-k-str": lambda: DetectorParams("1"),
    "DetectorParams-k-none": lambda: DetectorParams(None),
    "DetectorParams-k-bool": lambda: DetectorParams(True),
    "DetectorParams-k-numpy-bool": lambda: DetectorParams(np.True_),
    "DetectorParams-k-int-beyond-float": lambda: DetectorParams(10**400),
    "run_trials-theta-int-beyond-float": lambda: trials(theta=-(10**400)),
    "run_trials-scheme-str": lambda: trials(scheme="diagonal"),
    "run_trials-scheme-none": lambda: trials(scheme=None),
    "run_trials-theta-str": lambda: trials(theta="a"),
    "run_trials-phi-none": lambda: trials(phi=None),
    "run_trials-n-bool": lambda: trials(n=True),
    "run_trials-n-str": lambda: trials(n="4"),
    "run_trials-n-none": lambda: trials(n=None),
    "run_trials-n-beyond-int64": lambda: trials(n=10**400),
    "run_trials-phase_mode-none": lambda: trials(phase_mode=None),
    "detect_prob-intensity-str": lambda: detect_prob(DetectorParams(1.0), "a"),
    "detect_prob-intensity-none": lambda: detect_prob(DetectorParams(1.0), None),
    "detect_prob-intensity-bool": lambda: detect_prob(DetectorParams(1.0), True),
    "detect_prob-intensity-bool-array":
        lambda: detect_prob(DetectorParams(1.0), np.array([True, False])),
    "detect_prob-intensity-numeric-str": lambda: detect_prob(DetectorParams(1.0), "1.5"),
    "detect_prob-intensity-numeric-str-list":
        lambda: detect_prob(DetectorParams(1.0), ["1.5", 2]),
    "detect_prob-intensity-bool-in-list": lambda: detect_prob(DetectorParams(1.0), [True, 1.5]),
    "HalfWindowParams-p-str": lambda: HalfWindowParams("0.1", 0.2),
    "HalfWindowParams-q-none": lambda: HalfWindowParams(0.1, None),
    "multi_single_prob-str": lambda: multi_single_prob("0.1"),
    "multi_single_prob-none": lambda: multi_single_prob(None),
    # source
    "FieldSample-x-str": lambda: FieldSample(x="a", y=1.0),
    "FieldSample-x-bool": lambda: FieldSample(x=True, y=1.0),
    "FieldSample-x-numeric-str": lambda: FieldSample(x="2", y=1.0),
    "sample_field-size-bool": lambda: sample_field(rng(), True),
    "sample_field-size-str": lambda: sample_field(rng(), "4"),
    "sample_field-size-float": lambda: sample_field(rng(), 2.5),
    "sample_field-size-beyond-int64": lambda: sample_field(rng(), size=10**400),
    "intensities-theta-str": lambda: intensities(sample(), "a", 0.1),
    "intensities-phase_mode-none": lambda: intensities(sample(), 0.1, 0.2, phase_mode=None),
    # inequalities
    "AngleQuad-str": lambda: AngleQuad("x", 0.0, 0.0, 0.0),
    "AngleQuad-none": lambda: AngleQuad(0.0, 0.0, None, 0.0),
    "CorrelatorSet-str": lambda: CorrelatorSet("1", 0.0, 0.0, 0.0),
    "ch_value-entry-str": lambda: ch_value(ProbabilityTable("0.5", 0, 0, 0, 0, 0, 0, 0)),
    "ch_value-entry-bool": lambda: ch_value(ProbabilityTable(True, 0, 0, 0, 0, 0, 0, 0)),
    "ch_value-entry-numpy-bool":
        lambda: ch_value(ProbabilityTable(0.5, 0, 0, 0, 0, 0, 0, np.False_)),
    "AngleQuad-bool": lambda: AngleQuad(0.0, True, 0.0, 0.0),
    "random_discrete_model-str": lambda: random_discrete_model(rng(), "3"),
    "random_discrete_model-float": lambda: random_discrete_model(rng(), 2.5),
    "random_discrete_model-bool": lambda: random_discrete_model(rng(), True),
    "random_discrete_model-none": lambda: random_discrete_model(rng(), None),
    "random_discrete_model-beyond-int64": lambda: random_discrete_model(rng(), max_states=10**400),
    # montecarlo
    "RunConfig-k-none": lambda: RunConfig(k=None),
    "RunConfig-k-str": lambda: RunConfig(k="1"),
    "RunConfig-scheme-str": lambda: RunConfig(k=1.0, scheme="diagonal"),
    "RunConfig-n_trials-bool": lambda: RunConfig(k=1.0, n_trials=True),
    "RunConfig-workers-str": lambda: RunConfig(k=1.0, workers="2"),
    "RunConfig-seed-float": lambda: RunConfig(k=1.0, seed=2.5),
    "RunConfig-n_trials-beyond-int64": lambda: RunConfig(k=1.0, n_trials=2**63),
    "RunConfig-phase_mode-none": lambda: RunConfig(k=1.0, phase_mode=None),
    "RunConfig-quad-none": lambda: RunConfig(k=1.0, quad=None),
    "RunConfig-k-complex": lambda: RunConfig(k=np.complex128(1 + 1j)),
    "compare_to_analytic-analytic_k-str":
        lambda: compare_to_analytic(RunConfig(k=1.0, n_trials=10), analytic_k="x"),
    # waveform
    "Waveform-omega-str": lambda: Waveform(((1.0, 1),), omega="2"),
    "Waveform-amplitude-none": lambda: three_wave(amplitude=None),
    "three_wave-omega-complex": lambda: three_wave(omega=np.complex128(1 + 1j)),
    "three_wave-amplitude-complex64": lambda: three_wave(amplitude=np.complex64(2)),
    "three_wave-omega-int-beyond-float": lambda: three_wave(omega=10**400),
    "Waveform-harmonic-str": lambda: Waveform(((1.0, "2"),)),
    "from_coefficients-str": lambda: Waveform.from_coefficients(["x"]),
    "intensity_stats-samples-bool": lambda: intensity_stats(three_wave(), True),
    "intensity_stats-samples-str": lambda: intensity_stats(three_wave(), "4096"),
    "intensity_stats-samples-beyond-int64": lambda: intensity_stats(three_wave(), 2**63),
    "intensity_stats-detection_time-str":
        lambda: intensity_stats(three_wave(), detection_time="0.3"),
    "box_filtered-none": lambda: harmonic_expansion(three_wave()).box_filtered(None),
    "EventStream-rate_scale-str": lambda: EventStream(times=np.array([1.0]), rate_scale="1"),
    "EventStream-times-numeric-str-list": lambda: EventStream(times=["1.5", "2.5"], rate_scale=1.0),
    "EventStream-times-bool-in-list": lambda: EventStream(times=[True, 2.0], rate_scale=1.0),
    "EventStream-times-str-array": lambda: EventStream(times=np.array(["1", "2"]), rate_scale=1.0),
    "sample_events-span-str": lambda: sample_events(three_wave(), "5", 1.0, rng()),
    "sample_events-rate_scale-none": lambda: sample_events(three_wave(), 5.0, None, rng()),
    "sample_homogeneous_events-rate-str": lambda: sample_homogeneous_events("1", 5.0, rng()),
    "from_delays-bins-bool": lambda: DelayStatistics.from_delays(DELAYS, True),
    "from_delays-bins-str": lambda: DelayStatistics.from_delays(DELAYS, "4"),
    "from_delays-range-str-entry": lambda: DelayStatistics.from_delays(DELAYS, 4, ("a", 1.0)),
    "from_delays-range-1-tuple": lambda: DelayStatistics.from_delays(DELAYS, 4, (1.0,)),
    "from_delays-range-str": lambda: DelayStatistics.from_delays(DELAYS, 4, "ab"),
    "from_delays-range-bool":
        lambda: DelayStatistics.from_delays(np.array([0.1, -0.2, 0.3]), 4, (False, 1.0)),
    "from_delays-delays-bool": lambda: DelayStatistics.from_delays(np.array([True, False])),
    "from_delays-delays-complex": lambda: DelayStatistics.from_delays(np.array([0.5 + 1j, -0.25])),
    "from_delays-delays-str": lambda: DelayStatistics.from_delays(np.array(["0.5", "-0.25"])),
    "from_delays-range-int-beyond-float":
        lambda: DelayStatistics.from_delays(DELAYS, 4, (-(10**400), 1.0)),
    "from_delays-range-too-narrow-for-bins":
        lambda: DelayStatistics.from_delays([0.0], bins=64, histogram_range=(1.0, 1.0 + 2**-50)),
    "delay_statistics-bins-bool": lambda: delay_statistics(stream(), stream(), bins=False),
    "windowed_coincidences-str": lambda: windowed_coincidences(stream(), stream(), "1"),
    "windowed_coincidences-complex":
        lambda: windowed_coincidences(stream(), stream(), np.complex128(1 + 0j)),
    "windowed_coincidence_counts-none":
        lambda: windowed_coincidence_counts(stream(), stream(), [0.5, None]),
    "windowed_coincidence_counts-windows-float":
        lambda: windowed_coincidence_counts(stream(), stream(), 0.5),
    "windowed_coincidence_counts-windows-none":
        lambda: windowed_coincidence_counts(stream(), stream(), None),
    "windowed_coincidence_counts-windows-float64":
        lambda: windowed_coincidence_counts(stream(), stream(), np.float64(0.5)),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_wrong_type_raises_invalid_input(call):
    with pytest.raises(InvalidInputError):
        call()


#: A bellsim object of the wrong class, with the parameter and class it is
#: checked against.
INSTANCE_CALLS = {
    "detect_prob-params": ("params", "DetectorParams", lambda: detect_prob(1.0, 0.5)),
    "run_trials-params": ("params", "DetectorParams", lambda: trials(params="x")),
    "multi_coincidence_prob-hw":
        ("hw", "HalfWindowParams", lambda: multi_coincidence_prob((0.1, 0.2))),
    "gain-hw": ("hw", "HalfWindowParams", lambda: gain(0.5)),
    "intensities-sample": ("sample", "FieldSample", lambda: intensities(object(), 0.0, 0.0)),
    "nearest_delays-stream_a": ("stream_a", "EventStream", lambda: nearest_delays(1, 2)),
    "nearest_delays-stream_b": ("stream_b", "EventStream", lambda: nearest_delays(stream(), None)),
    "delay_statistics-stream_a":
        ("stream_a", "EventStream", lambda: delay_statistics(np.array([1.0]), stream())),
    "delay_statistics-stream_b": ("stream_b", "EventStream", lambda: delay_statistics(stream(), 2)),
    "windowed_coincidences-stream_a":
        ("stream_a", "EventStream", lambda: windowed_coincidences(1, stream(), 0.5)),
    "windowed_coincidences-stream_b":
        ("stream_b", "EventStream", lambda: windowed_coincidences(stream(), [1.0], 0.5)),
    "windowed_coincidence_counts-stream_a":
        ("stream_a", "EventStream", lambda: windowed_coincidence_counts("a", stream(), [0.5])),
    "windowed_coincidence_counts-stream_b":
        ("stream_b", "EventStream", lambda: windowed_coincidence_counts(stream(), "b", [0.5])),
    "intensity_at-w": ("w", "Waveform", lambda: intensity_at(None, 0.0)),
    "harmonic_expansion-w": ("w", "Waveform", lambda: harmonic_expansion("w")),
    "intensity_stats-w": ("w", "Waveform", lambda: intensity_stats((1.0, 1))),
    "sample_events-w": ("w", "Waveform", lambda: sample_events("w", 5.0, 1.0, rng())),
}


@pytest.mark.parametrize("name, cls, call", INSTANCE_CALLS.values(), ids=INSTANCE_CALLS.keys())
def test_object_of_the_wrong_class(name, cls, call):
    """A bellsim object is checked by its class, so a stand-in raises
    InvalidInputError by name, not an AttributeError."""
    with pytest.raises(InvalidInputError, match=f"^{name} must be an instance of {cls}, got "):
        call()


#: A mode or scheme given as an array: an empty one cannot be compared, and
#: one whose item is a choice compares equal to it.
MEMBER_CALLS = {
    "table_for_mode-mode-empty": ("mode", lambda: table_for_mode(1.0, mode=np.array([]))),
    "table_for_mode-mode-one": ("mode", lambda: table_for_mode(1.0, mode=np.array(["standard"]))),
    "ch_curve_value-mode-empty": ("mode", lambda: ch_curve_value(1.0, mode=np.array([]))),
    "run_trials-scheme-empty": ("scheme", lambda: trials(scheme=np.array([]))),
    "run_trials-scheme-one": ("scheme", lambda: trials(scheme=np.array(["single"]))),
    "RunConfig-scheme-one": ("scheme", lambda: RunConfig(k=1.0, scheme=np.array(["halves"]))),
    "run_trials-phase_mode-one": ("phase_mode", lambda: trials(phase_mode=np.array(["sampled"]))),
}


@pytest.mark.parametrize("name, call", MEMBER_CALLS.values(), ids=MEMBER_CALLS.keys())
def test_choice_given_as_an_array(name, call):
    with pytest.raises(InvalidInputError, match=f"^{name} must be one of "):
        call()


def test_a_choice_may_be_a_str_subclass():
    """A str subclass and a numpy string are strings, and pass; a run
    config keeps the scheme as a plain string."""
    member = type("Name", (str,), {})("halves")
    assert errors._member("scheme", member, ("single", "halves")) is member
    cfg = RunConfig(k=1.0, scheme=np.str_("halves"))
    assert type(cfg.scheme) is str and cfg.scheme == "halves"
    assert trials(scheme=member)["any_alice"] >= 0


#: Counts below 2**63 that would size a grid no memory holds; each is turned
#: away by its cap before any allocation.
GRID_CALLS = {
    "RunConfig-n_trials": (
        "n_trials", 2**40, lambda: RunConfig(k=1.0, n_trials=2**62),
    ),
    "SweepSpec-points": (
        "k_grid points", 2**32,
        lambda: SweepSpec("log", 0.01, 100.0, 2**62, DEFAULT_QUAD, ("standard",)),
    ),
    "intensity_stats-samples_per_period": (
        "samples_per_period", 2**32, lambda: intensity_stats(three_wave(), 2**62),
    ),
    "random_discrete_model-max_states": (
        "max_states", 2**32, lambda: random_discrete_model(rng(), 2**62),
    ),
    "run_trials-n": ("n", 2**32, lambda: trials(n=2**62)),
    "sample_field-size": ("size", 2**32, lambda: sample_field(rng(), 2**62)),
    "DelayStatistics-bins": (
        "bins", 2**32, lambda: DelayStatistics.from_delays([0.5], 2**62),
    ),
}


@pytest.mark.parametrize("name, cap, call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
def test_grid_count_is_capped(name, cap, call):
    message = f"^{name} must be an integer <= {cap}, got {2**62}$"
    with pytest.raises(InvalidInputError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda generator, n: trials(rng=generator, n=n),
    lambda generator, n: sample_field(generator, n),
], ids=["run_trials", "sample_field"])
def test_draw_count_is_capped_before_any_draw(call):
    """One past the grid cap is turned away, and the generator is left as
    it was.  The cap itself is never run: its workspace is 4 * 2**32 floats."""
    generator = rng()
    with pytest.raises(InvalidInputError, match=f" must be an integer <= {errors._MAX_GRID}, got "):
        call(generator, errors._MAX_GRID + 1)
    assert generator.random() == rng().random()


def test_grid_caps_admit_their_own_value():
    """Each cap is itself a valid count, checked without building the grid."""
    assert RunConfig(k=1.0, n_trials=2**40).n_trials == 2**40
    assert SweepSpec("log", 0.01, 100.0, 2**32, DEFAULT_QUAD, ("standard",)).points == 2**32


#: The message phrases of the shared checks, each with a call that raises it.
PHRASES = {
    "must be positive and finite": lambda: errors._positive("x", "1"),
    "must be nonnegative and finite": lambda: errors._positive("x", -1.0, zero=True),
    "must be a real number": lambda: errors._real("x", None),
    "must be an integer >=": lambda: errors._count("x", True),
    "must be an integer <=": lambda: errors._count("x", 2**63),
    "must be one of": lambda: errors._member("x", None, ("a",)),
    "must be an instance of": lambda: errors._instance("x", None, AngleQuad),
    "must be finite with": lambda: errors._interval("x", (1.0,)),
    "must be finite and >= 0": lambda: errors._nonnegative_array("x", [-1.0]),
    "must be real numbers": lambda: errors._real_array("x", ["1.5"]),
    "must be finite real numbers": lambda: errors._real_array("x", [math.nan], finite=True),
    "must lie in [0, 1]": lambda: errors._probability("x", 1.5),
    "must be a sequence": lambda: errors._sequence("x", 0.5),
}


@pytest.mark.parametrize(
    "value, message",
    [
        (np.complex128(1 + 1j), "x must be a real number, got np.complex128(1+1j)"),
        (1j, "x must be a real number, got 1j"),
    ],
    ids=["numpy", "python"],
)
def test_complex_is_not_real(value, message):
    """A numpy complex scalar gets the message a Python complex gets, and
    its imaginary part is not dropped with a ComplexWarning."""
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        errors._real("x", value)
    with pytest.raises(InvalidInputError, match="^x must be positive and finite"):
        errors._positive("x", value)


@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["positive", "negative"])
def test_int_beyond_float_range(value):
    """An int too large for a float is no finite number: each check raises
    its own message, not the OverflowError of converting it."""
    with pytest.raises(InvalidInputError, match=f"^x must be a real number, got {value}$"):
        errors._real("x", value)
    with pytest.raises(InvalidInputError, match=f"^x must be positive and finite, got {value}$"):
        errors._positive("x", value)
    for pair in ((0, value), (value, 0)):
        with pytest.raises(InvalidInputError, match="^x must be finite with lo < hi"):
            errors._interval("x", pair)


def test_count_is_at_most_the_largest_int64():
    """A count sizes an array or a draw, which numpy sizes with int64; a
    value below the minimum keeps its message, and a seed has no ceiling."""
    assert errors._count("x", 2**63 - 1) == 2**63 - 1
    assert errors._count("x", np.uint64(2**63 - 1)) == 2**63 - 1
    for value in (2**63, np.uint64(2**63), 10**400):
        with pytest.raises(InvalidInputError, match=f"^x must be an integer <= {2**63 - 1}, got "):
            errors._count("x", value)
    with pytest.raises(InvalidInputError, match="^x must be an integer >= 1, got -(10{400})$"):
        errors._count("x", -(10**400))
    assert errors._seed("seed", 10**30) == 10**30
    assert RunConfig(k=1.0, seed=10**30).seed == 10**30
    with pytest.raises(InvalidInputError, match="^seed must be an integer >= 0, got -1$"):
        RunConfig(k=1.0, seed=-1)


@pytest.mark.parametrize("value", [True, False, np.True_], ids=["true", "false", "numpy"])
def test_bool_is_not_real(value):
    """A bool is 0 or 1 to arithmetic, but neither a real number nor a
    probability, wherever one is due."""
    message = f"must be a real number, got {value!r}"
    with pytest.raises(InvalidInputError, match=f"^x {re.escape(message)}$"):
        errors._real("x", value)
    with pytest.raises(InvalidInputError, match="^x must be nonnegative and finite"):
        errors._positive("x", value, zero=True)
    table = ProbabilityTable(0.5, 0.5, 0.25, 0.25, 0.25, value, 0.5, 0.5)
    with pytest.raises(InvalidInputError, match=f"^p_a_prime_b_prime {re.escape(message)}$"):
        table.validate()


BAD_ANGLES = {
    "str": "a", "none": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "complex": np.complex128(0.5 + 1j), "bool": True, "numpy-bool": np.True_,
}
#: The Q closed forms take their angles from an ``AngleQuad``, which names
#: each by its setting.
ANGLE_CALLS = {
    "q_single-theta": ("angle 'a'", lambda angle: q_value(1.0, angle)),
    "q_joint-theta": ("angle 'a'", lambda angle: q_value(1.0, angle, 0.1)),
    "q_joint-phi": ("angle 'b'", lambda angle: q_value(1.0, 0.1, angle)),
    "intensities-theta": ("theta", lambda angle: intensities(sample(), angle, 0.1)),
    "intensities-phi": ("phi", lambda angle: intensities(sample(), 0.1, angle)),
}


@pytest.mark.parametrize("bad", BAD_ANGLES.values(), ids=BAD_ANGLES.keys())
@pytest.mark.parametrize("name, call", ANGLE_CALLS.values(), ids=ANGLE_CALLS.keys())
def test_q_angle_must_be_real(name, call, bad):
    """An angle of a Q closed form or a projection is a finite real number:
    a bool or a numpy complex is no angle either."""
    with pytest.raises(InvalidInputError, match=f"^{name} must be a real number, got "):
        call(bad)


@pytest.mark.parametrize(
    "value", [np.complex128(0.5 + 1j), np.complex64(0.5), 0.5 + 1j],
    ids=["complex128", "complex64", "python"],
)
def test_complex_table_entry_is_not_real(value):
    """A numpy complex entry is turned away as a Python complex one is, not
    read as its real part with a ComplexWarning."""
    table = ProbabilityTable(0.5, 0.5, 0.25, 0.25, 0.25, value, 0.5, 0.5)
    message = f"p_a_prime_b_prime must be a real number, got {value!r}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        ch_value(table)


@pytest.mark.parametrize("phrase", PHRASES)
def test_shared_check_message(phrase):
    with pytest.raises(InvalidInputError, match=f"^x {re.escape(phrase)}"):
        PHRASES[phrase]()


def _copied_phrases(path: Path) -> list[str]:
    """``file:line phrase`` for each raise whose message text holds a phrase."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            for part in ast.walk(node.exc):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    found += [f"{path.name}:{node.lineno} {p}" for p in PHRASES if p in part.value]
    return found


def test_no_module_copies_a_shared_check():
    """Only errors.py spells out the shared messages; every other module
    calls its helpers, so a copy of a check cannot drift from the rule."""
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    copies = [hit for path in modules if path.name != "errors.py" for hit in _copied_phrases(path)]
    assert copies == []


def test_the_scan_sees_a_copy(tmp_path):
    copy = tmp_path / "copy.py"
    copy.write_text('def f(k):\n    raise InvalidInputError(f"k must be positive and finite, got {k!r}")\n')
    assert _copied_phrases(copy) == ["copy.py:2 must be positive and finite"]


def _hand_checks(path: Path) -> list[str]:
    """``file:line what`` for each ``except`` of ``OverflowError`` and each
    ``isinstance`` test against ``bool`` or ``np.bool_``: the pieces of a
    number or count check written by hand."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = [n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)]
            if "OverflowError" in names:
                found.append(f"{path.name}:{node.lineno} except OverflowError")
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
        ):
            for n in ast.walk(node.args[1]):
                if isinstance(n, ast.Name) and n.id == "bool" or (
                    isinstance(n, ast.Attribute) and n.attr == "bool_"
                ):
                    found.append(f"{path.name}:{node.lineno} isinstance bool")
    return found


def test_no_module_checks_a_number_by_hand():
    """Only errors.py turns away a bool or an int beyond the float range;
    every other module calls its helpers for a number or a count."""
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    hits = [hit for path in modules if path.name != "errors.py" for hit in _hand_checks(path)]
    assert hits == []


def test_the_scan_sees_a_hand_check(tmp_path):
    copy = tmp_path / "copy.py"
    copy.write_text(
        "def f(v):\n"
        "    if isinstance(v, bool) or isinstance(v, (int, np.bool_)):\n"
        "        return 0\n"
        "    try:\n"
        "        return float(v)\n"
        "    except (ValueError, OverflowError):\n"
        "        return 1\n"
    )
    assert sorted(_hand_checks(copy)) == [
        "copy.py:2 isinstance bool", "copy.py:2 isinstance bool", "copy.py:6 except OverflowError",
    ]
    assert _hand_checks(SRC / "errors.py") != []


def _exception_classes(path: Path) -> list[str]:
    """``file:line name`` for each class with a base named like an
    exception: ``Exception`` or a name ending in ``Error``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef):
            bases = [
                n.id if isinstance(n, ast.Name) else n.attr
                for base in node.bases for n in ast.walk(base)
                if isinstance(n, (ast.Name, ast.Attribute))
            ]
            if any(b == "Exception" or b.endswith("Error") for b in bases):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    return found


def test_no_module_defines_an_exception_class():
    """errors.py holds every exception class, so a bad argument anywhere
    raises InvalidInputError, not a module's private error."""
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = [hit for path in modules if path.name != "errors.py" for hit in _exception_classes(path)]
    assert found == []


def test_the_scan_sees_an_exception_class(tmp_path):
    copy = tmp_path / "copy.py"
    copy.write_text(
        "class ConfigError(BellsimError):\n    pass\n"
        "class Parser(argparse.ArgumentParser):\n    pass\n"
        "class ModelError(errors.InvalidInputError, ValueError):\n    pass\n"
    )
    assert _exception_classes(copy) == ["copy.py:1 ConfigError", "copy.py:5 ModelError"]
    assert [hit.split()[1] for hit in _exception_classes(SRC / "errors.py")] == [
        "BellsimError", "InvalidInputError", "NumericalInconsistencyError",
    ]


def test_finite_float_array_is_checked_in_place():
    """A float64 array passes the finite check as the same object, with
    no copy."""
    times = np.linspace(0.0, 1.0, 5)
    assert errors._real_array("t", times, finite=True) is times
