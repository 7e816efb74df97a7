"""Every bad argument raises InvalidInputError, whatever its type.

The checks live in ``bellsim/errors.py``; this file tries each public entry
point that takes a number, count, angle, mode, interval or bracket with
values of the wrong type (a string, None, a bool where a count, number or
probability is due, a non-integral float, a complex number, a pair of the
wrong length, a quad that is not an ``AngleQuad``, a non-finite angle), and
checks that no other module writes out a copy of the shared checks'
messages.
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
    q_joint,
    q_single,
    qset,
    small_k_expansion,
    table_for_mode,
)
from bellsim.detector import (
    DetectorParams,
    HalfWindowParams,
    WindowScheme,
    detect_prob,
    multi_single_prob,
    run_trials,
)
from bellsim.errors import InvalidInputError
from bellsim.inequalities import (
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
    intensity_stats,
    sample_events,
    sample_homogeneous_events,
    three_wave,
    windowed_coincidence_counts,
    windowed_coincidences,
)

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
    "q_single-k-str": lambda: q_single("1", 0.0),
    "q_single-k-none": lambda: q_single(None, 0.0),
    "q_joint-k-str": lambda: q_joint("1", 0.0, 0.1),
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
    "q_single-theta-bool": lambda: q_single(1.0, False),
    "ch_zero_crossing-bracket-int-beyond-float": lambda: ch_zero_crossing(bracket=(1e-3, 10**400)),
    # detector
    "DetectorParams-k-str": lambda: DetectorParams("1"),
    "DetectorParams-k-none": lambda: DetectorParams(None),
    "DetectorParams-k-bool": lambda: DetectorParams(True),
    "DetectorParams-k-numpy-bool": lambda: DetectorParams(np.True_),
    "DetectorParams-k-int-beyond-float": lambda: DetectorParams(10**400),
    "run_trials-theta-int-beyond-float": lambda: trials(theta=-(10**400)),
    "WindowScheme-str": lambda: WindowScheme("diagonal"),
    "run_trials-scheme-none": lambda: trials(scheme=None),
    "run_trials-theta-str": lambda: trials(theta="a"),
    "run_trials-phi-none": lambda: trials(phi=None),
    "run_trials-n-bool": lambda: trials(n=True),
    "run_trials-n-str": lambda: trials(n="4"),
    "run_trials-n-none": lambda: trials(n=None),
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
    # montecarlo
    "RunConfig-k-none": lambda: RunConfig(k=None),
    "RunConfig-k-str": lambda: RunConfig(k="1"),
    "RunConfig-scheme-str": lambda: RunConfig(k=1.0, scheme="diagonal"),
    "RunConfig-n_trials-bool": lambda: RunConfig(k=1.0, n_trials=True),
    "RunConfig-workers-str": lambda: RunConfig(k=1.0, workers="2"),
    "RunConfig-seed-float": lambda: RunConfig(k=1.0, seed=2.5),
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


#: The message phrases of the shared checks, each with a call that raises it.
PHRASES = {
    "must be positive and finite": lambda: errors._positive("x", "1"),
    "must be nonnegative and finite": lambda: errors._positive("x", -1.0, zero=True),
    "must be a real number": lambda: errors._real("x", None),
    "must be an integer >=": lambda: errors._count("x", True),
    "must be one of": lambda: errors._member("x", None, ("a",)),
    "must be an instance of": lambda: errors._instance("x", None, AngleQuad),
    "must be finite with": lambda: errors._interval("x", (1.0,)),
    "must be finite and >= 0": lambda: errors._nonnegative_array("x", [-1.0]),
    "must be real numbers": lambda: errors._real_array("x", ["1.5"]),
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
    "complex": np.complex128(0.5 + 1j),
}
ANGLE_CALLS = {
    "q_single-theta": ("theta", lambda angle: q_single(1.0, angle)),
    "q_joint-theta": ("theta", lambda angle: q_joint(1.0, angle, 0.1)),
    "q_joint-phi": ("phi", lambda angle: q_joint(1.0, 0.1, angle)),
}


@pytest.mark.parametrize("bad", BAD_ANGLES.values(), ids=BAD_ANGLES.keys())
@pytest.mark.parametrize("name, call", ANGLE_CALLS.values(), ids=ANGLE_CALLS.keys())
def test_q_angle_must_be_real(name, call, bad):
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
    with pytest.raises(InvalidInputError, match=f"^x {phrase}"):
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
