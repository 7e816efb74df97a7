"""Bell-inequality simulation lab for intense chaotic light.

The package models a local (classical, hidden-variable) description of two
detectors watching chaotic light, and shows where apparent Bell violations
can come from when they do:

* :mod:`bellsim.inequalities` — CH and CHSH forms, discrete LHV models, the
  pointwise inequality behind Bell's theorem, and the exact CH<->CHSH map.
* :mod:`bellsim.source` — chaotic-light polarization model: shared
  exponential intensity components and optional interference phases.
* :mod:`bellsim.detector` — shot probability p(I) = 1 - exp(-kI), trial
  simulation for a single window or two half-windows, dual coincidence
  bookkeeping (Boolean union vs pairing channels), and the half-window
  gain algebra.
* :mod:`bellsim.analytic` — closed-form detection probabilities, CH curves
  for every counting convention, zero crossings, small-k expansions.
* :mod:`bellsim.montecarlo` — deterministic parallel trial runs with
  binomial error bars and z-score comparison against the closed forms.
* :mod:`bellsim.waveform` — time-resolved intensity waveforms, Poisson
  event streams, nearest-neighbor delays, and windowed coincidences.
* :mod:`bellsim.cli` — the ``bellsim`` command-line tool.

The central result reproduced here: with single-window counting the model
respects the CH inequality for every detector parameter k, while the
two-half-window pairing bookkeeping drives CH negative for strong response
(k above roughly 1) — an apparent violation produced entirely by how
coincidences are counted, not by any nonlocality in the model.

``import bellsim`` loads no submodule. ``bellsim.<name>``, a public name or
a submodule, imports its module on first use (PEP 562) and is then an
ordinary attribute, so a command pays only for the modules it uses.
``_EXPORTS`` below is the one list of public names: each submodule but
``cli`` takes its ``__all__`` from it.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each submodule and the public names it defines, its ``__all__``;
#: ``bellsim.<name>`` is ``bellsim.<submodule>.<name>``.
_EXPORTS = {
    "analytic": (
        "CH_CURVE_MODES", "SWEEP_MODES", "QSet", "SmallKReport", "ch_curve_value",
        "ch_zero_crossing", "multiwindow_table", "qset", "small_k_expansion", "standard_table",
        "table_for_mode", "union_coincidence_table",
    ),
    "detector": (
        "COUNT_KEYS", "SCHEMES", "DetectorParams", "HalfWindowParams", "detect_prob", "gain",
        "multi_coincidence_prob", "multi_single_prob", "run_trials",
    ),
    "errors": ("BellsimError", "InvalidInputError", "NumericalInconsistencyError"),
    "inequalities": (
        "DEFAULT_QUAD", "AngleQuad", "CHBreakdown", "CorrelatorSet", "DiscreteLHVModel",
        "PointwiseCase", "PointwiseReport", "ProbabilityTable", "batched_ch", "ch_to_chsh",
        "ch_value", "chsh_value", "eval_discrete_lhv", "pointwise_ch_inequality_check",
        "random_discrete_model",
    ),
    "montecarlo": (
        "CHUNK_TRIALS", "RNG_CONTRACT", "ComparisonReport", "ComparisonRow", "EstimatedTable",
        "EstimateWithCI", "RunConfig", "compare_to_analytic", "estimate_table",
    ),
    "source": ("PHASE_MODES", "FieldSample", "intensities", "sample_field"),
    "waveform": (
        "QUOTED_MEAN_NOTE", "THREE_WAVE_COEFFS", "WAVEFORM_STREAM", "DelayStatistics",
        "EventStream", "HarmonicExpansion", "IntensityStats", "Waveform", "delay_statistics",
        "harmonic_expansion", "intensity_at", "intensity_stats", "nearest_delays",
        "sample_events", "sample_homogeneous_events", "three_wave",
        "windowed_coincidence_counts", "windowed_coincidences",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted([*_ORIGIN, "__version__"])


def __getattr__(name: str) -> object:
    if name in _ORIGIN:
        value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
