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
"""

from .analytic import (
    CH_CURVE_MODES,
    SWEEP_MODES,
    QSet,
    SmallKReport,
    ch_curve_value,
    ch_multiwindow,
    ch_multiwindow_two_term,
    ch_standard,
    ch_union,
    ch_zero_crossing,
    multiwindow_table,
    q_joint,
    q_single,
    qset,
    small_k_expansion,
    standard_table,
    table_for_mode,
    union_coincidence_table,
)
from .detector import (
    DetectorParams,
    HalfWindowParams,
    WindowScheme,
    detect_prob,
    gain,
    multi_coincidence_prob,
    multi_single_prob,
    run_trials,
)
from .errors import (
    BellsimError,
    InvalidInputError,
    ModelInvalidError,
    NumericalInconsistencyError,
)
from .inequalities import (
    DEFAULT_QUAD,
    AngleQuad,
    CHBreakdown,
    CorrelatorSet,
    DiscreteLHVModel,
    ProbabilityTable,
    batched_ch,
    ch_to_chsh,
    ch_value,
    chsh_value,
    eval_discrete_lhv,
    pointwise_ch_inequality_check,
    random_discrete_model,
)
from .montecarlo import (
    ComparisonReport,
    ComparisonRow,
    EstimatedTable,
    EstimateWithCI,
    RunConfig,
    compare_to_analytic,
    estimate_table,
)
from .source import (
    PHASE_MODES,
    FieldSample,
    IntensityPair,
    intensities,
    sample_field,
)
from .waveform import (
    THREE_WAVE_COEFFS,
    DelayStatistics,
    EventStream,
    HarmonicExpansion,
    IntensityStats,
    Waveform,
    delay_statistics,
    harmonic_expansion,
    intensity_at,
    intensity_stats,
    sample_events,
    sample_homogeneous_events,
    three_wave,
    windowed_coincidence_counts,
    windowed_coincidences,
)

__version__ = "0.1.0"

__all__ = [
    "AngleQuad",
    "BellsimError",
    "CHBreakdown",
    "CH_CURVE_MODES",
    "ComparisonReport",
    "ComparisonRow",
    "CorrelatorSet",
    "DEFAULT_QUAD",
    "DelayStatistics",
    "DetectorParams",
    "DiscreteLHVModel",
    "EstimateWithCI",
    "EstimatedTable",
    "EventStream",
    "FieldSample",
    "HalfWindowParams",
    "HarmonicExpansion",
    "IntensityPair",
    "IntensityStats",
    "InvalidInputError",
    "ModelInvalidError",
    "NumericalInconsistencyError",
    "PHASE_MODES",
    "ProbabilityTable",
    "QSet",
    "RunConfig",
    "SWEEP_MODES",
    "SmallKReport",
    "THREE_WAVE_COEFFS",
    "Waveform",
    "WindowScheme",
    "__version__",
    "batched_ch",
    "ch_curve_value",
    "ch_multiwindow",
    "ch_multiwindow_two_term",
    "ch_standard",
    "ch_to_chsh",
    "ch_union",
    "ch_value",
    "ch_zero_crossing",
    "chsh_value",
    "compare_to_analytic",
    "delay_statistics",
    "detect_prob",
    "estimate_table",
    "eval_discrete_lhv",
    "gain",
    "harmonic_expansion",
    "intensities",
    "intensity_at",
    "intensity_stats",
    "multi_coincidence_prob",
    "multi_single_prob",
    "multiwindow_table",
    "pointwise_ch_inequality_check",
    "q_joint",
    "q_single",
    "qset",
    "random_discrete_model",
    "run_trials",
    "sample_events",
    "sample_field",
    "sample_homogeneous_events",
    "small_k_expansion",
    "standard_table",
    "table_for_mode",
    "three_wave",
    "union_coincidence_table",
    "windowed_coincidence_counts",
    "windowed_coincidences",
]
