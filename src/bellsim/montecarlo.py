"""Monte Carlo estimation of probability tables and closed-form validation.

A run estimates the full CH probability table for one (k, quad, scheme)
configuration by simulating each of the four setting pairs with
:func:`bellsim.detector.run_trials`.  Reproducibility contract:

* Trials are partitioned into fixed-size chunks (:data:`CHUNK_TRIALS`),
  and every run executes them on a pool of ``workers`` threads.
* Chunk (pair p, index c) draws from ``SFC64(SeedSequence(seed,
  spawn_key=(p, c)))``.  ``SeedSequence`` hashes (seed, p, c) into the
  generator's state, so the chunk streams are independent and keyed only by
  the configuration seed and those indices, never by the worker executing
  it.
* Chunk counts are integers and summing them is order-independent.
* Within a chunk the draw order is the one documented in
  :func:`bellsim.detector.run_trials`, versioned as :data:`RNG_CONTRACT`.

Together these make the estimates bit-identical for a fixed seed whatever
``workers`` is, which is verified in the test suite at 1/2/8 workers.

Marginal estimates reuse the pair runs instead of extra dedicated runs: P_A
and P_B come from the (A, B) run, the primed marginals from the (A', B')
run.  Within one run the marginal and joint estimates share trials and are
therefore correlated, so the CH standard error takes the exact multinomial
variance of P_A + P_B - P_AB over the (A, B) run's trials and adds the
independent binomial variances of the other three joints (the four pair
runs use disjoint streams).  Both variances are plug-in estimates from the
observed counts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .analytic import multiwindow_table, standard_table, union_coincidence_table
from .detector import COUNT_KEYS, DetectorParams, WindowScheme, run_trials
from .errors import _count, _instance, _member, _positive
from .inequalities import DEFAULT_QUAD, AngleQuad, CHBreakdown, ProbabilityTable, ch_value
from .source import PHASE_MODES

__all__ = [
    "CHUNK_TRIALS",
    "RNG_CONTRACT",
    "ComparisonReport",
    "ComparisonRow",
    "EstimateWithCI",
    "EstimatedTable",
    "RunConfig",
    "compare_to_analytic",
    "estimate_table",
]

#: Trials per RNG chunk; fixed so the chunk grid (hence every random number)
#: does not depend on the worker count.
CHUNK_TRIALS = 1 << 16

#: Version of the documented draw order (the chunk seeding above plus the
#: order in :func:`bellsim.detector.run_trials`).  Seeded results change
#: between versions only when this number changes.  History:
#: 1, the original kernel (Philox, every value of a trial drawn);
#: 2, the lean draw order (Philox, only the values a trial uses);
#: 3, contract 2's draw order from SFC64 instead of Philox;
#: 4, contract 3 with each cross-half channel one Bernoulli(P_X*P_Y) uniform
#: batch in place of two fresh-field shots.
RNG_CONTRACT = 4

_Z_LIMIT = 5.0


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one Monte Carlo run."""

    k: float
    quad: AngleQuad = DEFAULT_QUAD
    scheme: WindowScheme = WindowScheme.SINGLE
    n_trials: int = 100_000
    seed: int = 0
    phase_mode: str = "suppressed"
    workers: int = 1

    def __post_init__(self) -> None:
        _positive("k", self.k)
        _instance("quad", self.quad, AngleQuad)
        object.__setattr__(self, "scheme", WindowScheme(self.scheme))
        for name, minimum in (("n_trials", 1), ("workers", 1), ("seed", 0)):
            _count(name, getattr(self, name), minimum)
        _member("phase_mode", self.phase_mode, PHASE_MODES)


@dataclass(frozen=True)
class EstimateWithCI:
    """A frequency estimate with its binomial standard error."""

    value: float
    std_error: float
    n: int
    count: int

    @classmethod
    def from_count(cls, count: int, n: int) -> "EstimateWithCI":
        value = count / n
        return cls(
            value=value,
            std_error=math.sqrt(value * (1.0 - value) / n),
            n=n,
            count=count,
        )


# Setting pairs in fixed order; index doubles as the RNG spawn key component.
_PAIRS = ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")


def _pair_angles(quad: AngleQuad) -> tuple[tuple[float, float], ...]:
    return (
        (quad.a, quad.b),
        (quad.a, quad.b_prime),
        (quad.a_prime, quad.b),
        (quad.a_prime, quad.b_prime),
    )


@dataclass(frozen=True)
class EstimatedTable:
    """Estimated CH table with error bars and the run's raw counts.

    ``p_ab`` etc. are the pairing-channel coincidences (identical to the
    Boolean flag in the single-window scheme); for the split-window scheme
    ``union_joints`` additionally holds the Boolean-union coincidence
    estimates, which obey joint <= marginal and have their own closed form.
    ``conditional_b_given_a`` is the measured P(Bob | Alice) at the (A, B)
    pair, reported for inspection of the half-window algebra's q.
    """

    config: RunConfig
    p_a: EstimateWithCI
    p_b: EstimateWithCI
    p_ab: EstimateWithCI
    p_ab_prime: EstimateWithCI
    p_a_prime_b: EstimateWithCI
    p_a_prime_b_prime: EstimateWithCI
    p_a_prime: EstimateWithCI
    p_b_prime: EstimateWithCI
    ch: CHBreakdown
    ch_std_error: float
    union_joints: dict[str, EstimateWithCI] = field(default_factory=dict)
    conditional_b_given_a: float | None = None

    def entry_estimates(self) -> dict[str, EstimateWithCI]:
        return {f.name: getattr(self, f.name) for f in fields(ProbabilityTable)}

    def to_probability_table(self) -> ProbabilityTable:
        return ProbabilityTable(
            **{name: est.value for name, est in self.entry_estimates().items()}
        )


def _chunk_sizes(n: int) -> list[int]:
    sizes = [CHUNK_TRIALS] * (n // CHUNK_TRIALS)
    if n % CHUNK_TRIALS:
        sizes.append(n % CHUNK_TRIALS)
    return sizes


def _run_chunk(cfg: RunConfig, pair_idx: int, chunk_idx: int, size: int) -> dict[str, int]:
    ss = np.random.SeedSequence(cfg.seed, spawn_key=(pair_idx, chunk_idx))
    rng = np.random.Generator(np.random.SFC64(ss))
    theta, phi = _pair_angles(cfg.quad)[pair_idx]
    return run_trials(
        DetectorParams(cfg.k), cfg.scheme, theta, phi, rng, size,
        phase_mode=cfg.phase_mode,
    )


def estimate_table(cfg: RunConfig) -> EstimatedTable:
    """Estimate the CH probability table for one configuration.

    Runs ``cfg.n_trials`` trials for each of the four setting pairs and
    assembles marginals, joints, the CH breakdown and its standard error
    (see the module docstring).  Bit-identical for fixed (cfg minus workers).
    """
    # Imported here, so that only a run, not every import, loads the pool.
    from concurrent.futures import ThreadPoolExecutor

    sizes = _chunk_sizes(cfg.n_trials)
    tasks = [
        (pair_idx, chunk_idx, size)
        for pair_idx in range(4)
        for chunk_idx, size in enumerate(sizes)
    ]

    def run(task: tuple[int, int, int]) -> tuple[int, dict[str, int]]:
        pair_idx, chunk_idx, size = task
        return pair_idx, _run_chunk(cfg, pair_idx, chunk_idx, size)

    totals: list[dict[str, int]] = [dict.fromkeys(COUNT_KEYS, 0) for _ in range(4)]
    # A pool even for one worker: a pool thread's malloc arena keeps the chunk temporaries.
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        for pair_idx, counts in pool.map(run, tasks):
            for key, value in counts.items():
                totals[pair_idx][key] += value

    n = cfg.n_trials

    def est(count: int) -> EstimateWithCI:
        return EstimateWithCI.from_count(count, n)

    entries = {
        "p_a": est(totals[0]["any_alice"]),
        "p_b": est(totals[0]["any_bob"]),
        **{
            f"p_{name}": est(totals[i]["any_paired_coincidence"])
            for i, name in enumerate(_PAIRS)
        },
        "p_a_prime": est(totals[3]["any_alice"]),
        "p_b_prime": est(totals[3]["any_bob"]),
    }
    return EstimatedTable(
        config=cfg,
        **entries,
        ch=ch_value(ProbabilityTable(**{name: e.value for name, e in entries.items()})),
        ch_std_error=_ch_std_error(totals, n),
        union_joints={
            name: est(totals[i]["any_coincidence"]) for i, name in enumerate(_PAIRS)
        }
        if cfg.scheme is WindowScheme.HALVES
        else {},
        conditional_b_given_a=(
            totals[0]["any_coincidence"] / totals[0]["any_alice"]
            if totals[0]["any_alice"]
            else None
        ),
    )


def _ch_std_error(totals: list[dict[str, int]], n: int) -> float:
    """Standard error of CH = (P_A + P_B - P_AB) - P_AB' - P_A'B + P_A'B'.

    Per (A, B) trial z = a + b - c with indicators a, b (Alice, Bob fired)
    and c (paired coincidence), so z^2 = a + b + c + 2ab - 2ac - 2bc.  The
    variance of the mean of z is (n*sum(z^2) - sum(z)^2) / n^3, kept in
    exact integers so it is never negative; a binomial count m adds
    (n*m - m^2) / n^3.
    """
    t = totals[0]
    a, b, c = t["any_alice"], t["any_bob"], t["any_paired_coincidence"]
    sum_z = a + b - c
    sum_z2 = a + b + c + 2 * (t["any_coincidence"] - t["paired_and_alice"] - t["paired_and_bob"])
    scaled = n * sum_z2 - sum_z**2
    for other in totals[1:]:
        m = other["any_paired_coincidence"]
        scaled += n * m - m * m
    return math.sqrt(scaled / n**3)


@dataclass(frozen=True)
class ComparisonRow:
    """One estimate next to its closed-form value."""

    name: str
    estimate: float
    expected: float
    std_error: float
    z: float


@dataclass(frozen=True)
class ComparisonReport:
    """Monte Carlo vs closed forms, with per-entry z-scores.

    ``passed`` is True when every row has |z| <= ``z_limit``.  For the
    split-window scheme the pairing-law entries are compared against the
    exact split-window table and the union-law entries against their own
    closed form; ``monotonicity_violations`` lists estimated pairing-law
    joints that exceed a marginal (expected at large k, recorded not
    rejected).
    """

    config: RunConfig
    analytic_k: float
    rows: tuple[ComparisonRow, ...]
    max_abs_z: float
    z_limit: float
    passed: bool
    monotonicity_violations: tuple[str, ...]
    estimated: EstimatedTable

    def summary_lines(self) -> list[str]:
        lines = [
            f"scheme={self.config.scheme.value} k={self.config.k:g} "
            f"n={self.config.n_trials} seed={self.config.seed} "
            f"analytic_k={self.analytic_k:g}"
        ]
        for row in self.rows:
            lines.append(
                f"  {row.name:28s} est={row.estimate:.6f} "
                f"expected={row.expected:.6f} z={row.z:+.2f}"
            )
        lines.append(
            f"  max|z|={self.max_abs_z:.2f} limit={self.z_limit:g} "
            f"passed={self.passed}"
        )
        return lines


def _z_score(estimate: EstimateWithCI, expected: float) -> float:
    if estimate.std_error == 0.0:
        if estimate.value == expected:
            return 0.0
        return math.inf if estimate.value > expected else -math.inf
    return (estimate.value - expected) / estimate.std_error


def compare_to_analytic(cfg: RunConfig, analytic_k: float | None = None) -> ComparisonReport:
    """Run an estimate and score it against the closed forms.

    ``analytic_k`` overrides the k used on the closed-form side; passing a
    mismatched value is the negative control (the report must then fail).
    Comparisons assume suppressed phases: with ``phase_mode="sampled"`` the
    closed forms no longer describe the simulation and the z-scores measure
    the size of the phase cross-term effect instead.  ``analytic_k`` is
    checked before any trial runs.
    """
    k_ref = cfg.k if analytic_k is None else _positive("analytic_k", analytic_k)
    estimated = estimate_table(cfg)

    if cfg.scheme is WindowScheme.SINGLE:
        reference = standard_table(k_ref, cfg.quad)
    else:
        reference = multiwindow_table(k_ref, cfg.quad)
    groups = [("", estimated.entry_estimates(), asdict(reference))]
    if cfg.scheme is WindowScheme.HALVES:
        union_ref = union_coincidence_table(k_ref, cfg.quad)
        groups.append((
            "union_",
            estimated.union_joints,
            {name: getattr(union_ref, f"p_{name}") for name in _PAIRS},
        ))
    rows = tuple(
        ComparisonRow(
            name=prefix + name,
            estimate=est.value,
            expected=expected[name],
            std_error=est.std_error,
            z=_z_score(est, expected[name]),
        )
        for prefix, estimates, expected in groups
        for name, est in estimates.items()
    )

    max_abs_z = max(abs(row.z) for row in rows)
    return ComparisonReport(
        config=cfg,
        analytic_k=k_ref,
        rows=rows,
        max_abs_z=max_abs_z,
        z_limit=_Z_LIMIT,
        passed=max_abs_z <= _Z_LIMIT,
        monotonicity_violations=tuple(
            estimated.to_probability_table().monotonicity_violations()
        ),
        estimated=estimated,
    )
