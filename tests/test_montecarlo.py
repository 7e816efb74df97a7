"""Monte Carlo estimation engine: determinism, error bars, and agreement
with the closed forms."""

import math
import statistics

import numpy as np
import pytest

from bellsim.detector import DetectorParams, WindowScheme, run_trials
from bellsim.errors import InvalidInputError
from bellsim.inequalities import ch_value
from bellsim.montecarlo import (
    CHUNK_TRIALS,
    RNG_CONTRACT,
    ComparisonReport,
    EstimateWithCI,
    RunConfig,
    _ch_std_error,
    _run_chunk,
    _z_score,
    compare_to_analytic,
    estimate_table,
)
from bellsim.analytic import multiwindow_table, union_coincidence_table


@pytest.fixture(scope="module")
def single_report():
    return compare_to_analytic(RunConfig(k=1.0, seed=7, n_trials=100_000))


@pytest.fixture(scope="module")
def halves_report():
    return compare_to_analytic(
        RunConfig(k=4.0, scheme=WindowScheme.HALVES, seed=42, n_trials=100_000)
    )


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(k=1.0)
        assert cfg.scheme is WindowScheme.SINGLE
        assert cfg.n_trials == 100_000
        assert cfg.phase_mode == "suppressed"
        assert cfg.workers == 1

    def test_scheme_coerced_from_string(self):
        assert RunConfig(k=1.0, scheme="halves").scheme is WindowScheme.HALVES

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            RunConfig(k=0.0)
        with pytest.raises(InvalidInputError):
            RunConfig(k=1.0, n_trials=0)
        with pytest.raises(InvalidInputError):
            RunConfig(k=1.0, workers=0)
        with pytest.raises(InvalidInputError):
            RunConfig(k=1.0, phase_mode="nope")
        with pytest.raises(InvalidInputError):
            RunConfig(k=1.0, seed=-1)
        with pytest.raises(ValueError):
            RunConfig(k=1.0, scheme="diagonal")

    @pytest.mark.parametrize("name", ["seed", "n_trials", "workers"])
    def test_rejects_bools_and_non_integers(self, name):
        """bool is an int subclass, so True would otherwise pass as 1."""
        for bad in (True, False, 2.0, "3"):
            with pytest.raises(InvalidInputError, match=name):
                RunConfig(k=1.0, **{name: bad})

    def test_accepts_numpy_integers(self):
        cfg = RunConfig(k=1.0, seed=np.int64(3), n_trials=np.int32(10), workers=np.uint8(2))
        assert (cfg.seed, cfg.n_trials, cfg.workers) == (3, 10, 2)


class TestEstimateWithCI:
    def test_from_count(self):
        e = EstimateWithCI.from_count(25, 100)
        assert e.value == 0.25
        assert e.std_error == pytest.approx(math.sqrt(0.25 * 0.75 / 100), abs=1e-15)
        assert (e.n, e.count) == (100, 25)

    def test_degenerate_counts(self):
        assert EstimateWithCI.from_count(0, 50).std_error == 0.0
        assert EstimateWithCI.from_count(50, 50).std_error == 0.0


class TestZScore:
    """A count of 0 or n has no binomial spread: the estimate either equals
    the expected value or lies infinitely many standard errors from it."""

    @pytest.mark.parametrize("count, expected, z", [
        (0, 0.0, 0.0),
        (50, 1.0, 0.0),
        (0, 1e-9, -math.inf),
        (50, 0.5, math.inf),
    ])
    def test_zero_standard_error(self, count, expected, z):
        estimate = EstimateWithCI.from_count(count, 50)
        assert estimate.std_error == 0.0
        assert _z_score(estimate, expected) == z


class TestEstimateTable:
    def test_deterministic_under_seed(self):
        cfg = RunConfig(k=2.0, seed=123, n_trials=30_000)
        a = estimate_table(cfg)
        b = estimate_table(cfg)
        assert a.entry_estimates() == b.entry_estimates()
        assert a.ch == b.ch

    def test_worker_count_does_not_change_results(self):
        """Chunked counting with per-chunk seeding: the counts are exact
        integers, so any worker count gives bit-identical output."""
        base = None
        # n spans three full chunks plus a remainder, so scheduling differs
        # genuinely between worker counts.
        n = 3 * CHUNK_TRIALS + 4321
        for workers in (1, 2, 8):
            cfg = RunConfig(k=4.0, scheme="halves", seed=99, n_trials=n,
                            workers=workers)
            table = estimate_table(cfg)
            snapshot = (
                {k: (v.count, v.n) for k, v in table.entry_estimates().items()},
                {k: (v.count, v.n) for k, v in table.union_joints.items()},
                table.ch,
                table.ch_std_error,
            )
            if base is None:
                base = snapshot
            else:
                assert snapshot == base, f"workers={workers} diverged"

    @pytest.mark.parametrize("n", [1, 7, CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1])
    def test_chunk_boundary_sizes(self, n):
        table = estimate_table(RunConfig(k=1.0, seed=5, n_trials=n))
        for est in table.entry_estimates().values():
            assert est.n == n
            assert 0 <= est.count <= n

    def test_union_joints_only_for_halves(self):
        single = estimate_table(RunConfig(k=1.0, seed=1, n_trials=2000))
        halves = estimate_table(RunConfig(k=1.0, scheme="halves", seed=1, n_trials=2000))
        assert single.union_joints == {}
        assert set(halves.union_joints) == {
            "ab", "ab_prime", "a_prime_b", "a_prime_b_prime",
        }

    def test_ch_breakdown_consistency(self):
        table = estimate_table(RunConfig(k=4.0, scheme="halves", seed=2, n_trials=50_000))
        assert table.ch.ch == pytest.approx(table.ch.p_s - table.ch.p_c, abs=1e-15)
        assert table.ch_std_error > 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [0.1, 4.0])
    @pytest.mark.parametrize("scheme", ["single", "halves"])
    def test_ch_is_ch_value_of_the_table(self, scheme, k, seed):
        table = estimate_table(RunConfig(k=k, scheme=scheme, seed=seed, n_trials=5000))
        expected = ch_value(table.to_probability_table())
        assert (table.ch.p_s, table.ch.p_c, table.ch.ch) == (
            expected.p_s, expected.p_c, expected.ch
        )

    def test_conditional_detection_probability(self):
        """P(Bob | Alice) at the (A, B) pair approaches its closed-form
        value union_P_AB / P_A."""
        cfg = RunConfig(k=4.0, scheme="halves", seed=11, n_trials=200_000)
        table = estimate_table(cfg)
        expected = union_coincidence_table(4.0).p_ab / multiwindow_table(4.0).p_a
        assert table.conditional_b_given_a == pytest.approx(expected, abs=0.005)
        assert 0.0 <= table.conditional_b_given_a <= 1.0

    def test_single_window_std_error_formula(self):
        """On the single window the paired coincidence is a & b, so
        P_A + P_B - P_AB is the frequency of a | b: its variance is binomial,
        and the other three joints add their binomial variances."""
        n = 5000
        t = estimate_table(RunConfig(k=2.0, seed=8, n_trials=n))
        either = (t.p_a.count + t.p_b.count - t.p_ab.count) / n
        var = either * (1 - either) / n + sum(
            e.std_error**2 for e in (t.p_ab_prime, t.p_a_prime_b, t.p_a_prime_b_prime)
        )
        assert t.ch_std_error == pytest.approx(math.sqrt(var), rel=1e-12)

    def test_ch_std_error_is_exact_multinomial(self):
        """The SE from counts equals the directly computed variance of the
        per-trial CH contribution a + b - c of the (A, B) run plus the
        binomial variances of the other three joints, for correlated
        indicators of any kind."""
        rng = np.random.default_rng(4)
        n = 999
        shared = rng.random(n)
        a = shared < 0.6
        b = (shared + 0.3 * rng.random(n)) < 0.7
        c = (a & (rng.random(n) < 0.8)) | (rng.random(n) < 0.1)
        others = [rng.random(n) < p for p in (0.2, 0.5, 0.9)]
        totals = [{
            "any_alice": a.sum(), "any_bob": b.sum(), "any_coincidence": (a & b).sum(),
            "any_paired_coincidence": c.sum(), "paired_and_alice": (c & a).sum(),
            "paired_and_bob": (c & b).sum(),
        }] + [{"any_paired_coincidence": o.sum()} for o in others]
        totals = [{key: int(v) for key, v in t.items()} for t in totals]
        z = a.astype(int) + b.astype(int) - c.astype(int)
        var = z.var() / n + sum(o.var() / n for o in others)
        assert _ch_std_error(totals, n) == pytest.approx(math.sqrt(var), rel=1e-12)

    @pytest.mark.parametrize("scheme", ["single", "halves"])
    def test_ch_std_error_matches_spread(self, scheme):
        """Over seeds, the spread of CH matches the reported standard error
        (its root mean square, since at large k many runs report a near-zero
        plug-in SE).  Summing the component variances instead ignores the
        correlation of P_A, P_B and P_AB within the (A, B) run and gives a
        ratio of about 0.81 on the single window at k = 4."""
        reps, n = 400, 500
        for k in (0.1, 4.0, 20.0):
            tables = [
                estimate_table(RunConfig(k=k, scheme=scheme, seed=seed, n_trials=n))
                for seed in range(reps)
            ]
            sd = statistics.stdev(t.ch.ch for t in tables)
            se = math.sqrt(statistics.fmean(t.ch_std_error**2 for t in tables))
            assert sd / se == pytest.approx(1.0, abs=0.1), (scheme, k, sd, se)

    def test_to_probability_table_round_trip(self):
        table = estimate_table(RunConfig(k=1.0, seed=3, n_trials=5000))
        pt = table.to_probability_table()
        assert pt.p_ab == table.p_ab.value
        assert pt.p_b_prime == table.p_b_prime.value


class TestCompareToAnalytic:
    def test_single_scheme_agrees(self, single_report):
        assert isinstance(single_report, ComparisonReport)
        assert single_report.passed
        assert single_report.max_abs_z <= 5.0
        assert len(single_report.rows) == 8
        assert single_report.monotonicity_violations == ()

    def test_halves_scheme_agrees(self, halves_report):
        assert halves_report.passed
        assert halves_report.max_abs_z <= 5.0
        # 8 pairing-law rows + 4 union-law rows.
        assert len(halves_report.rows) == 12
        union_rows = [r for r in halves_report.rows if r.name.startswith("union_")]
        assert len(union_rows) == 4

    def test_halves_joints_overshoot_marginals(self, halves_report):
        """At k = 4 the estimated pairing-law joints exceed the marginals;
        the report records this rather than failing."""
        assert "p_ab" in halves_report.monotonicity_violations

    def test_negative_control_fails(self):
        """Scoring a k = 4 run against k = 2 closed forms must fail hard;
        if it does not, the z-scores are meaningless."""
        cfg = RunConfig(k=4.0, scheme="halves", seed=42, n_trials=100_000)
        report = compare_to_analytic(cfg, analytic_k=2.0)
        assert not report.passed
        assert report.max_abs_z > 50.0

    @pytest.mark.parametrize("analytic_k", [0.0, -1.0, math.nan, math.inf, "x", "2"])
    def test_bad_analytic_k_is_rejected_before_any_trial(self, monkeypatch, analytic_k):
        """``simulate --analytic-k 0`` used to run every trial first."""
        calls = []
        monkeypatch.setattr("bellsim.montecarlo.run_trials", lambda *a, **kw: calls.append(a))
        cfg = RunConfig(k=1.0, n_trials=1000)
        message = f"analytic_k must be positive and finite, got {analytic_k!r}"
        with pytest.raises(InvalidInputError) as exc:
            compare_to_analytic(cfg, analytic_k=analytic_k)
        assert (str(exc.value), calls) == (message, [])

    def test_summary_lines(self, single_report):
        lines = single_report.summary_lines()
        assert any("max|z|" in line for line in lines)
        assert any("passed=True" in line for line in lines)
        assert len(lines) == 1 + len(single_report.rows) + 1
        assert single_report.z_limit == 5.0


class TestRngContract:
    """Counts of chunk 2 of setting pair 1 (A, B'), 1000 trials, seed 2024,
    pinned per RNG contract.  A change to the draw order fails here and
    needs a new :data:`RNG_CONTRACT` with new pins."""

    PINNED = {
        2: {
            "single": (1.0, {
                "any_alice": 541, "any_bob": 532, "any_coincidence": 303,
                "any_paired_coincidence": 303, "paired_and_alice": 303,
                "paired_and_bob": 303,
            }),
            "halves": (4.0, {
                "any_alice": 988, "any_bob": 962, "any_coincidence": 951,
                "any_paired_coincidence": 997, "paired_and_alice": 985,
                "paired_and_bob": 961,
            }),
        },
        3: {
            "single": (1.0, {
                "any_alice": 528, "any_bob": 490, "any_coincidence": 280,
                "any_paired_coincidence": 280, "paired_and_alice": 280,
                "paired_and_bob": 280,
            }),
            "halves": (4.0, {
                "any_alice": 990, "any_bob": 962, "any_coincidence": 953,
                "any_paired_coincidence": 991, "paired_and_alice": 983,
                "paired_and_bob": 957,
            }),
        },
        4: {
            "single": (1.0, {
                "any_alice": 528, "any_bob": 490, "any_coincidence": 280,
                "any_paired_coincidence": 280, "paired_and_alice": 280,
                "paired_and_bob": 280,
            }),
            "halves": (4.0, {
                "any_alice": 990, "any_bob": 962, "any_coincidence": 953,
                "any_paired_coincidence": 995, "paired_and_alice": 985,
                "paired_and_bob": 960,
            }),
        },
    }

    @pytest.mark.parametrize("scheme", ["single", "halves"])
    def test_pinned_chunk_counts(self, scheme):
        assert RNG_CONTRACT in self.PINNED, "new RNG contract: pin its counts"
        k, expected = self.PINNED[RNG_CONTRACT][scheme]
        cfg = RunConfig(k=k, scheme=scheme, seed=2024)
        assert _run_chunk(cfg, 1, 2, 1000) == expected

    @pytest.mark.parametrize("scheme, k", [("single", 1.0), ("halves", 4.0)])
    @pytest.mark.parametrize("phase_mode", ["suppressed", "sampled"])
    def test_chunk_seeding_is_the_documented_one(self, scheme, k, phase_mode):
        """Chunk (p, c) runs the setting pair p on
        ``SFC64(SeedSequence(seed, spawn_key=(p, c)))``, whatever the pins."""
        cfg = RunConfig(k=k, scheme=scheme, seed=99, phase_mode=phase_mode)
        q = cfg.quad
        angles = [(q.a, q.b), (q.a, q.b_prime), (q.a_prime, q.b), (q.a_prime, q.b_prime)]
        for p, c in [(0, 0), (1, 2), (2, 7), (3, 1)]:
            ss = np.random.SeedSequence(cfg.seed, spawn_key=(p, c))
            rng = np.random.Generator(np.random.SFC64(ss))
            expected = run_trials(
                DetectorParams(k), scheme, *angles[p], rng, 500, phase_mode=phase_mode
            )
            assert _run_chunk(cfg, p, c, 500) == expected
