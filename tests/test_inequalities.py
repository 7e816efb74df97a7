"""CH/CHSH functionals, discrete LHV models, and the pointwise inequality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.errors import InvalidInputError, ModelInvalidError
from bellsim.inequalities import (
    DEFAULT_QUAD,
    AngleQuad,
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

probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def table_from(values, with_primes=True):
    p_a, p_b, p_ab, p_ab_prime, p_a_prime_b, p_a_prime_b_prime, *rest = values
    primes = {}
    if with_primes:
        primes = {"p_a_prime": rest[0], "p_b_prime": rest[1]}
    return ProbabilityTable(
        p_a=p_a, p_b=p_b, p_ab=p_ab, p_ab_prime=p_ab_prime,
        p_a_prime_b=p_a_prime_b, p_a_prime_b_prime=p_a_prime_b_prime, **primes,
    )


def random_lhv_table(rng):
    return eval_discrete_lhv(random_discrete_model(rng))


class TestAngleQuad:
    def test_default_values(self):
        assert DEFAULT_QUAD == AngleQuad(math.pi / 6, math.pi / 3, 0.0, math.pi / 2)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            AngleQuad(math.nan, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            AngleQuad(0.0, math.inf, 0.0, 0.0)


class TestProbabilityTable:
    def test_validate_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            table_from([1.2, 0, 0, 0, 0, 0], with_primes=False).validate()
        with pytest.raises(InvalidInputError):
            table_from([0, -0.1, 0, 0, 0, 0], with_primes=False).validate()
        with pytest.raises(InvalidInputError):
            table_from([0, 0, math.nan, 0, 0, 0], with_primes=False).validate()

    def test_monotonicity_violations_flagged_not_raised(self):
        t = table_from([0.5, 0.5, 0.7, 0.1, 0.1, 0.1, 0.5, 0.5])
        t.validate()  # joint > marginal is legal input ...
        assert t.monotonicity_violations() == ["p_ab"]  # ... but is reported

    def test_monotonicity_clean_table(self):
        t = table_from([0.5, 0.5, 0.25, 0.25, 0.25, 0.25, 0.5, 0.5])
        assert t.monotonicity_violations() == []

    def test_monotonicity_skips_missing_marginals(self):
        t = table_from([0.5, 0.5, 0.2, 0.9, 0.2, 0.2], with_primes=False)
        # p_ab_prime = 0.9 > p_a would need p_b_prime to be bounded too, but
        # only the supplied marginal (p_a = 0.5) is checked.
        assert t.monotonicity_violations() == ["p_ab_prime"]


class TestChValue:
    def test_all_zero_table(self):
        assert ch_value(table_from([0, 0, 0, 0, 0, 0], with_primes=False)).ch == 0.0

    def test_saturated_deterministic_table(self):
        assert ch_value(table_from([1, 1, 1, 1, 1, 1], with_primes=False)).ch == 0.0

    def test_split_window_table_at_strong_response(self):
        # The inflated-joint table that drives CH negative (full table is
        # checked in test_analytic; here only the functional itself).
        t = table_from(
            [0.984375, 0.984375, 0.9975775146484375, 0.992775, 0.992775, 0.98320384],
            with_primes=False,
        )
        b = ch_value(t)
        assert b.ch == pytest.approx(-0.0312, abs=5e-5)
        assert b.ch == b.p_s - b.p_c
        assert b.p_s == t.p_a + t.p_b

    def test_rejects_invalid_entries(self):
        with pytest.raises(InvalidInputError):
            ch_value(table_from([2, 0, 0, 0, 0, 0], with_primes=False))

    @given(st.lists(probability, min_size=6, max_size=6))
    def test_breakdown_recombines_exactly(self, values):
        b = ch_value(table_from(values, with_primes=False))
        assert b.ch == b.p_s - b.p_c

    @given(
        st.lists(probability, min_size=6, max_size=6),
        st.integers(min_value=0, max_value=5),
        probability,
        probability,
    )
    def test_affine_in_each_entry(self, values, index, lo, hi):
        """CH is affine in every table entry: midpoint in, midpoint out."""
        names = ["p_a", "p_b", "p_ab", "p_ab_prime", "p_a_prime_b", "p_a_prime_b_prime"]

        def ch_with(entry_value):
            vals = list(values)
            vals[index] = entry_value
            return ch_value(table_from(vals, with_primes=False)).ch

        mid = ch_with((lo + hi) / 2.0)
        assert mid == pytest.approx((ch_with(lo) + ch_with(hi)) / 2.0, abs=1e-12), names[index]

    @given(st.lists(probability, min_size=6, max_size=6))
    def test_party_swap_symmetry(self, values):
        """Swapping Alice and Bob (with their settings) leaves CH unchanged."""
        p_a, p_b, p_ab, p_ab_prime, p_a_prime_b, p_a_prime_b_prime = values
        swapped = [p_b, p_a, p_ab, p_a_prime_b, p_ab_prime, p_a_prime_b_prime]
        assert ch_value(table_from(values, with_primes=False)).ch == pytest.approx(
            ch_value(table_from(swapped, with_primes=False)).ch, abs=1e-12
        )


class TestChshValue:
    def test_zero_correlators(self):
        assert chsh_value(CorrelatorSet(0, 0, 0, 0)) == 0.0

    def test_algebraic_maximum(self):
        assert chsh_value(CorrelatorSet(1, 1, 1, -1)) == 4.0

    def test_deterministic_boundary(self):
        # All detection indicators 1: every probability is 1, CHSH sits on
        # the local bound 2.
        t = table_from([1, 1, 1, 1, 1, 1, 1, 1])
        assert chsh_value(ch_to_chsh(t)) == 2.0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            CorrelatorSet(math.nan, 0, 0, 0)

    def test_range_violations_reported(self):
        c = CorrelatorSet(1.05, 0.0, -1.0, 0.3)
        assert c.range_violations() == ["e11 = 1.05 outside [-1, 1]"]
        assert CorrelatorSet(1.0, -1.0, 0.0, 0.5).range_violations() == []


class TestChToChsh:
    def test_all_zero_table_maps_to_unit_correlators(self):
        c = ch_to_chsh(table_from([0, 0, 0, 0, 0, 0, 0, 0]))
        assert (c.e11, c.e12, c.e21, c.e22) == (1.0, 1.0, 1.0, 1.0)
        assert chsh_value(c) == 2.0

    def test_product_table_with_ch_half(self):
        # Independent 50% detections: CH = 0.5, correlators all vanish, and
        # the identity gives CHSH = 2 - 4*0.5 = 0.
        t = table_from([0.5, 0.5, 0.25, 0.25, 0.25, 0.25, 0.5, 0.5])
        assert ch_value(t).ch == pytest.approx(0.5, abs=1e-15)
        c = ch_to_chsh(t)
        assert (c.e11, c.e12, c.e21, c.e22) == (0.0, 0.0, 0.0, 0.0)
        assert chsh_value(c) == 0.0

    def test_missing_marginals_rejected(self):
        with pytest.raises(InvalidInputError, match="marginal"):
            ch_to_chsh(table_from([0.5, 0.5, 0.25, 0.25, 0.25, 0.25], with_primes=False))

    def test_identity_on_spot_values(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))
        for _ in range(50):
            t = random_lhv_table(rng)
            resid = chsh_value(ch_to_chsh(t)) - (2.0 - 4.0 * ch_value(t).ch)
            assert abs(resid) <= 1e-12

    @given(st.lists(probability, min_size=8, max_size=8))
    def test_identity_holds_for_any_table(self, values):
        """The change of variables is algebra; it holds even for tables no
        local model could produce."""
        t = table_from(values)
        resid = chsh_value(ch_to_chsh(t)) - (2.0 - 4.0 * ch_value(t).ch)
        assert abs(resid) <= 1e-12

    def test_lhv_tables_map_into_correlator_range(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
        for _ in range(200):
            assert ch_to_chsh(random_lhv_table(rng)).range_violations() == []


class TestDiscreteLHVModel:
    def test_point_model_all_ones(self):
        m = DiscreteLHVModel(weights=[1.0], response_a=[[1.0, 1.0]], response_b=[[1.0, 1.0]])
        t = eval_discrete_lhv(m)
        assert all(v == 1.0 for v in t.entries().values())
        assert t.p_a_prime == 1.0 and t.p_b_prime == 1.0

    def test_point_model_all_zeros(self):
        m = DiscreteLHVModel(weights=[1.0], response_a=[[0.0, 0.0]], response_b=[[0.0, 0.0]])
        t = eval_discrete_lhv(m)
        assert all(v == 0.0 for v in t.entries().values())

    def test_two_state_mixture(self):
        # Perfectly correlated on/off halves: every probability is 0.5.
        m = DiscreteLHVModel(
            weights=[0.5, 0.5],
            response_a=[[1.0, 1.0], [0.0, 0.0]],
            response_b=[[1.0, 1.0], [0.0, 0.0]],
        )
        t = eval_discrete_lhv(m)
        assert all(v == 0.5 for v in t.entries().values())

    def test_weight_sum_enforced(self):
        with pytest.raises(ModelInvalidError, match="sum to 1"):
            DiscreteLHVModel(weights=[0.6, 0.5], response_a=[[0.1], [0.2]],
                             response_b=[[0.3], [0.4]])

    def test_response_range_enforced(self):
        with pytest.raises(ModelInvalidError, match=r"\[0, 1\]"):
            DiscreteLHVModel(weights=[1.0], response_a=[[1.3]], response_b=[[0.5]])
        with pytest.raises(ModelInvalidError):
            DiscreteLHVModel(weights=[1.0], response_a=[[-0.1]], response_b=[[0.5]])

    def test_negative_weight_rejected(self):
        with pytest.raises(ModelInvalidError, match="non-negative"):
            DiscreteLHVModel(weights=[1.5, -0.5], response_a=[[0.1], [0.2]],
                             response_b=[[0.3], [0.4]])

    @pytest.mark.parametrize("weights, response_a, response_b, message", [
        ([math.nan, 1.0], [[0.1], [0.2]], [[0.3], [0.4]], "finite"),
        ([math.inf, 0.0], [[0.1], [0.2]], [[0.3], [0.4]], "finite"),
        ([-math.inf, 1.0], [[0.1], [0.2]], [[0.3], [0.4]], "finite"),
        ([0.5, 0.5], [[math.nan], [0.2]], [[0.3], [0.4]], "finite"),
        ([0.5, 0.5], [[0.1], [math.inf]], [[0.3], [0.4]], "finite"),
        ([0.5, 0.5], [[0.1], [-math.inf]], [[0.3], [0.4]], "finite"),
        ([0.5, 0.5], [[0.1], [0.2]], [[math.nan], [0.4]], "finite"),
        ([0.5, 0.5], [[0.1], [0.2]], [[0.3], [math.inf]], "finite"),
        ([0.5, 0.5], [[0.1], [0.2]], [[-math.inf], [0.4]], "finite"),
        ([0.5, 0.5], [[0.1], [0.2]], [[0.3], [-0.1]], r"\[0, 1\]"),
        ([0.5, 0.5], [[0.1], [0.2]], [[1.3], [0.4]], r"\[0, 1\]"),
        ([1.2, -0.2], [[0.1], [0.2]], [[0.3], [0.4]], "non-negative"),
        ([0.5, 0.5 + 1e-9], [[0.1], [0.2]], [[0.3], [0.4]], "sum to 1"),
        # When several checks fail, the earlier one wins.
        ([-0.5, 1.5], [[0.1], [0.2]], [[0.3], [math.nan]], "finite"),
        ([-0.5, 1.5], [[0.1], [0.2]], [[1.3], [0.4]], "non-negative"),
        ([0.6, 0.5], [[0.1], [0.2]], [[1.3], [0.4]], "sum to 1"),
    ])
    def test_every_rejection(self, weights, response_a, response_b, message):
        with pytest.raises(ModelInvalidError, match=message):
            DiscreteLHVModel(weights=weights, response_a=response_a, response_b=response_b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelInvalidError):
            DiscreteLHVModel(weights=[1.0], response_a=[[0.1], [0.2]], response_b=[[0.3]])

    def test_bad_setting_index_rejected(self):
        m = DiscreteLHVModel(weights=[1.0], response_a=[[0.5, 0.5]], response_b=[[0.5, 0.5]])
        with pytest.raises(InvalidInputError, match="setting index"):
            eval_discrete_lhv(m, settings=(0, 0, 2, 1))

    def test_matches_bruteforce_enumeration(self):
        """The vectorized evaluator agrees with an explicit loop."""
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5150)))
        for _ in range(25):
            m = random_discrete_model(rng, n_states=int(rng.integers(1, 12)))
            t = eval_discrete_lhv(m)
            p_ab = sum(
                w * m.response_a[i, 0] * m.response_b[i, 0]
                for i, w in enumerate(m.weights)
            )
            p_a = sum(w * m.response_a[i, 0] for i, w in enumerate(m.weights))
            assert t.p_ab == pytest.approx(p_ab, abs=1e-14)
            assert t.p_a == pytest.approx(p_a, abs=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_ch_never_negative_for_random_models(self, seed):
        """Bell's theorem, enumeration form (larger sweep in the acceptance
        suite)."""
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        t = random_lhv_table(rng)
        assert ch_value(t).ch >= -1e-12

    def test_random_model_deterministic_under_seed(self):
        a = random_discrete_model(np.random.Generator(np.random.Philox(np.random.SeedSequence(3))))
        b = random_discrete_model(np.random.Generator(np.random.Philox(np.random.SeedSequence(3))))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.response_a, b.response_a)

    def test_random_model_weights_sum_to_one(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
        for _ in range(100):
            total = float(random_discrete_model(rng).weights.sum())
            assert abs(total - 1.0) <= 1e-12


class TestRandomDiscreteModel:
    @pytest.mark.parametrize("max_states", [0, -3])
    def test_rejects_max_states_below_one(self, max_states):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
        with pytest.raises(InvalidInputError, match="max_states"):
            random_discrete_model(rng, max_states=max_states)

    def test_rejects_negative_setting_count(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
        with pytest.raises(InvalidInputError, match="setting counts"):
            random_discrete_model(rng, n_states=3, n_settings_a=-1, n_settings_b=3)

    @pytest.mark.parametrize("n_states, n_a, n_b, max_states", [
        (None, 2, 2, 64), (None, 3, 1, 5), (4, 2, 2, 64), (1, 1, 4, 64), (6, 5, 3, 64),
    ])
    def test_single_draw_replays_three_draws(self, n_states, n_a, n_b, max_states):
        """One rng.random call is the same stream as random(n),
        random((n, a)), random((n, b)) in that order."""
        new = np.random.Generator(np.random.Philox(np.random.SeedSequence(31)))
        old = np.random.Generator(np.random.Philox(np.random.SeedSequence(31)))
        for _ in range(20):
            m = random_discrete_model(new, n_states=n_states, n_settings_a=n_a,
                                      n_settings_b=n_b, max_states=max_states)
            n = n_states if n_states is not None else int(old.integers(1, max_states + 1))
            raw = old.random(n) + 1e-12
            weights = raw / raw.sum()
            weights[np.argmax(weights)] += 1.0 - weights.sum()
            assert np.array_equal(m.weights, weights)
            assert np.array_equal(m.response_a, old.random((n, n_a)))
            assert np.array_equal(m.response_b, old.random((n, n_b)))
        assert np.array_equal(new.random(8), old.random(8))


class TestBatchedCH:
    def test_matches_exact_path_for_every_state_count(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(64)))
        models = [random_discrete_model(rng, n_states=n) for n in range(1, 65) for _ in range(4)]
        screened = batched_ch(models)
        assert screened.shape == (len(models),)
        for m, ch in zip(models, screened):
            assert abs(ch - ch_value(eval_discrete_lhv(m)).ch) <= 1e-13

    def test_uses_first_two_columns(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(65)))
        models = [random_discrete_model(rng, n_states=5, n_settings_a=3, n_settings_b=4),
                  random_discrete_model(rng, n_states=2)]
        for m, ch in zip(models, batched_ch(models)):
            assert abs(ch - ch_value(eval_discrete_lhv(m)).ch) <= 1e-13

    def test_rejections(self):
        with pytest.raises(InvalidInputError, match="at least one model"):
            batched_ch([])
        one_column = DiscreteLHVModel(weights=[1.0], response_a=[[0.5]], response_b=[[0.5, 0.5]])
        with pytest.raises(InvalidInputError, match="two setting columns"):
            batched_ch([one_column])


class TestPointwiseInequality:
    def test_all_sixteen_cases_nonnegative(self):
        report = pointwise_ch_inequality_check()
        assert len(report.cases) == 16
        assert report.all_nonnegative
        assert report.min_slack == 0

    def test_specific_cases(self):
        by_assignment = {
            (c.theta1, c.phi1, c.theta2, c.phi2): c
            for c in pointwise_ch_inequality_check().cases
        }
        zero = by_assignment[(0, 0, 0, 0)]
        assert (zero.lhs, zero.rhs, zero.slack) == (0, 0, 0)
        ones = by_assignment[(1, 1, 1, 1)]
        assert (ones.lhs, ones.rhs, ones.slack) == (3, 3, 0)
        mixed = by_assignment[(1, 0, 0, 1)]
        assert (mixed.lhs, mixed.rhs, mixed.slack) == (1, 1, 0)

    def test_slacks_are_exact_integers(self):
        for case in pointwise_ch_inequality_check().cases:
            assert isinstance(case.slack, int)
            assert case.slack >= 0
