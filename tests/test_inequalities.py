"""CH/CHSH functionals, discrete LHV models, and the pointwise inequality."""

import copy
import math
import pickle
import re
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import inequalities
from bellsim.errors import InvalidInputError
from bellsim.inequalities import (
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

probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def table_from(values):
    """Table from the eight entries in field order: p_a, p_b, the four
    joints, p_a_prime, p_b_prime."""
    return ProbabilityTable(*values)


def random_lhv_table(rng):
    return eval_discrete_lhv(random_discrete_model(rng))


def model_with_states(rng, n):
    """A valid random model with exactly n hidden states."""
    raw = rng.random(n) + 1e-12
    weights = raw / raw.sum()
    weights[np.argmax(weights)] += 1.0 - weights.sum()
    return DiscreteLHVModel(
        weights=weights, response_a=rng.random((n, 2)), response_b=rng.random((n, 2))
    )


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
            table_from([1.2, 0, 0, 0, 0, 0, 0, 0]).validate()
        with pytest.raises(InvalidInputError):
            table_from([0, -0.1, 0, 0, 0, 0, 0, 0]).validate()
        with pytest.raises(InvalidInputError):
            table_from([0, 0, math.nan, 0, 0, 0, 0, 0]).validate()

    def test_monotonicity_violations_flagged_not_raised(self):
        t = table_from([0.5, 0.5, 0.7, 0.1, 0.1, 0.1, 0.5, 0.5])
        t.validate()  # joint > marginal is legal input ...
        assert t.monotonicity_violations() == ["p_ab"]  # ... but is reported

    def test_monotonicity_clean_table(self):
        t = table_from([0.5, 0.5, 0.25, 0.25, 0.25, 0.25, 0.5, 0.5])
        assert t.monotonicity_violations() == []


class TestChValue:
    def test_all_zero_table(self):
        assert ch_value(table_from([0, 0, 0, 0, 0, 0, 0, 0])).ch == 0.0

    def test_saturated_deterministic_table(self):
        assert ch_value(table_from([1, 1, 1, 1, 1, 1, 1, 1])).ch == 0.0

    def test_split_window_table_at_strong_response(self):
        # The inflated-joint table that drives CH negative (full table is
        # checked in test_analytic; here only the functional itself).
        t = table_from(
            [0.984375, 0.984375, 0.9975775146484375, 0.992775, 0.992775, 0.98320384,
             0.96, 0.96],
        )
        b = ch_value(t)
        assert b.ch == pytest.approx(-0.0312, abs=5e-5)
        assert b.ch == b.p_s - b.p_c
        assert b.p_s == t.p_a + t.p_b

    def test_rejects_invalid_entries(self):
        with pytest.raises(InvalidInputError):
            ch_value(table_from([2, 0, 0, 0, 0, 0, 0, 0]))

    @pytest.mark.parametrize("name", ["p_a_prime", "p_b_prime"])
    def test_missing_marginal_rejected(self, name):
        table = replace(table_from([0.5] * 8), **{name: None})
        with pytest.raises(InvalidInputError, match=f"{name} must be a real number, got None"):
            ch_value(table)

    @pytest.mark.parametrize("index", range(8))
    @pytest.mark.parametrize("bad", ["0.5", b"0.5", 0.5j, [0.5]])
    def test_non_numeric_entry_rejected(self, index, bad):
        values = [0.0] * 8
        values[index] = bad
        table = table_from(values)
        name = list(vars(table))[index]
        with pytest.raises(InvalidInputError, match=f"{name} must be a real number"):
            ch_value(table)

    @given(st.lists(probability, min_size=8, max_size=8))
    def test_breakdown_recombines_exactly(self, values):
        b = ch_value(table_from(values))
        assert b.ch == b.p_s - b.p_c

    @given(
        st.lists(probability, min_size=8, max_size=8),
        st.integers(min_value=0, max_value=7),
        probability,
        probability,
    )
    def test_affine_in_each_entry(self, values, index, lo, hi):
        """CH is affine in every table entry: midpoint in, midpoint out."""
        names = ["p_a", "p_b", "p_ab", "p_ab_prime", "p_a_prime_b", "p_a_prime_b_prime",
                 "p_a_prime", "p_b_prime"]

        def ch_with(entry_value):
            vals = list(values)
            vals[index] = entry_value
            return ch_value(table_from(vals)).ch

        mid = ch_with((lo + hi) / 2.0)
        assert mid == pytest.approx((ch_with(lo) + ch_with(hi)) / 2.0, abs=1e-12), names[index]

    @given(st.lists(probability, min_size=8, max_size=8))
    def test_party_swap_symmetry(self, values):
        """Swapping Alice and Bob (with their settings) leaves CH unchanged."""
        p_a, p_b, p_ab, p_ab_prime, p_a_prime_b, p_a_prime_b_prime, p_a_prime, p_b_prime = values
        swapped = [p_b, p_a, p_ab, p_a_prime_b, p_ab_prime, p_a_prime_b_prime, p_b_prime, p_a_prime]
        assert ch_value(table_from(values)).ch == pytest.approx(
            ch_value(table_from(swapped)).ch, abs=1e-12
        )


class TestPrivateConstructors:
    """``ProbabilityTable._new`` and ``CHBreakdown._of`` build the closed-form
    tables and every breakdown; what they build must be indistinguishable
    from what the public constructor builds."""

    @staticmethod
    def assert_same(fast, public):
        assert type(fast) is type(public)
        assert fast == public and hash(fast) == hash(public)
        assert repr(fast) == repr(public)
        assert asdict(fast) == asdict(public)
        assert list(vars(fast)) == list(vars(public)) == [f.name for f in fields(public)]
        assert pickle.dumps(fast) == pickle.dumps(public)
        for clone in (pickle.loads(pickle.dumps(fast)), copy.copy(fast), copy.deepcopy(fast)):
            assert type(clone) is type(public) and clone == public
            assert list(vars(clone)) == list(vars(public))
        name = next(iter(vars(fast)))
        with pytest.raises(FrozenInstanceError):
            setattr(fast, name, 0.5)
        with pytest.raises(FrozenInstanceError):
            delattr(fast, name)

    @given(st.lists(probability, min_size=8, max_size=8))
    def test_table(self, values):
        self.assert_same(ProbabilityTable._new(*values), ProbabilityTable(*values))

    @given(st.lists(probability, min_size=8, max_size=8))
    def test_breakdown(self, values):
        t = table_from(values)
        p_s = t.p_a + t.p_b
        p_c = t.p_ab + t.p_ab_prime + t.p_a_prime_b - t.p_a_prime_b_prime
        public = CHBreakdown(p_s=p_s, p_c=p_c, ch=p_s - p_c)
        self.assert_same(CHBreakdown._of(t), public)
        self.assert_same(ch_value(t), public)


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
        assert all(v == 1.0 for v in asdict(t).values())

    def test_point_model_all_zeros(self):
        m = DiscreteLHVModel(weights=[1.0], response_a=[[0.0, 0.0]], response_b=[[0.0, 0.0]])
        t = eval_discrete_lhv(m)
        assert all(v == 0.0 for v in asdict(t).values())

    def test_two_state_mixture(self):
        # Perfectly correlated on/off halves: every probability is 0.5.
        m = DiscreteLHVModel(
            weights=[0.5, 0.5],
            response_a=[[1.0, 1.0], [0.0, 0.0]],
            response_b=[[1.0, 1.0], [0.0, 0.0]],
        )
        t = eval_discrete_lhv(m)
        assert all(v == 0.5 for v in asdict(t).values())

    def test_weight_sum_enforced(self):
        with pytest.raises(InvalidInputError, match="sum to 1"):
            DiscreteLHVModel(weights=[0.6, 0.5], response_a=[[0.1, 0.1], [0.2, 0.2]],
                             response_b=[[0.3, 0.3], [0.4, 0.4]])

    def test_response_range_enforced(self):
        with pytest.raises(InvalidInputError, match=r"\[0, 1\]"):
            DiscreteLHVModel(weights=[1.0], response_a=[[1.3, 1.3]], response_b=[[0.5, 0.5]])
        with pytest.raises(InvalidInputError):
            DiscreteLHVModel(weights=[1.0], response_a=[[-0.1, -0.1]], response_b=[[0.5, 0.5]])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInputError, match="^weights must be finite and >= 0$"):
            DiscreteLHVModel(weights=[1.5, -0.5], response_a=[[0.1, 0.1], [0.2, 0.2]],
                             response_b=[[0.3, 0.3], [0.4, 0.4]])

    @pytest.mark.parametrize("weights, response_a, response_b, message", [
        ([math.nan, 1.0], [[0.1, 0.1], [0.2, 0.2]], [[0.3, 0.3], [0.4, 0.4]], "finite"),
        ([math.inf, 0.0], [[0.1, 0.1], [0.2, 0.2]], [[0.3, 0.3], [0.4, 0.4]], "finite"),
        ([-math.inf, 1.0], [[0.1, 0.1], [0.2, 0.2]], [[0.3, 0.3], [0.4, 0.4]], "finite"),
        ([0.5, 0.5], [[math.nan, math.nan], [0.2, 0.2]], [[0.3, 0.3], [0.4, 0.4]], r"\[0, 1\]"),
        ([0.5, 0.5], [[0.1, 0.1], [math.inf, math.inf]], [[0.3, 0.3], [0.4, 0.4]], r"\[0, 1\]"),
        ([0.5, 0.5], [[0.1, 0.1], [-math.inf, -math.inf]], [[0.3, 0.3], [0.4, 0.4]], r"\[0, 1\]"),
        ([0.5, 0.5], [[0.1, 0.1], [0.2, 0.2]], [[math.nan, math.nan], [0.4, 0.4]], r"\[0, 1\]"),
        ([0.5, 0.5], [[0.1, 0.1], [0.2, 0.2]], [[0.3, 0.3], [math.inf, math.inf]], r"\[0, 1\]"),
        ([0.5, 0.5], [[0.1, 0.1], [0.2, 0.2]], [[-math.inf, -math.inf], [0.4, 0.4]], r"\[0, 1\]"),
        ([0.5, 0.5], [[0.1, 0.1], [0.2, 0.2]], [[0.3, 0.3], [-0.1, -0.1]], r"\[0, 1\]"),
        ([0.5, 0.5], [[0.1, 0.1], [0.2, 0.2]], [[1.3, 1.3], [0.4, 0.4]], r"\[0, 1\]"),
        ([1.2, -0.2], [[0.1, 0.1], [0.2, 0.2]], [[0.3, 0.3], [0.4, 0.4]], "finite and >= 0"),
        ([0.5, 0.5 + 1e-9], [[0.1, 0.1], [0.2, 0.2]], [[0.3, 0.3], [0.4, 0.4]], "sum to 1"),
        ([], [], [], "non-empty 1-D"),
        # When several checks fail, the earlier one wins: the weights' range,
        # then their sum, then the responses' range.
        ([-0.5, 1.5], [[0.1, 0.1], [0.2, 0.2]], [[0.3, 0.3], [math.nan, math.nan]], "^weights "),
        ([-0.5, 1.5], [[0.1, 0.1], [0.2, 0.2]], [[1.3, 1.3], [0.4, 0.4]], "finite and >= 0"),
        ([0.6, 0.5], [[0.1, 0.1], [0.2, 0.2]], [[1.3, 1.3], [0.4, 0.4]], "sum to 1"),
    ])
    def test_every_rejection(self, weights, response_a, response_b, message):
        with pytest.raises(InvalidInputError, match=message):
            DiscreteLHVModel(weights=weights, response_a=response_a, response_b=response_b)

    @pytest.mark.parametrize("side", ["response_a", "response_b"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1.5, -0.1])
    def test_bad_response_on_either_side(self, side, bad):
        """A bad entry in either response array gets the same class and
        message, naming that array."""
        responses = {"response_a": [[0.1, 0.2], [0.3, 0.4]], "response_b": [[0.5, 0.6], [0.7, 0.8]]}
        responses[side][1][0] = bad
        message = f"{side} must lie in [0, 1]"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$") as caught:
            DiscreteLHVModel(weights=[0.5, 0.5], **responses)
        assert type(caught.value) is InvalidInputError

    @pytest.mark.parametrize("name", ["weights", "response_a", "response_b"])
    @pytest.mark.parametrize("bad", [
        "a", {"a": 1}, 0.5j,
        # numpy reads these as numbers (a ComplexWarning or an OverflowError
        # on the way), but none is a real number.
        pytest.param(True, id="bool"), pytest.param("1", id="numeric-str"),
        pytest.param(np.complex128(1.0), id="numpy-complex"),
        pytest.param(10**400, id="int-beyond-float"),
    ])
    def test_non_numeric_entry_rejected(self, name, bad):
        arrays = {"weights": [1.0], "response_a": [[0.5, 0.5]], "response_b": [[0.5, 0.5]]}
        arrays[name] = [bad] if name == "weights" else [[bad, 0.5]]
        with pytest.raises(InvalidInputError, match=f"^{name} must be real numbers$"):
            DiscreteLHVModel(**arrays)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            DiscreteLHVModel(weights=[1.0], response_a=[[0.1], [0.2]], response_b=[[0.3]])

    @pytest.mark.parametrize("side", ["response_a", "response_b"])
    @pytest.mark.parametrize("columns", [1, 3])
    def test_setting_columns_other_than_two_rejected(self, side, columns):
        responses = {"response_a": [[0.5, 0.5]] * 2, "response_b": [[0.5, 0.5]] * 2}
        # NaN in the misshapen side: the shape check comes first.
        responses[side] = [[math.nan] * columns] * 2
        shape = rf"\(n_states, 2\) = \(2, 2\), got .*\(2, {columns}\)"
        with pytest.raises(InvalidInputError, match=shape):
            DiscreteLHVModel(weights=[0.5, 0.5], **responses)

    def test_matches_bruteforce_enumeration(self):
        """The vectorized evaluator agrees with an explicit loop."""
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5150)))
        for _ in range(25):
            m = model_with_states(rng, int(rng.integers(1, 12)))
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

    @pytest.mark.parametrize("max_states", [64, 5, 4, 1, 6, 2, 1000])
    def test_single_draw_replays_three_draws(self, max_states):
        """After the state-count draw, one rng.random call is the same
        stream as random(n), random((n, 2)), random((n, 2)) in that order,
        and the weights normalized in the draw buffer are, bit for bit, the
        out-of-place ``raw / raw.sum()`` of a separate weight draw."""
        for seed in range(200):
            new = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            old = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            for _ in range(2):
                m = random_discrete_model(new, max_states=max_states)
                n = int(old.integers(1, max_states + 1))
                raw = old.random(n) + 1e-12
                weights = raw / raw.sum()
                weights[np.argmax(weights)] += 1.0 - weights.sum()
                assert m.weights.tobytes() == weights.tobytes()
                assert m.response_a.tobytes() == old.random((n, 2)).tobytes()
                assert m.response_b.tobytes() == old.random((n, 2)).tobytes()
            # Philox's state holds small arrays, which repr prints whole.
            assert repr(new.bit_generator.state) == repr(old.bit_generator.state)


class _StubRng:
    """Stands in for a Generator: ``integers`` gives n = len(draw) // 5 and
    ``random`` gives ``draw`` itself, which random_discrete_model then
    normalizes in place."""

    def __init__(self, draw):
        self.draw = np.array(draw, dtype=float)

    def integers(self, low, high):
        return self.draw.size // 5

    def random(self, size):
        assert size == self.draw.size
        return self.draw


def _outcome(build):
    """The arrays of the model ``build()`` returns, or its error's class and
    message."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            model = build()
    except InvalidInputError as exc:
        return type(exc), str(exc)
    return tuple(
        (a.dtype, a.shape, a.tobytes())
        for a in (model.weights, model.response_a, model.response_b)
    )


def _draw_and_reference(draw):
    """random_discrete_model's outcome on ``draw``, and the validating
    constructor's on the arrays it normalized."""
    rng = _StubRng(draw)
    got = _outcome(lambda: random_discrete_model(rng, max_states=rng.draw.size // 5))
    buf, n = rng.draw, rng.draw.size // 5
    want = _outcome(lambda: DiscreteLHVModel(
        weights=buf[:n], response_a=buf[n : 3 * n].reshape(n, 2),
        response_b=buf[3 * n :].reshape(n, 2),
    ))
    return got, want


def _constructor_ran(self):
    raise AssertionError("the validating constructor ran")


# Two states: weights, then response_a and response_b row by row.
_VALID_DRAW = [0.5, 0.25, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]


class TestRandomModelCheck:
    """random_discrete_model accepts a draw only where the constructor
    would, and leaves every rejection to the constructor."""

    @pytest.mark.parametrize("position", [
        0,  # a weight
        2, 3,  # response_a columns 0 and 1
        6, 7,  # response_b columns 0 and 1
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1, 1.5])
    def test_bad_value_gets_the_constructor_error(self, position, bad):
        draw = list(_VALID_DRAW)
        draw[position] = bad
        got, want = _draw_and_reference(draw)
        assert got == want
        if position == 0 and bad == 1.5:
            # Normalization maps the weights [1.5, 0.25] into range.
            assert want[0] is not InvalidInputError
        else:
            assert want[0] is InvalidInputError

    def test_weight_sum_overflow(self):
        """The weights' sum overflows to inf, so normalizing gives [1, 0]:
        both paths accept that model."""
        got, want = _draw_and_reference([1e308, 1e308] + _VALID_DRAW[2:])
        assert got == want
        assert np.frombuffer(got[0][2]).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("draw, negative_zero", [
        # Responses of exactly 1.0 and 0.0.
        ([0.5, 0.25, 1.0, 0.0, 0.3, 1.0, 0.5, 0.6, 0.7, 1.0], [False, False]),
        # An overflowing sum turns the weight -1.0 into -0.0.
        ([1e308, 1e308, -1.0] + [0.5] * 12, [False, False, True]),
    ])
    def test_edges_of_the_range_take_the_fast_path(self, monkeypatch, draw, negative_zero):
        got, want = _draw_and_reference(draw)
        assert got == want and want[0] is not InvalidInputError
        monkeypatch.setattr(DiscreteLHVModel, "__post_init__", _constructor_ran)
        with np.errstate(over="ignore"):
            model = random_discrete_model(_StubRng(draw), max_states=len(draw) // 5)
        assert np.signbit(model.weights).tolist() == negative_zero

    def test_weight_sum_tolerance_is_the_constructors(self, monkeypatch):
        """At a tolerance of 0, weights one ulp off 1 get the constructor's
        error, and weights that sum to exactly 1 still take the fast path."""
        monkeypatch.setattr(inequalities, "_WEIGHT_TOL", 0.0)
        got, want = _draw_and_reference([0.96, 0.16] + _VALID_DRAW[2:])
        assert got == want == (
            InvalidInputError, "weights must sum to 1 within 0.0, got 0.9999999999999999"
        )
        monkeypatch.setattr(DiscreteLHVModel, "__post_init__", _constructor_ran)
        model = random_discrete_model(_StubRng(_VALID_DRAW), max_states=2)
        assert float(np.add.reduce(model.weights)) == 1.0

    def test_seeded_draws_take_the_fast_path(self, monkeypatch):
        monkeypatch.setattr(DiscreteLHVModel, "__post_init__", _constructor_ran)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(19)))
        for max_states in (1, 2, 64, 1000):
            for _ in range(50):
                random_discrete_model(rng, max_states=max_states)

    @pytest.mark.parametrize("max_states", [1, 2, 64, 1000])
    def test_matches_validating_constructor(self, max_states):
        for seed in range(200):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            model = random_discrete_model(rng, max_states=max_states)
            ref = DiscreteLHVModel(
                weights=model.weights, response_a=model.response_a,
                response_b=model.response_b,
            )
            for name in ("weights", "response_a", "response_b"):
                got, want = getattr(model, name), getattr(ref, name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
            assert model.n_states == ref.n_states
            assert eval_discrete_lhv(model) == eval_discrete_lhv(ref)


class TestBatchedCH:
    def test_matches_exact_path_for_every_state_count(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(64)))
        models = [model_with_states(rng, n) for n in range(1, 65) for _ in range(4)]
        screened = batched_ch(models)
        assert screened.shape == (len(models),)
        for m, ch in zip(models, screened):
            assert abs(ch - ch_value(eval_discrete_lhv(m)).ch) <= 1e-13

    def test_block_of_one_state_models(self):
        """Every segment of the sum has length 1."""
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(65)))
        models = [model_with_states(rng, 1) for _ in range(256)]
        screened = batched_ch(models)
        assert screened.shape == (256,)
        for m, ch in zip(models, screened):
            assert abs(ch - ch_value(eval_discrete_lhv(m)).ch) <= 1e-13

    def test_rejections(self):
        with pytest.raises(InvalidInputError, match="at least one model"):
            batched_ch([])


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
