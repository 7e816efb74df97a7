"""Chaotic two-beam source: field samples and polarizer-projected intensities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from bellsim.errors import InvalidInputError
from bellsim.source import FieldSample, intensities, sample_field


def make_rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestSampleField:
    def test_shapes_and_ranges(self):
        s = sample_field(make_rng(0), 1000)
        for arr in (s.x, s.y, s.chi, s.xi):
            assert arr.shape == (1000,)
        assert np.all(s.x >= 0) and np.all(s.y >= 0)
        assert np.all((s.chi >= 0) & (s.chi < 2 * math.pi))
        assert np.all((s.xi >= 0) & (s.xi < 2 * math.pi))

    def test_deterministic_under_seed(self):
        a = sample_field(make_rng(42), 500)
        b = sample_field(make_rng(42), 500)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.chi, b.chi)
        assert np.array_equal(a.xi, b.xi)

    def test_exponential_moments(self):
        s = sample_field(make_rng(7), 200_000)
        # Unit-mean exponential: mean 1, variance 1 (sampling error ~ 1/sqrt(n)).
        assert float(s.x.mean()) == pytest.approx(1.0, abs=0.02)
        assert float(s.y.var()) == pytest.approx(1.0, abs=0.05)

    def test_rejects_bad_count(self):
        with pytest.raises(InvalidInputError):
            sample_field(make_rng(0), 0)
        with pytest.raises(InvalidInputError):
            sample_field(make_rng(0), -3)

    def test_phases_drawn_only_on_request(self):
        """Undrawn phases are None and consume no random numbers: x and y
        are the same, and the phases are the next draws."""
        full = sample_field(make_rng(5), 300)
        rng = make_rng(5)
        bare = sample_field(rng, 300, phases=False)
        assert bare.chi is None and bare.xi is None
        assert np.array_equal(bare.x, full.x) and np.array_equal(bare.y, full.y)
        assert np.array_equal(rng.uniform(0.0, 2 * math.pi, 300), full.chi)
        assert np.array_equal(rng.uniform(0.0, 2 * math.pi, 300), full.xi)

    def test_scalar_sample(self):
        """There is no scalar draw: the batch length is required."""
        with pytest.raises(TypeError):
            sample_field(make_rng(1))
        with pytest.raises(InvalidInputError, match="size must be an integer >= 1, got None"):
            sample_field(make_rng(1), None)

    def test_phase_must_be_real_numbers(self):
        """A phase that is not numbers is refused with the sample, not by
        numpy inside the projection."""
        with pytest.raises(InvalidInputError, match="^chi must be real numbers$"):
            intensities(
                FieldSample(x=np.ones(3), y=np.ones(3), chi="a", xi=np.zeros(3)), 0.3, 0.4, "sampled"
            )

    @pytest.mark.parametrize("name", ["y", "chi", "xi"])
    def test_fields_have_the_shape_of_x(self, name):
        fields = {"x": np.ones(3), "y": np.ones(3), name: np.ones(2)}
        message = rf"^{name} must have the shape \(3,\) of x, got \(2,\)$"
        with pytest.raises(InvalidInputError, match=message):
            FieldSample(**fields)


class TestIntensities:
    def test_suppressed_closed_form(self):
        s = sample_field(make_rng(1), 10_000)
        theta, phi = 0.7, 1.9
        i_a, i_b = intensities(s, theta, phi, phase_mode="suppressed")
        ct2, st2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        cp2, sp2 = math.cos(phi) ** 2, math.sin(phi) ** 2
        assert np.allclose(i_a, s.x * ct2 + s.y * st2, rtol=0, atol=0)
        assert np.allclose(i_b, s.x * cp2 + s.y * sp2, rtol=0, atol=0)

    def test_suppressed_axis_settings_pass_through(self):
        s = sample_field(make_rng(2), 1000)
        assert np.array_equal(intensities(s, 0.0, 0.0, phase_mode="suppressed")[0], s.x)
        assert np.array_equal(intensities(s, math.pi / 2, 0.0, phase_mode="suppressed")[0], s.y)

    def test_angle_periodicity(self):
        s = sample_field(make_rng(3), 5000)
        for mode in ("suppressed", "sampled"):
            base_a, base_b = intensities(s, 0.3, 1.1, phase_mode=mode)
            shift_a, shift_b = intensities(s, 0.3 + math.pi, 1.1 + math.pi, phase_mode=mode)
            assert np.allclose(shift_a, base_a, rtol=0, atol=1e-12)
            assert np.allclose(shift_b, base_b, rtol=0, atol=1e-12)

    def test_beam_swap_symmetry(self):
        """Exchanging the two source beams while reflecting the analyzer
        angles about pi/4 reproduces the same suppressed intensities."""
        s = sample_field(make_rng(4), 5000)
        swapped = FieldSample(x=s.y, y=s.x, chi=s.chi, xi=s.xi)
        theta, phi = 0.45, 1.2
        i_a, i_b = intensities(s, theta, phi, phase_mode="suppressed")
        j_a, j_b = intensities(swapped, math.pi / 2 - theta, math.pi / 2 - phi,
                               phase_mode="suppressed")
        assert np.allclose(i_a, j_a, rtol=0, atol=1e-12)
        assert np.allclose(i_b, j_b, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
    def test_sampled_intensities_nonnegative(self, seed, theta, phi):
        s = sample_field(make_rng(seed), 2000)
        i_a, i_b = intensities(s, theta, phi, phase_mode="sampled")
        assert np.all(i_a >= 0)
        assert np.all(i_b >= 0)

    def test_phase_average_recovers_suppressed_form(self):
        """Averaging the sampled intensity over the relative phase removes
        the interference cross-term and leaves the suppressed value."""
        x, y = 1.7, 0.4
        theta = 0.9
        ct, st_ = math.cos(theta), math.sin(theta)

        def sampled_intensity(chi):
            rx, ry = math.sqrt(x), math.sqrt(y)
            return (rx * ct + ry * st_ * math.cos(chi)) ** 2 + (ry * st_ * math.sin(chi)) ** 2

        avg, err = integrate.quad(sampled_intensity, 0.0, 2 * math.pi)
        avg /= 2 * math.pi
        suppressed = x * ct**2 + y * st_**2
        assert avg == pytest.approx(suppressed, abs=1e-10)
        assert err < 1e-10

    def test_sampled_mean_matches_suppressed_mean(self):
        """With phases sampled uniformly, the ensemble mean intensity agrees
        with the phase-suppressed mean."""
        s = sample_field(make_rng(8), 400_000)
        theta, phi = 0.6, 1.3
        sup_a, sup_b = intensities(s, theta, phi, phase_mode="suppressed")
        sam_a, sam_b = intensities(s, theta, phi, phase_mode="sampled")
        assert float(sam_a.mean()) == pytest.approx(float(sup_a.mean()), rel=0.01)
        assert float(sam_b.mean()) == pytest.approx(float(sup_b.mean()), rel=0.01)

    def test_unknown_phase_mode_rejected(self):
        s = sample_field(make_rng(0), 10)
        with pytest.raises(InvalidInputError, match="phase_mode"):
            intensities(s, 0.0, 0.0, phase_mode="exotic")

    @pytest.mark.parametrize("mode", ["suppressed", "sampled"])
    def test_one_sided_projection(self, mode):
        """Each side's intensity depends on its own angle only: moving the
        other side's analyzer leaves it bit for bit the same."""
        s = sample_field(make_rng(6), 500)
        both_a, both_b = intensities(s, 0.4, 1.2, phase_mode=mode)
        alice_a, alice_b = intensities(s, 0.4, -2.0, phase_mode=mode)
        _, bob_b = intensities(s, 0.9, 1.2, phase_mode=mode)
        assert np.array_equal(alice_a, both_a)
        assert np.array_equal(bob_b, both_b)
        assert not np.array_equal(alice_b, both_b)

    def test_sampled_needs_the_side_phase(self):
        full = sample_field(make_rng(0), 10)
        for present, missing in (("chi", "xi"), ("xi", "chi")):
            s = FieldSample(x=full.x, y=full.y, **{present: getattr(full, present)})
            intensities(s, 0.3, 0.5, phase_mode="suppressed")
            with pytest.raises(InvalidInputError, match=f"needs {missing},"):
                intensities(s, 0.3, 0.5, phase_mode="sampled")

    def test_non_finite_angles_rejected(self):
        s = sample_field(make_rng(0), 10)
        with pytest.raises(InvalidInputError):
            intensities(s, math.nan, 0.0)
        with pytest.raises(InvalidInputError):
            intensities(s, 0.0, math.inf)
