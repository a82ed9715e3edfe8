import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from turbghost.model import (
    PLACEMENTS,
    VALIDITY_WARN_THRESHOLD,
    AnalyticKernel,
    ObjectPattern,
    OpticsConfig,
    SampledKernel,
    TurbulenceSpec,
    VisibilityPoint,
    effective_distance,
    fringe_visibility,
    fringe_wavenumber_from_cycles,
    kernel_from_turbulence,
    kernel_sigma,
    model_visibility,
    validity_ratio,
    wavenumber,
)

K_650 = 2.0 * math.pi / 650e-6  # 9666.438934122441 rad/mm
K0 = fringe_wavenumber_from_cycles(3.6)  # 7.2*pi = 22.619467105846512 rad/mm


class TestWavenumber:
    def test_650nm(self):
        k = wavenumber(wavelength_nm=650.0)
        assert k == pytest.approx(9666.438934122441, rel=1e-12)
        assert k == pytest.approx(2.0 * math.pi / 650e-6, rel=0, abs=0)

    def test_identity_case(self):
        assert wavenumber(wavelength_mm=2.0 * math.pi) == pytest.approx(1.0, rel=1e-15)

    def test_pattern_wavenumber(self):
        assert K0 == pytest.approx(7.2 * math.pi, rel=1e-15)
        assert K0 == pytest.approx(22.6195, abs=5e-5)

    @pytest.mark.parametrize("bad", [0.0, -650.0])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            wavenumber(wavelength_nm=bad)

    def test_exactly_one_tag(self):
        with pytest.raises(ValueError):
            wavenumber(wavelength_nm=650.0, wavelength_mm=0.00065)
        with pytest.raises(ValueError):
            wavenumber()


class TestOpticsConfig:
    def test_defaults(self):
        opt = OpticsConfig()
        assert opt.object_arm_crystal_to_lens_mm == 1000.0
        assert opt.lens_to_detector_mm == 1000.0
        assert opt.k == pytest.approx(9666.438934122441)

    def test_shift_moves_both_lenses(self):
        opt = OpticsConfig(shift_mm=330.0)
        assert opt.object_arm_crystal_to_lens_mm == 1330.0

    def test_shift_beyond_2f_rejected(self):
        with pytest.raises(ValueError):
            OpticsConfig(shift_mm=1200.0)

    @pytest.mark.parametrize("g", [0.0, -0.1, 1.2])
    def test_bad_system_visibility(self, g):
        with pytest.raises(ValueError):
            OpticsConfig(system_visibility=g)


class TestEffectiveDistance:
    def test_crystal_side_unshifted(self):
        opt = OpticsConfig()
        spec = TurbulenceSpec.crystal_side(2.0, 482.0)
        assert effective_distance(spec, opt) == 482.0

    def test_crystal_side_shifted(self):
        opt = OpticsConfig(shift_mm=330.0, system_visibility=0.65)
        spec = TurbulenceSpec.crystal_side(2.0, 482.0)
        assert effective_distance(spec, opt) == pytest.approx(152.0)

    def test_object_side_ignores_shift(self):
        spec = TurbulenceSpec.object_side(2.0, 203.0)
        for shift in (0.0, 330.0):
            opt = OpticsConfig(shift_mm=shift)
            assert effective_distance(spec, opt) == 203.0

    def test_out_of_range_rejected(self):
        opt = OpticsConfig()
        with pytest.raises(ValueError):
            effective_distance(TurbulenceSpec.crystal_side(1.0, 1500.0), opt)
        with pytest.raises(ValueError):
            effective_distance(TurbulenceSpec.object_side(1.0, 1500.0), opt)
        with pytest.raises(ValueError):
            effective_distance(TurbulenceSpec.crystal_side(1.0, -5.0), opt)

    def test_placement_field_consistency(self):
        # One placement and one distance per spec: the placement must be a
        # key of PLACEMENTS, and alpha and the exponent keep their checks.
        with pytest.raises(ValueError):
            TurbulenceSpec(-1.0, "crystal_side", 10.0)
        with pytest.raises(ValueError):
            TurbulenceSpec(1.0, "crystal_side", 10.0, exponent=2.5)
        with pytest.raises(ValueError, match="placement"):
            TurbulenceSpec(1.0, "crystal", 10.0)

    def test_placements_name_their_config_distance_key(self):
        assert PLACEMENTS == {"crystal_side": "l1_mm", "object_side": "distance_from_object_mm"}
        assert TurbulenceSpec.crystal_side(2.0, 432.0) == TurbulenceSpec(2.0, "crystal_side", 432.0)
        assert TurbulenceSpec.object_side(2.0, 203.0) == TurbulenceSpec(2.0, "object_side", 203.0)

    @pytest.mark.parametrize("exponent", [1.0, 5.0 / 3.0])
    def test_non_square_law_exponent_rejected(self, exponent):
        # Nothing downstream reads the exponent, so a non-square law is refused.
        with pytest.raises(ValueError, match="square law"):
            TurbulenceSpec.crystal_side(2.0, 300.0, exponent=exponent)
        with pytest.raises(ValueError, match="square law"):
            TurbulenceSpec.object_side(2.0, 200.0, exponent=exponent)


class TestG2Kernel:
    KERNEL = kernel_from_turbulence(2.0, 482.0, K_650)

    def test_peak(self):
        assert self.KERNEL.value(0.0) == 1.0

    def test_one_over_e_point(self):
        # Solve k^2 dx^2 / (2 alpha d^2) = 1: dx = sqrt(2 alpha) d / k.
        dx = math.sqrt(2.0 * 2.0) * 482.0 / K_650
        assert dx == pytest.approx(0.0997264873413816, rel=1e-12)
        assert self.KERNEL.value(dx) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_sigma_formula(self):
        sigma = kernel_sigma(2.0, 482.0, K_650)
        assert sigma == pytest.approx(0.07051727546300533, rel=1e-12)
        assert self.KERNEL.value(sigma) == pytest.approx(math.exp(-0.5), rel=1e-12)

    @given(st.floats(-1.0, 1.0, allow_nan=False))
    def test_even_and_bounded(self, dx):
        v = self.KERNEL.value(dx)
        assert v == self.KERNEL.value(-dx)
        assert 0.0 < v <= 1.0
        if abs(dx) > 1e-6:  # strictly below peak once representable in float
            assert v < 1.0

    @pytest.mark.parametrize("alpha,d", [(0.0, 482.0), (2.0, 0.0)])
    def test_degenerate_is_ideal(self, alpha, d):
        kernel = kernel_from_turbulence(alpha, d, K_650)
        assert kernel.ideal
        assert kernel.value(0.0) == 1.0
        assert kernel.value(0.01) == 0.0

    def test_vectorized(self):
        dx = np.array([-0.1, 0.0, 0.1])
        v = self.KERNEL.value(dx)
        assert v.shape == (3,)
        assert v[0] == v[2]


class TestFringeVisibility:
    def test_no_turbulence(self):
        assert fringe_visibility(0.65, 0.0, 482.0, K_650, K0) == 0.65

    def test_unshifted_482(self):
        v = fringe_visibility(1.00, 2.0, 482.0, K_650, K0)
        assert v == pytest.approx(0.28023876854208574, rel=1e-12)

    def test_shifted_152_and_doubling_ratio(self):
        vu = fringe_visibility(1.00, 2.0, 482.0, K_650, K0)
        vs = fringe_visibility(0.65, 2.0, 152.0, K_650, K0)
        assert vs == pytest.approx(0.572758464824195, rel=1e-12)
        assert vs / vu == pytest.approx(2.0438230863057023, rel=1e-12)

    @given(
        st.floats(0.01, 1.0),
        st.floats(0.0, 3.0),
        st.floats(-500.0, 500.0),
    )
    def test_bounded_by_ceiling(self, g, alpha, d):
        v = fringe_visibility(g, alpha, d, K_650, K0)
        assert 0.0 < v <= g + 1e-15

    @given(st.floats(0.05, 3.0), st.floats(1.0, 500.0), st.floats(1.01, 3.0))
    def test_strictly_decreasing_in_distance(self, alpha, d, factor):
        v1 = fringe_visibility(1.0, alpha, d, K_650, K0)
        v2 = fringe_visibility(1.0, alpha, d * factor, K_650, K0)
        assert v2 < v1

    @given(st.floats(0.05, 3.0), st.floats(1.0, 500.0), st.floats(1.01, 3.0))
    def test_strictly_decreasing_in_alpha(self, alpha, d, factor):
        v1 = fringe_visibility(1.0, alpha, d, K_650, K0)
        v2 = fringe_visibility(1.0, alpha * factor, d, K_650, K0)
        assert v2 < v1

    @given(st.floats(0.1, 10.0))
    def test_depends_only_on_wavenumber_ratio(self, scale):
        v1 = fringe_visibility(0.8, 2.0, 203.0, K_650, K0)
        v2 = fringe_visibility(0.8, 2.0, 203.0, K_650 * scale, K0 * scale)
        assert v2 == pytest.approx(v1, rel=1e-12)

    def test_sign_of_distance_irrelevant(self):
        v1 = fringe_visibility(1.0, 2.0, -152.0, K_650, K0)
        v2 = fringe_visibility(1.0, 2.0, 152.0, K_650, K0)
        assert v1 == v2

    def test_bad_args(self):
        with pytest.raises(ValueError):
            fringe_visibility(0.0, 2.0, 482.0, K_650, K0)
        with pytest.raises(ValueError):
            fringe_visibility(1.0, -2.0, 482.0, K_650, K0)


class TestModelVisibility:
    OPTICS = OpticsConfig(shift_mm=330.0, system_visibility=0.65)
    PATTERN = ObjectPattern(intrinsic_visibility=0.7)

    def test_scalar_is_v0_times_law(self):
        v = model_visibility(self.OPTICS, self.PATTERN, 2.0, 152.0)
        assert type(v) is float
        assert v == 0.7 * fringe_visibility(0.65, 2.0, 152.0, K_650, K0)

    def test_array_is_elementwise_law(self):
        d = np.linspace(-100.0, 500.0, 13)
        v = model_visibility(self.OPTICS, self.PATTERN, 2.0, d)
        assert isinstance(v, np.ndarray) and v.shape == d.shape
        assert v.tolist() == [0.7 * fringe_visibility(0.65, 2.0, di, K_650, K0) for di in d]

    def test_no_turbulence_is_bare_contrast(self):
        assert model_visibility(self.OPTICS, self.PATTERN, 0.0, 0.0) == 0.65 * 0.7
        assert model_visibility(self.OPTICS, self.PATTERN, 2.0, 0.0) == 0.65 * 0.7
        assert model_visibility(self.OPTICS, self.PATTERN, 0.0, 482.0) == 0.65 * 0.7


class TestGhostImageProfile:
    # The ghost image at visibility V is the object at intrinsic visibility V.
    def test_center_value(self):
        for v in (0.0, 0.3, 1.0):
            assert ObjectPattern(intrinsic_visibility=v).evaluate(0.0) == pytest.approx(1.0 + v)

    def test_first_minimum_value(self):
        # Direct evaluation at x = pi/k0 with V = 0.5, w = 0.4:
        # exp(-(x/w)^2/2) * (1 - 0.5).
        pattern = ObjectPattern(envelope_width_mm=0.4, intrinsic_visibility=0.5)
        x = math.pi / K0
        val = pattern.evaluate(x)
        assert val == pytest.approx(0.4707496681601854, rel=1e-12)

    @given(st.floats(-3.0, 3.0), st.floats(0.0, 1.0))
    def test_nonnegative_and_bounded(self, x, v):
        pattern = ObjectPattern(intrinsic_visibility=v)
        val = pattern.evaluate(x)
        assert 0.0 <= val <= 2.0

    def test_visibility_out_of_range(self):
        with pytest.raises(ValueError):
            ObjectPattern(intrinsic_visibility=1.2)
        with pytest.raises(ValueError):
            ObjectPattern(intrinsic_visibility=-0.1)

    def test_squarewave_values(self):
        pattern = ObjectPattern(form="squarewave")
        assert pattern.evaluate(0.0) == pytest.approx(2.0)
        first_dark = math.pi / K0
        assert pattern.evaluate(first_dark * 1.0001) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(-2.0, 2.0))
    def test_pattern_max_at_center(self, x):
        pattern = ObjectPattern()
        assert pattern.evaluate(x) <= pattern.evaluate(0.0) + 1e-12


class TestValidityRatio:
    def test_zero_distance_always_valid(self):
        assert validity_ratio(0.0, 2.0, K_650, 0.4) == 0.0

    def test_out_of_regime_case(self):
        r = validity_ratio(482.0, 2.0, K_650, 0.4)
        assert r == pytest.approx(0.1762931886575133, rel=1e-12)
        assert r > VALIDITY_WARN_THRESHOLD

    def test_in_regime_case(self):
        r = validity_ratio(152.0, 2.0, K_650, 0.4)
        assert r == pytest.approx(0.055594532522701294, rel=1e-12)
        assert r < VALIDITY_WARN_THRESHOLD


class TestKernels:
    def test_analytic_ideal(self):
        kern = AnalyticKernel(0.0)
        assert kern.ideal
        assert kern.value(0.0) == 1.0
        assert kern.value(1e-6) == 0.0

    def test_sampled_validation(self):
        x = np.linspace(-1, 1, 11)
        good = np.exp(-(x**2))
        good = good / good.max()
        SampledKernel(x, good, np.zeros_like(x))
        with pytest.raises(ValueError):
            SampledKernel(x, good * 0.5, np.zeros_like(x))  # not peak-normalized
        with pytest.raises(ValueError):
            SampledKernel(x[::-1], good, np.zeros_like(x))  # decreasing offsets
        with pytest.raises(ValueError):
            SampledKernel(x, good, np.full_like(x, -1.0))  # negative errors

    def test_visibility_point_validation(self):
        VisibilityPoint(482.0, 0.28, 0.04, label="unshifted")
        with pytest.raises(ValueError):
            VisibilityPoint(482.0, 1.5, 0.04)
        with pytest.raises(ValueError):
            VisibilityPoint(482.0, 0.5, -0.1)


class TestCrossover:
    def test_shifted_overtakes_unshifted_near_284mm(self):
        # Root of g_u exp(-a l1^2/C) = g_s exp(-a (l1-330)^2/C) found by
        # bisection on the closed forms, independent of the campaign code.
        def gap(l1):
            vu = fringe_visibility(1.00, 2.0, l1, K_650, K0)
            vs = fringe_visibility(0.65, 2.0, l1 - 330.0, K_650, K0)
            return vu - vs

        lo, hi = 200.0, 330.0
        assert gap(lo) > 0 and gap(hi) < 0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert (lo + hi) / 2.0 == pytest.approx(284.2018021803766, abs=1e-6)
