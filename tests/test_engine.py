import math

import numpy as np
import pytest

from turbghost import engine
from turbghost.engine import (
    GridResolutionError,
    KlyshkoPath,
    fit_kernel_sigma,
    klyshko_amplitude,
    klyshko_amplitude_quadrature,
    monte_carlo_g2,
    quadrature_g2,
    synthesize_image,
)
from turbghost.fitting import fit_profile
from turbghost.model import (
    AnalyticKernel,
    ObjectPattern,
    OpticsConfig,
    TurbulenceSpec,
    kernel_sigma,
)
from turbghost.screens import TiltScreen

MASTER = 20260809


def crystal_path(alpha, d, shift=0.0, ws=4.0):
    optics = OpticsConfig(shift_mm=shift, system_visibility=0.65 if shift else 1.0)
    spec = TurbulenceSpec.crystal_side(alpha, d + shift)
    return KlyshkoPath(optics, spec, source_width_mm=ws)


class TestKlyshkoPath:
    def test_effective_quantities(self):
        path = crystal_path(2.0, 152.0, shift=330.0, ws=12.0)
        assert path.effective_distance_mm == pytest.approx(152.0)
        assert path.l1_eff_mm == pytest.approx(482.0)

    def test_source_width_validation(self):
        with pytest.raises(ValueError):
            crystal_path(2.0, 482.0, ws=-1.0)
        with pytest.raises(ValueError):
            crystal_path(2.0, 482.0, ws=1e-4)  # not wide against 1/k


class TestAmplitude:
    def test_flat_screen_peaks_at_equal_positions(self):
        path = crystal_path(2.0, 482.0)
        flat = TiltScreen(0.0)
        x2 = np.linspace(-0.005, 0.005, 101)
        intensity = np.array([abs(klyshko_amplitude(0.0, x, flat, path)) ** 2 for x in x2])
        assert x2[intensity.argmax()] == pytest.approx(0.0, abs=1e-4)

    def test_tilt_displacement_magnitude(self):
        # Tilt-shift: |shift| = a d / k = 0.5 * 482 / 9666.44 mm.
        path = crystal_path(2.0, 482.0)
        screen = TiltScreen(0.5)
        expected = 0.5 * 482.0 / path.k
        assert expected == pytest.approx(0.0249316218353454, rel=1e-12)
        assert expected == pytest.approx(0.02494, abs=2e-5)
        x2 = np.linspace(-2 * expected, 0.0, 401)
        intensity = np.array([abs(klyshko_amplitude(0.0, x, screen, path)) ** 2 for x in x2])
        assert abs(x2[intensity.argmax()]) == pytest.approx(expected, rel=1e-3)

    def test_fast_path_matches_quadrature_peak(self):
        path = crystal_path(2.0, 482.0)
        screen = TiltScreen(0.5)
        shift = -0.5 * 482.0 / path.k
        x2 = shift + np.linspace(-0.004, 0.004, 161)
        fast = np.array([abs(klyshko_amplitude(0.0, x, screen, path)) ** 2 for x in x2])
        quad = np.array(
            [abs(klyshko_amplitude_quadrature(0.0, x, screen, path)) ** 2 for x in x2]
        )
        assert x2[fast.argmax()] == pytest.approx(x2[quad.argmax()], abs=2 * (x2[1] - x2[0]))

    def test_displacement_linear_in_slope(self):
        path = crystal_path(2.0, 482.0, shift=330.0, ws=12.0)

        def peak(a):
            guess = -a * path.effective_distance_mm / path.k
            x2 = guess + np.linspace(-0.002, 0.002, 401)
            quad = np.array(
                [abs(klyshko_amplitude_quadrature(0.0, x, TiltScreen(a), path)) ** 2 for x in x2]
            )
            return x2[quad.argmax()]

        p1, p2 = peak(0.4), peak(0.8)
        assert p2 / p1 == pytest.approx(2.0, rel=5e-3)

    def test_under_resolved_grid_refused(self):
        path = crystal_path(2.0, 482.0)
        with pytest.raises(GridResolutionError):
            klyshko_amplitude_quadrature(0.0, 0.0, TiltScreen(0.5), path, n_points=100)

    def test_gridded_screen_matches_tilt_quadrature(self):
        # A gridded screen holding a pure linear phase must reproduce the
        # tilt screen's quadrature amplitude (same integrand, interpolated).
        from turbghost.screens import GriddedScreen

        path = crystal_path(2.0, 482.0)
        a = 0.5
        grid = np.linspace(-30.0, 30.0, 20001)
        gridded = GriddedScreen(grid, a * grid, 2.0, 2.0, grid[1] - grid[0])
        shift = -a * 482.0 / path.k
        x2 = shift + np.linspace(-0.002, 0.002, 81)
        tilt_amp = np.array(
            [abs(klyshko_amplitude_quadrature(0.0, x, TiltScreen(a), path)) ** 2 for x in x2]
        )
        grid_amp = np.array(
            [abs(klyshko_amplitude(0.0, x, gridded, path)) ** 2 for x in x2]
        )
        np.testing.assert_allclose(grid_amp, tilt_amp, rtol=1e-6)

    def test_gridded_screen_outside_support_rejected(self):
        from turbghost.screens import GriddedScreen

        path = crystal_path(2.0, 482.0)
        grid = np.linspace(-0.5, 0.5, 101)  # far narrower than the quadrature span
        screen = GriddedScreen(grid, 0.0 * grid, 0.0, 2.0, grid[1] - grid[0])
        with pytest.raises(ValueError):
            klyshko_amplitude(0.0, 0.0, screen, path)


class TestMonteCarloG2:
    def test_sigma_matches_blur_width(self):
        path = crystal_path(2.0, 482.0)
        kern = monte_carlo_g2(path, 2.0, 10000, MASTER)
        sigma = fit_kernel_sigma(kern)
        assert sigma == pytest.approx(kernel_sigma(2.0, 482.0, path.k), rel=0.02)

    def test_shifted_geometry_sigma(self):
        path = crystal_path(2.0, 152.0, shift=330.0, ws=12.0)
        kern = monte_carlo_g2(path, 2.0, 10000, MASTER)
        assert fit_kernel_sigma(kern) == pytest.approx(0.02223781300908052, rel=0.02)

    def test_no_turbulence_mass_in_central_bin(self):
        path = crystal_path(0.0, 482.0)
        kern = monte_carlo_g2(path, 0.0, 1000, MASTER)
        center = np.argmax(kern.values)
        assert kern.offsets_mm[center] == pytest.approx(0.0, abs=1e-6)
        assert kern.values.sum() == pytest.approx(1.0)  # single occupied bin

    def test_rerun_bit_identical(self):
        path = crystal_path(2.0, 482.0)
        a = monte_carlo_g2(path, 2.0, 2000, MASTER)
        b = monte_carlo_g2(path, 2.0, 2000, MASTER)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.offsets_mm, b.offsets_mm)

    def test_symmetric_within_statistics(self):
        path = crystal_path(2.0, 482.0)
        kern = monte_carlo_g2(path, 2.0, 10000, MASTER)
        v, e = kern.values, kern.standard_errors
        diff = np.abs(v - v[::-1])
        joint = np.hypot(e, e[::-1])
        assert np.all(diff <= 5.0 * joint + 1e-12)

    def test_real_valued_by_construction(self):
        path = crystal_path(2.0, 482.0)
        kern = monte_carlo_g2(path, 2.0, 500, MASTER)
        assert kern.values.dtype.kind == "f"

    def test_chunked_assembly_identical(self):
        # Per-index seeding makes any partition of the index range produce
        # the same displacement set, hence identical histograms.
        from turbghost.screens import screen_rng, tilt_slopes

        full = tilt_slopes(2.0, 300, MASTER)
        parts = [
            screen_rng(MASTER, i).standard_normal() * math.sqrt(2.0)
            for start, stop in ((0, 100), (100, 250), (250, 300))
            for i in range(start, stop)
        ]
        np.testing.assert_array_equal(full, np.array(parts))


class TestQuadratureG2:
    def test_unshifted_matches_analytic_sigma(self):
        path = crystal_path(2.0, 482.0)
        kern = quadrature_g2(path, 2.0)
        assert fit_kernel_sigma(kern) == pytest.approx(
            kernel_sigma(2.0, 482.0, path.k), rel=0.02
        )

    def test_shifted_matches_analytic_sigma(self):
        path = crystal_path(2.0, 152.0, shift=330.0, ws=12.0)
        kern = quadrature_g2(path, 2.0)
        assert fit_kernel_sigma(kern) == pytest.approx(
            kernel_sigma(2.0, 152.0, path.k), rel=0.02
        )

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            quadrature_g2(crystal_path(0.0, 482.0), 0.0)

    @staticmethod
    def direct_lag_sums(path, alpha, offsets):
        # The quadratic form summed lag by lag on the turbulence grid, one
        # np.vdot per (offset, lag): every lag (stride 1) and even lags only
        # (stride 2, doubled weight).
        xt, dx = engine._turbulence_grid(path, 4.5 / math.sqrt(alpha))
        pre = engine._prefield(xt, 0.0, path)
        n, m_max = xt.size, int(4.5 / math.sqrt(alpha) / dx)
        flat = path.shift_mm == 0.0
        d = path.effective_distance_mm
        s1, s2 = np.zeros(offsets.size), np.zeros(offsets.size)
        for j, x2 in enumerate(offsets):
            field = np.exp(-1j * path.k * (x2 - xt) ** 2 / (2.0 * d)) * pre
            for m in range(m_max + 1):
                if m == 0:
                    diag = np.vdot(field, field).real
                else:
                    diag = 2.0 * np.vdot(field[:-m], field[m:]).real
                diag *= 1.0 / (n - m) if flat else dx
                term = math.exp(-alpha * (m * dx) ** 2 / 2.0) * diag * dx
                s1[j] += term
                if m % 2 == 0:
                    s2[j] += 2.0 * term
        return n, s1, s2

    @pytest.mark.parametrize("d,shift,ws", [(482.0, 0.0, 4.0), (152.0, 330.0, 0.5)])
    def test_matches_direct_lag_sum(self, d, shift, ws):
        path = crystal_path(2.0, d, shift=shift, ws=ws)
        kern = quadrature_g2(path, 2.0)
        n, s1, s2 = self.direct_lag_sums(path, 2.0, kern.offsets_mm)
        assert 1000 <= n <= 3000
        peak = s1.max()
        np.testing.assert_allclose(kern.values, s1 / peak, rtol=0, atol=1e-9)
        np.testing.assert_allclose(kern.standard_errors, np.abs(s1 - s2) / peak, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("alpha,d,shift,ws", [(2.0, 482.0, 0.0, 4.0), (2.0, 152.0, 330.0, 12.0)])
    def test_three_routes_pairwise_agreement(self, alpha, d, shift, ws):
        # Closed form, Monte Carlo over tilt screens, and direct quadrature
        # must agree pairwise on the kernel width within 2% at N = 1e4.
        path = crystal_path(alpha, d, shift=shift, ws=ws)
        s_formula = kernel_sigma(alpha, d, path.k)
        s_mc = fit_kernel_sigma(monte_carlo_g2(path, alpha, 10000, MASTER))
        s_quad = fit_kernel_sigma(quadrature_g2(path, alpha))
        for a, b in ((s_formula, s_mc), (s_formula, s_quad), (s_mc, s_quad)):
            assert abs(a / b - 1.0) <= 0.02


class TestSynthesizeImage:
    def test_ideal_kernel_returns_object(self):
        pattern = ObjectPattern()
        img = synthesize_image(AnalyticKernel(0.0), pattern)
        np.testing.assert_allclose(img.values, pattern.evaluate(img.positions_mm))
        assert not img.truncation_warning

    def test_truncation_flag(self):
        pattern = ObjectPattern()
        narrow = np.linspace(-0.5, 0.5, 201)  # leaves >0.1% envelope mass outside
        img = synthesize_image(AnalyticKernel(0.01), pattern, positions_mm=narrow)
        assert img.truncation_warning

    def test_gaussian_blur_visibility(self):
        # Convolving envelope*(1+cos) with a Gaussian of width sigma gives an
        # exact fringe model with visibility exp(-k0^2 sigma^2 / (2 (1+r^2)))
        # and rescaled carrier; the free fit must recover that value, which
        # approaches the pure attenuation exp(-k0^2 sigma^2/2) as r -> 0.
        pattern = ObjectPattern()
        k0 = pattern.fringe_wavenumber
        w = pattern.envelope_width_mm
        sigma = 0.07051727546300533
        r2 = (sigma / w) ** 2
        exact = math.exp(-((k0 * sigma) ** 2) / 2.0 / (1.0 + r2))
        img = synthesize_image(AnalyticKernel(sigma), pattern)
        fit = fit_profile(img.positions_mm, img.values)
        assert fit.converged
        assert fit.model.visibility == pytest.approx(exact, rel=1e-3)
        # The plain attenuation is recovered within the envelope correction
        # (about 4% at this blur-to-envelope ratio).
        attenuation = math.exp(-((k0 * sigma) ** 2) / 2.0)
        assert fit.model.visibility == pytest.approx(attenuation, rel=0.045)

    def test_sampled_kernel_agrees_with_analytic(self):
        path = crystal_path(2.0, 482.0)
        pattern = ObjectPattern()
        sampled = monte_carlo_g2(path, 2.0, 10000, MASTER)
        img_s = synthesize_image(sampled, pattern)
        img_a = synthesize_image(AnalyticKernel(kernel_sigma(2.0, 482.0, path.k)), pattern)
        fs = fit_profile(img_s.positions_mm, img_s.values)
        fa = fit_profile(img_a.positions_mm, img_a.values)
        assert fs.model.visibility == pytest.approx(fa.model.visibility, rel=0.03)

    def test_squarewave_fundamental_attenuates_like_sinusoid(self):
        # The bar pattern's fundamental Fourier coefficient is 4/pi; after
        # normalizing it out, the blurred fundamental attenuation matches
        # the sinusoid case within 3% (higher harmonics die much faster).
        pattern = ObjectPattern(form="squarewave")
        sigma = 0.07051727546300533
        img = synthesize_image(AnalyticKernel(sigma), pattern)
        fit = fit_profile(img.positions_mm, img.values)
        assert fit.converged
        square_fundamental = fit.model.visibility / (4.0 / math.pi)

        sin_img = synthesize_image(AnalyticKernel(sigma), ObjectPattern())
        sin_fit = fit_profile(sin_img.positions_mm, sin_img.values)
        assert square_fundamental == pytest.approx(sin_fit.model.visibility, rel=0.03)
