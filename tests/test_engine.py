import hashlib
import math

import numpy as np
import pytest

from turbghost import engine
from turbghost.engine import (
    KlyshkoPath,
    fit_kernel_sigma,
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


def reference_prefield(xt, x1, path):
    """Field reaching the turbulence plane from image-arm position x1, in
    textbook form: the Gaussian source integral sqrt(pi/beta)
    exp(gamma^2/(4 beta) + eta), peak-normalized on the grid, or at
    delta = 0 the source pinned at x_s = x1."""
    k, l1, delta, ws = path.k, path.l1_eff_mm, path.shift_mm, path.source_width_mm
    if delta == 0.0:
        return np.exp(1j * k * (xt - x1) ** 2 / (2.0 * l1)) * math.exp(-(x1**2) / (2.0 * ws**2))
    beta = 1.0 / (2.0 * ws**2) + 1j * k * (l1 - delta) / (2.0 * l1 * delta)
    gam = 1j * k * (x1 / delta - xt / l1)
    eta = 1j * k * (xt**2 / (2.0 * l1) - x1**2 / (2.0 * delta))
    b = np.sqrt(np.pi / beta) * np.exp(gam**2 / (4.0 * beta) + eta)
    return b / np.abs(b).max()


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
        intensity = np.abs(klyshko_amplitude_quadrature(0.0, x2, flat, path)) ** 2
        assert x2[intensity.argmax()] == pytest.approx(0.0, abs=1e-4)

    def test_tilt_displacement_magnitude(self):
        # Tilt-shift: |shift| = a d / k = 0.5 * 482 / 9666.44 mm.
        path = crystal_path(2.0, 482.0)
        screen = TiltScreen(0.5)
        expected = 0.5 * 482.0 / path.k
        assert expected == pytest.approx(0.0249316218353454, rel=1e-12)
        assert expected == pytest.approx(0.02494, abs=2e-5)
        x2 = np.linspace(-2 * expected, 0.0, 401)
        intensity = np.abs(klyshko_amplitude_quadrature(0.0, x2, screen, path)) ** 2
        assert abs(x2[intensity.argmax()]) == pytest.approx(expected, rel=1e-3)

    def test_fast_path_matches_quadrature_peak(self):
        # The quadrature peak sits at the tilt-shift law -a d / k that
        # monte_carlo_g2 applies to every screen.
        path = crystal_path(2.0, 482.0)
        screen = TiltScreen(0.5)
        shift = -0.5 * 482.0 / path.k
        x2 = shift + np.linspace(-0.004, 0.004, 161)
        quad = np.abs(klyshko_amplitude_quadrature(0.0, x2, screen, path)) ** 2
        assert x2[quad.argmax()] == pytest.approx(shift, abs=2 * (x2[1] - x2[0]))

    def test_displacement_linear_in_slope(self):
        path = crystal_path(2.0, 482.0, shift=330.0, ws=12.0)

        def peak(a):
            guess = -a * path.effective_distance_mm / path.k
            x2 = guess + np.linspace(-0.002, 0.002, 401)
            quad = np.abs(klyshko_amplitude_quadrature(0.0, x2, TiltScreen(a), path)) ** 2
            return x2[quad.argmax()]

        p1, p2 = peak(0.4), peak(0.8)
        assert p2 / p1 == pytest.approx(2.0, rel=5e-3)

    def test_gridded_screen_matches_tilt_quadrature(self):
        # A gridded screen holding a pure linear phase must reproduce the
        # tilt screen's quadrature amplitude (same integrand, interpolated).
        from turbghost.screens import GriddedScreen

        path = crystal_path(2.0, 482.0)
        a = 0.5
        grid = np.linspace(-30.0, 30.0, 20001)
        gridded = GriddedScreen(grid, a * grid)
        shift = -a * 482.0 / path.k
        x2 = shift + np.linspace(-0.002, 0.002, 81)
        tilt_amp = np.array(
            [abs(klyshko_amplitude_quadrature(0.0, x, TiltScreen(a), path)) ** 2 for x in x2]
        )
        grid_amp = np.array(
            [abs(klyshko_amplitude_quadrature(0.0, x, gridded, path)) ** 2 for x in x2]
        )
        np.testing.assert_allclose(grid_amp, tilt_amp, rtol=1e-6)

    @pytest.mark.parametrize("geometry", ["tilt_shifted", "gridded_flat", "wide_scan_shifted"])
    def test_array_x2_matches_scalar_calls(self, geometry):
        from turbghost.screens import GriddedScreen

        path, screen = crystal_path(2.0, 482.0, shift=330.0, ws=12.0), TiltScreen(0.4)
        points = 7
        if geometry == "gridded_flat":
            grid = np.linspace(-30.0, 30.0, 20001)
            path = crystal_path(2.0, 482.0)
            screen = GriddedScreen(grid, 0.4 * grid + 0.1 * np.sin(grid))
        if geometry == "wide_scan_shifted":
            # A chirp-z-sized scan on the n = 57,771 shifted grid.
            path, points = crystal_path(2.0, 152.0, shift=330.0, ws=12.0), 101
            assert engine._turbulence_grid(path, u_max=2.0)[0].size == 57_771
        # Points across the displaced peak, x2 = -a d / k.
        x2 = -0.4 * path.effective_distance_mm / path.k + np.linspace(-0.002, 0.002, points)
        scalar = [klyshko_amplitude_quadrature(0.0, x, screen, path) for x in x2]
        assert all(type(a) is complex for a in scalar)
        scalar = np.array(scalar)
        array = klyshko_amplitude_quadrature(0.0, x2, screen, path)
        assert array.shape == x2.shape and array.dtype == complex
        assert np.abs(array - scalar).max() <= 1e-12 * np.abs(scalar).max()
        # Reference: the folded-kernel integrand summed directly per x2.
        xt, dx = engine._turbulence_grid(path, u_max=2.0)
        field = np.exp(1j * screen.phase(xt)) * reference_prefield(xt, 0.0, path)
        d = path.effective_distance_mm
        direct = np.array(
            [np.sum(np.exp(-1j * path.k * (x - xt) ** 2 / (2.0 * d)) * field) * dx for x in x2]
        )
        assert np.abs(array - direct).max() <= 1e-12 * np.abs(direct).max()

    @pytest.mark.parametrize("d,shift,ws,x1,slope", [
        (482.0, 330.0, 12.0, 0.0, 0.4), (482.0, 330.0, 12.0, 0.01, 0.8),
        (152.0, 330.0, 12.0, 0.0, 0.4), (482.0, 0.0, 4.0, 0.01, 0.8),
    ])
    def test_tilt_equals_gridded_linear_phase(self, d, shift, ws, x1, slope):
        # A tilt's phase joins the exponent's linear coefficient; a gridded
        # screen holding slope * x on the quadrature grid itself is added on
        # the grid.  Both are the same integrand, scalar x2 and array x2.
        from turbghost.screens import GriddedScreen

        path = crystal_path(2.0, d, shift=shift, ws=ws)
        xt, _dx = engine._turbulence_grid(path, u_max=2.0)
        tilt, gridded = TiltScreen(slope), GriddedScreen(xt, slope * xt)
        x2 = -slope * path.effective_distance_mm / path.k + np.linspace(-0.002, 0.002, 9)
        for x in (x2[4], x2[0], x2):
            want = klyshko_amplitude_quadrature(x1, x, gridded, path)
            got = klyshko_amplitude_quadrature(x1, x, tilt, path)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("d,shift,ws,x1", [
        (482.0, 330.0, 12.0, 0.0), (482.0, 330.0, 12.0, 0.01), (482.0, 330.0, 12.0, 0.5),
        (152.0, 330.0, 24.0, 0.0), (152.0, 330.0, 24.0, 0.2),
        (482.0, 0.0, 4.0, 0.0), (482.0, 0.0, 4.0, 0.3),
    ])
    def test_folded_integrand_matches_source_integral(self, d, shift, ws, x1):
        # The one closed-form exponent equals the textbook source integral
        # times the image-arm chirp, off axis (x1 != 0) as well as on it.
        path = crystal_path(2.0, d, shift=shift, ws=ws)
        xt, dx, g = engine._folded_integrand(path, x1, u_max=2.0)
        grid, spacing = engine._turbulence_grid(path, u_max=2.0)
        np.testing.assert_array_equal(xt, grid)
        assert dx == spacing
        ref = reference_prefield(xt, x1, path) * np.exp(-1j * path.k * xt**2 / (2.0 * d))
        assert np.abs(g - ref).max() <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("x2", [
        [0.0, 0.001, 0.003],
        np.linspace(-0.002, 0.002, 9) ** 3,
        [0.0, np.nan, 0.002],
        [0.0, 0.001, np.inf],
        np.nan,
        -np.inf,
    ], ids=["uneven", "cubic", "nan", "inf", "scalar-nan", "scalar-inf"])
    def test_x2_must_be_finite_and_uniform(self, x2):
        path = crystal_path(2.0, 482.0)
        with pytest.raises(ValueError, match="x2"):
            klyshko_amplitude_quadrature(0.0, x2, TiltScreen(0.5), path)

    def test_empty_x2_gives_empty_array(self):
        out = klyshko_amplitude_quadrature(0.0, np.empty(0), TiltScreen(0.5), crystal_path(2.0, 482.0))
        assert out.shape == (0,) and out.dtype == complex

    def test_array_x2_keeps_its_shape(self):
        path, screen = crystal_path(2.0, 482.0), TiltScreen(0.5)
        x2 = np.linspace(-0.004, 0.001, 6)
        flat = klyshko_amplitude_quadrature(0.0, x2, screen, path)
        grid = klyshko_amplitude_quadrature(0.0, x2.reshape(2, 3), screen, path)
        assert grid.shape == (2, 3)
        np.testing.assert_array_equal(grid.ravel(), flat)
        one = klyshko_amplitude_quadrature(0.0, x2[:1], screen, path)
        assert one.shape == (1,) and one[0] == klyshko_amplitude_quadrature(0.0, x2[0], screen, path)

    def test_scalar_x2_gives_complex(self):
        path = crystal_path(2.0, 482.0)
        for x2 in (0.0, -0.01, np.float64(0.002), np.array(0.001)):
            assert type(klyshko_amplitude_quadrature(0.0, x2, TiltScreen(0.5), path)) is complex

    def test_gridded_screen_outside_support_rejected(self):
        from turbghost.screens import GriddedScreen

        path = crystal_path(2.0, 482.0)
        grid = np.linspace(-0.5, 0.5, 101)  # far narrower than the quadrature span
        screen = GriddedScreen(grid, 0.0 * grid)
        with pytest.raises(ValueError):
            klyshko_amplitude_quadrature(0.0, 0.0, screen, path)


@pytest.mark.parametrize("route", ["monte_carlo_g2", "quadrature_g2", "expected_scan_rates"])
def test_alpha_disagreeing_with_path_rejected(route):
    # The path states alpha once; a second, different alpha is refused.
    from turbghost.scan import DetectorModel, expected_scan_rates

    path = crystal_path(0.0, 482.0)
    calls = {
        "monte_carlo_g2": lambda: monte_carlo_g2(path, 2.0, 100, MASTER),
        "quadrature_g2": lambda: quadrature_g2(path, 2.0),
        "expected_scan_rates": lambda: expected_scan_rates(
            path, 2.0, ObjectPattern(), DetectorModel(), np.linspace(-1.0, 1.0, 11)
        ),
    }
    with pytest.raises(ValueError, match="disagrees"):
        calls[route]()


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

    def test_golden_sha256(self):
        # Pinning test: the criterion-4 kernels (w_s and 2 w_s) keep their
        # bits.  The folded exponent they share with the per-screen
        # amplitude must not move them.
        h = hashlib.sha256()
        for alpha, d, shift, ws in ((0.5, 482.0, 0.0, 4.0), (2.0, 482.0, 0.0, 4.0), (2.0, 152.0, 330.0, 12.0)):
            for width in (ws, 2.0 * ws):
                kern = quadrature_g2(crystal_path(alpha, d, shift, width), alpha)
                h.update(np.ascontiguousarray(kern.offsets_mm, dtype="<f8").tobytes())
                h.update(np.ascontiguousarray(kern.values, dtype="<f8").tobytes())
        assert h.hexdigest() == "2d0e26f6490e48b2c8244d543e737d2ca03ac713724cae9d8b14663f90bd94f5"

    @staticmethod
    def direct_lag_sums(path, alpha, offsets):
        # The quadratic form summed lag by lag on the turbulence grid, one
        # np.vdot per (offset, lag).
        xt, dx = engine._turbulence_grid(path, 4.5 / math.sqrt(alpha))
        pre = reference_prefield(xt, 0.0, path)
        n, m_max = xt.size, int(4.5 / math.sqrt(alpha) / dx)
        flat = path.shift_mm == 0.0
        d = path.effective_distance_mm
        s1 = np.zeros(offsets.size)
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
        return n, s1

    @pytest.mark.parametrize("d,shift,ws", [(482.0, 0.0, 4.0), (152.0, 330.0, 0.5)])
    def test_matches_direct_lag_sum(self, d, shift, ws):
        path = crystal_path(2.0, d, shift=shift, ws=ws)
        kern = quadrature_g2(path, 2.0)
        n, s1 = self.direct_lag_sums(path, 2.0, kern.offsets_mm)
        assert 1000 <= n <= 3000
        np.testing.assert_allclose(kern.values, s1 / s1.max(), rtol=0, atol=1e-9)
        np.testing.assert_array_equal(kern.standard_errors, 0.0)

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


def reference_kernel_sigma(kernel):
    """The weighted Gaussian fit_kernel_sigma documents, solved by scipy's trust-region solver."""
    from scipy.optimize import least_squares

    x, y = kernel.offsets_mm, kernel.values
    w = np.where(kernel.standard_errors > 0, kernel.standard_errors, 1.0)

    def resid(p):
        return (p[0] * np.exp(-((x - p[1]) ** 2) / (2.0 * p[2] ** 2)) - y) / w

    spread = math.sqrt(float(((x - (x * y).sum() / y.sum()) ** 2 * y).sum() / y.sum()))
    sol = least_squares(resid, [1.0, 0.0, spread], method="trf", xtol=1e-12, ftol=1e-12, gtol=1e-12)
    return abs(float(sol.x[2]))


class TestFitKernelSigma:
    # fit_kernel_sigma's own solver must land on the optimum an independent
    # solver finds, to the benchmark's kernel-fit agreement tolerance.
    @pytest.mark.parametrize("alpha", (0.5, 2.0, 2.5))
    @pytest.mark.parametrize("d", (50.0, 152.0, 203.0, 482.0))
    def test_monte_carlo_kernels_match_reference(self, alpha, d):
        kern = monte_carlo_g2(crystal_path(alpha, d), alpha, 10000, MASTER)
        assert fit_kernel_sigma(kern) == pytest.approx(reference_kernel_sigma(kern), rel=1e-5)

    @pytest.mark.parametrize("alpha,d,shift,ws", [
        (0.5, 482.0, 0.0, 4.0), (2.0, 482.0, 0.0, 4.0), (2.0, 152.0, 330.0, 12.0),
    ])
    @pytest.mark.parametrize("scale", (1.0, 2.0))
    def test_quadrature_kernels_match_reference(self, alpha, d, shift, ws, scale):
        kern = quadrature_g2(crystal_path(alpha, d, shift, scale * ws), alpha)
        assert fit_kernel_sigma(kern) == pytest.approx(reference_kernel_sigma(kern), rel=1e-5)


def test_fast_len_matches_scipy():
    # quadrature_g2's FFT length: any other choice moves kernel bits.
    from scipy.fft import next_fast_len

    for n in [*range(1, 5000), 2**20 + 1, 3_000_017, 12_345_679, 10**9 + 7]:
        assert engine._fast_len(n) == next_fast_len(n), n


class TestSynthesizeImage:
    def test_ideal_kernel_returns_object(self):
        pattern = ObjectPattern()
        img = synthesize_image(AnalyticKernel(0.0), pattern)
        np.testing.assert_allclose(img.values, pattern.evaluate(img.positions_mm))

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
