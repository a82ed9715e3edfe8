import math

import numpy as np
import pytest

from turbghost.engine import KlyshkoPath
from turbghost.fitting import fit_profile
from turbghost.model import ObjectPattern, OpticsConfig, TurbulenceSpec
from turbghost.scan import (
    DetectorModel,
    MissingColumnError,
    NonIntegerCountsError,
    NonMonotonicPositionsError,
    ScanData,
    expected_scan_rates,
    read_scan_csv,
    simulate_scan,
    write_scan_csv,
)

MASTER = 20260809


def default_path(alpha=2.0, d=482.0):
    return KlyshkoPath(OpticsConfig(), TurbulenceSpec.crystal_side(alpha, d))


class TestDetectorModel:
    def test_defaults_valid(self):
        det = DetectorModel()
        assert det.slit_width_mm == 0.040
        assert det.slit_step_mm == 0.005

    def test_step_oversamples_slit(self):
        with pytest.raises(ValueError):
            DetectorModel(slit_width_mm=0.040, slit_step_mm=0.060)

    def test_zero_width_point_sampling_allowed(self):
        DetectorModel(slit_width_mm=0.0, slit_step_mm=0.005)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(slit_step_mm=0.0),
            dict(integration_time_s=0.0),
            dict(peak_rate_cps=0.0),
            dict(background_cps=-1.0),
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            DetectorModel(**kwargs)


class TestScanData:
    def test_rates_and_errors(self):
        data = ScanData(np.array([0.0, 1.0]), np.array([0, 16]), np.array([4.0, 4.0]))
        np.testing.assert_allclose(data.rates_cps, [0.0, 4.0])
        np.testing.assert_allclose(data.rate_errors_cps, [0.25, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ScanData(np.array([0.0, 0.0]), np.array([1, 1]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            ScanData(np.array([0.0, 1.0]), np.array([1.5, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            ScanData(np.array([0.0, 1.0]), np.array([-1, 1]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        ok = np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="positions must be finite"):
            ScanData(np.array([0.0, bad]), np.array([1, 1]), ok)
        with pytest.raises(ValueError, match="counts must be integers"):
            ScanData(np.array([0.0, 1.0]), np.array([1.0, bad]), ok)
        with pytest.raises(ValueError, match="durations must be finite"):
            ScanData(np.array([0.0, 1.0]), np.array([1, 1]), np.array([1.0, bad]))


class TestSimulateScan:
    def test_fixed_seed_reproducible(self):
        path = default_path()
        det = DetectorModel()
        a = simulate_scan(path, 2.0, ObjectPattern(), det, seed=5)
        b = simulate_scan(path, 2.0, ObjectPattern(), det, seed=5)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.positions_mm, b.positions_mm)

    def test_different_seeds_differ(self):
        path = default_path()
        det = DetectorModel()
        a = simulate_scan(path, 2.0, ObjectPattern(), det, seed=5)
        b = simulate_scan(path, 2.0, ObjectPattern(), det, seed=6)
        assert not np.array_equal(a.counts, b.counts)

    def test_peak_rate_scaling(self):
        path = default_path(alpha=0.0)
        det = DetectorModel(poisson_noise=False, peak_rate_cps=200.0)
        data = simulate_scan(path, 0.0, ObjectPattern(), det, seed=1)
        assert data.counts.max() == pytest.approx(200.0 * det.integration_time_s, rel=0.01)

    def test_zero_width_slit_matches_profile(self):
        # Point sampling, no noise: the normalized scan equals the image
        # profile itself, so the fit recovers the mode's own visibility.
        path = default_path()
        pattern = ObjectPattern()
        det = DetectorModel(slit_width_mm=0.0, integration_time_s=1e6, poisson_noise=False)
        data = simulate_scan(path, 2.0, pattern, det, seed=1)
        rates = expected_scan_rates(path, 2.0, pattern, det, data.positions_mm)
        np.testing.assert_allclose(data.rates_cps, rates, rtol=1e-5)
        fit = fit_profile(data.positions_mm, data.rates_cps)
        from turbghost.model import fringe_visibility

        analytic = fringe_visibility(1.0, 2.0, 482.0, path.k, pattern.fringe_wavenumber)
        assert fit.model.visibility == pytest.approx(analytic, rel=2e-3)

    def test_zero_width_slit_kernel_mode_matches_convolution(self):
        # Kernel mode carries the envelope correction of the exact Gaussian
        # convolution: V = exp(-k0^2 sigma^2 / (2 (1 + (sigma/w)^2))).
        path = default_path()
        pattern = ObjectPattern()
        det = DetectorModel(slit_width_mm=0.0, integration_time_s=1e6, poisson_noise=False)
        data = simulate_scan(path, 2.0, pattern, det, seed=1, mode="kernel")
        fit = fit_profile(data.positions_mm, data.rates_cps)
        sigma = 0.07051727546300533
        w = pattern.envelope_width_mm
        exact = math.exp(-((pattern.fringe_wavenumber * sigma) ** 2) / 2.0 / (1.0 + (sigma / w) ** 2))
        assert fit.model.visibility == pytest.approx(exact, rel=2e-3)

    def test_finite_slit_attenuates_by_tophat_factor(self):
        # sin(k0 s / 2)/(k0 s / 2) at s = 0.040 mm: 0.966238.
        path = default_path()
        pattern = ObjectPattern()
        base = dict(integration_time_s=1e6, poisson_noise=False)
        det0 = DetectorModel(slit_width_mm=0.0, **base)
        det1 = DetectorModel(slit_width_mm=0.040, **base)
        f0 = fit_profile(*_scan_xy(path, pattern, det0))
        f1 = fit_profile(*_scan_xy(path, pattern, det1))
        factor = f1.model.visibility / f0.model.visibility
        expected = math.sin(pattern.fringe_wavenumber * 0.020) / (pattern.fringe_wavenumber * 0.020)
        assert expected == pytest.approx(0.966237985637492, rel=1e-12)
        assert factor == pytest.approx(expected, abs=2e-3)

    def test_background_added(self):
        path = default_path()
        det = DetectorModel(background_cps=25.0, poisson_noise=False, integration_time_s=4.0)
        data = simulate_scan(path, 2.0, ObjectPattern(), det, seed=1)
        assert data.counts.min() >= 25.0 * 4.0 * 0.9

    def test_squarewave_routes_through_kernel(self):
        path = default_path()
        det = DetectorModel(poisson_noise=False)
        data = simulate_scan(path, 2.0, ObjectPattern(form="squarewave"), det, seed=1)
        assert data.counts.max() > 0


def _scan_xy(path, pattern, det):
    data = simulate_scan(path, 2.0, pattern, det, seed=3)
    return data.positions_mm, data.rates_cps


class TestScanCSV:
    def test_round_trip_bit_exact(self, tmp_path):
        data = simulate_scan(default_path(), 2.0, ObjectPattern(), DetectorModel(), seed=7)
        path = tmp_path / "scan.csv"
        write_scan_csv(data, path)
        back = read_scan_csv(path)
        np.testing.assert_array_equal(back.positions_mm, data.positions_mm)
        np.testing.assert_array_equal(back.counts, data.counts)
        np.testing.assert_array_equal(back.durations_s, data.durations_s)
        # And the bytes themselves are stable under rewrite.
        path2 = tmp_path / "scan2.csv"
        write_scan_csv(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_missing_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("position_mm,counts\n0.0,1\n")
        with pytest.raises(MissingColumnError):
            read_scan_csv(p)

    def test_non_integer_counts(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("position_mm,counts,duration_s\n0.0,1.5,1.0\n0.1,2,1.0\n")
        with pytest.raises(NonIntegerCountsError):
            read_scan_csv(p)

    def test_shuffled_rows_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("position_mm,counts,duration_s\n0.1,1,1.0\n0.0,2,1.0\n")
        with pytest.raises(NonMonotonicPositionsError):
            read_scan_csv(p)

    def test_comment_lines_ignored(self, tmp_path):
        p = tmp_path / "ok.csv"
        p.write_text("# provenance note\nposition_mm,counts,duration_s\n0.0,1,1.0\n0.1,2,1.0\n")
        data = read_scan_csv(p)
        assert len(data) == 2
