import math
import os

import numpy as np
import pytest

from turbghost import fitting
from turbghost.campaign import point_seed
from turbghost.engine import KlyshkoPath
from turbghost.fitting import (
    MAX_ITERATIONS,
    OBJECTIVE_TOL,
    ScanFitModel,
    _PARAM_HI,
    _PARAM_LO,
    _curvature_errors,
    _envelope_grid,
    _envelope_grid_fit,
    _evaluate_vector,
    _fit_rows,
    _model_jacobian,
    _moment_scales,
    _solve_rows,
    fit_alpha,
    fit_profile,
    fit_scan,
    fit_scans,
    initial_guess,
    slit_correction,
    slit_factor,
)
from turbghost.model import (
    ObjectPattern,
    OpticsConfig,
    TurbulenceSpec,
    VisibilityPoint,
    fringe_visibility,
    fringe_wavenumber_from_cycles,
)
from turbghost.scan import DetectorModel, ScanData, read_scan_csv, simulate_scan

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "fixture_scan_seed424242.csv")

K = OpticsConfig().k
K0 = fringe_wavenumber_from_cycles(3.6)
TRUTH = ScanFitModel(
    amplitude_cps=50.0,
    center_mm=0.01,
    envelope_width_mm=0.4,
    fringe_wavenumber=K0,
    fringe_phase_rad=0.3,
    visibility=0.5,
    background_cps=2.0,
)


def truth_scan(model=TRUTH, duration=1e5, n=161, span=0.8):
    """Noiseless scan: expected counts rounded to integers at long dwell."""
    x = np.linspace(-span / 2, span / 2, n)
    counts = np.rint(model.evaluate(x) * duration).astype(np.int64)
    return ScanData(x, counts, np.full_like(x, duration))


def seeded_scans(n):
    """Seeded Poisson scans, alternating unshifted and shifted optics."""
    unshifted = KlyshkoPath(OpticsConfig(), TurbulenceSpec.crystal_side(2.0, 482.0))
    shifted = KlyshkoPath(
        OpticsConfig(shift_mm=330.0, system_visibility=0.65),
        TurbulenceSpec.crystal_side(2.0, 482.0),
        source_width_mm=12.0,
    )
    scans = []
    for seed in range(n):
        if seed % 2:
            scans.append(simulate_scan(shifted, 2.0, ObjectPattern(),
                                       DetectorModel(peak_rate_cps=50.0), seed=seed))
        else:
            scans.append(simulate_scan(unshifted, 2.0, ObjectPattern(), DetectorModel(), seed=seed))
    return scans


class TestFitProfile:
    def test_noiseless_round_trip_six_digits(self):
        x = np.linspace(-0.4, 0.4, 161)
        result = fit_profile(x, TRUTH.evaluate(x))
        assert result.converged
        for name in (
            "amplitude_cps",
            "envelope_width_mm",
            "fringe_wavenumber",
            "visibility",
        ):
            assert getattr(result.model, name) == pytest.approx(
                getattr(TRUTH, name), rel=1e-6
            )
        assert result.model.center_mm == pytest.approx(TRUTH.center_mm, abs=1e-8)
        assert result.model.fringe_phase_rad == pytest.approx(TRUTH.fringe_phase_rad, abs=1e-6)
        assert result.model.background_cps == pytest.approx(TRUTH.background_cps, abs=1e-5)

    def test_fringe_free_recovers_zero_visibility(self):
        x = np.linspace(-0.4, 0.4, 161)
        y = 2.0 + 50.0 * np.exp(-0.5 * (x / 0.4) ** 2)
        result = fit_profile(x, y)
        assert result.converged
        assert result.model.visibility == pytest.approx(0.0, abs=1e-6)

    def test_visibility_stays_in_bounds(self):
        # Data with raw contrast above 1 (square pattern) must clamp at 1.
        pattern = ObjectPattern(form="squarewave")
        x = np.linspace(-1.0, 1.0, 401)
        result = fit_profile(x, pattern.evaluate(x))
        assert result.model.visibility <= 1.0


class TestFitScan:
    def test_round_trip_from_counts(self):
        result = fit_scan(truth_scan())
        assert result.converged
        assert result.model.visibility == pytest.approx(0.5, rel=1e-6)
        assert result.model.envelope_width_mm == pytest.approx(0.4, rel=1e-6)
        assert result.model.fringe_wavenumber == pytest.approx(K0, rel=1e-6)

    def test_replicates_statistics(self):
        # 60 Poisson replicates at truth V: small bias and error bars that
        # track the empirical scatter within 30%.
        optics = OpticsConfig()
        path = KlyshkoPath(optics, TurbulenceSpec.crystal_side(2.0, 482.0))
        det = DetectorModel()
        pattern = ObjectPattern()
        truth = fringe_visibility(1.0, 2.0, 482.0, K, K0) * 0.966237985637492
        vs, errs = [], []
        for seed in range(60):
            fit = fit_scan(simulate_scan(path, 2.0, pattern, det, seed=seed))
            assert fit.converged
            vs.append(fit.model.visibility)
            errs.append(fit.errors["visibility"])
        vs = np.array(vs)
        assert abs(vs.mean() - truth) <= 0.02
        assert np.mean(errs) == pytest.approx(vs.std(ddof=1), rel=0.30)

    def test_all_zero_counts_fails_explicitly(self):
        x = np.linspace(-0.4, 0.4, 20)
        data = ScanData(x, np.zeros_like(x, dtype=np.int64), np.ones_like(x))
        result = fit_scan(data)
        assert not result.converged
        assert "zero" in result.message

    def test_too_few_points_rejected(self):
        x = np.linspace(-0.4, 0.4, 5)
        data = ScanData(x, np.ones_like(x, dtype=np.int64), np.ones_like(x))
        with pytest.raises(ValueError):
            fit_scan(data)

    def test_too_few_periods_rejected(self):
        model = ScanFitModel(50.0, 0.0, 0.4, 2.0, 0.0, 0.5, 0.0)  # period ~ 3 mm
        x = np.linspace(-0.4, 0.4, 50)
        counts = np.rint(model.evaluate(x) * 100).astype(np.int64)
        data = ScanData(x, counts, np.full_like(x, 100.0))
        result = fit_scan(data)
        assert not result.converged and result.model is None
        assert result.message == "degenerate data: scan spans fewer than two fringe periods"

    def test_iteration_limit_is_a_typed_stall(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        result = fit_scan(read_scan_csv(FIXTURE))
        assert result.converged is False
        assert result.message.startswith("optimizer_stalled")

    def test_count_scale_absorbed_by_amplitude(self):
        # Scaling counts at fixed dwell multiplies the rate, so the fitted
        # amplitude scales and every shape parameter stays put.
        base = truth_scan(duration=1e4)
        scaled = ScanData(base.positions_mm, base.counts * 4, base.durations_s)
        f1, f4 = fit_scan(base), fit_scan(scaled)
        assert f4.model.amplitude_cps == pytest.approx(4.0 * f1.model.amplitude_cps, rel=1e-6)
        for name in ("center_mm", "envelope_width_mm", "fringe_wavenumber", "visibility"):
            assert getattr(f4.model, name) == pytest.approx(
                getattr(f1.model, name), rel=1e-6, abs=1e-9
            )

    def test_joint_count_duration_scale_invariant(self):
        base = truth_scan(duration=1e4)
        scaled = ScanData(base.positions_mm, base.counts * 4, base.durations_s * 4)
        f1, f4 = fit_scan(base), fit_scan(scaled)
        for name in ("amplitude_cps", "visibility", "envelope_width_mm"):
            assert getattr(f4.model, name) == pytest.approx(getattr(f1.model, name), rel=1e-6)

    def test_translation_covariance(self):
        base = truth_scan(duration=1e4)
        delta = 0.35
        moved = ScanData(base.positions_mm + delta, base.counts, base.durations_s)
        f0, f1 = fit_scan(base), fit_scan(moved)
        assert f1.model.center_mm - f0.model.center_mm == pytest.approx(delta, abs=1e-7)
        for name in ("amplitude_cps", "envelope_width_mm", "fringe_wavenumber", "visibility"):
            assert getattr(f1.model, name) == pytest.approx(getattr(f0.model, name), rel=1e-6)

    def test_json_schema_stable(self):
        result = fit_scan(truth_scan())
        payload = result.to_json_dict()
        assert payload["schema_version"] == 1
        assert set(payload) == {
            "schema_version", "converged", "model", "errors",
            "reduced_chi2", "n_evaluations", "message",
        }
        assert set(payload["model"]) == {
            "amplitude_cps", "center_mm", "envelope_width_mm", "fringe_wavenumber",
            "fringe_phase_rad", "visibility", "background_cps",
        }


class TestFitAlpha:
    @staticmethod
    def campaign_points(alpha, sigv=0.0, rng=None):
        g = {"unshifted": 1.0, "shifted": 0.65}
        pts = []
        for label in g:
            for d in (50.0, 100.0, 152.0, 203.0, 330.0, 482.0):
                v = fringe_visibility(g[label], alpha, d, K, K0)
                if rng is not None:
                    v = float(np.clip(v + rng.normal(0.0, sigv), 0.0, 1.0))
                pts.append(VisibilityPoint(d, v, sigv, label=label))
        return pts, g

    def test_noiseless_round_trip_six_digits(self):
        pts, g = self.campaign_points(2.5)
        result = fit_alpha(pts, g, K, K0)
        assert result.converged
        assert result.alpha_per_mm2 == pytest.approx(2.5, rel=1e-8)

    def test_ceiling_visibilities_give_zero_alpha(self):
        g = {"unshifted": 1.0}
        pts = [VisibilityPoint(d, 1.0, 0.0, label="unshifted") for d in (50.0, 150.0, 482.0)]
        result = fit_alpha(pts, g, K, K0)
        assert result.converged
        assert result.alpha_per_mm2 == pytest.approx(0.0, abs=1e-10)

    def test_all_zero_distance_unidentifiable(self):
        g = {"unshifted": 1.0}
        pts = [VisibilityPoint(0.0, 1.0, 0.04, label="unshifted") for _ in range(3)]
        result = fit_alpha(pts, g, K, K0)
        assert not result.converged
        assert "unidentifiable" in result.message

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_alpha([VisibilityPoint(10.0, 0.5, 0.1, label="u")], {"u": 1.0}, K, K0)

    def test_coverage_calibration(self):
        # The 1-sigma interval should cover truth at roughly the nominal
        # 68% rate; require at least 60% over 100 replicates.
        cover = 0
        for rep in range(100):
            rng = np.random.default_rng(1000 + rep)
            pts, g = self.campaign_points(2.5, sigv=0.04, rng=rng)
            result = fit_alpha(pts, g, K, K0)
            if result.converged and abs(result.alpha_per_mm2 - 2.5) <= result.alpha_sigma:
                cover += 1
        assert cover >= 60


    def test_matches_trust_region_reference(self):
        # Points as criterion 5 makes them: seeded scans at its detector
        # settings, fitted and slit-corrected; fit_alpha must land on the
        # optimum scipy's trust-region solver finds for the same residual.
        from scipy.optimize import least_squares

        alpha = -2.0 * math.log(0.3) * (K / K0) ** 2 / 482.0**2
        detector = DetectorModel(peak_rate_cps=200.0, integration_time_s=4.0)
        for rep in range(3):
            pts = []
            for i, d in enumerate((152.0, 203.0, 330.0, 482.0)):
                path = KlyshkoPath(OpticsConfig(), TurbulenceSpec.crystal_side(alpha, d))
                data = simulate_scan(path, alpha, ObjectPattern(), detector, seed=10 * rep + i,
                                     n_positions=160)
                fit = fit_scan(data)
                factor = slit_factor(fit.model.fringe_wavenumber, detector.slit_width_mm)
                pts.append(VisibilityPoint(d, fit.model.visibility / factor,
                                           fit.errors["visibility"] / factor, label="unshifted"))
            result = fit_alpha(pts, {"unshifted": 1.0}, K, K0)
            c = np.array([p.effective_distance_mm for p in pts]) ** 2 / (2.0 * (K / K0) ** 2)
            v = np.array([p.visibility for p in pts])
            sig = np.array([p.sigma_v for p in pts])
            ref = least_squares(lambda a: (np.exp(-a[0] * c) - v) / sig, [alpha],
                                bounds=([0.0], [np.inf]), method="trf",
                                xtol=1e-15, ftol=1e-15, gtol=1e-15)
            assert result.converged
            assert result.alpha_per_mm2 == pytest.approx(ref.x[0], rel=1e-6)


class TestSlitCorrection:
    def test_zero_width_identity(self):
        assert slit_correction(0.28, K0, 0.0) == 0.28

    def test_reference_factor(self):
        # Top-hat average of cos(k0 x) over a 40 um slit: sinc factor 0.966238.
        corrected = slit_correction(0.2802 * 0.966237985637492, K0, 0.040)
        assert corrected == pytest.approx(0.2802, rel=1e-12)

    def test_inverse_consistency(self):
        raw = 0.2708
        v = slit_correction(raw, K0, 0.040)
        assert v * 0.966237985637492 == pytest.approx(raw, rel=1e-12)

    def test_too_wide_slit_rejected(self):
        with pytest.raises(ValueError):
            slit_correction(0.5, K0, 2.0 * math.pi / K0)

    def test_campaign_factor_matches_correction(self):
        assert slit_factor(K0, 0.0) == 1.0
        assert slit_factor(K0, 0.040) == pytest.approx(0.966237985637492, rel=1e-12)
        assert slit_correction(0.2708, K0, 0.040) == 0.2708 / slit_factor(K0, 0.040)
        with pytest.raises(ValueError):
            slit_factor(K0, -0.01)

    @pytest.mark.parametrize("k0", [0.0, -10.0, -200.0, -400.0])
    def test_nonpositive_wavenumber_rejected(self, k0):
        # Before the check: 0 divided by zero, and the negative values gave
        # 0.993, a sign error and 0.124 in turn.
        with pytest.raises(ValueError, match="k0 must be > 0"):
            slit_factor(k0, 0.04)


class TestInitialGuess:
    def test_guess_lands_near_truth(self):
        x = np.linspace(-0.4, 0.4, 161)
        guess = initial_guess(x, TRUTH.evaluate(x))
        assert guess.fringe_wavenumber == pytest.approx(K0, rel=0.05)
        assert abs(guess.center_mm - TRUTH.center_mm) < 0.05
        assert 0.2 < guess.visibility < 0.9

    def test_flat_zero_profile_rejected(self):
        x = np.linspace(-0.4, 0.4, 20)
        with pytest.raises(ValueError):
            initial_guess(x, np.zeros_like(x))


class TestJacobian:
    @pytest.mark.parametrize("vector", [
        TRUTH.to_vector(),
        [50.0, 0.01, 0.4, K0, 0.3, 0.0, 2.0],    # V = 0
        [50.0, 0.01, 0.4, K0, -2.0, 1.0, 2.0],   # V = 1
        [80.0, 0.3, 0.25, K0, 1.1, 0.4, 0.0],    # off-centre envelope
        [20.0, -0.05, 5.0, K0, 0.7, 0.2, 10.0],  # envelope far wider than the scan
    ])
    def test_matches_central_difference(self, vector):
        x = np.linspace(-0.4, 0.4, 161)
        p = np.asarray(vector, dtype=float)
        jac = _model_jacobian(p, x)
        assert jac.shape == (x.size, 7)
        for j in range(7):
            step = np.zeros(7)
            step[j] = 1e-6 * max(abs(p[j]), 1.0)
            numeric = (_evaluate_vector(p + step, x) - _evaluate_vector(p - step, x)) / (
                2.0 * step[j]
            )
            assert np.abs(jac[:, j] - numeric).max() <= 1e-6 * np.abs(numeric).max()

    def test_fit_makes_no_hidden_model_evaluations(self, monkeypatch):
        # Every model evaluation is one the optimizer counts: a
        # finite-difference Jacobian would add evaluations beyond nfev.
        data = truth_scan()
        calls = []

        def counting(p, x):
            calls.append(1)
            return _evaluate_vector(p, x)

        monkeypatch.setattr(fitting, "_evaluate_vector", counting)
        result = fit_scan(data)
        assert result.converged
        assert len(calls) == result.n_evaluations


def stalling_scan():
    """Bench sweep seed 516's shifted point 92: its fit stalls at the iteration limit."""
    alpha, distance = 2.255116468239516, 457.31955393462505
    path = KlyshkoPath(OpticsConfig(shift_mm=330.0, system_visibility=0.65),
                       TurbulenceSpec.object_side(alpha, distance), source_width_mm=12.0)
    return simulate_scan(path, alpha, ObjectPattern(), DetectorModel(peak_rate_cps=50.0),
                         seed=point_seed(487496109, 92))


class TestStackedFits:
    def test_scan_rows_equal_their_single_fits(self):
        # One stack on one grid: seeded scans around an all-zero scan and a
        # scan whose fit runs to the iteration limit.  Rows stop at different
        # rounds and leave the stack; each keeps its single-fit result.
        scans = seeded_scans(6)
        x = scans[0].positions_mm
        zero = ScanData(x, np.zeros(x.size, dtype=np.int64), np.full(x.size, 4.0))
        stack = [scans[0], zero, *scans[1:3], stalling_scan(), *scans[3:]]
        stacked = fit_scans(stack)
        assert [fit.to_json() for fit in stacked] == [fit_scan(data).to_json() for data in stack]
        assert stacked[1].message == "degenerate data: all counts zero"
        assert stacked[4].message == "optimizer_stalled: iteration limit reached"
        assert stacked[4].n_evaluations > MAX_ITERATIONS
        assert all(fit.converged for i, fit in enumerate(stacked) if i not in (1, 4))

    def test_profile_rows_equal_their_single_fits(self):
        # The fringe-free profile takes 568 evaluations; in a stack with
        # quick rows, every row is still its own fit_profile.
        x = np.linspace(-0.4, 0.4, 161)
        profiles = [TRUTH.evaluate(x), 2.0 + 50.0 * np.exp(-0.5 * (x / 0.4) ** 2),
                    ObjectPattern().evaluate(x)]
        ones = np.ones((len(profiles), x.size))
        inits = [initial_guess(x, y) for y in profiles]
        stacked = _fit_rows(x, np.array(profiles), ones, ones, inits)
        singles = [fit_profile(x, y) for y in profiles]
        assert [fit.to_json() for fit in stacked] == [fit.to_json() for fit in singles]
        assert stacked[1].n_evaluations == 568

    def test_scans_on_different_grids_refused(self):
        a, b = seeded_scans(2)
        moved = ScanData(b.positions_mm + 0.001, b.counts, b.durations_s)
        with pytest.raises(ValueError, match="one position grid"):
            fit_scans([a, moved])
        assert fit_scans([]) == []

    def test_nan_jacobian_row_keeps_its_nan_errors(self):
        # A row with NaNs fails the stacked SVD; the other rows keep the
        # errors they get alone.
        rng = np.random.default_rng(3)
        jac = rng.normal(size=(3, 40, 7))
        jac[1, 5, 2] = np.nan
        errors = _curvature_errors(jac)
        assert errors[0] == _curvature_errors(jac[:1])[0]
        assert errors[2] == _curvature_errors(jac[2:])[0]
        assert all(math.isnan(e) for e in errors[1])

    def test_singular_row_does_not_fail_the_stack(self):
        # A singular step matrix is that row's non-finite step (a stall),
        # not a LinAlgError for every row.
        rng = np.random.default_rng(4)
        m = rng.normal(size=(3, 7, 7))
        a = m @ np.swapaxes(m, 1, 2) + np.eye(7)
        a[1] = 0.0
        b = rng.normal(size=(3, 7))
        steps = _solve_rows(a, b)
        for i in (0, 2):
            np.testing.assert_array_equal(steps[i], np.linalg.solve(a[i], b[i]))
        assert np.isnan(steps[1]).all()


def loop_grid_fit(x, y, c0, w0, k0=None):
    """The grid search as one least-squares solve per candidate, in grid order."""
    best = None
    for c in (c0 - 0.5 * w0, c0, c0 + 0.5 * w0):
        for w in (0.6 * w0, w0, 1.5 * w0, 2.25 * w0, 3.4 * w0):
            env = np.exp(-0.5 * ((x - c) / w) ** 2)
            cols = [env, np.ones_like(x)]
            if k0 is not None:
                cols.insert(1, env * np.cos(k0 * (x - c)))
                cols.insert(2, env * np.sin(k0 * (x - c)))
            basis = np.column_stack(cols)
            coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
            if not np.isfinite(coef).all() or coef[0] <= 0:
                continue
            cost = float(np.sum((basis @ coef - y) ** 2))
            if best is None or cost < best[0]:
                best = (cost, c, w, coef)
    if best is None:
        raise ValueError("profile has no envelope-like structure")
    return best[1], best[2], best[3]


class TestEnvelopeGridFit:
    @staticmethod
    def profiles():
        x = np.linspace(-0.4, 0.4, 161)
        fixture = read_scan_csv(FIXTURE)
        yield x, TRUTH.evaluate(x)
        yield fixture.positions_mm, fixture.rates_cps
        for data in seeded_scans(20):
            yield data.positions_mm, data.rates_cps

    def test_stacked_solve_matches_candidate_loop(self):
        for x, y in self.profiles():
            c0, w0 = _moment_scales(x, y)
            grid = _envelope_grid(x, c0, w0)
            for k0 in (None, initial_guess(x, y).fringe_wavenumber):
                center, width, coef = _envelope_grid_fit(x, y, grid, k0=k0)
                ref_center, ref_width, ref_coef = loop_grid_fit(x, y, c0, w0, k0=k0)
                assert (center, width) == (ref_center, ref_width)
                np.testing.assert_allclose(
                    coef, ref_coef, rtol=1e-9, atol=1e-9 * np.abs(ref_coef).max()
                )

    def test_no_envelope_rejected(self):
        # A dip: every candidate's envelope amplitude comes out negative.
        x = np.linspace(-0.4, 0.4, 40)
        y = 10.0 - 5.0 * np.exp(-0.5 * (x / 0.1) ** 2)
        c0, w0 = _moment_scales(x, y)
        with pytest.raises(ValueError, match="no envelope-like structure"):
            loop_grid_fit(x, y, c0, w0)
        with pytest.raises(ValueError, match="no envelope-like structure"):
            _envelope_grid_fit(x, y, _envelope_grid(x, c0, w0))


def reference_fit(data):
    """fit_scan's residual, bounds and tolerances with scipy's 2-point Jacobian."""
    from scipy.optimize import least_squares

    init = initial_guess(data.positions_mm, data.rates_cps)
    counts = data.counts.astype(float)
    sig = np.sqrt(np.maximum(counts, 1.0))
    sol = least_squares(
        lambda p: (data.durations_s * _evaluate_vector(p, data.positions_mm) - counts) / sig,
        np.clip(init.to_vector(), _PARAM_LO, _PARAM_HI),
        bounds=(_PARAM_LO, _PARAM_HI),
        method="trf",
        ftol=OBJECTIVE_TOL,
        xtol=1e-12,
        gtol=1e-12,
        max_nfev=MAX_ITERATIONS * 8,
    )
    cov = np.linalg.pinv(sol.jac.T @ sol.jac)
    return sol.x[5], math.sqrt(cov[5, 5])


class TestSameOptimum:
    def test_analytic_jacobian_finds_the_finite_difference_optimum(self):
        for data in seeded_scans(30):
            result = fit_scan(data)
            v_ref, sigma_ref = reference_fit(data)
            assert result.converged
            assert abs(result.model.visibility - v_ref) <= 1e-5
            assert result.errors["visibility"] == pytest.approx(sigma_ref, rel=1e-4)
