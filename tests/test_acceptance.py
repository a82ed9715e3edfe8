"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line and the measured values for every criterion.
"""

import math
import time

import numpy as np

from turbghost.campaign import curve_crossing, reproduce_figure, run_campaign
from turbghost.config import load_config_dict
from turbghost.engine import (
    KlyshkoPath,
    fit_kernel_sigma,
    monte_carlo_g2,
    quadrature_g2,
    synthesize_image,
)
from turbghost.fitting import fit_alpha, fit_profile, fit_scan, slit_correction
from turbghost.model import (
    AnalyticKernel,
    ObjectPattern,
    OpticsConfig,
    TurbulenceSpec,
    VisibilityPoint,
    fringe_visibility,
    fringe_wavenumber_from_cycles,
    kernel_sigma,
    validity_ratio,
)
from turbghost.scan import DetectorModel, simulate_scan
from turbghost.screens import ScreenEnsemble, estimate_structure_function

K = OpticsConfig().k
K0 = fringe_wavenumber_from_cycles(3.6)
MASTER = 20260809
ALPHA_GRID = (0.5, 2.0, 2.5)
DISTANCE_GRID = (50.0, 152.0, 203.0, 482.0)
SLIT_FACTOR = math.sin(K0 * 0.020) / (K0 * 0.020)


def crystal_path(alpha, d, shift=0.0, ws=4.0):
    optics = OpticsConfig(shift_mm=shift, system_visibility=0.65 if shift else 1.0)
    spec = TurbulenceSpec.crystal_side(alpha, d + shift)
    return KlyshkoPath(optics, spec, source_width_mm=ws)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")


def test_criterion_1_visibility_doubling_ratio():
    t0 = time.perf_counter()
    v_unshifted = fringe_visibility(1.00, 2.0, 482.0, K, K0)
    v_shifted = fringe_visibility(0.65, 2.0, 152.0, K, K0)
    ratio = v_shifted / v_unshifted
    elapsed = time.perf_counter() - t0
    ok = abs(ratio - 2.04) <= 0.01 and elapsed < 1.0
    report(1, ok, f"shifted/unshifted ratio {ratio:.4f} (target 2.04 +- 0.01), "
                  f"measured doubling 0.29/0.14 ~ 2.07; {elapsed:.3f} s")
    assert abs(ratio - 2.04) <= 0.01
    assert elapsed < 1.0


def test_criterion_2_convolution_closure():
    # Kernel -> image -> fit closure against the closed-form attenuation,
    # over the full (alpha, d) grid with the default 0.4 mm envelope:
    # within 1% where validity_ratio < 0.1, within 3% for 0.1..0.2.
    t0 = time.perf_counter()
    pattern = ObjectPattern()
    rows, violations = [], []
    for alpha in ALPHA_GRID:
        for d in DISTANCE_GRID:
            sigma = kernel_sigma(alpha, d, K)
            ratio = validity_ratio(d, alpha, K, pattern.envelope_width_mm)
            img = synthesize_image(AnalyticKernel(sigma), pattern)
            fit = fit_profile(img.positions_mm, img.values)
            assert fit.converged
            v_model = fringe_visibility(1.0, alpha, d, K, K0)
            rel = abs(fit.model.visibility - v_model) / v_model
            tol = 0.01 if ratio < 0.1 else 0.03
            rows.append(
                f"    alpha={alpha:<4} d={d:<6} ratio={ratio:.4f} "
                f"V_conv={fit.model.visibility:.5f} V_model={v_model:.5f} "
                f"rel={rel * 100:.2f}% (tol {tol * 100:.0f}%)"
            )
            if ratio <= 0.2 and rel > tol:
                violations.append(rows[-1])
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 10.0
    report(2, ok, f"{len(ALPHA_GRID) * len(DISTANCE_GRID) - len(violations)}/"
                  f"{len(ALPHA_GRID) * len(DISTANCE_GRID)} grid points inside their band; "
                  f"{elapsed:.1f} s")
    print("\n".join(rows))
    if violations:
        print("  band violations (exact finite-envelope correction "
              "exp(k0^2 sigma^2 r^2 / (2 (1+r^2))) exceeds the stated band; "
              "see Decisions in README.md):")
        print("\n".join(violations))
    assert elapsed < 10.0
    assert not violations, "convolution closure outside stated bands at: " + "; ".join(violations)


def test_criterion_3_monte_carlo_kernel_sigma():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in ALPHA_GRID:
        for d in DISTANCE_GRID:
            path = crystal_path(alpha, d)
            kern = monte_carlo_g2(path, alpha, 10000, MASTER)
            sigma = fit_kernel_sigma(kern)
            expect = kernel_sigma(alpha, d, K)
            worst = max(worst, abs(sigma / expect - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed < 60.0
    report(3, ok, f"N=10^4 tilt screens over {len(ALPHA_GRID) * len(DISTANCE_GRID)} "
                  f"(alpha, d) points: worst sigma deviation {worst * 100:.2f}% "
                  f"(tol 2%); {elapsed:.1f} s")
    assert worst <= 0.02
    assert elapsed < 60.0


def test_criterion_4_quadrature_oracle():
    # Direct quadrature of the folded kernels with the screen-averaged
    # correlation: three (alpha, d) points within 2% of the closed-form
    # width, insensitive (<= 0.5%) to doubling the source regularization.
    t0 = time.perf_counter()
    points = (
        (0.5, 482.0, 0.0, 4.0),
        (2.0, 482.0, 0.0, 4.0),
        (2.0, 152.0, 330.0, 12.0),
    )
    details = []
    worst_dev, worst_sens = 0.0, 0.0
    for alpha, d, shift, ws in points:
        sig1 = fit_kernel_sigma(quadrature_g2(crystal_path(alpha, d, shift, ws), alpha))
        sig2 = fit_kernel_sigma(quadrature_g2(crystal_path(alpha, d, shift, 2 * ws), alpha))
        expect = kernel_sigma(alpha, d, K)
        dev = abs(sig1 / expect - 1.0)
        sens = abs(sig2 / sig1 - 1.0)
        worst_dev = max(worst_dev, dev)
        worst_sens = max(worst_sens, sens)
        details.append(f"(a={alpha}, d={d}): dev {dev * 100:.2f}%, w_s-doubling {sens * 100:.2f}%")
    elapsed = time.perf_counter() - t0
    ok = worst_dev <= 0.02 and worst_sens <= 0.005 and elapsed < 300.0
    report(4, ok, "; ".join(details) + f"; {elapsed:.1f} s")
    assert worst_dev <= 0.02
    assert worst_sens <= 0.005
    assert elapsed < 300.0


def test_criterion_5_end_to_end_statistical_recovery():
    # 100 seeded replicates at truth V = 0.3 (alpha chosen so the law gives
    # 0.3 at d = 482): slit-corrected mean bias <= 0.02, reported
    # sigma_V <= 0.05.
    t0 = time.perf_counter()
    alpha = -2.0 * math.log(0.3) * (K / K0) ** 2 / 482.0**2
    path = crystal_path(alpha, 482.0)
    pattern = ObjectPattern()
    detector = DetectorModel(peak_rate_cps=200.0, integration_time_s=4.0)
    values, reported = [], []
    for seed in range(100):
        data = simulate_scan(path, alpha, pattern, detector, seed=seed, n_positions=160)
        fit = fit_scan(data)
        assert fit.converged
        values.append(slit_correction(fit.model.visibility, fit.model.fringe_wavenumber,
                                      detector.slit_width_mm))
        reported.append(fit.errors["visibility"] / SLIT_FACTOR)
    values = np.array(values)
    bias = abs(values.mean() - 0.3)
    mean_sigma = float(np.mean(reported))
    empirical = float(values.std(ddof=1))
    elapsed = time.perf_counter() - t0
    ok = bias <= 0.02 and mean_sigma <= 0.05 and elapsed < 300.0
    report(5, ok, f"100 replicates: mean V {values.mean():.4f} (bias {bias:.4f}, tol 0.02), "
                  f"reported sigma {mean_sigma:.4f} (tol 0.05), empirical {empirical:.4f}; "
                  f"{elapsed:.1f} s")
    assert bias <= 0.02
    assert mean_sigma <= 0.05
    assert elapsed < 300.0


def _alpha_campaign(alpha, sigv=0.0, rng=None):
    g = {"unshifted": 1.0, "shifted": 0.65}
    points = []
    for label in g:
        for d in (50.0, 100.0, 152.0, 203.0, 330.0, 482.0):
            v = fringe_visibility(g[label], alpha, d, K, K0)
            if rng is not None:
                v = float(np.clip(v + rng.normal(0.0, sigv), 0.0, 1.0))
            points.append(VisibilityPoint(d, v, sigv, label=label))
    return points, g


def test_criterion_6_alpha_recovery():
    t0 = time.perf_counter()
    points, g = _alpha_campaign(2.5)
    exact = fit_alpha(points, g, K, K0)
    rel = abs(exact.alpha_per_mm2 - 2.5) / 2.5
    cover = 0
    for rep in range(100):
        rng = np.random.default_rng(1000 + rep)
        points, g = _alpha_campaign(2.5, sigv=0.04, rng=rng)
        result = fit_alpha(points, g, K, K0)
        if result.converged and abs(result.alpha_per_mm2 - 2.5) <= result.alpha_sigma:
            cover += 1
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-6 and cover >= 60
    report(6, ok, f"noiseless alpha {exact.alpha_per_mm2:.9f} (rel err {rel:.2e}, "
                  f"tol 1e-6); 1-sigma coverage {cover}/100 (need >= 60); {elapsed:.1f} s")
    assert rel <= 1e-6
    assert cover >= 60


def test_criterion_7_curve_geometry(tmp_path):
    t0 = time.perf_counter()
    # Ceiling at zero effective distance, exactly.
    assert fringe_visibility(1.00, 2.0, 0.0, K, K0) == 1.00
    assert fringe_visibility(0.65, 2.0, 0.0, K, K0) == 0.65
    # Strictly decreasing in |d| for both configurations.
    d = np.linspace(0.0, 500.0, 2001)
    for g in (1.00, 0.65):
        v = np.array([fringe_visibility(g, 2.0, x, K, K0) for x in d])
        assert np.all(np.diff(v) < 0.0)
    crossing = curve_crossing(2.0, K0)
    files = reproduce_figure("fig4", tmp_path)
    rows = [r.split(",") for r in open(files[0]).read().strip().splitlines()[1:]]
    vu = np.array([float(r[1]) for r in rows])
    vs = np.array([float(r[2]) for r in rows])
    never_cross = bool(np.all(vu >= vs))
    elapsed = time.perf_counter() - t0
    ok = abs(crossing - 284.2) <= 2.0 and never_cross
    report(7, ok, f"V(0) = ceiling exact; curves strictly decreasing; crossing at "
                  f"l1 = {crossing:.1f} mm (target 284.2 +- 2); object-side curves "
                  f"never cross: {never_cross}; {elapsed:.1f} s")
    assert abs(crossing - 284.2) <= 2.0
    assert never_cross


def test_criterion_8_structure_function_statistics():
    t0 = time.perf_counter()
    ensemble = ScreenEnsemble.tilts(2.0, 10000, MASTER)
    rs = np.array([0.05, 0.1, 0.2, 0.35, 0.5])
    est = estimate_structure_function(ensemble, rs)
    ratios = est.values / (2.0 * rs**2)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all((0.95 <= ratios) & (ratios <= 1.05)))
    report(8, ok, f"D(r)/(alpha r^2) over r in [0.05, 0.5]: "
                  f"[{ratios.min():.4f}, {ratios.max():.4f}] (band [0.95, 1.05]); "
                  f"{elapsed:.1f} s")
    assert ok


def test_criterion_9_determinism():
    t0 = time.perf_counter()
    # Screens: per-index regeneration, any order or chunking.
    e1 = ScreenEnsemble.tilts(2.0, 200, MASTER)
    e2 = ScreenEnsemble.tilts(2.0, 200, MASTER)
    screens_ok = all(a.slope_rad_per_mm == b.slope_rad_per_mm for a, b in zip(e1, e2))
    # Monte Carlo kernel: bit-identical rerun.
    path = crystal_path(2.0, 482.0)
    k1 = monte_carlo_g2(path, 2.0, 3000, MASTER)
    k2 = monte_carlo_g2(path, 2.0, 3000, MASTER)
    mc_ok = np.array_equal(k1.values, k2.values) and np.array_equal(
        k1.offsets_mm, k2.offsets_mm
    )
    # Scans: bit-identical rerun.
    det = DetectorModel()
    s1 = simulate_scan(path, 2.0, ObjectPattern(), det, seed=3)
    s2 = simulate_scan(path, 2.0, ObjectPattern(), det, seed=3)
    scan_ok = np.array_equal(s1.counts, s2.counts)
    # Campaigns: bit-identical across reruns.
    raw = {
        "schema_version": 1,
        "optics": {"shift_mm": 0.0},
        "turbulence_sweep": [
            {"placement": "crystal_side", "l1_mm": l1, "alpha_per_mm2": 2.0}
            for l1 in (380.0, 430.0, 482.0)
        ],
        "engine": {"master_seed": MASTER, "scan_points": 120},
    }
    cfg = load_config_dict(raw)
    reports = [run_campaign(cfg).to_json_dict() for _ in range(3)]
    for r in reports:
        r.pop("runtime_s")
    campaign_ok = reports[0] == reports[1] == reports[2]
    elapsed = time.perf_counter() - t0
    ok = screens_ok and mc_ok and scan_ok and campaign_ok
    report(9, ok, f"screens {screens_ok}, monte carlo {mc_ok}, scans {scan_ok}, "
                  f"campaign reruns {campaign_ok}; {elapsed:.1f} s")
    assert ok
