import hashlib
import json
import math
import os

import numpy as np
import pytest

from turbghost.campaign import (
    curve_crossing,
    point_seed,
    reproduce_figure,
    run_campaign,
    simulate_point,
    write_campaign_csv,
    write_report_json,
)
from turbghost.config import (
    ConfigValueError,
    bundled_config_path,
    load_config_dict,
    read_config_json,
)
from turbghost.fitting import fit_scan, fit_scans, slit_correction, slit_factor
from turbghost.model import fringe_wavenumber_from_cycles, kernel_sigma
from turbghost.scan import read_scan_csv

K0 = fringe_wavenumber_from_cycles(3.6)

# sha256 of every figure file at master seed 9, recorded when the paper
# setups were still restated in campaign.py; the figures now read the
# bundled configs and must keep these bytes.
GOLDEN_SHA256_SEED9 = {
    "fig3_shifted_crystal_432mm.csv": "650a6c1c3581b2948ee66bb2f121f592468e6eaceb16d280bef409fc6d944fe5",
    "fig3_shifted_no_turbulence.csv": "9fd3b7b3c70bce1bea8bf9de25ddca028f13d5637f03e67e4fd137ab8552305a",
    "fig3_shifted_object_203mm.csv": "df0110c0589f75de8bac438a0949123cd15755b433772bff0dc626a1f318b969",
    "fig3_unshifted_crystal_432mm.csv": "2f4b158e7fefa2a353a71488faa032ef20ed9b507af5a9ed0506dc2df2f1eb7b",
    "fig3_unshifted_no_turbulence.csv": "0f3bee41182f47d1cc04f28bdce988eedb08a4fe0ad7a08bfb34aba96a203d31",
    "fig3_unshifted_object_229mm.csv": "a34b8b0bb4ca5e465305fcbf692d665d41b9260bc4d38b6c4ba5c46a43efcc08",
    "fig4_curve.csv": "fac3d6a868664fc9d5ab27994249356c18714efb5559ee7411ca36e7ae74d669",
    "fig5_curve.csv": "61dd0ffc36140f557dbe3dae2e4bf14edf8fe874f539f099c047fd9829bbd3d1",
    "fig5_markers.csv": "cba94e5d1683da5f177eb2737241882673b64d309e2800a473197667e96bbf6f",
}

# sha256 of each bundled campaign report's model fields at master seed 9
# (the curve, and each point's prediction and placement), recorded before
# every prediction went through model_visibility; the fitted fields are
# left out, since their last bits depend on LAPACK.
MODEL_FIELDS = ("effective_distance_mm", "model_visibility", "placement",
                "placement_distance_mm", "seed", "validity_ratio")
GOLDEN_MODEL_SHA256_SEED9 = {
    ("unshifted", 1.0): "f9d56e95189fec2a86098620b086ae6a13138e17f17bc8298e08c283cd2b4a5d",
    ("shifted", 1.0): "c2e2e24ec353a828a7a94f534995775b24d63e9df2ff655976cc81b7a0d6860b",
    ("shifted", 0.7): "8f89351217bb6f91d9b4cd0e34ab01ff5d7f10cd0a37c5a2e91672058e774a28",
}


def small_config(n_points=3, noiseless=False, seed=20260809):
    raw = {
        "schema_version": 1,
        "label": "test",
        "optics": {"shift_mm": 0.0, "system_visibility": 1.0},
        "detector": {"poisson_noise": not noiseless},
        "turbulence_sweep": [
            {"placement": "crystal_side", "l1_mm": l1, "alpha_per_mm2": 2.0}
            for l1 in np.linspace(380.0, 482.0, n_points)
        ],
        "engine": {"master_seed": seed, "scan_points": 160},
    }
    return load_config_dict(raw)


class TestRunCampaign:
    def test_empty_sweep_succeeds(self):
        cfg = load_config_dict({"schema_version": 1, "turbulence_sweep": []})
        report = run_campaign(cfg)
        assert report.points == ()

    def test_points_carry_seed_and_model(self):
        report = run_campaign(small_config())
        for p in report.points:
            assert p.seed == point_seed(20260809, p.index)
            assert 0.0 < p.model_visibility < 1.0
            assert p.converged
            assert p.error is None

    def test_noiseless_campaign_matches_model_curve(self):
        # With Poisson noise off the fitted, slit-corrected visibility must
        # track the closed-form curve within 1%.
        report = run_campaign(small_config(n_points=4, noiseless=True))
        for p in report.points:
            assert p.corrected_visibility == pytest.approx(p.model_visibility, rel=0.01)

    def test_points_slit_corrected_at_fitted_k0(self):
        cfg = small_config(n_points=2)
        slit = cfg.detector.slit_width_mm
        for p in run_campaign(cfg).points:
            fit = fit_scan(simulate_point(cfg, p.index))
            k0 = fit.model.fringe_wavenumber
            assert k0 != cfg.pattern.fringe_wavenumber
            assert p.slit_factor == slit_factor(k0, slit)
            assert p.corrected_visibility == min(slit_correction(fit.model.visibility, k0, slit), 1.0)
            assert p.corrected_sigma == slit_correction(fit.errors["visibility"], k0, slit)

    @pytest.mark.parametrize("seed", [9, 20260809])
    @pytest.mark.parametrize("mode", ["analytic", "kernel"])
    @pytest.mark.parametrize("tag", ["unshifted", "shifted"])
    def test_points_equal_single_fits(self, tag, mode, seed):
        # A campaign fits its scans as one stack; every point is bit for bit
        # what its scan's fit alone gives, evaluation count and stop reason
        # included, slit-corrected at that fit's k0.
        raw = read_config_json(bundled_config_path(f"paper_{tag}.json"))
        raw["engine"].update(master_seed=seed, mode=mode)
        cfg = load_config_dict(raw)
        slit = cfg.detector.slit_width_mm
        scans = [simulate_point(cfg, i) for i in range(len(cfg.sweep))]
        singles = [fit_scan(data) for data in scans]
        assert [fit.to_json() for fit in fit_scans(scans)] == [fit.to_json() for fit in singles]
        points = run_campaign(cfg).points
        assert [p.index for p in points] == list(range(len(scans)))
        for p, fit in zip(points, singles):
            assert p.converged == fit.converged
            if not fit.converged:
                assert p.error == f"fit failed: {fit.message}"
                continue
            k0, v, sigma = fit.model.fringe_wavenumber, fit.model.visibility, fit.errors["visibility"]
            assert (p.fitted_visibility, p.fitted_sigma) == (v, sigma)
            assert p.slit_factor == slit_factor(k0, slit)
            assert p.corrected_visibility == min(slit_correction(v, k0, slit), 1.0)
            assert p.corrected_sigma == slit_correction(sigma, k0, slit)

    def test_noiseless_kernel_mode_matches_finite_envelope_law(self):
        # A Gaussian kernel compresses the fringe to k0 w^2 / (w^2 + sigma^2),
        # and the slit acts on that fringe: corrected at the fitted k0, the
        # noiseless kernel-mode V is g v0 exp(-k0^2 sigma^2 / (2 (1 + sigma^2 / w^2))).
        raw = read_config_json(bundled_config_path("paper_unshifted.json"))
        raw["engine"]["mode"] = "kernel"
        raw["detector"].update(poisson_noise=False, integration_time_s=1e6)
        cfg = load_config_dict(raw)
        k0, w = cfg.pattern.fringe_wavenumber, cfg.pattern.envelope_width_mm
        g_v0 = cfg.optics.system_visibility * cfg.pattern.intrinsic_visibility
        for p in run_campaign(cfg).points:
            sigma = kernel_sigma(p.alpha_per_mm2, p.effective_distance_mm, cfg.optics.k)
            law = g_v0 * math.exp(-(k0 * sigma) ** 2 / (2.0 * (1.0 + (sigma / w) ** 2)))
            assert p.corrected_visibility == pytest.approx(law, rel=5e-4)

    def test_rerun_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(run_campaign(small_config()), a)
        write_report_json(run_campaign(small_config()), b)
        ra = json.loads(a.read_text())
        rb = json.loads(b.read_text())
        ra.pop("runtime_s")
        rb.pop("runtime_s")
        assert ra == rb

    def test_csv_columns(self, tmp_path):
        report = run_campaign(small_config())
        path = tmp_path / "points.csv"
        write_campaign_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "d_mm,V,sigma_V,V_model"
        assert len(lines) == 1 + len(report.points)

    def test_failure_recorded_not_fatal(self):
        # A sweep point whose scan cannot contain fringes (huge alpha kills
        # the pattern) still converges; force a failure via absurd alpha on
        # a noiseless low-rate detector instead.
        raw = {
            "schema_version": 1,
            "optics": {"shift_mm": 0.0},
            "detector": {"peak_rate_cps": 1e-6, "integration_time_s": 1.0},
            "turbulence_sweep": [
                {"placement": "crystal_side", "l1_mm": 482.0, "alpha_per_mm2": 2.0},
            ],
            "engine": {"master_seed": 1},
        }
        report = run_campaign(load_config_dict(raw))
        p = report.points[0]
        assert p.error is not None
        assert not p.converged

    @pytest.mark.parametrize("tag, v0", sorted(GOLDEN_MODEL_SHA256_SEED9))
    def test_model_fields_golden_sha256(self, tag, v0):
        raw = read_config_json(bundled_config_path(f"paper_{tag}.json"))
        raw["engine"]["master_seed"] = 9
        raw["pattern"]["intrinsic_visibility"] = v0
        doc = run_campaign(load_config_dict(raw)).to_json_dict()
        model = {"curve": doc["curve"],
                 "points": [{k: p[k] for k in MODEL_FIELDS} for p in doc["points"]]}
        digest = hashlib.sha256(json.dumps(model, sort_keys=True).encode("ascii")).hexdigest()
        assert digest == GOLDEN_MODEL_SHA256_SEED9[tag, v0]

    def test_squarewave_refused_before_any_point(self, monkeypatch):
        # The sinusoid law is the reported model_visibility; a square wave's
        # fit reads its harmonics, so the campaign refuses it up front.
        raw = read_config_json(bundled_config_path("paper_unshifted.json"))
        raw["pattern"]["form"] = "squarewave"
        monkeypatch.setattr("turbghost.campaign._run_points", None)
        with pytest.raises(ConfigValueError, match=r"^pattern\.form"):
            run_campaign(load_config_dict(raw))

    def test_programming_error_propagates(self, monkeypatch):
        def broken_fit(data):
            raise TypeError("broken fit")

        monkeypatch.setattr("turbghost.campaign.fit_scans", broken_fit)
        with pytest.raises(TypeError, match="broken fit"):
            run_campaign(small_config(n_points=1))


class TestFigureData:
    def test_fig5_values_and_crossing(self, tmp_path):
        files = reproduce_figure("fig5", tmp_path)
        curve = {os.path.basename(f): f for f in files}
        lines = open(curve["fig5_curve.csv"]).read().strip().splitlines()
        assert lines[0] == "l1_mm,V_unshifted,V_shifted"
        rows = {float(r.split(",")[0]): tuple(map(float, r.split(",")[1:])) for r in lines[1:]}
        assert rows[482.0][0] == pytest.approx(0.28023876854208574, rel=1e-9)
        assert rows[482.0][1] == pytest.approx(0.572758464824195, rel=1e-9)
        markers = dict(
            line.split(",") for line in open(curve["fig5_markers.csv"]).read().strip().splitlines()[1:]
        )
        assert float(markers["central_image_plane"]) == 330.0
        assert float(markers["curve_crossing"]) == pytest.approx(284.2018021803766, abs=1e-4)

    def test_fig4_zero_distance_equals_ceiling(self, tmp_path):
        files = reproduce_figure("fig4", tmp_path)
        lines = open(files[0]).read().strip().splitlines()
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.00, rel=1e-12)
        assert float(first[2]) == pytest.approx(0.65, rel=1e-12)

    def test_fig4_never_crosses(self, tmp_path):
        files = reproduce_figure("fig4", tmp_path)
        rows = [r.split(",") for r in open(files[0]).read().strip().splitlines()[1:]]
        vu = np.array([float(r[1]) for r in rows])
        vs = np.array([float(r[2]) for r in rows])
        assert np.all(vu >= vs)

    def test_fig3_scans_ingestible_with_provenance(self, tmp_path):
        files = reproduce_figure("fig3", tmp_path, master_seed=123)
        assert len(files) == 6
        for path in files:
            text = open(path).read()
            assert text.startswith("# synthetic scan")
            assert "invented default" in text
            data = read_scan_csv(path)
            assert len(data) == 160

    def test_golden_regeneration_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for which in ("fig3", "fig4", "fig5"):
            fa = reproduce_figure(which, a, master_seed=9)
            fb = reproduce_figure(which, b, master_seed=9)
            for pa, pb in zip(fa, fb):
                assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_crossing_helper(self):
        assert curve_crossing(2.0, K0) == pytest.approx(284.2018021803766, abs=1e-6)

    def test_golden_sha256(self, tmp_path):
        written = [p for which in ("fig3", "fig4", "fig5")
                   for p in reproduce_figure(which, tmp_path, master_seed=9)]
        digests = {}
        for path in written:
            with open(path, "rb") as fh:
                digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
        assert digests == GOLDEN_SHA256_SEED9

    @pytest.mark.parametrize("which", ["fig3", "fig4", "fig5"])
    def test_negative_master_seed_refused_before_any_directory(self, tmp_path, which):
        out = tmp_path / "figs"
        with pytest.raises(ValueError, match="master_seed"):
            reproduce_figure(which, out, master_seed=-1)
        assert not out.exists()

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_crossing_needs_turbulence(self, alpha):
        with pytest.raises(ValueError):
            curve_crossing(alpha, K0)
