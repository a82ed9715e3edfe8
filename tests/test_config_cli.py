import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import turbghost
from turbghost.campaign import simulate_point
from turbghost.cli import main
from turbghost.config import (
    ConfigParseError,
    ConfigSchemaError,
    ConfigValueError,
    bundled_config_path,
    config_hash,
    load_config,
)
from turbghost.fitting import fit_scan
from turbghost.model import OpticsConfig, kernel_sigma
from turbghost.scan import ScanCSVError, format_scan_csv, read_scan_csv

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "fixture_scan_seed424242.csv")
# Slit-attenuated visibility of the fixture's generating model:
# fringe_visibility(1.0, 2.0, 482, k, k0) * 0.966238.
FIXTURE_TRUTH = 0.2707773432136363


def minimal_config(tmp_path, **mutations):
    raw = {
        "schema_version": 1,
        "optics": {"shift_mm": 0.0, "system_visibility": 1.0},
        "turbulence_sweep": [
            {"placement": "crystal_side", "l1_mm": 482.0, "alpha_per_mm2": 2.0}
        ],
        "engine": {"master_seed": 7, "scan_points": 120},
    }
    raw.update(mutations)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestBundledConfigs:
    def test_unshifted(self):
        cfg = load_config(bundled_config_path("paper_unshifted.json"))
        assert cfg.optics.shift_mm == 0.0
        assert cfg.optics.system_visibility == 1.00
        assert cfg.detector.peak_rate_cps == 200.0
        assert cfg.pattern.fringe_wavenumber == pytest.approx(7.2 * np.pi)

    def test_shifted(self):
        cfg = load_config(bundled_config_path("paper_shifted.json"))
        assert cfg.optics.shift_mm == 330.0
        assert cfg.optics.system_visibility == 0.65
        assert cfg.detector.peak_rate_cps == 50.0

    def test_hash_stable(self):
        cfg = load_config(bundled_config_path("paper_unshifted.json"))
        assert config_hash(cfg) == config_hash(cfg)

    def test_unknown_bundle_name(self):
        with pytest.raises(FileNotFoundError):
            bundled_config_path("nope.json")


class TestConfigValidation:
    def test_minimal_loads(self, tmp_path):
        cfg = load_config(minimal_config(tmp_path))
        assert len(cfg.sweep) == 1
        assert cfg.engine.master_seed == 7

    def test_parse_error_distinct(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigParseError):
            load_config(path)

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = minimal_config(tmp_path, optics={"shift_mm": 0.0, "focal_len_mm": 500.0})
        with pytest.raises(ConfigSchemaError, match="focal_len_mm"):
            load_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = minimal_config(tmp_path, extra_section={})
        with pytest.raises(ConfigSchemaError, match="extra_section"):
            load_config(path)

    def test_schema_version_required(self, tmp_path):
        path = minimal_config(tmp_path, schema_version=99)
        with pytest.raises(ConfigSchemaError, match="schema_version"):
            load_config(path)

    def test_physical_invariant_distinct(self, tmp_path):
        path = minimal_config(tmp_path, optics={"shift_mm": 1200.0})
        with pytest.raises(ConfigValueError):
            load_config(path)

    def test_sweep_point_out_of_range(self, tmp_path):
        path = minimal_config(
            tmp_path,
            turbulence_sweep=[{"placement": "crystal_side", "l1_mm": 1500.0, "alpha_per_mm2": 1.0}],
        )
        with pytest.raises(ConfigValueError, match="turbulence_sweep"):
            load_config(path)

    def test_wrong_type_rejected(self, tmp_path):
        path = minimal_config(tmp_path, optics={"shift_mm": "zero"})
        with pytest.raises(ConfigSchemaError, match="shift_mm"):
            load_config(path)

    @pytest.mark.parametrize("exponent", [1.0, 5.0 / 3.0])
    def test_non_square_law_exponent_rejected(self, tmp_path, exponent):
        path = minimal_config(tmp_path, turbulence_sweep=[
            {"placement": "crystal_side", "l1_mm": 482.0, "alpha_per_mm2": 2.0,
             "exponent": exponent},
        ])
        with pytest.raises(ConfigValueError, match=r"turbulence_sweep\[0\]\.exponent"):
            load_config(path)

    def test_square_law_exponent_accepted(self, tmp_path):
        sweep = [{"placement": "crystal_side", "l1_mm": 482.0, "alpha_per_mm2": 2.0}]
        implicit = load_config(minimal_config(tmp_path, turbulence_sweep=sweep))
        sweep[0]["exponent"] = 2.0
        explicit = load_config(minimal_config(tmp_path, turbulence_sweep=sweep))
        assert config_hash(explicit) == config_hash(implicit)

    def test_both_wavenumber_forms_rejected(self, tmp_path):
        path = minimal_config(
            tmp_path,
            pattern={"fringe_cycles_per_mm": 3.6, "fringe_wavenumber_rad_per_mm": 22.6},
        )
        with pytest.raises(ConfigSchemaError):
            load_config(path)


class TestCLI:
    def test_analytic_point(self, capsys):
        rc = main(["analytic", "--alpha-per-mm2", "2.0", "--effective-distance-mm", "482"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(0.28023876854208574, rel=1e-9)

    def test_analytic_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main([
            "analytic", "--alpha-per-mm2", "2.0", "--curve", "0", "250", "26",
            "--output", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "d_mm,V"
        assert len(lines) == 27

    def test_kernel_analytic(self, tmp_path):
        out = tmp_path / "kernel.csv"
        rc = main(["kernel", "--method", "analytic", "--output", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert float(header.split("=")[1]) == pytest.approx(0.07051727546300533, rel=1e-9)

    def test_kernel_mc(self, tmp_path):
        out = tmp_path / "kernel_mc.csv"
        rc = main([
            "kernel", "--method", "mc", "--n-realizations", "4000",
            "--master-seed", "11", "--output", str(out),
        ])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        sigma = float(header.split("=")[1])
        assert sigma == pytest.approx(0.07051727546300533, rel=0.03)

    def test_kernel_quadrature_shifted(self, tmp_path):
        out = tmp_path / "kernel_quad.csv"
        rc = main([
            "kernel", "--method", "quadrature", "--shift-mm", "330",
            "--source-width-mm", "12", "--effective-distance-mm", "152",
            "--output", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        sigma = float(lines[0].split("=")[1])
        assert sigma == pytest.approx(kernel_sigma(2.0, 152.0, OpticsConfig().k), rel=0.02)
        assert lines[1] == "offset_mm,value,stderr"
        stderr = np.array([float(ln.split(",")[2]) for ln in lines[2:]])
        assert stderr.size == 21
        assert np.all(stderr >= 0.0)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["simulate", "--config", str(path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_config_value_exit_code(self, tmp_path, capsys):
        path = minimal_config(tmp_path, optics={"shift_mm": 1200.0})
        rc = main(["campaign", "--config", str(path)])
        assert rc == 2

    def test_simulate_then_fit(self, tmp_path, capsys):
        cfg = minimal_config(tmp_path)
        scan_path = tmp_path / "scan.csv"
        rc = main(["simulate", "--config", str(cfg), "--output", str(scan_path)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["fit", str(scan_path), "--slit-width-mm", "0.04"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert 0.0 <= payload["model"]["visibility"] <= 1.0
        assert "slit_corrected_visibility" in payload

    def test_set_override_wins_over_file(self, tmp_path):
        cfg = minimal_config(tmp_path)
        scan_a = tmp_path / "a.csv"
        scan_b = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(scan_a)]) == 0
        assert main([
            "simulate", "--config", str(cfg), "--output", str(scan_b),
            "--set", "engine.master_seed=99",
        ]) == 0
        assert scan_a.read_bytes() != scan_b.read_bytes()

    def test_simulate_writes_campaign_point_scan(self, tmp_path):
        cfg = minimal_config(tmp_path, turbulence_sweep=[
            {"placement": "crystal_side", "l1_mm": l1, "alpha_per_mm2": 2.0}
            for l1 in (432.0, 482.0)
        ])
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(cfg), "--sweep-index", "1",
                     "--output", str(out)]) == 0
        expected = format_scan_csv(simulate_point(load_config(str(cfg)), 1))
        assert out.read_text() == expected

    @pytest.mark.parametrize("index", ["99", "-1"])
    def test_simulate_sweep_index_out_of_range(self, tmp_path, capsys, index):
        cfg = minimal_config(tmp_path)
        out = tmp_path / "scan.csv"
        rc = main(["simulate", "--config", str(cfg), "--sweep-index", index, "--output", str(out)])
        assert rc == 2
        assert "sweep index" in capsys.readouterr().err
        assert not out.exists()

    def test_campaign_has_no_workers_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--config", str(minimal_config(tmp_path)), "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_python_dash_m_version(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(turbghost.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "turbghost", "--version"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"turbghost {turbghost.__version__}"

    def test_fit_nonconvergent_exit_code(self, tmp_path, capsys):
        p = tmp_path / "zeros.csv"
        rows = ["position_mm,counts,duration_s"] + [
            f"{0.005 * i!r},0,1.0" for i in range(40)
        ]
        p.write_text("\n".join(rows) + "\n")
        rc = main(["fit", str(p)])
        assert rc == 3


NON_FINITE = ("inf", "-inf", "+inf", "Infinity", "nan", "NaN", "-nan")


@settings(max_examples=60, deadline=None)
@given(
    row=st.integers(min_value=0, max_value=14),
    column=st.integers(min_value=0, max_value=2),
    bad=st.sampled_from(NON_FINITE),
)
def test_non_finite_scan_row_exits_2(row, column, bad):
    # Any inf/nan field in any row is a typed ScanCSVError, and the CLI
    # reports it as exit 2 (never exit 3, never a solver warning).
    rows = ["position_mm,counts,duration_s"]
    for i in range(15):
        fields = [repr(0.005 * i), str(100 + 20 * (i % 3)), "4.0"]
        if i == row:
            fields[column] = bad
        rows.append(",".join(fields))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scan.csv")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(rows) + "\n")
        with pytest.raises(ScanCSVError):
            read_scan_csv(path)
        assert main(["fit", path]) == 2


class TestIngestFixture:
    def test_ingest_and_fit_recovers_truth(self):
        data = read_scan_csv(FIXTURE)
        result = fit_scan(data)
        assert result.converged
        v, sv = result.model.visibility, result.errors["visibility"]
        assert abs(v - FIXTURE_TRUTH) <= 2.0 * sv

    def test_round_trip_identity(self, tmp_path):
        data = read_scan_csv(FIXTURE)
        from turbghost.scan import write_scan_csv

        out = tmp_path / "copy.csv"
        write_scan_csv(data, out)
        back = read_scan_csv(out)
        np.testing.assert_array_equal(back.positions_mm, data.positions_mm)
        np.testing.assert_array_equal(back.counts, data.counts)
