import json
import os
import re
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
    ConfigError,
    ConfigParseError,
    ConfigSchemaError,
    ConfigValueError,
    bundled_config_path,
    config_hash,
    config_to_dict,
    load_config,
    load_config_dict,
    read_config_json,
)
from turbghost.fitting import fit_scan
from turbghost.model import OpticsConfig, kernel_sigma
from turbghost.scan import ScanCSVError, ScanData, format_scan_csv, read_scan_csv

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

    # config_hash of each bundled config, and of the unshifted one with an
    # object-side point appended, recorded while TurbulenceSpec still held
    # a side and two optional distances: the echo must keep these bytes.
    OBJECT_SIDE_POINT = {"placement": "object_side", "distance_from_object_mm": 203.0,
                         "alpha_per_mm2": 2.0}
    GOLDEN_CONFIG_HASH = {
        ("paper_unshifted.json", False):
            "42c57743fb18f471679ed9fb5f25e8d93a79b975e36c58a3f057ffafc7eb5d68",
        ("paper_shifted.json", False):
            "3d5f1a6c057b9440abdde42418f9fa2ffe88e9166b38e4f30ac5ad9bb2f93d73",
        ("paper_unshifted.json", True):
            "c5e7914ce4c0ad234a8e1101803ed5037f98f5d921b6aba464c2d669cc130f8a",
    }

    @pytest.mark.parametrize("name, object_side", sorted(GOLDEN_CONFIG_HASH))
    def test_config_hash_golden(self, name, object_side):
        raw = read_config_json(bundled_config_path(name))
        if object_side:
            raw["turbulence_sweep"].append(dict(self.OBJECT_SIDE_POINT))
        assert config_hash(load_config_dict(raw)) == self.GOLDEN_CONFIG_HASH[name, object_side]

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

    def test_source_width_checked_at_load(self, tmp_path):
        # Every sweep point's folded path is built at load, so a source
        # envelope narrower than ~100/k is a config error, not a failure
        # recorded at each point when the campaign runs.
        path = minimal_config(tmp_path, engine={"source_width_mm": 0.001})
        with pytest.raises(ConfigValueError, match=r"engine\.source_width_mm"):
            load_config(path)

    @pytest.mark.parametrize("command, output", [("campaign", "--output-dir"),
                                                 ("simulate", "--output")])
    def test_narrow_source_width_exits_config(self, tmp_path, capsys, command, output):
        target = str(tmp_path if command == "campaign" else tmp_path / "scan.csv")
        rc = main([command, "--set", "engine.source_width_mm=0.001", output, target])
        assert rc == 2
        assert "engine.source_width_mm" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("override, key", [
        ("engine.source_width_mm=0", "engine.source_width_mm"),
        ("engine.scan_points=1", "engine.scan_points"),
        ("engine.master_seed=-1", "engine.master_seed"),
        ("optics.system_visibility=0", "optics.system_visibility"),
        ("optics.shift_mm=1200", "optics.shift_mm"),
        ("detector.slit_step_mm=0.1", "detector.slit_step_mm"),
        ("pattern.envelope_width_mm=0", "pattern.envelope_width_mm"),
        ("pattern.fringe_cycles_per_mm=0", "pattern.fringe_cycles_per_mm"),
        ("pattern.fringe_wavenumber_rad_per_mm=-1", "pattern.fringe_wavenumber_rad_per_mm"),
        ("pattern.intrinsic_visibility=2", "pattern.intrinsic_visibility"),
        ('turbulence_sweep=[{"placement": "crystal_side", "l1_mm": 482, "alpha_per_mm2": -1}]',
         "turbulence_sweep[0].alpha_per_mm2"),
    ])
    def test_model_check_names_its_key(self, tmp_path, capsys, override, key):
        out = tmp_path / "scan.csv"
        rc = main(["simulate", "--config", str(minimal_config(tmp_path)), "--set", override,
                   "--output", str(out)])
        assert rc == 2
        assert f"configuration error: {key}: " in capsys.readouterr().err
        assert not out.exists()

    def test_null_override_removes_a_key(self, tmp_path):
        # The bundled config gives fringe_cycles_per_mm; removing it lets the
        # radian spelling of the fringe wavenumber replace it.
        out = tmp_path / "scan.csv"
        rc = main(["simulate", "--set", "pattern.fringe_cycles_per_mm=null",
                   "--set", "pattern.fringe_wavenumber_rad_per_mm=20", "--output", str(out)])
        assert rc == 0
        assert out.exists()

    def test_both_wavenumber_spellings_name_the_null_override(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(["simulate", "--set", "pattern.fringe_wavenumber_rad_per_mm=20", "--output", str(out)])
        assert rc == 2
        assert "--set pattern.<key>=null" in capsys.readouterr().err
        assert not out.exists()

    def test_null_override_of_required_key_exits_2(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(["simulate", "--set", "schema_version=null", "--output", str(out)])
        assert rc == 2
        assert "configuration error: config.schema_version: " in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("section, key", [
        ("engine", "n_realizations"),
        ("optics", "image_arm_crystal_to_lens_mm"),
        ("optics", "object_arm_crystal_to_lens_mm"),
        ("optics", "lens_to_detector_mm"),
    ])
    def test_removed_key_rejected_with_dotted_path(self, tmp_path, section, key):
        path = minimal_config(tmp_path, **{section: {key: 1000}})
        with pytest.raises(ConfigSchemaError, match=rf"{section}\.{key}\b"):
            load_config(path)

    @pytest.mark.parametrize("mutation, key", [
        ({"optics": []}, "optics: expected an object"),
        ({"turbulence_sweep": [{"placement": "crystal_side", "l1_mm": 482.0}]},
         "turbulence_sweep[0].alpha_per_mm2: required key missing"),
        ({"engine": {"master_seed": 7.5}}, "engine.master_seed: expected an integer"),
        ({"label": 5}, "config.label: expected a string"),
        ({"detector": {"poisson_noise": 1}}, "detector.poisson_noise: expected a boolean"),
        ({"turbulence_sweep": [{"l1_mm": 482.0, "alpha_per_mm2": 2.0}]},
         "turbulence_sweep[0].placement: required key missing"),
        ({"turbulence_sweep": [{"placement": "crystal_side", "l1_mm": 482.0,
                                "distance_from_object_mm": 200.0, "alpha_per_mm2": 2.0}]},
         "turbulence_sweep[0]: crystal_side takes l1_mm"),
        ({"turbulence_sweep": [{"placement": "object_side", "distance_from_object_mm": 200.0,
                                "l1_mm": 482.0, "alpha_per_mm2": 2.0}]},
         "turbulence_sweep[0]: object_side takes distance_from_object_mm"),
        ({"turbulence_sweep": {"placement": "crystal_side"}},
         "config.turbulence_sweep: expected a list"),
    ])
    def test_schema_error_names_its_key(self, tmp_path, mutation, key):
        with pytest.raises(ConfigSchemaError) as exc:
            load_config(minimal_config(tmp_path, **mutation))
        assert str(exc.value).startswith(key)

    def test_bad_mode_is_schema_error(self, tmp_path):
        path = minimal_config(tmp_path, engine={"mode": "exact"})
        with pytest.raises(ConfigSchemaError, match=r"engine\.mode"):
            load_config(path)

    def test_both_wavenumber_forms_rejected(self, tmp_path):
        path = minimal_config(
            tmp_path,
            pattern={"fringe_cycles_per_mm": 3.6, "fringe_wavenumber_rad_per_mm": 22.6},
        )
        with pytest.raises(ConfigSchemaError):
            load_config(path)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def numeric_leaves(raw):
    """(dotted key as the loader names it, parent, key) of every number in a raw config."""
    leaves = [(f"config.{k}", raw, k) for k, v in raw.items() if _is_number(v)]
    for section, node in raw.items():
        entries = ([(section, node)] if isinstance(node, dict) else
                   [(f"{section}[{i}]", e) for i, e in enumerate(node)] if isinstance(node, list)
                   else [])
        for path, entry in entries:
            leaves += [(f"{path}.{k}", entry, k) for k, v in entry.items() if _is_number(v)]
    return leaves


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("name", ["paper_unshifted.json", "paper_shifted.json"])
def test_non_finite_number_refused_naming_its_key(name, value):
    path = bundled_config_path(name)
    leaves = numeric_leaves(read_config_json(path))
    assert len(leaves) >= 20
    for index, (dotted, _, _) in enumerate(leaves):
        raw = read_config_json(path)  # a fresh copy for each leaf
        _, parent, key = numeric_leaves(raw)[index]
        was_float = isinstance(parent[key], float)
        parent[key] = value
        # A float leaf is a ConfigValueError; an integer leaf (seed, counts,
        # schema version) refuses a float by type, also exit 2.
        with pytest.raises(ConfigValueError if was_float else ConfigError) as exc:
            load_config_dict(raw)
        assert str(exc.value).startswith(dotted), (dotted, str(exc.value))


# The one-key mutation values of ROADMAP item 17's scan of the bundled configs.
MUTATIONS = (0, -1, 1e-12, 1e12, 1e300, float("nan"), float("inf"), -0.0, 2.5, "x", None, True,
             [], {}, 10**30)


def scalar_leaves(raw):
    """Key path of every scalar in a raw config; sweep entry 0 stands for the sweep."""
    paths = [(k,) for k, v in raw.items() if not isinstance(v, (dict, list))]
    for section, node in raw.items():
        if isinstance(node, dict):
            paths += [(section, k) for k in node]
        elif isinstance(node, list):
            paths += [(section, 0, k) for k in node[0]]
    return paths


BUNDLED_LEAVES = [(name, path) for name in ("paper_unshifted.json", "paper_shifted.json")
                  for path in scalar_leaves(read_config_json(bundled_config_path(name)))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(leaf=st.sampled_from(BUNDLED_LEAVES), value=st.sampled_from(MUTATIONS))
def test_one_key_mutation_runs_or_is_refused_naming_the_key(leaf, value):
    # Any one key of a bundled config (trimmed to one sweep point) set to
    # any mutation value either runs to a report or is a ConfigError whose
    # message names that key.  A scan layout past the synthesis ceilings is
    # refused at load, so a loaded config is checked against them before it
    # runs and this test never asks for a large array.
    from turbghost.campaign import run_campaign
    from turbghost.scan import MAX_GRID_POINTS, MAX_SCAN_POINTS, _fine_grid

    name, path = leaf
    raw = read_config_json(bundled_config_path(name))
    raw["turbulence_sweep"] = raw["turbulence_sweep"][:1]
    parent = raw
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    try:
        cfg = load_config_dict(raw)
        eng, det, pattern = cfg.engine, cfg.detector, cfg.pattern
        half = det.slit_step_mm * (eng.scan_points - 1) / 2.0
        assert eng.scan_points <= MAX_SCAN_POINTS
        assert _fine_grid(pattern.envelope_width_mm, pattern.fringe_wavenumber, det.slit_width_mm,
                          eng.scan_center_mm - half, eng.scan_center_mm + half)[2] <= MAX_GRID_POINTS
        report = run_campaign(cfg)
    except ConfigError as exc:
        assert path[-1] in str(exc), (path, value, str(exc))
    else:
        assert len(report.points) == 1


@pytest.mark.parametrize("key, value", [
    ("pattern.envelope_width_mm", 1e-12),
    ("pattern.envelope_width_mm", 1e12),
    ("engine.scan_center_mm", 1e12),
    ("engine.scan_center_mm", 1e6),
    ("pattern.fringe_cycles_per_mm", 1e12),
    ("detector.slit_width_mm", 1e12),
    ("engine.scan_points", 10**30),
])
def test_synthesis_ceiling_refused_at_load_naming_the_key(key, value):
    raw = read_config_json(bundled_config_path("paper_unshifted.json"))
    section, name = key.split(".")
    raw[section][name] = value
    with pytest.raises(ConfigValueError, match=rf"^{re.escape(key)}: "):
        load_config_dict(raw)


class TestConfigEcho:
    KERNEL_MODE = {
        "schema_version": 1,
        "pattern": {"fringe_wavenumber_rad_per_mm": 22.6, "intrinsic_visibility": 0.8},
        "turbulence_sweep": [
            {"placement": "object_side", "distance_from_object_mm": 203.0, "alpha_per_mm2": 2.0}
        ],
        "engine": {"mode": "kernel", "master_seed": 3},
    }

    @pytest.mark.parametrize("raw", [
        "paper_unshifted.json",
        "paper_shifted.json",
        {"schema_version": 1},
        KERNEL_MODE,
    ], ids=["paper_unshifted", "paper_shifted", "minimal", "kernel_mode_radians"])
    def test_echo_loads_back_with_same_hash(self, raw):
        if isinstance(raw, str):
            cfg = load_config(bundled_config_path(raw))
        else:
            cfg = load_config_dict(raw)
        echo = config_to_dict(cfg)
        assert "output_dir" not in echo
        again = load_config_dict(echo)
        assert config_hash(again) == config_hash(cfg)
        assert config_to_dict(again) == echo

    def test_output_dir_not_hashed(self):
        a = load_config_dict({"schema_version": 1})
        b = load_config_dict({"schema_version": 1, "output_dir": "elsewhere"})
        assert b.output_dir == "elsewhere"
        assert config_hash(a) == config_hash(b)


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
        assert np.all(stderr == 0.0)

    @pytest.mark.parametrize("method", ["mc", "quadrature"])
    def test_kernel_reads_wavelength(self, tmp_path, method):
        # sigma = sqrt(alpha) d / k scales with the wavelength at a fixed seed.
        seeded = ["--n-realizations", "2000", "--master-seed", "11"] if method == "mc" else []
        sigmas = []
        for nm in ("650", "800"):
            out = tmp_path / f"kernel_{method}_{nm}.csv"
            rc = main([
                "kernel", "--method", method, *seeded, "--wavelength-nm", nm, "--output", str(out),
            ])
            assert rc == 0
            sigmas.append(float(out.read_text().splitlines()[0].split("=")[1]))
        assert sigmas[1] / sigmas[0] == pytest.approx(800.0 / 650.0, rel=1e-6)

    @pytest.mark.parametrize("method, flag, value", [
        ("analytic", "--shift-mm", "330"),
        ("analytic", "--source-width-mm", "12"),
        ("analytic", "--n-realizations", "50"),
        ("analytic", "--master-seed", "5"),
        ("mc", "--shift-mm", "330"),
        ("mc", "--source-width-mm", "12"),
        ("quadrature", "--n-realizations", "50"),
        ("quadrature", "--master-seed", "5"),
    ])
    def test_kernel_refuses_flag_its_method_ignores(self, capsys, method, flag, value):
        assert main(["kernel", "--method", method, flag, value]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and flag in err

    @pytest.mark.parametrize("n", ["2.7", "0", "-3", "nan"])
    def test_analytic_curve_refuses_bad_count(self, capsys, n):
        rc = main(["analytic", "--curve", "0", "250", n])
        assert rc == 2
        captured = capsys.readouterr()
        assert "configuration error: --curve N" in captured.err
        assert captured.out == ""

    def test_analytic_curve_refuses_effective_distance(self, capsys):
        rc = main(["analytic", "--curve", "0", "250", "26", "--effective-distance-mm", "100"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err and "--effective-distance-mm" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("figure", ["fig4", "fig5"])
    def test_reproduce_model_curve_refuses_master_seed(self, tmp_path, capsys, figure):
        out = tmp_path / "figs"
        rc = main(["reproduce", "--figure", figure, "--master-seed", "5", "--output-dir", str(out)])
        assert rc == 2
        assert "--master-seed" in capsys.readouterr().err
        assert not out.exists()

    def test_reproduce_refuses_negative_master_seed(self, tmp_path, capsys):
        out = tmp_path / "figs"
        rc = main(["reproduce", "--figure", "fig3", "--master-seed", "-1", "--output-dir", str(out)])
        assert rc == 2
        assert "configuration error: --master-seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_reproduce_fig3_reads_master_seed(self, tmp_path):
        files = {}
        for seed in (None, "20260809", "5"):
            out = tmp_path / f"fig3_{seed}"
            seeded = [] if seed is None else ["--master-seed", seed]
            assert main(["reproduce", "--figure", "fig3", *seeded, "--output-dir", str(out)]) == 0
            files[seed] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert files[None] == files["20260809"] != files["5"]

    def test_campaign_output_dir_flag_wins_over_file(self, tmp_path, capsys):
        cfg = minimal_config(tmp_path, output_dir=str(tmp_path / "file"))
        written = ["campaign_points.csv", "campaign_report.json"]
        assert main(["campaign", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in (tmp_path / "file").iterdir()) == written
        assert main(["campaign", "--config", str(cfg), "--output-dir", str(tmp_path / "flag")]) == 0
        assert sorted(p.name for p in (tmp_path / "flag").iterdir()) == written

    def test_simulate_has_no_output_dir_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(minimal_config(tmp_path)),
                  "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--output-dir" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_kernel_rejects_system_visibility(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "--system-visibility", "0.5"])
        assert exc.value.code == 2

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["simulate", "--config", str(path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_campaign_missing_config_exit_code(self, tmp_path, capsys):
        rc = main(["campaign", "--config", str(tmp_path / "missing.json"),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_campaign_invalid_json_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["campaign", "--config", str(path), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

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

    def test_version_matches_pyproject(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
            declared = re.search(r'^version = "([^"]+)"$', fh.read(), re.M).group(1)
        assert declared == turbghost.__version__

    def test_campaign_slit_too_wide_exits_before_any_point(self, tmp_path, capsys):
        # k0 * 0.3 / 2 > pi at 3.6 cycles/mm: no point's visibility could be
        # slit-corrected, so the campaign refuses the config and writes nothing.
        rc = main(["campaign", "--config", str(minimal_config(tmp_path)),
                   "--set", "detector.slit_width_mm=0.3",
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "configuration error: detector.slit_width_mm: slit too wide" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_campaign_squarewave_exits_2_and_writes_nothing(self, tmp_path, capsys):
        rc = main(["campaign", "--config", str(minimal_config(tmp_path)),
                   "--set", 'pattern.form="squarewave"',
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "configuration error: pattern.form" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("override", ["detector.background_cps=NaN",
                                          "detector.integration_time_s=Infinity"])
    def test_campaign_non_finite_exits_2_and_writes_nothing(self, tmp_path, capsys, override):
        rc = main(["campaign", "--set", override, "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        key = override.split("=")[0]
        assert f"configuration error: {key}: must be a finite number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_simulate_accepts_squarewave(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(["simulate", "--config", str(minimal_config(tmp_path)),
                   "--set", 'pattern.form="squarewave"', "--output", str(out)])
        assert rc == 0
        assert len(read_scan_csv(out)) == 120

    def test_fit_short_scan_is_nonconverged(self, tmp_path, capsys):
        # 0.8 mm of a 3 mm fringe: a non-converged result, printed, exit 3.
        p = tmp_path / "short.csv"
        x = np.linspace(-0.4, 0.4, 50)
        counts = np.rint(5000.0 * np.exp(-0.5 * (x / 0.4) ** 2) * (1.0 + 0.5 * np.cos(2.0 * x)))
        p.write_text(format_scan_csv(ScanData(x, counts, np.full_like(x, 100.0))))
        rc = main(["fit", str(p)])
        assert rc == 3
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert payload["converged"] is False
        assert payload["message"] == "degenerate data: scan spans fewer than two fringe periods"
        assert "configuration error" not in out.err

    def test_fit_malformed_header_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("counts,position_mm,duration_s\n" + "".join(
            f"{100 + i},{0.005 * i!r},4.0\n" for i in range(20)))
        assert main(["fit", str(p)]) == 2
        assert "configuration error: columns must be exactly" in capsys.readouterr().err

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

    def test_fixture_is_the_seeded_unshifted_scan(self):
        # The fixture is exactly the unshifted path's scan at alpha 2,
        # d 482 mm, default pattern and detector, seed 424242.
        from turbghost.engine import KlyshkoPath
        from turbghost.model import ObjectPattern, TurbulenceSpec
        from turbghost.scan import DetectorModel, simulate_scan

        path = KlyshkoPath(OpticsConfig(), TurbulenceSpec.crystal_side(2.0, 482.0))
        data = simulate_scan(path, 2.0, ObjectPattern(), DetectorModel(), seed=424242)
        with open(FIXTURE, "rb") as fh:
            assert format_scan_csv(data).encode("ascii") == fh.read()
