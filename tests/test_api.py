import ast
import importlib
import os
import pkgutil

import numpy as np
import pytest

import turbghost
from turbghost import campaign, config, engine, fitting, model, scan, screens
from turbghost.model import AnalyticKernel, ObjectPattern, OpticsConfig, TurbulenceSpec

MODULES = sorted(m.name for m in pkgutil.iter_modules(turbghost.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"turbghost.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _path():
    return engine.KlyshkoPath(OpticsConfig(), TurbulenceSpec.crystal_side(2.0, 482.0))


GRID = np.arange(16) * 0.05
DET = scan.DetectorModel()
X = np.linspace(-0.4, 0.4, 161)
PROFILE = ObjectPattern().evaluate(X)
K0 = ObjectPattern().fringe_wavenumber


def _scan():
    return scan.simulate_scan(_path(), 2.0, ObjectPattern(), DET, seed=1)


REMOVED = {
    "ideal_resolution_mm": lambda: engine.KlyshkoPath(
        OpticsConfig(), TurbulenceSpec.crystal_side(2.0, 482.0), ideal_resolution_mm=1e-3),
    "n_points": lambda: engine.klyshko_amplitude_quadrature(
        0.0, 0.0, screens.TiltScreen(0.5), _path(), n_points=100),
    "bins": lambda: engine.monte_carlo_g2(_path(), 2.0, 10, 1, bins=81),
    "span_mm": lambda: engine.monte_carlo_g2(_path(), 2.0, 10, 1, span_mm=0.5),
    "resolution_floor_mm": lambda: engine.monte_carlo_g2(_path(), 2.0, 10, 1,
                                                         resolution_floor_mm=1e-4),
    "offsets_mm": lambda: engine.quadrature_g2(_path(), 2.0, offsets_mm=[0.0]),
    "n_offsets": lambda: engine.quadrature_g2(_path(), 2.0, n_offsets=21),
    "span_sigmas": lambda: engine.quadrature_g2(_path(), 2.0, span_sigmas=3.0),
    "dx_mm": lambda: engine.synthesize_image(AnalyticKernel(0.01), ObjectPattern(), dx_mm=1e-3),
    "outer_scale_mm": lambda: screens.sample_powerlaw_screen(1.0, 1.5, GRID, 1,
                                                             outer_scale_mm=4e4),
    "inner_scale_mm": lambda: screens.sample_powerlaw_screen(1.0, 1.5, GRID, 1,
                                                             inner_scale_mm=2e-3),
    "modes_per_decade": lambda: screens.ScreenEnsemble.powerlaw(1.0, 1.5, GRID, 2, 1,
                                                                modes_per_decade=48),
    "expected_scan_rates(kernel)": lambda: scan.expected_scan_rates(
        _path(), 2.0, ObjectPattern(), DET, [0.0, 0.1], kernel=None),
    "simulate_scan(kernel)": lambda: scan.simulate_scan(
        _path(), 2.0, ObjectPattern(), DET, seed=1, kernel=None),
    "n_realizations": lambda: config.EngineSettings(n_realizations=10000),
    "image_arm_crystal_to_lens_mm": lambda: OpticsConfig(image_arm_crystal_to_lens_mm=1000.0),
    "object_arm_crystal_to_lens_mm": lambda: OpticsConfig(object_arm_crystal_to_lens_mm=1000.0),
    "lens_to_detector_mm": lambda: OpticsConfig(lens_to_detector_mm=1000.0),
    "fit_profile(sigma)": lambda: fitting.fit_profile(X, PROFILE, sigma=np.ones_like(X)),
    "fit_profile(init)": lambda: fitting.fit_profile(
        X, PROFILE, init=fitting.initial_guess(X, PROFILE)),
    "fit_scan(init)": lambda: fitting.fit_scan(
        _scan(), init=fitting.initial_guess(X, PROFILE)),
    "ScanData(provenance)": lambda: scan.ScanData(X, np.ones(X.size, dtype=int), np.ones(X.size),
                                                  provenance=""),
    "GriddedScreen(alpha, exponent)": lambda: screens.GriddedScreen(
        x_mm=GRID, phase_rad=0.0 * GRID, alpha=0.0, exponent=2.0),
    # The step is read from x_mm, so a declared step cannot disagree with it.
    "GriddedScreen(spacing_mm)": lambda: screens.GriddedScreen(
        x_mm=GRID, phase_rad=0.0 * GRID, spacing_mm=0.05),
    "ScreenEnsemble(master_seed)": lambda: screens.ScreenEnsemble((), master_seed=0),
    "StructureFunctionEstimate(separations_mm)": lambda: screens.StructureFunctionEstimate(
        separations_mm=np.zeros(1), values=np.zeros(1), standard_errors=np.zeros(1),
        valid=np.ones(1, dtype=bool)),
    "curve_crossing(lo_mm)": lambda: campaign.curve_crossing(2.0, K0, lo_mm=50.0),
    "curve_crossing(hi_mm)": lambda: campaign.curve_crossing(2.0, K0, hi_mm=329.0),
    "wavenumber(wavelength_um)": lambda: model.wavenumber(wavelength_um=0.65),
    # A spec holds one placement (a key of model.PLACEMENTS) and one distance.
    "TurbulenceSpec(side)": lambda: TurbulenceSpec(2.0, "crystal_side", 482.0, side="crystal"),
    "TurbulenceSpec(l1_mm)": lambda: TurbulenceSpec(2.0, "crystal_side", 482.0, l1_mm=482.0),
    "TurbulenceSpec(distance_from_object_mm)": lambda: TurbulenceSpec(
        2.0, "object_side", 203.0, distance_from_object_mm=203.0),
}


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_setting_is_a_type_error(name):
    with pytest.raises(TypeError):
        REMOVED[name]()


# Readers that nothing outside the tests used; each is gone from its owner.
REMOVED_ATTRIBUTES = {
    "ScanData.rate_errors_cps": lambda: _scan(),
    "FitResult.visibility": lambda: fitting.fit_profile(X, PROFILE),
    "FitResult.visibility_error": lambda: fitting.fit_profile(X, PROFILE),
    "model.g2_kernel": lambda: model,
    "campaign.model_curve": lambda: campaign,
    "OpticsConfig.image_arm_crystal_to_lens_mm": lambda: OpticsConfig(),
    "ImageProfile.truncation_warning": lambda: engine.synthesize_image(
        AnalyticKernel(0.0), ObjectPattern()
    ),
    # Folded into ObjectPattern.evaluate: the image at visibility V is
    # replace(pattern, intrinsic_visibility=V).evaluate(x).
    "turbghost.ghost_image_profile": lambda: turbghost,
    "model.ghost_image_profile": lambda: model,
    # The tilt dispatcher restated the tilt-shift law of monte_carlo_g2 and
    # otherwise forwarded to klyshko_amplitude_quadrature; the ideal-response
    # width and its delta = 0 floor were read only by its tilt branch.
    "engine.klyshko_amplitude": lambda: engine,
    "turbghost.klyshko_amplitude": lambda: turbghost,
    "KlyshkoPath.psf_sigma_mm": lambda: _path(),
    "engine.IDEAL_RESOLUTION_MM": lambda: engine,
}


@pytest.mark.parametrize("name", sorted(REMOVED_ATTRIBUTES))
def test_removed_attribute_is_gone(name):
    owner = REMOVED_ATTRIBUTES[name]()
    assert not hasattr(owner, name.rsplit(".", 1)[1])


# Refusals of bad inputs: each names the input it refuses.
K = OpticsConfig().k
BAD_INPUTS = {
    "fit_alpha(one |d|)": (r"distinct \|distance\|", lambda: fitting.fit_alpha(
        [model.VisibilityPoint(d, 0.5, 0.01, "u") for d in (100.0, -100.0)], {"u": 1.0}, K, K0)),
    "quadrature_g2(d = 0)": ("zero effective distance", lambda: engine.quadrature_g2(
        engine.KlyshkoPath(OpticsConfig(), TurbulenceSpec.crystal_side(2.0, 0.0)), 2.0)),
    "monte_carlo_g2(1 screen)": ("n_screens", lambda: engine.monte_carlo_g2(_path(), 2.0, 1, 1)),
    "synthesize_image(positions)": ("positions", lambda: engine.synthesize_image(
        AnalyticKernel(0.01), ObjectPattern(), [0.0, 0.1, 0.3])),
    "expected_scan_rates(mode)": ("mode", lambda: scan.expected_scan_rates(
        _path(), 2.0, ObjectPattern(), DET, [0.0, 0.1], mode="tilt")),
    "ScanData(lengths)": ("positions, counts and durations", lambda: scan.ScanData(
        X, np.ones(3, dtype=int), np.ones(X.size))),
    "initial_guess(7 points)": ("8 points", lambda: fitting.initial_guess(X[:7], PROFILE[:7])),
    "tilt_slopes(alpha)": ("alpha_per_mm2", lambda: screens.tilt_slopes(-1.0, 2, 1)),
    "sample_tilt_screen(alpha)": ("alpha_per_mm2", lambda: screens.sample_tilt_screen(-1.0, 1)),
    "sample_powerlaw_screen(alpha)": ("alpha", lambda: screens.sample_powerlaw_screen(
        -1.0, 1.5, GRID, 1)),
    "sample_powerlaw_screen(p)": ("p must", lambda: screens.sample_powerlaw_screen(
        1.0, 2.5, GRID, 1)),
    "sample_powerlaw_screen(grid 2-D)": ("grid must be a 1-D", lambda: (
        screens.sample_powerlaw_screen(1.0, 1.5, np.zeros((2, 2)), 1))),
    "sample_powerlaw_screen(grid uneven)": ("grid must be uniform", lambda: (
        screens.sample_powerlaw_screen(1.0, 1.5, [0.0, 0.1, 0.3], 1))),
    "ScreenEnsemble.tilts(n_screens)": ("n_screens", lambda: screens.ScreenEnsemble.tilts(
        1.0, 0, 1)),
    "ScreenEnsemble.powerlaw(n_screens)": ("n_screens", lambda: screens.ScreenEnsemble.powerlaw(
        1.0, 1.5, GRID, 0, 1)),
    "AnalyticKernel(sigma_mm)": ("sigma_mm", lambda: AnalyticKernel(-1.0)),
    "SampledKernel(shapes)": ("offsets, values and errors", lambda: model.SampledKernel(
        np.arange(3.0), np.ones(2), np.zeros(3))),
    "SampledKernel(samples)": ("3 samples", lambda: model.SampledKernel(
        np.arange(2.0), np.ones(2), np.zeros(2))),
    "SampledKernel(offsets)": ("offsets must be", lambda: model.SampledKernel(
        np.array([0.0, 2.0, 1.0]), np.ones(3), np.zeros(3))),
    "SampledKernel(values range)": ("values must lie", lambda: model.SampledKernel(
        np.arange(3.0), np.array([0.5, 1.0, 1.5]), np.zeros(3))),
    "SampledKernel(values peak)": ("values must be peak", lambda: model.SampledKernel(
        np.arange(3.0), np.full(3, 0.5), np.zeros(3))),
    "SampledKernel(standard errors)": ("standard errors", lambda: model.SampledKernel(
        np.arange(3.0), np.ones(3), np.full(3, -1.0))),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_refused_naming_it(name):
    match, call = BAD_INPUTS[name]
    with pytest.raises(ValueError, match=match):
        call()


def test_analytic_kernel_width_is_its_sigma():
    assert fitting.fit_kernel_sigma(AnalyticKernel(0.07)) == 0.07


TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def _layer_functions():
    """``LAYER_FUNCTIONS`` of the benchmark tracer, read as a literal (bench is not imported)."""
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYER_FUNCTIONS")


def test_traced_layer_functions_resolve():
    # The tracer rebinds each "<module>.<name>" by getattr; a deleted or
    # renamed function would break traced benchmark runs.
    if not os.path.exists(TRACING):
        pytest.skip("bench/tracing.py is not in this tree")
    names = _layer_functions()
    assert names
    for dotted in names:
        module_name, attr = dotted.split(".")
        module = importlib.import_module(f"turbghost.{module_name}")
        assert callable(getattr(module, attr, None)), dotted


PACKAGE_DIR = os.path.dirname(os.path.abspath(turbghost.__file__))
SOURCES = sorted(f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py"))


def _source_tree(filename):
    with open(os.path.join(PACKAGE_DIR, filename), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _package_imports(nodes):
    """Dotted turbghost modules named by the import statements among ``nodes``."""
    names = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level:
            names.append("turbghost" + (f".{node.module}" if node.module else ""))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "turbghost":
            names.append(node.module)
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name.split(".")[0] == "turbghost"]
    return names


@pytest.mark.parametrize("filename", SOURCES)
def test_no_function_imports_a_package_module(filename):
    # Module-level imports state the layering; an import inside a function
    # hides a cycle instead of removing it.
    late = [(fn.name, name) for fn in ast.walk(_source_tree(filename))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for name in _package_imports(ast.walk(fn))]
    assert late == []


def _imported_modules(nodes):
    """Top-level names of the absolute imports among ``nodes``."""
    names = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            names += [a.name.split(".")[0] for a in node.names]
    return names


@pytest.mark.parametrize("filename", SOURCES)
def test_no_module_imports_scipy(filename):
    # numpy is the one runtime dependency; function bodies count too.
    assert "scipy" not in _imported_modules(ast.walk(_source_tree(filename)))


def test_fitting_imports_only_model():
    # fitting sits below scan and engine: both use it, so it may use neither.
    assert set(_package_imports(ast.walk(_source_tree("fitting.py")))) <= {"turbghost.model"}


def test_engine_reexports_the_kernel_width_fit():
    assert engine.fit_kernel_sigma is fitting.fit_kernel_sigma


# Each experiment fact has one home that the other modules read: the
# placement names in model.PLACEMENTS, the default master seed in
# config.EngineSettings, the figure names in campaign.FIGURES.
FACT_HOMES = {"crystal_side": "model.py", "object_side": "model.py", 20260809: "config.py",
              "fig3": "campaign.py", "fig4": "campaign.py", "fig5": "campaign.py"}


@pytest.mark.parametrize("filename", SOURCES)
def test_experiment_facts_stated_in_their_home(filename):
    stated = [node.value for node in ast.walk(_source_tree(filename))
              if isinstance(node, ast.Constant) and type(node.value) in (str, int)
              and node.value in FACT_HOMES and FACT_HOMES[node.value] != filename]
    assert stated == []
