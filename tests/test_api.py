import importlib
import pkgutil

import numpy as np
import pytest

import turbghost
from turbghost import config, engine, scan, screens
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
}


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_setting_is_a_type_error(name):
    with pytest.raises(TypeError):
        REMOVED[name]()

