"""scipy is imported where it is called.

Each case runs in a fresh interpreter, because this test process already
holds scipy.  Only power-law screens load scipy (``scipy.special.gamma``);
every other command, fits and kernel widths included, must leave
``sys.modules`` free of scipy.
"""

import json
import os
import subprocess
import sys

import pytest

import turbghost
from turbghost.config import bundled_config_path

SRC = os.path.dirname(os.path.dirname(os.path.abspath(turbghost.__file__)))
FIXTURE = os.path.join(os.path.dirname(__file__), "data", "fixture_scan_seed424242.csv")


def scipy_modules_after(code, cwd):
    """Names of the scipy modules loaded once ``code`` has run in a fresh interpreter."""
    probe = (
        "import json, sys\n"
        + code
        + "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli(argv):
    """Probe code that runs ``cli.main(argv)`` and fails unless it exits 0."""
    return (f"from turbghost.cli import main\ntry:\n    rc = main({argv!r})\n"
            "except SystemExit as exc:\n    rc = exc.code\nassert rc == 0, rc")


@pytest.mark.parametrize("code", [
    "import turbghost\nimport turbghost.cli",
    cli(["analytic"]),
    cli(["analytic", "--curve", "0", "250", "251"]),
    cli(["simulate", "--output", "scan.csv"]),
    cli(["kernel", "--method", "analytic"]),
    cli(["kernel", "--method", "mc"]),
    cli(["kernel", "--method", "quadrature"]),
    cli(["fit", FIXTURE]),
    cli(["campaign", "--config", str(bundled_config_path("paper_unshifted.json"))]),
    cli(["--version"]),
    "from turbghost.config import bundled_config_path, load_config\n"
    "load_config(bundled_config_path('paper_unshifted.json'))",
    "from turbghost.screens import tilt_slopes\ntilt_slopes(2.0, 5000, 7)",
    "from turbghost.engine import KlyshkoPath, monte_carlo_g2, synthesize_image\n"
    "from turbghost.model import ObjectPattern, OpticsConfig, TurbulenceSpec\n"
    "path = KlyshkoPath(OpticsConfig(), TurbulenceSpec.crystal_side(2.0, 482.0))\n"
    "synthesize_image(monte_carlo_g2(path, 2.0, 2000, 7), ObjectPattern())",
    "import numpy as np\n"
    "from turbghost.engine import KlyshkoPath, klyshko_amplitude_quadrature\n"
    "from turbghost.model import OpticsConfig, TurbulenceSpec\n"
    "from turbghost.screens import TiltScreen\n"
    "path = KlyshkoPath(OpticsConfig(shift_mm=330.0), TurbulenceSpec.crystal_side(2.0, 482.0), 4.0)\n"
    "klyshko_amplitude_quadrature(0.0, np.linspace(-0.01, 0.01, 21), TiltScreen(0.4), path)",
], ids=["import", "analytic", "analytic-curve", "simulate", "kernel-analytic", "kernel-mc",
        "kernel-quadrature", "fit", "campaign", "version", "load_config", "tilt-slopes",
        "synthesize-sampled-kernel", "amplitude-array-x2"])
def test_command_loads_no_scipy(code, tmp_path):
    assert scipy_modules_after(code, tmp_path) == []


def test_powerlaw_screens_load_special(tmp_path):
    # Positive control: the probe does see a scipy import when one happens.
    code = ("import numpy as np\nfrom turbghost.screens import ScreenEnsemble\n"
            "ScreenEnsemble.powerlaw(1.0, 5 / 3, np.arange(64) * 0.01, 3, 7)")
    assert "scipy.special" in scipy_modules_after(code, tmp_path)
