"""No command loads scipy: numpy is the package's only runtime dependency.

This test process may hold scipy (some tests use it as a reference), so
the commands run in one fresh interpreter, in order, and the probe records
the scipy modules in ``sys.modules`` after each.  Any scipy import shows at
the command that made it and at every command after it.  The source-level
check (no ``import scipy`` anywhere under ``src/``) is in ``test_api.py``.
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


def cli(argv):
    """Probe code that runs ``cli.main(argv)`` and fails unless it exits 0."""
    return (f"from turbghost.cli import main\ntry:\n    rc = main({argv!r})\n"
            "except SystemExit as exc:\n    rc = exc.code\nassert rc == 0, rc")


COMMANDS = {
    "import": "import turbghost\nimport turbghost.cli",
    "analytic": cli(["analytic"]),
    "analytic-curve": cli(["analytic", "--curve", "0", "250", "251"]),
    "simulate": cli(["simulate", "--output", "scan.csv"]),
    "kernel-analytic": cli(["kernel", "--method", "analytic"]),
    "kernel-mc": cli(["kernel", "--method", "mc"]),
    "kernel-quadrature": cli(["kernel", "--method", "quadrature"]),
    "fit": cli(["fit", FIXTURE]),
    "campaign": cli(["campaign", "--config", str(bundled_config_path("paper_unshifted.json"))]),
    "version": cli(["--version"]),
    "load_config": "from turbghost.config import bundled_config_path, load_config\n"
                   "load_config(bundled_config_path('paper_unshifted.json'))",
    "tilt-slopes": "from turbghost.screens import tilt_slopes\ntilt_slopes(2.0, 5000, 7)",
    "synthesize-sampled-kernel":
        "from turbghost.engine import KlyshkoPath, monte_carlo_g2, synthesize_image\n"
        "from turbghost.model import ObjectPattern, OpticsConfig, TurbulenceSpec\n"
        "path = KlyshkoPath(OpticsConfig(), TurbulenceSpec.crystal_side(2.0, 482.0))\n"
        "synthesize_image(monte_carlo_g2(path, 2.0, 2000, 7), ObjectPattern())",
    "amplitude-array-x2":
        "import numpy as np\n"
        "from turbghost.engine import KlyshkoPath, klyshko_amplitude_quadrature\n"
        "from turbghost.model import OpticsConfig, TurbulenceSpec\n"
        "from turbghost.screens import TiltScreen\n"
        "path = KlyshkoPath(OpticsConfig(shift_mm=330.0), TurbulenceSpec.crystal_side(2.0, 482.0), 4.0)\n"
        "klyshko_amplitude_quadrature(0.0, np.linspace(-0.01, 0.01, 21), TiltScreen(0.4), path)",
    "powerlaw-ensemble":
        "import numpy as np\nfrom turbghost.screens import ScreenEnsemble\n"
        "ScreenEnsemble.powerlaw(1.0, 5 / 3, np.arange(64) * 0.01, 3, 7)",
}


@pytest.fixture(scope="module")
def scipy_after(tmp_path_factory):
    """Command name -> scipy modules loaded once it has run, all commands
    run in order in one fresh interpreter."""
    probe = "import json, sys\nloaded = {}\n"
    for name, code in COMMANDS.items():
        probe += (f"exec({code!r}, {{}})\n"
                  f"loaded[{name!r}] = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n")
    probe += "print(json.dumps(loaded))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path_factory.mktemp("probe"), env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_loads_no_scipy(name, scipy_after):
    assert scipy_after[name] == []
