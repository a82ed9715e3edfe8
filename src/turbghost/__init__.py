"""turbghost: 1-D ghost imaging through a thin turbulent sheet.

Simulation and analysis toolkit for coincidence imaging with a scanning
slit: closed-form coherence model, random-tilt phase-screen Monte Carlo,
direct quadrature of the folded propagation kernels, synthetic scan
generation, and least-squares recovery of fringe visibility and
turbulence strength.
"""

__version__ = "0.3.2"

from .model import (  # noqa: F401
    AnalyticKernel,
    ObjectPattern,
    OpticsConfig,
    SampledKernel,
    TurbulenceSpec,
    VisibilityPoint,
    effective_distance,
    fringe_visibility,
    fringe_wavenumber_from_cycles,
    kernel_from_turbulence,
    kernel_sigma,
    model_visibility,
    validity_ratio,
    wavenumber,
)
from .screens import (  # noqa: F401
    ScreenEnsemble,
    TiltScreen,
    estimate_structure_function,
    mutual_coherence,
    sample_powerlaw_screen,
    sample_tilt_screen,
)
from .engine import (  # noqa: F401
    KlyshkoPath,
    klyshko_amplitude_quadrature,
    monte_carlo_g2,
    quadrature_g2,
    synthesize_image,
)
from .scan import (  # noqa: F401
    DetectorModel,
    ScanData,
    read_scan_csv,
    simulate_scan,
    write_scan_csv,
)
from .fitting import (  # noqa: F401
    AlphaFitResult,
    FitResult,
    ScanFitModel,
    fit_alpha,
    fit_kernel_sigma,
    fit_profile,
    fit_scan,
    fit_scans,
    slit_correction,
)
from .config import ExperimentConfig, load_config  # noqa: F401
from .campaign import run_campaign, reproduce_figure  # noqa: F401
