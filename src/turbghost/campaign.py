"""Campaign orchestration and figure-data reproduction.

A campaign runs each turbulence sweep point through simulate -> fit,
collects visibility points next to the model curve, and emits a
replayable report: every number is a pure function of the configuration
hash and the master seed.  Points run in sweep order, in chunks of
``_FIT_STACK_SAMPLES`` scan samples: a chunk's scans share one position
grid, so ``fitting.fit_scans`` fits them in one stacked solve, and each
point's numbers are those its scan gets fit alone.  Every
predicted visibility here (campaign points and curve, figure curves, the
curve crossing) is ``model.model_visibility``, so each carries the
object's intrinsic visibility v0 and the system ceiling g.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .config import (
    ConfigValueError,
    EngineSettings,
    ExperimentConfig,
    bundled_config_path,
    config_hash,
    config_to_dict,
    load_config,
)
from .engine import KlyshkoPath
from .fitting import fit_scans, slit_correction, slit_factor
from .model import (
    TurbulenceSpec,
    VALIDITY_WARN_THRESHOLD,
    VisibilityPoint,
    effective_distance,
    model_visibility,
    validity_ratio,
)
from .scan import format_scan_csv, simulate_scan

__all__ = [
    "CampaignPoint",
    "CampaignReport",
    "point_seed",
    "simulate_point",
    "run_campaign",
    "write_report_json",
    "write_campaign_csv",
    "curve_crossing",
    "FIGURES",
    "SEEDED_FIGURE",
    "reproduce_figure",
]

_POINT_SEED_TAG = 0x9B1D
# Scan samples (stacked scans x scan points) fitted in one stacked solve.
# Peak memory grows with the stack: over the bench sweep's two 150-point
# campaigns, 16 scans of 160 points add 0.7 MB to the serial fit's peak,
# 32 add 1.8 MB and a whole campaign 10 MB, while 16 already take most of
# the speed-up.
_FIT_STACK_SAMPLES = 16 * 160
# The figures reproduce_figure writes; only fig3's synthetic scans read a master seed.
FIGURES = ("fig3", "fig4", "fig5")
SEEDED_FIGURE = "fig3"


def _fmt(value):
    """Stable float formatting for byte-identical golden files."""
    return format(float(value), ".10g")


def point_seed(master_seed, index):
    """Per-point scan seed: a pure function of (master_seed, index)."""
    seq = np.random.SeedSequence((int(master_seed), _POINT_SEED_TAG, int(index)))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class CampaignPoint:
    """One sweep point: simulated scan fit next to the model prediction."""

    index: int
    placement: str
    placement_distance_mm: float
    alpha_per_mm2: float
    effective_distance_mm: float
    model_visibility: float
    seed: int
    fitted_visibility: float | None = None
    fitted_sigma: float | None = None
    slit_factor: float = 1.0
    corrected_visibility: float | None = None
    corrected_sigma: float | None = None
    validity_ratio: float = 0.0
    validity_warning: bool = False
    converged: bool = False
    error: str | None = None

    def to_visibility_point(self, label=""):
        return VisibilityPoint(
            self.effective_distance_mm,
            self.corrected_visibility,
            self.corrected_sigma,
            label=label,
        )


@dataclass(frozen=True)
class CampaignReport:
    points: tuple
    curve_distances_mm: np.ndarray
    curve_visibilities: np.ndarray
    config_echo: dict
    config_digest: str
    master_seed: int
    version: str
    runtime_s: float

    def to_json_dict(self):
        return {
            "schema_version": 2,
            "version": self.version,
            "config_hash": self.config_digest,
            "master_seed": self.master_seed,
            "runtime_s": round(self.runtime_s, 3),
            "config": self.config_echo,
            "points": [asdict(p) for p in self.points],
            "curve": [
                {"d_mm": float(d), "V_model": float(v)}
                for d, v in zip(self.curve_distances_mm, self.curve_visibilities)
            ],
        }


def simulate_point(config: ExperimentConfig, index):
    """Synthetic scan of sweep point ``index``, seeded by point_seed(master_seed, index)."""
    if not 0 <= index < len(config.sweep):
        raise ConfigValueError(
            f"sweep index {index} outside [0, {len(config.sweep)}) for this config"
        )
    return _scan(config, config.sweep[index], point_seed(config.engine.master_seed, index))


def _scan(config: ExperimentConfig, spec: TurbulenceSpec, seed):
    """Seeded scan of ``spec`` under the config's optics, pattern, detector and engine."""
    eng = config.engine
    path = KlyshkoPath(config.optics, spec, source_width_mm=eng.source_width_mm)
    return simulate_scan(path, spec.alpha_per_mm2, config.pattern, config.detector, seed=seed,
                         n_positions=eng.scan_points, center_mm=eng.scan_center_mm, mode=eng.mode)


def _point_fields(config: ExperimentConfig, index):
    """A sweep point's model fields: everything a CampaignPoint holds but the fit."""
    spec, optics, pattern = config.sweep[index], config.optics, config.pattern
    d = effective_distance(spec, optics)
    ratio = validity_ratio(d, spec.alpha_per_mm2, optics.k, pattern.envelope_width_mm)
    return dict(
        index=index,
        placement=spec.placement,
        placement_distance_mm=spec.distance_mm,
        alpha_per_mm2=spec.alpha_per_mm2,
        effective_distance_mm=d,
        model_visibility=model_visibility(optics, pattern, spec.alpha_per_mm2, d),
        seed=point_seed(config.engine.master_seed, index),
        validity_ratio=ratio,
        validity_warning=ratio > VALIDITY_WARN_THRESHOLD,
    )


# Numerical failures are recorded per point; programming errors propagate.
_POINT_ERRORS = (ValueError, ArithmeticError, RuntimeError)


def _fitted_point(base, result, slit):
    """The CampaignPoint of a fit, slit-corrected at its fitted k0."""
    if not result.converged:
        return CampaignPoint(**base, error=f"fit failed: {result.message}")
    sigma = result.errors.get("visibility", float("nan"))
    # The slit attenuates the fringe the scan holds, at the fitted k0.
    k0 = result.model.fringe_wavenumber
    return CampaignPoint(
        **base,
        fitted_visibility=result.model.visibility,
        fitted_sigma=sigma,
        slit_factor=slit_factor(k0, slit),
        corrected_visibility=min(slit_correction(result.model.visibility, k0, slit), 1.0),
        corrected_sigma=slit_correction(sigma, k0, slit),
        converged=True,
    )


def _run_points(config: ExperimentConfig, indices):
    """Simulate sweep points ``indices`` and fit their scans as one stack.

    Each point gets the CampaignPoint it would get alone.  A point whose
    scan, fit or correction fails records the error; if the stacked fit
    raises, each scan is fit alone, so the error lands on the point that
    raised it."""
    bases = {i: _point_fields(config, i) for i in indices}
    points, scans, fits = {}, {}, {}

    def fail(i, exc):
        points[i] = CampaignPoint(**bases[i], error=f"{type(exc).__name__}: {exc}")

    for i in indices:
        try:
            scans[i] = _scan(config, config.sweep[i], bases[i]["seed"])
        except _POINT_ERRORS as exc:
            fail(i, exc)
    try:
        fits = dict(zip(scans, fit_scans(scans.values())))
    except _POINT_ERRORS:
        for i, data in scans.items():
            try:
                fits[i] = fit_scans([data])[0]
            except _POINT_ERRORS as exc:
                fail(i, exc)
    for i, result in fits.items():
        try:
            points[i] = _fitted_point(bases[i], result, config.detector.slit_width_mm)
        except _POINT_ERRORS as exc:
            fail(i, exc)
    return [points[i] for i in indices]


def run_campaign(config: ExperimentConfig):
    """Simulate and fit every sweep point; deterministic per master seed.
    Each point is slit-corrected at its fitted fringe wavenumber.  A slit too
    wide for the nominal fringe, or a square-wave pattern (whose fit reads
    harmonics the sinusoid law does not model), is a ConfigValueError before
    any point runs.  Points run in sweep order, in stacks of
    ``_FIT_STACK_SAMPLES`` scan samples fitted together; every point's
    numbers are those it gets alone."""
    start = time.perf_counter()
    if config.pattern.form == "squarewave":
        raise ConfigValueError("pattern.form: a squarewave's fit does not measure the sinusoid law")
    try:
        slit_factor(config.pattern.fringe_wavenumber, config.detector.slit_width_mm)
    except ValueError as exc:
        raise ConfigValueError(f"detector.slit_width_mm: {exc}") from exc
    specs = list(config.sweep)
    rows = max(1, _FIT_STACK_SAMPLES // config.engine.scan_points)
    points = [point for first in range(0, len(specs), rows)
              for point in _run_points(config, range(first, min(first + rows, len(specs))))]
    if specs:
        dmax = max(abs(p.effective_distance_mm) for p in points)
        curve_d = np.linspace(0.0, max(dmax, 1.0), 101)
    else:
        curve_d = np.linspace(0.0, 1.0, 2)
    alpha_curve = specs[0].alpha_per_mm2 if specs else 0.0
    curve_v = model_visibility(config.optics, config.pattern, alpha_curve, curve_d)
    return CampaignReport(
        points=tuple(points),
        curve_distances_mm=curve_d,
        curve_visibilities=curve_v,
        config_echo=config_to_dict(config),
        config_digest=config_hash(config),
        master_seed=config.engine.master_seed,
        version=__version__,
        runtime_s=time.perf_counter() - start,
    )


def write_report_json(report: CampaignReport, path):
    import json

    with open(path, "w", encoding="ascii") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_campaign_csv(report: CampaignReport, path):
    """Per-point summary CSV: d_mm, V, sigma_V, V_model."""
    lines = ["d_mm,V,sigma_V,V_model"]
    for p in report.points:
        v = "" if p.corrected_visibility is None else _fmt(p.corrected_visibility)
        s = "" if p.corrected_sigma is None else _fmt(p.corrected_sigma)
        lines.append(
            f"{_fmt(p.effective_distance_mm)},{v},{s},{_fmt(p.model_visibility)}"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# --- figure-data reproduction -------------------------------------------


def _paper_setups():
    """The bundled paper setups: unshifted, then shifted 330 mm off the image plane."""
    return [load_config(bundled_config_path(f"paper_{tag}.json"))
            for tag in ("unshifted", "shifted")]


def curve_crossing(alpha, k0):
    """Crystal-side l1 where the shifted curve overtakes the unshifted one.

    With c = alpha / (2 (k/k0)^2) for the shared k and ceilings
    m = v0 g (the model visibility at d = 0), the curves m exp(-c (l1 - s)^2)
    meet once, at (s_u + s_s)/2 + ln(m_u/m_s) / (2c (s_s - s_u)).
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0: without turbulence the curves never cross")
    unshifted, shifted = setups = _paper_setups()
    c = alpha / (2.0 * (unshifted.optics.k / k0) ** 2)
    s_u, s_s = unshifted.optics.shift_mm, shifted.optics.shift_mm
    m_u, m_s = (model_visibility(cfg.optics, cfg.pattern, alpha, 0.0) for cfg in setups)
    log_ratio = math.log(m_u / m_s)
    return (s_u + s_s) / 2.0 + log_ratio / (2.0 * c * (s_s - s_u))


def _write_curve_csv(path, header, columns):
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def reproduce_figure(which, out_dir, master_seed=EngineSettings.master_seed):
    """Emit the model-curve (and for fig3, synthetic-scan) CSV data files.

    Every figure is drawn from the two bundled paper setups: their optics,
    pattern, detector, engine scan settings and the alpha of their first
    sweep point.  Curves are ``model_visibility``, so they carry v0 * g.
    fig3: representative scans for both configurations with no
    turbulence, object-side turbulence (229 mm unshifted / 203 mm shifted
    from the object) and crystal-side turbulence 432 mm from the crystal,
    each built by ``_scan`` as a campaign builds a sweep point.
    fig4: visibility vs turbulence-to-object distance, both configurations.
    fig5: visibility vs crystal-to-turbulence distance, both
    configurations, plus the central-image-plane marker and curve crossing.
    Returns the list of files written; a bad ``which`` or a negative
    ``master_seed`` is a ValueError before any directory is made.
    """
    if which not in FIGURES:
        raise ValueError(f"which must be one of {', '.join(FIGURES)}")
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    os.makedirs(out_dir, exist_ok=True)
    unshifted, shifted = setups = _paper_setups()
    written = []

    def curve(cfg, distances_mm):
        return model_visibility(cfg.optics, cfg.pattern, cfg.sweep[0].alpha_per_mm2, distances_mm)

    if which == "fig4":
        d = np.linspace(0.0, 250.0, 251)
        path = os.path.join(out_dir, "fig4_curve.csv")
        columns = [d] + [curve(cfg, d) for cfg in setups]
        _write_curve_csv(path, "d_mm,V_unshifted,V_shifted", columns)
        written.append(path)

    if which == "fig5":
        l1 = np.linspace(0.0, 500.0, 501)
        path = os.path.join(out_dir, "fig5_curve.csv")
        columns = [l1] + [curve(cfg, l1 - cfg.optics.shift_mm) for cfg in setups]
        _write_curve_csv(path, "l1_mm,V_unshifted,V_shifted", columns)
        written.append(path)
        meta = os.path.join(out_dir, "fig5_markers.csv")
        crossing = curve_crossing(unshifted.sweep[0].alpha_per_mm2,
                                  unshifted.pattern.fringe_wavenumber)
        with open(meta, "w", encoding="ascii") as fh:
            fh.write("marker,l1_mm\n")
            fh.write(f"central_image_plane,{_fmt(shifted.optics.shift_mm)}\n")
            fh.write(f"curve_crossing,{_fmt(crossing)}\n")
        written.append(meta)

    if which == SEEDED_FIGURE:
        scenarios = []
        for cfg, d_obj in zip(setups, (229.0, 203.0)):
            alpha = cfg.sweep[0].alpha_per_mm2
            for tag, spec in (
                ("no_turbulence", TurbulenceSpec.object_side(0.0, 0.0)),
                (f"object_{int(d_obj)}mm", TurbulenceSpec.object_side(alpha, d_obj)),
                ("crystal_432mm", TurbulenceSpec.crystal_side(alpha, 432.0)),
            ):
                scenarios.append((f"fig3_{cfg.label}_{tag}", cfg, spec))
        for i, (name, cfg, spec) in enumerate(scenarios):
            seed = point_seed(master_seed, i)
            path = os.path.join(out_dir, f"{name}.csv")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(f"# synthetic scan: {name}, seed={seed}\n")
                fh.write("# peak coincidence rate is an invented default, not a measured value\n")
                fh.write(format_scan_csv(_scan(cfg, spec, seed)))
            written.append(path)

    return written
