"""Strict JSON experiment configuration.

Keys carry explicit units in their names (``l1_mm``, ``alpha_per_mm2``)
because unit mixing is the most likely silent error in this domain.
Unknown keys are rejected with their dotted path; parse errors, schema
violations and physical-invariant violations raise distinct exception
types so the CLI can report them precisely.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources

from .model import ObjectPattern, OpticsConfig, TurbulenceSpec, fringe_wavenumber_from_cycles
from .scan import DetectorModel

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "ConfigParseError",
    "ConfigSchemaError",
    "ConfigValueError",
    "EngineSettings",
    "ExperimentConfig",
    "load_config",
    "load_config_dict",
    "bundled_config_path",
    "config_to_dict",
    "config_hash",
]

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Base class for configuration problems."""


class ConfigParseError(ConfigError):
    """The file is not valid JSON."""


class ConfigSchemaError(ConfigError):
    """The JSON shape is wrong: unknown/missing keys or wrong types."""


class ConfigValueError(ConfigError):
    """Values violate a physical invariant."""


@dataclass(frozen=True)
class EngineSettings:
    """Numerical knobs: realization count, seeding, scan layout, kernel mode."""

    n_realizations: int = 10000
    master_seed: int = 20260809
    scan_points: int = 160
    scan_center_mm: float = 0.0
    mode: str = "analytic"
    source_width_mm: float = 4.0

    def __post_init__(self):
        if self.n_realizations < 2:
            raise ValueError("n_realizations must be >= 2")
        if self.scan_points < 2:
            raise ValueError("scan_points must be >= 2")
        if self.mode not in ("analytic", "kernel"):
            raise ValueError("mode must be 'analytic' or 'kernel'")
        if not self.source_width_mm > 0:
            raise ValueError("source_width_mm must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment: optics, pattern, detector, turbulence sweep, engine."""

    optics: OpticsConfig
    pattern: ObjectPattern
    detector: DetectorModel
    sweep: tuple
    engine: EngineSettings
    label: str = ""
    output_dir: str | None = None


def _require_mapping(node, path):
    if not isinstance(node, dict):
        raise ConfigSchemaError(f"{path}: expected an object, got {type(node).__name__}")


def _take(node, path, known):
    _require_mapping(node, path)
    unknown = sorted(set(node) - set(known))
    if unknown:
        raise ConfigSchemaError(f"{path}: unknown keys {unknown}; allowed {sorted(known)}")
    return node


def _number(node, path, key, default=None, required=False):
    if key not in node:
        if required:
            raise ConfigSchemaError(f"{path}.{key}: required key missing")
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigSchemaError(f"{path}.{key}: expected a number, got {type(value).__name__}")
    return float(value)


def _integer(node, path, key, default=None):
    if key not in node:
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigSchemaError(f"{path}.{key}: expected an integer, got {type(value).__name__}")
    return int(value)


def _string(node, path, key, default=None, choices=None):
    if key not in node:
        return default
    value = node[key]
    if not isinstance(value, str):
        raise ConfigSchemaError(f"{path}.{key}: expected a string, got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise ConfigSchemaError(f"{path}.{key}: must be one of {sorted(choices)}, got {value!r}")
    return value


def _boolean(node, path, key, default=None):
    if key not in node:
        return default
    value = node[key]
    if not isinstance(value, bool):
        raise ConfigSchemaError(f"{path}.{key}: expected a boolean, got {type(value).__name__}")
    return value


def _build_optics(node):
    node = _take(node, "optics", {
        "wavelength_nm", "focal_length_mm", "shift_mm", "system_visibility",
        "image_arm_crystal_to_lens_mm", "object_arm_crystal_to_lens_mm",
        "lens_to_detector_mm",
    })
    kwargs = {}
    for key in ("wavelength_nm", "focal_length_mm", "shift_mm", "system_visibility"):
        val = _number(node, "optics", key)
        if val is not None:
            kwargs[key] = val
    for key in ("image_arm_crystal_to_lens_mm", "object_arm_crystal_to_lens_mm", "lens_to_detector_mm"):
        val = _number(node, "optics", key)
        if val is not None:
            kwargs[key] = val
    return OpticsConfig(**kwargs)


def _build_pattern(node):
    node = _take(node, "pattern", {
        "envelope_width_mm", "fringe_cycles_per_mm", "fringe_wavenumber_rad_per_mm",
        "form", "intrinsic_visibility",
    })
    if "fringe_cycles_per_mm" in node and "fringe_wavenumber_rad_per_mm" in node:
        raise ConfigSchemaError(
            "pattern: give fringe_cycles_per_mm or fringe_wavenumber_rad_per_mm, not both"
        )
    kwargs = {}
    width = _number(node, "pattern", "envelope_width_mm")
    if width is not None:
        kwargs["envelope_width_mm"] = width
    cycles = _number(node, "pattern", "fringe_cycles_per_mm")
    if cycles is not None:
        kwargs["fringe_wavenumber"] = fringe_wavenumber_from_cycles(cycles)
    radians = _number(node, "pattern", "fringe_wavenumber_rad_per_mm")
    if radians is not None:
        kwargs["fringe_wavenumber"] = radians
    form = _string(node, "pattern", "form", choices={"sinusoid", "squarewave"})
    if form is not None:
        kwargs["form"] = form
    vis = _number(node, "pattern", "intrinsic_visibility")
    if vis is not None:
        kwargs["intrinsic_visibility"] = vis
    return ObjectPattern(**kwargs)


def _build_detector(node):
    node = _take(node, "detector", {
        "slit_width_mm", "slit_step_mm", "integration_time_s",
        "peak_rate_cps", "background_cps", "poisson_noise",
    })
    kwargs = {}
    for key in ("slit_width_mm", "slit_step_mm", "integration_time_s", "peak_rate_cps", "background_cps"):
        val = _number(node, "detector", key)
        if val is not None:
            kwargs[key] = val
    noise = _boolean(node, "detector", "poisson_noise")
    if noise is not None:
        kwargs["poisson_noise"] = noise
    return DetectorModel(**kwargs)


def _build_sweep_point(node, path):
    node = _take(node, path, {
        "placement", "l1_mm", "distance_from_object_mm", "alpha_per_mm2", "exponent",
    })
    placement = _string(node, path, "placement", choices={"crystal_side", "object_side"})
    if placement is None:
        raise ConfigSchemaError(f"{path}.placement: required key missing")
    alpha = _number(node, path, "alpha_per_mm2", required=True)
    exponent = _number(node, path, "exponent", default=2.0)
    if exponent != 2.0:
        # Only the square law is modelled; any other exponent would be ignored.
        raise ConfigValueError(
            f"{path}.exponent: only the square law (2.0) is implemented, got {exponent}"
        )
    if placement == "crystal_side":
        l1 = _number(node, path, "l1_mm", required=True)
        if "distance_from_object_mm" in node:
            raise ConfigSchemaError(f"{path}: crystal_side takes l1_mm, not distance_from_object_mm")
        return TurbulenceSpec.crystal_side(alpha, l1, exponent=exponent)
    dist = _number(node, path, "distance_from_object_mm", required=True)
    if "l1_mm" in node:
        raise ConfigSchemaError(f"{path}: object_side takes distance_from_object_mm, not l1_mm")
    return TurbulenceSpec.object_side(alpha, dist, exponent=exponent)


def _build_engine(node):
    node = _take(node, "engine", {
        "n_realizations", "master_seed", "scan_points", "scan_center_mm",
        "mode", "source_width_mm",
    })
    kwargs = {}
    for key in ("n_realizations", "master_seed", "scan_points"):
        val = _integer(node, "engine", key)
        if val is not None:
            kwargs[key] = val
    center = _number(node, "engine", "scan_center_mm")
    if center is not None:
        kwargs["scan_center_mm"] = center
    mode = _string(node, "engine", "mode", choices={"analytic", "kernel"})
    if mode is not None:
        kwargs["mode"] = mode
    ws = _number(node, "engine", "source_width_mm")
    if ws is not None:
        kwargs["source_width_mm"] = ws
    return EngineSettings(**kwargs)


_TOP_KEYS = {
    "schema_version", "label", "optics", "pattern", "detector",
    "turbulence_sweep", "engine", "output_dir",
}


def load_config_dict(raw):
    """Validate an already-parsed JSON object into an ExperimentConfig."""
    _take(raw, "config", _TOP_KEYS)
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigSchemaError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    try:
        optics = _build_optics(raw.get("optics", {}))
        pattern = _build_pattern(raw.get("pattern", {}))
        detector = _build_detector(raw.get("detector", {}))
        engine = _build_engine(raw.get("engine", {}))
        sweep_node = raw.get("turbulence_sweep", [])
        if not isinstance(sweep_node, list):
            raise ConfigSchemaError("config.turbulence_sweep: expected a list")
        sweep = tuple(
            _build_sweep_point(entry, f"turbulence_sweep[{i}]")
            for i, entry in enumerate(sweep_node)
        )
        # Placement ranges depend on the optics; check them now, not at use time.
        from .model import effective_distance

        for i, spec in enumerate(sweep):
            try:
                effective_distance(spec, optics)
            except ValueError as exc:
                raise ConfigValueError(f"turbulence_sweep[{i}]: {exc}") from exc
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigValueError(str(exc)) from exc
    label = _string(raw, "config", "label", default="")
    output_dir = _string(raw, "config", "output_dir")
    return ExperimentConfig(optics, pattern, detector, sweep, engine, label, output_dir)


def load_config(path):
    """Load and validate a JSON experiment configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path} is not valid JSON: {exc}") from exc
    return load_config_dict(raw)


def bundled_config_path(name):
    """Filesystem path of a configuration shipped with the package."""
    ref = resources.files("turbghost").joinpath("configs", name)
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled config named {name!r}")
    return str(ref)


def config_to_dict(config: ExperimentConfig):
    """Canonical echo of a validated config (all defaults resolved)."""
    sweep = []
    for spec in config.sweep:
        entry = {
            "placement": "crystal_side" if spec.side == "crystal" else "object_side",
            "alpha_per_mm2": spec.alpha_per_mm2,
            "exponent": spec.exponent,
        }
        if spec.side == "crystal":
            entry["l1_mm"] = spec.l1_mm
        else:
            entry["distance_from_object_mm"] = spec.distance_from_object_mm
        sweep.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "label": config.label,
        "optics": {
            "wavelength_nm": config.optics.wavelength_nm,
            "focal_length_mm": config.optics.focal_length_mm,
            "shift_mm": config.optics.shift_mm,
            "system_visibility": config.optics.system_visibility,
            "image_arm_crystal_to_lens_mm": config.optics.image_arm_crystal_to_lens_mm,
            "object_arm_crystal_to_lens_mm": config.optics.object_arm_crystal_to_lens_mm,
            "lens_to_detector_mm": config.optics.lens_to_detector_mm,
        },
        "pattern": {
            "envelope_width_mm": config.pattern.envelope_width_mm,
            "fringe_wavenumber_rad_per_mm": config.pattern.fringe_wavenumber,
            "form": config.pattern.form,
            "intrinsic_visibility": config.pattern.intrinsic_visibility,
        },
        "detector": {
            "slit_width_mm": config.detector.slit_width_mm,
            "slit_step_mm": config.detector.slit_step_mm,
            "integration_time_s": config.detector.integration_time_s,
            "peak_rate_cps": config.detector.peak_rate_cps,
            "background_cps": config.detector.background_cps,
            "poisson_noise": config.detector.poisson_noise,
        },
        "turbulence_sweep": sweep,
        "engine": {
            "n_realizations": config.engine.n_realizations,
            "master_seed": config.engine.master_seed,
            "scan_points": config.engine.scan_points,
            "scan_center_mm": config.engine.scan_center_mm,
            "mode": config.engine.mode,
            "source_width_mm": config.engine.source_width_mm,
        },
        "output_dir": config.output_dir,
    }


def config_hash(config: ExperimentConfig):
    """SHA-256 of the canonical JSON echo, for exact-replay bookkeeping."""
    canon = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()
