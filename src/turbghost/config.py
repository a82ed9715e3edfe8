"""Strict JSON experiment configuration.

Keys carry explicit units in their names (``l1_mm``, ``alpha_per_mm2``)
because unit mixing is the most likely silent error in this domain.
Unknown keys are rejected with their dotted path; parse errors, schema
violations and physical-invariant violations raise distinct exception
types so the CLI can report them precisely.

The ``optics``, ``detector`` and ``engine`` sections are stated once, by
the fields of ``OpticsConfig``, ``DetectorModel`` and ``EngineSettings``:
each field is an allowed key, read by the reader of its type.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from importlib import resources

from .engine import KlyshkoPath
from .model import (PATTERN_FORMS, PLACEMENTS, ObjectPattern, OpticsConfig, TurbulenceSpec,
                    fringe_wavenumber_from_cycles)
from .scan import MAX_GRID_POINTS, MAX_SCAN_POINTS, SCAN_MODES, DetectorModel, _fine_grid

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
    "read_config_json",
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
    """Numerical settings: seeding, scan layout, scan mode, source envelope."""

    master_seed: int = 20260809
    scan_points: int = 160
    scan_center_mm: float = 0.0
    mode: str = field(default="analytic", metadata={"choices": SCAN_MODES})
    source_width_mm: float = KlyshkoPath.source_width_mm

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if not 2 <= self.scan_points <= MAX_SCAN_POINTS:
            raise ValueError(f"scan_points must be in [2, {MAX_SCAN_POINTS}]")
        if self.mode not in SCAN_MODES:
            raise ValueError(f"mode must be one of {SCAN_MODES}")
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
        names = ", ".join(f"{path}.{key}" for key in unknown)
        raise ConfigSchemaError(f"unknown key {names}; {path} allows {sorted(known)}")
    return node


def _number(node, path, key, default=None, required=False):
    if key not in node:
        if required:
            raise ConfigSchemaError(f"{path}.{key}: required key missing")
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigSchemaError(f"{path}.{key}: expected a number, got {type(value).__name__}")
    # json reads NaN and +-Infinity; an integer past the float range is infinite too.
    try:
        number = float(value)
    except OverflowError:
        number = -math.inf if value < 0 else math.inf
    if not math.isfinite(number):
        raise ConfigValueError(f"{path}.{key}: must be a finite number, got {number}")
    return number


def _integer(node, path, key):
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


def _boolean(node, path, key):
    value = node[key]
    if not isinstance(value, bool):
        raise ConfigSchemaError(f"{path}.{key}: expected a boolean, got {type(value).__name__}")
    return value


@contextmanager
def _naming_key(path, keys):
    """Re-raise a model check's ValueError as a ConfigValueError naming its key.

    The checks name their field ("slit_step_mm must not exceed
    slit_width_mm"); the first such name that is part of one of ``keys``
    gives the dotted key ``path.key``, else the error names ``path``.
    """
    try:
        yield
    except ValueError as exc:
        named = [k for word in re.findall(r"[a-z0-9]+(?:_[a-z0-9]+)+", str(exc))
                 for k in keys if word in k]
        key = f"{path}.{named[0]}" if named else path
        raise ConfigValueError(f"{key}: {exc}") from exc


_READERS = {"float": _number, "int": _integer, "bool": _boolean, "str": _string}


def _build_section(cls, node, path):
    """Read the flat section ``path`` into the dataclass ``cls``.

    Each field of ``cls`` is an allowed key, read by the reader of the
    field's type (a field's ``choices`` metadata restricts a string);
    missing keys keep the dataclass default.
    """
    node = _take(node, path, {f.name for f in fields(cls)})
    kwargs = {}
    for f in fields(cls):
        if f.name in node:
            reader = _READERS[getattr(f.type, "__name__", f.type)]
            kwargs[f.name] = reader(node, path, f.name, **f.metadata)
    with _naming_key(path, [f.name for f in fields(cls)]):
        return cls(**kwargs)


_PATTERN_KEYS = (
    "envelope_width_mm", "fringe_cycles_per_mm", "fringe_wavenumber_rad_per_mm",
    "form", "intrinsic_visibility",
)
_SWEEP_KEYS = ("placement", *PLACEMENTS.values(), "alpha_per_mm2", "exponent")


def _build_pattern(node):
    node = _take(node, "pattern", _PATTERN_KEYS)
    if "fringe_cycles_per_mm" in node and "fringe_wavenumber_rad_per_mm" in node:
        raise ConfigSchemaError(
            "pattern: give fringe_cycles_per_mm or fringe_wavenumber_rad_per_mm, not both"
            " (on the command line, --set pattern.<key>=null removes one)"
        )
    kwargs = {}
    width = _number(node, "pattern", "envelope_width_mm")
    if width is not None:
        kwargs["envelope_width_mm"] = width
    cycles = _number(node, "pattern", "fringe_cycles_per_mm")
    if cycles is not None:
        with _naming_key("pattern", _PATTERN_KEYS):
            kwargs["fringe_wavenumber"] = fringe_wavenumber_from_cycles(cycles)
    radians = _number(node, "pattern", "fringe_wavenumber_rad_per_mm")
    if radians is not None:
        kwargs["fringe_wavenumber"] = radians
    form = _string(node, "pattern", "form", choices=PATTERN_FORMS)
    if form is not None:
        kwargs["form"] = form
    vis = _number(node, "pattern", "intrinsic_visibility")
    if vis is not None:
        kwargs["intrinsic_visibility"] = vis
    with _naming_key("pattern", _PATTERN_KEYS):
        return ObjectPattern(**kwargs)


def _build_sweep_point(node, path):
    node = _take(node, path, _SWEEP_KEYS)
    placement = _string(node, path, "placement", choices=PLACEMENTS)
    if placement is None:
        raise ConfigSchemaError(f"{path}.placement: required key missing")
    alpha = _number(node, path, "alpha_per_mm2", required=True)
    exponent = _number(node, path, "exponent", default=2.0)
    if exponent != 2.0:
        # Only the square law is modelled; any other exponent would be ignored.
        raise ConfigValueError(
            f"{path}.exponent: only the square law (2.0) is implemented, got {exponent}"
        )
    key = PLACEMENTS[placement]
    dist = _number(node, path, key, required=True)
    for other in PLACEMENTS.values():
        if other != key and other in node:
            raise ConfigSchemaError(f"{path}: {placement} takes {key}, not {other}")
    with _naming_key(path, _SWEEP_KEYS):
        return TurbulenceSpec(alpha, placement, dist, exponent)


def _check_synthesis_grid(pattern, detector, engine, fringe_key):
    """Refuse a scan layout whose synthesis grid would pass MAX_GRID_POINTS.

    The grid of ``scan.expected_scan_rates`` follows six keys.  The error
    names the first of them that, put back to its default with the others
    as given, brings the grid under the ceiling (all six if none does).
    """
    keys = ("pattern.envelope_width_mm", fringe_key, "detector.slit_width_mm",
            "detector.slit_step_mm", "engine.scan_points", "engine.scan_center_mm")
    given = (pattern.envelope_width_mm, pattern.fringe_wavenumber, detector.slit_width_mm,
             detector.slit_step_mm, engine.scan_points, engine.scan_center_mm)
    defaults = (ObjectPattern.envelope_width_mm, ObjectPattern.fringe_wavenumber,
                DetectorModel.slit_width_mm, DetectorModel.slit_step_mm,
                EngineSettings.scan_points, EngineSettings.scan_center_mm)

    def samples(w, k0, slit, step, points, center):  # simulate_scan's first and last positions
        half = step * (points - 1) / 2.0
        return _fine_grid(w, k0, slit, center - half, center + half)[2]

    n = samples(*given)
    if n <= MAX_GRID_POINTS:
        return
    drivers = [key for i, key in enumerate(keys)
               if samples(*given[:i], defaults[i], *given[i + 1:]) <= MAX_GRID_POINTS]
    raise ConfigValueError(f"{(drivers or [', '.join(keys)])[0]}: scan synthesis would need a "
                           f"fine grid of {n:.3g} samples, more than {MAX_GRID_POINTS}")


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
    optics = _build_section(OpticsConfig, raw.get("optics", {}), "optics")
    pattern = _build_pattern(raw.get("pattern", {}))
    detector = _build_section(DetectorModel, raw.get("detector", {}), "detector")
    engine = _build_section(EngineSettings, raw.get("engine", {}), "engine")
    fringe_key = ("fringe_wavenumber_rad_per_mm" if "fringe_wavenumber_rad_per_mm" in
                  raw.get("pattern", {}) else "fringe_cycles_per_mm")
    _check_synthesis_grid(pattern, detector, engine, f"pattern.{fringe_key}")
    sweep_node = raw.get("turbulence_sweep", [])
    if not isinstance(sweep_node, list):
        raise ConfigSchemaError("config.turbulence_sweep: expected a list")
    sweep = tuple(
        _build_sweep_point(entry, f"turbulence_sweep[{i}]")
        for i, entry in enumerate(sweep_node)
    )
    # Each point's folded path checks its placement range and the source
    # width against the optics; build them now, not at use time.
    for i, spec in enumerate(sweep):
        try:
            KlyshkoPath(optics, spec, source_width_mm=engine.source_width_mm)
        except ValueError as exc:
            key = ("engine.source_width_mm" if "source_width_mm" in str(exc)
                   else f"turbulence_sweep[{i}].{PLACEMENTS[spec.placement]}")
            raise ConfigValueError(f"{key}: {exc}") from exc
    label = _string(raw, "config", "label", default="")
    output_dir = _string(raw, "config", "output_dir")
    return ExperimentConfig(optics, pattern, detector, sweep, engine, label, output_dir)


def read_config_json(path):
    """Parse a config file into its raw JSON object (not yet validated)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path} is not valid JSON: {exc}") from exc


def load_config(path):
    """Load and validate a JSON experiment configuration file."""
    return load_config_dict(read_config_json(path))


def bundled_config_path(name):
    """Filesystem path of a configuration shipped with the package."""
    ref = resources.files("turbghost").joinpath("configs", name)
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled config named {name!r}")
    return str(ref)


def config_to_dict(config: ExperimentConfig):
    """Canonical echo of a validated config (all defaults resolved).

    ``load_config_dict`` accepts the echo back and gives the same config.
    ``output_dir`` is left out: it is a deployment path and changes no
    number, so it is not part of the echo or the config hash.
    """
    sweep = [{"placement": s.placement, PLACEMENTS[s.placement]: s.distance_mm,
              "alpha_per_mm2": s.alpha_per_mm2, "exponent": s.exponent} for s in config.sweep]
    return {
        "schema_version": SCHEMA_VERSION,
        "label": config.label,
        "optics": asdict(config.optics),
        "pattern": {
            "envelope_width_mm": config.pattern.envelope_width_mm,
            "fringe_wavenumber_rad_per_mm": config.pattern.fringe_wavenumber,
            "form": config.pattern.form,
            "intrinsic_visibility": config.pattern.intrinsic_visibility,
        },
        "detector": asdict(config.detector),
        "turbulence_sweep": sweep,
        "engine": asdict(config.engine),
    }


def config_hash(config: ExperimentConfig):
    """SHA-256 of the canonical JSON echo, for exact-replay bookkeeping."""
    canon = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()
