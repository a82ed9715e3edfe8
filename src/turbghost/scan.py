"""Scanning-slit coincidence scans: synthesis, containers, CSV round-trip.

A scan steps a slit of finite width across the ghost image and integrates
coincidence counts at each position.  Synthetic scans convolve the image
profile with the slit top-hat, scale to a peak rate, and draw Poisson
counts; everything is deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import KlyshkoPath, _check_alpha, _convolution_pad, synthesize_image
from .model import AnalyticKernel, ObjectPattern, kernel_from_turbulence, model_visibility

__all__ = [
    "SCAN_MODES",
    "MAX_GRID_POINTS",
    "MAX_SCAN_POINTS",
    "DetectorModel",
    "ScanData",
    "ScanCSVError",
    "MissingColumnError",
    "NonIntegerCountsError",
    "NonMonotonicPositionsError",
    "simulate_scan",
    "expected_scan_rates",
    "format_scan_csv",
    "write_scan_csv",
    "read_scan_csv",
]

_SCAN_SEED_TAG = 0x5CA7

#: Scan synthesis routes; see ``expected_scan_rates``.
SCAN_MODES = ("analytic", "kernel")
#: Most samples a sampled array may hold (8 MB): a scan's synthesis grid or an analytic curve.
MAX_GRID_POINTS = 2**20
#: Most positions one scan may have: a campaign stacks several scans in one fit.
MAX_SCAN_POINTS = 2**16


@dataclass(frozen=True)
class DetectorModel:
    """Scanning-slit detector: geometry, dwell time, rates.

    ``slit_width_mm == 0`` means ideal point sampling (the zero-width
    limit); for a finite slit the scan step must not exceed the width so
    the slit oversamples the profile.  Peak rate is the coincidence rate
    at the central fringe maximum; it and the background are plumbing
    defaults, not measured quantities.
    """

    slit_width_mm: float = 0.040
    slit_step_mm: float = 0.005
    integration_time_s: float = 4.0
    peak_rate_cps: float = 200.0
    background_cps: float = 0.0
    poisson_noise: bool = True

    def __post_init__(self):
        if self.slit_width_mm < 0:
            raise ValueError("slit_width_mm must be >= 0")
        if not self.slit_step_mm > 0:
            raise ValueError("slit_step_mm must be positive")
        if self.slit_width_mm > 0 and self.slit_step_mm > self.slit_width_mm:
            raise ValueError("slit_step_mm must not exceed slit_width_mm")
        if not self.integration_time_s > 0:
            raise ValueError("integration_time_s must be positive")
        if not self.peak_rate_cps > 0:
            raise ValueError("peak_rate_cps must be positive")
        if self.background_cps < 0:
            raise ValueError("background_cps must be >= 0")


@dataclass(frozen=True)
class ScanData:
    """One coincidence scan: positions, integer counts, dwell times."""

    positions_mm: np.ndarray
    counts: np.ndarray
    durations_s: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions_mm, dtype=float)
        counts = np.asarray(self.counts)
        dur = np.asarray(self.durations_s, dtype=float)
        if not (pos.shape == counts.shape == dur.shape) or pos.ndim != 1:
            raise ValueError("positions, counts and durations must be equal-length 1-D")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if not np.all(np.diff(pos) > 0):
            raise ValueError("positions must be strictly increasing")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(np.isfinite(counts) & (counts == np.rint(counts))):
                raise ValueError("counts must be integers")
            counts = counts.astype(np.int64)
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if not np.all(np.isfinite(dur)):
            raise ValueError("durations must be finite")
        if np.any(dur <= 0):
            raise ValueError("durations must be positive")
        object.__setattr__(self, "positions_mm", pos)
        object.__setattr__(self, "counts", counts.astype(np.int64))
        object.__setattr__(self, "durations_s", dur)

    def __len__(self):
        return self.positions_mm.size

    @property
    def rates_cps(self):
        return self.counts / self.durations_s


def _tophat_weights(step, width):
    """Midpoint-rule weights of a top-hat of exactly ``width`` on a grid.

    Edge cells get fractional weight from their overlap with the slit, so
    the effective width is not quantized to whole grid cells.
    """
    half = width / 2.0
    m = int(math.ceil(half / step + 0.5))
    centers = np.arange(-m, m + 1) * step
    overlap = np.clip(
        np.minimum(centers + step / 2.0, half) - np.maximum(centers - step / 2.0, -half),
        0.0,
        None,
    )
    return overlap / overlap.sum()


def _slit_convolve(values, step, slit_width_mm):
    """``values`` (grid spacing ``step``) through the slit top-hat; zero-padded,
    so the half-slit at each end reads low and scan positions keep clear of it."""
    if slit_width_mm <= 0:
        return values
    return np.convolve(values, _tophat_weights(step, slit_width_mm), mode="same")


def _fine_grid(envelope_width_mm, fringe_wavenumber, slit_width_mm, first_mm, last_mm):
    """Start, step and sample count of the fine grid a scan over [first_mm, last_mm] is built on.

    The count is computed before anything is allocated; a geometry whose
    count passes the float range reads as inf, so callers can refuse it.
    """
    w = envelope_width_mm
    period = 2.0 * math.pi / fringe_wavenumber
    # period/200 keeps the linear-interpolation damping of the fringe
    # below ~1e-4 when resampling onto the scan positions.
    step = min(period / 200.0, w / 50.0)
    if slit_width_mm > 0:
        step = min(step, slit_width_mm / 8.0)
    # The margin keeps every scan position off the slit's zero-padded ends.
    margin = slit_width_mm + 2.0 * step
    lo = min(first_mm - margin, -4.0 * w)
    hi = max(last_mm + margin, 4.0 * w)
    span = (hi - lo) / step if step > 0 else math.inf
    return lo, step, math.ceil(span) + 1 if math.isfinite(span) else math.inf


def _image_route(path: KlyshkoPath, alpha_per_mm2, pattern: ObjectPattern, mode):
    """The (kernel, contrast) pair a scan's image is formed with; see ``expected_scan_rates``."""
    if mode == "analytic" and pattern.form == "sinusoid":
        return AnalyticKernel(0.0), model_visibility(path.optics, pattern, alpha_per_mm2,
                                                     path.effective_distance_mm)
    return (kernel_from_turbulence(alpha_per_mm2, path.effective_distance_mm, path.k),
            model_visibility(path.optics, pattern, 0.0, 0.0))


def _synthesis_samples(grid, kernel):
    """Samples a scan's synthesis holds on ``grid`` (``_fine_grid``'s start, step and count):
    the grid and, for a blurring kernel, ``synthesize_image``'s pad on each side."""
    _, step, n = grid
    return n if math.isinf(n) else n + 2 * _convolution_pad(kernel, step)


def expected_scan_rates(
    path: KlyshkoPath,
    alpha_per_mm2,
    pattern: ObjectPattern,
    detector: DetectorModel,
    positions_mm,
    mode="analytic",
):
    """Expected coincidence rate at each slit position.

    Every scan is the object seen at one contrast through one kernel, by
    ``synthesize_image``.  Both contrasts carry the two ceilings, the
    system visibility g and the object's intrinsic visibility v0, through
    ``model_visibility``.  ``analytic`` takes the ideal kernel at this
    path's model visibility (the closed-form image); ``kernel`` takes this
    path's Gaussian kernel at the turbulence-free contrast g * v0 (model
    visibility at alpha = d = 0).  Square-wave patterns have no
    closed-form image and always take the kernel route.  The slit
    top-hat is applied on a fine grid, and the result is scaled so the
    profile peak sits at the detector's peak rate, plus the background.
    ``alpha_per_mm2`` must equal the path's.  A fine grid of more than
    ``MAX_GRID_POINTS`` samples, the kernel's pad on each side included, is
    a ValueError before it is allocated.
    """
    _check_alpha(path, alpha_per_mm2)
    if mode not in SCAN_MODES:
        raise ValueError(f"mode must be one of {SCAN_MODES}, got {mode!r}")
    positions = np.asarray(positions_mm, dtype=float)
    kernel, contrast = _image_route(path, alpha_per_mm2, pattern, mode)
    lo, fine_dx, n = fine = _fine_grid(pattern.envelope_width_mm, pattern.fringe_wavenumber,
                                       detector.slit_width_mm, positions[0], positions[-1])
    held = _synthesis_samples(fine, kernel)
    if held > MAX_GRID_POINTS:
        raise ValueError(f"scan synthesis needs a fine grid of {held:.3g} samples, kernel pad "
                         f"included, more than MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    grid = lo + fine_dx * np.arange(n)
    seen = replace(pattern, intrinsic_visibility=contrast)
    image = synthesize_image(kernel, seen, positions_mm=grid).values
    gy = _slit_convolve(image, grid[1] - grid[0], detector.slit_width_mm)
    gy = gy / gy.max()
    rates = detector.peak_rate_cps * np.interp(positions, grid, gy)
    return rates + detector.background_cps


def simulate_scan(
    path: KlyshkoPath,
    alpha_per_mm2,
    pattern: ObjectPattern,
    detector: DetectorModel,
    seed,
    n_positions=160,
    center_mm=0.0,
    mode="analytic",
):
    """Synthesize one coincidence scan, deterministic per seed.

    Counts are Poisson draws of rate * dwell unless the detector is
    configured noiseless, in which case they are the rounded expectations.
    ``n_positions`` runs from 2 to ``MAX_SCAN_POINTS``.
    """
    if not 2 <= n_positions <= MAX_SCAN_POINTS:
        raise ValueError(f"n_positions must be in [2, {MAX_SCAN_POINTS}], got {n_positions}")
    offsets = (np.arange(int(n_positions)) - (int(n_positions) - 1) / 2.0)
    positions = center_mm + detector.slit_step_mm * offsets
    rates = expected_scan_rates(
        path, alpha_per_mm2, pattern, detector, positions, mode=mode
    )
    expected = rates * detector.integration_time_s
    if detector.poisson_noise:
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), _SCAN_SEED_TAG)))
        counts = rng.poisson(expected)
    else:
        counts = np.rint(expected).astype(np.int64)
    durations = np.full(positions.shape, float(detector.integration_time_s))
    return ScanData(positions, counts, durations)


class ScanCSVError(ValueError):
    """Malformed scan CSV."""


class MissingColumnError(ScanCSVError):
    pass


class NonIntegerCountsError(ScanCSVError):
    pass


class NonMonotonicPositionsError(ScanCSVError):
    pass


_SCAN_HEADER = "position_mm,counts,duration_s"


def format_scan_csv(data: ScanData):
    """Scan as CSV text with a fixed header; round-trips bit-exactly.

    Floats are written with repr (shortest exact representation), counts
    as plain integers.
    """
    lines = [_SCAN_HEADER]
    for x, c, t in zip(data.positions_mm, data.counts, data.durations_s):
        lines.append(f"{float(x)!r},{int(c)},{float(t)!r}")
    return "\n".join(lines) + "\n"


def write_scan_csv(data: ScanData, path):
    """Write format_scan_csv(data) to ``path``."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_scan_csv(data))


def read_scan_csv(path):
    """Read a scan CSV written by write_scan_csv (or a compatible source).

    Lines starting with '#' are treated as comments.  Raises
    MissingColumnError, NonIntegerCountsError or NonMonotonicPositionsError
    for the corresponding malformations, and ScanCSVError for any other bad
    row (unparsable or non-finite fields, nonpositive durations, ...).
    """
    with open(path, "r", encoding="ascii") as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows:
        raise MissingColumnError("empty scan CSV")
    header = [h.strip() for h in rows[0].split(",")]
    required = _SCAN_HEADER.split(",")
    if header != required:
        missing = [c for c in required if c not in header]
        if missing:
            raise MissingColumnError(f"missing columns {missing}; header was {header}")
        raise MissingColumnError(f"columns must be exactly {required}, got {header}")
    positions, counts, durations = [], [], []
    for ln, row in enumerate(rows[1:], start=2):
        parts = row.split(",")
        if len(parts) != 3:
            raise MissingColumnError(f"line {ln}: expected 3 fields, got {len(parts)}")
        try:
            x, c, t = (float(p) for p in parts)
        except ValueError as exc:
            raise ScanCSVError(f"line {ln}: {exc}") from exc
        if not (math.isfinite(x) and math.isfinite(c) and math.isfinite(t)):
            raise ScanCSVError(f"line {ln}: non-finite value in {row!r}")
        if c != int(c):
            raise NonIntegerCountsError(f"line {ln}: counts value {parts[1]} is not an integer")
        positions.append(x)
        counts.append(int(c))
        durations.append(t)
    positions = np.array(positions)
    if not np.all(np.diff(positions) > 0):
        raise NonMonotonicPositionsError("positions must be strictly increasing")
    try:
        return ScanData(positions, np.array(counts, dtype=np.int64), np.array(durations))
    except ValueError as exc:
        raise ScanCSVError(str(exc)) from exc
