"""Closed-form model of 1-D ghost imaging through a thin turbulent sheet.

All lengths are canonically millimetres and all wavenumbers rad/mm.
User-facing constructors take unit-tagged keyword arguments (``*_nm``,
``*_mm``) and convert on entry, so no raw unit-ambiguous floats
cross the API boundary.

The physical content is a folded (Klyshko-style) two-arm imaging system:
a Gaussian coherence kernel of width ``sqrt(alpha) * d / k`` blurs the
object, where ``alpha`` is the square-law turbulence strength, ``d`` the
distance between the turbulent sheet and the nearest image plane, and
``k`` the optical wavenumber.  Blurring a fringe pattern of wavenumber
``k0`` attenuates its visibility by ``exp(-alpha d^2 / (2 (k/k0)^2))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VALIDITY_WARN_THRESHOLD",
    "PLACEMENTS",
    "PATTERN_FORMS",
    "OpticsConfig",
    "TurbulenceSpec",
    "ObjectPattern",
    "AnalyticKernel",
    "SampledKernel",
    "VisibilityPoint",
    "wavenumber",
    "fringe_wavenumber_from_cycles",
    "effective_distance",
    "kernel_sigma",
    "kernel_from_turbulence",
    "fringe_visibility",
    "model_visibility",
    "validity_ratio",
]

MM_PER_NM = 1e-6

#: The thin-blur closed forms assume d*sqrt(alpha) much smaller than k*w.
#: Ratios above this threshold are flagged; the value is a fixed
#: convention of this package, not a setting.
VALIDITY_WARN_THRESHOLD = 0.1


def wavenumber(*, wavelength_mm=None, wavelength_nm=None):
    """Optical wavenumber k = 2*pi/lambda in rad/mm.

    Exactly one unit-tagged wavelength keyword must be given.
    """
    given = [
        w
        for w in (wavelength_mm, None if wavelength_nm is None else wavelength_nm * MM_PER_NM)
        if w is not None
    ]
    if len(given) != 1:
        raise ValueError("give exactly one of wavelength_mm/_nm")
    lam = float(given[0])
    if not lam > 0:
        raise ValueError(f"wavelength must be positive, got {lam} mm")
    return 2.0 * math.pi / lam


def fringe_wavenumber_from_cycles(cycles_per_mm):
    """Convert a fringe spatial frequency in cycles/mm to rad/mm."""
    if not cycles_per_mm > 0:
        raise ValueError("cycles_per_mm must be positive")
    return 2.0 * math.pi * float(cycles_per_mm)


@dataclass(frozen=True)
class OpticsConfig:
    """Geometry and quality of the two-arm coincidence imaging system.

    The two arms share a detector-side lens distance of ``2 f``.  The
    crystal sits ``shift_mm`` away from the central image plane: the
    image-arm lens is ``2 f - shift`` from the crystal and the object-arm
    lens ``2 f + shift``, so the summed crystal-to-lens distance stays
    ``4 f`` for any shift.  The object-arm and detector distances are
    read-only properties.  ``system_visibility`` is the measured fringe
    visibility of the system with no turbulence present.
    """

    wavelength_nm: float = 650.0
    focal_length_mm: float = 500.0
    shift_mm: float = 0.0
    system_visibility: float = 1.0

    def __post_init__(self):
        if not self.wavelength_nm > 0:
            raise ValueError("wavelength_nm must be positive")
        f = self.focal_length_mm
        if not f > 0:
            raise ValueError("focal_length_mm must be positive")
        if not abs(self.shift_mm) < 2.0 * f:
            raise ValueError(
                f"|shift_mm| = {abs(self.shift_mm)} must be < 2 * focal_length_mm = {2 * f}"
            )
        if not 0.0 < self.system_visibility <= 1.0:
            raise ValueError("system_visibility must be in (0, 1]")

    @property
    def object_arm_crystal_to_lens_mm(self):
        return 2.0 * self.focal_length_mm + self.shift_mm

    @property
    def lens_to_detector_mm(self):
        return 2.0 * self.focal_length_mm

    @property
    def wavelength_mm(self):
        return self.wavelength_nm * MM_PER_NM

    @property
    def k(self):
        """Optical wavenumber in rad/mm."""
        return wavenumber(wavelength_mm=self.wavelength_mm)


#: Each turbulence placement, mapped to the config key naming its distance:
#: l1 from the crystal, or the distance from the object.
PLACEMENTS = {"crystal_side": "l1_mm", "object_side": "distance_from_object_mm"}

#: Object fringe forms: a cosine carrier or its sign (equal opaque/clear bars).
PATTERN_FORMS = ("sinusoid", "squarewave")


@dataclass(frozen=True)
class TurbulenceSpec:
    """Thin turbulent sheet: strength, placement, distance, structure-function exponent.

    ``alpha_per_mm2`` parameterizes the wave structure function
    ``D(r) = alpha * r**exponent`` (mm^-2); ``exponent`` must be 2.0, the
    only law the visibility law and kernels model.  ``placement`` is a key
    of ``PLACEMENTS``; ``distance_mm`` is l1 from the crystal on the
    crystal side, or the distance from the object on the object side.
    """

    alpha_per_mm2: float
    placement: str
    distance_mm: float
    exponent: float = 2.0

    def __post_init__(self):
        if not self.alpha_per_mm2 >= 0:
            raise ValueError("alpha_per_mm2 must be >= 0")
        if self.exponent != 2.0:
            raise ValueError(f"exponent must be 2.0 (square law only), got {self.exponent}")
        if self.placement not in PLACEMENTS:
            raise ValueError(f"placement must be one of {sorted(PLACEMENTS)}, got {self.placement!r}")

    @classmethod
    def crystal_side(cls, alpha_per_mm2, l1_mm, exponent=2.0):
        return cls(alpha_per_mm2, "crystal_side", l1_mm, exponent)

    @classmethod
    def object_side(cls, alpha_per_mm2, distance_from_object_mm, exponent=2.0):
        return cls(alpha_per_mm2, "object_side", distance_from_object_mm, exponent)


def effective_distance(spec: TurbulenceSpec, config: OpticsConfig):
    """Signed distance between the turbulent sheet and its reference image plane.

    Crystal-side placement: ``l1 - shift`` (distance from the central image
    plane, which lies ``shift`` beyond the crystal).  Object-side placement:
    the distance from the object itself.  Only the square of the returned
    value enters the visibility law, so the sign is informational.
    """
    dist = spec.distance_mm
    crystal = spec.placement == "crystal_side"
    span = config.object_arm_crystal_to_lens_mm if crystal else config.lens_to_detector_mm
    if not 0.0 <= dist <= span:
        name = ("crystal-to-lens range [0, 2 * focal_length_mm + shift_mm" if crystal
                else "lens-to-detector range [0, 2 * focal_length_mm")
        raise ValueError(f"{PLACEMENTS[spec.placement]} = {dist} outside {name} = {span}]")
    return dist - config.shift_mm if crystal else dist


@dataclass(frozen=True)
class ObjectPattern:
    """Transmission object: Gaussian envelope times a fringe pattern.

    ``sinusoid`` evaluates to ``exp(-x^2/2w^2) * (1 + v0*cos(k0 x))``;
    ``squarewave`` replaces the cosine by its sign (opaque/clear bars of
    equal width).  Both are nonnegative with maximum ``1 + v0`` at x = 0.
    """

    envelope_width_mm: float = 0.4
    fringe_wavenumber: float = fringe_wavenumber_from_cycles(3.6)
    form: str = "sinusoid"
    intrinsic_visibility: float = 1.0

    def __post_init__(self):
        if not self.envelope_width_mm > 0:
            raise ValueError("envelope_width_mm must be positive")
        if not self.fringe_wavenumber > 0:
            raise ValueError("fringe_wavenumber must be positive")
        if self.form not in PATTERN_FORMS:
            raise ValueError(f"form must be one of {PATTERN_FORMS}, got {self.form!r}")
        if not 0.0 <= self.intrinsic_visibility <= 1.0:
            raise ValueError("intrinsic_visibility must be in [0, 1]")

    def fringe(self, x):
        """Unit-amplitude fringe carrier at position x (mm)."""
        c = np.cos(self.fringe_wavenumber * np.asarray(x, dtype=float))
        if self.form == "squarewave":
            return np.sign(c)
        return c

    def evaluate(self, x):
        """Transmission ``exp(-(x/w)^2/2) * (1 + v0 * fringe(x))`` at position x (mm).
        The ghost image at visibility V is ``replace(pattern, intrinsic_visibility=V).evaluate(x)``."""
        x = np.asarray(x, dtype=float)
        w = self.envelope_width_mm
        out = np.exp(-0.5 * (x / w) ** 2) * (1.0 + self.intrinsic_visibility * self.fringe(x))
        return out if out.ndim else float(out)


def kernel_sigma(alpha_per_mm2, distance_mm, k):
    """Gaussian blur width sqrt(alpha) * |d| / k in mm."""
    return math.sqrt(alpha_per_mm2) * abs(distance_mm) / k


def kernel_from_turbulence(alpha_per_mm2, distance_mm, k):
    """Analytic coincidence kernel of a turbulent sheet, peak-normalized.

    A square-law turbulent sheet at distance ``d`` from the image plane
    turns the ideal point-to-point coincidence kernel into a Gaussian in
    the detector separation, ``exp(-k^2 dx^2 / (2 alpha d^2))``, i.e. a
    blur of standard deviation ``sqrt(alpha) * |d| / k``.

    For ``alpha == 0`` or ``d == 0`` the kernel is ideal (delta-like):
    ``.ideal`` is True and ``.value`` is 1 where dx == 0 and 0 elsewhere,
    so numerical callers must branch on that degenerate case rather than
    sample it.
    """
    return AnalyticKernel(kernel_sigma(alpha_per_mm2, distance_mm, k))


def fringe_visibility(g, alpha_per_mm2, distance_mm, k, k0):
    """Detected fringe visibility g * exp(-alpha d^2 / (2 (k/k0)^2)).

    ``g`` is the system's no-turbulence visibility ceiling; the exponential
    is the Fourier attenuation of the fringe carrier ``k0`` by the Gaussian
    coherence kernel.  Strictly decreasing in both ``alpha`` and ``|d|``;
    equals ``g`` when either vanishes.  Depends on the optical and fringe
    wavenumbers only through their ratio.
    """
    if not 0.0 < g <= 1.0:
        raise ValueError("g must be in (0, 1]")
    if alpha_per_mm2 < 0:
        raise ValueError("alpha_per_mm2 must be >= 0")
    return g * math.exp(-alpha_per_mm2 * distance_mm**2 / (2.0 * (k / k0) ** 2))


def model_visibility(optics: OpticsConfig, pattern: ObjectPattern, alpha_per_mm2, distance_mm):
    """Predicted fringe visibility of ``pattern`` seen through ``optics``.

    The one home of v0 * fringe_visibility(g, alpha, d, k, k0): the
    object's intrinsic visibility v0 times the system ceiling g times the
    turbulence attenuation.  At alpha = 0 or d = 0 it is the bare
    contrast g * v0.  A scalar distance gives a float; an array gives an
    array, each element from the same scalar law.
    """
    def law(d):
        return pattern.intrinsic_visibility * fringe_visibility(
            optics.system_visibility, alpha_per_mm2, d, optics.k, pattern.fringe_wavenumber
        )

    if np.ndim(distance_mm):
        return np.array([law(d) for d in np.asarray(distance_mm, dtype=float)])
    return law(distance_mm)


def validity_ratio(distance_mm, alpha_per_mm2, k, envelope_width_mm):
    """Thin-blur regime ratio |d| sqrt(alpha) / (k w).

    The closed-form visibility law assumes this is small.  Callers should
    treat ratios above ``VALIDITY_WARN_THRESHOLD`` as out-of-regime.
    """
    if alpha_per_mm2 < 0:
        raise ValueError("alpha_per_mm2 must be >= 0")
    if not (k > 0 and envelope_width_mm > 0):
        raise ValueError("k and envelope_width_mm must be positive")
    return abs(distance_mm) * math.sqrt(alpha_per_mm2) / (k * envelope_width_mm)


@dataclass(frozen=True)
class AnalyticKernel:
    """Gaussian coincidence kernel of width sigma_mm; sigma 0 means ideal."""

    sigma_mm: float

    def __post_init__(self):
        if self.sigma_mm < 0:
            raise ValueError("sigma_mm must be >= 0")

    @property
    def ideal(self):
        return self.sigma_mm == 0.0

    def value(self, dx):
        dx = np.asarray(dx, dtype=float)
        if self.ideal:
            out = np.where(dx == 0.0, 1.0, 0.0)
        else:
            out = np.exp(-(dx**2) / (2.0 * self.sigma_mm**2))
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class SampledKernel:
    """Coincidence kernel tabulated on a separation grid, peak-normalized.

    ``standard_errors`` carry the per-bin statistical uncertainty of the
    estimator that produced the samples: Poisson errors for Monte Carlo,
    zero for deterministic quadrature (which has no sampling noise).
    """

    offsets_mm: np.ndarray
    values: np.ndarray
    standard_errors: np.ndarray

    def __post_init__(self):
        offsets = np.asarray(self.offsets_mm, dtype=float)
        values = np.asarray(self.values, dtype=float)
        errors = np.asarray(self.standard_errors, dtype=float)
        if not (offsets.shape == values.shape == errors.shape):
            raise ValueError("offsets, values and errors must have equal shape")
        if offsets.size < 3:
            raise ValueError("need at least 3 samples")
        if not np.all(np.diff(offsets) > 0):
            raise ValueError("offsets must be strictly increasing")
        if not np.all((values >= 0.0) & (values <= 1.0 + 1e-9)):
            raise ValueError("values must lie in [0, 1] after peak normalization")
        if not math.isclose(values.max(), 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError("values must be peak-normalized to 1")
        if np.any(errors < 0):
            raise ValueError("standard errors must be nonnegative")
        object.__setattr__(self, "offsets_mm", offsets)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "standard_errors", errors)

    def value(self, dx):
        return np.interp(np.asarray(dx, dtype=float), self.offsets_mm, self.values,
                         left=0.0, right=0.0)


@dataclass(frozen=True)
class VisibilityPoint:
    """One measured or simulated visibility at an effective distance."""

    effective_distance_mm: float
    visibility: float
    sigma_v: float
    label: str = ""

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")
        if not 0 <= self.sigma_v < math.inf:
            raise ValueError(f"sigma_v must be finite and >= 0, got {self.sigma_v}")
