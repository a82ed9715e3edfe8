"""Folded two-photon propagation engine.

With perfectly position-correlated photon pairs, the coincidence amplitude
between image-arm position x1 and object-arm position x2 collapses to a
single folded path and reads

    A(x1, x2) = int dx_s dx_t S(x_s)
                exp(-i k (x2 - x_t)^2 / (2 d))  T(x_t)
                exp(+i k (x_t - x_s)^2 / (2 l1))
                exp(-i k (x_s - x1)^2 / (2 delta)),

where l1 is the crystal-to-turbulence distance, delta the crystal offset
from the central image plane, d = l1 - delta the effective
turbulence-to-image-plane distance, T the thin-screen transmittance, and
S a wide Gaussian source envelope of width w_s regularizing the otherwise
unbounded crystal-plane integral (the plane-wave idealization).  At
delta = 0 the source kernel is a delta and pins x_s = x1.

The coincidence kernel is G2(x1, x2) = <|A|^2> averaged over screens.
Three routes to it are implemented and cross-checked by the test suite:

* the closed-form Gaussian kernel (`turbghost.model.g2_kernel`),
* `monte_carlo_g2` over random tilt screens, using the exact tilt-shift
  fast path (a tilt of slope a displaces the ideal point-spread function
  by -a d / k),
* `quadrature_g2`, numerical integration over the turbulence-plane pair
  coordinates with the ensemble-averaged screen correlation
  exp(-alpha u^2 / 2).  The inner source integral is a Gaussian-chirp
  integral evaluated in closed form; everything the screen statistics
  touch is summed numerically, with one FFT autocorrelation serving
  every offset.

Reductions are deterministic: Monte Carlo histograms accumulate integer
counts (order-independent), and per-screen draws are pure functions of
(master_seed, index), so results are bit-identical in any generation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .model import (
    AnalyticKernel,
    ObjectPattern,
    OpticsConfig,
    SampledKernel,
    TurbulenceSpec,
    effective_distance,
)
from .screens import TiltScreen, mutual_coherence, tilt_slopes

__all__ = [
    "GridResolutionError",
    "KlyshkoPath",
    "ImageProfile",
    "klyshko_amplitude",
    "klyshko_amplitude_quadrature",
    "monte_carlo_g2",
    "quadrature_g2",
    "fit_kernel_sigma",
    "synthesize_image",
]


class GridResolutionError(ValueError):
    """A quadrature grid would under-resolve the fastest Fresnel chirp."""


@dataclass(frozen=True)
class KlyshkoPath:
    """Folded-path geometry plus numerical regularization parameters.

    ``source_width_mm`` is the Gaussian source envelope w_s.  It only
    enters for a shifted crystal (delta != 0), where the finite envelope
    adds an instrumental point-spread width |delta| / (sqrt(2) k w_s) in
    quadrature with any turbulence blur; pick w_s large enough that this
    is negligible against the blur under study.  ``ideal_resolution_mm``
    is the nominal width used to represent the delta-like ideal response
    when the geometry makes it exactly a delta (delta == 0).
    """

    optics: OpticsConfig
    turbulence: TurbulenceSpec
    source_width_mm: float = 4.0
    ideal_resolution_mm: float = 1e-3

    def __post_init__(self):
        if not self.source_width_mm > 0:
            raise ValueError("source_width_mm must be positive")
        if not self.ideal_resolution_mm > 0:
            raise ValueError("ideal_resolution_mm must be positive")
        # The envelope must span many optical periods or it is not "wide".
        if self.source_width_mm * self.optics.k < 100.0:
            raise ValueError("source_width_mm too small relative to 1/k")
        effective_distance(self.turbulence, self.optics)  # placement sanity

    @property
    def k(self):
        return self.optics.k

    @property
    def shift_mm(self):
        return self.optics.shift_mm

    @property
    def effective_distance_mm(self):
        return effective_distance(self.turbulence, self.optics)

    @property
    def l1_eff_mm(self):
        """Crystal-to-turbulence distance of the equivalent folded geometry.

        Both placements obey the same folded kernels; only the effective
        distance differs, so the equivalent l1 is d + delta (the actual l1
        for crystal-side placement).
        """
        return self.effective_distance_mm + self.shift_mm

    @property
    def psf_sigma_mm(self):
        """Width of the ideal (no turbulence) |A|^2 response in x2 - x1."""
        if abs(self.shift_mm) < 1e-12:
            return self.ideal_resolution_mm
        return abs(self.shift_mm) / (math.sqrt(2.0) * self.k * self.source_width_mm)


def _source_integral(xt, x1, l1, delta, ws, k):
    """Closed form of int dx_s S(x_s) e^{ik(x_t-x_s)^2/2l1} e^{-ik(x_s-x1)^2/2delta}.

    Gaussian-chirp integral: with beta = 1/(2 w_s^2) + i k (l1-delta)/(2 l1 delta),
    gamma = i k (x1/delta - x_t/l1), eta = i k (x_t^2/(2 l1) - x1^2/(2 delta)),
    the result is sqrt(pi/beta) exp(gamma^2/(4 beta) + eta).  Re(beta) > 0
    guarantees the principal square root.
    """
    beta = 1.0 / (2.0 * ws**2) + 1j * k * (l1 - delta) / (2.0 * l1 * delta)
    gam = 1j * k * (x1 / delta - xt / l1)
    eta = 1j * k * (xt**2 / (2.0 * l1) - x1**2 / (2.0 * delta))
    return np.sqrt(np.pi / beta) * np.exp(gam**2 / (4.0 * beta) + eta)


def _prefield(xt, x1, path: KlyshkoPath):
    """Field reaching the turbulence plane from image-arm position x1."""
    l1 = path.l1_eff_mm
    delta = path.shift_mm
    if l1 <= 0:
        raise ValueError("quadrature requires a positive crystal-to-turbulence distance")
    if abs(delta) < 1e-12:
        # Zero-distance image-arm kernel is a delta pinning x_s = x1.
        b = np.exp(1j * path.k * (xt - x1) ** 2 / (2.0 * l1))
        return b * math.exp(-(x1**2) / (2.0 * path.source_width_mm**2))
    b = _source_integral(xt, x1, l1, delta, path.source_width_mm, path.k)
    return b / np.abs(b).max()


def _turbulence_grid(path: KlyshkoPath, u_max, oversample=1.0):
    """Turbulence-plane grid: spacing at four points per fastest local
    Fresnel fringe (pi * d_min / (4 k x_max)), span covering the source
    envelope's geometric footprint plus the coherence range."""
    d = abs(path.effective_distance_mm)
    delta = abs(path.shift_mm)
    l1 = path.l1_eff_mm
    if delta < 1e-12:
        half_span = 1.5 * u_max
    else:
        footprint = path.source_width_mm * d / delta  # stationary-phase image of w_s
        half_span = 3.2 * footprint + 0.6 * u_max
    dmin = min(x for x in (d, l1, delta) if x > 1e-9)
    dx = math.pi * dmin / (4.0 * path.k * half_span) / oversample
    n = int(math.ceil(2.0 * half_span / dx)) | 1
    return (np.arange(n) - n // 2) * dx, dx


def klyshko_amplitude(x1, x2, screen, path: KlyshkoPath):
    """Two-point coincidence amplitude for one screen realization.

    Tilt screens take the analytic fast path: a linear phase a*x_t at the
    turbulence plane displaces the ideal point-spread amplitude to
    x2 - x1 = -a d / k (verified against direct quadrature of the folded
    kernels).  Gridded screens go through the full quadrature.  Global
    phases are dropped; only |A|^2 is physical.
    """
    if isinstance(screen, TiltScreen):
        d = path.effective_distance_mm
        shift = -screen.slope_rad_per_mm * d / path.k
        sigma = path.psf_sigma_mm
        dx = (x2 - x1) - shift
        return complex(math.exp(-(dx**2) / (4.0 * sigma**2)))
    return klyshko_amplitude_quadrature(x1, x2, screen, path)


def klyshko_amplitude_quadrature(x1, x2, screen, path: KlyshkoPath, n_points=None):
    """Direct quadrature of the folded kernels for one screen realization.

    Refuses to run on an under-resolved grid: if ``n_points`` is given and
    falls short of four points per fastest local Fresnel fringe, a
    GridResolutionError is raised instead of silently aliasing.
    """
    xt, dx = _turbulence_grid(path, u_max=2.0)
    if n_points is not None:
        if n_points < xt.size:
            raise GridResolutionError(
                f"grid of {n_points} points under-resolves the Fresnel chirp; "
                f"need >= {xt.size} over span {xt[-1] - xt[0]:.3g} mm"
            )
        xt = np.linspace(xt[0], xt[-1], int(n_points) | 1)
        dx = xt[1] - xt[0]
    d = path.effective_distance_mm
    if abs(d) < 1e-12:
        raise ValueError("quadrature undefined at zero effective distance (ideal kernel)")
    phase = screen.phase(xt)
    field = (
        np.exp(-1j * path.k * (x2 - xt) ** 2 / (2.0 * d))
        * np.exp(1j * phase)
        * _prefield(xt, x1, path)
    )
    return complex(np.sum(field) * dx)


def monte_carlo_g2(
    path: KlyshkoPath,
    alpha_per_mm2,
    n_screens,
    master_seed,
    bins=81,
    span_mm=None,
    resolution_floor_mm=1e-4,
):
    """Coincidence kernel estimated over n random tilt screens.

    Each screen displaces the ideal point response by -a d / k; the
    kernel in the separation x2 - x1 is the histogram of those
    displacements (integer counts, so accumulation order cannot change
    the result).  Values are peak-normalized with Poisson per-bin
    standard errors.  With no turbulence every displacement is zero and
    all mass lands in the central resolution bin.
    """
    if n_screens < 2:
        raise ValueError("n_screens must be >= 2")
    if alpha_per_mm2 < 0:
        raise ValueError("alpha_per_mm2 must be >= 0")
    if bins < 3 or bins % 2 == 0:
        raise ValueError("bins must be an odd integer >= 3")
    d = path.effective_distance_mm
    displacements = -tilt_slopes(alpha_per_mm2, n_screens, master_seed) * d / path.k
    if span_mm is None:
        spread = float(displacements.std())
        span_mm = 8.0 * max(spread, resolution_floor_mm)
    edges = np.linspace(-span_mm / 2.0, span_mm / 2.0, int(bins) + 1)
    counts, _ = np.histogram(displacements, bins=edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    peak = counts.max()
    if peak == 0:
        raise ValueError("all displacements fell outside the requested span")
    values = counts / peak
    errors = np.sqrt(np.maximum(counts, 1)) / peak
    return SampledKernel(centers, values, errors)


def quadrature_g2(
    path: KlyshkoPath,
    alpha_per_mm2,
    offsets_mm=None,
    n_offsets=21,
    span_sigmas=3.0,
):
    """Coincidence kernel by direct quadrature with the screen-averaged correlation.

    Averaging |A|^2 over screens turns the pair of turbulence-plane
    integrals into the quadratic form

        G2(x2) = int du dc  F(c + u) conj(F(c)) exp(-alpha u^2 / 2),

    with F = exp(-i k (x2 - x_t)^2 / (2 d)) P the per-point integrand of the
    folded kernels at x1 = 0 (P the prefield).  On the grid x_t = j dx the
    offset enters the lag-m diagonal sum only as a phase,
    sum_j conj(F_j) F_{j+m} = exp(i k x2 m dx / d) R(m), where R is the
    autocorrelation of g = exp(-i k x_t^2 / (2 d)) P.  One zero-padded FFT
    (Wiener-Khinchin) gives R at every lag up to u_max = 4.5 / sqrt(alpha),
    and each value is the lag sum

        G2(x2) = dx sum_m w_m exp(-alpha (m dx)^2 / 2) Re(exp(i k x2 m dx / d) R(m)),

    w_m = 1 at m = 0 and 2 otherwise (the u < 0 half), times dx for a
    shifted crystal (the source envelope decays inside the window: plain
    Riemann sum in c) or 1 / (n - m) at delta = 0 (flat in c: the
    overlap-averaged diagonal).  ``standard_errors`` are the change from
    halving the lag stride, |S_1 - S_2| / peak, with S_2 the even-lag sum
    weighted by 2 dx.
    """
    from scipy.fft import next_fast_len

    if alpha_per_mm2 <= 0:
        raise ValueError("quadrature average needs alpha > 0; use the ideal kernel otherwise")
    d = path.effective_distance_mm
    if abs(d) < 1e-12:
        raise ValueError("quadrature undefined at zero effective distance (ideal kernel)")
    sigma_expected = math.sqrt(alpha_per_mm2) * abs(d) / path.k
    if offsets_mm is None:
        offsets_mm = np.linspace(
            -span_sigmas * sigma_expected, span_sigmas * sigma_expected, int(n_offsets)
        )
    offsets = np.asarray(offsets_mm, dtype=float)
    u_max = 4.5 / math.sqrt(alpha_per_mm2)
    xt, dx = _turbulence_grid(path, u_max)
    n = xt.size
    m_max = int(u_max / dx)
    # g = exp(-i k x_t^2 / (2 d)) P, zero-padded past n + m_max so the circular
    # correlation has no wrap-around at any lag used.  One buffer is
    # transformed, squared and transformed back in place, so peak memory
    # stays that of the prefield.
    pre = _prefield(xt, 0.0, path)
    chirp = xt**2
    chirp *= -path.k / (2.0 * d)
    buf = np.zeros(next_fast_len(n + m_max + 1), dtype=complex)
    np.cos(chirp, out=buf.real[:n])
    np.sin(chirp, out=buf.imag[:n])
    buf[:n] *= pre
    del pre, chirp
    np.fft.fft(buf, out=buf)
    re, im = buf.real, buf.imag
    np.square(re, out=re)
    np.square(im, out=im)
    re += im
    im[:] = 0.0
    lags = np.fft.ifft(buf, out=buf)[: m_max + 1]

    ms = np.arange(m_max + 1)
    weights = mutual_coherence(alpha_per_mm2, ms * dx)
    weights[1:] *= 2.0
    if abs(path.shift_mm) < 1e-12:
        weights /= n - ms  # overlap-averaged: window length cancels
    else:
        weights *= dx  # envelope decays inside the window
    phase = np.exp(1j * (path.k * dx / d) * np.outer(offsets, ms))
    terms = (phase * lags).real * weights
    fine = terms.sum(axis=1) * dx
    coarse = terms[:, ::2].sum(axis=1) * (2.0 * dx)
    peak = fine.max()
    return SampledKernel(offsets, fine / peak, np.abs(fine - coarse) / peak)


def fit_kernel_sigma(kernel):
    """Gaussian width of a coincidence kernel.

    Analytic kernels report their width directly.  Sampled kernels are fit
    with amplitude * exp(-(dx - mu)^2 / (2 sigma^2)), weighted by the
    per-bin standard errors where available.
    """
    if isinstance(kernel, AnalyticKernel):
        return kernel.sigma_mm
    x = kernel.offsets_mm
    y = kernel.values
    w = np.where(kernel.standard_errors > 0, kernel.standard_errors, 1.0)
    total = y.sum()
    if total <= 0:
        raise ValueError("kernel has no mass")
    mu0 = float((x * y).sum() / total)
    s0 = math.sqrt(max(float(((x - mu0) ** 2 * y).sum() / total), (x[1] - x[0]) ** 2 / 12.0))

    def resid(p):
        a, mu, s = p
        return (a * np.exp(-((x - mu) ** 2) / (2.0 * s**2)) - y) / w

    sol = least_squares(resid, [1.0, mu0, s0], method="lm", max_nfev=2000)
    if not sol.success:
        raise RuntimeError(f"kernel width fit failed: {sol.message}")
    return abs(float(sol.x[2]))


@dataclass(frozen=True)
class ImageProfile:
    """Ghost-image profile on a grid, normalized to the object's scale."""

    positions_mm: np.ndarray
    values: np.ndarray
    truncation_warning: bool = False


def synthesize_image(kernel, pattern: ObjectPattern, positions_mm=None, dx_mm=None):
    """Ghost image I(x1) = integral of the object against the coincidence kernel.

    The kernel is normalized as a density so an ideal kernel returns the
    object exactly and fitting the result against the fringe model is
    well-posed.  The default grid spans 8 envelope widths; if the
    requested grid leaves more than 0.1% of the object's transmitted
    energy outside, the profile is flagged truncated.
    """
    w = pattern.envelope_width_mm
    period = 2.0 * math.pi / pattern.fringe_wavenumber
    if isinstance(kernel, AnalyticKernel):
        sigma = kernel.sigma_mm
    else:
        sigma = max(fit_kernel_sigma(kernel), kernel.offsets_mm[1] - kernel.offsets_mm[0])
    if dx_mm is None:
        dx_mm = min(period / 40.0, w / 50.0)
        if sigma > 0:
            dx_mm = min(dx_mm, sigma / 6.0)
    if positions_mm is None:
        half = 4.0 * w
        n = int(math.ceil(2.0 * half / dx_mm)) | 1
        positions_mm = (np.arange(n) - n // 2) * dx_mm
    positions = np.asarray(positions_mm, dtype=float)
    # Transmitted-energy fraction outside the grid (Gaussian envelope mass).
    from scipy.special import erf

    lo, hi = positions[0], positions[-1]
    inside = 0.5 * (erf(hi / (math.sqrt(2.0) * w)) - erf(lo / (math.sqrt(2.0) * w)))
    truncated = (1.0 - inside) > 1e-3

    if isinstance(kernel, AnalyticKernel) and kernel.ideal:
        values = pattern.evaluate(positions)
        return ImageProfile(positions, values, truncated)

    step = positions[1] - positions[0]
    if not np.allclose(np.diff(positions), step, rtol=1e-9, atol=0.0):
        raise ValueError("positions must be uniformly spaced")
    half_k = max(5.0 * sigma, 3.0 * step)
    m = int(math.ceil(half_k / step))
    kx = np.arange(-m, m + 1) * step
    kv = kernel.value(kx)
    norm = kv.sum() * step
    if norm <= 0:
        raise ValueError("kernel has no mass on the convolution grid")
    kv = kv / norm
    # Pad with the object's own tails so edge bins see the true neighborhood.
    pad = m
    x_ext = np.concatenate(
        [positions[0] + step * np.arange(-pad, 0), positions, positions[-1] + step * np.arange(1, pad + 1)]
    )
    obj = pattern.evaluate(x_ext)
    values = np.convolve(obj, kv, mode="valid") * step
    return ImageProfile(positions, values, truncated)
