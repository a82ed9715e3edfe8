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

* the closed-form Gaussian kernel (`turbghost.model.kernel_from_turbulence`),
* `monte_carlo_g2` over random tilt screens, using the exact tilt-shift
  fast path (a tilt of slope a displaces the ideal point-spread function
  by -a d / k),
* `quadrature_g2`, numerical integration over the turbulence-plane pair
  coordinates with the ensemble-averaged screen correlation
  exp(-alpha u^2 / 2).  The folded integrand is one closed-form
  exponent, shared with the per-screen amplitude; everything the screen
  statistics touch is summed numerically, with one FFT autocorrelation
  serving every offset.

Reductions are deterministic: Monte Carlo histograms accumulate integer
counts (order-independent), and per-screen draws are pure functions of
(master_seed, index), so results are bit-identical in any generation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import fit_kernel_sigma
from .model import (
    AnalyticKernel,
    ObjectPattern,
    OpticsConfig,
    SampledKernel,
    TurbulenceSpec,
    effective_distance,
    kernel_sigma,
)
from .screens import TiltScreen, mutual_coherence, tilt_slopes

__all__ = [
    "KlyshkoPath",
    "ImageProfile",
    "klyshko_amplitude_quadrature",
    "monte_carlo_g2",
    "quadrature_g2",
    "fit_kernel_sigma",
    "synthesize_image",
]


# Monte Carlo histogram: 81 bins over 8 displacement spreads, the spread
# floored so an unturbulent ensemble still gets a finite central bin.
MC_BINS = 81
MC_RESOLUTION_FLOOR_MM = 1e-4
# Quadrature kernel offsets: 21 points across +-3 closed-form widths.
QUADRATURE_OFFSETS = 21
QUADRATURE_SPAN_SIGMAS = 3.0


@dataclass(frozen=True)
class KlyshkoPath:
    """Folded-path geometry plus the source envelope that regularizes it.

    ``source_width_mm`` is the Gaussian source envelope w_s.  It only
    enters for a shifted crystal (delta != 0), where the finite envelope
    adds an instrumental point-spread width |delta| / (sqrt(2) k w_s) in
    quadrature with any turbulence blur; pick w_s large enough that this
    is negligible against the blur under study.
    """

    optics: OpticsConfig
    turbulence: TurbulenceSpec
    source_width_mm: float = 4.0

    def __post_init__(self):
        if not self.source_width_mm > 0:
            raise ValueError("source_width_mm must be positive")
        # The envelope must span many optical periods or it is not "wide".
        if self.source_width_mm * self.optics.k < 100.0:
            raise ValueError("source_width_mm too small relative to 1/k (k from wavelength_nm):"
                             " source_width_mm * k must be >= 100")
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


def _check_alpha(path: KlyshkoPath, alpha_per_mm2):
    """Refuse an ``alpha_per_mm2`` argument that disagrees with the path's own."""
    own = path.turbulence.alpha_per_mm2
    if alpha_per_mm2 != own:
        raise ValueError(f"alpha_per_mm2={alpha_per_mm2} disagrees with the path's alpha {own}")


def _turbulence_grid(path: KlyshkoPath, u_max):
    """Turbulence-plane grid: spacing at four points per fastest local
    Fresnel fringe (pi * d_min / (4 k x_max)), span covering the source
    envelope's geometric footprint plus the coherence range."""
    d = abs(path.effective_distance_mm)
    if d < 1e-12:
        raise ValueError("quadrature undefined at zero effective distance (ideal kernel)")
    delta = abs(path.shift_mm)
    l1 = path.l1_eff_mm
    if delta < 1e-12:
        half_span = 1.5 * u_max
    else:
        footprint = path.source_width_mm * d / delta  # stationary-phase image of w_s
        half_span = 3.2 * footprint + 0.6 * u_max
    dmin = min(x for x in (d, l1, delta) if x > 1e-9)
    dx = math.pi * dmin / (4.0 * path.k * half_span)
    n = int(math.ceil(2.0 * half_span / dx)) | 1
    xt = np.arange(-(n // 2), n - n // 2, dtype=float)
    xt *= dx
    return xt, dx


def _folded_exponent(path: KlyshkoPath, x1):
    """Coefficients a, b, c of the folded integrand's exponent: on the
    turbulence grid g(x_t) = P(x_t; x1) exp(-i k x_t^2 / (2 d)) is
    exp((a x_t + b) x_t + c), the field reaching the turbulence plane from
    image-arm position x1 times the image-arm chirp about x2 = 0.  Every
    factor is a quadratic-phase Gaussian.  For a shifted crystal P is the
    source integral sqrt(pi/beta) exp(gamma^2/(4 beta) + eta),
    beta = 1/(2 w_s^2) + i k (l1-delta)/(2 l1 delta),
    gamma = i k (x1/delta - x_t/l1), eta = i k (x_t^2/(2 l1) - x1^2/(2 delta)).
    Re(beta) > 0 makes Re(a) < 0; c holds the x1-only terms and the phase of
    sqrt(pi/beta), and Re(c) puts the peak of |g| at 1.  At delta = 0 the
    source pins x_s = x1."""
    k, d, l1, delta = path.k, path.effective_distance_mm, path.l1_eff_mm, path.shift_mm
    if l1 <= 0:
        raise ValueError("quadrature requires a positive crystal-to-turbulence distance")
    a = 0.5j * k * (1.0 / l1 - 1.0 / d)
    if abs(delta) < 1e-12:
        b = -1j * k * x1 / l1
        c = 1j * k * x1**2 / (2.0 * l1) - x1**2 / (2.0 * path.source_width_mm**2)
    else:
        beta = 1.0 / (2.0 * path.source_width_mm**2) + 1j * k * (l1 - delta) / (2.0 * l1 * delta)
        a -= k**2 / (4.0 * beta * l1**2)
        b = k**2 * x1 / (2.0 * beta * delta * l1)
        phase = -k * x1**2 / (2.0 * delta) - ((k * x1 / delta) ** 2 / (4.0 * beta)).imag
        c = complex(b.real**2 / (4.0 * a.real), phase - np.angle(beta) / 2.0)
    return a, b, c


def _folded_integrand(path: KlyshkoPath, x1, u_max):
    """Turbulence grid, its spacing, and the folded integrand
    exp((a x_t + b) x_t + c) on it, a, b, c from ``_folded_exponent``."""
    xt, dx = _turbulence_grid(path, u_max)
    a, b, c = _folded_exponent(path, x1)
    return xt, dx, np.exp((a * xt + b) * xt + c)


def _uniform_x2(x2):
    """First value and step of a finite, uniformly spaced x2 (flattened)."""
    if not np.all(np.isfinite(x2)):
        raise ValueError("x2 must be finite")
    if x2.size < 2:
        return float(x2[0]), 0.0
    step = (x2[-1] - x2[0]) / (x2.size - 1)
    if np.abs(x2 - (x2[0] + np.arange(x2.size) * step)).max() > 1e-9 * abs(step):
        raise ValueError("x2 must be uniformly spaced")
    return float(x2[0]), float(step)


def klyshko_amplitude_quadrature(x1, x2, screen, path: KlyshkoPath):
    """Direct quadrature of the folded kernels for one screen realization,

        A(x1, x2) = exp(-i k x2^2 / (2 d)) dx sum_j g_j exp(i phi_j) exp(i k x2 x_j / d),

    on the turbulence grid x_j = j dx, |j| <= n // 2, g from
    ``_folded_exponent`` and phi the screen phase.  ``x2`` is a scalar (giving a ``complex``) or an
    array, read flattened, that must be finite and uniformly spaced,
    x2_m = x2_0 + m s (``ValueError`` otherwise).  The screen phase and the
    first x2's linear phase join the folded exponent, so the grid takes one
    complex exponential per call, and a single x2 is the plain sum.  A
    ``TiltScreen``'s phase is linear and joins the exponent's x_t
    coefficient next to k x2_0 / d; a gridded screen's phase is added on
    the grid.  A single x2 therefore allocates only the grid and the
    exponent under a tilt, whatever n is.  For
    M > 1 values, m j = (m^2 + j^2 - (m - j)^2) / 2 makes the sum a
    Bluestein chirp-z transform: the chirp exp(i theta j^2 / 2),
    theta = k s dx / d, joins the exponent too, and one convolution with
    exp(-i theta l^2 / 2) takes three FFTs of length n + M - 1 or more.
    """
    shape = np.shape(x2)
    flat = np.asarray(x2, dtype=float).ravel()
    if flat.size == 0:
        return np.empty(shape, dtype=complex)
    x20, step = _uniform_x2(flat)
    xt, dx = _turbulence_grid(path, u_max=2.0)
    a, b, c = _folded_exponent(path, x1)
    kd = path.k / path.effective_distance_mm
    tilt = isinstance(screen, TiltScreen)
    e = xt * a
    e += b + 1j * (kd * x20 + (screen.slope_rad_per_mm if tilt else 0.0))
    e *= xt
    e += c
    phase = e.imag
    if not tilt:
        phase += screen.phase(xt)
    if flat.size == 1:
        sums, q = np.exp(e, out=e).sum(keepdims=True), np.zeros(1)
    else:
        # Chirp phases theta l^2 / 2 for l >= 0.  The grid and the convolution
        # read the same values, so their rounding cancels in the identity.
        n, h = xt.size, xt.size // 2
        q = (0.5 * kd * step * dx) * np.arange(h + flat.size) ** 2
        phase[:h] += q[h:0:-1]
        phase[h:] += q[: h + 1]
        # Circular convolution with the chirp at l mod size, l in
        # [-h, h + M - 1]: every lag m - j of the sum, none wrapped onto another.
        size = _fast_len(n + flat.size - 1)
        buf = np.zeros(size, dtype=complex)
        np.exp(e, out=buf[:n])
        del e, phase
        chirp = np.zeros(size, dtype=complex)
        chirp[: q.size] = np.exp(-1j * q)
        chirp[size - h:] = chirp[h:0:-1]
        np.fft.fft(buf, out=buf)
        buf *= np.fft.fft(chirp, out=chirp)
        sums = np.fft.ifft(buf, out=buf)[h: h + flat.size]
    x2m = x20 + np.arange(flat.size) * step
    out = np.exp(1j * (q[: flat.size] - 0.5 * kd * x2m**2)) * sums * dx
    return complex(out[0]) if not shape else out.reshape(shape)


def monte_carlo_g2(path: KlyshkoPath, alpha_per_mm2, n_screens, master_seed):
    """Coincidence kernel estimated over n random tilt screens.

    Each screen displaces the ideal point response by -a d / k; the
    kernel in the separation x2 - x1 is the histogram of those
    displacements in ``MC_BINS`` bins over 8 times their spread (integer
    counts, so accumulation order cannot change the result).  Values are
    peak-normalized with Poisson per-bin standard errors.  With no
    turbulence every displacement is zero and all mass lands in the
    central resolution bin.  ``alpha_per_mm2`` must equal the path's.
    """
    if n_screens < 2:
        raise ValueError("n_screens must be >= 2")
    _check_alpha(path, alpha_per_mm2)
    d = path.effective_distance_mm
    displacements = -tilt_slopes(alpha_per_mm2, n_screens, master_seed) * d / path.k
    span_mm = 8.0 * max(float(displacements.std()), MC_RESOLUTION_FLOOR_MM)
    edges = np.linspace(-span_mm / 2.0, span_mm / 2.0, MC_BINS + 1)
    counts, _ = np.histogram(displacements, bins=edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    peak = counts.max()
    if peak == 0:
        raise ValueError("all displacements fell outside the requested span")
    values = counts / peak
    errors = np.sqrt(np.maximum(counts, 1)) / peak
    return SampledKernel(centers, values, errors)


def _fast_len(n):
    """Smallest 11-smooth integer >= n >= 1, pocketfft's own choice of a fast complex FFT length."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def quadrature_g2(path: KlyshkoPath, alpha_per_mm2):
    """Coincidence kernel by direct quadrature with the screen-averaged correlation.

    Averaging |A|^2 over screens turns the pair of turbulence-plane
    integrals into the quadratic form

        G2(x2) = int du dc  F(c + u) conj(F(c)) exp(-alpha u^2 / 2),

    with F = exp(-i k (x2 - x_t)^2 / (2 d)) P the per-point integrand of the
    folded kernels at x1 = 0 (P the field at the turbulence plane).  On the
    grid x_t = j dx the offset enters the lag-m diagonal sum only as a phase,
    sum_j conj(F_j) F_{j+m} = exp(i k x2 m dx / d) R(m), where R is the
    autocorrelation of g = F at x2 = 0, from ``_folded_integrand``.  One
    zero-padded FFT (Wiener-Khinchin) gives R at every lag up to
    u_max = 4.5 / sqrt(alpha), and each value is the lag sum

        G2(x2) = dx sum_m w_m exp(-alpha (m dx)^2 / 2) Re(exp(i k x2 m dx / d) R(m)),

    w_m = 1 at m = 0 and 2 otherwise (the u < 0 half), times dx for a
    shifted crystal (the source envelope decays inside the window: plain
    Riemann sum in c) or 1 / (n - m) at delta = 0 (flat in c: the
    overlap-averaged diagonal).  The sum is deterministic, so
    ``standard_errors`` are zero and a width fit weighs every offset
    equally.  The offsets are ``QUADRATURE_OFFSETS`` points across
    +-``QUADRATURE_SPAN_SIGMAS`` closed-form kernel widths.
    ``alpha_per_mm2`` must equal the path's.
    """
    _check_alpha(path, alpha_per_mm2)
    if alpha_per_mm2 <= 0:
        raise ValueError("quadrature average needs alpha > 0; use the ideal kernel otherwise")
    d = path.effective_distance_mm
    half_span = QUADRATURE_SPAN_SIGMAS * kernel_sigma(alpha_per_mm2, d, path.k)
    offsets = np.linspace(-half_span, half_span, QUADRATURE_OFFSETS)
    u_max = 4.5 / math.sqrt(alpha_per_mm2)
    xt, dx, g = _folded_integrand(path, 0.0, u_max)
    n = xt.size
    m_max = int(u_max / dx)
    # g zero-padded past n + m_max so the circular correlation has no
    # wrap-around at any lag used.  The one buffer is transformed, squared
    # and transformed back in place.
    buf = np.zeros(_fast_len(n + m_max + 1), dtype=complex)
    buf[:n] = g
    del g
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
    g2 = ((phase * lags).real * weights).sum(axis=1) * dx
    return SampledKernel(offsets, g2 / g2.max(), np.zeros_like(offsets))


@dataclass(frozen=True)
class ImageProfile:
    """Ghost-image profile on a grid, normalized to the object's scale."""

    positions_mm: np.ndarray
    values: np.ndarray


def _convolution_pad(kernel, step):
    """Samples ``synthesize_image`` pads each side of a grid of spacing ``step`` by.

    That is the kernel's reach (a Gaussian's 5 sigma, a sampled kernel's
    outermost offset) and at least 3 samples; none for an ideal kernel.  A
    pad past the float range reads as inf, so a caller can refuse it before
    anything is allocated.
    """
    if isinstance(kernel, AnalyticKernel):
        if kernel.ideal:
            return 0
        reach = 5.0 * kernel.sigma_mm
    else:
        reach = max(-kernel.offsets_mm[0], kernel.offsets_mm[-1])
    pad = max(reach, 3.0 * step) / step
    return math.ceil(pad) if math.isfinite(pad) else math.inf


def synthesize_image(kernel, pattern: ObjectPattern, positions_mm=None):
    """Ghost image I(x1) = integral of the object against the coincidence kernel.

    The kernel is normalized as a density so an ideal kernel returns the
    object exactly and fitting the result against the fringe model is
    well-posed.  The default grid spans 8 envelope widths and resolves the
    kernel: a Gaussian is read to 5 sigma at sigma / 6, a sampled kernel to
    its outermost offset (``value`` is 0 beyond) at its offset spacing.
    The object is padded by as much on each side (``_convolution_pad``).
    """
    w = pattern.envelope_width_mm
    period = 2.0 * math.pi / pattern.fringe_wavenumber
    if isinstance(kernel, AnalyticKernel):
        resolution = kernel.sigma_mm / 6.0
    else:
        resolution = float(np.diff(kernel.offsets_mm).min())
    if positions_mm is None:
        dx_mm = min(period / 40.0, w / 50.0)
        if resolution > 0:
            dx_mm = min(dx_mm, resolution)
        half = 4.0 * w
        n = int(math.ceil(2.0 * half / dx_mm)) | 1
        positions_mm = (np.arange(n) - n // 2) * dx_mm
    positions = np.asarray(positions_mm, dtype=float)
    if isinstance(kernel, AnalyticKernel) and kernel.ideal:
        values = pattern.evaluate(positions)
        return ImageProfile(positions, values)

    step = positions[1] - positions[0]
    if not np.allclose(np.diff(positions), step, rtol=1e-9, atol=0.0):
        raise ValueError("positions must be uniformly spaced")
    m = _convolution_pad(kernel, step)
    kx = np.arange(-m, m + 1) * step
    kv = kernel.value(kx)
    norm = kv.sum() * step
    if norm <= 0:
        raise ValueError("kernel has no mass on the convolution grid")
    kv = kv / norm
    # Pad with the object's own tails so edge bins see the true neighborhood.
    x_ext = np.concatenate(
        [positions[0] + step * np.arange(-m, 0), positions, positions[-1] + step * np.arange(1, m + 1)]
    )
    obj = pattern.evaluate(x_ext)
    values = np.convolve(obj, kv, mode="valid") * step
    return ImageProfile(positions, values)
