"""Nonlinear least-squares recovery of fringe visibility and turbulence strength.

Scans are fit with a seven-parameter fringe model
``background + amplitude * exp(-((x-x0)/w)^2/2) * (1 + V cos(k0 (x-x0) + phi))``
under Poisson weights (variance max(counts, 1)).  Every fit in the package,
the kernel width in ``fit_kernel_sigma`` included, runs one numpy
solver, ``_least_squares``: box-bounded Levenberg-Marquardt with Moré's
scaling, here driven by the model's closed-form Jacobian, with the bounds
keeping V in [0, 1].  Standard errors come from the local curvature of the
weighted objective, (J^T J)^-1 at the solution.

Visibility-vs-distance campaigns are reduced to the turbulence strength
``alpha`` by weighted least squares of the attenuation law
``V = g exp(-alpha d^2 / (2 (k/k0)^2))`` with the per-configuration
ceiling ``g`` known.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import AnalyticKernel

__all__ = [
    "ScanFitModel",
    "FitResult",
    "AlphaFitResult",
    "initial_guess",
    "fit_profile",
    "fit_scan",
    "fit_alpha",
    "fit_kernel_sigma",
    "slit_factor",
    "slit_correction",
]

MAX_ITERATIONS = 500
OBJECTIVE_TOL = 1e-10

_PARAM_NAMES = (
    "amplitude_cps",
    "center_mm",
    "envelope_width_mm",
    "fringe_wavenumber",
    "fringe_phase_rad",
    "visibility",
    "background_cps",
)
# Box bounds: positive amplitude/width/wavenumber, visibility in [0, 1].
_PARAM_LO = np.array([1e-12, -np.inf, 1e-9, 1e-9, -np.inf, 0.0, -np.inf])
_PARAM_HI = np.array([np.inf, np.inf, np.inf, np.inf, np.inf, 1.0, np.inf])


@dataclass(frozen=True)
class ScanFitModel:
    """Fringe-model parameters for a coincidence scan."""

    amplitude_cps: float
    center_mm: float
    envelope_width_mm: float
    fringe_wavenumber: float
    fringe_phase_rad: float
    visibility: float
    background_cps: float

    def __post_init__(self):
        if not self.amplitude_cps > 0:
            raise ValueError("amplitude_cps must be positive")
        if not self.envelope_width_mm > 0:
            raise ValueError("envelope_width_mm must be positive")
        if not self.fringe_wavenumber > 0:
            raise ValueError("fringe_wavenumber must be positive")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")

    def evaluate(self, x):
        """Model rate (counts/s) at position x (mm)."""
        out = _evaluate_vector(self.to_vector(), np.asarray(x, dtype=float))
        return out if out.ndim else float(out)

    def to_vector(self):
        return np.array([getattr(self, name) for name in _PARAM_NAMES])

    @classmethod
    def from_vector(cls, vec):
        return cls(**dict(zip(_PARAM_NAMES, (float(v) for v in vec))))


@dataclass(frozen=True)
class FitResult:
    """Least-squares solution with curvature standard errors and diagnostics.

    ``converged`` False marks the estimates unusable; they are retained
    only for post-mortem inspection.
    """

    model: ScanFitModel | None
    errors: dict
    reduced_chi2: float
    converged: bool
    n_evaluations: int = 0
    message: str = ""

    def to_json_dict(self):
        """Stable serialization schema for fit results: the fields, versioned."""
        return {"schema_version": 1, **asdict(self)}

    def to_json(self, **kwargs):
        return json.dumps(self.to_json_dict(), **kwargs)


def _moment_scales(x, y):
    """Centroid and second-moment width of the above-baseline profile."""
    yp = np.clip(y - float(y.min()), 0.0, None)
    total = yp.sum()
    if total <= 0:
        raise ValueError("profile has no mass above background")
    step = float(np.mean(np.diff(x)))
    c0 = float((x * yp).sum() / total)
    w0 = math.sqrt(max(float(((x - c0) ** 2 * yp).sum() / total), step**2))
    return c0, w0


def _envelope_grid(x, c0, w0):
    """Centers, widths and envelopes of the 15 grid candidates, centers outermost."""
    centers = c0 + w0 * np.repeat([-0.5, 0.0, 0.5], 5)
    widths = w0 * np.tile([0.6, 1.0, 1.5, 2.25, 3.4], 3)
    env = np.exp(-0.5 * ((x - centers[:, None]) / widths[:, None]) ** 2)
    return centers, widths, env


def _envelope_grid_fit(x, y, grid, k0=None):
    """Pick envelope shape by grid search, coefficients by linear solve.

    For each candidate (center, width) of ``grid`` the remaining
    parameters are a plain linear least-squares problem, solved for all
    candidates in one stacked pseudo-inverse: [env, 1] when fringe-blind,
    plus the envelope-weighted fringe quadratures when ``k0`` is known.
    Candidates with non-finite coefficients or a non-positive amplitude
    are skipped; the first lowest cost wins.  The grid avoids the
    degenerate flat-envelope corner a free nonlinear prefit can wander
    into, and is fully deterministic.
    """
    centers, widths, env = grid
    cols = [env, np.ones_like(env)]
    if k0 is not None:
        phase = k0 * (x - centers[:, None])
        cols[1:1] = [env * np.cos(phase), env * np.sin(phase)]
    basis = np.stack(cols, axis=-1)
    coef = np.linalg.pinv(basis) @ y
    cost = np.sum(((basis @ coef[..., None])[..., 0] - y) ** 2, axis=1)
    ok = np.flatnonzero(np.isfinite(coef).all(axis=1) & (coef[:, 0] > 0))
    if ok.size == 0:
        raise ValueError("profile has no envelope-like structure")
    i = ok[np.argmin(cost[ok])]
    return float(centers[i]), float(widths[i]), coef[i]


def _residual_fringe_guess(residual, step):
    """Dominant residual frequency via the windowed periodogram.

    The top 15% of bins are excluded: an oversampling scan never has a
    real fringe there, while white noise peaks pile up at Nyquist.  For
    the >= 8 points ``initial_guess`` requires, the peak bin i lies in
    [2, len(spec) - 2], so both neighbours of the parabolic
    interpolation exist."""
    window = np.hanning(len(residual))
    spec = np.fft.rfft(residual * window)
    freqs = 2.0 * math.pi * np.fft.rfftfreq(len(residual), d=step)
    lo = 2
    hi = max(lo + 2, int(0.85 * len(spec)))
    i = lo + int(np.argmax(np.abs(spec[lo:hi])))
    a, b, c = np.abs(spec[i - 1]), np.abs(spec[i]), np.abs(spec[i + 1])
    denom = a - 2 * b + c
    shift = 0.5 * (a - c) / denom if denom != 0 else 0.0
    k0 = freqs[i] + shift * (freqs[1] - freqs[0])
    return float(max(k0, freqs[1] / 2.0))


def initial_guess(positions_mm, rates_cps):
    """Data-driven starting point, reproducible without hand-tuning.

    A fringe-blind envelope prefit supplies amplitude, center, width and
    background; the spectral peak of its residual gives the fringe
    wavenumber; projecting the residual on the envelope-weighted
    quadrature pair gives the fringe phase and visibility."""
    x = np.asarray(positions_mm, dtype=float)
    y = np.asarray(rates_cps, dtype=float)
    if x.size < 8:
        raise ValueError("need at least 8 points for an initial guess")
    c0, w0 = _moment_scales(x, y)
    step = float(np.mean(np.diff(x)))
    # Fringe-blind pass isolates the slow structure; its residual carries
    # the fringe for the spectral stage.
    grid = _envelope_grid(x, c0, w0)
    center, width, coef = _envelope_grid_fit(x, y, grid)
    env = np.exp(-0.5 * ((x - center) / width) ** 2)
    residual = y - (coef[0] * env + coef[1])
    k0 = _residual_fringe_guess(residual, step)
    # Joint pass with the fringe quadratures:
    # y ~ bg + a*env + (a V cos phi)*env*cos - (a V sin phi)*env*sin.
    center, width, coef = _envelope_grid_fit(x, y, grid, k0=k0)
    amplitude, q_cos, q_sin, bg = (float(v) for v in coef)
    fringe_amp = math.hypot(q_cos, q_sin)
    phase = math.atan2(-q_sin, q_cos)
    vis = min(max(fringe_amp / max(amplitude, 1e-12), 0.02), 0.98)
    amplitude = max(amplitude, 1e-9)
    return ScanFitModel(amplitude, center, max(width, 1e-6), k0, phase, vis, max(bg, 0.0))


def _least_squares(resid_jac, p0, lo, hi):
    """Box-bounded Levenberg-Marquardt: least |r(p)|^2 over lo <= p <= hi.

    ``resid_jac(p)`` returns (r, J).  Steps solve (J^T J + lam D^2) s = -J^T r,
    D the running maximum of J's column norms (Moré), and are clipped to the
    box; a parameter on a bound the gradient pushes against is held for that
    step.  lam falls threefold per accepted step and rises tenfold per rejected
    one.  Converges on a relative cost decrease <= OBJECTIVE_TOL or a step
    <= 1e-12 |p|.  Returns (p, r, J at p, evaluations, stop reason).
    """
    p = np.clip(np.asarray(p0, dtype=float), lo, hi)
    r, jac = resid_jac(p)
    nfev, lam, diag = 1, 1e-3, np.zeros(p.size)
    for _ in range(MAX_ITERATIONS):
        diag = np.maximum(diag, np.linalg.norm(jac, axis=0))
        grad = jac.T @ r
        jf = np.where(((p <= lo) & (grad > 0)) | ((p >= hi) & (grad < 0)), 0.0, jac)
        hess, grad, damping = jf.T @ jf, jf.T @ r, np.diag(np.where(diag > 0, diag, 1.0) ** 2)
        while True:
            trial = np.clip(p - np.linalg.solve(hess + lam * damping, grad), lo, hi)
            if not np.all(np.isfinite(trial)):
                return p, r, jac, nfev, "optimizer_stalled: no finite step lowers the cost"
            if np.linalg.norm(trial - p) <= 1e-12 * np.linalg.norm(p):
                return p, r, jac, nfev, "converged: step below tolerance"
            r_new, jac_new = resid_jac(trial)
            nfev += 1
            if r_new @ r_new < r @ r:
                break
            lam *= 10.0
        decrease = 1.0 - (r_new @ r_new) / (r @ r)
        p, r, jac, lam = trial, r_new, jac_new, lam / 3.0
        if decrease <= OBJECTIVE_TOL:
            return p, r, jac, nfev, "converged: relative cost decrease below tolerance"
    return p, r, jac, nfev, "optimizer_stalled: iteration limit reached"


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
    total = y.sum()  # positive: a SampledKernel peaks at 1
    mu0 = float((x * y).sum() / total)
    s0 = math.sqrt(max(float(((x - mu0) ** 2 * y).sum() / total), (x[1] - x[0]) ** 2 / 12.0))

    def resid_jac(p):  # the fringe model at V = 0 and zero background
        gaussian = np.array([*p, 1.0, 0.0, 0.0, 0.0])
        return (_evaluate_vector(gaussian, x) - y) / w, _model_jacobian(gaussian, x)[:, :3] / w[:, None]

    p, _, _, _, message = _least_squares(resid_jac, [1.0, mu0, s0], -np.inf, np.inf)
    if not message.startswith("converged"):
        raise RuntimeError(f"kernel width fit failed: {message}")
    return abs(float(p[2]))


def _fit_core(x, y, sig, scale, init):
    """Bounded least squares of the fringe model: minimises (scale * model(x) - y) / sig.

    Returns a FitResult with reduced chi^2 and curvature errors; an
    optimizer stall or an out-of-bounds solution yields a non-converged
    result instead of raising.
    """
    weight = (scale / sig)[:, None]

    def resid_jac(p):
        return (scale * _evaluate_vector(p, x) - y) / sig, weight * _model_jacobian(p, x)

    p, r, jac, nfev, message = _least_squares(resid_jac, init.to_vector(), _PARAM_LO, _PARAM_HI)
    converged = message.startswith("converged")
    try:
        model = ScanFitModel.from_vector(p)
    except ValueError as exc:
        model, converged, message = None, False, f"invalid_solution: {exc} ({message})"
    return FitResult(
        model=model,
        errors=dict(zip(_PARAM_NAMES, _curvature_errors(jac))),
        reduced_chi2=float(r @ r / max(x.size - p.size, 1)),
        converged=converged,
        n_evaluations=nfev,
        message=message,
    )


def fit_profile(positions_mm, values):
    """Unit-weight least-squares fit of the fringe model to a sampled profile.

    Starts from ``initial_guess``, so the result is a pure function of the
    data.  Returns a non-converged FitResult rather than raising when the
    optimizer stalls.
    """
    x = np.asarray(positions_mm, dtype=float)
    y = np.asarray(values, dtype=float)
    return _fit_core(x, y, np.ones_like(y), 1.0, initial_guess(x, y))


def _evaluate_vector(p, x):
    amp, x0, w, k0, phi, vis, bg = p
    u = x - x0
    return bg + amp * np.exp(-0.5 * (u / w) ** 2) * (1.0 + vis * np.cos(k0 * u + phi))


def _model_jacobian(p, x):
    """Closed-form d(model)/d(p) of ``_evaluate_vector``, shape (len(x), 7)."""
    amp, x0, w, k0, phi, vis, bg = p
    u = x - x0
    env = np.exp(-0.5 * (u / w) ** 2)
    cos, sin = np.cos(k0 * u + phi), np.sin(k0 * u + phi)
    shape = env * (1.0 + vis * cos)
    d_phase = -amp * vis * env * sin
    d_shape = amp * shape / w**2
    return np.column_stack([
        shape,
        d_shape * u - k0 * d_phase,
        d_shape * u**2 / w,
        d_phase * u,
        d_phase,
        amp * env * cos,
        np.ones_like(u),
    ])


def _curvature_errors(jac):
    """1-sigma errors from (J^T J)^-1 of the weighted residual Jacobian."""
    jtj = jac.T @ jac
    try:
        cov = np.linalg.pinv(jtj)
        return [float(math.sqrt(max(v, 0.0))) for v in np.diag(cov)]
    except np.linalg.LinAlgError:
        return [float("nan")] * jac.shape[1]


def fit_scan(data):
    """Fit the fringe model to a coincidence scan (a ``ScanData``) with Poisson weights.

    The fit runs in counts space, so heterogeneous dwell times weigh in
    correctly: residuals are (counts - duration * rate_model) / sqrt(max(counts, 1)).
    Fewer than 10 points raise ValueError.  All-zero counts, a failed
    start point, a scan spanning fewer than two fringe periods of the
    estimated wavenumber, or a stalled optimizer yield an explicit
    non-converged result.
    """
    if len(data) < 10:
        raise ValueError("need at least 10 scan points")
    if np.all(data.counts == 0):
        return FitResult(None, {}, float("nan"), False, 0, "degenerate data: all counts zero")
    try:
        init = initial_guess(data.positions_mm, data.rates_cps)
    except ValueError as exc:
        return FitResult(None, {}, float("nan"), False, 0, f"initialization failed: {exc}")
    span = data.positions_mm[-1] - data.positions_mm[0]
    if span * init.fringe_wavenumber < 2.0 * 2.0 * math.pi:
        return FitResult(None, {}, float("nan"), False, 0,
                         "degenerate data: scan spans fewer than two fringe periods")
    counts = data.counts.astype(float)
    return _fit_core(
        data.positions_mm, counts, np.sqrt(np.maximum(counts, 1.0)), data.durations_s, init
    )


@dataclass(frozen=True)
class AlphaFitResult:
    alpha_per_mm2: float
    alpha_sigma: float
    reduced_chi2: float
    converged: bool
    message: str = ""

    def to_json_dict(self):
        return {"schema_version": 1, **asdict(self)}


def fit_alpha(points, g_by_label, k, k0):
    """Turbulence strength from a visibility-vs-distance campaign.

    ``points`` are VisibilityPoint records; ``g_by_label`` maps each
    point's configuration label to its no-turbulence ceiling.  Weighted
    least squares over alpha alone; the 1-sigma interval comes from the
    objective curvature.  All points at zero distance leave alpha
    unidentifiable and produce an explicit failure.
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least 2 visibility points")
    d = np.array([p.effective_distance_mm for p in pts])
    if np.allclose(d, 0.0):
        return AlphaFitResult(
            float("nan"), float("nan"), float("nan"), False,
            "alpha unidentifiable: all points at zero effective distance",
        )
    if np.unique(np.abs(d)).size < 2:
        raise ValueError("need at least 2 distinct |distance| values")
    v = np.array([p.visibility for p in pts])
    g = np.array([float(g_by_label[p.label]) for p in pts])
    sig = np.array([p.sigma_v if p.sigma_v > 0 else 1.0 for p in pts])
    c = d**2 / (2.0 * (k / k0) ** 2)

    def resid_jac(a):
        model = g * np.exp(-a[0] * c)
        return (model - v) / sig, (-c * model / sig)[:, None]

    # Moment start: average log-attenuation over informative points.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((v > 0) & (g > 0), v / g, np.nan)
        logr = -np.log(ratio)
    mask = np.isfinite(logr) & (c > 0)
    a0 = float(np.clip(np.nansum(logr[mask]) / max(np.sum(c[mask]), 1e-12), 0.0, 1e3))
    a, r, jac, _, message = _least_squares(resid_jac, [a0], 0.0, np.inf)
    red_chi2 = float(r @ r / max(len(pts) - 1, 1))
    return AlphaFitResult(float(a[0]), _curvature_errors(jac)[0], red_chi2,
                          message.startswith("converged"), message)


def slit_factor(k0, slit_width_mm):
    """Finite-slit attenuation of fringe contrast at wavenumber k0.

    A top-hat slit of width s multiplies the contrast by
    sin(k0 s / 2) / (k0 s / 2); a zero-width slit gives 1.  Requires
    k0 > 0 and k0 * s / 2 < pi (slit narrower than the fringe period),
    where the factor is positive.
    """
    if not k0 > 0:
        raise ValueError(f"fringe wavenumber k0 must be > 0, got {k0}")
    if slit_width_mm < 0:
        raise ValueError("slit width must be >= 0")
    if slit_width_mm == 0:
        return 1.0
    arg = k0 * slit_width_mm / 2.0
    if not arg < math.pi:
        raise ValueError("slit too wide: k0 * width / 2 must be < pi")
    return math.sin(arg) / arg


def slit_correction(visibility_raw, k0, slit_width_mm):
    """Undo the finite-slit attenuation of a fitted fringe visibility."""
    return visibility_raw / slit_factor(k0, slit_width_mm)
