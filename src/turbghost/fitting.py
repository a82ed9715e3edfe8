"""Nonlinear least-squares recovery of fringe visibility and turbulence strength.

Scans are fit with a seven-parameter fringe model
``background + amplitude * exp(-((x-x0)/w)^2/2) * (1 + V cos(k0 (x-x0) + phi))``
under Poisson weights (variance max(counts, 1)).  Every fit in the package,
the kernel width in ``fit_kernel_sigma`` included, runs one numpy
solver, ``_least_squares``: box-bounded Levenberg-Marquardt with Moré's
scaling, here driven by the model's closed-form Jacobian, with the bounds
keeping V in [0, 1].  Standard errors come from the local curvature of the
weighted objective, (J^T J)^-1 at the solution.

The solver runs a stack of fits at once, each row on its own schedule;
a single fit is a stack of one.  ``fit_scans`` fits scans that share one
position grid, as a campaign's scans do, in one stack, and each result
is bit for bit the one ``fit_scan`` gives that scan alone.  Their start
points are one stack too: ``_start_points`` runs ``initial_guess`` over
the rows, with each of its 15 grid candidates solved by its normal
equations, no SVD.

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
    "fit_scans",
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


def initial_guess(positions_mm, rates_cps):
    """Data-driven starting point, reproducible without hand-tuning.

    A fringe-blind envelope prefit supplies amplitude, center, width and
    background; the spectral peak of its residual gives the fringe
    wavenumber; projecting the residual on the envelope-weighted
    quadrature pair gives the fringe phase and visibility.  This is
    ``_start_points`` of a stack of one."""
    x = np.asarray(positions_mm, dtype=float)
    y = np.asarray(rates_cps, dtype=float)
    if x.size < 8:
        raise ValueError("need at least 8 points for an initial guess")
    (start,) = _start_points(x, y[None])
    if isinstance(start, str):
        raise ValueError(start)
    return start


def _start_points(x, y):
    """``initial_guess`` for each row of ``y`` (rows, n) on one grid ``x`` of >= 8 points.

    Per row, a start ScanFitModel or the text of the ValueError that ends
    its start; the rows run together, and each gets the numbers it gets
    alone.  The moment scales (centroid c0, width w0) place 15 candidate
    envelopes, centers c0 + (-0.5, 0, 0.5) w0 by widths (0.6 ... 3.4) w0;
    the grid avoids the flat-envelope corner a free nonlinear prefit can
    wander into.  A fringe-blind grid pass on [envelope, 1] isolates the
    slow structure.  The windowed periodogram of its residual gives the
    fringe wavenumber: the parabolic peak, the top 15% of bins excluded
    (an oversampling scan has no real fringe there, while white noise
    piles up at Nyquist); with >= 8 points both neighbours of the peak
    exist.  A joint grid pass adds the envelope-weighted fringe
    quadratures: y ~ bg + a env + (a V cos phi) env cos - (a V sin phi) env sin.
    """
    starts = [None] * len(y)

    def drop(failed, message):
        for i in rows[failed]:
            starts[i] = message
        return ~failed

    rows = np.arange(len(y))
    yp = np.clip(y - y.min(axis=1, keepdims=True), 0.0, None)
    total = yp.sum(axis=1)
    keep = drop(~(total > 0), "profile has no mass above background")
    rows, y, yp, total = rows[keep], y[keep], yp[keep], total[keep]
    if not rows.size:
        return starts
    step = float(np.mean(np.diff(x)))
    c0 = (x * yp).sum(axis=1) / total
    w0 = np.sqrt(np.maximum(((x - c0[:, None]) ** 2 * yp).sum(axis=1) / total, step**2))
    centers = c0[:, None] + w0[:, None] * np.array([-0.5, 0.0, 0.5])
    widths = w0[:, None] * np.array([0.6, 1.0, 1.5, 2.25, 3.4])
    u = x - centers[..., None, None]
    env = np.exp(-0.5 * (u / widths[:, None, :, None]) ** 2)

    pick, coef = _best_candidate(*_grid_solve(y, [env]))
    keep = drop(pick < 0, "profile has no envelope-like structure")
    rows, y, centers, widths, u, env, pick, coef = (
        a[keep] for a in (rows, y, centers, widths, u, env, pick, coef))
    if not rows.size:
        return starts
    r = np.arange(len(y))
    blind = env.reshape(len(y), -1, x.size)[r, pick]
    residual = y - (coef[:, 0, None] * blind + coef[:, 1, None])
    spec = np.abs(np.fft.rfft(residual * np.hanning(x.size), axis=1))
    freqs = 2.0 * math.pi * np.fft.rfftfreq(x.size, d=step)
    lo = 2
    hi = max(lo + 2, int(0.85 * spec.shape[1]))
    peak = lo + np.argmax(spec[:, lo:hi], axis=1)
    a, b, c = spec[r, peak - 1], spec[r, peak], spec[r, peak + 1]
    denom = a - 2 * b + c
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(denom != 0, 0.5 * (a - c) / denom, 0.0)
    k0 = np.maximum(freqs[peak] + shift * (freqs[1] - freqs[0]), freqs[1] / 2.0)

    fringe = k0[:, None, None, None] * u
    cos, sin = np.cos(fringe), np.sin(fringe)
    pick, coef = _best_candidate(*_grid_solve(y, [env, env * cos, env * sin]))
    for j, i in enumerate(rows):
        if pick[j] < 0:
            starts[i] = "profile has no envelope-like structure"
            continue
        amplitude, q_cos, q_sin, bg = (float(v) for v in coef[j])
        center, width = float(centers[j, pick[j] // 5]), float(widths[j, pick[j] % 5])
        fringe_amp = math.hypot(q_cos, q_sin)
        phase = math.atan2(-q_sin, q_cos)
        vis = min(max(fringe_amp / max(amplitude, 1e-12), 0.02), 0.98)
        amplitude = max(amplitude, 1e-9)
        starts[i] = ScanFitModel(amplitude, center, max(width, 1e-6), float(k0[j]), phase, vis,
                                 max(bg, 0.0))
    return starts


def _grid_solve(y, cols):
    """Linear least squares of each row of ``y`` (rows, n) on each grid candidate's basis.

    A candidate's basis is the columns ``cols``, each (rows, 3, 5, n)
    (three centers by five widths), then a constant.  Its
    coefficients solve the normal equations (B^T B) c = B^T y, with the
    Gram sums taken column by column and every candidate solved in one
    batched call; a singular candidate gets NaN coefficients.  Returns the
    coefficients (rows, 15, k) and the costs |B c - y|^2 (rows, 15), the
    candidates in grid order, centers outermost.
    """
    yc = y[:, None, None, :]
    k = len(cols) + 1
    shape = cols[0].shape[:-1]
    gram, rhs = np.empty(shape + (k, k)), np.empty(shape + (k,))
    for i, a in enumerate(cols):
        for j in range(i, k - 1):
            gram[..., i, j] = gram[..., j, i] = np.vecdot(a, cols[j])
        gram[..., i, -1] = gram[..., -1, i] = a.sum(axis=-1)
        rhs[..., i] = np.vecdot(a, yc)
    gram[..., -1, -1] = y.shape[1]
    rhs[..., -1] = y.sum(axis=1)[:, None, None]
    coef = _solve_rows(gram.reshape(-1, k, k), rhs.reshape(-1, k)).reshape(shape + (k,))
    with np.errstate(invalid="ignore", over="ignore"):
        fit = coef[..., -1:] - yc
        for i, a in enumerate(cols):
            fit += coef[..., i, None] * a
        cost = _row_dot(fit)
    return coef.reshape(len(y), -1, k), cost.reshape(len(y), -1)


def _best_candidate(coef, cost):
    """Per row, the index of the first lowest-cost candidate with finite coefficients and a
    positive envelope amplitude (-1 if none), and its coefficients."""
    ok = np.isfinite(coef).all(axis=2) & (coef[..., 0] > 0)
    pick = np.argmin(np.where(ok, cost, np.inf), axis=1)
    pick = np.where(ok[np.arange(len(ok)), pick], pick, -1)
    return pick, coef[np.arange(len(ok)), pick]


_STALLED_NO_STEP = "optimizer_stalled: no finite step lowers the cost"
_STALLED_LIMIT = "optimizer_stalled: iteration limit reached"
_CONVERGED_STEP = "converged: step below tolerance"
_CONVERGED_COST = "converged: relative cost decrease below tolerance"


def _row_dot(a):
    """a[i] @ a[i] for each row of a (rows, n), by the same BLAS dot as a 1-D ``@``."""
    return np.vecdot(a, a)


def _solve_rows(a, b):
    """np.linalg.solve(a[i], b[i]) per row; a singular row gets NaN, not an error for all."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(b, np.nan)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _least_squares(residual, jacobian, p0, lo, hi, data=()):
    """Box-bounded Levenberg-Marquardt over a stack of rows: least |r_i(p_i)|^2, lo <= p_i <= hi.

    ``p0`` is (rows, k) and ``data`` holds per-row arrays (leading axis
    rows).  ``residual(p, *data)`` and ``jacobian(p, *data)`` return the
    residuals (rows, n) and Jacobians (rows, n, k) of the rows they are
    given; the Jacobian is taken only at accepted points.  Each row keeps
    its own schedule.  Steps solve (J^T J + lam D^2) s = -J^T r, D the
    running maximum of J's column norms (Moré), and are clipped to the box;
    a parameter on a bound the gradient pushes against is held for that
    step.  lam falls threefold per accepted step and rises tenfold per
    rejected one.  A row converges on a relative cost decrease <=
    OBJECTIVE_TOL or a step <= 1e-12 |p|, and stalls after MAX_ITERATIONS
    accepted steps or when no finite step exists (a singular step matrix
    included).

    Rows advance in rounds: one stacked trial solve, then one stacked
    residual of every row still running.  A row that stops leaves the
    stack, so a slow row holds up no other, and every row's numbers are
    those of its fit alone.  Returns p, r and J at p, evaluation counts and
    stop reasons, one entry per row.
    """
    p = np.clip(np.asarray(p0, dtype=float), lo, hi)
    r, jac = residual(p, *data), jacobian(p, *data)
    n_rows, k = p.shape
    # Every row is evaluated once per round until it stops, so a row's
    # evaluation count is 1 + the rounds run when it stops.  With
    # MAX_ITERATIONS <= 0 no row runs: each keeps its start and stalls.
    out_p, out_r, out_jac = p.copy(), r.copy(), jac.copy()
    out_nfev, reasons, rounds = np.ones(n_rows, dtype=int), [_STALLED_LIMIT] * n_rows, 0
    rows = np.arange(n_rows if MAX_ITERATIONS > 0 else 0)
    # A row's accepted steps are the rounds it ran less its rejections.
    rejected, lam, cost, diag = np.zeros(n_rows, dtype=int), np.full(n_rows, 1e-3), _row_dot(r), 0.0

    def retire(done, first, reason_first, reason_else):
        """Record the rows that stop (``first`` picks their reason); return those that go on."""
        for j in np.flatnonzero(done).tolist():
            i = rows[j]
            out_p[i], out_r[i], out_jac[i], out_nfev[i] = p[j], r[j], jac[j], 1 + rounds
            reasons[i] = reason_first if first[j] else reason_else
        return ~done

    linearize = True
    while rows.size:
        if linearize:
            diag = np.maximum(diag, np.sqrt((jac * jac).sum(axis=1)))  # np.linalg.norm's sum
            jf, jft = jac, jac.transpose(0, 2, 1)
            grad = (jft @ r[..., None])[..., 0]
            held = ((p <= lo) & (grad > 0)) | ((p >= hi) & (grad < 0))
            if np.count_nonzero(held):  # rare: hold those parameters
                jf = np.where(held[:, None, :], 0.0, jac)
                jft = jf.transpose(0, 2, 1)
                grad = (jft @ r[..., None])[..., 0]
            hess, damping = jft @ jf, np.zeros((len(p), k * k))
            damping[:, ::k + 1] = np.where(diag > 0, diag, 1.0) ** 2
            damping = damping.reshape(-1, k, k)
            tol = 1e-12 * np.sqrt(_row_dot(p))
        trial = np.clip(p - _solve_rows(hess + lam[:, None, None] * damping, grad), lo, hi)
        finite = np.isfinite(trial).all(axis=1)
        halt = ~finite | (np.sqrt(_row_dot(trial - p)) <= tol)
        if np.count_nonzero(halt):
            keep = retire(halt, finite, _CONVERGED_STEP, _STALLED_NO_STEP)
            if not np.count_nonzero(keep):
                break
            rows, p, r, jac, cost, rejected, lam, diag, hess, grad, damping, tol, trial, *data = (
                a[keep] for a in (rows, p, r, jac, cost, rejected, lam, diag, hess, grad, damping,
                                  tol, trial, *data))
        r_new = residual(trial, *data)
        rounds += 1
        cost_new = _row_dot(r_new)
        better = cost_new < cost
        accepted = np.count_nonzero(better)
        linearize = accepted > 0
        if accepted == len(better):
            decrease = 1.0 - cost_new / cost
            p, r, jac, cost, lam = trial, r_new, jacobian(trial, *data), cost_new, lam / 3.0
        elif not accepted:
            lam, rejected = lam * 10.0, rejected + 1
            continue
        else:  # a rejected row keeps its point, and its decrease reads 1
            decrease = 1.0 - np.divide(cost_new, cost, out=np.zeros_like(cost), where=better)
            p = np.where(better[:, None], trial, p)
            r = np.where(better[:, None], r_new, r)
            jac = jac.copy()
            jac[better] = jacobian(trial[better], *(a[better] for a in data))
            cost = np.where(better, cost_new, cost)
            lam, rejected = np.where(better, lam / 3.0, lam * 10.0), rejected + ~better
        converged = decrease <= OBJECTIVE_TOL
        halt = converged
        if rounds >= MAX_ITERATIONS:  # before that, no row can have taken that many steps
            halt = halt | (rounds - rejected >= MAX_ITERATIONS)
        if np.count_nonzero(halt):
            keep = retire(halt, converged, _CONVERGED_COST, _STALLED_LIMIT)
            if not np.count_nonzero(keep):
                break
            rows, p, r, jac, cost, rejected, lam, diag, *data = (
                a[keep] for a in (rows, p, r, jac, cost, rejected, lam, diag, *data))
    return out_p, out_r, out_jac, out_nfev, reasons


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

    def gaussian(p):  # the fringe model at V = 0 and zero background
        return np.concatenate((p, np.tile([1.0, 0.0, 0.0, 0.0], (len(p), 1))), axis=1)

    p, _, _, _, (message,) = _least_squares(
        lambda p: (_evaluate_vector(gaussian(p), x) - y) / w,
        lambda p: _model_jacobian(gaussian(p), x)[..., :3] / w[:, None],
        [[1.0, mu0, s0]], -np.inf, np.inf)
    if not message.startswith("converged"):
        raise RuntimeError(f"kernel width fit failed: {message}")
    return abs(float(p[0, 2]))


def _fit_rows(x, y, sig, scale, inits):
    """Bounded least squares of the fringe model, one fit per row.

    Each row minimises |(scale * model(x) - y) / sig|^2.
    ``y``, ``sig`` and ``scale`` are (rows, len(x)); ``inits`` holds each
    row's start ScanFitModel.  Returns one FitResult per row, with reduced
    chi^2 and curvature errors; an optimizer stall or an out-of-bounds
    solution yields a non-converged result instead of raising.
    """
    def residual(p, y, sig, scale, weight):
        r = _evaluate_vector(p, x)
        r *= scale
        r -= y
        r /= sig
        return r

    def jacobian(p, y, sig, scale, weight):
        jac = _model_jacobian(p, x)
        jac *= weight
        return jac

    start = np.array([init.to_vector() for init in inits])
    data = (y, sig, scale, (scale / sig)[..., None])
    p, r, jac, nfev, messages = _least_squares(residual, jacobian, start, _PARAM_LO, _PARAM_HI,
                                               data)
    results = []
    for p_row, r_row, errors, n, message in zip(p, r, _curvature_errors(jac), nfev, messages):
        converged = message.startswith("converged")
        try:
            model = ScanFitModel.from_vector(p_row)
        except ValueError as exc:
            model, converged, message = None, False, f"invalid_solution: {exc} ({message})"
        results.append(FitResult(
            model=model,
            errors=dict(zip(_PARAM_NAMES, errors)),
            reduced_chi2=float(r_row @ r_row / max(x.size - p_row.size, 1)),
            converged=converged,
            n_evaluations=int(n),
            message=message,
        ))
    return results


def fit_profile(positions_mm, values):
    """Unit-weight least-squares fit of the fringe model to a sampled profile.

    Starts from ``initial_guess``, so the result is a pure function of the
    data.  Returns a non-converged FitResult rather than raising when the
    optimizer stalls.
    """
    x = np.asarray(positions_mm, dtype=float)
    y = np.asarray(values, dtype=float)
    ones = np.ones((1, y.size))
    return _fit_rows(x, y[None], ones, ones, [initial_guess(x, y)])[0]


def _columns(p, x):
    """The seven parameters of p (7,) or (rows, 7), each shaped to broadcast
    against x, and the shape of the model over them: p's leading axes, then x's.

    One vector, a stack of one included, gives numpy scalars: numpy takes
    its fast scalar path for them, where (1, 1) columns would broadcast.
    The values are the same either way.
    """
    p = np.asarray(p, dtype=float)
    grid = p.shape[:-1] + np.shape(x)
    if p.size == 7:
        return p.reshape(7), grid
    return p.T.reshape(p.shape[::-1] + (1,) * np.ndim(x)), grid


def _evaluate_vector(p, x):
    """The fringe model at x for the parameter vector p, or for each row of a stack p (rows, 7)."""
    (amp, x0, w, k0, phi, vis, bg), grid = _columns(p, x)
    u = x - x0
    out = bg + amp * np.exp(-0.5 * (u / w) ** 2) * (1.0 + vis * np.cos(k0 * u + phi))
    return out.reshape(grid)


def _model_jacobian(p, x):
    """Closed-form d(model)/d(p) of ``_evaluate_vector``, shape ([rows,] len(x), 7)."""
    (amp, x0, w, k0, phi, vis, bg), grid = _columns(p, x)
    u = x - x0
    env = np.exp(-0.5 * (u / w) ** 2)
    phase = k0 * u + phi
    cos, sin = np.cos(phase), np.sin(phase)
    shape = env * (1.0 + vis * cos)
    d_phase = -amp * vis * env * sin
    # w * w, not w**2: on a numpy scalar ** 2 is pow(), which misrounds at
    # times, and a stack's (rows, 1) column squares exactly.
    d_shape = amp * shape / (w * w)
    jac = np.empty(grid + (7,))
    jac[..., 0] = shape
    jac[..., 1] = d_shape * u - k0 * d_phase
    jac[..., 2] = d_shape * u**2 / w
    jac[..., 3] = d_phase * u
    jac[..., 4] = d_phase
    jac[..., 5] = amp * env * cos
    jac[..., 6] = 1.0
    return jac


def _curvature_errors(jac):
    """1-sigma errors from (J^T J)^-1 of each row's weighted residual Jacobian (rows, n, k).

    A row whose normal matrix the SVD cannot take (NaNs) gets NaN errors;
    it fails the stacked pseudo-inverse, so the rows are then taken one by
    one and the others keep their values.
    """
    try:
        cov = np.linalg.pinv(np.swapaxes(jac, 1, 2) @ jac)
    except np.linalg.LinAlgError:
        if len(jac) == 1:
            return [[float("nan")] * jac.shape[2]]
        return [_curvature_errors(row[None])[0] for row in jac]
    return [[float(math.sqrt(max(v, 0.0))) for v in np.diagonal(c)] for c in cov]


def _early_exit(message):
    """The non-converged FitResult of a scan whose fit ends before the solver."""
    return FitResult(None, {}, float("nan"), False, 0, message)


def fit_scans(scans):
    """Fit the fringe model to scans on one position grid; one FitResult per scan, in order.

    Each scan is fit as ``fit_scan`` describes, and its result is that of
    ``fit_scan`` on it alone, bit for bit: the start points are one
    ``_start_points`` stack, early exits are per scan, and the fits then
    run as one stacked ``_least_squares``.  Scans on different position
    grids, or with fewer than 10 points, raise ValueError.
    """
    scans = list(scans)
    if not scans:
        return []
    x = scans[0].positions_mm
    if not all(np.array_equal(data.positions_mm, x) for data in scans[1:]):
        raise ValueError("scans must share one position grid")
    if x.size < 10:
        raise ValueError("need at least 10 scan points")
    results = [_early_exit("degenerate data: all counts zero") if np.all(data.counts == 0)
               else None for data in scans]
    live = [i for i, result in enumerate(results) if result is None]
    rows, inits = [], []
    if live:
        for i, start in zip(live, _start_points(x, np.array([scans[i].rates_cps for i in live]))):
            if isinstance(start, str):
                results[i] = _early_exit(f"initialization failed: {start}")
            elif (x[-1] - x[0]) * start.fringe_wavenumber < 2.0 * 2.0 * math.pi:
                results[i] = _early_exit("degenerate data: scan spans fewer than two fringe periods")
            else:
                rows.append(i)
                inits.append(start)
    if rows:
        counts = np.array([scans[i].counts for i in rows], dtype=float)
        durations = np.array([scans[i].durations_s for i in rows])
        fits = _fit_rows(x, counts, np.sqrt(np.maximum(counts, 1.0)), durations, inits)
        for i, fit in zip(rows, fits):
            results[i] = fit
    return results


def fit_scan(data):
    """Fit the fringe model to a coincidence scan (a ``ScanData``) with Poisson weights.

    The fit runs in counts space, so heterogeneous dwell times weigh in
    correctly: residuals are (counts - duration * rate_model) / sqrt(max(counts, 1)).
    Fewer than 10 points raise ValueError.  All-zero counts, a failed
    start point, a scan spanning fewer than two fringe periods of the
    estimated wavenumber, or a stalled optimizer yield an explicit
    non-converged result.  This is ``fit_scans`` of a stack of one.
    """
    return fit_scans([data])[0]


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

    def residual(a):
        return (g * np.exp(-a * c) - v) / sig

    def jacobian(a):
        return (-c * (g * np.exp(-a * c)) / sig)[..., None]

    # Moment start: average log-attenuation over informative points.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((v > 0) & (g > 0), v / g, np.nan)
        logr = -np.log(ratio)
    mask = np.isfinite(logr) & (c > 0)
    a0 = float(np.clip(np.nansum(logr[mask]) / max(np.sum(c[mask]), 1e-12), 0.0, 1e3))
    a, r, jac, _, (message,) = _least_squares(residual, jacobian, [[a0]], 0.0, np.inf)
    red_chi2 = float(r[0] @ r[0] / max(len(pts) - 1, 1))
    return AlphaFitResult(float(a[0, 0]), _curvature_errors(jac)[0][0], red_chi2,
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
