"""Nonlinear least-squares recovery of fringe visibility and turbulence strength.

Scans are fit with the fringe model
``background + amplitude * exp(-((x-x0)/w)^2/2) * (1 + V cos(k0 (x-x0) + phi))``
under Poisson weights (variance max(counts, 1)).  It is linear in A, A V
and B, so the fit runs by variable projection (Golub & Pereyra 1973): the
loop moves (x0, w, k0, phi), and each evaluation, ``_project``, solves the
linear part with ``_linear_solve``, as the start points' grid does.
V <= 1 is the linear bound |A V| <= A, kept by an active set; the
Jacobian is Kaufman's (1975).  Standard errors come from (J^T J)^-1 of
the seven-parameter Jacobian at the equivalent point.  Every fit runs one
numpy solver, ``_least_squares``, over a stack of fits: ``fit_scans``
stacks scans on one grid, at most ``_FIT_STACK_SAMPLES`` scan samples a
stack (a memory bound of its own), each row the fit it gets alone.

Visibility-vs-distance campaigns are reduced to the turbulence strength
``alpha`` by weighted least squares of the attenuation law
``V = g exp(-alpha d^2 / (2 (k/k0)^2))`` with the per-configuration
ceiling ``g`` known.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

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
#: Fewest positions a scan fit takes; campaigns refuse shorter scans up front.
MIN_SCAN_POINTS = 10
# Sound fits of 36,000 bench sweep scans span at most 1.41 scans, runaways 9 or more.
_MAX_WIDTH_SPANS = 4.0

# Scan samples (stacked scans x scan points) one stacked solve holds.  Peak
# memory grows with the stack, about 120 KB per bundled-config scan: over the
# bench sweep's two 150-point campaigns, 16 scans of 160 points add 0.7 MB to
# the serial fit's peak, 32 add 1.8 MB and a whole campaign 10 MB, while 16
# already take most of the speed-up.
_FIT_STACK_SAMPLES = 16 * 160


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
        return np.array([getattr(self, f.name) for f in fields(self)])

    @classmethod
    def from_vector(cls, vec):
        return cls(*(float(v) for v in vec))


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
    """Data-driven starting point, reproducible without hand-tuning: the
    (x0, w, k0, phi) of ``_start_points``, and the amplitude, visibility
    and background a unit-weight fit projects there."""
    x = np.asarray(positions_mm, dtype=float)
    y = np.asarray(rates_cps, dtype=float)
    _, _, p = _project(_one_start(x, y)[None], x, y[None], np.ones((1, x.size)))
    return ScanFitModel.from_vector(p[0])


def _one_start(x, y):
    """The start (x0, w, k0, phi) of one profile; ValueError if it has none."""
    if x.size < 8:
        raise ValueError("need at least 8 points for an initial guess")
    (start,) = _start_points(x, y[None])
    if isinstance(start, str):
        raise ValueError(start)
    return start


def _start_points(x, y):
    """The start (x0, w, k0, phi) of each row of ``y`` (rows, n) on one grid ``x`` of >= 8 points.

    Per row, the start or the text of the ValueError that ends it; each
    row gets the numbers it gets alone.  The moment scales (centroid c0,
    width w0) place 15 candidate envelopes, centers c0 + (-0.5, 0, 0.5) w0
    by widths (0.6 ... 3.4) w0; the grid avoids the flat-envelope corner a
    free nonlinear prefit can wander into.  A fringe-blind grid pass on
    [envelope, 1] isolates the slow structure.  The windowed periodogram of
    its residual gives the fringe wavenumber: the parabolic peak, the top
    15% of bins excluded (an oversampling scan has no real fringe there,
    while white noise piles up at Nyquist); with >= 8 points both
    neighbours of the peak exist.  A joint grid pass with the
    envelope-weighted quadratures, y ~ bg + a env + (a V cos phi) env cos -
    (a V sin phi) env sin, picks the candidate and gives phi.
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
        q_cos, q_sin = coef[j, 1], coef[j, 2]
        starts[i] = np.array([centers[j, pick[j] // 5], widths[j, pick[j] % 5], k0[j],
                              math.atan2(-q_sin, q_cos)])
    return starts


def _grid_solve(y, cols):
    """``_linear_solve`` of each row of ``y`` (rows, n) on each grid candidate's basis:
    ``cols``, each (rows, 3, 5, n) (three centers by five widths), then a
    constant.  Returns the coefficients (rows, 15, k) and costs (rows, 15),
    centers outermost; a singular candidate gets NaN coefficients."""
    coef, fit, _ = _linear_solve(y[:, None, None, :], [*cols, np.ones(y.shape[1])])
    with np.errstate(invalid="ignore", over="ignore"):
        cost = _row_dot(fit)
    return coef.reshape(len(y), 15, -1), cost.reshape(len(y), 15)


def _linear_solve(y, cols):
    """Linear least squares of ``y`` on the basis ``cols``: the c minimising |B c - y|^2.

    ``y`` and the k columns broadcast to one shape (..., n), each point of
    its leading axes a basis of its own, solved by its normal equations
    (B^T B) c = B^T y; one batched solve also inverts B^T B, and a singular
    basis reads NaN.  Returns c, the residual B c - y and (B^T B)^-1.
    """
    k = len(cols)
    shape = np.broadcast_shapes(y.shape, *(a.shape for a in cols))[:-1]
    system = np.empty(shape + (k, 2 * k + 1))  # [B^T B | B^T y | I]
    for i, a in enumerate(cols):
        for j in range(i, k):
            system[..., i, j] = system[..., j, i] = np.vecdot(a, cols[j])
        system[..., i, k] = np.vecdot(a, y)
    system[..., k + 1:] = np.eye(k)
    solved = _solve_rows(system[..., :k].reshape(-1, k, k),
                         system[..., k:].reshape(-1, k, k + 1)).reshape(shape + (k, k + 1))
    coef = solved[..., 0]
    with np.errstate(invalid="ignore", over="ignore"):
        fit = coef[..., -1:] * cols[-1] - y
        for i, a in enumerate(cols[:-1]):
            fit += coef[..., i, None] * a
    return coef, fit, solved[..., 1:]


def _best_candidate(coef, cost):
    """Per row, the index of the first lowest-cost candidate with finite coefficients and a
    positive envelope amplitude (-1 if none), and its coefficients."""
    ok = np.isfinite(coef).all(axis=2) & (coef[..., 0] > 0)
    pick = np.argmin(np.where(ok, cost, np.inf), axis=1)
    pick = np.where(ok[np.arange(len(ok)), pick], pick, -1)
    return pick, coef[np.arange(len(ok)), pick]


_STALLED_LIMIT = "optimizer_stalled: iteration limit reached"
_RUNAWAY = f"degenerate data: envelope wider than {_MAX_WIDTH_SPANS:g} scan spans"


def _row_dot(a):
    """a[i] @ a[i] for each row of a (rows, n), by the same BLAS dot as a 1-D ``@``."""
    return np.vecdot(a, a)


def _solve_rows(a, b):
    """np.linalg.solve(a[i], b[i]) per row, b (rows, k, m); a singular row gets NaN, not an
    error for all."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full_like(b, np.nan)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _least_squares(fun, p0, lo, hi, data=(), guard=None):
    """Box-bounded Levenberg-Marquardt over a stack of rows: least |r_i(p_i)|^2, lo <= p_i <= hi.

    ``p0`` is (rows, k) and ``data`` holds per-row arrays.  ``fun(p, *data)``
    returns, for the rows it is given, the residuals (rows, n), their
    Jacobians (rows, n, k) and the parameter vectors the fit reports
    (rows, m): p itself, or p with the parameters ``fun`` solves for.
    Steps solve (J^T J + lam D^2) s = -J^T r, D the running maximum of J's
    column norms (Moré), clipped to the box; lam falls threefold per
    accepted step and rises tenfold per rejected one.  A row converges on a
    relative cost decrease <= OBJECTIVE_TOL or a step <= 1e-12 |p| (a
    clipped step that cannot move included), and stalls after
    MAX_ITERATIONS accepted steps or when no finite step exists.
    ``guard``, if given, is (test, message): a row whose accepted p has
    test(p, *data) true stops with that message.

    Rows advance in rounds, each on its own schedule: one stacked trial
    solve, then one stacked evaluation of every row still running.  A row
    that stops leaves the stack, so every row's numbers are those of its
    fit alone.  Returns the reported parameters and r at each row's last
    point, evaluation counts and stop reasons.
    """
    p = np.clip(np.asarray(p0, dtype=float), lo, hi)
    r, jac, full = fun(p, *data)
    n_rows, k = p.shape
    # Every row is evaluated once per round until it stops, so a row's
    # evaluation count is 1 + the rounds run when it stops.
    out_full, out_r = full.copy(), r.copy()
    out_nfev, reasons, rounds = np.ones(n_rows, dtype=int), [_STALLED_LIMIT] * n_rows, 0
    rows = np.arange(n_rows)
    # A row's accepted steps are the rounds it ran less its rejections.
    rejected, lam, cost, diag = np.zeros(n_rows, dtype=int), np.full(n_rows, 1e-3), _row_dot(r), 0.0

    def retire(done, reason):
        """Record the rows that stop, row j for ``reason(j)``; return those that go on."""
        for j in np.flatnonzero(done).tolist():
            i = rows[j]
            out_full[i], out_r[i], out_nfev[i], reasons[i] = full[j], r[j], 1 + rounds, reason(j)
        return ~done

    def pick(new, old):
        """``new`` in the rows that took their step, ``old`` elsewhere."""
        if every:
            return new
        out = old.copy()
        out[better] = new[better]
        return out

    linearize = True
    while rows.size:
        if linearize:
            diag = np.maximum(diag, np.sqrt((jac * jac).sum(axis=1)))  # np.linalg.norm's sum
            jt = jac.transpose(0, 2, 1)
            grad = (jt @ r[..., None])[..., 0]
            hess, damping = jt @ jac, np.zeros((len(p), k * k))
            damping[:, ::k + 1] = np.where(diag > 0, diag, 1.0) ** 2
            damping = damping.reshape(-1, k, k)
            tol = 1e-12 * np.sqrt(_row_dot(p))
        step = _solve_rows(hess + lam[:, None, None] * damping, grad[..., None])[..., 0]
        trial = np.clip(p - step, lo, hi)
        finite = np.isfinite(trial).all(axis=1)
        halt = ~finite | (np.sqrt(_row_dot(trial - p)) <= tol)
        if np.count_nonzero(halt):  # those rows stop unevaluated; the rest step next pass
            reason, linearize = (lambda j: "converged: step below tolerance" if finite[j] else
                                 "optimizer_stalled: no finite step lowers the cost"), True
        else:
            r_new, jac_new, full_new = fun(trial, *data)
            rounds += 1
            cost_new = _row_dot(r_new)
            better = cost_new < cost
            accepted = np.count_nonzero(better)
            linearize, every = accepted > 0, accepted == len(better)
            if not linearize:
                lam, rejected = lam * 10.0, rejected + 1
                continue
            # A rejected row keeps its point, and its decrease reads 1.
            decrease = 1.0 - np.divide(cost_new, cost, out=np.zeros_like(cost), where=better)
            p, r, jac, full, cost = map(pick, (trial, r_new, jac_new, full_new, cost_new),
                                        (p, r, jac, full, cost))
            lam, rejected = np.where(better, lam / 3.0, lam * 10.0), rejected + ~better
            converged = decrease <= OBJECTIVE_TOL
            escaped = guard[0](p, *data) if guard else np.zeros_like(converged)
            halt = converged | escaped
            if rounds >= MAX_ITERATIONS:  # before that, no row can have taken that many steps
                halt = halt | (rounds - rejected >= MAX_ITERATIONS)
            reason = lambda j: (guard[1] if escaped[j] else _STALLED_LIMIT if not converged[j]
                                else "converged: relative cost decrease below tolerance")
        if np.count_nonzero(halt):
            keep = retire(halt, reason)
            if not np.count_nonzero(keep):
                break
            rows, p, r, jac, full, cost, rejected, lam, diag, *data = (
                a[keep] for a in (rows, p, r, jac, full, cost, rejected, lam, diag, *data))
    return out_full, out_r, out_nfev, reasons


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

    p, _, _, (message,) = _least_squares(
        lambda p: ((_evaluate_vector(gaussian(p), x) - y) / w,
                   _model_jacobian(gaussian(p), x)[..., :3] / w[:, None], p),
        [[1.0, mu0, s0]], -np.inf, np.inf)
    if not message.startswith("converged"):
        raise RuntimeError(f"kernel width fit failed: {message}")
    return abs(float(p[0, 2]))


def _project(q, x, t, weight):
    """The fringe fit's variable projection at q (rows, 4) = (x0, w, k0, phi).

    Per row, (A, A V, B) fit t (rows, n) on the basis weight * [env,
    env cos(k0 u + phi), 1]; a row that breaks |A V| <= A is solved again
    on the bound V = 1, basis weight * [env (1 + s cos), 1], s the sign of
    its A V.  Returns the residual, Kaufman's Jacobian (the model's (x0, w,
    k0, phi) columns less their part in the basis span, by the same Gram
    inverse) and the equivalent seven-parameter point (phi moved by pi
    where A V < 0).
    """
    x0, w, k0, phi = q.T[..., None]
    u = x - x0
    env, cos = np.exp(-0.5 * (u / w) ** 2), np.cos(k0 * u + phi)
    cols = [weight * env, weight * env * cos, weight]
    coef, r, inverse = _linear_solve(t, cols)
    bound = ~(np.abs(coef[:, 1]) <= coef[:, 0])
    sign = np.where(coef[:, 1] < 0, -1.0, 1.0)
    basis = np.stack(cols, axis=-1)
    if np.count_nonzero(bound):  # A V = s A, on the basis [on, 0] and the inverse of its Gram
        s = sign[bound, None]
        on = [cols[0][bound] + s * cols[1][bound], weight[bound]]
        c, r[bound], inverse[bound, :2, :2] = _linear_solve(t[bound], on)
        coef[bound] = np.stack([c[:, 0], s[:, 0] * c[:, 0], c[:, 1]], axis=-1)
        basis[bound] = np.stack([*on, np.zeros_like(on[1])], axis=-1)
        inverse[bound, 2], inverse[bound, :, 2] = 0.0, 0.0
    amp, fringe, bg = coef.T
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.stack([amp, *q.T, np.where(bound, sign, fringe / amp), bg], axis=-1)  # V signed
    jac = _model_jacobian(p, x, (env, cos, np.sin(k0 * u + phi)))[..., 1:5] * weight[..., None]
    p[:, 4] += math.pi * (sign < 0)  # the reported point: V >= 0
    p[:, 5] *= sign
    return r, jac - basis @ (inverse @ (basis.transpose(0, 2, 1) @ jac)), p


def _fit_rows(x, y, sig, scale, starts):
    """Per row, the fit minimising |(scale * model(x) - y) / sig|^2 from its start
    (x0, w, k0, phi) in ``starts`` (rows, 4); ``y``, ``sig`` and ``scale`` are
    (rows, len(x)).  A stall, an envelope wider than ``_MAX_WIDTH_SPANS``
    scan spans or an invalid solution is a non-converged FitResult."""
    weight = scale / sig
    p, r, nfev, messages = _least_squares(
        lambda q, t, weight: _project(q, x, t, weight), starts, -np.inf, np.inf, (y / sig, weight),
        (lambda q, t, weight: np.abs(q[:, 1]) > _MAX_WIDTH_SPANS * abs(x[-1] - x[0]), _RUNAWAY))
    results, names = [], [f.name for f in fields(ScanFitModel)]
    for p_row, r_row, errors, n, message in zip(
            p, r, _curvature_errors(_model_jacobian(p, x) * weight[..., None]), nfev, messages):
        converged = message.startswith("converged")
        try:
            model = ScanFitModel.from_vector(p_row)
        except ValueError as exc:
            model, converged, message = None, False, f"invalid_solution: {exc} ({message})"
        results.append(FitResult(model, dict(zip(names, errors)),
                                 float(r_row @ r_row / max(x.size - p_row.size, 1)), converged,
                                 int(n), message))
    return results


def fit_profile(positions_mm, values):
    """Unit-weight least-squares fit of the fringe model to a sampled profile, from
    ``initial_guess``'s start, so a pure function of the data; a stall is a
    non-converged FitResult."""
    x = np.asarray(positions_mm, dtype=float)
    y = np.asarray(values, dtype=float)
    ones = np.ones((1, y.size))
    return _fit_rows(x, y[None], ones, ones, _one_start(x, y)[None])[0]


def _columns(p, x):
    """The seven parameters of p (7,) or (rows, 7), each shaped to broadcast
    against x, and the shape of the model over them: p's leading axes, then x's."""
    p = np.asarray(p, dtype=float)
    return p.T.reshape(p.shape[::-1] + (1,) * np.ndim(x)), p.shape[:-1] + np.shape(x)


def _evaluate_vector(p, x):
    """The fringe model at x for the parameter vector p, or for each row of a stack p (rows, 7)."""
    (amp, x0, w, k0, phi, vis, bg), grid = _columns(p, x)
    u = x - x0
    out = bg + amp * np.exp(-0.5 * (u / w) ** 2) * (1.0 + vis * np.cos(k0 * u + phi))
    return out.reshape(grid)


def _model_jacobian(p, x, trig=None):
    """Closed-form d(model)/d(p) of ``_evaluate_vector``, shape ([rows,] len(x), 7);
    ``trig`` holds the envelope, cos and sin at p where they are at hand."""
    (amp, x0, w, k0, phi, vis, bg), grid = _columns(p, x)
    u = x - x0
    phase = k0 * u + phi
    env, cos, sin = trig or (np.exp(-0.5 * (u / w) ** 2), np.cos(phase), np.sin(phase))
    shape = env * (1.0 + vis * cos)
    d_phase = -amp * vis * env * sin
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

    Each result is bit for bit that of ``fit_scan`` on the scan alone: the
    scans run in stacks of ``_FIT_STACK_SAMPLES`` scan samples, each
    stack's start points and fits are one stacked solve, and early exits
    are per scan.  Scans on different position grids, or with fewer than
    ``MIN_SCAN_POINTS`` points, raise ValueError.
    """
    scans = list(scans)
    if not scans:
        return []
    x = scans[0].positions_mm
    if not all(np.array_equal(data.positions_mm, x) for data in scans[1:]):
        raise ValueError("scans must share one position grid")
    if x.size < MIN_SCAN_POINTS:
        raise ValueError(f"need at least {MIN_SCAN_POINTS} scan points")
    size = max(1, _FIT_STACK_SAMPLES // x.size)
    return [fit for first in range(0, len(scans), size)
            for fit in _fit_stack(x, scans[first:first + size])]


def _fit_stack(x, scans):
    """``fit_scans`` of one stack of scans on the grid ``x``."""
    results = [_early_exit("degenerate data: all counts zero") if np.all(data.counts == 0)
               else None for data in scans]
    live = [i for i, result in enumerate(results) if result is None]
    rows, starts = [], []
    if live:
        for i, start in zip(live, _start_points(x, np.array([scans[i].rates_cps for i in live]))):
            if isinstance(start, str):
                results[i] = _early_exit(f"initialization failed: {start}")
            elif (x[-1] - x[0]) * start[2] < 2.0 * 2.0 * math.pi:
                results[i] = _early_exit("degenerate data: scan spans fewer than two fringe periods")
            else:
                rows.append(i)
                starts.append(start)
    if rows:
        counts = np.array([scans[i].counts for i in rows], dtype=float)
        durations = np.array([scans[i].durations_s for i in rows])
        fits = _fit_rows(x, counts, np.sqrt(np.maximum(counts, 1.0)), durations, starts)
        for i, fit in zip(rows, fits):
            results[i] = fit
    return results


def fit_scan(data):
    """Fit the fringe model to a coincidence scan (a ``ScanData``) with Poisson weights.

    The fit runs in counts space, so heterogeneous dwell times weigh in
    correctly: residuals are (counts - duration * rate_model) / sqrt(max(counts, 1)).
    Fewer than ``MIN_SCAN_POINTS`` points raise ValueError.  All-zero
    counts, a failed start point, a scan spanning fewer than two fringe
    periods of the estimated wavenumber, a runaway envelope or a stalled
    optimizer yield an explicit non-converged result.  This is
    ``fit_scans`` of a stack of one.
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

    def fun(a):
        model = g * np.exp(-a * c)
        return (model - v) / sig, (-c * model / sig)[..., None], a

    # Moment start: average log-attenuation over informative points.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((v > 0) & (g > 0), v / g, np.nan)
        logr = -np.log(ratio)
    mask = np.isfinite(logr) & (c > 0)
    a0 = float(np.clip(np.nansum(logr[mask]) / max(np.sum(c[mask]), 1e-12), 0.0, 1e3))
    a, r, _, (message,) = _least_squares(fun, [[a0]], 0.0, np.inf)
    red_chi2 = float(r[0] @ r[0] / max(len(pts) - 1, 1))
    return AlphaFitResult(float(a[0, 0]), _curvature_errors(fun(a)[1])[0][0], red_chi2,
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
