"""The benchmark's four workloads and the checks on their outputs.

Each workload generates its inputs from the seed alone, runs one pass
through turbghost's public API per call of ``run_pass`` (a closed loop:
one client, each call waits for the previous one), and checks the
outputs of a pass against references computed here, with the acceptance
suite's tolerances where it has one.  Calls go through module attributes
(``campaign.run_campaign``, not a captured reference) so that the traced
run's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import turbghost  # noqa: F401  (set-up time includes the package import)
from turbghost import campaign, cli, config, engine, fitting, model, scan, screens

K = model.OpticsConfig().k
K0 = model.fringe_wavenumber_from_cycles(3.6)
G_BY_LABEL = {"unshifted": 1.0, "shifted": 0.65}
PROCESS_TIMEOUT_S = 120

# Acceptance-suite tolerances.
KERNEL_SIGMA_TOL = 0.02  # criteria 3 and 4
SOURCE_WIDTH_SENSITIVITY_TOL = 0.005  # criterion 4
STRUCTURE_RATIO_BAND = (0.95, 1.05)  # criterion 8
SLOPE_LINEARITY_TOL = 5e-3  # test_engine::test_displacement_linear_in_slope
# fit_kernel_sigma against the benchmark's own solve of the same problem;
# the two solvers agree to ~3e-7 over 80 master seeds.
FIT_AGREEMENT_TOL = 1e-5
# Statistical bands, in standard errors of the quantity checked.  Wide
# enough that a correct program fails a check on fewer than ~1e-4 seeds.
Z_POINT = 5.0
Z_ALPHA = 5.0
Z_STRUCTURE = 5.0
Z_SPREAD = 5.0


def _rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence((int(seed), tag)))


def finite_envelope_visibility(g, alpha, d, k, k0, envelope_width_mm):
    """Visibility of a Gaussian-envelope fringe convolved with the Gaussian kernel.

    Convolving exp(-x^2/2w^2) cos(k0 x) with a Gaussian of width s gives
    fringe contrast exp(-k0^2 s^2 / (2 (1 + s^2/w^2))) relative to the
    broadened envelope; the closed form drops the s^2/w^2 term.  Kernel
    mode synthesizes scans by exactly this convolution.
    """
    s2 = alpha * d * d / (k * k)
    return g * math.exp(-k0 * k0 * s2 / (2.0 * (1.0 + s2 / envelope_width_mm**2)))


def _closed_form(g, alpha, d):
    return g * math.exp(-alpha * d * d / (2.0 * (K / K0) ** 2))


class Workload:
    name = ""

    def __init__(self, workdir):
        self.workdir = workdir
        self.in_process = False  # cli only: also run each command via cli.main

    def latencies(self, out):
        """Per-invocation times inside a pass; only the CLI has them."""
        return []

    def same(self, first, other):
        return self.digest(first) == self.digest(other)


# --- sweep ---------------------------------------------------------------


def _sweep_config(rng, label, alpha, mode, n_points):
    shifted = label == "shifted"
    sweep = []
    for _ in range(n_points):
        distance = float(rng.uniform(50.0, 482.0))
        if rng.random() < 0.5:
            sweep.append({"placement": "crystal_side", "l1_mm": distance, "alpha_per_mm2": alpha})
        else:
            sweep.append({"placement": "object_side", "distance_from_object_mm": distance,
                          "alpha_per_mm2": alpha})
    return {
        "schema_version": 1,
        "label": label,
        "optics": {"shift_mm": 330.0 if shifted else 0.0,
                   "system_visibility": G_BY_LABEL[label]},
        "detector": {"peak_rate_cps": 50.0 if shifted else 200.0},
        "turbulence_sweep": sweep,
        "engine": {"master_seed": int(rng.integers(2**31)), "scan_points": 160,
                   "mode": mode, "source_width_mm": 12.0 if shifted else 4.0},
    }


class Sweep(Workload):
    """Two ~150-point campaigns, then fit_alpha over all their points.

    Kernel mode runs on the unshifted optics (g = 1) and analytic mode on
    the shifted optics (g = 0.65): kernel-mode scans do not apply the
    system visibility g, so shifted optics in kernel mode would fail most
    point checks.  That defect is recorded in bench/README.md.
    """

    name = "sweep"
    unit = "campaign point"
    n_points = 150

    def make_inputs(self, seed):
        rng = _rng(seed, 1)
        alpha = float(rng.uniform(1.5, 2.5))
        raws = [_sweep_config(rng, "unshifted", alpha, "kernel", self.n_points),
                _sweep_config(rng, "shifted", alpha, "analytic", self.n_points)]
        return {"alpha": alpha, "raws": raws}

    def warm_up(self, inp):
        small = [dict(raw, turbulence_sweep=raw["turbulence_sweep"][:2]) for raw in inp["raws"]]
        self.run_pass({"raws": small}, None)

    def run_pass(self, inp, tr):
        reports = [campaign.run_campaign(config.load_config_dict(raw)) for raw in inp["raws"]]
        points = [p.to_visibility_point(r.config_echo["label"])
                  for r in reports for p in r.points if p.converged]
        alpha_fit = fitting.fit_alpha(points, G_BY_LABEL, K, K0)
        return {"reports": reports, "alpha_fit": alpha_fit}

    def units(self, out):
        return sum(len(r.points) for r in out["reports"])

    def digest(self, out):
        docs = []
        for r in out["reports"]:
            doc = r.to_json_dict()
            doc.pop("runtime_s")
            docs.append(doc)
        return json.dumps([docs, out["alpha_fit"].to_json_dict()], sort_keys=True)

    def check(self, inp, out):
        """Per point: converged, corrected V within Z_POINT sigma of the law the
        mode implements.  Per report: the model curve equals the closed form.
        fit_alpha: within Z_ALPHA sigma of the alpha the same law gives."""
        alpha = inp["alpha"]
        failures, attempted = [], 0
        reference_points = []
        for raw, report in zip(inp["raws"], out["reports"]):
            label = raw["label"]
            g = G_BY_LABEL[label]
            kernel_mode = raw["engine"]["mode"] == "kernel"
            for p in report.points:
                attempted += 1
                if not p.converged:
                    failures.append(f"{label} point {p.index}: {p.error}")
                    continue
                d = p.effective_distance_mm
                ref = (finite_envelope_visibility(g, alpha, d, K, K0, 0.4) if kernel_mode
                       else _closed_form(g, alpha, d))
                if abs(p.corrected_visibility - ref) > Z_POINT * p.corrected_sigma:
                    failures.append(f"{label} point {p.index}: V {p.corrected_visibility:.4f} "
                                    f"+- {p.corrected_sigma:.4f}, expected {ref:.4f}")
                reference_points.append(
                    model.VisibilityPoint(d, min(ref, 1.0), p.corrected_sigma, label))
            attempted += 1
            curve = np.array([_closed_form(g, alpha, d) for d in report.curve_distances_mm])
            if not np.allclose(report.curve_visibilities, curve, rtol=1e-12, atol=0.0):
                failures.append(f"{label} model curve differs from the closed form")
        attempted += 1
        fit = out["alpha_fit"]
        expected = fitting.fit_alpha(reference_points, G_BY_LABEL, K, K0).alpha_per_mm2
        if not (fit.converged and abs(fit.alpha_per_mm2 - expected) <= Z_ALPHA * fit.alpha_sigma):
            failures.append(f"fit_alpha {fit.alpha_per_mm2:.4f} +- {fit.alpha_sigma:.4f}, "
                            f"expected {expected:.4f} (swept {alpha:.4f})")
        return attempted, failures


# --- kernels -------------------------------------------------------------

CRITERION3_GRID = [(a, d) for a in (0.5, 2.0, 2.5) for d in (50.0, 152.0, 203.0, 482.0)]
CRITERION4_POINTS = ((0.5, 482.0, 0.0, 4.0), (2.0, 482.0, 0.0, 4.0), (2.0, 152.0, 330.0, 12.0))
MC_SCREENS = 10_000
MC_POINTS = 4


def crystal_path(alpha, d, shift=0.0, ws=4.0):
    optics = model.OpticsConfig(shift_mm=shift, system_visibility=0.65 if shift else 1.0)
    spec = model.TurbulenceSpec.crystal_side(alpha, d + shift)
    return engine.KlyshkoPath(optics, spec, source_width_mm=ws)


def reference_slopes(master_seed, n, alpha):
    """Tilt slopes per the documented seed derivation, drawn independently here."""
    root = math.sqrt(alpha)
    return np.array([
        np.random.default_rng(np.random.SeedSequence((int(master_seed), i))).standard_normal() * root
        for i in range(n)
    ])


class Kernels(Workload):
    """quadrature_g2 at the criterion-4 points (w_s and 2 w_s), then
    monte_carlo_g2 (N = 10^4) at seeded criterion-3 points; every kernel
    goes through fit_kernel_sigma."""

    name = "kernels"
    unit = "kernel"

    def make_inputs(self, seed):
        rng = _rng(seed, 2)
        picks = rng.choice(len(CRITERION3_GRID), size=MC_POINTS, replace=False)
        return {"mc_points": [CRITERION3_GRID[i] for i in picks],
                "mc_master": int(rng.integers(2**31))}

    def warm_up(self, inp):
        engine.fit_kernel_sigma(engine.quadrature_g2(crystal_path(2.0, 482.0), 2.0))
        engine.fit_kernel_sigma(engine.monte_carlo_g2(crystal_path(2.0, 482.0), 2.0, 200, 1))

    def run_pass(self, inp, tr):
        quad = []
        for alpha, d, shift, ws in CRITERION4_POINTS:
            for width in (ws, 2.0 * ws):
                kern = engine.quadrature_g2(crystal_path(alpha, d, shift, width), alpha)
                quad.append((alpha, d, width, kern, engine.fit_kernel_sigma(kern)))
        mc = []
        for alpha, d in inp["mc_points"]:
            kern = engine.monte_carlo_g2(crystal_path(alpha, d), alpha, MC_SCREENS, inp["mc_master"])
            mc.append((alpha, d, kern, engine.fit_kernel_sigma(kern)))
        return {"quad": quad, "mc": mc}

    def units(self, out):
        return len(out["quad"]) + len(out["mc"])

    def digest(self, out):
        rows = [(a, d, w, k.values.tobytes(), k.standard_errors.tobytes(), s)
                for a, d, w, k, s in out["quad"]]
        rows += [(a, d, k.values.tobytes(), s) for a, d, k, s in out["mc"]]
        return rows

    def check(self, inp, out):
        """Quadrature: sigma within 2% of the closed form, w_s doubling moves it
        by at most 0.5% (criterion 4).  Monte Carlo: the kernel is the
        histogram of the slopes the seed derivation defines (bit-exact), the
        slopes' spread is within Z_SPREAD standard errors of the closed-form
        width, and fit_kernel_sigma returns the optimum of its weighted
        Gaussian least-squares problem, solved here independently."""
        failures, attempted = [], 0
        quad = out["quad"]
        for alpha, d, width, _kern, sigma in quad:
            attempted += 1
            dev = sigma / model.kernel_sigma(alpha, d, K) - 1.0
            if abs(dev) > KERNEL_SIGMA_TOL:
                failures.append(f"quadrature a={alpha} d={d} ws={width}: sigma off by {dev:.2%}")
        for (alpha, d, _w, _k, s1), (_a, _d, _w2, _k2, s2) in zip(quad[0::2], quad[1::2]):
            attempted += 1
            if abs(s2 / s1 - 1.0) > SOURCE_WIDTH_SENSITIVITY_TOL:
                failures.append(f"quadrature a={alpha} d={d}: w_s doubling moved sigma "
                                f"by {s2 / s1 - 1.0:.2%}")
        unit_slopes = reference_slopes(inp["mc_master"], MC_SCREENS, 1.0)
        for alpha, d, kern, sigma in out["mc"]:
            attempted += 1
            path = crystal_path(alpha, d)
            displacements = -(unit_slopes * math.sqrt(alpha)) * path.effective_distance_mm / path.k
            spread = float(displacements.std())
            span = 8.0 * max(spread, 1e-4)
            counts, _ = np.histogram(displacements, bins=np.linspace(-span / 2, span / 2, 82))
            exact = np.array_equal(kern.values, counts / counts.max())
            fit_dev = sigma / reference_kernel_fit(kern, spread) - 1.0
            spread_z = (spread / model.kernel_sigma(alpha, d, K) - 1.0) * math.sqrt(2.0 * MC_SCREENS)
            if not exact or abs(fit_dev) > FIT_AGREEMENT_TOL or abs(spread_z) > Z_SPREAD:
                failures.append(f"monte carlo a={alpha} d={d}: exact histogram {exact}, "
                                f"fit vs reference fit {fit_dev:.2e}, "
                                f"spread {spread_z:.1f} SE from law")
        return attempted, failures


def reference_kernel_fit(kernel, sigma_start):
    """Width of the Gaussian that fit_kernel_sigma documents, by another solver.

    Least squares of amplitude * exp(-(dx - mu)^2 / (2 sigma^2)) against the
    kernel values, each residual divided by its standard error (1 where the
    error is 0), solved with the trust-region method to tight tolerances.
    """
    from scipy import optimize  # here, so set-up time imports only what turbghost does

    x, y = kernel.offsets_mm, kernel.values
    w = np.where(kernel.standard_errors > 0, kernel.standard_errors, 1.0)

    def resid(p):
        return (p[0] * np.exp(-((x - p[1]) ** 2) / (2.0 * p[2] ** 2)) - y) / w

    sol = optimize.least_squares(resid, [1.0, 0.0, sigma_start], method="trf",
                                 xtol=1e-12, ftol=1e-12, gtol=1e-12)
    return abs(float(sol.x[2]))


# --- screens -------------------------------------------------------------

POWERLAW_P = 5.0 / 3.0
POWERLAW_GRID = np.arange(256) * 0.0125
POWERLAW_SCREENS = 300
POWERLAW_R = 0.1
TILT_SCREENS = 10_000
TILT_SEPARATIONS = np.array([0.05, 0.1, 0.2, 0.35, 0.5])
AMPLITUDE_X2_POINTS = 9
AMPLITUDE_HALF_WINDOW_MM = 0.002


def amplitude_path():
    """Shifted optics, d = 482 mm, w_s = 12 mm."""
    return crystal_path(2.0, 482.0, shift=330.0, ws=12.0)


def _peak(x2, intensity):
    """Peak of |A|^2 by a parabola through the log of the three top samples."""
    i = int(np.argmax(intensity))
    if not 0 < i < len(x2) - 1:
        return None
    lo, mid, hi = np.log(intensity[i - 1:i + 2])
    return float(x2[i] + (x2[1] - x2[0]) * 0.5 * (lo - hi) / (lo - 2.0 * mid + hi))


class Screens(Workload):
    """Power-law and tilt ensembles with their structure functions, then a
    per-screen klyshko_amplitude_quadrature x2 scan for two tilt slopes."""

    name = "screens"
    unit = "ensemble, estimate or amplitude point"

    def make_inputs(self, seed):
        rng = _rng(seed, 3)
        slope = float(rng.uniform(0.3, 0.6))
        return {
            "powerlaw_alpha": float(rng.uniform(0.5, 2.0)),
            "powerlaw_master": int(rng.integers(2**31)),
            "tilt_alpha": float(rng.uniform(0.5, 2.5)),
            "tilt_master": int(rng.integers(2**31)),
            "slopes": (slope, slope * float(rng.uniform(1.5, 2.5))),
        }

    def warm_up(self, inp):
        ens = screens.ScreenEnsemble.powerlaw(1.0, POWERLAW_P, POWERLAW_GRID, 4, 1)
        screens.estimate_structure_function(ens, [POWERLAW_R])
        screens.estimate_structure_function(screens.ScreenEnsemble.tilts(1.0, 50, 1), TILT_SEPARATIONS)
        engine.klyshko_amplitude_quadrature(0.0, 0.0, screens.TiltScreen(0.4), amplitude_path())

    def run_pass(self, inp, tr):
        with tr.span("screens.ScreenEnsemble.powerlaw"):
            powerlaw = screens.ScreenEnsemble.powerlaw(
                inp["powerlaw_alpha"], POWERLAW_P, POWERLAW_GRID, POWERLAW_SCREENS,
                inp["powerlaw_master"])
        powerlaw_sf = screens.estimate_structure_function(powerlaw, [POWERLAW_R])
        with tr.span("screens.ScreenEnsemble.tilts"):
            tilts = screens.ScreenEnsemble.tilts(inp["tilt_alpha"], TILT_SCREENS, inp["tilt_master"])
        tilt_sf = screens.estimate_structure_function(tilts, TILT_SEPARATIONS)
        path = amplitude_path()
        scans = []
        for slope in inp["slopes"]:
            guess = -slope * path.effective_distance_mm / path.k
            x2 = guess + np.linspace(-AMPLITUDE_HALF_WINDOW_MM, AMPLITUDE_HALF_WINDOW_MM,
                                     AMPLITUDE_X2_POINTS)
            screen = screens.TiltScreen(slope)
            intensity = np.array([
                abs(engine.klyshko_amplitude_quadrature(0.0, x, screen, path)) ** 2 for x in x2])
            scans.append((x2, intensity))
        return {"powerlaw_sf": powerlaw_sf, "tilt_sf": tilt_sf, "scans": scans}

    def units(self, out):
        return 4 + AMPLITUDE_X2_POINTS * len(out["scans"])

    def digest(self, out):
        parts = [out["powerlaw_sf"].values.tobytes(), out["powerlaw_sf"].standard_errors.tobytes(),
                 out["tilt_sf"].values.tobytes()]
        parts += [intensity.tobytes() for _x2, intensity in out["scans"]]
        return parts

    def check(self, inp, out):
        """Power law: D(0.1) within Z_STRUCTURE standard errors of alpha r^p.
        Tilts: D(r)/(alpha r^2) in [0.95, 1.05] (criterion 8).  Amplitude:
        peak displacement proportional to slope within 5e-3."""
        failures = []
        sf = out["powerlaw_sf"]
        expected = inp["powerlaw_alpha"] * POWERLAW_R**POWERLAW_P
        if not (sf.valid[0] and abs(sf.values[0] - expected) <= Z_STRUCTURE * sf.standard_errors[0]):
            failures.append(f"power-law D({POWERLAW_R}) {sf.values[0]:.5f} +- "
                            f"{sf.standard_errors[0]:.5f}, expected {expected:.5f}")
        ratios = out["tilt_sf"].values / (inp["tilt_alpha"] * TILT_SEPARATIONS**2)
        lo, hi = STRUCTURE_RATIO_BAND
        if not np.all((ratios >= lo) & (ratios <= hi)):
            failures.append(f"tilt D(r)/(alpha r^2) in [{ratios.min():.4f}, {ratios.max():.4f}]")
        peaks = [_peak(x2, intensity) for x2, intensity in out["scans"]]
        s1, s2 = inp["slopes"]
        if None in peaks or abs((peaks[1] / peaks[0]) / (s2 / s1) - 1.0) > SLOPE_LINEARITY_TOL:
            failures.append(f"amplitude peaks {peaks} not proportional to slopes {s1:.4f}, {s2:.4f}")
        return 3, failures


# --- cli -----------------------------------------------------------------

CLI_BOOTSTRAP = "from turbghost.cli import entrypoint; entrypoint()"


class Cli(Workload):
    """Fresh-interpreter CLI invocations, one after another."""

    name = "cli"
    unit = "CLI invocation"

    def __init__(self, workdir):
        super().__init__(workdir)
        src = os.path.dirname(os.path.dirname(os.path.abspath(turbghost.__file__)))
        self.env = {key: value for key, value in os.environ.items() if key != "TURBGHOST_WORKERS"}
        self.env["PYTHONPATH"] = src

    def make_inputs(self, seed):
        rng = _rng(seed, 4)
        alpha = repr(float(rng.uniform(0.5, 2.5)))
        g = repr(float(rng.choice([1.0, 0.65])))
        master = str(int(rng.integers(2**31)))
        w = self.workdir
        commands = [
            ["analytic", "--alpha-per-mm2", alpha, "--system-visibility", g,
             "--effective-distance-mm", repr(float(rng.uniform(50.0, 482.0)))],
            ["analytic", "--alpha-per-mm2", alpha, "--system-visibility", g,
             "--curve", "0", "250", "251"],
            ["simulate", "--master-seed", master, "--sweep-index", str(int(rng.integers(5))),
             "--output", os.path.join(w, "scan.csv")],
            ["fit", os.path.join(w, "scan.csv"), "--output", os.path.join(w, "fit.json")],
        ]
        for label in ("unshifted", "shifted"):
            commands.append(["campaign", "--config", config.bundled_config_path(f"paper_{label}.json"),
                             "--master-seed", master,
                             "--output-dir", os.path.join(w, f"campaign_{label}")])
        return {"commands": commands}

    def invoke(self, argv):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI_BOOTSTRAP, *argv], cwd=self.workdir,
                              env=self.env, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
        return proc.returncode, proc.stdout, time.perf_counter() - start

    def warm_up(self, inp):
        self.invoke(inp["commands"][0])

    def run_pass(self, inp, tr):
        runs = []
        for argv in inp["commands"]:
            with tr.span("cli.invoke." + argv[0]):
                runs.append(self.invoke(argv))
        in_process = []
        if self.in_process:
            for argv in inp["commands"]:
                with tr.span("cli.main." + argv[0]), contextlib.redirect_stdout(io.StringIO()) as buf:
                    code = cli.main(argv)
                in_process.append((code, buf.getvalue()))
        return {"runs": runs, "in_process": in_process, "files": self._read_outputs()}

    def _read_outputs(self):
        files = {}
        for name in ("scan.csv", "fit.json", "campaign_unshifted/campaign_report.json",
                     "campaign_unshifted/campaign_points.csv",
                     "campaign_shifted/campaign_report.json", "campaign_shifted/campaign_points.csv"):
            with open(os.path.join(self.workdir, name), encoding="ascii") as fh:
                text = fh.read()
            if name.endswith("report.json"):
                doc = json.loads(text)
                doc.pop("runtime_s")
                text = json.dumps(doc, sort_keys=True)
            files[name] = text
        return files

    def units(self, out):
        return len(out["runs"])

    def latencies(self, out):
        return [elapsed for _code, _stdout, elapsed in out["runs"]]

    def digest(self, out):
        return ([(code, stdout) for code, stdout, _ in out["runs"]], out["files"])

    def same(self, first, other):
        in_process_ok = all(code == 0 and stdout == run[1] for (code, stdout), run
                            in zip(other["in_process"], other["runs"]))
        return in_process_ok and self.digest(first) == self.digest(other)

    def check(self, inp, out):
        """Exit code 0 and output equal to the in-process public API's."""
        commands = inp["commands"]
        expected = self._reference_outputs(commands)
        failures = []
        for argv, (code, stdout, _), want in zip(commands, out["runs"], expected):
            if code != 0:
                failures.append(f"{argv[0]} exited {code}")
            elif want is not None and stdout != want:
                failures.append(f"{argv[0]} printed {stdout[:60]!r}, expected {want[:60]!r}")
        for name, text in self._reference_files(commands).items():
            if out["files"][name] != text:
                failures.append(f"{name} differs from the in-process result")
        return len(commands), failures

    @staticmethod
    def _value(argv, flag):
        return float(argv[argv.index(flag) + 1])

    def _reference_outputs(self, commands):
        point, curve = commands[0], commands[1]
        alpha = self._value(point, "--alpha-per-mm2")
        g = self._value(point, "--system-visibility")
        v = model.fringe_visibility(g, alpha, self._value(point, "--effective-distance-mm"), K, K0)
        lines = ["d_mm,V"] + [f"{d:.10g},{model.fringe_visibility(g, alpha, d, K, K0):.10g}"
                              for d in np.linspace(0.0, 250.0, 251)]
        return [f"{v:.10g}\n", "\n".join(lines) + "\n", None, None, None, None]

    def _reference_files(self, commands):
        simulate, _fit, *campaigns = commands[2:]
        files = {}
        cfg = self._bundled(config.bundled_config_path("paper_unshifted.json"),
                            int(simulate[simulate.index("--master-seed") + 1]), None)
        index = int(simulate[simulate.index("--sweep-index") + 1])
        spec = cfg.sweep[index]
        data = scan.simulate_scan(
            engine.KlyshkoPath(cfg.optics, spec, source_width_mm=cfg.engine.source_width_mm),
            spec.alpha_per_mm2, cfg.pattern, cfg.detector,
            seed=campaign.point_seed(cfg.engine.master_seed, index),
            n_positions=cfg.engine.scan_points, center_mm=cfg.engine.scan_center_mm,
            mode=cfg.engine.mode)
        reference_scan = os.path.join(self.workdir, "reference_scan.csv")
        scan.write_scan_csv(data, reference_scan)
        with open(reference_scan, encoding="ascii") as fh:
            files["scan.csv"] = fh.read()
        fit = fitting.fit_scan(scan.read_scan_csv(reference_scan))
        files["fit.json"] = json.dumps(fit.to_json_dict(), indent=2, sort_keys=True) + "\n"
        for argv in campaigns:
            out_dir = argv[argv.index("--output-dir") + 1]
            cfg = self._bundled(argv[argv.index("--config") + 1],
                                int(argv[argv.index("--master-seed") + 1]), out_dir)
            report = campaign.run_campaign(cfg)
            doc = report.to_json_dict()
            doc.pop("runtime_s")
            label = os.path.basename(out_dir)
            files[f"{label}/campaign_report.json"] = json.dumps(doc, sort_keys=True)
            reference_csv = os.path.join(self.workdir, "reference_points.csv")
            campaign.write_campaign_csv(report, reference_csv)
            with open(reference_csv, encoding="ascii") as fh:
                files[f"{label}/campaign_points.csv"] = fh.read()
        return files

    @staticmethod
    def _bundled(path, master_seed, output_dir):
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw.setdefault("engine", {})["master_seed"] = master_seed
        if output_dir:
            raw["output_dir"] = output_dir
        return config.load_config_dict(raw)

    def import_probes(self, repeats=3):
        """Fresh-interpreter import time of turbghost.cli, and the cumulative
        import time of its heavy dependencies from ``-X importtime``."""
        code = "import time; t = time.perf_counter(); import turbghost.cli; print(time.perf_counter() - t)"
        samples = []
        for _ in range(repeats):
            proc = subprocess.run([sys.executable, "-c", code], env=self.env, capture_output=True,
                                  text=True, timeout=PROCESS_TIMEOUT_S, check=True)
            samples.append(float(proc.stdout.strip()))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import turbghost.cli"],
                              env=self.env, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                try:
                    cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
                except ValueError:
                    continue  # the header row
        return {
            "cli.import_s": (statistics.median(samples), "s"),
            "cli.import.numpy_s": (cumulative.get("numpy", 0.0), "s"),
            "cli.import.scipy_optimize_s": (cumulative.get("scipy.optimize", 0.0), "s"),
            "cli.import.scipy_special_s": (cumulative.get("scipy.special", 0.0), "s"),
        }


WORKLOADS = {w.name: w for w in (Sweep, Kernels, Screens, Cli)}
