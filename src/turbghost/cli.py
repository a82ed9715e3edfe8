"""Command-line interface.

Subcommands: ``analytic`` (visibility-law evaluation), ``kernel``
(coincidence kernel by formula, Monte Carlo or quadrature), ``simulate``
(one synthetic scan), ``fit`` (scan CSV to fit-result JSON), ``campaign``
(full sweep from a config file), ``reproduce`` (figure data files).

Configs are strict JSON; any config flag overrides the file value
(``--set dotted.key=value`` reaches everything).  Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .campaign import (
    FIGURES,
    SEEDED_FIGURE,
    run_campaign,
    reproduce_figure,
    simulate_point,
    write_campaign_csv,
    write_report_json,
)
from .config import (ConfigError, EngineSettings, bundled_config_path, load_config_dict,
                     read_config_json)
from .engine import KlyshkoPath, monte_carlo_g2, quadrature_g2, fit_kernel_sigma
from .fitting import fit_scan, slit_correction
from .model import (
    ObjectPattern,
    OpticsConfig,
    TurbulenceSpec,
    fringe_wavenumber_from_cycles,
    kernel_from_turbulence,
    model_visibility,
    wavenumber,
)
from .scan import MAX_GRID_POINTS, read_scan_csv, write_scan_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

DEFAULT_DISTANCE_MM = 482.0


class NumericalFailure(RuntimeError):
    pass


# Flags that set a config key: flag attribute -> dotted key.
_CONFIG_FLAGS = {"master_seed": "engine.master_seed", "output_dir": "output_dir"}


def _overrides(args):
    """The config keys the command line sets, as (dotted key, value): flags, then each --set."""
    items = [(key, getattr(args, name)) for name, key in _CONFIG_FLAGS.items()
             if getattr(args, name, None) is not None]
    for item in getattr(args, "overrides", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects dotted.key=value, got {item!r}")
        dotted, text = item.split("=", 1)
        items.append((dotted, json.loads(text)))
    return items


def _apply_overrides(raw, overrides):
    """Set each (dotted key, value) of ``overrides`` in ``raw``; null removes a key.

    An integer segment indexes a list, and must lie in it.  A key set
    twice, or inside another key that is set, is a ConfigError naming it."""
    for n, (dotted, value) in enumerate(overrides):
        keys = dotted.split(".")
        for other, _ in overrides[:n]:
            shared = min(len(keys), other.count(".") + 1)
            if keys[:shared] == other.split(".")[:shared]:
                raise ConfigError(f"{max(dotted, other, key=len)}: set more than once")
        node = raw
        for depth, key in enumerate(keys):
            if isinstance(node, list):
                if not (key.isdigit() and int(key) < len(node)):
                    raise ConfigError(f"{dotted}: {key!r} is not an index of "
                                      f"{'.'.join(keys[:depth])}, a list of {len(node)}")
                key = int(key)
            if depth == len(keys) - 1:
                break
            child = node[key] if isinstance(node, list) else node.get(key)
            if not isinstance(child, (dict, list)):
                node[key] = child = {}
            node = child
        if value is None and isinstance(node, dict):
            # null removes the key, so its default or an alternative key applies.
            node.pop(key, None)
        else:
            node[key] = value
    return raw


def _load_config_with_overrides(args):
    raw = read_config_json(args.config or bundled_config_path("paper_unshifted.json"))
    return load_config_dict(_apply_overrides(raw, _overrides(args)))


def _write_or_print(text, output):
    if output:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_analytic(args):
    optics = OpticsConfig(
        wavelength_nm=args.wavelength_nm, system_visibility=args.system_visibility
    )
    # A perfect object (v0 = 1): the law's visibility is the system's alone.
    pattern = ObjectPattern(fringe_wavenumber=fringe_wavenumber_from_cycles(args.cycles_per_mm),
                            intrinsic_visibility=1.0)
    if args.curve:
        if args.effective_distance_mm is not None:
            raise ConfigError("--effective-distance-mm is not read with --curve")
        lo, hi, n = args.curve
        if not (1 <= n <= MAX_GRID_POINTS and n.is_integer()):  # before any allocation
            raise ConfigError(f"--curve N must be a whole number in [1, {MAX_GRID_POINTS}], "
                              f"got {n:g}")
        d = np.linspace(lo, hi, int(n))
        v = model_visibility(optics, pattern, args.alpha_per_mm2, d)
        text = "\n".join(["d_mm,V"] + [f"{di:.10g},{vi:.10g}" for di, vi in zip(d, v)])
    else:
        d = args.effective_distance_mm
        v = model_visibility(optics, pattern, args.alpha_per_mm2,
                             DEFAULT_DISTANCE_MM if d is None else d)
        text = f"{v:.10g}"
    _write_or_print(text, args.output)
    return EXIT_OK


# kernel flags that one method reads: name -> (that method, default).
_KERNEL_FLAGS = {"shift_mm": ("quadrature", 0.0),
                 "source_width_mm": ("quadrature", KlyshkoPath.source_width_mm),
                 "n_realizations": ("mc", 10000), "master_seed": ("mc", EngineSettings.master_seed)}


def _cmd_kernel(args):
    for name, (reader, default) in _KERNEL_FLAGS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.method != reader:
            raise ConfigError(f"--{name.replace('_', '-')} is read only by --method {reader}")
    if args.method == "mc" and not 2 <= args.n_realizations <= MAX_GRID_POINTS:  # before any draw
        raise ConfigError(f"--n-realizations must be in [2, {MAX_GRID_POINTS}], "
                          f"got {args.n_realizations}")
    if args.method == "analytic":
        k = wavenumber(wavelength_nm=args.wavelength_nm)
        kernel = kernel_from_turbulence(args.alpha_per_mm2, args.effective_distance_mm, k)
        if kernel.ideal:
            raise NumericalFailure("ideal kernel has no finite width to tabulate")
        out_sigma = kernel.sigma_mm
        dx = np.linspace(-4 * out_sigma, 4 * out_sigma, 161)
        vals = kernel.value(dx)
        errs = np.zeros_like(vals)
    else:
        optics = OpticsConfig(wavelength_nm=args.wavelength_nm, shift_mm=args.shift_mm)
        spec = TurbulenceSpec.crystal_side(args.alpha_per_mm2, args.effective_distance_mm + args.shift_mm)
        path = KlyshkoPath(optics, spec, source_width_mm=args.source_width_mm)
        if args.method == "mc":
            kernel = monte_carlo_g2(
                path, args.alpha_per_mm2, args.n_realizations, args.master_seed
            )
        else:
            kernel = quadrature_g2(path, args.alpha_per_mm2)
        dx, vals, errs = kernel.offsets_mm, kernel.values, kernel.standard_errors
        out_sigma = fit_kernel_sigma(kernel)
    lines = [f"# fitted_sigma_mm={out_sigma:.10g}", "offset_mm,value,stderr"]
    for o, v, e in zip(dx, vals, errs):
        lines.append(f"{o:.10g},{v:.10g},{e:.10g}")
    _write_or_print("\n".join(lines), args.output)
    return EXIT_OK


def _cmd_simulate(args):
    data = simulate_point(_load_config_with_overrides(args), args.sweep_index)
    out = args.output or "scan.csv"
    write_scan_csv(data, out)
    sys.stdout.write(f"wrote {out}\n")
    return EXIT_OK


def _cmd_fit(args):
    data = read_scan_csv(args.scan)
    result = fit_scan(data)
    if not result.converged:
        sys.stderr.write(f"fit failed: {result.message}\n")
        _write_or_print(result.to_json(indent=2, sort_keys=True), args.output)
        return EXIT_NUMERICAL
    payload = result.to_json_dict()
    if args.slit_width_mm is not None and result.model is not None:
        corrected = slit_correction(
            result.model.visibility, result.model.fringe_wavenumber, args.slit_width_mm
        )
        payload["slit_corrected_visibility"] = corrected
    _write_or_print(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return EXIT_OK


def _cmd_campaign(args):
    config = _load_config_with_overrides(args)
    report = run_campaign(config)
    out_dir = config.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "campaign_report.json")
    csv_path = os.path.join(out_dir, "campaign_points.csv")
    write_report_json(report, json_path)
    write_campaign_csv(report, csv_path)
    failures = [p for p in report.points if p.error]
    sys.stdout.write(
        f"wrote {json_path} and {csv_path}; "
        f"{len(report.points) - len(failures)}/{len(report.points)} points converged\n"
    )
    if failures and len(failures) == len(report.points):
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_reproduce(args):
    if args.master_seed is not None and args.figure != SEEDED_FIGURE:
        raise ConfigError(f"--master-seed is read only by --figure {SEEDED_FIGURE}")
    if args.master_seed is not None and args.master_seed < 0:
        raise ConfigError("--master-seed must be >= 0")
    seeded = {} if args.master_seed is None else {"master_seed": args.master_seed}
    written = reproduce_figure(args.figure, args.output_dir, **seeded)
    for path in written:
        sys.stdout.write(f"wrote {path}\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="turbghost",
        description="Ghost imaging through thin turbulence: simulate, fit, reproduce.",
    )
    parser.add_argument("--version", action="version", version=f"turbghost {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common_phys = argparse.ArgumentParser(add_help=False)
    common_phys.add_argument("--alpha-per-mm2", type=float, default=2.0)
    common_phys.add_argument("--wavelength-nm", type=float, default=650.0)
    common_phys.add_argument("--output", default=None)

    p = sub.add_parser("analytic", parents=[common_phys], help="evaluate the visibility law")
    p.add_argument("--cycles-per-mm", type=float, default=3.6)
    p.add_argument("--system-visibility", type=float, default=1.0)
    p.add_argument("--curve", type=float, nargs=3, metavar=("LO", "HI", "N"), default=None)
    p.add_argument("--effective-distance-mm", type=float, default=None,
                   help=f"single point only, not with --curve (default {DEFAULT_DISTANCE_MM:g})")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("kernel", parents=[common_phys], help="tabulate the coincidence kernel")
    p.add_argument("--method", choices=("analytic", "mc", "quadrature"), default="analytic")
    p.add_argument("--effective-distance-mm", type=float, default=DEFAULT_DISTANCE_MM)
    for name, (reader, default) in _KERNEL_FLAGS.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=None,
                       help=f"--method {reader} only (default {default})")
    p.set_defaults(func=_cmd_kernel)

    common_cfg = argparse.ArgumentParser(add_help=False)
    common_cfg.add_argument("--config", default=None, help="JSON config (default: bundled unshifted)")
    common_cfg.add_argument("--master-seed", type=int, default=None)
    common_cfg.add_argument(
        "--set", dest="overrides", action="append", metavar="KEY=JSON",
        help="override any config key by dotted path, e.g. --set detector.peak_rate_cps=50",
    )

    p = sub.add_parser("simulate", parents=[common_cfg], help="synthesize one scan CSV")
    p.add_argument("--sweep-index", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a scan CSV, print fit-result JSON")
    p.add_argument("scan")
    p.add_argument("--output", default=None)
    p.add_argument("--slit-width-mm", type=float, default=None,
                   help="also report the slit-corrected visibility")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("campaign", parents=[common_cfg], help="run a full sweep campaign")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("reproduce", help="emit figure data files")
    p.add_argument("--figure", choices=FIGURES, required=True)
    p.add_argument("--output-dir", default=".")
    p.add_argument("--master-seed", type=int, default=None,
                   help=f"--figure {SEEDED_FIGURE} only (default {EngineSettings.master_seed})")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except (ArithmeticError, RuntimeError) as exc:  # NumericalFailure included
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


def entrypoint():
    raise SystemExit(main())
