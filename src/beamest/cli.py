"""Command-line interface: run sweeps, dump the LUT, bound a realization, demo a trial."""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import replace
from typing import Optional, Sequence

from .arrays import mu_to_theta_deg
from .coarse import build_lut
from .crlb import crlb_bounds, fisher_matrix, parameter_index
from .errors import ConfigurationError
from .harness import (RunConfig, load_config, run_sweep, run_trial, synthesize_trial,
                      write_outputs)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

FLAGS = {
    "--config": dict(default="default", help="path to a JSON run config, or 'default'"),
    "--seed": dict(type=int, default=None, help="master seed override"),
    "--snr": dict(default=None, help="comma-separated SNR sweep in dB, e.g. '-10,0,10,20'"),
    "--trials": dict(type=int, default=None, help="trials per SNR point"),
    "--out": dict(default=None, help="output path override"),
    "--threads": dict(type=int, default=None,
                      help="worker processes (overrides the THREADS env var)"),
}

# each subcommand takes only the flags it reads
SUBCOMMANDS = (
    ("run", "full Monte-Carlo sweep to CSV", tuple(FLAGS)),
    ("lut", "dump the beam-ratio LUT to CSV", ("--config", "--out")),
    ("crlb", "bounds for one drawn realization", ("--config", "--seed", "--snr")),
    ("demo", "one verbose trial: truth vs coarse vs refined", ("--config", "--seed", "--snr")),
)
# crlb and demo read one SNR point: the config's first, or the one --snr names
ONE_POINT = {"crlb", "demo"}
ONE_POINT_SNR = dict(default=None,
                     help="one SNR point in dB (default: the config's first sweep point)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamest",
        description="Two-stage beam-domain channel parameter estimation "
                    "(coarse DFT-grid stage plus SAGE refinement) with "
                    "Cramer-Rao bounds and a seeded Monte-Carlo harness.")
    sub = parser.add_subparsers(dest="command")
    for name, help_text, flags in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            one_point = flag == "--snr" and name in ONE_POINT
            p.add_argument(flag, **(ONE_POINT_SNR if one_point else FLAGS[flag]))
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    # a flag the subcommand does not take is absent from ``args``
    seed, snr, trials, out = (vars(args).get(k) for k in ("seed", "snr", "trials", "out"))
    if seed is not None:
        cfg = replace(cfg, scenario=replace(cfg.scenario, seed=seed))
    if snr is not None:
        try:
            sweep = tuple(float(tok) for tok in snr.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigurationError(f"bad --snr list {snr!r}: {exc}") from exc
        if not sweep:
            raise ConfigurationError("--snr produced an empty sweep")
        if args.command in ONE_POINT and len(sweep) > 1:
            raise ConfigurationError(
                f"{args.command} takes one SNR point, got --snr {snr!r}")
        cfg = replace(cfg, snr_sweep_db=sweep)
    if trials is not None:
        cfg = replace(cfg, trials=trials)
    if out is not None:
        cfg = replace(cfg, output_path=out)
    return cfg


def _resolve_threads(args) -> int:
    if args.threads is not None:
        threads, source = args.threads, "--threads"
    else:
        env = os.environ.get("THREADS", "").strip()
        if not env:
            return 1
        try:
            threads, source = int(env), "THREADS"
        except ValueError as exc:
            raise ConfigurationError(f"bad THREADS value {env!r}") from exc
    if threads < 1:
        raise ConfigurationError(f"{source} must be at least 1, got {threads}")
    return threads


def _cmd_run(cfg: RunConfig, args) -> int:
    threads = _resolve_threads(args)
    t0 = time.perf_counter()
    rows, records = run_sweep(cfg, threads=threads)
    wall_s = time.perf_counter() - t0
    path = write_outputs(cfg, rows, records, wall_s=wall_s, threads=threads)
    print(f"wrote {path} ({len(rows)} rows, {cfg.trials} trials x "
          f"{len(cfg.snr_sweep_db)} SNR points, threads={threads})")
    return EXIT_OK


def _cmd_lut(cfg: RunConfig, args) -> int:
    lut = build_lut(cfg.array, cfg.coarse.k_points)
    out = args.out
    fh = open(out, "w", encoding="utf-8", newline="") if out else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("l", "mu_offset_rad", "ratio"))
        for l, ratio in enumerate(lut.ratios):
            writer.writerow((l, format(l * lut.delta_mu, ".12g"), format(ratio, ".12g")))
    finally:
        if out:
            fh.close()
    if out:
        print(f"wrote {out} ({lut.k_points + 2} rows)")
    return EXIT_OK


def _cmd_crlb(cfg: RunConfig, args) -> int:
    # trial 0 at the first SNR point and its effective noise, as the harness draws them
    real, _, noise = synthesize_trial(cfg, 0, 0)
    report = crlb_bounds(fisher_matrix(replace(real, noise_var=noise), cfg.array, cfg.cazac))
    print(f"# condition number {report.condition_number:.6g}, "
          f"invertible={report.invertible}")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("path", "parameter", "truth", "sqrt_crlb"))
    names = (("re", "gain_re"), ("im", "gain_im"), ("mu", "mu_rad"), ("tau", "tau_symbols"))
    gains = real.gains()
    for r, p in enumerate(real.paths):
        truths = {"gain_re": gains[r].real, "gain_im": gains[r].imag,
                  "mu_rad": p.mu, "tau_symbols": p.tau_symbols}
        for kind, label in names:
            bound = report.bounds[parameter_index(kind, r, real.r)]
            writer.writerow((r, label, format(truths[label], ".10g"),
                             format(bound, ".10g") if report.invertible else "nan"))
    return EXIT_OK


def _cmd_demo(cfg: RunConfig, args) -> int:
    snr_db = float(cfg.snr_sweep_db[0])
    print(f"single trial at SNR {snr_db:+.1f} dB, seed {cfg.scenario.seed}")
    rec = run_trial(cfg, 0, 0)
    print(f"truth paths ({len(rec.truth)}):")
    for i, (theta, gain, tau) in enumerate(rec.truth):
        print(f"  [{i}] theta {theta:+8.3f} deg  tau {tau:7.3f} sym  |gain| {abs(gain):.4f}")
    if rec.detection_status == "no_detection":
        print("no delay cleared the detection threshold")
        return EXIT_OK
    print(f"coarse estimate (model order {rec.r_hat}):")
    for i, (tau_int, mu, peak, beam, _) in enumerate(rec.coarse):
        print(f"  [{i}] theta {mu_to_theta_deg(mu):+8.3f} deg  tau {tau_int:7d} sym  "
              f"beam {beam:2d}  peak {peak:12.2f}")
    print(f"refined estimate ({rec.sage_iterations} iterations, "
          f"converged={rec.detection_status == 'ok'}):")
    for i, (mu, tau, gain) in enumerate(rec.refined):
        print(f"  [{i}] theta {mu_to_theta_deg(mu):+8.3f} deg  "
              f"tau {tau:7.3f} sym  |gain| {abs(gain):.4f}")
    print(f"detection status: {rec.detection_status}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    if not argv:
        parser.print_help()
        return EXIT_CONFIG
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse printed the help (code 0) or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        handler = {"run": _cmd_run, "lut": _cmd_lut, "crlb": _cmd_crlb, "demo": _cmd_demo}
        return handler[args.command](cfg, args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
