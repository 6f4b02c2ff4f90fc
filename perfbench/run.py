"""Layered Monte-Carlo benchmark of beamest.

Run from the repository root:

    python3 perfbench/run.py --workload accept_sweep --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics on unmodified library code:
trial throughput and per-trial latency over ``--seconds`` of sweeping fresh
blocks, the set-up time of a fresh process and peak memory.  ``--trace 1``
measures the per-layer metrics on the workload's first block instead, in
rounds for ``--seconds``: a kernel micro-suite, the block untraced on one
worker and on the two-worker pool, and the block again with spans around
every pipeline stage.  Times are scaled to a fixed machine speed (see
calibrate.py).  Both modes check the results CSV and exit with code 1 if a
check fails.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import beamest
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import beamest from {SRC}: {exc}")
if Path(beamest.__file__).resolve().parent.parent != SRC.resolve():
    raise SystemExit(f"perfbench: beamest was imported from {beamest.__file__}, not {SRC}")

import numpy as np  # noqa: E402

from beamest import harness, run_sweep  # noqa: E402
from beamest.harness import aggregate_snr, rows_to_csv_bytes  # noqa: E402

import calibrate  # noqa: E402
from checks import csv_problems  # noqa: E402
from kernels import batch_size, kernel_cases, time_batch  # noqa: E402
from spans import STAGES, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

POOL_WORKERS = 2
SETUP_RUNS = 5
# reference loops timed around a pool sweep or a kernel batch
SCALE_REPEATS = 5
# criterion 7 of the acceptance suite: reflected-path delay RMSE within 5 dB of the bound
DELAY_RMSE_LIMIT = 10.0 ** (5.0 / 20.0)

SETUP_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
import beamest
from workloads import WORKLOADS
beamest.run_trial(WORKLOADS[sys.argv[3]].config(int(sys.argv[4]), 0), 0, 0)
"""


@dataclass
class Block:
    """One sweep block's outputs; times are reference-speed seconds unless raw."""

    rows: list
    records: list
    latencies: List[float]     # per successful trial (1-worker runs only)
    scales: List[float]        # the calibration factor of each of those trials
    wall: float                # whole block
    raw_wall: float
    failed: int

    @property
    def csv(self) -> bytes:
        return rows_to_csv_bytes(self.rows)


def _finite(rec) -> bool:
    return all(math.isfinite(v) for mu, tau, alpha in rec.refined
               for v in (mu, tau, alpha.real, alpha.imag))


def run_serial(cfg, tracer: Tracer | None = None) -> Block:
    """``run_trial`` per task in ``run_sweep``'s order, then ``aggregate_snr`` per SNR point."""
    call = tracer.call if tracer else (lambda _name, fn, *args: fn(*args))
    records, latencies, scales, rows, failed = [], [], [], [], 0
    raw_wall = 0.0
    for s, snr in enumerate(cfg.snr_sweep_db):
        chunk = []
        for t in range(cfg.trials):
            k = calibrate.scale(2)
            t0 = perf_counter()
            try:
                rec = call("run_trial", harness.run_trial, cfg, s, t)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            dt = perf_counter() - t0
            latencies.append(dt * k)
            scales.append(k)
            raw_wall += dt
            failed += not _finite(rec)
            chunk.append(rec)
        rows.extend(call("aggregate_snr", aggregate_snr, cfg.run_id, float(snr), chunk))
        records.extend(chunk)
    return Block(rows, records, latencies, scales, sum(latencies), raw_wall, failed)


def run_pool(cfg, threads: int) -> Block:
    """One ``run_sweep`` call, timed whole and scaled by reference loops around it."""
    before = calibrate.scale(SCALE_REPEATS)
    t0 = perf_counter()
    rows, records = run_sweep(cfg, threads=threads)
    raw_wall = perf_counter() - t0
    k = (before + calibrate.scale(SCALE_REPEATS)) / 2
    return Block(rows, records, [], [], raw_wall * k, raw_wall,
                 sum(not _finite(r) for r in records))


def delay_rmse_over_crlb(blocks, snr_db: float) -> float:
    """Reflected-path delay RMSE over the bound at one SNR, pooled from the results rows."""
    sq, used, bound2 = 0.0, 0, []
    for blk in blocks:
        for row in blk.rows:
            if (row["snr_db"], row["path_class"], row["parameter"]) == (snr_db, "nlos", "delay_ml_sym"):
                if row["trials_used"]:
                    sq += row["rmse"] ** 2 * row["trials_used"]
                    used += row["trials_used"]
                bound2.append(row["sqrt_crlb_avg"] ** 2)
    if not used:
        return float("nan")
    return math.sqrt(sq / used) / math.sqrt(statistics.fmean(bound2))


def setup_once(w: Workload, seed: int) -> float:
    """Wall seconds of a fresh process that imports beamest and runs the first trial.

    Not scaled: the child may run on the other vCPU, whose speed a reference
    loop in this process does not see.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), w.name, str(seed)],
                   cwd=ROOT, check=True, timeout=120)
    return perf_counter() - t0


def peak_rss_mb(threads: int) -> float:
    # ru_maxrss is in KiB on Linux; reaped pool workers are the largest children
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if threads > 1 else 0
    return (own + threads * workers) / 1024.0


def _check(report: dict, label: str, blk: Block, w: Workload) -> None:
    report["attempted"] += w.trials_per_block
    report["failed"] += blk.failed
    for p in csv_problems(blk.csv, w.snr_sweep_db):
        report["problems"].append(f"{label}: {p}")


def measure_e2e(w: Workload, seed: int, seconds: float, report: dict) -> dict:
    """Sweep fresh blocks for ``seconds``.

    A 1-worker workload times every ``run_trial`` call.  A pool workload runs
    each block through ``run_sweep`` (timed whole, for throughput) and, for
    per-trial latency, through ``run_trial`` on one worker; the two CSVs must
    match.  Set-up processes are spread evenly over the run.
    """
    pooled = w.threads > 1
    harness.run_trial(w.config(seed, 0), 0, 0)   # first-call costs: LUT cache, lazy imports
    latencies, raw_latency, setups, serial_blocks = [], 0.0, [], []
    pool_trials, pool_wall, raw_pool_wall = 0, 0.0, 0.0
    t_start = perf_counter()
    b = 0
    while b == 0 or perf_counter() - t_start < seconds:
        if len(setups) < SETUP_RUNS and perf_counter() - t_start >= len(setups) * seconds / SETUP_RUNS:
            setups.append(setup_once(w, seed))
        cfg = w.config(seed, b)
        serial = run_serial(cfg)
        _check(report, f"block {b}", serial, w)
        latencies.extend(serial.latencies)
        raw_latency += serial.raw_wall
        if pooled:
            pool = run_pool(cfg, w.threads)
            _check(report, f"pool block {b}", pool, w)
            if pool.csv != serial.csv:
                report["problems"].append(f"block {b}: {w.threads}-worker CSV differs from 1-worker CSV")
            pool_trials += len(pool.records)
            pool_wall += pool.wall
            raw_pool_wall += pool.raw_wall
        if b == 0:
            report["csv_sha256"]["block0"] = hashlib.sha256(serial.csv).hexdigest()
        serial.records = [(r.r_hat, len(r.truth)) for r in serial.records]  # keep memory flat
        serial_blocks.append(serial)
        b += 1
    rss = peak_rss_mb(w.threads)
    while len(setups) < SETUP_RUNS:
        setups.append(setup_once(w, seed))

    if w.accuracy:
        top = float(w.snr_sweep_db[-1])
        orders = [o for blk in serial_blocks for o in blk.records]
        ratio = delay_rmse_over_crlb(serial_blocks, top)
        report["accuracy"] = {"delay_rmse_over_crlb": ratio,
                              "model_order_exact_rate": sum(r == t for r, t in orders) / len(orders)}
        if not ratio <= DELAY_RMSE_LIMIT:
            report["problems"].append(
                f"reflected-path delay RMSE/bound at {top:g} dB is {ratio:.3f} > {DELAY_RMSE_LIMIT:.3f}")

    n = len(latencies)
    deciles = statistics.quantiles(latencies, n=10)
    report["samples"] = {"trials": n, "blocks": b, "pool_trials": pool_trials}
    report["raw"] = {"trials_per_s": pool_trials / raw_pool_wall if pooled else n / raw_latency}
    return {
        "trials_per_s": (pool_trials / pool_wall if pooled else n / sum(latencies), "1/s"),
        "trial_ms_p50": (deciles[4] * 1e3, "ms"),
        "trial_ms_p90": (deciles[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def measure_layers(w: Workload, seed: int, seconds: float, report: dict) -> dict:
    """Rounds of kernel batches, then block 0 untraced, on the pool and traced, for ``seconds``.

    Every time is the mean over rounds.  Each trial's stage times are scaled
    by that trial's own calibration factor, so per trial they still add up
    to its traced ``run_trial`` time.
    """
    cases = kernel_cases(seed)
    sizes = {name: batch_size(fn) for name, fn in cases.items()}
    kernel_us = {name: [] for name in cases}
    cfg = w.config(seed, 0)
    plain_s, pool_s, traced_s, aggregate_s = [], [], [], []
    stage_rows = None
    counts = first = None
    t_start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - t_start < seconds:
        for name, fn in cases.items():
            k = calibrate.scale(SCALE_REPEATS)
            kernel_us[name].append(time_batch(fn, sizes[name]) * k)
        plain = run_serial(cfg)
        pool = run_pool(cfg, POOL_WORKERS)
        tracer = Tracer()
        with tracer.installed():
            traced = run_serial(cfg, tracer)
        for label, blk in (("untraced", plain), ("pool", pool), ("traced", traced)):
            _check(report, label, blk, w)
        if first is None:
            first, counts = traced, tracer.counts
            for label, blk in (("untraced", plain), ("pool", pool), ("traced", traced)):
                report["csv_sha256"][label] = hashlib.sha256(blk.csv).hexdigest()
            if traced.csv != plain.csv:
                report["problems"].append("traced CSV differs from the untraced CSV")
            if pool.csv != traced.csv:
                report["problems"].append(
                    f"{POOL_WORKERS}-worker CSV differs from the traced 1-worker CSV")
            stage_rows = [dict.fromkeys(row, 0.0) for row in tracer.per_trial()]
        elif tracer.counts != counts:
            report["problems"].append("traced counts differ between rounds")
        for acc, row, k in zip(stage_rows, tracer.per_trial(), traced.scales):
            for key, value in row.items():
                acc[key] = acc.get(key, 0.0) + value * k
        plain_s.append(plain.wall)
        pool_s.append(pool.wall)
        traced_s.append(traced.wall)
        aggregate_s.append(tracer.total("aggregate_snr") * statistics.fmean(traced.scales))
        rounds += 1

    if any(row["self"] < 0 for row in stage_rows):
        report["problems"].append("stage spans exceed their run_trial span")
    ntr = len(stage_rows)
    report["samples"] = {"trials": ntr, "rounds": rounds}

    def per_trial_ms(key):
        return (sum(row.get(key, 0.0) for row in stage_rows) / rounds / ntr * 1e3, "ms")

    out = {name: (statistics.fmean(us), "us") for name, us in kernel_us.items()}
    for stage, metric in STAGES.items():
        out[metric] = per_trial_ms(stage)
    out["harness.trial_ms"] = per_trial_ms("run_trial")
    out["harness.trial_self_ms"] = per_trial_ms("self")
    out["harness.aggregate_ms"] = (statistics.fmean(aggregate_s) / ntr * 1e3, "ms")

    updates = counts["sage.path_updates"]
    refine_s = sum(row.get("run_sage", 0.0) for row in stage_rows) / rounds
    out["sage.calls"] = (counts["run_sage.calls"], "count")
    out["sage.iterations"] = (counts["sage.iterations"], "count")
    out["sage.path_updates"] = (updates, "count")
    out["sage.us_per_path_update"] = (refine_s / updates * 1e6 if updates else 0.0, "us")
    out["sage.not_converged"] = (counts["sage.not_converged"], "count")
    out["crlb.fim_calls"] = (counts["fisher_matrix.calls"], "count")
    out["crlb.fim_singular"] = (counts["crlb.fim_singular"], "count")
    out["coarse.detections"] = (counts["coarse.detections"], "count")
    out["coarse.paths_kept"] = (counts["coarse.paths_kept"], "count")

    recs = first.records
    out["coarse.order_exact"] = (sum(r.r_hat == len(r.truth) for r in recs), "count")
    out["coarse.order_over"] = (sum(r.r_hat > len(r.truth) for r in recs), "count")
    out["coarse.order_under"] = (sum(r.r_hat < len(r.truth) for r in recs), "count")
    matched = sum(len(r.assignment) for r in recs)
    out["harness.matched_paths"] = (matched, "count")
    out["harness.missed_paths"] = (sum(len(r.truth) for r in recs) - matched, "count")
    out["harness.false_paths"] = (sum(len(r.refined) for r in recs) - matched, "count")
    out["harness.scaling_efficiency"] = (
        statistics.fmean(plain_s) / (POOL_WORKERS * statistics.fmean(pool_s)), "ratio")
    out["harness.record_bytes"] = (statistics.fmean(len(pickle.dumps(r)) for r in recs), "B")
    out["trace.overhead_ratio"] = (statistics.fmean(traced_s) / statistics.fmean(plain_s), "ratio")
    return out


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    report = {"attempted": 0, "failed": 0, "problems": [], "csv_sha256": {}}
    if args.trace:
        metrics = measure_layers(w, args.seed, args.seconds, report)
    else:
        metrics = measure_e2e(w, args.seed, args.seconds, report)

    provenance = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "backend": beamest.active_backend(), "numpy": np.__version__,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "trials_per_block": w.trials_per_block,
        "trials_attempted": report["attempted"], "reference_us": calibrate.REFERENCE_S * 1e6,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for key in ("csv_sha256", "accuracy", "samples", "raw"):
        if key in report:
            print(f"{key} " + json.dumps(report[key], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    for p in report["problems"]:
        print("CHECK FAILED: " + p)
    correct = not report["problems"] and report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
