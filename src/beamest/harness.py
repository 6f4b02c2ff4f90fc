"""Seeded Monte-Carlo orchestration, scoring against ground truth and CSV output.

Per trial, once: draw the realization, build its noiseless signal at unit
transmit power and its information matrix at unit power and unit noise.
Per SNR point of that trial: scale the signal to the point's transmit power
and add fresh noise, scale the information matrix to the point's power and
noise and gate its conditioning, run the coarse stage and the refinement,
match estimated paths to true paths, and record squared errors and bound
variances.  Each SNR point's records then aggregate to one CSV row per
(parameter, path class).  Trials use counter-derived substreams so results
are bit-identical regardless of worker count or execution order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .arrays import ArrayConfig
from .channel import (ChannelRealization, ReceiveMatrix, ScenarioConfig, awgn,
                      draw_realization, unit_power_signal)
from .coarse import (build_lut, coarse_estimate, correlate, detect_paths,
                     detection_threshold, mu_to_theta_deg)
from .crlb import FisherMatrix, crlb_bounds, fisher_at_power, fisher_matrix
from .errors import ConfigurationError
from .pilots import CazacConfig
from .sage import PathEstimate, SageConfig, run_sage

CSV_SCHEMA = "beamest-results v1"
CSV_COLUMNS = ("run_id", "snr_db", "path_class", "parameter", "rmse",
               "sqrt_crlb_avg", "trials_used", "detection_rate", "mean_sage_iterations")
PARAMETERS = ("aod_coarse_deg", "aod_ml_deg", "gain_ml_rel", "delay_ml_sym")
PATH_CLASSES = ("los", "nlos")

# pairing beyond this many symbols of delay is a false association, not an
# estimate of that path (searches move at most ~1 symbol off the integer grid)
MATCH_TAU_GATE = 1.5
_MATCH_TAU_BUCKET = 0.5


@dataclass(frozen=True)
class CoarseParams:
    """Coarse-stage knobs: LUT size, false-alarm target and near-grid guard."""

    k_points: int = 101
    p_fa: float = 1e-3
    v: float = 3.0

    def __post_init__(self):
        if self.k_points < 2:
            raise ConfigurationError(f"LUT needs at least 2 intervals, got {self.k_points}")
        if not 0.0 < self.p_fa < 1.0:
            raise ConfigurationError(f"false-alarm target must lie in (0, 1), got {self.p_fa}")
        if self.v <= 0:
            raise ConfigurationError(f"near-grid guard divisor must be positive, got {self.v}")


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    array: ArrayConfig = field(default_factory=lambda: ArrayConfig(m=16))
    cazac: CazacConfig = field(default_factory=CazacConfig)
    sage: SageConfig = field(default_factory=SageConfig)
    coarse: CoarseParams = field(default_factory=CoarseParams)
    snr_sweep_db: tuple = (-10.0, 0.0, 10.0, 20.0)
    trials: int = 1000
    repetitions_per_beam: int = 1
    output_path: str = "results.csv"
    emit_feedback_log: bool = False
    run_id: str = "run"

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigurationError(f"need at least one trial, got {self.trials}")
        if not self.snr_sweep_db:
            raise ConfigurationError("the SNR sweep must not be empty")
        if self.repetitions_per_beam < 1:
            raise ConfigurationError(
                f"repetitions per beam must be >= 1, got {self.repetitions_per_beam}")
        if self.scenario.m != self.array.m:
            raise ConfigurationError(
                f"scenario sub-array size {self.scenario.m} != array size {self.array.m}")
        if abs(self.cazac.ts * self.scenario.bandwidth_hz - 1.0) > 1e-6:
            raise ConfigurationError(
                "pilot symbol period must equal 1/bandwidth "
                f"(ts={self.cazac.ts}, 1/B={1.0 / self.scenario.bandwidth_hz})")


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

_SECTION_TYPES = {
    "scenario": ScenarioConfig,
    "array": ArrayConfig,
    "cazac": CazacConfig,
    "sage": SageConfig,
    "coarse": CoarseParams,
}
_TOP_KEYS = {"scenario", "array", "cazac", "sage", "coarse", "snr_sweep_db", "trials",
             "repetitions_per_beam", "output_path", "emit_feedback_log", "run_id", "seed"}
_TUPLE_FIELDS = {"d_los_range_m", "delta_nlos_range_m", "theta_range_deg", "snr_sweep_db"}


def default_config() -> RunConfig:
    return RunConfig()


def load_config(path: str) -> RunConfig:
    """Load a JSON run configuration; the literal name ``default`` gives defaults.

    Unknown keys are configuration errors, reported with their full key path.
    """
    if path == "default":
        return default_config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config {path!r} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}") from exc
    return config_from_dict(data)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    defaults = RunConfig()
    kwargs = {}
    for name, cls in _SECTION_TYPES.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigurationError(f"config section {name!r} must be an object")
        fields = {f for f in cls.__dataclass_fields__}
        bad = set(section) - fields
        if bad:
            raise ConfigurationError(
                f"unknown key(s) in section {name!r}: {', '.join(sorted(name + '.' + b for b in bad))}")
        coerced = {k: tuple(v) if k in _TUPLE_FIELDS and isinstance(v, list) else v
                   for k, v in section.items()}
        try:
            kwargs[name] = replace(getattr(defaults, name), **coerced)
        except ConfigurationError as exc:
            raise ConfigurationError(f"in section {name!r}: {exc}") from exc
    if "seed" in data:
        kwargs["scenario"] = replace(kwargs["scenario"], seed=int(data["seed"]))
    for key in ("snr_sweep_db", "trials", "repetitions_per_beam", "output_path",
                "emit_feedback_log", "run_id"):
        if key in data:
            value = data[key]
            if key == "snr_sweep_db":
                value = tuple(float(x) for x in value)
            kwargs[key] = value
    return RunConfig(**kwargs)


def resolved_config_dict(cfg: RunConfig) -> dict:
    out = asdict(cfg)
    out["package_version"] = __version__
    out["csv_schema"] = CSV_SCHEMA
    return out


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def match_paths(truth: ChannelRealization, estimates: Sequence[PathEstimate],
                tau_gate: float = MATCH_TAU_GATE) -> List[Tuple[int, int]]:
    """Greedy truth-to-estimate assignment, a partial injection.

    Candidate pairs are ordered by delay distance (in half-symbol buckets) and
    then by wrapped spatial-frequency distance; pairs farther than ``tau_gate``
    symbols apart in delay are never associated.  Unmatched truths count as
    missed detections.
    """
    candidates = []
    for ti, p in enumerate(truth.paths):
        for ei, e in enumerate(estimates):
            dtau = abs(e.tau_hat - p.tau_symbols)
            if dtau > tau_gate:
                continue
            dmu = abs((e.mu_hat - p.mu + np.pi) % (2.0 * np.pi) - np.pi)
            candidates.append(((int(dtau / _MATCH_TAU_BUCKET), dmu, dtau), ti, ei))
    pairs = []
    used_t, used_e = set(), set()
    for _, ti, ei in sorted(candidates, key=lambda c: c[0]):
        if ti in used_t or ei in used_e:
            continue
        used_t.add(ti)
        used_e.add(ei)
        pairs.append((ti, ei))
    return pairs


@dataclass
class TrialRecord:
    """Everything scored in one trial, kept for deterministic aggregation."""

    trial_id: int
    snr_db: float
    truth_classes: List[str]
    truth: List[tuple]           # per path: (theta_deg, combined gain, tau_symbols)
    coarse: List[tuple]          # per coarse path: (tau_int, mu_hat, theta_deg, peak)
    refined: List[tuple]         # per refined path: (mu_hat, tau_hat, alpha_hat)
    assignment: List[Tuple[int, int]]
    matched: List[dict]          # per matched pair: class + squared errors
    crlb_vars: List[dict]        # per truth path: class + bound variances
    fim_invertible: bool
    detection_counts: Dict[str, List[int]]   # class -> [matched, total]
    sage_iterations: int
    r_hat: int
    detection_status: str
    feedback: List[dict]


def _theta_slope_deg_per_rad(theta_deg: float) -> float:
    # d theta[deg] / d mu[rad] along theta = arcsin(mu / pi)
    return 180.0 / (np.pi ** 2 * math.cos(math.radians(theta_deg)))


@lru_cache(maxsize=8)
def _shared_lut(arr: ArrayConfig, k_points: int):
    # built once per geometry and shared read-only across trials/workers
    return build_lut(arr, k_points)


@lru_cache(maxsize=1)
def _trial_signal(scen: ScenarioConfig, arr: ArrayConfig, caz: CazacConfig,
                  trial: int) -> Tuple[ChannelRealization, np.ndarray]:
    # the realization and its unit-power noiseless signal depend on the trial
    # only, so a trial's consecutive SNR points share one cached draw
    geom_rng = np.random.default_rng(np.random.SeedSequence(entropy=(scen.seed, trial, 0)))
    real = draw_realization(scen, geom_rng, arr.spacing_over_lambda)
    s0 = unit_power_signal(real, arr, caz)
    s0.setflags(write=False)
    return real, s0


def synthesize_trial(cfg: RunConfig, snr_idx: int, trial: int):
    """Deterministic observation for one (SNR point, trial) pair.

    The realization substream depends only on (seed, trial), so geometry is
    shared across SNR points, and so is the unit-power noiseless signal S0:
    the observation is sqrt(P_T) * S0 plus noise from a substream that also
    keys on the SNR index.  Pilot repetitions are averaged before anything
    downstream sees them, leaving an effective noise variance of
    noise_var / repetitions.
    """
    real, s0 = _trial_signal(cfg.scenario, cfg.array, cfg.cazac, trial)
    real = real.with_snr_db(float(cfg.snr_sweep_db[snr_idx]))
    reps = cfg.repetitions_per_beam
    y = np.sqrt(real.pt) * s0
    if real.noise_var > 0:
        noise_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(cfg.scenario.seed, trial, 1 + snr_idx)))
        noise = awgn(noise_rng, y.shape, real.noise_var)
        for _ in range(reps - 1):
            noise += awgn(noise_rng, y.shape, real.noise_var)
        y = y + noise / reps
    return real, ReceiveMatrix(y=y, truth=real, arr=cfg.array, caz=cfg.cazac), \
        real.noise_var / reps


def run_trial(cfg: RunConfig, snr_idx: int, trial: int) -> TrialRecord:
    """Draw, synthesize, estimate and score one trial at one SNR point."""
    return _trial_records(cfg, trial, (snr_idx,))[0]


def _trial_records(cfg: RunConfig, trial: int,
                   snr_indices: Sequence[int]) -> List[TrialRecord]:
    """Score one trial at each of the given SNR points.

    The realization and the noiseless signal come from one draw, and the
    information matrix from one Jacobian at unit power and unit noise,
    F0; each SNR point scales F0 to its own transmit power and effective
    noise and gates its own condition number.
    """
    f0 = None
    records = []
    for snr_idx in snr_indices:
        real, y, noise_eff = synthesize_trial(cfg, snr_idx, trial)
        if f0 is None and noise_eff > 0:
            f0 = fisher_matrix(replace(real, pt=1.0, noise_var=1.0), cfg.array, cfg.cazac)
        records.append(_score_point(cfg, snr_idx, trial, real, y, noise_eff, f0))
    return records


def _score_point(cfg: RunConfig, snr_idx: int, trial: int, real: ChannelRealization,
                 y: ReceiveMatrix, noise_eff: float,
                 f0: Optional[FisherMatrix]) -> TrialRecord:
    """Bound, estimate and score one synthesized observation."""
    snr_db = float(cfg.snr_sweep_db[snr_idx])
    classes = ["los"] + ["nlos"] * (real.r - 1)
    counts = {"los": [0, 1], "nlos": [0, real.r - 1]}

    # bound variances at the truth, independent of what the estimator did;
    # undefined for a noiseless synthesis
    crlb_vars = []
    fim_invertible = False
    if noise_eff > 0:
        report = crlb_bounds(fisher_at_power(f0, real.pt, noise_eff))
        fim_invertible = report.invertible
    if fim_invertible:
        # rows follow the information matrix's block order [Re g | Im g | mu | tau]
        var_re, var_im, var_mu, var_tau = (report.bounds ** 2).reshape(4, real.r).tolist()
        for r, p in enumerate(real.paths):
            gain = math.sqrt(real.pt) * abs(p.alpha)
            crlb_vars.append({
                "cls": classes[r],
                "aod_deg2": var_mu[r] * _theta_slope_deg_per_rad(p.theta_deg) ** 2,
                "gain_rel2": (var_re[r] + var_im[r]) / gain ** 2,
                "delay_sym2": var_tau[r],
            })

    pm = correlate(y)
    g = detection_threshold(noise_eff, cfg.array.m, cfg.coarse.p_fa) if noise_eff > 0 \
        else detection_threshold(1.0, cfg.array.m, cfg.coarse.p_fa)
    detections = detect_paths(pm, g)

    matched_records: List[dict] = []
    feedback_rows: List[dict] = []
    coarse_rows: List[tuple] = []
    refined_rows: List[tuple] = []
    assignment: List[Tuple[int, int]] = []
    iterations = 0
    r_hat = 0
    status = "no_detection"
    if detections:
        lut = _shared_lut(cfg.array, cfg.coarse.k_points)
        guard_noise = noise_eff if noise_eff > 0 else 1.0
        coarse = coarse_estimate(pm, detections, lut, cfg.array, cfg.cazac,
                                 guard_noise, v=cfg.coarse.v, p_fa=cfg.coarse.p_fa)
        r_hat = coarse.r_hat
        refined = run_sage(y, coarse, cfg.sage, guard_noise)
        iterations = refined.iterations
        status = "ok" if refined.converged else "not_converged"

        coarse_rows = [(cp.tau_int, cp.mu_hat, cp.theta_hat_deg, cp.peak_power)
                       for cp in coarse.paths]
        refined_rows = [(p.mu_hat, p.tau_hat, p.alpha_hat) for p in refined.paths]
        for i, cp in enumerate(coarse.paths):
            feedback_rows.append({"path": i, "beam_index_bits": cp.feedback.beam_index_bits,
                                  "delta_ratio": cp.feedback.delta_ratio})

        pairs = match_paths(real, refined.paths)
        assignment = pairs
        for ti, ei in pairs:
            p = real.paths[ti]
            ml = refined.paths[ei]
            co = coarse.paths[ei]
            counts[classes[ti]][0] += 1
            truth_gain = math.sqrt(real.pt) * p.alpha
            matched_records.append({
                "cls": classes[ti],
                "aod_coarse_deg2": (p.theta_deg - co.theta_hat_deg) ** 2,
                "aod_ml_deg2": (p.theta_deg - mu_to_theta_deg(ml.mu_hat)) ** 2,
                "gain_ml_rel2": abs((truth_gain - ml.alpha_hat) / truth_gain) ** 2,
                "delay_ml_sym2": (p.tau_symbols - ml.tau_hat) ** 2,
            })

    amp = math.sqrt(real.pt)
    return TrialRecord(
        trial_id=trial, snr_db=snr_db, truth_classes=classes,
        truth=[(p.theta_deg, amp * p.alpha, p.tau_symbols) for p in real.paths],
        coarse=coarse_rows, refined=refined_rows, assignment=assignment,
        matched=matched_records, crlb_vars=crlb_vars,
        fim_invertible=fim_invertible, detection_counts=counts,
        sage_iterations=iterations, r_hat=r_hat, detection_status=status,
        feedback=feedback_rows)


# ---------------------------------------------------------------------------
# sweep + aggregation
# ---------------------------------------------------------------------------

_WORKER_CFG: Optional[RunConfig] = None


def _worker_init(cfg: RunConfig) -> None:
    global _WORKER_CFG
    _WORKER_CFG = cfg


def _worker_run(trial: int) -> List[TrialRecord]:
    return _trial_records(_WORKER_CFG, trial, range(len(_WORKER_CFG.snr_sweep_db)))


def run_sweep(cfg: RunConfig, threads: int = 1) -> Tuple[List[dict], List[TrialRecord]]:
    """Execute the full sweep; returns aggregated CSV rows and the raw records.

    One task is one trial at every SNR point.  Records come back sorted by
    SNR index then trial id, so the rows are identical for any worker count.
    """
    n_snr = len(cfg.snr_sweep_db)
    if threads > 1:
        # several chunks per worker, so an uneven chunk does not idle the others
        chunk = max(1, cfg.trials // (4 * threads))
        with ProcessPoolExecutor(max_workers=threads, initializer=_worker_init,
                                 initargs=(cfg,)) as pool:
            by_trial = list(pool.map(_worker_run, range(cfg.trials), chunksize=chunk))
    else:
        by_trial = [_trial_records(cfg, t, range(n_snr)) for t in range(cfg.trials)]
    records = [recs[s] for s in range(n_snr) for recs in by_trial]

    rows = []
    for snr_idx, snr_db in enumerate(cfg.snr_sweep_db):
        chunk = records[snr_idx * cfg.trials:(snr_idx + 1) * cfg.trials]
        rows.extend(aggregate_snr(cfg.run_id, float(snr_db), chunk))
    return rows, records


def aggregate_snr(run_id: str, snr_db: float, records: Sequence[TrialRecord]) -> List[dict]:
    """Reduce one SNR point's trial records to the per-(parameter, class) rows."""
    err: Dict[Tuple[str, str], List[float]] = {}
    var: Dict[Tuple[str, str], List[float]] = {}
    det = {c: [0, 0] for c in PATH_CLASSES}
    iters = []
    for rec in sorted(records, key=lambda r: r.trial_id):
        if rec.r_hat > 0:
            iters.append(rec.sage_iterations)
        for c in PATH_CLASSES:
            det[c][0] += rec.detection_counts.get(c, [0, 0])[0]
            det[c][1] += rec.detection_counts.get(c, [0, 0])[1]
        for m in rec.matched:
            err.setdefault(("aod_coarse_deg", m["cls"]), []).append(m["aod_coarse_deg2"])
            err.setdefault(("aod_ml_deg", m["cls"]), []).append(m["aod_ml_deg2"])
            err.setdefault(("gain_ml_rel", m["cls"]), []).append(m["gain_ml_rel2"])
            if m["cls"] != "los":
                # direct-path delay is zero by construction and excluded from scoring
                err.setdefault(("delay_ml_sym", m["cls"]), []).append(m["delay_ml_sym2"])
        for cv in rec.crlb_vars:
            var.setdefault(("aod_coarse_deg", cv["cls"]), []).append(cv["aod_deg2"])
            var.setdefault(("aod_ml_deg", cv["cls"]), []).append(cv["aod_deg2"])
            var.setdefault(("gain_ml_rel", cv["cls"]), []).append(cv["gain_rel2"])
            var.setdefault(("delay_ml_sym", cv["cls"]), []).append(cv["delay_sym2"])

    mean_iters = float(np.mean(iters)) if iters else float("nan")
    rows = []
    for cls in PATH_CLASSES:
        rate = det[cls][0] / det[cls][1] if det[cls][1] else float("nan")
        for param in PARAMETERS:
            sq = err.get((param, cls), [])
            bounds = var.get((param, cls), [])
            rows.append({
                "run_id": run_id,
                "snr_db": snr_db,
                "path_class": cls,
                "parameter": param,
                "rmse": math.sqrt(sum(sq) / len(sq)) if sq else float("nan"),
                "sqrt_crlb_avg": math.sqrt(sum(bounds) / len(bounds)) if bounds else float("nan"),
                "trials_used": len(sq),
                "detection_rate": rate,
                "mean_sage_iterations": mean_iters,
            })
    return rows


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def rows_to_csv_bytes(rows: Sequence[dict]) -> bytes:
    buf = io.StringIO()
    buf.write(f"# {CSV_SCHEMA}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    return buf.getvalue().encode()


def write_outputs(cfg: RunConfig, rows: Sequence[dict],
                  records: Optional[Sequence[TrialRecord]] = None,
                  out_path: Optional[str] = None) -> str:
    """Write the results CSV, its .meta companion and the optional feedback log."""
    path = out_path or cfg.output_path
    with open(path, "wb") as fh:
        fh.write(rows_to_csv_bytes(rows))
    with open(path + ".meta", "w", encoding="utf-8") as fh:
        json.dump(resolved_config_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if cfg.emit_feedback_log and records is not None:
        with open(path + ".feedback.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("run_id", "snr_db", "trial_id", "path",
                             "beam_index_bits", "delta_ratio"))
            for rec in sorted(records, key=lambda r: (r.snr_db, r.trial_id)):
                for fb in rec.feedback:
                    writer.writerow((cfg.run_id, _fmt(rec.snr_db), rec.trial_id,
                                     fb["path"], fb["beam_index_bits"],
                                     _fmt(float(fb["delta_ratio"]))))
    return path
