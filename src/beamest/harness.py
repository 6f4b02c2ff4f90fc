"""Seeded Monte-Carlo orchestration, scoring against ground truth and CSV output.

A sweep task is a chunk of consecutive trials at every SNR point, and its
front half runs once per chunk, not once per trial or per observation.
Each trial has one random stream, keyed on (seed, trial): it draws the
trial's realization, then one block of noise per SNR point in sweep order.
One tap pass evaluates the pilot rows and their delay derivatives at every
delay of the chunk, and from those rows one stacked call builds every
trial's noiseless signal at unit transmit power.  The chunk's noise is one
buffer, each trial's slab filled by one draw from its stream, and one array
expression scales every signal to its point's transmit power and adds its
point's noise.
Per trial, the information matrix at unit power and unit noise comes from
the same rows; scaled to every point's power and noise, the chunk's stack
is gated and inverted in one call.  The chunk's observation stack is
correlated in one call and its diagonals scanned in one pass; only the
observations with a detection get a coarse estimate, and all of them are
refined in lockstep (``sage.run_sage_batch``), each exactly as it would be
alone.  Each point's estimates are then matched to its true paths and its
squared errors and bound variances recorded.  ``run_trial`` is the chunk
of one trial at one point, and calls the stages (``synthesize_trial`` ...
``run_sage``, ``match_paths``) by their names in this module.  Each SNR
point's records then aggregate to one CSV row per (parameter, path class).
A trial's stream depends only on (seed, trial), and a point's noise block
only on its place in the sweep, so results are bit-identical regardless of
worker count, chunking or execution order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import lru_cache, partial
from numbers import Integral
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from ._kernels import active_backend
from .arrays import ArrayConfig, mu_to_theta_deg, theta_slope_deg_per_rad, wrapped_distance
from .channel import (ChannelRealization, ReceiveMatrix, ScenarioConfig, delayed_pilots,
                      draw_realization, unit_power_signal)
from .coarse import (CoarseEstimate, build_lut, coarse_estimate, correlate, detect_paths,
                     detection_threshold)
from .crlb import crlb_bounds, fisher_at_power, fisher_matrix
from .errors import ConfigurationError, require_integers, require_reals
from .pilots import CazacConfig
from .sage import PathEstimate, RefinedEstimate, SageConfig, run_sage, run_sage_batch

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
        require_integers(self, "k_points")
        require_reals(self, "p_fa", "v")
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
        require_integers(self, "trials", "repetitions_per_beam")
        for name, kind in (("output_path", str), ("run_id", str), ("emit_feedback_log", bool)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigurationError(f"{name} must be a {kind.__name__}, got {value!r}")
        if self.trials < 1:
            raise ConfigurationError(f"need at least one trial, got {self.trials}")
        try:
            if isinstance(self.snr_sweep_db, str):   # would iterate into its characters
                raise TypeError("a string is not a list")
            object.__setattr__(self, "snr_sweep_db", tuple(float(x) for x in self.snr_sweep_db))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"snr_sweep_db must be a list of numbers, got {self.snr_sweep_db!r}") from exc
        if not self.snr_sweep_db:
            raise ConfigurationError("the SNR sweep must not be empty")
        if not all(map(math.isfinite, self.snr_sweep_db)):
            raise ConfigurationError(f"snr_sweep_db must be finite, got {self.snr_sweep_db!r}")
        if self.repetitions_per_beam < 1:
            raise ConfigurationError(
                f"repetitions per beam must be >= 1, got {self.repetitions_per_beam}")
        if self.array.m != self.cazac.length:
            raise ConfigurationError(
                f"array size {self.array.m} differs from the pilot length {self.cazac.length}: "
                "each beam needs its own cyclic pilot shift, and the coarse stage "
                "keeps only M of the L correlation lags")


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def load_config(path: str) -> RunConfig:
    """Load a JSON run configuration; the literal name ``default`` gives defaults.

    Unknown keys are configuration errors, reported with their full key path.
    """
    if path == "default":
        return RunConfig()
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
    """Build a ``RunConfig`` from a parsed config file.

    The keys are the fields of ``RunConfig``, each dataclass-valued field a
    section keyed by its own fields, plus ``seed`` for ``scenario.seed``.
    """
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")
    names = [f.name for f in fields(RunConfig)]
    unknown = set(data) - set(names) - {"seed"}
    if unknown:
        raise ConfigurationError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    defaults = RunConfig()
    kwargs = {name: data[name] for name in names if name in data}
    for name in names:
        default = getattr(defaults, name)
        if not is_dataclass(default):
            continue
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigurationError(f"config section {name!r} must be an object")
        bad = set(section) - {f.name for f in fields(default)}
        if bad:
            raise ConfigurationError(
                f"unknown key(s) in section {name!r}: {', '.join(sorted(name + '.' + b for b in bad))}")
        if name == "scenario" and "seed" in data:
            section = {**section, "seed": data["seed"]}
        kwargs[name] = _section(name, default, section)
    return RunConfig(**kwargs)


def _section(name: str, default, values: dict):
    """``default`` with ``values`` applied; a refused value is named by its key."""
    try:
        return replace(default, **values)
    except (TypeError, ValueError) as exc:
        # a wrongly typed value fails on a comparison or conversion that does not
        # say which field it was, so find the key that fails on its own
        for key, value in values.items():
            try:
                replace(default, **{key: value})
            except (TypeError, ValueError) as key_exc:
                raise ConfigurationError(
                    f"in section {name!r}: {name}.{key} = {value!r}: {key_exc}") from key_exc
        raise ConfigurationError(f"in section {name!r}: {exc}") from exc


def resolved_config_dict(cfg: RunConfig, wall_s: Optional[float] = None,
                         threads: Optional[int] = None) -> dict:
    """The resolved configuration plus the provenance of the run: versions,
    CPU count, the sweep's wall time in seconds and its worker count (None
    when the caller did not time the sweep)."""
    out = asdict(cfg)
    out["package_version"] = __version__
    out["csv_schema"] = CSV_SCHEMA
    out["backend"] = active_backend()
    out["numpy_version"] = np.__version__
    out["python_version"] = platform.python_version()
    out["cpu_count"] = os.cpu_count()
    out["wall_s"] = wall_s
    out["threads"] = threads
    return out


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def match_paths(truth: ChannelRealization,
                estimates: Sequence[PathEstimate]) -> List[Tuple[int, int]]:
    """Greedy truth-to-estimate assignment, a partial injection.

    Candidate pairs are ordered by delay distance (in half-symbol buckets) and
    then by wrapped spatial-frequency distance; pairs farther than ``MATCH_TAU_GATE``
    symbols apart in delay are never associated.  Unmatched truths count as
    missed detections.
    """
    candidates = []
    for ti, p in enumerate(truth.paths):
        for ei, e in enumerate(estimates):
            dtau = abs(e.tau_hat - p.tau_symbols)
            if dtau > MATCH_TAU_GATE:
                continue
            dmu = wrapped_distance(e.mu_hat, p.mu)
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
    """Everything scored in one trial, kept for deterministic aggregation.

    Each quantity is stored once; a path's class follows from its truth index
    (:func:`path_class`).  Every scalar is a builtin int, float, complex, str
    or bool, so a record pickles small on its way back from a pool worker.
    """

    trial_id: int
    snr_db: float
    truth: List[tuple]           # per path: (theta_deg, combined gain, tau_symbols)
    coarse: List[tuple]          # per coarse path: (tau_int, mu_hat, peak, beam_index_bits,
    #                              delta_ratio), the last two its feedback
    refined: List[tuple]         # per refined path: (mu_hat, tau_hat, alpha_hat)
    assignment: List[Tuple[int, int]]   # (truth index, refined index) pairs
    matched: List[dict]          # per assignment pair: squared error per PARAMETERS name
    crlb_vars: List[dict]        # per truth path: bound variance per PARAMETERS name;
    #                              empty when the information matrix was not inverted
    sage_iterations: int
    detection_status: str

    @property
    def r_hat(self) -> int:
        """The coarse model order."""
        return len(self.coarse)


def path_class(truth_index: int) -> str:
    """The class of a true path: path 0 is the line-of-sight path."""
    return "los" if truth_index == 0 else "nlos"


@lru_cache(maxsize=8)
def _shared_lut(arr: ArrayConfig, k_points: int):
    # built once per geometry and shared read-only across trials/workers
    lut = build_lut(arr, k_points)
    lut.ratios.setflags(write=False)
    return lut


@dataclass
class _Synthesis:
    """The synthesized observations of a chunk of T trials at P SNR points."""

    reals: List[ChannelRealization]   # per trial, at unit transmit power
    rows: np.ndarray                  # (T, 2R, L) pilot rows [v | v'] per trial
    pts: np.ndarray                   # (P,) transmit power per SNR point
    noise_eff: float                  # noise variance after averaging repetitions
    y: np.ndarray                     # (T, P, M, L) observations


def synthesize_trial(cfg: RunConfig, snr_idx, trial):
    """Deterministic observation for one (SNR point, trial) pair: the
    realization at the point's transmit power, the observation and the
    effective noise variance.

    Sequences of SNR indices and trials synthesize every trial at every one
    of those points, as one :class:`_Synthesis` of unit-power realizations
    and per-point powers; one pair is the chunk of one.  Each trial has one
    random stream, seeded by (seed, trial) alone, so geometry is shared
    across SNR points, and so is the unit-power noiseless signal S0: the
    observation is sqrt(P_T) * S0 plus noise.  After the realization, the
    stream draws one block of noise per SNR point, every repetition of
    every entry, in sweep order up to the highest requested point; a point's
    noise is therefore the same whichever points are synthesized with it,
    and a lone pair at point s draws the s + 1 blocks that precede it.  All
    of the chunk's delays go through one tap pass (:func:`delayed_pilots`),
    and every trial's S0 is one stacked :func:`unit_power_signal` call.
    Pilot repetitions are averaged before anything downstream sees them,
    leaving an effective noise variance of noise_var / repetitions.
    """
    if not isinstance(trial, Integral):
        return _synthesize(cfg, snr_idx, trial)
    chunk = _synthesize(cfg, (snr_idx,), (trial,))
    real = chunk.reals[0].with_snr_db(float(cfg.snr_sweep_db[snr_idx]))
    return real, ReceiveMatrix(y=chunk.y[0, 0], arr=cfg.array, caz=cfg.cazac), chunk.noise_eff


def _synthesize(cfg: RunConfig, snr_indices: Sequence[int],
                trials: Sequence[int]) -> _Synthesis:
    scen, arr, caz = cfg.scenario, cfg.array, cfg.cazac
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=(scen.seed, trial, 0)))
            for trial in trials]
    reals = [draw_realization(scen, rng) for rng in rngs]
    rows = delayed_pilots(reals, caz)
    s0 = unit_power_signal(reals, arr, caz, rows)
    # every realization carries the scenario's noise, so a point's power is shared
    pts = np.array([reals[0].with_snr_db(float(cfg.snr_sweep_db[s])).pt for s in snr_indices])
    y = np.sqrt(pts)[:, None, None] * s0[:, None]
    reps = cfg.repetitions_per_beam
    if scen.noise_var > 0:
        # per trial, (SNR point, repetition, beam, symbol) blocks of standard
        # complex normals, real and imaginary parts interleaved as drawn
        noise = np.empty((len(rngs), max(snr_indices) + 1, reps, arr.m, caz.length), complex)
        for rng, slab in zip(rngs, noise):
            rng.standard_normal(out=slab.view(float))
        y += math.sqrt(scen.noise_var / 2.0) / reps * noise[:, snr_indices].sum(axis=2)
    return _Synthesis(reals, rows, pts, scen.noise_var / reps, y)


def run_trial(cfg: RunConfig, snr_idx: int, trial: int) -> TrialRecord:
    """Draw, synthesize, estimate and score one trial at one SNR point."""
    return _chunk_records(cfg, (trial,), (snr_idx,))[0][0]


def _chunk_records(cfg: RunConfig, trials: Sequence[int],
                   snr_indices: Sequence[int]) -> List[List[TrialRecord]]:
    """Score each of ``trials`` at each of the given SNR points, per trial a list.

    The chunk is synthesized in one pass (:func:`synthesize_trial`).  Per
    trial, the information matrix at unit power and unit noise, F0, comes
    from the pilot rows of that pass; every F0 is scaled to every point's
    transmit power and effective noise, and the (T x P, 4R, 4R) stack is
    gated and inverted in one ``crlb_bounds`` call.  The (T x P, M, L)
    observation stack is correlated in one call and its diagonals scanned in
    one pass; each detection gets a coarse estimate, and all of them are
    refined in lockstep by one ``run_sage_batch`` call, or by ``run_sage``
    when there is one.  The records follow in one trial-major pass, from the
    unit-power realizations and per-point powers.  ``run_trial`` is the
    chunk of one trial at one point.
    """
    arr, caz = cfg.array, cfg.cazac
    chunk = synthesize_trial(cfg, snr_indices, trials)
    variances = _chunk_variances(cfg, chunk)
    ys = chunk.y.reshape(-1, arr.m, caz.length)
    power = correlate(ReceiveMatrix(y=ys, arr=arr, caz=caz))
    # a noiseless synthesis is detected and refined as if at unit noise
    guard_noise = chunk.noise_eff if chunk.noise_eff > 0 else 1.0
    g = detection_threshold(guard_noise, arr.m, cfg.coarse.p_fa)
    # a lone observation is scanned in its 2-D form, so that stage returns its
    # own list of detections
    found = detect_paths(power, g) if len(ys) > 1 else [detect_paths(power[0], g)]

    # observations with a detection, by their trial-major index into the stack
    hits = [b for b, detections in enumerate(found) if detections]
    coarse = [coarse_estimate(power[b], found[b], _shared_lut(arr, cfg.coarse.k_points), arr,
                              caz, guard_noise, v=cfg.coarse.v, p_fa=cfg.coarse.p_fa) for b in hits]
    hit_ys = [ReceiveMatrix(y=ys[b], arr=arr, caz=caz) for b in hits]
    if len(hits) == 1:
        refined = [run_sage(hit_ys[0], coarse[0], cfg.sage, guard_noise)]
    else:
        refined = run_sage_batch(hit_ys, coarse, cfg.sage) if hits else []
    estimates = dict(zip(hits, zip(coarse, refined)))

    records = []
    n = len(snr_indices)
    for t, (trial, real) in enumerate(zip(trials, chunk.reals)):
        # the squared angle slope depends on the trial's geometry only
        slopes_sq = [theta_slope_deg_per_rad(p.theta_deg) ** 2 for p in real.paths]
        records.append([
            _score(trial, float(cfg.snr_sweep_db[snr_idx]), real, pt,
                   _bound_vars(real, pt, variances[b], slopes_sq), *estimates.get(b, (None, None)))
            for b, snr_idx, pt in zip(range(t * n, (t + 1) * n), snr_indices, chunk.pts.tolist())])
    return records


def _chunk_variances(cfg: RunConfig, chunk: _Synthesis) -> list:
    """Bound variances at the truth per observation, trial-major, in the
    information matrix's order; None where it was not invertible or the
    synthesis is noiseless."""
    n = len(chunk.reals) * len(chunk.pts)
    if not chunk.noise_eff > 0:
        return [None] * n
    f0 = np.array([fisher_matrix(replace(real, noise_var=1.0), cfg.array, cfg.cazac, rows)
                   for real, rows in zip(chunk.reals, chunk.rows)])
    stack = fisher_at_power(f0[:, None], chunk.pts, chunk.noise_eff)
    report = crlb_bounds(stack.reshape(n, *f0.shape[1:]))
    return [var if ok else None for var, ok in zip(report.bounds ** 2, report.invertible)]


def _bound_vars(real: ChannelRealization, pt: float, variances: Optional[np.ndarray],
                slopes_sq: List[float]) -> List[dict]:
    """Per truth path, the bound variance of each scored parameter at power ``pt``; empty
    without a bound.  ``slopes_sq`` holds each path's squared angle slope d theta / d mu."""
    if variances is None:
        return []
    # rows follow the information matrix's block order [Re g | Im g | mu | tau]
    var_re, var_im, var_mu, var_tau = variances.reshape(4, real.r).tolist()
    out = []
    for r, p in enumerate(real.paths):
        gain = math.sqrt(pt) * abs(p.alpha)
        aod = var_mu[r] * slopes_sq[r]
        # the coarse and the refined angle share one bound
        out.append({"aod_coarse_deg": aod, "aod_ml_deg": aod,
                    "gain_ml_rel": float((var_re[r] + var_im[r]) / gain ** 2),
                    "delay_ml_sym": var_tau[r]})
    return out


def _score(trial: int, snr_db: float, real: ChannelRealization, pt: float,
           crlb_vars: List[dict], coarse: Optional[CoarseEstimate],
           refined: Optional[RefinedEstimate]) -> TrialRecord:
    """Match one observation's refined paths to the truth of ``real`` at power ``pt``."""
    amp = math.sqrt(pt)
    matched: List[dict] = []
    coarse_rows: List[tuple] = []
    refined_rows: List[tuple] = []
    assignment: List[Tuple[int, int]] = []
    iterations = 0
    status = "no_detection"
    if refined is not None:
        iterations = refined.iterations
        status = "ok" if refined.converged else "not_converged"

        coarse_rows = [(cp.tau_int, cp.mu_hat, cp.peak_power,
                        cp.feedback.beam_index_bits, cp.feedback.delta_ratio)
                       for cp in coarse.paths]
        refined_rows = [(p.mu_hat, p.tau_hat, p.alpha_hat) for p in refined.paths]

        assignment = match_paths(real, refined.paths)
        for ti, ei in assignment:
            p = real.paths[ti]
            ml = refined.paths[ei]
            truth_gain = amp * p.alpha
            matched.append({
                "aod_coarse_deg": (p.theta_deg - coarse.paths[ei].theta_hat_deg) ** 2,
                "aod_ml_deg": (p.theta_deg - mu_to_theta_deg(ml.mu_hat)) ** 2,
                "gain_ml_rel": float(abs((truth_gain - ml.alpha_hat) / truth_gain) ** 2),
                "delay_ml_sym": (p.tau_symbols - ml.tau_hat) ** 2,
            })

    return TrialRecord(
        trial_id=trial, snr_db=snr_db,
        truth=[(p.theta_deg, complex(amp * p.alpha), p.tau_symbols) for p in real.paths],
        coarse=coarse_rows, refined=refined_rows, assignment=assignment,
        matched=matched, crlb_vars=crlb_vars, sage_iterations=iterations,
        detection_status=status)


# ---------------------------------------------------------------------------
# sweep + aggregation
# ---------------------------------------------------------------------------

# most observations (trials x SNR points) in one sweep task: a chunk's
# lockstep search temporaries grow with its detected observations, about
# 0.1 MB each, while its speed levels off by ~100 observations
_CHUNK_OBSERVATIONS = 160


def _chunk_trials(trials: int, n_snr: int, threads: int) -> int:
    """Trials per sweep task: a quarter of a worker's share, so an uneven chunk
    does not idle the others, and at most ``_CHUNK_OBSERVATIONS`` observations
    (one trial at least)."""
    return max(1, min(trials // (4 * threads), _CHUNK_OBSERVATIONS // n_snr))


def run_sweep(cfg: RunConfig, threads: int = 1) -> Tuple[List[dict], List[TrialRecord]]:
    """Execute the full sweep; returns aggregated CSV rows and the raw records.

    One task is a chunk of consecutive trials at every SNR point
    (:func:`_chunk_trials`), the same chunks on one worker as on several.
    Records come back sorted by SNR index then trial id, so the rows are
    identical for any worker count.
    """
    if isinstance(threads, bool) or not isinstance(threads, Integral) or threads < 1:
        raise ConfigurationError(f"threads must be a positive integer, got {threads!r}")
    n_snr = len(cfg.snr_sweep_db)
    size = _chunk_trials(cfg.trials, n_snr, threads)
    chunks = [range(t, min(t + size, cfg.trials)) for t in range(0, cfg.trials, size)]
    run_chunk = partial(_chunk_records, cfg, snr_indices=range(n_snr))
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            by_chunk = list(pool.map(run_chunk, chunks))
    else:
        by_chunk = list(map(run_chunk, chunks))
    by_trial = [recs for chunk in by_chunk for recs in chunk]
    records = [recs[s] for s in range(n_snr) for recs in by_trial]

    rows = []
    for snr_idx, snr_db in enumerate(cfg.snr_sweep_db):
        point = records[snr_idx * cfg.trials:(snr_idx + 1) * cfg.trials]
        rows.extend(aggregate_snr(cfg.run_id, float(snr_db), point))
    return rows, records


def aggregate_snr(run_id: str, snr_db: float, records: Sequence[TrialRecord]) -> List[dict]:
    """Reduce one SNR point's trial records to the per-(parameter, class) rows.

    A class's detection rate is its matched truths over its truths.  The
    line-of-sight delay is zero by construction, so its error is not scored;
    its bound still is.
    """
    err = {(param, cls): [] for param in PARAMETERS for cls in PATH_CLASSES}
    var = {(param, cls): [] for param in PARAMETERS for cls in PATH_CLASSES}
    det = {c: [0, 0] for c in PATH_CLASSES}   # class -> [matched, total]
    iters = []
    for rec in sorted(records, key=lambda r: r.trial_id):
        if rec.r_hat > 0:
            iters.append(rec.sage_iterations)
        for ti in range(len(rec.truth)):
            det[path_class(ti)][1] += 1
        for (ti, _), sq in zip(rec.assignment, rec.matched):
            cls = path_class(ti)
            det[cls][0] += 1
            for param in PARAMETERS:
                if not (cls == "los" and param == "delay_ml_sym"):
                    err[param, cls].append(sq[param])
        for ti, bound in enumerate(rec.crlb_vars):
            for param in PARAMETERS:
                var[param, path_class(ti)].append(bound[param])

    mean_iters = float(np.mean(iters)) if iters else float("nan")
    rows = []
    for cls in PATH_CLASSES:
        rate = det[cls][0] / det[cls][1] if det[cls][1] else float("nan")
        for param in PARAMETERS:
            sq = err[param, cls]
            bounds = var[param, cls]
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
                  out_path: Optional[str] = None, *, wall_s: Optional[float] = None,
                  threads: Optional[int] = None) -> str:
    """Write the results CSV, its .meta companion and the optional feedback log.

    ``wall_s`` and ``threads``, the sweep's wall time and worker count, go
    into the .meta provenance.
    """
    path = out_path or cfg.output_path
    with open(path, "wb") as fh:
        fh.write(rows_to_csv_bytes(rows))
    with open(path + ".meta", "w", encoding="utf-8") as fh:
        json.dump(resolved_config_dict(cfg, wall_s, threads), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if cfg.emit_feedback_log and records is not None:
        with open(path + ".feedback.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("run_id", "snr_db", "trial_id", "path",
                             "beam_index_bits", "delta_ratio"))
            for rec in sorted(records, key=lambda r: (r.snr_db, r.trial_id)):
                for i, (*_, beam, delta_ratio) in enumerate(rec.coarse):
                    writer.writerow((cfg.run_id, _fmt(rec.snr_db), rec.trial_id,
                                     i, beam, _fmt(delta_ratio)))
    return path
