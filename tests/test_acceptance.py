"""Acceptance gate: one test per release criterion, each printing a verdict line.

The Monte-Carlo criteria share one seeded sweep (four SNR points, 1000 trials
each) over a scenario with a single reflected path whose delay stays inside
the unambiguous span of the probing design (at most L - 1 = 15 symbols).
Two structural blind spots motivate that choice, and both belong to the
probing design rather than the estimators:

* with several reflected paths, draws whose delays overlap within the pulse
  span make the model order ill-posed at the coarse stage;
* a delay inside the last symbol of the pilot period aliases its strongest
  tap onto the direct path's delay, so no estimator using this pilot can
  separate such a draw from the direct path.

Bound-tracking is therefore asserted on the collision-free, alias-free
scenario; the library defaults keep the full configured spans.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from beamest import (ArrayConfig, CazacConfig, RunConfig, SageConfig, ScenarioConfig,
                     build_lut, butler_matrix, cazac_base, coarse_estimate, correlate,
                     detect_paths, detection_threshold, dft_beam, draw_realization,
                     fisher_matrix, maximize_mu, maximize_tau, parameter_index,
                     pilot_matrix, run_sage, run_sweep, synthesize)
from beamest import _kernels
from beamest.arrays import beam_gains
from beamest.channel import ChannelRealization, PathParams
from beamest.harness import rows_to_csv_bytes
from beamest.pilots import _conj_shifts
from beamest.sage import _gathered, _pilots, _tau_bounds, expectation_step, PathEstimate

ARR = ArrayConfig(m=16)
CAZ = CazacConfig()
LUT = build_lut(ARR, 101)

SWEEP_CFG = RunConfig(
    scenario=ScenarioConfig(n_nlos=1, seed=20260810,
                            delta_nlos_range_m=(4.5, 22.5)),  # delays in [3, 15] symbols
    snr_sweep_db=(-10.0, 0.0, 10.0, 20.0),
    trials=1000,
    run_id="acceptance",
)

AMP_3DB = 10.0 ** (3.0 / 20.0)   # 1.412...
AMP_5DB = 10.0 ** (5.0 / 20.0)   # 1.778...


def verdict(num, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {num} ({name}): {state}  {detail}")
    return ok


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    rows, records = run_sweep(SWEEP_CFG, threads=1)
    elapsed = time.perf_counter() - t0
    table = {(r["snr_db"], r["path_class"], r["parameter"]): r for r in rows}
    return {"rows": rows, "records": records, "table": table, "seconds": elapsed}


def test_criterion_1_butler_dft_equivalence():
    t0 = time.perf_counter()
    worst_gram = 0.0
    all_matched = True
    for m in (2, 4, 8, 16):
        cfg = ArrayConfig(m=m)
        b = butler_matrix(cfg)
        worst_gram = max(worst_gram, np.linalg.norm(b.conj().T @ b - np.eye(m)))
        for col in b.T:
            hits = [k for k in range(m)
                    if abs(abs(np.vdot(dft_beam(cfg, k), col)) - 1.0) < 1e-10]
            all_matched &= len(hits) == 1
    elapsed = time.perf_counter() - t0
    ok = all_matched and worst_gram < 1e-12 and elapsed < 1.0
    assert verdict(1, "Butler/DFT equivalence", ok,
                   f"gram err {worst_gram:.2e}, {elapsed:.2f}s")


def test_criterion_2_pilot_shift_orthogonality():
    t0 = time.perf_counter()
    c0 = pilot_matrix(CAZ, 16, 0.0)
    worst = 0.0
    for i in range(16):
        perm = np.zeros((16, 16))
        perm[np.arange(16), (np.arange(16) + i) % 16] = 1.0
        gram = pilot_matrix(CAZ, 16, float(i)) @ c0.conj().T
        worst = max(worst, np.linalg.norm(gram - 16.0 * perm))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    assert verdict(2, "pilot cyclic-shift orthogonality", ok,
                   f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_on_grid_noiseless_coarse_exactness():
    t0 = time.perf_counter()
    k0, i0 = 5, 3
    mu = float(ARR.beam_phases[k0])
    real = ChannelRealization(
        paths=(PathParams(alpha=1.0 + 0.0j, theta_deg=0.0, mu=mu, tau_symbols=float(i0)),),
        pt=1.0, noise_var=0.0)
    pm = correlate(synthesize(real, ARR, CAZ))
    dets = detect_paths(pm, detection_threshold(1.0, 16))
    est = coarse_estimate(pm, dets, LUT, ARR, CAZ, 1.0)
    elapsed = time.perf_counter() - t0
    peak_ok = len(dets) == 1 and abs(dets[0].peak_power - 4096.0) < 1e-9 * 4096.0
    ok = (peak_ok and est.r_hat == 1 and est.paths[0].tau_int == i0
          and est.paths[0].mu_hat == mu and elapsed < 1.0)
    assert verdict(3, "on-grid noiseless coarse exactness", ok,
                   f"peak {dets[0].peak_power:.6f}, tau {est.paths[0].tau_int}, {elapsed:.2f}s")


def test_criterion_4_fisher_matrix_vs_finite_differences():
    from beamest.pilots import _stack_shifted

    def forward(gains, mus, taus):
        y = np.zeros((16, 16), dtype=complex)
        cbase = cazac_base(CAZ)
        for g, mu, tau in zip(gains, mus, taus):
            row0 = _kernels.pilot_rows(cbase, [tau], CAZ.rolloff, CAZ.pulse_halfwidth)[0]
            y += g * beam_gains(ARR, mu)[:, None] * _stack_shifted(row0, 16)
        return y

    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    worst = 0.0
    for trial in range(50):
        n_paths = int(rng.integers(1, 4))
        snr_db = float(rng.uniform(-5, 15))
        real = draw_realization(ScenarioConfig(n_nlos=n_paths - 1), rng).with_snr_db(snr_db)
        analytic = fisher_matrix(real, ARR, CAZ)

        gains = list(real.gains())
        mus = [p.mu for p in real.paths]
        taus = [p.tau_symbols for p in real.paths]
        jac = np.empty((16, 16, 4 * n_paths), dtype=complex)
        for r in range(n_paths):
            hg = 1e-6 * max(1.0, abs(gains[r]))
            for kind, dg in (("re", hg), ("im", 1j * hg)):
                gp, gm = list(gains), list(gains)
                gp[r] += dg
                gm[r] -= dg
                jac[:, :, parameter_index(kind, r, n_paths)] = \
                    (forward(gp, mus, taus) - forward(gm, mus, taus)) / (2 * hg)
            mp, mm = list(mus), list(mus)
            mp[r] += 1e-6
            mm[r] -= 1e-6
            jac[:, :, parameter_index("mu", r, n_paths)] = \
                (forward(gains, mp, taus) - forward(gains, mm, taus)) / 2e-6
            tp, tm = list(taus), list(taus)
            tp[r] += 1e-6
            tm[r] -= 1e-6
            jac[:, :, parameter_index("tau", r, n_paths)] = \
                (forward(gains, mus, tp) - forward(gains, mus, tm)) / 2e-6
        flat = jac.reshape(-1, 4 * n_paths)
        fd = (2.0 / real.noise_var) * np.real(flat.conj().T @ flat)
        worst = max(worst, np.linalg.norm(analytic - fd) / np.linalg.norm(fd))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 30.0
    assert verdict(4, "information matrix vs finite differences", ok,
                   f"worst rel {worst:.2e} over 50 draws, {elapsed:.1f}s")


def _structurally_detectable(real, threshold):
    """Coarse detectability of the reflected path on the integer-delay grid.

    Delays in the last symbol of the span alias their strongest tap onto the
    direct path's delay (the pilot length caps the measurable delay span),
    so only the within-span tap counts.  A factor-2 margin keeps the check
    conservative.
    """
    p = real.paths[1]
    tau = p.tau_symbols
    frac = tau - math.floor(tau)
    if tau <= 15.0:
        tap = max(_kernels.rc_samples(np.array([-frac]), CAZ.rolloff)[0] ** 2,
                  _kernels.rc_samples(np.array([1.0 - frac]), CAZ.rolloff)[0] ** 2)
    else:
        tap = _kernels.rc_samples(np.array([tau - 15.0]), CAZ.rolloff)[0] ** 2
    return abs(p.alpha) ** 2 * 16 ** 3 * tap >= 2.0 * threshold


def test_criterion_5_noiseless_global_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    scen = ScenarioConfig(n_nlos=1, noise_var=0.0)
    threshold = detection_threshold(1.0, 16)
    kept = 0
    tried = 0
    failures = []
    while kept < 20 and tried < 200:
        tried += 1
        real = draw_realization(scen, rng)
        if not _structurally_detectable(real, threshold):
            continue
        kept += 1
        y = synthesize(real, ARR, CAZ)
        pm = correlate(y)
        dets = detect_paths(pm, threshold)
        est = coarse_estimate(pm, dets, LUT, ARR, CAZ, 1.0)
        if est.r_hat != 2:
            failures.append(f"model order {est.r_hat}")
            continue
        refined = run_sage(y, est, SageConfig(), 1.0)
        for p in real.paths:
            best = min(refined.paths, key=lambda e: abs(e.tau_hat - p.tau_symbols))
            dmu = abs((best.mu_hat - p.mu + np.pi) % (2 * np.pi) - np.pi)
            dtau = abs(best.tau_hat - p.tau_symbols)
            dg = abs(best.alpha_hat - p.alpha) / abs(p.alpha)
            if dmu > 1e-6 or dtau > 1e-4 or dg > 1e-6:
                failures.append(f"dmu {dmu:.1e} dtau {dtau:.1e} dg {dg:.1e}")
    elapsed = time.perf_counter() - t0
    ok = kept == 20 and not failures and elapsed < 60.0
    assert verdict(5, "noiseless global recovery", ok,
                   f"{kept} realizations ({tried} drawn), failures {failures}, {elapsed:.1f}s")


def test_criterion_6_convergence_profile(sweep):
    mid_idx = SWEEP_CFG.snr_sweep_db.index(10.0)
    chunk = sweep["records"][mid_idx * SWEEP_CFG.trials:(mid_idx + 1) * SWEEP_CFG.trials]
    iters = np.array([r.sage_iterations for r in chunk if r.r_hat > 0])
    median = float(np.median(iters))
    frac_fast = float(np.mean(iters <= 10))
    ok = (len(iters) > 900 and 2.0 <= median <= 4.0 and frac_fast >= 0.95
          and sweep["seconds"] < 300.0)
    assert verdict(6, "refinement convergence profile", ok,
                   f"median {median:.0f}, P(iters<=10) {frac_fast:.3f}, "
                   f"sweep {sweep['seconds']:.0f}s")


def test_criterion_7_rmse_tracks_bounds(sweep):
    table = sweep["table"]
    checks = {}

    for snr in (10.0, 20.0):
        row = table[(snr, "los", "aod_ml_deg")]
        checks[f"los_aod_within_3db_at_{snr:+.0f}"] = \
            row["rmse"] <= AMP_3DB * row["sqrt_crlb_avg"]
        row = table[(snr, "nlos", "delay_ml_sym")]
        checks[f"nlos_delay_within_5db_at_{snr:+.0f}"] = \
            row["rmse"] <= AMP_5DB * row["sqrt_crlb_avg"]

    for snr in SWEEP_CFG.snr_sweep_db:
        coarse = table[(snr, "los", "aod_coarse_deg")]["rmse"]
        ml = table[(snr, "los", "aod_ml_deg")]["rmse"]
        checks[f"coarse_not_below_ml_at_{snr:+.0f}"] = coarse >= ml

    for cls in ("los", "nlos"):
        for param in ("aod_coarse_deg", "aod_ml_deg", "gain_ml_rel", "delay_ml_sym"):
            curve = [table[(snr, cls, param)]["rmse"] for snr in SWEEP_CFG.snr_sweep_db]
            curve = [c for c in curve if not math.isnan(c)]
            if len(curve) < 2:
                continue
            non_increasing = all(b <= 1.10 * a for a, b in zip(curve, curve[1:]))
            checks[f"monotone_{cls}_{param}"] = non_increasing

    failed = sorted(k for k, v in checks.items() if not v)
    ok = not failed and sweep["seconds"] < 1200.0
    key_rows = [table[(10.0, "los", "aod_ml_deg")], table[(10.0, "nlos", "delay_ml_sym")]]
    detail = (f"LOS aod@10dB {key_rows[0]['rmse']:.4f}/{key_rows[0]['sqrt_crlb_avg']:.4f} deg, "
              f"NLOS delay@10dB {key_rows[1]['rmse']:.4f}/{key_rows[1]['sqrt_crlb_avg']:.4f} sym, "
              f"failed={failed}, sweep {sweep['seconds']:.0f}s")
    assert verdict(7, "RMSE tracks the bounds", ok, detail)


def test_criterion_8_worker_count_determinism():
    t0 = time.perf_counter()
    cfg = replace(SWEEP_CFG, trials=40, snr_sweep_db=(0.0, 10.0), run_id="det")
    rows_serial, _ = run_sweep(cfg, threads=1)
    rows_again, _ = run_sweep(cfg, threads=1)
    rows_pool, _ = run_sweep(cfg, threads=3)
    same = (rows_to_csv_bytes(rows_serial) == rows_to_csv_bytes(rows_again)
            == rows_to_csv_bytes(rows_pool))
    elapsed = time.perf_counter() - t0
    ok = same and elapsed < 1200.0
    assert verdict(8, "byte-identical output across worker counts", ok,
                   f"{elapsed:.1f}s")


def test_criterion_9_maximizers_match_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    cfg = SageConfig(refine_tol=1e-9)
    scen = ScenarioConfig(n_nlos=1)
    worst = 0.0
    for trial in range(20):
        real = draw_realization(scen, np.random.default_rng((99, trial))).with_snr_db(10.0)
        y = synthesize(real, ARR, CAZ, np.random.default_rng((98, trial)))
        ests = [PathEstimate(p.mu, p.tau_symbols, math.sqrt(real.pt) * p.alpha)
                for p in real.paths]
        x = expectation_step(y, ests, 1, cfg)
        p = real.paths[1]
        center = float(round(p.tau_symbols))
        xg = _gathered(x)

        z = (beam_gains(ARR, p.mu).conj()[:, None] * xg).sum(axis=0)
        w = _conj_shifts(CAZ) @ z
        lo, hi = _tau_bounds(center, cfg, 16)
        taus = np.linspace(lo, hi, 100000)
        vals = _kernels.tau_objective(w, taus, CAZ.rolloff, CAZ.pulse_halfwidth, 16)
        brute_tau = float(taus[int(np.argmax(vals))])
        tau_hat = maximize_tau(x, p.mu, cfg, center, arr=ARR, caz=CAZ)
        worst = max(worst, abs(tau_hat - brute_tau))

        v = _pilots(CAZ, [p.tau_symbols])[0]
        q = (xg * v.conj()[None, :]).sum(axis=1)
        qt = 16 * np.fft.ifft(q)
        c0 = p.mu + 0.02
        mus = np.linspace(c0 - 2 * np.pi / 16, c0 + 2 * np.pi / 16, 100000)
        vals = _kernels.mu_objective(qt, mus)
        brute_mu = float(np.mod(mus[int(np.argmax(vals))], 2 * np.pi))
        mu_hat = maximize_mu(x, p.tau_symbols, cfg, c0, arr=ARR, caz=CAZ)
        worst = max(worst, abs((mu_hat - brute_mu + np.pi) % (2 * np.pi) - np.pi))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    assert verdict(9, "grid+zoom matches dense scans", ok,
                   f"worst gap {worst:.2e}, {elapsed:.1f}s")
