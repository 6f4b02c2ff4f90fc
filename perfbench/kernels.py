"""Micro-suite over the public per-path kernels, on inputs fixed by the seed.

The inputs come from one 20 dB trial of the acceptance config: its
observation, the refined path estimates and the hidden observation of the
first path.  Each case is timed in batches long enough for ``perf_counter``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict

from beamest import (build_lut, coarse_estimate, correlate, detect_paths, detection_threshold,
                     expectation_step, fisher_matrix, maximize_mu, maximize_tau,
                     pilot_matrix, pilot_matrix_derivative, run_sage, update_alpha)
from beamest.harness import synthesize_trial

from workloads import WORKLOADS

BATCH_SECONDS = 0.02


def kernel_cases(seed: int) -> Dict[str, Callable[[], object]]:
    cfg = WORKLOADS["accept_sweep"].config(seed, 0)
    top = len(cfg.snr_sweep_db) - 1
    real, y, noise = synthesize_trial(cfg, top, 0)
    arr, caz, sage = cfg.array, cfg.cazac, cfg.sage
    pm = correlate(y)
    detections = detect_paths(pm, detection_threshold(noise, arr.m, cfg.coarse.p_fa))
    coarse = coarse_estimate(pm, detections, build_lut(arr, cfg.coarse.k_points),
                             arr, caz, noise, v=cfg.coarse.v, p_fa=cfg.coarse.p_fa)
    estimates = list(run_sage(y, coarse, sage, noise).paths)
    est = estimates[0]
    x_hat = expectation_step(y, estimates, 0, sage)
    tau_frac = real.paths[-1].tau_symbols
    return {
        "kernels.maximize_tau_us": lambda: maximize_tau(
            x_hat, est.mu_hat, sage, est.tau_hat, arr=arr, caz=caz),
        "kernels.maximize_mu_us": lambda: maximize_mu(
            x_hat, est.tau_hat, sage, est.mu_hat, arr=arr, caz=caz),
        "kernels.update_alpha_us": lambda: update_alpha(
            x_hat, est.mu_hat, est.tau_hat, arr=arr, caz=caz),
        "kernels.expectation_step_us": lambda: expectation_step(y, estimates, 0, sage),
        "kernels.pilot_matrix_us": lambda: pilot_matrix(caz, arr.m, tau_frac),
        "kernels.pilot_derivative_us": lambda: pilot_matrix_derivative(caz, arr.m, tau_frac),
        "kernels.fisher_matrix_us": lambda: fisher_matrix(real, arr, caz),
    }


def batch_size(fn: Callable[[], object]) -> int:
    """Calls per batch: the smallest power of two that lasts BATCH_SECONDS."""
    fn()
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - t0 >= BATCH_SECONDS:
            return n
        n *= 2


def time_batch(fn: Callable[[], object], n: int) -> float:
    """Microseconds per call over one batch of ``n`` calls."""
    t0 = perf_counter()
    for _ in range(n):
        fn()
    return (perf_counter() - t0) / n * 1e6
