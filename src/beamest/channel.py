"""Random multipath scenario generation and synthesis of the probing observation.

A scenario has one line-of-sight path (unit gain, zero delay) plus a number of
reflected paths whose excess distances set both their delays and, through the
distance-dependent path loss, their gain magnitudes.  The observation stacks
one received row per probing beam: Y = sqrt(P_T) * sum_r alpha_r A(mu_r) C(tau_r) + N.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .arrays import ArrayConfig, beam_gains
from .errors import ConfigurationError
from .pilots import CazacConfig, _cached_base, _stack_shifted
from . import _kernels

SPEED_OF_LIGHT = 3.0e8  # m/s, propagation constant for distance-to-delay conversion


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario distributions and radio constants.

    ``snr_db`` fixes the transmit power through SNR = P_T * |alpha_1|^2 / noise_var
    with the line-of-sight gain pinned to 1.
    """

    bandwidth_hz: float = 200e6
    carrier_hz: float = 28e9
    m: int = 16
    n_nlos: int = 2
    d_los_range_m: tuple = (30.0, 60.0)
    delta_nlos_range_m: tuple = (4.5, 24.0)
    ple_los: float = 2.1
    ple_nlos: float = 2.4
    d0_m: float = 1.0
    theta_range_deg: tuple = (-60.0, 60.0)
    noise_var: float = 1.0
    snr_db: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ConfigurationError(f"bandwidth must be positive, got {self.bandwidth_hz}")
        if self.m < 1:
            raise ConfigurationError(f"sub-array size must be positive, got {self.m}")
        if self.n_nlos < 0:
            raise ConfigurationError(f"reflected-path count must be >= 0, got {self.n_nlos}")
        if self.noise_var < 0:
            raise ConfigurationError(f"noise variance must be >= 0, got {self.noise_var}")
        for name in ("d_los_range_m", "delta_nlos_range_m", "theta_range_deg"):
            # a tuple keeps the config hashable, as the harness's per-trial cache needs
            object.__setattr__(self, name, tuple(getattr(self, name)))
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ConfigurationError(f"{name} has inverted bounds ({lo}, {hi})")
        if self.d_los_range_m[0] <= 0 or self.d0_m <= 0:
            raise ConfigurationError("distances must be positive")

    @property
    def symbol_period_s(self) -> float:
        return 1.0 / self.bandwidth_hz


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex gain, departure angle and delay."""

    alpha: complex
    theta_deg: float
    mu: float
    tau_symbols: float


@dataclass(frozen=True)
class ChannelRealization:
    """Ground-truth paths plus transmit power and noise variance."""

    paths: tuple
    pt: float
    noise_var: float

    @property
    def r(self) -> int:
        return len(self.paths)

    def gains(self) -> np.ndarray:
        """Combined complex gains sqrt(P_T) * alpha_r for every path."""
        return np.sqrt(self.pt) * np.array([p.alpha for p in self.paths])

    def with_snr_db(self, snr_db: float) -> "ChannelRealization":
        """Same geometry with the transmit power rescaled to a new SNR."""
        ref = self.noise_var if self.noise_var > 0 else 1.0
        return replace(self, pt=ref * 10.0 ** (snr_db / 10.0))


@dataclass(frozen=True)
class ReceiveMatrix:
    """Stacked M x L observation plus the probing configuration that made it."""

    y: np.ndarray = field(repr=False)
    truth: ChannelRealization = None
    arr: ArrayConfig = None
    caz: CazacConfig = None


def spatial_frequency(theta_deg: float, spacing_over_lambda: float = 0.5) -> float:
    """mu = 2*pi*(d/lambda)*sin(theta), wrapped into [0, 2*pi)."""
    mu = 2.0 * np.pi * spacing_over_lambda * np.sin(np.radians(theta_deg))
    return float(np.mod(mu, 2.0 * np.pi))


def path_loss_db(distance_m: float, exponent: float, d0_m: float = 1.0) -> float:
    """Log-distance path loss 10 * n * log10(D / D0) in dB."""
    return 10.0 * exponent * np.log10(distance_m / d0_m)


def draw_realization(cfg: ScenarioConfig, rng: np.random.Generator,
                     spacing_over_lambda: float = 0.5) -> ChannelRealization:
    """Draw one random channel realization.

    The line-of-sight path has alpha = 1 and tau = 0.  Each reflected path
    draws an excess distance (which fixes its delay in symbols), a gain
    magnitude from the linear path-loss ratio relative to the direct path,
    a uniform phase, and an independent departure angle.
    """
    d_los = rng.uniform(*cfg.d_los_range_m)
    thetas = rng.uniform(*cfg.theta_range_deg, size=1 + cfg.n_nlos)
    pt = cfg.noise_var * 10.0 ** (cfg.snr_db / 10.0) if cfg.noise_var > 0 \
        else 10.0 ** (cfg.snr_db / 10.0)

    paths = [PathParams(alpha=1.0 + 0.0j, theta_deg=float(thetas[0]),
                        mu=spatial_frequency(thetas[0], spacing_over_lambda),
                        tau_symbols=0.0)]
    pl_los = path_loss_db(d_los, cfg.ple_los, cfg.d0_m)
    for i in range(cfg.n_nlos):
        delta = rng.uniform(*cfg.delta_nlos_range_m)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        pl_nlos = path_loss_db(d_los + delta, cfg.ple_nlos, cfg.d0_m)
        # ratio of the two losses in linear power units; reflected paths are weaker
        gamma = np.sqrt(10.0 ** ((pl_los - pl_nlos) / 10.0))
        tau = delta / (SPEED_OF_LIGHT * cfg.symbol_period_s)
        paths.append(PathParams(alpha=gamma * np.exp(1j * phase),
                                theta_deg=float(thetas[i + 1]),
                                mu=spatial_frequency(thetas[i + 1], spacing_over_lambda),
                                tau_symbols=float(tau)))
    return ChannelRealization(paths=tuple(paths), pt=float(pt), noise_var=cfg.noise_var)


def unit_power_signal(real: ChannelRealization, arr: ArrayConfig,
                      caz: CazacConfig) -> np.ndarray:
    """Noiseless M x L observation at unit transmit power, sum_r alpha_r A(mu_r) C(tau_r).

    The observation at transmit power P_T is sqrt(P_T) times this matrix, so
    an SNR sweep over one realization builds it once.
    """
    if arr.m != caz.length and arr.m > caz.length:
        raise ConfigurationError(
            f"more beams ({arr.m}) than pilot shifts ({caz.length}) is not supported")
    cbase = _cached_base(caz)
    s = np.zeros((arr.m, caz.length), dtype=complex)
    for p in real.paths:
        row0 = _kernels.pilot_row(cbase, p.tau_symbols, caz.rolloff, caz.pulse_halfwidth)
        s += p.alpha * beam_gains(arr, p.mu)[:, None] * _stack_shifted(row0, arr.m)
    return s


def awgn(rng: np.random.Generator, shape: tuple, noise_var: float) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise; real and imaginary parts each carry half."""
    scale = np.sqrt(noise_var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def synthesize(real: ChannelRealization, arr: ArrayConfig, caz: CazacConfig,
               rng: np.random.Generator | None = None) -> ReceiveMatrix:
    """Noisy stacked observation of the given realization.

    Noise entries are i.i.d. circularly-symmetric complex Gaussian with
    variance ``real.noise_var`` (real and imaginary parts each half of it).
    A zero noise variance synthesizes the noiseless forward model.
    """
    y = np.sqrt(real.pt) * unit_power_signal(real, arr, caz)
    if real.noise_var > 0:
        if rng is None:
            raise ConfigurationError("a random generator is required when noise_var > 0")
        y += awgn(rng, y.shape, real.noise_var)
    return ReceiveMatrix(y=y, truth=real, arr=arr, caz=caz)
