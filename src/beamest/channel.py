"""Random multipath scenario generation and synthesis of the probing observation.

A scenario has one line-of-sight path (unit gain, zero delay) plus a number of
reflected paths whose excess distances set both their delays and, through the
distance-dependent path loss, their gain magnitudes.  The observation stacks
one received row per probing beam: Y = sqrt(P_T) * sum_r alpha_r A(mu_r) C(tau_r) + N,
the sum over the stack of path terms that :func:`path_signal` builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .arrays import ArrayConfig, beam_gains, spatial_frequency
from .errors import ConfigurationError, is_real, require_integers, require_reals
from .pilots import CazacConfig, _cached_base, _stack_shifted
from . import _kernels

SPEED_OF_LIGHT = 3.0e8  # m/s, propagation constant for distance-to-delay conversion


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario distributions and radio constants.

    ``bandwidth_hz`` sets the symbol period 1/B that turns excess path lengths
    into delays in symbols.  The transmit power is no scenario constant: each
    SNR point sets it through :meth:`ChannelRealization.with_snr_db`.
    """

    bandwidth_hz: float = 200e6
    n_nlos: int = 2
    d_los_range_m: tuple = (30.0, 60.0)
    delta_nlos_range_m: tuple = (4.5, 24.0)
    ple_los: float = 2.1
    ple_nlos: float = 2.4
    d0_m: float = 1.0
    theta_range_deg: tuple = (-60.0, 60.0)
    noise_var: float = 1.0
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "n_nlos", "seed")
        require_reals(self, "bandwidth_hz", "ple_los", "ple_nlos", "d0_m", "noise_var")
        if self.bandwidth_hz <= 0:
            raise ConfigurationError(f"bandwidth must be positive, got {self.bandwidth_hz}")
        if self.n_nlos < 0:
            raise ConfigurationError(f"reflected-path count must be >= 0, got {self.n_nlos}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.noise_var < 0:
            raise ConfigurationError(f"noise variance must be >= 0, got {self.noise_var}")
        for name in ("d_los_range_m", "delta_nlos_range_m", "theta_range_deg"):
            # a tuple keeps the config hashable, and equal to one given tuples
            pair = tuple(getattr(self, name))
            object.__setattr__(self, name, pair)
            if len(pair) != 2 or not all(map(is_real, pair)):
                raise ConfigurationError(
                    f"{name} must be a pair of finite real numbers, got {pair!r}")
            lo, hi = pair
            if not lo <= hi:
                raise ConfigurationError(f"{name} has inverted bounds ({lo}, {hi})")
        if self.d_los_range_m[0] <= 0 or self.d0_m <= 0:
            raise ConfigurationError("distances must be positive")
        # delays count from the line-of-sight path's tau = 0, and a linear array
        # cannot tell theta from 180 - theta, so angles beyond +-90 deg alias
        if self.delta_nlos_range_m[0] < 0:
            raise ConfigurationError(
                f"delta_nlos_range_m must not be negative, got {self.delta_nlos_range_m}: "
                "a reflected path cannot arrive before the line-of-sight path")
        if self.theta_range_deg[0] <= -90.0 or self.theta_range_deg[1] >= 90.0:
            raise ConfigurationError(
                f"theta_range_deg must lie strictly between -90 and 90, got "
                f"{self.theta_range_deg}: angles past endfire alias, and the endfire angles "
                "themselves share mu = pi (-90 reads back as +90) and make the angle bound's "
                "slope d theta / d mu infinite; any angle short of them is admitted")

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
        """Same geometry with the transmit power set by
        SNR = P_T * |alpha_1|^2 / noise_var, the line-of-sight gain being 1
        (a noiseless realization takes the ratio against unit noise)."""
        ref = self.noise_var if self.noise_var > 0 else 1.0
        return replace(self, pt=ref * 10.0 ** (snr_db / 10.0))


@dataclass(frozen=True)
class ReceiveMatrix:
    """Stacked M x L observation, or a (B, M, L) stack of them, plus the
    probing configuration that made it."""

    y: np.ndarray = field(repr=False)
    arr: ArrayConfig
    caz: CazacConfig


def path_loss_db(distance_m: float, exponent: float, d0_m: float = 1.0) -> float:
    """Log-distance path loss 10 * n * log10(D / D0) in dB."""
    return 10.0 * exponent * np.log10(distance_m / d0_m)


def draw_realization(cfg: ScenarioConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one random channel realization at unit transmit power.

    The line-of-sight path has alpha = 1 and tau = 0.  Each reflected path
    draws an excess distance (which fixes its delay in symbols), a gain
    magnitude from the linear path-loss ratio relative to the direct path,
    a uniform phase, and an independent departure angle.
    """
    d_los = rng.uniform(*cfg.d_los_range_m)
    thetas = rng.uniform(*cfg.theta_range_deg, size=1 + cfg.n_nlos)

    paths = [PathParams(alpha=1.0 + 0.0j, theta_deg=float(thetas[0]),
                        mu=spatial_frequency(thetas[0]),
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
                                mu=spatial_frequency(thetas[i + 1]),
                                tau_symbols=float(tau)))
    return ChannelRealization(paths=tuple(paths), pt=1.0, noise_var=cfg.noise_var)


def path_signal(alpha, gains: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Path terms alpha * A(mu) * C(tau), from the beam gains A(mu) and the
    delayed pilot rows v(tau); row k of C(tau) is v shifted by k.  A lone path,
    gain rows (M,) and pilot row (L,), gives (M, L); a stack of S paths, gains
    (S,), gain rows (S, M) and pilot rows (S, L), gives (S, M, L)."""
    c = _stack_shifted(v, gains.shape[-1])
    return np.asarray(alpha)[..., None, None] * gains[..., None] * c


def delayed_pilots(reals, caz: CazacConfig) -> np.ndarray:
    """The (T, 2R, L) pilot rows [v | v'] of a sequence of T realizations of R
    paths each: per realization every path's v(tau_r), then every dv/dtau_r,
    from one tap evaluation over all T*R delays."""
    v, dv = _kernels.pilot_rows_and_derivs(
        _cached_base(caz), [p.tau_symbols for r in reals for p in r.paths], caz.rolloff,
        caz.pulse_halfwidth)
    shape = (len(reals), -1, caz.length)
    return np.concatenate([v.reshape(shape), dv.reshape(shape)], axis=1)


def unit_power_signal(reals, arr: ArrayConfig, caz: CazacConfig,
                      rows: np.ndarray | None = None) -> np.ndarray:
    """The (T, M, L) noiseless observations at unit transmit power,
    sum_r alpha_r A(mu_r) C(tau_r), of a sequence of T realizations of R
    paths each, from one stacked :func:`path_signal` call.

    The observation at transmit power P_T is sqrt(P_T) times its matrix, so
    an SNR sweep over one realization builds it once.  ``rows`` are the
    (T, 2R, L) pilot rows [v | v'] from :func:`delayed_pilots`, of which the
    path terms use the first R per realization; without them only the rows v
    are built, from one ``pilot_rows`` call.
    """
    if arr.m > caz.length:
        raise ConfigurationError(
            f"more beams ({arr.m}) than pilot shifts ({caz.length}) is not supported")
    paths = [p for r in reals for p in r.paths]
    n = reals[0].r
    if rows is None:
        v = _kernels.pilot_rows(_cached_base(caz), [p.tau_symbols for p in paths],
                                caz.rolloff, caz.pulse_halfwidth)
    else:
        v = rows[:, :n].reshape(-1, caz.length)
    terms = path_signal([p.alpha for p in paths], beam_gains(arr, [p.mu for p in paths]), v)
    return terms.reshape(len(reals), n, arr.m, caz.length).sum(axis=1)


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
    y = np.sqrt(real.pt) * unit_power_signal([real], arr, caz)[0]
    if real.noise_var > 0:
        if rng is None:
            raise ConfigurationError("a random generator is required when noise_var > 0")
        y += awgn(rng, y.shape, real.noise_var)
    return ReceiveMatrix(y=y, arr=arr, caz=caz)
