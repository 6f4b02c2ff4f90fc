"""Coarse grid estimation from the post-correlation power matrix.

The receiver correlates each beam's row with every cyclic shift of the
pilot, Z = Y C^H over all L lags, and undoes each beam's own pilot shift
(the gather that ``pilots`` owns), so the M x L power matrix P = |Z|^2 puts
a path at integer delay d and beam k on row k, column d.  Scanning the
column maxima against a threshold yields the model order and integer
delays, and the ratio of the two dominant beam powers in a column is
inverted through a precomputed look-up table to place the spatial frequency
inside the beam cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .arrays import ArrayConfig, beam_gains, mu_to_theta_deg, wrapped_distance
from .channel import ReceiveMatrix
from .errors import ConfigurationError, is_real
from .pilots import CazacConfig, _lag_correlation, sidelobe_power_ratios


class Detection(NamedTuple):
    """One delay column whose maximum cleared the threshold (1-based indices)."""

    delay_index: int  # i = 1..L; integer delay estimate is i - 1
    row_index: int    # k = 1..M; beam index is k - 1
    peak_power: float


class Feedback(NamedTuple):
    """Per-path uplink report: one real ratio plus a log2(M)-bit beam index.

    The sign of ``delta_ratio`` encodes the interpolation direction (negative
    means the lower-index neighbour carried the larger power); ``inf`` means
    the near-grid guard fired and the beam phase is used as-is.
    """

    delta_ratio: float
    beam_index_bits: int


@dataclass(frozen=True)
class Lut:
    """Beam power ratios over one beam cell, shared by every beam.

    ``ratios[l]`` is sqrt(P_k / P_{k+1}) at mu = Phi_k + l * delta_mu; it
    decreases strictly from +inf (on the grid point, the neighbour beam is
    orthogonal) to 0 at the next grid point.
    """

    ratios: np.ndarray = field(repr=False)
    delta_mu: float = 0.0

    @property
    def k_points(self) -> int:
        return len(self.ratios) - 1


@dataclass(frozen=True)
class CoarsePath:
    """One coarsely estimated path; its beam index is ``feedback.beam_index_bits``."""

    tau_int: int
    mu_hat: float
    peak_power: float
    feedback: Feedback

    @property
    def theta_hat_deg(self) -> float:
        return mu_to_theta_deg(self.mu_hat)


@dataclass(frozen=True)
class CoarseEstimate:
    """Per-path coarse parameters; the model order is their count."""

    paths: Tuple[CoarsePath, ...]

    @property
    def r_hat(self) -> int:
        return len(self.paths)


def correlate(y: ReceiveMatrix) -> np.ndarray:
    """The M x L power matrix |Z|^2 of the correlation Z = Y C^H over all L
    lags (a single-snapshot estimate), each beam's pilot shift undone
    (``pilots._lag_correlation``): entry (k, d) is beam k's power at delay
    d.  A (B, M, L) stack of observations in ``y`` gives the (B, M, L) stack
    from one ``matmul``, each matrix equal to its lone call bit for bit."""
    return np.abs(_lag_correlation(y.y, y.caz)) ** 2


def detection_threshold(noise_var: float, m: int, p_fa: float = 1e-3, *,
                        ell: Optional[int] = None) -> float:
    """Per-delay threshold noise_var * L * ln(M / p_fa), L = ``ell`` (M if not given).

    Noise-only power entries are i.i.d. exponential with mean noise_var * L,
    since each sums L unit-modulus pilot symbols; the exponential tail bound
    on the max of a column's M of them pins the per-delay false-alarm
    probability at roughly ``p_fa``.  ``noise_var`` must be a positive finite
    number.
    """
    if not (is_real(noise_var) and noise_var > 0):
        raise ConfigurationError(
            f"noise variance must be a positive finite number, got {noise_var!r}")
    if not 0.0 < p_fa < 1.0:
        raise ConfigurationError(f"false-alarm target must lie in (0, 1), got {p_fa}")
    return noise_var * (m if ell is None else ell) * math.log(m / p_fa)


def detect_paths(p: np.ndarray, g: float):
    """Scan all L delay columns and report maxima above the threshold.

    Column d holds every beam's power at integer delay d; all columns are
    scanned at once, and ``argmax`` keeps the first (lowest) beam on ties.  A
    (B, M, L) stack of power matrices is scanned in the same pass and gives
    one list per matrix, each equal to its lone call.
    """
    if g <= 0:
        raise ConfigurationError(f"detection threshold must be positive, got {g}")
    cols = p.reshape((-1,) + p.shape[-2:])
    peaks = cols.max(axis=-2)
    hit = peaks >= g
    found: List[List[Detection]] = [[] for _ in range(len(cols))]
    if hit.any():
        hit_b, hit_d = hit.nonzero()
        ks = cols[hit_b, :, hit_d].argmax(axis=-1)
        for b, d, k, peak in zip(hit_b.tolist(), hit_d.tolist(), ks.tolist(),
                                 peaks[hit_b, hit_d].tolist()):
            found[b].append(Detection(delay_index=d + 1, row_index=k + 1, peak_power=peak))
    return found[0] if p.ndim == 2 else found


def build_lut(arr: ArrayConfig, k_points: int) -> Lut:
    """Precompute the K+1 beam power ratios over one beam cell.

    The ratios do not depend on which beam cell is used, so they are evaluated
    between beams 0 and 1.  The endpoints are stored as +inf and 0 exactly
    (the neighbour beam is orthogonal on the grid points).
    """
    if k_points < 2:
        raise ConfigurationError(f"LUT needs at least 2 intervals, got {k_points}")
    delta_mu = 2.0 * np.pi / (arr.m * k_points)
    ratios = np.empty(k_points + 1)
    for l in range(k_points + 1):
        gains = beam_gains(arr, l * delta_mu)
        p_k = abs(gains[0]) ** 2
        p_k1 = abs(gains[1]) ** 2
        ratios[l] = np.sqrt(p_k / p_k1) if p_k1 > 1e-300 else np.inf
    ratios[0] = np.inf
    ratios[k_points] = 0.0
    return Lut(ratios=ratios, delta_mu=float(delta_mu))


def lut_interpolate(lut: Lut, delta: float) -> float:
    """Sub-cell offset (in LUT steps l + b) for a measured power ratio.

    Finds l with ratios[l] >= delta >= ratios[l+1] and interpolates linearly;
    in the first cell, where the stored ratio is the +inf sentinel, the
    interpolation runs on reciprocal ratios so b stays in [0, 1].
    """
    ratios = lut.ratios
    idx = int(np.searchsorted(-ratios, -delta, side="left"))
    l = min(max(idx - 1, 0), lut.k_points - 1)
    if l == 0:
        b = 0.0 if not np.isfinite(delta) else ratios[1] / delta
    else:
        b = (ratios[l] - delta) / (ratios[l] - ratios[l + 1])
    return l + min(max(b, 0.0), 1.0)


def coarse_estimate(p: np.ndarray, detections: Sequence[Detection], lut: Lut,
                    arr: ArrayConfig, caz: CazacConfig, noise_var: float,
                    v: float = 3.0, p_fa: float = 1e-3) -> CoarseEstimate:
    """Interpolate spatial frequencies per detection and refine the model order.

    Per detection, the two neighbour beams' powers are read in the same delay
    column (rows wrap around mod M); if they differ by no more than
    noise_var / v the path is taken to sit on the beam grid point, otherwise
    the larger neighbour fixes the interpolation direction and the LUT
    inverts the measured power ratio into a sub-cell offset.

    Model-order refinement drops detections explainable as pulse sidelobes of
    a stronger kept detection: within the pulse span in cyclic delay, inside
    the stronger path's beam cell, and with power inside the sidelobe envelope
    (plus threshold slack).  The angle tolerance widens towards one beamwidth
    as the candidate's peak nears the noise floor, since its interpolated
    angle scatters accordingly.
    """
    if not detections:
        raise ConfigurationError("coarse estimation needs at least one detection")
    m = arr.m
    if p.shape != (m, caz.length):
        raise ConfigurationError(f"power matrix shape {p.shape} is not (M, L) = "
                                 f"({m}, {caz.length}), the array size by the pilot length")
    phis = arr.beam_phases
    raw = []
    for det in detections:
        k0 = det.row_index - 1
        d = det.delay_index - 1
        p_next = p[(k0 + 1) % m, d]
        p_prev = p[(k0 - 1) % m, d]
        if abs(p_next - p_prev) <= noise_var / v:
            mu_hat = float(phis[k0])
            fb = Feedback(delta_ratio=np.inf, beam_index_bits=k0)
        else:
            sign = 1.0 if p_next > p_prev else -1.0
            neighbour = p_next if p_next > p_prev else p_prev
            delta = math.sqrt(det.peak_power / neighbour)
            offset = lut_interpolate(lut, delta)
            mu_hat = float(np.mod(phis[k0] + sign * lut.delta_mu * offset, 2.0 * np.pi))
            fb = Feedback(delta_ratio=sign * delta, beam_index_bits=k0)
        raw.append(CoarsePath(tau_int=d, mu_hat=mu_hat, peak_power=det.peak_power,
                              feedback=fb))

    return CoarseEstimate(paths=tuple(_refine_model_order(raw, lut, arr, caz, noise_var, p_fa)))


def _refine_model_order(paths: List[CoarsePath], lut: Lut, arr: ArrayConfig,
                        caz: CazacConfig, noise_var: float, p_fa: float) -> List[CoarsePath]:
    m, ell = arr.m, caz.length
    beam = 2.0 * np.pi / m
    sidelobe = sidelobe_power_ratios(caz)
    slack = detection_threshold(noise_var, m, p_fa, ell=ell) if noise_var > 0 else 0.0
    floor = noise_var * ell
    kept: List[CoarsePath] = []
    for cand in sorted(paths, key=lambda q: -q.peak_power):
        tol_mu = 2.0 * lut.delta_mu
        if floor > 0:
            tol_mu = min(beam, max(tol_mu, 5.0 * beam * math.sqrt(floor / cand.peak_power)))
        explained = False
        for strong in kept:
            gap = cand.tau_int - strong.tau_int
            dcyc = min(gap % ell, -gap % ell)
            if not 1 <= dcyc <= len(sidelobe):
                continue
            if wrapped_distance(cand.mu_hat, strong.mu_hat) > tol_mu:
                continue
            if cand.peak_power <= 2.0 * sidelobe[dcyc - 1] * strong.peak_power + slack:
                explained = True
                break
        if not explained:
            kept.append(cand)
    kept.sort(key=lambda q: q.tau_int)
    return kept
