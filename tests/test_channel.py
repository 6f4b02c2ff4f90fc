import numpy as np
import pytest

from beamest import (ArrayConfig, CazacConfig, ConfigurationError, ScenarioConfig,
                     cazac_base, draw_realization, synthesize)
from beamest import _kernels
from beamest.arrays import beam_gains
from beamest.channel import (delayed_pilots, path_loss_db, path_signal, spatial_frequency,
                             unit_power_signal)


ARR = ArrayConfig(m=16)
CAZ = CazacConfig()


def rng_for(seed, trial=0):
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, trial)))


def test_defaults_match_deployment_constants():
    cfg = ScenarioConfig()
    assert cfg.bandwidth_hz == 200e6
    assert cfg.d_los_range_m == (30.0, 60.0)
    assert cfg.delta_nlos_range_m == (4.5, 24.0)
    assert (cfg.ple_los, cfg.ple_nlos) == (2.1, 2.4)
    assert cfg.d0_m == 1.0
    assert cfg.theta_range_deg == (-60.0, 60.0)
    assert cfg.noise_var == 1.0
    assert cfg.symbol_period_s == pytest.approx(5e-9)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(n_nlos=-1)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(d_los_range_m=(60.0, 30.0))
    with pytest.raises(ConfigurationError):
        ScenarioConfig(bandwidth_hz=0.0)
    # a reflected path level with the line-of-sight path is representable
    ScenarioConfig(delta_nlos_range_m=(0.0, 24.0))
    # the endfire angles are not: -90 and +90 share mu = pi and the angle
    # bound's slope is infinite there, so only the endpoints themselves go
    for theta_range in ((-90.0, 90.0), (-90.0, -90.0), (0.0, 90.0), (-90.0, 0.0)):
        with pytest.raises(ConfigurationError, match="endfire"):
            ScenarioConfig(theta_range_deg=theta_range)
    ScenarioConfig(theta_range_deg=(-89.9, 89.9))


def test_los_only_realization():
    real = draw_realization(ScenarioConfig(n_nlos=0), rng_for(0))
    assert real.r == 1
    assert real.paths[0].alpha == 1.0 + 0.0j
    assert real.paths[0].tau_symbols == 0.0


def test_excess_distance_to_delay_endpoints():
    # 4.5 m and 24 m excess at 5 ns symbols give delays of 3 and 16 symbols
    for delta, expected in ((4.5, 3.0), (24.0, 16.0)):
        cfg = ScenarioConfig(n_nlos=1, delta_nlos_range_m=(delta, delta))
        real = draw_realization(cfg, rng_for(1))
        assert real.paths[1].tau_symbols == pytest.approx(expected, abs=1e-12)


def test_gain_ratio_hand_value():
    # D_los = 30, excess 4.5: losses 21*log10(30) and 24*log10(34.5) dB; the
    # linear-power ratio gives |alpha| = 0.50768508...
    cfg = ScenarioConfig(n_nlos=1, d_los_range_m=(30.0, 30.0),
                         delta_nlos_range_m=(4.5, 4.5))
    real = draw_realization(cfg, rng_for(2))
    expected = np.sqrt(10 ** ((path_loss_db(30.0, 2.1) - path_loss_db(34.5, 2.4)) / 10))
    assert expected == pytest.approx(0.5076850834495259, abs=1e-12)
    assert abs(real.paths[1].alpha) == pytest.approx(expected, abs=1e-12)


def test_nlos_delays_within_configured_span():
    cfg = ScenarioConfig(n_nlos=2)
    for trial in range(50):
        real = draw_realization(cfg, rng_for(3, trial))
        for p in real.paths[1:]:
            assert 3.0 <= p.tau_symbols <= 16.0
            assert abs(p.alpha) < 1.0


def test_snr_definition():
    cfg = ScenarioConfig(noise_var=2.0)
    real = draw_realization(cfg, rng_for(4))
    assert real.pt == 1.0
    real = real.with_snr_db(10.0)
    assert real.pt * abs(real.paths[0].alpha) ** 2 / real.noise_var == pytest.approx(10.0)


def test_mu_theta_consistency():
    real = draw_realization(ScenarioConfig(n_nlos=3), rng_for(5))
    for p in real.paths:
        assert p.mu == pytest.approx(spatial_frequency(p.theta_deg), abs=1e-12)
        assert -60.0 <= p.theta_deg <= 60.0


def test_noiseless_on_grid_single_path():
    # a path on beam 3 of the grid with zero delay excites only row 3
    from beamest.channel import ChannelRealization, PathParams
    mu = float(ARR.beam_phases[3])
    real = ChannelRealization(
        paths=(PathParams(alpha=1.0 + 0.0j, theta_deg=0.0, mu=mu, tau_symbols=0.0),),
        pt=1.0, noise_var=0.0)
    y = synthesize(real, ARR, CAZ).y
    expected = np.zeros_like(y)
    expected[3] = np.sqrt(16) * np.roll(cazac_base(CAZ), 3)
    assert np.linalg.norm(y - expected) < 1e-10


def test_noise_calibration():
    # noise-only synthesis: the mean entry power estimates the noise variance
    from beamest.channel import ChannelRealization, PathParams
    real = ChannelRealization(
        paths=(PathParams(alpha=1.0 + 0.0j, theta_deg=0.0, mu=0.0, tau_symbols=0.0),),
        pt=0.0, noise_var=1.7)
    rng = rng_for(6)
    acc = []
    for _ in range(100):
        acc.append(np.mean(np.abs(synthesize(real, ARR, CAZ, rng).y) ** 2))
    assert np.mean(acc) == pytest.approx(1.7, rel=0.05)


def test_noiseless_superposition_linearity():
    from beamest.channel import ChannelRealization, PathParams
    p1 = PathParams(alpha=0.8 + 0.1j, theta_deg=10.0, mu=spatial_frequency(10.0), tau_symbols=0.0)
    p2 = PathParams(alpha=0.3 - 0.4j, theta_deg=-25.0, mu=spatial_frequency(-25.0), tau_symbols=5.3)
    both = ChannelRealization(paths=(p1, p2), pt=2.0, noise_var=0.0)
    only1 = ChannelRealization(paths=(p1,), pt=2.0, noise_var=0.0)
    only2 = ChannelRealization(paths=(p2,), pt=2.0, noise_var=0.0)
    lhs = synthesize(both, ARR, CAZ).y
    rhs = synthesize(only1, ARR, CAZ).y + synthesize(only2, ARR, CAZ).y
    assert np.linalg.norm(lhs - rhs) < 1e-10


@pytest.mark.parametrize("arr,caz", [(ARR, CAZ), (ArrayConfig(m=4), CazacConfig(rolloff=0.4)),
                                     (ARR, CazacConfig(pulse_halfwidth=11))])
def test_unit_power_signal_is_the_per_path_sum(arr, caz):
    # one batched pilot_rows call for all paths, bit for bit the per-path sum
    # of batch-of-one rows
    cbase = cazac_base(caz)
    for trial in range(5):
        real = draw_realization(ScenarioConfig(n_nlos=3), rng_for(8, trial))
        ref = np.zeros((arr.m, caz.length), dtype=complex)
        for p in real.paths:
            v = _kernels.pilot_rows(cbase, [p.tau_symbols], caz.rolloff, caz.pulse_halfwidth)[0]
            c = np.stack([np.roll(v, k) for k in range(arr.m)])
            ref += p.alpha * beam_gains(arr, p.mu)[:, None] * c
        assert np.array_equal(unit_power_signal([real], arr, caz)[0], ref)


def test_realization_stacks_equal_lone_calls_bit_for_bit():
    # a sweep chunk evaluates the taps of every trial's delays in one pass and
    # builds every trial's S0 from one stacked path_signal call; each block
    # equals the realization's stack of one
    reals = [draw_realization(ScenarioConfig(), rng_for(12, t)) for t in range(7)]
    rows = delayed_pilots(reals, CAZ)
    assert rows.shape == (7, 6, CAZ.length)
    assert rows.tobytes() == np.concatenate([delayed_pilots([r], CAZ) for r in reals]).tobytes()
    lone = np.concatenate([unit_power_signal([r], ARR, CAZ) for r in reals])
    assert lone.shape == (7, ARR.m, CAZ.length)
    assert unit_power_signal(reals, ARR, CAZ).tobytes() == lone.tobytes()
    assert unit_power_signal(reals, ARR, CAZ, rows).tobytes() == lone.tobytes()
    assert unit_power_signal(reals[2:3], ARR, CAZ, rows[2:3]).tobytes() == lone[2].tobytes()


def test_unit_power_signal_without_rows_builds_no_derivatives(monkeypatch):
    # synthesize passes no rows; it needs v only, not dv/dtau
    calls = []

    def counted(name):
        original = getattr(_kernels, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for name in ("pilot_rows", "pilot_rows_and_derivs"):
        monkeypatch.setattr(_kernels, name, counted(name))
    real = draw_realization(ScenarioConfig(), rng_for(13)).with_snr_db(10.0)
    synthesize(real, ARR, CAZ, rng_for(13, 1))
    assert calls == ["pilot_rows"]


def test_path_signal_stack_rows_equal_lone_calls_bit_for_bit():
    # one expression serves a lone path, (M, L), and a stack of S paths, (S, M, L)
    rng = rng_for(9)
    alphas = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    gains = beam_gains(ARR, rng.uniform(0.0, 2 * np.pi, 12))
    rows = _kernels.pilot_rows(cazac_base(CAZ), rng.uniform(0.0, 16.0, 12), CAZ.rolloff,
                               CAZ.pulse_halfwidth)
    stacked = path_signal(alphas, gains, rows)
    lone = np.stack([path_signal(complex(a), g, v) for a, g, v in zip(alphas, gains, rows)])
    assert stacked.shape == lone.shape == (12, ARR.m, CAZ.length)
    assert stacked.tobytes() == lone.tobytes()


def test_reproducibility_bit_exact():
    cfg = ScenarioConfig(n_nlos=2)
    a = synthesize(draw_realization(cfg, rng_for(9, 3)).with_snr_db(5.0), ARR, CAZ,
                   rng_for(9, 103)).y
    b = synthesize(draw_realization(cfg, rng_for(9, 3)).with_snr_db(5.0), ARR, CAZ,
                   rng_for(9, 103)).y
    assert np.array_equal(a, b)


def test_noise_requires_rng():
    real = draw_realization(ScenarioConfig(n_nlos=0), rng_for(10))
    with pytest.raises(ConfigurationError):
        synthesize(real, ARR, CAZ, None)


def test_noise_covariance_is_white():
    # empirical covariance of vec(N) approaches noise_var * I
    from beamest.channel import ChannelRealization, PathParams
    real = ChannelRealization(
        paths=(PathParams(alpha=0j, theta_deg=0.0, mu=0.0, tau_symbols=0.0),),
        pt=0.0, noise_var=1.0)
    arr = ArrayConfig(m=4)
    caz = CazacConfig(length=4)
    rng = rng_for(11)
    samples = np.array([synthesize(real, arr, caz, rng).y.ravel() for _ in range(4000)])
    cov = samples.T.conj() @ samples / samples.shape[0]
    assert np.linalg.norm(cov - np.eye(16)) / np.linalg.norm(np.eye(16)) < 0.1
