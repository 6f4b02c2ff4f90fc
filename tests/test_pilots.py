import numpy as np
import pytest

from beamest import (CazacConfig, ConfigurationError, cazac_base, pilot_matrix,
                     pilot_matrix_derivative, rc_pulse, rc_pulse_derivative)
from beamest.harness import config_from_dict
from beamest.pilots import sidelobe_power_ratios

CFG = CazacConfig()


def permutation(m, i):
    p = np.zeros((m, m))
    p[np.arange(m), (np.arange(m) + i) % m] = 1.0
    return p


def test_config_validation():
    with pytest.raises(ConfigurationError):
        CazacConfig(length=12)
    with pytest.raises(ConfigurationError):
        CazacConfig(rolloff=1.5)
    with pytest.raises(ConfigurationError):
        CazacConfig(ts=0.0)
    with pytest.raises(ConfigurationError):
        CazacConfig(pulse_halfwidth=0)
    CazacConfig(length=9)  # any perfect square is fine


def test_pulse_halfwidth_must_be_integer():
    # the tap matrices hold 2 * halfwidth taps; a fractional value cannot be honoured
    with pytest.raises(ConfigurationError, match="integer number of symbols"):
        CazacConfig(pulse_halfwidth=8.5)
    with pytest.raises(ConfigurationError, match="'cazac'.*integer number of symbols"):
        config_from_dict({"cazac": {"pulse_halfwidth": 8.5}})
    assert CazacConfig(pulse_halfwidth=np.int64(6)).pulse_halfwidth == 6


def test_base_sequence_first_entry():
    c = cazac_base(CFG)
    assert abs(c[0] - (-1 + 1j) / np.sqrt(2)) < 1e-12


def test_base_sequence_constant_amplitude():
    c = cazac_base(CFG)
    assert np.allclose(np.abs(c), 1.0, atol=1e-12)


def test_base_sequence_is_qpsk():
    c = cazac_base(CFG)
    constellation = np.array([(a + 1j * b) / np.sqrt(2) for a in (1, -1) for b in (1, -1)])
    for entry in c:
        assert np.min(np.abs(entry - constellation)) < 1e-12


def test_cyclic_shift_orthogonality_all_lags():
    # C(i) C(0)^H = M * P_i for every integer lag
    c0 = pilot_matrix(CFG, 16, 0.0).c
    for i in range(16):
        gram = pilot_matrix(CFG, 16, float(i)).c @ c0.conj().T
        assert np.linalg.norm(gram - 16.0 * permutation(16, i)) < 1e-10


def test_zero_delay_rows_are_shifts():
    c = cazac_base(CFG)
    pm = pilot_matrix(CFG, 16, 0.0)
    for k in range(16):
        assert np.array_equal(pm.c[k], np.roll(c, k))
    assert np.linalg.norm(pm.c @ pm.c.conj().T - 16.0 * np.eye(16)) < 1e-10


def test_integer_delay_is_exact_shift():
    c = cazac_base(CFG)
    pm = pilot_matrix(CFG, 16, 3.0)
    assert np.array_equal(pm.c[0], np.roll(c, 3))


def test_fractional_delay_distinct_and_reproducible():
    half = pilot_matrix(CFG, 16, 0.5).c
    assert not np.allclose(half, pilot_matrix(CFG, 16, 0.0).c)
    assert not np.allclose(half, pilot_matrix(CFG, 16, 1.0).c)
    assert np.array_equal(half, pilot_matrix(CFG, 16, 0.5).c)


def test_truncation_convergence():
    # RC tails fall off like 1/t^3: doubling the window from 8 to 16 symbols
    # moves the matrix by a few 1e-3 relative (measured 3.7e-3 at rolloff 0.25)
    w8 = pilot_matrix(CazacConfig(pulse_halfwidth=8), 16, 0.5).c
    w16 = pilot_matrix(CazacConfig(pulse_halfwidth=16), 16, 0.5).c
    rel = np.linalg.norm(w16 - w8) / np.linalg.norm(w8)
    assert rel < 5e-3


def test_rc_pulse_at_origin_and_sample_zeros():
    assert rc_pulse(CFG, 0.0) == 1.0
    for k in (1, -1, 2, 5, -7):
        assert rc_pulse(CFG, k * CFG.ts) == 0.0


def test_rc_pulse_rolloff_pole_limit():
    # at t = Ts/(2*rho) the closed-form limit is (pi/4) * sinc(1/(2*rho))
    for rolloff in (0.25, 0.3, 0.5):
        cfg = CazacConfig(rolloff=rolloff)
        x0 = 1.0 / (2.0 * rolloff)
        lim = (np.pi / 4.0) * np.sinc(x0)
        assert abs(rc_pulse(cfg, x0 * cfg.ts) - lim) < 1e-12
        # numeric approach from either side agrees with the analytic limit
        for eps in (2e-8, -2e-8):
            assert abs(rc_pulse(cfg, (x0 + eps) * cfg.ts) - lim) < 1e-6


def test_rc_derivative_at_origin_and_odd_symmetry():
    assert rc_pulse_derivative(CFG, 0.0) == 0.0
    for t in (0.3, 1.7, 2.0, 4.2):
        plus = rc_pulse_derivative(CFG, t * CFG.ts)
        minus = rc_pulse_derivative(CFG, -t * CFG.ts)
        assert abs(plus + minus) < 1e-9 * max(1.0, abs(plus))


def test_rc_derivative_matches_finite_difference():
    step = 1e-6 * CFG.ts
    for t_sym in (0.3, 0.77, 1.5, 3.2, 5.9):
        t = t_sym * CFG.ts
        fd = (rc_pulse(CFG, t + step) - rc_pulse(CFG, t - step)) / (2 * step)
        an = rc_pulse_derivative(CFG, t)
        assert abs(an - fd) < 1e-5 * max(1.0, abs(an))


def test_rc_derivative_at_rolloff_pole():
    # rolloff 0.25 puts the pole on the 2-symbol sample: dh/dx there is pi/8
    cfg = CazacConfig(rolloff=0.25)
    t = 2.0 * cfg.ts
    assert abs(rc_pulse_derivative(cfg, t) * cfg.ts - np.pi / 8.0) < 1e-10
    # central difference straddling the pole, compared in symbol units
    step = 1e-6 * cfg.ts
    fd = (rc_pulse(cfg, t + step) - rc_pulse(cfg, t - step)) / (2 * step)
    assert abs(rc_pulse_derivative(cfg, t) - fd) * cfg.ts < 1e-5


@pytest.mark.parametrize("tau", [0.0, 3.0, 0.5, 7.63])
def test_pilot_matrix_derivative_finite_difference(tau):
    step = 1e-6
    num = (pilot_matrix(CFG, 16, tau + step).c - pilot_matrix(CFG, 16, tau - step).c) / (2 * step)
    an = pilot_matrix_derivative(CFG, 16, tau)
    assert np.linalg.norm(an - num) / np.linalg.norm(num) < 1e-5


def test_pilot_matrix_derivative_nonzero():
    d = pilot_matrix_derivative(CFG, 16, 4.25)
    assert np.linalg.norm(d) > 1.0


def test_sidelobe_power_ratios_shape_and_decay():
    ratios = sidelobe_power_ratios(CFG)
    assert ratios.shape == (CFG.pulse_halfwidth,)
    assert ratios[0] == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.diff(ratios) <= 0)
    assert ratios[1] < 0.1


def test_sidelobe_power_ratios_cached_read_only():
    cfg = CazacConfig(rolloff=0.3, pulse_halfwidth=6)
    cached = sidelobe_power_ratios(cfg)
    assert sidelobe_power_ratios(CazacConfig(rolloff=0.3, pulse_halfwidth=6)) is cached
    np.testing.assert_array_equal(cached, sidelobe_power_ratios.__wrapped__(cfg))
    with pytest.raises(ValueError):
        cached[0] = 1.0


def test_cached_base_is_read_only_copy():
    from beamest.pilots import _cached_base
    cached = _cached_base(CFG)
    assert _cached_base(CazacConfig()) is cached
    np.testing.assert_array_equal(cached, cazac_base(CFG))
    with pytest.raises(ValueError):
        cached[0] = 0.0
    fresh = cazac_base(CFG)         # the public base sequence stays writable
    fresh[0] = 0.0
    assert cached[0] != 0.0
