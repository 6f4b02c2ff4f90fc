import numpy as np
import pytest

from beamest import (CazacConfig, ConfigurationError, cazac_base, pilot_matrix,
                     pilot_matrix_derivative)
from beamest import _kernels
from beamest.harness import config_from_dict
from beamest.pilots import sidelobe_power_ratios

CFG = CazacConfig()


def rc(x, rolloff=CFG.rolloff):
    """Pulse h at x symbols."""
    return float(_kernels.rc_samples(np.array([x]), rolloff)[0])


def rc_deriv(x, rolloff=CFG.rolloff):
    """dh/dx at x symbols."""
    return float(_kernels.rc_samples_and_derivs(np.array([x]), rolloff)[1][0])


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
        CazacConfig(pulse_halfwidth=0)
    CazacConfig(length=9)  # any perfect square is fine


def test_pulse_halfwidth_must_be_integer():
    # the tap matrices hold 2 * halfwidth taps; a fractional value cannot be honoured
    with pytest.raises(ConfigurationError, match="pulse_halfwidth must be an integer"):
        CazacConfig(pulse_halfwidth=8.5)
    with pytest.raises(ConfigurationError, match="'cazac'.*pulse_halfwidth must be an integer"):
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
    c0 = pilot_matrix(CFG, 16, 0.0)
    for i in range(16):
        gram = pilot_matrix(CFG, 16, float(i)) @ c0.conj().T
        assert np.linalg.norm(gram - 16.0 * permutation(16, i)) < 1e-10


def test_zero_delay_rows_are_shifts():
    c = cazac_base(CFG)
    pm = pilot_matrix(CFG, 16, 0.0)
    for k in range(16):
        assert np.array_equal(pm[k], np.roll(c, k))
    assert np.linalg.norm(pm @ pm.conj().T - 16.0 * np.eye(16)) < 1e-10


def test_integer_delay_is_exact_shift():
    c = cazac_base(CFG)
    pm = pilot_matrix(CFG, 16, 3.0)
    assert np.array_equal(pm[0], np.roll(c, 3))


def test_fractional_delay_distinct_and_reproducible():
    half = pilot_matrix(CFG, 16, 0.5)
    assert not np.allclose(half, pilot_matrix(CFG, 16, 0.0))
    assert not np.allclose(half, pilot_matrix(CFG, 16, 1.0))
    assert np.array_equal(half, pilot_matrix(CFG, 16, 0.5))


def test_truncation_convergence():
    # RC tails fall off like 1/t^3: doubling the window from 8 to 16 symbols
    # moves the matrix by a few 1e-3 relative (measured 3.7e-3 at rolloff 0.25)
    w8 = pilot_matrix(CazacConfig(pulse_halfwidth=8), 16, 0.5)
    w16 = pilot_matrix(CazacConfig(pulse_halfwidth=16), 16, 0.5)
    rel = np.linalg.norm(w16 - w8) / np.linalg.norm(w8)
    assert rel < 5e-3


def test_rc_pulse_at_origin_and_sample_zeros():
    assert rc(0.0) == 1.0
    for k in (1, -1, 2, 5, -7):
        assert rc(float(k)) == 0.0


def test_rc_pulse_rolloff_pole_limit():
    # at x = 1/(2*rho) symbols the closed-form limit is (pi/4) * sinc(1/(2*rho))
    for rolloff in (0.25, 0.3, 0.5):
        x0 = 1.0 / (2.0 * rolloff)
        lim = (np.pi / 4.0) * np.sinc(x0)
        assert abs(rc(x0, rolloff) - lim) < 1e-12
        # numeric approach from either side agrees with the analytic limit
        for eps in (2e-8, -2e-8):
            assert abs(rc(x0 + eps, rolloff) - lim) < 1e-6


def test_rc_derivative_at_origin_and_odd_symmetry():
    assert rc_deriv(0.0) == 0.0
    for x in (0.3, 1.7, 2.0, 4.2):
        plus = rc_deriv(x)
        minus = rc_deriv(-x)
        assert abs(plus + minus) < 1e-9 * abs(plus)


def test_rc_derivative_matches_finite_difference():
    step = 1e-6
    for x in (0.3, 0.77, 1.5, 3.2, 5.9):
        fd = (rc(x + step) - rc(x - step)) / (2 * step)
        an = rc_deriv(x)
        assert abs(an - fd) < 1e-5 * abs(an)


def test_rc_derivative_at_rolloff_pole():
    # rolloff 0.25 puts the pole on the 2-symbol sample: dh/dx there is pi/8
    assert abs(rc_deriv(2.0, 0.25) - np.pi / 8.0) < 1e-10
    # central difference straddling the pole
    step = 1e-6
    fd = (rc(2.0 + step, 0.25) - rc(2.0 - step, 0.25)) / (2 * step)
    assert abs(rc_deriv(2.0, 0.25) - fd) < 1e-5


@pytest.mark.parametrize("tau", [0.0, 3.0, 0.5, 7.63])
def test_pilot_matrix_derivative_finite_difference(tau):
    step = 1e-6
    num = (pilot_matrix(CFG, 16, tau + step) - pilot_matrix(CFG, 16, tau - step)) / (2 * step)
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


@pytest.mark.parametrize("m", [1, 4, 16])
def test_stack_shifted_stack_equals_lone_rows_bit_for_bit(m):
    # a (S, L) stack of rows gives one (m, L) shift matrix per row
    from beamest.pilots import _stack_shifted
    rows = _kernels.pilot_rows(cazac_base(CFG), np.linspace(0.0, 15.5, 9), CFG.rolloff,
                               CFG.pulse_halfwidth)
    stacked = _stack_shifted(rows, m)
    lone = np.stack([_stack_shifted(v, m) for v in rows])
    assert stacked.shape == lone.shape == (9, m, CFG.length)
    assert stacked.tobytes() == lone.tobytes()
    np.testing.assert_array_equal(lone[3], np.stack([np.roll(rows[3], k) for k in range(m)]))


def test_conj_shifts_rows_are_the_conjugated_pilot_matrix():
    from beamest.pilots import _conj_shifts
    full = _conj_shifts(CFG)
    assert _conj_shifts(CazacConfig()) is full and full.shape == (CFG.length, CFG.length)
    assert full[:5].tobytes() == pilot_matrix(CFG, 5, 0.0).conj().tobytes()
    with pytest.raises(ValueError):
        full[0, 0] = 0.0


def test_unshift_index_is_the_gather_of_both_stages():
    # one read-only index undoes the per-beam shift: SAGE's X_g at (M, L),
    # and transposed at (M, M) the coarse stage's wrap-around diagonals
    from beamest.coarse import wrap_diagonal
    from beamest.pilots import _cached_base, _conj_shifts, _unshift_index
    from beamest.sage import _gathered
    m, ell = 16, CFG.length
    idx = _unshift_index(m, ell)
    assert _unshift_index(16, CazacConfig().length) is idx
    rows = np.arange(m)[:, None]
    np.testing.assert_array_equal(idx, rows * ell + (np.arange(ell)[None, :] + rows) % ell)
    np.testing.assert_array_equal(_unshift_index(4, 9), [[9 * k + (s + k) % 9 for s in range(9)]
                                                         for k in range(4)])
    cbase = cazac_base(CFG)
    np.testing.assert_array_equal(_cached_base(CFG), cbase)
    np.testing.assert_array_equal(
        _conj_shifts(CFG), cbase[(np.arange(ell)[None, :] - np.arange(ell)[:, None]) % ell].conj())
    for table in (idx, _cached_base(CFG), _conj_shifts(CFG)):
        with pytest.raises(ValueError):
            table[0, ...] = 0
    x = np.arange(m * ell, dtype=complex).reshape(m, ell)
    expected = np.array([[x[k, (s + k) % ell] for s in range(ell)] for k in range(m)])
    np.testing.assert_array_equal(_gathered(x), expected)
    stack = _gathered(np.stack([x, 2 * x]))
    assert stack.flags.c_contiguous
    np.testing.assert_array_equal(stack, np.stack([expected, 2 * expected]))
    for mm in (4, 16):
        k = np.arange(mm)
        diag_index = k[None, :] * mm + (k[None, :] + k[:, None]) % mm
        np.testing.assert_array_equal(_unshift_index(mm, mm).T, diag_index)
        p = np.random.default_rng(mm).random((mm, mm))
        for i in range(1, mm + 1):
            np.testing.assert_array_equal(wrap_diagonal(p, i),
                                          [p[j, (i - 1 + j) % mm] for j in range(mm)])
