"""Frequency-lock servo: acquisition, suppression, and the linear model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import closed_loop_phase_step, lock_loop_scalar
from wdlink.noise import LaserSpec, beat_phase, estimate_psd, laser_pair_phases
from wdlink.opll import (
    DIVERGENCE_RAD,
    LOCK_FREQ_TOL_HZ,
    QUIET,
    TWO_PI,
    LoopConfig,
    _block_plan,
    _lock_loop,
    closed_loop_suppression,
    default_loop_config,
    free_running_beat,
    loop_samples,
    open_loop_gain,
    pi_gains_for,
    residual_phase_variance,
    simulate_lock,
    unity_gain_hz,
    write_lock_csv,
)

LD1 = LaserSpec("LD1", 100.0, 0.0)
LD2 = LaserSpec("LD2", 5e3, 92.5e9)
LD3 = LaserSpec("LD3", 80e3, 130e9)


def band_mean(freqs, psd, lo, hi):
    sel = (freqs >= lo) & (freqs <= hi)
    return float(np.mean(psd[sel]))


def test_config_validation():
    with pytest.raises(ValueError):
        LoopConfig(1e9, kp=-1.0, ki=0.0)
    with pytest.raises(ValueError):
        LoopConfig(1e9, kp=1.0, ki=0.0, sim_rate_hz=0.0)
    with pytest.raises(ValueError):
        LoopConfig(1e9, kp=1.0, ki=0.0, actuator_bw_hz=0.0)
    # a 10 MHz loop rate resolves the 100 kHz crossover 100 times over
    cfg = default_loop_config(92.5e9, sim_rate_hz=10e6, initial_freq_error_hz=1e6)
    assert simulate_lock(LD1, LD2, cfg, seed=3).locked


def test_loop_samples_counts_and_rejects_unsimulable_configs():
    assert loop_samples(default_loop_config(92.5e9)) == 1_000_000
    with pytest.raises(ValueError, match="duration too short"):
        loop_samples(default_loop_config(92.5e9, duration_s=1e-7))
    with pytest.raises(ValueError, match="under-resolves"):
        loop_samples(default_loop_config(92.5e9, sim_rate_hz=1e6))
    # simulate_lock makes the same checks before it draws any noise
    with pytest.raises(ValueError, match="under-resolves"):
        simulate_lock(LD1, LD2, default_loop_config(92.5e9, sim_rate_hz=1e6), seed=1)


@pytest.mark.parametrize("fu, fz, fa", [(0.0, 20e3, 50e3), (100e3, -1.0, 50e3),
                                        (100e3, 20e3, 0.0)])
def test_pi_gains_reject_bad_servo_settings(fu, fz, fa):
    with pytest.raises(ValueError):
        pi_gains_for(fu, fz, fa)


def test_pi_gains_crossover():
    kp, ki = pi_gains_for(100e3, 20e3, 50e3)
    cfg = LoopConfig(92.5e9, kp=kp, ki=ki, actuator_bw_hz=50e3)
    assert abs(open_loop_gain(cfg, np.array([1e5]))[0]) == pytest.approx(1.0, rel=1e-6)
    assert unity_gain_hz(cfg) == pytest.approx(1e5, rel=1e-3)


def test_noiseless_acquisition():
    """1 MHz initial error on noiseless lasers pulls in and settles."""
    quiet_a = LaserSpec("a", 0.0, 0.0)
    quiet_b = LaserSpec("b", 0.0, 92.5e9)
    cfg = default_loop_config(92.5e9, initial_freq_error_hz=1e6)
    res = simulate_lock(quiet_a, quiet_b, cfg, seed=0)
    assert res.locked
    tail_f = res.freq_error[int(0.9 * len(res.freq_error)) :]
    assert abs(np.mean(tail_f)) < 1.0
    tail_p = res.phase_error.phases[int(0.9 * len(res.phase_error.phases)) :]
    assert np.max(np.abs(tail_p)) < 1e-2


def test_acquisition_with_laser_noise():
    cfg = default_loop_config(92.5e9, initial_freq_error_hz=1e6)
    res = simulate_lock(LD1, LD2, cfg, seed=2101)
    assert res.locked
    assert res.cycle_slips >= 0


def test_underpowered_loop_flagged_unlocked():
    cfg = LoopConfig(92.5e9, kp=10.0, ki=0.0, duration_s=5e-3,
                     initial_freq_error_hz=1e6)
    res = simulate_lock(LD1, LD2, cfg, seed=1)
    assert not res.locked


def test_proportional_only_suppression_analytic():
    """First-order loop, 100 kHz unity gain: -20 dB one decade down."""
    cfg = LoopConfig(92.5e9, kp=1e5, ki=0.0, actuator_bw_hz=5e6)
    sup = closed_loop_suppression(cfg, np.array([1e4]))[0]
    assert sup == pytest.approx(-20.0, abs=2.0)


def test_pi_low_frequency_advantage():
    cfg = default_loop_config(92.5e9)
    sup = closed_loop_suppression(cfg, np.array([1e3, 1e4]))
    assert sup[0] <= sup[1] - 15.0


def test_suppression_vanishes_out_of_band():
    cfg = default_loop_config(92.5e9)
    assert abs(closed_loop_suppression(cfg, np.array([1e9]))[0]) < 0.1


def test_locked_psd_matches_linear_suppression():
    """Measured in-loop PSD over free-running PSD tracks |S|^2.

    The lock simulation and the free-running generator share phase noise
    when seeded alike, so the ratio is nearly deterministic.
    """
    cfg = default_loop_config(92.5e9, duration_s=10e-3)
    res = simulate_lock(LD1, LD2, cfg, seed=7)
    n = len(res.phase_error.phases)
    free = beat_phase(*laser_pair_phases(LD1, LD2, n, cfg.sim_rate_hz, seed=7)[::-1])
    fl, sl = estimate_psd(res.phase_error, 500.0)
    ff, sf = estimate_psd(free, 500.0)
    measured = 10 * np.log10(band_mean(fl, sl, 8e3, 12e3) / band_mean(ff, sf, 8e3, 12e3))
    analytic = closed_loop_suppression(cfg, np.array([1e4]))[0]
    assert measured == pytest.approx(analytic, abs=3.0)
    assert measured <= -20.0


def test_servo_bump_location():
    cfg = default_loop_config(92.5e9, duration_s=10e-3)
    res = simulate_lock(LD1, LD2, cfg, seed=3)
    freqs, psd = estimate_psd(res.phase_error, 1e3)
    sel = freqs >= 5e3
    peak = freqs[sel][np.argmax(psd[sel])]
    assert 50e3 <= peak <= 200e3


def test_step_response_matches_linear_model():
    """Zero-linewidth plant against the scipy state-space oracle."""
    quiet_a = LaserSpec("a", 0.0, 0.0)
    quiet_b = LaserSpec("b", 0.0, 92.5e9)
    step = 200.0
    cfg = default_loop_config(92.5e9, duration_s=2e-4, initial_freq_error_hz=step)
    res = simulate_lock(quiet_a, quiet_b, cfg, seed=0)
    theta = res.phase_error.phases
    t = np.arange(len(theta)) / cfg.sim_rate_hz
    ref = closed_loop_phase_step(cfg.kp, cfg.ki, cfg.actuator_bw_hz, step, t)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(theta - ref)) <= 0.05 * scale


@pytest.mark.parametrize("f_mod", [1e3, 3e3, 1e4, 3e4])
def test_fm_injection_follows_suppression(f_mod):
    """Injected FM tone must be suppressed per the linear transfer."""
    quiet_a = LaserSpec("a", 0.0, 0.0)
    quiet_b = LaserSpec("b", 0.0, 92.5e9)
    amp = 200.0
    cfg = default_loop_config(92.5e9, duration_s=10e-3)
    res = simulate_lock(quiet_a, quiet_b, cfg, seed=0, fm_inject=(amp, f_mod))
    tail = res.phase_error.phases[len(res.phase_error.phases) // 2 :]
    measured = np.sqrt(2.0) * np.std(tail)
    # peak deviation amp/f_mod rad, scaled by the closed-loop suppression
    expect = (amp / f_mod) * 10 ** (closed_loop_suppression(cfg, np.array([f_mod]))[0] / 20)
    assert 20 * np.log10(measured / expect) == pytest.approx(0.0, abs=3.0)


def test_residual_variance_ordering():
    cfg12 = default_loop_config(92.5e9, duration_s=10e-3)
    cfg13 = default_loop_config(130e9, duration_s=10e-3)
    var12 = residual_phase_variance(simulate_lock(LD1, LD2, cfg12, seed=5))
    var13 = residual_phase_variance(simulate_lock(LD1, LD3, cfg13, seed=5))
    assert var13 > var12


def test_lock_determinism():
    cfg = default_loop_config(92.5e9, duration_s=2e-3)
    a = simulate_lock(LD1, LD2, cfg, seed=4)
    b = simulate_lock(LD1, LD2, cfg, seed=4)
    c = simulate_lock(LD1, LD2, cfg, seed=5)
    assert np.array_equal(a.phase_error.phases, b.phase_error.phases)
    assert np.array_equal(a.freq_error, b.freq_error)
    assert not np.array_equal(a.phase_error.phases, c.phase_error.phases)


def test_free_running_beat_matches_pair():
    fb = free_running_beat(LD1, LD2, 4096, 5e7, seed=7)
    pa, pb = laser_pair_phases(LD1, LD2, 4096, 5e7, seed=7)
    bt = beat_phase(pb, pa)
    ph = np.unwrap(np.angle(fb.samples))
    aligned = bt.phases - bt.phases[0] + ph[0]
    assert np.max(np.abs(ph - aligned)) < 1e-9
    assert fb.anchor_hz == 92.5e9


def test_lock_csv_export(tmp_path):
    cfg = default_loop_config(92.5e9, duration_s=1e-3)
    res = simulate_lock(LD1, LD2, cfg, seed=1)
    path = tmp_path / "lock.csv"
    write_lock_csv(path, res, stride=50)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,phase_error_rad,freq_error_hz"
    assert len(lines) - 1 == int(np.ceil(len(res.phase_error.phases) / 50))
    t0, p0, f0 = (float(v) for v in lines[1].split(","))
    assert t0 == 0.0
    assert p0 == pytest.approx(res.phase_error.phases[0], abs=1e-8)
    assert f0 == pytest.approx(res.freq_error[0], rel=1e-6, abs=1e-6)
    with pytest.raises(ValueError):
        write_lock_csv(path, res, stride=0)


# ---------------------------------------------------------------------------
# hybrid solver against the scalar recursion
# ---------------------------------------------------------------------------

THETA_TOL_RAD = 1e-9
FREQ_TOL_HZ = 1e-3
NOISELESS_A = LaserSpec("a", 0.0, 0.0)
NOISELESS_B = LaserSpec("b", 0.0, 92.5e9)


def beat_increments(master, slave, cfg, seed):
    """The per-sample beat-noise increments simulate_lock draws."""
    n = int(round(cfg.duration_s * cfg.sim_rate_hz))
    m_tr, s_tr = laser_pair_phases(master, slave, n, cfg.sim_rate_hz, seed)
    return np.diff(s_tr.phases - m_tr.phases, prepend=0.0)


def scalar_reference(cfg, incr, fm=None):
    return lock_loop_scalar(incr, fm, cfg.initial_freq_error_hz, cfg.kp, cfg.ki,
                            cfg.actuator_bw_hz, cfg.sim_rate_hz)


def verdict(theta, freq_error):
    """(locked, cycle_slips) by the rule simulate_lock documents."""
    finite = bool(np.all(np.isfinite(theta)))
    peak = float(np.max(np.abs(theta))) if finite else math.inf
    tail = freq_error[int(0.9 * len(freq_error)):]
    locked = finite and peak <= DIVERGENCE_RAD and abs(np.mean(tail)) < LOCK_FREQ_TOL_HZ
    return locked, int(peak // TWO_PI) if finite else -1


def assert_matches_scalar(master, slave, cfg, seed, fm_inject=None):
    res = simulate_lock(master, slave, cfg, seed, fm_inject=fm_inject)
    fm = None
    if fm_inject is not None:
        n = len(res.theta)
        fm = fm_inject[0] * np.cos(TWO_PI * fm_inject[1] * (1.0 / cfg.sim_rate_hz) * np.arange(n))
    theta, freq = scalar_reference(cfg, beat_increments(master, slave, cfg, seed), fm)
    assert np.max(np.abs(res.theta - theta)) <= THETA_TOL_RAD
    assert np.max(np.abs(res.freq_error - freq)) <= FREQ_TOL_HZ
    assert (res.locked, res.cycle_slips) == verdict(theta, freq)
    return res, theta


@pytest.mark.parametrize("slave,offset,seed", [(LD2, 92.5e9, 2101), (LD3, 130e9, 2201)])
def test_solver_matches_scalar_default_bands(slave, offset, seed):
    cfg = default_loop_config(offset, initial_freq_error_hz=1e6)
    res, theta = assert_matches_scalar(LD1, slave, cfg, seed)
    assert res.locked
    assert 0 < np.count_nonzero(np.abs(theta) > TWO_PI) < 1000
    # the beat note carries the unclipped phase, acquisition cycles included
    beat = res.locked_beat
    assert beat.anchor_hz == offset and beat.sample_rate_hz == cfg.sim_rate_hz
    assert np.max(np.abs(beat.samples - np.exp(1j * theta))) <= THETA_TOL_RAD


def test_solver_matches_scalar_8mhz_acquisition():
    cfg = default_loop_config(92.5e9, initial_freq_error_hz=8e6)
    res, theta = assert_matches_scalar(LD1, LD2, cfg, 2101)
    assert res.locked
    sat = np.abs(theta) > TWO_PI
    episodes = np.count_nonzero(sat[1:] & ~sat[:-1]) + int(sat[0])
    assert 7 <= episodes <= 9


def test_solver_matches_scalar_fm_inject():
    cfg = default_loop_config(92.5e9, duration_s=4e-3)
    assert_matches_scalar(NOISELESS_A, NOISELESS_B, cfg, 0, fm_inject=(200.0, 1e4))


def test_solver_matches_scalar_proportional_only():
    kp, _ = pi_gains_for(100e3, 0.0, 50e3)
    cfg = LoopConfig(92.5e9, kp=kp, ki=0.0, duration_s=5e-3, initial_freq_error_hz=1e6)
    assert_matches_scalar(LD1, LD2, cfg, 5)


@pytest.mark.parametrize("kp,df0", [(10.0, 1e6), (0.0, 0.0)])
def test_solver_matches_scalar_unsettled_loop(kp, df0):
    """Loops that never settle use powers up to the record length."""
    cfg = LoopConfig(92.5e9, kp=kp, ki=0.0, duration_s=5e-3, initial_freq_error_hz=df0)
    n = int(round(cfg.duration_s * cfg.sim_rate_hz))
    block, _, _, free = _block_plan(cfg, n)
    assert block == free.shape[2] == min(n, 1 << 16)
    assert_matches_scalar(LD1, LD2, cfg, 1)


def test_solver_matches_scalar_diverging_gains():
    """An unstable linear loop: its blocks stop before the kick response
    grows large.  Rounding differences grow with the loop once it diverges,
    so theta is compared to the absolute tolerance only until then."""
    cfg = LoopConfig(92.5e9, kp=1e3, ki=1e12, duration_s=4e-4)
    n = int(round(cfg.duration_s * cfg.sim_rate_hz))
    block, _, _, _ = _block_plan(cfg, n)
    assert block < 1000
    incr = beat_increments(LD1, LD2, cfg, 1)
    res = simulate_lock(LD1, LD2, cfg, seed=1)
    theta, freq = scalar_reference(cfg, incr)
    stop = int(np.argmax(np.abs(theta) > DIVERGENCE_RAD))
    assert stop > 0
    assert np.max(np.abs(res.theta[:stop] - theta[:stop])) <= THETA_TOL_RAD
    assert np.max(np.abs(res.theta - theta)) <= 1e-9 * np.max(np.abs(theta))
    assert (res.locked, res.cycle_slips) == verdict(theta, freq)
    assert not res.locked


def test_solver_matches_scalar_record_shorter_than_block():
    cfg = default_loop_config(92.5e9, duration_s=2e-4, initial_freq_error_hz=1e6)
    n = int(round(cfg.duration_s * cfg.sim_rate_hz))
    assert _block_plan(cfg, n)[0] == n
    assert_matches_scalar(LD1, LD2, cfg, 3)


@pytest.mark.parametrize("where", ["first", "last"])
def test_solver_excursion_at_block_edge(where):
    """A phase kick that saturates the detector exactly on the first or the
    last sample of the first linear block."""
    cfg = default_loop_config(92.5e9)
    n = 200_000
    block = _block_plan(cfg, n)[0]
    kick = QUIET if where == "first" else QUIET + block - 1
    incr = beat_increments(LD1, LD2, cfg, 9)[:n].copy()
    incr[kick] += 8.0
    theta_ref, freq_ref = scalar_reference(cfg, incr)
    assert int(np.argmax(np.abs(theta_ref) > TWO_PI)) == kick
    theta, act = _lock_loop(cfg, incr)
    assert np.max(np.abs(theta - theta_ref)) <= THETA_TOL_RAD
    assert np.max(np.abs(cfg.initial_freq_error_hz - act - freq_ref)) <= FREQ_TOL_HZ


@settings(max_examples=25, deadline=None)
@given(fu=st.floats(1e3, 1e6), zero_ratio=st.floats(0.0, 0.5),
       act_ratio=st.floats(1.0, 2.0), df0=st.floats(-1e7, 1e7),
       n=st.integers(10, 20_000), seed=st.integers(0, 2**32 - 1))
def test_solver_matches_scalar_property(fu, zero_ratio, act_ratio, df0, n, seed):
    fa = fu * act_ratio
    kp, ki = pi_gains_for(fu, zero_ratio * fu, fa)
    cfg = LoopConfig(92.5e9, kp=kp, ki=ki, actuator_bw_hz=fa,
                     duration_s=n / 50e6, initial_freq_error_hz=df0)
    assert_matches_scalar(LD1, LD2, cfg, seed)
