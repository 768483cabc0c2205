"""Frequency-lock servo: acquisition, suppression, and the linear model."""

import hashlib
import math
import os
import platform
import subprocess
import sys
import types
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import joined_beat
from oracles import closed_loop_phase_step, lock_loop_scalar
import wdlink
from wdlink import noise, opll
from wdlink.noise import LaserSpec, estimate_psd
from wdlink.opll import (
    DIVERGENCE_RAD,
    LOCK_CSV_MAX_ROWS,
    LOCK_FREQ_TOL_HZ,
    LOCK_PSD_RBW_HZ,
    MIN_PHASE_MARGIN_DEG,
    QUIET,
    SCAN_CHUNK,
    SCAN_L,
    TWO_PI,
    _csv_stride,
    _increments,
    _lock_loop,
    closed_loop_suppression,
    free_running_psd,
    loop_samples,
    open_loop_gain,
    pi_gains_for,
    residual_phase_variance,
    simulate_lock,
    unity_gain_hz,
    write_lock_csv,
)
from wdlink.waveform import CHUNK, ComplexWaveform

def band_mean(freqs, psd, lo, hi):
    sel = (freqs >= lo) & (freqs <= hi)
    return float(np.mean(psd[sel]))


def test_config_validation(w_band):
    with pytest.raises(ValueError):
        replace(w_band.loop, kp=-1.0, ki=0.0)
    # pi_gains_for(1.7e308, 0.0, 1e308) has 30 deg of margin but kp overflows
    with pytest.raises(ValueError, match="finite"):
        replace(w_band.loop, kp=pi_gains_for(1.7e308, 0.0, 1e308)[0], ki=0.0)
    with pytest.raises(ValueError):
        replace(w_band.loop, kp=1.0, ki=0.0, sim_rate_hz=0.0)
    with pytest.raises(ValueError):
        replace(w_band.loop, kp=1.0, ki=0.0, actuator_bw_hz=0.0)
    # a 10 MHz loop rate resolves the 100 kHz crossover 100 times over
    cfg = replace(w_band.loop, sim_rate_hz=10e6, initial_freq_error_hz=1e6)
    assert simulate_lock(w_band.master, w_band.slave, cfg, seed=3).locked


def test_loop_samples_counts_and_rejects_unsimulable_configs(w_band):
    assert loop_samples(w_band.loop) == 1_000_000
    with pytest.raises(ValueError, match="duration too short"):
        loop_samples(replace(w_band.loop, duration_s=1e-7))
    with pytest.raises(ValueError, match="under-resolves"):
        loop_samples(replace(w_band.loop, sim_rate_hz=1e6))
    with pytest.raises(ValueError, match="no finite record length"):
        loop_samples(replace(w_band.loop, duration_s=1e308))
    # simulate_lock makes the same checks before it draws any noise
    with pytest.raises(ValueError, match="under-resolves"):
        simulate_lock(w_band.master, w_band.slave, replace(w_band.loop, sim_rate_hz=1e6),
                      seed=1)


@pytest.mark.parametrize("fu, fz, fa", [(0.0, 20e3, 50e3), (100e3, -1.0, 50e3),
                                        (100e3, 20e3, 0.0),
                                        # phase margin below MIN_PHASE_MARGIN_DEG
                                        (100e3, 60e3, 50e3), (1e308, 20e3, 50e3),
                                        (100e3, 1e308, 50e3), (100e3, 20e3, 1e-308),
                                        (1e-200, 20e3, 50e3), (100e3, 0.0, 1e-300)])
def test_pi_gains_reject_bad_servo_settings(fu, fz, fa):
    with pytest.raises(ValueError):
        pi_gains_for(fu, fz, fa)


def test_pi_gains_phase_margin_floor():
    # the default servo: atan(5) - atan(2) = 15.3 deg
    pi_gains_for(100e3, 20e3, 50e3)
    # the zero just below the pole leaves a margin just above the floor
    lo = 100e3 * math.tan(math.radians(45.0 - MIN_PHASE_MARGIN_DEG / 2))
    hi = 100e3 * math.tan(math.radians(45.0 + MIN_PHASE_MARGIN_DEG / 2))
    pi_gains_for(100e3, lo * 0.999, hi)
    with pytest.raises(ValueError, match="phase margin"):
        pi_gains_for(100e3, lo * 1.001, hi)


def test_pi_gains_crossover(w_band):
    kp, ki = pi_gains_for(100e3, 20e3, 50e3)
    cfg = replace(w_band.loop, kp=kp, ki=ki, actuator_bw_hz=50e3)
    assert abs(open_loop_gain(cfg, np.array([1e5]))[0]) == pytest.approx(1.0, rel=1e-6)
    assert unity_gain_hz(cfg) == pytest.approx(1e5, rel=1e-3)


def test_noiseless_acquisition(w_band):
    """1 MHz initial error on noiseless lasers pulls in and settles."""
    quiet_a = LaserSpec("a", 0.0, 0.0)
    quiet_b = LaserSpec("b", 0.0, 92.5e9)
    cfg = replace(w_band.loop, initial_freq_error_hz=1e6)
    res = simulate_lock(quiet_a, quiet_b, cfg, seed=0)
    assert res.locked
    tail_f = res.freq_error_tail
    assert len(tail_f) == len(res.theta) - int(0.9 * len(res.theta))
    assert abs(np.mean(tail_f)) < 1.0
    tail_p = res.phase_error.phases[int(0.9 * len(res.phase_error.phases)) :]
    assert np.max(np.abs(tail_p)) < 1e-2


def test_acquisition_with_laser_noise(w_band):
    cfg = replace(w_band.loop, initial_freq_error_hz=1e6)
    res = simulate_lock(w_band.master, w_band.slave, cfg, seed=2101)
    assert res.locked
    assert res.cycle_slips >= 0


def test_underpowered_loop_flagged_unlocked(w_band):
    cfg = replace(w_band.loop, kp=10.0, ki=0.0, duration_s=5e-3,
                  initial_freq_error_hz=1e6)
    res = simulate_lock(w_band.master, w_band.slave, cfg, seed=1)
    assert not res.locked


def test_proportional_only_suppression_analytic(w_band):
    """First-order loop, 100 kHz unity gain: -20 dB one decade down."""
    cfg = replace(w_band.loop, kp=1e5, ki=0.0, actuator_bw_hz=5e6)
    sup = closed_loop_suppression(cfg, np.array([1e4]))[0]
    assert sup == pytest.approx(-20.0, abs=2.0)


def test_pi_low_frequency_advantage(w_band):
    cfg = w_band.loop
    sup = closed_loop_suppression(cfg, np.array([1e3, 1e4]))
    assert sup[0] <= sup[1] - 15.0


def test_suppression_vanishes_out_of_band(w_band):
    cfg = w_band.loop
    assert abs(closed_loop_suppression(cfg, np.array([1e9]))[0]) < 0.1


def test_locked_psd_matches_linear_suppression(w_band):
    """Measured in-loop PSD over free-running PSD tracks |S|^2.

    The lock simulation and the free-running generator share phase noise
    when seeded alike, so the ratio is nearly deterministic.
    """
    cfg = replace(w_band.loop, duration_s=10e-3, initial_freq_error_hz=0.0)
    res = simulate_lock(w_band.master, w_band.slave, cfg, seed=7)
    n = len(res.phase_error.phases)
    free = joined_beat(w_band.master, w_band.slave, n, cfg.sim_rate_hz, seed=7)
    fl, sl = estimate_psd(res.phase_error, 500.0)
    ff, sf = estimate_psd(free, 500.0)
    measured = 10 * np.log10(band_mean(fl, sl, 8e3, 12e3) / band_mean(ff, sf, 8e3, 12e3))
    analytic = closed_loop_suppression(cfg, np.array([1e4]))[0]
    assert measured == pytest.approx(analytic, abs=3.0)
    assert measured <= -20.0


def test_servo_bump_location(w_band):
    cfg = replace(w_band.loop, duration_s=10e-3, initial_freq_error_hz=0.0)
    res = simulate_lock(w_band.master, w_band.slave, cfg, seed=3)
    freqs, psd = estimate_psd(res.phase_error, 1e3)
    sel = freqs >= 5e3
    peak = freqs[sel][np.argmax(psd[sel])]
    assert 50e3 <= peak <= 200e3


def test_step_response_matches_linear_model(w_band):
    """Zero-linewidth plant against the scipy state-space oracle."""
    quiet_a = LaserSpec("a", 0.0, 0.0)
    quiet_b = LaserSpec("b", 0.0, 92.5e9)
    step = 200.0
    cfg = replace(w_band.loop, duration_s=2e-4, initial_freq_error_hz=step)
    res = simulate_lock(quiet_a, quiet_b, cfg, seed=0)
    theta = res.phase_error.phases
    t = np.arange(len(theta)) / cfg.sim_rate_hz
    ref = closed_loop_phase_step(cfg.kp, cfg.ki, cfg.actuator_bw_hz, step, t)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(theta - ref)) <= 0.05 * scale


@pytest.mark.parametrize("f_mod", [1e3, 3e3, 1e4, 3e4])
def test_fm_injection_follows_suppression(w_band, f_mod):
    """Injected FM tone must be suppressed per the linear transfer."""
    quiet_a = LaserSpec("a", 0.0, 0.0)
    quiet_b = LaserSpec("b", 0.0, 92.5e9)
    amp = 200.0
    cfg = replace(w_band.loop, duration_s=10e-3, initial_freq_error_hz=0.0)
    res = simulate_lock(quiet_a, quiet_b, cfg, seed=0, fm_inject=(amp, f_mod))
    tail = res.phase_error.phases[len(res.phase_error.phases) // 2 :]
    measured = np.sqrt(2.0) * np.std(tail)
    # peak deviation amp/f_mod rad, scaled by the closed-loop suppression
    expect = (amp / f_mod) * 10 ** (closed_loop_suppression(cfg, np.array([f_mod]))[0] / 20)
    assert 20 * np.log10(measured / expect) == pytest.approx(0.0, abs=3.0)


def test_residual_variance_ordering(w_band, d_band):
    cfg12 = replace(w_band.loop, duration_s=10e-3, initial_freq_error_hz=0.0)
    cfg13 = replace(d_band.loop, duration_s=10e-3, initial_freq_error_hz=0.0)
    var12 = residual_phase_variance(simulate_lock(w_band.master, w_band.slave, cfg12, seed=5))
    var13 = residual_phase_variance(simulate_lock(d_band.master, d_band.slave, cfg13, seed=5))
    assert var13 > var12


def test_lock_determinism(w_band):
    cfg = replace(w_band.loop, duration_s=2e-3, initial_freq_error_hz=0.0)
    a = simulate_lock(w_band.master, w_band.slave, cfg, seed=4)
    b = simulate_lock(w_band.master, w_band.slave, cfg, seed=4)
    c = simulate_lock(w_band.master, w_band.slave, cfg, seed=5)
    assert np.array_equal(a.phase_error.phases, b.phase_error.phases)
    assert np.array_equal(a.freq_error_rows, b.freq_error_rows)
    assert np.array_equal(a.freq_error_tail, b.freq_error_tail)
    assert not np.array_equal(a.phase_error.phases, c.phase_error.phases)


def beat_note(phases, cfg):
    """The beat note exp(j*phases) at the loop's rate and target offset."""
    return ComplexWaveform(np.exp(1j * phases), cfg.sim_rate_hz, anchor_hz=cfg.target_offset_hz)


def test_free_running_psd_is_the_joined_beats_estimate(scenario):
    """On either band, the free-running beat PSD, drawn and fed a chunk at
    a time, is exactly the one-shot estimate of the beat note over the
    pair's whole beat, at the target offset."""
    for band in scenario.bands:
        cfg = band.loop
        beat = joined_beat(band.master, band.slave, loop_samples(cfg), cfg.sim_rate_hz,
                           band.lock_seed)
        got = free_running_psd(band.master, band.slave, cfg, band.lock_seed, LOCK_PSD_RBW_HZ)
        for g, w in zip(got, estimate_psd(beat_note(beat.phases, cfg), LOCK_PSD_RBW_HZ)):
            assert np.array_equal(g, w)


def test_lock_csv_export(w_band, tmp_path):
    cfg = replace(w_band.loop, duration_s=1e-3, initial_freq_error_hz=0.0)
    res = simulate_lock(w_band.master, w_band.slave, cfg, seed=1)
    path = tmp_path / "lock.csv"
    write_lock_csv(path, res)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,phase_error_rad,freq_error_hz"
    n = len(res.phase_error.phases)
    stride = n // LOCK_CSV_MAX_ROWS
    assert stride > 1
    assert len(lines) - 1 == int(np.ceil(n / stride))
    t0, p0, f0 = (float(v) for v in lines[1].split(","))
    assert t0 == 0.0
    assert p0 == pytest.approx(res.phase_error.phases[0], abs=1e-8)
    assert f0 == pytest.approx(res.freq_error_rows[0], rel=1e-6, abs=1e-6)


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
    return np.diff(joined_beat(master, slave, n, cfg.sim_rate_hz, seed).phases, prepend=0.0)


def run_loop(cfg, n, chunks):
    """Theta and actuator of every sample, from ``_lock_loop`` through a
    sink that collects them; checks that the stretches arrive in order and
    cover the record once."""
    theta, act = np.full(n, np.nan), np.full(n, np.nan)
    covered = [0]

    def collect(k, th, a):
        assert k == covered[0] and len(th) == len(a) > 0
        theta[k:k + len(th)] = th
        act[k:k + len(a)] = a
        covered[0] += len(th)

    _lock_loop(cfg, n, chunks, collect)
    assert covered[0] == n
    return theta, act


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
    """simulate_lock's theta, and every theta and actuator sample of the
    loop it runs (collected from the same ``_lock_loop`` path), against the
    scalar recursion; what LockResult keeps of the frequency error is the
    loop's own."""
    res = simulate_lock(master, slave, cfg, seed, fm_inject=fm_inject)
    n = len(res.theta)
    fm = None
    if fm_inject is not None:
        fm = fm_inject[0] * np.cos(TWO_PI * fm_inject[1] * (1.0 / cfg.sim_rate_hz) * np.arange(n))
    theta, freq = scalar_reference(cfg, beat_increments(master, slave, cfg, seed), fm)
    loop_theta, act = run_loop(cfg, n, _increments(master, slave, cfg, n, seed, fm_inject))
    loop_freq = cfg.initial_freq_error_hz - act
    assert np.array_equal(loop_theta, res.theta)
    assert np.max(np.abs(res.theta - theta)) <= THETA_TOL_RAD
    assert np.max(np.abs(loop_freq - freq)) <= FREQ_TOL_HZ
    assert np.array_equal(res.freq_error_rows, loop_freq[::_csv_stride(n)])
    assert np.array_equal(res.freq_error_tail, loop_freq[int(0.9 * n):])
    assert (res.locked, res.cycle_slips) == verdict(theta, freq)
    return res, theta


@pytest.mark.parametrize("name", ["W", "D"])
def test_solver_matches_scalar_default_bands(scenario, name):
    band = scenario.band(name)
    cfg = band.loop
    res, theta = assert_matches_scalar(band.master, band.slave, cfg, band.lock_seed)
    assert res.locked
    assert 0 < np.count_nonzero(np.abs(theta) > TWO_PI) < 1000


def test_solver_matches_scalar_8mhz_acquisition(w_band):
    cfg = replace(w_band.loop, initial_freq_error_hz=8e6)
    res, theta = assert_matches_scalar(w_band.master, w_band.slave, cfg, 2101)
    assert res.locked
    sat = np.abs(theta) > TWO_PI
    episodes = np.count_nonzero(sat[1:] & ~sat[:-1]) + int(sat[0])
    assert 7 <= episodes <= 9


def test_solver_matches_scalar_fm_inject(w_band):
    cfg = replace(w_band.loop, duration_s=4e-3, initial_freq_error_hz=0.0)
    assert_matches_scalar(NOISELESS_A, NOISELESS_B, cfg, 0, fm_inject=(200.0, 1e4))


def test_solver_matches_scalar_proportional_only(w_band):
    kp, _ = pi_gains_for(100e3, 0.0, 50e3)
    cfg = replace(w_band.loop, kp=kp, ki=0.0, duration_s=5e-3, initial_freq_error_hz=1e6)
    assert_matches_scalar(w_band.master, w_band.slave, cfg, 5)


@pytest.mark.parametrize("kp,df0", [(10.0, 1e6), (0.0, 0.0)])
def test_solver_matches_scalar_unsettled_loop(w_band, kp, df0):
    """Loops that never settle: their responses to a kick do not decay over
    a block or a chunk."""
    cfg = replace(w_band.loop, kp=kp, ki=0.0, duration_s=5e-3, initial_freq_error_hz=df0)
    assert_matches_scalar(w_band.master, w_band.slave, cfg, 1)


def test_solver_matches_scalar_diverging_gains(w_band):
    """An unstable linear loop, whose kick response grows from block to
    block.  Rounding differences grow with the loop once it diverges, so
    theta is compared to the absolute tolerance only until then."""
    cfg = replace(w_band.loop, kp=1e3, ki=1e12, duration_s=4e-4, initial_freq_error_hz=0.0)
    incr = beat_increments(w_band.master, w_band.slave, cfg, 1)
    res = simulate_lock(w_band.master, w_band.slave, cfg, seed=1)
    theta, freq = scalar_reference(cfg, incr)
    stop = int(np.argmax(np.abs(theta) > DIVERGENCE_RAD))
    assert stop > 0
    assert np.max(np.abs(res.theta[:stop] - theta[:stop])) <= THETA_TOL_RAD
    assert np.max(np.abs(res.theta - theta)) <= 1e-9 * np.max(np.abs(theta))
    assert (res.locked, res.cycle_slips) == verdict(theta, freq)
    assert not res.locked


def test_solver_matches_scalar_record_shorter_than_block(w_band):
    cfg = replace(w_band.loop, duration_s=2e-4, initial_freq_error_hz=1e6)
    assert loop_samples(cfg) < SCAN_CHUNK
    assert_matches_scalar(w_band.master, w_band.slave, cfg, 3)


@pytest.mark.parametrize("where", ["first", "last", "chunk"])
def test_solver_excursion_at_block_edge(w_band, where):
    """A phase kick that saturates the detector exactly on the scan's first
    sample, on the last sample of its first block or on the last sample of
    its first chunk."""
    cfg = replace(w_band.loop, initial_freq_error_hz=0.0)
    n = 200_000
    kick = QUIET + {"first": 0, "last": SCAN_L - 1, "chunk": SCAN_CHUNK - 1}[where]
    incr = beat_increments(w_band.master, w_band.slave, cfg, 9)[:n].copy()
    incr[kick] += 8.0
    theta_ref, freq_ref = scalar_reference(cfg, incr)
    assert int(np.argmax(np.abs(theta_ref) > TWO_PI)) == kick
    theta, act = run_loop(cfg, n, [incr])
    assert np.max(np.abs(theta - theta_ref)) <= THETA_TOL_RAD
    assert np.max(np.abs(cfg.initial_freq_error_hz - act - freq_ref)) <= FREQ_TOL_HZ


@settings(max_examples=25, deadline=None)
@given(fu=st.floats(1e3, 1e6), zero_ratio=st.floats(0.0, 0.5),
       act_ratio=st.floats(1.0, 2.0), df0=st.floats(-1e7, 1e7),
       n=st.integers(10, 20_000), seed=st.integers(0, 2**32 - 1))
def test_solver_matches_scalar_property(w_band, fu, zero_ratio, act_ratio, df0, n, seed):
    fa = fu * act_ratio
    kp, ki = pi_gains_for(fu, zero_ratio * fu, fa)
    cfg = replace(w_band.loop, kp=kp, ki=ki, actuator_bw_hz=fa,
                  duration_s=n / 50e6, initial_freq_error_hz=df0)
    assert_matches_scalar(w_band.master, w_band.slave, cfg, seed)


# a phase kick (its sample, its size, the start error): anywhere, from any
# start error; or, from a zero start error, whose scan starts after QUIET
# samples, on the first or the last sample of one of the scan's first blocks
KICKS = st.one_of(
    st.tuples(st.integers(0, 3999), st.floats(-12.0, 12.0), st.sampled_from([0.0, 1e6, 8e6])),
    st.tuples(st.builds(lambda r, d: QUIET + r * SCAN_L + d, st.integers(0, 6),
                        st.sampled_from([-1, 0])),
              st.sampled_from([-8.0, 8.0]), st.just(0.0)))


@settings(max_examples=40, deadline=None)
@given(blocks=st.integers(1, 3), n=st.integers(10, 4000), kick=KICKS,
       seed=st.integers(0, 2**32 - 1))
# the last sample of a chunk, the first of the next, the last of a block
# inside a chunk
@example(blocks=2, n=1000, kick=(QUIET + 2 * SCAN_L - 1, 8.0, 0.0), seed=1)
@example(blocks=1, n=1000, kick=(QUIET + SCAN_L, -8.0, 0.0), seed=2)
@example(blocks=3, n=1000, kick=(QUIET + SCAN_L - 1, 8.0, 0.0), seed=3)
def test_solver_matches_scalar_across_chunk_and_block_edges(w_band, blocks, n, kick, seed):
    """With the scan's chunks one to three blocks long, chunk edges, block
    edges and cuts inside a block all fall within a short record."""
    at, size, df0 = kick
    n = max(n, at + 1)
    cfg = replace(w_band.loop, duration_s=n / 50e6, initial_freq_error_hz=df0)
    incr = beat_increments(w_band.master, w_band.slave, cfg, seed)
    incr[at] += size
    theta_ref, freq_ref = scalar_reference(cfg, incr)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opll, "SCAN_CHUNK", blocks * SCAN_L)
        theta, act = run_loop(cfg, n, [incr])
    assert np.max(np.abs(theta - theta_ref)) <= THETA_TOL_RAD
    assert np.max(np.abs(df0 - act - freq_ref)) <= FREQ_TOL_HZ


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OpenBLAS's x86 kernels")
def test_lock_bytes_do_not_depend_on_the_blas_kernel(scenario):
    """Band W's lock record, its last chunk zero-padded, has the same bytes
    under OpenBLAS's AVX2 (Haswell) kernels as under the kernels OpenBLAS
    picks for this CPU (AVX-512 ones where it has AVX-512).  A BLAS other
    than OpenBLAS ignores the variable."""
    band = scenario.band("W")
    cfg = replace(band.loop, duration_s=4.1e-3)
    code = ("import hashlib\n"
            "from dataclasses import replace\n"
            "from wdlink.opll import simulate_lock\n"
            "from wdlink.scenario import default_scenario_path, load_scenario\n"
            "b = load_scenario(default_scenario_path()).band('W')\n"
            "res = simulate_lock(b.master, b.slave, replace(b.loop, duration_s=4.1e-3),\n"
            "                    b.lock_seed)\n"
            "print(hashlib.sha256(res.theta.tobytes()).hexdigest())\n")
    src = str(os.path.dirname(os.path.dirname(os.path.abspath(wdlink.__file__))))
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    res = simulate_lock(band.master, band.slave, cfg, band.lock_seed)
    assert loop_samples(cfg) % SCAN_CHUNK != 0
    assert proc.stdout.strip() == hashlib.sha256(res.theta.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# the lock stage as a stream
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3000), chunk=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1),
       quiet=st.sampled_from([None, "master", "slave"]), fm=st.booleans())
def test_chunked_increments_equal_the_whole_record_difference(w_band, n, chunk, seed,
                                                              quiet, fm):
    """The increments drawn chunk by chunk (any chunk size, a zero-linewidth
    laser on either side, FM or none) are exactly the first difference of the
    whole beat, plus the FM simulate_lock documents."""
    lasers = {"master": w_band.master, "slave": w_band.slave}
    if quiet is not None:
        lasers[quiet] = replace(lasers[quiet], linewidth_hz=0.0)
    cfg = w_band.loop
    fm_inject = (200.0, 1e4) if fm else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noise, "BEAT_CHUNK", chunk)
        got = np.concatenate(list(_increments(lasers["master"], lasers["slave"], cfg, n, seed,
                                              fm_inject)))
    want = np.diff(joined_beat(lasers["master"], lasers["slave"], n, cfg.sim_rate_hz,
                               seed).phases, prepend=0.0)
    if fm:
        dt = 1.0 / cfg.sim_rate_hz
        want += TWO_PI * dt * (200.0 * np.cos(TWO_PI * 1e4 * dt * np.arange(n)))
    assert np.array_equal(got, want)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(10, 20_000), chunk=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1),
       df0=st.sampled_from([0.0, 1e6, 8e6]))
def test_loop_reads_chunked_increments_as_one_record(w_band, n, chunk, seed, df0):
    """Through the scalar stepper and the scan alike, the loop gives
    the same record whether its increments arrive whole or in chunks."""
    cfg = replace(w_band.loop, initial_freq_error_hz=df0)
    whole = np.concatenate(list(_increments(w_band.master, w_band.slave, cfg, n, seed)))
    chunks = [whole[k:k + chunk] for k in range(0, n, chunk)]
    for got, want in zip(run_loop(cfg, n, chunks), run_loop(cfg, n, [whole])):
        assert np.array_equal(got, want)


def test_lock_stage_peak_memory_is_at_most_three_theta_records(scenario):
    """Band D's lock as a run calls it (error PSD included) peaks under
    tracemalloc at no more than three theta records (13.0 MB against an
    8 MB record): no n-sample increment, actuator, beat or clipped record
    is built beside the kept theta.  Whole-record increments, actuator and
    clipped copies peaked at 41.6 MB."""
    band = scenario.band("D")
    tracemalloc.start()
    try:
        res = simulate_lock(band.master, band.slave, band.loop, band.lock_seed)
        res.error_psd(LOCK_PSD_RBW_HZ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * res.theta.nbytes == 24_000_000


def test_free_running_psd_peak_memory_is_under_one_and_a_half_beat_records(scenario):
    """Band D's free-running beat PSD peaks under tracemalloc under one
    real beat record (5.0 MB against 8 MB; 8.3 MB with 2^16-sample beat
    chunks), held by the Welch transforms and one chunk's beat note.  The joined beat alone would add a whole
    record, so the bound is one and a half.  Joining the beat and forming
    its complex note whole peaked at 40.0 MB."""
    band = scenario.band("D")
    n = loop_samples(band.loop)
    tracemalloc.start()
    try:
        free_running_psd(band.master, band.slave, band.loop, band.lock_seed, LOCK_PSD_RBW_HZ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n == 12_000_000


def test_block_fed_psds_equal_the_whole_record_estimates(w_band):
    """The error and beat PSDs, fed a chunk at a time, are exactly the
    one-shot estimates of the clipped record and of the locked beat note:
    exp(j*theta) of the unclipped theta, acquisition cycles included, at
    the target offset."""
    res = simulate_lock(w_band.master, w_band.slave, w_band.loop, seed=4)
    beat = beat_note(res.theta, res.config)
    for got, want in ((res.error_psd(LOCK_PSD_RBW_HZ), estimate_psd(res.phase_error, LOCK_PSD_RBW_HZ)),
                      (res.beat_psd(LOCK_PSD_RBW_HZ), estimate_psd(beat, LOCK_PSD_RBW_HZ))):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5000),
       scale=st.sampled_from([1e-3, 1.0, 10.0]))
def test_residual_phase_variance_is_np_var_of_the_clipped_tail(n, seed, scale):
    """The in-place variance gives np.var's float exactly, clipping included,
    on records that do and do not leave the detector's range."""
    theta = np.random.default_rng(seed).standard_normal(n) * scale
    res = types.SimpleNamespace(theta=theta)
    tail = theta[int(0.5 * n):]
    assert residual_phase_variance(res) == float(np.var(np.clip(tail, -TWO_PI, TWO_PI)))
    assert np.array_equal(res.theta, theta)   # the record itself is not clipped


def _traced_variance(res):
    """``residual_phase_variance(res)`` and its tracemalloc peak."""
    tracemalloc.start()
    try:
        var = residual_phase_variance(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return var, peak


@pytest.mark.parametrize("n, seed, scale", [
    (4 * CHUNK + 5, 1, 10.0),      # a 2*CHUNK + 3 tail: three pieces
    (6 * CHUNK + 7, 3, 3.0),       # four pieces
    (8 * CHUNK + 11, 2, 10.0),     # five
])
def test_residual_phase_variance_is_np_var_of_a_tail_of_several_pieces(n, seed, scale):
    """On a tail longer than 2*CHUNK the variance still gives np.var's
    float exactly, summed in pieces of at most CHUNK samples: it allocates
    no more than one clipped piece (2 MB), where a clipped copy of the tail
    took 4.2-8.4 MB.  The lengths are odd and the seeds chosen so that a
    split not rounded down to a multiple of 8, as numpy's is, changes each
    variance's last bits."""
    theta = np.random.default_rng(seed).standard_normal(n) * scale + 0.25
    var, peak = _traced_variance(types.SimpleNamespace(theta=theta))
    assert var == float(np.var(np.clip(theta[int(0.5 * n):], -TWO_PI, TWO_PI)))
    assert peak <= 8 * CHUNK + 64 * 1024


def test_residual_phase_variance_of_a_band_allocates_under_one_piece(d_band):
    """On a default band's 1 M-sample record the settled half is two
    pieces of 250,000 samples, so the variance's peak stays under one
    CHUNK's 2 MB; a clipped copy of the half would take 4 MB."""
    res = simulate_lock(d_band.master, d_band.slave, d_band.loop, d_band.lock_seed)
    var, peak = _traced_variance(res)
    tail = res.theta[len(res.theta) // 2:]
    assert var == float(np.var(np.clip(tail, -TWO_PI, TWO_PI)))
    assert peak < 8 * CHUNK


def test_two_band_lock_sim_peak_memory_is_under_four_and_a_half_theta_records(
        scenario, tmp_path):
    """``lock_sim`` of both bands at once, from the 8 MHz start error of the
    benchmark's lock workload, peaks under tracemalloc at three and a half
    theta records (27.5-27.7 MB against 8 MB records): the two kept
    records, and each band's loop scratch, Welch estimate or CSV table.
    The bound is four and a half records.  One thread per band without the
    leaner loop (a two-row spectrum product, a chunk concatenate per
    refill, 2^16-sample beat chunks, np.var's temporaries, each band's
    record kept while its beat PSD is written) peaked at 36.0-37.0 MB, the
    bands one after the other at 28.8 MB."""
    from wdlink import runner

    scn = replace(scenario, bands=tuple(
        replace(b, loop=replace(b.loop, initial_freq_error_hz=8e6)) for b in scenario.bands))
    record_bytes = 8 * loop_samples(scn.bands[0].loop)
    tracemalloc.start()
    try:
        info = runner.lock_sim(scn, tmp_path / "o")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(band["locked"] for band in info.values())
    assert peak <= 4.5 * record_bytes == 36_000_000
