"""Offset phase locking of a slave laser to the shared reference line.

The beat between master and slave is mixed against the target offset, the
residual phase error drives a phase-frequency detector (linear within +-2*pi,
saturated outside, which is what gives PFD-style frequency acquisition), a PI
controller, and a one-pole actuator model for the piezo frequency tuning.
The time-stepped loop runs well above the closed-loop bandwidth so the same
configuration can be checked against the linearized transfer function.

Controller units: kp in Hz of actuation per radian, ki in Hz per (radian
second); the plant integrates d(theta)/dt = 2*pi*(frequency error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import LaserSpec, PhaseTrace, laser_pair_phases
from .waveform import ComplexWaveform

TWO_PI = 2.0 * math.pi
DIVERGENCE_RAD = 1.0e4
LOCK_FREQ_TOL_HZ = 1.0e3


@dataclass(frozen=True)
class LoopConfig:
    target_offset_hz: float
    kp: float
    ki: float
    actuator_bw_hz: float = 50e3
    sim_rate_hz: float = 50e6
    duration_s: float = 20e-3
    initial_freq_error_hz: float = 0.0

    def __post_init__(self):
        if self.sim_rate_hz <= 0 or self.duration_s <= 0:
            raise ValueError("sim_rate_hz and duration_s must be positive")
        if self.actuator_bw_hz <= 0:
            raise ValueError("actuator_bw_hz must be positive")
        if self.kp < 0 or self.ki < 0:
            raise ValueError("gains must be non-negative")


@dataclass(frozen=True)
class LockResult:
    locked: bool
    phase_error: PhaseTrace
    freq_error: np.ndarray
    locked_beat: ComplexWaveform
    cycle_slips: int
    config: LoopConfig


def pi_gains_for(unity_gain_hz: float, pi_zero_hz: float, actuator_bw_hz: float) -> tuple:
    """(kp, ki) placing the open-loop unity-gain crossover at ``unity_gain_hz``
    with the PI zero at ``pi_zero_hz`` (0 for a pure proportional loop)."""
    fu, fz, fa = unity_gain_hz, pi_zero_hz, actuator_bw_hz
    kp = fu * math.sqrt(1.0 + (fu / fa) ** 2) / math.sqrt(1.0 + (fz / fu) ** 2)
    ki = TWO_PI * fz * kp
    return kp, ki


def default_loop_config(target_offset_hz: float, **overrides) -> LoopConfig:
    """Default servo: 100 kHz crossover driving a 50 kHz one-pole piezo
    actuator, PI zero at 20 kHz.

    Pushing the crossover an octave past the actuator pole and keeping the
    PI zero a fifth of a decade below it leaves ~15 deg of phase margin, so
    the loop rings: the closed-loop response peaks ~12 dB just above
    100 kHz. A pronounced servo bump like this is characteristic of piezo
    locks run hard against their actuator limit; the payoff is the strong
    in-band suppression the integrator buys below 10 kHz.
    """
    kp, ki = pi_gains_for(100e3, 20e3, overrides.get("actuator_bw_hz", 50e3))
    params = dict(target_offset_hz=target_offset_hz, kp=kp, ki=ki)
    params.update(overrides)
    return LoopConfig(**params)


def open_loop_gain(cfg: LoopConfig, freqs_hz) -> np.ndarray:
    """Complex open-loop transfer L(j2 pi f) = 2 pi (kp + ki/s) / s / (1 + s/wa)."""
    f = np.asarray(freqs_hz, dtype=np.float64)
    if np.any(f <= 0):
        raise ValueError("frequencies must be positive")
    s = 1j * TWO_PI * f
    act = 1.0 / (1.0 + s / (TWO_PI * cfg.actuator_bw_hz))
    return TWO_PI * (cfg.kp + cfg.ki / s) / s * act


def closed_loop_suppression(cfg: LoopConfig, freqs_hz) -> np.ndarray:
    """Phase-noise error suppression |1 - H|^2 = |1/(1 + L)|^2 in dB.

    Negative in the servo band, approaching 0 dB far above the loop
    bandwidth, with positive gain peaking near crossover when the phase
    margin is low (the servo bump).
    """
    L = open_loop_gain(cfg, freqs_hz)
    sup = 1.0 / np.abs(1.0 + L) ** 2
    return 10.0 * np.log10(sup)


def unity_gain_hz(cfg: LoopConfig) -> float:
    """Open-loop unity-gain frequency, solved numerically."""
    lo, hi = 1.0, cfg.sim_rate_hz / 2
    if abs(open_loop_gain(cfg, [lo])[0]) < 1.0:
        return lo
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if abs(open_loop_gain(cfg, [mid])[0]) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-9:
            break
    return math.sqrt(lo * hi)


def simulate_lock(master: LaserSpec, slave: LaserSpec, cfg: LoopConfig, seed: int,
                  fm_inject=None) -> LockResult:
    """Time-stepped lock acquisition and tracking.

    The PFD output is the running phase error saturated at +-2*pi: linear
    in-lock, a constant maximal pull during frequency acquisition, with full
    cycles accumulated rather than lost.  ``fm_inject=(amp_hz, freq_hz)``
    adds a deterministic sinusoidal frequency modulation on the slave, used
    to probe the realized suppression against the linear model.
    """
    n = int(round(cfg.duration_s * cfg.sim_rate_hz))
    if n < 10:
        raise ValueError("duration too short for the simulation rate")
    fu = unity_gain_hz(cfg)
    if cfg.sim_rate_hz < 20.0 * fu:
        raise ValueError(
            f"sim_rate_hz {cfg.sim_rate_hz:g} under-resolves the loop (unity gain {fu:g} Hz)"
        )

    m_tr, s_tr = laser_pair_phases(master, slave, n, cfg.sim_rate_hz, seed)
    beat_noise = s_tr.phases - m_tr.phases
    incr = np.diff(beat_noise, prepend=0.0).tolist()

    dt = 1.0 / cfg.sim_rate_hz
    alpha = TWO_PI * cfg.actuator_bw_hz * dt
    kp, ki = cfg.kp, cfg.ki
    df0 = cfg.initial_freq_error_hz
    two_pi_dt = TWO_PI * dt

    if fm_inject is not None:
        fm_amp, fm_freq = fm_inject
        fm = (fm_amp * np.cos(TWO_PI * fm_freq * dt * np.arange(n))).tolist()
    else:
        fm = None

    theta_rec = [0.0] * n
    act_rec = [0.0] * n
    theta = 0.0
    integ = 0.0
    act = 0.0
    for k in range(n):
        e = theta
        if e > TWO_PI:
            e = TWO_PI
        elif e < -TWO_PI:
            e = -TWO_PI
        integ += e * dt
        act += alpha * (kp * e + ki * integ - act)
        dfreq = df0 - act
        if fm is not None:
            dfreq += fm[k]
        theta += two_pi_dt * dfreq + incr[k]
        theta_rec[k] = theta
        act_rec[k] = act

    theta_arr = np.asarray(theta_rec)
    freq_error = df0 - np.asarray(act_rec)
    diverged = not np.all(np.isfinite(theta_arr)) or np.max(np.abs(theta_arr)) > DIVERGENCE_RAD
    tail = freq_error[int(0.9 * n):]
    locked = (not diverged) and abs(float(np.mean(tail))) < LOCK_FREQ_TOL_HZ
    peak = float(np.max(np.abs(theta_arr))) if np.all(np.isfinite(theta_arr)) else float("inf")
    cycle_slips = int(peak // TWO_PI) if math.isfinite(peak) else -1

    phase_error = PhaseTrace(np.clip(theta_arr, -TWO_PI, TWO_PI), cfg.sim_rate_hz)
    locked_beat = ComplexWaveform(
        samples=np.exp(1j * theta_arr),
        sample_rate_hz=cfg.sim_rate_hz,
        anchor_hz=cfg.target_offset_hz,
    )
    return LockResult(
        locked=locked,
        phase_error=phase_error,
        freq_error=freq_error,
        locked_beat=locked_beat,
        cycle_slips=cycle_slips,
        config=cfg,
    )


def free_running_beat(master: LaserSpec, slave: LaserSpec, n_samples: int,
                      sample_rate_hz: float, seed: int) -> ComplexWaveform:
    """Unlocked beat note between two lines (linewidths add)."""
    m_tr, s_tr = laser_pair_phases(master, slave, n_samples, sample_rate_hz, seed)
    phases = s_tr.phases - m_tr.phases
    return ComplexWaveform(
        samples=np.exp(1j * phases),
        sample_rate_hz=sample_rate_hz,
        anchor_hz=slave.offset_hz - master.offset_hz,
    )


def residual_phase_variance(result: LockResult, tail_fraction: float = 0.5) -> float:
    """Variance of the locked phase error over the trailing fraction of the record."""
    p = result.phase_error.phases
    tail = p[int((1.0 - tail_fraction) * len(p)):]
    return float(np.var(tail))


def write_lock_csv(path, result: LockResult, stride: int = 1) -> None:
    """Time series export: time, post-PFD phase error, frequency error.

    ``stride`` decimates the record for export; the simulation itself is
    unaffected.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    dt = 1.0 / result.config.sim_rate_hz
    p = result.phase_error.phases
    f = result.freq_error
    with open(path, "w", newline="") as fh:
        fh.write("time_s,phase_error_rad,freq_error_hz\n")
        for k in range(0, len(p), stride):
            fh.write(f"{k * dt:.9e},{p[k]:.9e},{f[k]:.9e}\n")
