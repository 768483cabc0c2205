"""Offset phase locking of a slave laser to the shared reference line.

The beat between master and slave is mixed against the target offset, the
residual phase error drives a phase-frequency detector (linear within +-2*pi,
saturated outside, which is what gives PFD-style frequency acquisition), a PI
controller, and a one-pole actuator model for the piezo frequency tuning.
The time-stepped loop runs well above the closed-loop bandwidth so the same
configuration can be checked against the linearized transfer function.

The recursion is solved in two regimes.  While the detector saturates
(|theta| > 2*pi, the acquisition transient) it is stepped sample by sample.
Between saturations the loop is a linear 3-state system, advanced in numpy
a block of samples at a time by FFT convolution with its impulse response
plus the free response from the block's start state; each block is cut at
its first saturated sample.  The two regimes give the sample-by-sample
recursion's result up to rounding (see ``_lock_loop``).

Controller units: kp in Hz of actuation per radian, ki in Hz per (radian
second); the plant integrates d(theta)/dt = 2*pi*(frequency error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import LaserSpec, PhaseTrace, beat_phase
from .waveform import ComplexWaveform, write_table

TWO_PI = 2.0 * math.pi
DIVERGENCE_RAD = 1.0e4
LOCK_FREQ_TOL_HZ = 1.0e3
RESIDUAL_TAIL = 0.5      # trailing fraction of the record that counts as settled
LOCK_PSD_RBW_HZ = 1e3    # resolution of a run's lock-loop PSD (psd_error.csv)

# hybrid solver (see _lock_loop)
BLOCK = 1 << 16          # linear block length; a settled loop's blocks fill the FFT
QUIET = 64               # unsaturated samples before leaving the scalar stepper
DECAY_TOL = 1e-17        # relative size below which a power of A counts as settled
KICK_GROWTH_MAX = 1e3    # largest A^m[0, 0] a block may rely on


@dataclass(frozen=True)
class LoopConfig:
    target_offset_hz: float
    kp: float
    ki: float
    actuator_bw_hz: float
    sim_rate_hz: float
    duration_s: float
    initial_freq_error_hz: float

    def __post_init__(self):
        if self.sim_rate_hz <= 0 or self.duration_s <= 0:
            raise ValueError("sim_rate_hz and duration_s must be positive")
        if self.actuator_bw_hz <= 0:
            raise ValueError("actuator_bw_hz must be positive")
        if self.kp < 0 or self.ki < 0:
            raise ValueError("gains must be non-negative")


def _detector(theta: np.ndarray) -> np.ndarray:
    """The phase-frequency detector's view of ``theta``: clipped at +-2*pi."""
    return np.clip(theta, -TWO_PI, TWO_PI)


@dataclass(frozen=True)
class LockResult:
    """``theta`` is the unclipped phase error, one value per loop sample;
    the detector's clipped view of it is derived on access."""

    locked: bool
    freq_error: np.ndarray
    theta: np.ndarray
    cycle_slips: int
    config: LoopConfig

    @property
    def phase_error(self) -> PhaseTrace:
        """The whole record as the detector sees it, clipped at +-2*pi."""
        return PhaseTrace(_detector(self.theta), self.config.sim_rate_hz)

    def residual_tail(self, duration_s: float) -> PhaseTrace:
        """Settled stretch of the detector's phase error handed to a frame of
        ``duration_s``: the record's last samples, two more than the frame spans."""
        n = min(int(math.ceil(duration_s * self.config.sim_rate_hz)) + 2, len(self.theta))
        return PhaseTrace(_detector(self.theta[-n:]), self.config.sim_rate_hz)

    @property
    def locked_beat(self) -> ComplexWaveform:
        """The locked beat note exp(j*theta) at the target offset."""
        return ComplexWaveform(
            samples=np.exp(1j * self.theta),
            sample_rate_hz=self.config.sim_rate_hz,
            anchor_hz=self.config.target_offset_hz,
        )


def pi_gains_for(unity_gain_hz: float, pi_zero_hz: float, actuator_bw_hz: float) -> tuple:
    """(kp, ki) placing the open-loop unity-gain crossover at ``unity_gain_hz``
    with the PI zero at ``pi_zero_hz`` (0 for a pure proportional loop)."""
    fu, fz, fa = unity_gain_hz, pi_zero_hz, actuator_bw_hz
    if not (fu > 0 and fa > 0 and fz >= 0):
        raise ValueError("unity_gain_hz and actuator_bw_hz must be positive, "
                         "pi_zero_hz non-negative")
    kp = fu * math.sqrt(1.0 + (fu / fa) ** 2) / math.sqrt(1.0 + (fz / fu) ** 2)
    ki = TWO_PI * fz * kp
    return kp, ki


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


def loop_samples(cfg: LoopConfig) -> int:
    """Length of the record ``simulate_lock`` runs for ``cfg``, in samples.
    Raises ValueError when that record is too short or the rate
    under-resolves the loop."""
    n = int(round(cfg.duration_s * cfg.sim_rate_hz))
    if n < 10:
        raise ValueError("duration too short for the simulation rate")
    fu = unity_gain_hz(cfg)
    if cfg.sim_rate_hz < 20.0 * fu:
        raise ValueError(
            f"sim_rate_hz {cfg.sim_rate_hz:g} under-resolves the loop (unity gain {fu:g} Hz)"
        )
    return n


def _loop_matrix(cfg: LoopConfig) -> np.ndarray:
    """One unsaturated step as s[k+1] = A s[k] + e_theta u[k] on the state
    s = (theta, integrator, actuator), where u[k] is the plant's open-loop
    phase advance 2*pi*dt*df0 plus the beat-noise (and FM) increment."""
    dt = 1.0 / cfg.sim_rate_hz
    alpha = TWO_PI * cfg.actuator_bw_hz * dt
    c = TWO_PI * dt
    g = alpha * (cfg.kp + cfg.ki * dt)
    return np.array([[1.0 - c * g, -c * alpha * cfg.ki, -c * (1.0 - alpha)],
                     [dt, 1.0, 0.0],
                     [g, alpha * cfg.ki, 1.0 - alpha]])


def _power_rows(a_mat: np.ndarray, cap: int) -> tuple:
    """Theta and actuator rows of A^0 ... A^K, as an array of shape
    (K + 1, 2, 3), and whether the loop settled within K samples.

    The number of powers doubles each round.  It stops once every entry of
    both rows has stayed below DECAY_TOL of its peak over the last quarter
    of the powers (the loop has settled, and the later powers are dropped),
    once K reaches ``cap``, or just before the theta response to a unit
    theta kick, A^m[0, 0], exceeds KICK_GROWTH_MAX (an unstable loop, whose
    powers would swamp the FFT's rounding and then overflow).
    """
    p = np.empty((cap + 1, 3, 3))
    p[0] = np.eye(3)
    p[1] = a_mat
    m = 1
    while m < cap:
        top = min(2 * m, cap)
        p[m + 1:top + 1] = p[1:top - m + 1] @ p[m]
        grown = np.flatnonzero(~(np.abs(p[m + 1:top + 1, 0, 0]) <= KICK_GROWTH_MAX))
        if len(grown):
            return p[:m + 1 + grown[0], 0::2], False
        m = top
        rows = np.abs(p[:m + 1, 0::2])
        live = np.flatnonzero(np.any(rows > DECAY_TOL * rows.max(axis=0), axis=(1, 2)))
        if live[-1] < m - m // 4:
            return p[:live[-1] + 2, 0::2], True
    return p[:, 0::2], False


def _block_plan(cfg: LoopConfig, n: int) -> tuple:
    """Linear-stretch solver for an n-sample record: (block length, FFT
    length, rfft of the theta and actuator impulse responses A^m e_theta
    as a (2, nfft//2 + 1) array, and the theta and actuator rows of
    A^1 ... A^K as a (2, 3, K) array)."""
    rows, settled = _power_rows(_loop_matrix(cfg), min(BLOCK, n))
    n_pow = len(rows) - 1
    # A block of m samples needs an FFT of m + n_pow - 1 points.  An
    # unsettled loop needs every power its blocks use, so its blocks stop at
    # n_pow; a settled loop's blocks fill the FFT.
    nfft = 1 << (min(BLOCK, n) + n_pow - 2).bit_length()
    block = nfft - n_pow + 1 if settled else n_pow
    kernel = np.fft.rfft(rows[:n_pow, :, 0].T, nfft)
    free = rows[1:].transpose(1, 2, 0).copy()
    return block, nfft, kernel, free


def _lock_loop(cfg: LoopConfig, incr: np.ndarray) -> tuple:
    """Run the loop over the open-loop phase increments ``incr`` (beat noise
    and any injected FM); returns the unclipped phase error and the
    actuator output, one value per sample.

    While the detector saturates, the recursion is stepped one sample at a
    time.  Once QUIET consecutive samples are unsaturated the loop is
    linear, and it advances a block at a time: the FFT convolution of the
    block's input with the impulse response, plus the free response from
    the block's start state.  A block is cut at its first |theta| > 2*pi,
    and the scalar stepper takes over again from there.  The result differs
    from the scalar recursion alone only by rounding.
    """
    n = len(incr)
    dt = 1.0 / cfg.sim_rate_hz
    alpha = TWO_PI * cfg.actuator_bw_hz * dt
    kp, ki = cfg.kp, cfg.ki
    df0 = cfg.initial_freq_error_hz
    two_pi_dt = TWO_PI * dt
    block, nfft, kernel, free = _block_plan(cfg, n)
    u = incr + two_pi_dt * df0

    theta_rec = np.empty(n)
    act_rec = np.empty(n)
    # memoryviews index as Python floats, several times faster per sample
    # than numpy scalars
    incr_v, theta_v, act_v = memoryview(incr), memoryview(theta_rec), memoryview(act_rec)
    theta = integ = act = 0.0
    k = 0
    while k < n:
        quiet = 0
        while k < n and quiet < QUIET:
            e = theta
            if e > TWO_PI:
                e = TWO_PI
            elif e < -TWO_PI:
                e = -TWO_PI
            integ += e * dt
            act += alpha * (kp * e + ki * integ - act)
            theta += two_pi_dt * (df0 - act) + incr_v[k]
            theta_v[k] = theta
            act_v[k] = act
            k += 1
            quiet = quiet + 1 if -TWO_PI <= theta <= TWO_PI else 0

        while k < n:
            m = min(block, n - k)
            out = np.fft.irfft(np.fft.rfft(u[k:k + m], nfft) * kernel, nfft)[:, :m]
            j = min(m, free.shape[2])
            for col, s0 in enumerate((theta, integ, act)):
                out[:, :j] += s0 * free[:, col, :j]
            th = out[0]
            cut = np.flatnonzero(np.abs(th) > TWO_PI)
            end = int(cut[0]) + 1 if len(cut) else m
            theta_rec[k:k + end] = th[:end]
            act_rec[k:k + end] = out[1, :end]
            integ += dt * (theta + float(np.sum(th[:end - 1])))
            theta, act = float(th[end - 1]), float(out[1, end - 1])
            k += end
            if len(cut):
                break
    return theta_rec, act_rec


def simulate_lock(master: LaserSpec, slave: LaserSpec, cfg: LoopConfig, seed: int,
                  fm_inject=None) -> LockResult:
    """Time-stepped lock acquisition and tracking.

    The PFD output is the running phase error saturated at +-2*pi: linear
    in-lock, a constant maximal pull during frequency acquisition, with full
    cycles accumulated rather than lost.  ``fm_inject=(amp_hz, freq_hz)``
    adds a deterministic sinusoidal frequency modulation on the slave, used
    to probe the realized suppression against the linear model.

    The saturated stretches are stepped sample by sample and the linear
    ones in FFT blocks (see ``_lock_loop``); the result equals the plain
    sample-by-sample recursion up to rounding.
    """
    n = loop_samples(cfg)
    incr = np.diff(beat_phase(master, slave, n, cfg.sim_rate_hz, seed).phases, prepend=0.0)
    if fm_inject is not None:
        fm_amp, fm_freq = fm_inject
        dt = 1.0 / cfg.sim_rate_hz
        incr += TWO_PI * dt * (fm_amp * np.cos(TWO_PI * fm_freq * dt * np.arange(n)))
    theta_arr, act = _lock_loop(cfg, incr)

    freq_error = cfg.initial_freq_error_hz - act
    finite = bool(np.all(np.isfinite(theta_arr)))
    peak = float(np.max(np.abs(theta_arr))) if finite else math.inf
    tail = freq_error[int(0.9 * n):]
    locked = finite and peak <= DIVERGENCE_RAD and abs(float(np.mean(tail))) < LOCK_FREQ_TOL_HZ
    cycle_slips = int(peak // TWO_PI) if finite else -1

    return LockResult(
        locked=locked,
        freq_error=freq_error,
        theta=theta_arr,
        cycle_slips=cycle_slips,
        config=cfg,
    )


def free_running_beat(master: LaserSpec, slave: LaserSpec, cfg: LoopConfig,
                      seed: int) -> ComplexWaveform:
    """Unlocked beat note between two lines (linewidths add), over the record
    ``simulate_lock`` runs for ``cfg`` and seed, at the target offset."""
    beat = beat_phase(master, slave, loop_samples(cfg), cfg.sim_rate_hz, seed)
    return ComplexWaveform(
        samples=np.exp(1j * beat.phases),
        sample_rate_hz=cfg.sim_rate_hz,
        anchor_hz=cfg.target_offset_hz,
    )


def residual_phase_variance(result: LockResult) -> float:
    """Variance of the locked phase error over the last RESIDUAL_TAIL of the record."""
    tail = result.theta[int((1.0 - RESIDUAL_TAIL) * len(result.theta)):]
    return float(np.var(_detector(tail)))


def write_lock_csv(path, result: LockResult, stride: int = 1) -> None:
    """Time series export: time, post-PFD phase error, frequency error.

    ``stride`` decimates the record for export; the simulation itself is
    unaffected.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    dt = 1.0 / result.config.sim_rate_hz
    write_table(path, "time_s,phase_error_rad,freq_error_hz\n",
                "{:.9e},{:.9e},{:.9e}\n", np.arange(0, len(result.theta), stride) * dt,
                _detector(result.theta[::stride]), result.freq_error[::stride])
