"""Offset phase locking of a slave laser to the shared reference line.

The beat between master and slave is mixed against the target offset, the
residual phase error drives a phase-frequency detector (linear within +-2*pi,
saturated outside, which is what gives PFD-style frequency acquisition), a PI
controller, and a one-pole actuator model for the piezo frequency tuning.
The time-stepped loop runs well above the closed-loop bandwidth so the same
configuration can be checked against the linearized transfer function.

The recursion is solved in two regimes.  While the detector saturates
(|theta| > 2*pi, the acquisition transient) it is stepped sample by sample.
Between saturations the loop is a linear 3-state system, solved in numpy by
a blocked scan: a chunk of samples is cut into blocks of SCAN_L, every
block's forced response comes from one matrix product, the block start
states from a short recursion, and the chunk is cut at its first saturated
sample.  The two regimes give the sample-by-sample recursion's result up to
rounding (see ``_lock_loop``).

The lock stage is a stream, so no n-sample record is built but the one
kept.  The beat-noise increments are drawn chunk by chunk
(``noise.beat_chunks``, differenced across chunk edges, FM added per
chunk), and the loop reads them forward only, through one refill buffer.
It hands each finished stretch of (theta, actuator) to a sink, and the
scan reuses one chunk's scratch.  The lock result (``LockResult``)
keeps:

- the whole theta record, one float per loop sample, which the detector's
  view, the residual tail, the residual variance and the Welch PSDs read;
- of the frequency error, only the rows ``lock.csv`` writes and the last
  10% of the record, which decides ``locked``;
- the verdicts: ``locked`` and the cycle-slip count.

Every lock PSD, the free-running beat's too, is fed to ``noise.Welch`` a
beat chunk at a time (``_chunk_psd``), so none forms a whole record beside
theta, and the residual variance works in one clipped copy of the tail.
So two bands lock at once in about four theta records (see README.md).

Controller units: kp in Hz of actuation per radian, ki in Hz per (radian
second); the plant integrates d(theta)/dt = 2*pi*(frequency error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import BEAT_CHUNK, LaserSpec, PhaseTrace, Welch, beat_chunks
from .waveform import LOCK_CSV, write_table

TWO_PI = 2.0 * math.pi
DIVERGENCE_RAD = 1.0e4
LOCK_FREQ_TOL_HZ = 1.0e3
RESIDUAL_TAIL = 0.5      # trailing fraction of the record that counts as settled
LOCK_PSD_RBW_HZ = 1e3    # resolution of a run's lock-loop PSD (psd_error.csv)
LOCK_CSV_MAX_ROWS = 4000  # lock.csv keeps every stride-th sample, stride = n // this
MIN_PHASE_MARGIN_DEG = 1.0  # least phase margin pi_gains_for accepts (see there)

# hybrid solver (see _lock_loop)
QUIET = 64               # unsaturated samples before leaving the scalar stepper
SCALAR_RUN = 1 << 14     # most samples the scalar stepper hands the sink at once
SCAN_L = 64              # samples per block of the linear scan
SCAN_CHUNK = 1 << 16     # most samples the scan solves at once


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
        if not (0 <= self.kp < math.inf and 0 <= self.ki < math.inf):
            raise ValueError("gains must be finite and non-negative")


def _detector(theta: np.ndarray) -> np.ndarray:
    """The phase-frequency detector's view of ``theta``: clipped at +-2*pi."""
    return np.clip(theta, -TWO_PI, TWO_PI)


def residual_samples(cfg: LoopConfig, n: int, duration_s: float) -> int:
    """Samples of an n-sample lock record that ``LockResult.residual_tail``
    hands a frame of ``duration_s``: two more than the frame spans.  Raises
    ValueError when the record is shorter than that."""
    span = duration_s * cfg.sim_rate_hz
    if not span <= n - 2:
        raise ValueError(f"the {n / cfg.sim_rate_hz:.3e}s lock record cannot cover "
                         f"a {duration_s:.3e}s frame")
    return int(math.ceil(span)) + 2


def _chunk_psd(cfg: LoopConfig, n: int, rbw_hz: float, beat: bool, chunks) -> tuple:
    """Welch PSD of the n-sample phase record at the loop's rate that
    ``chunks`` yields in order: of the detector's view of it, or, with
    ``beat``, of the beat note exp(j*phase) at the target offset.  Each
    chunk is viewed and fed on its own."""
    psd = Welch(n, cfg.sim_rate_hz, rbw_hz, anchor_hz=cfg.target_offset_hz if beat else None)
    for chunk in chunks:
        psd.feed(np.exp(1j * chunk) if beat else _detector(chunk))
    return psd.result()


@dataclass(frozen=True)
class LockResult:
    """``theta`` is the unclipped phase error, one value per loop sample;
    the detector's clipped view of it is derived on access.  Of the
    frequency error (initial error minus actuator) only what is reported is
    kept: ``freq_error_rows``, every ``_csv_stride``-th sample (the rows of
    lock.csv), and ``freq_error_tail``, the record's last 10% (which
    ``locked`` reads)."""

    locked: bool
    theta: np.ndarray
    freq_error_rows: np.ndarray
    freq_error_tail: np.ndarray
    cycle_slips: int
    config: LoopConfig

    @property
    def phase_error(self) -> PhaseTrace:
        """The whole record as the detector sees it, clipped at +-2*pi."""
        return PhaseTrace(_detector(self.theta), self.config.sim_rate_hz)

    def residual_tail(self, duration_s: float) -> PhaseTrace:
        """Settled stretch of the detector's phase error handed to a frame of
        ``duration_s``: the record's last ``residual_samples``."""
        n = residual_samples(self.config, len(self.theta), duration_s)
        return PhaseTrace(_detector(self.theta[-n:]), self.config.sim_rate_hz)

    def error_psd(self, rbw_hz: float) -> tuple:
        """Welch PSD of ``phase_error``."""
        return _chunk_psd(self.config, len(self.theta), rbw_hz, False, self._chunks())

    def beat_psd(self, rbw_hz: float) -> tuple:
        """Welch PSD of the locked beat note exp(j*theta) at the target offset."""
        return _chunk_psd(self.config, len(self.theta), rbw_hz, True, self._chunks())

    def _chunks(self):
        return (self.theta[k:k + BEAT_CHUNK] for k in range(0, len(self.theta), BEAT_CHUNK))


def pi_gains_for(unity_gain_hz: float, pi_zero_hz: float, actuator_bw_hz: float) -> tuple:
    """(kp, ki) placing the open-loop unity-gain crossover at ``unity_gain_hz``
    with the PI zero at ``pi_zero_hz`` (0 for a pure proportional loop).  The
    phase margin there, atan(fu/fz) - atan(fu/fa), must reach MIN_PHASE_MARGIN_DEG."""
    fu, fz, fa = unity_gain_hz, pi_zero_hz, actuator_bw_hz
    if not (fu > 0 and fa > 0 and fz >= 0):
        raise ValueError("unity_gain_hz and actuator_bw_hz must be positive, "
                         "pi_zero_hz non-negative")
    # below a 1 deg margin the error peaks over 35 dB at fu; the floor also keeps
    # fu/fa and fz/fu under cot(1 deg), so the squares below stay finite
    margin = math.degrees(math.atan2(fu, fz) - math.atan2(fu, fa))
    if not margin >= MIN_PHASE_MARGIN_DEG:
        raise ValueError(f"phase margin {margin:.3g} deg at the {fu:g} Hz crossover is below "
                         f"{MIN_PHASE_MARGIN_DEG:g} deg (PI zero {fz:g} Hz, actuator {fa:g} Hz)")
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
    Raises ValueError when that record is too short, has no finite length
    or is longer than numpy can index, or the rate under-resolves the loop."""
    span = cfg.duration_s * cfg.sim_rate_hz
    if not math.isfinite(span):
        raise ValueError(f"duration_s {cfg.duration_s:g} at sim_rate_hz "
                         f"{cfg.sim_rate_hz:g} gives no finite record length")
    n = int(round(span))
    if n > np.iinfo(np.intp).max:
        raise ValueError(f"duration_s {cfg.duration_s:g} at sim_rate_hz "
                         f"{cfg.sim_rate_hz:g} gives {span:.3g} samples, more than "
                         f"numpy can index ({np.iinfo(np.intp).max})")
    if n < 10:
        raise ValueError("duration too short for the simulation rate")
    fu = unity_gain_hz(cfg)
    if cfg.sim_rate_hz < 20.0 * fu:
        raise ValueError(
            f"sim_rate_hz {cfg.sim_rate_hz:g} under-resolves the loop (unity gain {fu:g} Hz)"
        )
    return n


def _loop_matrix(kp: float, ki: float, actuator_bw_hz: float, sim_rate_hz: float) -> np.ndarray:
    """One unsaturated step as s[k+1] = A s[k] + e_theta u[k] on the state
    s = (theta, integrator, actuator), where u[k] is the plant's open-loop
    phase advance 2*pi*dt*df0 plus the beat-noise (and FM) increment."""
    dt = 1.0 / sim_rate_hz
    alpha = TWO_PI * actuator_bw_hz * dt
    c = TWO_PI * dt
    g = alpha * (kp + ki * dt)
    return np.array([[1.0 - c * g, -c * alpha * ki, -c * (1.0 - alpha)],
                     [dt, 1.0, 0.0],
                     [g, alpha * ki, 1.0 - alpha]])


def _scan_plan(cfg: LoopConfig) -> tuple:
    """The linear scan's matrices for blocks of L = SCAN_L samples, from the
    powers A^0 ... A^L of the loop matrix:

    - ``forced``, shape (2, L, L): [0][j, i] = A^(i-j)[0, 0] and
      [1][j, i] = A^(i-j)[2, 0] for i >= j, else 0, so that a block's
      inputs u times it give the theta and actuator response to u from a
      zero state;
    - ``free``, shape (2, 3, L): [0][:, i] and [1][:, i] are rows 0 and 2
      of A^(i+1), the theta and actuator response to the start state;
    - ``a_l``, A^L as nested lists of floats.

    The powers are formed elementwise, not by BLAS, whose kernels round
    small products differently on different CPUs."""
    a_mat = _loop_matrix(cfg.kp, cfg.ki, cfg.actuator_bw_hz, cfg.sim_rate_hz)
    powers = np.empty((SCAN_L + 1, 3, 3))
    powers[0] = np.eye(3)
    for m in range(SCAN_L):
        np.sum(a_mat[:, :, None] * powers[m], axis=1, out=powers[m + 1])
    kick = powers[:, 0::2, 0].T                            # A^m e_theta, rows 0 and 2
    lag = np.arange(SCAN_L) - np.arange(SCAN_L)[:, None]   # lag[j, i] = i - j
    forced = np.where(lag >= 0, kick[:, np.maximum(lag, 0)], 0.0)
    free = powers[1:, 0::2].transpose(1, 2, 0).copy()
    return forced, free, powers[SCAN_L].tolist()


def _scan_states(s, a_l, w):
    """The scan's block start states S[0] = s, S[b+1] = A^L S[b] + w[b] for
    A^L = ``a_l`` and the rows w[b] of the three sequences ``w``, as
    triples of Python floats: faster per block than numpy scalars, and
    freed as they are consumed.  An unstable loop may overflow them to inf
    or nan."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a_l
    s0, s1, s2 = s
    yield s
    for w0, w1, w2 in zip(*map(memoryview, w)):
        s0, s1, s2 = (a00 * s0 + a01 * s1 + a02 * s2 + w0,
                      a10 * s0 + a11 * s1 + a12 * s2 + w1,
                      a20 * s0 + a21 * s1 + a22 * s2 + w2)
        yield s0, s1, s2


class _Ahead:
    """Forward-only reader of a record that arrives as chunks.  The unread
    samples live in one buffer: each refill shifts them to its front and
    copies the next chunks in behind them, so the buffer grows only when a
    read asks for more than it holds."""

    def __init__(self, chunks):
        self._chunks = iter(chunks)
        self._buf = np.empty(0)
        self._start = 0   # record index of _buf[0]
        self._len = 0     # samples held in _buf

    def ahead(self, k: int, m: int) -> np.ndarray:
        """The record from sample k on: at least m samples, fewer only at
        its end.  The samples before k are dropped, so k must not decrease.
        The view is valid until the next call."""
        buf, have = self._buf, self._start + self._len - k
        if have < m:
            # numpy assigns overlapping slices as if from a copy
            buf[:have] = buf[k - self._start:self._len]
            self._start, self._len = k, have
            for chunk in self._chunks:
                if self._len + len(chunk) > len(buf):
                    grown = np.empty(m + len(chunk))   # self._len < m here
                    grown[:self._len] = buf[:self._len]
                    self._buf = buf = grown
                buf[self._len:self._len + len(chunk)] = chunk
                self._len += len(chunk)
                if self._len >= m:
                    break
        return buf[k - self._start:self._len]


def _lock_loop(cfg: LoopConfig, n: int, increments, sink) -> None:
    """Run the loop over the n open-loop phase increments (beat noise and
    any injected FM) that the iterable ``increments`` yields in chunks of
    any length, reading them forward only.  Each finished stretch of the
    record goes to ``sink(k, theta, act)``: its first sample index, the
    unclipped phase error and the actuator output.  The stretches arrive in
    order and cover the record once; their arrays are scratch space, so a
    sink copies what it keeps.

    While the detector saturates, the recursion is stepped one sample at a
    time.  Once QUIET consecutive samples are unsaturated the loop is
    linear, s[k+1] = A s[k] + e_theta u[k] (``_loop_matrix``), and it is
    solved SCAN_CHUNK samples at a time by a blocked scan (see
    ``_scan_plan``).  The chunk's inputs, zero-padded, are cut into blocks
    of SCAN_L as the rows of U.  Each block's response from a zero state is
    U @ forced; its end state w[b] gives the block start states S[b+1] =
    A^L S[b] + w[b] (``_scan_states``), and the response to S[b] is added
    through ``free``.  The chunk is cut at its first |theta| > 2*pi (or
    non-finite theta, from a scan that overflowed), and the scalar stepper
    takes over again from there.  The result differs from the scalar
    recursion alone only by rounding.

    The scan's BLAS products are of 2^18 multiply-adds, 64 blocks by SCAN_L
    by SCAN_L, the last chunk zero-padded.  OpenBLAS computes a product
    that small on the calling thread; a larger one wakes its worker
    threads, which then compete for the cores with the other band's
    thread.  And its AVX2 and AVX-512 kernels round that shape alike (they
    do not round every shape alike), so the record's bytes do not depend
    on which of the two the CPU has.
    """
    dt = 1.0 / cfg.sim_rate_hz
    alpha = TWO_PI * cfg.actuator_bw_hz * dt
    kp, ki = cfg.kp, cfg.ki
    df0 = cfg.initial_freq_error_hz
    two_pi_dt = TWO_PI * dt
    forced, free, a_l = _scan_plan(cfg)
    incr = _Ahead(increments)
    batch = (1 << 18) // SCAN_L ** 2   # blocks per BLAS product
    # one chunk's scratch, reused by every chunk: its inputs, in rows of
    # SCAN_L and whole batches of rows, and its theta and actuator responses
    u = np.empty((-(-SCAN_CHUNK // (batch * SCAN_L)) * batch, SCAN_L))
    flat, out = u.reshape(-1), np.empty((2, *u.shape))

    theta_run, act_run = np.empty(SCALAR_RUN), np.empty(SCALAR_RUN)
    # memoryviews index as Python floats, several times faster per sample
    # than numpy scalars
    theta_v, act_v = memoryview(theta_run), memoryview(act_run)
    theta = integ = act = 0.0
    k = 0
    while k < n:
        quiet = 0
        while k < n and quiet < QUIET:
            ahead = incr.ahead(k, 1)
            incr_v = memoryview(ahead)
            m = min(len(ahead), SCALAR_RUN)
            j = 0
            while j < m and quiet < QUIET:
                e = theta
                if e > TWO_PI:
                    e = TWO_PI
                elif e < -TWO_PI:
                    e = -TWO_PI
                integ += e * dt
                act += alpha * (kp * e + ki * integ - act)
                theta += two_pi_dt * (df0 - act) + incr_v[j]
                theta_v[j] = theta
                act_v[j] = act
                j += 1
                quiet = quiet + 1 if -TWO_PI <= theta <= TWO_PI else 0
            sink(k, theta_run[:j], act_run[:j])
            k += j

        while k < n:
            m = min(SCAN_CHUNK, n - k)
            np.add(incr.ahead(k, m)[:m], two_pi_dt * df0, out=flat[:m])
            flat[m:] = 0.0
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(u.reshape(-1, batch, SCAN_L), forced[:, None],
                          out=out.reshape(2, -1, batch, SCAN_L))
                # a block's end state from a zero start: the forced integrator
                # sums the block's theta but its last
                w = out[0, :-1, -1], dt * np.sum(out[0, :-1, :-1], axis=1), out[1, :-1, -1]
                starts = np.fromiter(_scan_states((theta, integ, act), a_l, w),
                                     dtype=(float, 3), count=len(u))
                for col in range(3):
                    out += starts[:, col, None] * free[:, col, None]
            th, ac = out[0].reshape(-1)[:m], out[1].reshape(-1)[:m]
            cut = np.flatnonzero(~(np.abs(th) <= TWO_PI))
            end = int(cut[0]) + 1 if len(cut) else m
            sink(k, th[:end], ac[:end])
            b = (end - 1) // SCAN_L
            s0, s1 = starts[b, :2].tolist()
            integ = s1 + dt * (s0 + float(np.sum(th[b * SCAN_L:end - 1])))
            theta, act = float(th[end - 1]), float(ac[end - 1])
            k += end
            if len(cut):
                break


def _increments(master: LaserSpec, slave: LaserSpec, cfg: LoopConfig, n: int, seed: int,
                fm_inject=None):
    """The loop's n open-loop phase increments, a beat chunk at a time:
    the first difference of the beat phase, its first sample taken against
    0, plus ``fm_inject``'s frequency modulation (see ``simulate_lock``)."""
    dt = 1.0 / cfg.sim_rate_hz
    last, start = 0.0, 0
    for incr in beat_chunks(master, slave, n, cfg.sim_rate_hz, seed):
        # np.diff(beat, prepend=last) in the chunk's own buffer: numpy reads
        # overlapping operands as if they were copies
        first, last = incr[0] - last, incr[-1]
        incr[1:] -= incr[:-1]
        incr[0] = first
        if fm_inject is not None:
            fm_amp, fm_freq = fm_inject
            k = np.arange(start, start + len(incr))
            incr += TWO_PI * dt * (fm_amp * np.cos(TWO_PI * fm_freq * dt * k))
        start += len(incr)
        yield incr


def _csv_stride(n: int) -> int:
    """Sample stride of lock.csv's rows for an n-sample record."""
    return max(1, n // LOCK_CSV_MAX_ROWS)


def simulate_lock(master: LaserSpec, slave: LaserSpec, cfg: LoopConfig, seed: int,
                  fm_inject=None) -> LockResult:
    """Time-stepped lock acquisition and tracking.

    The PFD output is the running phase error saturated at +-2*pi: linear
    in-lock, a constant maximal pull during frequency acquisition, with full
    cycles accumulated rather than lost.  ``fm_inject=(amp_hz, freq_hz)``
    adds a deterministic sinusoidal frequency modulation on the slave, used
    to probe the realized suppression against the linear model.

    The saturated stretches are stepped sample by sample and the linear
    ones solved by a blocked scan (see ``_lock_loop``); the result equals
    the plain sample-by-sample recursion up to rounding.
    """
    n = loop_samples(cfg)
    df0 = cfg.initial_freq_error_hz
    stride = _csv_stride(n)
    tail_from = int(0.9 * n)
    theta = np.empty(n)
    rows = np.empty(len(range(0, n, stride)))
    tail = np.empty(n - tail_from)

    def keep(k, th, act):
        end = k + len(th)
        theta[k:end] = th
        first = -(-k // stride)
        rows[first:-(-end // stride)] = df0 - act[first * stride - k::stride]
        if end > tail_from:
            lo = max(k, tail_from)
            tail[lo - tail_from:end - tail_from] = df0 - act[lo - k:]

    _lock_loop(cfg, n, _increments(master, slave, cfg, n, seed, fm_inject), keep)

    finite = bool(np.all(np.isfinite(theta)))
    peak = max(float(theta.max()), -float(theta.min())) if finite else math.inf
    locked = finite and peak <= DIVERGENCE_RAD and abs(float(np.mean(tail))) < LOCK_FREQ_TOL_HZ
    cycle_slips = int(peak // TWO_PI) if finite else -1

    return LockResult(
        locked=locked,
        theta=theta,
        freq_error_rows=rows,
        freq_error_tail=tail,
        cycle_slips=cycle_slips,
        config=cfg,
    )


def free_running_psd(master: LaserSpec, slave: LaserSpec, cfg: LoopConfig, seed: int,
                     rbw_hz: float) -> tuple:
    """Welch PSD of the unlocked beat note between two lines (linewidths
    add) at the target offset, over the record ``simulate_lock`` runs for
    ``cfg`` and seed, so on the noise the locked loop sees."""
    n = loop_samples(cfg)
    return _chunk_psd(cfg, n, rbw_hz, True, beat_chunks(master, slave, n, cfg.sim_rate_hz, seed))


def residual_phase_variance(result: LockResult) -> float:
    """Variance of the locked phase error over the last RESIDUAL_TAIL of the
    record.  Computed as ``np.var`` does it, the same sums in the same
    order, but in the one clipped copy of the tail."""
    tail = _detector(result.theta[int((1.0 - RESIDUAL_TAIL) * len(result.theta)):])
    tail -= np.mean(tail)
    np.square(tail, out=tail)
    return float(np.sum(tail) / len(tail))


def write_lock_csv(path, result: LockResult) -> None:
    """Time series export: time, post-PFD phase error, frequency error, at
    every stride-th sample, stride ``max(1, n // LOCK_CSV_MAX_ROWS)`` of an
    n-sample record."""
    stride = _csv_stride(len(result.theta))
    dt = 1.0 / result.config.sim_rate_hz
    write_table(path, LOCK_CSV, np.arange(0, len(result.theta), stride) * dt,
                _detector(result.theta[::stride]), result.freq_error_rows)
