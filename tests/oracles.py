"""Independent reference implementations used to pin golden values.

Everything here is written directly from first principles (recurrences,
closed-form expressions, scipy's general-purpose signal and special-function
tools) so the package under test never validates itself against its own
arithmetic.  scipy is a test-only dependency.
"""

import math

import numpy as np
import scipy.signal
import scipy.special


def lfsr_bits(n_bits, order=17, taps=(17, 14), seed_state=0x1FFFF):
    """Bit-by-bit Fibonacci LFSR, deliberately scalar and slow.

    The seed register is emitted LSB first, then b[n] = b[n-order] ^ b[n-k].
    """
    bits = [(seed_state >> i) & 1 for i in range(order)]
    a, b = taps
    while len(bits) < n_bits:
        bits.append(bits[-a] ^ bits[-b])
    return np.array(bits[:n_bits], dtype=np.uint8)


def qfunc(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def closed_loop_phase_step(kp, ki, actuator_bw_hz, freq_step_hz, t):
    """Linear loop response to a frequency step, via scipy state space.

    States: theta (rad), integral of theta, actuator output (Hz).  The
    actuator low-passes the PI output and subtracts from the plant frequency
    error, exactly the linearized structure of the simulated servo.
    """
    wa = 2.0 * math.pi * actuator_bw_hz
    a_mat = [[0.0, 0.0, -2.0 * math.pi],
             [1.0, 0.0, 0.0],
             [wa * kp, wa * ki, -wa]]
    b_mat = [[2.0 * math.pi], [0.0], [0.0]]
    sys = scipy.signal.StateSpace(a_mat, b_mat, [[1.0, 0.0, 0.0]], [[0.0]])
    u = np.full(len(t), freq_step_hz)
    _, theta, _ = scipy.signal.lsim(sys, u, t)
    return theta


def lock_loop_scalar(incr, fm, df0, kp, ki, actuator_bw_hz, sim_rate_hz):
    """The lock loop stepped one sample at a time in plain Python floats.

    ``incr`` is the per-sample beat-phase noise increment and ``fm`` the
    injected slave frequency modulation in Hz (or None).  Returns the
    unclipped phase error theta and the frequency error df0 - actuator.
    """
    n = len(incr)
    incr = np.asarray(incr, dtype=float).tolist()
    if fm is not None:
        fm = np.asarray(fm, dtype=float).tolist()
    dt = 1.0 / sim_rate_hz
    alpha = 2.0 * math.pi * actuator_bw_hz * dt
    two_pi = 2.0 * math.pi
    two_pi_dt = two_pi * dt

    theta_rec = [0.0] * n
    act_rec = [0.0] * n
    theta = 0.0
    integ = 0.0
    act = 0.0
    for k in range(n):
        e = theta
        if e > two_pi:
            e = two_pi
        elif e < -two_pi:
            e = -two_pi
        integ += e * dt
        act += alpha * (kp * e + ki * integ - act)
        dfreq = df0 - act
        if fm is not None:
            dfreq += fm[k]
        theta += two_pi_dt * dfreq + incr[k]
        theta_rec[k] = theta
        act_rec[k] = act
    return np.asarray(theta_rec), df0 - np.asarray(act_rec)


def lorentzian_fwhm_from_field_psd(freqs, psd, f_lo, f_hi):
    """Fit the linewidth from the far wing of a unit-power field PSD.

    For |f| >> FWHM the two-sided Lorentzian density is FWHM / (2 pi f^2);
    averaging 2 pi f^2 S(f) over a wing window inverts that.
    """
    sel = (np.abs(freqs) >= f_lo) & (np.abs(freqs) <= f_hi)
    if not np.any(sel):
        raise ValueError("empty wing window")
    return float(np.mean(2.0 * np.pi * freqs[sel] ** 2 * psd[sel]))


def wiener_phase_psd(linewidth_hz, f_hz):
    """One-sided phase-noise density of a Wiener phase with the given FWHM."""
    return linewidth_hz / (math.pi * f_hz ** 2)


def welch_psd(x, fs, nperseg, onesided):
    """scipy's Welch estimate with the package's settings: periodic Hann
    window, 50% overlap, no detrending, density scaling."""
    return scipy.signal.welch(x, fs=fs, window="hann", nperseg=nperseg,
                              noverlap=nperseg // 2, detrend=False,
                              scaling="density", return_onesided=onesided)


def welch_psd_per_segment(x, fs, nperseg, onesided):
    """The package's Welch estimate (periodic Hann window, hop
    nperseg - nperseg//2, density scaling) with one transform per segment,
    added in segment order.  Two-sided results are fftshifted, with
    frequencies relative to the anchor."""
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    hop = nperseg - nperseg // 2
    n_seg = (len(x) - nperseg // 2) // hop
    fft = np.fft.rfft if onesided else np.fft.fft
    acc = np.zeros(nperseg // 2 + 1 if onesided else nperseg)
    for start in range(0, n_seg * hop, hop):
        spec = fft(x[start:start + nperseg] * win)
        acc += spec.real ** 2 + spec.imag ** 2
    psd = acc / (n_seg * fs * np.sum(win ** 2))
    if onesided:
        psd[1:-1 if nperseg % 2 == 0 else None] *= 2.0
        return np.fft.rfftfreq(nperseg, 1.0 / fs), psd
    return np.fft.fftshift(np.fft.fftfreq(nperseg, 1.0 / fs)), np.fft.fftshift(psd)


def normalized_correlation_direct(x, tpl):
    """|c[n]| / (||x[n:n + m]|| ||tpl||) at every full-overlap lag n, from
    scipy's direct-sum correlation and each lag's own window of |x|^2."""
    num = np.abs(scipy.signal.correlate(x, tpl, mode="valid", method="direct"))
    energy = np.lib.stride_tricks.sliding_window_view(np.abs(x) ** 2, len(tpl)).sum(axis=1)
    return num / np.sqrt(energy * np.sum(np.abs(tpl) ** 2))


def sync_offset(x, tpl):
    """Lag of the largest correlation of ``x`` with ``tpl`` normalized by
    both energies, from scipy's full-length FFT correlation and an FFT
    running sum of |x|^2 over the template span."""
    num = np.abs(scipy.signal.correlate(x, tpl, mode="valid", method="fft"))
    energy = scipy.signal.fftconvolve(np.abs(x) ** 2, np.ones(len(tpl)), mode="valid")
    corr = num / np.sqrt(np.maximum(energy, 1e-30) * np.sum(np.abs(tpl) ** 2))
    return int(np.argmax(corr))


def ber_mqam_ref(snr_db, order_bits):
    """Gray-coded AWGN bit error probability from scipy's erfc: BPSK exact,
    rectangular 8QAM per bit, square-family nearest-neighbour otherwise."""
    g = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)

    def q(x):
        return 0.5 * scipy.special.erfc(x / math.sqrt(2.0))

    if order_bits == 1:
        return q(np.sqrt(2.0 * g))
    if order_bits == 3:
        x = np.sqrt(g / 3.0)
        return (2.5 * q(x) + q(3.0 * x) - 0.5 * q(5.0 * x)) / 3.0
    m = 2.0 ** order_bits
    return (4.0 / order_bits) * (1.0 - 1.0 / math.sqrt(m)) * q(np.sqrt(3.0 * g / (m - 1.0)))


def load_bits_loop(indices, snr_db, thresholds, window, n_subcarriers):
    """Threshold bit loading one subcarrier at a time: for each index of
    ``window`` with a finite SNR row, the last of the ascending
    (order, min_snr_db) ``thresholds`` that the SNR reaches; 0 elsewhere."""
    bits = np.zeros(n_subcarriers, dtype=int)
    snr_by_index = dict(zip((int(i) for i in indices), snr_db))
    for i in set(int(i) for i in window):
        snr = snr_by_index.get(i)
        if snr is None or not np.isfinite(snr):
            continue
        best = 0
        for order, min_snr in thresholds:
            if snr >= min_snr:
                best = order
        bits[i] = best
    return bits


def channel_ref(x, fs, anchor_hz, mask, downconvert=None):
    """The channel after the carrier, in two passes, out of place and full
    length: the mask's amplitude (linear in dB between its points, constant
    beyond; no pass when ``mask`` is None), then, when ``downconvert``
    (``dband_downconvert``'s keyword arguments after the mask) is given, a
    brick-wall IF window and every ``decimate``-th sample.  Returns
    (samples, sample rate, anchor)."""

    def filtered(y, gain):
        freqs = np.fft.fftfreq(len(y), 1.0 / fs) + anchor_hz
        return np.fft.ifft(np.fft.fft(y) * gain(freqs))

    y = x
    if mask is not None:
        f = np.array([p.freq_hz for p in mask])
        g = np.array([p.gain_db for p in mask])
        y = filtered(x, lambda freqs: 10.0 ** (np.interp(freqs, f, g) / 20.0))
    if downconvert is None:
        return y, fs, anchor_hz
    lo = downconvert["seed_lo_hz"] * downconvert["mult"]
    if_lo, if_hi = downconvert["if_window_hz"]
    decimate = downconvert["decimate"]
    y = filtered(y, lambda freqs: (freqs - lo >= if_lo) & (freqs - lo <= if_hi))
    return y[::decimate], fs / decimate, anchor_hz - lo
