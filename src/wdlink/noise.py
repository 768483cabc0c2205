"""Laser phase noise, beat notes, PSD estimation and AWGN injection.

Laser phase is modelled as a Wiener process: independent Gaussian increments
of variance 2*pi*linewidth/fs per sample, which produces a Lorentzian field
spectrum of FWHM equal to the linewidth and a far-wing phase PSD of
linewidth/(pi*f^2).  Everything is driven by explicit integer seeds through
numpy Generators, so any trace is bit-exact reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .waveform import ComplexWaveform, read_table, write_table

PSD_BLOCK_BYTES = 4 << 20   # bytes of spectra per Welch transform batch in estimate_psd


@dataclass(frozen=True)
class LaserSpec:
    """A laser line: label, Lorentzian linewidth, offset from the reference."""

    label: str
    linewidth_hz: float
    offset_hz: float = 0.0

    def __post_init__(self):
        if self.linewidth_hz < 0 or not math.isfinite(self.linewidth_hz):
            raise ValueError("linewidth_hz must be finite and >= 0")


@dataclass(frozen=True)
class PhaseTrace:
    """Sampled phase record in radians."""

    phases: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        p = np.asarray(self.phases, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("phases must be a 1-D array")
        object.__setattr__(self, "phases", p)

    def __len__(self):
        return len(self.phases)

    @property
    def duration_s(self) -> float:
        return len(self.phases) / self.sample_rate_hz


def gen_phase_noise(spec: LaserSpec, n_samples: int, sample_rate_hz: float, seed: int) -> PhaseTrace:
    """Wiener phase trace for one laser.

    Increment variance per sample is 2*pi*linewidth/fs; a zero-linewidth laser
    yields an all-zero trace.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    if spec.linewidth_hz == 0.0:
        return PhaseTrace(np.zeros(n_samples), sample_rate_hz)
    sigma = math.sqrt(2.0 * math.pi * spec.linewidth_hz / sample_rate_hz)
    rng = np.random.default_rng(seed)
    increments = rng.standard_normal(n_samples) * sigma
    return PhaseTrace(np.cumsum(increments), sample_rate_hz)


def beat_phase(master: LaserSpec, slave: LaserSpec, n_samples: int,
               sample_rate_hz: float, seed: int) -> PhaseTrace:
    """Phase of the beat note between a master/slave pair: slave minus master.

    The two lasers draw independent Wiener traces from child seeds split
    deterministically from ``seed``, so a locked and a free-running run with
    the same seed see the identical noise realization.  Independent traces
    add their linewidths (Lorentzian convolution), e.g. 100 Hz against
    5 kHz beats at 5.1 kHz FWHM.
    """
    s_master, s_slave = np.random.SeedSequence(seed).generate_state(2)
    beat = gen_phase_noise(slave, n_samples, sample_rate_hz, int(s_slave)).phases
    beat -= gen_phase_noise(master, n_samples, sample_rate_hz, int(s_master)).phases
    return PhaseTrace(beat, sample_rate_hz)


def psd_segment_length(sample_rate_hz: float, n_samples: int, rbw_hz: float) -> int:
    """Welch segment length that gives bins ``rbw_hz`` apart on a record of
    ``n_samples`` at ``sample_rate_hz``.  Raises ValueError when a segment
    would be shorter than 8 samples or longer than the record."""
    if rbw_hz <= 0:
        raise ValueError("rbw_hz must be positive")
    ratio = sample_rate_hz / rbw_hz
    nperseg = round(min(ratio, n_samples + 1))   # min: an infinite ratio has no round()
    if nperseg < 8:
        raise ValueError("rbw_hz too coarse: fewer than 8 samples per segment")
    if nperseg > n_samples:
        raise ValueError(f"rbw_hz {rbw_hz:g} finer than the record allows "
                         f"(need {ratio:.0f} samples, have {n_samples})")
    return nperseg


def estimate_psd(x, rbw_hz: float):
    """Power spectral density by averaged modified periodograms (Welch, 50%
    overlap, Hann window), density scaling so that sum(psd)*df recovers the
    mean-square power.

    Accepts a PhaseTrace (returns a one-sided spectrum in rad^2/Hz) or a
    ComplexWaveform (returns a two-sided spectrum centered on the anchor
    frequency).  ``rbw_hz`` sets the bin spacing; ``psd_segment_length``
    says which values the record allows.
    """
    if isinstance(x, PhaseTrace):
        data, fs, anchor, onesided = x.phases, x.sample_rate_hz, None, True
    elif isinstance(x, ComplexWaveform):
        data, fs, anchor, onesided = x.samples, x.sample_rate_hz, x.anchor_hz, False
    else:
        raise TypeError("estimate_psd expects a PhaseTrace or ComplexWaveform")
    nperseg = psd_segment_length(fs, len(data), rbw_hz)
    # periodic Hann window, 50% overlap (Welch 1967)
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    hop = nperseg - nperseg // 2
    n_seg = (len(data) - nperseg // 2) // hop
    fft = np.fft.rfft if onesided else np.fft.fft
    acc = np.zeros(nperseg // 2 + 1 if onesided else nperseg)
    segs = np.lib.stride_tricks.sliding_window_view(data, nperseg)[::hop][:n_seg]
    # transform a few MB of segments per call, but add the periodograms one
    # by one in segment order so the sum rounds as a per-segment loop would
    per_block = max(1, PSD_BLOCK_BYTES // (16 * nperseg))
    for first in range(0, n_seg, per_block):
        spec = fft(segs[first:first + per_block] * win, axis=1)
        for row in spec.real ** 2 + spec.imag ** 2:
            acc += row
    psd = acc / (n_seg * fs * np.sum(win ** 2))
    if onesided:
        # fold the negative frequencies onto the interior bins
        psd[1:-1 if nperseg % 2 == 0 else None] *= 2.0
        return np.fft.rfftfreq(nperseg, 1.0 / fs), psd
    freqs = np.fft.fftfreq(nperseg, 1.0 / fs)
    return np.fft.fftshift(freqs) + anchor, np.fft.fftshift(psd)


def write_psd_csv(path, freqs: np.ndarray, psd: np.ndarray) -> None:
    """Two-column CSV export: frequency in Hz, density in dB/Hz.

    Zero-density bins are floored at -400 dB to keep the file finite.
    """
    db = 10.0 * np.log10(np.maximum(np.asarray(psd, dtype=np.float64), 1e-40))
    write_table(path, "freq_hz,psd_db_hz\n", "{:.9e},{:.6f}\n", freqs, db)


def read_psd_csv(path):
    return tuple(read_table(path, 2).T)


def add_awgn(w: ComplexWaveform, snr_db, seed: int, occupied_bw_hz=None) -> ComplexWaveform:
    """Add complex white Gaussian noise for a target in-band SNR.

    ``occupied_bw_hz`` names the signal's occupied band; only the noise
    falling inside it counts toward the SNR, so for oversampled waveforms the
    injected total is scaled up by fs/occupied_bw.  ``None`` means the whole
    sampled band is in-band.  ``snr_db`` of None or +inf returns the waveform
    unchanged.
    """
    if snr_db is None or snr_db == float("inf"):
        return w
    if occupied_bw_hz is None:
        occupied_bw_hz = w.sample_rate_hz
    if not 0 < occupied_bw_hz <= w.sample_rate_hz:
        raise ValueError("occupied_bw_hz must lie in (0, sample_rate_hz]")
    p_sig = w.power
    if p_sig == 0.0:
        raise ValueError("cannot set an SNR on an all-zero waveform")
    p_noise = p_sig / 10.0 ** (snr_db / 10.0) * (w.sample_rate_hz / occupied_bw_hz)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(p_noise / 2.0)
    noise = scale * (rng.standard_normal(len(w)) + 1j * rng.standard_normal(len(w)))
    return w.with_samples(w.samples + noise)
