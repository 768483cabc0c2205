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

from .waveform import CHUNK, PSD_CSV, ComplexWaveform, read_table, write_table

PSD_BLOCK_BYTES = 1 << 20   # bytes of spectra per Welch transform batch
BEAT_CHUNK = 1 << 14        # samples per drawn chunk of a Wiener trace
RX_HEADROOM_DB = 60.0       # least margin of the AWGN rms under float32's range (snr_ratio)


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


def _wiener_chunks(spec: LaserSpec, n_samples: int, sample_rate_hz: float, seed: int):
    """One laser's Wiener phase trace, BEAT_CHUNK samples at a time.

    Increment variance per sample is 2*pi*linewidth/fs; a zero-linewidth
    laser yields an all-zero trace.

    Each chunk's increments are drawn from the one seeded generator, and the
    trace so far is added to the chunk's first increment before its cumsum,
    so the chunks concatenate to the trace a single draw and cumsum give.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    sigma = math.sqrt(2.0 * math.pi * spec.linewidth_hz / sample_rate_hz)
    rng = np.random.default_rng(seed)
    carry = 0.0
    for start in range(0, n_samples, BEAT_CHUNK):
        m = min(BEAT_CHUNK, n_samples - start)
        if spec.linewidth_hz == 0.0:
            yield np.zeros(m)
            continue
        trace = rng.standard_normal(m) * sigma
        if start:
            trace[0] += carry
        np.cumsum(trace, out=trace)
        carry = trace[-1]
        yield trace


def beat_chunks(master: LaserSpec, slave: LaserSpec, n_samples: int,
                sample_rate_hz: float, seed: int):
    """Phase of the beat note between a master/slave pair, slave minus
    master, BEAT_CHUNK samples at a time.

    The two lasers draw independent Wiener traces from child seeds split
    deterministically from ``seed``, so a locked and a free-running run with
    the same seed see the identical noise realization.  Independent traces
    add their linewidths (Lorentzian convolution), e.g. 100 Hz against
    5 kHz beats at 5.1 kHz FWHM.
    """
    s_master, s_slave = np.random.SeedSequence(seed).generate_state(2)
    for beat, ref in zip(_wiener_chunks(slave, n_samples, sample_rate_hz, int(s_slave)),
                         _wiener_chunks(master, n_samples, sample_rate_hz, int(s_master))):
        beat -= ref
        yield beat


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


class Welch:
    """Power spectral density by averaged modified periodograms (Welch
    1967: periodic Hann window, 50% overlap), fed an ``n_samples`` record
    block by block in order, of any block sizes.

    Each whole segment is transformed as soon as its samples have arrived,
    and the periodograms are added one by one in segment order, so the
    estimate does not depend on how the record was split.  ``anchor_hz``
    None takes a real record and gives a one-sided spectrum; otherwise the
    record is complex and the spectrum two-sided, centered on the anchor.
    ``rbw_hz`` sets the bin spacing (``psd_segment_length``).
    """

    def __init__(self, n_samples: int, sample_rate_hz: float, rbw_hz: float,
                 anchor_hz: float | None = None):
        self.n_samples, self.fs, self.anchor = n_samples, sample_rate_hz, anchor_hz
        self.nperseg = psd_segment_length(sample_rate_hz, n_samples, rbw_hz)
        self.win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(self.nperseg) / self.nperseg)
        self.hop = self.nperseg - self.nperseg // 2
        self.n_seg = (n_samples - self.nperseg // 2) // self.hop
        self.acc = np.zeros(self.nperseg // 2 + 1 if anchor_hz is None else self.nperseg)
        self.done = 0         # segments added so far
        self.fed = 0          # samples fed so far
        self._rest = np.empty(0)   # fed samples from the next segment's start on

    def feed(self, block: np.ndarray) -> None:
        """Add the record's next samples; the block is not kept."""
        self.fed += len(block)
        data = np.concatenate((self._rest, block)) if len(self._rest) else block
        nperseg, hop = self.nperseg, self.hop
        n_new = min(max(0, (len(data) - nperseg) // hop + 1), self.n_seg - self.done)
        if n_new:
            segs = np.lib.stride_tricks.sliding_window_view(data, nperseg)[::hop][:n_new]
            fft = np.fft.rfft if self.anchor is None else np.fft.fft
            # transform PSD_BLOCK_BYTES of spectra per call, but add the
            # periodograms one by one in segment order so the sum rounds as a
            # per-segment loop would
            per_block = max(1, PSD_BLOCK_BYTES // (16 * nperseg))
            for first in range(0, n_new, per_block):
                spec = fft(segs[first:first + per_block] * self.win, axis=1)
                for row in spec.real ** 2 + spec.imag ** 2:
                    self.acc += row
            self.done += n_new
        self._rest = data[n_new * hop:].copy()

    def result(self) -> tuple:
        """(frequencies, density) of the whole record; density scaling, so
        that sum(psd)*df recovers the mean-square power."""
        if self.fed != self.n_samples:
            raise ValueError(f"fed {self.fed} of the record's {self.n_samples} samples")
        psd = self.acc / (self.n_seg * self.fs * np.sum(self.win ** 2))
        if self.anchor is None:
            # fold the negative frequencies onto the interior bins
            psd[1:-1 if self.nperseg % 2 == 0 else None] *= 2.0
            return np.fft.rfftfreq(self.nperseg, 1.0 / self.fs), psd
        freqs = np.fft.fftfreq(self.nperseg, 1.0 / self.fs)
        return np.fft.fftshift(freqs) + self.anchor, np.fft.fftshift(psd)


def estimate_psd(x, rbw_hz: float):
    """Welch PSD of a whole record: a ``Welch`` estimate fed once.

    Accepts a PhaseTrace (returns a one-sided spectrum in rad^2/Hz) or a
    ComplexWaveform (returns a two-sided spectrum centered on the anchor
    frequency).  ``rbw_hz`` sets the bin spacing; ``psd_segment_length``
    says which values the record allows.
    """
    if isinstance(x, PhaseTrace):
        data, anchor = x.phases, None
    elif isinstance(x, ComplexWaveform):
        data, anchor = x.samples, x.anchor_hz
    else:
        raise TypeError("estimate_psd expects a PhaseTrace or ComplexWaveform")
    psd = Welch(len(data), x.sample_rate_hz, rbw_hz, anchor_hz=anchor)
    psd.feed(data)
    return psd.result()


def write_psd_csv(path, freqs: np.ndarray, psd: np.ndarray) -> None:
    """Two-column CSV export: frequency in Hz, density in dB/Hz.

    Zero-density bins are floored at -400 dB to keep the file finite.
    """
    db = 10.0 * np.log10(np.maximum(np.asarray(psd, dtype=np.float64), 1e-40))
    write_table(path, PSD_CSV, freqs, db)


def read_psd_csv(path):
    """Read a PSD artifact (``psd_*.csv``, as ``write_psd_csv`` writes it)
    back as its two columns, (freq_hz, psd_db_hz)."""
    return tuple(read_table(path, PSD_CSV).T)


def snr_ratio(snr_db: float, bandwidth_ratio: float) -> float:
    """The power ratio 10^(snr_db/10) of ``add_awgn`` on a record sampled at
    ``bandwidth_ratio`` times its occupied band.  Raises ValueError unless it
    is a finite, nonzero float, which ``add_awgn`` divides by, and unless
    the noise it sets fits the float32 samples of rx.iq.

    That floor: on a record of power p, add_awgn draws each of I and Q
    with rms sigma = sqrt(p * bandwidth_ratio / (2 * ratio)), and
    ``waveform.write_iq`` stores them as float32, which turns a value past
    F = np.finfo(np.float32).max into inf.  A frame is unit rms
    (``ofdm_tx.build_frame``) and the chain after it is passive, so p is
    about 1.  Keeping sigma RX_HEADROOM_DB under F,
    20*log10(F / sigma) >= RX_HEADROOM_DB, gives
    snr_db >= 10*log10(bandwidth_ratio / 2) - 20*log10(F) + RX_HEADROOM_DB,
    about -714 dB at bandwidth_ratio 1."""
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"an SNR of {snr_db:g} dB is no finite, nonzero power ratio")
    floor_db = (10.0 * math.log10(bandwidth_ratio / 2.0)
                - 20.0 * math.log10(float(np.finfo(np.float32).max)) + RX_HEADROOM_DB)
    if snr_db < floor_db:
        raise ValueError(f"an SNR of {snr_db:g} dB is below the {floor_db:.1f} dB floor "
                         "past which its noise overflows float32 I/Q samples")
    return ratio


def add_awgn(w: ComplexWaveform, snr_db: float, seed: int, occupied_bw_hz=None) -> ComplexWaveform:
    """Add complex white Gaussian noise for a target in-band SNR.

    ``occupied_bw_hz`` names the signal's occupied band; only the noise
    falling inside it counts toward the SNR, so for oversampled waveforms the
    injected total is scaled up by fs/occupied_bw.  ``None`` means the whole
    sampled band is in-band.  ``snr_db`` of +inf returns the waveform
    unchanged.
    """
    if snr_db == math.inf:
        return w
    if occupied_bw_hz is None:
        occupied_bw_hz = w.sample_rate_hz
    if not 0 < occupied_bw_hz <= w.sample_rate_hz:
        raise ValueError("occupied_bw_hz must lie in (0, sample_rate_hz]")
    p_sig = w.power
    if p_sig == 0.0:
        raise ValueError("cannot set an SNR on an all-zero waveform")
    excess = w.sample_rate_hz / occupied_bw_hz
    p_noise = p_sig / snr_ratio(snr_db, excess) * excess
    rng = np.random.default_rng(seed)
    scale = math.sqrt(p_noise / 2.0)
    # scale * (real + 1j * imag) + signal, built in the noise's own buffer;
    # every real part is drawn before the imaginary parts, CHUNK at a time,
    # which gives the numbers of one whole-record draw each
    noise = np.empty(len(w), dtype=complex)
    for part in (noise.real, noise.imag):
        for lo in range(0, len(w), CHUNK):
            part[lo:lo + CHUNK] = rng.standard_normal(min(CHUNK, len(w) - lo))
    noise *= scale
    noise += w.samples
    return w.with_samples(noise)
