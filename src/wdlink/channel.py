"""Link physics between the transmit and receive DSP.

Everything happens at complex baseband anchored to a band center; absolute
frequency is carried as waveform metadata.  The pieces, in the order a frame
meets them: residual carrier phase from the lock, a band-shaped magnitude
mask, the D-band x6-LO downconversion window, and additive noise (in noise.py).
Magnitude masks are piecewise linear in dB over absolute frequency and can be
swapped for measured responses via CSV.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .bandplan import C_LIGHT
from .noise import PhaseTrace
from .waveform import ComplexWaveform


@dataclass(frozen=True)
class MaskPoint:
    freq_hz: float
    gain_db: float


def _mask_arrays(mask) -> tuple:
    pts = tuple(mask)
    if len(pts) < 2:
        raise ValueError("mask needs at least two points")
    f = np.array([p.freq_hz for p in pts], dtype=float)
    g = np.array([p.gain_db for p in pts], dtype=float)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        raise ValueError("mask frequencies and gains must be finite")
    if np.any(np.diff(f) <= 0):
        raise ValueError("mask frequencies must be strictly increasing")
    return f, g


def mask_gain_db(mask, freq_hz) -> np.ndarray:
    """Interpolated mask gain; constant extension beyond the end points."""
    f, g = _mask_arrays(mask)
    return np.interp(np.asarray(freq_hz, dtype=float), f, g)


def default_masks() -> tuple:
    """Built-in magnitude responses: (low band, high band).

    Low band: flat to 100 GHz, 10 dB linear roll-off across 100-110 GHz.
    High band: floor below 133 GHz, flat 133-147 GHz, 20 dB roll-off by
    150 GHz.  The 133 GHz floor edge is a near-step (two points 10 MHz apart).
    """
    w = (
        MaskPoint(75.0e9, 0.0),
        MaskPoint(100.0e9, 0.0),
        MaskPoint(110.0e9, -10.0),
    )
    d = (
        MaskPoint(110.0e9, -60.0),
        MaskPoint(132.99e9, -60.0),
        MaskPoint(133.0e9, 0.0),
        MaskPoint(147.0e9, 0.0),
        MaskPoint(150.0e9, -20.0),
    )
    return w, d


def load_mask_csv(path) -> tuple:
    """Read (freq_hz, gain_db) rows; a header row is skipped if present."""
    pts = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                pts.append(MaskPoint(float(row[0]), float(row[1])))
            except ValueError:
                if pts:
                    raise
                continue  # header line
    _mask_arrays(pts)
    return tuple(pts)


def apply_mask(w: ComplexWaveform, mask) -> ComplexWaveform:
    """Whole-frame frequency-domain multiply by the interpolated amplitude."""
    n = len(w.samples)
    freqs = np.fft.fftfreq(n, d=1.0 / w.sample_rate_hz) + w.anchor_hz
    amp = 10.0 ** (mask_gain_db(mask, freqs) / 20.0)
    out = np.fft.ifft(np.fft.fft(w.samples) * amp)
    return w.with_samples(out)


def apply_carrier(w: ComplexWaveform, residual: PhaseTrace) -> ComplexWaveform:
    """Multiply by exp(j phi(t)): the locked carrier's leftover phase wander.

    The phase trace is linearly resampled onto the waveform's sample grid and
    must span the waveform's duration.
    """
    n = len(w.samples)
    t_w = np.arange(n) / w.sample_rate_hz
    t_r = np.arange(len(residual.phases)) / residual.sample_rate_hz
    if t_r[-1] < t_w[-1]:
        raise ValueError(
            f"residual phase covers {t_r[-1]:.3e}s but waveform lasts {t_w[-1]:.3e}s"
        )
    phi = np.interp(t_w, t_r, residual.phases)
    return w.with_samples(w.samples * np.exp(1j * phi))


def check_if_window(anchor_hz: float, sample_rate_hz: float, seed_lo_hz: float,
                    mult: int, if_window_hz: tuple, decimate: int) -> None:
    """Raise ValueError unless the IF window of a seed_lo_hz x mult LO lies
    inside the span sampled at ``sample_rate_hz`` around ``anchor_hz``, and
    still fits the Nyquist span once decimated by ``decimate``."""
    lo = seed_lo_hz * mult
    if_lo, if_hi = if_window_hz
    if not if_lo < if_hi:
        raise ValueError("if_window_hz must be (low, high) with low < high")
    half = sample_rate_hz / 2.0
    if lo + if_lo < anchor_hz - half or lo + if_hi > anchor_hz + half:
        raise ValueError("IF window falls outside the waveform's sampled span")
    if decimate > 1:
        new_fs = sample_rate_hz / decimate
        if lo + if_lo - anchor_hz < -new_fs / 2 or lo + if_hi - anchor_hz > new_fs / 2:
            raise ValueError("decimation would alias the retained IF window")


def dband_downconvert(
    w: ComplexWaveform,
    seed_lo_hz: float,
    mult: int,
    if_window_hz: tuple,
    decimate: int = 1,
) -> ComplexWaveform:
    """Mix down by a multiplied LO and keep one IF window.

    The electrical LO is seed_lo_hz x mult.  Content whose IF (absolute
    frequency minus LO) falls outside if_window_hz is removed by a brick-wall
    filter; the result is re-anchored to the IF and optionally decimated
    (alias-free because of the filter; ``check_if_window`` holds the window
    rules).
    """
    if decimate < 1 or len(w.samples) % decimate:
        raise ValueError("decimate must divide the sample count")
    check_if_window(w.anchor_hz, w.sample_rate_hz, seed_lo_hz, mult, if_window_hz,
                    decimate)
    lo = seed_lo_hz * mult
    if_lo, if_hi = if_window_hz

    n = len(w.samples)
    freqs = np.fft.fftfreq(n, d=1.0 / w.sample_rate_hz) + w.anchor_hz
    keep = (freqs - lo >= if_lo) & (freqs - lo <= if_hi)
    out = np.fft.ifft(np.fft.fft(w.samples) * keep)[::decimate]
    return ComplexWaveform(samples=out, sample_rate_hz=w.sample_rate_hz / decimate,
                           anchor_hz=w.anchor_hz - lo)


def fspl_db(freq_hz: float, distance_m: float) -> float:
    """Free-space path loss, isotropic ends."""
    if freq_hz <= 0 or distance_m <= 0:
        raise ValueError("frequency and distance must be positive")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * freq_hz / C_LIGHT)
