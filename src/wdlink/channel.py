"""Link physics between the transmit and receive DSP.

Everything happens at complex baseband anchored to a band center; absolute
frequency is carried as waveform metadata.  The pieces, in the order a frame
meets them: residual carrier phase from the lock, a band-shaped magnitude
mask, the D-band x6-LO downconversion window, and additive noise (in noise.py).
``apply_carrier`` writes its product into a new array.  A band without a
converter then goes through ``apply_mask``; a band with one goes through
``dband_downconvert``, which applies its mask and IF window in one
transform pair, the inverse one already decimated.  Both transform the
samples they are given in place, so a frame crosses the channel in one
frame-sized buffer.  Magnitude masks are piecewise linear in dB over
absolute frequency and can be swapped for measured responses via CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandplan import C_LIGHT
from .noise import PhaseTrace
from .waveform import CHUNK, ComplexWaveform, refused_line


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
    """Read a measured response: rows of exactly two numbers, freq_hz and
    gain_db.  Lines starting with ``#`` are comments, and the first other
    line is skipped as a header if its first cell is not a number."""
    with open(path) as fh:
        lines = [(number, line) for number, line in enumerate(fh, 1)
                 if line.strip() and not line.lstrip().startswith("#")]
    try:   # a first line whose first cell is not a number is the header
        float(lines[0][1].split(",")[0] if lines else 0)
    except ValueError:
        del lines[0]
    try:
        rows = (np.loadtxt([line for _, line in lines], delimiter=",", ndmin=2)
                if lines else np.zeros((0, 2)))
    except ValueError as e:
        raise ValueError(refused_line(lines, 2, e)) from None
    if rows.shape[1] != 2:
        raise ValueError(f"expected 2 columns, found {rows.shape[1]}")
    pts = tuple(MaskPoint(f, g) for f, g in rows.tolist())
    _mask_arrays(pts)
    return pts


def _mask_amplitude(mask):
    """The linear amplitude of ``mask`` as a function of absolute
    frequency.  The mask is checked here, before any sample is touched."""
    _mask_arrays(mask)
    return lambda freqs: 10.0 ** (mask_gain_db(mask, freqs) / 20.0)


def apply_mask(w: ComplexWaveform, mask) -> ComplexWaveform:
    """Whole-frame frequency-domain multiply by the interpolated amplitude.

    Works in place: the result's samples are ``w.samples``, overwritten."""
    _filter(w.samples, w.sample_rate_hz, w.anchor_hz, _mask_amplitude(mask))
    return w


def _filter(z: np.ndarray, sample_rate_hz: float, anchor_hz: float, gain,
            decimate: int = 1) -> np.ndarray:
    """Filter the samples ``z`` of a waveform sampled at ``sample_rate_hz``
    around ``anchor_hz``: transform them in place, multiply each bin by
    ``gain`` of its absolute frequency, and transform back.  The bin
    frequencies are ``np.fft.fftfreq``'s, taken CHUNK bins at a time so
    that no full-length frequency or gain array exists.

    Returns ``z`` at ``decimate`` 1.  Otherwise it returns a new array:
    the inverse transform of the spectrum folded to ``len(z) // decimate``
    bins (the sum of its ``decimate`` slices, over ``decimate``), which is
    every ``decimate``-th sample of the full-length inverse transform."""
    np.fft.fft(z, out=z)
    n = len(z)
    step = 1.0 / (n * (1.0 / sample_rate_hz))   # fftfreq's bin spacing, rounded as it rounds
    for lo in range(0, n, CHUNK):
        k = np.arange(lo, min(lo + CHUNK, n))
        k[k >= (n + 1) // 2] -= n
        z[lo:lo + len(k)] *= gain(k * step + anchor_hz)
    if decimate > 1:
        z = z.reshape(decimate, n // decimate).sum(axis=0)
        z /= decimate
    np.fft.ifft(z, out=z)
    return z


def apply_carrier(w: ComplexWaveform, residual: PhaseTrace) -> ComplexWaveform:
    """Multiply by exp(j phi(t)): the locked carrier's leftover phase wander.

    The phase trace is linearly resampled onto the waveform's sample grid,
    CHUNK samples at a time, and must span the waveform's duration.  The
    product is a new array.
    """
    n = len(w.samples)
    t_r = np.arange(len(residual.phases)) / residual.sample_rate_hz
    if t_r[-1] < (n - 1) / w.sample_rate_hz:
        raise ValueError(f"residual phase covers {t_r[-1]:.3e}s but waveform "
                         f"lasts {(n - 1) / w.sample_rate_hz:.3e}s")
    z = np.empty(n, dtype=complex)
    for lo in range(0, n, CHUNK):
        t_w = np.arange(lo, min(lo + CHUNK, n)) / w.sample_rate_hz
        z[lo:lo + len(t_w)] = 1j * np.interp(t_w, t_r, residual.phases)
    np.exp(z, out=z)
    # the phasor is the left operand: complex products round differently
    # with the operands swapped
    z *= w.samples
    return w.with_samples(z)


def check_if_window(anchor_hz: float, sample_rate_hz: float, seed_lo_hz: float,
                    mult: int, if_window_hz: tuple, decimate: int) -> None:
    """Raise ValueError unless seed_lo_hz > 0, mult >= 1, and the IF window
    (low, high), 0 <= low < high, of the seed_lo_hz x mult LO lies inside the
    span sampled at ``sample_rate_hz`` around ``anchor_hz``, and still fits
    the Nyquist span once decimated by ``decimate``."""
    if not (seed_lo_hz > 0 and mult >= 1):
        raise ValueError("seed_lo_hz must be positive and mult at least 1")
    lo = seed_lo_hz * mult
    if_lo, if_hi = if_window_hz
    if not 0 <= if_lo < if_hi:
        raise ValueError("if_window_hz must be (low, high) with 0 <= low < high")
    half = sample_rate_hz / 2.0
    if lo + if_lo < anchor_hz - half or lo + if_hi > anchor_hz + half:
        raise ValueError("IF window falls outside the waveform's sampled span")
    if decimate > 1:
        new_fs = sample_rate_hz / decimate
        if lo + if_lo - anchor_hz < -new_fs / 2 or lo + if_hi - anchor_hz > new_fs / 2:
            raise ValueError("decimation would alias the retained IF window")


def dband_downconvert(
    w: ComplexWaveform,
    mask,
    seed_lo_hz: float,
    mult: int,
    if_window_hz: tuple,
    decimate: int = 1,
) -> ComplexWaveform:
    """Shape by the band's ``mask``, mix down by a multiplied LO and keep
    one IF window, in one transform pair.

    The electrical LO is seed_lo_hz x mult.  Each bin is multiplied by the
    mask's amplitude and by a brick wall that removes content whose IF
    (absolute frequency minus LO) falls outside if_window_hz; the result is
    re-anchored to the IF and optionally decimated (alias-free because of
    the brick wall; ``check_if_window`` holds the window rules).  The mask
    and the other arguments are checked before ``w`` is touched; then the
    forward transform works in place on ``w.samples``.  Undecimated, the
    result's samples are ``w.samples``, overwritten; decimated, they are a
    new array of every ``decimate``-th sample, from an inverse transform of
    that length (``_filter``), so they pin no full-rate buffer.
    """
    amplitude = _mask_amplitude(mask)
    if decimate < 1 or len(w.samples) % decimate:
        raise ValueError("decimate must divide the sample count")
    check_if_window(w.anchor_hz, w.sample_rate_hz, seed_lo_hz, mult, if_window_hz,
                    decimate)
    lo = seed_lo_hz * mult
    if_lo, if_hi = if_window_hz
    samples = _filter(
        w.samples, w.sample_rate_hz, w.anchor_hz,
        lambda freqs: amplitude(freqs) * ((freqs - lo >= if_lo) & (freqs - lo <= if_hi)),
        decimate)
    return ComplexWaveform(samples=samples, sample_rate_hz=w.sample_rate_hz / decimate,
                           anchor_hz=w.anchor_hz - lo)


def fspl_db(freq_hz: float, distance_m: float) -> float:
    """Free-space path loss, isotropic ends."""
    if freq_hz <= 0 or distance_m <= 0:
        raise ValueError("frequency and distance must be positive")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * freq_hz / C_LIGHT)
