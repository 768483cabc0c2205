"""Receiver DSP: sync, demodulation, equalization, per-subcarrier metrics.

The chain reads the transmit frame layout (subcarrier comb, cyclic prefix,
active set) from the FrameRef and the subcarriers it judges (the detected
set) from ``bandplan``; it re-derives neither.  All estimates are data-aided:
taps start from the training symbols, a pilot-based common-phase rotation is
removed per payload symbol, and a refinement pass re-fits gain and phase
against the full known grid.  The refinement matters: with only 4 training
symbols and 8 pilots the tap and rotation estimates are noisy enough to bias
measured EVM by over a dB at low SNR, which would leak into every downstream
SNR figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandplan import BandPlan, detected_indices, subcarrier_centers
from .ofdm_tx import FrameRef, analyze_time, demap_qam, synth_time
from .waveform import ComplexWaveform, read_table, write_table

DEAD_TAP = 1e-6
SYNC_THRESHOLD = 0.5  # normalized correlation a frame start must reach (1.0 = perfect)
MIN_METRIC_SYMBOLS = 32  # payload symbols evm_snr needs for stable per-subcarrier metrics


class SyncError(RuntimeError):
    """No correlation peak above the detection threshold."""


def _effective_oversample(w: ComplexWaveform, plan: BandPlan) -> int:
    base = plan.spacing_hz * plan.n_subcarriers
    ratio = w.sample_rate_hz / base
    os_eff = int(round(ratio))
    if os_eff < 1 or abs(ratio - os_eff) > 1e-6:
        raise ValueError(
            f"sample rate {w.sample_rate_hz:.6g} is not an integer multiple "
            f"of the {base:.6g} Hz subcarrier grid span"
        )
    return os_eff


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) that is at least ``n``: an
    FFT at a length with large prime factors runs several times slower."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _correlate_valid(x: np.ndarray, tpl: np.ndarray) -> np.ndarray:
    """sum_k x[n + k] conj(tpl[k]) for every full overlap n, by FFT."""
    nfft = _fast_len(len(x) + len(tpl) - 1)
    num = np.fft.ifft(np.fft.fft(x, nfft) * np.conj(np.fft.fft(tpl, nfft)))
    return num[:len(x) - len(tpl) + 1]


def synchronize(w: ComplexWaveform, ref: FrameRef) -> int:
    """Start-of-frame offset via normalized cross-correlation against the
    training burst.  Raises SyncError when the best peak stays below
    SYNC_THRESHOLD."""
    os_eff = _effective_oversample(w, ref.plan)
    tpl = synth_time(ref.training_grid, os_eff, ref.cp_len_at(os_eff))
    x = w.samples
    if len(x) < len(tpl):
        raise SyncError("waveform shorter than the training burst")
    num = _correlate_valid(x, tpl)
    cs = np.concatenate([[0.0], np.cumsum(np.abs(x) ** 2)])
    window = cs[len(tpl):] - cs[: len(x) - len(tpl) + 1]
    denom = np.sqrt(np.maximum(window, 0.0)) * math.sqrt(float(np.sum(np.abs(tpl) ** 2)))
    corr = np.abs(num) / np.maximum(denom, 1e-30)
    best = int(np.argmax(corr))
    if corr[best] < SYNC_THRESHOLD:
        raise SyncError(f"best correlation {corr[best]:.3f} below threshold {SYNC_THRESHOLD}")
    return best


def demodulate(w: ComplexWaveform, ref: FrameRef, offset: int) -> np.ndarray:
    """CP removal and per-symbol DFT of the frame starting at ``offset``.

    Returns the full (training + payload, n_subcarriers) symbol grid
    including any nulled columns (they ride along as leakage noise); a
    global complex scale from transmit normalization remains on every entry
    and is absorbed downstream by the equalizer taps.
    """
    n_sc = ref.plan.n_subcarriers
    os_eff = _effective_oversample(w, ref.plan)
    cp = ref.cp_len_at(os_eff)
    end = offset + (ref.n_training + ref.n_payload) * (n_sc * os_eff + cp)
    if offset < 0 or end > len(w.samples):
        raise ValueError("frame truncated: waveform too short past the sync offset")
    return analyze_time(w.samples[offset:end], n_sc, os_eff, cp)


@dataclass(frozen=True)
class EqualizedFrame:
    """Payload symbols after tap/CPE correction, plus what was estimated."""

    symbols: np.ndarray      # (n_payload, n_subcarriers)
    taps: np.ndarray         # complex per subcarrier (refinement folded in)
    dead: np.ndarray         # True where the tap was unusable or the column nulled
    cpe_rad: np.ndarray      # removed rotation per payload symbol


def equalize(raw: np.ndarray, ref: FrameRef, cpe: bool = True) -> EqualizedFrame:
    """One complex tap per subcarrier from the training average, pilot-based
    common-phase removal per payload symbol, then a data-aided refinement
    fitting per-subcarrier gain and per-symbol phase on the whole known grid.

    ``cpe`` exists so tests can ablate the phase tracking.
    """
    n_sc = ref.plan.n_subcarriers
    if raw.shape != (ref.n_training + ref.n_payload, n_sc):
        raise ValueError("raw grid shape does not match the frame layout")
    active = ref.active_idx

    ratios = raw[: ref.n_training, active] / ref.training_grid[:, active]
    taps = np.zeros(n_sc, dtype=complex)
    taps[active] = ratios.mean(axis=0)
    dead = np.ones(n_sc, dtype=bool)
    dead[active] = np.abs(taps[active]) < DEAD_TAP

    payload = raw[ref.n_training:]
    known = ref.payload_grid
    cpe_rad = np.zeros(ref.n_payload)

    if cpe:
        # ML rotation against the tap-weighted reference: pilots on weak or
        # filtered-out subcarriers contribute in proportion to |tap|^2, so a
        # pilot that the channel killed cannot poison the estimate
        p = ref.pilot_idx
        rot = np.angle(np.sum(payload[:, p] * np.conj(taps[p] * known[:, p]), axis=1))
        payload = payload * np.exp(-1j * rot)[:, None]
        cpe_rad += rot

    eq = payload / np.where(dead, 1.0, taps)[None, :]

    live = active[~dead[active]]
    s = known[:, live]
    g = np.sum(eq[:, live] * np.conj(s), axis=0) / np.sum(np.abs(s) ** 2, axis=0)
    g = np.where(np.abs(g) < DEAD_TAP, 1.0, g)
    eq[:, live] /= g[None, :]
    taps[live] *= g
    if cpe:
        # second rotation pass, now over every known symbol; the 8-pilot
        # estimate alone leaves enough phase jitter to bias low-SNR EVM
        # measurably
        weight = np.abs(taps[live]) ** 2
        rot = np.angle(np.sum(eq[:, live] * weight * np.conj(s), axis=1))
        eq *= np.exp(-1j * rot)[:, None]
        cpe_rad += rot

    return EqualizedFrame(symbols=eq, taps=taps, dead=dead, cpe_rad=cpe_rad)


@dataclass(frozen=True)
class SubcarrierMetrics:
    """Parallel arrays over the non-null subcarriers of one band."""

    indices: np.ndarray
    freq_hz: np.ndarray
    snr_db: np.ndarray       # NaN where the subcarrier was dead
    evm_rms: np.ndarray


def evm_snr(eqf: EqualizedFrame, ref: FrameRef) -> SubcarrierMetrics:
    """Data-aided EVM against the known payload grid; snr = -20 log10(evm)."""
    if ref.n_payload < MIN_METRIC_SYMBOLS:
        raise ValueError(f"need at least {MIN_METRIC_SYMBOLS} payload symbols "
                         "for stable metrics")
    active = ref.active_idx
    known = ref.payload_grid[:, active]
    err = np.mean(np.abs(eqf.symbols[:, active] - known) ** 2, axis=0)
    p_ref = np.mean(np.abs(known) ** 2, axis=0)
    live = ~eqf.dead[active]   # a dead column may carry no reference power
    evm = np.full(len(active), np.nan)
    evm[live] = np.maximum(np.sqrt(err[live] / p_ref[live]), 1e-12)
    snr = -20.0 * np.log10(evm)
    return SubcarrierMetrics(
        indices=active,
        freq_hz=subcarrier_centers(ref.plan)[active],
        snr_db=snr,
        evm_rms=evm,
    )


def band_average_snr_db(metrics: SubcarrierMetrics, plan: BandPlan) -> float:
    """Linear-domain mean SNR over the plan's detected subcarriers that have
    a measurement."""
    snr = metrics.snr_db[np.isin(metrics.indices, detected_indices(plan))]
    snr = snr[np.isfinite(snr)]
    if len(snr) == 0:
        raise ValueError("no available subcarriers to average")
    return 10.0 * math.log10(float(np.mean(10.0 ** (snr / 10.0))))


def count_bit_errors(eqf: EqualizedFrame, ref: FrameRef) -> tuple:
    """Hard-decision bit errors over the payload, (errors, total).

    Only the plan's detected data subcarriers count: bits sent outside the
    detect window are not the receiver's to judge.
    """
    judged = np.intersect1d(ref.data_idx, detected_indices(ref.plan))
    errors = total = 0
    for i in judged[~eqf.dead[judged]]:
        hat = demap_qam(eqf.symbols[:, i], ref.bits_per_subcarrier)
        sent = ref.payload_bits[int(i)]
        errors += int(np.count_nonzero(hat != sent))
        total += len(sent)
    return errors, total


def export_constellation(eqf: EqualizedFrame, ref: FrameRef, index: int) -> np.ndarray:
    """Equalized payload points of one subcarrier, for scatter plotting."""
    if index not in ref.active_idx:
        raise ValueError(f"subcarrier {index} carries no symbols")
    if eqf.dead[index]:
        raise ValueError(f"subcarrier {index} is dead; no constellation available")
    return eqf.symbols[:, index].copy()


# ----------------------------------------------------------------------------
# CSV interchange

def write_metrics_csv(path, metrics: SubcarrierMetrics) -> None:
    write_table(path, "index,freq_hz,snr_db,evm_rms\r\n",
                "{:d},{:.6f},{:.6f},{:.9e}\r\n", metrics.indices,
                metrics.freq_hz, metrics.snr_db, metrics.evm_rms)


def read_metrics_csv(path) -> SubcarrierMetrics:
    rows = read_table(path, 4)
    return SubcarrierMetrics(
        indices=rows[:, 0].astype(int),
        freq_hz=rows[:, 1],
        snr_db=rows[:, 2],
        evm_rms=rows[:, 3],
    )


def write_constellation_csv(path, points: np.ndarray) -> None:
    write_table(path, "re,im\r\n", "{:.9e},{:.9e}\r\n", points.real, points.imag)
