"""Receiver DSP: sync, demodulation, equalization, per-subcarrier metrics.

Sync is one direct normalized correlation with the training burst, at the
offsets where a whole frame fits in the record (``synchronize``).  The
chain reads the transmit frame layout (subcarrier comb, cyclic prefix,
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

from .bandplan import BandPlan, active_indices, detected_indices, subcarrier_centers
from .ofdm_tx import (_DATA_BASE, CONSTELLATIONS, DECIDE_CHUNK, FrameRef, analyze_time,
                      cp_length, frame_samples, qam_decisions, synth_time)
from .waveform import (CONSTELLATION_CSV, METRICS_CSV, ComplexWaveform, read_table,
                       sample_power, write_table)

DEAD_TAP = 1e-6
SYNC_THRESHOLD = 0.5  # normalized correlation a frame start must reach (1.0 = perfect)
MIN_METRIC_SYMBOLS = 32  # payload symbols evm_snr needs for stable per-subcarrier metrics
SAFE_MARGIN = 1e-9       # relative margin of safe_radius under half the minimum distance


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


def _normalized_correlation(x: np.ndarray, tpl: np.ndarray) -> np.ndarray:
    """|c[n]| / (||x[n:n + m]|| ||tpl||) at every full-overlap lag n, with
    c[n] = sum_k x[n + k] conj(tpl[k]) and m = len(tpl) <= len(x); 0 where
    the record under the template is silent.  Both sums are direct, so the
    cost grows with the lags times m."""
    corr = np.abs(np.correlate(x, tpl, "valid"))
    # divide by the record's energy under the template at each lag and the
    # template's own
    denom = np.correlate(sample_power(x), np.ones(len(tpl)), "valid")
    np.sqrt(denom, out=denom)
    denom *= math.sqrt(float(np.sum(np.abs(tpl) ** 2)))
    np.maximum(denom, 1e-30, out=denom)
    corr /= denom
    return corr


def synchronize(w: ComplexWaveform, ref: FrameRef) -> int:
    """Start-of-frame offset via normalized cross-correlation against the
    training burst, searched over the offsets at which a whole frame fits
    in the record.  The correlation is a direct sum, so its cost grows
    with the lags searched times the template length; a run's record is
    one frame long and searches a single lag.
    Raises SyncError when no frame fits, or when the best peak stays below
    SYNC_THRESHOLD."""
    os_eff = _effective_oversample(w, ref.plan)
    tpl = synth_time(ref.training_grid, os_eff, cp_length(ref.plan, ref.tx, os_eff))
    n_lags = len(w.samples) - frame_samples(ref.plan, ref.tx, os_eff) + 1
    if n_lags < 1:
        raise SyncError("waveform shorter than one frame")
    # what the template meets at those lags
    corr = _normalized_correlation(w.samples[:n_lags + len(tpl) - 1], tpl)
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
    cp = cp_length(ref.plan, ref.tx, os_eff)
    end = offset + frame_samples(ref.plan, ref.tx, os_eff)
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
    n_train = ref.tx.n_training
    if raw.shape != (n_train + ref.tx.n_symbols, n_sc):
        raise ValueError("raw grid shape does not match the frame layout")
    active = ref.active_idx

    ratios = raw[:n_train, active] / ref.training_grid[:, active]
    taps = np.zeros(n_sc, dtype=complex)
    taps[active] = ratios.mean(axis=0)
    dead = np.ones(n_sc, dtype=bool)
    dead[active] = np.abs(taps[active]) < DEAD_TAP

    payload = raw[n_train:]
    known = ref.payload_grid
    cpe_rad = np.zeros(len(payload))
    divisor = np.where(dead, 1.0, taps)[None, :]

    # the first rotation or division makes ``eq``; every later one works on
    # it in place, and ``raw`` is never written
    if cpe:
        # ML rotation against the tap-weighted reference: pilots on weak or
        # filtered-out subcarriers contribute in proportion to |tap|^2, so a
        # pilot that the channel killed cannot poison the estimate
        p = ref.pilot_idx
        rot = np.angle(np.sum(payload[:, p] * np.conj(taps[p] * known[:, p]), axis=1))
        eq = payload * np.exp(-1j * rot)[:, None]
        eq /= divisor
        cpe_rad += rot
    else:
        eq = payload / divisor

    live = active[~dead[active]]
    s = known[:, live]
    g = np.sum(eq[:, live] * np.conj(s), axis=0) / np.sum(np.abs(s) ** 2, axis=0)
    g = np.where(np.abs(g) < DEAD_TAP, 1.0, g)
    gain = np.ones(n_sc, dtype=complex)
    gain[live] = g
    np.divide(eq, gain, out=eq, where=~dead)   # the live columns
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


def check_metric_symbols(n_payload: int) -> None:
    """Raise ValueError when ``n_payload`` symbols are too few for ``evm_snr``."""
    if n_payload < MIN_METRIC_SYMBOLS:
        raise ValueError(f"need at least {MIN_METRIC_SYMBOLS} payload symbols "
                         "for stable metrics")


def evm_snr(eqf: EqualizedFrame, ref: FrameRef) -> SubcarrierMetrics:
    """Data-aided EVM against the known payload grid; snr = -20 log10(evm)."""
    check_metric_symbols(ref.tx.n_symbols)
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


def safe_radius(order_bits: int) -> float:
    """Half the minimum distance of the order's constellation, less a
    relative SAFE_MARGIN: a symbol nearer than this to a constellation
    point decides to that point, with a margin far above rounding."""
    table = CONSTELLATIONS[order_bits]
    d = np.abs(table[:, None] - table[None, :])
    np.fill_diagonal(d, np.inf)
    return float(np.min(d)) / 2.0 * (1.0 - SAFE_MARGIN)


def judged_indices(plan: BandPlan, pilot_idx: np.ndarray) -> np.ndarray:
    """The data subcarriers inside the plan's detect window, ascending: the
    ones whose bits the receiver judges and whose constellation a run
    shows.  Raises ValueError when the window holds only pilots."""
    detected = detected_indices(plan)
    # np.isin, not np.setdiff1d, whose first call imports numpy.ma: the
    # scenario loader calls this
    judged = detected[~np.isin(detected, pilot_idx)]
    if not len(judged):
        lo, hi = plan.detect_window_hz
        raise ValueError(f"detect window [{lo:.9g}, {hi:.9g}] Hz holds no data "
                         "subcarrier, only pilots")
    return judged


def count_bit_errors(eqf: EqualizedFrame, ref: FrameRef) -> tuple:
    """Hard-decision bit errors over the payload, (errors, total).

    Only the plan's detected data subcarriers count: bits sent outside the
    detect window are not the receiver's to judge.  A symbol within
    ``safe_radius`` of the point it was sent as decides to that point, so
    only the others are decided (``qam_decisions``); each error is a bit
    in which a decided label differs from the sent one, so the count is
    that of demapping every symbol.
    """
    order = ref.tx.bits_per_subcarrier
    table, radius = CONSTELLATIONS[order], safe_radius(order)
    judged = judged_indices(ref.plan, ref.pilot_idx)
    live = judged[~eqf.dead[judged]]
    sent_grid = ref.symbols[ref.tx.n_training:]
    # a step's payload columns hold at most DECIDE_CHUNK symbols
    step = max(1, DECIDE_CHUNK // len(sent_grid))
    errors = 0
    for lo in range(0, len(live), step):
        cols = live[lo:lo + step]
        y = eqf.symbols[:, cols]
        sent = sent_grid[:, cols] - _DATA_BASE
        doubtful = ~(np.abs(y - table[sent]) < radius)   # NaN included
        wrong = qam_decisions(y[doubtful], order) ^ sent[doubtful]
        errors += int(np.sum(np.bitwise_count(wrong)))
    return errors, len(sent_grid) * len(live) * order


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
    write_table(path, METRICS_CSV, metrics.indices, metrics.freq_hz, metrics.snr_db,
                metrics.evm_rms)


def read_metrics_csv(path, plan: BandPlan) -> SubcarrierMetrics:
    """Read a metrics table back as a profile of ``plan``'s subcarriers.
    Refuses, naming the file, an index that is not one of them or that
    repeats: the profile would otherwise be priced on the wrong subcarriers,
    or one of two rows silently dropped."""
    rows = read_table(path, METRICS_CSV)
    col = rows[:, 0]
    outside = col[~((col >= 0) & (col < plan.n_subcarriers) & (col == np.floor(col)))]
    if len(outside):
        raise ValueError(f"{path}: index {outside[0]:g} not in "
                         f"0..{plan.n_subcarriers - 1}")
    values, counts = np.unique(col, return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"{path}: index {values[counts > 1][0]:g} repeated")
    return SubcarrierMetrics(
        indices=col.astype(int),
        freq_hz=rows[:, 1],
        snr_db=rows[:, 2],
        evm_rms=rows[:, 3],
    )


def check_centers(path, metrics: SubcarrierMetrics, plan: BandPlan) -> None:
    """Refuse a run's metrics read back from ``path`` whose ``freq_hz`` is
    not ``plan``'s center of each row's index as ``write_metrics_csv``
    prints it: the rows were moved, or the run had another plan."""
    centers = subcarrier_centers(plan)[metrics.indices]
    for index, got, want in zip(metrics.indices, metrics.freq_hz, centers):
        if f"{got:.6f}" != f"{want:.6f}":
            raise ValueError(f"{path}: index {index} at freq_hz {got:.6f}, "
                             f"not its center {want:.6f}")


def check_coverage(path, metrics: SubcarrierMetrics, plan: BandPlan) -> None:
    """Refuse a run's metrics read back from ``path`` (by
    ``read_metrics_csv``) whose indices are not exactly ``plan``'s active
    subcarriers, the rows ``evm_snr`` writes: a table cut short would be
    averaged and priced on the rows left."""
    want = np.zeros(plan.n_subcarriers, dtype=bool)
    want[active_indices(plan)] = True
    have = np.zeros_like(want)
    have[metrics.indices] = True
    wrong = np.flatnonzero(want != have)
    if len(wrong):
        i = wrong[0]
        raise ValueError(f"{path}: no row for active subcarrier {i}" if want[i]
                         else f"{path}: index {i} is a null subcarrier")


def write_constellation_csv(path, points: np.ndarray) -> None:
    write_table(path, CONSTELLATION_CSV, points.real, points.imag)
