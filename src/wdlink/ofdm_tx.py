"""OFDM frame synthesis: PRBS source, QAM mapping, IDFT framing, clipping.

Bit-to-symbol conventions (fixed so golden vectors stay stable):

* Bit groups are read MSB first.
* PAM axes use reflected Gray coding; for 4 levels the group maps
  00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3, and the 8-level axis extends the
  same reflected pattern to {-7 ... +7}.
* Square orders split the group half/half onto I then Q (16QAM: b0 b1 -> I,
  b2 b3 -> Q).  BPSK maps 0 -> -1, 1 -> +1 on the real axis; QPSK is one
  Gray bit per axis.
* 8QAM is the rectangular 4 x 2 grid: first two bits pick the 4-PAM I level,
  the last bit picks Q = -1/+1.  Every nearest-neighbour step is one bit.
* 32QAM is the 6 x 6 cross (corners removed) labelled by expanding a Gray
  16QAM: the MSB selects inner square vs outer ring, outer points inherit
  the label of the inner point they sit beside, and the four leftover ring
  positions take the four unused inner-interior labels.  52 nearest-
  neighbour pairs, total Hamming weight 60 (perfect Gray does not exist on
  a cross).
* All constellations are normalized to unit mean symbol energy.

The subcarrier grid is half-integer: subcarrier i of n sits at offset
(i - (n-1)/2) * spacing from the band center, so an extra half-bin phase
ramp accompanies the IDFT and the grid tiles the band exactly edge to edge.

This module owns the frame layout: the subcarrier-to-bin comb and its
half-bin ramp (``synth_time`` and its inverse ``analyze_time``) and the
frame's cyclic prefix and length at any sample rate (``cp_length``,
``frame_samples``); the ``FrameRef`` carries its ``TxConfig`` (``tx``) and
``bandplan``'s active set (``active_idx``).  The receiver reads all of it
from the ``FrameRef`` and decides none of it itself.

The ``FrameRef`` keeps the sent frame as one uint8 label per grid cell
(``symbols``) into a per-frame ``alphabet`` of at most 69 points, not as a
complex grid: the complex grid and the payload bits are derived from the
labels when the receiver asks for them, after the channel.  The grid
itself exists in ``build_frame`` only for ``synth_time``.  The transmit
stage's other frame-sized work (``clip``'s magnitudes, ``write_iq``'s
float32 conversion) runs ``CHUNK`` samples at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandplan import BandPlan, active_indices
from .waveform import CHUNK, ComplexWaveform, power_stats

# ============================================================================
# PRBS
# ============================================================================

# feedback taps per register length, e.g. x^17 + x^14 + 1 for order 17
PRBS_TAPS = {7: (7, 6), 9: (9, 5), 15: (15, 14), 17: (17, 14), 23: (23, 18), 31: (31, 28)}


def check_prbs_register(order: int, seed_state: int) -> None:
    """Raise ValueError unless ``order`` is one of ``PRBS_TAPS`` and
    ``seed_state`` is a nonzero state of its ``order``-bit register."""
    if order not in PRBS_TAPS:
        raise ValueError(f"unsupported PRBS order {order}")
    if not 0 < seed_state < 1 << order:
        raise ValueError(f"PRBS seed_state must be a nonzero {order}-bit register "
                         f"state, got {seed_state}")


def gen_prbs(n_bits: int, order: int, seed_state: int) -> np.ndarray:
    """Maximal-length LFSR bit sequence as uint8 array.

    The first ``order`` output bits are the seed register read LSB first;
    afterwards b[n] = b[n - order] xor b[n - k] with (order, k) the feedback
    taps.  A nonzero seed gives period 2**order - 1.

    Over GF(2) the feedback polynomial squares to itself in x**2, so the
    same sequence also obeys b[n] = b[n - 2**j*order] xor b[n - 2**j*k] once
    n >= 2**j*order (Golomb, *Shift Register Sequences*).  The lags double
    as soon as they are valid, and each step fills a span as long as the
    smaller lag, so a long sequence takes only a few dozen slice xors.
    """
    if n_bits <= 0:
        raise ValueError("n_bits must be positive")
    check_prbs_register(order, seed_state)
    lag_a, lag_b = PRBS_TAPS[order]
    out = np.empty(max(n_bits, order), dtype=np.uint8)
    for j in range(order):
        out[j] = (seed_state >> j) & 1
    n = order
    total = len(out)
    while n < total:
        if n >= 2 * lag_a:
            lag_a, lag_b = 2 * lag_a, 2 * lag_b
        span = min(lag_b, total - n)
        out[n:n + span] = out[n - lag_a:n - lag_a + span] ^ out[n - lag_b:n - lag_b + span]
        n += span
    return out[:n_bits]


# ============================================================================
# QAM tables
# ============================================================================

def _gray_pam_levels(n_bits_axis: int) -> np.ndarray:
    """Axis levels indexed by the Gray bit group (MSB first)."""
    L = 1 << n_bits_axis
    levels = np.empty(L)
    for v in range(L):
        levels[v ^ (v >> 1)] = 2 * v - (L - 1)
    return levels


# 32-cross: label value (bits MSB first) -> (I, Q) odd levels; see module docstring
_CROSS32_POINTS = [
    (-3, -3), (-3, -1), (-3, +3), (-3, +1), (-1, -3), (-1, -1), (-1, +3), (-1, +1),
    (+3, -3), (+3, -1), (+3, +3), (+3, +1), (+1, -3), (+1, -1), (+1, +3), (+1, +1),
    (-5, -3), (-5, -1), (-5, +3), (-5, +1), (-1, -5), (-3, -5), (-1, +5), (-3, +5),
    (+5, -3), (+5, -1), (+5, +3), (+5, +1), (+1, -5), (+3, -5), (+1, +5), (+3, +5),
]


def _build_constellations() -> dict:
    tables = {}
    tables[1] = np.array([-1.0 + 0j, 1.0 + 0j])
    pam1 = _gray_pam_levels(1)
    pam2 = _gray_pam_levels(2)
    pam3 = _gray_pam_levels(3)

    def square(i_levels, q_levels):
        ni, nq = len(i_levels), len(q_levels)
        pts = np.empty(ni * nq, dtype=complex)
        bits_q = int(math.log2(nq))
        for label in range(ni * nq):
            pts[label] = i_levels[label >> bits_q] + 1j * q_levels[label & (nq - 1)]
        return pts / math.sqrt(np.mean(np.abs(pts) ** 2))

    tables[2] = square(pam1, pam1)
    tables[3] = square(pam2, pam1)   # rectangular 8QAM
    tables[4] = square(pam2, pam2)
    tables[6] = square(pam3, pam3)
    cross = np.array([x + 1j * y for x, y in _CROSS32_POINTS])
    tables[5] = cross / math.sqrt(np.mean(np.abs(cross) ** 2))  # mean energy 20
    return tables


CONSTELLATIONS = _build_constellations()
SUPPORTED_ORDERS = tuple(sorted(CONSTELLATIONS))
DECIDE_CHUNK = 1 << 16   # most symbols qam_decisions measures against the table at once


def qam_labels(bits: np.ndarray, order_bits: int) -> np.ndarray:
    """Constellation labels (uint8) of a bit array (length divisible by
    order_bits), each group of order_bits bits read MSB first."""
    if order_bits not in CONSTELLATIONS:
        raise ValueError(f"unsupported order_bits {order_bits}")
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1 or len(bits) % order_bits:
        raise ValueError("bits must be 1-D with length divisible by order_bits")
    groups = bits.reshape(-1, order_bits)
    labels = np.zeros(len(groups), dtype=np.uint8)
    for b in range(order_bits):
        labels <<= 1
        labels |= groups[:, b]
    return labels


def map_qam(bits: np.ndarray, order_bits: int) -> np.ndarray:
    """Gray-map a bit array (length divisible by order_bits) to unit-energy
    QAM symbols: ``qam_labels`` looked up in the order's constellation."""
    labels = qam_labels(bits, order_bits)
    return CONSTELLATIONS[order_bits][labels]


def qam_decisions(symbols: np.ndarray, order_bits: int) -> np.ndarray:
    """Minimum-distance hard decisions: the label (int64) of each symbol's
    nearest point of the order's constellation; a NaN symbol decides to
    label 0."""
    if order_bits not in CONSTELLATIONS:
        raise ValueError(f"unsupported order_bits {order_bits}")
    table = CONSTELLATIONS[order_bits]
    symbols = np.asarray(symbols, dtype=complex).ravel()
    labels = np.empty(len(symbols), dtype=np.int64)
    for start in range(0, len(symbols), DECIDE_CHUNK):
        seg = symbols[start:start + DECIDE_CHUNK]
        d2 = np.abs(seg[:, None] - table[None, :]) ** 2
        labels[start:start + len(seg)] = np.argmin(d2, axis=1)
    return labels


def demap_qam(symbols: np.ndarray, order_bits: int) -> np.ndarray:
    """Minimum-distance hard decisions back to bits (MSB first)."""
    labels = qam_decisions(symbols, order_bits)
    bits = np.empty((len(labels), order_bits), dtype=np.uint8)
    for b in range(order_bits):
        bits[:, order_bits - 1 - b] = (labels >> b) & 1
    return bits.ravel()


# ============================================================================
# Frame synthesis
# ============================================================================

@dataclass(frozen=True)
class TxConfig:
    """Transmit-side knobs.  ``bits_per_subcarrier`` is the one QAM order
    (bits per symbol, one of ``SUPPORTED_ORDERS``) every data subcarrier of
    the frame carries."""

    bits_per_subcarrier: int
    n_symbols: int
    n_training: int
    n_pilots: int
    cp_fraction: float
    clip_ratio_db: float
    oversample: int
    prbs_order: int
    prbs_seed_state: int

    def __post_init__(self):
        if self.n_symbols < 1 or self.n_training < 1:
            raise ValueError("need at least one payload and one training symbol")
        if not 0 <= self.cp_fraction < 0.5:
            raise ValueError("cp_fraction must be in [0, 0.5)")
        if self.oversample < 1:
            raise ValueError("oversample must be >= 1")
        clip_gain(self.clip_ratio_db)
        if type(self.bits_per_subcarrier) is not int or (
                self.bits_per_subcarrier not in SUPPORTED_ORDERS):
            raise ValueError(f"bits_per_subcarrier must be one of {list(SUPPORTED_ORDERS)}, "
                             f"got {self.bits_per_subcarrier!r}")
        check_prbs_register(self.prbs_order, self.prbs_seed_state)


# label offsets in a frame's alphabet: 0 is the null, then the QPSK points
# of training and pilots, then the data order's points
_QPSK_BASE = 1
_DATA_BASE = _QPSK_BASE + len(CONSTELLATIONS[2])


@dataclass(frozen=True)
class FrameRef:
    """Everything the receiver needs to judge a frame it already knows.

    ``plan`` and ``tx`` are what ``build_frame`` was given: the frame's
    shape at a sample rate is ``cp_length`` and ``frame_samples`` of them.
    The sent grid is kept as labels: ``symbols`` holds one uint8 per cell
    of the (tx.n_training + tx.n_symbols, n_subcarriers) grid, an index into
    ``alphabet`` (0 at nulls, 1-4 the QPSK points of training and pilots,
    then the data order's points from ``_DATA_BASE``).  ``grid``, its two
    parts and ``payload_bits`` are derived from the labels on each access,
    so a caller takes each once."""

    plan: BandPlan
    tx: TxConfig
    pilot_idx: np.ndarray
    data_idx: np.ndarray
    active_idx: np.ndarray            # every non-null subcarrier: pilots and data
    symbols: np.ndarray               # uint8 labels, one row per training and payload symbol
    alphabet: np.ndarray              # complex point of each label

    @property
    def grid(self) -> np.ndarray:
        """The complex symbol grid, zero at nulls."""
        return self.alphabet[self.symbols]

    @property
    def training_grid(self) -> np.ndarray:
        return self.alphabet[self.symbols[: self.tx.n_training]]

    @property
    def payload_grid(self) -> np.ndarray:
        return self.alphabet[self.symbols[self.tx.n_training:]]

    @property
    def payload_bits(self) -> dict:
        """Data subcarrier index -> its payload bits (uint8): its
        bits_per_subcarrier bits of every payload symbol in turn, MSB
        first."""
        b = self.tx.bits_per_subcarrier
        labels = self.symbols[self.tx.n_training:, self.data_idx].T
        labels -= _DATA_BASE
        bits = np.empty(labels.shape + (b,), dtype=np.uint8)
        for k in range(b):
            np.bitwise_and(labels >> (b - 1 - k), 1, out=bits[..., k])
        return dict(zip(self.data_idx.tolist(), bits.reshape(len(self.data_idx), -1)))


def cp_length(plan: BandPlan, cfg: TxConfig, oversample: int) -> int:
    """Cyclic-prefix length in samples of the frame ``build_frame``
    synthesizes from ``cfg``, at ``oversample`` samples per subcarrier: the
    prefix is synthesized at ``cfg.oversample`` and resampled exactly.
    Raises ValueError when that is not a whole number of samples."""
    synthesized = int(round(cfg.cp_fraction * (plan.n_subcarriers * cfg.oversample)))
    scaled = synthesized * oversample
    if scaled % cfg.oversample:
        raise ValueError("cyclic prefix does not survive this resampling factor")
    return scaled // cfg.oversample


def pilot_indices(plan: BandPlan, n_pilots: int) -> np.ndarray:
    """Evenly spaced pilot subcarriers, avoiding the nulled edges."""
    if n_pilots < 0:
        raise ValueError(f"n_pilots must be non-negative, got {n_pilots}")
    n = plan.n_subcarriers
    idx = np.round((np.arange(n_pilots) + 0.5) * n / n_pilots).astype(int)
    if len(set(idx)) != n_pilots:
        raise ValueError(f"pilot grid collides with itself ({n_pilots} pilots on {n} subcarriers)")
    if not np.all(np.isin(idx, active_indices(plan))):
        raise ValueError("pilot grid collides with null subcarriers")
    return idx


def _comb(n_sc: int, oversample: int) -> tuple:
    """FFT bin of each subcarrier and the half-bin phase ramp that shifts
    the integer bins onto the half-integer subcarrier grid."""
    nfft = n_sc * oversample
    bins = (np.arange(n_sc) - n_sc // 2) % nfft
    return bins, np.exp(1j * np.pi * np.arange(nfft) / nfft)


def synth_time(grid: np.ndarray, oversample: int, cp_len: int) -> np.ndarray:
    """Per-row IDFT of a symbol grid onto the half-integer subcarrier comb,
    cyclic prefix prepended, rows concatenated."""
    n_sym, n_sc = grid.shape
    bins, ramp = _comb(n_sc, oversample)
    nfft = len(ramp)
    spec = np.zeros((n_sym, nfft), dtype=complex)
    spec[:, bins] = grid
    out = np.empty((n_sym, cp_len + nfft), dtype=complex)
    body = out[:, cp_len:]
    np.fft.ifft(spec, axis=1, out=body)
    body *= nfft
    body *= ramp[None, :]
    # the half-integer comb is antiperiodic over nfft, so the true periodic
    # extension of the body is the negated tail
    np.negative(body[:, nfft - cp_len:], out=out[:, :cp_len])
    return out.ravel()


def analyze_time(samples: np.ndarray, n_sc: int, oversample: int,
                 cp_len: int) -> np.ndarray:
    """Inverse of ``synth_time``: cut whole symbols, drop each cyclic
    prefix, derotate the half-bin ramp, DFT, and keep the subcarrier bins.
    Returns the (n_symbols, n_sc) grid."""
    bins, ramp = _comb(n_sc, oversample)
    nfft = len(ramp)
    blocks = samples.reshape(-1, nfft + cp_len)[:, cp_len:]
    blocks = blocks * np.conj(ramp)[None, :]
    np.fft.fft(blocks, axis=1, out=blocks)
    blocks /= nfft
    return blocks[:, bins]


def frame_samples(plan: BandPlan, cfg: TxConfig, oversample: int) -> int:
    """Sample count of the frame ``build_frame`` synthesizes from ``cfg``,
    at ``oversample`` samples per subcarrier (``cfg.oversample`` as built):
    every training and payload symbol is n_subcarriers * oversample samples
    plus its ``cp_length``, which raises when it is not whole there."""
    symbol = plan.n_subcarriers * oversample + cp_length(plan, cfg, oversample)
    return (cfg.n_training + cfg.n_symbols) * symbol


def frame_rate_hz(plan: BandPlan, cfg: TxConfig) -> float:
    """Sample rate of the frame ``build_frame`` synthesizes from ``cfg``."""
    return plan.spacing_hz * (plan.n_subcarriers * cfg.oversample)


def build_frame(plan: BandPlan, cfg: TxConfig) -> tuple:
    """Synthesize one frame: training symbols, then PRBS-driven payload.

    Training and pilots carry Gray QPSK; data subcarriers carry the
    configured order.  One PRBS stream is consumed in a fixed order
    (training, then per payload symbol the pilot bits followed by the data
    bits in ascending subcarrier index), so the whole frame is a pure
    function of the configuration.  Output is RMS-normalized to 1.  Returns
    (waveform, FrameRef).
    """
    n = plan.n_subcarriers
    b = cfg.bits_per_subcarrier
    active = active_indices(plan)
    p_idx = pilot_indices(plan, cfg.n_pilots)
    is_pilot = np.zeros(n, dtype=bool)
    is_pilot[p_idx] = True
    d_idx = active[~is_pilot[active]]

    n_train, n_pay = cfg.n_training, cfg.n_symbols
    need_train = 2 * len(active) * n_train
    per_sym = 2 * len(p_idx) + b * len(d_idx)
    stream = gen_prbs(need_train + per_sym * n_pay,
                      order=cfg.prbs_order, seed_state=cfg.prbs_seed_state)

    symbols = np.zeros((n_train + n_pay, n), dtype=np.uint8)
    symbols[:n_train, active] = (qam_labels(stream[:need_train], 2)
                                 + _QPSK_BASE).reshape(n_train, len(active))

    block = stream[need_train:].reshape(n_pay, per_sym)
    symbols[n_train:, p_idx] = (qam_labels(block[:, : 2 * len(p_idx)].ravel(), 2)
                                + _QPSK_BASE).reshape(n_pay, -1)
    symbols[n_train:, d_idx] = (qam_labels(block[:, 2 * len(p_idx):].ravel(), b)
                                + _DATA_BASE).reshape(n_pay, len(d_idx))

    ref = FrameRef(
        plan=plan,
        tx=cfg,
        pilot_idx=p_idx,
        data_idx=d_idx,
        active_idx=active,
        symbols=symbols,
        alphabet=np.concatenate(([0j], CONSTELLATIONS[2], CONSTELLATIONS[b])),
    )
    samples = synth_time(ref.grid, cfg.oversample, cp_length(plan, cfg, cfg.oversample))
    samples /= math.sqrt(power_stats(samples)[0])
    w = ComplexWaveform(samples=samples, sample_rate_hz=frame_rate_hz(plan, cfg),
                        anchor_hz=plan.center_hz)
    return w, ref


def clip_gain(ratio_db: float) -> float:
    """The clip limit's ratio to the rms, 10^(ratio_db/20).  Raises
    ValueError unless ``ratio_db`` is positive and that ratio a finite float."""
    try:
        gain = 10.0 ** (ratio_db / 20.0)
    except OverflowError:
        gain = math.inf
    if not (ratio_db > 0 and gain < math.inf):
        raise ValueError(f"clip ratio {ratio_db:g} dB must be positive, "
                         "with a finite limit 10^(ratio/20)")
    return gain


def clip(w: ComplexWaveform, ratio_db: float) -> ComplexWaveform:
    """Magnitude-limit the envelope at rms * ``clip_gain(ratio_db)``, phase
    kept.  Returns ``w`` itself when no sample is over the limit, else a
    waveform with new samples; the magnitudes are taken CHUNK samples at a
    time, so no other frame-sized array exists."""
    gain = clip_gain(ratio_db)
    rms = math.sqrt(w.power)
    if rms == 0.0:
        return w
    limit = rms * gain
    out = None
    for lo in range(0, len(w.samples), CHUNK):
        mag = np.abs(w.samples[lo:lo + CHUNK])
        over = np.flatnonzero(mag > limit)
        if len(over):
            if out is None:
                out = w.samples.copy()
            out[lo + over] *= limit / mag[over]
    return w if out is None else w.with_samples(out)


def papr_db(w: ComplexWaveform) -> float:
    """Peak-to-average power ratio of the sampled envelope, from
    :func:`~wdlink.waveform.power_stats`: the whole-array mean and peak
    power bit for bit, one CHUNK of samples at a time."""
    mean, peak = power_stats(w.samples)
    if mean == 0.0 or not len(w):
        raise ValueError("all-zero waveform has no PAPR")
    return 10.0 * math.log10(peak / mean)
