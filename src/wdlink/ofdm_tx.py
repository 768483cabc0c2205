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
cyclic-prefix length and its resampling (``cp_length``, ``resampled_cp_length``); the
``FrameRef`` also carries ``bandplan``'s active set (``active_idx``).  The
receiver reads all of it from the ``FrameRef`` and decides none of it itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandplan import BandPlan, active_indices
from .waveform import ComplexWaveform

# ============================================================================
# PRBS
# ============================================================================

# feedback taps per register length, e.g. x^17 + x^14 + 1 for order 17
PRBS_TAPS = {7: (7, 6), 9: (9, 5), 15: (15, 14), 17: (17, 14), 23: (23, 18), 31: (31, 28)}


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
    if order not in PRBS_TAPS:
        raise ValueError(f"unsupported PRBS order {order}")
    seed_state &= (1 << order) - 1
    if seed_state == 0:
        raise ValueError("seed_state must be nonzero")
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


def map_qam(bits: np.ndarray, order_bits: int) -> np.ndarray:
    """Gray-map a bit array (length divisible by order_bits) to unit-energy
    QAM symbols."""
    if order_bits not in CONSTELLATIONS:
        raise ValueError(f"unsupported order_bits {order_bits}")
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1 or len(bits) % order_bits:
        raise ValueError("bits must be 1-D with length divisible by order_bits")
    groups = bits.reshape(-1, order_bits)
    labels = np.zeros(len(groups), dtype=np.int64)
    for b in range(order_bits):
        labels = (labels << 1) | groups[:, b]
    return CONSTELLATIONS[order_bits][labels]


def demap_qam(symbols: np.ndarray, order_bits: int) -> np.ndarray:
    """Minimum-distance hard decisions back to bits (MSB first)."""
    if order_bits not in CONSTELLATIONS:
        raise ValueError(f"unsupported order_bits {order_bits}")
    table = CONSTELLATIONS[order_bits]
    symbols = np.asarray(symbols, dtype=complex).ravel()
    labels = np.empty(len(symbols), dtype=np.int64)
    chunk = 1 << 16
    for start in range(0, len(symbols), chunk):
        seg = symbols[start:start + chunk]
        d2 = np.abs(seg[:, None] - table[None, :]) ** 2
        labels[start:start + len(seg)] = np.argmin(d2, axis=1)
    bits = np.empty((len(symbols), order_bits), dtype=np.uint8)
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
        if self.clip_ratio_db <= 0:
            raise ValueError("clip_ratio_db must be positive")
        if type(self.bits_per_subcarrier) is not int or (
                self.bits_per_subcarrier not in SUPPORTED_ORDERS):
            raise ValueError(f"bits_per_subcarrier must be one of {list(SUPPORTED_ORDERS)}, "
                             f"got {self.bits_per_subcarrier!r}")


@dataclass(frozen=True)
class FrameRef:
    """Everything the receiver needs to judge a frame it already knows."""

    plan: BandPlan
    oversample: int
    cp_len: int
    n_training: int
    n_payload: int
    pilot_idx: np.ndarray
    data_idx: np.ndarray
    active_idx: np.ndarray            # every non-null subcarrier: pilots and data
    bits_per_subcarrier: int          # the QAM order of every data subcarrier
    grid: np.ndarray                  # (n_training + n_payload, n_subcarriers)
    payload_bits: dict                # data subcarrier index -> its payload bits

    @property
    def training_grid(self) -> np.ndarray:
        return self.grid[: self.n_training]

    @property
    def payload_grid(self) -> np.ndarray:
        return self.grid[self.n_training:]

    def cp_len_at(self, oversample: int) -> int:
        """Cyclic-prefix length once resampled to ``oversample`` (``resampled_cp_length``)."""
        return resampled_cp_length(self.cp_len, self.oversample, oversample)


def cp_length(n_subcarriers: int, oversample: int, cp_fraction: float) -> int:
    """Cyclic-prefix length in samples of a frame synthesized at
    ``oversample`` samples per subcarrier."""
    return int(round(cp_fraction * (n_subcarriers * oversample)))


def resampled_cp_length(cp_len: int, oversample: int, new_oversample: int) -> int:
    """Length of a ``cp_len``-sample cyclic prefix synthesized at
    ``oversample`` once the frame is resampled to ``new_oversample``;
    raises when that is not a whole number of samples."""
    scaled = cp_len * new_oversample
    if scaled % oversample:
        raise ValueError("cyclic prefix does not survive this resampling factor")
    return scaled // oversample


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
    body = np.fft.ifft(spec, axis=1) * nfft
    body *= ramp[None, :]
    if cp_len:
        # the half-integer comb is antiperiodic over nfft, so the true
        # periodic extension of the body is the negated tail
        body = np.concatenate([-body[:, -cp_len:], body], axis=1)
    return body.ravel()


def analyze_time(samples: np.ndarray, n_sc: int, oversample: int,
                 cp_len: int) -> np.ndarray:
    """Inverse of ``synth_time``: cut whole symbols, drop each cyclic
    prefix, derotate the half-bin ramp, DFT, and keep the subcarrier bins.
    Returns the (n_symbols, n_sc) grid."""
    bins, ramp = _comb(n_sc, oversample)
    nfft = len(ramp)
    blocks = samples.reshape(-1, nfft + cp_len)[:, cp_len:]
    blocks = blocks * np.conj(ramp)[None, :]
    spec = np.fft.fft(blocks, axis=1) / nfft
    return spec[:, bins]


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
    d_idx = np.setdiff1d(active, p_idx)

    n_train, n_pay = cfg.n_training, cfg.n_symbols
    need_train = 2 * len(active) * n_train
    per_sym = 2 * len(p_idx) + b * len(d_idx)
    stream = gen_prbs(need_train + per_sym * n_pay,
                      order=cfg.prbs_order, seed_state=cfg.prbs_seed_state)

    grid = np.zeros((n_train + n_pay, n), dtype=complex)
    grid[:n_train, active] = map_qam(stream[:need_train], 2).reshape(n_train, len(active))

    block = stream[need_train:].reshape(n_pay, per_sym)
    grid[n_train:, p_idx] = map_qam(block[:, : 2 * len(p_idx)].ravel(), 2).reshape(n_pay, -1)
    data_block = block[:, 2 * len(p_idx):]
    grid[n_train:, d_idx] = map_qam(data_block.ravel(), b).reshape(n_pay, len(d_idx))
    # one row per data subcarrier: its b bits of every payload symbol in turn
    rows = data_block.reshape(n_pay, len(d_idx), b).transpose(1, 0, 2).reshape(len(d_idx), -1)
    payload_bits = dict(zip(d_idx.tolist(), rows))

    cp_len = cp_length(n, cfg.oversample, cfg.cp_fraction)
    samples = synth_time(grid, cfg.oversample, cp_len)
    rms = math.sqrt(float(np.mean(np.abs(samples) ** 2)))
    samples = samples / rms

    fs = plan.spacing_hz * (n * cfg.oversample)
    ref = FrameRef(
        plan=plan,
        oversample=cfg.oversample,
        cp_len=cp_len,
        n_training=n_train,
        n_payload=n_pay,
        pilot_idx=p_idx,
        data_idx=d_idx,
        active_idx=active,
        bits_per_subcarrier=b,
        grid=grid,
        payload_bits=payload_bits,
    )
    w = ComplexWaveform(samples=samples, sample_rate_hz=fs, anchor_hz=plan.center_hz)
    return w, ref


def clip(w: ComplexWaveform, ratio_db: float) -> ComplexWaveform:
    """Magnitude-limit the envelope at rms * 10^(ratio_db/20), phase kept."""
    if ratio_db <= 0:
        raise ValueError("ratio_db must be positive")
    rms = math.sqrt(w.power)
    if rms == 0.0:
        return w
    limit = rms * 10.0 ** (ratio_db / 20.0)
    mag = np.abs(w.samples)
    over = mag > limit
    if not np.any(over):
        return w
    out = w.samples.copy()
    out[over] *= limit / mag[over]
    return w.with_samples(out)


def papr_db(w: ComplexWaveform) -> float:
    """Peak-to-average power ratio of the sampled envelope."""
    p = np.abs(w.samples) ** 2
    mean = float(np.mean(p))
    if mean == 0.0:
        raise ValueError("all-zero waveform has no PAPR")
    return 10.0 * math.log10(float(np.max(p)) / mean)
