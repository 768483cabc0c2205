"""SNR-threshold bit loading and capacity arithmetic.

Per subcarrier, the largest modulation order whose Gray-coded AWGN BER
estimate stays at or under the FEC threshold gets loaded; anything outside
the detect window, nulled, or too noisy even for BPSK carries 0 bits.
Capacity uses the no-CP subcarrier-symbol-rate convention (bits x spacing);
the CP-discounted figure is reported alongside.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .bandplan import BandPlan, detected_indices, subcarrier_centers
from .ofdm_rx import SubcarrierMetrics
from .ofdm_tx import SUPPORTED_ORDERS
from .waveform import BITLOAD_CSV, THRESHOLDS_CSV, read_table, write_json, write_table


@dataclass(frozen=True)
class FecProfile:
    overhead_fraction: float
    ber_threshold: float

    def __post_init__(self):
        if not 0 < self.overhead_fraction < 1:
            raise ValueError("overhead_fraction must be in (0, 1)")
        if not 0 < self.ber_threshold < 0.5:
            raise ValueError("ber_threshold must be in (0, 0.5)")


_erfc = np.vectorize(math.erfc, otypes=[float])


def _q(x):
    return 0.5 * _erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def ber_mqam(snr_db, order_bits: int):
    """Gray-coded bit error probability on AWGN at the given symbol SNR.

    Square orders use the standard nearest-neighbour approximation
    (4/b)(1 - 1/sqrt(M)) Q(sqrt(3 g / (M-1))); BPSK is exact.  32QAM uses the
    same family with sqrt(M) -> 2^2.5.  8QAM is the exact per-bit expression
    for the rectangular 4x2 grid actually transmitted; the generic cross
    formula misses it by over 50%, which would blow the Monte-Carlo
    agreement contract.
    """
    snr_db = np.asarray(snr_db, dtype=float)
    g = 10.0 ** (snr_db / 10.0)
    if order_bits == 1:
        out = _q(np.sqrt(2.0 * g))
    elif order_bits == 3:
        x = np.sqrt(g / 3.0)
        out = (2.5 * _q(x) + _q(3.0 * x) - 0.5 * _q(5.0 * x)) / 3.0
    elif order_bits in (2, 4, 5, 6):
        m = 2.0 ** order_bits
        root_m = 2.0 ** (order_bits / 2.0)
        out = (4.0 / order_bits) * (1.0 - 1.0 / root_m) * _q(np.sqrt(3.0 * g / (m - 1.0)))
    else:
        raise ValueError(f"unsupported order_bits {order_bits}")
    return float(out) if snr_db.ndim == 0 else out


def min_snr_db_for(order_bits: int, fec: FecProfile) -> float:
    """Smallest SNR (dB) at which the order still meets the BER threshold."""
    lo, hi = -20.0, 60.0
    if ber_mqam(lo, order_bits) <= fec.ber_threshold:
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ber_mqam(mid, order_bits) <= fec.ber_threshold:
            hi = mid
        else:
            lo = mid
    return hi


@functools.lru_cache(maxsize=8)
def _thresholds(fec: FecProfile) -> tuple:
    """(order_bits, min_snr_db) pairs, ascending; bisected once per profile."""
    return tuple((b, min_snr_db_for(b, fec)) for b in SUPPORTED_ORDERS)


@dataclass(frozen=True)
class BitLoadMap:
    """bits[i] in {0} + supported orders, full plan length.  The values are
    checked as given, then held as integers."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits)
        valid = np.any(bits[..., None] == np.array((0, *SUPPORTED_ORDERS)), axis=-1)
        # each NaN as the one math.nan, which a set holds once
        bad = {b if b == b else math.nan for b in bits[~valid].tolist()}
        if bad:
            raise ValueError("invalid orders in map: "
                             + ", ".join(f"{b:g}" for b in sorted(bad)))
        object.__setattr__(self, "bits", np.asarray(self.bits, dtype=int))


def load_bits(metrics: SubcarrierMetrics, fec: FecProfile, plan: BandPlan) -> BitLoadMap:
    """Threshold loading: per detected subcarrier, the largest order whose
    BER at the measured SNR is within the FEC limit.  A subcarrier without a
    row, or with a non-finite SNR, carries 0 bits; ``metrics.indices`` lie in
    the plan, as ``evm_snr`` and ``read_metrics_csv`` give them."""
    orders, min_snrs = zip(*_thresholds(fec))
    snr = np.full(plan.n_subcarriers, np.nan)   # NaN fits no order
    snr[metrics.indices] = np.where(np.isfinite(metrics.snr_db), metrics.snr_db, np.nan)
    det = detected_indices(plan)
    fits = snr[det, None] >= np.array(min_snrs)
    bits = np.zeros(plan.n_subcarriers, dtype=int)
    bits[det] = np.max(np.where(fits, orders, 0), axis=1)
    return BitLoadMap(bits=bits)


@dataclass(frozen=True)
class CapacityReport:
    raw_gbps: float
    net_gbps: float
    raw_cp_adjusted_gbps: float
    detected_count: int


def capacity(load_map: BitLoadMap, plan: BandPlan, fec: FecProfile,
             cp_fraction: float) -> CapacityReport:
    """raw = sum(bits) x spacing; net divides out the FEC overhead."""
    if len(load_map.bits) != plan.n_subcarriers:
        raise ValueError("bit map length does not match the plan")
    raw_bps = float(np.sum(load_map.bits)) * plan.spacing_hz
    return CapacityReport(
        raw_gbps=raw_bps / 1e9,
        net_gbps=raw_bps / (1.0 + fec.overhead_fraction) / 1e9,
        raw_cp_adjusted_gbps=raw_bps * (1.0 - cp_fraction) / 1e9,
        detected_count=len(detected_indices(plan)),
    )


def total_capacity(reports: dict) -> dict:
    """Raw, net and CP-adjusted rates summed over band label -> CapacityReport."""
    return {key: sum(getattr(r, key) for r in reports.values())
            for key in ("raw_gbps", "net_gbps", "raw_cp_adjusted_gbps")}


# ----------------------------------------------------------------------------
# interchange artifacts

def write_bitload_csv(path, load_map: BitLoadMap, plan: BandPlan) -> None:
    bits = load_map.bits
    if len(bits) != plan.n_subcarriers:
        raise ValueError("bit map length does not match the plan")
    write_table(path, BITLOAD_CSV, np.arange(len(bits)), subcarrier_centers(plan), bits)


def read_bitload_csv(path) -> BitLoadMap:
    """The map in a table written by :func:`write_bitload_csv`; a ``bits``
    value that is not 0 or a supported order is refused naming the file."""
    bits = read_table(path, BITLOAD_CSV)[:, 2]
    try:
        return BitLoadMap(bits=bits)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def write_threshold_csv(path, fec: FecProfile) -> None:
    orders, snrs = zip(*_thresholds(fec))
    write_table(path, THRESHOLDS_CSV, orders, snrs)


def write_capacity_json(path, reports: dict, fec: FecProfile) -> None:
    """reports: band label -> CapacityReport; totals appended."""
    body = {label: asdict(rep) for label, rep in reports.items()}
    body["total"] = total_capacity(reports)
    body["fec"] = asdict(fec)
    write_json(path, body)
