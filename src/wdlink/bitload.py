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
from dataclasses import dataclass

import numpy as np

from .bandplan import BandPlan, detected_indices, subcarrier_centers
from .ofdm_rx import SubcarrierMetrics
from .ofdm_tx import SUPPORTED_ORDERS
from .waveform import read_table, write_json, write_table


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
    return float(out) if np.isscalar(snr_db) or snr_db.ndim == 0 else out


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


def threshold_table(fec: FecProfile) -> dict:
    return dict(_thresholds(fec))


@dataclass(frozen=True)
class BitLoadMap:
    """bits[i] in {0} + supported orders, full plan length."""

    bits: np.ndarray

    def __post_init__(self):
        bad = set(np.unique(self.bits)) - set(SUPPORTED_ORDERS) - {0}
        if bad:
            raise ValueError(f"invalid orders in map: {sorted(bad)}")


def load_bits(metrics: SubcarrierMetrics, fec: FecProfile, plan: BandPlan) -> BitLoadMap:
    """Threshold loading: per detected subcarrier, the largest order whose
    BER at the measured SNR is within the FEC limit."""
    thresholds = _thresholds(fec)  # ascending in order_bits; snr monotone
    bits = np.zeros(plan.n_subcarriers, dtype=int)
    window = set(int(i) for i in detected_indices(plan))
    snr_by_index = dict(zip((int(i) for i in metrics.indices), metrics.snr_db))
    for i in window:
        snr = snr_by_index.get(i)
        if snr is None or not np.isfinite(snr):
            continue
        best = 0
        for order, min_snr in thresholds:
            if snr >= min_snr:
                best = order
        bits[i] = best
    return BitLoadMap(bits=bits)


@dataclass(frozen=True)
class CapacityReport:
    raw_gbps: float
    net_gbps: float
    raw_cp_adjusted_gbps: float
    detected_count: int

    def to_dict(self) -> dict:
        return {
            "raw_gbps": self.raw_gbps,
            "net_gbps": self.net_gbps,
            "raw_cp_adjusted_gbps": self.raw_cp_adjusted_gbps,
            "detected_count": self.detected_count,
        }


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
    bits = np.asarray(load_map.bits, dtype=int)
    if len(bits) != plan.n_subcarriers:
        raise ValueError("bit map length does not match the plan")
    write_table(path, "index,freq_hz,bits\r\n", "{:d},{:.6f},{:d}\r\n",
                np.arange(len(bits)), subcarrier_centers(plan), bits)


def read_bitload_csv(path) -> BitLoadMap:
    return BitLoadMap(bits=read_table(path, 3)[:, 2].astype(int))


def write_threshold_csv(path, fec: FecProfile) -> None:
    orders, snrs = zip(*_thresholds(fec))
    write_table(path, "order_bits,min_snr_db\r\n", "{:d},{:.6f}\r\n", orders, snrs)


def write_capacity_json(path, reports: dict, fec: FecProfile) -> None:
    """reports: band label -> CapacityReport; totals appended."""
    body = {label: rep.to_dict() for label, rep in sorted(reports.items())}
    body["total"] = total_capacity(reports)
    body["fec"] = {
        "overhead_fraction": fec.overhead_fraction,
        "ber_threshold": fec.ber_threshold,
    }
    write_json(path, body)
