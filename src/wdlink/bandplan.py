"""Subcarrier band plans for the two radio bands.

The W-band OFDM block spans 75-110 GHz (256 subcarriers, 35 GHz total) and the
D-band block spans 110-150 GHz (256 subcarriers, 40 GHz total).  Subcarrier
centers sit on a half-integer grid around the band center, so the edge
subcarriers tile the band exactly.  One subcarrier at each band edge is nulled;
the two nulled subcarriers facing each other across the 110 GHz boundary form
the guard gap between the blocks.  Only this module decides which subcarriers
are modulated (``active_indices``) and which the receiver judges
(``detected_indices``); the transmitter, receiver and summary read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

C_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class BandPlan:
    name: str
    center_hz: float
    n_subcarriers: int
    spacing_hz: float
    null_indices: frozenset = field(default_factory=frozenset)
    detect_window_hz: tuple = (0.0, float("inf"))

    def __post_init__(self):
        if self.n_subcarriers <= 0:
            raise ValueError("n_subcarriers must be positive")
        if not math.isfinite(self.center_hz):
            raise ValueError("center_hz must be finite")
        if not 0 < self.spacing_hz < math.inf:
            raise ValueError("spacing_hz must be positive and finite")
        half = self.n_subcarriers * self.spacing_hz / 2
        if not (math.isfinite(self.center_hz - half) and math.isfinite(self.center_hz + half)):
            raise ValueError("band edges center_hz +- n_subcarriers * spacing_hz / 2 "
                             "must be finite")
        bad = [i for i in self.null_indices if not 0 <= i < self.n_subcarriers]
        if bad:
            raise ValueError(f"null indices out of range: {bad}")
        lo, hi = self.detect_window_hz
        if not lo < hi:
            raise ValueError("detect window must satisfy lo < hi")
        # the window is a receiver property; it can never reach outside the
        # tiled span, so clamp rather than force callers to repeat the span
        lo, hi = max(lo, self.center_hz - half), min(hi, self.center_hz + half)
        if not lo < hi:
            raise ValueError("detect window misses the band span entirely")
        object.__setattr__(self, "detect_window_hz", (float(lo), float(hi)))
        object.__setattr__(self, "null_indices", frozenset(int(i) for i in self.null_indices))
        if len(detected_indices(self)) == 0:
            raise ValueError("detect window holds no modulated subcarrier")

    @property
    def occupied_bw_hz(self) -> float:
        """Full tiled span of the subcarrier grid."""
        return self.n_subcarriers * self.spacing_hz


def make_default_plans() -> dict:
    """Default W and D band plans.

    W: 35 GHz / 256 = 136.71875 MHz spacing, detection over the full 75-110 GHz.
    D: 40 GHz / 256 = 156.25 MHz spacing, detection limited to the 133-150 GHz
    window actually passed by the receive converter.
    """
    w = BandPlan(
        name="W",
        center_hz=92.5e9,
        n_subcarriers=256,
        spacing_hz=35e9 / 256,
        null_indices=frozenset({0, 255}),
        detect_window_hz=(75e9, 110e9),
    )
    d = BandPlan(
        name="D",
        center_hz=130e9,
        n_subcarriers=256,
        spacing_hz=40e9 / 256,
        null_indices=frozenset({0, 255}),
        detect_window_hz=(133e9, 150e9),
    )
    return {"W": w, "D": d}


def subcarrier_center(plan: BandPlan, index: int) -> float:
    """Absolute center frequency of subcarrier ``index``."""
    if not 0 <= index < plan.n_subcarriers:
        raise IndexError(f"subcarrier index {index} out of range")
    return float(subcarrier_centers(plan)[index])


def subcarrier_centers(plan: BandPlan) -> np.ndarray:
    """Center frequencies of all subcarriers, index order."""
    idx = np.arange(plan.n_subcarriers)
    return plan.center_hz + (idx - (plan.n_subcarriers - 1) / 2) * plan.spacing_hz


def active_indices(plan: BandPlan) -> np.ndarray:
    """Indices of the modulated (non-null) subcarriers, ascending."""
    keep = np.ones(plan.n_subcarriers, dtype=bool)
    keep[list(plan.null_indices)] = False
    return np.flatnonzero(keep)


def detected_indices(plan: BandPlan) -> np.ndarray:
    """Modulated subcarriers whose centers fall in the detect window: the
    ones the receiver judges."""
    lo, hi = plan.detect_window_hz
    active = active_indices(plan)
    centers = subcarrier_centers(plan)[active]
    return active[(centers >= lo) & (centers <= hi)]


def inter_band_gap_hz(low_plan: BandPlan, high_plan: BandPlan) -> float:
    """Guard gap between the highest modulated subcarrier band-edge of the lower
    block and the lowest modulated subcarrier band-edge of the upper block."""
    top = subcarrier_center(low_plan, active_indices(low_plan)[-1])
    bottom = subcarrier_center(high_plan, active_indices(high_plan)[0])
    gap = (bottom - high_plan.spacing_hz / 2) - (top + low_plan.spacing_hz / 2)
    if gap < 0:
        raise ValueError("plans overlap; no inter-band gap")
    return gap
