"""Grid arithmetic for the two OFDM blocks."""

import math

import numpy as np
import pytest

from wdlink.bandplan import (
    BandPlan,
    detected_indices,
    inter_band_gap_hz,
    make_default_plans,
    subcarrier_center,
    subcarrier_centers,
)


def test_default_spacings_exact(plans):
    assert plans["W"].spacing_hz == 136.71875e6
    assert plans["D"].spacing_hz == 156.25e6
    assert plans["W"].spacing_hz == 35e9 / 256
    assert plans["D"].spacing_hz == 40e9 / 256
    # the quoted round numbers
    assert round(plans["W"].spacing_hz / 1e6) == 137
    assert round(plans["D"].spacing_hz / 1e6) == 156


def test_occupied_bandwidth(plans):
    assert abs(plans["W"].occupied_bw_hz - 35e9) < 1e3
    assert abs(plans["D"].occupied_bw_hz - 40e9) < 1e3


def test_band_edges_and_centers(plans):
    w, d = plans["W"], plans["D"]
    assert subcarrier_center(w, 0) == pytest.approx(75.068359375e9, abs=1.0)
    assert subcarrier_center(d, 255) == pytest.approx(149.921875e9, abs=1.0)
    # the half-integer grid straddles the band center exactly
    mid = 0.5 * (subcarrier_center(w, 127) + subcarrier_center(w, 128))
    assert mid == pytest.approx(92.5e9, abs=1e-3)
    mid_d = 0.5 * (subcarrier_center(d, 127) + subcarrier_center(d, 128))
    assert mid_d == pytest.approx(130e9, abs=1e-3)


def test_subcarrier_centers_vectorized(plans):
    w = plans["W"]
    centers = subcarrier_centers(w)
    assert centers.shape == (256,)
    assert centers[0] == subcarrier_center(w, 0)
    assert centers[-1] == subcarrier_center(w, 255)
    steps = np.diff(centers)
    assert np.allclose(steps, w.spacing_hz, rtol=0, atol=1e-3)


def test_subcarrier_center_bounds(plans):
    with pytest.raises(IndexError):
        subcarrier_center(plans["W"], 256)
    with pytest.raises(IndexError):
        subcarrier_center(plans["W"], -1)


def test_inter_band_gap(plans):
    gap = inter_band_gap_hz(plans["W"], plans["D"])
    # one nulled subcarrier each side of 110 GHz: gap = dF_W + dF_D
    assert gap == plans["W"].spacing_hz + plans["D"].spacing_hz
    assert abs(gap - 293e6) < 1e6


def test_gap_independent_of_tx_settings(plans):
    # the gap is pure plan arithmetic; tx knobs cannot perturb it
    from wdlink.ofdm_tx import TxConfig

    before = inter_band_gap_hz(plans["W"], plans["D"])
    TxConfig(n_symbols=8, clip_ratio_db=6.0)
    TxConfig(n_symbols=256, clip_ratio_db=14.0)
    assert inter_band_gap_hz(plans["W"], plans["D"]) == before


def test_gap_requires_separation():
    a = BandPlan("A", 10e9, 16, 1e8, frozenset({0, 15}))
    b = BandPlan("B", 10.5e9, 16, 1e8, frozenset({0, 15}))
    with pytest.raises(ValueError):
        inter_band_gap_hz(a, b)


def test_detected_counts(plans):
    assert len(detected_indices(plans["W"])) == 254
    assert len(detected_indices(plans["D"])) == 108


def test_detected_window_membership(plans):
    for plan in plans.values():
        det = detected_indices(plan)
        centers = subcarrier_centers(plan)[det]
        lo, hi = plan.detect_window_hz
        assert np.all(centers >= lo) and np.all(centers <= hi)
        assert not set(det.tolist()) & plan.null_indices


def test_d_detected_are_upper_block(plans):
    det = detected_indices(plans["D"])
    assert det[0] == 147 and det[-1] == 254
    assert np.array_equal(det, np.arange(147, 255))


def test_dict_round_trip(plans):
    for plan in plans.values():
        clone = BandPlan.from_dict(plan.to_dict())
        assert clone == plan


def test_detect_window_clamped_to_span():
    plan = BandPlan("X", 92.5e9, 256, 35e9 / 256)
    assert plan.detect_window_hz == (75e9, 110e9)


def test_validation_errors():
    with pytest.raises(ValueError):
        BandPlan("X", 1e9, 0, 1e6)
    with pytest.raises(ValueError):
        BandPlan("X", 1e9, 8, -1e6)
    for center, spacing in ((math.nan, 1e6), (math.inf, 1e6), (1e9, math.nan), (1e9, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            BandPlan("X", center, 8, spacing)
    with pytest.raises(ValueError):
        BandPlan("X", 1e9, 8, 1e6, frozenset({8}))
    with pytest.raises(ValueError):
        BandPlan("X", 1e9, 8, 1e6, frozenset(), (2e9, 1e9))
    with pytest.raises(ValueError):
        # window entirely outside the tiled span
        BandPlan("X", 92.5e9, 256, 1e8, frozenset(), (1e9, 2e9))


def test_detect_window_without_a_modulated_subcarrier_rejected():
    # 75-75.1 GHz holds only the center of W's nulled subcarrier 0
    with pytest.raises(ValueError, match="no modulated subcarrier"):
        BandPlan("W", 92.5e9, 256, 35e9 / 256, frozenset({0, 255}), (75e9, 75.1e9))
    # between two subcarrier centers
    with pytest.raises(ValueError, match="no modulated subcarrier"):
        BandPlan("W", 92.5e9, 256, 35e9 / 256, frozenset({0, 255}), (80.01e9, 80.1e9))


def test_make_default_plans_fresh():
    a = make_default_plans()
    b = make_default_plans()
    assert a == b
    assert a is not b
