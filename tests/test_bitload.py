"""Threshold bit loading, BER estimates, and capacity bookkeeping."""

import functools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ber_mqam_ref, load_bits_loop
from wdlink import bitload
from wdlink.bandplan import detected_indices
from wdlink.bitload import (BitLoadMap, CapacityReport, ber_mqam, capacity, load_bits,
                            min_snr_db_for, read_bitload_csv, write_bitload_csv,
                            write_capacity_json, write_threshold_csv)
from wdlink.ofdm_rx import SubcarrierMetrics
from wdlink.ofdm_tx import SUPPORTED_ORDERS


def _metrics(snr_db):
    n = len(snr_db)
    return SubcarrierMetrics(indices=np.arange(n), freq_hz=np.zeros(n),
                             snr_db=np.asarray(snr_db, dtype=float),
                             evm_rms=np.full(n, 0.1))


# ------------------------------------------------------------- BER model

def test_bpsk_ber_reference_point():
    # Q(sqrt(2*g)) at 9.6 dB is the classic 1e-5 operating point
    assert ber_mqam(9.6, 1) == pytest.approx(1e-5, rel=1.0)
    assert ber_mqam(9.6, 1) == pytest.approx(9.736e-6, rel=1e-3)


def test_qam16_ber_near_fec_threshold():
    assert ber_mqam(12.5, 4) == pytest.approx(2.2e-2, rel=0.1)


def test_ber_matches_scipy_erfc():
    snr = np.linspace(-10.0, 30.0, 81)
    for b in SUPPORTED_ORDERS:
        np.testing.assert_allclose(ber_mqam(snr, b), ber_mqam_ref(snr, b), rtol=1e-12)
        scalar = ber_mqam(12.5, b)
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(float(ber_mqam_ref(12.5, b)), rel=1e-12)


def test_ber_decreases_with_snr():
    snr = np.linspace(-5, 25, 61)
    for b in SUPPORTED_ORDERS:
        ber = ber_mqam(snr, b)
        assert ber.shape == snr.shape
        assert np.all(np.diff(ber) < 0)


def test_ber_increases_with_order_at_fixed_snr():
    bers = [ber_mqam(12.0, b) for b in SUPPORTED_ORDERS]
    assert all(b2 > b1 for b1, b2 in zip(bers, bers[1:]))


def test_ber_rejects_unknown_order():
    with pytest.raises(ValueError):
        ber_mqam(10.0, 7)


@functools.lru_cache(maxsize=None)
def _thresholds(fec):
    """Each order's smallest SNR that meets the profile's BER limit, kept
    per profile: the fuzz below asks for it on every example."""
    return {b: min_snr_db_for(b, fec) for b in SUPPORTED_ORDERS}


def test_threshold_values(fec):
    table = _thresholds(fec)
    expected = {1: 3.0713, 2: 6.0816, 3: 10.5118, 4: 12.5221, 5: 15.4054, 6: 18.2201}
    assert set(table) == set(expected)
    for b, snr in expected.items():
        assert table[b] == pytest.approx(snr, abs=2e-3)
        # the bisection landed exactly on the threshold BER
        assert ber_mqam(table[b], b) == pytest.approx(2.2e-2, rel=1e-6)


def test_thresholds_bisect_once_per_profile(monkeypatch, tmp_path, fec):
    calls = []
    real = bitload.min_snr_db_for

    def counting(order_bits, fec):
        calls.append(order_bits)
        return real(order_bits, fec)

    monkeypatch.setattr(bitload, "min_snr_db_for", counting)
    fec = replace(fec, ber_threshold=1.234e-2)  # a profile no other test bisects
    write_threshold_csv(tmp_path / "a.csv", fec)
    write_threshold_csv(tmp_path / "b.csv", fec)
    assert sorted(calls) == list(SUPPORTED_ORDERS)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_min_snr_monotone_in_order(fec):
    snrs = [min_snr_db_for(b, fec) for b in SUPPORTED_ORDERS]
    assert all(s2 > s1 for s1, s2 in zip(snrs, snrs[1:]))


def test_tighter_ber_demands_more_snr(fec):
    loose = min_snr_db_for(4, replace(fec, ber_threshold=2.2e-2))
    tight = min_snr_db_for(4, replace(fec, ber_threshold=1e-3))
    assert tight > loose + 3


# ------------------------------------------------------------ bit loading

def test_load_bits_snr_to_order_mapping(d_plan, fec):
    snr = np.full(256, 12.6)
    snr[150] = np.nan
    snr[151] = 25.0
    snr[152] = 7.0
    snr[153] = 0.5
    lm = load_bits(_metrics(snr), fec, d_plan)
    assert lm.bits[151] == 6
    assert lm.bits[152] == 2
    assert lm.bits[153] == 0
    assert lm.bits[150] == 0  # unmeasured subcarriers carry nothing
    det = detected_indices(d_plan)
    others = np.setdiff1d(det, [150, 151, 152, 153])
    assert set(lm.bits[others].tolist()) == {4}


def test_load_bits_respects_detect_window(d_plan, fec):
    lm = load_bits(_metrics(np.full(256, 30.0)), fec, d_plan)
    det = detected_indices(d_plan)
    outside = np.setdiff1d(np.arange(256), det)
    assert np.all(lm.bits[outside] == 0)
    assert np.all(lm.bits[det] == 6)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_load_bits_matches_the_loop(plans, fec, data):
    """Against the one-subcarrier-at-a-time loop, on profiles that leave
    rows out, keep rows outside the detect window, and hold NaN, +-inf and
    SNRs exactly on a threshold."""
    plan = plans[data.draw(st.sampled_from(["W", "D"]))]
    thresholds = sorted(_thresholds(fec).items())
    snr = st.one_of(st.floats(-30.0, 40.0),
                    st.sampled_from([np.nan, np.inf, -np.inf,
                                     *(t for _, t in thresholds)]))
    rows = data.draw(st.dictionaries(st.integers(0, plan.n_subcarriers - 1), snr))
    indices = np.array(list(rows), dtype=int)
    snr_db = np.array(list(rows.values()), dtype=float)
    m = SubcarrierMetrics(indices=indices, freq_hz=np.zeros(len(rows)), snr_db=snr_db,
                          evm_rms=np.full(len(rows), 0.1))
    want = load_bits_loop(indices, snr_db, thresholds, detected_indices(plan),
                          plan.n_subcarriers)
    assert np.array_equal(load_bits(m, fec, plan).bits, want)


def test_load_bits_handles_partial_metrics(d_plan, fec):
    # metrics measured on a subset: everything else defaults to 0 bits
    m = SubcarrierMetrics(indices=np.array([200, 201]), freq_hz=np.zeros(2),
                          snr_db=np.array([13.0, 4.0]), evm_rms=np.full(2, .1))
    lm = load_bits(m, fec, d_plan)
    assert lm.bits[200] == 4
    assert lm.bits[201] == 1
    assert lm.bits.sum() == 5


@pytest.mark.parametrize("bad, why", [
    ([7], "7"),
    ([7, 4.5, 7], "4.5, 7"),
    ([np.nan, np.nan], "nan"),
], ids=["7", "repeated", "nans"])
def test_bitload_map_rejects_bad_orders(bad, why):
    """Each value that is not an order is named once, ascending."""
    bits = np.zeros(256)
    bits[10:10 + len(bad)] = bad
    with pytest.raises(ValueError, match=f"^invalid orders in map: {why}$"):
        BitLoadMap(bits=bits)


# --------------------------------------------------------------- capacity

def test_uniform_16qam_high_band_capacity(d_plan, fec, d_band):
    det = detected_indices(d_plan)
    bits = np.zeros(256, int)
    bits[det] = 4
    rep = capacity(BitLoadMap(bits=bits), d_plan, fec, d_band.tx.cp_fraction)
    assert rep.detected_count == 108
    assert rep.raw_gbps == pytest.approx(67.5, abs=1e-9)  # 108 x 4 x 156.25 MHz
    assert rep.net_gbps == pytest.approx(67.5 / 1.155, abs=1e-9)
    assert rep.raw_cp_adjusted_gbps == pytest.approx(67.5 * 63 / 64, abs=1e-9)


def test_net_capacity_is_raw_over_overhead(w_plan, fec, w_band):
    bits = np.zeros(256, int)
    bits[detected_indices(w_plan)] = 3
    rep = capacity(BitLoadMap(bits=bits), w_plan, replace(fec, overhead_fraction=0.2),
                   w_band.tx.cp_fraction)
    assert rep.net_gbps == pytest.approx(rep.raw_gbps / 1.2, rel=1e-12)


def test_headline_net_rate_arithmetic(fec):
    # 173.5 Gb/s raw through 15.5% overhead
    assert 173.5 / (1 + fec.overhead_fraction) == pytest.approx(150.2, abs=0.1)


def test_capacity_adds_across_bands(w_plan, d_plan, fec, w_band, d_band):
    bw = np.zeros(256, int)
    bw[detected_indices(w_plan)] = 4
    bd = np.zeros(256, int)
    bd[detected_indices(d_plan)] = 4
    rw = capacity(BitLoadMap(bits=bw), w_plan, fec, w_band.tx.cp_fraction)
    rd = capacity(BitLoadMap(bits=bd), d_plan, fec, d_band.tx.cp_fraction)
    total = rw.raw_gbps + rd.raw_gbps
    assert total == pytest.approx(254 * 4 * 0.13671875 + 67.5, abs=1e-9)


def test_capacity_rejects_length_mismatch(w_plan, fec, w_band):
    with pytest.raises(ValueError):
        capacity(BitLoadMap(bits=np.zeros(128, int)), w_plan, fec, w_band.tx.cp_fraction)


def test_fec_profile_validation(fec):
    with pytest.raises(ValueError):
        replace(fec, overhead_fraction=0.0)
    with pytest.raises(ValueError):
        replace(fec, overhead_fraction=1.0)
    with pytest.raises(ValueError):
        replace(fec, ber_threshold=0.6)


# ------------------------------------------------------------ interchange

def test_bitload_csv_round_trip(w_plan, tmp_path):
    bits = np.zeros(256, int)
    bits[detected_indices(w_plan)] = 4
    bits[100] = 6
    path = tmp_path / "bits.csv"
    write_bitload_csv(path, BitLoadMap(bits=bits), w_plan)
    assert path.read_text().splitlines()[0] == "index,freq_hz,bits"
    back = read_bitload_csv(path)
    np.testing.assert_array_equal(back.bits, bits)
    assert back.bits.dtype == bits.dtype   # read as floats, checked, held as integers


def test_bitload_csv_rejects_map_of_another_length(w_plan, tmp_path):
    for n in (255, 257):
        with pytest.raises(ValueError, match="does not match the plan"):
            write_bitload_csv(tmp_path / "bits.csv", BitLoadMap(bits=np.zeros(n, int)),
                              w_plan)


def test_threshold_csv_contents(tmp_path, fec):
    path = tmp_path / "thr.csv"
    write_threshold_csv(path, fec)
    lines = path.read_text().splitlines()
    assert lines[0] == "order_bits,min_snr_db"
    assert len(lines) == 1 + len(SUPPORTED_ORDERS)
    order, snr = lines[1].split(",")
    assert int(order) == 1
    assert float(snr) == pytest.approx(3.0713, abs=2e-3)


def test_capacity_json_totals(tmp_path, fec, w_band, d_band):
    reports = {}
    for band in (w_band, d_band):
        bits = np.zeros(256, int)
        bits[detected_indices(band.plan)] = 4
        reports[band.name] = capacity(BitLoadMap(bits=bits), band.plan, fec,
                                      band.tx.cp_fraction)
    path = tmp_path / "capacity.json"
    write_capacity_json(path, reports, fec)
    body = json.loads(path.read_text())
    assert set(body) == {"W", "D", "total", "fec"}
    assert body["D"]["raw_gbps"] == pytest.approx(67.5)
    assert body["total"]["raw_gbps"] == pytest.approx(
        body["W"]["raw_gbps"] + body["D"]["raw_gbps"])
    assert body["fec"]["overhead_fraction"] == pytest.approx(0.155)
    # serialization is stable: same content byte for byte on rewrite
    first = path.read_bytes()
    write_capacity_json(path, reports, fec)
    assert path.read_bytes() == first
