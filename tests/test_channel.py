"""Channel stage: masks, carrier phase, the x6-LO downconversion window,
and the free-space budget."""

import math

import numpy as np
import pytest

from wdlink.bandplan import detected_indices, subcarrier_center, subcarrier_centers
from wdlink.channel import (MaskPoint, apply_carrier, apply_mask,
                            dband_downconvert, default_masks, fspl_db,
                            link_snr_budget, load_mask_csv, mask_gain_db)
from wdlink.noise import PhaseTrace, default_lasers
from wdlink.ofdm_rx import demodulate, equalize
from wdlink.ofdm_tx import TxConfig, build_frame
from wdlink.opll import default_loop_config, simulate_lock
from wdlink.runner import _residual_tail
from wdlink.waveform import ComplexWaveform


def _rand_wave(n=4096, fs=70e9, anchor=92.5e9, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ComplexWaveform(samples=x, sample_rate_hz=fs, anchor_hz=anchor)


# ---------------------------------------------------------------- masks

def test_default_mask_low_band_points():
    w, _ = default_masks()
    assert mask_gain_db(w, 90e9) == 0.0
    assert mask_gain_db(w, 105e9) == pytest.approx(-5.0, abs=1e-12)
    assert mask_gain_db(w, 110e9) == pytest.approx(-10.0, abs=1e-12)


def test_default_mask_high_band_points():
    _, d = default_masks()
    assert mask_gain_db(d, 120e9) == -60.0
    assert mask_gain_db(d, 132.99e9) == -60.0
    assert mask_gain_db(d, 133e9) == 0.0
    assert mask_gain_db(d, 140e9) == 0.0
    assert mask_gain_db(d, 148e9) == pytest.approx(-20.0 / 3.0, rel=1e-9)
    assert mask_gain_db(d, 150e9) == -20.0


def test_mask_constant_extension_beyond_endpoints():
    w, d = default_masks()
    assert mask_gain_db(w, 60e9) == 0.0
    assert mask_gain_db(w, 115e9) == -10.0
    assert mask_gain_db(d, 155e9) == -20.0
    assert mask_gain_db(d, 80e9) == -60.0


def test_mask_gain_vectorized():
    w, _ = default_masks()
    g = mask_gain_db(w, np.array([90e9, 105e9, 110e9]))
    assert g.shape == (3,)
    np.testing.assert_allclose(g, [0.0, -5.0, -10.0], atol=1e-12)


def test_mask_validation():
    with pytest.raises(ValueError):
        mask_gain_db((MaskPoint(1e9, 0.0),), 1e9)
    with pytest.raises(ValueError):
        mask_gain_db((MaskPoint(2e9, 0.0), MaskPoint(1e9, 0.0)), 1e9)
    with pytest.raises(ValueError):
        mask_gain_db((MaskPoint(1e9, 0.0), MaskPoint(1e9, -3.0)), 1e9)


def test_apply_mask_flat_zero_db_is_identity():
    w = _rand_wave()
    flat = (MaskPoint(1e9, 0.0), MaskPoint(200e9, 0.0))
    out = apply_mask(w, flat)
    np.testing.assert_allclose(out.samples, w.samples, atol=1e-10)
    assert out.sample_rate_hz == w.sample_rate_hz
    assert out.anchor_hz == w.anchor_hz


def test_apply_mask_is_linear():
    a, b = _rand_wave(seed=1), _rand_wave(seed=2)
    mask = default_masks()[0]
    lhs = apply_mask(a.with_samples(a.samples + b.samples), mask)
    rhs = apply_mask(a, mask).samples + apply_mask(b, mask).samples
    np.testing.assert_allclose(lhs.samples, rhs, atol=1e-10)


def test_apply_mask_never_adds_energy():
    # both built-in masks are lossy (gains <= 0 dB everywhere)
    for mask in default_masks():
        for anchor in (92.5e9, 130e9):
            w = _rand_wave(anchor=anchor, seed=3)
            e_in = np.sum(np.abs(w.samples) ** 2)
            e_out = np.sum(np.abs(apply_mask(w, mask).samples) ** 2)
            assert e_out <= e_in * (1 + 1e-12)


def test_equalizer_taps_follow_mask_shape(w_plan):
    cfg = TxConfig(2, n_symbols=64, prbs_seed_state=11)
    wav, ref = build_frame(w_plan, cfg)
    mask = default_masks()[0]
    eqf = equalize(demodulate(apply_mask(wav, mask), ref, 0), ref)
    live = detected_indices(w_plan)
    live = live[~eqf.dead[live]]
    tap_db = 20 * np.log10(np.abs(eqf.taps[live]))
    mask_db = mask_gain_db(mask, subcarrier_centers(w_plan)[live])
    # remove the global transmit-normalization scale before comparing
    rel = (tap_db - tap_db[0]) - (mask_db - mask_db[0])
    assert np.max(np.abs(rel)) < 0.5


def test_low_band_rolloff_tilts_band_edge_ten_db(w_plan):
    """A flat frame pushed through the low-band mask comes out with the
    110 GHz edge subcarriers reading ~10 dB below the mid-band ones."""
    cfg = TxConfig(2, n_symbols=64, prbs_seed_state=11)
    wav, ref = build_frame(w_plan, cfg)
    eqf = equalize(demodulate(apply_mask(wav, default_masks()[0]), ref, 0), ref)
    hi = 20 * math.log10(abs(eqf.taps[254]))   # 109.79 GHz
    mid = 20 * math.log10(abs(eqf.taps[146]))  # 95.03 GHz
    assert subcarrier_center(w_plan, 254) > 109.5e9
    assert abs(subcarrier_center(w_plan, 146) - 95e9) < 0.1e9
    assert mid - hi == pytest.approx(10.0, abs=0.5)


def test_load_mask_csv_round_trip(tmp_path):
    pts = (MaskPoint(75e9, 0.0), MaskPoint(100e9, -1.5), MaskPoint(110e9, -10.0))
    path = tmp_path / "mask.csv"
    path.write_text("freq_hz,gain_db\n" +
                    "".join(f"{p.freq_hz},{p.gain_db}\n" for p in pts))
    assert load_mask_csv(path) == pts


def test_load_mask_csv_skips_comments_and_rejects_mid_file_junk(tmp_path):
    path = tmp_path / "mask.csv"
    path.write_text("# response\nfreq_hz,gain_db\n1e9,0\n2e9,-3\n")
    assert load_mask_csv(path) == (MaskPoint(1e9, 0.0), MaskPoint(2e9, -3.0))
    bad = tmp_path / "bad.csv"
    bad.write_text("1e9,0\noops,nan?\n")
    with pytest.raises(ValueError):
        load_mask_csv(bad)


# ------------------------------------------------------- carrier phase

def test_apply_carrier_zero_phase_is_identity():
    w = _rand_wave(n=1000)
    tr = PhaseTrace(phases=np.zeros(100), sample_rate_hz=1e9)
    out = apply_carrier(w, tr)
    np.testing.assert_array_equal(out.samples, w.samples)


def test_apply_carrier_constant_phase_rotates():
    w = _rand_wave(n=1000)
    tr = PhaseTrace(phases=np.full(100, np.pi / 2), sample_rate_hz=1e9)
    out = apply_carrier(w, tr)
    np.testing.assert_allclose(out.samples, w.samples * 1j, atol=1e-12)


def test_apply_carrier_preserves_magnitude():
    w = _rand_wave(n=3000)
    rng = np.random.default_rng(4)
    tr = PhaseTrace(phases=np.cumsum(rng.standard_normal(500)) * 0.01,
                    sample_rate_hz=1e10)
    out = apply_carrier(w, tr)
    np.testing.assert_allclose(np.abs(out.samples), np.abs(w.samples), rtol=1e-12)


def test_apply_carrier_rejects_short_trace():
    w = _rand_wave(n=4096, fs=70e9)  # 58.5 ns
    tr = PhaseTrace(phases=np.zeros(2), sample_rate_hz=1e9)  # spans 1 ns
    with pytest.raises(ValueError):
        apply_carrier(w, tr)


def test_wider_linewidth_pair_wanders_more(w_plan):
    """Carrier phase from the 80 kHz-linewidth pair smears the received
    common phase far more than the 5 kHz pair, seed for seed."""
    ld = default_lasers()
    cfg = TxConfig(2, n_symbols=2048, prbs_seed_state=3)
    wav, ref = build_frame(w_plan, cfg)
    var = {}
    for name in ("ld2", "ld3"):
        pair_vars = []
        for seed in (0, 1, 2):
            lock = simulate_lock(
                ld["ld1"], ld[name],
                default_loop_config(ld[name].offset_hz, duration_s=2e-3),
                seed=100 + seed)
            rx = apply_carrier(wav, _residual_tail(lock, wav.duration_s))
            eqf = equalize(demodulate(rx, ref, 0), ref)
            pair_vars.append(float(np.var(eqf.cpe_rad)))
        var[name] = pair_vars
    for narrow, wide in zip(var["ld2"], var["ld3"]):
        assert wide > narrow


# -------------------------------------------------------- downconversion

LO = dict(seed_lo_hz=21.7e9, mult=6)  # the bundled D-band converter's 130.2 GHz LO


def test_downconvert_passes_in_window_tone():
    fs, n = 80e9, 8000
    t = np.arange(n) / fs
    w = ComplexWaveform(np.exp(2j * np.pi * 10e9 * t), fs, 130e9)  # 140 GHz
    out = dband_downconvert(w, **LO, if_window_hz=(0.5e9, 17.0e9))
    assert out.anchor_hz == pytest.approx(-0.2e9)
    assert out.sample_rate_hz == fs
    # tone is bin-aligned and inside the IF window: samples pass untouched
    np.testing.assert_allclose(out.samples, w.samples, atol=1e-9)
    spec = np.abs(np.fft.fft(out.samples)) ** 2
    freqs = np.fft.fftfreq(n, 1 / fs) + out.anchor_hz
    assert freqs[np.argmax(spec)] == pytest.approx(9.8e9)


def test_downconvert_rejects_out_of_window_tone():
    fs, n = 80e9, 8000
    t = np.arange(n) / fs
    w = ComplexWaveform(np.exp(-2j * np.pi * 1e9 * t), fs, 130e9)  # 129 GHz
    out = dband_downconvert(w, **LO, if_window_hz=(0.5e9, 17.0e9))  # IF would be -1.2 GHz
    assert np.mean(np.abs(out.samples) ** 2) < 1e-12


def _surviving_columns(d_plan, if_window):
    cfg = TxConfig(4, n_symbols=16, prbs_seed_state=5)
    wav, ref = build_frame(d_plan, cfg)
    out = dband_downconvert(wav, **LO, if_window_hz=if_window, decimate=2)
    assert out.sample_rate_hz == 40e9
    grid = demodulate(out, ref, 0)
    return np.mean(np.abs(grid) ** 2, axis=0)


@pytest.mark.parametrize("window,count,first,last", [
    ((0.5e9, 17.0e9), 106, 132, 237),
    ((2.8e9, 19.8e9), 108, 147, 254),
])
def test_downconvert_window_selects_subcarriers(d_plan, window, count, first, last):
    p = _surviving_columns(d_plan, window)
    pdb = 10 * np.log10(p / p.max())
    offs = subcarrier_centers(d_plan) - 21.7e9 * 6
    inside = (offs >= window[0]) & (offs <= window[1])
    inside[[0, 255]] = False  # nulls never carry power
    idx = np.where(inside)[0]
    assert idx.size == count
    assert idx[0] == first and idx[-1] == last
    assert np.all(pdb[idx] > -6.0)
    # columns whose center sits well outside the window are gone
    clear = (offs < window[0] - 0.4e9) | (offs > window[1] + 0.4e9)
    clear[[0, 255]] = False
    assert np.all(pdb[clear] < -15.0)


def test_downconvert_validation(d_plan):
    cfg = TxConfig(4, n_symbols=4, prbs_seed_state=5)
    wav, _ = build_frame(d_plan, cfg)
    with pytest.raises(ValueError):
        dband_downconvert(wav, **LO, if_window_hz=(5e9, 2e9))
    with pytest.raises(ValueError):
        dband_downconvert(wav, **LO, if_window_hz=(0.5e9, 45e9))  # beyond sampled span
    with pytest.raises(ValueError):
        # does not divide the sample count
        dband_downconvert(wav, **LO, if_window_hz=(0.5e9, 17.0e9), decimate=3)
    with pytest.raises(ValueError):
        # a 0.5-17 GHz window aliases at 20 GS/s
        dband_downconvert(wav, **LO, if_window_hz=(0.5e9, 17.0e9), decimate=4)


# ----------------------------------------------------------- link budget

def test_free_space_loss_reference_point():
    assert fspl_db(92.5e9, 0.12) == pytest.approx(53.354, abs=0.1)


def test_free_space_loss_distance_doubling():
    delta = fspl_db(92.5e9, 0.24) - fspl_db(92.5e9, 0.12)
    assert delta == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_free_space_loss_validation():
    with pytest.raises(ValueError):
        fspl_db(0.0, 0.12)
    with pytest.raises(ValueError):
        fspl_db(92.5e9, -1.0)


def test_link_budget_desk_defaults():
    # two 20 dBi horns almost cancel the 53 dB desk-scale path loss
    assert link_snr_budget(92.5e9, 0.12) == pytest.approx(-13.354, abs=0.1)


def test_link_budget_scaling():
    base = link_snr_budget(92.5e9, 0.12)
    assert link_snr_budget(92.5e9, 0.12, bandwidth_hz=10.0) == pytest.approx(base - 10.0)
    assert link_snr_budget(92.5e9, 0.12, gains_dbi=(20.0, 30.0)) == pytest.approx(base + 10.0)
    assert link_snr_budget(92.5e9, 0.12, tx_power_dbm=3.0) == pytest.approx(base + 3.0)

