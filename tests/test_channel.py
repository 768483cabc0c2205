"""Channel stage: masks, carrier phase, the x6-LO downconversion window,
and free-space path loss."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import channel_ref
from wdlink.bandplan import detected_indices, subcarrier_center, subcarrier_centers
from wdlink.channel import (MaskPoint, apply_carrier, apply_mask,
                            dband_downconvert, default_masks, fspl_db,
                            load_mask_csv, mask_gain_db)
from wdlink.noise import PhaseTrace
from wdlink.ofdm_rx import demodulate, equalize
from wdlink.ofdm_tx import build_frame, clip
from wdlink.opll import simulate_lock
from wdlink.waveform import ComplexWaveform


# a 0 dB mask: dband_downconvert's brick wall alone
FLAT = (MaskPoint(100e9, 0.0), MaskPoint(160e9, 0.0))


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
    before = w.samples.copy()   # apply_mask overwrites w.samples
    flat = (MaskPoint(1e9, 0.0), MaskPoint(200e9, 0.0))
    out = apply_mask(w, flat)
    np.testing.assert_allclose(out.samples, before, atol=1e-10)
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


def test_equalizer_taps_follow_mask_shape(w_plan, w_band):
    cfg = replace(w_band.tx, bits_per_subcarrier=2, n_symbols=64, prbs_seed_state=11)
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


def test_low_band_rolloff_tilts_band_edge_ten_db(w_plan, w_band):
    """A flat frame pushed through the low-band mask comes out with the
    110 GHz edge subcarriers reading ~10 dB below the mid-band ones."""
    cfg = replace(w_band.tx, bits_per_subcarrier=2, n_symbols=64, prbs_seed_state=11)
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


def test_wider_linewidth_pair_wanders_more(w_plan, w_band, d_band):
    """Carrier phase from the 80 kHz-linewidth pair smears the received
    common phase far more than the 5 kHz pair, seed for seed."""
    cfg = replace(w_band.tx, bits_per_subcarrier=2, n_symbols=2048, prbs_seed_state=3)
    wav, ref = build_frame(w_plan, cfg)
    var = {}
    for band in (w_band, d_band):
        loop = replace(band.loop, duration_s=2e-3, initial_freq_error_hz=0.0)
        pair_vars = []
        for seed in (0, 1, 2):
            lock = simulate_lock(band.master, band.slave, loop, seed=100 + seed)
            rx = apply_carrier(wav, lock.residual_tail(wav.duration_s))
            eqf = equalize(demodulate(rx, ref, 0), ref)
            pair_vars.append(float(np.var(eqf.cpe_rad)))
        var[band.name] = pair_vars
    for narrow, wide in zip(var["W"], var["D"]):
        assert wide > narrow


# -------------------------------------------------------- downconversion

@pytest.fixture(scope="module")
def lo(d_band):
    """The bundled D-band converter's LO (seed and multiplier); each test
    picks its own IF window."""
    return {key: d_band.downconvert[key] for key in ("seed_lo_hz", "mult")}


def test_downconvert_passes_in_window_tone(lo):
    fs, n = 80e9, 8000
    t = np.arange(n) / fs
    w = ComplexWaveform(np.exp(2j * np.pi * 10e9 * t), fs, 130e9)  # 140 GHz
    lo_hz = lo["seed_lo_hz"] * lo["mult"]
    assert 0.5e9 < 140e9 - lo_hz < 17.0e9   # the tone's IF is inside the window
    before = w.samples.copy()   # at decimate=1 the output is w.samples, overwritten
    out = dband_downconvert(w, FLAT, **lo, if_window_hz=(0.5e9, 17.0e9))
    assert out.anchor_hz == pytest.approx(130e9 - lo_hz)
    assert out.sample_rate_hz == fs
    # tone is bin-aligned and inside the IF window: samples pass untouched
    np.testing.assert_allclose(out.samples, before, atol=1e-9)
    spec = np.abs(np.fft.fft(out.samples)) ** 2
    freqs = np.fft.fftfreq(n, 1 / fs) + out.anchor_hz
    assert freqs[np.argmax(spec)] == pytest.approx(140e9 - lo_hz)


def test_downconvert_rejects_out_of_window_tone(lo):
    fs, n = 80e9, 8000
    t = np.arange(n) / fs
    w = ComplexWaveform(np.exp(-2j * np.pi * 1e9 * t), fs, 130e9)  # 129 GHz
    assert 129e9 - lo["seed_lo_hz"] * lo["mult"] < 0.5e9   # its IF is below the window
    out = dband_downconvert(w, FLAT, **lo, if_window_hz=(0.5e9, 17.0e9))
    assert np.mean(np.abs(out.samples) ** 2) < 1e-12


def _surviving_columns(d_plan, d_band, lo, if_window):
    cfg = replace(d_band.tx, bits_per_subcarrier=4, n_symbols=16, prbs_seed_state=5)
    wav, ref = build_frame(d_plan, cfg)
    out = dband_downconvert(wav, FLAT, **lo, if_window_hz=if_window, decimate=2)
    assert out.sample_rate_hz == 40e9
    grid = demodulate(out, ref, 0)
    return np.mean(np.abs(grid) ** 2, axis=0)


@pytest.mark.parametrize("window,count,first,last", [
    ((0.5e9, 17.0e9), 106, 132, 237),
    ((2.8e9, 19.8e9), 108, 147, 254),
])
def test_downconvert_window_selects_subcarriers(d_plan, d_band, lo, window, count,
                                                first, last):
    p = _surviving_columns(d_plan, d_band, lo, window)
    pdb = 10 * np.log10(p / p.max())
    offs = subcarrier_centers(d_plan) - lo["seed_lo_hz"] * lo["mult"]
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


def test_downconvert_validation(d_plan, d_band, lo):
    """Each refusal comes before the samples are touched: the frame's bytes
    are those it was built with."""
    cfg = replace(d_band.tx, bits_per_subcarrier=4, n_symbols=4, prbs_seed_state=5)
    wav, _ = build_frame(d_plan, cfg)
    kept = wav.samples.tobytes()
    window = {"if_window_hz": (0.5e9, 17.0e9)}
    for mask, match in [
        ((MaskPoint(130e9, 0.0),), "at least two points"),
        ((MaskPoint(140e9, 0.0), MaskPoint(130e9, -3.0)), "strictly increasing"),
        ((MaskPoint(130e9, 0.0), MaskPoint(140e9, math.nan)), "finite"),
    ]:
        with pytest.raises(ValueError, match=match):
            dband_downconvert(wav, mask, **lo, **window)
        assert wav.samples.tobytes() == kept, match
    for kwargs, match in [
        ({"if_window_hz": (5e9, 2e9)}, "low < high"),
        ({"if_window_hz": (0.5e9, 45e9)}, "sampled span"),
        # does not divide the sample count
        ({"if_window_hz": (0.5e9, 17.0e9), "decimate": 3}, "divide"),
        # a 0.5-17 GHz window aliases at 20 GS/s
        ({"if_window_hz": (0.5e9, 17.0e9), "decimate": 4}, "alias"),
        # the converter's ranges, which the scenario loader checks through
        # the same check_if_window
        ({"if_window_hz": (0.5e9, 17.0e9), "seed_lo_hz": 0.0}, "seed_lo_hz must be positive"),
        ({"if_window_hz": (0.5e9, 17.0e9), "seed_lo_hz": -21.7e9}, "seed_lo_hz must be positive"),
        ({"if_window_hz": (0.5e9, 17.0e9), "mult": 0}, "mult at least 1"),
        ({"if_window_hz": (-1e9, 17.0e9)}, "0 <= low < high"),
    ]:
        with pytest.raises(ValueError, match=match):
            dband_downconvert(wav, FLAT, **{**lo, **kwargs})
        assert wav.samples.tobytes() == kept, match


# ----------------------------------------------------------- whole channel

def _carried_frame(band, n_symbols):
    """A run's clipped frame of ``n_symbols`` payload symbols after
    ``apply_carrier`` on a residual phase walk that spans it."""
    wav, _ = build_frame(band.plan, replace(band.tx, n_symbols=n_symbols))
    wav = clip(wav, band.tx.clip_ratio_db)
    rate = band.loop.sim_rate_hz
    walk = np.cumsum(0.05 * np.random.default_rng(8).standard_normal(
        int(wav.duration_s * rate) + 3))
    return apply_carrier(wav, PhaseTrace(walk, rate))


# 8 payload symbols make a frame (6,240 samples) below the 16,384 at which
# numpy starts to reuse temporaries in place, 64 one (35,360) above it
@pytest.mark.parametrize("n_symbols", [8, 64])
def test_mask_matches_the_out_of_place_oracle(w_band, n_symbols):
    w = _carried_frame(w_band, n_symbols)
    want = channel_ref(w.samples.copy(), w.sample_rate_hz, w.anchor_hz, w_band.mask)
    w = apply_mask(w, w_band.mask)
    assert np.array_equal(w.samples, want[0])
    assert (w.sample_rate_hz, w.anchor_hz) == want[1:]


@pytest.mark.parametrize("n_symbols", [8, 64])
@pytest.mark.parametrize("decimate", [1, 2])
def test_one_pass_downconvert_matches_the_two_pass_oracle(d_band, n_symbols, decimate):
    """Mask and IF window in one transform pair, decimated by folding the
    spectrum: the two-pass oracle's samples to within rounding."""
    dc = {**d_band.downconvert, "decimate": decimate}
    w = _carried_frame(d_band, n_symbols)
    want = channel_ref(w.samples.copy(), w.sample_rate_hz, w.anchor_hz, d_band.mask, dc)
    out = dband_downconvert(w, d_band.mask, **dc)
    rms = np.sqrt(np.mean(np.abs(want[0]) ** 2))
    np.testing.assert_allclose(out.samples, want[0], rtol=0, atol=1e-12 * rms)
    assert (out.sample_rate_hz, out.anchor_hz) == want[1:]


def test_flat_mask_downconvert_is_the_brick_wall_alone(d_band):
    """A 0 dB mask multiplies each bin by exactly 1, so undecimated the
    output is the brick-wall pass's to the last bit.  (Decimated, the fold
    rounds differently from a full-length inverse and every other sample.)"""
    dc = {**d_band.downconvert, "decimate": 1}
    w = _carried_frame(d_band, 8)
    want = channel_ref(w.samples.copy(), w.sample_rate_hz, w.anchor_hz, None, dc)[0]
    assert np.array_equal(dband_downconvert(w, FLAT, **dc).samples, want)


def test_apply_mask_works_in_place(w_band):
    w = _carried_frame(w_band, 8)
    assert np.shares_memory(apply_mask(w, w_band.mask).samples, w.samples)


def test_decimated_downconvert_is_its_own_array(d_band):
    w = _carried_frame(d_band, 8)
    out = dband_downconvert(w, d_band.mask, **d_band.downconvert)
    assert len(out) == len(w) // d_band.downconvert["decimate"]
    # D's decimated samples pin no full-rate buffer
    assert out.samples.flags.c_contiguous and out.samples.base is None


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

