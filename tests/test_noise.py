"""Laser phase-noise model, PSD estimation, and AWGN injection."""

import math

import numpy as np
import pytest

from oracles import (lorentzian_fwhm_from_field_psd, welch_psd, welch_psd_per_segment,
                     wiener_phase_psd)
from wdlink.noise import (
    LaserSpec,
    PhaseTrace,
    add_awgn,
    beat_phase,
    estimate_psd,
    gen_phase_noise,
    read_psd_csv,
    write_psd_csv,
)
from wdlink.waveform import ComplexWaveform


def beat_field(lw_a, lw_b, n, fs, seed):
    beat = beat_phase(LaserSpec("a", lw_a), LaserSpec("b", lw_b, 1e9), n, fs, seed)
    return ComplexWaveform(np.exp(1j * beat.phases), fs)


def test_zero_linewidth_constant_phase():
    tr = gen_phase_noise(LaserSpec("x", 0.0), 1000, 1e6, seed=3)
    assert np.all(tr.phases == tr.phases[0])


def test_increment_sigma():
    # 5 kHz at 1 GHz sampling: sqrt(2 pi 5e3 / 1e9) = 5.605e-3 rad
    tr = gen_phase_noise(LaserSpec("x", 5e3), 1_000_001, 1e9, seed=11)
    sigma = np.std(np.diff(tr.phases))
    expect = math.sqrt(2.0 * math.pi * 5e3 / 1e9)
    assert expect == pytest.approx(5.60e-3, abs=5e-6)
    assert sigma == pytest.approx(expect, rel=0.02)


def test_phase_noise_determinism():
    a = gen_phase_noise(LaserSpec("x", 5e3), 4096, 1e8, seed=9)
    b = gen_phase_noise(LaserSpec("x", 5e3), 4096, 1e8, seed=9)
    c = gen_phase_noise(LaserSpec("x", 5e3), 4096, 1e8, seed=10)
    assert np.array_equal(a.phases, b.phases)
    assert not np.array_equal(a.phases, c.phases)


def test_far_wing_phase_psd():
    """Beat of 100 Hz and 5 kHz lasers: S_phi(10 kHz) = 5.1e3/(pi f^2)."""
    fs, n = 5e6, 1 << 21
    beat = beat_phase(LaserSpec("a", 100.0), LaserSpec("b", 5e3, 1e9), n, fs, seed=21)
    freqs, psd = estimate_psd(beat, 500.0)
    sel = (freqs >= 9e3) & (freqs <= 11e3)
    measured_db = 10.0 * np.log10(np.mean(psd[sel]))
    expect_db = 10.0 * math.log10(wiener_phase_psd(5.1e3, 1e4))
    assert expect_db == pytest.approx(-47.9, abs=0.05)
    assert measured_db == pytest.approx(expect_db, abs=1.5)


@pytest.mark.parametrize(
    "lw_a,lw_b,fwhm,fs,n,wing",
    [
        (100.0, 100.0, 200.0, 1e6, 1 << 20, (5e3, 2e4)),
        (100.0, 5e3, 5.1e3, 1e7, 1 << 21, (1e5, 3e5)),
        (100.0, 80e3, 80.1e3, 5e7, 1 << 22, (1e6, 3e6)),
        (5e3, 80e3, 85e3, 5e7, 1 << 22, (1e6, 3e6)),
    ],
)
def test_beat_fwhm_additivity(lw_a, lw_b, fwhm, fs, n, wing):
    w = beat_field(lw_a, lw_b, n, fs, seed=5)
    freqs, psd = estimate_psd(w, max(fs / (n // 64), 4 * fs / n))
    fitted = lorentzian_fwhm_from_field_psd(freqs, psd, *wing)
    assert fitted == pytest.approx(fwhm, rel=0.10)


def test_psd_parseval_complex():
    rng = np.random.default_rng(2)
    x = (rng.normal(size=1 << 18) + 1j * rng.normal(size=1 << 18)) / math.sqrt(2)
    w = ComplexWaveform(x, 1e8)
    freqs, psd = estimate_psd(w, 1e8 / 2048)
    total = np.trapezoid(psd, freqs)
    assert total == pytest.approx(np.mean(np.abs(x) ** 2), rel=0.01)


def test_psd_parseval_real_trace():
    rng = np.random.default_rng(3)
    tr = PhaseTrace(rng.normal(size=1 << 18), 1e6)
    freqs, psd = estimate_psd(tr, 1e6 / 2048)
    total = np.trapezoid(psd, freqs)
    assert total == pytest.approx(np.mean(tr.phases**2), rel=0.01)


def test_psd_white_noise_flat():
    rng = np.random.default_rng(4)
    n, fs = 1 << 20, 1e8
    x = (rng.normal(size=n) + 1j * rng.normal(size=n)) / math.sqrt(2)
    freqs, psd = estimate_psd(ComplexWaveform(x, fs), fs / 1024)
    # two-sided density of unit-power complex noise is 1/fs; every octave
    # chunk must sit within half a dB of it
    expect_db = -10.0 * math.log10(fs)
    for chunk in np.array_split(psd, 8):
        assert 10.0 * np.log10(np.mean(chunk)) == pytest.approx(expect_db, abs=0.5)


def test_psd_tone_location_and_power():
    fs, n, anchor = 8e6, 1 << 16, 92.5e9
    rbw = fs / 1024
    f_tone = 128 * rbw  # bin centered
    t = np.arange(n) / fs
    w = ComplexWaveform(np.exp(2j * np.pi * f_tone * t), fs, anchor_hz=anchor)
    freqs, psd = estimate_psd(w, rbw)
    peak = int(np.argmax(psd))
    assert freqs[peak] == pytest.approx(anchor + f_tone, abs=rbw)
    df = freqs[1] - freqs[0]
    captured = np.sum(psd[peak - 1 : peak + 2]) * df
    assert captured >= 0.99 * np.mean(np.abs(w.samples) ** 2)


@pytest.mark.parametrize("nperseg", [2048, 1001])
def test_psd_matches_scipy_welch_one_sided(nperseg):
    rng = np.random.default_rng(5)
    fs = 1e6
    tr = PhaseTrace(rng.normal(size=50_003), fs)
    freqs, psd = estimate_psd(tr, fs / nperseg)
    f_ref, p_ref = welch_psd(tr.phases, fs, nperseg, onesided=True)
    np.testing.assert_allclose(freqs, f_ref, rtol=1e-12)
    np.testing.assert_allclose(psd, p_ref, rtol=1e-12)


@pytest.mark.parametrize("nperseg", [512, 333])
def test_psd_matches_scipy_welch_two_sided(nperseg):
    rng = np.random.default_rng(6)
    fs, anchor = 8e6, 92.5e9
    x = rng.normal(size=20_001) + 1j * rng.normal(size=20_001)
    freqs, psd = estimate_psd(ComplexWaveform(x, fs, anchor_hz=anchor), fs / nperseg)
    f_ref, p_ref = welch_psd(x, fs, nperseg, onesided=False)
    np.testing.assert_allclose(freqs, np.fft.fftshift(f_ref) + anchor, rtol=1e-12)
    np.testing.assert_allclose(psd, np.fft.fftshift(p_ref), rtol=1e-12)


@pytest.mark.parametrize("n,nperseg,complex_input", [
    (400_000, 700, True),      # 1141 segments, 374 per transform batch
    (1_000_000, 50_000, False),  # 39 segments, 5 per batch
    (70_000, 350, False),      # one partial batch
])
def test_psd_bit_exact_against_per_segment_loop(n, nperseg, complex_input):
    """Batched transforms sum exactly as one transform per segment would,
    including a last batch shorter than the rest."""
    rng = np.random.default_rng(7)
    fs, anchor = 1e6, 92.5e9
    if complex_input:
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        freqs, psd = estimate_psd(ComplexWaveform(x, fs, anchor_hz=anchor), fs / nperseg)
        freqs = freqs - anchor
    else:
        x = np.cumsum(rng.normal(size=n))
        freqs, psd = estimate_psd(PhaseTrace(x, fs), fs / nperseg)
    f_ref, p_ref = welch_psd_per_segment(x, fs, nperseg, onesided=not complex_input)
    assert np.array_equal(psd, p_ref)
    assert np.allclose(freqs, f_ref, rtol=0, atol=1e-3)


def test_psd_rbw_bounds():
    tr = PhaseTrace(np.zeros(100), 1e6)
    with pytest.raises(ValueError):
        estimate_psd(tr, 1.0)  # finer than the record supports
    with pytest.raises(ValueError):
        estimate_psd(tr, 1e9)  # segments shorter than 8 samples
    with pytest.raises(ValueError, match="need inf samples"):
        estimate_psd(tr, 1e-310)  # a segment length past any float


def test_add_awgn_power():
    n, fs = 1 << 20, 1e9
    w = ComplexWaveform(np.ones(n, dtype=complex), fs)
    out = add_awgn(w, 12.0, seed=6)
    noise_power = np.mean(np.abs(out.samples - w.samples) ** 2)
    assert noise_power == pytest.approx(10 ** (-1.2), rel=0.02)


def test_add_awgn_occupied_band_scaling():
    n, fs = 1 << 20, 1e9
    w = ComplexWaveform(np.ones(n, dtype=complex), fs)
    out = add_awgn(w, 12.0, seed=6, occupied_bw_hz=fs / 2)
    noise_power = np.mean(np.abs(out.samples - w.samples) ** 2)
    # only half the sampled band counts toward the SNR, so the injected
    # total doubles
    assert noise_power == pytest.approx(2.0 * 10 ** (-1.2), rel=0.02)


def test_add_awgn_passthrough_and_determinism():
    w = ComplexWaveform(np.ones(256, dtype=complex), 1e9)
    assert add_awgn(w, float("inf"), seed=0) is w
    assert add_awgn(w, None, seed=0) is w
    a = add_awgn(w, 10.0, seed=7)
    b = add_awgn(w, 10.0, seed=7)
    c = add_awgn(w, 10.0, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    with pytest.raises(ValueError):
        add_awgn(w, 10.0, seed=0, occupied_bw_hz=2e9)


def test_psd_csv_round_trip(tmp_path):
    freqs = np.array([0.0, 1e3, 2e3])
    psd = np.array([1e-7, 2e-9, 0.0])
    path = tmp_path / "psd.csv"
    write_psd_csv(path, freqs, psd)
    assert path.read_text().splitlines()[0] == "freq_hz,psd_db_hz"
    rf, rdb = read_psd_csv(path)
    assert np.allclose(rf, freqs)
    assert rdb[0] == pytest.approx(-70.0, abs=1e-4)
    assert rdb[1] == pytest.approx(-86.9897, abs=1e-3)
    assert rdb[2] <= -399.0  # floored, finite


def test_laser_pair_shares_nothing_but_seed():
    b1 = beat_phase(LaserSpec("a", 1e3), LaserSpec("b", 1e3, 1e9), 4096, 1e7, 13)
    b2 = beat_phase(LaserSpec("a", 1e3), LaserSpec("b", 1e3, 1e9), 4096, 1e7, 13)
    assert np.array_equal(b1.phases, b2.phases)
    # the two lasers of a pair must be statistically independent streams:
    # at equal linewidths one shared stream would beat to all zeros
    assert np.all(b1.phases[1:] != 0.0)
