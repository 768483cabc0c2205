"""Receive DSP: sync, demodulation, equalization, phase tracking, metrics."""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from oracles import normalized_correlation_direct, sync_offset
from wdlink.bandplan import active_indices, detected_indices, subcarrier_centers
from wdlink.channel import apply_carrier, dband_downconvert
from wdlink.noise import add_awgn
from wdlink.ofdm_rx import (SubcarrierMetrics, SyncError, _normalized_correlation,
                            band_average_snr_db, count_bit_errors, demodulate, equalize, evm_snr,
                            export_constellation, read_metrics_csv, safe_radius,
                            synchronize, write_constellation_csv,
                            write_metrics_csv)
from wdlink.ofdm_tx import (CONSTELLATIONS, SUPPORTED_ORDERS, build_frame, cp_length,
                            demap_qam, synth_time)
from wdlink.opll import simulate_lock
from wdlink.waveform import read_iq

OCC_W = 254 * 136.71875e6


@pytest.fixture(scope="module")
def loopback(w_plan, w_band):
    cfg = replace(w_band.tx, bits_per_subcarrier=4, n_symbols=64, prbs_seed_state=21)
    wav, ref = build_frame(w_plan, cfg)
    return cfg, wav, ref


def test_noiseless_demod_recovers_grid(w_plan, loopback):
    _, wav, ref = loopback
    det = detected_indices(w_plan)
    raw = demodulate(wav, ref, 0)
    scale = np.mean(raw[:4, det] / ref.grid[:4, det])
    err = np.abs(raw[:, det] / scale - ref.grid[:, det])
    floor_db = 20 * np.log10(err.max() / np.abs(ref.grid[:, det]).max())
    assert floor_db < -80.0


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_noiseless_loopback_is_error_free(w_plan, w_band, order):
    cfg = replace(w_band.tx, bits_per_subcarrier=order, n_symbols=64, prbs_seed_state=21)
    wav, ref = build_frame(w_plan, cfg)
    eqf = equalize(demodulate(wav, ref, 0), ref)
    errors, total = count_bit_errors(eqf, ref)
    assert errors == 0
    assert total == 246 * order * 64


def test_bit_errors_count_only_the_detect_window(d_plan, d_band):
    """A D frame sends on all 246 data subcarriers, but only those inside
    the 133-150 GHz detect window are the receiver's to judge: errors
    outside it do not count, nor do their bits."""
    cfg = replace(d_band.tx, bits_per_subcarrier=4, n_symbols=32, prbs_seed_state=5)
    wav, ref = build_frame(d_plan, cfg)
    eqf = equalize(demodulate(wav, ref, 0), ref)
    centers = subcarrier_centers(d_plan)
    inside = (centers >= 133e9) & (centers <= 150e9)
    symbols = eqf.symbols.copy()
    symbols[:, ~inside] *= -1   # every symbol outside the window decided wrong
    errors, total = count_bit_errors(replace(eqf, symbols=symbols), ref)
    judged = [i for i in ref.data_idx if inside[i]]
    assert len(judged) == 105   # 147..254 less the pilots 176, 208, 240
    assert errors == 0
    assert total == len(judged) * 4 * 32


def _demap_every_symbol(eqf, ref):
    """``count_bit_errors`` by demapping every judged symbol."""
    judged = np.intersect1d(ref.data_idx, detected_indices(ref.plan))
    errors = total = 0
    for i in judged[~eqf.dead[judged]]:
        sent = ref.payload_bits[int(i)]
        errors += int(np.count_nonzero(
            demap_qam(eqf.symbols[:, i], ref.tx.bits_per_subcarrier) != sent))
        total += len(sent)
    return errors, total


@pytest.mark.parametrize("snr_db", [6.0, 12.0, 20.0])
@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_bit_count_matches_demapping_every_symbol(w_plan, w_band, order, snr_db):
    """Only symbols off their sent point by the safe radius or more are
    demapped; the count is that of demapping them all, also for symbols
    exactly on that radius, exactly half the minimum distance off (on a
    decision boundary), and NaN."""
    cfg = replace(w_band.tx, bits_per_subcarrier=order, n_symbols=64, prbs_seed_state=21)
    wav, ref = build_frame(w_plan, cfg)
    noisy = add_awgn(wav, snr_db, seed=order, occupied_bw_hz=OCC_W)
    eqf = equalize(demodulate(noisy, ref, 0), ref)
    rng = np.random.default_rng(order)
    symbols = eqf.symbols.copy()
    sent = ref.payload_grid[:8]
    r = safe_radius(order)
    symbols[:4] = sent[:4] + r * np.exp(1j * rng.uniform(0, 2 * np.pi, sent[:4].shape))
    # half the minimum distance along an axis, toward or away from a neighbour
    table = CONSTELLATIONS[order]
    d = np.abs(table[:, None] - table[None, :])
    half = d[d > 0].min() / 2
    symbols[4:8] = sent[4:] + half * rng.choice([1, 1j, -1, -1j], sent[4:].shape)
    symbols[8, ref.data_idx[::7]] = np.nan
    eqf = replace(eqf, symbols=symbols)
    errors, total = count_bit_errors(eqf, ref)
    assert (errors, total) == _demap_every_symbol(eqf, ref)
    assert errors > 0


@pytest.mark.parametrize("cp_512ths", [3, 5, 7])
def test_demod_refuses_a_cp_that_decimation_splits(d_plan, d_band, cp_512ths):
    """An odd cyclic prefix at oversample 2 is a fractional one after the
    D path decimates by 2: the receiver must say so, not cut the frame at
    a rounded CP."""
    cfg = replace(d_band.tx, bits_per_subcarrier=4, n_symbols=16, prbs_seed_state=5,
                  cp_fraction=cp_512ths / 512)
    wav, ref = build_frame(d_plan, cfg)
    out = dband_downconvert(wav, d_band.mask, **d_band.downconvert)   # decimated by 2
    with pytest.raises(ValueError, match="cyclic prefix does not survive"):
        demodulate(out, ref, 0)


def test_one_sample_delay_is_a_half_integer_phase_ramp(w_plan, loopback):
    """Delaying by one sample multiplies subcarrier k by
    exp(-2j pi ((k - n/2) + 1/2) / nfft): the +1/2 comes from the
    half-bin-offset subcarrier grid."""
    cfg, wav, ref = loopback
    det = detected_indices(w_plan)
    raw0 = demodulate(wav, ref, 0)
    delayed = wav.with_samples(np.concatenate([[0j], wav.samples[:-1]]))
    raw1 = demodulate(delayed, ref, 0)
    ratio = raw1[:, det] / raw0[:, det]
    nfft = w_plan.n_subcarriers * cfg.oversample
    model = np.exp(-2j * np.pi * ((det - 128) + 0.5) / nfft)
    assert np.abs(ratio - model[None, :]).max() < 1e-9


def test_sync_finds_exact_offset_clean(loopback):
    _, wav, ref = loopback
    padded = wav.with_samples(np.concatenate([np.zeros(100, complex), wav.samples]))
    assert synchronize(padded, ref) == 100


@pytest.mark.parametrize("cut", [50, 300])
def test_sync_refuses_a_frame_cut_short(loopback, cut):
    """Behind 100 padding samples, a frame missing its last ``cut`` samples
    has its best peak at 100, where no whole frame fits: sync searches only
    the offsets where one does (none at all past a cut of 100), and finds
    no peak there.  (A cut of a sample or two leaves an offset inside the
    cyclic prefix, from which the frame still demodulates.)"""
    _, wav, ref = loopback
    padded = wav.with_samples(np.concatenate([np.zeros(100, complex), wav.samples[:-cut]]))
    with pytest.raises(SyncError):
        synchronize(padded, ref)


def _noise(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("n_x, n_tpl", [(3001, 257), (640, 640), (1, 1), (20257, 257)])
def test_sync_correlation_matches_direct_sum(n_x, n_tpl):
    rng = np.random.default_rng(n_x)
    x, tpl = _noise(rng, n_x), _noise(rng, n_tpl)
    got = _normalized_correlation(x, tpl)
    ref = normalized_correlation_direct(x, tpl)
    assert got.shape == ref.shape == (n_x - n_tpl + 1,)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("burst_db", [0, 80, 160])
def test_sync_correlation_is_exact_after_a_loud_burst(burst_db):
    """A burst far louder than the rest of the record leaves the lags after
    it exact, because each lag's energy is a sum over its own window, not a
    difference of running sums that the burst dominates.  The template sits
    at 0 dB SNR behind the burst."""
    rng = np.random.default_rng(burst_db)
    n_tpl, at = 257, 2500
    x, tpl = _noise(rng, 4000), _noise(rng, n_tpl)
    x[at:at + n_tpl] += tpl
    x[:1000] *= 10 ** (burst_db / 20)
    got = _normalized_correlation(x, tpl)
    np.testing.assert_allclose(got, normalized_correlation_direct(x, tpl), rtol=1e-12, atol=0)
    assert int(np.argmax(got)) == at


@pytest.mark.parametrize("band_name", ["W", "D"])
def test_sync_through_leading_silence(default_run, scenario, band_name):
    """A record that starts with exact zeros, longer than the training
    burst, correlates to exactly 0 (not nan) at the lags that meet only
    silence, and sync finds the frame behind them."""
    band = scenario.band(band_name)
    _, ref = build_frame(band.plan, band.tx)
    rx = read_iq(default_run[0] / f"band_{band_name}" / "rx.iq")
    os_eff = round(rx.sample_rate_hz / (band.plan.spacing_hz * band.plan.n_subcarriers))
    tpl = synth_time(ref.training_grid, os_eff, cp_length(ref.plan, ref.tx, os_eff))
    n_pad = len(tpl) + 777
    rx = rx.with_samples(np.concatenate([np.zeros(n_pad, rx.samples.dtype), rx.samples]))
    silent = _normalized_correlation(rx.samples[:n_pad + len(tpl) - 1], tpl)[:778]
    assert np.array_equal(silent, np.zeros(778))
    assert synchronize(rx, ref) == n_pad


@pytest.mark.parametrize("n_pad", [0, 777])
@pytest.mark.parametrize("band_name", ["W", "D"])
def test_sync_matches_full_length_correlation(default_run, scenario, band_name, n_pad):
    """On a run's received record, delayed behind ``n_pad`` samples of noise
    at the record's own power, sync finds the offset that one full-length
    FFT correlation finds.  With no padding the record is one frame long
    and sync searches the single lag that every run searches."""
    band = scenario.band(band_name)
    _, ref = build_frame(band.plan, band.tx)
    rx = read_iq(default_run[0] / f"band_{band_name}" / "rx.iq")
    rng = np.random.default_rng(4)
    pad = math.sqrt(rx.power / 2) * (rng.standard_normal(n_pad)
                                     + 1j * rng.standard_normal(n_pad))
    rx = rx.with_samples(np.concatenate([pad, rx.samples]))
    os_eff = round(rx.sample_rate_hz / (band.plan.spacing_hz * band.plan.n_subcarriers))
    tpl = synth_time(ref.training_grid, os_eff, cp_length(ref.plan, ref.tx, os_eff))
    assert synchronize(rx, ref) == sync_offset(rx.samples, tpl) == n_pad


def test_sync_within_one_sample_under_noise(w_plan, w_band):
    cfg = replace(w_band.tx, bits_per_subcarrier=4, n_symbols=8, prbs_seed_state=77)
    wav, ref = build_frame(w_plan, cfg)
    hits = 0
    for seed in range(100):
        r = np.random.default_rng(1000 + seed)
        pad = 0.01 * (r.standard_normal(137) + 1j * r.standard_normal(137))
        w2 = wav.with_samples(np.concatenate([pad, wav.samples, pad]))
        w2 = add_awgn(w2, 12.0, seed=seed, occupied_bw_hz=OCC_W)
        try:
            if abs(synchronize(w2, ref) - 137) <= 1:
                hits += 1
        except SyncError:
            pass
    assert hits >= 99


def test_sync_rejects_pure_noise(w_plan, w_band):
    cfg = replace(w_band.tx, bits_per_subcarrier=4, n_symbols=8, prbs_seed_state=77)
    wav, ref = build_frame(w_plan, cfg)
    rng = np.random.default_rng(3)
    noise = wav.with_samples(rng.standard_normal(len(wav.samples)) + 0j)
    with pytest.raises(SyncError):
        synchronize(noise, ref)


def test_equalizer_absorbs_global_rotation(w_plan, loopback):
    _, wav, ref = loopback
    det = detected_indices(w_plan)
    rotated = wav.with_samples(wav.samples * np.exp(1j * np.pi / 4))
    eqf = equalize(demodulate(rotated, ref, 0), ref)
    live = det[~eqf.dead[det]]
    assert np.mean(np.angle(eqf.taps[live])) == pytest.approx(np.pi / 4, abs=1e-6)
    errors, _ = count_bit_errors(eqf, ref)
    assert errors == 0


def test_metrics_scale_invariant(w_plan, loopback):
    _, wav, ref = loopback
    scaled = wav.with_samples(wav.samples * 3.7)
    m_a = evm_snr(equalize(demodulate(wav, ref, 0), ref), ref)
    m_b = evm_snr(equalize(demodulate(scaled, ref, 0), ref), ref)
    np.testing.assert_allclose(m_b.snr_db, m_a.snr_db, atol=1e-9, equal_nan=True)


@pytest.mark.parametrize("snr_db", [6.0, 12.0, 20.0])
def test_measured_snr_tracks_injected_noise(w_plan, loopback, snr_db):
    _, wav, ref = loopback
    noisy = add_awgn(wav, snr_db, seed=int(snr_db * 10), occupied_bw_hz=OCC_W)
    m = evm_snr(equalize(demodulate(noisy, ref, 0), ref), ref)
    assert band_average_snr_db(m, w_plan) == pytest.approx(snr_db, abs=0.5)


def test_qam16_cluster_width_matches_noise(w_plan, loopback):
    _, wav, ref = loopback
    noisy = add_awgn(wav, 12.0, seed=42, occupied_bw_hz=OCC_W)
    eqf = equalize(demodulate(noisy, ref, 0), ref)
    mid = ref.data_idx[(ref.data_idx > 60) & (ref.data_idx < 190)]
    errs = (eqf.symbols[:, mid] - ref.payload_grid[:, mid]).ravel()
    sigma = 10 ** (-12.0 / 20.0) / np.sqrt(2)  # per-axis at 12 dB
    assert np.std(errs.real) == pytest.approx(sigma, rel=0.1)
    assert np.std(errs.imag) == pytest.approx(sigma, rel=0.1)


def test_dead_subcarrier_reported_not_counted(w_plan, loopback):
    _, wav, ref = loopback
    raw = demodulate(wav, ref, 0).copy()
    raw[:, 37] = 0
    eqf = equalize(raw, ref)
    assert eqf.dead[37]
    m = evm_snr(eqf, ref)
    pos = int(np.where(m.indices == 37)[0][0])
    assert np.isnan(m.snr_db[pos]) and np.isnan(m.evm_rms[pos])
    with pytest.raises(ValueError):
        export_constellation(eqf, ref, 37)
    clean = equalize(demodulate(wav, ref, 0), ref)
    _, total_clean = count_bit_errors(clean, ref)
    errors, total = count_bit_errors(eqf, ref)
    assert errors == 0
    assert total_clean - total == 64 * 4  # the notched column's bits drop out


def test_export_constellation_rejects_null_column(w_plan, loopback):
    _, wav, ref = loopback
    eqf = equalize(demodulate(wav, ref, 0), ref)
    with pytest.raises(ValueError):
        export_constellation(eqf, ref, 0)
    pts = export_constellation(eqf, ref, int(ref.data_idx[10]))
    assert pts.shape == (64,)


def test_evm_needs_enough_symbols(w_plan, w_band):
    cfg = replace(w_band.tx, bits_per_subcarrier=4, n_symbols=16, prbs_seed_state=5)
    wav, ref = build_frame(w_plan, cfg)
    eqf = equalize(demodulate(wav, ref, 0), ref)
    with pytest.raises(ValueError):
        evm_snr(eqf, ref)


def test_band_average_requires_live_subcarriers(d_plan):
    """Every detected SNR is NaN: the finite ones outside D's detect window
    are not the receiver's to average."""
    idx = active_indices(d_plan)
    snr = np.where(np.isin(idx, detected_indices(d_plan)), np.nan, 20.0)
    m = SubcarrierMetrics(indices=idx, freq_hz=subcarrier_centers(d_plan)[idx],
                          snr_db=snr, evm_rms=10.0 ** (-snr / 20.0))
    with pytest.raises(ValueError, match="no available subcarriers"):
        band_average_snr_db(m, d_plan)


def test_phase_tracking_recovers_snr_under_lock_residual(w_plan, w_band):
    """With the locked beat's phase wander riding on the frame, pilot-based
    common-phase removal must buy back >= 3 dB of measured SNR at the
    12 dB operating point (averaged over lock noise seeds).  The seeds are
    independent, so they run on two threads, as a run's bands do."""
    loop = replace(w_band.loop, duration_s=3e-3, initial_freq_error_hz=0.0)

    def gain(seed):
        lock = simulate_lock(w_band.master, w_band.slave, loop, seed=seed)
        cfg = replace(w_band.tx, bits_per_subcarrier=4, n_symbols=6144,
                      prbs_seed_state=(seed % 65535) + 1)
        wav, ref = build_frame(w_plan, cfg)
        rx = apply_carrier(wav, lock.residual_tail(wav.duration_s))
        rx = add_awgn(rx, 12.0, seed=seed + 500, occupied_bw_hz=OCC_W)
        raw = demodulate(rx, ref, 0)
        s_on = band_average_snr_db(evm_snr(equalize(raw, ref), ref), w_plan)
        s_off = band_average_snr_db(evm_snr(equalize(raw, ref, cpe=False), ref), w_plan)
        return s_on - s_off

    with ThreadPoolExecutor(2) as pool:
        gains = np.array(list(pool.map(gain, range(10))))
    assert np.all(gains > 0)
    assert gains.mean() >= 3.0


def test_metrics_csv_round_trip(w_plan, loopback, tmp_path):
    _, wav, ref = loopback
    m = evm_snr(equalize(demodulate(wav, ref, 0), ref), ref)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, m)
    header = path.read_text().splitlines()[0]
    assert header == "index,freq_hz,snr_db,evm_rms"
    back = read_metrics_csv(path, w_plan)
    np.testing.assert_array_equal(back.indices, m.indices)
    np.testing.assert_allclose(back.freq_hz, m.freq_hz, atol=1e-5)
    np.testing.assert_allclose(back.snr_db, m.snr_db, atol=1e-5, equal_nan=True)
    np.testing.assert_allclose(back.evm_rms, m.evm_rms, rtol=1e-8, equal_nan=True)


def test_constellation_csv_format(w_plan, loopback, tmp_path):
    _, wav, ref = loopback
    eqf = equalize(demodulate(wav, ref, 0), ref)
    pts = export_constellation(eqf, ref, int(ref.data_idx[0]))
    path = tmp_path / "const.csv"
    write_constellation_csv(path, pts)
    rows = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert rows.shape == (len(pts), 2)
    np.testing.assert_allclose(rows[:, 0] + 1j * rows[:, 1], pts, atol=1e-8)
