"""PRBS source, constellation tables, frame synthesis, clipping, PAPR."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from oracles import lfsr_bits
from wdlink.bandplan import BandPlan
from wdlink.channel import dband_downconvert
from wdlink.ofdm_tx import (
    CONSTELLATIONS,
    PRBS_TAPS,
    SUPPORTED_ORDERS,
    analyze_time,
    build_frame,
    clip,
    cp_length,
    demap_qam,
    frame_rate_hz,
    frame_samples,
    gen_prbs,
    map_qam,
    papr_db,
    pilot_indices,
    synth_time,
)
from wdlink.waveform import CHUNK, ComplexWaveform

# first 40 output bits for taps x^17+x^14+1, seed 0x1FFFF, register LSB first;
# frozen from the scalar oracle before the vectorized generator existed
GOLDEN_PRBS17_40 = "1111111111111111100000000000000111000000"
ORDER, SEED = 17, 0x1FFFF

PERIOD = 2**17 - 1

MIN_DIST = {
    1: 2.0,
    2: 2.0 / math.sqrt(2.0),
    3: 2.0 / math.sqrt(6.0),
    4: 2.0 / math.sqrt(10.0),
    5: 2.0 / math.sqrt(20.0),
    6: 2.0 / math.sqrt(42.0),
}


def nn_edges(points):
    """Indices of nearest-neighbour pairs in a constellation."""
    d = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(d, np.inf)
    dmin = d.min()
    i, j = np.nonzero(np.isclose(d, dmin, rtol=1e-9))
    return [(a, b) for a, b in zip(i, j) if a < b], dmin


def test_prbs_golden_vector():
    golden = np.array([int(c) for c in GOLDEN_PRBS17_40], dtype=np.uint8)
    assert np.array_equal(lfsr_bits(40), golden)
    assert np.array_equal(gen_prbs(40, ORDER, SEED), golden)


def test_prbs_matches_oracle_deep():
    n = 4096
    assert np.array_equal(gen_prbs(n, ORDER, SEED), lfsr_bits(n))


@pytest.mark.parametrize("order", sorted(PRBS_TAPS))
def test_prbs_lag_doubling_matches_oracle(order):
    """Doubled lags reproduce the bit-by-bit register at every length,
    including those just around the register length."""
    seed = 0x1FFFF & ((1 << order) - 1)
    ref = lfsr_bits(100_003, order=order, taps=PRBS_TAPS[order], seed_state=seed)
    for n in (1, order - 1, order, order + 1, 1000, 4097, 100_003):
        assert np.array_equal(gen_prbs(n, order=order, seed_state=seed), ref[:n]), n


def test_prbs_period_exact():
    seq = gen_prbs(2 * PERIOD + 64, ORDER, SEED)
    assert np.array_equal(seq[:PERIOD], seq[PERIOD : 2 * PERIOD])
    # no shorter cycle: the period is prime, so spot checks suffice
    head = seq[:4096]
    for shift in (1, 17, 65535, PERIOD - 1):
        assert not np.array_equal(head, seq[shift : shift + 4096])


def test_prbs_balance():
    seq = gen_prbs(PERIOD, ORDER, SEED)
    ones = int(np.sum(seq))
    assert ones - (PERIOD - ones) == 1


def test_prbs_never_all_zero_state():
    # 17 consecutive zeros would mean the register died
    seq = gen_prbs(PERIOD, ORDER, SEED)
    runs = np.convolve(1 - seq, np.ones(17, dtype=int), mode="valid")
    assert int(runs.max()) < 17


def test_prbs_seed_and_order_validation():
    with pytest.raises(ValueError):
        gen_prbs(8, ORDER, seed_state=0)
    with pytest.raises(ValueError):
        gen_prbs(8, order=8, seed_state=SEED)
    with pytest.raises(ValueError):
        gen_prbs(0, ORDER, SEED)
    alt = gen_prbs(64, ORDER, seed_state=0x00001)
    assert not np.array_equal(alt, gen_prbs(64, ORDER, SEED))


@pytest.mark.parametrize("order, seed_state, match", [
    (8, SEED, "unsupported PRBS order 8"),
    (ORDER, 0, "nonzero 17-bit"),
    (ORDER, 2**17, "nonzero 17-bit"),
    (ORDER, -1, "nonzero 17-bit"),   # no longer masked to 0x1FFFF
])
def test_tx_config_owns_the_prbs_register_rule(w_band, order, seed_state, match):
    """TxConfig refuses the register gen_prbs would refuse, so a scenario's
    bad register fails at load rather than in build_frame."""
    with pytest.raises(ValueError, match=match):
        replace(w_band.tx, prbs_order=order, prbs_seed_state=seed_state)
    with pytest.raises(ValueError, match=match):
        gen_prbs(8, order, seed_state)


@pytest.mark.parametrize("order", sorted(SUPPORTED_ORDERS))
def test_constellation_energy_and_size(order):
    table = CONSTELLATIONS[order]
    assert table.size == 2**order
    assert np.mean(np.abs(table) ** 2) == pytest.approx(1.0, abs=1e-12)
    # all points distinct
    assert len(np.unique(np.round(table, 9))) == table.size


@pytest.mark.parametrize("order", sorted(SUPPORTED_ORDERS))
def test_constellation_min_distance(order):
    _, dmin = nn_edges(CONSTELLATIONS[order])
    assert dmin == pytest.approx(MIN_DIST[order], rel=1e-9)


def test_bpsk_convention():
    assert map_qam(np.array([0], np.uint8), 1)[0] == pytest.approx(-1.0)
    assert map_qam(np.array([1], np.uint8), 1)[0] == pytest.approx(1.0)
    assert np.all(np.isreal(CONSTELLATIONS[1]))


def test_16qam_corner_labels():
    s = math.sqrt(10.0)
    got = map_qam(np.array([0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1], np.uint8), 4)
    assert got[0] == pytest.approx((-3 - 3j) / s)
    assert got[1] == pytest.approx((3 + 3j) / s)
    assert got[2] == pytest.approx((1 - 1j) / s)


def test_8qam_is_rectangular():
    pts = CONSTELLATIONS[3] * math.sqrt(6.0)
    assert set(np.round(pts.real).astype(int)) == {-3, -1, 1, 3}
    assert set(np.round(pts.imag).astype(int)) == {-1, 1}
    got = map_qam(np.array([0, 0, 0, 1, 0, 1], np.uint8), 3)
    assert got[0] == pytest.approx((-3 - 1j) / math.sqrt(6.0))
    assert got[1] == pytest.approx((3 + 1j) / math.sqrt(6.0))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
def test_gray_adjacency_strict(order):
    """Square and rectangular tables: every nearest-neighbour step flips
    exactly one bit."""
    table = CONSTELLATIONS[order]
    edges, _ = nn_edges(table)
    for a, b in edges:
        assert bin(a ^ b).count("1") == 1


def test_cross32_gray_budget():
    """No perfect Gray labelling exists on the 32 cross; the committed table
    spends 60 bit flips on its 52 nearest-neighbour edges."""
    edges, _ = nn_edges(CONSTELLATIONS[5])
    assert len(edges) == 52
    total = sum(bin(a ^ b).count("1") for a, b in edges)
    assert total == 60


@pytest.mark.parametrize("order", sorted(SUPPORTED_ORDERS))
def test_map_demap_round_trip(order):
    rng = np.random.default_rng(order)
    bits = rng.integers(0, 2, size=order * 1024).astype(np.uint8)
    syms = map_qam(bits, order)
    assert np.array_equal(demap_qam(syms, order), bits)
    # nearest-point slicing survives mild noise
    noisy = syms + 0.01 * (rng.normal(size=syms.size) + 1j * rng.normal(size=syms.size))
    assert np.array_equal(demap_qam(noisy, order), bits)


def test_map_validation():
    with pytest.raises(ValueError):
        map_qam(np.zeros(12, np.uint8), 7)
    with pytest.raises(ValueError):
        map_qam(np.zeros(13, np.uint8), 4)


def test_tx_config_validation(w_band):
    with pytest.raises(ValueError):
        replace(w_band.tx, n_symbols=0)
    with pytest.raises(ValueError):
        replace(w_band.tx, cp_fraction=0.5)
    with pytest.raises(ValueError):
        replace(w_band.tx, cp_fraction=-0.1)
    with pytest.raises(ValueError):
        replace(w_band.tx, oversample=0)
    with pytest.raises(ValueError):
        replace(w_band.tx, clip_ratio_db=0.0)
    with pytest.raises(ValueError):
        replace(w_band.tx, bits_per_subcarrier=7)
    # a frame carries one order: a per-subcarrier map is refused, by name
    with pytest.raises(ValueError, match=r"bits_per_subcarrier must be one of .*got array"):
        replace(w_band.tx, bits_per_subcarrier=np.full(256, 4))


def test_pilot_spacing(w_plan):
    assert pilot_indices(w_plan, 8).tolist() == [16, 48, 80, 112, 144, 176, 208, 240]


def test_pilot_rejections_name_their_cause(w_plan):
    with pytest.raises(ValueError, match="n_pilots must be non-negative"):
        pilot_indices(w_plan, -1)
    # 8 pilots on 8 subcarriers round onto 0, 2, 2, 4, ...: no nulls involved
    with pytest.raises(ValueError, match="pilot grid collides with itself"):
        pilot_indices(BandPlan("x", 1e9, 8, 1e6), 8)
    with pytest.raises(ValueError, match="pilot grid collides with null subcarriers"):
        pilot_indices(BandPlan("x", 1e9, 256, 1e6, null_indices={16}), 8)


def test_synth_single_subcarrier_tone():
    grid = np.zeros((1, 256), dtype=complex)
    grid[0, 200] = 1.0
    x = synth_time(grid, 2, 0)
    n = np.arange(512)
    # subcarrier 200 sits 72.5 bins above the center of a 512-point comb
    expect = np.exp(2j * np.pi * (200 - 128 + 0.5) * n / 512)
    assert np.max(np.abs(x - expect)) < 1e-11


def test_cyclic_prefix_is_antiperiodic():
    rng = np.random.default_rng(0)
    grid = (rng.normal(size=(3, 256)) + 1j * rng.normal(size=(3, 256)))
    x = synth_time(grid, 2, 8).reshape(3, 520)
    for row in x:
        assert np.allclose(row[:8], -row[-8:], atol=1e-12)


@pytest.mark.parametrize("oversample, cp_len", [(1, 0), (2, 8), (3, 5)])
def test_analyze_time_inverts_synth_time(oversample, cp_len):
    rng = np.random.default_rng(oversample)
    grid = rng.normal(size=(3, 256)) + 1j * rng.normal(size=(3, 256))
    x = synth_time(grid, oversample, cp_len)
    assert x.size == 3 * (256 * oversample + cp_len)
    back = analyze_time(x, 256, oversample, cp_len)
    assert np.max(np.abs(back - grid)) < 1e-12


@pytest.mark.parametrize("oversample, cp_len", [(1, 0), (2, 8), (3, 5)])
def test_synth_and_analyze_in_place_match_the_out_of_place_form(oversample, cp_len):
    """The preallocated and in-place transforms round exactly as the plain
    expressions they replace."""
    rng = np.random.default_rng(10 + oversample)
    grid = rng.normal(size=(5, 256)) + 1j * rng.normal(size=(5, 256))
    nfft = 256 * oversample
    bins = (np.arange(256) - 128) % nfft
    ramp = np.exp(1j * np.pi * np.arange(nfft) / nfft)
    spec = np.zeros((5, nfft), dtype=complex)
    spec[:, bins] = grid
    body = np.fft.ifft(spec, axis=1) * nfft
    body *= ramp[None, :]
    if cp_len:
        body = np.concatenate([-body[:, -cp_len:], body], axis=1)
    x = synth_time(grid, oversample, cp_len)
    assert np.array_equal(x, body.ravel())
    blocks = x.reshape(-1, nfft + cp_len)[:, cp_len:] * np.conj(ramp)[None, :]
    want = (np.fft.fft(blocks, axis=1) / nfft)[:, bins]
    assert np.array_equal(analyze_time(x, 256, oversample, cp_len), want)


@pytest.mark.parametrize("n_symbols, oversample, cp_fraction",
                         [(64, 2, 1 / 64), (6144, 2, 1 / 64), (33, 3, 5 / 256), (40, 1, 0.0)])
def test_frame_samples_and_rate_describe_the_built_frame(w_plan, d_plan, w_band, d_band,
                                                         n_symbols, oversample, cp_fraction):
    for plan in (w_plan, d_plan):
        cfg = replace(w_band.tx, n_symbols=n_symbols, oversample=oversample,
                      cp_fraction=cp_fraction)
        wav, ref = build_frame(plan, cfg)
        assert ref.tx == cfg
        assert frame_samples(plan, cfg, oversample) == len(wav)
        assert frame_rate_hz(plan, cfg) == wav.sample_rate_hz
        # what the lock stage cuts its residual tail to, before the frame exists
        assert frame_samples(plan, cfg, oversample) / frame_rate_hz(plan, cfg) == wav.duration_s
    # band D's received record, decimated to one sample per subcarrier
    rx = dband_downconvert(wav, d_band.mask, **dict(d_band.downconvert, decimate=oversample))
    assert frame_samples(d_plan, cfg, 1) == len(rx)


def test_cp_length_scales_or_refuses(w_plan, w_band):
    cfg = replace(w_band.tx, n_symbols=8)
    assert [cp_length(w_plan, cfg, oversample) for oversample in (1, 2, 4)] == [4, 8, 16]
    odd = replace(cfg, cp_fraction=5 / 512)
    wav, _ = build_frame(w_plan, odd)
    assert cp_length(w_plan, odd, 2) == 5 and len(wav) == 12 * (512 + 5)
    for geometry in (cp_length, frame_samples):
        with pytest.raises(ValueError, match="cyclic prefix does not survive"):
            geometry(w_plan, odd, 1)


def test_frame_shape_and_normalization(w_plan, w_band):
    frame, ref = build_frame(w_plan, w_band.tx)
    assert frame.sample_rate_hz == 512 * w_plan.spacing_hz == 70e9
    assert frame.anchor_hz == w_plan.center_hz
    assert frame.samples.size == (4 + 64) * (512 + 8)
    rms = math.sqrt(np.mean(np.abs(frame.samples) ** 2))
    assert rms == pytest.approx(1.0, abs=1e-9)
    assert ref.tx == w_band.tx and cp_length(w_plan, ref.tx, 2) == 8
    assert ref.grid.shape == (68, 256)
    assert ref.training_grid.shape == (4, 256)
    assert ref.payload_grid.shape == (64, 256)


def test_frame_power_invariant_to_length(w_plan, w_band):
    for n_sym in (8, 64, 128):
        frame, _ = build_frame(w_plan, replace(w_band.tx, n_symbols=n_sym))
        assert np.mean(np.abs(frame.samples) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_null_subcarriers_silent(w_plan, w_band):
    frame, ref = build_frame(w_plan, replace(w_band.tx, n_symbols=16))
    assert np.all(ref.grid[:, 0] == 0) and np.all(ref.grid[:, 255] == 0)
    # measure per-subcarrier power straight off the air: nulls must sit
    # 40 dB (in fact: numerically at zero) below the data subcarriers
    sym = frame.samples.reshape(20, 520)[:, 8:]
    sym = sym * np.exp(-1j * np.pi * np.arange(512) / 512)[None, :]
    spec = np.fft.fft(sym, axis=1) / 512
    bins = (np.arange(256) - 128) % 512
    power = np.mean(np.abs(spec[:, bins]) ** 2, axis=0)
    data_power = np.median(power[ref.data_idx])
    assert power[0] < 1e-4 * data_power
    assert power[255] < 1e-4 * data_power


def test_frame_reference_layout(w_plan, w_band):
    _, ref = build_frame(w_plan, w_band.tx)
    assert not set(ref.data_idx.tolist()) & set(ref.pilot_idx.tolist())
    assert not set(ref.data_idx.tolist()) & w_plan.null_indices
    assert ref.data_idx.size == 246
    assert ref.tx.bits_per_subcarrier == 4
    non_null = np.setdiff1d(np.arange(256), sorted(w_plan.null_indices))
    assert np.array_equal(ref.active_idx, non_null)
    assert np.array_equal(ref.active_idx, np.union1d(ref.data_idx, ref.pilot_idx))
    assert np.all(ref.grid[:, sorted(w_plan.null_indices)] == 0)
    # payload bit bookkeeping: 64 symbols x 4 bits per data subcarrier
    assert set(ref.payload_bits) == set(ref.data_idx.tolist())
    assert all(v.size == 64 * 4 for v in ref.payload_bits.values())
    # pilots are unit-magnitude known symbols
    assert np.allclose(np.abs(ref.payload_grid[:, ref.pilot_idx]), 1.0)


def _reference_by_role(plan, cfg, ref):
    """The frame's grid and payload bits built from its PRBS stream with
    ``map_qam`` per role and zeros at nulls, as a complex grid."""
    b = cfg.bits_per_subcarrier
    n_train, n_pay = cfg.n_training, cfg.n_symbols
    p_idx, d_idx, active = ref.pilot_idx, ref.data_idx, ref.active_idx
    need_train = 2 * len(active) * n_train
    per_sym = 2 * len(p_idx) + b * len(d_idx)
    stream = gen_prbs(need_train + per_sym * n_pay, cfg.prbs_order, cfg.prbs_seed_state)
    grid = np.zeros((n_train + n_pay, plan.n_subcarriers), dtype=complex)
    grid[:n_train, active] = map_qam(stream[:need_train], 2).reshape(n_train, -1)
    block = stream[need_train:].reshape(n_pay, per_sym)
    grid[n_train:, p_idx] = map_qam(block[:, : 2 * len(p_idx)].ravel(), 2).reshape(n_pay, -1)
    data = block[:, 2 * len(p_idx):]
    grid[n_train:, d_idx] = map_qam(data.ravel(), b).reshape(n_pay, -1)
    bits = {int(i): data[:, k * b:(k + 1) * b].ravel() for k, i in enumerate(d_idx)}
    return grid, bits


@pytest.mark.parametrize("order", sorted(SUPPORTED_ORDERS))
def test_frame_labels_give_the_per_role_grid_and_bits(w_plan, w_band, order):
    cfg = replace(w_band.tx, n_symbols=12, bits_per_subcarrier=order)
    _, ref = build_frame(w_plan, cfg)
    grid, bits = _reference_by_role(w_plan, cfg, ref)
    assert np.array_equal(ref.grid, grid)
    assert np.array_equal(ref.training_grid, grid[:cfg.n_training])
    assert np.array_equal(ref.payload_grid, grid[cfg.n_training:])
    got = ref.payload_bits
    assert list(got) == list(bits)
    for i, sent in bits.items():
        assert got[i].dtype == np.uint8 and np.array_equal(got[i], sent)


def test_frame_reference_holds_labels_not_a_complex_grid(w_plan, w_band):
    _, ref = build_frame(w_plan, replace(w_band.tx, n_symbols=64, bits_per_subcarrier=6))
    assert ref.symbols.dtype == np.uint8 and len(ref.alphabet) == 1 + 4 + 64
    arrays = [getattr(ref, f.name) for f in fields(ref)]
    held = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    assert held <= 2 * ref.symbols.size


def test_frame_determinism(w_plan, w_band):
    a, ra = build_frame(w_plan, w_band.tx)
    b, rb = build_frame(w_plan, w_band.tx)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(ra.grid, rb.grid)
    c, _ = build_frame(w_plan, replace(w_band.tx, prbs_seed_state=0x00777))
    assert not np.array_equal(a.samples, c.samples)


def test_occupied_bandwidth_psd(w_plan, w_band):
    from wdlink.noise import estimate_psd

    frame, _ = build_frame(w_plan, replace(w_band.tx, n_symbols=256))
    freqs, psd = estimate_psd(frame, w_plan.spacing_hz / 4)
    floor = np.median(psd[np.abs(freqs - frame.anchor_hz) < 10e9])
    above = freqs[psd >= 0.1 * floor]
    span = above.max() - above.min()
    assert abs(span - 254 * w_plan.spacing_hz) <= 1.5 * w_plan.spacing_hz
    assert span <= 35e9 + w_plan.spacing_hz


def test_clip_bounds_papr(w_plan, w_band):
    frame, _ = build_frame(w_plan, w_band.tx)
    for ratio in (6.0, 8.0, 10.0):
        clipped = clip(frame, ratio)
        assert papr_db(clipped) <= ratio + 0.1


def test_clip_no_op_below_threshold():
    t = np.arange(4096) / 1e9
    tone = ComplexWaveform(np.exp(2j * np.pi * 1e6 * t), 1e9)
    out = clip(tone, 3.0)
    assert np.array_equal(out.samples, tone.samples)
    with pytest.raises(ValueError):
        clip(tone, -1.0)
    with pytest.raises(ValueError, match="finite limit"):   # 10^(1e308/20) overflows
        clip(tone, 1e308)


def test_clip_across_chunk_boundaries_is_the_whole_array_formula():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2 * CHUNK + 1) + 1j * rng.standard_normal(2 * CHUNK + 1)
    x[[CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK]] *= 10.0   # over the limit on both sides
    w = ComplexWaveform(x, 1e9)
    limit = math.sqrt(float(np.mean(np.abs(x) ** 2))) * 10.0 ** (6.0 / 20.0)
    mag = np.abs(x)
    over = mag > limit
    assert over[[CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK]].all()
    want = x.copy()
    want[over] *= limit / mag[over]
    got = clip(w, 6.0)
    assert got.samples.tobytes() == want.tobytes()
    assert np.array_equal(w.samples, x)   # the input is not written


@pytest.mark.parametrize("stage, copied", [
    (papr_db, 0),
    (lambda w: w.power, 0),
    (lambda w: clip(w, 3.0), 1),
])
def test_power_takes_no_frame_sized_array(stage, copied):
    """papr_db, the waveform's power and clip (which clips here) trace at
    most two CHUNKs of complex samples beyond ``copied`` copies of the
    frame: a frame-sized |x|^2 array would be four CHUNKs on its own."""
    n = 8 * CHUNK
    rng = np.random.default_rng(8)
    w = ComplexWaveform(rng.standard_normal(n) + 1j * rng.standard_normal(n), 1e9)
    tracemalloc.start()
    try:
        out = stage(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if copied:
        assert out is not w
    assert peak - copied * 16 * n < 2 * CHUNK * 16


def test_papr_is_the_squared_magnitude_formula(w_plan, w_band):
    frame, _ = build_frame(w_plan, w_band.tx)
    p = np.abs(frame.samples) ** 2
    assert papr_db(frame) == 10.0 * math.log10(float(np.max(p)) / float(np.mean(p)))


def test_clip_preserves_phase(w_plan, w_band):
    frame, _ = build_frame(w_plan, w_band.tx)
    clipped = clip(frame, 6.0)
    moved = np.abs(clipped.samples) < np.abs(frame.samples) - 1e-12
    assert np.any(moved)
    ph_in = np.angle(frame.samples[moved])
    ph_out = np.angle(clipped.samples[moved])
    assert np.allclose(ph_in, ph_out, atol=1e-9)


def test_papr_pure_tone():
    t = np.arange(8192) / 1e9
    tone = ComplexWaveform(np.exp(2j * np.pi * 2e6 * t), 1e9)
    assert abs(papr_db(tone)) < 1e-9


def test_papr_two_tones():
    n, fs = 1 << 14, 1e9
    t = np.arange(n) / fs
    f1, f2 = 4 * fs / n, 64 * fs / n
    w = ComplexWaveform(np.exp(2j * np.pi * f1 * t) + np.exp(2j * np.pi * f2 * t), fs)
    assert papr_db(w) == pytest.approx(10 * math.log10(2.0), abs=1e-6)


def test_papr_zero_waveform_rejected():
    for n in (16, 0):
        with pytest.raises(ValueError, match="all-zero"):
            papr_db(ComplexWaveform(np.zeros(n, dtype=complex), 1e9))


def test_frame_papr_sane_range(w_plan, w_band):
    frame, _ = build_frame(w_plan, w_band.tx)
    assert 9.0 <= papr_db(frame) <= 13.5
