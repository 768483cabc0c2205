"""Scenario execution and artifact writing.

The runner only runs stages in order: every input a stage takes (laser pair,
servo, seeds, converter, frame and channel settings) arrives resolved and
checked in the loaded ``Scenario``.  Per band the chain is: offset-lock the
slave laser, synthesize and clip the frame, ride it on the locked beat's
residual phase, shape it with the band mask, (high band) downconvert through
the multiplied-LO window, add noise at the in-band SNR set point, then
sync/demodulate/equalize, measure EVM, load bits, and price the capacity.

Every artifact is deterministic for a given scenario, so reruns are
byte-identical and the summary can be rebuilt from stored files alone: the
summary builder only ever reads artifacts back, never live objects.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .bandplan import detected_indices
from .bitload import (capacity, load_bits, read_bitload_csv, total_capacity,
                      write_bitload_csv, write_capacity_json, write_threshold_csv)
from .channel import apply_carrier, apply_mask, dband_downconvert
from .noise import add_awgn, estimate_psd, write_psd_csv
from .ofdm_rx import (SyncError, band_average_snr_db, count_bit_errors,
                      demodulate, equalize, evm_snr, export_constellation,
                      read_metrics_csv, synchronize, write_constellation_csv,
                      write_metrics_csv)
from .ofdm_tx import build_frame, clip, papr_db
from .opll import (LOCK_PSD_RBW_HZ, free_running_beat, residual_phase_variance,
                   simulate_lock, write_lock_csv)
from .scenario import BandScenario, Scenario
from .waveform import write_iq, write_json

LOCK_CSV_MAX_ROWS = 4000


def _psd(path, x, rbw_hz: float) -> None:
    f, p = estimate_psd(x, rbw_hz)
    write_psd_csv(path, f, p)


def _lock_stage(band: BandScenario, band_dir: Path, rbw_hz: float) -> tuple:
    """Lock the band's slave laser; writes lock.csv and psd_error.csv.
    Returns the lock result and its summary record."""
    lock = simulate_lock(band.master, band.slave, band.loop, band.lock_seed)
    stride = max(1, len(lock.theta) // LOCK_CSV_MAX_ROWS)
    write_lock_csv(band_dir / "lock.csv", lock, stride=stride)
    _psd(band_dir / "psd_error.csv", lock.phase_error, rbw_hz)
    return lock, {"locked": bool(lock.locked),
                  "cycle_slips": int(lock.cycle_slips),
                  "residual_phase_var_rad2": float(residual_phase_variance(lock))}


def _tx_stage(band: BandScenario, band_dir: Path, rbw_hz: float,
              clip_db: float) -> tuple:
    """Synthesize and clip the band's frame; writes tx.iq and psd_tx.csv.
    Returns (clipped waveform, frame reference, PAPR before and after)."""
    wave, ref = build_frame(band.plan, band.tx)
    clipped = clip(wave, clip_db)
    write_iq(band_dir / "tx.iq", clipped)
    _psd(band_dir / "psd_tx.csv", clipped, rbw_hz)
    return clipped, ref, {"papr_raw_db": float(papr_db(wave)),
                          "papr_clipped_db": float(papr_db(clipped))}


def run_band(scn: Scenario, band: BandScenario, band_dir: Path, rbw_hz: float) -> dict:
    """Run one band end to end, writing its artifacts; returns the chain
    record (also stored as chain.json) with a ``failure`` field of None,
    "lock", or "sync"."""
    band_dir.mkdir(parents=True, exist_ok=True)
    lock, lock_info = _lock_stage(band, band_dir, LOCK_PSD_RBW_HZ)
    record = {
        "band": band.name,
        "failure": None,
        "lock": {**lock_info, "target_offset_hz": lock.config.target_offset_hz},
    }
    if not lock.locked:
        record["failure"] = "lock"
        write_json(band_dir / "chain.json", record)
        return record

    tx_clipped, ref, papr = _tx_stage(band, band_dir, rbw_hz,
                                      band.tx.clip_ratio_db)
    record.update(papr)

    w = apply_carrier(tx_clipped, lock.residual_tail(tx_clipped.duration_s))
    w = apply_mask(w, band.mask)
    if band.downconvert is not None:
        w = dband_downconvert(w, **band.downconvert, decimate=band.tx.oversample)
    det = detected_indices(band.plan)
    occupied = len(det) * band.plan.spacing_hz
    w = add_awgn(w, band.target_snr_db, band.noise_seed, occupied_bw_hz=occupied)
    write_iq(band_dir / "rx.iq", w)
    _psd(band_dir / "psd_rx.csv", w, rbw_hz)

    try:
        offset = synchronize(w, ref)
    except SyncError as e:
        record["failure"] = "sync"
        record["sync_error"] = str(e)
        write_json(band_dir / "chain.json", record)
        return record
    record["sync_offset"] = int(offset)

    raw = demodulate(w, ref, offset)
    eqf = equalize(raw, ref)
    metrics = evm_snr(eqf, ref)
    write_metrics_csv(band_dir / "metrics.csv", metrics)
    errors, total = count_bit_errors(eqf, ref)
    record["bit_errors"] = errors
    record["bits_total"] = total
    record["ber"] = errors / total if total else None

    load_map = load_bits(metrics, scn.fec, band.plan)
    write_bitload_csv(band_dir / "bitload.csv", load_map, band.plan)

    cands = np.intersect1d(det, ref.data_idx)
    show = int(cands[len(cands) // 2])
    record["constellation_subcarrier"] = show
    write_constellation_csv(band_dir / f"constellation_sc{show}.csv",
                            export_constellation(eqf, ref, show))
    write_json(band_dir / "chain.json", record)
    return record


def build_summary(scn: Scenario, out_dir) -> dict:
    """(Re)build summary.json strictly from stored artifacts.

    Also rewrites capacity.json (it is derived from bitload CSVs) before the
    manifest is hashed, so rerunning this on an existing output directory
    reproduces both files byte for byte.
    """
    out = Path(out_dir)
    bands_summary = {}
    reports = {}
    for band in scn.bands:
        bdir = out / f"band_{band.name}"
        chain = json.loads((bdir / "chain.json").read_text())
        entry = {
            "failure": chain["failure"],
            "lock": chain["lock"],
            "papr_raw_db": chain.get("papr_raw_db"),
            "papr_clipped_db": chain.get("papr_clipped_db"),
            "ber": chain.get("ber"),
            "sync_offset": chain.get("sync_offset"),
            "constellation_subcarrier": chain.get("constellation_subcarrier"),
        }
        if chain["failure"] is None:
            metrics = read_metrics_csv(bdir / "metrics.csv")
            entry["avg_snr_db"] = band_average_snr_db(metrics, band.plan)
            load_map = read_bitload_csv(bdir / "bitload.csv")
            rep = capacity(load_map, band.plan, scn.fec, band.tx.cp_fraction)
            entry["capacity"] = rep.to_dict()
            reports[band.name] = rep
        bands_summary[band.name] = entry

    write_capacity_json(out / "capacity.json", reports, scn.fec)
    totals = total_capacity(reports)
    manifest = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "summary.json":
            manifest[p.relative_to(out).as_posix()] = hashlib.sha256(
                p.read_bytes()).hexdigest()
    summary = {
        "description": scn.description,
        "bands": bands_summary,
        "totals": totals,
        "manifest": manifest,
    }
    write_json(out / "summary.json", summary)
    return summary


def run_scenario(scn: Scenario, out_dir, rbw_hz=None):
    """Full chain over all bands.  Returns (summary dict, any_failure)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rbw = rbw_hz if rbw_hz is not None else scn.psd_rbw_hz
    records = [run_band(scn, band, out / f"band_{band.name}", rbw)
               for band in scn.bands]
    write_threshold_csv(out / "thresholds.csv", scn.fec)
    summary = build_summary(scn, out)
    return summary, any(r["failure"] for r in records)


def lock_sim(scn: Scenario, out_dir, rbw_hz=None, free_running: bool = False) -> dict:
    """Servo-only run: lock (or free-run) each band's laser pair and emit
    phase/beat spectra."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rbw = rbw_hz if rbw_hz is not None else LOCK_PSD_RBW_HZ
    info = {}
    for band in scn.bands:
        bdir = out / f"band_{band.name}"
        bdir.mkdir(parents=True, exist_ok=True)
        if free_running:
            beat = free_running_beat(band.master, band.slave, band.loop, band.lock_seed)
            _psd(bdir / "psd_beat.csv", beat, rbw)
            info[band.name] = {"mode": "free-running"}
            continue
        lock, lock_info = _lock_stage(band, bdir, rbw)
        _psd(bdir / "psd_beat.csv", lock.locked_beat, rbw)
        info[band.name] = {"mode": "locked", **lock_info}
    write_json(out / "lock.json", {"bands": info})
    return info


def tx_only(scn: Scenario, out_dir, clip_db=None, rbw_hz=None) -> dict:
    """Waveform synthesis only: frames, clipping, PAPR, spectra."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rbw = rbw_hz if rbw_hz is not None else scn.psd_rbw_hz
    info = {}
    for band in scn.bands:
        bdir = out / f"band_{band.name}"
        bdir.mkdir(parents=True, exist_ok=True)
        ratio = clip_db if clip_db is not None else band.tx.clip_ratio_db
        clipped, _, papr = _tx_stage(band, bdir, rbw, ratio)
        info[band.name] = {
            **papr,
            "clip_ratio_db": float(ratio),
            "n_samples": len(clipped),
            "sample_rate_hz": clipped.sample_rate_hz,
        }
    write_json(out / "tx.json", info)
    return info


def bitload_only(scn: Scenario, band_name: str, snr_csv, out_dir):
    """Load bits from an externally measured SNR profile CSV."""
    band = scn.band(band_name)
    metrics = read_metrics_csv(snr_csv)
    load_map = load_bits(metrics, scn.fec, band.plan)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_bitload_csv(out / "bitload.csv", load_map, band.plan)
    write_threshold_csv(out / "thresholds.csv", scn.fec)
    rep = capacity(load_map, band.plan, scn.fec, band.tx.cp_fraction)
    write_capacity_json(out / "capacity.json", {band.name: rep}, scn.fec)
    return rep
