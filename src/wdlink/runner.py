"""Scenario execution and artifact writing.

The runner only runs stages in order: every input a stage takes (laser pair,
servo, seeds, converter, frame and channel settings) arrives resolved and
checked in the loaded ``Scenario``.  Per band the chain is: offset-lock the
slave laser, synthesize and clip the frame, ride it on the locked beat's
residual phase, shape it with the band mask (on the high band, in the same
transform pair as the downconversion through the multiplied-LO window), add
noise at the in-band SNR set point, then sync (one direct correlation with
the training burst), demodulate, equalize, measure EVM, load bits, and
price the capacity.
Every writing entry point but ``bitload_only`` runs its bands through
``_each_band``, one thread per band: ``run_scenario`` each band's chain
from lock to frame, ``lock_sim`` each band's lock (or free-running beat),
``tx_only`` each band's frame synthesis.  The frame PSDs of ``run_scenario``
and ``tx_only`` are at the scenario's ``psd_rbw_hz``; ``lock_sim`` takes its
own ``rbw_hz``, a lock PSD resolution that is no scenario field.

Every artifact is deterministic for a given scenario, so reruns are
byte-identical and the summary can be rebuilt from stored files alone: the
summary builder only ever reads artifacts back, never live objects.

Each writing entry point (``run_scenario``, ``lock_sim``, ``tx_only``,
``bitload_only``) owns its whole output directory through ``_fresh_out``:
the tree appears under its name complete, or not at all, so the manifest
lists exactly what the run wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from .bandplan import detected_indices
from .bitload import (capacity, load_bits, read_bitload_csv, total_capacity,
                      write_bitload_csv, write_capacity_json, write_threshold_csv)
from .channel import apply_carrier, apply_mask, dband_downconvert
from .noise import add_awgn, estimate_psd, write_psd_csv
from .ofdm_rx import (SyncError, band_average_snr_db, check_centers, check_coverage,
                      count_bit_errors, demodulate, equalize, evm_snr,
                      export_constellation, judged_indices, read_metrics_csv,
                      synchronize, write_constellation_csv, write_metrics_csv)
from .ofdm_tx import build_frame, clip, frame_rate_hz, frame_samples, papr_db
from .opll import (LOCK_PSD_RBW_HZ, free_running_psd, residual_phase_variance,
                   simulate_lock, write_lock_csv)
from .scenario import BandScenario, Scenario
from .waveform import write_iq, write_json


class OutDirError(Exception):
    """The output directory is taken: it is a file or holds files."""


@contextmanager
def _fresh_out(out_dir):
    """Give the body a fresh sibling ``<out_dir>.partial-<pid>`` to write
    into, and rename it to ``out_dir`` when the body returns.  Refuses, with
    ``OutDirError``, an ``out_dir`` that exists and is not an empty
    directory, and the working directory itself, which the rename would
    delete from under the caller; removes the sibling if the body raises,
    interrupt included."""
    out = Path(os.path.abspath(out_dir))
    if out.exists() and not (out.is_dir() and not any(out.iterdir())):
        raise OutDirError(f"{out_dir} exists and is not an empty directory")
    if out.exists() and os.path.samefile(out, os.curdir):
        raise OutDirError(f"{out_dir} is the working directory, which the "
                          "finished tree would replace")
    partial = out.with_name(f"{out.name}.partial-{os.getpid()}")
    partial.mkdir(parents=True)
    try:
        yield partial
        os.replace(partial, out)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise


def _band_dir(out: Path, band: BandScenario) -> Path:
    bdir = out / f"band_{band.name}"
    bdir.mkdir()
    return bdir


def _lock_stage(band: BandScenario, band_dir: Path, rbw_hz: float) -> tuple:
    """Lock the band's slave laser; writes lock.csv and psd_error.csv.
    Returns the lock result and its summary record."""
    lock = simulate_lock(band.master, band.slave, band.loop, band.lock_seed)
    write_lock_csv(band_dir / "lock.csv", lock)
    write_psd_csv(band_dir / "psd_error.csv", *lock.error_psd(rbw_hz))
    return lock, {"locked": bool(lock.locked),
                  "cycle_slips": int(lock.cycle_slips),
                  "residual_phase_var_rad2": float(residual_phase_variance(lock))}


def _frame_lock_stage(band: BandScenario, band_dir: Path) -> tuple:
    """A run's lock stage: ``_lock_stage`` at the lock PSD resolution.
    Returns the band's lock record and, when locked, the residual phase
    that its frame will ride on (None otherwise).  The tail is cut here, so
    the full lock record is freed before the band's frame path runs."""
    lock, lock_info = _lock_stage(band, band_dir, LOCK_PSD_RBW_HZ)
    lock_info["target_offset_hz"] = lock.config.target_offset_hz
    if not lock.locked:
        return lock_info, None
    tx = band.tx
    duration_s = frame_samples(band.plan, tx, tx.oversample) / frame_rate_hz(band.plan, tx)
    return lock_info, lock.residual_tail(duration_s)


def _tx_stage(band: BandScenario, band_dir: Path, rbw_hz: float) -> tuple:
    """Synthesize the band's frame and clip it at its ``clip_ratio_db``;
    writes tx.iq and psd_tx.csv.  Returns (clipped waveform, frame
    reference, PAPR before and after)."""
    wave, ref = build_frame(band.plan, band.tx)
    papr_raw_db = papr_db(wave)
    clipped = clip(wave, band.tx.clip_ratio_db)
    del wave   # the unclipped frame is done with once its PAPR is taken
    write_iq(band_dir / "tx.iq", clipped)
    write_psd_csv(band_dir / "psd_tx.csv", *estimate_psd(clipped, rbw_hz))
    return clipped, ref, {"papr_raw_db": float(papr_raw_db),
                          "papr_clipped_db": float(papr_db(clipped))}


def run_band(scn: Scenario, band: BandScenario, band_dir: Path) -> dict:
    """Run one band from lock to frame: its lock stage
    (``_frame_lock_stage``), then, when locked, its frame path, writing its
    artifacts; returns the chain record (also stored as chain.json) with a
    ``failure`` field of None, "lock", or "sync"."""
    lock_info, residual = _frame_lock_stage(band, band_dir)
    record = {"band": band.name, "failure": None, "lock": lock_info}
    if residual is None:
        record["failure"] = "lock"
        write_json(band_dir / "chain.json", record)
        return record

    tx_clipped, ref, papr = _tx_stage(band, band_dir, scn.psd_rbw_hz)
    record.update(papr)

    w = apply_carrier(tx_clipped, residual)
    del tx_clipped   # freed before the channel's full-length transforms
    if band.downconvert is None:
        w = apply_mask(w, band.mask)
    else:
        w = dband_downconvert(w, band.mask, **band.downconvert)
    occupied = len(detected_indices(band.plan)) * band.plan.spacing_hz
    w = add_awgn(w, band.target_snr_db, band.noise_seed, occupied_bw_hz=occupied)
    write_iq(band_dir / "rx.iq", w)
    write_psd_csv(band_dir / "psd_rx.csv", *estimate_psd(w, scn.psd_rbw_hz))

    try:
        offset = synchronize(w, ref)
    except SyncError as e:
        record["failure"] = "sync"
        record["sync_error"] = str(e)
        write_json(band_dir / "chain.json", record)
        return record
    record["sync_offset"] = int(offset)

    raw = demodulate(w, ref, offset)
    del w   # the received record is done with once demodulated
    eqf = equalize(raw, ref)
    metrics = evm_snr(eqf, ref)
    write_metrics_csv(band_dir / "metrics.csv", metrics)
    errors, total = count_bit_errors(eqf, ref)
    record["bit_errors"] = errors
    record["bits_total"] = total
    record["ber"] = errors / total if total else None

    load_map = load_bits(metrics, scn.fec, band.plan)
    write_bitload_csv(band_dir / "bitload.csv", load_map, band.plan)

    cands = judged_indices(band.plan, ref.pilot_idx)
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
    reproduces both files byte for byte.  A ``metrics.csv`` whose rows are
    not the plan's active subcarriers, each at its center, is refused
    before either file is written.
    """
    out = Path(out_dir)
    bands_summary = {}
    reports = {}
    for band in scn.bands:
        bdir = out / f"band_{band.name}"
        chain_path = bdir / "chain.json"
        try:
            chain = json.loads(chain_path.read_text())
            entry = {
                "failure": chain["failure"],
                "lock": chain["lock"],
                "papr_raw_db": chain.get("papr_raw_db"),
                "papr_clipped_db": chain.get("papr_clipped_db"),
                "ber": chain.get("ber"),
                "sync_offset": chain.get("sync_offset"),
                "constellation_subcarrier": chain.get("constellation_subcarrier"),
            }
        except ValueError as e:   # not JSON, or not text
            raise ValueError(f"{chain_path}: {e}") from None
        except KeyError as e:
            raise ValueError(f"{chain_path}: missing field {e}") from None
        except TypeError:
            raise ValueError(f"{chain_path}: expected a JSON object") from None
        if chain["failure"] is None:
            metrics = read_metrics_csv(bdir / "metrics.csv", band.plan)
            check_centers(bdir / "metrics.csv", metrics, band.plan)
            check_coverage(bdir / "metrics.csv", metrics, band.plan)
            entry["avg_snr_db"] = band_average_snr_db(metrics, band.plan)
            load_map = read_bitload_csv(bdir / "bitload.csv")
            rep = capacity(load_map, band.plan, scn.fec, band.tx.cp_fraction)
            entry["capacity"] = asdict(rep)
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


@contextmanager
def _each_band(scn: Scenario, out_dir, band_fn):
    """Under ``_fresh_out(out_dir)``, run ``band_fn(band, band_dir)`` for
    every band of ``scn``, one thread per band, and give the body the fresh
    tree and the bands' results by band name, in band order.

    The bands share no mutable state (the servo's block plan is computed
    once and read only) and write separate directories, so the artifacts
    are the same as from running the bands in turn.  The pool has a thread
    for every band, so all bands are running by the time one can fail; none
    is cancelled.  An exception from a band, or an interrupt, is raised
    once every running band has finished, the first band's exception
    first, and leaves no tree."""
    # imported here: it costs several ms of every ``import wdlink.cli``
    from concurrent.futures import ThreadPoolExecutor

    with _fresh_out(out_dir) as out:
        dirs = [_band_dir(out, band) for band in scn.bands]
        with ThreadPoolExecutor(max_workers=len(scn.bands)) as pool:
            futures = [pool.submit(band_fn, band, bdir) for band, bdir in zip(scn.bands, dirs)]
            results = [f.result() for f in futures]
        yield out, {band.name: r for band, r in zip(scn.bands, results)}


def run_scenario(scn: Scenario, out_dir):
    """Full chain over all bands.  Returns (summary dict, any_failure).

    Each band runs from its lock stage to the end of its frame path
    (``run_band``) on its own thread (``_each_band``)."""
    with _each_band(scn, out_dir, lambda band, bdir: run_band(scn, band, bdir)) \
            as (out, records):
        write_threshold_csv(out / "thresholds.csv", scn.fec)
        summary = build_summary(scn, out)
    return summary, any(r["failure"] for r in records.values())


def lock_sim(scn: Scenario, out_dir, rbw_hz=None, free_running: bool = False) -> dict:
    """Servo-only run: lock (or free-run) each band's laser pair and emit
    phase/beat spectra, each band on its own thread (``_each_band``)."""
    rbw = rbw_hz if rbw_hz is not None else LOCK_PSD_RBW_HZ

    def lock_band(band, bdir):
        if free_running:
            write_psd_csv(bdir / "psd_beat.csv", *free_running_psd(
                band.master, band.slave, band.loop, band.lock_seed, rbw))
            return {"mode": "free-running"}
        lock, lock_info = _lock_stage(band, bdir, rbw)
        beat_psd = lock.beat_psd(rbw)
        del lock   # the record is freed while the other band may still lock
        write_psd_csv(bdir / "psd_beat.csv", *beat_psd)
        return {"mode": "locked", **lock_info}

    with _each_band(scn, out_dir, lock_band) as (out, info):
        write_json(out / "lock.json", {"bands": info})
    return info


def tx_only(scn: Scenario, out_dir) -> dict:
    """Waveform synthesis only: frames, clipping, PAPR, spectra, each band
    on its own thread (``_each_band``)."""
    def tx_band(band, bdir):
        clipped, _, papr = _tx_stage(band, bdir, scn.psd_rbw_hz)
        return {**papr,
                "clip_ratio_db": float(band.tx.clip_ratio_db),
                "n_samples": len(clipped),
                "sample_rate_hz": clipped.sample_rate_hz}

    with _each_band(scn, out_dir, tx_band) as (out, info):
        write_json(out / "tx.json", info)
    return info


def bitload_only(scn: Scenario, band_name: str, snr_csv, out_dir):
    """Load bits from an externally measured SNR profile CSV."""
    band = scn.band(band_name)
    with _fresh_out(out_dir) as out:
        metrics = read_metrics_csv(snr_csv, band.plan)
        load_map = load_bits(metrics, scn.fec, band.plan)
        write_bitload_csv(out / "bitload.csv", load_map, band.plan)
        write_threshold_csv(out / "thresholds.csv", scn.fec)
        rep = capacity(load_map, band.plan, scn.fec, band.tx.cp_fraction)
        write_capacity_json(out / "capacity.json", {band.name: rep}, scn.fec)
    return rep
