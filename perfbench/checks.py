"""Output checks for the benchmark's workloads.

Every check returns a list of problems, empty when the output is right. The
checks re-derive what they test from the scenario, from the band plans the
paper fixes, or from a property the method must have. None compares against
stored copies of earlier output, and none imports wdlink.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

N_SUBCARRIERS = 256
NULL_INDICES = frozenset({0, N_SUBCARRIERS - 1})
# The two band plans: 256 subcarriers tiling 75-110 GHz (W) and 110-150 GHz
# (D); the D receiver converter passes only 133-150 GHz.
BAND_PLANS = {
    "W": {"center_hz": 92.5e9, "spacing_hz": 35e9 / 256, "detect_hz": (75e9, 110e9)},
    "D": {"center_hz": 130e9, "spacing_hz": 40e9 / 256, "detect_hz": (133e9, 150e9)},
}
FEC_BER_THRESHOLD = 0.022
SNR_TOL_DB = 0.5
PAPR_MAX_DB = 10.1
BER_MODEL_REL_TOL = 0.15
WIENER_TOL_DB = 1.0
WIENER_BAND_HZ = (2e6, 5e6)
BEAT_POWER_REL_TOL = 0.02
SERVO_BUMP_HZ = (50e3, 200e3)
SERVO_SEARCH_HZ = (20e3, 2e6)
REL_EQ = 1e-9


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digest(out: Path) -> dict:
    """Relative path -> sha256 of every file under ``out``."""
    return {p.relative_to(out).as_posix(): sha256_file(p)
            for p in sorted(out.rglob("*")) if p.is_file()}


def fingerprint(out: Path) -> bytes:
    """Bytes that change whenever any output file changes: summary.json,
    whose manifest check_manifest verifies, or else a digest of the tree."""
    summary = out / "summary.json"
    if summary.exists():
        return summary.read_bytes()
    return json.dumps(tree_digest(out)).encode()


def check_rerun(out: Path, first: bytes) -> list:
    """A repeat of a checked unit must write byte-identical output, so the
    full checks need not run again."""
    problems = check_manifest(out) if (out / "summary.json").exists() else []
    if fingerprint(out) != first:
        problems.append(f"{out.name}: output differs from the first unit's")
    return problems


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _q(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def gray_qam_ber(snr_db: float, order_bits: int) -> float:
    """Bit error rate of Gray-coded QAM on AWGN at symbol SNR ``snr_db``.

    BPSK is exact. 8QAM is the rectangular 4x2 grid: per-bit errors of a
    Gray 4-PAM axis (levels +-1, +-3) plus a BPSK axis, with x the ratio of
    half the minimum distance to the noise deviation. The other orders use
    the nearest-neighbour form (4/b)(1 - 2^(-b/2)) Q(sqrt(3g/(2^b - 1))).
    """
    g = 10.0 ** (snr_db / 10.0)
    if order_bits == 1:
        return _q(math.sqrt(2.0 * g))
    if order_bits == 3:
        x = math.sqrt(g / 3.0)
        pam_msb = (_q(x) + _q(3 * x)) / 2
        pam_lsb = (2 * _q(x) + _q(3 * x) - _q(5 * x)) / 2
        return (pam_msb + pam_lsb + _q(x)) / 3
    m = 2.0 ** order_bits
    return (4.0 / order_bits) * (1.0 - 2.0 ** (-order_bits / 2)) * _q(
        math.sqrt(3.0 * g / (m - 1.0)))


def loaded_order(snr_db: float) -> int:
    """Largest order (bits) whose modelled BER meets the FEC threshold."""
    ok = [b for b in range(1, 7) if gray_qam_ber(snr_db, b) <= FEC_BER_THRESHOLD]
    return max(ok, default=0)


def subcarrier_center_hz(band: str, index: int) -> float:
    plan = BAND_PLANS[band]
    return plan["center_hz"] + (index - (N_SUBCARRIERS - 1) / 2) * plan["spacing_hz"]


def detected(band: str) -> list:
    lo, hi = BAND_PLANS[band]["detect_hz"]
    return [i for i in range(N_SUBCARRIERS) if i not in NULL_INDICES
            and lo <= subcarrier_center_hz(band, i) <= hi]


def pilot_indices(n_pilots: int) -> set:
    """Evenly spaced pilots, one per 256/n_pilots block, centred in it."""
    return {round((k + 0.5) * N_SUBCARRIERS / n_pilots) for k in range(n_pilots)}


def _snr_by_index(bdir: Path) -> dict:
    """Detected subcarrier -> measured SNR (dB), dead subcarriers left out."""
    wanted = set(detected(bdir.name.removeprefix("band_")))
    snr = {}
    for row in _rows(bdir / "metrics.csv"):
        i, s = int(row["index"]), float(row["snr_db"])
        if i in wanted and math.isfinite(s):
            snr[i] = s
    return snr


def check_manifest(out: Path) -> list:
    """Every manifest entry names a file whose fresh sha256 matches, and
    every file but summary.json is in the manifest."""
    manifest = json.loads((out / "summary.json").read_text())["manifest"]
    problems = []
    on_disk = tree_digest(out)
    on_disk.pop("summary.json", None)
    for rel in sorted(set(manifest) | set(on_disk)):
        if manifest.get(rel) != on_disk.get(rel):
            problems.append(f"manifest: {rel} does not match its file")
    return problems


def check_bands(out: Path, scenario: dict) -> list:
    """Lock, sync offset, clipped PAPR and .iq sizes of every band."""
    problems = []
    for band in scenario["bands"]:
        name, tx = band["name"], band["tx"]
        bdir = out / f"band_{name}"
        chain = json.loads((bdir / "chain.json").read_text())
        if chain["failure"] is not None or not chain["lock"]["locked"]:
            problems.append(f"{name}: failure {chain['failure']!r}, "
                            f"locked {chain['lock']['locked']}")
            continue
        if chain.get("sync_offset") != 0:
            problems.append(f"{name}: sync_offset {chain.get('sync_offset')} != 0")
        nfft = N_SUBCARRIERS * tx["oversample"]
        n_samples = (tx["n_training"] + tx["n_symbols"]) * (
            nfft + round(tx["cp_fraction"] * nfft))
        rx_samples = n_samples
        if band.get("downconvert") is not None:
            rx_samples //= tx["oversample"]
        for fname, want in (("tx.iq", n_samples), ("rx.iq", rx_samples)):
            size = (bdir / fname).stat().st_size
            if size != 8 * want:
                problems.append(f"{name}: {fname} holds {size} bytes, want {8 * want}")
        iq = np.fromfile(bdir / "tx.iq", dtype=np.float32).astype(np.float64)
        power = iq[0::2] ** 2 + iq[1::2] ** 2
        papr = 10.0 * math.log10(float(power.max()) / float(power.mean()))
        if papr > PAPR_MAX_DB:
            problems.append(f"{name}: clipped PAPR {papr:.3f} dB > {PAPR_MAX_DB}")
    return problems


def check_snr(out: Path, scenario: dict) -> list:
    """Linear-mean SNR over detected subcarriers sits at the set point."""
    problems = []
    for band in scenario["bands"]:
        name = band["name"]
        target = band["channel"]["target_snr_db"]
        snr = _snr_by_index(out / f"band_{name}")
        avg = 10.0 * math.log10(sum(10.0 ** (s / 10.0) for s in snr.values()) / len(snr))
        if abs(avg - target) > SNR_TOL_DB:
            problems.append(f"{name}: average SNR {avg:.3f} dB, set point {target} dB")
    return problems


def check_bitload(out: Path, scenario: dict) -> list:
    """Every loaded order re-derives from metrics.csv, and the raw capacity
    Sum(bits) x spacing equals the summary's per-band and total figures."""
    summary = json.loads((out / "summary.json").read_text())
    problems = []
    total_bps = 0.0
    for band in scenario["bands"]:
        name = band["name"]
        bdir = out / f"band_{name}"
        snr = _snr_by_index(bdir)
        rows = _rows(bdir / "bitload.csv")
        if [int(r["index"]) for r in rows] != list(range(N_SUBCARRIERS)):
            problems.append(f"{name}: bitload.csv does not list subcarriers 0..255")
            continue
        bits = 0
        for row in rows:
            i, b = int(row["index"]), int(row["bits"])
            want = loaded_order(snr[i]) if i in snr else 0
            if b != want:
                problems.append(f"{name}: subcarrier {i} loads {b} bits, model gives {want}")
            if abs(float(row["freq_hz"]) - subcarrier_center_hz(name, i)) > 1.0:
                problems.append(f"{name}: subcarrier {i} sits at {row['freq_hz']} Hz")
            bits += b
        raw_bps = bits * BAND_PLANS[name]["spacing_hz"]
        total_bps += raw_bps
        reported = summary["bands"][name]["capacity"]["raw_gbps"] * 1e9
        if not math.isclose(raw_bps, reported, rel_tol=REL_EQ):
            problems.append(f"{name}: raw capacity {raw_bps:.6g} b/s, summary {reported:.6g}")
    reported = summary["totals"]["raw_gbps"] * 1e9
    if not math.isclose(total_bps, reported, rel_tol=REL_EQ):
        problems.append(f"total raw capacity {total_bps:.6g} b/s, summary {reported:.6g}")
    return problems


def check_ber(out: Path, scenario: dict) -> list:
    """Measured BER is within 15% of the Gray-QAM model averaged over the
    band's detected data subcarriers at their measured SNR."""
    problems = []
    for band in scenario["bands"]:
        name, tx = band["name"], band["tx"]
        bdir = out / f"band_{name}"
        pilots = pilot_indices(tx["n_pilots"])
        snr = [s for i, s in _snr_by_index(bdir).items() if i not in pilots]
        model = sum(gray_qam_ber(s, tx["bits_per_subcarrier"]) for s in snr) / len(snr)
        measured = json.loads((bdir / "chain.json").read_text())["ber"]
        if abs(measured / model - 1.0) > BER_MODEL_REL_TOL:
            problems.append(f"{name}: BER {measured:.5f} against model {model:.5f}")
    return problems


def check_full_run(out: Path, scenario: dict) -> list:
    """All checks on the output of a full ``run``."""
    problems = check_manifest(out) + check_bands(out, scenario)
    if problems:
        return problems
    return check_snr(out, scenario) + check_bitload(out, scenario) + check_ber(out, scenario)


def _psd(path: Path) -> tuple:
    rows = _rows(path)
    return ([float(r["freq_hz"]) for r in rows],
            [10.0 ** (float(r["psd_db_hz"]) / 10.0) for r in rows])


def check_lock_only(out: Path, scenario: dict) -> list:
    """Locked verdicts, the Wiener phase-noise floor above the loop
    bandwidth, unit beat power and the servo bump position."""
    info = json.loads((out / "lock.json").read_text())["bands"]
    lasers = scenario["lasers"]
    problems = []
    for band in scenario["bands"]:
        name = band["name"]
        if not info[name].get("locked"):
            problems.append(f"{name}: not locked ({info[name]})")
            continue
        bdir = out / f"band_{name}"
        # above the servo bandwidth the residual phase is the free beat's
        # Wiener phase noise, S(f) = (dnu_master + dnu_slave) / (pi f^2)
        dnu = (lasers[band["master"]]["linewidth_hz"]
               + lasers[band["slave"]]["linewidth_hz"])
        freqs, psd = _psd(bdir / "psd_error.csv")
        lo, hi = WIENER_BAND_HZ
        ratio = [p * math.pi * f * f / dnu for f, p in zip(freqs, psd) if lo <= f <= hi]
        err_db = 10.0 * math.log10(sum(ratio) / len(ratio))
        if abs(err_db) > WIENER_TOL_DB:
            problems.append(f"{name}: residual phase PSD {err_db:+.3f} dB off the "
                            "Wiener density over 2-5 MHz")
        # an 11-bin running mean keeps a single noisy Welch bin from winning
        lo, hi = SERVO_SEARCH_HZ
        band_psd = [(f, p) for f, p in zip(freqs, psd) if lo <= f <= hi]
        smooth = [(band_psd[k][0], sum(p for _, p in band_psd[k - 5:k + 6]))
                  for k in range(5, len(band_psd) - 5)]
        f_peak = max(smooth, key=lambda fp: fp[1])[0]
        if not SERVO_BUMP_HZ[0] <= f_peak <= SERVO_BUMP_HZ[1]:
            problems.append(f"{name}: servo bump peaks at {f_peak:.0f} Hz")
        freqs, psd = _psd(bdir / "psd_beat.csv")
        power = sum(psd) * (freqs[1] - freqs[0])
        if abs(power - 1.0) > BEAT_POWER_REL_TOL:
            problems.append(f"{name}: beat PSD integrates to {power:.4f}, not 1")
    return problems
