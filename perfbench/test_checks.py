"""Each output check fails on a deliberately damaged copy of a real run.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = json.loads((ROOT / "src/wdlink/data/default_scenario.json").read_text())


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "wdlink.cli", "run", "--out", str(out)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return out


@pytest.fixture
def out(run_dir, tmp_path):
    copy = tmp_path / "out"
    shutil.copytree(run_dir, copy)
    return copy


def test_genuine_run_passes(out):
    assert checks.check_full_run(out, SCENARIO) == []


def test_flipped_byte_in_rx_iq(out):
    path = out / "band_W" / "rx.iq"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(data)
    assert checks.check_manifest(out) == ["manifest: band_W/rx.iq does not match its file"]


def test_altered_bitload_row(out):
    path = out / "band_W" / "bitload.csv"
    lines = path.read_text().splitlines()
    index, freq, bits = lines[101].split(",")
    lines[101] = ",".join([index, freq, str(int(bits) + 1)])
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_bitload(out, SCENARIO)
    assert any(f"subcarrier {index} loads" in p for p in problems)
    assert any(p.startswith("W: raw capacity") for p in problems)
    assert any(p.startswith("total raw capacity") for p in problems)


def _set_ber(out, factor):
    bdir = out / "band_D"
    snr = [s for i, s in checks._snr_by_index(bdir).items() if i not in checks.pilot_indices(8)]
    model = sum(checks.gray_qam_ber(s, 4) for s in snr) / len(snr)
    chain = json.loads((bdir / "chain.json").read_text())
    chain["ber"] = model * factor
    (bdir / "chain.json").write_text(json.dumps(chain))


def test_ber_outside_tolerance(out):
    _set_ber(out, 1.0 + checks.BER_MODEL_REL_TOL + 0.01)
    assert [p[:6] for p in checks.check_ber(out, SCENARIO)] == ["D: BER"]


def test_ber_inside_tolerance(out):
    _set_ber(out, 1.0 + checks.BER_MODEL_REL_TOL - 0.01)
    assert checks.check_ber(out, SCENARIO) == []


def test_rerun_with_other_bytes(out, run_dir):
    first = checks.fingerprint(run_dir)
    assert checks.check_rerun(out, first) == []
    (out / "band_D" / "metrics.csv").write_text("index,freq_hz,snr_db,evm_rms\n")
    assert checks.check_rerun(out, first)
