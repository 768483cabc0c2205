"""End-to-end checks of the ``sim`` command line and its artifacts."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wdlink
from wdlink.cli import main


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _run_json(capsys, argv, expect_rc=0):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == expect_rc, out
    return json.loads(out)


# ----------------------------------------------------------- full chain

def test_run_default_scenario_reproducible(tmp_path, capsys):
    t1 = _run_json(capsys, ["run", "--out", str(tmp_path / "a")])
    t2 = _run_json(capsys, ["run", "--out", str(tmp_path / "b")])
    assert t1 == t2
    tree_a = _tree_bytes(tmp_path / "a")
    tree_b = _tree_bytes(tmp_path / "b")
    assert set(tree_a) == set(tree_b)
    for name in tree_a:
        assert tree_a[name] == tree_b[name], f"{name} differs between runs"


def test_run_default_scenario_totals_and_artifacts(default_run):
    out, run = default_run
    assert run["exit_code"] == 0, run["stdout"]
    totals = json.loads(run["stdout"])
    assert totals["raw_gbps"] == pytest.approx(162.75390625, abs=1e-9)
    assert totals["net_gbps"] == pytest.approx(162.75390625 / 1.155, abs=1e-9)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["totals"] == totals
    for band in ("W", "D"):
        bdir = out / f"band_{band}"
        for name in ("chain.json", "lock.csv", "psd_error.csv", "tx.iq",
                     "psd_tx.csv", "rx.iq", "psd_rx.csv", "metrics.csv",
                     "bitload.csv"):
            assert (bdir / name).is_file(), f"{band}: missing {name}"
        entry = summary["bands"][band]
        assert entry["failure"] is None
        assert entry["lock"]["locked"] is True
        assert entry["papr_clipped_db"] <= 10.0 + 0.1
    assert (out / "capacity.json").is_file()
    assert (out / "thresholds.csv").is_file()
    # every artifact is accounted for in the hashed manifest
    files = {k for k in _tree_bytes(out) if k != "summary.json"}
    assert set(summary["manifest"]) == files


def test_report_rebuilds_summary_byte_identical(default_run, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(default_run[0], out)
    summary = (out / "summary.json").read_bytes()
    cap = (out / "capacity.json").read_bytes()
    (out / "summary.json").unlink()
    (out / "capacity.json").unlink()
    totals = _run_json(capsys, ["report", "--out", str(out)])
    assert (out / "summary.json").read_bytes() == summary
    assert (out / "capacity.json").read_bytes() == cap
    assert totals["raw_gbps"] == pytest.approx(162.75390625, abs=1e-9)


def test_noiseless_flat_channel_is_error_free(tmp_path, scenario_file, capsys):
    (tmp_path / "flat.csv").write_text("freq_hz,gain_db\n1e9,0\n200e9,0\n")

    def mutate(doc):
        for band in doc["bands"]:
            band["channel"]["mask"] = {"csv": "flat.csv"}
            band["channel"]["target_snr_db"] = None
            band["downconvert"] = None

    scn = scenario_file(mutate)
    out = tmp_path / "out"
    _run_json(capsys, ["run", "--scenario", str(scn), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    for band in ("W", "D"):
        entry = summary["bands"][band]
        assert entry["ber"] == 0.0
        assert entry["avg_snr_db"] > 40.0


# ------------------------------------------------------------ subcommands

def test_lock_sim_exit_and_artifacts(tmp_path, capsys):
    out = tmp_path / "lock"
    info = _run_json(capsys, ["lock-sim", "--out", str(out)])
    for band in ("W", "D"):
        assert info[band]["mode"] == "locked"
        assert info[band]["locked"] is True
        bdir = out / f"band_{band}"
        assert (bdir / "lock.csv").is_file()
        assert (bdir / "psd_error.csv").is_file()
        assert (bdir / "psd_beat.csv").is_file()
    assert json.loads((out / "lock.json").read_text())["bands"] == info


def test_lock_sim_free_running_mode(tmp_path, capsys):
    out = tmp_path / "free"
    info = _run_json(capsys, ["lock-sim", "--free-running", "--out", str(out)])
    for band in ("W", "D"):
        assert info[band] == {"mode": "free-running"}
        bdir = out / f"band_{band}"
        assert (bdir / "psd_beat.csv").is_file()
        assert not (bdir / "lock.csv").exists()


def test_seed_override_is_deterministic_but_different(tmp_path, capsys):
    a = _run_json(capsys, ["lock-sim", "--out", str(tmp_path / "a"),
                           "--seed-override", "9"])
    b = _run_json(capsys, ["lock-sim", "--out", str(tmp_path / "b"),
                           "--seed-override", "9"])
    c = _run_json(capsys, ["lock-sim", "--out", str(tmp_path / "c")])
    assert a == b
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert a != c


def test_tx_clip_override(tmp_path, capsys):
    info = _run_json(capsys, ["tx", "--out", str(tmp_path / "t"),
                              "--clip-db", "6.0"])
    for band in ("W", "D"):
        assert info[band]["papr_clipped_db"] <= 6.0 + 0.1
        assert info[band]["papr_raw_db"] > info[band]["papr_clipped_db"]
        assert (tmp_path / "t" / f"band_{band}" / "tx.iq").is_file()


def test_bitload_from_external_snr_csv(tmp_path, capsys):
    csv_path = tmp_path / "snr.csv"
    lines = ["index,freq_hz,snr_db,evm_rms"]
    lines += [f"{i},0.0,12.6,0.1" for i in range(256)]
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "bl"
    rep = _run_json(capsys, ["bitload", "--band", "D",
                             "--snr-csv", str(csv_path), "--out", str(out)])
    assert rep["raw_gbps"] == pytest.approx(67.5, abs=1e-9)
    assert rep["detected_count"] == 108
    bits = np.genfromtxt(out / "bitload.csv", delimiter=",", skip_header=1)
    assert bits[147:255, 2].sum() == 108 * 4
    assert (out / "capacity.json").is_file()
    assert (out / "thresholds.csv").is_file()


def test_bitload_unknown_band_is_config_error(tmp_path, capsys):
    csv_path = tmp_path / "snr.csv"
    csv_path.write_text("index,freq_hz,snr_db,evm_rms\n1,0.0,12.0,0.1\n")
    rc = main(["bitload", "--band", "X", "--snr-csv", str(csv_path),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "no band named" in capsys.readouterr().err


# ------------------------------------------------------------- exit codes

def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--out", "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag", [
    ("tx", "--seed-override"),
    ("bitload", "--seed-override"),
    ("bitload", "--rbw-hz"),
    ("report", "--seed-override"),
    ("report", "--rbw-hz"),
])
def test_subcommand_rejects_a_flag_it_would_ignore(tmp_path, capsys, command, flag):
    extra = ["--band", "W", "--snr-csv", "snr.csv"] if command == "bitload" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path / "o"), *extra, flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_scenario_is_io_error(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "cannot read scenario" in capsys.readouterr().err


def test_schema_violation_reports_json_path(tmp_path, scenario_file, capsys):
    def drop_seeds(doc):
        del doc["seeds"]

    rc = main(["run", "--scenario", str(scenario_file(drop_seeds)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "$.seeds" in err and "missing required field" in err


def test_bad_field_value_reports_json_path(tmp_path, scenario_file, capsys):
    def bad_rbw(doc):
        doc["psd_rbw_hz"] = -1.0

    rc = main(["run", "--scenario", str(scenario_file(bad_rbw)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "$.psd_rbw_hz" in capsys.readouterr().err


def test_unsupported_schema_version_rejected(tmp_path, scenario_file, capsys):
    def bump(doc):
        doc["schema_version"] = 99

    rc = main(["run", "--scenario", str(scenario_file(bump)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "$.schema_version" in capsys.readouterr().err


def _src_env():
    """Environment whose PYTHONPATH finds the wdlink under test first."""
    src = str(Path(wdlink.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.parametrize("keys, value, json_path", [
    (("lasers", "ld2", "linewidth_hz"), math.inf, "$.lasers.ld2.linewidth_hz"),
    (("lasers", "ld2", "linewidth_hz"), math.nan, "$.lasers.ld2.linewidth_hz"),
    (("lock", "duration_s"), math.inf, "$.lock.duration_s"),
    (("lock", "sim_rate_hz"), math.nan, "$.lock.sim_rate_hz"),
    (("psd_rbw_hz",), math.nan, "$.psd_rbw_hz"),
    (("bands", 0, "channel", "target_snr_db"), math.nan, "$.bands[0].channel.target_snr_db"),
    (("bands", 0, "channel", "target_snr_db"), math.inf, "$.bands[0].channel.target_snr_db"),
    (("bands", 1, "downconvert", "if_window_hz", 1), math.inf,
     "$.bands[1].downconvert.if_window_hz"),
])
def test_non_finite_scenario_number_fails_at_load(tmp_path, scenario_file, capsys, keys,
                                                  value, json_path):
    def mutate(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value   # written as JSON NaN / Infinity

    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scenario_file(mutate)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"scenario error: {json_path}: expected" in err
    assert "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("row", ["1e9,nan", "nan,0", "1e9,inf"])
def test_non_finite_mask_csv_row_fails_at_load(tmp_path, scenario_file, capsys, row):
    (tmp_path / "bad.csv").write_text(f"freq_hz,gain_db\n{row}\n200e9,0\n")

    def mutate(doc):
        doc["bands"][0]["channel"]["mask"] = {"csv": "bad.csv"}

    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scenario_file(mutate)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "$.bands[0].channel.mask" in err
    assert "finite" in err
    assert not out.exists()


W_PLAN_EMPTY_WINDOW = {"name": "W", "center_hz": 92.5e9, "n_subcarriers": 256,
                       "spacing_hz": 35e9 / 256, "null_indices": [0, 255],
                       "detect_window_hz": [75e9, 75.1e9]}


@pytest.mark.parametrize("keys, value, json_path, message", [
    (("lock", "sim_rate_hz"), 1e6, "$.lock", "under-resolves the loop"),
    (("lock", "duration_s"), 1e-7, "$.lock", "duration too short"),
    (("lock", "actuator_bw_hz"), 0.0, "$.lock", "must be positive"),
    (("bands", 1, "tx", "n_pilots"), 256, "$.bands[1].tx.n_pilots",
     "pilot grid collides"),
    (("bands", 0, "plan"), W_PLAN_EMPTY_WINDOW, "$.bands[0].plan",
     "no modulated subcarrier"),
    (("bands", 0, "tx", "n_symbols"), 8, "$.bands[0].tx.n_symbols",
     "need at least 32 payload symbols"),
    (("bands", 1, "downconvert", "if_window_hz"), [2.8e9, 60e9], "$.bands[1].downconvert",
     "outside the waveform's sampled span"),
    (("bands", 1, "downconvert", "if_window_hz"), [2.8e9, 25e9], "$.bands[1].downconvert",
     "decimation would alias"),
    (("bands", 1, "downconvert", "if_window_hz"), [19.8e9, 2.8e9], "$.bands[1].downconvert",
     "low < high"),
    (("bands", 1, "tx", "cp_fraction"), 3 / 512, "$.bands[1].tx.cp_fraction",
     "cyclic prefix does not survive this resampling factor"),
    (("bands", 0, "tx", "n_pilots"), -1, "$.bands[0].tx.n_pilots",
     "n_pilots must be non-negative"),
    (("psd_rbw_hz",), 1.0, "$.psd_rbw_hz",
     "band W tx record: rbw_hz 1 finer than the record allows"),
    (("psd_rbw_hz",), 1e12, "$.psd_rbw_hz",
     "band W tx record: rbw_hz too coarse"),
    # 13 samples per segment on D's transmitted frame, 7 once it is decimated
    (("psd_rbw_hz",), 6e9, "$.psd_rbw_hz",
     "band D rx record: rbw_hz too coarse"),
    (("lock", "duration_s"), 5e-4, "$.lock.duration_s",
     "lock record: rbw_hz 1000 finer than the record allows"),
])
def test_unrunnable_band_inputs_fail_at_load(tmp_path, scenario_file, capsys, keys, value,
                                             json_path, message):
    def mutate(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value

    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scenario_file(mutate)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"scenario error: {json_path}: " in err
    assert message in err
    assert not out.exists()


def test_negative_seed_override_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lock-sim", "--out", str(tmp_path / "o"), "--seed-override", "-1"])
    assert exc.value.code == 2
    assert "must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flag, value", [
    *(("tx", "--clip-db", v) for v in ("nan", "inf", "-1", "0")),
    *((c, "--rbw-hz", v) for c in ("run", "tx", "lock-sim") for v in ("nan", "-5")),
])
def test_non_positive_or_non_finite_flag_is_a_usage_error(tmp_path, capsys, command,
                                                          flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path / "o"), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be a finite positive number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, record", [("run", "tx"), ("tx", "tx"),
                                             ("lock-sim", "lock")])
def test_rbw_flag_finer_than_a_record_is_a_usage_error(tmp_path, capsys, command, record):
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path / "o"), "--rbw-hz", "1"])
    assert exc.value.code == 2
    assert (f"argument --rbw-hz: band W {record} record: rbw_hz 1 finer than the record "
            "allows") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# A fresh interpreter is the point of the next two tests: one checks what a
# bare import loads, the other the installed console script.
def test_cli_import_leaves_scipy_unloaded():
    code = ("import sys, wdlink.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_installed_entry_point(tmp_path):
    exe = shutil.which("sim")
    assert exe, "console script 'sim' not on PATH"
    proc = subprocess.run([exe, "tx", "--out", str(tmp_path / "t")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout)
    assert set(info) == {"W", "D"}
