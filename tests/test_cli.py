"""End-to-end checks of the ``sim`` command line and its artifacts."""

import fnmatch
import functools
import json
import math
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import wdlink
from conftest import json_leaves
from golden.regen import capture
from wdlink.bandplan import subcarrier_centers
from wdlink.cli import main
from wdlink.scenario import default_scenario_path
from wdlink.waveform import (BITLOAD_CSV, CONSTELLATION_CSV, LOCK_CSV, METRICS_CSV, PSD_CSV,
                             THRESHOLDS_CSV, read_table, write_table)


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _setting(keys, value):
    """A ``scenario_file`` mutation that sets the leaf at ``keys`` to
    ``value``; empty ``keys`` update the document's top level with ``value``."""
    def mutate(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        if keys:
            node[keys[-1]] = value
        else:
            doc.update(value)
    return mutate


def _run_json(capsys, argv, expect_rc=0):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == expect_rc, out
    return json.loads(out)


# ----------------------------------------------------------- full chain

def test_run_default_scenario_reproducible(default_run, tmp_path):
    """A second, fresh run: the same exit code, stdout and file hashes as
    ``default_run``'s."""
    assert capture(["run"], tmp_path / "b") == default_run[1]


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

def test_lock_sim_exit_and_artifacts(default_lock_sim):
    out, run = default_lock_sim
    assert run["exit_code"] == 0, run["stdout"]
    info = json.loads(run["stdout"])
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


def test_seed_override_is_deterministic_but_different(default_lock_sim, tmp_path,
                                                      capsys):
    a = _run_json(capsys, ["lock-sim", "--out", str(tmp_path / "a"),
                           "--seed-override", "9"])
    b = _run_json(capsys, ["lock-sim", "--out", str(tmp_path / "b"),
                           "--seed-override", "9"])
    c = json.loads(default_lock_sim[1]["stdout"])   # the unseeded run
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
    """A usage error naming the scenario's bands, raised before any output."""
    csv_path = tmp_path / "snr.csv"
    csv_path.write_text("index,freq_hz,snr_db,evm_rms\n1,0.0,12.0,0.1\n")
    with pytest.raises(SystemExit) as exc:
        main(["bitload", "--band", "X", "--snr-csv", str(csv_path),
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --band: no band named 'X' in the scenario (bands: W, D)\n")
    assert not (tmp_path / "o").exists()
    assert _partials(tmp_path) == []


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
    pytest.param(("lasers", "ld2", "linewidth_hz"), 10**400, "$.lasers.ld2.linewidth_hz",
                 id="integer-past-the-largest-float"),
])
def test_non_finite_scenario_number_fails_at_load(tmp_path, scenario_file, capsys, keys,
                                                  value, json_path):
    # written as JSON NaN / Infinity, or as an integer
    scn = scenario_file(_setting(keys, value))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"scenario error: {json_path}: expected" in err
    assert "finite" in err
    if value == 10**400:
        # named by its type and digit count, not echoed in 401 digits
        assert err == ("scenario error: $.lasers.ld2.linewidth_hz: expected a finite number, "
                       "got int of 401 digits\n")
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


@pytest.mark.parametrize("text, why", [
    ("freq_hz,gain_db\n75e9,0\n90e9\n110e9,-10\n", "line 3: expected 2 cells, found 1"),
    ("freq_hz,gain_db\n75e9,0\n90e9,-1,7\n110e9,-10\n", "line 3: expected 2 cells, found 3"),
    ("vendor x\nmodel y\nfreq_hz,gain_db\n75e9,0\n110e9,-10\n",
     "line 2: expected 2 cells, found 1"),
    ("# vendor x\nfreq_hz,gain_db\n75e9,0\n90e9\n110e9,-10\n",
     "line 4: expected 2 cells, found 1"),
    ("freq_hz,gain_db\n75e9,0\n90e9,abc\n110e9,-10\n",
     "line 3, cell 2: 'abc' is not a number"),
], ids=["one-column-row", "three-column-row", "three-lines-before-the-data",
        "ragged-row-after-a-comment-and-a-header", "non-numeric-cell"])
def test_malformed_mask_csv_fails_at_load(tmp_path, scenario_file, capsys, text, why):
    """Every row of a mask holds exactly two numbers, after at most one
    header line; a refused row is named by its line in the file, comment
    and header lines counted."""
    (tmp_path / "bad.csv").write_text(text)

    def mutate(doc):
        doc["bands"][0]["channel"]["mask"] = {"csv": "bad.csv"}

    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scenario_file(mutate)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"scenario error: $.bands[0].channel.mask: mask CSV: {why}\n")
    assert not out.exists()


W_PLAN_EMPTY_WINDOW = {"name": "W", "center_hz": 92.5e9, "n_subcarriers": 256,
                       "spacing_hz": 35e9 / 256, "null_indices": [0, 255],
                       "detect_window_hz": [75e9, 75.1e9]}
DEFAULT_DOC = json.loads(default_scenario_path().read_text())
W_BAND_1KHZ = {**DEFAULT_DOC["bands"][0],
               "plan": {**W_PLAN_EMPTY_WINDOW, "spacing_hz": 1e3,
                        "detect_window_hz": [75e9, 110e9]}}
# subcarrier k of the W plan is centered at 75 GHz + (k + 1/2) spacings
W_PLAN_PILOT_16 = {**W_PLAN_EMPTY_WINDOW,
                   "detect_window_hz": [75e9 + 16.2 * 35e9 / 256, 75e9 + 16.8 * 35e9 / 256]}


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
    # the PRBS register is TxConfig's rule, so band D's bad register stops
    # the load, before band W's stages run
    (("bands", 1, "tx", "prbs_order"), 8, "$.bands[1].tx", "unsupported PRBS order 8"),
    (("bands", 1, "tx", "prbs_seed_state"), 0, "$.bands[1].tx", "nonzero 17-bit"),
    (("bands", 1, "tx", "prbs_seed_state"), 2**17, "$.bands[1].tx", "nonzero 17-bit"),
    (("bands", 1, "tx", "prbs_seed_state"), -1, "$.bands[1].tx", "nonzero 17-bit"),
    # servo and record ranges that overflowed or warned after the load
    (("lock", "unity_gain_hz"), 1e308, "$.lock", "phase margin"),
    (("lock", "pi_zero_hz"), 1e308, "$.lock", "phase margin"),
    (("lock", "actuator_bw_hz"), 1e-308, "$.lock", "phase margin"),
    (("lock", "duration_s"), 1e308, "$.lock", "no finite record length"),
    # a finite record longer than numpy can index
    (("lock", "sim_rate_hz"), 1e308, "$.lock", "more than numpy can index"),
    # band W alone on a 1 kHz grid: its frame outlasts the lock record it rides on
    ((), {"bands": [W_BAND_1KHZ], "psd_rbw_hz": 1e3}, "$.lock.duration_s",
     "band W: the 2.000e-02s lock record cannot cover a 6.906e-02s frame"),
    # a frame too long for its duration to be a float is the frame's fault
    (("bands", 0, "tx", "n_symbols"), 10**400, "$.bands[0].tx.n_symbols",
     "int too large to convert to float"),
    # an SNR whose power ratio overflows, or underflows to zero
    (("bands", 0, "channel", "target_snr_db"), 1e308, "$.bands[0].channel.target_snr_db",
     "no finite, nonzero power ratio"),
    (("bands", 0, "channel", "target_snr_db"), -1e308, "$.bands[0].channel.target_snr_db",
     "no finite, nonzero power ratio"),
    # an SNR whose noise overflows rx.iq's float32 samples
    (("bands", 0, "channel", "target_snr_db"), -3080, "$.bands[0].channel.target_snr_db",
     "an SNR of -3080 dB is below the -710.6 dB floor past which its noise overflows "
     "float32 I/Q samples"),
    # a clip limit past the largest float
    (("bands", 1, "tx", "clip_ratio_db"), 1e308, "$.bands[1].tx",
     "with a finite limit 10^(ratio/20)"),
    # band W's window holds only pilot subcarrier 16: no bit to judge and no
    # constellation to show, with or without noise
    *(((), {"bands": [{**DEFAULT_DOC["bands"][0], "plan": W_PLAN_PILOT_16,
                       "channel": {"mask": "builtin:W", "target_snr_db": snr}},
                      DEFAULT_DOC["bands"][1]]},
       "$.bands[0].tx.n_pilots", "detect window [7.72148438e+10, 7.7296875e+10] Hz holds "
       "no data subcarrier, only pilots") for snr in (None, 40.0)),
])
def test_unrunnable_band_inputs_fail_at_load(tmp_path, scenario_file, capsys, keys, value,
                                             json_path, message):
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scenario_file(_setting(keys, value))),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"scenario error: {json_path}: " in err
    assert message in err
    assert not out.exists()


def test_an_snr_far_below_the_noise_still_loads_and_fails_sync(tmp_path, scenario_file,
                                                              capsys):
    """-300 dB is above the float32 floor: the run writes its tree and exits
    3 with band W's sync failure."""
    out = tmp_path / "o"
    scn = scenario_file(_setting(("bands", 0, "channel", "target_snr_db"), -300))
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 3
    capsys.readouterr()
    chain = json.loads((out / "band_W" / "chain.json").read_text())
    assert chain["failure"] == "sync"


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


def test_clip_db_without_a_finite_limit_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tx", "--out", str(tmp_path / "o"), "--clip-db", "1e308"])
    assert exc.value.code == 2
    assert "argument --clip-db: clip ratio 1e+308 dB" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


FLOAT_LEAVES = [keys for keys in json_leaves(DEFAULT_DOC)
                if isinstance(functools.reduce(lambda node, key: node[key], keys, DEFAULT_DOC),
                              float)]


@pytest.mark.parametrize("value", [0, -1, 1e-308, 1e308, -1e308])
@pytest.mark.parametrize("keys", FLOAT_LEAVES, ids=lambda keys: ".".join(map(str, keys)))
def test_tx_with_an_edge_float_leaf_exits_0_or_2_at_a_path(tmp_path, scenario_file, capsys,
                                                           keys, value):
    """Any float leaf of the default document at an edge value: ``tx``
    exits 0, or exits 2 naming a JSON path or a flag and leaving no tree;
    no exception escapes."""
    out = tmp_path / "o"
    try:
        rc = main(["tx", "--scenario", str(scenario_file(_setting(keys, value))),
                   "--out", str(out)])
    except SystemExit as exc:   # argparse's usage errors
        rc = exc.code
    assert rc in (0, 2)
    if rc == 2:
        err = capsys.readouterr().err
        assert "$." in err or "argument " in err, err
        assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["bitload", "--band", "X", "--snr-csv", "m.csv"], "--band"),
    (["tx", "--clip-db", "1e308"], "--clip-db"),
    (["lock-sim", "--rbw-hz", "1"], "--rbw-hz"),
    (["run", "--out", "taken"], "--out"),
], ids=["band", "clip-db", "rbw-hz", "out"])
def test_usage_errors_after_the_load_print_the_subcommand_usage(tmp_path, capsys,
                                                               monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("keep me\n")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", "o"] if flag != "--out" else argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: sim {argv[0]} ")
    assert f"sim {argv[0]}: error: argument {flag}: " in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "tx"])
def test_rbw_flag_is_the_scenarios_psd_rbw(tmp_path, scenario_file, capsys, command):
    """On run and tx, ``--rbw-hz`` writes the tree and stdout of a scenario
    whose ``psd_rbw_hz`` holds that value."""
    flag, field = tmp_path / "flag", tmp_path / "field"
    assert main([command, "--out", str(flag), "--rbw-hz", "2e8"]) == 0
    flag_out = capsys.readouterr().out
    scn = scenario_file(_setting(("psd_rbw_hz",), 2e8))
    assert main([command, "--scenario", str(scn), "--out", str(field)]) == 0
    assert capsys.readouterr().out == flag_out
    assert _tree_bytes(flag) == _tree_bytes(field)
    # band W's frame is sampled at 70 GHz: a header and 350 bins 200 MHz apart
    assert (flag / "band_W" / "psd_tx.csv").read_text().count("\n") == 351


@pytest.mark.parametrize("command, record", [("run", "tx"), ("tx", "tx"),
                                             ("lock-sim", "lock")])
def test_rbw_flag_finer_than_a_record_is_a_usage_error(tmp_path, capsys, command, record):
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path / "o"), "--rbw-hz", "1"])
    assert exc.value.code == 2
    assert (f"argument --rbw-hz: band W {record} record: rbw_hz 1 finer than the record "
            "allows") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_io_error_in_one_band_exits_four_after_the_other_band(tmp_path, capsys, monkeypatch):
    """A write that fails in band D's frame path is an I/O error (exit 4)
    with the error's own text, as when the bands ran one after the other,
    and leaves no tree: neither ``--out`` nor the sibling it was written in."""
    from wdlink import runner
    write_iq = runner.write_iq

    def failing_in_d(path, w):
        if "band_D" in str(path):
            raise OSError(28, "No space left on device", str(path))
        write_iq(path, w)

    monkeypatch.setattr(runner, "write_iq", failing_in_d)
    out = tmp_path / "o"
    assert main(["run", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    partial = tmp_path / f"o.partial-{os.getpid()}"
    assert captured.err == ("I/O error: [Errno 28] No space left on device: "
                            f"'{partial / 'band_D' / 'tx.iq'}'\n")
    assert not out.exists()
    assert not partial.exists()


def _fail_w_lock_csv_while_d_locks(monkeypatch, error):
    """Make band W's lock.csv write raise ``error`` once band D has started
    its lock stage, and hold D's lock until W has raised.  Returns the list
    of bands whose ``run_band`` has returned."""
    import threading

    from wdlink import runner
    write_lock_csv, frame_lock_stage, run_band = (runner.write_lock_csv,
                                                  runner._frame_lock_stage, runner.run_band)
    d_locking, w_failed, finished = threading.Event(), threading.Event(), []

    def lock_stage(band, band_dir):
        if band.name == "D":
            d_locking.set()
            assert w_failed.wait(60)
        return frame_lock_stage(band, band_dir)

    def failing_in_w(path, result):
        if "band_W" in str(path):
            assert d_locking.wait(60)
            w_failed.set()
            raise error
        write_lock_csv(path, result)

    def band(scn, b, band_dir):
        record = run_band(scn, b, band_dir)
        finished.append(b.name)
        return record

    monkeypatch.setattr(runner, "_frame_lock_stage", lock_stage)
    monkeypatch.setattr(runner, "write_lock_csv", failing_in_w)
    monkeypatch.setattr(runner, "run_band", band)
    return finished


def test_io_error_in_one_band_lock_stage_exits_four_after_the_other_band(
        tmp_path, capsys, monkeypatch):
    """The bands lock concurrently: a failed lock.csv write in band W while
    band D locks is an I/O error (exit 4) with the error's own text, raised
    once band D has run to its end, and leaves no tree."""
    out = tmp_path / "o"
    partial = tmp_path / f"o.partial-{os.getpid()}"
    lock_csv = partial / "band_W" / "lock.csv"
    finished = _fail_w_lock_csv_while_d_locks(
        monkeypatch, OSError(28, "No space left on device", str(lock_csv)))
    assert main(["run", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"I/O error: [Errno 28] No space left on device: '{lock_csv}'\n"
    assert finished == ["D"]
    assert not out.exists()
    assert not partial.exists()


def test_interrupt_in_one_band_lock_stage_leaves_no_tree(tmp_path, monkeypatch):
    finished = _fail_w_lock_csv_while_d_locks(monkeypatch, KeyboardInterrupt())
    out = tmp_path / "o"
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--out", str(out)])
    assert finished == ["D"]
    assert not out.exists()
    assert _partials(tmp_path) == []


@pytest.mark.parametrize("d_fails", [False, True], ids=["d-runs-on", "d-fails-first"])
@pytest.mark.parametrize("argv, last_psd", [
    (["lock-sim"], "psd_beat.csv"),
    (["lock-sim", "--free-running"], "psd_beat.csv"),
    (["tx"], "psd_tx.csv"),
], ids=["lock-sim", "free-running", "tx"])
def test_band_error_is_raised_once_every_band_has_finished(tmp_path, capsys, monkeypatch,
                                                           argv, last_psd, d_fails):
    """``lock-sim`` and ``tx`` run a thread per band too: band W's failed PSD
    write, made while band D runs on (or once D has failed itself), exits 4
    with W's error, the first band's, only after D has finished, and leaves
    no tree."""
    import threading

    from wdlink import runner
    write_psd_csv = runner.write_psd_csv
    d_started, w_failed, finished = threading.Event(), threading.Event(), []

    def gated(path, freqs, psd):
        if path.parent.name == "band_W":
            assert d_started.wait(60)
            w_failed.set()
            raise OSError(28, "No space left on device", str(path))
        d_started.set()
        if d_fails:
            raise OSError(5, "Input/output error", str(path))
        assert w_failed.wait(60)
        write_psd_csv(path, freqs, psd)
        if path.name == last_psd:
            finished.append("D")

    monkeypatch.setattr(runner, "write_psd_csv", gated)
    out = tmp_path / "o"
    partial = tmp_path / f"o.partial-{os.getpid()}"
    assert main([*argv, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"I/O error: [Errno 28] No space left on device: '{partial / 'band_W'}")
    assert finished == ([] if d_fails else ["D"])
    assert not out.exists()
    assert not partial.exists()


def test_thread_switching_does_not_change_a_byte(scenario, tmp_path):
    """Every writing subcommand that runs a thread per band writes the same
    tree when the interpreter switches threads as often as it can."""
    from wdlink import runner

    entries = {"run": runner.run_scenario, "lock-sim": runner.lock_sim,
               "free-running": functools.partial(runner.lock_sim, free_running=True),
               "tx": runner.tx_only}

    def trees(tag):
        for name, entry in entries.items():
            entry(scenario, tmp_path / tag / name)
        return _tree_bytes(tmp_path / tag)

    plain = trees("default")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        switching = trees("switching")
    finally:
        sys.setswitchinterval(interval)
    assert switching == plain


# ------------------------------------------------------- output directory

def _partials(tmp_path):
    return sorted(tmp_path.glob("*.partial-*"))


def test_run_into_a_tx_tree_is_refused_and_leaves_it_unchanged(tmp_path, capsys):
    out = tmp_path / "o"
    _run_json(capsys, ["tx", "--out", str(out)])
    before = _tree_bytes(out)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out", str(out)])
    assert exc.value.code == 2
    assert (f"argument --out: {out} exists and is not an empty directory"
            in capsys.readouterr().err)
    assert _tree_bytes(out) == before
    assert _partials(tmp_path) == []


def test_existing_empty_out_is_accepted(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    info = _run_json(capsys, ["tx", "--out", str(out)])
    assert json.loads((out / "tx.json").read_text()) == info
    assert _partials(tmp_path) == []


@pytest.mark.parametrize("out", [".", "../here"])
def test_out_naming_the_working_directory_is_a_usage_error(
        tmp_path, capsys, monkeypatch, out):
    """Publishing renames the finished tree over ``--out``; over the empty
    working directory that would leave the caller in a deleted one."""
    from wdlink import runner

    def no_stage(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(runner, "build_frame", no_stage)
    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    with pytest.raises(SystemExit) as exc:
        main(["tx", "--out", out])
    assert exc.value.code == 2
    assert (f"argument --out: {out} is the working directory"
            in capsys.readouterr().err)
    assert list(here.iterdir()) == [] and os.path.samefile(here, os.curdir)
    assert _partials(tmp_path) == []


def test_out_naming_a_file_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    out.write_text("keep me\n")
    with pytest.raises(SystemExit) as exc:
        main(["tx", "--out", str(out)])
    assert exc.value.code == 2
    assert (f"argument --out: {out} exists and is not an empty directory"
            in capsys.readouterr().err)
    assert out.read_text() == "keep me\n"
    assert _partials(tmp_path) == []


def test_interrupt_in_a_stage_leaves_no_tree(tmp_path, monkeypatch):
    from wdlink import runner

    def interrupted(path, w):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "write_iq", interrupted)
    out = tmp_path / "o"
    with pytest.raises(KeyboardInterrupt):
        main(["tx", "--out", str(out)])
    assert not out.exists()
    assert _partials(tmp_path) == []


def test_lock_sim_into_a_non_empty_directory_raises_before_any_stage(
        tmp_path, scenario, monkeypatch):
    from wdlink import runner

    def no_stage(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(runner, "simulate_lock", no_stage)
    monkeypatch.setattr(runner, "free_running_psd", no_stage)
    (tmp_path / "stale.json").write_text("{}\n")
    with pytest.raises(runner.OutDirError, match="not an empty directory"):
        runner.lock_sim(scenario, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["stale.json"]


# ------------------------------------------------ read-back against the plan

def _move_indices(path, move):
    """Rewrite the index column of the metrics table at ``path``."""
    head, *rows = path.read_bytes().decode().splitlines(keepends=True)
    moved = []
    for row in rows:
        index, rest = row.split(",", 1)
        moved.append(f"{move(int(index))},{rest}")
    path.write_bytes((head + "".join(moved)).encode())


@pytest.mark.parametrize("move, why", [
    (lambda i: (i + 64) % 256, "index 65 at freq_hz 75205078125.000000, not its center"),
    (lambda i: i + 64, "not in 0..255"),
], ids=["rolled", "shifted"])
def test_report_refuses_moved_metrics_indices(default_run, tmp_path, capsys, move, why):
    """Rolled indices keep inside the plan but leave each row's frequency
    behind; shifted ones leave the plan.  Either would rewrite W's average
    SNR in the summary."""
    out = tmp_path / "run"
    shutil.copytree(default_run[0], out)
    metrics = out / "band_W" / "metrics.csv"
    _move_indices(metrics, move)
    before = _tree_bytes(out)
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {metrics}: ")
    assert why in err
    assert _tree_bytes(out) == before


def _w_null_row(rows, plan):
    """A row for null subcarrier 0, at its center, before ``rows``."""
    return [f"0,{subcarrier_centers(plan)[0]:.6f},12.000000,2.500000000e-01\r\n", *rows]


@pytest.mark.parametrize("damage, why", [
    (lambda rows, plan: rows[:128], "no row for active subcarrier 129"),
    (_w_null_row, "index 0 is a null subcarrier"),
], ids=["truncated", "null-row"])
def test_report_refuses_metrics_rows_not_the_active_set(default_run, scenario, tmp_path,
                                                         capsys, damage, why):
    """Every row left is at its center, but the run's metrics must be those
    of every active subcarrier: W's table cut to its first 128 of 254 rows
    would move W's average SNR from 12.11 to 12.91 dB in the summary."""
    out = tmp_path / "run"
    shutil.copytree(default_run[0], out)
    metrics = out / "band_W" / "metrics.csv"
    head, *rows = metrics.read_bytes().decode().splitlines(keepends=True)
    metrics.write_bytes((head + "".join(damage(rows, scenario.band("W").plan))).encode())
    before = _tree_bytes(out)
    assert main(["report", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {metrics}: {why}\n"
    assert _tree_bytes(out) == before


@pytest.mark.parametrize("move, why", [
    (lambda i: i + 64, "index 256 not in 0..255"),
    (lambda i: i + 0.5, "index 1.5 not in 0..255"),
    (lambda i: min(i, 200), "index 200 repeated"),
], ids=["shifted", "fractional", "repeated"])
def test_bitload_refuses_indices_off_the_plan(default_run, tmp_path, capsys, move, why):
    profile = tmp_path / "metrics.csv"
    shutil.copyfile(default_run[0] / "band_D" / "metrics.csv", profile)
    _move_indices(profile, move)
    out = tmp_path / "o"
    assert main(["bitload", "--band", "D", "--snr-csv", str(profile),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {profile}: {why}\n"
    assert not out.exists()
    assert _partials(tmp_path) == []


def _set_cell(path, row, column, text):
    """Write ``text`` into one cell of the table at ``path``; ``row`` counts
    from the first row after the header."""
    head, *rows = path.read_bytes().decode().splitlines(keepends=True)
    line = rows[row].rstrip("\r\n")
    cells = line.split(",")
    cells[column] = text
    rows[row] = ",".join(cells) + rows[row][len(line):]
    path.write_bytes((head + "".join(rows)).encode())


@pytest.mark.parametrize("cell", ["", "abc"], ids=["blank", "abc"])
def test_bitload_refuses_a_damaged_snr_cell(default_run, tmp_path, capsys, cell):
    """A cell that is not a number is refused, not priced as a dead
    subcarrier."""
    profile = tmp_path / "metrics.csv"
    shutil.copyfile(default_run[0] / "band_W" / "metrics.csv", profile)
    _set_cell(profile, 100, 2, cell)
    out = tmp_path / "o"
    assert main(["bitload", "--band", "W", "--snr-csv", str(profile),
                 "--out", str(out)]) == 2
    # data row 100 is line 102 of the CRLF file, after the header
    assert capsys.readouterr().err == (
        f"configuration error: {profile}: line 102, cell 3: {cell!r} is not a number\n")
    assert not out.exists()
    assert _partials(tmp_path) == []


@pytest.mark.parametrize("bits", ["x", "nan", "4.5"])
def test_report_refuses_a_bits_value_that_is_not_an_order(default_run, tmp_path, capsys,
                                                          bits):
    """Refused as read, before any cast to an integer: no value is truncated
    and no RuntimeWarning raised (the test configuration makes those
    errors)."""
    out = tmp_path / "run"
    shutil.copytree(default_run[0], out)
    table = out / "band_W" / "bitload.csv"
    _set_cell(table, 100, 2, bits)
    before = _tree_bytes(out)
    assert main(["report", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {table}: ")
    assert _tree_bytes(out) == before


def _swap_columns(text, a, b):
    """``text``, a CSV table, with columns ``a`` and ``b`` swapped on every
    line, header included: each row keeps its values under their names."""
    lines = []
    for line in text.splitlines(keepends=True):
        body = line.rstrip("\r\n")
        cells = body.split(",")
        cells[a], cells[b] = cells[b], cells[a]
        lines.append(",".join(cells) + line[len(body):])
    return "".join(lines)


@pytest.mark.parametrize("damage, found", [
    (lambda text: _swap_columns(text, 1, 2), "'index,snr_db,freq_hz,evm_rms'"),
    (lambda text: text.split("\r\n", 1)[1], "'1,110234375000.000000,"),
], ids=["swapped-header", "headerless"])
def test_bitload_refuses_a_profile_without_the_metrics_header(default_run, tmp_path, capsys,
                                                              damage, found):
    """A profile whose columns are not the metrics table's would be priced
    from the wrong column, and one with no header would lose its first row
    as the header."""
    profile = tmp_path / "metrics.csv"
    profile.write_bytes(damage((default_run[0] / "band_D" / "metrics.csv")
                               .read_bytes().decode()).encode())
    out = tmp_path / "o"
    assert main(["bitload", "--band", "D", "--snr-csv", str(profile),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: {profile}: line 1: expected the header "
        f"'index,freq_hz,snr_db,evm_rms', found {found}")
    assert not out.exists()
    assert _partials(tmp_path) == []


@pytest.mark.parametrize("header", ["index,bits,freq_hz", "index,freq_hz,snr_db,evm_rms"],
                         ids=["swapped", "metrics"])
def test_report_refuses_a_bitload_table_under_another_header(default_run, tmp_path, capsys,
                                                             header):
    out = tmp_path / "run"
    shutil.copytree(default_run[0], out)
    table = out / "band_W" / "bitload.csv"
    table.write_bytes(header.encode() + b"\r\n" + table.read_bytes().split(b"\r\n", 1)[1])
    before = _tree_bytes(out)
    assert main(["report", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {table}: line 1: expected the header 'index,freq_hz,bits', "
        f"found {header!r}\n")
    assert _tree_bytes(out) == before


# every CSV artifact a run tree may hold, by file name pattern, and its table
CSV_TABLES = {"lock.csv": LOCK_CSV, "psd_*.csv": PSD_CSV, "metrics.csv": METRICS_CSV,
              "constellation_sc*.csv": CONSTELLATION_CSV, "bitload.csv": BITLOAD_CSV,
              "thresholds.csv": THRESHOLDS_CSV}


def test_every_csv_artifact_reads_back_through_its_table(default_run, default_lock_sim,
                                                          tmp_path):
    """Each CSV of a default ``run`` and ``lock-sim`` tree reads back under
    its table, and the values read, written again under it, give the file's
    bytes: the table is the whole of the file's format."""
    used = set()
    for root in (default_run[0], default_lock_sim[0]):
        for path in sorted(root.rglob("*.csv")):
            pattern = [p for p in CSV_TABLES if fnmatch.fnmatchcase(path.name, p)]
            assert pattern, f"{path.relative_to(root)} has no table"
            table = CSV_TABLES[pattern[0]]
            used.add(pattern[0])
            rows = read_table(path, table)
            columns = [c.astype(np.int64) if spec == "d" else c
                       for c, spec in zip(rows.T, table.specs)]
            write_table(tmp_path / "again.csv", table, *columns)
            assert (tmp_path / "again.csv").read_bytes() == path.read_bytes(), path.name
    assert used == set(CSV_TABLES)


@pytest.mark.parametrize("damage, why", [
    (lambda chain: "{", "Expecting property name enclosed in double quotes"),
    (lambda chain: json.dumps({k: v for k, v in json.loads(chain).items() if k != "lock"}),
     "missing field 'lock'"),
], ids=["not-json", "no-lock"])
def test_report_names_a_damaged_chain_json(default_run, tmp_path, capsys, damage, why):
    out = tmp_path / "run"
    shutil.copytree(default_run[0], out)
    chain = out / "band_W" / "chain.json"
    chain.write_text(damage(chain.read_text()))
    before = _tree_bytes(out)
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {chain}: {why}")
    assert _tree_bytes(out) == before


def test_package_binds_only_its_version():
    """Functions and classes are imported from their modules: the package
    binds ``__version__`` and, once they are imported, its submodules."""
    public = {name for name, value in vars(wdlink).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set()
    assert isinstance(wdlink.__version__, str)


# A fresh interpreter is the point of the next two tests: one checks what an
# import and a scenario load bring in, the other the installed console script.
# numpy.ma comes with the first np.unique (or np.setdiff1d, ...), 10-17 ms
# and about 1 MB that a load, and a lock-sim that never needs it, would pay.
def test_cli_import_and_load_leave_scipy_thread_pool_and_numpy_ma_unloaded():
    code = ("import sys, wdlink.cli; "
            "from wdlink.scenario import default_scenario_path, load_scenario; "
            "load_scenario(default_scenario_path()); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith('concurrent') or m.split('.')[:2] == ['numpy', 'ma']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("call", [
    "build_frame(band.plan, band.tx)",
    "BitLoadMap(bits=np.zeros(band.plan.n_subcarriers))",
    "read_metrics_csv(sys.argv[1], band.plan)",
], ids=["build_frame", "BitLoadMap", "read_metrics_csv"])
def test_frame_bit_map_and_metrics_reader_leave_numpy_ma_unloaded(default_run, call):
    """Each of these is the first set operation of a cold run, tx or report."""
    code = ("import sys; import numpy as np; "
            "from wdlink.bitload import BitLoadMap; "
            "from wdlink.ofdm_rx import read_metrics_csv; "
            "from wdlink.ofdm_tx import build_frame; "
            "from wdlink.scenario import default_scenario_path, load_scenario; "
            "band = load_scenario(default_scenario_path()).band('W'); "
            f"{call}; "
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code,
                           str(default_run[0] / "band_W" / "metrics.csv")],
                          capture_output=True, text=True, timeout=120, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_installed_entry_point(tmp_path):
    exe = shutil.which("sim")
    assert exe, "console script 'sim' not on PATH"
    proc = subprocess.run([exe, "tx", "--out", str(tmp_path / "t")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout)
    assert set(info) == {"W", "D"}
