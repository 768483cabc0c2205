"""Byte identity of the contract runs against ``golden/manifests.json``.

The hashes depend on numpy's FFT and ufunc rounding, so on a numpy version
or machine other than the recorded pair the comparison is skipped.  A change
that alters output bytes on purpose reruns ``python tests/golden/regen.py``.
"""

import json

import pytest

from golden.regen import MANIFESTS, ON_RUN, RUNS, capture, capture_on_run, platform_key

GOLDEN = json.loads(MANIFESTS.read_text())


def _require_recorded_platform():
    recorded = {key: GOLDEN[key] for key in platform_key()}
    if platform_key() != recorded:
        here = platform_key()
        pytest.skip(f"golden manifests were recorded with numpy {recorded['numpy']} "
                    f"on {recorded['machine']}; this is numpy {here['numpy']} "
                    f"on {here['machine']}")


def _assert_matches(name, got):
    want = GOLDEN["runs"][name]
    assert got["exit_code"] == want["exit_code"], f"{name}: exit code"
    assert got["stdout"] == want["stdout"], f"{name}: stdout"
    for path in sorted(set(want["files"]) | set(got["files"])):
        assert got["files"].get(path) == want["files"].get(path), (
            f"{name}: {path} differs from the golden manifest")


def test_default_run_matches_golden(default_run):
    _require_recorded_platform()
    _assert_matches("run", default_run[1])


def test_seed_override_run_matches_golden(tmp_path):
    _require_recorded_platform()
    name = "run --seed-override 7"
    _assert_matches(name, capture(RUNS[name], tmp_path / "out"))


@pytest.mark.parametrize("name", ["lock-sim", "lock-sim --free-running",
                                  "tx", "tx --clip-db 6"])
def test_subcommand_matches_golden(name, default_lock_sim, tmp_path):
    _require_recorded_platform()
    got = (default_lock_sim[1] if name == "lock-sim"
           else capture(RUNS[name], tmp_path / "out"))
    _assert_matches(name, got)


@pytest.mark.parametrize("name", list(ON_RUN))
def test_run_tree_subcommand_matches_golden(name, default_run, tmp_path):
    _require_recorded_platform()
    _assert_matches(name, capture_on_run(name, default_run[0], tmp_path / "out"))
