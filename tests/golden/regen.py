"""Record the golden manifests of the contract runs.

    python tests/golden/regen.py

Runs each entry of ``RUNS`` (``sim run``, ``lock-sim`` and ``tx`` with and
without their flags) on the bundled scenario in process, through
``wdlink.cli.main``, then each entry of ``ON_RUN`` (``bitload`` on either
band's measured SNR and a ``report`` rebuild) on the ``run`` tree, and
writes ``manifests.json`` next to this file.  For each run it holds the
sha256 of every output file, the stdout and the exit code.  The numpy
version and the machine are recorded with them, because the hashes depend
on numpy's FFT and ufunc rounding.

``tests/test_golden.py`` compares against this file.  A change that alters
output bytes on purpose reruns this script and lists every changed file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

MANIFESTS = Path(__file__).with_name("manifests.json")
RUNS = {
    "run": ["run"],
    "run --seed-override 7": ["run", "--seed-override", "7"],
    "lock-sim": ["lock-sim"],
    "lock-sim --free-running": ["lock-sim", "--free-running"],
    "tx": ["tx"],
    "tx --clip-db 6": ["tx", "--clip-db", "6"],
}
# runs that read the ``run`` tree; ``{run}`` in an argument stands for it
ON_RUN = {
    "bitload --band W": ["bitload", "--band", "W", "--snr-csv", "{run}/band_W/metrics.csv"],
    "bitload --band D": ["bitload", "--band", "D", "--snr-csv", "{run}/band_D/metrics.csv"],
    "report": ["report"],
}


def platform_key() -> dict:
    """The pair the hashes depend on: numpy version and machine."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def capture(argv, out_dir) -> dict:
    """Run ``sim <argv> --out <out_dir>`` in process; return its exit code,
    its stdout and the sha256 of every file it wrote."""
    from wdlink.cli import main  # here, so the script can put src on sys.path first

    out = Path(out_dir)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main([*argv, "--out", str(out)])
    files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit_code": rc, "stdout": buf.getvalue(), "files": files}


def capture_on_run(name, run_dir, out_dir) -> dict:
    """``capture`` of an ``ON_RUN`` entry against the ``run`` tree in
    ``run_dir``.  ``report`` works on a copy of that tree with the two files
    it derives, ``summary.json`` and ``capacity.json``, removed."""
    if name == "report":
        shutil.copytree(run_dir, out_dir)
        for derived in ("summary.json", "capacity.json"):
            (Path(out_dir) / derived).unlink()
    return capture([arg.format(run=run_dir) for arg in ON_RUN[name]], out_dir)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {name: Path(tmp) / f"run{i}" for i, name in enumerate([*RUNS, *ON_RUN])}
        runs = {name: capture(argv, dirs[name]) for name, argv in RUNS.items()}
        runs.update({name: capture_on_run(name, dirs["run"], dirs[name]) for name in ON_RUN})
    MANIFESTS.write_text(json.dumps({**platform_key(), "runs": runs},
                                    indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFESTS}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    main()
