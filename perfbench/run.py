"""Host-time benchmark for wdlink.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see README.md):

    cold_run      a fresh ``python -m wdlink.cli run`` on the bundled scenario
    long_frame    in-process ``run_scenario`` with n_symbols=6144 on both bands
    lock_acquire  in-process ``lock_sim`` with an 8 MHz initial frequency error

Every process runs alone, with BLAS/OpenMP pinned to one thread, and writes
under ``.perfbench_out/`` in the checkout. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. The scenario keeps its own stage seeds, so ``--seed`` changes
no input (README.md says why).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SCENARIO = ROOT / "src" / "wdlink" / "data" / "default_scenario.json"
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import checks  # noqa: E402  (imports numpy, after the thread pins)
from worker import median_layers, repeat_units  # noqa: E402

WORKLOADS = ("cold_run", "long_frame", "lock_acquire")
SETUP_PROBES = 3
DEADLINE_S = 170.0   # every child is killed past this point of the run


def scenario_doc(workload: str) -> dict:
    """The bundled scenario with the workload's one edit; seeds untouched."""
    doc = json.loads(DEFAULT_SCENARIO.read_text())
    if workload == "long_frame":
        for band in doc["bands"]:
            band["tx"]["n_symbols"] = 6144
    elif workload == "lock_acquire":
        doc["lock"]["initial_freq_error_hz"] = 8e6
    return doc


class BenchError(RuntimeError):
    pass


class Bench:
    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env["TMPDIR"] = str(work)

    def spawn(self, args, stdout_path=None) -> tuple:
        """Run one child to its end; (wall seconds, exit code, peak RSS MB)."""
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError("out of time before starting a child process")
        with open(stdout_path or os.devnull, "w") as out, \
                open(self.work / "stderr.txt", "w") as err:
            t = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(left, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise BenchError(f"{args[:3]} ended by signal {-proc.returncode}")
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def child_json(self, args) -> dict:
        path = self.work / "child.json"
        _, rc, _ = self.spawn(args, stdout_path=path)
        if rc != 0:
            raise BenchError(f"{args[:2]} exited {rc}: "
                             + (self.work / "stderr.txt").read_text()[-2000:])
        return json.loads(path.read_text().splitlines()[-1])

    def setup_probes(self, scenario_path: Path) -> dict:
        probes = [self.child_json([str(HERE / "worker.py"), "setup", str(scenario_path)])
                  for _ in range(SETUP_PROBES)]
        return {k: median(p[k] for p in probes) for k in probes[0]}

    def cold_run(self, seconds: float, trace: bool) -> dict:
        doc = scenario_doc("cold_run")
        res = {"attempted": 0, "failed": 0, "problems": [], "rss_mb": [],
               "layers": [], "spans": []}
        first_summary = None

        def unit(traced):
            nonlocal first_summary
            out = self.work / f"unit{res['attempted']}"
            res["attempted"] += 1
            spans_path = self.work / "spans.json"
            if traced:
                args = [str(HERE / "worker.py"), "cli", str(spans_path)]
            else:
                args = ["-m", "wdlink.cli"]
            wall, rc, rss = self.spawn(args + ["run", "--out", str(out)])
            if rc != 0:
                res["failed"] += 1
                shutil.rmtree(out, ignore_errors=True)
                return wall
            if first_summary is None:
                res["problems"] += checks.check_full_run(out, doc)
                res["problems"] += self.report_reproduces(out)
                first_summary = checks.fingerprint(out)
            else:
                res["problems"] += checks.check_rerun(out, first_summary)
            artifact_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            shutil.rmtree(out)
            if traced:
                t = json.loads(spans_path.read_text())
                layers = t["layers"]
                layers["runner.artifact_bytes"] = artifact_bytes
                wall_ms = wall * 1e3
                layers["cli.self_ms"] = wall_ms - t["import_ms"] - t["root_ms"]
                layers["trace.coverage_pct"] = 100.0 * (
                    wall_ms - layers["cli.self_ms"] - layers["runner.self_ms"]) / wall_ms
                res["layers"].append(layers)
                res["spans"].append(t["spans"])
            else:
                res["rss_mb"].append(rss)
            return wall

        res["unit_s"], res["traced_s"] = repeat_units(unit, seconds, trace)
        res["layers"] = median_layers(res["layers"])
        return res

    def report_reproduces(self, out: Path) -> list:
        """``report`` on a copy of a run directory rewrites summary.json and
        capacity.json byte for byte."""
        copy = self.work / "report_copy"
        shutil.copytree(out, copy)
        _, rc, _ = self.spawn(["-m", "wdlink.cli", "report", "--out", str(copy)])
        problems = [] if rc == 0 else [f"report exited {rc}"]
        for name in ("summary.json", "capacity.json"):
            if (copy / name).read_bytes() != (out / name).read_bytes():
                problems.append(f"report rewrote {name} differently")
        shutil.rmtree(copy)
        return problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer(setup: dict, res: dict) -> dict:
    layers = res["layers"]
    m = {
        "import.wdlink_ms": metric(setup["import_ms"], "ms"),
        "import.modules": metric(setup["modules"], "count"),
        "scenario.load_scenario_ms": metric(setup["load_ms"], "ms"),
    }
    for key, value in sorted(layers.items()):
        if key.endswith("_ms"):
            unit = "ms"
        elif key.endswith("_pct"):
            unit = "%"
        elif key.endswith("_bytes"):
            unit, value = "bytes", int(value)
        else:
            unit, value = "count", int(value)
        m[key] = metric(value, unit)
    m["trace.overhead_ms"] = metric(
        (median(res["traced_s"]) - median(res["unit_s"])) * 1e3, "ms")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if not DEFAULT_SCENARIO.is_file():
        print(f"no wdlink source next to the benchmark ({DEFAULT_SCENARIO} missing)",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        bench = Bench(work, started)
        if args.workload == "cold_run":
            scenario_path = DEFAULT_SCENARIO
        else:
            scenario_path = work / "scenario.json"
            scenario_path.write_text(json.dumps(scenario_doc(args.workload), indent=2))
        setup = bench.setup_probes(scenario_path)
        if args.workload == "cold_run":
            res = bench.cold_run(args.seconds, bool(args.trace))
            rss = median(res["rss_mb"])
        else:
            res = bench.child_json([str(HERE / "worker.py"), "inproc", args.workload,
                                    str(scenario_path), str(work), str(args.seconds),
                                    str(args.trace)])
            rss = res["peak_rss_mb"]
    except BenchError as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload}: unit seconds {[round(t, 3) for t in res['unit_s']]}, "
          f"traced {[round(t, 3) for t in res['traced_s']]}", file=sys.stderr)
    for p in res["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(setup, res)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "units": res["spans"]}))
    else:
        metrics = {
            "setup_s": metric(setup["setup_s"], "s"),
            "run_s": metric(median(res["unit_s"]), "s"),
            "peak_rss_mb": metric(rss, "MB"),
        }
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
