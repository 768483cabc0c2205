"""The fresh-interpreter side of the benchmark; run.py starts it.

    worker.py setup SCENARIO
        Time ``import wdlink.cli`` and ``load_scenario(SCENARIO)``.
    worker.py inproc WORKLOAD SCENARIO WORK SECONDS TRACE
        Load SCENARIO, run one untimed warm-up unit of WORKLOAD, then timed
        units for about SECONDS. The first unit's output gets every check;
        each later unit must write the same bytes. With TRACE 1 the timed
        units alternate between untraced and traced.
    worker.py cli SPANS ARGS...
        Run ``wdlink.cli.main(ARGS)`` with every layer traced, then write the
        spans and layer metrics to SPANS; exits with main's code.

Each mode prints one JSON object as its last line of standard output.
"""

# Only modules that ``import wdlink.cli`` loads anyway come in before setup()
# counts sys.modules; the rest are imported where they are used.
import json
import sys
import time

MIN_ROUNDS = 2  # timed units (pairs of units when traced), whatever SECONDS says


def repeat_units(unit, seconds, trace):
    """One untimed warm-up unit, then rounds of timed units until about
    ``seconds`` of unit time, at least MIN_ROUNDS. A round is one untraced
    unit, followed by a traced one when ``trace``. ``unit(traced)`` returns
    its wall seconds; the result is (untraced seconds, traced seconds)."""
    unit(False)
    times = {False: [], True: []}
    spent, rounds = 0.0, 0
    while True:
        round_s = 0.0
        for traced in ((False, True) if trace else (False,)):
            dt = unit(traced)
            times[traced].append(dt)
            round_s += dt
        spent, rounds = spent + round_s, rounds + 1
        if rounds >= MIN_ROUNDS and spent + round_s > seconds:
            return times[False], times[True]


def median_layers(per_unit):
    from statistics import median
    return {k: median(u[k] for u in per_unit) for k in per_unit[0]} if per_unit else {}


def setup(scenario_path):
    t0 = time.perf_counter()
    import wdlink.cli  # noqa: F401
    t1 = time.perf_counter()
    modules = len(sys.modules)
    from wdlink.scenario import load_scenario
    scn = load_scenario(scenario_path)
    t2 = time.perf_counter()
    return scn, {"import_ms": (t1 - t0) * 1e3, "modules": modules,
                 "load_ms": (t2 - t1) * 1e3, "setup_s": t2 - t0}


def inproc(workload, scenario_path, work, seconds, trace):
    import resource
    import shutil
    from pathlib import Path

    scn, _ = setup(scenario_path)
    import checks
    from spans import Tracer
    from wdlink import runner

    doc = json.loads(Path(scenario_path).read_text())
    if workload == "long_frame":
        def call(out):
            return runner.run_scenario(scn, out)[1]
        check = checks.check_full_run
    elif workload == "lock_acquire":
        def call(out):
            return any(not b["locked"] for b in runner.lock_sim(scn, out).values())
        check = checks.check_lock_only
    else:
        raise SystemExit(f"unknown in-process workload {workload!r}")

    work = Path(work)
    res = {"attempted": 0, "failed": 0, "problems": [], "layers": [], "spans": []}
    first_digest = None

    def unit(traced):
        nonlocal first_digest
        out = work / f"unit{res['attempted']}"
        res["attempted"] += 1
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            t = time.perf_counter()
            failed = call(out)
            dt = time.perf_counter() - t
        finally:
            if tracer:
                tracer.uninstall()
        if "peak_rss_mb" not in res:
            # peak of setup plus one unit, as in a fresh ``sim`` process;
            # later units reuse the heap, so their peaks depend on its layout
            res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if failed:
            res["failed"] += 1
        else:
            if first_digest is None:
                res["problems"] += check(out, doc)
                first_digest = checks.fingerprint(out)
            else:
                res["problems"] += checks.check_rerun(out, first_digest)
        artifact_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out)
        if tracer:
            layers = tracer.layer_metrics()
            layers["runner.artifact_bytes"] = artifact_bytes
            layers["cli.self_ms"] = 0.0
            layers["trace.coverage_pct"] = 100.0 * (
                tracer.root_ms() - layers["runner.self_ms"]) / (dt * 1e3)
            res["layers"].append(layers)
            res["spans"].append(tracer.spans)
        return dt

    res["unit_s"], res["traced_s"] = repeat_units(unit, seconds, trace)
    res["layers"] = median_layers(res["layers"])
    return res


def traced_cli(spans_path, argv):
    t0 = time.perf_counter()
    import wdlink.cli
    import_ms = (time.perf_counter() - t0) * 1e3
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        rc = wdlink.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"import_ms": import_ms, "root_ms": tracer.root_ms(),
                       "layers": tracer.layer_metrics(), "spans": tracer.spans}, fh)
    return rc


def main(argv):
    mode = argv[0]
    if mode == "setup":
        print(json.dumps(setup(argv[1])[1]))
        return 0
    if mode == "inproc":
        workload, scenario_path, work, seconds, trace = argv[1:6]
        print(json.dumps(inproc(workload, scenario_path, work, float(seconds), trace == "1")))
        return 0
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
