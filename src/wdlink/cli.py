"""Command-line entry point.

    sim <subcommand> [--scenario <file>] --out <dir> [subcommand flags]

Subcommands: lock-sim, tx, run, bitload, report.  ``--seed-override`` goes
to run and lock-sim, ``--rbw-hz`` to run, lock-sim and tx; a subcommand
rejects a flag it would ignore.  ``--rbw-hz`` and ``--clip-db`` take only a
finite positive number, and ``--rbw-hz`` must fit each record the subcommand
estimates a PSD from.  The scenario is loaded (and, with
``--seed-override``, re-seeded) before any output is written, so a bad file
or flag leaves no output directory.  Exit codes: 0 success, 2
configuration/usage error, 3 lock or sync failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .runner import bitload_only, build_summary, lock_sim, run_scenario, tx_only
from .scenario import ScenarioError, default_scenario_path, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHAIN = 3
EXIT_IO = 4

# the records whose PSDs --rbw-hz sets, per subcommand (BandScenario.check_psd_rbw)
RBW_RECORDS = {"run": ("tx", "rx"), "tx": ("tx",), "lock-sim": ("lock",)}


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return seed


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be a finite positive number")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Dual-band locked-laser OFDM link simulator.",
    )
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def common(p):
        p.add_argument("--scenario", default=None,
                       help="scenario JSON (default: bundled desk-scale scenario)")
        p.add_argument("--out", required=True, help="output directory")

    def seed_override(p):
        p.add_argument("--seed-override", type=_seed, default=None,
                       help="replace all scenario seeds from one master seed")

    def rbw(p):
        p.add_argument("--rbw-hz", type=_positive, default=None,
                       help="resolution bandwidth for PSD artifacts")

    p_lock = sub.add_parser("lock-sim", help="run only the laser locking loops")
    common(p_lock)
    seed_override(p_lock)
    rbw(p_lock)
    p_lock.add_argument("--free-running", action="store_true",
                        help="emit the unlocked beat spectrum instead")

    p_tx = sub.add_parser("tx", help="synthesize frames and report PAPR")
    common(p_tx)
    rbw(p_tx)
    p_tx.add_argument("--clip-db", type=_positive, default=None,
                      help="override the scenario clip ratio")

    p_run = sub.add_parser("run", help="full chain: lock, transmit, channel, receive, load")
    common(p_run)
    seed_override(p_run)
    rbw(p_run)

    p_bl = sub.add_parser("bitload", help="bit-load an external SNR profile CSV")
    common(p_bl)
    p_bl.add_argument("--snr-csv", required=True,
                      help="metrics CSV (index,freq_hz,snr_db,evm_rms)")
    p_bl.add_argument("--band", required=True, help="band name from the scenario")

    p_rep = sub.add_parser("report", help="rebuild summary.json from stored artifacts")
    common(p_rep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG

    try:
        path = args.scenario if args.scenario else default_scenario_path()
        scn = load_scenario(path)
        if getattr(args, "seed_override", None) is not None:
            scn = scn.with_seed_override(args.seed_override)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"cannot read scenario: {e}", file=sys.stderr)
        return EXIT_IO
    if getattr(args, "rbw_hz", None) is not None:
        try:
            for band in scn.bands:
                band.check_psd_rbw(args.rbw_hz, RBW_RECORDS[args.command])
        except ValueError as e:
            parser.error(f"argument --rbw-hz: {e}")

    try:
        if args.command == "run":
            summary, failed = run_scenario(scn, args.out, rbw_hz=args.rbw_hz)
            print(json.dumps(summary["totals"], indent=2, sort_keys=True))
            return EXIT_CHAIN if failed else EXIT_OK
        if args.command == "lock-sim":
            info = lock_sim(scn, args.out, rbw_hz=args.rbw_hz,
                            free_running=args.free_running)
            print(json.dumps(info, indent=2, sort_keys=True))
            failed = any(v.get("locked") is False for v in info.values())
            return EXIT_CHAIN if failed else EXIT_OK
        if args.command == "tx":
            info = tx_only(scn, args.out, clip_db=args.clip_db, rbw_hz=args.rbw_hz)
            print(json.dumps(info, indent=2, sort_keys=True))
            return EXIT_OK
        if args.command == "bitload":
            rep = bitload_only(scn, args.band, args.snr_csv, args.out)
            print(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
            return EXIT_OK
        # report: argparse admits no other subcommand
        summary = build_summary(scn, args.out)
        print(json.dumps(summary["totals"], indent=2, sort_keys=True))
        return EXIT_OK
    except KeyError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
