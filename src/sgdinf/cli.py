"""Command-line interface: simulate, report, schedule-dump."""

from __future__ import annotations

import argparse
import sys

from .batchmeans import ScheduleError, make_schedule
from .harness import ConfigError, ScenarioFailedError, simulate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdinf",
        description="Confidence intervals from averaged SGD: coverage "
                    "simulations and batch-schedule tools.")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run every entry of a config file")
    sim.add_argument("--config", required=True, help="YAML scenario file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--workers", type=int, default=None,
                     help="parallel replication workers (default: from config)")
    sim.add_argument("--seed", type=int, default=None,
                     help="override every scenario's base seed")

    rep = subs.add_parser("report", help="pretty-print a results.csv")
    rep.add_argument("--results", required=True, help="results.csv path")

    dump = subs.add_parser("schedule-dump", help="print batch-means boundaries")
    dump.add_argument("--n", type=int, required=True)
    dump.add_argument("--M", type=int, required=True)
    dump.add_argument("--alpha", type=float, required=True)
    return parser


def _cmd_report(path: str) -> int:
    try:
        with open(path) as fh:
            numbered = [(i, ln.rstrip("\n").split(","))
                        for i, ln in enumerate(fh, 1) if ln.strip()]
    except OSError as exc:
        print(f"error: cannot read results file {path}: {exc.strerror}",
              file=sys.stderr)
        return 2
    if not numbered:
        print(f"error: results file {path} is empty", file=sys.stderr)
        return 2
    header = numbered[0][1]
    for lineno, row in numbered:
        if len(row) != len(header):
            print(f"error: {path}:{lineno}: {len(row)} cells, the header has "
                  f"{len(header)}", file=sys.stderr)
            return 2
    lines = [row for _, row in numbered]
    widths = [max(len(row[i]) for row in lines) for i in range(len(header))]
    for row in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            rows = simulate(args.config, args.out, args.workers, args.seed)
            print(f"wrote {len(rows)} rows to {args.out}/results.csv")
            return 0
        if args.command == "report":
            return _cmd_report(args.results)
        if args.command == "schedule-dump":
            schedule = make_schedule(args.n, args.M, args.alpha)
            print(schedule.to_json())
            return 0
    except (ConfigError, ScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScenarioFailedError as exc:    # results.json holds the failures
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 1


if __name__ == "__main__":
    sys.exit(main())
