"""Command-line front end.

    iosfd simulate --config cfg.json [--threads N] [--out DIR] [--section.field value ...]
    iosfd aggregate --in results.csv [--out FILE]

`aggregate` writes the mean and standard error of the weighted sum rate per
sweep value and scheme.  Exit codes: 0 success, 2 configuration or input
error, 3 numerical/divergence error.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .campaign import (aggregates_to_csv, emit_figure_data, load_config, read_results_csv,
                       write_campaign)
from .errors import ConfigError, ConvergenceError, GeometryError, NumericalError


def _parse_overrides(extras: list[str]) -> list[tuple[str, str]]:
    pairs = []
    i = 0
    while i < len(extras):
        flag = extras[i]
        if not flag.startswith("--") or len(flag) <= 2:
            raise ConfigError(f"unrecognized argument: {flag}")
        if i + 1 >= len(extras):
            raise ConfigError(f"override {flag} is missing a value")
        pairs.append((flag[2:], extras[i + 1]))
        i += 2
    return pairs


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask), else all cores."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _simulate(args, extras: list[str]) -> int:
    cpus = _available_cpus()
    if not 0 <= args.threads <= cpus:
        raise ConfigError(f"--threads must be in [0, {cpus}], the CPUs this process may use "
                          f"(0: one per CPU), got {args.threads}")
    cfg = load_config(args.config, _parse_overrides(extras))
    threads = args.threads if args.threads else cpus
    base = write_campaign(cfg, args.out, threads=threads)
    print(f"wrote {base / 'results.csv'}")
    return 0


def _aggregate(args, extras: list[str]) -> int:
    if extras:
        raise ConfigError(f"unrecognized argument: {extras[0]}")
    try:
        text = Path(args.infile).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read results file {args.infile}: {exc.strerror}") from None
    try:
        aggs = emit_figure_data(read_results_csv(text))
    except ConfigError as exc:
        raise ConfigError(f"{args.infile}: {exc}") from None
    csv_text = aggregates_to_csv(aggs)
    if args.out:
        try:
            Path(args.out).write_text(csv_text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iosfd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte-Carlo campaign")
    sim.add_argument("--config", required=True, help="campaign config (JSON)")
    sim.add_argument("--threads", type=int, default=0,
                     help="worker processes, at most the CPUs this process may use "
                          "(default 0: one per such CPU)")
    sim.add_argument("--out", default="out", help="output directory")

    agg = sub.add_parser("aggregate", help="aggregate a results.csv into figure data")
    agg.add_argument("--in", dest="infile", required=True, help="results.csv path")
    agg.add_argument("--out", default=None, help="output CSV (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        if args.command == "simulate":
            return _simulate(args, extras)
        return _aggregate(args, extras)
    except (ConfigError, GeometryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ConvergenceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
