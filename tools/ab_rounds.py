"""Time two source trees against each other in one process, round by round.

    python3 tools/ab_rounds.py OLD_TREE NEW_TREE --config PATH
        [--set section.field=value ...] [--rounds N] [--block NAME ...]

Each tree is a copy of this repository, for example one made with
`git archive <commit> | tar -x -C DIR`.  Separate processes on a shared host
drift by tens of percent against each other, so both trees run here, in
one process with one BLAS thread: each tree's `src/iosfd` is loaded as a
package of its own (`iosfd_old`, `iosfd_new`).  A round runs every cell of
the config once, as `run_cells` over `campaign_jobs(cfg, 1)`, in each tree,
and is timed with `time.process_time`; the tree that goes first alternates
from round to round, after one untimed warm-up round per tree.
`--set scenario.l_elements=64` overrides a config field as `simulate
--scenario.l-elements 64` does.  `--block NAME` (repeatable) also times the
`iosfd.algorithm` global NAME, for example `build_quadratic_forms`,
`vectorize` or `solve_qcqp`, and reports it in ms per outer iteration.

Prints each tree's median seconds per round, the ratio NEW / OLD and the
rounds NEW took less time in.  Exits 1 if any run of either tree gives a
cell other iterations, another stop reason or other rates than OLD's
warm-up round, 2 if either tree rejects the config, 0 otherwise.
"""
from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SIDES = ("old", "new")


def load_tree(tree: Path, name: str):
    """`tree`/src/iosfd imported as the package `name`, with its submodules."""
    src = tree / "src" / "iosfd"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class BlockClock:
    """Process time spent in the `iosfd.algorithm` globals named, summed
    since the last `reset`."""

    def __init__(self, algorithm, names: list[str]):
        self.spent = dict.fromkeys(names, 0.0)
        for name in names:
            setattr(algorithm, name, self._timed(name, getattr(algorithm, name)))

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[name] += time.process_time() - start
        return timed

    def reset(self) -> None:
        self.spent = dict.fromkeys(self.spent, 0.0)


def run_round(package, cfg) -> tuple[float, dict]:
    """Process seconds for every cell of `cfg`, and each cell's iterations,
    stop reason and rates (as exact hex strings) by (scheme, sweep value,
    seed)."""
    campaign = package.campaign
    start = time.process_time()
    cells = [cell for job in campaign.campaign_jobs(cfg, 1) for cell in campaign.run_cells(*job)]
    spent = time.process_time() - start
    return spent, {key: (row.iterations, row.terminated_by,
                         *(float(x).hex() for x in (row.weighted_sum_rate, *row.r_down,
                                                    *row.r_up)))
                   for key, row, _ in cells}


def parse_sets(pairs: list[str]) -> list[tuple[str, str]]:
    out = []
    for pair in pairs:
        flag, sep, value = pair.partition("=")
        if not sep or not flag:
            raise SystemExit(f"--set takes section.field=value, got {pair!r}")
        out.append((flag, value))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree of the reference")
    parser.add_argument("new", type=Path, help="source tree to time against it")
    parser.add_argument("--config", type=Path, required=True, help="campaign config file")
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.FIELD=VALUE",
                        help="override one config field (repeatable)")
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds per tree")
    parser.add_argument("--block", action="append", default=[], metavar="NAME",
                        help="also time this iosfd.algorithm global (repeatable)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    overrides = parse_sets(args.set)

    packages, cfgs, clocks = {}, {}, {}
    for side, tree in zip(SIDES, (args.old, args.new)):
        packages[side] = load_tree(tree.resolve(), f"iosfd_{side}")
        try:
            cfgs[side] = packages[side].campaign.load_config(args.config, overrides)
        except packages[side].errors.IosfdError as exc:
            print(f"config error in the {side} tree: {exc}", file=sys.stderr)
            return 2
        clocks[side] = BlockClock(packages[side].algorithm, args.block)

    _, reference = run_round(packages["old"], cfgs["old"])
    iterations = sum(cell[0] for cell in reference.values())
    differ = set()
    times = {side: [] for side in SIDES}
    blocks = {side: {name: [] for name in args.block} for side in SIDES}
    for r in range(-1, args.rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            clocks[side].reset()
            spent, cells = run_round(packages[side], cfgs[side])
            differ |= {key for key in reference.keys() | cells.keys()
                       if cells.get(key) != reference.get(key)}
            if r >= 0:          # round -1 warms up each tree
                times[side].append(spent)
                for name, value in clocks[side].spent.items():
                    blocks[side][name].append(value)

    print(f"{args.config.name}: {len(reference)} cells, {iterations} outer iterations "
          f"per round, {args.rounds} rounds per tree")
    medians = {side: statistics.median(times[side]) for side in SIDES}
    for side in SIDES:
        print(f"  {side}  median {medians[side]:.4f} s per round")
        for name, values in blocks[side].items():
            print(f"    {name}  {statistics.median(values) * 1e3 / iterations:.4f} ms per "
                  f"outer iteration")
    won = sum(n < o for o, n in zip(times["old"], times["new"]))
    print(f"  ratio new / old {medians['new'] / medians['old']:.4f}; new took less time in "
          f"{won} of {args.rounds} rounds")
    if differ:
        print(f"cells differ: {len(differ)} of {len(reference)}, first {sorted(differ, key=repr)[0]}")
        return 1
    print("cells: same")
    return 0


if __name__ == "__main__":
    sys.exit(main())
