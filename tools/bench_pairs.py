"""Run the benchmark on two source trees in alternating pairs and summarize it.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W
        [--pairs 10] [--seconds 45] [--seed-base S] [--out FILE]

Each tree is a copy of this repository, for example one made with
`git archive <commit> | tar -x -C DIR`.  Pair i runs
`python3 perfbench/run.py --workload W --seed S+i --seconds X --trace 0` once
in each tree, from that tree's directory; the parent runs first in even
pairs and the change first in odd ones.  The summary holds every pair's
values, each metric's median, q1 and q3 per side (inclusive quartiles), the
pairs the change won and tied, with the better direction read from
CHANGE_TREE's BENCHMARK.json, and the first `machine` line.  It is printed,
or merged into FILE under `workloads.W` when `--out` is given, so one file
can hold several workloads.  A run that exits nonzero, does not read
`"correct": true` or counts a failed run stops the tool with exit code 1
and nothing written.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_output(stdout: str) -> tuple[dict | None, dict | None]:
    """The `machine` record and the result record (the last line that is a
    JSON object) of one run's standard output; None where one is missing."""
    machine = result = None
    for line in stdout.splitlines():
        if line.startswith("machine ") and machine is None:
            machine = json.loads(line[len("machine "):])
        elif line.startswith("{"):
            result = json.loads(line)
    return machine, result


def run_ok(result: dict | None) -> bool:
    return result is not None and result.get("correct") is True and result.get("failed") == 0


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """One workload's summary of `pairs`, each {"seed", "first", "parent",
    "change"} with the two result records; `better` maps each metric to
    "lower" or "higher"."""
    metrics = {}
    for name, direction in better.items():
        runs = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        if not runs["parent"]:
            continue
        sign = 1.0 if direction == "higher" else -1.0
        entry = {"unit": pairs[0]["change"]["metrics"][name]["unit"], "better": direction}
        for side in SIDES:
            values = runs[side]
            q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                         if len(values) > 1 else values * 3)
            entry.update({f"{side}_median": statistics.median(values),
                          f"{side}_q1": q1, f"{side}_q3": q3})
        diffs = [sign * (c - p) for p, c in zip(runs["parent"], runs["change"])]
        entry.update(change_wins=sum(d > 0 for d in diffs), ties=sum(d == 0 for d in diffs),
                     parent_runs=runs["parent"], change_runs=runs["change"])
        metrics[name] = entry
    return {
        "pairs": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "correct": all(run_ok(p[side]) for p in pairs for side in SIDES),
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
        "untraced": metrics,
    }


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float
                  ) -> tuple[dict | None, dict | None]:
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    machine, result = parse_output(done.stdout)
    if done.returncode != 0 or not run_ok(result):
        print(f"run in {tree}, seed {seed}, exit {done.returncode}, result {result}:\n"
              f"{done.stderr[-2000:]}", file=sys.stderr)
    return machine, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--seed-base", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--out", type=Path, help="JSON file to merge the summary into")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    machine, pairs = None, []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            run_machine, result = run_benchmark(trees[side], args.workload, seed, args.seconds)
            machine = machine or run_machine
            pair[side] = result
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr, flush=True)
        if not (run_ok(pair["parent"]) and run_ok(pair["change"])):
            return 1
        pairs.append(pair)

    summary = summarize(pairs, better)
    if args.out is None:
        print(json.dumps({"machine": machine, "workloads": {args.workload: summary}}, indent=1))
    else:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.setdefault("machine", machine)
        doc.setdefault("workloads", {})[args.workload] = summary
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
