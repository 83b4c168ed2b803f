"""Check that two source trees give the same `iosfd simulate` results.

    python3 tools/same_results.py OLD_TREE NEW_TREE [--config PATH ...]

Each tree is a copy of this repository, for example one made with
`git archive <commit> | tar -x -C DIR`.  Every config runs once per tree as
`python -m iosfd.cli simulate --threads 2`, with PYTHONPATH=<tree>/src and
one BLAS thread, into a temporary directory.  `tools/compare_results.py`
then compares the two outputs; its report is printed and its exit code
returned (0 same, 1 different, 2 no results).  A simulate run that fails
prints its error and exits with 3.  Without `--config`, the configs are
NEW_TREE's `configs/*.json`, `perfbench/configs/campaign-wo-ss.json` and
`perfbench/configs/ds-close-L256.json`.  Standard library only.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import compare_results

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_CONFIGS = ("campaign-wo-ss.json", "ds-close-L256.json")


def default_configs(tree: Path) -> list[Path]:
    return (sorted((tree / "configs").glob("*.json"))
            + [tree / "perfbench" / "configs" / name for name in BENCH_CONFIGS])


def simulate(tree: Path, config: Path, out: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{v: "1" for v in THREAD_VARS})
    return subprocess.run([sys.executable, "-m", "iosfd.cli", "simulate", "--config",
                           str(config), "--threads", "2", "--out", str(out)],
                          cwd=tree, env=env, capture_output=True, text=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree of the reference run")
    parser.add_argument("new", type=Path, help="source tree to compare with it")
    parser.add_argument("--config", type=Path, action="append",
                        help="config file to run in both trees (repeatable)")
    args = parser.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    configs = [c.resolve() for c in args.config or default_configs(new)]
    with tempfile.TemporaryDirectory() as tmp:
        outs = [(old, Path(tmp) / "old"), (new, Path(tmp) / "new")]
        for config in configs:
            for tree, out in outs:
                done = simulate(tree, config, out / config.stem)
                if done.returncode != 0:
                    print(f"simulate failed in {tree} on {config} (exit {done.returncode}):\n"
                          f"{done.stderr}", file=sys.stderr)
                    return 3
        return compare_results.main([str(out) for _, out in outs])


if __name__ == "__main__":
    sys.exit(main())
