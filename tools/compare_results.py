"""Check that two `iosfd simulate` output directories hold the same results.

    python3 tools/compare_results.py OUT_A OUT_B

Every directory under OUT_A or OUT_B that holds a `results.csv` is one run
directory, matched with the one at the same relative path on the other side.
Two run directories agree when `results.csv` is equal apart from its
`wall_ms` column, `traces/` holds the same file names with the same bytes,
and `config.echo.json` has the same bytes.  For each run directory the
script prints the row and trace counts and sha256 prefixes of the results
without `wall_ms`, of the traces and of the config echo.  It exits with 0
when everything agrees, 1 on any difference and 2 when a directory holds no
results.  Standard library only.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from pathlib import Path

TIMING_COLUMN = "wall_ms"
PREFIX = 16


def results_text(path: Path) -> str:
    """`results.csv` without its timing column, rows joined by newlines."""
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    drop = rows[0].index(TIMING_COLUMN) if rows and TIMING_COLUMN in rows[0] else None
    return "\n".join(",".join(v for i, v in enumerate(row) if i != drop) for row in rows)


def traces(run: Path) -> dict[str, bytes]:
    folder = run / "traces"
    if not folder.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir()) if p.is_file()}


def traces_digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name])
    return h.hexdigest()[:PREFIX]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:PREFIX]


Summary = tuple[str, dict[str, bytes], bytes]


def summarize(run: Path) -> Summary:
    """Results without the timing column, trace files and config echo of a run."""
    echo = run / "config.echo.json"
    echo_bytes = echo.read_bytes() if echo.is_file() else b""
    return results_text(run / "results.csv"), traces(run), echo_bytes


def compare_runs(a: Summary, b: Summary) -> list[str]:
    """Differences between two run directories, empty when they agree."""
    (res_a, tr_a, echo_a), (res_b, tr_b, echo_b) = a, b
    diffs = []
    if res_a != res_b:
        rows_a, rows_b = res_a.split("\n"), res_b.split("\n")
        first = next((i for i, (x, y) in enumerate(zip(rows_a, rows_b)) if x != y),
                     min(len(rows_a), len(rows_b)))
        diffs.append(f"results.csv differs (without {TIMING_COLUMN}) from line {first + 1}; "
                     f"{len(rows_a) - 1} against {len(rows_b) - 1} rows")
    if tr_a.keys() != tr_b.keys():
        only_a, only_b = sorted(tr_a.keys() - tr_b.keys()), sorted(tr_b.keys() - tr_a.keys())
        diffs.append(f"trace names differ: only in first {only_a[:5]}, only in second {only_b[:5]}")
    changed = sorted(n for n in tr_a.keys() & tr_b.keys() if tr_a[n] != tr_b[n])
    if changed:
        diffs.append(f"{len(changed)} trace files differ, first {changed[:5]}")
    if echo_a != echo_b:
        diffs.append("config.echo.json differs")
    return diffs


def describe(summary: Summary) -> str:
    res, tr, echo = summary
    rows = res.count("\n")     # lines after the header
    return (f"{rows} rows, {len(tr)} traces; results {digest(res.encode())} / "
            f"traces {traces_digest(tr)} / config {digest(echo)}")


def run_dirs(root: Path) -> dict[Path, Path]:
    return {p.parent.relative_to(root): p.parent for p in sorted(root.rglob("results.csv"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=Path, help="output directory of one simulate run")
    parser.add_argument("second", type=Path, help="output directory to compare it with")
    args = parser.parse_args(argv)
    runs_a, runs_b = run_dirs(args.first), run_dirs(args.second)
    if not runs_a or not runs_b:
        print("no results.csv under " + (str(args.first) if not runs_a else str(args.second)),
              file=sys.stderr)
        return 2
    same = True
    for rel in sorted(runs_a.keys() | runs_b.keys()):
        if rel not in runs_a or rel not in runs_b:
            print(f"{rel}: only in {'first' if rel in runs_a else 'second'}")
            same = False
            continue
        a, b = summarize(runs_a[rel]), summarize(runs_b[rel])
        diffs = compare_runs(a, b)
        if diffs:
            same = False
            print(f"{rel}: DIFFERENT")
            for line in diffs:
                print(f"  {line}")
            print(f"  first:  {describe(a)}")
            print(f"  second: {describe(b)}")
        else:
            print(f"{rel}: same, {describe(a)}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
