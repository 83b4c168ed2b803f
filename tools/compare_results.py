"""Check that two `iosfd simulate` output directories hold the same results.

    python3 tools/compare_results.py OUT_A OUT_B

Every directory under OUT_A or OUT_B that holds a `results.csv` is one run
directory, matched with the one at the same relative path on the other side.
Two run directories agree when `results.csv` is equal apart from its
`wall_ms` column, `traces/` holds the same file names with the same bytes,
and `config.echo.json` has the same bytes.  For each run directory the
script prints the row and trace counts and sha256 prefixes of the results
without `wall_ms`, of the traces and of the config echo.  When
`results.csv` differs, it also prints the rows (keyed by scheme, sweep value
and seed) whose `iterations` or `terminated_by` changed, and the largest
relative change in `weighted_sum_rate`.  It exits with 0 when everything
agrees, 1 on any difference and 2 when a directory holds no results.
Standard library only.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import sys
from pathlib import Path

TIMING_COLUMN = "wall_ms"
KEY_COLUMNS = ("scheme", "sweep_value", "seed")
RATE_COLUMN = "weighted_sum_rate"
RUN_COLUMNS = ("iterations", "terminated_by")
PREFIX = 16
SHOWN = 10


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


def keyed_rows(res: str) -> dict[tuple, dict[str, str]]:
    """The rows of `results_text` output by (scheme, sweep value, seed)."""
    rows = list(csv.DictReader(io.StringIO(res)))
    return {tuple(row.get(c) for c in KEY_COLUMNS): row for row in rows}


def relative_change(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if a == b:
        return 0.0
    return abs(y - x) / abs(x) if x and math.isfinite(x) and math.isfinite(y) else math.inf


def row_changes(res_a: str, res_b: str) -> list[str]:
    """How the rows both results hold moved: how many differ, those whose
    iterations or stop reason changed, and the largest relative change in
    the weighted sum rate."""
    rows_a, rows_b = keyed_rows(res_a), keyed_rows(res_b)
    shared = [k for k in rows_a if k in rows_b]
    differ = [k for k in shared if rows_a[k] != rows_b[k]]
    moved = [k for k in differ if any(rows_a[k].get(c) != rows_b[k].get(c) for c in RUN_COLUMNS)]
    lines = [f"{len(differ)} of {len(shared)} shared rows differ; {len(moved)} changed "
             + " or ".join(RUN_COLUMNS)]
    for k in moved[:SHOWN]:
        lines.append(",".join(v or "" for v in k) + ": " + ", ".join(
            f"{c} {rows_a[k].get(c)} -> {rows_b[k].get(c)}" for c in RUN_COLUMNS))
    if differ and all(RATE_COLUMN in rows_a[k] for k in differ):
        def change(k):
            return relative_change(rows_a[k][RATE_COLUMN], rows_b[k][RATE_COLUMN])
        key = max(differ, key=change)
        lines.append(f"largest relative change in {RATE_COLUMN}: {change(key):.2g} "
                     f"({','.join(v or '' for v in key)})")
    return lines


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
        diffs += row_changes(res_a, res_b)
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
