"""`tools/ab_rounds.py` on a tiny config: a tree against itself, and against a
copy whose surface solve is changed."""
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TINY = ('{"name": "tiny", "scenario": {"k_users": 2, "l_elements": 4,'
        ' "user_anchors": [[20.0, 20.0, 1.5], [25.0, -35.0, 1.5]]},'
        ' "solver": {"max_outer_iters": 8}, "schemes": ["DS_IOS", "WO_IOS"], "seeds": [1, 2]}')


def ab_rounds(old: Path, new: Path, config: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab_rounds.py"), str(old),
                           str(new), "--config", str(config), "--rounds", "2", *extra],
                          capture_output=True, text=True, timeout=300)


def test_a_tree_against_itself_gives_the_same_cells(tmp_path):
    """Exit 0 with "cells: same", a median per tree and a block time in ms per
    outer iteration; `--set` reaches the config."""
    config = tmp_path / "tiny.json"
    config.write_text(TINY)
    out = ab_rounds(ROOT, ROOT, config, "--set", "scenario.l_elements=5",
                    "--block", "solve_qcqp")
    assert out.returncode == 0, out.stdout + out.stderr[-2000:]
    lines = out.stdout.splitlines()
    assert lines[0].startswith("tiny.json: 4 cells, ") and lines[0].endswith(
        " outer iterations per round, 2 rounds per tree")
    assert lines[1].startswith("  old  median ") and lines[3].startswith("  new  median ")
    assert lines[2].startswith("    solve_qcqp  ") and lines[2].endswith(" ms per outer iteration")
    assert " of 2 rounds" in lines[5] and lines[-1] == "cells: same"


def test_changed_results_exit_1(tmp_path):
    """A copy whose side solve smooths otherwise moves the DS_IOS cells: the
    tool names a differing cell and exits 1."""
    config = tmp_path / "tiny.json"
    config.write_text(TINY)
    shutil.copytree(ROOT / "src" / "iosfd", tmp_path / "tree" / "src" / "iosfd",
                    ignore=shutil.ignore_patterns("__pycache__"))
    phases = tmp_path / "tree" / "src" / "iosfd" / "phases.py"
    text = phases.read_text()
    assert "_SMOOTHING = 0.05 " in text
    phases.write_text(text.replace("_SMOOTHING = 0.05 ", "_SMOOTHING = 0.5 "))
    out = ab_rounds(ROOT, tmp_path / "tree", config)
    assert out.returncode == 1, out.stdout + out.stderr[-2000:]
    assert "cells differ: " in out.stdout and "'DS_IOS'" in out.stdout
